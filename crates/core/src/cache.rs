//! The counters and the per-alien-term layer of the stack's two memo
//! tables: the logical product's [`SplitCache`](crate::logical::SplitCache)
//! and the driver's summary cache.
//!
//! - [`CacheStats`]: the counter family both tables count into, built on
//!   [`cai_obs::CounterFamily`] (cell indices in [`cs`]);
//! - [`TermMemo`]: the sub-structural layer beneath the split cache — a
//!   [`cai_term::PurifyMemo`] keyed per canonicalized alien term (via
//!   `cai_term::fingerprint`), so two conjunctions sharing alien terms
//!   share their purification work and their fresh names. Stable names are
//!   what make *partial hits* possible: a cached split of `E ⊆ E'` can be
//!   resumed on the delta `E' \ E` instead of re-saturating from scratch.

use cai_obs::{CounterFamily, FamilySnapshot};
use cai_term::{PurifyMemo, Term, TermSplit, Var};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// [`CacheStats`] counter names, in cell order (indices in [`cs`]).
pub const CACHE_COUNTERS: &[&str] = &[
    "hits",
    "misses",
    "partial_hits",
    "skips",
    "evictions",
    "corruptions",
    "term_hits",
    "term_misses",
];

/// Cell indices into [`CACHE_COUNTERS`].
pub mod cs {
    /// Lookups answered verbatim from the cache.
    pub const HITS: usize = 0;
    /// Lookups that computed from scratch.
    pub const MISSES: usize = 1;
    /// Lookups answered by resuming from a sub-structural base entry.
    pub const PARTIAL_HITS: usize = 2;
    /// Computed values *not* stored because they were budget-degraded.
    pub const SKIPS: usize = 3;
    /// Entries dropped to make room (or because their inputs changed).
    pub const EVICTIONS: usize = 4;
    /// Entries rejected by a checksum integrity audit.
    pub const CORRUPTIONS: usize = 5;
    /// Per-alien-term memo lookups answered from the memo.
    pub const TERM_HITS: usize = 6;
    /// Per-alien-term memo lookups that recomputed.
    pub const TERM_MISSES: usize = 7;
}

/// Shared observability counters for a memo table — a thin facade over a
/// [`cai_obs::CounterFamily`]. Cloning shares the underlying cells, so one
/// `CacheStats` can aggregate over every handle to a shared cache.
#[derive(Clone, Debug)]
pub struct CacheStats {
    fam: CounterFamily,
}

impl Default for CacheStats {
    fn default() -> CacheStats {
        CacheStats {
            fam: CounterFamily::new(CACHE_COUNTERS),
        }
    }
}

impl CacheStats {
    /// Fresh counters, all zero.
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// Add `n` to the counter at [`cs`] index `idx`.
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        self.fam.add(idx, n);
    }

    /// Add one to the counter at [`cs`] index `idx`.
    #[inline]
    pub fn bump(&self, idx: usize) {
        self.fam.bump(idx);
    }

    /// Current value of the counter at [`cs`] index `idx`.
    pub fn get(&self, idx: usize) -> u64 {
        self.fam.get(idx)
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> FamilySnapshot {
        self.fam.snapshot()
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Default capacity of the per-alien-term memo (entries, not bytes).
pub const DEFAULT_TERM_MEMO_CAPACITY: usize = 4096;

struct TermMemoInner {
    /// Stable fresh names, one per alien term ever seen. **Never
    /// evicted**: cached saturated elements mention these names, so a
    /// renamed term would leak stale variables into resumed splits.
    /// Names are two machine words per term; the map stays tiny.
    names: BTreeMap<Term, Var>,
    /// The replayable splits, keyed by term fingerprint and verified
    /// against the stored term on every hit. Capacity-bounded; dropping
    /// payloads is always safe because names persist (a recomputed split
    /// is bit-identical to the dropped one).
    splits: HashMap<u64, TermSplit>,
}

/// The sub-structural memo: purification splits keyed per canonicalized
/// alien term, consulted by the purifier for every alien term (it
/// implements [`cai_term::PurifyMemo`]).
///
/// Cloning shares the underlying tables — the blessed way to share the
/// memo across products, rounds, and threads.
#[derive(Clone)]
pub struct TermMemo {
    inner: Arc<Mutex<TermMemoInner>>,
    /// Payload capacity, fixed at construction; 0 disables the payload
    /// table.
    capacity: usize,
    stats: CacheStats,
}

impl fmt::Debug for TermMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("TermMemo")
            .field("names", &inner.names.len())
            .field("splits", &inner.splits.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl TermMemo {
    /// A memo holding at most `capacity` splits, counting into the given
    /// (shared) stats — how the split cache and its term memo report
    /// through one [`CacheStats`]. Capacity 0 disables the payload table
    /// (names are still minted stably when consulted).
    pub fn new(capacity: usize, stats: CacheStats) -> TermMemo {
        TermMemo {
            inner: Arc::new(Mutex::new(TermMemoInner {
                names: BTreeMap::new(),
                splits: HashMap::new(),
            })),
            capacity,
            stats,
        }
    }

    fn lock(&self) -> MutexGuard<'_, TermMemoInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The payload capacity (0 means the payload table is disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of distinct alien terms ever named.
    pub fn names_len(&self) -> usize {
        self.lock().names.len()
    }
}

impl PurifyMemo for TermMemo {
    fn name_for(&self, t: &Term) -> Var {
        let mut inner = self.lock();
        if let Some(&v) = inner.names.get(t) {
            return v;
        }
        // Minted under the lock so concurrent purifiers agree on the name.
        let v = Var::fresh("t");
        inner.names.insert(t.clone(), v);
        v
    }

    fn lookup(&self, fp: u64, t: &Term) -> Option<TermSplit> {
        let inner = self.lock();
        let hit = inner
            .splits
            .get(&fp)
            .filter(|s| s.entries.last().is_some_and(|d| d.term == *t))
            .cloned();
        drop(inner);
        if hit.is_some() {
            self.stats.bump(cs::TERM_HITS);
        } else {
            self.stats.bump(cs::TERM_MISSES);
        }
        hit
    }

    fn store(&self, fp: u64, _t: &Term, split: &TermSplit) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.splits.len() >= self.capacity && !inner.splits.contains_key(&fp) {
            inner.splits.clear();
            self.stats.bump(cs::EVICTIONS);
        }
        inner.splits.insert(fp, split.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_memo_names_survive_payload_eviction() {
        let memo = TermMemo::new(1, CacheStats::new());
        let split = |t: &Term, name: Var| TermSplit {
            entries: vec![cai_term::TermDef {
                term: t.clone(),
                name,
                side: cai_term::Side::Left,
                pure: t.clone(),
            }],
        };
        let t1 = Term::int(1);
        let t2 = Term::int(2);
        let n1 = memo.name_for(&t1);
        PurifyMemo::store(&memo, t1.fingerprint(), &t1, &split(&t1, n1));
        assert!(PurifyMemo::lookup(&memo, t1.fingerprint(), &t1).is_some());
        // A second term clears the payload table (capacity 1)…
        let n2 = memo.name_for(&t2);
        PurifyMemo::store(&memo, t2.fingerprint(), &t2, &split(&t2, n2));
        assert!(PurifyMemo::lookup(&memo, t1.fingerprint(), &t1).is_none());
        // …but the names are stable forever.
        assert_eq!(memo.name_for(&t1), n1);
        assert_eq!(memo.name_for(&t2), n2);
        assert_eq!(memo.stats.get(cs::EVICTIONS), 1);
    }
}

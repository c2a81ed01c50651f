//! Precision provenance: the blame table that says where each precision
//! loss happened.
//!
//! The combination operators trade precision for termination at several
//! sites — widenings, budget degradations, context-cap overflows,
//! quarantines, defective Alternate operators. Counters say *how often*
//! those sites fire; the blame table says *where*: every loss becomes one
//! event carrying its scope (procedure / loop), site string, domain path,
//! [`LossKind`], logical round number, and fuel spent, and the events
//! aggregate into per-scope, per-site rows of a [`BlameTable`] with top-K
//! ranking and JSON export.
//!
//! This module keeps no table of its own. Losses are recorded on the
//! run's `cai_core::Budget` (its `degrade`, `incident` and `lose`
//! methods), whose observation log belongs to that run: the table comes
//! back in the run's `DegradationReport`, and two analyses in one process
//! never see each other's rows. What lives here is the row type and the
//! thread-local context a loss is attributed to — the scope labels
//! ([`scope`]) and the logical round ([`set_round`]).
//!
//! Design constraints, shared with the span tracer ([`crate::trace`]):
//!
//! 1. **Observation only.** Nothing ever reads a blame row back into an
//!    analysis decision.
//! 2. **Deterministic across schedules.** Events carry *logical* round
//!    numbers, never wall clock. Scopes live in thread-local stacks, and
//!    jobs are shared-nothing, so the labels a run produces do not depend
//!    on which worker thread ran which job. Aggregation is additive and
//!    commutative — a `(scope, site, domain, kind)` key maps to counts,
//!    fuel totals, and round min/max, all order-independent — so merging
//!    the per-job tables in any order yields the same table at every
//!    thread count.
//!
//! Adding a loss site: push a [`scope`] guard if the enclosing region is
//! not already labelled, then call `Budget::lose` at the point where
//! precision is given up (see DESIGN.md §11).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::escape_metric_name;

/// Why a fact was lost. Every variant has a stable string name
/// ([`LossKind::as_str`]); the tracer's `incident/<kind>` instants use
/// the same strings, so Chrome traces and blame reports cross-reference
/// by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum LossKind {
    /// A loop fixpoint applied the widening operator.
    Widen,
    /// A governed operation substituted a sound over-approximation
    /// (every `Budget::degrade` call).
    BudgetDegrade,
    /// The post-widening narrowing pass could not recover: it stopped
    /// early, produced an out-of-bracket candidate, or failed the
    /// inductiveness re-check.
    NarrowFailed,
    /// The per-procedure context cap overflowed; entry contexts were
    /// widened together.
    CtxCapOverflow,
    /// A procedure exhausted its retry allowance and was pinned to the
    /// sound ⊤ summary.
    Quarantine,
    /// A defective Alternate operator was skipped during NO-saturation,
    /// dropping the cross-domain facts it would have transferred.
    AlternateSkipped,
}

impl LossKind {
    /// Every kind, for coverage checks.
    pub const ALL: [LossKind; 6] = [
        LossKind::Widen,
        LossKind::BudgetDegrade,
        LossKind::NarrowFailed,
        LossKind::CtxCapOverflow,
        LossKind::Quarantine,
        LossKind::AlternateSkipped,
    ];

    /// The stable string name used in JSON exports and tracer instants.
    pub fn as_str(&self) -> &'static str {
        match self {
            LossKind::Widen => "widen",
            LossKind::BudgetDegrade => "budget-degrade",
            LossKind::NarrowFailed => "narrow-failed",
            LossKind::CtxCapOverflow => "ctx-cap-overflow",
            LossKind::Quarantine => "quarantine",
            LossKind::AlternateSkipped => "alternate-skipped",
        }
    }
}

impl fmt::Display for LossKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

thread_local! {
    /// The enclosing scope labels (procedure, then loops, innermost
    /// last) plus the saved logical round of each enclosing scope.
    static SCOPES: RefCell<Vec<(String, u64)>> = const { RefCell::new(Vec::new()) };
    /// The current logical round (fixpoint iteration, Jacobi round,
    /// narrowing round) — attached to losses recorded without an
    /// explicit round, e.g. by `Budget::degrade`.
    static ROUND: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard for one scope label; see [`scope`].
pub struct ScopeGuard {
    _private: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            if let Some((_, saved)) = s.borrow_mut().pop() {
                ROUND.with(|r| r.set(saved));
            }
        });
    }
}

/// Pushes a scope label (a procedure name, `loop#2`, …) onto the current
/// thread's scope stack until the returned guard drops. Entering a scope
/// zeroes the logical round (see [`set_round`]) and restores the
/// enclosing scope's round on exit.
#[must_use = "the scope ends when the guard drops"]
pub fn scope(label: String) -> ScopeGuard {
    let saved = ROUND.with(|r| r.replace(0));
    SCOPES.with(|s| s.borrow_mut().push((label, saved)));
    ScopeGuard { _private: () }
}

/// Sets the current logical round — the loop fixpoint iteration, Jacobi
/// round, or narrowing round — attached to losses recorded at the
/// calling thread's scope.
#[inline]
pub fn set_round(round: u64) {
    ROUND.with(|r| r.set(round));
}

/// The calling thread's current logical round (see [`set_round`]).
pub fn current_round() -> u64 {
    ROUND.with(Cell::get)
}

/// The calling thread's `/`-joined scope labels, outermost first, or
/// `(top)` outside any scope.
pub fn current_scope() -> String {
    SCOPES.with(|s| {
        let s = s.borrow();
        if s.is_empty() {
            "(top)".to_string()
        } else {
            s.iter()
                .map(|(l, _)| l.as_str())
                .collect::<Vec<_>>()
                .join("/")
        }
    })
}

/// The aggregation key: one row of the blame table.
type Key = (String, &'static str, String, LossKind);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Agg {
    count: u64,
    fuel: u64,
    round_min: u64,
    round_max: u64,
}

impl Agg {
    fn fold(&mut self, other: &Agg) {
        self.count += other.count;
        self.fuel = self.fuel.saturating_add(other.fuel);
        self.round_min = self.round_min.min(other.round_min);
        self.round_max = self.round_max.max(other.round_max);
    }
}

/// One aggregated row of a [`BlameTable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameEntry {
    /// `/`-joined scope labels, outermost first (e.g. `big/loop#0`), or
    /// `(top)` outside any scope.
    pub scope: String,
    /// The loss site — the same string the degradation log uses.
    pub site: &'static str,
    /// The domain path (e.g. `logical.uf`, `interp`, `driver.context`).
    pub domain: String,
    /// Why the facts were lost.
    pub kind: LossKind,
    /// How many events aggregated into this row.
    pub count: u64,
    /// Total fuel spent at the recording points.
    pub fuel: u64,
    /// Smallest logical round observed.
    pub round_min: u64,
    /// Largest logical round observed.
    pub round_max: u64,
}

impl BlameEntry {
    fn to_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            r#"{{"scope":"{}","site":"{}","domain":"{}","kind":"{}","count":{},"fuel":{},"round_min":{},"round_max":{}}}"#,
            escape_metric_name(&self.scope),
            escape_metric_name(self.site),
            escape_metric_name(&self.domain),
            self.kind.as_str(),
            self.count,
            self.fuel,
            self.round_min,
            self.round_max,
        );
    }
}

impl fmt::Display for BlameEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} ({}, domain {}): count={} fuel={} rounds={}..{}",
            self.kind,
            self.scope,
            self.site,
            self.domain,
            self.count,
            self.fuel,
            self.round_min,
            self.round_max
        )
    }
}

/// One run's loss events, aggregated by `(scope, site, domain, kind)`.
/// Rows read out ranked, most blamed first: count (descending), then fuel
/// (descending), then the key order — fully deterministic, so two
/// identical runs give identical tables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlameTable {
    rows: BTreeMap<Key, Agg>,
}

impl BlameTable {
    /// Folds one loss event into its row. `site` is the same stable
    /// string the budget's degradation log uses (e.g. `"analyzer/while"`);
    /// `domain` is the domain path (e.g. `logical.uf`); `round` is the
    /// logical round the loss happened in; `fuel` is the ticks spent at
    /// that point.
    pub fn record(
        &mut self,
        scope: String,
        site: &'static str,
        domain: &str,
        kind: LossKind,
        round: u64,
        fuel: u64,
    ) {
        self.add(
            (scope, site, domain.to_string(), kind),
            &Agg {
                count: 1,
                fuel,
                round_min: round,
                round_max: round,
            },
        );
    }

    fn add(&mut self, key: Key, agg: &Agg) {
        match self.rows.get_mut(&key) {
            Some(row) => row.fold(agg),
            None => {
                self.rows.insert(key, *agg);
            }
        }
    }

    /// Folds every row of `other` in: counts and fuel add up, round
    /// ranges widen.
    pub fn merge(&mut self, other: &BlameTable) {
        for (key, agg) in &other.rows {
            self.add(key.clone(), agg);
        }
    }

    /// Every row, ranked.
    pub fn entries(&self) -> Vec<BlameEntry> {
        let mut entries: Vec<BlameEntry> = self
            .rows
            .iter()
            .map(|((scope, site, domain, kind), agg)| BlameEntry {
                scope: scope.clone(),
                site,
                domain: domain.clone(),
                kind: *kind,
                count: agg.count,
                fuel: agg.fuel,
                round_min: agg.round_min,
                round_max: agg.round_max,
            })
            .collect();
        // The rows come out in key order, so a stable sort on
        // (count, fuel) leaves ties in key order.
        entries.sort_by(|a, b| b.count.cmp(&a.count).then(b.fuel.cmp(&a.fuel)));
        entries
    }

    /// The top `k` rows (all of them if fewer).
    pub fn top(&self, k: usize) -> Vec<BlameEntry> {
        let mut entries = self.entries();
        entries.truncate(k);
        entries
    }

    /// The count of the row with `e`'s `(scope, site, domain, kind)` key
    /// (0 if absent).
    pub fn count_of(&self, e: &BlameEntry) -> u64 {
        let key = (e.scope.clone(), e.site, e.domain.clone(), e.kind);
        self.rows.get(&key).map_or(0, |agg| agg.count)
    }

    /// The distinct [`LossKind`] strings present, for coverage checks.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self.rows.keys().map(|k| k.3.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// The rows whose scope is `proc` or nested under it, ranked — the
    /// events a regressed fact in `proc` joins against.
    pub fn for_scope(&self, proc: &str) -> Vec<BlameEntry> {
        let prefix = format!("{proc}/");
        let mut entries = self.entries();
        entries.retain(|e| e.scope == proc || e.scope.starts_with(&prefix));
        entries
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A deterministic JSON array of the ranked rows.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.to_json_into(&mut out);
        }
        out.push(']');
        out
    }
}

impl fmt::Display for BlameTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no loss events recorded)");
        }
        for (i, e) in self.entries().iter().enumerate() {
            writeln!(f, "#{} {}", i + 1, e)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_aggregate_by_scope_site_domain_kind() {
        let mut t = BlameTable::default();
        let widen = |t: &mut BlameTable, round, fuel| {
            t.record(
                "f/loop#0".into(),
                "analyzer/while",
                "interp",
                LossKind::Widen,
                round,
                fuel,
            );
        };
        widen(&mut t, 2, 5);
        widen(&mut t, 4, 7);
        t.record(
            "f/loop#0".into(),
            "analyzer/narrow",
            "interp",
            LossKind::NarrowFailed,
            1,
            3,
        );
        t.record(
            "g".into(),
            "driver/supervisor",
            "driver",
            LossKind::Quarantine,
            0,
            0,
        );
        let entries = t.entries();
        assert_eq!(entries.len(), 3);
        let top = &entries[0];
        assert_eq!(top.scope, "f/loop#0");
        assert_eq!(top.kind, LossKind::Widen);
        assert_eq!((top.count, top.fuel), (2, 12));
        assert_eq!((top.round_min, top.round_max), (2, 4));
        assert_eq!(t.count_of(top), 2);
        assert_eq!(t.kinds(), vec!["narrow-failed", "quarantine", "widen"]);
        assert_eq!(t.for_scope("f").len(), 2);
        let json = t.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""scope":"f/loop#0""#), "{json}");
        // Equal count and fuel fall back to key order: deterministic.
        assert_eq!(entries[1].scope, "f/loop#0");
        assert_eq!(entries[2].scope, "g");
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = BlameTable::default();
        a.record("f".into(), "s", "d", LossKind::Widen, 3, 10);
        let mut b = BlameTable::default();
        b.record("f".into(), "s", "d", LossKind::Widen, 1, 4);
        b.record("g".into(), "s", "d", LossKind::Quarantine, 0, 0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let row = &ab.entries()[0];
        assert_eq!((row.count, row.fuel), (2, 14));
        assert_eq!((row.round_min, row.round_max), (1, 3));
    }

    #[test]
    fn scopes_nest_and_restore_rounds() {
        set_round(7);
        {
            let _p = scope("g".to_string());
            assert_eq!(current_round(), 0, "entering a scope zeroes the round");
            set_round(2);
            {
                let _l = scope("loop#0".to_string());
                assert_eq!(current_scope(), "g/loop#0");
            }
            assert_eq!((current_scope().as_str(), current_round()), ("g", 2));
        }
        // The enclosing round survives the inner scope.
        assert_eq!((current_scope().as_str(), current_round()), ("(top)", 7));
        set_round(0);
    }
}

//! Precision provenance: a deterministic blame layer that attributes
//! every lost fact to the widening, degradation, or cap that dropped it.
//!
//! The combination operators trade precision for termination at many
//! distinct sites — widenings, budget degradations, context-cap
//! overflows, quarantines, skipped cache stores, defective Alternate
//! operators. Counters say *how often* those sites fire; this layer says
//! *where*: every precision-losing operation records a loss event
//! carrying its scope (procedure / loop), site string, domain path,
//! [`LossKind`], logical round number, and fuel spent, and the events
//! aggregate into a per-scope, per-site [`BlameTable`] with top-K
//! ranking and JSON export.
//!
//! Design constraints, shared with the span tracer ([`crate::trace`]):
//!
//! 1. **Disabled means free.** [`enabled`] is one relaxed atomic load;
//!    [`scope`] does not evaluate its label closure and [`record`] does
//!    not touch the aggregation map when the layer is off.
//! 2. **Observation only.** Nothing ever reads the blame state back into
//!    an analysis decision; results are bit-identical with the layer on
//!    and off (pinned by `tests/blame.rs`).
//! 3. **Deterministic across schedules.** Events carry *logical* round
//!    numbers, never wall clock. Scopes live in thread-local stacks, and
//!    jobs are shared-nothing, so the labels a run produces do not depend
//!    on which worker thread ran which job. Aggregation is additive and
//!    commutative — a `(scope, site, domain, kind)` key maps to counts,
//!    fuel totals, and round min/max, all order-independent — so the
//!    drained table is identical at every thread count.
//!
//! Adding a loss site is three lines: push a [`scope`] guard if the
//! enclosing region is not already labelled, then call [`record`] at the
//! point where precision is given up (see DESIGN.md §11).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use crate::metrics::escape_metric_name;

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is the blame layer on?
///
/// First call initialises from the `CAI_BLAME` env var; subsequent calls
/// are a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNINIT => init_from_env(),
        s => s == STATE_ON,
    }
}

#[cold]
fn init_from_env() -> bool {
    let state = if std::env::var_os("CAI_BLAME").is_some() {
        STATE_ON
    } else {
        STATE_OFF
    };
    let _ = STATE.compare_exchange(STATE_UNINIT, state, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Turn the blame layer on or off, overriding the `CAI_BLAME` default.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

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
    /// A computed value was not cached because it was produced under a
    /// degraded budget — later rounds pay the recomputation.
    CacheSkippedDegraded,
    /// A defective Alternate operator was skipped during NO-saturation,
    /// dropping the cross-domain facts it would have transferred.
    AlternateSkipped,
}

impl LossKind {
    /// Every kind, for coverage checks.
    pub const ALL: [LossKind; 7] = [
        LossKind::Widen,
        LossKind::BudgetDegrade,
        LossKind::NarrowFailed,
        LossKind::CtxCapOverflow,
        LossKind::Quarantine,
        LossKind::CacheSkippedDegraded,
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
            LossKind::CacheSkippedDegraded => "cache-skipped-degraded",
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
    /// narrowing round) — attached to events recorded without an
    /// explicit round, e.g. the `Budget::degrade` hook.
    static ROUND: RefCell<u64> = const { RefCell::new(0) };
}

/// RAII guard for one scope label; see [`scope`].
pub struct ScopeGuard {
    pushed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.pushed {
            SCOPES.with(|s| {
                if let Some((_, saved)) = s.borrow_mut().pop() {
                    ROUND.with(|r| *r.borrow_mut() = saved);
                }
            });
        }
    }
}

/// Pushes a scope label (a procedure name, `loop#2`, …) onto the current
/// thread's scope stack until the returned guard drops. The label
/// closure is only evaluated when the layer is [`enabled`]. Entering a
/// scope zeroes the logical round (see [`set_round`]) and restores the
/// enclosing scope's round on exit.
#[must_use = "the scope ends when the guard drops"]
pub fn scope(label: impl FnOnce() -> String) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { pushed: false };
    }
    let saved = ROUND.with(|r| std::mem::take(&mut *r.borrow_mut()));
    SCOPES.with(|s| s.borrow_mut().push((label(), saved)));
    ScopeGuard { pushed: true }
}

/// Sets the current logical round — the loop fixpoint iteration, Jacobi
/// round, or narrowing round — attached to events recorded through hooks
/// that do not know it (e.g. `Budget::degrade`). No-op when disabled.
#[inline]
pub fn set_round(round: u64) {
    if enabled() {
        ROUND.with(|r| *r.borrow_mut() = round);
    }
}

fn current_scope() -> String {
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

#[derive(Clone, Copy, Debug, Default)]
struct Agg {
    count: u64,
    fuel: u64,
    round_min: u64,
    round_max: u64,
}

static TABLE: Mutex<BTreeMap<Key, Agg>> = Mutex::new(BTreeMap::new());

fn add(key: Key, round: u64, fuel: u64) {
    let mut table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    let agg = table.entry(key).or_insert(Agg {
        count: 0,
        fuel: 0,
        round_min: round,
        round_max: round,
    });
    agg.count += 1;
    agg.fuel = agg.fuel.saturating_add(fuel);
    agg.round_min = agg.round_min.min(round);
    agg.round_max = agg.round_max.max(round);
}

/// Records one loss event under the current thread's scope. `site` is
/// the same stable string the budget's degradation log uses (e.g.
/// `"analyzer/while"`); `domain` is the domain path (e.g. `logical.uf`);
/// `round` is the logical round the loss happened in (0 when the loss is
/// not attached to a fixpoint); `fuel` is the ticks spent at that point.
/// No-op (one relaxed load) when disabled.
#[inline]
pub fn record(kind: LossKind, site: &'static str, domain: &str, round: u64, fuel: u64) {
    if !enabled() {
        return;
    }
    add(
        (current_scope(), site, domain.to_string(), kind),
        round,
        fuel,
    );
}

/// Like [`record`], but under an explicit scope instead of the calling
/// thread's — for losses attributed to a procedure from outside its
/// analysis (quarantines).
#[inline]
pub fn record_scoped(
    scope: &str,
    kind: LossKind,
    site: &'static str,
    domain: &str,
    round: u64,
    fuel: u64,
) {
    if !enabled() {
        return;
    }
    add(
        (scope.to_string(), site, domain.to_string(), kind),
        round,
        fuel,
    );
}

/// Like [`record`], but the current round is taken from [`set_round`].
#[inline]
pub fn record_at_current_round(kind: LossKind, site: &'static str, domain: &str, fuel: u64) {
    if !enabled() {
        return;
    }
    let round = ROUND.with(|r| *r.borrow());
    add(
        (current_scope(), site, domain.to_string(), kind),
        round,
        fuel,
    );
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

/// The drained, ranked blame table: every aggregated loss row, most
/// blamed first (count, then fuel, then the deterministic key order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlameTable {
    /// The ranked rows.
    pub entries: Vec<BlameEntry>,
}

impl BlameTable {
    /// The top `k` rows (all of them if fewer).
    pub fn top(&self, k: usize) -> &[BlameEntry] {
        &self.entries[..self.entries.len().min(k)]
    }

    /// The distinct [`LossKind`] strings present, for coverage checks.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self.entries.iter().map(|e| e.kind.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// The rows whose scope is `proc` or nested under it, preserving
    /// rank — the events a regressed fact in `proc` joins against.
    pub fn for_scope<'a>(&'a self, proc: &str) -> impl Iterator<Item = &'a BlameEntry> + 'a {
        let proc = proc.to_string();
        let prefix = format!("{proc}/");
        self.entries
            .iter()
            .filter(move |e| e.scope == proc || e.scope.starts_with(&prefix))
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A deterministic JSON array of the ranked rows.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries.iter().enumerate() {
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
        if self.entries.is_empty() {
            return writeln!(f, "(no loss events recorded)");
        }
        for (i, e) in self.entries.iter().enumerate() {
            writeln!(f, "#{} {}", i + 1, e)?;
        }
        Ok(())
    }
}

/// Drains every aggregated event into a ranked [`BlameTable`], clearing
/// the layer's state. Ranking is count (descending), then fuel
/// (descending), then the `(scope, site, domain, kind)` key — fully
/// deterministic, so two identical runs drain identical tables.
pub fn drain() -> BlameTable {
    let rows: BTreeMap<Key, Agg> =
        std::mem::take(&mut *TABLE.lock().unwrap_or_else(|e| e.into_inner()));
    let mut entries: Vec<BlameEntry> = rows
        .into_iter()
        .map(|((scope, site, domain, kind), agg)| BlameEntry {
            scope,
            site,
            domain,
            kind,
            count: agg.count,
            fuel: agg.fuel,
            round_min: agg.round_min,
            round_max: agg.round_max,
        })
        .collect();
    entries.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then(b.fuel.cmp(&a.fuel))
            .then_with(|| {
                (&a.scope, a.site, &a.domain, a.kind).cmp(&(&b.scope, b.site, &b.domain, b.kind))
            })
    });
    BlameTable { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// Serializes tests that toggle the global enabled flag / table.
    static LOCK: TestMutex<()> = TestMutex::new(());

    #[test]
    fn disabled_records_nothing_and_scope_is_free() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        drain();
        let _s = scope(|| unreachable!("label must not be evaluated when off"));
        record(LossKind::Widen, "analyzer/while", "interp", 3, 10);
        assert!(drain().is_empty());
    }

    #[test]
    fn events_aggregate_by_scope_site_domain_kind() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        drain();
        {
            let _p = scope(|| "f".to_string());
            let _l = scope(|| "loop#0".to_string());
            record(LossKind::Widen, "analyzer/while", "interp", 2, 5);
            record(LossKind::Widen, "analyzer/while", "interp", 4, 7);
            record(LossKind::NarrowFailed, "analyzer/narrow", "interp", 1, 3);
        }
        record(LossKind::Quarantine, "driver/supervisor", "driver", 0, 0);
        let t = drain();
        set_enabled(false);
        assert_eq!(t.entries.len(), 3);
        let widen = &t.entries[0];
        assert_eq!(widen.scope, "f/loop#0");
        assert_eq!(widen.kind, LossKind::Widen);
        assert_eq!((widen.count, widen.fuel), (2, 12));
        assert_eq!((widen.round_min, widen.round_max), (2, 4));
        assert_eq!(t.kinds(), vec!["narrow-failed", "quarantine", "widen"]);
        assert_eq!(t.for_scope("f").count(), 2);
        let json = t.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""scope":"f/loop#0""#), "{json}");
    }

    #[test]
    fn scopes_restore_rounds_and_ranking_is_deterministic() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        drain();
        set_round(7);
        {
            let _p = scope(|| "g".to_string());
            set_round(2);
            record_at_current_round(LossKind::BudgetDegrade, "analyzer/while", "interp", 1);
        }
        // The enclosing round survives the inner scope.
        record_at_current_round(
            LossKind::BudgetDegrade,
            "driver/summary-fixpoint",
            "driver",
            1,
        );
        let t = drain();
        set_enabled(false);
        assert_eq!(t.entries.len(), 2);
        let by_scope: Vec<(&str, u64)> = t
            .entries
            .iter()
            .map(|e| (e.scope.as_str(), e.round_min))
            .collect();
        assert!(by_scope.contains(&("g", 2)));
        assert!(by_scope.contains(&("(top)", 7)));
        // Equal count+fuel falls back to key order: deterministic.
        assert_eq!(t.entries[0].scope, "(top)");
    }
}

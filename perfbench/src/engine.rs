//! The analyzer under test — `cai_driver::Driver` over
//! `LogicalProduct<AffineEq, UfDomain>` with default configuration — in
//! its plain form and its traced form
//! `Timed<LogicalProduct<Timed<AffineEq>, Timed<UfDomain>>>`, plus one
//! measured analysis (a *unit*) and the counts read around it.

use crate::alloc;
use crate::timed::{Layer, Table, Timed};
use cai_core::cache::cs;
use cai_core::SplitCache;
use cai_core::{AbstractDomain, Budget, CacheStats, JoinStats, JoinStatsSnapshot, LogicalProduct};
use cai_driver::{Driver, ModuleAnalysis, SummaryCache};
use cai_interp::Module;
use cai_linarith::AffineEq;
use cai_uf::UfDomain;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub type Plain = LogicalProduct<AffineEq, UfDomain>;
pub type Traced = Timed<LogicalProduct<Timed<AffineEq>, Timed<UfDomain>>>;
pub type Splits =
    SplitCache<<AffineEq as AbstractDomain>::Elem, <UfDomain as AbstractDomain>::Elem>;
type Factory<D> = Box<dyn Fn(&Budget) -> D + Sync>;

/// Where an engine's products get their split cache, and the handles
/// the counts are read from. Every product shares one [`JoinStats`].
pub struct Probe {
    join: JoinStats,
    /// `Some`: one split cache shared by every product (the warm `edit`
    /// workload). `None`: each product gets a fresh default cache, as
    /// `LogicalProduct::new` would, whose counters are collected here.
    shared: Option<Splits>,
    fresh: Mutex<Vec<CacheStats>>,
}

impl Probe {
    pub fn cold() -> Arc<Probe> {
        Arc::new(Probe {
            join: JoinStats::new(),
            shared: None,
            fresh: Mutex::new(Vec::new()),
        })
    }

    pub fn warm() -> Arc<Probe> {
        Arc::new(Probe {
            join: JoinStats::new(),
            shared: Some(Splits::new()),
            fresh: Mutex::new(Vec::new()),
        })
    }

    fn split_cache(&self) -> Splits {
        match &self.shared {
            Some(s) => s.clone(),
            None => {
                let s = Splits::new();
                self.fresh_stats().push(s.stats().clone());
                s
            }
        }
    }

    fn fresh_stats(&self) -> std::sync::MutexGuard<'_, Vec<CacheStats>> {
        self.fresh
            .lock()
            .expect("no probe holder panics while holding the lock")
    }

    /// Per-alien-term memo `(hits, misses)`: cumulative for a shared
    /// cache; for fresh caches, those built since the last call.
    fn term_memo(&self) -> (u64, u64) {
        let read = |s: &CacheStats| (s.get(cs::TERM_HITS), s.get(cs::TERM_MISSES));
        match &self.shared {
            Some(s) => read(s.stats()),
            None => self
                .fresh_stats()
                .drain(..)
                .map(|s| read(&s))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
        }
    }
}

/// A driver over the plain or the traced product.
pub enum Engine {
    Plain(Driver<Plain, Factory<Plain>>),
    Traced(Driver<Traced, Factory<Traced>>),
}

impl Engine {
    pub fn new(traced: bool, probe: &Arc<Probe>) -> Engine {
        let probe = Arc::clone(probe);
        if traced {
            let f: Factory<Traced> = Box::new(move |_: &Budget| {
                Timed::new(
                    Layer::Core,
                    LogicalProduct::new(
                        Timed::new(Layer::Linarith, AffineEq::new()),
                        Timed::new(Layer::Uf, UfDomain::new()),
                    )
                    .with_stats(probe.join.clone())
                    .with_split_cache(probe.split_cache()),
                )
            });
            Engine::Traced(Driver::new(f).threads(1))
        } else {
            let f: Factory<Plain> = Box::new(move |_: &Budget| {
                LogicalProduct::new(AffineEq::new(), UfDomain::new())
                    .with_stats(probe.join.clone())
                    .with_split_cache(probe.split_cache())
            });
            Engine::Plain(Driver::new(f).threads(1))
        }
    }

    pub fn traced(&self) -> bool {
        matches!(self, Engine::Traced(_))
    }

    fn analyze(&self, m: &Module, cache: Option<&mut SummaryCache>) -> ModuleAnalysis {
        match (self, cache) {
            (Engine::Plain(d), None) => d.analyze(m),
            (Engine::Plain(d), Some(c)) => d.analyze_with_cache(m, c),
            (Engine::Traced(d), None) => d.analyze(m),
            (Engine::Traced(d), Some(c)) => d.analyze_with_cache(m, c),
        }
    }
}

/// One measured analysis.
#[derive(Clone)]
pub struct Unit {
    pub wall_ns: u64,
    /// Every count read around the unit, by name. Deterministic: equal
    /// for equal inputs, traced or not.
    pub counts: BTreeMap<&'static str, u64>,
    /// Summaries, asserted facts with their verdicts, and flags of every
    /// procedure, rendered.
    pub result: String,
    /// Verdicts per procedure, in declaration order.
    pub verdicts: Vec<Vec<bool>>,
    /// Whether anything degraded or was quarantined.
    pub unhealthy: bool,
    /// Self time and allocations per layer and operation (traced only).
    pub layers: Table,
    /// Allocations on this thread during the unit (traced only).
    pub allocs: alloc::Counts,
}

/// The global `cai-obs` counters read per unit, under their report names.
const OBS: &[(&str, &str)] = &[
    ("uf.egraph_merges", "uf/egraph/merges"),
    ("uf.congruence_merges", "uf/egraph/congruence-merges"),
    ("interp.fixpoint_iterations", "interp/fixpoint/iterations"),
    ("interp.widenings", "interp/fixpoint/widenings"),
    ("interp.transfer_fuel", "fuel/interp.transfer"),
    ("driver.jacobi_rounds", "driver/jacobi/rounds"),
];

/// Reads one [`JoinStats`] counter.
type JoinField = fn(&JoinStatsSnapshot) -> u64;

/// The [`JoinStats`] fields read per unit, under their report names.
const JOIN: &[(&str, JoinField)] = &[
    ("core.saturation_rounds", |j| j.saturation_rounds),
    ("core.qsat_rounds", |j| j.qsat_rounds),
    ("core.pairs_generated", |j| j.pairs_generated),
    ("core.pairs_pruned", |j| j.pairs_pruned),
    ("core.defs_found", |j| j.defs_found),
    ("core.split_hits", |j| j.cache_hits),
    ("core.split_partial_hits", |j| j.cache_partial_hits),
    ("core.split_misses", |j| j.cache_misses),
    ("core.split_evictions", |j| j.cache_evictions),
    ("core.fallbacks", |j| j.fallbacks),
];

/// Analyzes `m` once — cold, or warm through `cache` — timing only the
/// driver call; every count is read outside the timed region.
pub fn unit(engine: &Engine, probe: &Probe, m: &Module, cache: Option<&mut SummaryCache>) -> Unit {
    alloc::set_counting(engine.traced());
    let obs0 = cai_obs::global().snapshot();
    let join0 = probe.join.snapshot();
    let memo0 = probe.term_memo();
    let tab0 = Table::now();
    let a0 = alloc::thread_counts();
    let t0 = Instant::now();
    let a = engine.analyze(m, cache);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::thread_counts().since(a0);
    let layers = Table::now().since(&tab0);
    alloc::set_counting(false);
    let memo1 = probe.term_memo();
    let join1 = probe.join.snapshot();
    let obs = cai_obs::global().snapshot().diff(&obs0);

    let mut counts = BTreeMap::new();
    for &(key, get) in JOIN {
        counts.insert(key, get(&join1) - get(&join0));
    }
    let memo = match probe.shared {
        Some(_) => (memo1.0 - memo0.0, memo1.1 - memo0.1),
        None => memo1,
    };
    counts.insert("term.memo_hits", memo.0);
    counts.insert("term.memo_misses", memo.1);
    for (key, name) in OBS {
        counts.insert(key, obs.counter(name));
    }
    let core_fuel = obs
        .iter()
        .filter(|(name, _)| name.starts_with("fuel/core."))
        .map(|(name, _)| obs.counter(name))
        .sum();
    counts.insert("core.fuel", core_fuel);
    counts.insert("driver.recomputed", a.recomputed as u64);
    counts.insert("driver.reused", a.reused as u64);
    counts.insert("driver.contexts_created", a.ctx.contexts_created);
    counts.insert("driver.ctx_memo_hits", a.ctx.memo_hits);
    counts.insert("driver.cap_widenings", a.ctx.cap_widenings);
    counts.insert("driver.top_fallbacks", a.ctx.top_fallbacks);
    let degr = &a.degradation;
    let degradations = (degr.events.len() + degr.dropped_events) as u64;
    counts.insert("driver.degradations", degradations);
    counts.insert("driver.retries", a.supervision.retries);
    counts.insert("driver.quarantined", a.quarantined_count() as u64);
    counts.insert("driver.fuel_spent", degr.fuel_spent);
    counts.insert("verified", a.verified_count() as u64);

    let mut result = String::new();
    for r in &a {
        let _ = write!(result, "{} | {} |", r.name, r.summary);
        for o in &r.assertions {
            let _ = write!(result, " {}:{}", o.atom, o.verified);
        }
        let _ = writeln!(
            result,
            " | diverged={} quarantined={}",
            r.diverged, r.quarantined
        );
    }
    let unhealthy = degr.degraded
        || degr.exhausted
        || degradations > 0
        || !degr.incidents.is_empty()
        || a.quarantined_count() > 0;
    Unit {
        wall_ns,
        counts,
        result,
        verdicts: a
            .iter()
            .map(|r| r.assertions.iter().map(|o| o.verified).collect())
            .collect(),
        unhealthy,
        layers,
        allocs,
    }
}

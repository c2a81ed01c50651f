//! The batch engine: callee-first summary computation over the call
//! graph, a shared-nothing worker pool for independent components, and
//! the fingerprint-keyed incremental cache.

use crate::callgraph::CallGraph;
use crate::context::{ContextResolver, CtxStats, CtxStatsSnapshot};
use crate::summary::{
    config_fingerprint, member_fingerprint, scc_fingerprint, summarize, Fnv64, Summary,
    SummaryResolver,
};
use crate::supervisor::{self, SupStats, SupStatsSnapshot, Supervised, SupervisorCfg, Watchdog};
use cai_core::cache::{self as ccache, cs};
use cai_core::{
    AbstractDomain, Budget, BudgetPolicy, DegradationReport, Incident, IncidentKind, SizeMeasures,
};
use cai_interp::{AnalysisConfig, Analyzer, AssertionOutcome, Module, Procedure};
use cai_obs::provenance;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Per-job context specializations, tagged with the component index so
/// the merge is deterministic regardless of completion order.
type JobContexts = Vec<(usize, BTreeMap<String, Vec<Summary>>)>;

/// The per-procedure result of a batch analysis.
#[derive(Clone, Debug)]
pub struct ProcReport {
    /// The procedure name.
    pub name: String,
    /// Its computed (or cache-reused) ⊤-entry summary. Under a nonzero
    /// [`context cap`](Driver::context_cap) the exit constraint is
    /// computed with context-sensitive call resolution inside the body,
    /// so it is at least as strong as the insensitive one.
    pub summary: Summary,
    /// Assertion verdicts inside the body, in program order, checked
    /// under the final summaries of every callee.
    pub assertions: Vec<AssertionOutcome>,
    /// Whether any loop fixpoint inside the body — or the summary
    /// fixpoint of the procedure's recursive component — failed to
    /// stabilize and was forced to a sound over-approximation.
    pub diverged: bool,
    /// Whether the supervisor pinned this procedure to the sound ⊤
    /// summary after its analysis panicked past the retry allowance.
    /// Quarantined reports carry no assertion verdicts and are never
    /// persisted to the [`SummaryCache`].
    pub quarantined: bool,
}

/// The result of analyzing a [`Module`].
#[derive(Clone, Debug)]
pub struct ModuleAnalysis {
    /// One report per procedure, in module declaration order.
    pub reports: Vec<ProcReport>,
    /// Procedures whose cached summary was reused (fingerprint match).
    pub reused: usize,
    /// Procedures (re)analyzed this run.
    pub recomputed: usize,
    /// The merged degradation report of this run: every job's budget
    /// slice plus the cache entries rejected as corrupt, with the ranked
    /// blame table of every precision loss.
    pub degradation: DegradationReport,
    /// Context-sensitivity counters for this run (all zero under
    /// [`Driver::context_cap`]`(0)`).
    pub ctx: CtxStatsSnapshot,
    /// Supervision counters for this run: caught panics, retries,
    /// recoveries, watchdog stalls, quarantines. All zero on a
    /// fault-free run.
    pub supervision: SupStatsSnapshot,
}

impl ModuleAnalysis {
    /// The report for a procedure, by name.
    pub fn report(&self, name: &str) -> Option<&ProcReport> {
        self.reports.iter().find(|r| r.name == name)
    }

    /// All reports, in module declaration order. Callers that want every
    /// procedure iterate here instead of probing [`report`] name by
    /// name.
    ///
    /// [`report`]: ModuleAnalysis::report
    pub fn iter(&self) -> std::slice::Iter<'_, ProcReport> {
        self.reports.iter()
    }

    /// Total verified assertions across all procedures.
    pub fn verified_count(&self) -> usize {
        self.reports
            .iter()
            .map(|r| r.assertions.iter().filter(|a| a.verified).count())
            .sum()
    }

    /// Procedures quarantined to the sound ⊤ summary this run.
    pub fn quarantined_count(&self) -> usize {
        self.reports.iter().filter(|r| r.quarantined).count()
    }
}

impl<'a> IntoIterator for &'a ModuleAnalysis {
    type Item = &'a ProcReport;
    type IntoIter = std::slice::Iter<'a, ProcReport>;

    fn into_iter(self) -> Self::IntoIter {
        self.reports.iter()
    }
}

/// One procedure's persisted analysis result — the [`SummaryCache`]'s
/// value type. Fields are sealed:
/// [`CacheEntry::new`] computes the integrity checksum at construction,
/// so an entry can only disagree with its checksum through corruption.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    fingerprint: u64,
    report: ProcReport,
    /// Entry-keyed specializations of this procedure, in entry-key
    /// order, valid exactly as long as `fingerprint` matches.
    contexts: Vec<Summary>,
    /// [`Fnv64`] digest of every reusable field above, computed when the
    /// entry is stored and verified before any reuse decision. An entry
    /// whose content no longer matches its checksum — bit rot, a bad
    /// deserializer, a scribbling bug — is rejected and recomputed,
    /// never reused.
    checksum: u64,
}

impl CacheEntry {
    /// Seals a new entry, digesting every reusable field into the
    /// integrity checksum that the [`SummaryCache`] verifies before any
    /// reuse decision.
    pub fn new(fingerprint: u64, report: ProcReport, contexts: Vec<Summary>) -> CacheEntry {
        let checksum = entry_checksum(fingerprint, &report, &contexts);
        CacheEntry {
            fingerprint,
            report,
            contexts,
            checksum,
        }
    }

    /// The configuration-joined procedure fingerprint this entry is
    /// valid for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The persisted procedure report.
    pub fn report(&self) -> &ProcReport {
        &self.report
    }

    /// The persisted context specializations, in entry-key order.
    pub fn contexts(&self) -> &[Summary] {
        &self.contexts
    }
}

/// Digests one summary into an entry checksum.
fn summary_digest(h: &mut Fnv64, s: &Summary) {
    h.write_u64(s.params.len() as u64);
    for v in &s.params {
        h.write_str(v.name());
    }
    h.write_u64(s.entry.fingerprint());
    match &s.exit {
        None => h.write_u64(0),
        Some(c) => {
            h.write_u64(1);
            h.write_u64(c.fingerprint());
        }
    }
}

/// The integrity checksum of a cache entry: every field a later run
/// could reuse, digested with the same length-prefixed [`Fnv64`] stream
/// the fingerprints use.
fn entry_checksum(fingerprint: u64, report: &ProcReport, contexts: &[Summary]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(fingerprint);
    h.write_str(&report.name);
    summary_digest(&mut h, &report.summary);
    h.write_u64(report.assertions.len() as u64);
    for a in &report.assertions {
        h.write_str(&a.atom.to_string());
        h.write_u64(u64::from(a.verified));
    }
    h.write_u64(u64::from(report.diverged));
    h.write_u64(u64::from(report.quarantined));
    h.write_u64(contexts.len() as u64);
    for c in contexts {
        summary_digest(&mut h, c);
    }
    h.finish()
}

/// Point-in-time counters of the [`SummaryCache`] — the same
/// observability shape as `cai_core::JoinStats`: plain data, subtract
/// two to meter a region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Procedure reports reused across runs (fingerprint match).
    pub hits: u64,
    /// Procedure reports recomputed (cold or dirty cone).
    pub misses: u64,
    /// Entries dropped or replaced because the procedure left the
    /// module or its fingerprint changed.
    pub evictions: u64,
    /// Entries rejected because their content failed the integrity
    /// checksum (each also counts as an eviction, and the procedure is
    /// recomputed).
    pub corruptions: u64,
    /// Entry-keyed context specializations currently stored.
    pub contexts: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} corruptions={} contexts={}",
            self.hits, self.misses, self.evictions, self.corruptions, self.contexts
        )
    }
}

/// The incremental cache: per-procedure summaries keyed by a stable
/// fingerprint of the procedure's text, its transitive callee cone (see
/// [`scc_fingerprint`]), and the driver's context configuration. Feed
/// the same cache back into [`Driver::analyze_with_cache`] after editing
/// a module and only the dirty cone — the edited procedures and
/// everything that transitively calls them — is re-analyzed. Under a
/// nonzero context cap it also memoizes every `(procedure, entry-key)`
/// specialization, so re-analysis of a dirty caller reuses the entry
/// contexts of its unchanged callees.
///
/// Keys are procedure names, values [`CacheEntry`]s; it counts into a
/// shared [`cai_core::CacheStats`] family. Every run rebuilds the table
/// to exactly the module's procedures, so it needs no capacity.
/// **Clone semantics**: cloning *snapshots* the entries (each clone owns
/// its table — the opposite of `SplitCache`, whose clones share) but
/// *shares* the counters, so stats aggregate across clones.
#[derive(Clone, Debug, Default)]
pub struct SummaryCache {
    entries: BTreeMap<String, CacheEntry>,
    /// Exponentially decayed per-procedure incident counts (panics,
    /// stalls, quarantines, cache corruptions) from recent runs. The
    /// adaptive [`BudgetPolicy`] damps a procedure's scheduling weight by
    /// this, so chronically faulty procedures stop soaking up fuel that
    /// healthy ones could convert into precision.
    incidents: BTreeMap<String, u64>,
    stats: ccache::CacheStats,
}

impl SummaryCache {
    /// An empty cache.
    pub fn new() -> SummaryCache {
        SummaryCache::default()
    }

    /// The number of cached procedures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entry for a procedure. The table keys on the full
    /// name, so every hit is trivially verified.
    pub fn lookup(&self, name: &str) -> Option<&CacheEntry> {
        self.entries.get(name)
    }

    /// Stores `entry` for the procedure `name` unless it is `degraded`.
    /// Degraded results — every member of a job whose budget slice
    /// degraded (quarantined reports included) or that read such a
    /// job's summaries — are counted as skips and dropped: they are
    /// this-run survival measures and must never poison a later run. A
    /// skip costs this run no precision, so it adds no blame row; the
    /// loss is recorded where the slice degraded.
    pub fn store(&mut self, name: String, entry: CacheEntry, degraded: bool) {
        if degraded {
            self.stats.bump(cs::SKIPS);
        } else {
            self.entries.insert(name, entry);
        }
    }

    /// Cumulative hit/miss/eviction counters plus the current number of
    /// stored context specializations. A plain-data snapshot of the
    /// cache's counter family, kept for callers that diff two snapshots
    /// to meter a region.
    pub fn stats(&self) -> CacheStats {
        let snap = self.stats.snapshot();
        CacheStats {
            hits: snap.get(cs::HITS),
            misses: snap.get(cs::MISSES),
            evictions: snap.get(cs::EVICTIONS),
            corruptions: snap.get(cs::CORRUPTIONS),
            contexts: self.entries.values().map(|e| e.contexts.len() as u64).sum(),
        }
    }

    /// Drops every entry whose content fails its integrity checksum and
    /// records the rejected procedure names on `budget` as
    /// [`IncidentKind::CacheCorruption`] incidents. Called by the driver
    /// before any reuse decision; corrupted procedures are simply
    /// recomputed.
    fn reject_corrupt(&mut self, budget: &Budget) {
        let corrupt: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.checksum != entry_checksum(e.fingerprint, &e.report, &e.contexts))
            .map(|(name, _)| name.clone())
            .collect();
        for name in corrupt {
            self.entries.remove(&name);
            self.stats.bump(cs::CORRUPTIONS);
            self.stats.bump(cs::EVICTIONS);
            // `Budget::incident` emits the `incident/cache-corruption`
            // tracer instant — one mapping for every incident kind.
            budget.incident(Incident {
                kind: IncidentKind::CacheCorruption,
                subject: name,
                detail: "cache entry failed its integrity checksum; rejected and recomputed"
                    .to_string(),
                attempt: 0,
            });
        }
    }

    /// The decayed incident count remembered for a procedure (0 for a
    /// procedure with no recent incidents). Feeds
    /// [`BudgetPolicy::job_weight`] when the driver apportions fuel.
    pub fn incident_count(&self, name: &str) -> u64 {
        self.incidents.get(name).copied().unwrap_or(0)
    }

    /// Folds one run's incidents into the history: existing counts are
    /// halved first (so the history is *recent* — an incident from k runs
    /// ago weighs 2⁻ᵏ), then each of this run's incidents adds one to its
    /// subject. Deterministic: depends only on the incidents fed in.
    fn absorb_incidents<'a>(&mut self, incidents: impl Iterator<Item = &'a Incident>) {
        for count in self.incidents.values_mut() {
            *count /= 2;
        }
        self.incidents.retain(|_, count| *count > 0);
        for incident in incidents {
            *self.incidents.entry(incident.subject.clone()).or_insert(0) += 1;
        }
    }

    /// Test hook: silently corrupts the stored entry for `name` without
    /// refreshing its checksum, simulating bit rot in a persisted cache.
    /// The corruption chosen is the dangerous kind — the summary's exit
    /// flips to ⊥ ("this call never returns"), which blind reuse would
    /// propagate into dependents as unsound dead-code verdicts. Returns
    /// whether an entry existed.
    #[doc(hidden)]
    pub fn corrupt_entry(&mut self, name: &str) -> bool {
        match self.entries.get_mut(name) {
            Some(e) => {
                e.report.summary.exit = None;
                e.report.diverged = !e.report.diverged;
                true
            }
            None => false,
        }
    }
}

#[derive(Clone, Copy)]
struct SolveCfg {
    widen_delay: usize,
    max_iterations: usize,
    summary_widen_delay: usize,
    summary_rounds: usize,
    context_cap: usize,
    policy: BudgetPolicy,
    sup: SupervisorCfg,
}

impl SolveCfg {
    /// A digest of every setting that can change a non-degraded result,
    /// and of the domain type `D`; joins each procedure's cache key (see
    /// [`config_fingerprint`]). The supervisor settings are left out: they
    /// decide only retries and quarantines, whose results are never
    /// stored.
    fn fingerprint<D>(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(std::any::type_name::<D>());
        for n in [
            self.widen_delay,
            self.max_iterations,
            self.summary_widen_delay,
            self.summary_rounds,
            self.context_cap,
        ] {
            h.write_u64(n as u64);
        }
        match self.policy {
            BudgetPolicy::Flat => h.write_u64(0),
            BudgetPolicy::Adaptive {
                loop_fuel_per_weight,
                narrow_rounds,
                narrow_fuel_per_weight,
            } => {
                h.write_u64(1);
                h.write_u64(loop_fuel_per_weight);
                h.write_u64(u64::from(narrow_rounds));
                h.write_u64(narrow_fuel_per_weight);
            }
        }
        h.finish()
    }
}

/// The scheduler state shared by the workers of one run, under one lock.
struct Worklist<'a> {
    /// Components whose dependencies are all final, lowest index first.
    ready: BTreeSet<usize>,
    /// Unfinished to-be-computed dependencies per component.
    pending: BTreeMap<usize, usize>,
    /// Jobs not yet finished.
    remaining: usize,
    summaries: &'a mut BTreeMap<String, Summary>,
    reports: &'a mut BTreeMap<String, ProcReport>,
    contexts: JobContexts,
}

/// The interprocedural batch driver.
///
/// Built around a *domain factory* rather than a domain: every SCC job
/// constructs its own domain instance and receives its own [`Budget`]
/// slice, so no abstract-domain state is ever shared between threads —
/// the only values crossing thread boundaries are immutable [`Summary`]
/// snapshots and finished [`ProcReport`]s — and the fuel (hence every
/// degradation, retry, and quarantine decision) a component sees is the
/// same whether the batch ran on one thread or eight.
///
/// One domain instance serves a whole SCC job, so a domain with a
/// cross-round memo — the logical product's split cache — amortizes its
/// purification/saturation work across that component's Jacobi summary
/// rounds and the recording pass. A factory may also close over a shared
/// `SplitCache` (it is `Sync`) to carry the memo across jobs and worker
/// threads; the cache is semantically invisible, so verdicts stay
/// identical for every thread count.
///
/// Every per-procedure analysis runs *supervised* (see the
/// [`supervisor`](crate::SupStatsSnapshot) layer): a panicking analysis
/// is caught, retried up to [`max_retries`](Driver::max_retries) times
/// with halved fuel, then quarantined to the sound ⊤ summary; an
/// optional [`proc_deadline`](Driver::proc_deadline) watchdog turns
/// hangs into budget exhaustion. A faulty procedure costs precision,
/// never the batch.
///
/// With a nonzero [`context_cap`](Driver::context_cap) (the default),
/// calls into already-final procedures are resolved *context-
/// sensitively*: the caller's abstract state is projected onto the
/// callee's formals and the callee is re-analyzed from that entry (see
/// [`ContextResolver`]), memoized per `(procedure, entry-key)`.
/// `context_cap(0)` reproduces the context-insensitive driver
/// bit-for-bit.
///
/// ```
/// use cai_driver::Driver;
/// use cai_interp::parse_module;
/// use cai_linarith::AffineEq;
/// use cai_term::parse::Vocab;
///
/// let m = parse_module(
///     &Vocab::standard(),
///     "proc inc(a) { ret := a + 1; }
///      proc two(b) { x := call inc(b); y := call inc(x); ret := y; assert(ret = b + 2); }",
/// )?;
/// let analysis = Driver::new(|_| AffineEq::new()).analyze(&m);
/// assert_eq!(analysis.verified_count(), 1);
/// # Ok::<(), cai_interp::ProgramParseError>(())
/// ```
pub struct Driver<D, F>
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    factory: F,
    threads: usize,
    cfg: AnalysisConfig,
    summary_widen_delay: usize,
    summary_rounds: usize,
    context_cap: usize,
    supervisor: SupervisorCfg,
    _domain: PhantomData<fn() -> D>,
}

impl<D, F> Driver<D, F>
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    /// Creates a driver from a domain factory. The factory is called once
    /// per component job with that job's budget slice, so budget-aware
    /// domains (e.g. a chaos wrapper) can wire it in; factories for
    /// unbudgeted domains just ignore the argument.
    pub fn new(factory: F) -> Driver<D, F> {
        Driver {
            factory,
            threads: 1,
            cfg: AnalysisConfig::new(),
            summary_widen_delay: 2,
            summary_rounds: 30,
            context_cap: 8,
            supervisor: SupervisorCfg::default(),
            _domain: PhantomData,
        }
    }

    /// Sets the worker-thread count (minimum 1). Budget slices are per
    /// component job, not per worker, so the analysis result — including
    /// degradation, retry, and quarantine outcomes — is identical for
    /// every thread count (the [`proc_deadline`](Driver::proc_deadline)
    /// watchdog, being wall-clock, is the one exception).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Replaces the intra-procedure [`AnalysisConfig`] (widening delay,
    /// iteration cap, budget) wholesale — the same struct
    /// `cai_interp::Analyzer` consumes, so the two entry points share
    /// one set of knobs.
    pub fn with_config(mut self, cfg: AnalysisConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The current intra-procedure configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Sets the intra-procedure widening delay (see
    /// [`Analyzer::widen_delay`]).
    pub fn widen_delay(mut self, rounds: usize) -> Self {
        self.cfg.widen_delay = rounds;
        self
    }

    /// Sets the intra-procedure loop iteration cap.
    pub fn max_iterations(mut self, cap: usize) -> Self {
        self.cfg.max_iterations = cap;
        self
    }

    /// Sets the cap on summary-fixpoint rounds for a recursive component
    /// before every member summary is forced to ⊤ (sound, reported via
    /// [`ProcReport::diverged`]).
    pub fn summary_rounds(mut self, cap: usize) -> Self {
        self.summary_rounds = cap.max(1);
        self
    }

    /// Sets the maximum number of distinct entry contexts memoized per
    /// procedure. Entries beyond the cap are widened together into one
    /// overflow context so polymorphic call sites and descending
    /// recursion still terminate. `0` disables context sensitivity
    /// entirely and reproduces the context-insensitive driver
    /// bit-for-bit.
    pub fn context_cap(mut self, n: usize) -> Self {
        self.context_cap = n;
        self
    }

    /// Sets how many times a panicking procedure analysis is retried
    /// (each retry under a halved fuel allowance) before the supervisor
    /// quarantines it to the sound ⊤ summary. Default 2; `0` quarantines
    /// on the first caught panic.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.supervisor.max_retries = n;
        self
    }

    /// Arms the straggler watchdog with a per-procedure wall-clock
    /// deadline: a procedure analysis overrunning it has its job's
    /// budget slice exhausted, so the hang degrades into the ordinary
    /// budget-exhaustion path instead of stalling the batch. Off by
    /// default (and the only supervision feature that makes outcomes
    /// wall-clock-dependent — leave it off when bit-identical runs
    /// matter more than liveness).
    pub fn proc_deadline(mut self, d: Duration) -> Self {
        self.supervisor.proc_deadline = Some(d);
        self
    }

    /// Governs the whole batch by `budget`: split into per-job slices,
    /// threaded into every analyzer, and handed to the domain factory.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Sets the [`BudgetPolicy`]. Under [`BudgetPolicy::Adaptive`] the
    /// batch budget is apportioned across component jobs proportionally
    /// to their size ([`Procedure::measures`] summed over members),
    /// damped by each member's recent incident history from the
    /// [`SummaryCache`]; inside each job, loop fixpoints run under
    /// size-derived slices and widened invariants get a bounded
    /// narrowing recovery pass. The default [`BudgetPolicy::Flat`]
    /// reproduces the pre-policy driver bit for bit.
    pub fn budget_policy(mut self, policy: BudgetPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Analyzes every procedure of `module` from scratch.
    pub fn analyze(&self, module: &Module) -> ModuleAnalysis {
        self.analyze_with_cache(module, &mut SummaryCache::new())
    }

    /// Analyzes `module`, reusing `cache` entries whose fingerprints
    /// still match and refreshing the cache with this run's results.
    /// Entries for procedures no longer in the module are pruned.
    pub fn analyze_with_cache(&self, module: &Module, cache: &mut SummaryCache) -> ModuleAnalysis {
        let _span = cai_obs::span!("driver/analyze-module");
        // Integrity first: a corrupted entry must be rejected before any
        // reuse decision looks at it (recompute, never wrong reuse). The
        // rejections go on a log of this run's own: the driver's budget
        // outlives the run, so anything recorded there would reappear in
        // every later report.
        let run_log = Budget::unlimited();
        cache.reject_corrupt(&run_log);

        let graph = CallGraph::build(module);
        let n_sccs = graph.sccs.len();
        let cfg = SolveCfg {
            widen_delay: self.cfg.widen_delay,
            max_iterations: self.cfg.max_iterations,
            summary_widen_delay: self.summary_widen_delay,
            summary_rounds: self.summary_rounds,
            context_cap: self.context_cap,
            policy: self.cfg.policy,
            sup: self.supervisor,
        };

        // Fingerprints, callee-first, so every component sees its
        // external callees' fingerprints already computed. The driver's
        // settings join each member fingerprint, so changing any setting
        // that can change a result invalidates the whole cache.
        let settings = cfg.fingerprint::<D>();
        let mut proc_fps: BTreeMap<String, u64> = BTreeMap::new();
        for members in &graph.sccs {
            let procs: Vec<&Procedure> = members.iter().map(|&i| &module.procs[i]).collect();
            let fp = scc_fingerprint(&procs, &proc_fps);
            for p in &procs {
                proc_fps.insert(
                    p.name.clone(),
                    config_fingerprint(member_fingerprint(fp, &p.name), settings),
                );
            }
        }

        // Decide reuse per component: every member must have a cache
        // entry whose fingerprint still matches.
        let mut reuse = vec![false; n_sccs];
        for (c, members) in graph.sccs.iter().enumerate() {
            reuse[c] = members.iter().all(|&i| {
                let p = &module.procs[i];
                cache
                    .entries
                    .get(&p.name)
                    .is_some_and(|e| Some(&e.fingerprint) == proc_fps.get(&p.name))
            });
        }

        // Fingerprint-valid context specializations from the previous
        // run seed every job's memo (read-only, identical for every
        // thread count).
        let seed: BTreeMap<String, Vec<Summary>> = cache
            .entries
            .iter()
            .filter(|(name, e)| {
                !e.contexts.is_empty() && proc_fps.get(*name) == Some(&e.fingerprint)
            })
            .map(|(name, e)| (name.clone(), e.contexts.clone()))
            .collect();

        // Seed the summary table and reports with the reused entries.
        let mut summaries: BTreeMap<String, Summary> = BTreeMap::new();
        let mut reports: BTreeMap<String, ProcReport> = BTreeMap::new();
        let mut reused = 0usize;
        for (c, members) in graph.sccs.iter().enumerate() {
            if !reuse[c] {
                continue;
            }
            for &i in members {
                let name = &module.procs[i].name;
                if let Some(e) = cache.entries.get(name) {
                    summaries.insert(name.clone(), e.report.summary.clone());
                    reports.insert(name.clone(), e.report.clone());
                    reused += 1;
                }
            }
        }

        // Schedule the components that need (re)computation.
        let todo: Vec<usize> = (0..n_sccs).filter(|&c| !reuse[c]).collect();
        let recomputed: usize = todo.iter().map(|&c| graph.sccs[c].len()).sum();
        // Per-job scheduling weights, in component-index order: the
        // component's summed size measures damped by its members' recent
        // incident history. A pure function of the module text and the
        // cache, so the apportionment — hence every degradation decision
        // downstream — is identical for every thread count. The flat
        // policy ignores the values and splits equally.
        let weights: Vec<u64> = todo
            .iter()
            .map(|&c| {
                let size = graph.sccs[c]
                    .iter()
                    .fold(SizeMeasures::default(), |acc, &i| {
                        acc.plus(&module.procs[i].measures())
                    });
                let incidents = graph.sccs[c]
                    .iter()
                    .map(|&i| cache.incident_count(&module.procs[i].name))
                    .sum();
                self.cfg.policy.job_weight(&size, incidents)
            })
            .collect();
        if self.cfg.policy.is_adaptive() {
            cai_obs::counter!("driver/policy/weighted-jobs").add(todo.len() as u64);
        }
        let ctx_stats = CtxStats::new();
        let sup_stats = SupStats::new();
        let slices = job_slices(&self.cfg.policy, &self.cfg.budget, &weights, todo.len());
        let job_contexts = self.run_jobs(
            module,
            &graph,
            &todo,
            &slices,
            cfg,
            &seed,
            &ctx_stats,
            &sup_stats,
            &mut summaries,
            &mut reports,
        );
        let slice_reports: Vec<DegradationReport> = slices.iter().map(Budget::report).collect();
        let mut degradation = DegradationReport::default();
        for r in &slice_reports {
            degradation.merge(r);
        }
        // Every member of a job whose slice degraded is stored as
        // degraded, which the cache drops: its result is a this-run
        // survival measure (a starved slice, a quarantine — which always
        // degrades its slice — or a forced ⊤), and the next run should
        // recompute the real summary. So is every job that read such a
        // result: the next run recomputes the callee, and a caller reused
        // beside it would keep the verdicts of the degraded summary.
        // Indices are callee-first, so one pass sees every callee first.
        let mut tainted = vec![false; n_sccs];
        for (&c, r) in todo.iter().zip(&slice_reports) {
            tainted[c] = r.degraded || r.exhausted || graph.deps[c].iter().any(|&d| tainted[d]);
        }
        let degraded: BTreeSet<&str> = todo
            .iter()
            .filter(|&&c| tainted[c])
            .flat_map(|&c| graph.sccs[c].iter().map(|&i| module.procs[i].name.as_str()))
            .collect();
        degradation.merge(&run_log.report());
        cache.absorb_incidents(degradation.incidents.iter());

        // Merge context specializations deterministically: the seed
        // first (it was every job's memo base), then each job's store in
        // component order — first writer wins per (proc, entry-key).
        let mut merged_contexts: BTreeMap<String, BTreeMap<u64, Summary>> = BTreeMap::new();
        for (name, sums) in &seed {
            let slot = merged_contexts.entry(name.clone()).or_default();
            for s in sums {
                slot.entry(s.entry_key()).or_insert_with(|| s.clone());
            }
        }
        for (_, contexts) in job_contexts {
            for (name, sums) in contexts {
                let slot = merged_contexts.entry(name).or_default();
                for s in sums {
                    slot.entry(s.entry_key()).or_insert(s);
                }
            }
        }

        // Refresh the cache: exactly the current module's procedures.
        // Entries whose procedure left the module or whose fingerprint
        // changed count as evictions.
        let stale = cache
            .entries
            .iter()
            .filter(|(name, e)| proc_fps.get(*name) != Some(&e.fingerprint))
            .count() as u64;
        cache.stats.add(cs::EVICTIONS, stale);
        cache.stats.add(cs::HITS, reused as u64);
        cache.stats.add(cs::MISSES, recomputed as u64);
        cache.entries.clear();
        for p in &module.procs {
            let Some(&fingerprint) = proc_fps.get(&p.name) else {
                continue;
            };
            let Some(report) = reports.get(&p.name).cloned() else {
                continue;
            };
            let skip = degraded.contains(p.name.as_str());
            let contexts: Vec<Summary> = merged_contexts
                .remove(&p.name)
                .map(|m| m.into_values().take(self.context_cap).collect())
                .unwrap_or_default();
            let entry = CacheEntry::new(fingerprint, report, contexts);
            cache.store(p.name.clone(), entry, skip);
        }

        let ordered: Vec<ProcReport> = module
            .procs
            .iter()
            .filter_map(|p| reports.remove(&p.name))
            .collect();
        ModuleAnalysis {
            reports: ordered,
            reused,
            recomputed,
            degradation,
            ctx: ctx_stats.snapshot(),
            supervision: sup_stats.snapshot(),
        }
    }

    /// The shared-nothing worklist. Ready components wait in an ordered
    /// set and are taken lowest index first; `threads` workers — the
    /// calling thread is one of them, so `threads(1)` spawns nothing —
    /// each take a component and an immutable snapshot of its external
    /// callees' (already final) summaries, run it under the component's
    /// budget slice outside the lock, then publish its reports and unlock
    /// its dependents. Component indices are callee-first, so one worker runs
    /// the components in index order. Budget slices and domain instances
    /// are per *job*, not per worker, so outcomes cannot depend on which
    /// thread ran a component. Context memo seeds are read-only and
    /// shared; each job's computed contexts are returned in component
    /// order, so the merged store is identical for every thread count.
    #[allow(clippy::too_many_arguments)] // internal: the analysis state of one run
    fn run_jobs(
        &self,
        module: &Module,
        graph: &CallGraph,
        todo: &[usize],
        slices: &[Budget],
        cfg: SolveCfg,
        seed: &BTreeMap<String, Vec<Summary>>,
        ctx_stats: &CtxStats,
        sup_stats: &SupStats,
        summaries: &mut BTreeMap<String, Summary>,
        reports: &mut BTreeMap<String, ProcReport>,
    ) -> JobContexts {
        let job_slices: BTreeMap<usize, &Budget> = todo.iter().copied().zip(slices).collect();
        // Dependency counts among the to-be-computed components only;
        // reused dependencies are already in the summary table.
        let mut pending: BTreeMap<usize, usize> = BTreeMap::new();
        let mut dependents: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &c in todo {
            let deps: Vec<usize> = graph.deps[c]
                .iter()
                .copied()
                .filter(|d| job_slices.contains_key(d))
                .collect();
            pending.insert(c, deps.len());
            for d in deps {
                dependents.entry(d).or_default().push(c);
            }
        }
        let ready: BTreeSet<usize> = pending
            .iter()
            .filter(|(_, &n)| n == 0)
            .map(|(&c, _)| c)
            .collect();
        let state = Mutex::new(Worklist {
            ready,
            pending,
            remaining: todo.len(),
            summaries,
            reports,
            contexts: Vec::new(),
        });
        let wake = Condvar::new();

        let work = || loop {
            let (c, external) = {
                let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(c) = st.ready.pop_first() {
                        break (c, external_snapshot(module, &graph.sccs[c], st.summaries));
                    }
                    if st.remaining == 0 {
                        return;
                    }
                    st = wake.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            // run_job never unwinds (its crash path quarantines instead),
            // so every taken job is published below and no worker waits
            // forever on a lost one.
            let (out, contexts) = run_job(
                &self.factory,
                module,
                &graph.sccs[c],
                &external,
                seed,
                graph.is_recursive(c, module),
                cfg,
                job_slices[&c],
                ctx_stats,
                sup_stats,
            );
            let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
            for r in out {
                st.summaries.insert(r.name.clone(), r.summary.clone());
                st.reports.insert(r.name.clone(), r);
            }
            st.contexts.push((c, contexts));
            st.remaining -= 1;
            for &dep in dependents.get(&c).into_iter().flatten() {
                if let Some(n) = st.pending.get_mut(&dep) {
                    *n -= 1;
                    if *n == 0 {
                        st.ready.insert(dep);
                    }
                }
            }
            drop(st);
            wake.notify_all();
        };

        let workers = self.threads.min(todo.len()).max(1);
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });

        let mut contexts = state
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .contexts;
        // Completion order is scheduling-dependent; merge order must not
        // be.
        contexts.sort_by_key(|(c, _)| *c);
        contexts
    }
}

/// The per-job budget slices for one batch, `weights` and the returned
/// vector both in `todo` (component-index) order. Delegates to
/// [`BudgetPolicy::job_slices`]; an empty batch still carves one unused
/// slice, matching the pre-policy `split(len.max(1))` exactly so the
/// parent budget's accounting is bit-identical under the flat policy.
fn job_slices(policy: &BudgetPolicy, budget: &Budget, weights: &[u64], jobs: usize) -> Vec<Budget> {
    if jobs == 0 {
        return budget.split(1);
    }
    policy.job_slices(budget, weights)
}

/// The summaries of every procedure the component calls outside itself —
/// transitively: context-sensitive resolution re-analyzes callee bodies,
/// so the summaries of *their* callees must be on hand too. Only
/// procedures already present in the table (i.e. already final) are
/// included; the SCC condensation guarantees that covers the whole
/// external cone.
fn external_snapshot(
    module: &Module,
    members: &[usize],
    summaries: &BTreeMap<String, Summary>,
) -> BTreeMap<String, Summary> {
    let mut out = BTreeMap::new();
    let mut work: Vec<String> = Vec::new();
    for &i in members {
        for callee in module.procs[i].callees() {
            if members.iter().any(|&j| module.procs[j].name == callee) {
                continue;
            }
            work.push(callee);
        }
    }
    while let Some(name) = work.pop() {
        if out.contains_key(&name) {
            continue;
        }
        let Some(s) = summaries.get(&name) else {
            continue;
        };
        out.insert(name.clone(), s.clone());
        if let Some(p) = module.get(&name) {
            for callee in p.callees() {
                if !out.contains_key(&callee) {
                    work.push(callee);
                }
            }
        }
    }
    out
}

fn summary_le<D: AbstractDomain>(d: &D, a: &Summary, b: &Summary) -> bool {
    match (&a.exit, &b.exit) {
        (None, _) => true,
        (Some(ca), None) => d.is_bottom(&d.from_conj(ca)),
        (Some(ca), Some(cb)) => d.le(&d.from_conj(ca), &d.from_conj(cb)),
    }
}

fn summary_combine<D: AbstractDomain>(d: &D, old: &Summary, new: &Summary, widen: bool) -> Summary {
    let exit = match (&old.exit, &new.exit) {
        (None, e) | (e, None) => e.clone(),
        (Some(ca), Some(cb)) => {
            let (ea, eb) = (d.from_conj(ca), d.from_conj(cb));
            let combined = if widen {
                d.widen(&ea, &eb)
            } else {
                d.join(&ea, &eb)
            };
            Some(d.to_conj(&combined))
        }
    };
    Summary {
        params: new.params.clone(),
        entry: new.entry.clone(),
        exit,
    }
}

/// One supervised per-procedure pass: everything a single analysis
/// attempt of one procedure produces. The summary here is always the
/// freshly summarized exit; the recursive recording pass substitutes the
/// stable fixpoint summary afterwards.
struct ProcPass {
    summary: Summary,
    assertions: Vec<AssertionOutcome>,
    diverged: bool,
}

/// The sound result for a quarantined procedure: the ⊤ summary (callers
/// havoc), no assertion verdicts, divergence flagged.
fn quarantined_pass(proc: &Procedure) -> ProcPass {
    ProcPass {
        summary: Summary::top(proc.params.clone()),
        assertions: Vec::new(),
        diverged: true,
    }
}

/// Runs one component job under crash supervision. The per-procedure
/// [`supervisor::supervise`] boundary inside [`solve_scc`] absorbs the
/// expected faults; this wrapper is the belt-and-braces layer for a
/// panic in the solver machinery itself: the whole solve gets one fresh
/// re-dispatch, and if that crashes too, every member is quarantined to
/// the sound ⊤ summary so dependents can still be scheduled. Keeping the
/// re-dispatch *inside* the job — rather than replacing worker threads —
/// makes the outcome a pure function of the job's inputs and its budget
/// slice, so it cannot depend on which thread ran the component.
#[allow(clippy::too_many_arguments)] // internal: the inputs of one component job
fn run_job<D, F>(
    factory: &F,
    module: &Module,
    members: &[usize],
    external: &BTreeMap<String, Summary>,
    seed: &BTreeMap<String, Vec<Summary>>,
    recursive: bool,
    cfg: SolveCfg,
    slice: &Budget,
    ctx_stats: &CtxStats,
    sup_stats: &SupStats,
) -> (Vec<ProcReport>, BTreeMap<String, Vec<Summary>>)
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    let _span = cai_obs::span!(format!(
        "driver/solve-scc/{}",
        members
            .first()
            .map_or("<empty>", |&i| module.procs[i].name.as_str())
    ));
    for attempt in 0..2u32 {
        // Each dispatch accounts into a transactional local counter set,
        // committed only on success: a wholesale crash abandons the
        // dispatch's results, so counting its retries/quarantines would
        // leave the batch stats disagreeing with the final reports.
        let local_stats = SupStats::new();
        let outcome = supervisor::guard(|| {
            solve_scc(
                factory,
                module,
                members,
                external,
                seed,
                recursive,
                cfg,
                slice,
                ctx_stats,
                &local_stats,
            )
        });
        match outcome {
            Ok(result) => {
                sup_stats.absorb(&local_stats);
                return result;
            }
            Err(message) => {
                sup_stats.note_panic();
                for &i in members {
                    slice.incident(Incident {
                        kind: IncidentKind::Panic,
                        subject: module.procs[i].name.clone(),
                        detail: format!("escaped per-procedure supervision: {message}"),
                        attempt,
                    });
                }
                if attempt == 0 {
                    sup_stats.note_retry();
                }
            }
        }
    }
    slice.degrade(
        "driver/supervisor",
        "component solve crashed twice; every member quarantined to \u{22a4}",
    );
    let out = members
        .iter()
        .map(|&i| {
            let proc = &module.procs[i];
            sup_stats.note_quarantined();
            slice.incident(Incident {
                kind: IncidentKind::Quarantine,
                subject: proc.name.clone(),
                detail: "component-level crash; summary pinned to \u{22a4}".to_string(),
                attempt: 1,
            });
            let pass = quarantined_pass(proc);
            ProcReport {
                name: proc.name.clone(),
                summary: pass.summary,
                assertions: pass.assertions,
                diverged: pass.diverged,
                quarantined: true,
            }
        })
        .collect();
    (out, BTreeMap::new())
}

/// Solves one strongly connected component: non-recursive components
/// take a single pass; recursive ones iterate a Jacobi-style summary
/// fixpoint from optimistic ⊥ summaries — join for the first rounds,
/// widening after — and force every member to ⊤ (flagging divergence) if
/// the round cap is hit. A final recording pass under the stable
/// summaries collects assertion verdicts.
///
/// Every per-procedure pass runs under [`supervisor::supervise`]: a
/// panicking analysis is caught, retried with halved fuel, and — past
/// the retry allowance — quarantined, after which the member contributes
/// the sound ⊤ summary to every later round and its report. The SCC
/// fixpoint still converges (⊤ is the lattice top: joins and the
/// stability check are unaffected) and the other members' summaries
/// remain sound, just weaker where they call the quarantined one.
///
/// Under a nonzero context cap, calls to *external* (already final)
/// procedures resolve through a [`ContextResolver`] that specializes the
/// callee on the caller's entry condition; calls within the component
/// keep reading the Jacobi iterates context-insensitively. The job's
/// computed specializations are returned for the incremental cache.
#[allow(clippy::too_many_arguments)] // internal: the inputs of one component job
fn solve_scc<D, F>(
    factory: &F,
    module: &Module,
    members: &[usize],
    external: &BTreeMap<String, Summary>,
    seed: &BTreeMap<String, Vec<Summary>>,
    recursive: bool,
    cfg: SolveCfg,
    budget: &Budget,
    ctx_stats: &CtxStats,
    sup_stats: &SupStats,
) -> (Vec<ProcReport>, BTreeMap<String, Vec<Summary>>)
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    let domain = factory(budget);
    let d = &domain;
    let watchdog = cfg
        .sup
        .proc_deadline
        .map(|deadline| Watchdog::arm(budget.clone(), deadline, sup_stats.clone()));
    let acfg = AnalysisConfig {
        widen_delay: cfg.widen_delay,
        max_iterations: cfg.max_iterations,
        budget: budget.clone(),
        policy: cfg.policy,
    };
    let ctx_resolver = (cfg.context_cap > 0).then(|| {
        ContextResolver::new(
            d,
            module,
            external,
            seed,
            cfg.context_cap,
            acfg.clone(),
            ctx_stats.clone(),
        )
    });

    // One *attempt* at one procedure: analyze the body (transfers ticking
    // the attempt's budget restriction) and summarize the exit. `local`
    // holds the component members' summaries only (the Jacobi iterates);
    // external summaries are final and read separately.
    let attempt_pass =
        |proc: &Procedure, local: &BTreeMap<String, Summary>, ab: &Budget| -> ProcPass {
            let attempt_cfg = AnalysisConfig {
                widen_delay: cfg.widen_delay,
                max_iterations: cfg.max_iterations,
                budget: ab.clone(),
                policy: cfg.policy,
            };
            let analysis = match &ctx_resolver {
                Some(resolver) => {
                    resolver.set_local(local.clone());
                    Analyzer::new(d)
                        .with_calls(resolver)
                        .with_config(attempt_cfg)
                        .run(&proc.body)
                }
                None => {
                    let mut table = external.clone();
                    for (k, v) in local.iter() {
                        table.insert(k.clone(), v.clone());
                    }
                    let resolver = SummaryResolver::new(&table);
                    let analysis = Analyzer::new(d)
                        .with_calls(&resolver)
                        .with_config(attempt_cfg)
                        .run(&proc.body);
                    analysis
                }
            };
            ProcPass {
                summary: summarize(d, &analysis.exit, proc),
                assertions: analysis.assertions,
                diverged: analysis.diverged,
            }
        };

    // One *supervised* pass: catch/retry/quarantine around the attempt.
    // A member already quarantined earlier in this job skips re-analysis
    // and keeps contributing its ⊤ pin.
    let supervised_pass = |proc: &Procedure,
                           local: &BTreeMap<String, Summary>,
                           quarantined: &mut BTreeSet<String>|
     -> ProcPass {
        if quarantined.contains(&proc.name) {
            return quarantined_pass(proc);
        }
        let _span = cai_obs::span!(format!("analyze/{}", proc.name));
        // Blame scope: every loss the attempt records is attributed to
        // this procedure (loops nest their `loop#N` labels below it).
        let _blame_scope = provenance::scope(proc.name.clone());
        let outcome = supervisor::supervise(
            &proc.name,
            &cfg.sup,
            budget,
            sup_stats,
            watchdog.as_ref(),
            |ab| {
                if let Some(resolver) = &ctx_resolver {
                    resolver.reset_in_flight();
                }
                attempt_pass(proc, local, ab)
            },
        );
        match outcome {
            Supervised::Done(pass) => pass,
            Supervised::Quarantined => {
                quarantined.insert(proc.name.clone());
                quarantined_pass(proc)
            }
        }
    };

    let mut quarantined: BTreeSet<String> = BTreeSet::new();
    let mut local: BTreeMap<String, Summary> = BTreeMap::new();
    let mut scc_diverged = false;

    if !recursive {
        // Callees are all external and final: one pass suffices.
        let mut out = Vec::with_capacity(members.len());
        for &i in members {
            let proc = &module.procs[i];
            let pass = supervised_pass(proc, &local, &mut quarantined);
            out.push(ProcReport {
                name: proc.name.clone(),
                summary: pass.summary,
                assertions: pass.assertions,
                diverged: pass.diverged,
                quarantined: quarantined.contains(&proc.name),
            });
        }
        return (out, take_contexts(ctx_resolver));
    }

    for &i in members {
        let proc = &module.procs[i];
        local.insert(proc.name.clone(), Summary::bottom(proc.params.clone()));
    }
    let mut round = 0usize;
    loop {
        round += 1;
        cai_obs::counter!("driver/jacobi/rounds").incr();
        // Losses recorded at this level (e.g. the round-cap degrade
        // below) carry the logical Jacobi round.
        provenance::set_round(round as u64);
        // Jacobi iteration: every member reads the previous round's
        // table, so the result is independent of member order.
        let mut next: Vec<(String, Summary)> = Vec::with_capacity(members.len());
        for &i in members {
            let proc = &module.procs[i];
            let pass = supervised_pass(proc, &local, &mut quarantined);
            next.push((proc.name.clone(), pass.summary));
        }
        let stable = next
            .iter()
            .all(|(name, new)| local.get(name).is_some_and(|old| summary_le(d, new, old)));
        if stable {
            break;
        }
        if round >= cfg.summary_rounds {
            budget.degrade(
                "driver/summary-fixpoint",
                "recursive component hit the round cap; summaries forced to top",
            );
            for &i in members {
                let proc = &module.procs[i];
                local.insert(proc.name.clone(), Summary::top(proc.params.clone()));
            }
            scc_diverged = true;
            break;
        }
        let widen = round > cfg.summary_widen_delay;
        for (name, new) in next {
            let combined = match local.get(&name) {
                Some(old) => summary_combine(d, old, &new, widen),
                None => new,
            };
            local.insert(name, combined);
        }
        if budget.is_exhausted() {
            // Sound bail-out mirroring the intra-procedure loops.
            for &i in members {
                let proc = &module.procs[i];
                local.insert(proc.name.clone(), Summary::top(proc.params.clone()));
            }
            scc_diverged = true;
            break;
        }
    }

    // Recording pass under the stable summaries.
    let mut out = Vec::with_capacity(members.len());
    for &i in members {
        let proc = &module.procs[i];
        let pass = supervised_pass(proc, &local, &mut quarantined);
        let is_quarantined = quarantined.contains(&proc.name);
        let summary = if is_quarantined {
            // The ⊤ pin wins over any stale Jacobi iterate: a quarantine
            // during the fixpoint leaves ⊤ in `local` anyway, and one in
            // the recording pass must still report ⊤ (it is ⊒ the
            // converged summary, so dependents computed against the
            // iterate stay sound).
            Summary::top(proc.params.clone())
        } else {
            match local.get(&proc.name) {
                Some(s) => s.clone(),
                None => pass.summary,
            }
        };
        out.push(ProcReport {
            name: proc.name.clone(),
            summary,
            assertions: pass.assertions,
            diverged: pass.diverged || scc_diverged,
            quarantined: is_quarantined,
        });
    }
    (out, take_contexts(ctx_resolver))
}

fn take_contexts<D: AbstractDomain>(
    resolver: Option<ContextResolver<'_, D>>,
) -> BTreeMap<String, Vec<Summary>> {
    match resolver {
        Some(r) => r.into_contexts(),
        None => BTreeMap::new(),
    }
}

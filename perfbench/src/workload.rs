//! The three workloads: set-up, the measured loop, and every check.

use crate::alloc;
use crate::engine::{unit, Engine, Probe, Unit};
use crate::gen::{self, CallsShape, Generated, Rng, Role};
use crate::timed::Table;
use cai_driver::SummaryCache;
use cai_interp::{parse_module, Module};
use cai_term::parse::Vocab;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::process::Command;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold analysis of independent looping procedures.
    Batch,
    /// Cold analysis of a call-graph module, context-sensitive.
    Calls,
    /// Single-procedure edits of the `calls` module, re-analyzed warm.
    Edit,
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        match s {
            "batch" => Ok(Workload::Batch),
            "calls" => Ok(Workload::Calls),
            "edit" => Ok(Workload::Edit),
            _ => Err(format!("unknown workload {s}")),
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run only the first analysis and print its [`fingerprint`].
    pub probe: bool,
}

/// Procedures in one `batch` module.
const BATCH_PROCS: usize = 6;
/// Set-ups before the measured loop; one more runs every
/// [`SETUP_EVERY_S`] seconds inside it, so that `setup_s`, the median of
/// all of them, samples the same stretch of time as the units do.
const SETUP_REPS: usize = 3;
const SETUP_EVERY_S: f64 = 10.0;
/// Fewest measured units in a run, however slow.
const MIN_UNITS: usize = 3;
/// `peak_rss_mb` is read after the set-up and this many measured units,
/// so that it reflects a fixed amount of work however fast the units
/// run (the term layer interns fresh variable names for the life of the
/// process, so the peak keeps creeping up with the number of analyses).
pub const RSS_UNITS: usize = 10;
/// The roles edited, in order, one script period: large-cone leaf
/// edits among root edits with a cone of one. `None` stands for a mid,
/// recursive or small-cone leaf edit, in turn. Seven roots in ten put the
/// median inside the root edits and two leaves in ten put the 90th
/// percentile inside the leaf edits, so neither sits on the edge between
/// two kinds of edit.
const EDIT_PERIOD: [Option<Role>; 10] = [
    Some(Role::Leaf),
    Some(Role::Root),
    Some(Role::Root),
    Some(Role::Root),
    None,
    Some(Role::Root),
    Some(Role::Leaf),
    Some(Role::Root),
    Some(Role::Root),
    Some(Role::Root),
];
const EDIT_OTHERS: [Role; 3] = [Role::Mid, Role::Rec, Role::Lin];
/// Every this many edits the warm result is compared with a cold
/// analysis of the same module (coprime to the script period, so every
/// position of the period gets checked).
const COLD_CHECK_EVERY: usize = 3;
/// Counts that must repeat exactly for equal inputs and equal process
/// history (the table prints them for the first analysis).
pub const DET_KEYS: &[&str] = &[
    "verified",
    "core.fuel",
    "core.saturation_rounds",
    "driver.contexts_created",
    "driver.recomputed",
    "uf.egraph_merges",
];

/// What a measured unit leaves behind.
pub struct Sample {
    pub wall_ns: u64,
    pub counts: BTreeMap<&'static str, u64>,
    pub layers: Table,
    pub allocs: alloc::Counts,
}

impl From<&Unit> for Sample {
    fn from(u: &Unit) -> Sample {
        Sample {
            wall_ns: u.wall_ns,
            counts: u.counts.clone(),
            layers: u.layers,
            allocs: u.allocs,
        }
    }
}

#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Procedures, assertions and valid assertions of the module.
    pub procs: usize,
    pub assertions: usize,
    pub valid: usize,
    pub plain: Vec<Sample>,
    pub traced: Vec<Sample>,
    /// Analyses checked and failed: set-up, measured, traced and cold
    /// check analyses alike.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub cold_checks: u64,
    /// Peak resident set size after the set-up and [`RSS_UNITS`] units.
    pub peak_rss_mb: f64,
    pub transparency_checks: u64,
    /// The first set-up analysis, which every run at one seed makes with
    /// the same process history.
    pub reference: Option<Unit>,
}

impl Run {
    fn record(&mut self, u: &Unit) {
        self.plain.push(Sample::from(u));
        if self.plain.len() == RSS_UNITS {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Checks one analysis against the known answers, its health, and
    /// whatever else `agree` names; counts it as attempted, and as
    /// failed if any check fails.
    fn check(&mut self, label: &str, u: &Unit, expected: &Generated, agree: Agree) {
        self.attempted += 1;
        let mut ok = true;
        if u.verdicts != expected.expected {
            ok = false;
            self.fail(format!("{label}: verdicts differ from the known answers"));
            for (i, (got, want)) in u.verdicts.iter().zip(&expected.expected).enumerate() {
                if got != want {
                    self.fail(format!("  procedure #{i}: got {got:?}, expected {want:?}"));
                }
            }
        }
        if u.unhealthy {
            ok = false;
            self.fail(format!("{label}: degraded or quarantined"));
        }
        match agree {
            Agree::Nothing => {}
            Agree::Reference => match &self.reference {
                None => self.reference = Some(u.clone()),
                Some(r) if r.result != u.result => {
                    ok = false;
                    self.fail(format!("{label}: result differs from the first analysis"));
                }
                Some(_) => {}
            },
            Agree::Plain(plain) => {
                self.transparency_checks += 1;
                if plain.result != u.result {
                    ok = false;
                    self.fail(format!("{label}: traced result differs from the plain one"));
                }
            }
            Agree::Warm(warm) => {
                self.cold_checks += 1;
                if warm.result != u.result {
                    ok = false;
                    self.fail(format!("{label}: warm result differs from a cold analysis"));
                }
            }
        }
        if !ok {
            self.failed += 1;
        }
    }
}

/// What an analysis must agree with besides the known answers. Within
/// one process only results are compared: the product's work counts
/// drift between repeated analyses of one module (they depend on the
/// process history, e.g. the global counter behind fresh variable
/// names), so counts are compared between fresh processes instead (see
/// [`cross_check`]).
enum Agree<'a> {
    /// Nothing more (a warm `edit` unit).
    Nothing,
    /// The result of the first set-up analysis (a cold analysis of the
    /// set-up module).
    Reference,
    /// The plain analysis of the same input (a traced analysis).
    Plain(&'a Unit),
    /// The warm analysis of the same module (a cold check).
    Warm(&'a Unit),
}

/// Every count of an analysis and a digest of its result, on one line.
pub fn fingerprint(u: &Unit) -> String {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    u.result.hash(&mut h);
    let mut line: String = u.counts.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    line.push_str(&format!("result={:016x}", h.finish()));
    line
}

/// The first analysis of this run: the one [`Run::reference`] holds,
/// made the same way with the same process history.
pub fn first_analysis(opts: &Opts) -> (Unit, Generated) {
    let g = generate(opts);
    let u = Pipeline::new(opts.workload, opts.trace).unit(&parse(&g));
    (u, g)
}

/// Runs the first analysis again in a fresh process of this program and
/// compares its fingerprint with the reference: the plain analysis must
/// repeat every count exactly (determinism across runs at one seed), and
/// so must the traced one (transparency of the wrapper).
fn cross_check(run: &mut Run, opts: &Opts, traced: bool) {
    let what = if traced { "traced" } else { "plain" };
    let Some(reference) = run.reference.as_ref().map(fingerprint) else {
        return;
    };
    run.attempted += 1;
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", &format!("{:?}", opts.workload).to_lowercase()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }, "--probe"])
            .output()
    });
    let line = match &out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        Ok(o) => format!("probe failed: {}", String::from_utf8_lossy(&o.stderr)),
        Err(e) => format!("probe failed: {e}"),
    };
    if traced {
        run.transparency_checks += 1;
    }
    if line != reference {
        run.failed += 1;
        run.fail(format!(
            "the {what} first analysis of a fresh process differs:\n    {line}\n    {reference}"
        ));
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse(g: &Generated) -> Module {
    match parse_module(&Vocab::standard(), &g.src) {
        Ok(m) => m,
        Err(e) => panic!("generated module does not parse: {e}\n{}", g.src),
    }
}

fn generate(opts: &Opts) -> Generated {
    match opts.workload {
        Workload::Batch => gen::batch(opts.seed, BATCH_PROCS),
        Workload::Calls | Workload::Edit => CallsShape::new(opts.seed).render(),
    }
}

pub fn run(opts: &Opts) -> Run {
    let mut run = match opts.workload {
        Workload::Edit => edit(opts),
        _ => cold(opts),
    };
    if run.plain.len() < RSS_UNITS {
        run.peak_rss_mb = peak_rss_mb();
    }
    cross_check(&mut run, opts, false);
    if opts.trace {
        cross_check(&mut run, opts, true);
    }
    run
}

/// An engine and what it keeps between analyses: nothing for `batch`
/// and `calls` (every analysis is cold), one summary cache and one shared
/// split cache (inside the probe) for `edit`.
struct Pipeline {
    probe: Arc<Probe>,
    engine: Engine,
    cache: Option<SummaryCache>,
}

impl Pipeline {
    fn new(workload: Workload, traced: bool) -> Pipeline {
        let warm = workload == Workload::Edit;
        let probe = if warm { Probe::warm() } else { Probe::cold() };
        let engine = Engine::new(traced, &probe);
        let cache = warm.then(SummaryCache::new);
        Pipeline {
            probe,
            engine,
            cache,
        }
    }

    fn unit(&mut self, m: &Module) -> Unit {
        unit(&self.engine, &self.probe, m, self.cache.as_mut())
    }
}

/// One timed set-up: generate and parse the module, build the plain
/// pipeline and run its first analysis (the warm-up, or the cold fill for
/// `edit`).
fn set_up(run: &mut Run, opts: &Opts, label: &str) -> (Generated, Module, Pipeline) {
    let t0 = Instant::now();
    let g = generate(opts);
    let m = parse(&g);
    let mut pipeline = Pipeline::new(opts.workload, false);
    let first = pipeline.unit(&m);
    run.setup_s.push(t0.elapsed().as_secs_f64());
    run.check(label, &first, &g, Agree::Reference);
    (g, m, pipeline)
}

/// The set-ups before the measured loop; returns the last one.
fn set_ups(run: &mut Run, opts: &Opts) -> (Generated, Module, Pipeline) {
    let mut last = set_up(run, opts, "set-up 0");
    for rep in 1..SETUP_REPS {
        last = set_up(run, opts, &format!("set-up {rep}"));
    }
    run.procs = last.1.procs.len();
    (run.assertions, run.valid) = (last.0.assertions(), last.0.valid());
    last
}

/// The measured loop's clock: runs until `--seconds` have passed (and at
/// least [`MIN_UNITS`] units), with a set-up every [`SETUP_EVERY_S`].
struct Clock {
    start: Instant,
    last_set_up: Instant,
}

impl Clock {
    fn new() -> Clock {
        Clock {
            start: Instant::now(),
            last_set_up: Instant::now(),
        }
    }

    fn more(&mut self, run: &mut Run, opts: &Opts, units: usize) -> bool {
        if self.last_set_up.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            set_up(run, opts, "set-up in the loop");
            self.last_set_up = Instant::now();
        }
        units < MIN_UNITS || self.start.elapsed().as_secs_f64() < opts.seconds
    }
}

/// `batch` and `calls`: one module, analyzed from scratch per unit.
fn cold(opts: &Opts) -> Run {
    let mut run = Run::default();
    let (g, m, mut plain) = set_ups(&mut run, opts);
    let mut traced = Pipeline::new(opts.workload, true);
    let mut clock = Clock::new();
    let mut n = 0;
    while clock.more(&mut run, opts, n) {
        let label = format!("unit {n}");
        let u = plain.unit(&m);
        run.check(&label, &u, &g, Agree::Reference);
        run.record(&u);
        if opts.trace {
            let t = traced.unit(&m);
            run.check(&format!("{label} traced"), &t, &g, Agree::Plain(&u));
            run.traced.push(Sample::from(&t));
        }
        n += 1;
    }
    run
}

/// A seeded, endless script of single-procedure constant edits. Each
/// role's procedures are edited round-robin in a seeded order, so every
/// stretch of the script edits the same mix of procedures.
struct Script {
    rng: Rng,
    step: usize,
    /// Per role: the seeded order of its procedures and the next turn.
    turns: Vec<(Role, Vec<usize>, usize)>,
}

impl Script {
    fn new(seed: u64, shape: &CallsShape) -> Script {
        let mut rng = Rng::new(seed ^ 0xED17);
        let roles = [Role::Leaf, Role::Lin, Role::Rec, Role::Mid, Role::Root];
        let turns = roles
            .into_iter()
            .map(|role| {
                let mut order: Vec<usize> = (0..shape.len())
                    .filter(|&i| shape.role(i) == role)
                    .collect();
                rng.shuffle(&mut order);
                (role, order, 0)
            })
            .collect();
        Script {
            rng,
            step: 0,
            turns,
        }
    }

    /// Applies the next edit to `shape`.
    fn edit(&mut self, shape: &mut CallsShape) {
        let (period, pos) = (self.step / EDIT_PERIOD.len(), self.step % EDIT_PERIOD.len());
        let role = EDIT_PERIOD[pos].unwrap_or(EDIT_OTHERS[period % EDIT_OTHERS.len()]);
        self.step += 1;
        let Some((_, order, next)) = self.turns.iter_mut().find(|t| t.0 == role) else {
            unreachable!("every role has a turn list")
        };
        let i = order[*next % order.len()];
        *next += 1;
        let old = shape.consts[i];
        shape.consts[i] = loop {
            let c = self.rng.range(-20, 20);
            if c != old {
                break c;
            }
        };
    }
}

/// `edit`: the `calls` module kept warm through one summary cache and
/// one shared split cache while a script edits it.
fn edit(opts: &Opts) -> Run {
    let mut run = Run::default();
    let (g, m, mut warm) = set_ups(&mut run, opts);
    let mut shape = CallsShape::new(opts.seed);
    let mut traced = opts.trace.then(|| Pipeline::new(opts.workload, true));
    if let Some(t) = traced.as_mut() {
        let fill = t.unit(&m);
        run.check("traced fill", &fill, &g, Agree::Reference);
    }
    let mut cold = Pipeline::new(Workload::Calls, false);
    let mut script = Script::new(opts.seed, &shape);
    let mut clock = Clock::new();
    let mut n = 0;
    while clock.more(&mut run, opts, n) {
        for _ in 0..EDIT_PERIOD.len() {
            script.edit(&mut shape);
            let g = shape.render();
            let m = parse(&g);
            let label = format!("edit {n}");
            let u = warm.unit(&m);
            run.check(&label, &u, &g, Agree::Nothing);
            run.record(&u);
            if let Some(t) = traced.as_mut() {
                let tu = t.unit(&m);
                run.check(&format!("{label} traced"), &tu, &g, Agree::Plain(&u));
                run.traced.push(Sample::from(&tu));
            }
            if n % COLD_CHECK_EVERY == 0 {
                let c = cold.unit(&m);
                run.check(&format!("{label} cold"), &c, &g, Agree::Warm(&u));
            }
            n += 1;
        }
    }
    run
}

//! The observability determinism contract (see DESIGN.md): turning the
//! tracer on, or varying the driver's thread count, must never change an
//! analysis result — observation is read-only. Plus the arithmetic the
//! contract's tooling relies on: snapshot subtraction and the tracer's
//! drop-oldest ring wraparound.

use cai_core::{Budget, ChaosConfig, ChaosDomain, LogicalProduct};
use cai_driver::{Driver, ModuleAnalysis};
use cai_interp::{parse_module, Module};
use cai_linarith::AffineEq;
use cai_obs::trace;
use cai_term::parse::Vocab;
use cai_uf::UfDomain;
use std::sync::Mutex;

/// Serializes the tests that toggle global tracer state (enabled flag,
/// ring capacity); the cargo test harness runs tests concurrently.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

type Product = LogicalProduct<AffineEq, UfDomain>;

fn product_driver() -> Driver<Product, impl Fn(&Budget) -> Product + Sync> {
    Driver::new(|_: &Budget| LogicalProduct::new(AffineEq::new(), UfDomain::new()))
}

fn chaos_driver(
    seed: u64,
    rate: u32,
) -> Driver<ChaosDomain<Product>, impl Fn(&Budget) -> ChaosDomain<Product> + Sync> {
    Driver::new(move |b: &Budget| {
        ChaosDomain::new(LogicalProduct::new(AffineEq::new(), UfDomain::new()), seed)
            .with_config(ChaosConfig {
                panic_permille: rate,
                ..ChaosConfig::quiet()
            })
            .with_budget(b.clone())
    })
}

fn test_module(n: usize) -> Module {
    let mut src = String::new();
    for i in 0..n {
        let k = i % 5;
        src.push_str(&format!(
            "proc p{i}(a) {{
                 x := a + {k};
                 y := F(x);
                 while (*) {{ x := x + 1; y := F(x); }}
                 assert(y = F(x));
                 ret := x;
             }}\n"
        ));
    }
    parse_module(&Vocab::standard(), &src).expect("generated module parses")
}

/// Every observable fact of a run, as one comparable string: summaries
/// (including their rendering), verdicts, flags, supervision counters,
/// and the incident log.
fn fingerprint(a: &ModuleAnalysis) -> String {
    let mut s = String::new();
    for r in a {
        let verdicts: Vec<bool> = r.assertions.iter().map(|o| o.verified).collect();
        s.push_str(&format!(
            "{} | {} | {verdicts:?} | diverged={} quarantined={}\n",
            r.name, r.summary, r.diverged, r.quarantined
        ));
    }
    s.push_str(&format!("sup={:?}\n", a.supervision));
    for i in &a.degradation.incidents {
        s.push_str(&format!(
            "{} `{}` attempt {}\n",
            i.kind, i.subject, i.attempt
        ));
    }
    s
}

/// The core contract: the tracer is observation-only. Analysis results
/// are bit-identical with it off and on, at every thread count.
#[test]
fn tracer_on_off_is_bit_identical_across_thread_counts() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let m = test_module(8);

    trace::set_enabled(false);
    let baseline = fingerprint(&product_driver().threads(1).analyze(&m));

    trace::set_enabled(true);
    for threads in [1, 2, 4] {
        let traced = fingerprint(&product_driver().threads(threads).analyze(&m));
        assert_eq!(
            baseline, traced,
            "tracer-on run at {threads} thread(s) diverged from the untraced baseline"
        );
    }
    let recorded = trace::drain();
    trace::set_enabled(false);
    assert!(
        !recorded.is_empty(),
        "the traced runs must actually have recorded spans"
    );
}

/// Same contract under injected faults: a chaos run (caught panics,
/// retries, quarantines) is bit-identical with the tracer off and on.
#[test]
fn tracer_is_inert_under_chaos() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let m = test_module(8);
    let (seed, rate) = (7, 500);

    trace::set_enabled(false);
    let baseline = fingerprint(&chaos_driver(seed, rate).threads(1).analyze(&m));
    assert!(
        baseline.contains("Panic") || baseline.contains("quarantined=true"),
        "the chaos rate must actually inject faults for this to test anything"
    );

    trace::set_enabled(true);
    for threads in [1, 2] {
        let traced = fingerprint(&chaos_driver(seed, rate).threads(threads).analyze(&m));
        assert_eq!(
            baseline, traced,
            "traced chaos run at {threads} thread(s) diverged from the untraced baseline"
        );
    }
    trace::drain();
    trace::set_enabled(false);
}

/// Snapshot subtraction is the metering primitive: counters and
/// histogram totals subtract (saturating).
#[test]
fn snapshot_subtraction_arithmetic() {
    use cai_obs::{Metrics, Value};
    let m = Metrics::new();
    m.counter("joins").add(10);
    m.histogram("iters").observe(4);
    let before = m.snapshot();

    m.counter("joins").add(5);
    m.counter("fresh").add(2);
    m.histogram("iters").observe(6);
    let after = m.snapshot();

    let delta = &after - &before;
    assert_eq!(delta.counter("joins"), 5);
    assert_eq!(delta.counter("fresh"), 2, "new names pass through whole");
    match delta.get("iters") {
        Some(Value::Histogram(h)) => {
            assert_eq!((h.count, h.sum), (1, 6));
        }
        other => panic!("expected a histogram delta, got {other:?}"),
    }
    // Subtraction saturates rather than wrapping: a stale (larger)
    // baseline yields zero, not u64::MAX.
    let zero = &before - &after;
    assert_eq!(zero.counter("joins"), 0);
}

/// The per-thread ring drops the *oldest* events on overflow: after
/// recording more instants than the capacity, the drained trace holds
/// exactly the newest ones and reports the rest as dropped.
#[test]
fn ring_wraparound_keeps_newest_events() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::drain();
    trace::set_ring_capacity(8);
    trace::set_enabled(true);
    // A fresh thread gets a fresh ring at the reduced capacity.
    std::thread::spawn(|| {
        for i in 0..50 {
            cai_obs::instant!("event-{i}");
        }
    })
    .join()
    .expect("recorder thread");
    let t = trace::drain();
    trace::set_enabled(false);
    trace::set_ring_capacity(trace::DEFAULT_RING_CAPACITY);

    assert_eq!(t.events.len(), 8, "the ring holds exactly its capacity");
    assert_eq!(t.dropped, 42, "the overwritten events are accounted for");
    let names: Vec<&str> = t.events.iter().map(|e| e.name.as_str()).collect();
    let newest: Vec<String> = (42..50).map(|i| format!("event-{i}")).collect();
    assert_eq!(names, newest, "wraparound keeps the newest events");
}

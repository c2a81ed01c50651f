//! The precision-provenance determinism contract (see DESIGN.md §11):
//! every run reports its own blame table in its degradation report. The
//! table is a pure function of the analysis, so its JSON export is
//! identical at every thread count, including under injected degradation
//! faults, and two analyses running at once never see each other's rows.

use cai_core::{Budget, ChaosConfig, ChaosDomain, LogicalProduct};
use cai_driver::{Driver, ModuleAnalysis};
use cai_interp::{parse_module, Module};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;
use cai_uf::UfDomain;

type Product = LogicalProduct<AffineEq, UfDomain>;
type DegradingProduct = LogicalProduct<ChaosDomain<AffineEq>, UfDomain>;

fn product_driver() -> Driver<Product, impl Fn(&Budget) -> Product + Sync> {
    Driver::new(|_: &Budget| LogicalProduct::new(AffineEq::new(), UfDomain::new()))
}

/// A driver whose *base* domain injects sound degradation faults (forced
/// ⊤ joins, defective Alternate operators, budget exhaustion) plus
/// panics, so every run records loss events across several kinds and
/// exercises the supervisor. The product records on the job budget too,
/// so its skipped Alternate definitions reach the run's report.
fn degrading_driver(
    seed: u64,
    panic_rate: u32,
) -> Driver<DegradingProduct, impl Fn(&Budget) -> DegradingProduct + Sync> {
    Driver::new(move |b: &Budget| {
        LogicalProduct::new(
            ChaosDomain::new(AffineEq::new(), seed)
                .with_config(ChaosConfig {
                    top_join_permille: 100,
                    break_alternate_permille: 300,
                    exhaust_budget_permille: 10,
                    panic_permille: panic_rate,
                    ..ChaosConfig::quiet()
                })
                .with_budget(b.clone()),
            UfDomain::new(),
        )
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
/// the incident log, and the blame table.
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
    s.push_str(&a.degradation.blame.to_json());
    s
}

/// The export contract: with degradation faults injected, the run's
/// blame table — and every other observable fact — is bit-identical at
/// 1, 2 and 4 threads: scopes are thread-local, rounds are logical, and
/// the per-job tables merge commutatively, so the schedule leaves no
/// trace.
#[test]
fn blame_json_is_identical_across_thread_counts_under_chaos() {
    let m = test_module(8);
    let (seed, panic_rate) = (7, 200);
    let run = |threads: usize| {
        degrading_driver(seed, panic_rate)
            .max_retries(0)
            .threads(threads)
            .with_budget(Budget::fuel(200_000))
            .analyze(&m)
    };

    let base = run(1);
    let kinds = base.degradation.blame.kinds();
    assert!(
        kinds.len() >= 2,
        "expected several loss kinds, got {kinds:?}"
    );
    for threads in [2usize, 4] {
        assert_eq!(
            fingerprint(&base),
            fingerprint(&run(threads)),
            "chaos run at {threads} thread(s) diverged from the 1-thread run"
        );
    }
}

/// The tracer observes, never steers: results are bit-identical with it
/// off and on, at every thread count. A starved fuel pool makes the run
/// lose facts, and the losses carry the procedure/loop scope, not a
/// thread identity.
#[test]
fn tracer_on_off_is_bit_identical_and_losses_are_loop_scoped() {
    let m = test_module(8);
    let run = |threads: usize| {
        product_driver()
            .threads(threads)
            .with_budget(Budget::fuel(24))
            .analyze(&m)
    };
    cai_obs::trace::set_enabled(false);
    let baseline = run(1);

    cai_obs::trace::set_enabled(true);
    for threads in [1usize, 2, 4] {
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&run(threads)),
            "traced run at {threads} thread(s) diverged from the untraced baseline"
        );
    }
    let spans = cai_obs::trace::drain();
    cai_obs::trace::set_enabled(false);
    assert!(!spans.is_empty(), "the tracer must have recorded spans");
    let entries = baseline.degradation.blame.entries();
    assert!(
        !entries.is_empty(),
        "the starved run must report loss events"
    );
    assert!(
        entries.iter().any(|e| e.scope.contains("/loop#")),
        "loss events must be attributed to a proc/loop scope, got {:?}",
        entries.iter().map(|e| &e.scope).collect::<Vec<_>>()
    );
}

/// Two analyses at once keep their rows apart: a starved and an
/// unlimited driver run side by side on two threads, the unlimited run
/// reports no loss, and the starved run reports exactly the rows it
/// reports when it runs alone.
#[test]
fn concurrent_runs_report_only_their_own_losses() {
    let m = test_module(8);
    let starved = || product_driver().with_budget(Budget::fuel(24)).analyze(&m);
    let alone = starved().degradation.blame;
    assert!(!alone.is_empty(), "the starved run must report loss events");
    let (side_by_side, unlimited) = std::thread::scope(|s| {
        let a = s.spawn(starved);
        let b = s.spawn(|| product_driver().analyze(&m));
        (
            a.join().expect("starved run"),
            b.join().expect("unlimited run"),
        )
    });
    assert!(
        unlimited.degradation.blame.is_empty(),
        "the unlimited run lost nothing, got {}",
        unlimited.degradation.blame
    );
    assert_eq!(side_by_side.degradation.blame, alone);
}

//! Chaos tests of the driver's supervision layer: injected panics must
//! be absorbed (caught, retried, or quarantined to the sound ⊤ summary)
//! with bit-identical results across thread counts, injected stalls must
//! be broken by the watchdog, and corrupted cache entries must be
//! rejected and recomputed — all without a single process abort (every
//! test completing *is* the zero-abort assertion).

use cai_core::{Budget, ChaosConfig, ChaosDomain, IncidentKind, LogicalProduct};
use cai_driver::{Driver, ModuleAnalysis, Summary, SummaryCache};
use cai_interp::{parse_module, Module};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;
use cai_uf::UfDomain;
use std::time::Duration;

type Product = LogicalProduct<AffineEq, UfDomain>;
type Chaos = ChaosDomain<Product>;

fn product() -> Product {
    LogicalProduct::new(AffineEq::new(), UfDomain::new())
}

/// A driver whose every job wraps the product in a seeded fault
/// injector attached to that job's budget slice.
fn chaos_driver(seed: u64, cfg: ChaosConfig) -> Driver<Chaos, impl Fn(&Budget) -> Chaos + Sync> {
    Driver::new(move |b: &Budget| {
        ChaosDomain::new(product(), seed)
            .with_config(cfg)
            .with_budget(b.clone())
    })
}

/// A module with real interprocedural structure: `n` leaf procedures,
/// `n` mid-tier callers (each calling two leaves), a recursive
/// procedure, and a `main` that calls into the mid tier and asserts —
/// enough components for the scheduler to farm out and for quarantines
/// to have visible dependents.
fn batch(n: usize) -> Module {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("proc leaf{i}(a) {{ ret := a + {i}; }}\n"));
    }
    for i in 0..n {
        let j = (i + 1) % n;
        src.push_str(&format!(
            "proc mid{i}(a) {{ x := call leaf{i}(a); y := call leaf{j}(x); ret := y; }}\n"
        ));
    }
    src.push_str("proc rec(n) { if (*) { ret := n; } else { t := call rec(n); ret := t; } }\n");
    src.push_str(
        "proc main(a) {
             r := call mid0(a);
             assert(r = a + 1);
             s := call rec(a);
             ret := r + s;
         }\n",
    );
    parse_module(&Vocab::standard(), &src).expect("module parses")
}

/// Everything observable about a run, rendered to one comparable string:
/// reports (summary, verdicts, flags), supervision counters, and the
/// incident log. Two runs with equal fingerprints behaved identically.
fn fingerprint(a: &ModuleAnalysis) -> String {
    let mut s = String::new();
    for r in a {
        let verdicts: Vec<bool> = r.assertions.iter().map(|o| o.verified).collect();
        s.push_str(&format!(
            "{} | {} | {:?} | diverged={} quarantined={}\n",
            r.name, r.summary, verdicts, r.diverged, r.quarantined
        ));
    }
    s.push_str(&format!(
        "reused={} recomputed={} sup={:?}\n",
        a.reused, a.recomputed, a.supervision
    ));
    s.push_str(&format!(
        "degraded={} exhausted={} fuel={}\n",
        a.degradation.degraded, a.degradation.exhausted, a.degradation.fuel_spent
    ));
    for i in &a.degradation.incidents {
        s.push_str(&format!(
            "{} `{}` attempt {}\n",
            i.kind, i.subject, i.attempt
        ));
    }
    s.push_str(&format!("dropped={}\n", a.degradation.dropped_incidents));
    s
}

/// `faulty ⊒ clean` on exit constraints, decided by a fault-free domain.
fn summary_weaker_or_equal(d: &Product, clean: &Summary, faulty: &Summary) -> bool {
    use cai_core::AbstractDomain;
    match (&clean.exit, &faulty.exit) {
        (None, _) => true,
        // The faulty run claiming ⊥ where the clean run reached the exit
        // would be exactly the unsoundness supervision must prevent.
        (Some(_), None) => false,
        (Some(a), Some(b)) => d.le(&d.from_conj(a), &d.from_conj(b)),
    }
}

#[test]
fn panic_chaos_is_bit_identical_across_thread_counts() {
    let m = batch(5);
    let cfg = ChaosConfig {
        panic_permille: 60,
        ..ChaosConfig::quiet()
    };
    let mut total_panics = 0u64;
    for seed in 0..4u64 {
        let base = chaos_driver(seed, cfg).threads(1).analyze(&m);
        total_panics += base.supervision.panics_caught;
        let base_fp = fingerprint(&base);
        for threads in [2, 4] {
            let run = chaos_driver(seed, cfg).threads(threads).analyze(&m);
            assert_eq!(
                fingerprint(&run),
                base_fp,
                "seed {seed}: threads={threads} diverged from the sequential run"
            );
        }
    }
    assert!(
        total_panics > 0,
        "the chaos rate must actually exercise the supervisor"
    );
}

#[test]
fn quarantined_procedures_pin_to_top_and_dependents_stay_sound() {
    let m = batch(4);
    let clean = Driver::new(|_| product()).threads(2).analyze(&m);
    let cfg = ChaosConfig {
        panic_permille: 250,
        ..ChaosConfig::quiet()
    };
    let d = product();
    let mut total_quarantined = 0usize;
    for seed in 0..6u64 {
        // max_retries(0): the first caught panic quarantines, so heavy
        // chaos reliably produces ⊤ pins to inspect.
        let a = chaos_driver(seed, cfg)
            .max_retries(0)
            .threads(2)
            .analyze(&m);
        assert_eq!(
            a.supervision.quarantined as usize,
            a.quarantined_count(),
            "counter and reports agree"
        );
        total_quarantined += a.quarantined_count();
        for r in &a {
            if r.quarantined {
                assert!(
                    r.summary.entry.is_empty()
                        && r.summary.exit.as_ref().is_some_and(|c| c.is_empty()),
                    "seed {seed}: quarantined `{}` must report the ⊤ summary, got `{}`",
                    r.name,
                    r.summary
                );
                assert!(
                    r.assertions.is_empty(),
                    "no verdicts from a quarantined body"
                );
                assert!(r.diverged, "quarantine flags divergence");
            }
            let clean_summary = &clean.report(&r.name).expect("same procs").summary;
            assert!(
                summary_weaker_or_equal(&d, clean_summary, &r.summary),
                "seed {seed}: `{}` under faults must be ⊒ its fault-free summary \
                 (clean `{clean_summary}`, faulty `{}`)",
                r.name,
                r.summary
            );
        }
        if a.quarantined_count() > 0 {
            assert!(
                a.degradation.degraded,
                "quarantine is reported as degradation"
            );
            assert!(
                a.degradation
                    .incidents_of(IncidentKind::Quarantine)
                    .next()
                    .is_some(),
                "quarantines leave incidents"
            );
        }
    }
    assert!(
        total_quarantined > 0,
        "the chaos rate must actually force quarantines"
    );
}

#[test]
fn retries_recover_transient_panics() {
    let m = batch(5);
    let cfg = ChaosConfig {
        panic_permille: 40,
        ..ChaosConfig::quiet()
    };
    let mut recovered = 0u64;
    let mut caught = 0u64;
    for seed in 0..8u64 {
        let a = chaos_driver(seed, cfg).threads(2).analyze(&m);
        caught += a.supervision.panics_caught;
        recovered += a.supervision.recovered;
        assert!(
            a.supervision.retries <= a.supervision.panics_caught,
            "every retry follows a caught panic"
        );
    }
    assert!(caught > 0, "panics must fire at this rate");
    assert!(
        recovered > 0,
        "the injector's PRNG advances past a caught panic, so some retries \
         must complete (caught {caught} panics, recovered {recovered})"
    );
}

#[test]
fn the_watchdog_breaks_stalls_into_degradation() {
    let m = batch(3);
    let cfg = ChaosConfig {
        stall_permille: 150,
        ..ChaosConfig::quiet()
    };
    // A stalling operation spins until its job slice is exhausted; only
    // the watchdog does that here, so this test completing at all proves
    // the deadline fired.
    let a = chaos_driver(1, cfg)
        .threads(2)
        .proc_deadline(Duration::from_millis(30))
        .analyze(&m);
    assert!(a.supervision.stalls > 0, "a stall must fire at this rate");
    assert!(
        a.degradation
            .incidents_of(IncidentKind::Stall)
            .next()
            .is_some(),
        "stalls leave incidents"
    );
    assert!(a.degradation.degraded && a.degradation.exhausted);
    // Sound degradation, not garbage: every summary is ⊒ its clean run.
    let clean = Driver::new(|_| product()).analyze(&m);
    let d = product();
    for r in &a {
        let clean_summary = &clean.report(&r.name).expect("same procs").summary;
        assert!(summary_weaker_or_equal(&d, clean_summary, &r.summary));
    }
}

#[test]
fn corrupted_cache_entries_are_rejected_and_recomputed() {
    let m = batch(3);
    let mut cache = SummaryCache::new();
    let first = Driver::new(|_| product()).analyze_with_cache(&m, &mut cache);
    assert_eq!(first.recomputed, m.procs.len());

    // Bit rot in a stored entry — the dangerous kind: the summary's exit
    // flips to ⊥, which blind reuse would propagate into dependents as
    // unsound dead-code verdicts.
    assert!(cache.corrupt_entry("mid1"), "entry exists to corrupt");

    let second = Driver::new(|_| product()).analyze_with_cache(&m, &mut cache);
    let stats = cache.stats();
    assert_eq!(stats.corruptions, 1, "the corrupted entry was rejected");
    assert_eq!(
        (second.reused, second.recomputed),
        (m.procs.len() - 1, 1),
        "exactly the rejected procedure recomputes"
    );
    assert_eq!(
        second.report("mid1").expect("mid1").summary,
        first.report("mid1").expect("mid1").summary,
        "recompute, not wrong reuse: the corrupted ⊥ summary never surfaces"
    );
    assert_eq!(
        second
            .degradation
            .incidents_of(IncidentKind::CacheCorruption)
            .count(),
        1,
        "the rejection is reported"
    );

    // The refreshed entry carries a valid checksum again.
    let third = Driver::new(|_| product()).analyze_with_cache(&m, &mut cache);
    assert_eq!((third.reused, third.recomputed), (m.procs.len(), 0));
    assert_eq!(cache.stats().corruptions, 1, "no further rejections");
}

/// A reused `Driver` reports each run's incidents once: the rejection of
/// a corrupted entry shows up in the run that rejected it and in no later
/// run, including a cold run on a fresh cache.
#[test]
fn a_reused_driver_reports_only_each_runs_own_incidents() {
    let m = batch(3);
    let driver = Driver::new(|_| product());
    let mut cache = SummaryCache::new();
    let corruptions = |a: &ModuleAnalysis| {
        a.degradation
            .incidents_of(IncidentKind::CacheCorruption)
            .count()
    };
    driver.analyze_with_cache(&m, &mut cache);
    assert!(cache.corrupt_entry("mid1"), "entry exists to corrupt");
    let rejecting = driver.analyze_with_cache(&m, &mut cache);
    assert_eq!(corruptions(&rejecting), 1, "the rejection is reported");
    let warm = driver.analyze_with_cache(&m, &mut cache);
    assert_eq!(
        corruptions(&warm),
        0,
        "a clean warm run reports no rejection"
    );
    let cold = driver.analyze(&m);
    assert_eq!(corruptions(&cold), 0, "a cold run reports no rejection");
    assert!(
        cold.degradation.incidents.is_empty(),
        "{:?}",
        cold.degradation
    );
}

#[test]
fn quarantined_results_are_never_persisted() {
    let m = batch(3);
    let cfg = ChaosConfig {
        panic_permille: 300,
        ..ChaosConfig::quiet()
    };
    // Find a seed that quarantines something (deterministic, so the
    // first hit is stable forever).
    for seed in 0..16u64 {
        let mut cache = SummaryCache::new();
        let faulty = chaos_driver(seed, cfg)
            .max_retries(0)
            .analyze_with_cache(&m, &mut cache);
        if faulty.quarantined_count() == 0 {
            continue;
        }
        assert_eq!(
            cache.len(),
            m.procs.len() - faulty.quarantined_count(),
            "⊤ pins must not be cached"
        );
        // A fault-free second run over the same cache recomputes exactly
        // the quarantined procedures and yields clean summaries. It keeps
        // the injector's domain type, with every fault off: the domain
        // type is part of the cache key.
        let recovered = chaos_driver(seed, ChaosConfig::quiet()).analyze_with_cache(&m, &mut cache);
        assert_eq!(recovered.recomputed, faulty.quarantined_count());
        assert_eq!(recovered.quarantined_count(), 0);
        let clean = Driver::new(|_| product()).analyze(&m);
        for r in &recovered {
            assert_eq!(
                r.summary,
                clean.report(&r.name).expect("same procs").summary,
                "`{}` fully recovers after the fault clears",
                r.name
            );
        }
        return;
    }
    panic!("no seed in 0..16 forced a quarantine at 300‰ — rate too low");
}

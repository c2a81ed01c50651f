//! Regenerates every figure and quantitative claim of *Combining Abstract
//! Interpreters* (Gulwani & Tiwari, PLDI 2006).
//!
//! ```sh
//! cargo run --release -p cai-bench --bin paper_eval            # everything
//! cargo run --release -p cai-bench --bin paper_eval -- fig1    # one item
//! ```
//!
//! Items: fig1 fig2 fig3 fig4 fig6 fig7 fig8 thm6 sec5 complexity compare
//!
//! `--deadline-ms N` runs the whole fig1 family under a wall-clock
//! [`Budget`] and prints the resulting `DegradationReport` — the
//! anytime-analysis preset.
//!
//! `--join-stats` re-analyzes the fig1 family with the logical product's
//! split cache on vs. off, checks the results are bit-identical, prints
//! both tick totals and the cache counters, and exits nonzero unless the
//! cache hit and saved ticks. Two further legs ride along: an
//! incremental-edit workload (a conjunction grows one atom per step) that
//! must score sub-structural *partial* hits and spend fewer saturation
//! rounds than the whole-conjunction memo alone, and a driver leg that
//! pins cached vs. uncached bit-identity at 1/2/4 threads over one shared
//! split cache.
//!
//! `--budget-policy` runs the canonical widening-loss loop under the
//! flat vs. the adaptive [`BudgetPolicy`]: the adaptive run's bounded
//! narrowing pass must recover the upper bound widening discarded
//! (strictly more verified assertions, narrowed exit ⊑ widened exit) —
//! including when the main fuel pool is starved — or the run exits
//! nonzero.
//!
//! `--blame` runs the canonical widening-loss loop under the precision
//! provenance layer: the flat-policy run's lost `x <= 100` bound must be
//! attributed (via the differential report) to the loop's widening site,
//! or the run exits nonzero.
//!
//! `--obs-report` dumps the global `cai-obs` counter registry after the
//! selected items have run. Purely additive: it changes no result.

use cai_bench::{args::write_trace_out, fig1_family, thm6_family, Args, ConjGen, FIG1, FIG4, FIG8};
use cai_core::reduce::{EncodeMode, UnaryEncoder};
use cai_core::{
    no_saturate, AbstractDomain, Budget, BudgetPolicy, LogicalProduct, Precision, ReducedProduct,
    SplitCache, DEFAULT_SPLIT_CACHE_CAPACITY, DEFAULT_TERM_MEMO_CAPACITY,
};
use cai_driver::{Driver, ModuleAnalysis};
use cai_interp::{herbrand_view, parse_module, parse_program, Analyzer, Program};
use cai_linarith::{AffineEq, Polyhedra};
use cai_numeric::{ParityDomain, SignDomain};
use cai_term::parse::Vocab;
use cai_term::{alien_terms, purify, Sig, TheoryTag, Var, VarSet};
use cai_uf::UfDomain;
use std::time::{Duration, Instant};

fn main() {
    let mut args = Args::parse();
    let trace_out = args.opt_str("--trace-out");
    if trace_out.is_some() {
        cai_obs::trace::set_enabled(true);
    }
    let obs_report = args.flag("--obs-report");
    let deadline_ms = args.opt_value::<u64>("--deadline-ms");
    let join = args.flag("--join-stats");
    let policy = args.flag("--budget-policy");
    let blame_flag = args.flag("--blame");
    let ran_mode = deadline_ms.is_some() || join || policy || blame_flag;
    if let Some(ms) = deadline_ms {
        deadline(ms);
    }
    if join {
        join_stats();
    }
    if policy {
        budget_policy();
    }
    if blame_flag {
        blame();
    }

    let items = args.rest();
    if !ran_mode || !items.is_empty() {
        let all = items.is_empty() || items.iter().any(|a| a == "all");
        let want = |name: &str| all || items.iter().any(|a| a == name);
        if want("fig1") {
            fig1();
        }
        if want("fig2") {
            fig2();
        }
        if want("fig3") {
            fig3();
        }
        if want("fig4") {
            fig4();
        }
        if want("fig6") {
            fig6();
        }
        if want("fig7") {
            fig7();
        }
        if want("fig8") {
            fig8();
        }
        if want("thm6") {
            thm6();
        }
        if want("sec5") {
            sec5();
        }
        if want("complexity") {
            complexity();
        }
        if want("compare") {
            compare();
        }
    }
    if obs_report {
        println!("\nobs report:");
        println!("{}", cai_obs::global().snapshot());
    }
    if let Some(path) = trace_out {
        write_trace_out(&path);
    }
}

/// Anytime preset: analyze the fig1 family under a wall-clock budget.
/// Every domain transformer sees the same deadline, so whichever loop is
/// mid-flight when it passes degrades (soundly, toward ⊤) instead of
/// running to convergence; the report says exactly where precision went.
fn deadline(ms: u64) {
    header(&format!(
        "--deadline-ms {ms} — anytime analysis under a wall-clock budget"
    ));
    let budget = Budget::deadline(Duration::from_millis(ms));
    let vocab = Vocab::standard();
    for k in 1..=8usize {
        let p = parse_program(&vocab, &fig1_family(k)).expect("family parses");
        let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
        let analysis = Analyzer::new(&d).with_budget(budget.clone()).run(&p);
        let ok = analysis.assertions.iter().filter(|a| a.verified).count();
        println!(
            "k={k}: {ok}/{} verified{}",
            analysis.assertions.len(),
            if analysis.diverged { " (diverged)" } else { "" }
        );
        if budget.is_exhausted() {
            println!("deadline passed during k={k}; stopping the sweep");
            break;
        }
    }
    // The budgeted saturation domains share the same wall clock.
    let d = LogicalProduct::new(
        ParityDomain::new().with_budget(budget.clone()),
        SignDomain::new().with_budget(budget.clone()),
    );
    let p = parse_program(&vocab, FIG8).expect("figure 8 parses");
    let analysis = Analyzer::new(&d).with_budget(budget.clone()).run(&p);
    println!(
        "fig8 under the same budget: {}/{} verified",
        analysis.assertions.iter().filter(|a| a.verified).count(),
        analysis.assertions.len()
    );

    let report = budget.report();
    println!("degradation report:");
    println!("  degraded : {}", report.degraded);
    println!("  exhausted: {}", report.exhausted);
    println!("  fuel     : {} ticks spent", report.fuel_spent);
    for ev in &report.events {
        println!("  event    : [{}] {}", ev.site, ev.detail);
    }
    if report.dropped_events > 0 {
        println!("  (+{} events dropped)", report.dropped_events);
    }
    if report.events.is_empty() {
        println!("  (no degradation events — the deadline was generous)");
    }
}

/// `--budget-policy`: the narrowing-recovery report. The canonical
/// widening-loss loop (`x` counts to 100; widening extrapolates the
/// upper bound away) is analyzed under the flat and the adaptive
/// policy; the adaptive run's bounded descending pass must recover
/// `x <= 100` without ever dipping below the widened invariant's
/// soundness bracket, with or without fuel pressure on the main pool.
fn budget_policy() {
    header("--budget-policy — post-widening narrowing recovery");
    let vocab = Vocab::standard();
    let p = parse_program(
        &vocab,
        "x := 0;
         while (x < 100) { x := x + 1; }
         assert(x >= 100);
         assert(0 <= x);
         assert(x <= 100);",
    )
    .expect("counter loop parses");
    let d = Polyhedra::new();

    let flat = Analyzer::new(&d).run(&p);
    let adaptive = Analyzer::new(&d)
        .with_policy(BudgetPolicy::adaptive())
        .run(&p);
    let show = |name: &str, a: &cai_interp::Analysis<_>| {
        println!(
            "{name:>9}: {}/{} verified   narrow rounds {}, loops recovered {}",
            a.verified_count(),
            a.assertions.len(),
            a.stats.narrow_rounds,
            a.stats.narrow_recoveries
        );
    };
    show("flat", &flat);
    show("adaptive", &adaptive);

    if !d.le(&adaptive.exit, &flat.exit) {
        eprintln!("--budget-policy: narrowed exit escaped the widened bracket (unsound)");
        std::process::exit(1);
    }
    if adaptive.verified_count() <= flat.verified_count() || adaptive.stats.narrow_recoveries == 0 {
        eprintln!("--budget-policy: the narrowing pass failed to recover precision");
        std::process::exit(1);
    }

    // Fuel pressure: the ascending fixpoint is cut short by exhaustion,
    // yet the recovery slice (independent fuel) still narrows.
    let starved = Analyzer::new(&d)
        .with_budget(Budget::fuel(40))
        .with_policy(BudgetPolicy::adaptive())
        .run(&p);
    show("starved", &starved);
    if !d.le(&starved.exit, &flat.exit) {
        eprintln!("--budget-policy: starved narrowing escaped the widened bracket (unsound)");
        std::process::exit(1);
    }
    if starved.verified_count() <= flat.verified_count() {
        eprintln!("--budget-policy: recovery must survive a starved main pool");
        std::process::exit(1);
    }
    println!("recovery OK: narrowed \u{2291} widened, strictly more assertions verified");
}

/// `--blame`: precision provenance on the canonical widening-loss loop.
/// The flat-policy run widens `x <= 100` away and never narrows; the
/// run's blame table records the loss and the differential report attributes
/// the flat-vs-adaptive assertion delta to the loop's widening site.
fn blame() {
    header("--blame — precision provenance on the canonical widening loss");
    let vocab = Vocab::standard();
    let m = parse_module(
        &vocab,
        "proc main(n) {
             x := 0;
             while (x < 100) { x := x + 1; }
             assert(x >= 100);
             assert(x <= 100);
             ret := x;
         }",
    )
    .expect("counter loop parses");
    let driver = || Driver::new(|_: &Budget| Polyhedra::new());

    let flat = driver().analyze(&m);
    let adaptive = driver().budget_policy(BudgetPolicy::adaptive()).analyze(&m);

    println!("flat-policy blame table:");
    print!("{}", flat.degradation.blame);
    let diff = cai_driver::differential("adaptive policy", &adaptive, "flat policy", &flat);
    print!("{diff}");
    if diff.is_empty() {
        eprintln!("--blame: expected the flat run to lose an assertion to the adaptive run");
        std::process::exit(1);
    }
    let cause = diff.regressions[0].causes.first();
    if cause.map(|c| c.site) != Some("analyzer/while") {
        eprintln!("--blame: expected the widening site to be blamed first, got {cause:?}");
        std::process::exit(1);
    }
    println!("blame OK: the lost bound is attributed to the loop's widening site");
}

/// `--join-stats`: the split cache + batched elimination report. Each
/// fig1-family program is analyzed twice per product (the second pass is
/// the warmed re-analysis the interprocedural driver performs), cache on
/// vs. off. The cache must be semantically invisible — identical verdicts
/// and exit states — while measurably cutting budget ticks.
fn join_stats() {
    header("--join-stats — split-cache effect on the fig1 family");
    let vocab = Vocab::standard();
    let mut failed = false;
    let mut total_hits = 0u64;
    let mut total_cached_ticks = 0u64;
    let mut total_uncached_ticks = 0u64;
    println!(
        "{:<4} {:>12} {:>12} {:>8} {:>8} {:>10}",
        "k", "ticks (on)", "ticks (off)", "hits", "misses", "identical?"
    );
    for k in 1..=3usize {
        let p = parse_program(&vocab, &fig1_family(k)).expect("family parses");
        let run = |d: LogicalProduct<AffineEq, UfDomain>| {
            let analyzer = Analyzer::new(&d);
            let first = analyzer.run(&p);
            let second = analyzer.run(&p);
            let flags: Vec<bool> = second.assertions.iter().map(|a| a.verified).collect();
            let same_rounds = first.exit == second.exit;
            (
                flags,
                second.exit,
                d.budget().spent(),
                d.stats().snapshot(),
                same_rounds,
            )
        };
        let product = || LogicalProduct::new(AffineEq::new(), UfDomain::new());
        let (va, ea, ticks_on, stats, stable) = run(product());
        let (vb, eb, ticks_off, _, _) =
            run(product().with_split_cache(SplitCache::with_capacity(0, 0)));
        let identical = va == vb && ea == eb && stable;
        failed |= !identical;
        total_hits += stats.cache_hits;
        total_cached_ticks += ticks_on;
        total_uncached_ticks += ticks_off;
        println!(
            "{:<4} {:>12} {:>12} {:>8} {:>8} {:>10}",
            k,
            ticks_on,
            ticks_off,
            stats.cache_hits,
            stats.cache_misses,
            if identical { "yes" } else { "NO" }
        );
        println!("     {stats}");
    }
    println!(
        "totals: {total_cached_ticks} ticks with cache, {total_uncached_ticks} without, \
         {total_hits} hits"
    );
    if failed {
        eprintln!("--join-stats: the cache changed an analysis result");
        std::process::exit(1);
    }
    if total_hits == 0 {
        eprintln!("--join-stats: the warmed re-analysis never hit the cache");
        std::process::exit(1);
    }
    if total_cached_ticks >= total_uncached_ticks {
        eprintln!(
            "--join-stats: no tick reduction \
             ({total_cached_ticks} cached vs {total_uncached_ticks} uncached)"
        );
        std::process::exit(1);
    }
    incremental_edit(&vocab);
    driver_identity(&vocab);
}

/// The incremental-edit leg: a conjunction grows one atom per step — the
/// shape re-analysis of an edited procedure produces. The sub-structural
/// memo must answer the grown conjunctions by resuming from the cached
/// subset (partial hits > 0) and run strictly fewer NO-saturation rounds
/// than the whole-conjunction memo alone, while results stay bit-identical
/// across uncached / whole-only / sub-structural configurations.
fn incremental_edit(vocab: &Vocab) {
    println!("\nincremental-edit workload (one new conjunct per step):");
    // Two interleaved mixed-theory chains from a shared root. Deriving
    // `b_i = c_i` takes one NO-saturation round per theory alternation, so
    // a from-scratch split of the grown conjunction costs rounds
    // proportional to its depth — exactly what resuming from the cached
    // one-atom-smaller base avoids.
    let atoms: Vec<String> = {
        let mut v = vec!["b0 = 0".to_string(), "c0 = 0".to_string()];
        for i in 1..=3usize {
            v.push(format!("a{i} = F(b{})", i - 1));
            v.push(format!("d{i} = F(c{})", i - 1));
            v.push(format!("b{i} = a{i} + 1"));
            v.push(format!("c{i} = d{i} + 1"));
        }
        v
    };
    let grown = |k: usize| {
        vocab
            .parse_conj(&atoms[..k].join(" & "))
            .expect("grown conjunction parses")
    };
    let other = vocab
        .parse_conj("w = F(b0 + 5)")
        .expect("other side parses");
    let run = |whole: usize, term: usize| {
        let d = LogicalProduct::new(AffineEq::new(), UfDomain::new())
            .with_split_cache(SplitCache::with_capacity(whole, term));
        let results: Vec<String> = (2..=atoms.len())
            .map(|k| d.join(&grown(k), &other).to_string())
            .collect();
        (results, d.budget().spent(), d.stats().snapshot())
    };
    let (r_off, t_off, _) = run(0, 0);
    let (r_whole, t_whole, s_whole) = run(DEFAULT_SPLIT_CACHE_CAPACITY, 0);
    let (r_sub, t_sub, s_sub) = run(DEFAULT_SPLIT_CACHE_CAPACITY, DEFAULT_TERM_MEMO_CAPACITY);
    println!("  ticks: uncached {t_off}, whole-conjunction {t_whole}, sub-structural {t_sub}");
    println!(
        "  whole-conjunction: saturation rounds={} {s_whole}",
        s_whole.saturation_rounds
    );
    println!(
        "  sub-structural   : saturation rounds={} partial-hit rate={:.1}% {s_sub}",
        s_sub.saturation_rounds,
        100.0 * s_sub.cache_partial_hit_rate()
    );
    if r_off != r_whole || r_off != r_sub {
        eprintln!("--join-stats: incremental-edit results differ across cache configs");
        std::process::exit(1);
    }
    if s_sub.cache_partial_hits == 0 {
        eprintln!("--join-stats: the sub-structural memo never scored a partial hit");
        std::process::exit(1);
    }
    if s_sub.saturation_rounds >= s_whole.saturation_rounds {
        eprintln!(
            "--join-stats: sub-structural memo saved no saturation rounds ({} vs {})",
            s_sub.saturation_rounds, s_whole.saturation_rounds
        );
        std::process::exit(1);
    }
}

/// The driver leg: one shared split cache (clones share) serves 1-, 2- and
/// 4-thread batch runs; every cached run must be bit-identical to the
/// others and to the fully uncached baseline.
fn driver_identity(vocab: &Vocab) {
    println!("\ndriver leg (cached vs uncached, shared split cache, 1/2/4 threads):");
    let mut src = String::new();
    for i in 0..6 {
        let _ = std::fmt::Write::write_fmt(
            &mut src,
            format_args!(
                "proc p{i}(a) {{
                     x := a + {i};
                     y := F(x);
                     while (*) {{ x := x + 1; y := F(x); }}
                     assert(y = F(x));
                     ret := x;
                 }}\n"
            ),
        );
    }
    let m = parse_module(vocab, &src).expect("driver-leg module parses");
    let run_fp = |a: &ModuleAnalysis| -> String {
        let mut s = String::new();
        for r in a {
            let verdicts: Vec<bool> = r.assertions.iter().map(|o| o.verified).collect();
            let _ = std::fmt::Write::write_fmt(
                &mut s,
                format_args!("{} | {} | {verdicts:?}\n", r.name, r.summary),
            );
        }
        s
    };
    let baseline = run_fp(
        &Driver::new(|_: &Budget| {
            LogicalProduct::new(AffineEq::new(), UfDomain::new())
                .with_split_cache(SplitCache::with_capacity(0, 0))
        })
        .threads(1)
        .analyze(&m),
    );
    let shared = SplitCache::new();
    for threads in [1usize, 2, 4] {
        let cache = shared.clone();
        let a = Driver::new(move |_: &Budget| {
            LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_split_cache(cache.clone())
        })
        .threads(threads)
        .analyze(&m);
        let identical = run_fp(&a) == baseline;
        println!(
            "  {threads} thread(s): {}",
            if identical {
                "identical to uncached baseline"
            } else {
                "MISMATCH"
            }
        );
        if !identical {
            eprintln!("--join-stats: cached driver run diverged from the uncached baseline");
            std::process::exit(1);
        }
    }
    println!("  shared-cache stats: {}", shared.stats());
}

fn header(title: &str) {
    println!("\n{}\n{}", title, "=".repeat(title.len()));
}

fn verdicts<D: AbstractDomain>(d: &D, p: &Program, herbrand: bool) -> Vec<bool> {
    let analyzer = if herbrand {
        Analyzer::new(d).with_view(herbrand_view)
    } else {
        Analyzer::new(d)
    };
    analyzer
        .run(p)
        .assertions
        .iter()
        .map(|a| a.verified)
        .collect()
}

fn show(verdicts: &[bool]) -> String {
    let marks: Vec<&str> = verdicts
        .iter()
        .map(|v| if *v { "yes" } else { "-" })
        .collect();
    format!(
        "{:<28} ({} verified)",
        marks.join("  "),
        verdicts.iter().filter(|v| **v).count()
    )
}

fn fig1() {
    header("Figure 1 — precision of direct vs. reduced vs. logical product");
    println!("paper claim: 1 / 1 / 2 / 3 / 4 assertions verified");
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, FIG1).expect("figure 1 parses");
    let lin = verdicts(&AffineEq::new(), &p, false);
    println!("linear equalities alone : {}", show(&lin));
    let uf = verdicts(&UfDomain::new(), &p, true);
    println!("uninterpreted fns alone : {}", show(&uf));
    let direct: Vec<bool> = lin.iter().zip(&uf).map(|(a, b)| *a || *b).collect();
    println!("direct product          : {}", show(&direct));
    let reduced = ReducedProduct::new(AffineEq::new(), UfDomain::new());
    println!(
        "reduced product         : {}",
        show(&verdicts(&reduced, &p, false))
    );
    let logical = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    println!(
        "logical product         : {}",
        show(&verdicts(&logical, &p, false))
    );
}

fn fig2() {
    header("Figure 2 — Purify and NOSaturation");
    let vocab = Vocab::standard();
    let e = vocab
        .parse_conj("x3 <= F(2*x2 - x1) & x3 >= x1 & x1 = F(x1) & x2 = F(F(x1))")
        .expect("figure 2 parses");
    println!("E  = {e}");
    let lin = Sig::single(TheoryTag::LINARITH);
    let uf = Sig::single(TheoryTag::UF);
    let aliens = alien_terms(&e, &lin, &uf);
    let shown: Vec<String> = aliens.iter().map(|t| t.to_string()).collect();
    println!("AlienTerms(E) = {{{}}}", shown.join(", "));
    let p = purify(&e, &lin, &uf);
    println!("V  = {:?}", p.fresh);
    println!("E1 = {}", p.left);
    println!("E2 = {}", p.right);
    let d1 = Polyhedra::new();
    let d2 = UfDomain::new();
    let s = no_saturate(&d1, d1.from_conj(&p.left), &d2, d2.from_conj(&p.right));
    println!("NOSaturation shares: {:?}", s.equalities);
    println!("E1' = {}", s.left);
    println!("E2' = {}", s.right);
}

fn fig3() {
    header("Figure 3 — the union theory is not a lattice; J in L1 ⋈ L2");
    println!("paper claim: J(x=a ∧ y=b, x=b ∧ y=a) = (x + y = a + b)");
    let vocab = Vocab::standard();
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    let e1 = vocab.parse_conj("x = a & y = b").expect("parses");
    let e2 = vocab.parse_conj("x = b & y = a").expect("parses");
    let j = d.join(&e1, &e2);
    println!("computed: J = {j}");
}

fn fig4() {
    header("Figure 4 — strict logical product vs. logical product");
    println!("paper claim: assertion 1 verified, assertion 2 not");
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, FIG4).expect("figure 4 parses");
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    let got = verdicts(&d, &p, false);
    println!("computed: {}", show(&got));
}

fn fig6() {
    header("Figure 6 — the combined join algorithm, worked example");
    println!("paper claim: J(u=F(w) ∧ w=v+1, u=F(u) ∧ v=F(u)−1) = (u = F(v+1))");
    let vocab = Vocab::standard();
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    let el = vocab.parse_conj("u = F(w) & w = v + 1").expect("parses");
    let er = vocab.parse_conj("u = F(u) & v = F(u) - 1").expect("parses");
    let j = d.join(&el, &er);
    println!("computed: J = {j}");
}

fn fig7() {
    header("Figure 7 — the combined quantification algorithm, worked example");
    println!("paper claim: Q(x≤y ∧ y≤u ∧ x=F(F(1+y)) ∧ v=F(y+1), {{x,y}}) = (F(v) ≤ u)");
    let vocab = Vocab::standard();
    let d = LogicalProduct::new(Polyhedra::new(), UfDomain::new());
    let e = vocab
        .parse_conj("x <= y & y <= u & x = F(F(1 + y)) & v = F(y + 1)")
        .expect("parses");
    let elim: VarSet = [Var::named("x"), Var::named("y")].into_iter().collect();
    let q = d.exists(&e, &elim);
    println!("computed: Q = {q}");
}

fn fig8() {
    header("Figure 8 — non-disjoint theories: sound but incomplete");
    println!("paper claim: combination yields odd(x), most precise is odd(x) ∧ positive(x)");
    let vocab = Vocab::standard();
    let d = LogicalProduct::new(ParityDomain::new(), SignDomain::new());
    assert_eq!(d.precision(), Precision::HeuristicNonDisjoint);
    println!("precision classification: {:?}", d.precision());
    let p = parse_program(&vocab, FIG8).expect("figure 8 parses");
    let got = verdicts(&d, &p, false);
    println!(
        "computed: odd(x) {} / positive(x) {}",
        if got[0] { "verified" } else { "MISSED" },
        if got[1] {
            "UNEXPECTEDLY VERIFIED"
        } else {
            "not verified (as predicted)"
        }
    );
}

fn thm6() {
    header("Theorem 6 — fixpoint iterations over the combined lattice");
    println!("paper claim: H_combined ≤ H_L1 + H_L2 + |AlienTerms|");
    println!(
        "{:<4} {:>8} {:>6} {:>10} {:>8} {:>18}",
        "k", "affine", "uf", "combined", "aliens", "bound respected?"
    );
    let vocab = Vocab::standard();
    for k in 1..=4 {
        let p = parse_program(&vocab, &thm6_family(k)).expect("family parses");
        let lin: usize = Analyzer::new(&AffineEq::new())
            .run(&p)
            .loop_iterations
            .iter()
            .sum();
        let uf: usize = Analyzer::new(&UfDomain::new())
            .with_view(herbrand_view)
            .run(&p)
            .loop_iterations
            .iter()
            .sum();
        let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
        let analysis = Analyzer::new(&d).run(&p);
        let combined: usize = analysis.loop_iterations.iter().sum();
        let aliens = alien_terms(
            &analysis.exit,
            &Sig::single(TheoryTag::LINARITH),
            &Sig::single(TheoryTag::UF),
        )
        .len();
        println!(
            "{:<4} {:>8} {:>6} {:>10} {:>8} {:>18}",
            k,
            lin,
            uf,
            combined,
            aliens,
            if combined <= lin + uf + aliens + 1 {
                "yes"
            } else {
                "NO"
            }
        );
    }
}

fn sec5() {
    header("Section 5 — reductions to unary-UF ⋈ linear arithmetic");
    let vocab = Vocab::standard();
    let mut enc = UnaryEncoder::new(EncodeMode::Commutative);
    for src in ["Gc(a, b)", "Gc(b, a)", "Gc(Gc(a, b), c)"] {
        let t = vocab.parse_term(src).expect("parses");
        println!("M({src}) = {}", enc.encode_term(&t));
    }
    let mut enc2 = UnaryEncoder::new(EncodeMode::MultiArity);
    for src in ["H(a, b, c)", "H(c, b, a)"] {
        let t = vocab.parse_term(src).expect("parses");
        println!("M({src}) = {}", enc2.encode_term(&t));
    }
    // Program-level check: commutativity proved through the reduction.
    let p = parse_program(&vocab, "x := Gc(p, q); y := Gc(q, p); assert(x = y);").expect("parses");
    let mut enc3 = UnaryEncoder::new(EncodeMode::Commutative);
    let encoded = p.map_terms(&mut |t| enc3.encode_term(t));
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    let got = verdicts(&d, &encoded, false);
    println!(
        "commutativity assertion through the reduction: {}",
        show(&got)
    );
}

fn complexity() {
    header("§4.4 — measured cost of combined operators (µs, medians of 3)");
    println!(
        "{:<6} {:>12} {:>12} {:>14} {:>12} {:>14}",
        "n", "J_affine", "J_uf", "J_logical", "Q_affine", "Q_logical"
    );
    for &n in &[2usize, 3, 4, 6] {
        let mut gen = ConjGen::new(5000 + n as u64, n);
        let lin = AffineEq::new();
        let uf = UfDomain::new();
        let logical = LogicalProduct::new(AffineEq::new(), UfDomain::new());
        let (la, lb) = gen.join_pair(n, 2, false);
        let (ea, eb) = (lin.from_conj(&la), lin.from_conj(&lb));
        let (ma, mb) = gen.join_pair(n, 2, true);
        let sig = Sig::single(TheoryTag::UF);
        let ua = uf.from_conj(&ma.iter().filter(|a| sig.owns_atom(a)).cloned().collect());
        let ub = uf.from_conj(&mb.iter().filter(|a| sig.owns_atom(a)).cloned().collect());
        let elim: VarSet = (0..n / 2).map(|i| Var::named(&format!("w{i}"))).collect();

        let t_jl = median_us(|| {
            lin.join(&ea, &eb);
        });
        let t_ju = median_us(|| {
            uf.join(&ua, &ub);
        });
        let t_jc = median_us(|| {
            logical.join(&ma, &mb);
        });
        let t_ql = median_us(|| {
            lin.exists(&ea, &elim);
        });
        let t_qc = median_us(|| {
            logical.exists(&ma, &elim);
        });
        println!(
            "{:<6} {:>12.1} {:>12.1} {:>14.1} {:>12.1} {:>14.1}",
            n, t_jl, t_ju, t_jc, t_ql, t_qc
        );
    }
    println!("(end-to-end benchmark: see perfbench/README.md)");
}

fn median_us(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[1]
}

fn compare() {
    header("§7 — cost & precision: direct vs. reduced vs. logical (fig1 family)");
    println!(
        "{:<4} {:>10} {:>12} {:>12} | {:>8} {:>8} {:>8}",
        "k", "direct ms", "reduced ms", "logical ms", "dir ok", "red ok", "log ok"
    );
    let vocab = Vocab::standard();
    for k in 1..=3usize {
        let p = parse_program(&vocab, &fig1_family(k)).expect("family parses");
        let t0 = Instant::now();
        let lin = verdicts(&AffineEq::new(), &p, false);
        let uf = verdicts(&UfDomain::new(), &p, true);
        let direct_ok = lin.iter().zip(&uf).filter(|(a, b)| **a || **b).count();
        let t_direct = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let reduced = ReducedProduct::new(AffineEq::new(), UfDomain::new());
        let red = verdicts(&reduced, &p, false);
        let t_reduced = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let logical = LogicalProduct::new(AffineEq::new(), UfDomain::new());
        let log = verdicts(&logical, &p, false);
        let t_logical = t0.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:<4} {:>10.1} {:>12.1} {:>12.1} | {:>8} {:>8} {:>8}",
            k,
            t_direct,
            t_reduced,
            t_logical,
            direct_ok,
            red.iter().filter(|v| **v).count(),
            log.iter().filter(|v| **v).count(),
        );
    }
}

//! Metrics from a finished run: the human-readable table and the final
//! JSON line.

use crate::timed::{Cell4, Layer, Op, Table};
use crate::workload::{Opts, Run, Sample, DET_KEYS, RSS_UNITS};
use std::fmt::Write as _;

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
}

fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let walls: Vec<f64> = run.plain.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    let n = walls.len();
    let busy_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let sum = |key: &str| run.plain.iter().map(|s| s.counts[key]).sum::<u64>() as f64;
    let (procs, verified) = (sum("driver.recomputed"), sum("verified"));
    let m = |name: &str, value, unit, n| Metric {
        name: name.to_string(),
        value,
        unit,
        n,
    };
    vec![
        m(
            "setup_s",
            quantile(&run.setup_s, 0.5),
            "s",
            run.setup_s.len(),
        ),
        m("analysis_ms_p50", quantile(&walls, 0.5), "ms", n),
        m("analysis_ms_p90", quantile(&walls, 0.9), "ms", n),
        m("procs_per_s", ratio(procs, busy_s), "1/s", n),
        m("verified", ratio(verified, n as f64), "count", n),
        m("peak_rss_mb", run.peak_rss_mb, "MiB", n.min(RSS_UNITS)),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let t = &run.traced;
    let n = t.len();
    let per = |x: f64| ratio(x, n as f64);
    let table = t
        .iter()
        .fold(Table::default(), |acc, s| acc.plus(&s.layers));
    let total = |key: &str| t.iter().map(|s| s.counts[key]).sum::<u64>() as f64;
    let count = |key: &str| per(total(key));
    let ms = |ns: u64| per(ns as f64 / 1e6);
    let mb = |bytes: u64| per(bytes as f64 / (1024.0 * 1024.0));
    let wall: u64 = t.iter().map(|s| s.wall_ns).sum();
    let unit_allocs: u64 = t.iter().map(|s| s.allocs.allocs).sum();
    let unit_bytes: u64 = t.iter().map(|s| s.allocs.bytes).sum();
    let in_layers = [Layer::Core, Layer::Linarith, Layer::Uf]
        .into_iter()
        .fold(Cell4::default(), |a, l| a.plus(table.layer(l)));

    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        })
    };
    for (layer, prefix) in [
        (Layer::Linarith, "linarith"),
        (Layer::Uf, "uf"),
        (Layer::Core, "core"),
    ] {
        let all = table.layer(layer);
        let op = |o: Op| table.op(layer, o);
        push(&format!("{prefix}.calls"), per(all.calls as f64), "count");
        push(&format!("{prefix}.busy_ms"), ms(all.ns), "ms");
        push(&format!("{prefix}.allocs"), per(all.allocs as f64), "count");
        push(&format!("{prefix}.alloc_mb"), mb(all.bytes), "MiB");
        push(
            &format!("{prefix}.join_ms"),
            ms(op(Op::Join).ns + op(Op::Widen).ns),
            "ms",
        );
        match layer {
            Layer::Linarith => {
                push("linarith.meet_ms", ms(op(Op::Meet).ns), "ms");
                push("linarith.exists_ms", ms(op(Op::Exists).ns), "ms");
                push("linarith.var_eq_ms", ms(op(Op::VarEq).ns), "ms");
                push("linarith.alternates_ms", ms(op(Op::Alternates).ns), "ms");
                push("linarith.to_conj_ms", ms(op(Op::ToConj).ns), "ms");
            }
            Layer::Uf => {
                push("uf.meet_ms", ms(op(Op::Meet).ns), "ms");
                push("uf.alternates_ms", ms(op(Op::Alternates).ns), "ms");
                push("uf.egraph_merges", count("uf.egraph_merges"), "count");
                push(
                    "uf.congruence_merges",
                    count("uf.congruence_merges"),
                    "count",
                );
            }
            Layer::Core => {
                push("core.exists_ms", ms(op(Op::Exists).ns), "ms");
                for key in [
                    "core.saturation_rounds",
                    "core.qsat_rounds",
                    "core.pairs_generated",
                    "core.pairs_pruned",
                    "core.defs_found",
                ] {
                    push(key, count(key), "count");
                }
                let hits = total("core.split_hits") + total("core.split_partial_hits");
                let lookups = hits + total("core.split_misses");
                push("core.split_lookups", per(lookups), "count");
                push("core.split_hit_ratio", ratio(hits, lookups), "ratio");
                push(
                    "core.split_evictions",
                    count("core.split_evictions"),
                    "count",
                );
                push("core.fuel", count("core.fuel"), "count");
            }
        }
    }
    push("term.memo_hits", count("term.memo_hits"), "count");
    push("term.memo_misses", count("term.memo_misses"), "count");
    push(
        "interp.fixpoint_iterations",
        count("interp.fixpoint_iterations"),
        "count",
    );
    push("interp.widenings", count("interp.widenings"), "count");
    push(
        "interp.transfer_fuel",
        count("interp.transfer_fuel"),
        "count",
    );
    push("driver.busy_ms", ms(wall - in_layers.ns), "ms");
    push(
        "driver.allocs",
        per((unit_allocs - in_layers.allocs) as f64),
        "count",
    );
    push("driver.alloc_mb", mb(unit_bytes - in_layers.bytes), "MiB");
    push("driver.recomputed", count("driver.recomputed"), "count");
    let (reused, recomputed) = (total("driver.reused"), total("driver.recomputed"));
    push(
        "driver.reuse_ratio",
        ratio(reused, reused + recomputed),
        "ratio",
    );
    push(
        "driver.contexts_created",
        count("driver.contexts_created"),
        "count",
    );
    let (hits, created) = (
        total("driver.ctx_memo_hits"),
        total("driver.contexts_created"),
    );
    push(
        "driver.ctx_memo_hit_ratio",
        ratio(hits, hits + created),
        "ratio",
    );
    for key in [
        "driver.cap_widenings",
        "driver.jacobi_rounds",
        "driver.degradations",
        "driver.retries",
        "driver.quarantined",
    ] {
        push(key, count(key), "count");
    }
    let median = |xs: &[Sample]| {
        quantile(
            &xs.iter().map(|s| s.wall_ns as f64).collect::<Vec<_>>(),
            0.5,
        )
    };
    let overhead = 100.0 * (ratio(median(&run.traced), median(&run.plain)) - 1.0);
    push("bench.trace_overhead_pct", overhead, "%");
    out
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the report; returns whether every check passed.
pub fn print(opts: &Opts, run: &Run) -> bool {
    let wl = format!("{:?}", opts.workload).to_lowercase();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {wl} seed={} trace={} procs={} assertions={} valid={} units={}",
        opts.seed,
        u8::from(opts.trace),
        run.procs,
        run.assertions,
        run.valid,
        run.plain.len()
    );
    let e2e = end_to_end(run);
    for m in &e2e {
        let _ = writeln!(
            out,
            "  {:<18} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    let _ = writeln!(
        out,
        "  {:<18} {:>14.4} {:<6} failed={} attempted={}",
        "failed_share",
        ratio(run.failed as f64, run.attempted as f64),
        "ratio",
        run.failed,
        run.attempted
    );
    let det: Vec<String> = DET_KEYS
        .iter()
        .map(|&k| format!("{k}={}", run.reference.as_ref().map_or(0, |r| r.counts[k])))
        .collect();
    let _ = writeln!(out, "  deterministic counts: {}", det.join(" "));
    if opts.workload == crate::workload::Workload::Edit {
        let _ = writeln!(out, "  warm = cold checks: {}", run.cold_checks);
    }
    let layers = if opts.trace {
        per_layer(run)
    } else {
        Vec::new()
    };
    if opts.trace {
        let _ = writeln!(out, "  transparency checks: {}", run.transparency_checks);
        for m in &layers {
            let _ = writeln!(
                out,
                "  {:<30} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        let busy: f64 = layers
            .iter()
            .filter(|m| m.name.ends_with(".busy_ms"))
            .map(|m| m.value)
            .sum();
        let wall = ratio(
            run.traced.iter().map(|s| s.wall_ns as f64 / 1e6).sum(),
            run.traced.len() as f64,
        );
        let _ = writeln!(
            out,
            "  layer self times sum to {busy:.3} ms of a {wall:.3} ms traced unit"
        );
    }
    for f in &run.failures {
        let _ = writeln!(out, "  FAILED {f}");
    }
    let ok = run.failed == 0 && run.failures.is_empty();
    let metrics = if opts.trace { &layers } else { &e2e };
    let _ = writeln!(
        out,
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        json_metrics(metrics)
    );
    print!("{out}");
    ok
}

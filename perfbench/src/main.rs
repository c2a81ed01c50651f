//! The repository's benchmark: seeded module workloads through the
//! public `cai_driver::Driver` under `LogicalProduct<AffineEq, UfDomain>`
//! with default configuration and one worker thread.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload` is `batch`, `calls` or `edit` (see `README.md` beside
//! this crate). `--trace 0` reports the end-to-end metrics; `--trace 1`
//! interleaves plain and traced analyses of the same inputs and reports
//! per-layer self time, allocations and counts. `--probe` runs only the
//! first analysis and prints its counts; a run starts itself that way to
//! compare counts across processes. Human-readable lines come
//! first; the last line of standard output is one JSON object. Every
//! verdict is checked against the generator's known answer; a failed
//! check makes the run exit with code 1 after printing its result.

mod alloc;
mod engine;
mod gen;
mod report;
mod timed;
mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <batch|calls|edit> --seed <n> --seconds <s> --trace <0|1> [--probe]";

fn parse_args() -> Result<workload::Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut wl, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut probe = false;
    while let Some(flag) = args.next() {
        if flag == "--probe" {
            probe = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => wl = Some(value.parse::<workload::Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(workload::Opts {
        workload: wl.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        probe,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.probe {
        let (u, g) = workload::first_analysis(&opts);
        println!("{}", workload::fingerprint(&u));
        return if u.verdicts == g.expected && !u.unhealthy {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    let run = workload::run(&opts);
    let ok = report::print(&opts, &run);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! Observability for the analysis stack.
//!
//! `cai-obs` is the one place wall-clock time and diagnostic output are
//! allowed to live (`ci.sh` greps for strays elsewhere). It is
//! dependency-free and offline-friendly, and it is built around a hard
//! determinism contract:
//!
//! > **Observability never influences analysis results.** Counters and spans
//! > are write-only from the analysis's point of view; timestamps are taken
//! > for export only and are never read back into any decision. Runs with the
//! > tracer off, on, or on with a different thread count produce bit-identical
//! > summaries (pinned by `tests/obs.rs` at the workspace root).
//!
//! Four pieces:
//!
//! * [`metrics`] — a process-wide registry of named counters and
//!   histograms with cheap `Arc`-shared handles and subtractable
//!   [`Snapshot`]s. Hot paths cache a handle in a `OnceLock` via the
//!   [`counter!`] macro, so a bump is one atomic add.
//! * [`family`] — [`CounterFamily`], a fixed-name block of atomic counters.
//!   This is the shared primitive under `JoinStats` / `CtxStats` / `SupStats`,
//!   which used to be three copy-pasted `bump`/`snapshot`/`absorb` structs.
//! * [`trace`] — a span tracer ([`span!`] / [`spanned!`] / [`instant!`])
//!   writing to per-thread ring buffers (no global mutex on the hot path) and
//!   exporting Chrome `trace_event` JSON for `chrome://tracing` / Perfetto.
//!   When disabled, a span is a single relaxed atomic load.
//! * [`provenance`] — the precision blame rows: every precision-losing
//!   operation (widening, budget degradation, context-cap overflow,
//!   quarantine, defective Alternate) records a loss event under its
//!   procedure/loop scope into the run's budget log, aggregated into a
//!   ranked, deterministic [`BlameTable`] with JSON export. It holds no
//!   process-global state: the table is part of the run's report.
//!
//! [`clock::now`] wraps `Instant::now` so governed components (budget
//! deadlines, the supervisor watchdog) read the clock through one audited
//! door.

pub mod clock;
pub mod family;
pub mod metrics;
pub mod provenance;
pub mod trace;

pub use family::{write_kv, CounterFamily, FamilySnapshot};
pub use metrics::{
    escape_metric_name, global, Counter, Histogram, HistogramSummary, Metrics, Snapshot, Value,
};
pub use provenance::{BlameEntry, BlameTable, LossKind};
pub use trace::{EventKind, SpanGuard, Trace, TraceEvent};

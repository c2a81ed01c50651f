//! Named metrics: counters, histograms, and subtractable snapshots.
//!
//! The process-wide registry ([`global`]) is the home for layer-wide
//! instrumentation (e-graph merges, fixpoint iterations, cache traffic, fuel
//! attribution). Handles are `Arc`-shared and cheap to clone; hot paths cache
//! one in a `OnceLock` via [`counter!`](crate::counter) so a bump costs a
//! single relaxed atomic add. Registration takes a mutex, bumping never does.
//!
//! [`Snapshot`]s are point-in-time, sorted, subtractable and renderable as a
//! stable text table or JSON — the substrate for `--obs-report`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not registered anywhere).
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Bucket count for the log₂ histogram: bucket 0 holds the value 0,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`.
const HIST_BUCKETS: usize = 65;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Upper bound of bucket `i` — the representative value percentile
/// estimation reports for observations that landed in it.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistInner {
    fn default() -> HistInner {
        HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A histogram summarised as count / sum / min / max.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    /// A detached histogram (not registered anywhere).
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.min.fetch_min(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time summary. Percentiles come from the log₂ buckets:
    /// each reports the upper bound of the bucket holding its rank,
    /// clamped into `[min, max]`, so the estimate is within 2× of the
    /// true quantile and exact for single-valued buckets.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let count = self.inner.count.load(Ordering::Relaxed);
        let min = if count == 0 {
            0
        } else {
            self.inner.min.load(Ordering::Relaxed)
        };
        let max = self.inner.max.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = buckets.iter().sum();
        let percentile = |q: u64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the q-th percentile, 1-based: ceil(q% of total).
            let rank = (total * q).div_ceil(100).max(1);
            let mut seen = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_upper(i).clamp(min, max);
                }
            }
            max
        };
        HistogramSummary {
            count,
            sum: self.inner.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: percentile(50),
            p95: percentile(95),
            p99: percentile(99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Estimated 50th-percentile value (log₂-bucket upper bound).
    pub p50: u64,
    /// Estimated 95th-percentile value (log₂-bucket upper bound).
    pub p95: u64,
    /// Estimated 99th-percentile value (log₂-bucket upper bound).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} sum={} min={} max={} mean={} p50={} p95={} p99={}",
            self.count,
            self.sum,
            self.min,
            self.max,
            self.mean(),
            self.p50,
            self.p95,
            self.p99
        )
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

/// A registry of named metrics.
///
/// Lookup-or-create takes a mutex; the returned handles are lock-free. A name
/// registered under one kind and requested as another yields a detached
/// handle (counting must never panic), so the registry stays kind-stable.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Metrics {
    /// An empty registry (tests use private registries; production code uses
    /// [`global`]).
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.map();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Get or create the histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.map();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::new(),
        }
    }

    /// Point-in-time values of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.map();
        let entries = map
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => Value::Counter(c.get()),
                    Metric::Histogram(h) => Value::Histogram(h.summary()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(Metrics::new)
}

/// Cache a handle to a counter in the [`global`] registry.
///
/// ```
/// cai_obs::counter!("uf/egraph/merges").incr();
/// ```
///
/// The registry lookup happens once per call site; subsequent bumps are a
/// single relaxed atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Cache a handle to a histogram in the [`global`] registry (see
/// [`counter!`](crate::counter)).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::Histogram> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// One metric's value inside a [`Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// Counter value.
    Counter(u64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// A point-in-time, name-sorted copy of a registry.
///
/// Snapshots subtract (`after.diff(&before)` or `&after - &before`) to scope
/// measurements to a region, and render as a stable sorted text table
/// (`Display`) or JSON ([`Snapshot::to_json`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: BTreeMap<String, Value>,
}

impl Snapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Value by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Value> {
        self.entries.get(name).copied()
    }

    /// Counter value by name (0 when absent or not a counter).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> + '_ {
        self.entries.iter().map(|(name, v)| (name.as_str(), *v))
    }

    /// Insert (or add to) a counter entry — used to fold
    /// [`CounterFamily`](crate::CounterFamily) values into a report.
    pub fn add_counter(&mut self, name: &str, value: u64) {
        match self.entries.get_mut(name) {
            Some(Value::Counter(v)) => *v += value,
            _ => {
                self.entries.insert(name.to_string(), Value::Counter(value));
            }
        }
    }

    /// Entry-wise subtraction (`self - baseline`).
    ///
    /// Counters and histogram counts/sums subtract saturating; histogram
    /// min/max keep `self`'s value (they are not cumulative).
    /// Entries absent from `baseline` carry over unchanged.
    #[must_use]
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, value)| {
                let diffed = match (value, baseline.entries.get(name)) {
                    (Value::Counter(a), Some(Value::Counter(b))) => {
                        Value::Counter(a.saturating_sub(*b))
                    }
                    (Value::Histogram(a), Some(Value::Histogram(b))) => {
                        // Counts and sums are cumulative and subtract;
                        // min/max/percentiles are not and keep `self`'s.
                        Value::Histogram(HistogramSummary {
                            count: a.count.saturating_sub(b.count),
                            sum: a.sum.saturating_sub(b.sum),
                            ..*a
                        })
                    }
                    _ => *value,
                };
                (name.clone(), diffed)
            })
            .collect();
        Snapshot { entries }
    }
}

impl std::ops::Sub for &Snapshot {
    type Output = Snapshot;

    fn sub(self, baseline: &Snapshot) -> Snapshot {
        self.diff(baseline)
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .entries
            .keys()
            .map(|name| name.len())
            .max()
            .unwrap_or(0);
        for (name, value) in &self.entries {
            match value {
                Value::Counter(v) => writeln!(f, "{name:width$}  {v}")?,
                Value::Histogram(h) => writeln!(f, "{name:width$}  {h}")?,
            }
        }
        Ok(())
    }
}

/// Escapes a metric/scope name for use as a JSON key: ASCII
/// alphanumerics and the punctuation metric names legitimately use
/// (`/ - _ . # : ( ) = @` and space) pass through readable; everything
/// else — quotes, backslashes, control characters, non-ASCII — is
/// `\uXXXX`-escaped (surrogate pairs for non-BMP), so any name yields a
/// valid, unambiguous JSON string.
pub fn escape_metric_name(s: &str) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            c if c.is_ascii_alphanumeric() => out.push(c),
            '/' | '-' | '_' | '.' | '#' | ':' | '(' | ')' | '=' | '@' | ' ' => out.push(ch),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Render as a JSON object: counters as numbers, histograms as
    /// `{count, sum, min, max, p50, p95, p99}` objects. Keys are sorted and
    /// name-escaped ([`escape_metric_name`]), so the rendering is stable and
    /// always valid JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_metric_name(name));
            out.push_str("\":");
            match value {
                Value::Counter(v) => out.push_str(&v.to_string()),
                Value::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_shares_handles() {
        let m = Metrics::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert_eq!(m.snapshot().counter("x"), 3);
    }

    #[test]
    fn kind_mismatch_yields_detached_handle() {
        let m = Metrics::new();
        m.counter("x").incr();
        m.histogram("x").observe(42);
        // The registry keeps the original kind; the mismatched handle is inert.
        assert_eq!(m.snapshot().counter("x"), 1);
    }

    #[test]
    fn snapshot_diff_subtracts_counters() {
        let m = Metrics::new();
        let c = m.counter("work");
        c.add(10);
        let before = m.snapshot();
        c.add(7);
        let after = m.snapshot();
        let delta = &after - &before;
        assert_eq!(delta.counter("work"), 7);
        // Subtracting in the wrong order saturates rather than wrapping.
        assert_eq!((&before - &after).counter("work"), 0);
    }

    #[test]
    fn rendering_is_sorted_and_stable() {
        let m = Metrics::new();
        m.counter("b/two").add(2);
        m.counter("a/one").incr();
        let snap = m.snapshot();
        let text = snap.to_string();
        let a = text.find("a/one").unwrap_or(usize::MAX);
        let b = text.find("b/two").unwrap_or(usize::MAX);
        assert!(a < b, "text rendering must be name-sorted:\n{text}");
        assert_eq!(snap.to_json(), r#"{"a/one":1,"b/two":2}"#);
    }

    #[test]
    fn histogram_summary() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
        h.observe(4);
        h.observe(10);
        let s = h.summary();
        assert_eq!((s.count, s.sum, s.min, s.max, s.mean()), (2, 14, 4, 10, 7));
    }

    #[test]
    fn histogram_percentiles_track_the_distribution() {
        let h = Histogram::new();
        // 98 fast observations, 2 slow ones: the p50 stays in the fast
        // bucket, the p99 reaches the slow one, and everything clamps
        // into [min, max].
        for _ in 0..98 {
            h.observe(3);
        }
        h.observe(1000);
        h.observe(1000);
        let s = h.summary();
        assert_eq!(s.p50, 3, "median stays in the fast bucket");
        assert_eq!(s.p95, 3);
        assert_eq!(s.p99, 1000, "p99 reaches the slow tail (clamped to max)");
        let rendered = s.to_string();
        assert!(rendered.contains("p50=3"), "{rendered}");
        assert!(rendered.contains("p99=1000"), "{rendered}");
    }

    #[test]
    fn histogram_json_includes_percentiles() {
        let m = Metrics::new();
        m.histogram("lat").observe(7);
        let json = m.snapshot().to_json();
        assert_eq!(
            json,
            r#"{"lat":{"count":1,"sum":7,"min":7,"max":7,"p50":7,"p95":7,"p99":7}}"#
        );
    }

    #[test]
    fn metric_names_are_escaped_in_json() {
        let m = Metrics::new();
        m.counter("weird \"name\"\nwith☃unicode").incr();
        m.counter("core/plain-name_1.x#y:z").add(2);
        let json = m.snapshot().to_json();
        // Safe punctuation stays readable; quotes, control characters,
        // and non-ASCII become \uXXXX escapes.
        assert!(json.contains(r#""core/plain-name_1.x#y:z":2"#), "{json}");
        assert!(
            json.contains(r#""weird \u0022name\u0022\u000awith\u2603unicode":1"#),
            "{json}"
        );
        assert!(!json.contains('\n'), "raw control chars must not leak");
    }
}

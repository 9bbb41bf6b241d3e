//! Lock-cheap runtime telemetry for the NeuroHammer reproduction.
//!
//! The campaign platform runs fleets of workers over heavily optimised
//! kernels; this crate is the shared instrumentation layer that makes those
//! runs observable without perturbing them. It deliberately implements the
//! smallest useful subset of the usual metrics vocabulary — no external
//! dependencies, no background threads:
//!
//! * [`Counter`] — a monotonically increasing `u64` (points finished,
//!   pulses integrated, leases granted).
//! * [`Gauge`] — a settable `f64` (queue depth, points/sec, worker
//!   liveness).
//! * [`Histogram`] — fixed-bound bucketed observations with sum and count
//!   (per-point wall-clock durations).
//! * [`SpanTimer`] — a scope guard that observes its elapsed wall-clock
//!   time into a histogram when dropped.
//!
//! Handles are `Arc`-shared atomics: the registry mutex is touched only at
//! registration, every subsequent update is a single atomic operation, so
//! instrumented hot paths stay hot. Two encoders snapshot a registry:
//! [`Registry::prometheus_text`] (the `/metrics` exposition format served
//! by the campaign daemon) and [`Registry::snapshot_json`] (embedded in
//! `--html` report artifacts).
//!
//! Two submodules build the fleet-level observability layer on top:
//! [`trace`] (trace/span ids and monotonic span records — the per-job
//! timelines behind `GET /jobs/{id}/trace`) and [`history`] (periodic
//! [`Registry::sample`] snapshots retained as a bounded ring and a
//! ring-compacted JSONL file — `GET /metrics/history`).
//!
//! # Examples
//!
//! Counters and gauges are registered once and bumped from anywhere:
//!
//! ```
//! use rram_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let points = registry.counter("campaign_points_total", "Points finished");
//! let depth = registry.gauge("campaign_queue_depth", "Points not yet finished");
//! points.add(3);
//! depth.set(17.0);
//! assert_eq!(points.value(), 3);
//! let text = registry.prometheus_text();
//! assert!(text.contains("campaign_points_total 3"));
//! assert!(text.contains("campaign_queue_depth 17"));
//! ```
//!
//! A [`SpanTimer`] times a scope into a histogram:
//!
//! ```
//! use rram_telemetry::{Registry, DURATION_SECONDS_BUCKETS};
//!
//! let registry = Registry::new();
//! let hist = registry.histogram(
//!     "campaign_point_seconds",
//!     "Per-point wall-clock duration",
//!     &DURATION_SECONDS_BUCKETS,
//! );
//! {
//!     let _span = hist.span(); // observes on drop
//! }
//! assert_eq!(hist.count(), 1);
//! ```
//!
//! Labelled series share a family (one `# TYPE` line, many samples):
//!
//! ```
//! use rram_telemetry::Registry;
//!
//! let registry = Registry::new();
//! registry
//!     .gauge_with("queue_worker_up", "Worker liveness", &[("worker", "a")])
//!     .set(1.0);
//! registry
//!     .gauge_with("queue_worker_up", "Worker liveness", &[("worker", "b")])
//!     .set(0.0);
//! let text = registry.prometheus_text();
//! assert!(text.contains("queue_worker_up{worker=\"a\"} 1"));
//! assert!(text.contains("queue_worker_up{worker=\"b\"} 0"));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod history;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default histogram bounds for wall-clock durations in seconds:
/// 1 µs … 100 s in half-decade steps.
pub const DURATION_SECONDS_BUCKETS: [f64; 17] = [
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
    100.0,
];

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable floating-point metric (stored as `f64` bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge (compare-and-swap loop).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Bucketed observations with a running sum and count.
///
/// Bounds are fixed at registration; each `observe` increments the first
/// bucket whose upper bound is `>= value` (Prometheus `le` semantics, with
/// an implicit `+Inf` bucket).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            // One extra slot for the implicit +Inf bucket.
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Starts a [`SpanTimer`] that observes its elapsed seconds into this
    /// histogram when dropped.
    pub fn span(self: &Arc<Self>) -> SpanTimer {
        SpanTimer {
            histogram: Arc::clone(self),
            started: Instant::now(),
            armed: true,
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative bucket counts paired with their upper bounds
    /// (`f64::INFINITY` for the implicit last bucket).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut running = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (slot, bucket) in self.buckets.iter().enumerate() {
            running += bucket.load(Ordering::Relaxed);
            let bound = self.bounds.get(slot).copied().unwrap_or(f64::INFINITY);
            out.push((bound, running));
        }
        out
    }
}

/// Scope guard that observes its elapsed wall-clock seconds into a
/// [`Histogram`] when dropped (or explicitly via [`SpanTimer::stop`]).
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Arc<Histogram>,
    started: Instant,
    armed: bool,
}

impl SpanTimer {
    /// Stops the span now and returns the elapsed seconds it observed.
    pub fn stop(mut self) -> f64 {
        let elapsed = self.started.elapsed().as_secs_f64();
        self.histogram.observe(elapsed);
        self.armed = false;
        elapsed
    }

    /// Discards the span without recording anything.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if self.armed {
            self.histogram.observe(self.started.elapsed().as_secs_f64());
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

type LabelSet = Vec<(String, String)>;

#[derive(Debug)]
struct Family {
    kind: Kind,
    help: String,
    series: BTreeMap<LabelSet, Handle>,
}

/// A set of named metric families with deterministic (sorted) encoding.
///
/// Registration is idempotent: asking for the same name + label set again
/// returns the existing handle, so call sites don't need to coordinate.
/// Registering the same name with a different metric kind panics — that is
/// always a programming error.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide shared registry: the campaign executor, the pulse
    /// kernels and the job daemon all record here, and the daemon's
    /// `/metrics` endpoint serves it.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        let key: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} already registered as a {}",
            family.kind.label()
        );
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with the given label pairs.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, Kind::Counter, || {
            Handle::Counter(Arc::new(Counter::default()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge with the given label pairs.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, Kind::Gauge, || {
            Handle::Gauge(Arc::new(Gauge::default()))
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram with the given
    /// strictly increasing bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers (or retrieves) a labelled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, labels, Kind::Histogram, || {
            Handle::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Encodes the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers followed by one sample
    /// per series, families and label sets in sorted order.
    pub fn prometheus_text(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.label());
            for (labels, handle) in family.series.iter() {
                match handle {
                    Handle::Counter(c) => {
                        let _ =
                            writeln!(out, "{}{} {}", name, render_labels(labels, &[]), c.value());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            name,
                            render_labels(labels, &[]),
                            number(g.value())
                        );
                    }
                    Handle::Histogram(h) => {
                        for (bound, cumulative) in h.cumulative_buckets() {
                            let le = if bound.is_infinite() {
                                "+Inf".to_string()
                            } else {
                                number(bound)
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                name,
                                render_labels(labels, &[("le", &le)]),
                                cumulative
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            name,
                            render_labels(labels, &[]),
                            number(h.sum())
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            name,
                            render_labels(labels, &[]),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }

    /// Flattens the registry into sorted `(series name, value)` pairs —
    /// counters and gauges as-is, histograms as their `_count` and
    /// `_sum` — the sampling format behind [`history`]'s time series.
    ///
    /// # Examples
    ///
    /// ```
    /// use rram_telemetry::Registry;
    ///
    /// let registry = Registry::new();
    /// registry.counter("points_total", "Points").add(3);
    /// registry.gauge("depth", "Depth").set(1.5);
    /// assert_eq!(
    ///     registry.sample(),
    ///     vec![("depth".to_string(), 1.5), ("points_total".to_string(), 3.0)]
    /// );
    /// ```
    pub fn sample(&self) -> Vec<(String, f64)> {
        let families = self.families.lock().unwrap();
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, handle) in family.series.iter() {
                let series = |suffix: &str| format!("{name}{suffix}{}", render_labels(labels, &[]));
                match handle {
                    Handle::Counter(c) => out.push((series(""), c.value() as f64)),
                    Handle::Gauge(g) => out.push((series(""), g.value())),
                    Handle::Histogram(h) => {
                        out.push((series("_count"), h.count() as f64));
                        out.push((series("_sum"), h.sum()));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Encodes a snapshot of the registry as a deterministic JSON object
    /// (families and label sets in sorted order).
    ///
    /// With [`SnapshotMode::Deterministic`] every histogram is skipped, as
    /// is any family whose name marks a wall-clock quantity (contains
    /// `_seconds` or ends in `_per_sec`) or simulation work (starts with
    /// `kernel_`: pulses simulated and replay-cache lookups, which depend
    /// on how the executor dealt the points, since a shared trajectory
    /// simulates a pulse once for several points). What remains — point
    /// counters, queue and configuration gauges — is a pure function of the
    /// campaign spec and its checkpoint, which is what lets `--html`
    /// artifacts embed a telemetry section and still be byte-reproducible
    /// at any thread count.
    pub fn snapshot_json(&self, mode: SnapshotMode) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::from("{\"counters\":{");
        let volatile = |name: &str| {
            name.contains("_seconds") || name.ends_with("_per_sec") || name.starts_with("kernel_")
        };
        let mut first = true;
        for (name, family) in families.iter() {
            if family.kind != Kind::Counter {
                continue;
            }
            if mode == SnapshotMode::Deterministic && volatile(name) {
                continue;
            }
            for (labels, handle) in family.series.iter() {
                if let Handle::Counter(c) = handle {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "{}:{}",
                        json_string(&format!("{}{}", name, render_labels(labels, &[]))),
                        c.value()
                    );
                }
            }
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, family) in families.iter() {
            if family.kind != Kind::Gauge {
                continue;
            }
            if mode == SnapshotMode::Deterministic && volatile(name) {
                continue;
            }
            for (labels, handle) in family.series.iter() {
                if let Handle::Gauge(g) = handle {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "{}:{}",
                        json_string(&format!("{}{}", name, render_labels(labels, &[]))),
                        number(g.value())
                    );
                }
            }
        }
        out.push_str("},\"histograms\":{");
        if mode == SnapshotMode::Full {
            let mut first = true;
            for (name, family) in families.iter() {
                if family.kind != Kind::Histogram {
                    continue;
                }
                for (labels, handle) in family.series.iter() {
                    if let Handle::Histogram(h) = handle {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let _ = write!(
                            out,
                            "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                            json_string(&format!("{}{}", name, render_labels(labels, &[]))),
                            h.count(),
                            number(h.sum())
                        );
                        for (slot, (bound, cumulative)) in
                            h.cumulative_buckets().into_iter().enumerate()
                        {
                            if slot > 0 {
                                out.push(',');
                            }
                            let le = if bound.is_infinite() {
                                "\"+Inf\"".to_string()
                            } else {
                                number(bound)
                            };
                            let _ = write!(out, "[{le},{cumulative}]");
                        }
                        out.push_str("]}");
                    }
                }
            }
        }
        out.push_str("}}");
        out
    }
}

/// Which metrics [`Registry::snapshot_json`] includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Everything, including histograms and wall-clock series.
    Full,
    /// Only run-deterministic metrics (see [`Registry::snapshot_json`]).
    Deterministic,
}

fn render_labels(labels: &LabelSet, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (slot, (key, value)) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
        .enumerate()
    {
        if slot > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", key, escape_label(value));
    }
    out.push('}');
    out
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(value: &str) -> String {
    value.replace('\\', "\\\\").replace('\n', "\\n")
}

pub(crate) fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float the way the campaign JSON codec does: shortest string
/// that round-trips (Rust's `Display` for `f64`), integral values without
/// a trailing `.0`.
pub(crate) fn number(value: f64) -> String {
    if value.is_nan() {
        return "NaN".to_string();
    }
    if value.is_infinite() {
        return if value > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    let text = format!("{value}");
    text.strip_suffix(".0").unwrap_or(&text).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate_across_threads() {
        let registry = Registry::new();
        let counter = registry.counter("t_total", "test");
        thread::scope(|scope| {
            for _ in 0..4 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 4000);
    }

    #[test]
    fn gauge_add_is_atomic() {
        let registry = Registry::new();
        let gauge = registry.gauge("g", "test");
        thread::scope(|scope| {
            for _ in 0..4 {
                let gauge = Arc::clone(&gauge);
                scope.spawn(move || {
                    for _ in 0..100 {
                        gauge.add(1.0);
                    }
                });
            }
        });
        assert_eq!(gauge.value(), 400.0);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let registry = Registry::new();
        let a = registry.counter("same", "help");
        let b = registry.counter("same", "ignored");
        a.add(2);
        assert_eq!(b.value(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        let _ = registry.counter("clash", "help");
        let _ = registry.gauge("clash", "help");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let registry = Registry::new();
        let hist = registry.histogram("h_seconds", "test", &[0.1, 1.0]);
        hist.observe(0.05);
        hist.observe(0.5);
        hist.observe(5.0);
        assert_eq!(
            hist.cumulative_buckets(),
            vec![(0.1, 1), (1.0, 2), (f64::INFINITY, 3)]
        );
        assert_eq!(hist.count(), 3);
        assert!((hist.sum() - 5.55).abs() < 1e-12);
    }

    #[test]
    fn span_timer_observes_on_drop_and_cancel_suppresses() {
        let registry = Registry::new();
        let hist = registry.histogram("span_seconds", "test", &DURATION_SECONDS_BUCKETS);
        {
            let _span = hist.span();
        }
        hist.span().cancel();
        let elapsed = hist.span().stop();
        assert!(elapsed >= 0.0);
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let registry = Registry::new();
        registry.counter("points_total", "Points finished").add(7);
        registry.gauge("depth", "Queue depth").set(2.5);
        let hist = registry.histogram("dur_seconds", "Durations", &[0.5]);
        hist.observe(0.25);
        registry
            .counter_with("leases_total", "Leases", &[("worker", "a\"b")])
            .inc();
        let text = registry.prometheus_text();
        assert!(text.contains("# HELP points_total Points finished\n"));
        assert!(text.contains("# TYPE points_total counter\n"));
        assert!(text.contains("points_total 7\n"));
        assert!(text.contains("depth 2.5\n"));
        assert!(text.contains("dur_seconds_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("dur_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("dur_seconds_sum 0.25\n"));
        assert!(text.contains("dur_seconds_count 1\n"));
        assert!(text.contains("leases_total{worker=\"a\\\"b\"} 1\n"));
    }

    /// Format conformance for the text exposition (version 0.0.4): every
    /// family — counter, gauge and histogram alike — carries exactly one
    /// `# HELP` and one `# TYPE` line, headers precede their samples,
    /// every sample's family resolves to a declared one (histogram
    /// `_bucket`/`_sum`/`_count` suffixes included) and every value
    /// parses as a float. A stock Prometheus scraper accepts exactly
    /// this shape.
    #[test]
    fn prometheus_text_conforms_to_the_exposition_format() {
        let registry = Registry::new();
        registry
            .counter("queue_leases_granted_total", "Leases")
            .add(2);
        registry.gauge("queue_jobs_outstanding", "Jobs").set(1.0);
        registry
            .gauge_with("queue_worker_up", "Liveness", &[("worker", "a")])
            .set(1.0);
        registry
            .histogram("point_wall_seconds", "Durations", &DURATION_SECONDS_BUCKETS)
            .observe(0.02);
        let text = registry.prometheus_text();

        let mut declared: BTreeMap<String, String> = BTreeMap::new(); // family → kind
        let mut helped: Vec<String> = Vec::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in the exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let family = rest.split_whitespace().next().unwrap().to_string();
                assert!(!helped.contains(&family), "duplicate HELP for {family}");
                helped.push(family);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let family = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap().to_string();
                assert!(["counter", "gauge", "histogram"].contains(&kind.as_str()));
                assert_eq!(
                    helped.last(),
                    Some(&family),
                    "TYPE must directly follow its HELP"
                );
                assert!(
                    declared.insert(family.clone(), kind).is_none(),
                    "duplicate TYPE for {family}"
                );
                continue;
            }
            // A sample line: `name{labels} value`.
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf",
                "unparseable sample value {value:?}"
            );
            let name = series.split('{').next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    name.strip_suffix(suffix)
                        .filter(|stem| declared.get(*stem).map(String::as_str) == Some("histogram"))
                })
                .unwrap_or(name);
            assert!(
                declared.contains_key(family),
                "sample {series} precedes (or lacks) its # TYPE header"
            );
        }
        // Every registered family was declared exactly once.
        assert_eq!(declared.len(), 4);
        assert_eq!(helped.len(), 4);
    }

    #[test]
    fn deterministic_snapshot_skips_wall_clock_series() {
        let registry = Registry::new();
        registry.counter("pulses_total", "Pulses").add(10);
        registry.gauge("points_per_sec", "Rate").set(123.4);
        let hist = registry.histogram("point_seconds", "Durations", &[1.0]);
        hist.observe(0.5);
        let full = registry.snapshot_json(SnapshotMode::Full);
        assert!(full.contains("\"pulses_total\":10"));
        assert!(full.contains("\"points_per_sec\":123.4"));
        assert!(full.contains("\"point_seconds\""));
        let deterministic = registry.snapshot_json(SnapshotMode::Deterministic);
        assert!(deterministic.contains("\"pulses_total\":10"));
        assert!(!deterministic.contains("points_per_sec"));
        assert!(!deterministic.contains("point_seconds"));
        assert!(deterministic.ends_with("\"histograms\":{}}"));
    }

    #[test]
    fn deterministic_snapshot_skips_simulation_work_counters() {
        let registry = Registry::new();
        registry.counter("kernel_pulses_total", "Pulses").add(4_601);
        registry.counter("kernel_echo_hits_total", "Hits").add(3);
        registry.counter("campaign_points_total", "Points").add(5);
        let full = registry.snapshot_json(SnapshotMode::Full);
        assert!(full.contains("\"kernel_pulses_total\":4601"));
        assert!(full.contains("\"kernel_echo_hits_total\":3"));
        let deterministic = registry.snapshot_json(SnapshotMode::Deterministic);
        assert!(!deterministic.contains("kernel_"), "{deterministic}");
        assert!(deterministic.contains("\"campaign_points_total\":5"));
        assert!(registry
            .prometheus_text()
            .contains("kernel_pulses_total 4601"));
    }

    #[test]
    fn snapshot_json_is_stable_across_identical_registries() {
        let build = || {
            let registry = Registry::new();
            registry.counter("b_total", "b").add(2);
            registry.counter("a_total", "a").add(1);
            registry.snapshot_json(SnapshotMode::Deterministic)
        };
        assert_eq!(build(), build());
        // Sorted by family name regardless of registration order.
        let snapshot = build();
        assert!(snapshot.find("a_total").unwrap() < snapshot.find("b_total").unwrap());
    }
}

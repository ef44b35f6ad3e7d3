//! # flor-obs — the observability core under the FlorDB stack
//!
//! Every layer of the stack (store, jobs, views, kernel) records into one
//! process-wide [`MetricsRegistry`]: lock-free atomic [`Counter`]s and
//! [`Gauge`]s, fixed-bucket latency [`Histogram`]s, lightweight
//! [`Span`] timings, and a bounded ring-buffer [`Event`] log for discrete
//! occurrences (checkpoint done, compaction pass, feed shed, job-unit
//! failure). [`MetricsRegistry::snapshot`] produces a consistent
//! [`MetricsSnapshot`] with text, JSON and Prometheus exposition-format
//! rendering ([`MetricsSnapshot::render_prometheus`], served by
//! `flor-serve`'s scrape verb) — what `Flor::metrics()` surfaces at the
//! kernel.
//!
//! # Design constraints
//!
//! The registry must cost nearly nothing when nobody reads it:
//!
//! * **Hot-path records are relaxed atomic adds.** Handles
//!   ([`Counter`], [`Gauge`], [`Histogram`]) are resolved by name *once*
//!   (at wiring time, behind a registry mutex) and then held as `Arc`s —
//!   no map lookup, no allocation, no lock on the record path.
//! * **Timing is gated.** [`Span::enter`] consults the registry's
//!   [`MetricsRegistry::enabled`] flag (one relaxed load) and skips the
//!   `Instant::now()` pair entirely when disabled — the instrumentation
//!   overhead benches compare exactly this enabled/disabled pair.
//! * **Histograms never allocate.** Fixed power-of-two buckets
//!   ([`HIST_BUCKETS`] atomics per histogram); a snapshot derives its
//!   count from the buckets so it is internally consistent by
//!   construction even while writers race.
//! * **Events are bounded.** The ring keeps the latest
//!   [`EVENT_LOG_CAPACITY`] events; older ones fall off.
//!
//! # Metric name registry
//!
//! Names are dotted paths, `<layer>.<object>.<measure>`; `*_nanos`
//! metrics are histograms of durations in nanoseconds. The stack records:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `store.commit.nanos` | histogram | whole `Database::commit` latency |
//! | `store.commit.rows` | counter | rows made visible by commits |
//! | `store.wal.append_nanos` | histogram | per-record WAL append latency |
//! | `store.wal.fsync_nanos` | histogram | commit-marker fsync latency |
//! | `store.segment.rows_coalesced` | counter | rows re-copied by commit-time tail folding |
//! | `store.checkpoint.nanos` | histogram | whole checkpoint duration |
//! | `store.compaction.nanos` | histogram | whole compaction-pass duration |
//! | `store.query.segments_scanned` | counter | segments visited by store queries |
//! | `store.query.segments_pruned` | counter | segments skipped via zone maps |
//! | `store.query.rows_examined` | counter | rows touched by store queries |
//! | `store.query.rows_returned` | counter | rows returned by store queries |
//! | `store.feed.depth` | gauge | deepest subscriber queue after last publish |
//! | `store.feed.coalesced` | counter | queued batch pairs merged under backpressure |
//! | `store.feed.shed` | counter | batches dropped under backpressure |
//! | `jobs.unit.queue_wait_nanos` | histogram | unit time from enqueue to pop |
//! | `jobs.unit.run_nanos` | histogram | unit compute-phase duration |
//! | `jobs.unit.done` | counter | units completed (all jobs) |
//! | `jobs.unit.failed` | counter | units whose compute or staging failed |
//! | `jobs.done.<kind>` | counter | units completed per job kind (throughput) |
//! | `view.build_nanos` | histogram | full view build/rebuild duration |
//! | `view.refresh_nanos` | histogram | incremental delta-application duration |
//! | `view.hits` / `view.misses` | counter | catalog cache hits / builds |
//! | `view.rebuilds` | counter | fallback full rebuilds |
//!
//! Event kinds: `checkpoint`, `compaction`, `feed.coalesce`, `feed.shed`,
//! `job.unit_failed`, `view.rebuild`, `follower`, `serve.error`,
//! `session`. Each event carries a severity [`Level`] and a wall-clock
//! timestamp; filter with [`MetricsRegistry::events_at_least`].
//!
//! # Tracing
//!
//! Alongside aggregate metrics the registry owns two bounded rings for
//! per-request forensics (see the [`trace`](crate::TraceStore) types):
//! a [`TraceStore`] of completed hierarchical [`Trace`]s (opt-in via
//! `registry.traces().set_enabled(true)`; an [`ActiveTrace`] is built
//! lock-free by one request handler and published in one short lock
//! hold) and a [`SlowQueryStore`] capturing requests that exceed an
//! armed latency threshold together with their rendered explain report.
//! With both off the handle is *inert* — instrumented code passes it
//! down unconditionally and every recording call returns immediately
//! without reading a clock, allocating or formatting.
//! `flor-serve` threads a [`TraceId`] over the wire so clients can
//! retrieve the server-side trace of their own query.
//!
//! ```
//! use flor_obs::{MetricsRegistry, Span};
//! let reg = MetricsRegistry::new();
//! let commits = reg.counter("store.commit.rows");
//! let lat = reg.histogram("store.commit.nanos");
//! {
//!     let _span = Span::enter(&reg, &lat); // records elapsed on drop
//!     commits.add(3);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("store.commit.rows"), Some(3));
//! assert_eq!(snap.histogram("store.commit.nanos").unwrap().count, 1);
//! println!("{}", snap.render_text());
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

mod trace;
pub use trace::{
    ActiveTrace, SlowQueryRecord, SlowQueryStore, SpanEvent, SpanId, Trace, TraceId, TraceSpan,
    TraceStore, SLOW_QUERY_CAPACITY, TRACE_STORE_CAPACITY,
};

/// Number of power-of-two histogram buckets. Bucket `i` holds values
/// whose bit length is `i` (bucket 0 holds the value 0), so the bounded
/// range covers `[0, 2^42)` — about 73 minutes in nanoseconds — with the
/// last bucket absorbing everything larger.
pub const HIST_BUCKETS: usize = 44;

/// Capacity of the bounded event ring; older events fall off.
pub const EVENT_LOG_CAPACITY: usize = 256;

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wall-clock now, microseconds since the Unix epoch (0 if the clock is
/// before the epoch).
pub fn unix_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Severity of an [`Event`]: ordered so that snapshots can be filtered
/// with [`MetricsSnapshot::events_at_least`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Chatty diagnostics (session open/close).
    Debug,
    /// Normal operational milestones (checkpoint, compaction).
    Info,
    /// Degraded-but-working conditions (backpressure shed, rebuild
    /// fallback, request errors).
    Warn,
    /// Lost work (job unit failed after staging).
    Error,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        })
    }
}

/// A monotonically increasing counter (relaxed atomic adds).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    // audit: ordering — a statistics counter: the total is what matters,
    // no other memory is published through it, so Relaxed suffices.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    // audit: ordering — scrape-time read of a statistic; a slightly
    // stale value is fine and no ordering with other metrics is implied.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (queue depths, sizes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    // audit: ordering — a point-in-time gauge; readers only want the
    // latest-ish value, no happens-before edges ride on it.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `d` (may be negative).
    // audit: ordering — fetch_add keeps the gauge consistent under
    // racing adjusters; cross-metric ordering is not promised.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    // audit: ordering — scrape-time read; staleness is acceptable.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Buckets are powers of two; recording is one relaxed `fetch_add` into
/// the sample's bucket plus one into the running sum — no allocation, no
/// lock, no floating point.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of recorded samples. Read together with the buckets a racing
    /// snapshot may lag the bucket counts by in-flight records; the
    /// snapshot's `count` is therefore derived from the buckets alone.
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index of a sample: its bit length, clamped to the last
/// bucket.
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one sample.
    // audit: ordering — the bucket increment and the sum increment are
    // independent statistics; `snapshot` derives the count from the
    // buckets, so no inter-field ordering is required.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration, in nanoseconds (saturating past `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Consistent point-in-time copy: the count is derived from the
    /// bucket counts, so `count == Σ buckets` holds even under racing
    /// writers.
    // audit: ordering — each bucket is read independently; the snapshot
    // tolerates samples landing mid-scan (count is summed from what was
    // read), so Relaxed loads are enough.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((bucket_upper(i), n));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time histogram state: non-empty buckets as
/// `(inclusive upper bound, sample count)` pairs, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples (always equals the sum of the bucket counts).
    pub count: u64,
    /// Sum of all samples (may lag `count` by in-flight records).
    pub sum: u64,
    /// Non-empty buckets: `(inclusive upper bound, samples)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q <= 1.0`), or `None` when empty. Conservative: the true
    /// quantile is at most the returned value.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Some(upper);
            }
        }
        self.buckets.last().map(|&(upper, _)| upper)
    }

    /// Upper bound of the largest non-empty bucket (`None` when empty).
    pub fn max_bound(&self) -> Option<u64> {
        self.buckets.last().map(|&(upper, _)| upper)
    }
}

/// A lightweight timing guard: enter at a point of interest, and the
/// elapsed wall time is recorded into the histogram on drop.
///
/// Hierarchy is by nesting: a child span started with [`Span::child`]
/// (or just another `enter`) measures an inner phase while the outer
/// span keeps running — dotted metric names (`store.commit.nanos` /
/// `store.wal.fsync_nanos`) express the parent/child relation in the
/// registry. When the registry is disabled the guard is inert: no
/// `Instant::now()`, no record.
#[must_use = "a span records on drop; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Start a span recording into `hist` on drop (inert when `registry`
    /// is disabled).
    pub fn enter(registry: &MetricsRegistry, hist: &'a Histogram) -> Span<'a> {
        Span {
            hist,
            start: registry.enabled().then(Instant::now),
        }
    }

    /// Start a nested span timing an inner phase into another histogram;
    /// inert iff the parent is inert.
    pub fn child<'b>(&self, hist: &'b Histogram) -> Span<'b> {
        Span {
            hist,
            start: self.start.is_some().then(Instant::now),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record_duration(start.elapsed());
        }
    }
}

/// One discrete occurrence captured by the event ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number (total events ever recorded; gaps in a
    /// snapshot mean older events fell off the ring).
    pub seq: u64,
    /// Microseconds since the registry was created.
    pub at_micros: u64,
    /// Wall-clock timestamp, microseconds since the Unix epoch.
    pub at_unix_micros: u64,
    /// Severity; [`MetricsRegistry::event`] records at [`Level::Info`].
    pub level: Level,
    /// Static kind tag (`checkpoint`, `feed.shed`, ...).
    pub kind: &'static str,
    /// Free-form detail, small by convention.
    pub detail: String,
}

#[derive(Debug, Default)]
struct EventRing {
    ring: VecDeque<Event>,
    next_seq: u64,
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct RegistryInner {
    enabled: AtomicBool,
    metrics: Mutex<BTreeMap<String, Metric>>,
    events: Mutex<EventRing>,
    start: Instant,
    traces: TraceStore,
    slow: SlowQueryStore,
}

/// The process-wide metric registry: named handles, the enabled flag,
/// the event ring, and consistent snapshots.
///
/// Cloning shares the same registry. Handle resolution
/// ([`MetricsRegistry::counter`] etc.) takes a mutex and is meant for
/// wiring time; record paths go through the returned `Arc` handles and
/// never touch the registry again.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled())
            .field("metrics", &lock(&self.inner.metrics).len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Fresh registry, enabled.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                enabled: AtomicBool::new(true),
                metrics: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventRing::default()),
                start: Instant::now(),
                traces: TraceStore::default(),
                slow: SlowQueryStore::default(),
            }),
        }
    }

    /// The registry's completed-trace ring. Disabled by default; turn on
    /// with `traces().set_enabled(true)` — independent of the metric
    /// kill switch so tracing can stay off while counters run.
    pub fn traces(&self) -> &TraceStore {
        &self.inner.traces
    }

    /// The registry's slow-query ring. Unarmed by default; arm with
    /// `slow_queries().set_threshold(Some(..))`.
    pub fn slow_queries(&self) -> &SlowQueryStore {
        &self.inner.slow
    }

    /// Whether recording is enabled (one relaxed load; the gate every
    /// [`Span`] and instrumented call site checks).
    // audit: ordering — hot-path gate: a call site racing the flip may
    // record (or skip) one extra sample, which is harmless by design.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Flip the recording kill switch. Counters/gauges/histograms keep
    /// their accumulated state; disabled call sites simply stop adding.
    // audit: ordering — the switch gates only metric writes; it never
    // publishes other data, so no release edge is needed.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = lock(&self.inner.metrics);
        match g
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            // audit: allow(panic) — documented `# Panics` contract: a kind
            // mismatch is a wiring-time programming error, not input.
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = lock(&self.inner.metrics);
        match g
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(v) => Arc::clone(v),
            // audit: allow(panic) — documented `# Panics` wiring contract.
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = lock(&self.inner.metrics);
        match g
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            // audit: allow(panic) — documented `# Panics` wiring contract.
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Record a discrete [`Level::Info`] event into the bounded ring
    /// (dropped when the registry is disabled). `detail` should stay
    /// small — events are rare occurrences, not a log stream.
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) {
        self.event_at(Level::Info, kind, detail);
    }

    /// Record a discrete event at an explicit severity (dropped when the
    /// registry is disabled).
    pub fn event_at(&self, level: Level, kind: &'static str, detail: impl Into<String>) {
        if !self.enabled() {
            return;
        }
        let at_micros = u64::try_from(self.inner.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let at_unix_micros = unix_micros();
        let mut g = lock(&self.inner.events);
        let seq = g.next_seq;
        g.next_seq += 1;
        if g.ring.len() == EVENT_LOG_CAPACITY {
            g.ring.pop_front();
        }
        g.ring.push_back(Event {
            seq,
            at_micros,
            at_unix_micros,
            level,
            kind,
            detail: detail.into(),
        });
    }

    /// Retained events at severity `min` or higher, oldest first —
    /// a filter over the ring without taking a full metric snapshot.
    pub fn events_at_least(&self, min: Level) -> Vec<Event> {
        lock(&self.inner.events)
            .ring
            .iter()
            .filter(|e| e.level >= min)
            .cloned()
            .collect()
    }

    /// A consistent point-in-time snapshot of every metric and the event
    /// ring, names sorted. Counters are monotone across successive
    /// snapshots and every histogram satisfies `count == Σ buckets`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in lock(&self.inner.metrics).iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), c.get())),
                Metric::Gauge(v) => gauges.push((name.clone(), v.get())),
                Metric::Histogram(h) => histograms.push((name.clone(), h.snapshot())),
            }
        }
        let events = lock(&self.inner.events).ring.iter().cloned().collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            events,
        }
    }
}

/// Point-in-time state of a whole [`MetricsRegistry`]: sorted
/// name/value lists plus the retained events. Render with
/// [`MetricsSnapshot::render_text`] or [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Retained events at severity `min` or higher, oldest first.
    pub fn events_at_least(&self, min: Level) -> Vec<&Event> {
        self.events.iter().filter(|e| e.level >= min).collect()
    }

    /// Human-readable multi-line rendering: one line per metric, then
    /// the retained events.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter  {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge    {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = write!(
                out,
                "hist     {name} count={} mean={:.0}",
                h.count,
                h.mean()
            );
            for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
                if let Some(b) = h.quantile(q) {
                    let _ = write!(out, " {label}<={b}");
                }
            }
            if let Some(m) = h.max_bound() {
                let _ = write!(out, " max<={m}");
            }
            out.push('\n');
        }
        for e in &self.events {
            let _ = writeln!(
                out,
                "event    #{} +{}us [{}] {} {}",
                e.seq, e.at_micros, e.level, e.kind, e.detail
            );
        }
        out
    }

    /// Prometheus text-format (exposition format version 0.0.4)
    /// rendering, suitable for a `/metrics` scrape endpoint (what
    /// `flor-serve` exposes as its `MetricsPrometheus` verb).
    ///
    /// Dotted names become underscore identifiers (`store.commit.rows`
    /// → `store_commit_rows`); counters get the conventional `_total`
    /// suffix; histograms render as **cumulative** `_bucket{le="..."}`
    /// series closed by `le="+Inf"`, plus `_sum` and `_count`. Every
    /// series is preceded by its `# HELP` (carrying the original dotted
    /// name) and `# TYPE` lines. Events have no Prometheus analogue and
    /// are not rendered.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // Sanitization is lossy (`a.b` and `a_b` both map to `a_b`), and
        // counter `_total` suffixing can alias a counter `x` with a
        // counter `x_total`. Track every emitted series base name and
        // disambiguate collisions with a numeric suffix — sorted metric
        // order makes the assignment deterministic.
        let mut taken = std::collections::HashSet::new();
        for (name, v) in &self.counters {
            let mut p = prom_name(name);
            if !p.ends_with("_total") {
                p.push_str("_total");
            }
            let p = dedup_prom_name(&mut taken, p);
            let _ = writeln!(out, "# HELP {p} FlorDB counter {name}");
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {v}");
        }
        for (name, v) in &self.gauges {
            let p = dedup_prom_name(&mut taken, prom_name(name));
            let _ = writeln!(out, "# HELP {p} FlorDB gauge {name}");
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {v}");
        }
        for (name, h) in &self.histograms {
            let p = dedup_prom_name(&mut taken, prom_name(name));
            let _ = writeln!(out, "# HELP {p} FlorDB histogram {name}");
            let _ = writeln!(out, "# TYPE {p} histogram");
            let mut cum = 0u64;
            for &(upper, n) in &h.buckets {
                cum += n;
                // The unbounded last bucket folds into the mandatory
                // +Inf series below rather than printing u64::MAX as a
                // finite bound.
                if upper == u64::MAX {
                    continue;
                }
                let _ = writeln!(out, "{p}_bucket{{le=\"{upper}\"}} {cum}");
            }
            let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{p}_sum {}", h.sum);
            let _ = writeln!(out, "{p}_count {}", h.count);
        }
        out
    }

    /// Compact JSON rendering (hand-rolled; the workspace carries no
    /// serializer dependency).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_str(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_str(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json_str(name),
                h.count,
                h.sum
            );
            for (j, (upper, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{upper},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"at_micros\":{},\"at_unix_micros\":{},\"level\":{},\"kind\":{},\"detail\":{}}}",
                e.seq,
                e.at_micros,
                e.at_unix_micros,
                json_str(&e.level.to_string()),
                json_str(e.kind),
                json_str(&e.detail)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Claim `candidate` in `taken`, appending `_2`, `_3`, ... until it is
/// unique — the sanitized-name collision escape hatch for
/// [`MetricsSnapshot::render_prometheus`].
fn dedup_prom_name(taken: &mut std::collections::HashSet<String>, candidate: String) -> String {
    if taken.insert(candidate.clone()) {
        return candidate;
    }
    let mut n = 2u64;
    loop {
        let alt = format!("{candidate}_{n}");
        if taken.insert(alt.clone()) {
            return alt;
        }
        n += 1;
    }
}

/// A dotted metric name as a Prometheus identifier: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`, with a leading `_` prepended if
/// the name would otherwise start with a digit.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("a.g");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn handles_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        // Bucket boundaries: 0 → bucket 0 (upper 0? bucket_upper(0)=0),
        // 1 → bucket 1 (upper 1), 2,3 → bucket 2 (upper 3).
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 6);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (3, 2)]);
        assert_eq!(s.quantile(0.25), Some(0));
        assert_eq!(s.quantile(0.5), Some(1));
        assert_eq!(s.quantile(1.0), Some(3));
        assert_eq!(s.max_bound(), Some(3));
        assert!((s.mean() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_huge_sample_lands_in_last_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(u64::MAX, 1)]);
    }

    #[test]
    fn span_records_on_drop_and_disabled_is_inert() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t");
        {
            let _s = Span::enter(&reg, &h);
        }
        assert_eq!(h.snapshot().count, 1);
        reg.set_enabled(false);
        {
            let _s = Span::enter(&reg, &h);
        }
        assert_eq!(h.snapshot().count, 1, "disabled span must not record");
    }

    #[test]
    fn child_span_records_inner_phase() {
        let reg = MetricsRegistry::new();
        let outer = reg.histogram("outer");
        let inner = reg.histogram("inner");
        {
            let s = Span::enter(&reg, &outer);
            let _c = s.child(&inner);
        }
        assert_eq!(outer.snapshot().count, 1);
        assert_eq!(inner.snapshot().count, 1);
    }

    #[test]
    fn event_ring_is_bounded_and_sequenced() {
        let reg = MetricsRegistry::new();
        for i in 0..(EVENT_LOG_CAPACITY + 10) {
            reg.event("tick", format!("i={i}"));
        }
        let snap = reg.snapshot();
        assert_eq!(snap.events.len(), EVENT_LOG_CAPACITY);
        assert_eq!(snap.events.first().unwrap().seq, 10);
        assert_eq!(
            snap.events.last().unwrap().seq,
            (EVENT_LOG_CAPACITY + 9) as u64
        );
        reg.set_enabled(false);
        reg.event("tick", "dropped");
        assert_eq!(reg.snapshot().events.len(), EVENT_LOG_CAPACITY);
    }

    #[test]
    fn snapshot_lookup_and_rendering() {
        let reg = MetricsRegistry::new();
        reg.counter("c.one").add(2);
        reg.gauge("g.one").set(-3);
        reg.histogram("h.one").record(100);
        reg.event("checkpoint", "epoch=1");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c.one"), Some(2));
        assert_eq!(snap.gauge("g.one"), Some(-3));
        assert_eq!(snap.histogram("h.one").unwrap().count, 1);
        assert_eq!(snap.counter("absent"), None);
        let text = snap.render_text();
        assert!(text.contains("counter  c.one 2"));
        assert!(text.contains("gauge    g.one -3"));
        assert!(text.contains("hist     h.one count=1"));
        assert!(text.contains("checkpoint epoch=1"));
        let json = snap.to_json();
        assert!(json.contains("\"c.one\":2"));
        assert!(json.contains("\"g.one\":-3"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"kind\":\"checkpoint\""));
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prom_name("store.commit.rows"), "store_commit_rows");
        assert_eq!(prom_name("jobs.done.my-kind"), "jobs_done_my_kind");
        assert_eq!(prom_name("9lives.x"), "_9lives_x");
        assert_eq!(prom_name("a:b_c"), "a:b_c");
    }

    #[test]
    fn prometheus_counters_and_gauges() {
        let reg = MetricsRegistry::new();
        reg.counter("store.commit.rows").add(5);
        reg.counter("already_total").add(1);
        reg.gauge("store.feed.depth").set(-3);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# HELP store_commit_rows_total FlorDB counter store.commit.rows\n"));
        assert!(text.contains("# TYPE store_commit_rows_total counter\n"));
        assert!(text.contains("\nstore_commit_rows_total 5\n"));
        // An existing `_total` suffix is not doubled.
        assert!(text.contains("\nalready_total 1\n"));
        assert!(!text.contains("already_total_total"));
        assert!(text.contains("# TYPE store_feed_depth gauge\n"));
        assert!(text.contains("\nstore_feed_depth -3\n"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("store.commit.nanos");
        // Buckets: 0 → upper 0, 1 → upper 1, {2,3} → upper 3.
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE store_commit_nanos histogram\n"));
        assert!(text.contains("store_commit_nanos_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("store_commit_nanos_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("store_commit_nanos_bucket{le=\"3\"} 4\n"));
        assert!(text.contains("store_commit_nanos_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("store_commit_nanos_sum 6\n"));
        assert!(text.contains("store_commit_nanos_count 4\n"));
    }

    #[test]
    fn prometheus_unbounded_bucket_folds_into_inf() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        h.record(u64::MAX);
        h.record(1);
        let text = reg.snapshot().render_prometheus();
        // The u64::MAX bucket must not appear as a finite bound…
        assert!(!text.contains(&u64::MAX.to_string()));
        // …its sample shows up only in the +Inf series.
        assert!(text.contains("h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("h_count 2\n"));
    }

    #[test]
    fn events_carry_level_and_wallclock_and_filter() {
        let reg = MetricsRegistry::new();
        reg.event_at(Level::Debug, "session", "open");
        reg.event("checkpoint", "epoch=1"); // Info
        reg.event_at(Level::Warn, "feed.shed", "dropped=2");
        reg.event_at(Level::Error, "job.unit_failed", "unit=3");
        let warn_up = reg.events_at_least(Level::Warn);
        assert_eq!(warn_up.len(), 2);
        assert_eq!(warn_up[0].kind, "feed.shed");
        assert_eq!(warn_up[1].level, Level::Error);
        let snap = reg.snapshot();
        assert_eq!(snap.events_at_least(Level::Debug).len(), 4);
        assert_eq!(snap.events_at_least(Level::Info).len(), 3);
        assert_eq!(snap.events_at_least(Level::Error).len(), 1);
        for e in &snap.events {
            assert!(e.at_unix_micros > 1_600_000_000_000_000, "wall clock set");
        }
        let text = snap.render_text();
        assert!(text.contains("[warn] feed.shed dropped=2"));
        assert!(text.contains("[info] checkpoint epoch=1"));
        let json = snap.to_json();
        assert!(json.contains("\"level\":\"error\""));
        assert!(json.contains("\"at_unix_micros\":"));
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::Warn.to_string(), "warn");
    }

    #[test]
    fn prometheus_sanitized_name_collisions_are_disambiguated() {
        let reg = MetricsRegistry::new();
        // `a.b` and `a_b` both sanitize to `a_b` (here: `a_b_total`).
        reg.counter("a.b").add(1);
        reg.counter("a_b").add(2);
        let text = reg.snapshot().render_prometheus();
        // Sorted order: "a.b" < "a_b", so the dotted name wins the base.
        assert!(text.contains("\na_b_total 1\n"));
        assert!(text.contains("\na_b_total_2 2\n"));
        assert!(text.contains("# TYPE a_b_total_2 counter\n"));
    }

    #[test]
    fn prometheus_counter_total_suffix_collision_is_disambiguated() {
        let reg = MetricsRegistry::new();
        // Counter `x` gains `_total` and would alias counter `x_total`.
        reg.counter("x").add(1);
        reg.counter("x_total").add(2);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("\nx_total 1\n"));
        assert!(text.contains("\nx_total_2 2\n"));
    }

    #[test]
    fn prometheus_gauge_vs_counter_collision_is_disambiguated() {
        let reg = MetricsRegistry::new();
        reg.counter("q.depth").add(1);
        reg.gauge("q_depth_total").set(9);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("\nq_depth_total 1\n"));
        assert!(text.contains("\nq_depth_total_2 9\n"));
        assert!(text.contains("# TYPE q_depth_total_2 gauge\n"));
    }

    #[test]
    fn registry_exposes_trace_and_slow_stores() {
        let reg = MetricsRegistry::new();
        assert!(!reg.traces().enabled(), "tracing is opt-in");
        assert!(!reg.slow_queries().armed(), "slow log is unarmed");
        reg.traces().set_enabled(true);
        let mut tr = ActiveTrace::new(reg.traces().enabled(), None, "query");
        let s = tr.begin("store.scan");
        tr.end(s);
        let done = tr.finish(reg.traces()).expect("tracing is on");
        assert_eq!(reg.traces().find(done.id).unwrap(), *done);
        // Disabling metrics does not disable tracing and vice versa.
        reg.set_enabled(false);
        assert!(reg.traces().enabled());
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn counters_monotone_under_concurrency() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("m");
        let h = reg.histogram("hm");
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let (c, h, stop) = (Arc::clone(&c), Arc::clone(&h), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        c.inc();
                        h.record(42);
                    }
                })
            })
            .collect();
        let mut last_c = 0;
        let mut last_h = 0;
        for _ in 0..200 {
            let snap = reg.snapshot();
            let cv = snap.counter("m").unwrap();
            let hs = snap.histogram("hm").unwrap();
            assert!(cv >= last_c, "counter went backwards");
            assert!(hs.count >= last_h, "histogram count went backwards");
            let bucket_sum: u64 = hs.buckets.iter().map(|&(_, n)| n).sum();
            assert_eq!(hs.count, bucket_sum, "count must equal Σ buckets");
            last_c = cv;
            last_h = hs.count;
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}

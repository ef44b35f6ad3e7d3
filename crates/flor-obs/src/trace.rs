//! Request tracing: hierarchical spans collected into a bounded ring of
//! completed traces, plus the slow-query capture ring.
//!
//! A [`Trace`] is one request's execution tree: [`TraceSpan`]s with
//! parent links, per-span wall-clock offsets/durations relative to the
//! trace start, and free-form [`SpanEvent`]s (middleware verdicts, access
//! paths). Traces are *built* single-threaded by the request handler via
//! [`ActiveTrace`] — no lock, no atomics — and *published* into the
//! shared [`TraceStore`] ring with one short mutex hold at the end, so
//! concurrent sessions never contend mid-request and a reader can never
//! observe a torn (half-built) trace.
//!
//! The same `set_enabled` discipline as the metrics registry applies:
//! with tracing disabled and the slow log unarmed a request pays two
//! relaxed loads and builds an *inert* [`ActiveTrace`] — no clock read,
//! no allocation, every recording call a no-op — so instrumented code
//! passes one `&mut ActiveTrace` down one path either way. The
//! [`SlowQueryStore`] is armed independently by a latency threshold;
//! requests that exceed it capture their rendered explain report and
//! trace into its own bounded ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::{lock, unix_micros};

/// Capacity of the completed-trace ring; older traces fall off.
pub const TRACE_STORE_CAPACITY: usize = 128;

/// Capacity of the slow-query ring; older records fall off.
pub const SLOW_QUERY_CAPACITY: usize = 64;

/// A process-unique trace identity, propagated over the wire so a client
/// can retrieve "its" trace from the server afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// A fresh id: a splitmix64 hash over a wall-clock-seeded counter —
    /// unique within a process and overwhelmingly unlikely to collide
    /// across client and server processes.
    pub fn generate() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // audit: ordering — uniqueness needs only atomicity of the
        // increment, not ordering against any other memory.
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut z = unix_micros()
            .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        TraceId(z ^ (z >> 31))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A span identity, unique within its trace (dense, allocation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

/// A point annotation inside a span (a middleware verdict, an access
/// path, a gate outcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Nanoseconds since the trace started.
    pub at_nanos: u64,
    /// Free-form message, small by convention.
    pub message: String,
}

/// One completed span: a named phase of the request with its position in
/// the span tree and its measured duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Identity within the trace.
    pub id: SpanId,
    /// Enclosing span, `None` for a root.
    pub parent: Option<SpanId>,
    /// Phase name (`request`, `middleware`, `gate`, `store.scan`, ...).
    pub name: String,
    /// Start offset from the trace start, nanoseconds.
    pub start_nanos: u64,
    /// Measured duration, nanoseconds.
    pub duration_nanos: u64,
    /// Point annotations recorded while the span was open.
    pub events: Vec<SpanEvent>,
}

/// One completed request trace: the span tree plus identity and totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Trace identity (client-originated or server-generated).
    pub id: TraceId,
    /// What ran — the request verb or call site label.
    pub label: String,
    /// Free-form context (session id, peer address, plan summary).
    pub detail: String,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub started_unix_micros: u64,
    /// Whole-trace duration, nanoseconds.
    pub total_nanos: u64,
    /// Spans in begin order (parents always precede their children).
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// The first span named `name`, if any.
    pub fn span(&self, name: &str) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Indented multi-line rendering of the span tree with durations and
    /// events — what operators read.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "trace {} {} ({}us total)",
            self.id,
            self.label,
            self.total_nanos / 1_000
        );
        if !self.detail.is_empty() {
            let _ = write!(out, " [{}]", self.detail);
        }
        out.push('\n');
        for s in &self.spans {
            let depth = self.depth_of(s);
            for _ in 0..depth + 1 {
                out.push_str("  ");
            }
            let _ = writeln!(
                out,
                "{} +{}us {}us",
                s.name,
                s.start_nanos / 1_000,
                s.duration_nanos / 1_000
            );
            for e in &s.events {
                for _ in 0..depth + 2 {
                    out.push_str("  ");
                }
                let _ = writeln!(out, "* +{}us {}", e.at_nanos / 1_000, e.message);
            }
        }
        out
    }

    fn depth_of(&self, span: &TraceSpan) -> usize {
        let mut depth = 0;
        let mut cur = span.parent;
        while let Some(pid) = cur {
            depth += 1;
            cur = self
                .spans
                .iter()
                .find(|s| s.id == pid)
                .and_then(|s| s.parent);
        }
        depth
    }
}

impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.render_text().trim_end())
    }
}

/// A trace being built by one request handler, or an **inert** handle
/// that records nothing. Callers decide once, at construction, from the
/// two relaxed loads `traces.enabled() || slow.armed()`, then hand the
/// handle down the call stack by `&mut` unconditionally: on an inert
/// handle every method returns immediately — no clock read, no
/// allocation, and `event`/`set_detail` never invoke their closure — so
/// instrumented code has one path, not a traced and an untraced copy.
///
/// A recording handle is plain owned data: a span or event is a `Vec`
/// push with no synchronization; the shared ring is only touched once,
/// in [`ActiveTrace::finish`].
#[derive(Debug)]
pub struct ActiveTrace {
    /// `None` is the inert handle.
    rec: Option<Recording>,
}

/// The [`Trace`] under construction (`total_nanos` stamped at seal).
#[derive(Debug)]
struct Recording {
    trace: Trace,
    t0: Instant,
    /// Stack of indices into `trace.spans` for the currently open spans.
    open: Vec<usize>,
}

impl Recording {
    /// Nanoseconds since the trace started.
    fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: String) -> SpanId {
        let index = self.trace.spans.len();
        let id = SpanId(u32::try_from(index).unwrap_or(u32::MAX));
        self.trace.spans.push(TraceSpan {
            id,
            parent: self.open.last().map(|&i| self.trace.spans[i].id),
            name,
            start_nanos: self.elapsed_nanos(),
            duration_nanos: 0,
            events: Vec::new(),
        });
        self.open.push(index);
        id
    }
}

impl ActiveTrace {
    /// A recording handle when `on`, the inert handle otherwise. `on` is
    /// the caller's already-computed `traces.enabled() || slow.armed()`
    /// (a slow-query capture needs the measurements even while the ring
    /// itself is off; [`ActiveTrace::finish`] decides what is published).
    /// Pass the propagated `id` when the caller carried one; a fresh one
    /// is generated otherwise.
    pub fn new(on: bool, id: Option<TraceId>, label: impl Into<String>) -> ActiveTrace {
        ActiveTrace {
            rec: on.then(|| Recording {
                trace: Trace {
                    id: id.unwrap_or_else(TraceId::generate),
                    label: label.into(),
                    detail: String::new(),
                    started_unix_micros: unix_micros(),
                    total_nanos: 0,
                    spans: Vec::new(),
                },
                t0: Instant::now(),
                open: Vec::new(),
            }),
        }
    }

    /// Attach free-form context to the whole trace.
    pub fn set_detail<S: Into<String>>(&mut self, detail: impl FnOnce() -> S) {
        if let Some(r) = &mut self.rec {
            r.trace.detail = detail().into();
        }
    }

    /// Open a span named `name`, child of the innermost open span (root
    /// if none). Close it with [`ActiveTrace::end`]; anything left open
    /// is closed by `finish`.
    pub fn begin(&mut self, name: impl Into<String>) -> SpanId {
        match &mut self.rec {
            Some(r) => r.begin(name.into()),
            None => SpanId(0),
        }
    }

    /// Close span `id`, stamping its duration. Forgiving about nesting:
    /// any still-open span begun after `id` (a descendant the caller
    /// forgot) is closed at the same instant.
    pub fn end(&mut self, id: SpanId) {
        let Some(r) = &mut self.rec else { return };
        let now = r.elapsed_nanos();
        while let Some(i) = r.open.pop() {
            let s = &mut r.trace.spans[i];
            s.duration_nanos = now.saturating_sub(s.start_nanos);
            if s.id == id {
                return;
            }
        }
    }

    /// Record a point annotation on the innermost open span (a zero-width
    /// root span is created if nothing is open yet).
    pub fn event<S: Into<String>>(&mut self, message: impl FnOnce() -> S) {
        let Some(r) = &mut self.rec else { return };
        let i = match r.open.last() {
            Some(&i) => i,
            None => {
                r.begin(r.trace.label.clone());
                r.trace.spans.len() - 1
            }
        };
        let at_nanos = r.elapsed_nanos();
        r.trace.spans[i].events.push(SpanEvent {
            at_nanos,
            message: message().into(),
        });
    }

    /// Seal the builder into an immutable [`Trace`] (`None` from an inert
    /// handle): every still-open span is closed at this instant (a
    /// finished trace can never be torn), and the total is stamped.
    pub fn into_trace(self) -> Option<Trace> {
        let mut r = self.rec?;
        r.trace.total_nanos = r.elapsed_nanos();
        while let Some(i) = r.open.pop() {
            let s = &mut r.trace.spans[i];
            s.duration_nanos = r.trace.total_nanos.saturating_sub(s.start_nanos);
        }
        Some(r.trace)
    }

    /// Seal and publish into `store` (a no-op publish when the store is
    /// disabled), returning the completed trace so the caller can reuse
    /// it for a slow-query record — shared with the ring, never copied.
    /// An inert handle publishes nothing and returns `None`.
    pub fn finish(self, store: &TraceStore) -> Option<Arc<Trace>> {
        let trace = Arc::new(self.into_trace()?);
        store.push(Arc::clone(&trace));
        Some(trace)
    }
}

/// The bounded ring of completed traces. Disabled by default — tracing
/// is opt-in; when disabled, [`TraceStore::push`] drops the trace.
#[derive(Debug)]
pub struct TraceStore {
    enabled: std::sync::atomic::AtomicBool,
    capacity: usize,
    ring: Mutex<VecDeque<Arc<Trace>>>,
    recorded: AtomicU64,
}

impl Default for TraceStore {
    fn default() -> TraceStore {
        TraceStore::with_capacity(TRACE_STORE_CAPACITY)
    }
}

impl TraceStore {
    /// A disabled store retaining at most `capacity` completed traces.
    pub fn with_capacity(capacity: usize) -> TraceStore {
        TraceStore {
            enabled: std::sync::atomic::AtomicBool::new(false),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
        }
    }

    /// Whether tracing is on (one relaxed load).
    // audit: ordering — hot-path gate; a trace racing the flip being
    // recorded or dropped either way is acceptable.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip tracing on or off. Completed traces already in the ring are
    /// kept; new ones simply stop (or resume) being recorded.
    // audit: ordering — gates only whether traces are pushed; the ring
    // itself is mutex-protected, so the flag carries no publication.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total traces ever published (minus the ring length = fallen off).
    // audit: ordering — statistics read; staleness is fine.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Publish a completed trace (dropped when disabled). One short lock
    /// hold; older traces fall off past the capacity.
    pub fn push(&self, trace: Arc<Trace>) {
        if !self.enabled() {
            return;
        }
        // audit: ordering — the counter is a statistic; the trace itself
        // is published under the ring mutex right below.
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut g = lock(&self.ring);
        if g.len() == self.capacity {
            g.pop_front();
        }
        g.push_back(trace);
    }

    /// Every retained trace, oldest first.
    pub fn snapshot(&self) -> Vec<Trace> {
        lock(&self.ring).iter().map(|t| (**t).clone()).collect()
    }

    /// The `limit` most recent traces, newest first.
    pub fn recent(&self, limit: usize) -> Vec<Trace> {
        let ring = lock(&self.ring);
        let recent = ring.iter().rev().take(limit);
        recent.map(|t| (**t).clone()).collect()
    }

    /// The retained trace with identity `id`, if it has not fallen off.
    pub fn find(&self, id: TraceId) -> Option<Trace> {
        let ring = lock(&self.ring);
        let found = ring.iter().rev().find(|t| t.id == id);
        found.map(|t| (**t).clone())
    }
}

/// One slow request: its trace, the rendered explain report, and the
/// threshold it tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// The request's trace (empty span list when tracing was disabled
    /// and only the slow-query threshold was armed).
    pub trace: Trace,
    /// Request verb or call-site label.
    pub verb: String,
    /// Summary of the plan that ran.
    pub plan: String,
    /// The rendered explain report (access path, pruning, rows, stage
    /// timings) measured from this execution.
    pub explain: String,
    /// Whole-request duration, nanoseconds.
    pub total_nanos: u64,
    /// The armed threshold at capture time, nanoseconds.
    pub threshold_nanos: u64,
    /// Wall-clock capture time, microseconds since the Unix epoch.
    pub at_unix_micros: u64,
}

impl SlowQueryRecord {
    /// Multi-line operator rendering: headline, explain report, trace.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SLOW {} {}us (threshold {}us) plan {}",
            self.verb,
            self.total_nanos / 1_000,
            self.threshold_nanos / 1_000,
            self.plan
        );
        for line in self.explain.lines() {
            let _ = writeln!(out, "  {line}");
        }
        for line in self.trace.render_text().lines() {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

impl std::fmt::Display for SlowQueryRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.render_text().trim_end())
    }
}

/// The bounded slow-query ring, armed by a latency threshold.
/// Unarmed (no threshold) by default; arming is independent of tracing —
/// a slow request captured while tracing is off carries a span-less
/// trace stub.
#[derive(Debug)]
pub struct SlowQueryStore {
    /// Threshold in nanoseconds; `u64::MAX` = unarmed.
    threshold_nanos: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowQueryRecord>>,
}

impl Default for SlowQueryStore {
    fn default() -> SlowQueryStore {
        SlowQueryStore::with_capacity(SLOW_QUERY_CAPACITY)
    }
}

impl SlowQueryStore {
    /// An unarmed store retaining at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> SlowQueryStore {
        SlowQueryStore {
            threshold_nanos: AtomicU64::new(u64::MAX),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Arm with `threshold` (requests strictly slower are captured), or
    /// disarm with `None`.
    pub fn set_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(u64::MAX);
        // audit: ordering — the threshold is a standalone tuning knob;
        // in-flight queries may use the old value for one request.
        self.threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The armed threshold in nanoseconds, `None` when unarmed.
    // audit: ordering — reads the standalone tuning knob; no ordering
    // with the slow-query ring is needed (it has its own mutex).
    pub fn threshold_nanos(&self) -> Option<u64> {
        match self.threshold_nanos.load(Ordering::Relaxed) {
            u64::MAX => None,
            n => Some(n),
        }
    }

    /// Whether a threshold is armed (one relaxed load — the hot-path
    /// gate).
    // audit: ordering — hot-path gate; racing an arm/disarm merely
    // captures or skips one borderline query.
    pub fn armed(&self) -> bool {
        self.threshold_nanos.load(Ordering::Relaxed) != u64::MAX
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a captured record (the caller already compared against the
    /// threshold); older records fall off past the capacity.
    pub fn record(&self, record: SlowQueryRecord) {
        let mut g = lock(&self.ring);
        if g.len() == self.capacity {
            g.pop_front();
        }
        g.push_back(record);
    }

    /// Every retained record, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQueryRecord> {
        lock(&self.ring).iter().cloned().collect()
    }

    /// The `limit` most recent records, newest first.
    pub fn recent(&self, limit: usize) -> Vec<SlowQueryRecord> {
        lock(&self.ring).iter().rev().take(limit).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(id: u64, label: &str) -> Trace {
        ActiveTrace::new(true, Some(TraceId(id)), label)
            .into_trace()
            .expect("recording handle")
    }

    #[test]
    fn trace_ids_are_distinct() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        assert_eq!(format!("{}", TraceId(0xab)).len(), 16);
    }

    #[test]
    fn disabled_store_drops_pushes() {
        let store = TraceStore::default();
        assert!(!store.enabled());
        store.push(Arc::new(sealed(1, "x")));
        assert!(store.snapshot().is_empty());
        assert_eq!(store.recorded(), 0);
    }

    #[test]
    fn spans_nest_and_events_attach() {
        let store = TraceStore::default();
        store.set_enabled(true);
        let mut tr = ActiveTrace::new(true, Some(TraceId(7)), "request");
        let root = tr.begin("request");
        let mw = tr.begin("middleware");
        tr.event(|| "auth: ok");
        tr.end(mw);
        let ex = tr.begin("execute");
        let scan = tr.begin("store.scan");
        tr.end(scan);
        tr.end(ex);
        tr.end(root);
        let trace = tr.finish(&store).expect("recording");
        assert_eq!(trace.id, TraceId(7));
        assert_eq!(trace.spans.len(), 4);
        let mw = trace.span("middleware").unwrap();
        assert_eq!(mw.parent, Some(trace.span("request").unwrap().id));
        assert_eq!(mw.events.len(), 1);
        let scan = trace.span("store.scan").unwrap();
        assert_eq!(scan.parent, Some(trace.span("execute").unwrap().id));
        assert_eq!(store.find(TraceId(7)).unwrap(), *trace);
        let text = trace.render_text();
        assert!(text.contains("middleware"));
        assert!(text.contains("auth: ok"));
    }

    #[test]
    fn finish_closes_leftover_spans() {
        let mut tr = ActiveTrace::new(true, None, "r");
        let _a = tr.begin("outer");
        let _b = tr.begin("inner");
        std::thread::sleep(Duration::from_millis(1));
        let trace = tr.into_trace().expect("recording");
        for s in &trace.spans {
            assert!(s.duration_nanos > 0, "leftover span {} not closed", s.name);
            assert!(s.start_nanos + s.duration_nanos <= trace.total_nanos);
        }
    }

    #[test]
    fn out_of_order_end_closes_descendants() {
        let mut tr = ActiveTrace::new(true, None, "r");
        let outer = tr.begin("outer");
        let _inner = tr.begin("inner");
        tr.end(outer); // forgot to end inner first
        let trace = tr.into_trace().expect("recording");
        assert!(trace.spans.iter().all(|s| s.duration_nanos
            <= trace
                .span("outer")
                .map(|o| o.start_nanos + o.duration_nanos)
                .unwrap_or(u64::MAX)));
    }

    #[test]
    fn ring_is_bounded_and_recent_is_newest_first() {
        let store = TraceStore::with_capacity(4);
        store.set_enabled(true);
        for i in 0..10u64 {
            store.push(Arc::new(sealed(i, "t")));
        }
        let all = store.snapshot();
        assert_eq!(all.len(), 4);
        assert_eq!(all.first().unwrap().id, TraceId(6));
        assert_eq!(store.recorded(), 10);
        let recent = store.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].id, TraceId(9));
        assert!(store.find(TraceId(0)).is_none(), "fell off the ring");
    }

    #[test]
    fn slow_store_arms_and_bounds() {
        let slow = SlowQueryStore::with_capacity(2);
        assert!(!slow.armed());
        assert_eq!(slow.threshold_nanos(), None);
        slow.set_threshold(Some(Duration::from_micros(5)));
        assert!(slow.armed());
        assert_eq!(slow.threshold_nanos(), Some(5_000));
        for i in 0..3u64 {
            slow.record(SlowQueryRecord {
                trace: sealed(i, "q"),
                verb: "query".into(),
                plan: format!("plan{i}"),
                explain: "access=FullScan".into(),
                total_nanos: 9_000,
                threshold_nanos: 5_000,
                at_unix_micros: unix_micros(),
            });
        }
        assert_eq!(slow.snapshot().len(), 2);
        assert_eq!(slow.recent(1)[0].plan, "plan2");
        let text = slow.recent(1)[0].render_text();
        assert!(text.contains("SLOW query"));
        assert!(text.contains("access=FullScan"));
        slow.set_threshold(None);
        assert!(!slow.armed());
    }
}

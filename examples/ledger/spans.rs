//! The ledger's own tracing: spans recorded in memory around every call
//! it makes into the system, the server's span trees grafted under the
//! client span that caused them, and the self-time arithmetic that turns
//! the lot into one time-share table per workload.
//!
//! Nothing here touches the crates under test: spans inside them are a
//! later issue. Where a call has no span tree of its own (embedded
//! commits, backfill), its children are synthesised from the deltas of
//! the registry histograms the call moved.

use crate::stats::{json_num, json_str, Outcome};
use flordb::obs::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One span: a named interval on the ledger's clock, attributed to the
/// crate (`layer`) whose code ran in it, under the span that caused it.
/// Spans of one request share `trace`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub trace: u64,
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span sink for one load thread. Ids are offset by the
/// thread's `base`, so recorders merge by concatenation. A recorder that
/// is off (an untraced stretch) hands out [`NO_SPAN`] and records
/// nothing, so the load loops run the same code traced or not.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    base: u32,
    on: bool,
    pub spans: Vec<Span>,
}

/// The id an off recorder hands out; every call taking it is a no-op.
pub const NO_SPAN: u32 = u32::MAX;

impl Recorder {
    pub fn new(t0: Instant, thread: u32, on: bool) -> Recorder {
        Recorder {
            t0,
            base: thread << 24,
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn at(&mut self, id: u32) -> Option<&mut Span> {
        (id != NO_SPAN).then(|| &mut self.spans[(id - self.base) as usize])
    }

    /// Open a span now, under `parent` ([`NO_SPAN`] for a root);
    /// [`Recorder::close`] stamps its end.
    pub fn open(&mut self, name: &str, layer: &'static str, parent: u32) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let now = self.now();
        let parent = (parent != NO_SPAN).then_some(parent);
        self.push(name, layer, parent, 0, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        if let Some(s) = self.at(id) {
            s.end_ns = now;
        }
    }

    /// Stamp the shared request id on a span once the call that mints it
    /// has returned.
    pub fn set_trace(&mut self, id: u32, trace: u64) {
        if let Some(s) = self.at(id) {
            s.trace = trace;
        }
    }

    fn push(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<u32>,
        trace: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.base + self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            layer,
            start_ns,
            end_ns,
        });
        id
    }

    /// A synthetic child of `parent` lasting `dur_ns`, laid out from
    /// `offset_ns` after the parent's start and clipped to the parent.
    /// Returns the child's id and the offset just past it, so siblings
    /// built from histogram deltas can be packed one after another.
    pub fn child(
        &mut self,
        parent: u32,
        name: &str,
        layer: &'static str,
        offset_ns: u64,
        dur_ns: u64,
    ) -> (u32, u64) {
        let Some(p) = self.at(parent) else {
            return (NO_SPAN, 0);
        };
        let (p_start, p_end, trace) = (p.start_ns, p.end_ns, p.trace);
        let start = (p_start + offset_ns).min(p_end);
        let end = (start + dur_ns).min(p_end);
        let id = self.push(name, layer, Some(parent), trace, start, end);
        (id, end - p_start)
    }

    /// Graft a server-side span tree under the client span that caused
    /// it. Both clocks are this process's monotonic clock but the trace
    /// carries only offsets from its own start, so the server root is
    /// centred in the client span: what is left on either side is the
    /// request's and the response's share of wire and codec.
    pub fn graft(&mut self, parent: u32, trace: &Trace) {
        let Some(p) = self.at(parent) else {
            return;
        };
        let (p_start, p_end, tid) = (p.start_ns, p.end_ns, p.trace);
        let slack = (p_end - p_start).saturating_sub(trace.total_nanos);
        let origin = p_start + slack / 2;
        let mut ids: BTreeMap<u32, u32> = BTreeMap::new();
        for s in &trace.spans {
            let start = (origin + s.start_nanos).min(p_end);
            let end = (start + s.duration_nanos).min(p_end);
            let up = s
                .parent
                .and_then(|sp| ids.get(&sp.0).copied())
                .unwrap_or(parent);
            let id = self.push(&s.name, server_layer(&s.name), Some(up), tid, start, end);
            ids.insert(s.id.0, id);
        }
    }
}

/// The crate a span of the server's request trace runs in.
pub fn server_layer(name: &str) -> &'static str {
    match name {
        "store.scan" => "flor-store",
        "pivot" | "post_pass" => "flor-df",
        "execute" => "flor-core",
        _ => "flor-serve",
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut kids: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u32, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        let Some((p, (p_start, p_end))) = s.parent.and_then(|p| Some((p, *bounds.get(&p)?))) else {
            continue;
        };
        let (a, b) = (s.start_ns.max(p_start), s.end_ns.min(p_end));
        if b > a {
            kids.entry(p).or_default().push((a, b));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(iv) = kids.get_mut(&s.id) {
                iv.sort_unstable();
                let (mut lo, mut hi) = iv[0];
                for &(a, b) in &iv[1..] {
                    if a > hi {
                        covered += hi - lo;
                        (lo, hi) = (a, b);
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per-layer share of the traced wall time (the summed duration of the
/// root spans — one per load thread), plus the share the self times
/// account for in total, which the arithmetic makes 1 up to clipping.
pub fn time_share(spans: &[Span]) -> (Vec<(String, f64)>, f64) {
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let own = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_default() += own[&s.id];
    }
    let wall = wall.max(1) as f64;
    let total: u64 = by_layer.values().sum();
    let shares = by_layer
        .into_iter()
        .map(|(layer, ns)| (layer.to_string(), ns as f64 / wall))
        .collect();
    (shares, total as f64 / wall)
}

/// Raw spans as JSON lines, for `--trace-out`.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            json_str(&format!("{:016x}", s.trace)),
            json_str(&s.name),
            json_str(s.layer),
            json_num(s.start_ns as f64),
            json_num(s.end_ns as f64),
        ));
    }
    out
}

/// A handle on one registry histogram, for reading how many nanoseconds
/// a single call added to it without snapshotting the whole registry.
pub struct HistSum(Arc<Histogram>);

impl HistSum {
    pub fn of(registry: &MetricsRegistry, name: &str) -> HistSum {
        HistSum(registry.histogram(name))
    }

    /// Nanoseconds recorded so far.
    pub fn ns(&self) -> u64 {
        self.0.snapshot().sum
    }
}

/// How far a registry histogram moved between two snapshots:
/// `(samples, summed nanoseconds)`.
pub fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let get = |s: &MetricsSnapshot| {
        s.histogram(name)
            .map_or((0, 0), |h: &HistogramSnapshot| (h.count, h.sum))
    };
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

/// Mean of a histogram's movement between two snapshots, in `unit_ns`
/// nanoseconds per unit (1e3 for µs, 1e6 for ms); 0 if it did not move.
pub fn hist_mean(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    unit_ns: f64,
) -> (f64, usize) {
    let (n, sum) = hist_delta(before, after, name);
    if n == 0 {
        (0.0, 0)
    } else {
        (sum as f64 / n as f64 / unit_ns, n as usize)
    }
}

/// Report the mean movement of each `(metric, histogram, unit_ns)`
/// between two snapshots.
pub fn push_hist_means(
    out: &mut Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    metrics: &[(&'static str, &str, f64)],
) {
    for (metric, hist, unit_ns) in metrics {
        let (v, n) = hist_mean(before, after, hist, *unit_ns);
        out.push(metric, v, n);
    }
}

pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

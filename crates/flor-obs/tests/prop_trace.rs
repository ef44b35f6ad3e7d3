//! Concurrency properties of the trace and slow-query rings: many
//! threads building nested traces into one shared [`TraceStore`] must
//! never tear a trace, leak past the ring capacity, or publish a span
//! whose parent is missing or whose interval escapes its parent's.

use flor_obs::{ActiveTrace, SlowQueryRecord, SlowQueryStore, SpanId, Trace, TraceId, TraceStore};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One thread's trace-building script: for each entry, `depth` nested
/// spans are opened, `events` events fired at the innermost, then all
/// spans closed (half of them deliberately left for `finish` to close,
/// exercising the leftover-span path).
#[derive(Debug, Clone)]
struct Script {
    traces: Vec<(u8, u8, bool)>, // (depth, events, leave_open)
}

fn script_strategy() -> impl Strategy<Value = Script> {
    proptest::collection::vec((0u8..5, 0u8..3, any::<bool>()), 1..6)
        .prop_map(|traces| Script { traces })
}

/// Runs `script` on handles built with `on`, returning how many event
/// closures were invoked.
fn run_script(store: &TraceStore, on: bool, seed: u64, script: &Script) -> usize {
    let mut formatted = 0;
    for (n, &(depth, events, leave_open)) in script.traces.iter().enumerate() {
        let id = TraceId(seed.wrapping_mul(1000).wrapping_add(n as u64));
        let mut tr = ActiveTrace::new(on, Some(id), format!("t{seed}"));
        tr.set_detail(|| {
            formatted += 1;
            format!("script {seed}")
        });
        let mut open = Vec::new();
        for d in 0..depth {
            open.push(tr.begin(format!("span{d}")));
        }
        for e in 0..events {
            tr.event(|| {
                formatted += 1;
                format!("ev{e}")
            });
        }
        if !leave_open {
            while let Some(id) = open.pop() {
                tr.end(id);
            }
        }
        assert_eq!(tr.finish(store).is_some(), on);
    }
    formatted
}

/// Every published trace is well-formed: unique span ids, parents
/// present, child intervals inside the parent's, nothing open.
fn check_trace(trace: &Trace) {
    let mut by_id: HashMap<SpanId, &flor_obs::TraceSpan> = HashMap::new();
    for span in &trace.spans {
        assert!(
            by_id.insert(span.id, span).is_none(),
            "duplicate span id {:?} in trace {}",
            span.id,
            trace.id
        );
    }
    for span in &trace.spans {
        let end = span.start_nanos + span.duration_nanos;
        assert!(
            end <= trace.total_nanos,
            "span `{}` [{}..{}] escapes trace total {}",
            span.name,
            span.start_nanos,
            end,
            trace.total_nanos
        );
        if let Some(parent) = span.parent {
            let p = by_id.get(&parent).unwrap_or_else(|| {
                panic!("span `{}` orphaned: parent {parent:?} missing", span.name)
            });
            assert!(
                p.start_nanos <= span.start_nanos && end <= p.start_nanos + p.duration_nanos,
                "span `{}` [{}..{}] escapes parent `{}` [{}..{}]",
                span.name,
                span.start_nanos,
                end,
                p.name,
                p.start_nanos,
                p.start_nanos + p.duration_nanos
            );
        }
        for ev in &span.events {
            assert!(
                span.start_nanos <= ev.at_nanos && ev.at_nanos <= trace.total_nanos,
                "event at {} outside span `{}`",
                ev.at_nanos,
                span.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_traces_stay_bounded_and_untorn(
        scripts in proptest::collection::vec(script_strategy(), 2..5),
        capacity in 1usize..8,
    ) {
        let store = Arc::new(TraceStore::with_capacity(capacity));
        store.set_enabled(true);
        let expected: u64 = scripts.iter().map(|s| s.traces.len() as u64).sum();

        let handles: Vec<_> = scripts
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, script)| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || run_script(&store, true, i as u64, &script))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        prop_assert_eq!(store.recorded(), expected);
        let snap = store.snapshot();
        prop_assert!(snap.len() <= capacity);
        prop_assert_eq!(snap.len(), (expected as usize).min(capacity));
        for trace in &snap {
            check_trace(trace);
        }
        // recent() is the same window, newest first.
        let recent = store.recent(capacity);
        prop_assert_eq!(recent.len(), snap.len());
        for (a, b) in recent.iter().zip(snap.iter().rev()) {
            prop_assert_eq!(a.id, b.id);
        }
    }

    /// The inert handle: any begin/end/event script on an off handle
    /// seals into no trace at all (`run_script` asserts `finish` is
    /// `None`, so zero spans), never invokes an event or detail closure,
    /// and `finish` leaves an *enabled* ring and its counter untouched.
    #[test]
    fn inert_handle_records_nothing(script in script_strategy(), seed in 0u64..1000) {
        let store = TraceStore::with_capacity(4);
        store.set_enabled(true);
        run_script(&store, true, seed, &Script { traces: vec![(1, 1, false)] });
        let (recorded, ring) = (store.recorded(), store.snapshot());

        prop_assert_eq!(run_script(&store, false, seed, &script), 0);
        prop_assert_eq!(store.recorded(), recorded);
        prop_assert_eq!(store.snapshot(), ring);
    }

    #[test]
    fn concurrent_slow_queries_stay_bounded(
        per_thread in proptest::collection::vec(1usize..8, 2..5),
        capacity in 1usize..6,
    ) {
        let store = Arc::new(SlowQueryStore::with_capacity(capacity));
        store.set_threshold(Some(Duration::ZERO));
        let total: usize = per_thread.iter().sum();

        let handles: Vec<_> = per_thread
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for k in 0..n {
                        let tr = ActiveTrace::new(true, Some(TraceId((i * 100 + k) as u64)), "slow");
                        store.record(SlowQueryRecord {
                            trace: tr.into_trace().expect("recording handle"),
                            verb: "query".into(),
                            plan: format!("[{i}:{k}]"),
                            explain: String::new(),
                            total_nanos: 1,
                            threshold_nanos: 0,
                            at_unix_micros: 0,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let snap = store.snapshot();
        prop_assert_eq!(snap.len(), total.min(capacity));
        for rec in &snap {
            check_trace(&rec.trace);
            prop_assert_eq!(rec.verb.as_str(), "query");
        }
    }
}

/// Nesting built across a realistic parent/child call structure (not
/// proptest-driven): the exact shape request → middleware/gate/execute
/// the server produces, validated for containment.
#[test]
fn nested_request_shape_is_contained() {
    let store = TraceStore::with_capacity(4);
    store.set_enabled(true);
    let mut tr = ActiveTrace::new(store.enabled(), None, "query");
    let root = tr.begin("request");
    let mw = tr.begin("middleware");
    tr.event(|| "auth: ok");
    tr.event(|| "rate-limit: ok");
    tr.end(mw);
    let gate = tr.begin("gate");
    tr.event(|| "admitted");
    tr.end(gate);
    let exec = tr.begin("execute");
    let scan = tr.begin("store.scan");
    tr.end(scan);
    tr.end(exec);
    tr.end(root);
    let trace = tr.finish(&store).expect("enabled");

    check_trace(&trace);
    assert_eq!(trace.spans.len(), 5);
    let root_id = trace.span("request").unwrap().id;
    for name in ["middleware", "gate", "execute"] {
        assert_eq!(trace.span(name).unwrap().parent, Some(root_id));
    }
    assert_eq!(
        trace.span("store.scan").unwrap().parent,
        Some(trace.span("execute").unwrap().id)
    );
    assert!(store.find(trace.id).is_some());
}

//! Wire-decoder robustness as a property (the fixed malformed-frame cases
//! live in `protocol_robustness.rs`): every generated `Request` and
//! `Response` payload round-trips, fails *typed* on every strict prefix,
//! and survives every single-byte mutation without panicking or
//! allocating more than a constant multiple of the payload.

use flor_df::{Column, DataFrame, Value};
use flor_obs::{SlowQueryRecord, SpanEvent, SpanId, Trace, TraceId, TraceSpan};
use flor_serve::{ErrorCode, HealthReport, Request, Response};
use flor_store::{CmpOp, Predicate};
use flor_view::QueryPlan;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting what each thread asks of it.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a `const`-initialised,
// destructor-free thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What a decode may request per payload byte, plus a floor for error
/// strings and first vector growths. A null cell is one bitmap bit that
/// becomes a 24-byte `Value` (192 bytes per bitmap byte), and a frame is
/// validated by hashing its column names;
/// the point is that the factor is a constant, where a count lifted from
/// the payload used to size allocations on its own.
const ALLOC_PER_BYTE: usize = 256;
const ALLOC_FLOOR: usize = 16 << 10;

/// The three properties, for one valid payload `bytes` of `want`.
fn check_decoder<T: PartialEq + std::fmt::Debug, E: std::fmt::Debug>(
    bytes: &[u8],
    want: &T,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    assert_eq!(&decode(bytes).expect("valid payload decodes"), want);
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    let budget = ALLOC_PER_BYTE * bytes.len() + ALLOC_FLOOR;
    let mut mutated = bytes.to_vec();
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xff] {
            mutated[at] ^= mask;
            let before = REQUESTED.with(Cell::get);
            let _ = decode(&mutated); // Ok or Err; a panic fails the test
            let spent = REQUESTED.with(Cell::get) - before;
            assert!(
                spent <= budget,
                "byte {at} ^ {mask:#x}: decode requested {spent} bytes for a {}-byte payload",
                bytes.len()
            );
            mutated[at] = bytes[at];
        }
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float), // raw bit patterns: NaNs included
        "[ -~]{0,12}".prop_map(Value::from),
        Just(Value::from("世界")),
    ]
}

fn arb_opt<S: Strategy + 'static>(some: S) -> BoxedStrategy<Option<S::Value>>
where
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), some.prop_map(Some)].boxed()
}

fn arb_names() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z_]{0,8}", 0..4)
}

fn arb_plan() -> impl Strategy<Value = QueryPlan> {
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let predicate =
        ("[a-z_]{0,8}", op, arb_value()).prop_map(|(col, op, value)| Predicate { col, op, value });
    (
        arb_names(),
        proptest::collection::vec(predicate, 0..3),
        arb_opt(arb_names()),
        proptest::collection::vec(("[a-z_]{0,8}", any::<bool>()), 0..3),
        arb_opt(0usize..1_000_000),
    )
        .prop_map(|(names, predicates, latest_group, order_by, limit)| {
            let mut plan = QueryPlan::new(&[]);
            plan.names = names;
            plan.predicates = predicates;
            plan.latest_group = latest_group;
            plan.order_by = order_by;
            plan.limit = limit;
            plan
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    let plain = prop_oneof![
        (any::<u16>(), arb_opt("[ -~]{0,16}"))
            .prop_map(|(version, token)| Request::Hello { version, token }),
        arb_plan().prop_map(|plan| Request::Query { plan }),
        Just(Request::Pin),
        Just(Request::Epoch),
        Just(Request::Metrics),
        Just(Request::MetricsPrometheus),
        Just(Request::Close),
        Just(Request::Health),
        any::<u32>().prop_map(|limit| Request::Traces { limit }),
        any::<u32>().prop_map(|limit| Request::SlowQueries { limit }),
    ];
    (arb_opt(any::<u64>()), plain).prop_map(|(trace, inner)| match trace {
        Some(id) => Request::Traced {
            trace: TraceId(id),
            inner: Box::new(inner),
        },
        None => inner,
    })
}

/// One column's five cells: every `Value` variant mixed, one kind with
/// nulls among its cells, or nulls only — each column encoding.
fn arb_cells() -> impl Strategy<Value = Vec<Value>> {
    fn uniform(kind: impl Strategy<Value = Value> + 'static) -> BoxedStrategy<Vec<Value>> {
        proptest::collection::vec(prop_oneof![1 => Just(Value::Null), 3 => kind], 5).boxed()
    }
    prop_oneof![
        proptest::collection::vec(arb_value(), 5),
        uniform(any::<i64>().prop_map(Value::Int)),
        uniform(any::<f64>().prop_map(Value::Float)), // raw bit patterns: NaNs included
        uniform(any::<bool>().prop_map(Value::Bool)),
        uniform(prop_oneof![
            "[ab]{0,1}".prop_map(Value::from),
            Just(Value::from("世界"))
        ]),
        Just(vec![Value::Null; 5]),
    ]
}

/// A frame of up to three columns and five rows (zero-row frames
/// included) built from [`arb_cells`].
fn arb_frame() -> impl Strategy<Value = DataFrame> {
    (0usize..6, proptest::collection::vec(arb_cells(), 0..4)).prop_map(|(n_rows, cols)| {
        let cols = cols.into_iter().enumerate().map(|(i, mut values)| {
            values.truncate(n_rows);
            Column::new(format!("c{i}"), values)
        });
        DataFrame::from_columns(cols.collect()).expect("equal lengths, distinct names")
    })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    let event = (any::<u64>(), "[ -~]{0,16}")
        .prop_map(|(at_nanos, message)| SpanEvent { at_nanos, message });
    let span = (
        any::<u32>(),
        arb_opt(any::<u32>()),
        "[a-z.]{0,12}",
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(event, 0..3),
    )
        .prop_map(
            |(id, parent, name, start_nanos, duration_nanos, events)| TraceSpan {
                id: SpanId(id),
                parent: parent.map(SpanId),
                name,
                start_nanos,
                duration_nanos,
                events,
            },
        );
    (
        any::<u64>(),
        "[a-z]{0,8}",
        "[ -~]{0,16}",
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(span, 0..3),
    )
        .prop_map(
            |(id, label, detail, started_unix_micros, total_nanos, spans)| Trace {
                id: TraceId(id),
                label,
                detail,
                started_unix_micros,
                total_nanos,
                spans,
            },
        )
}

fn arb_slow_query() -> impl Strategy<Value = SlowQueryRecord> {
    (
        arb_trace(),
        "[a-z]{0,8}",
        "[ -~]{0,16}",
        "[ -~]{0,16}",
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(trace, verb, plan, explain, nanos)| SlowQueryRecord {
            trace,
            verb,
            plan,
            explain,
            total_nanos: nanos.0,
            threshold_nanos: nanos.1,
            at_unix_micros: nanos.2,
        })
}

fn arb_health() -> impl Strategy<Value = HealthReport> {
    (
        any::<bool>(),
        proptest::collection::vec(any::<u64>(), 10),
        arb_opt(any::<u64>()),
    )
        .prop_map(|(follower, n, follower_lag)| HealthReport {
            follower,
            epoch: n[0],
            wal_offset_bytes: n[1],
            last_checkpoint_epoch: n[2],
            checkpoints: n[3],
            compactions: n[4],
            total_rows: n[5],
            live_sessions: n[6],
            max_sessions: n[7],
            in_flight: n[8],
            max_in_flight: n[9],
            follower_lag,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    let code = prop_oneof![
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::Unauthorized),
        Just(ErrorCode::Busy),
        Just(ErrorCode::RateLimited),
        Just(ErrorCode::ReadOnly),
        Just(ErrorCode::Internal),
    ];
    prop_oneof![
        (any::<u16>(), any::<u64>())
            .prop_map(|(version, epoch)| Response::HelloOk { version, epoch }),
        (any::<u64>(), arb_frame()).prop_map(|(epoch, df)| Response::Frame { epoch, df }),
        any::<u64>().prop_map(|epoch| Response::Pinned { epoch }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(pinned, latest)| Response::Epochs { pinned, latest }),
        "[ -~]{0,32}".prop_map(|body| Response::Text { body }),
        (code, "[ -~]{0,16}").prop_map(|(code, message)| Response::Error { code, message }),
        Just(Response::Bye),
        arb_health().prop_map(Response::Health),
        proptest::collection::vec(arb_trace(), 0..3).prop_map(|traces| Response::Traces { traces }),
        proptest::collection::vec(arb_slow_query(), 0..3)
            .prop_map(|records| Response::SlowQueries { records }),
    ]
}

proptest! {
    #[test]
    fn requests_decode_or_fail_typed(req in arb_request()) {
        check_decoder(&req.encode(), &req, |b| Request::decode(b));
    }

    #[test]
    fn responses_decode_or_fail_typed(resp in arb_response()) {
        check_decoder(&resp.encode(), &resp, |b| Response::decode(b));
    }
}

//! The flor-serve acceptance test: N concurrent client sessions query a
//! server whose underlying `Flor` is being committed to the whole time.
//! Every response must be **byte-identical** (compared on the encoded
//! wire frame) to a local [`Flor::run_plan_at`] against the snapshot
//! pinned at the session's epoch — the snapshot-per-request guarantee.

use flor_core::Flor;
use flor_df::{DataFrame, DfError};
use flor_serve::{Client, ErrorCode, Response, ServeError, ServeExt, ServerConfig};
use flor_store::{CmpOp, Snapshot, StoreError};
use flor_view::QueryPlan;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

mod raw;
use raw::RawSession;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 12;
const WRITER_ROUNDS: usize = 40;

/// The oracle: one pinned snapshot per epoch, recorded by the writer
/// thread immediately after each commit (it is the sole committer, so
/// the epoch is stable until its own next commit).
type EpochMap = Arc<Mutex<HashMap<u64, Snapshot>>>;

fn record_epoch(map: &EpochMap, flor: &Flor) {
    let snap = flor.db.pin();
    map.lock().unwrap().insert(snap.epoch(), snap);
}

/// Wait for the writer to record the oracle snapshot for `epoch` (the
/// server can pin an epoch a beat before the writer's map insert lands).
fn snapshot_at(map: &EpochMap, epoch: u64) -> Snapshot {
    for _ in 0..2000 {
        if let Some(s) = map.lock().unwrap().get(&epoch) {
            return s.clone();
        }
        thread::sleep(Duration::from_micros(200));
    }
    panic!("no oracle snapshot recorded for epoch {epoch}");
}

fn plans() -> Vec<QueryPlan> {
    let mut ordered = QueryPlan::new(&["loss", "acc"]);
    ordered.order_by.push(("tstamp".to_string(), false));
    ordered.limit = Some(5);
    vec![
        QueryPlan::new(&["loss"]),
        QueryPlan::new(&["loss", "acc"]),
        QueryPlan::with_latest(&["loss", "acc"], &["filename"]),
        QueryPlan::new(&["loss", "acc"]).filter("tstamp", CmpOp::Ge, 3i64),
        ordered,
    ]
}

#[test]
fn concurrent_sessions_see_pinned_epochs_byte_identically() {
    let flor = Flor::new("serve-sessions");
    flor.set_filename("train.fl");
    flor.log("loss", 1.0);
    flor.log("acc", 0.1);
    flor.commit("seed").expect("seed commit");

    let map: EpochMap = Arc::new(Mutex::new(HashMap::new()));
    record_epoch(&map, &flor);

    let handle = flor
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("serve");
    let addr = handle.addr();

    // Committing writer, running underneath the whole query barrage.
    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let flor = flor.clone();
        let map = Arc::clone(&map);
        let done = Arc::clone(&writer_done);
        thread::spawn(move || {
            for round in 0..WRITER_ROUNDS {
                flor.log("loss", 1.0 / (round + 2) as f64);
                flor.log("acc", round as f64 / WRITER_ROUNDS as f64);
                flor.commit(&format!("round {round}")).expect("commit");
                record_epoch(&map, &flor);
                thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::Release);
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let flor = flor.clone();
            let map = Arc::clone(&map);
            thread::spawn(move || {
                let mut client = Client::connect(addr, None).expect("connect");
                let plans = plans();
                for q in 0..QUERIES_PER_CLIENT {
                    // Re-pin partway through so sessions exercise both a
                    // stale pin under churn and a fresh one.
                    if q == QUERIES_PER_CLIENT / 2 {
                        client.pin().expect("pin");
                    }
                    let plan = &plans[(c + q) % plans.len()];
                    let (epoch, df) = client.query(plan).expect("query");
                    assert_eq!(
                        epoch,
                        client.epoch(),
                        "response epoch drifted from the session pin"
                    );
                    let oracle_snap = snapshot_at(&map, epoch);
                    let oracle = flor
                        .run_plan_at(&oracle_snap, plan)
                        .expect("local run_plan_at");
                    // Byte-identical: compare the encoded wire frames.
                    let got = Response::Frame { epoch, df }.encode();
                    let want = Response::Frame { epoch, df: oracle }.encode();
                    assert_eq!(got, want, "client {c} query {q} diverged at epoch {epoch}");
                    thread::sleep(Duration::from_micros(500));
                }
                let (pinned, latest) = client.epochs().expect("epochs");
                assert!(latest >= pinned);
                client.close().expect("close");
            })
        })
        .collect();

    for c in clients {
        c.join().expect("client thread");
    }
    writer.join().expect("writer thread");
    assert!(writer_done.load(Ordering::Acquire));
    handle.stop();
}

#[test]
fn metrics_verbs_serve_both_renderings() {
    let flor = Flor::new("serve-metrics");
    flor.set_filename("m.fl");
    flor.log("loss", 0.5);
    flor.commit("seed").expect("commit");

    let handle = flor
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("serve");
    let mut client = Client::connect(handle.addr(), None).expect("connect");

    let text = client.metrics_text().expect("metrics");
    assert!(text.contains("store.commit.nanos"));

    let prom = client.metrics_prometheus().expect("prometheus");
    assert!(prom.contains("# TYPE store_commit_nanos histogram"));
    assert!(prom.contains("store_commit_nanos_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("# TYPE store_commit_rows_total counter"));

    client.close().expect("close");
    handle.stop();
}

#[test]
fn a_value_named_like_an_index_column_is_the_same_error_over_the_wire() {
    let flor = Flor::new("serve-collide");
    flor.set_filename("c.fl");
    flor.log("tstamp", 99);
    flor.log("loss", 0.5);
    flor.commit("seed").expect("commit");
    let plan = QueryPlan::new(&["tstamp", "loss"]);
    let local = flor.run_plan_full(&plan).expect_err("tstamp collides");
    assert!(
        matches!(&local, StoreError::Df(DfError::DuplicateColumn(c)) if c == "tstamp"),
        "{local:?}"
    );

    let handle = flor
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("serve");
    let mut client = Client::connect(handle.addr(), None).expect("connect");
    match client.query(&plan) {
        Err(ServeError::Remote {
            code: ErrorCode::Internal,
            message,
        }) => assert_eq!(message, local.to_string()),
        other => panic!("expected the duplicate-column error, got {other:?}"),
    }
    // The session outlives the refused plan.
    let (_, df) = client.query(&QueryPlan::new(&["loss"])).expect("query");
    assert_eq!(df.n_rows(), 1);
    client.close().expect("close");
    handle.stop();
}

/// Plans with nothing below the pivot, which the view catalog answers
/// when it is not past the session's epoch: plain projections, and a
/// value predicate, an ordering and a `latest` by a value column, all
/// post-passes over a projection's view.
fn view_plans() -> Vec<QueryPlan> {
    let mut ordered = QueryPlan::new(&["loss", "acc"]);
    ordered.order_by.push(("loss".to_string(), true));
    let view_plans = vec![
        QueryPlan::new(&["loss"]),
        QueryPlan::new(&["loss", "acc"]),
        QueryPlan::new(&["loss", "acc"]).filter("acc", CmpOp::Gt, 0.2),
        ordered,
        QueryPlan::with_latest(&["loss", "acc"], &["acc"]),
    ];
    for plan in &view_plans {
        assert!(plan.below_pivot().is_empty(), "{plan:?}");
    }
    view_plans
}

fn log_round(flor: &Flor, round: usize) {
    flor.log("loss", 1.0 / (round + 1) as f64);
    flor.log("acc", round as f64 / 10.0);
    flor.commit(&format!("round {round}")).expect("commit");
}

/// Every view plan over the wire equals, byte for byte, the snapshot
/// executor's answer at `snap`, the session's snapshot.
fn assert_answers_at(client: &mut Client, flor: &Flor, snap: &Snapshot) {
    for plan in view_plans() {
        let (epoch, df) = client.query(&plan).expect("query");
        assert_eq!(epoch, snap.epoch(), "{plan:?} answered at another epoch");
        let oracle = flor.run_plan_at(snap, &plan).expect("oracle");
        assert_eq!(
            Response::Frame { epoch, df }.encode(),
            Response::Frame { epoch, df: oracle }.encode(),
            "{plan:?} diverged at epoch {epoch}"
        );
    }
}

#[test]
fn a_session_at_the_catalogs_epoch_is_answered_from_the_views() {
    let flor = Flor::new("serve-view-at");
    flor.set_filename("v.fl");
    for round in 0..4 {
        log_round(&flor, round);
    }
    // An embedded read brings the catalog to the newest epoch and builds
    // every projection's view.
    for plan in view_plans() {
        flor.run_plan(&plan).expect("embedded read");
    }
    let handle = flor
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("serve");
    let mut client = Client::connect(handle.addr(), None).expect("connect");
    let snap = flor.db.pin();
    assert_eq!(client.epoch(), snap.epoch());
    let before = flor.views.stats();
    assert_answers_at(&mut client, &flor, &snap);
    let after = flor.views.stats();
    assert_eq!(after.misses, before.misses, "every view was cached");
    assert_eq!(after.hits, before.hits + view_plans().len() as u64);
    assert_eq!(after.batches_applied, before.batches_applied);
    client.close().expect("close");
    handle.stop();
}

#[test]
fn a_sessions_narrow_projection_after_the_wide_one_is_a_selection() {
    let flor = Flor::new("serve-view-select");
    flor.set_filename("v.fl");
    for round in 0..4 {
        log_round(&flor, round);
    }
    flor.set_tracing(true);
    let handle = flor
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("serve");
    let mut client = Client::connect(handle.addr(), None).expect("connect");
    let snap = flor.db.pin();
    let e = snap.epoch();
    let reads = [
        (
            QueryPlan::new(&["loss", "acc"]),
            format!("built at epoch {e}"),
        ),
        (
            QueryPlan::new(&["acc"]),
            format!("selected from pivot[loss,acc] at epoch {e}"),
        ),
    ];
    for (plan, event) in reads {
        let (id, epoch, df) = client.query_traced(&plan).expect("traced query");
        assert_eq!(epoch, e);
        let mut inert = flor_obs::ActiveTrace::new(false, None, "");
        let (oracle, _) = flor.execute_at(&snap, &plan, &mut inert).expect("oracle");
        assert_eq!(
            Response::Frame { epoch, df }.encode(),
            Response::Frame { epoch, df: oracle }.encode(),
            "{plan:?}"
        );
        let trace = client.trace(id).expect("traces").expect("trace");
        assert!(trace.render_text().contains(&event), "{event}: {trace}");
    }
    let stats = flor.views.stats();
    assert_eq!((stats.misses, stats.selections), (2, 1));
    client.close().expect("close");
    handle.stop();
}

#[test]
fn a_session_ahead_of_the_catalog_is_answered_at_its_own_epoch() {
    let flor = Flor::new("serve-view-ahead");
    flor.set_filename("v.fl");
    log_round(&flor, 0);
    for plan in view_plans() {
        flor.run_plan(&plan).expect("embedded read");
    }
    let builds = flor.views.stats().misses;
    let handle = flor
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("serve");
    let mut client = Client::connect(handle.addr(), None).expect("connect");
    for round in 1..4 {
        log_round(&flor, round);
    }
    // The session pins past the catalog's epoch, then more commits land:
    // the views must catch up to the session's snapshot, not the newest.
    client.pin().expect("pin");
    let snap = flor.db.pin();
    assert_eq!(client.epoch(), snap.epoch());
    log_round(&flor, 4);
    log_round(&flor, 5);
    let (_, df) = client.query(&QueryPlan::new(&["loss"])).expect("query");
    assert_eq!(df.n_rows(), 4, "the two newest commits are past the pin");
    assert_answers_at(&mut client, &flor, &snap);
    let stats = flor.views.stats();
    assert_eq!(stats.misses, builds, "the cached views caught up");
    assert_eq!(stats.batches_applied, 3);
    // The embedded read then catches the same views up to the newest.
    let newest = flor.run_plan(&QueryPlan::new(&["loss"])).expect("read");
    assert_eq!(newest.n_rows(), 6);
    assert_eq!(flor.views.stats().misses, stats.misses);
    client.close().expect("close");
    handle.stop();
}

#[test]
fn a_session_behind_the_catalog_is_answered_by_the_executor() {
    let flor = Flor::new("serve-view-behind");
    flor.set_filename("v.fl");
    for round in 0..3 {
        log_round(&flor, round);
    }
    flor.set_tracing(true);
    let handle = flor
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("serve");
    let mut client = Client::connect(handle.addr(), None).expect("connect");
    let snap = flor.db.pin();
    assert_eq!(client.epoch(), snap.epoch());
    // Commits land and an embedded read moves the catalog past the pin.
    log_round(&flor, 3);
    log_round(&flor, 4);
    for plan in view_plans() {
        flor.run_plan(&plan).expect("embedded read");
    }
    let before = flor.views.stats();
    // The session's world stays frozen, answered by the executor.
    for _ in 0..2 {
        assert_answers_at(&mut client, &flor, &snap);
    }
    assert_eq!(flor.views.stats(), before, "the catalog was not read");
    let (id, epoch, df) = client
        .query_traced(&QueryPlan::new(&["loss"]))
        .expect("traced query");
    assert_eq!((epoch, df.n_rows()), (snap.epoch(), 3));
    let trace = client.trace(id).expect("traces").expect("trace");
    assert!(trace.span("pivot").is_some(), "{trace}");
    assert!(
        trace.render_text().contains("behind the catalog"),
        "{trace}"
    );
    // A re-pin reaches the catalog's epoch and the views answer again.
    client.pin().expect("pin");
    let snap = flor.db.pin();
    assert_answers_at(&mut client, &flor, &snap);
    let after = flor.views.stats();
    assert_eq!(after.hits, before.hits + view_plans().len() as u64);
    assert_eq!(after.misses, before.misses);
    client.close().expect("close");
    handle.stop();
}

/// One run of the routing property's history: `epochs` iterations of an
/// `epoch` loop, each logging `loss` and, when `acc`, `acc`, with values
/// drawn from `seed` so runs tie and differ.
#[derive(Debug, Clone)]
struct Run {
    epochs: i64,
    seed: i64,
    acc: bool,
}

fn arb_run() -> impl Strategy<Value = Run> {
    (1i64..4, -6i64..6, any::<bool>()).prop_map(|(epochs, seed, acc)| Run { epochs, seed, acc })
}

fn log_run(flor: &Flor, run: &Run) {
    flor.for_each("epoch", 0..run.epochs, |flor, &e| {
        flor.log("loss", ((run.seed * 7 + e * 3).rem_euclid(5)) as f64 / 4.0);
        if run.acc {
            flor.log("acc", ((run.seed + e).rem_euclid(3)) as f64 / 2.0);
        }
    });
    flor.commit("run").expect("commit");
}

/// Every plan shape the routing rule tells apart, each with whether the
/// rule reads it from a view: it lowers nothing below the pivot but a
/// `latest`.
fn routed_plans(t: i64, x: f64, k: usize) -> Vec<(QueryPlan, bool)> {
    let names = ["loss", "acc"];
    let top_k = QueryPlan {
        order_by: vec![("loss".into(), true), ("tstamp".into(), false)],
        limit: Some(k),
        ..QueryPlan::new(&names)
    };
    let latest_limited = QueryPlan {
        limit: Some(k),
        ..QueryPlan::with_latest(&names, &["projid"])
    };
    vec![
        (QueryPlan::new(&names), true),
        (QueryPlan::new(&names).filter("acc", CmpOp::Ge, x), true),
        (QueryPlan::new(&names).filter("tstamp", CmpOp::Ge, t), false),
        (
            QueryPlan::new(&names).filter("epoch_iteration", CmpOp::Eq, t % 3),
            false,
        ),
        (QueryPlan::with_latest(&names, &["epoch_iteration"]), true),
        (QueryPlan::with_latest(&names, &["acc"]), true),
        (top_k, false),
        (latest_limited, false),
    ]
}

/// How a traced read was answered, read off its spans: a view read has a
/// `view.plan` span and no executor `pivot`; an executed plan the reverse;
/// a view-read plan of a snapshot behind the catalog both, with the
/// catalog's "behind" event.
#[derive(Debug, PartialEq, Eq)]
enum Route {
    View,
    Executed,
    Behind,
}

fn route(trace: &flor_obs::Trace) -> Route {
    let text = trace.render_text();
    match (
        trace.span("view.plan").is_some(),
        trace.span("pivot").is_some(),
    ) {
        (true, false) => Route::View,
        (false, true) => Route::Executed,
        (true, true) if text.contains("behind the catalog") => Route::Behind,
        _ => panic!("an answer with no route: {text}"),
    }
}

/// The bytes a `Frame` response of `df` at `epoch` carries.
fn frame_bytes(epoch: u64, df: DataFrame) -> Vec<u8> {
    Response::Frame { epoch, df }.encode()
}

/// An embedded read of every plan at `snap` (the newest epoch): its frame
/// equals the snapshot executor's byte for byte, and its trace shows the
/// route the rule gives.
fn embedded_reads_route(flor: &Flor, snap: &Snapshot, plans: &[(QueryPlan, bool)]) {
    assert_eq!(flor.db.pin().epoch(), snap.epoch());
    for (plan, view) in plans {
        let got = flor.run_plan(plan).expect("embedded read");
        let want = flor.run_plan_at(snap, plan).expect("executor");
        let epoch = snap.epoch();
        assert_eq!(
            frame_bytes(epoch, (*got).clone()),
            frame_bytes(epoch, want),
            "embedded {plan:?}"
        );
        let traces = flor.traces();
        let trace = traces.last().expect("embedded trace");
        let expected = if *view { Route::View } else { Route::Executed };
        assert_eq!(route(trace), expected, "embedded {plan:?}");
    }
}

/// A served read of every plan by `client`, whose session is pinned at
/// `snap`: its frame equals the snapshot executor's byte for byte, and
/// its trace shows the route the rule gives — with the views behind
/// `snap` when `behind`.
fn served_reads_route(
    flor: &Flor,
    client: &mut Client,
    snap: &Snapshot,
    plans: &[(QueryPlan, bool)],
    behind: bool,
) {
    for (plan, view) in plans {
        let (id, epoch, df) = client.query_traced(plan).expect("served read");
        assert_eq!(epoch, snap.epoch());
        let want = flor.run_plan_at(snap, plan).expect("executor");
        assert_eq!(
            frame_bytes(epoch, df),
            frame_bytes(epoch, want),
            "served {plan:?} at epoch {epoch}"
        );
        let trace = client.trace(id).expect("traces").expect("trace");
        let expected = match (*view, behind) {
            (false, _) => Route::Executed,
            (true, false) => Route::View,
            (true, true) => Route::Behind,
        };
        assert_eq!(route(&trace), expected, "served {plan:?} at epoch {epoch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one read path: over random histories, every plan shape is
    /// answered byte-identically by `run_plan`, by a served session at the
    /// same epoch — one ahead of the catalog, then one behind it — and by
    /// `execute_at`, and is read from a view exactly when it lowers
    /// nothing below the pivot but a `latest` and the catalog has not
    /// passed its snapshot.
    #[test]
    fn every_read_takes_the_one_route_and_answers_the_same_bytes(
        before in proptest::collection::vec(arb_run(), 1..4),
        after in proptest::collection::vec(arb_run(), 1..3),
        t in 0i64..6,
        x in 0.0f64..1.0,
        k in 0usize..6,
    ) {
        let flor = Flor::new("serve-route");
        flor.set_filename("r.fl");
        flor.set_tracing(true);
        // The first run logs `acc`, so every plan's columns exist.
        log_run(&flor, &Run { acc: true, ..before[0].clone() });
        for run in &before[1..] {
            log_run(&flor, run);
        }
        let plans = routed_plans(t, x, k);
        let handle = flor
            .serve("127.0.0.1:0", ServerConfig::default())
            .expect("serve");
        let mut behind = Client::connect(handle.addr(), None).expect("connect");
        let old = flor.db.pin();
        prop_assert_eq!(behind.epoch(), old.epoch());
        embedded_reads_route(&flor, &old, &plans);
        for run in &after {
            log_run(&flor, run);
        }
        // A session pinned past the catalog: the views catch up to it.
        let mut ahead = Client::connect(handle.addr(), None).expect("connect");
        let new = flor.db.pin();
        prop_assert_eq!(ahead.epoch(), new.epoch());
        served_reads_route(&flor, &mut ahead, &new, &plans, false);
        // The first session is now behind the catalog.
        served_reads_route(&flor, &mut behind, &old, &plans, true);
        embedded_reads_route(&flor, &new, &plans);
        prop_assert_eq!(flor.views.stats().fallback_rebuilds, 0);
        behind.close().expect("close");
        ahead.close().expect("close");
        handle.stop();
    }
}

/// The memo's view of the served registry: replies written from kept
/// bytes, and bytes held.
fn wire_memo(flor: &Flor) -> (u64, i64) {
    let metrics = flor.metrics();
    (
        metrics.counter("serve.wire_memo.hits").unwrap_or(0),
        metrics.gauge("serve.wire_memo.bytes").unwrap_or(0),
    )
}

/// A commit after the first history: more runs, a run logging only a
/// name no plan projects (every view's frame then answers two epochs),
/// or a backfill writing `acc` into the key of an existing `loss` row.
#[derive(Debug, Clone)]
enum Step {
    Runs(Vec<Run>),
    Outside,
    Backfill(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        proptest::collection::vec(arb_run(), 1..3).prop_map(Step::Runs),
        Just(Step::Outside),
        (0usize..64).prop_map(Step::Backfill),
    ]
}

fn commit_step(flor: &Flor, step: &Step) {
    match step {
        Step::Runs(runs) => runs.iter().for_each(|run| log_run(flor, run)),
        Step::Outside => {
            flor.log("lr", 0.125);
            flor.commit("outside").expect("commit");
        }
        Step::Backfill(at) => {
            let logs = flor.db.pin().scan("logs").expect("logs");
            let rows: Vec<usize> = (0..logs.n_rows())
                .filter(|&r| logs.get(r, "value_name") == Some(&"loss".into()))
                .collect();
            let r = rows[at % rows.len()];
            let cell = |c: &str| logs.get(r, c).cloned().expect("key cell");
            let row = vec![
                cell("projid"),
                cell("tstamp"),
                cell("filename"),
                cell("ctx_id"),
                "acc".into(),
                format!("0.{at}").into(),
                flor_df::Value::Int(flor_df::DataType::Float.tag()),
            ];
            flor.db.insert("logs", row).expect("insert");
            flor.db.commit().expect("commit");
        }
    }
}

/// Plans read from views, each with whether its answer is a frame the
/// catalog keeps (no post-pass left): kept plans first, so a read of a
/// plan whose frame is made per request comes after the last kept insert.
fn memo_plans(x: f64) -> Vec<(QueryPlan, bool)> {
    let mut ordered = QueryPlan::new(&["loss", "acc"]);
    ordered.order_by.push(("loss".to_string(), false));
    vec![
        (QueryPlan::new(&["loss", "acc"]), true),
        (QueryPlan::new(&["loss"]), true),
        (
            QueryPlan::with_latest(&["loss", "acc"], &["epoch_iteration"]),
            true,
        ),
        (QueryPlan::with_latest(&["loss", "acc"], &["acc"]), true),
        (
            QueryPlan::new(&["loss", "acc"]).filter("acc", CmpOp::Ge, x),
            false,
        ),
        (ordered, false),
    ]
}

/// The payload `execute_at` gives `plan` at `snap`, freshly encoded.
fn fresh_payload(flor: &Flor, snap: &Snapshot, plan: &QueryPlan) -> Vec<u8> {
    let mut inert = flor_obs::ActiveTrace::new(false, None, "");
    let (frame, _) = flor.execute_at(snap, plan, &mut inert).expect("execute_at");
    Response::encode_frame_ref(snap.epoch(), &frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random histories — more runs, commits logging only a name no
    /// plan projects, backfills into old keys — every answer a session
    /// reads, at the catalog's epoch, ahead of it or behind it, is the
    /// payload a fresh `encode_frame_ref` of `execute_at` at the session's
    /// epoch gives. A kept answer read again at the epoch it was kept at
    /// is counted as a memo hit, and nothing else is; after each epoch's
    /// reads the memo holds exactly one whole frame per kept answer.
    #[test]
    fn served_answers_are_fresh_bytes_at_every_epoch_and_kept_ones_hit(
        before in proptest::collection::vec(arb_run(), 1..3),
        steps in proptest::collection::vec(arb_step(), 1..5),
        x in 0.0f64..1.0,
    ) {
        let flor = Flor::new("serve-wire-memo");
        flor.set_filename("m.fl");
        log_run(&flor, &Run { acc: true, ..before[0].clone() });
        for run in &before[1..] {
            log_run(&flor, run);
        }
        let plans = memo_plans(x);
        let handle = flor
            .serve("127.0.0.1:0", ServerConfig::default())
            .expect("serve");
        // The epoch each kept plan's bytes were last kept at.
        let mut kept_at: HashMap<usize, u64> = HashMap::new();
        let mut hits = 0;
        let mut sessions: Vec<(RawSession, Snapshot)> = Vec::new();
        for step in std::iter::once(None).chain(steps.iter().map(Some)) {
            if let Some(step) = step {
                commit_step(&flor, step);
            }
            // A new session, pinned past the catalog: the views catch up
            // to it. Every plan twice, so each kept one hits once.
            let snap = flor.db.pin();
            let mut ahead = RawSession::connect(handle.addr());
            prop_assert_eq!(ahead.epoch, snap.epoch());
            for _ in 0..2 {
                for (i, (plan, kept)) in plans.iter().enumerate() {
                    let got = ahead.query(plan);
                    prop_assert_eq!(&got, &fresh_payload(&flor, &snap, plan), "{:?} {:?}", step, plan);
                    if *kept && kept_at.insert(i, snap.epoch()) == Some(snap.epoch()) {
                        hits += 1;
                    }
                    prop_assert_eq!(wire_memo(&flor).0, hits, "{:?} {:?}", step, plan);
                }
            }
            let held: usize = plans
                .iter()
                .filter(|(_, kept)| *kept)
                .map(|(plan, _)| 12 + fresh_payload(&flor, &snap, plan).len())
                .sum();
            prop_assert_eq!(wire_memo(&flor).1, held as i64, "{:?}", step);
            // Every earlier session is now behind the catalog: answered by
            // the executor at its own epoch, never from kept bytes.
            for (old, old_snap) in &mut sessions {
                for (plan, _) in &plans {
                    let got = old.query(plan);
                    prop_assert_eq!(&got, &fresh_payload(&flor, old_snap, plan));
                }
            }
            prop_assert_eq!(wire_memo(&flor).0, hits);
            sessions.push((ahead, snap));
        }
        prop_assert_eq!(flor.views.stats().fallback_rebuilds, 0);
        handle.stop();
    }
}

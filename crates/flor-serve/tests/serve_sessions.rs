//! The flor-serve acceptance test: N concurrent client sessions query a
//! server whose underlying `Flor` is being committed to the whole time.
//! Every response must be **byte-identical** (compared on the encoded
//! wire frame) to a local [`Flor::run_plan_at`] against the snapshot
//! pinned at the session's epoch — the snapshot-per-request guarantee.

use flor_core::Flor;
use flor_df::DfError;
use flor_serve::{Client, ErrorCode, Response, ServeError, ServeExt, ServerConfig};
use flor_store::{CmpOp, Snapshot, StoreError};
use flor_view::QueryPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

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

//! Read-only follower serving: a second `Flor` handle opened with
//! [`Flor::open_follower`] over the writer's WAL serves the same data
//! through flor-serve, with staleness bounded by the server's poll
//! interval, and refuses writes with a typed error.

use flor_core::Flor;
use flor_serve::{Client, Response, ServeExt, ServerConfig};
use flor_store::{CmpOp, StoreError};
use flor_view::QueryPlan;
use std::time::{Duration, Instant};

mod raw;
use raw::RawSession;

#[test]
fn follower_serves_writer_data_with_bounded_staleness() {
    let dir = std::env::temp_dir().join(format!("flor-follower-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("writer.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));

    // The writer: a normal durable kernel.
    let writer = Flor::open("follower-demo", &path).expect("open writer");
    writer.set_filename("train.fl");
    writer.log("loss", 0.9);
    writer.commit("round 0").expect("commit");

    // The follower: read-only over the same WAL, served with a tight
    // poll so staleness stays small.
    let follower = Flor::open_follower("follower-demo", &path).expect("open follower");
    assert!(follower.is_follower());
    let poll = Duration::from_millis(5);
    let cfg = ServerConfig {
        follower_poll: poll,
        ..ServerConfig::default()
    };
    let handle = follower.serve("127.0.0.1:0", cfg).expect("serve follower");

    let mut client = Client::connect(handle.addr(), None).expect("connect");
    let plan = QueryPlan::new(&["loss"]);
    let (_, df) = client.query(&plan).expect("query seed");
    assert_eq!(df.n_rows(), 1, "follower must serve the bootstrap state");

    // More commits land on the writer; the serving follower must catch
    // up on its own (the server's poll thread), within a small multiple
    // of the poll interval.
    for round in 1..6 {
        writer.log("loss", 0.9 / round as f64);
        writer.commit(&format!("round {round}")).expect("commit");
    }
    let writer_epoch = writer.db.pin().epoch();
    let deadline = Instant::now() + Duration::from_secs(10);
    let converged_in = loop {
        let started = Instant::now();
        let (_, latest) = client.epochs().expect("epochs");
        if latest >= writer_epoch {
            break started.elapsed();
        }
        assert!(
            Instant::now() < deadline,
            "follower never caught up: {latest} < {writer_epoch}"
        );
        std::thread::sleep(poll / 2);
    };
    // Not a strict one-interval assertion (scheduler noise), but it must
    // be the same order of magnitude.
    assert!(
        converged_in < poll * 200,
        "staleness way past the poll interval: {converged_in:?}"
    );

    // Re-pin and the served frame must now be byte-identical to the
    // writer's own from-scratch result at the same epoch.
    let epoch = client.pin().expect("pin");
    assert!(epoch >= writer_epoch);
    let (got_epoch, df) = client.query(&plan).expect("query converged");
    let local = writer.run_plan_full(&plan).expect("writer oracle");
    assert_eq!(
        Response::Frame {
            epoch: got_epoch,
            df
        }
        .encode(),
        Response::Frame {
            epoch: got_epoch,
            df: local
        }
        .encode(),
        "follower frame diverged from the writer's"
    );

    // Writes are refused at the kernel with the typed store error.
    match follower.commit("nope") {
        Err(StoreError::ReadOnly) => {}
        other => panic!("follower commit must refuse read-only, got {other:?}"),
    }
    assert!(matches!(
        follower.record_build_dep("v1", "t", &[], &[], false),
        Err(StoreError::ReadOnly)
    ));

    client.close().expect("close");
    handle.stop();

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));
    let _ = std::fs::remove_dir(&dir);
}

/// A rebootstrap replaces a follower's tables wholesale from the
/// writer's new sidecar; a view the follower's catalog already holds
/// must catch up to them like any other commits.
#[test]
fn a_followers_view_catches_up_after_a_rebootstrap() {
    let dir = std::env::temp_dir().join(format!("flor-follower-reboot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("writer.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));

    let writer = Flor::open("follower-reboot", &path).expect("open writer");
    writer.set_filename("train.fl");
    writer.log("loss", 0.9);
    writer.commit("round 0").expect("commit");

    let follower = Flor::open_follower("follower-reboot", &path).expect("open follower");
    let plan = QueryPlan::new(&["loss"]);
    assert_eq!(follower.run_plan(&plan).expect("seed view").n_rows(), 1);

    for round in 1..4 {
        writer.log("loss", 0.9 / round as f64);
        writer.commit(&format!("round {round}")).expect("commit");
    }
    writer.checkpoint().expect("checkpoint");
    let progress = follower.poll_follower().expect("poll");
    assert!(progress.rebootstrapped, "the checkpoint truncated the log");

    let view = follower.run_plan(&plan).expect("view after rebootstrap");
    let full = follower.run_plan_full(&plan).expect("follower oracle");
    assert_eq!(full.n_rows(), 4);
    assert_eq!(*view, full);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));
    let _ = std::fs::remove_dir(&dir);
}

/// A served follower answers plans with nothing below the pivot from
/// its own view catalog, caught up over the commits each poll applied,
/// byte-identical to the snapshot executor at the session's epoch: the
/// payload that crossed the wire is a fresh encode of it, read twice per
/// poll, the second read of a kept answer (no post-pass) from kept bytes.
#[test]
fn a_served_followers_views_answer_after_polls() {
    let dir = std::env::temp_dir().join(format!("flor-follower-views-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("writer.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));

    let writer = Flor::open("follower-views", &path).expect("open writer");
    writer.set_filename("train.fl");
    writer.log("loss", 0.9);
    writer.log("acc", 0.1);
    writer.commit("round 0").expect("commit");

    let follower = Flor::open_follower("follower-views", &path).expect("open follower");
    let poll = Duration::from_millis(5);
    let cfg = ServerConfig {
        follower_poll: poll,
        ..ServerConfig::default()
    };
    let handle = follower.serve("127.0.0.1:0", cfg).expect("serve follower");
    let mut client = Client::connect(handle.addr(), None).expect("connect");
    let mut raw = RawSession::connect(handle.addr());
    let plans = [
        QueryPlan::new(&["loss"]),
        QueryPlan::new(&["loss", "acc"]),
        QueryPlan::new(&["loss", "acc"]).filter("acc", CmpOp::Ge, 0.2),
    ];
    let kept = 2;
    for round in 1..5 {
        for _ in 0..round {
            writer.log("loss", 0.9 / round as f64);
            writer.log("acc", round as f64 / 10.0);
            writer.commit(&format!("round {round}")).expect("commit");
        }
        let writer_epoch = writer.db.pin().epoch();
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.epochs().expect("epochs").1 < writer_epoch {
            assert!(Instant::now() < deadline, "follower never caught up");
            std::thread::sleep(poll / 2);
        }
        // The writer is idle: the session, the follower's own snapshot
        // and the writer all stand at one epoch.
        let epoch = client.pin().expect("pin");
        let snap = follower.db.pin();
        assert_eq!((epoch, snap.epoch()), (writer_epoch, writer_epoch));
        assert_eq!(raw.pin(), epoch);
        for plan in &plans {
            assert!(plan.below_pivot().is_empty());
            let (got, df) = client.query(plan).expect("query");
            assert_eq!(got, epoch);
            let wire = Response::Frame { epoch, df }.encode();
            let local = follower.run_plan_at(&snap, plan).expect("follower oracle");
            let remote = writer.run_plan_full(plan).expect("writer oracle");
            assert_eq!(wire, Response::encode_frame_ref(epoch, &local));
            assert_eq!(wire, Response::Frame { epoch, df: remote }.encode());
            for _ in 0..2 {
                assert_eq!(raw.query(plan), wire, "{plan:?} at epoch {epoch}");
            }
        }
        // Each kept answer was encoded once at this epoch, by the client's
        // read, and written from kept bytes twice.
        let hits = follower.metrics().counter("serve.wire_memo.hits");
        assert_eq!(hits, Some(2 * kept * round as u64), "round {round}");
    }
    // Two projections, each built once, then caught up poll after poll.
    let stats = follower.views.stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 3 * 4 * plans.len() as u64 - 2);
    assert!(stats.batches_applied >= 3, "{stats:?}");
    assert_eq!(stats.fallback_rebuilds, 0);

    client.close().expect("close");
    handle.stop();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));
    let _ = std::fs::remove_dir(&dir);
}

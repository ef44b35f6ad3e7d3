//! Serving: one writer, a flor-serve server, two concurrent client
//! sessions, and a read-only follower in a (simulated) second process.
//!
//! Demonstrates the three guarantees of the serving layer:
//!
//! 1. **Pinned sessions** — each client's queries answer at the epoch it
//!    pinned at connect (or its last explicit `pin`), repeatable under a
//!    committing writer;
//!    a plan that pushes nothing below the pivot but a `latest` is
//!    answered from the kernel's maintained view when the view is not
//!    past the session's epoch, byte-identical to the snapshot executor,
//!    and a repeat of it at the same epoch is written from the wire bytes
//!    the server kept for that view frame;
//! 2. **Observability over the wire** — the `MetricsPrometheus` verb
//!    scrapes the server's whole registry in Prometheus text format;
//! 3. **Followers** — a second kernel opened read-only over the writer's
//!    WAL serves the same data with staleness bounded by its poll
//!    interval, and refuses writes with a typed error.
//!
//! Run with `cargo run --example serve`.

use flordb::prelude::*;
use flordb::serve::{RequestLog, Response, Server};
use flordb::store::StoreError;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn main() {
    let dir = std::env::temp_dir().join(format!("flor-serve-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let wal = dir.join("demo.wal");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(dir.join("demo.wal.ckpt"));

    // --- the writer: a durable kernel with some training history ------
    let flor = Flor::open("serve-demo", &wal).expect("open");
    flor.set_filename("train.fl");
    for run in 0..5i64 {
        flor.for_each("epoch", 0..4, |flor, &e| {
            flor.log("loss", 1.0 / (run + e + 1) as f64);
            flor.log("acc", 0.70 + e as f64 * 0.05);
        });
        flor.commit(&format!("run {run}")).expect("commit");
    }

    // --- serve it, logging every request into the shared registry -----
    let handle = Server::bind(flor.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .with_middleware(Arc::new(RequestLog::new(flor.metrics_registry())))
        .spawn()
        .expect("serve");
    let addr = handle.addr();
    println!("serving on {addr}");

    // --- two concurrent client sessions -------------------------------
    // Client A pins now and keeps that world fixed; client B re-pins
    // after the writer commits more, so the two sessions answer the same
    // plan differently — each correctly for its own epoch.
    let plan = QueryPlan::new(&["loss", "acc"]);
    let a = {
        let plan = plan.clone();
        thread::spawn(move || {
            let mut client = Client::connect(addr, None).expect("connect A");
            let (epoch, before) = client.query(&plan).expect("query A");
            // Stay pinned while the writer moves on underneath.
            thread::sleep(Duration::from_millis(50));
            let (epoch2, after) = client.query(&plan).expect("query A again");
            assert_eq!(epoch, epoch2);
            assert_eq!(before, after, "a pinned session must be repeatable");
            println!(
                "client A: pinned at epoch {epoch}, {} rows, twice",
                before.n_rows()
            );
            client.close().expect("close A");
        })
    };
    let b = {
        let plan = plan.clone();
        let flor = flor.clone();
        thread::spawn(move || {
            let mut client = Client::connect(addr, None).expect("connect B");
            let (e0, df0) = client.query(&plan).expect("query B");
            // The writer commits another run while B's session is open.
            flor.for_each("epoch", 0..4, |flor, &e| {
                flor.log("loss", 1.0 / (20 + e) as f64);
                flor.log("acc", 0.95);
            });
            flor.commit("late run").expect("commit");
            // Still pinned: same frame. Then re-pin: the new rows appear.
            let (_, df_still) = client.query(&plan).expect("query B pinned");
            assert_eq!(df0, df_still);
            let e1 = client.pin().expect("pin B");
            let (_, df1) = client.query(&plan).expect("query B repinned");
            assert!(df1.n_rows() > df0.n_rows());
            println!(
                "client B: epoch {e0} had {} rows; after pin to {e1}: {} rows",
                df0.n_rows(),
                df1.n_rows()
            );
            client.close().expect("close B");
        })
    };
    a.join().expect("client A");
    b.join().expect("client B");

    // --- a full pivot at the writer's epoch is a maintained-view hit ---
    // B's re-pinned query caught the kernel's view of the projection up
    // to the writer's epoch; a plan that pushes nothing below the pivot
    // but a `latest` is answered from that view, shared, not re-pivoted —
    // with the bytes the snapshot executor would have sent.
    let mut c = Client::connect(addr, None).expect("connect C");
    let snap = flor.db.pin();
    assert_eq!(c.epoch(), snap.epoch());
    let before = flor.views.stats();
    let (epoch, df) = c.query(&plan).expect("query C");
    let after = flor.views.stats();
    assert_eq!(after.hits, before.hits + 1, "the view answered");
    assert_eq!(after.misses, before.misses, "no view was built");
    let executor = flor.run_plan_at(&snap, &plan).expect("execute_at");
    assert_eq!(
        Response::Frame { epoch, df }.encode(),
        Response::Frame {
            epoch,
            df: executor
        }
        .encode(),
        "the view's answer differs from the executor's"
    );
    println!("client C: epoch {epoch} answered from the maintained view, byte-identical");

    // --- a repeated wide read at one epoch writes the bytes it kept ----
    // The view's frame and the epoch are unchanged, so the server writes
    // the whole frame it kept at the first read: no encode, no checksum.
    let memo_hits = || {
        flor.metrics()
            .counter("serve.wire_memo.hits")
            .expect("memo counter")
    };
    let hits = memo_hits();
    let (again, df_again) = c.query(&plan).expect("query C again");
    assert_eq!(again, epoch);
    assert_eq!(memo_hits(), hits + 1, "the repeated read was a memo hit");
    assert_eq!(
        Response::Frame {
            epoch,
            df: df_again
        }
        .encode(),
        Response::encode_frame_ref(epoch, &flor.run_plan_at(&snap, &plan).expect("execute_at")),
        "the kept bytes differ from a fresh encode"
    );
    let kept = flor.metrics().gauge("serve.wire_memo.bytes").unwrap_or(0);
    println!("client C: the repeat was written from {kept} kept bytes, byte-identical");
    c.close().expect("close C");

    // --- scrape the server's metrics over the wire ---------------------
    let mut scraper = Client::connect(addr, None).expect("connect scraper");
    let prom = scraper.metrics_prometheus().expect("scrape");
    let preview: Vec<&str> = prom
        .lines()
        .filter(|l| l.starts_with("serve_") || l.contains("serve_request"))
        .take(6)
        .collect();
    println!(
        "prometheus scrape ({} lines), serve.* excerpt:",
        prom.lines().count()
    );
    for line in preview {
        println!("  {line}");
    }
    scraper.close().expect("close scraper");

    // --- a read-only follower serving the same WAL ---------------------
    let follower = Flor::open_follower("serve-demo", &wal).expect("open follower");
    assert!(follower.is_follower());
    let fcfg = ServerConfig {
        follower_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let fhandle = follower.serve("127.0.0.1:0", fcfg).expect("serve follower");
    let mut fclient = Client::connect(fhandle.addr(), None).expect("connect follower");
    let (fepoch, fdf) = fclient.query(&plan).expect("query follower");

    // Byte-identical to the writer's own from-scratch answer.
    let local = flor.run_plan_full(&plan).expect("local oracle");
    assert_eq!(
        Response::Frame {
            epoch: fepoch,
            df: fdf.clone()
        }
        .encode(),
        Response::Frame {
            epoch: fepoch,
            df: local
        }
        .encode(),
    );
    println!(
        "follower on {}: epoch {fepoch}, {} rows — byte-identical to the writer",
        fhandle.addr(),
        fdf.n_rows()
    );

    // New commits reach the follower within its poll interval.
    flor.log("loss", 0.001);
    flor.commit("final").expect("commit");
    let target = flor.db.pin().epoch();
    loop {
        let (_, latest) = fclient.epochs().expect("epochs");
        if latest >= target {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    println!("follower caught up to epoch {target}");

    // And it refuses writes with the typed store error.
    match follower.commit("nope") {
        Err(StoreError::ReadOnly) => println!("follower write refused: read-only, as promised"),
        other => panic!("expected ReadOnly, got {other:?}"),
    }

    fclient.close().expect("close follower client");
    fhandle.stop();
    handle.stop();
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(dir.join("demo.wal.ckpt"));
    let _ = std::fs::remove_dir(&dir);
}

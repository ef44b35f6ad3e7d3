//! The ops surface end to end: `Health` on writer and follower,
//! client-originated trace contexts with retrievable span trees,
//! slow-query capture with the full explain report, and back-compat —
//! an old-style client that never sends the new verbs keeps working
//! unchanged while tracing is on.

use flor_core::Flor;
use flor_serve::{Client, RequestLog, ServeExt, Server, ServerConfig};
use flor_store::CmpOp;
use flor_view::QueryPlan;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn traced_queries_health_and_slow_capture_on_writer() {
    let flor = Flor::new("ops-writer");
    flor.set_filename("train.fl");
    for step in 0..8 {
        flor.log("loss", 1.0 / (step + 1) as f64);
        flor.log("acc", step as f64 / 8.0);
        flor.commit(&format!("step {step}")).expect("commit");
    }

    // Tracing on, slow threshold at zero so every query is "slow".
    flor.set_tracing(true);
    flor.set_slow_query_threshold(Some(Duration::ZERO));

    let registry = flor.metrics_registry();
    let server = Server::bind(flor.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .with_middleware(Arc::new(RequestLog::new(registry.clone())));
    let handle = server.spawn().expect("spawn");

    let mut client = Client::connect(handle.addr(), None).expect("connect");
    // Nothing below the pivot: the view catalog answers it. The `tstamp`
    // filter keeps every row but runs below the pivot, so the snapshot
    // executor answers that one.
    let plan = QueryPlan::new(&["loss", "acc"]);
    let pushed = plan.clone().filter("tstamp", CmpOp::Ge, 0i64);
    assert!(plan.below_pivot().is_empty() && !pushed.below_pivot().is_empty());

    // Old-style path first: a plain query must behave exactly as before
    // even though tracing and slow capture are armed server-side.
    let (epoch, plain_df) = client.query(&plan).expect("plain query");
    assert_eq!(plain_df.n_rows(), 8);

    // Client-originated trace context: same bytes back, plus a
    // retrievable trace carrying the request anatomy.
    let (trace_id, _, traced_df) = client.query_traced(&plan).expect("traced query");
    assert_eq!(
        format!("{traced_df:?}"),
        format!("{plain_df:?}"),
        "trace context changed the result"
    );
    let (pushed_id, _, pushed_df) = client.query_traced(&pushed).expect("traced pushed query");
    assert_eq!(
        format!("{pushed_df:?}"),
        format!("{plain_df:?}"),
        "the pushed filter keeps every row"
    );

    // The view path: one `view.plan` span under `execute`, whose one
    // event says the view was already there, at the session's epoch.
    let trace = client
        .trace(trace_id)
        .expect("traces verb")
        .expect("originated trace must be retrievable");
    assert_eq!(trace.id, trace_id);
    for span in ["request", "middleware", "gate", "execute", "view.plan"] {
        assert!(
            trace.span(span).is_some(),
            "trace missing span `{span}`:\n{trace}"
        );
    }
    for span in ["store.scan", "pivot"] {
        assert!(
            trace.span(span).is_none(),
            "a view answer ran the executor's `{span}`:\n{trace}"
        );
    }
    let rendered = trace.render_text();
    assert!(
        rendered.contains(&format!("hit at epoch {epoch}")),
        "view read event missing:\n{rendered}"
    );
    assert!(
        rendered.contains("request-log: ok"),
        "middleware verdict event missing:\n{rendered}"
    );
    assert!(
        rendered.contains("admitted"),
        "gate admission event missing:\n{rendered}"
    );

    // The executor path: the pushed plan's trace carries its stages.
    let trace = client
        .trace(pushed_id)
        .expect("traces verb")
        .expect("originated trace must be retrievable");
    for span in [
        "request",
        "middleware",
        "gate",
        "execute",
        "store.scan",
        "pivot",
    ] {
        assert!(
            trace.span(span).is_some(),
            "trace missing span `{span}`:\n{trace}"
        );
    }
    let rendered = trace.render_text();
    assert!(
        rendered.contains("fragments made"),
        "store-scan fragments event missing:\n{rendered}"
    );

    // The plain query ran under a server-generated trace too.
    assert!(client.traces(16).expect("traces").len() >= 3);

    // Slow capture: threshold zero means every query breached; records
    // carry the embedded explain's rendering of the answer — the
    // executor's full report, or how the view was reached and the epoch
    // it answered at. Newest first.
    let slow = client.slow_queries(16).expect("slow queries");
    assert!(
        slow.len() >= 3,
        "expected every query captured, got {}",
        slow.len()
    );
    for rec in &slow[..3] {
        assert_eq!(rec.verb, "query");
        assert!(
            rec.plan.contains("loss"),
            "plan names missing: {}",
            rec.plan
        );
        assert_eq!(rec.threshold_nanos, 0);
        assert!(rec.total_nanos > 0);
    }
    assert!(
        slow[0].explain.contains("segments merged"),
        "explain report missing from slow capture: {:?}",
        slow[0].explain
    );
    for (rec, how) in [(&slow[1], "hit"), (&slow[2], "built")] {
        let explain = &rec.explain;
        assert!(
            explain.starts_with("EXPLAIN [\"loss\", \"acc\"], serve "),
            "{explain}"
        );
        assert!(
            explain.contains(&format!("\n  {how} at epoch {epoch}\n")),
            "{explain}"
        );
    }

    // Health on the writer: no follower lag, occupancy visible.
    let health = client.health().expect("health");
    assert!(!health.follower);
    assert_eq!(health.follower_lag, None);
    assert!(health.epoch >= 8);
    assert!(
        health.total_rows >= 16,
        "16 logged values plus context rows"
    );
    assert_eq!(health.live_sessions, 1);
    assert!(health.max_sessions >= 1);
    assert!(health.render_text().contains("health: writer"));

    // Disarm and the rings stop growing, old client still fine.
    flor.set_tracing(false);
    flor.set_slow_query_threshold(None);
    let before = client.traces(64).expect("traces").len();
    let slow_before = client.slow_queries(64).expect("slow").len();
    client.query(&plan).expect("query after disarm");
    assert_eq!(client.traces(64).expect("traces").len(), before);
    assert_eq!(client.slow_queries(64).expect("slow").len(), slow_before);

    client.close().expect("close");
    handle.stop();
}

#[test]
fn health_on_follower_reports_replication_lag() {
    let dir = std::env::temp_dir().join(format!("flor-ops-health-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("writer.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));

    let writer = Flor::open("ops-follower", &path).expect("open writer");
    writer.set_filename("train.fl");
    writer.log("loss", 0.9);
    writer.commit("seed").expect("commit");

    let follower = Flor::open_follower("ops-follower", &path).expect("open follower");
    // A poll interval far beyond the test's lifetime: the follower stays
    // deliberately stale so pending commits are observable as lag.
    let cfg = ServerConfig {
        follower_poll: Duration::from_secs(3600),
        ..ServerConfig::default()
    };
    let handle = follower.serve("127.0.0.1:0", cfg).expect("serve follower");
    let mut client = Client::connect(handle.addr(), None).expect("connect");

    let health = client.health().expect("health while caught up");
    assert!(health.follower);
    let caught_up = health
        .follower_lag
        .expect("lag must be known on a live tail");
    assert_eq!(caught_up, 0, "no pending commits yet");

    // Land commits the follower has not applied: lag counts them.
    for round in 0..3 {
        writer.log("loss", 0.5 / (round + 1) as f64);
        writer.commit(&format!("round {round}")).expect("commit");
    }
    let health = client.health().expect("health while lagging");
    assert_eq!(health.follower_lag, Some(3), "three unapplied commits");
    assert!(health
        .render_text()
        .contains("follower lag: 3 commit(s) behind"));

    client.close().expect("close");
    handle.stop();

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));
    let _ = std::fs::remove_dir(&dir);
}

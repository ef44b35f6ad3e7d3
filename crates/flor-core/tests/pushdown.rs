//! The snapshot executor's steps below the pivot on a history shaped like
//! the ledger's: 200 runs × 20 epochs × 4 names, `tstamp`-clustered by
//! compaction and reopened from a checkpoint. The four plan shapes the
//! `serve.point` workload sends — one run, a ten-run window, top-K on a
//! value, `latest` per epoch — must equal the post-hoc answer over the
//! plain pivot, and the explain must show the work moving below it: the
//! segments merged, the keys each step keeps, the fragments made once.

use flor_core::Flor;
use flor_df::{DataFrame, Value};
use flor_store::CmpOp;
use flor_view::QueryPlan;

const NAMES: [&str; 4] = ["loss", "acc", "lr", "grad_norm"];
const RUNS: usize = 200;
const EPOCHS: usize = 20;

/// The plan's answer computed after the fact: the plain pivot of its
/// names, then every operator applied directly.
fn posthoc(flor: &Flor, plan: &QueryPlan) -> DataFrame {
    let names: Vec<&str> = plan.names.iter().map(String::as_str).collect();
    let mut df = flor.query(&names).collect_full().expect("plain pivot");
    for p in &plan.predicates {
        df = df.filter(|r| r.get(&p.col).is_some_and(|v| p.matches(v)));
    }
    if let Some(group) = &plan.latest_group {
        let gs: Vec<&str> = group.iter().map(String::as_str).collect();
        df = df.latest(&gs, "tstamp").expect("latest");
    }
    if !plan.order_by.is_empty() {
        let keys: Vec<(&str, bool)> = plan
            .order_by
            .iter()
            .map(|(c, a)| (c.as_str(), *a))
            .collect();
        df = df.sort_by(&keys).expect("sort");
    }
    match plan.limit {
        Some(n) => df.head(n),
        None => df,
    }
}

#[test]
fn serve_point_plans_run_below_the_pivot_on_a_ledger_shaped_history() {
    let dir = std::env::temp_dir().join(format!("flordb-pushdown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal = dir.join("h.wal");
    let sidecar = flor_store::checkpoint::sidecar_path(&wal);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&sidecar);

    let flor = Flor::open("ledger", &wal).expect("open");
    flor.set_filename("train.fl");
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..RUNS {
        flor.for_each("epoch", 0..EPOCHS as i64, |flor, _| {
            for name in NAMES {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                flor.log(name, (x >> 11) as f64 / (1u64 << 53) as f64);
            }
        });
        flor.commit("run").expect("commit");
    }
    flor.compact().expect("compact");
    flor.checkpoint().expect("checkpoint");
    drop(flor);
    let flor = Flor::open("ledger", &wal).expect("reopen");
    assert!(flor.db.recovery_info().from_checkpoint);

    let t = 117i64;
    let selective = QueryPlan::new(&NAMES).filter("tstamp", CmpOp::Eq, t);
    let window = QueryPlan::new(&NAMES)
        .filter("tstamp", CmpOp::Ge, 40)
        .filter("tstamp", CmpOp::Lt, 50);
    let top_k = QueryPlan {
        order_by: vec![("loss".to_string(), true)],
        limit: Some(10),
        ..QueryPlan::new(&["loss"])
    };
    let latest = QueryPlan::with_latest(&["loss"], &["epoch_iteration"]);

    let snap = flor.db.pin();
    let run = |plan: &QueryPlan, rows: usize| {
        let mut tr = flor_obs::ActiveTrace::new(false, None, "");
        let (df, explain) = flor.execute_at(&snap, plan, &mut tr).expect("execute");
        assert_eq!(df, posthoc(&flor, plan), "{plan:?}");
        assert_eq!(df.n_rows(), rows, "{plan:?}");
        (df, explain)
    };
    // The checkpoint reopens `logs` as 16,000 rows in 4,096-row segments,
    // each holding 1,024 keys of four cells.
    const SEGMENTS: usize = 4;
    const SEGMENT_KEYS: usize = 1024;

    // One run: only the segment holding its `tstamp` is merged, and the
    // predicate keeps that run's keys.
    let (df, ex) = run(&selective, EPOCHS);
    assert_eq!(df.n_cols(), 3 + 2 + NAMES.len());
    assert_eq!(ex.segments, (1, SEGMENTS), "{ex}");
    assert_eq!(ex.store_predicates, Some((SEGMENT_KEYS, EPOCHS)), "{ex}");
    assert_eq!(ex.merge, (EPOCHS, EPOCHS));
    // The first execution on the snapshot makes each sealed `logs`
    // segment's fragment once: all 16,000 rows.
    assert_eq!(ex.fragments, (SEGMENTS, RUNS * EPOCHS * NAMES.len()));
    assert_eq!(ex.pivot, (EPOCHS * NAMES.len(), EPOCHS));
    // Every later one merges the kept fragments and reads no row.
    let (_, ex) = run(&selective, EPOCHS);
    assert_eq!(ex.fragments, (0, 0));

    // A ten-run window: the one segment its `tstamp`s lie in.
    let (_, ex) = run(&window, 10 * EPOCHS);
    assert_eq!(ex.segments, (1, SEGMENTS), "{ex}");
    assert_eq!(ex.store_predicates, Some((SEGMENT_KEYS, 10 * EPOCHS)));
    assert_eq!(ex.pivot, (10 * EPOCHS * NAMES.len(), 10 * EPOCHS));
    assert_eq!(ex.fragments, (0, 0));

    // Top-K and `latest` cut 4,000 merged keys to the keys they keep.
    let (df, ex) = run(&top_k, 10);
    assert_eq!(df.n_cols(), 3 + 2 + 1);
    assert_eq!(ex.segments, (SEGMENTS, SEGMENTS));
    assert_eq!(ex.merge, (RUNS * EPOCHS, RUNS * EPOCHS));
    assert_eq!(ex.top_k_cut, Some((RUNS * EPOCHS, 10)));
    assert_eq!(ex.pivot, (10, 10));
    assert_eq!(ex.fragments, (0, 0));
    let (df, ex) = run(&latest, EPOCHS);
    assert_eq!(ex.latest_cut, Some((RUNS * EPOCHS, EPOCHS)));
    assert_eq!(ex.fragments, (0, 0));
    assert_eq!(ex.pivot, (EPOCHS, EPOCHS));
    let last_run = Value::Int(RUNS as i64);
    assert!(df
        .column("tstamp")
        .expect("tstamp")
        .values
        .iter()
        .all(|v| *v == last_run));

    drop(snap);
    drop(flor);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&sidecar);
    let _ = std::fs::remove_dir(&dir);
}

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

    // Top-K and `latest` merge only the keys their cut can keep, picked
    // from each fragment's summaries. Top-K: each fragment's 10 best
    // `loss` cells, plus the keys of the three runs that straddle a
    // segment boundary (runs 52, 103 and 154), which two fragments'
    // `tstamp` ranges share.
    let (df, ex) = run(&top_k, 10);
    assert_eq!(df.n_cols(), 3 + 2 + 1);
    assert_eq!(ex.segments, (SEGMENTS, SEGMENTS));
    let kept = SEGMENTS * 10 + 3 * EPOCHS;
    assert_eq!(ex.cut_summaries, Some((SEGMENTS, kept)), "{ex}");
    assert_eq!(ex.merge, (kept, kept));
    assert_eq!(ex.top_k_cut, Some((kept, 10)));
    assert_eq!(ex.pivot, (10, 10));
    assert_eq!(ex.fragments, (0, 0));
    // `latest`: the 20 keys of the last run, one per epoch, all in the
    // last segment.
    let (df, ex) = run(&latest, EPOCHS);
    assert_eq!(ex.cut_summaries, Some((SEGMENTS, EPOCHS)), "{ex}");
    assert_eq!(ex.merge, (EPOCHS, EPOCHS));
    assert_eq!(ex.latest_cut, Some((EPOCHS, EPOCHS)));
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

#[test]
fn a_backfill_at_old_tstamps_merges_the_fragments_it_overlaps_whole() {
    const RUNS: i64 = 40;
    const EPOCHS: i64 = 5;
    let flor = Flor::new("backfill");
    flor.set_filename("train.fl");
    flor.set_compaction_trigger(None);
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for _ in 0..RUNS {
        flor.for_each("epoch", 0..EPOCHS, |flor, _| {
            for name in ["loss", "acc"] {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                flor.log(name, (x >> 11) as f64 / (1u64 << 53) as f64);
            }
        });
        flor.commit("run").expect("commit");
    }
    // Small `tstamp`-clustered segments of whole runs: ranges disjoint.
    let small = flor_store::CompactionPolicy {
        target_segment_rows: 100,
        ..flor_store::CompactionPolicy::default()
    };
    flor.db.compact_with(&small).expect("compact");
    let keys = (RUNS * EPOCHS) as usize;
    let top_k = QueryPlan {
        order_by: vec![("loss".to_string(), true)],
        limit: Some(3),
        ..QueryPlan::new(&["loss", "acc"])
    };
    let latest = QueryPlan::with_latest(&["loss"], &["epoch_iteration"]);
    let run = |plan: &QueryPlan| {
        let mut tr = flor_obs::ActiveTrace::new(false, None, "");
        let (df, explain) = flor
            .execute_at(&flor.db.pin(), plan, &mut tr)
            .expect("execute");
        assert_eq!(df, posthoc(&flor, plan), "{plan:?}");
        explain
    };
    let ex = run(&top_k);
    let segments = ex.segments.1;
    assert!(segments > 1, "{ex}");
    assert_eq!(ex.cut_summaries, Some((segments, segments * 3)), "{ex}");

    // A later commit logs `loss` again for the first and the last run's
    // epoch 2, the best value of all: its fragment's `tstamp` range spans
    // every other's, and the old fragments hold stale `loss` cells.
    let loops = flor.db.pin().scan("loops").expect("loops");
    let ctx_of = |t: i64| {
        (0..loops.n_rows())
            .find(|&r| {
                loops.get(r, "tstamp") == Some(&Value::Int(t))
                    && loops.get(r, "loop_iteration") == Some(&Value::Int(2))
            })
            .and_then(|r| loops.get(r, "ctx_id").cloned())
            .expect("epoch 2 context")
    };
    for t in [1, RUNS] {
        let row = vec![
            "backfill".into(),
            Value::Int(t),
            "train.fl".into(),
            ctx_of(t),
            "loss".into(),
            "-1.0".into(),
            Value::Int(flor_df::DataType::Float.tag()),
        ];
        flor.db.insert("logs", row).expect("insert");
    }
    flor.db.commit().expect("commit");

    // Every key is at a `tstamp` two fragments hold, so top-K merges
    // every fragment whole.
    let ex = run(&top_k);
    assert_eq!(ex.cut_summaries, Some((segments + 1, keys + 2)), "{ex}");
    assert_eq!(ex.merge, (keys + 2, keys), "{ex}");
    assert_eq!(ex.top_k_cut, Some((keys, 3)));
    // `latest` reads each fragment's newest key per class and name: the
    // last run's 5 keys, one of them also in the new fragment.
    let ex = run(&latest);
    assert_eq!(ex.merge, (EPOCHS as usize + 1, EPOCHS as usize), "{ex}");
}

//! End-to-end integration tests spanning the whole workspace: the paper's
//! workflows exercised through the public `flordb` API only.

use flordb::prelude::*;

const TRAIN_V1: &str = r#"
let data = load_dataset("first_page", 100, 42);
let epochs = flor.arg("epochs", 4);
let net = make_model(5, 6, 2, 3);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, epochs)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
    }
}
"#;

const TRAIN_V2: &str = r#"
let data = load_dataset("first_page", 100, 42);
let epochs = flor.arg("epochs", 4);
let net = make_model(5, 6, 2, 3);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, epochs)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
        let m = eval_model(net, data);
        flor.log("acc", m[0]);
        flor.log("recall", m[1]);
    }
}
"#;

/// The paper's §2 scenario: several versions run, metadata added later,
/// history backfilled — then queried through the same dataframe as live
/// data.
#[test]
fn multiversion_hindsight_round_trip() {
    let flor = Flor::new("e2e");
    flor.fs.write("train.fl", TRAIN_V1);
    let v1 = flordb::core::run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
    flor.set_cli_arg("epochs", "6");
    let v2 = flordb::core::run_script(&flor, "train.fl", CheckpointPolicy::EveryK(2)).unwrap();
    flor.clear_cli_args();
    assert_ne!(v1.vid, v2.vid); // different arg logs → different tstamps... same tree but distinct commits
    flor.fs.write("train.fl", TRAIN_V2);
    flordb::core::run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();

    let report = flordb::core::backfill(&flor, "train.fl", &["acc", "recall"], 4).unwrap();
    assert_eq!(report.versions.len(), 3);
    assert_eq!(report.values_recovered, (4 + 6) * 2);

    let df = flor.dataframe(&["loss", "acc", "recall"]).unwrap();
    assert_eq!(df.n_rows(), 4 + 6 + 4);
    for col in ["loss", "acc", "recall"] {
        assert_eq!(
            df.column(col).unwrap().count_non_null(),
            df.n_rows(),
            "column {col} still has holes"
        );
    }

    // Selective lazy queries see the backfilled values too, and the
    // pushdown path equals the from-scratch oracle over them.
    let query = || {
        flor.query(&["loss", "acc", "recall"])
            .filter("epoch_iteration", CmpOp::Ge, 2)
            .order_by("recall", false)
            .limit(4)
    };
    let top = query().collect().unwrap();
    assert_eq!(top, query().collect_full().unwrap());
    assert_eq!(top.n_rows(), 4);
}

/// Backfilled values must equal what foresight logging would have produced
/// (the crate-level correctness invariant).
#[test]
fn hindsight_equals_foresight() {
    let flor = Flor::new("e2e");
    flor.fs.write("train.fl", TRAIN_V1);
    flordb::core::run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
    flor.fs.write("train.fl", TRAIN_V2);
    flordb::core::backfill(&flor, "train.fl", &["acc"], 2).unwrap();

    let truth = Flor::new("truth");
    truth.fs.write("train.fl", TRAIN_V2);
    flordb::core::run_script(&truth, "train.fl", CheckpointPolicy::None).unwrap();

    let a = flor
        .dataframe(&["acc"])
        .unwrap()
        .sort_by(&[("epoch_iteration", true)])
        .unwrap();
    let b = truth
        .dataframe(&["acc"])
        .unwrap()
        .sort_by(&[("epoch_iteration", true)])
        .unwrap();
    let texts = |df: &DataFrame| -> Vec<String> {
        df.column("acc")
            .unwrap()
            .values
            .iter()
            .map(|v| v.to_text())
            .collect()
    };
    assert_eq!(texts(&a), texts(&b));
}

/// The lazy query builder end to end: a filtered, deduped, ordered and
/// limited read over live history matches the from-scratch oracle with
/// post-hoc filtering, stays incremental across commits, and the legacy
/// entrypoints are byte-identical wrappers over the same builder.
#[test]
fn lazy_query_round_trip() {
    let flor = Flor::new("e2e");
    flor.set_filename("train.fl");
    for run in 0..5i64 {
        flor.for_each("epoch", 0..4, |flor, &e| {
            flor.log("loss", 1.0 / (run + e + 1) as f64);
            flor.log("acc", 0.6 + 0.05 * run as f64 + 0.01 * e as f64);
        });
        flor.commit("run").unwrap();
    }
    let query = || {
        flor.query(&["loss", "acc"])
            .filter("tstamp", CmpOp::Ge, 2)
            .filter("acc", CmpOp::Gt, 0.7)
            .latest(&["epoch_value"])
            .order_by("acc", false)
            .limit(3)
    };
    let df = query().collect().unwrap();
    assert_eq!(df, query().collect_full().unwrap());
    assert_eq!(df.n_rows(), 3);
    // Descending acc: the filtered max per epoch comes from the last run.
    assert_eq!(df.get(0, "tstamp"), Some(&Value::Int(5)));

    // New commits land as deltas in the maintained plan views.
    let before = flor.views.stats();
    flor.for_each("epoch", 0..4, |flor, &e| {
        flor.log("loss", 0.01);
        flor.log("acc", 0.9 + 0.01 * e as f64);
    });
    flor.commit("one more").unwrap();
    let df = query().collect().unwrap();
    assert_eq!(df, query().collect_full().unwrap());
    assert_eq!(df.get(0, "tstamp"), Some(&Value::Int(6)));
    let stats = flor.views.stats();
    assert_eq!(stats.misses, before.misses, "refresh must be delta-applied");
    assert_eq!(stats.fallback_rebuilds, 0);

    // Legacy entrypoints: one-line wrappers over the builder, equal to
    // their from-scratch oracles.
    assert_eq!(
        flor.dataframe(&["loss"]).unwrap(),
        flor.query(&["loss"]).collect().unwrap()
    );
    assert_eq!(
        flor.dataframe(&["loss"]).unwrap(),
        flor.query(&["loss"]).collect_full().unwrap()
    );
    assert_eq!(
        flor.dataframe_latest(&["acc"], &["epoch_value"]).unwrap(),
        flor.query(&["acc"])
            .latest(&["epoch_value"])
            .collect()
            .unwrap()
    );
    assert_eq!(
        flor.dataframe_latest(&["acc"], &["epoch_value"]).unwrap(),
        flor.query(&["acc"])
            .latest(&["epoch_value"])
            .collect_full()
            .unwrap()
    );
}

/// Durability: a WAL-backed FlorDB instance survives process restart with
/// committed data intact and uncommitted data discarded.
#[test]
fn durable_flor_survives_restart() {
    let dir = std::env::temp_dir().join(format!("flordb-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.wal");
    let _ = std::fs::remove_file(&path);
    {
        let flor = Flor::open("e2e", &path).unwrap();
        flor.set_filename("train.fl");
        flor.log("acc", 0.9);
        flor.commit("run 1").unwrap();
        flor.log("acc", 0.95); // never committed — lost on crash
    }
    {
        let flor = Flor::open("e2e", &path).unwrap();
        let df = flor.dataframe(&["acc"]).unwrap();
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.get(0, "acc"), Some(&Value::Float(0.9)));
        // The clock resumed past the recovered data.
        flor.log("acc", 0.97);
        flor.commit("run 2").unwrap();
        assert_eq!(flor.dataframe(&["acc"]).unwrap().n_rows(), 2);
    }
    let _ = std::fs::remove_file(&path);
}

/// The record/replay stack honours recorded args: a replayed old version
/// uses the historical epoch count, not the script default.
#[test]
fn replay_respects_recorded_args() {
    let flor = Flor::new("e2e");
    flor.fs.write("train.fl", TRAIN_V1);
    flor.set_cli_arg("epochs", "2");
    flordb::core::run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
    flor.clear_cli_args();
    flor.fs.write("train.fl", TRAIN_V2);
    let report = flordb::core::backfill(&flor, "train.fl", &["acc"], 1).unwrap();
    // Only 2 epochs existed in that run; only 2 values recovered.
    assert_eq!(report.values_recovered, 2);
}

/// The whole PDF Parser demo: make run + feedback rounds keep the
/// dataframe consistent and accuracy non-degrading.
#[test]
fn pdf_demo_smoke() {
    let cfg = CorpusConfig {
        n_pdfs: 8,
        max_docs_per_pdf: 2,
        max_pages_per_doc: 3,
        seed: 77,
    };
    let (pipeline, accs) = run_demo(&cfg, 2).unwrap();
    assert!(accs.len() >= 2);
    assert!(accs[0] > 0.5);
    // Registry answers.
    let best = flordb::pipeline::best_model(&pipeline.flor).unwrap();
    assert!(best.is_some());
    // All six Fig. 1 tables are populated.
    for table in ["logs", "loops", "ts2vid", "git", "obj_store", "build_deps"] {
        assert!(
            pipeline.flor.db.row_count(table).unwrap() > 0,
            "table {table} empty"
        );
    }
}

/// Cross-version change context: the repo diff between two script versions
/// shows exactly the added log statements.
#[test]
fn change_context_diff() {
    let flor = Flor::new("e2e");
    flor.fs.write("train.fl", TRAIN_V1);
    let a = flordb::core::run_script(&flor, "train.fl", CheckpointPolicy::None).unwrap();
    flor.fs.write("train.fl", TRAIN_V2);
    let b = flordb::core::run_script(&flor, "train.fl", CheckpointPolicy::None).unwrap();
    let changes = flor.repo.diff(&a.vid, &b.vid).unwrap();
    assert_eq!(changes.len(), 1);
    match &changes[0] {
        flordb::git::FileChange::Modified { path, ops } => {
            assert_eq!(path, "train.fl");
            let (_, del, ins) = flordb::git::diff::summarize(ops);
            assert_eq!(del, 0);
            assert_eq!(ins, 3); // let m + 2 logs
        }
        other => panic!("expected modification, got {other:?}"),
    }
}

//! The read-order contract, end to end: rows leave a table in commit
//! order; clustering affects pruning, never order.
//!
//! Hindsight logging is the regime that can tell: a backfill appends
//! rows at *historical* timestamps, so a clustered compaction of `logs`
//! (sorted by `tstamp`) physically moves them ahead of rows committed
//! earlier. The pivot's column order is first-seen order of
//! `value_name`, so any reader that followed the physical layout —
//! instead of commit order — would hand back different columns than the
//! incrementally maintained view, which saw the rows arrive through the
//! change feed.

use flor_core::{backfill, run_script, Flor};
use flor_df::DataFrame;
use flor_record::CheckpointPolicy;

/// Three versions of one script: `loss`; `loss` + `b`; `loss` + `b` +
/// `acc`.
fn version(n: usize) -> String {
    let b = if n >= 2 { "flor.log(\"b\", e);" } else { "" };
    let acc = if n >= 3 {
        "let m = eval_model(net, data); flor.log(\"acc\", m[0]);"
    } else {
        ""
    };
    format!(
        r#"
let data = load_dataset("first_page", 40, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {{
    for e in flor.loop("epoch", range(0, 3)) {{
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
        {b}
        {acc}
    }}
}}
"#
    )
}

/// The incremental view and the from-scratch executor, per name set.
fn frames(flor: &Flor, name_sets: &[Vec<&str>]) -> Vec<(DataFrame, DataFrame)> {
    name_sets
        .iter()
        .map(|names| {
            (
                flor.query(names).collect().expect("view"),
                flor.query(names).collect_full().expect("oracle"),
            )
        })
        .collect()
}

#[test]
fn backfill_compact_checkpoint_reopen_keep_commit_order() {
    let dir = std::env::temp_dir().join(format!("flordb-read-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal = dir.join("read-order.wal");
    let sidecar = flor_store::checkpoint::sidecar_path(&wal);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&sidecar);

    let flor = Flor::open_with_workers("order", &wal, 1).expect("open");
    for n in 1..=3 {
        flor.fs.write("train.fl", &version(n));
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).expect("record run");
    }
    let report = backfill(&flor, "train.fl", &["acc"], 1).expect("backfill");
    assert!(report.values_recovered > 0, "acc landed at old timestamps");
    flor.job_runner().wait_idle();
    let want_logs = flor.db.scan("logs").expect("scan");
    // Every `value_name` in `logs` (the planner's scan arm: the index
    // would return every row) and a strict subset (the index arm).
    let mut logged: Vec<&str> = Vec::new();
    for name in &want_logs.column("value_name").expect("column").values {
        let name = name.as_str().expect("text");
        if !logged.contains(&name) {
            logged.push(name);
        }
    }
    assert!(logged.len() > 3 && logged.ends_with(&["b", "acc"]));
    let name_sets = [logged, vec!["b", "acc"]];

    let want = frames(&flor, &name_sets);
    for (view, oracle) in &want {
        assert_eq!(view, oracle, "before compaction");
    }
    assert_eq!(
        want[0].0.column_names()[want[0].0.n_cols() - 2..],
        ["b", "acc"],
        "value columns in first-committed order"
    );

    let stats = flor.compact().expect("compact");
    assert!(stats.rows_rewritten > 0, "logs was clustered");
    for ((view, oracle), (before, _)) in frames(&flor, &name_sets).iter().zip(&want) {
        assert_eq!(view, before, "view after compaction");
        assert_eq!(oracle, before, "oracle after compaction");
    }
    assert_eq!(flor.db.scan("logs").expect("scan"), want_logs);

    flor.checkpoint().expect("checkpoint");
    drop(flor);
    let flor = Flor::open_with_workers("order", &wal, 1).expect("reopen");
    assert!(flor.db.recovery_info().from_checkpoint);
    for ((view, oracle), (before, _)) in frames(&flor, &name_sets).iter().zip(&want) {
        assert_eq!(view, before, "view after checkpoint + reopen");
        assert_eq!(oracle, before, "oracle after checkpoint + reopen");
    }
    assert_eq!(flor.db.scan("logs").expect("scan"), want_logs);

    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&sidecar);
    let _ = std::fs::remove_dir(&dir);
}

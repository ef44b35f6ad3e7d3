//! Concurrent correctness under load: while a multi-version backfill job
//! runs in the background, foreground `Flor::query` reads return correct
//! (oracle-verified) results without blocking, and recovered values land
//! in the maintained views incrementally — per version, not at the end.

use flor_core::{run_script, Flor};
use flor_record::CheckpointPolicy;

const EPOCHS: usize = 6;
const VERSIONS: usize = 8;

fn script(with_acc: bool) -> String {
    let acc = if with_acc {
        "        let m = eval_model(net, data);\n        flor.log(\"acc\", m[0]);\n"
    } else {
        ""
    };
    format!(
        r#"let data = load_dataset("first_page", 60, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {{
    for e in flor.loop("epoch", range(0, {EPOCHS})) {{
        work(200);
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
{acc}    }}
}}
"#
    )
}

#[test]
fn queries_stay_correct_while_backfill_runs() {
    let flor = Flor::new("load");
    flor.fs.write("train.fl", &script(false));
    for _ in 0..VERSIONS {
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
    }
    flor.fs.write("train.fl", &script(true));
    // Materialize the view with holes so backfill arrives as deltas.
    flor.dataframe(&["loss", "acc"]).unwrap();

    let total = EPOCHS * VERSIONS;
    let handle = flor
        .submit_backfill_with("train.fl", &["acc"], 0, 1)
        .unwrap();
    let mut verified_mid_run = 0usize;
    let mut observed_partial = false;
    let filled = |df: &flor_df::DataFrame| {
        df.column("acc")
            .map(|c| c.values.iter().filter(|v| !v.is_null()).count())
            .unwrap_or(0)
    };
    while !handle.state().is_terminal() {
        // Reads never block on the job; any two reads with no commit in
        // between must agree with the from-scratch oracle read between
        // them. If `a == a2`, no commit interleaved, so `b` (taken inside
        // the window) proves the incremental read correct mid-run.
        let a = flor.query(&["loss", "acc"]).collect().unwrap();
        let b = flor.query(&["loss", "acc"]).collect_full().unwrap();
        let a2 = flor.query(&["loss", "acc"]).collect().unwrap();
        if a == a2 {
            assert_eq!(a, b, "incremental read diverged from oracle mid-job");
            verified_mid_run += 1;
        }
        let f = filled(&a);
        if f > 0 && f < total {
            observed_partial = true;
        }
        std::thread::yield_now();
    }
    let report = handle.wait();
    assert_eq!(report.versions.len(), VERSIONS);
    assert_eq!(report.values_recovered, total);
    assert!(
        verified_mid_run > 0,
        "at least one mid-run read must be oracle-verified"
    );
    assert!(
        observed_partial,
        "per-version results must land incrementally, not all at the end"
    );
    // Final state: no holes, and the maintained view equals the oracle.
    let after = flor.dataframe(&["loss", "acc"]).unwrap();
    assert_eq!(filled(&after), total);
    assert_eq!(after, flor.query(&["loss", "acc"]).collect_full().unwrap());
    assert_eq!(flor.views.stats().fallback_rebuilds, 0);
    assert_eq!(flor.job_stats().unwrap().done, 1);
}

#[test]
fn job_listing_is_the_same_across_compaction_and_reopen() {
    // `Flor::jobs()` is the store's latest-wins fold of the `jobs` table:
    // dropping dead transitions, or replaying every one of them on
    // reopen, must not change it, and each job's payload — persisted only
    // on its first transition — is carried into its latest record.
    let dir = std::env::temp_dir().join(format!("flordb-listing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("listing.wal");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&wal));
    let flor = Flor::open_with_workers("listing", &wal, 1).unwrap();
    flor.set_compaction_trigger(None);
    flor.fs.write("train.fl", &script(false));
    for _ in 0..2 {
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).unwrap();
    }
    flor.fs.write("train.fl", &script(true));
    flor.submit_backfill_with("train.fl", &["acc"], 0, 1)
        .unwrap()
        .wait();
    flor.job_runner().wait_idle();

    let before = flor.jobs().unwrap();
    assert_eq!(before.len(), 1);
    let first = flor.db.pin();
    let first = first
        .lookup("jobs", "job_id", &before[0].job_id.into())
        .unwrap();
    assert_eq!(first.get(0, "seq"), Some(&1i64.into()));
    let payload = first.get(0, "payload").unwrap().to_text();
    assert!(!payload.is_empty());
    assert!(before[0].seq > 1);
    assert_eq!(before[0].payload, payload, "carried from seq 1");

    assert!(flor.db.dead_rows("jobs").unwrap() > 0);
    assert!(flor.compact().unwrap().rows_dropped > 0);
    flor.job_runner().wait_idle();
    let after = flor.jobs().unwrap();
    assert_eq!(after[..1], before[..], "compaction left the listing alone");
    assert_eq!(after.len(), 2, "plus the compaction job itself");

    drop(flor);
    let reopened = Flor::open_with_workers("listing", &wal, 1).unwrap();
    assert_eq!(
        reopened.jobs().unwrap(),
        after,
        "reopen replays the same fold"
    );
    drop(reopened);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&wal));
}

//! Crash-recovery properties.
//!
//! 1. A backfill job killed between versions (the runner's workers halt
//!    without writing further transitions — the moral equivalent of
//!    `kill -9`), then reopened from the WAL, resumes from its persisted
//!    `done_keys` cursor and converges to a `logs` table *identical* to
//!    an uninterrupted run — same rows, same order, same ctx ids.
//! 2. A checkpoint taken anywhere mid-history leaves reopen byte-identical
//!    to a never-checkpointed reopen (`logs`/`loops`/`jobs` alike), while
//!    replaying only the WAL tail; and a crash *between* the sidecar
//!    write and the WAL truncation still converges.

use flor_core::{run_script, Flor};
use flor_record::CheckpointPolicy;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const TRAIN_V1: &str = r#"
let data = load_dataset("first_page", 40, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, 3)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
    }
}
"#;

const TRAIN_V2: &str = r#"
let data = load_dataset("first_page", 40, 42);
let net = make_model(5, 4, 2, 7);
with flor.checkpointing(net) {
    for e in flor.loop("epoch", range(0, 3)) {
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
        let m = eval_model(net, data);
        flor.log("acc", m[0]);
    }
}
"#;

fn fresh_wal(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("flordb-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}-{}.wal", N.fetch_add(1, Ordering::SeqCst)))
}

/// Record `versions` runs of V1 and stage V2 in the working tree.
/// Single job worker + single replay worker for determinism.
fn seeded(path: &Path, versions: usize) -> Flor {
    let flor = Flor::open_with_workers("crash", path, 1).expect("open");
    flor.fs.write("train.fl", TRAIN_V1);
    for _ in 0..versions {
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).expect("record run");
    }
    flor.fs.write("train.fl", TRAIN_V2);
    flor
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn interrupted_backfill_resumes_to_identical_logs(
        versions in 1usize..4,
        crash_after in 0u64..4,
    ) {
        // Uninterrupted oracle.
        let oracle_path = fresh_wal("oracle");
        let oracle = seeded(&oracle_path, versions);
        oracle
            .submit_backfill_with("train.fl", &["acc"], 0, 1)
            .expect("submit")
            .wait();
        let want_logs = oracle.db.scan("logs").expect("scan");
        let want_loops = oracle.db.scan("loops").expect("scan");
        drop(oracle);

        // Interrupted run: kill the runner after `crash_after` versions.
        let path = fresh_wal("crashed");
        let flor = seeded(&path, versions);
        flor.job_runner().crash_after_units(crash_after);
        let handle = flor
            .submit_backfill_with("train.fl", &["acc"], 0, 1)
            .expect("submit");
        flor.job_runner().wait_idle();
        let interrupted = flor.job_runner().is_crashed();
        prop_assert_eq!(interrupted, (crash_after as usize) <= versions);
        drop(handle);
        drop(flor);

        // Reopen: Flor::open resumes the incomplete job automatically
        // (the new source comes from the persisted job payload, the old
        // sources from the durable git table — the in-memory repo is
        // empty after reopen).
        let flor = Flor::open_with_workers("crash", &path, 1).expect("reopen");
        flor.job_runner().wait_idle();
        let stats = flor.job_stats().expect("stats");
        prop_assert_eq!(stats.done, 1, "job must end Done after resume");
        prop_assert_eq!(stats.running + stats.queued + stats.failed, 0);

        // Convergence: the data plane is bit-identical to the
        // uninterrupted run — rows, order, ctx ids and all.
        prop_assert_eq!(flor.db.scan("logs").expect("scan"), want_logs);
        prop_assert_eq!(flor.db.scan("loops").expect("scan"), want_loops);
        // And the maintained view over it equals the oracle recompute.
        let inc = flor.dataframe(&["loss", "acc"]).expect("view");
        let full = flor.query(&["loss", "acc"]).collect_full().expect("oracle");
        prop_assert_eq!(inc, full);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&oracle_path);
    }

    /// Checkpoint anywhere in the history (optionally "crashing" between
    /// the sidecar write and the WAL truncation): reopen must be
    /// byte-identical to a never-checkpointed reopen across `logs`,
    /// `loops` and `jobs`, and a completed checkpoint must make reopen
    /// replay only the WAL tail.
    #[test]
    fn checkpointed_reopen_is_byte_identical(
        versions in 1usize..3,
        ckpt_after in 1usize..4,
        kill_before_truncate in any::<bool>(),
    ) {
        // Oracle: identical history, never checkpointed. The backfill
        // job populates the `jobs` table so all three tables are
        // non-trivial.
        let oracle_path = fresh_wal("ckpt-oracle");
        let oracle = seeded(&oracle_path, versions);
        oracle
            .submit_backfill_with("train.fl", &["acc"], 0, 1)
            .expect("submit")
            .wait();
        oracle.job_runner().wait_idle();
        drop(oracle);
        let oracle = Flor::open_with_workers("crash", &oracle_path, 1).expect("reopen oracle");
        oracle.job_runner().wait_idle();
        let want_logs = oracle.db.scan("logs").expect("scan");
        let want_loops = oracle.db.scan("loops").expect("scan");
        let want_jobs = oracle.db.scan("jobs").expect("scan");
        let full_replay = oracle.db.recovery_info().wal_records_replayed;
        prop_assert!(full_replay > 0);
        drop(oracle);

        // Twin history with a store checkpoint after `ckpt_after` runs
        // (clamped into the run sequence; it may also land after the
        // backfill completes).
        let path = fresh_wal("ckpt");
        let flor = seeded(&path, versions);
        let ckpt_at = ckpt_after.min(versions + 1);
        let mut checkpointed = false;
        let mut take_ckpt = |flor: &Flor, step: usize| {
            if step == ckpt_at {
                if kill_before_truncate {
                    flor.db.checkpoint_without_truncate().expect("ckpt write");
                } else {
                    flor.db.checkpoint().expect("ckpt");
                }
                checkpointed = true;
            }
        };
        // Steps 1..=versions happened inside `seeded`; the checkpoint
        // interleaves with the backfill instead: before it, or after.
        take_ckpt(&flor, ckpt_at.min(versions));
        flor.submit_backfill_with("train.fl", &["acc"], 0, 1)
            .expect("submit")
            .wait();
        flor.job_runner().wait_idle();
        take_ckpt(&flor, versions + 1);
        prop_assert!(checkpointed);
        drop(flor);

        // Reopen: all three tables byte-identical to the oracle reopen.
        let flor = Flor::open_with_workers("crash", &path, 1).expect("reopen");
        flor.job_runner().wait_idle();
        prop_assert_eq!(flor.db.scan("logs").expect("scan"), want_logs);
        prop_assert_eq!(flor.db.scan("loops").expect("scan"), want_loops);
        prop_assert_eq!(flor.db.scan("jobs").expect("scan"), want_jobs);
        // The maintained view over the recovered state equals the oracle.
        let inc = flor.dataframe(&["loss", "acc"]).expect("view");
        let full = flor.query(&["loss", "acc"]).collect_full().expect("oracle");
        prop_assert_eq!(inc, full);
        // A completed (truncating) checkpoint shrinks replay to the tail.
        let info = flor.db.recovery_info();
        prop_assert!(info.from_checkpoint);
        if !kill_before_truncate {
            prop_assert!(
                info.wal_records_replayed < full_replay,
                "tail replay {} must be smaller than full replay {}",
                info.wal_records_replayed,
                full_replay
            );
        }

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&path));
        let _ = std::fs::remove_file(&oracle_path);
    }
}

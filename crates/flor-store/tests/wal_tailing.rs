//! Follower correctness under a live writer: a read-only
//! [`Database::open_follower`] tails the writer's WAL while the writer
//! appends, commits and checkpoints. The follower must
//!
//! * apply exactly the committed transactions, in order — staged rows of
//!   uncommitted transactions stay invisible;
//! * survive checkpoint truncation mid-tail by cleanly re-bootstrapping
//!   from the sidecar (never a torn read, never an error);
//! * keep its epoch monotone across polls and rebootstraps;
//! * converge to the writer's exact content within one poll of the
//!   writer going quiet;
//! * refuse every mutating entry point with [`StoreError::ReadOnly`];
//! * rebuild, from the same files, exactly the state a leader's
//!   [`Database::open`] rebuilds — both drive the one commit-marker fold.

use flor_df::Value;
use flor_store::codec::{encode_record, WalRecord};
use flor_store::{ColType, ColumnDef, CompactionPolicy, Database, StoreError, TableSchema};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn schema() -> Vec<TableSchema> {
    vec![TableSchema::new(
        "events",
        vec![
            ColumnDef::new("writer", ColType::Int),
            ColumnDef::new("seq", ColType::Int),
        ],
    )]
}

/// Sorted `(writer, seq)` pairs of the `events` table — content identity
/// that ignores segment layout and row order.
fn content(db: &Database) -> BTreeSet<(i64, i64)> {
    let df = db.pin().scan("events").expect("scan");
    let w = df.column("writer").expect("writer col");
    let s = df.column("seq").expect("seq col");
    w.values
        .iter()
        .zip(&s.values)
        .map(|(a, b)| (a.as_i64().unwrap(), b.as_i64().unwrap()))
        .collect()
}

#[test]
fn follower_tails_live_writer_through_checkpoints() {
    const ROUNDS: i64 = 60;
    const ROWS_PER_COMMIT: i64 = 4;
    const CHECKPOINT_EVERY: i64 = 7;

    let dir = std::env::temp_dir().join(format!("flor-wal-tailing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("writer.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));

    // The follower opens first, against a WAL that does not exist yet:
    // bootstrap from nothing must yield an empty, pollable database.
    let follower = Database::open_follower(&path, schema()).expect("open follower");
    assert!(follower.is_read_only());
    assert!(content(&follower).is_empty());

    let writer = Database::open(&path, schema()).expect("open writer");
    let writer_done = Arc::new(AtomicBool::new(false));

    let w_handle = {
        let writer = writer.clone();
        let done = Arc::clone(&writer_done);
        thread::spawn(move || {
            for round in 0..ROUNDS {
                for i in 0..ROWS_PER_COMMIT {
                    writer
                        .insert(
                            "events",
                            vec![Value::Int(round), Value::Int(round * ROWS_PER_COMMIT + i)],
                        )
                        .expect("insert");
                }
                writer.commit().expect("commit");
                // Frequent checkpoints truncate the WAL under the
                // tailing follower, forcing the rebootstrap path.
                if round % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
                    writer.checkpoint().expect("checkpoint");
                }
                thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::Release);
        })
    };

    // Poll concurrently with the writer: every poll must succeed, rows
    // applied must be committed rows only (a multiple of the commit
    // batch in total), and the epoch must never go backwards.
    let mut last_epoch = 0u64;
    let mut rebootstraps = 0usize;
    while !writer_done.load(Ordering::Acquire) {
        let progress = follower.poll_tail().expect("poll under live writer");
        assert!(
            progress.epoch >= last_epoch,
            "epoch went backwards: {last_epoch} -> {}",
            progress.epoch
        );
        last_epoch = progress.epoch;
        rebootstraps += progress.rebootstrapped as usize;
        // Whatever the follower holds must be a subset of everything the
        // writer will ever commit — and consist of full commits.
        let seen = content(&follower);
        assert!(
            seen.len().is_multiple_of(ROWS_PER_COMMIT as usize),
            "follower exposed a torn commit: {} rows",
            seen.len()
        );
        thread::sleep(Duration::from_micros(300));
    }
    w_handle.join().expect("writer thread");

    // One more poll after the writer went quiet must fully converge —
    // the bounded-staleness contract.
    let progress = follower.poll_tail().expect("final poll");
    assert!(progress.epoch >= last_epoch);
    assert_eq!(
        content(&follower),
        content(&writer),
        "follower did not converge to the writer's content"
    );
    assert_eq!(
        follower.pin().total_rows(),
        writer.pin().total_rows(),
        "row counts diverge"
    );
    // The writer checkpointed ~ROUNDS/CHECKPOINT_EVERY times after the
    // follower bootstrapped, so the truncation path must have run.
    assert!(
        rebootstraps >= 1,
        "checkpoint truncation never exercised the rebootstrap path"
    );

    // Read-only refusal from every mutating entry point.
    assert!(matches!(
        follower.insert("events", vec![Value::Int(0), Value::Int(0)]),
        Err(StoreError::ReadOnly)
    ));
    assert!(matches!(follower.commit(), Err(StoreError::ReadOnly)));
    assert!(matches!(follower.checkpoint(), Err(StoreError::ReadOnly)));
    assert!(matches!(
        follower.compact_with(&CompactionPolicy::default()),
        Err(StoreError::ReadOnly)
    ));

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("writer.wal.ckpt"));
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn follower_keeps_uncommitted_rows_invisible_across_polls() {
    let dir = std::env::temp_dir().join(format!("flor-wal-staged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("staged.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("staged.wal.ckpt"));

    let writer = Database::open(&path, schema()).expect("open writer");
    writer
        .insert("events", vec![Value::Int(1), Value::Int(1)])
        .expect("insert");
    writer.commit().expect("commit");
    // Stage a second transaction but do NOT commit it yet.
    writer
        .insert("events", vec![Value::Int(2), Value::Int(2)])
        .expect("insert staged");

    let follower = Database::open_follower(&path, schema()).expect("open follower");
    follower.poll_tail().expect("poll");
    assert_eq!(
        content(&follower),
        BTreeSet::from([(1, 1)]),
        "uncommitted insert leaked into the follower"
    );

    // The commit marker lands; the staged rows (carried across polls)
    // become visible in one poll.
    writer.commit().expect("commit staged");
    let progress = follower.poll_tail().expect("poll after commit");
    assert_eq!(progress.committed_txns, 1);
    assert_eq!(content(&follower), BTreeSet::from([(1, 1), (2, 2)]));

    // A snapshot pinned on the follower is isolated from later polls.
    let pinned = follower.pin();
    let rows_before = pinned.total_rows();
    writer
        .insert("events", vec![Value::Int(3), Value::Int(3)])
        .expect("insert");
    writer.commit().expect("commit");
    follower.poll_tail().expect("poll");
    assert_eq!(pinned.total_rows(), rows_before, "pinned snapshot moved");
    assert!(follower.pin().total_rows() > rows_before);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("staged.wal.ckpt"));
    let _ = std::fs::remove_dir(&dir);
}

fn two_tables() -> Vec<TableSchema> {
    let mut s = schema();
    s.push(TableSchema::new(
        "notes",
        vec![ColumnDef::new("seq", ColType::Int)],
    ));
    s
}

/// `Database::open` and `Database::open_follower` over the same files
/// must agree on everything a reader can see.
fn assert_leader_and_follower_agree(path: &std::path::Path) -> Database {
    let leader = Database::open(path, two_tables()).expect("open leader");
    let follower = Database::open_follower(path, two_tables()).expect("open follower");
    assert_eq!(leader.epoch(), follower.epoch(), "epochs diverge");
    assert_eq!(
        leader.stats().last_checkpoint_epoch,
        follower.stats().last_checkpoint_epoch,
        "checkpoint epochs diverge"
    );
    assert_eq!(leader.table_names(), follower.table_names());
    for table in leader.table_names() {
        assert_eq!(
            leader.scan(&table).expect("leader scan"),
            follower.scan(&table).expect("follower scan"),
            "table {table} diverges between open and open_follower"
        );
    }
    leader
}

#[test]
fn open_and_open_follower_rebuild_the_same_state() {
    let dir = std::env::temp_dir().join(format!("flor-wal-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let clean = |path: &std::path::Path| {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(path));
    };

    // 1. An interleaved log, as `wal::tests::interleaved_transactions`
    //    builds one: insert positions of two transactions alternate, so
    //    insert order and commit-marker order differ. Commit order is the
    //    one order — on the leader too.
    let path = dir.join("interleaved.wal");
    clean(&path);
    let ins = |txn: u64, table: &str, row: Vec<Value>| WalRecord::Insert {
        txn,
        table: table.into(),
        row,
    };
    let mut log = Vec::new();
    for rec in [
        ins(1, "events", vec![Value::Int(1), Value::Int(10)]),
        ins(2, "events", vec![Value::Int(2), Value::Int(20)]),
        ins(2, "notes", vec![Value::Int(200)]),
        ins(1, "events", vec![Value::Int(1), Value::Int(11)]),
        ins(1, "notes", vec![Value::Int(100)]),
        WalRecord::Commit { txn: 1 },
        WalRecord::Commit { txn: 2 },
        // An uncommitted tail stays invisible on both.
        ins(3, "events", vec![Value::Int(3), Value::Int(30)]),
    ] {
        log.extend_from_slice(&encode_record(&rec));
    }
    std::fs::write(&path, &log).expect("write log");
    let leader = assert_leader_and_follower_agree(&path);
    assert_eq!(leader.epoch(), 2);
    let seqs = |db: &Database, table: &str| -> Vec<i64> {
        let df = db.scan(table).expect("scan");
        let col = df.column("seq").expect("seq");
        col.values.iter().filter_map(Value::as_i64).collect()
    };
    assert_eq!(seqs(&leader, "events"), vec![10, 11, 20], "commit order");
    assert_eq!(seqs(&leader, "notes"), vec![100, 200], "commit order");
    drop(leader);
    clean(&path);

    // 2. The crash window of a checkpoint — new sidecar, full WAL — with
    //    a committed tail and an open transaction past it.
    let path = dir.join("crash-window.wal");
    clean(&path);
    let commit_round = |db: &Database, round: i64| {
        for i in 0..3 {
            db.insert("events", vec![Value::Int(round), Value::Int(round * 3 + i)])
                .expect("insert");
        }
        db.insert("notes", vec![Value::Int(round)]).expect("insert");
        db.commit().expect("commit");
    };
    {
        let writer = Database::open(&path, two_tables()).expect("open writer");
        for round in 0..10 {
            commit_round(&writer, round);
        }
        writer.checkpoint_without_truncate().expect("sidecar only");
        for round in 10..13 {
            commit_round(&writer, round);
        }
        writer
            .insert("notes", vec![Value::Int(-1)])
            .expect("staged, never committed");
    }
    let leader = assert_leader_and_follower_agree(&path);
    assert_eq!(leader.epoch(), 13);
    assert_eq!(leader.stats().last_checkpoint_epoch, 10);
    assert_eq!(leader.row_count("events").expect("count"), 39);

    // 3. And the completed checkpoint: sidecar plus the truncated tail.
    leader.checkpoint().expect("checkpoint");
    commit_round(&leader, 13);
    drop(leader);
    let leader = assert_leader_and_follower_agree(&path);
    assert_eq!(leader.epoch(), 14);
    assert_eq!(leader.stats().last_checkpoint_epoch, 13);
    drop(leader);

    clean(&path);
    let _ = std::fs::remove_dir(&dir);
}

//! Snapshot-isolation properties of the segmented MVCC store.
//!
//! The contract under test: a [`flor_store::Snapshot`] pinned at epoch
//! `e` re-scans byte-identically forever, no matter how many commits the
//! writer lands after the pin; a fresh pin always equals the
//! from-scratch oracle of everything committed so far; and neither side
//! ever blocks the other (exercised for real by the threaded test at the
//! bottom, where readers scan at full speed while the writer commits).

use flor_df::Value;
use flor_store::{ColType, ColumnDef, Database, Query, TableSchema};
use proptest::prelude::*;

fn schema() -> Vec<TableSchema> {
    vec![TableSchema::new(
        "t",
        vec![
            ColumnDef::new("k", ColType::Str),
            ColumnDef::new("v", ColType::Int),
        ],
    )]
}

proptest! {
    /// Writer commits random batches while a pinned reader re-scans: the
    /// pinned view stays identical across every commit (scans, counts,
    /// and point lookups alike), and a fresh pin equals the oracle of
    /// all committed rows.
    #[test]
    fn pinned_view_is_stable_and_fresh_pins_match_oracle(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..4, -100i64..100), 0..6),
            1..10,
        ),
        pin_at in 0usize..10,
    ) {
        let db = Database::in_memory(schema());
        let mut oracle: Vec<Vec<Value>> = Vec::new();
        let mut epochs = 0u64;
        let mut pinned = None;
        let mut pinned_rows = Vec::new();
        let mut pinned_lookup = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            if i == pin_at.min(batches.len() - 1) && pinned.is_none() {
                let snap = db.pin();
                pinned_rows = snap.scan("t").unwrap().to_rows();
                pinned_lookup = snap.lookup("t", "k", &"k1".into()).unwrap().to_rows();
                pinned = Some(snap);
            }
            for (k, v) in batch {
                let row: Vec<Value> = vec![format!("k{k}").into(), (*v).into()];
                db.insert("t", row.clone()).unwrap();
                oracle.push(row);
            }
            db.commit().unwrap();
            // An empty batch opens no transaction, so its commit is a
            // no-op that leaves the epoch untouched.
            if !batch.is_empty() {
                epochs += 1;
            }
            // The pinned view must not move: same scan bytes, same count,
            // same index-served lookup, same epoch.
            if let Some(snap) = &pinned {
                prop_assert_eq!(&snap.scan("t").unwrap().to_rows(), &pinned_rows);
                prop_assert_eq!(snap.row_count("t").unwrap(), pinned_rows.len());
                prop_assert_eq!(
                    &snap.lookup("t", "k", &"k1".into()).unwrap().to_rows(),
                    &pinned_lookup
                );
            }
            // A fresh pin sees exactly the committed prefix, in order.
            let fresh = db.pin();
            prop_assert_eq!(fresh.scan("t").unwrap().to_rows(), oracle.clone());
            prop_assert_eq!(fresh.epoch(), epochs);
            // Index-backed query against the fresh pin equals the
            // filtered oracle.
            let via_index = fresh
                .query(&Query::table("t").filter_eq("k", "k2"))
                .unwrap()
                .to_rows();
            let filtered: Vec<Vec<Value>> = oracle
                .iter()
                .filter(|r| r[0] == Value::from("k2"))
                .cloned()
                .collect();
            prop_assert_eq!(via_index, filtered);
        }
    }

    /// Staged (uncommitted) rows never leak into any snapshot, pinned
    /// before or after the staging.
    #[test]
    fn staged_rows_invisible_to_every_pin(
        committed in 0usize..6,
        staged in 1usize..6,
    ) {
        let db = Database::in_memory(schema());
        for i in 0..committed {
            db.insert("t", vec![format!("k{i}").into(), (i as i64).into()]).unwrap();
        }
        db.commit().unwrap();
        let before = db.pin();
        for i in 0..staged {
            db.insert("t", vec!["staged".into(), (i as i64).into()]).unwrap();
        }
        let during = db.pin();
        prop_assert_eq!(before.row_count("t").unwrap(), committed);
        prop_assert_eq!(during.row_count("t").unwrap(), committed);
        db.rollback();
        prop_assert_eq!(db.pin().row_count("t").unwrap(), committed);
    }
}

/// Real concurrency: one writer lands fixed-size batches while readers
/// pin and scan at full speed. Every scan must observe a whole number of
/// batches (epoch-consistent prefix) that matches its pin's epoch — a
/// torn scan or a scan blocked into inconsistency would break the
/// row-count/epoch relation.
#[test]
fn concurrent_pinned_scans_see_consistent_prefixes() {
    const BATCHES: u64 = 200;
    const ROWS_PER_BATCH: usize = 5;
    const READERS: usize = 4;
    let db = Database::in_memory(schema());
    std::thread::scope(|s| {
        let writer = {
            let db = db.clone();
            s.spawn(move || {
                for b in 0..BATCHES {
                    for r in 0..ROWS_PER_BATCH {
                        db.insert("t", vec![format!("k{}", r % 3).into(), (b as i64).into()])
                            .unwrap();
                    }
                    db.commit().unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let db = db.clone();
                s.spawn(move || {
                    let mut scans = 0u64;
                    let mut last_epoch = 0u64;
                    while last_epoch < BATCHES {
                        let snap = db.pin();
                        let epoch = snap.epoch();
                        let df = snap.scan("t").unwrap();
                        // Epoch-consistent: exactly `epoch` whole batches.
                        assert_eq!(df.n_rows(), epoch as usize * ROWS_PER_BATCH);
                        // Monotone: epochs never run backwards.
                        assert!(epoch >= last_epoch);
                        last_epoch = epoch;
                        scans += 1;
                    }
                    scans
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    });
    assert_eq!(db.pin().row_count("t").unwrap(), BATCHES as usize * 5);
}

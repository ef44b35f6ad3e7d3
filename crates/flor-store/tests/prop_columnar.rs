//! Columnar-layout oracle property test: random commit / compact /
//! checkpoint / reopen interleavings must read byte-identically to a
//! row-major shadow model — full scans, index probes, range windows,
//! null and float and type-mixed predicates alike — and compacted
//! segments of a clustered table must satisfy the clustering invariant
//! (sorted rows, disjoint zone maps, binary-search range entry).
//!
//! The shadow is a plain `Vec<Vec<Value>>` in insertion order, filtered
//! with the same `CmpOp::eval` semantics the row-major engine used —
//! exactly what the columnar tight loops must reproduce (floats via
//! `total_cmp`, cross-type comparisons via type rank, nulls patched by
//! constant verdict).
//!
//! Commits either advance `ts` (the paper's logical clock in its normal
//! regime) or land `late`, at timestamps the clock already passed — the
//! hindsight regime, where clustering's `(ts, rid)` sort really permutes
//! rows. The insertion-order shadow is the oracle in both: rows leave a
//! table in commit order whatever compaction did to the layout.

use flor_df::Value;
use flor_store::{CmpOp, ColType, ColumnDef, CompactionPolicy, Database, Query, TableSchema};
use proptest::prelude::*;

/// One clustered table exercising every column representation: `kind`
/// dictionary-encodes, `ts` is a primitive int vector, `note` is a
/// string column with nulls, `val` a float column (NaN included), and
/// `extra` is type-mixed so it lands in the `Any` fallback.
fn schemas() -> Vec<TableSchema> {
    vec![TableSchema::new(
        "events",
        vec![
            ColumnDef::indexed("kind", ColType::Str),
            ColumnDef::new("ts", ColType::Int),
            ColumnDef::new("note", ColType::Str),
            ColumnDef::new("val", ColType::Float),
            ColumnDef::new("extra", ColType::Any),
        ],
    )
    .with_cluster_by("ts")]
}

fn row_for(ts: i64) -> Vec<Value> {
    let kind = match ts % 3 {
        0 => "alpha",
        1 => "beta",
        _ => "gamma",
    };
    let note = if ts % 5 == 0 {
        Value::Null
    } else {
        Value::from(format!("note-{}", ts % 4).as_str())
    };
    let val = if ts % 11 == 0 {
        Value::Float(f64::NAN)
    } else {
        Value::Float(ts as f64 / 3.0)
    };
    let extra = match ts % 3 {
        0 => Value::Int(ts),
        1 => Value::from(format!("x{}", ts % 2).as_str()),
        _ => Value::Null,
    };
    vec![kind.into(), ts.into(), note, val, extra]
}

#[derive(Debug, Clone)]
enum Step {
    /// `late` rows are logged in hindsight, at already-passed timestamps.
    Commit {
        rows: usize,
        late: bool,
    },
    Compact,
    Checkpoint,
    Reopen,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (1usize..60, any::<bool>()).prop_map(|(rows, late)| Step::Commit { rows, late }),
        2 => Just(Step::Compact),
        1 => Just(Step::Checkpoint),
        1 => Just(Step::Reopen),
    ]
}

/// Every read the columnar engine serves, checked against the shadow.
fn check_against_shadow(db: &Database, shadow: &[Vec<Value>], ts_hi: i64, ctx: &str) {
    let snap = db.pin();
    // Full scan: byte-identical, column order included.
    assert_eq!(
        snap.scan("events").unwrap().to_rows(),
        shadow.to_vec(),
        "full scan diverged {ctx}"
    );
    // Index probe on the dictionary column.
    for kind in ["alpha", "gamma", "absent"] {
        let got = db.lookup("events", "kind", &kind.into()).unwrap().to_rows();
        let want: Vec<Vec<Value>> = shadow
            .iter()
            .filter(|r| r[0] == Value::from(kind))
            .cloned()
            .collect();
        assert_eq!(got, want, "index probe kind={kind} diverged {ctx}");
    }
    // Range windows over the cluster column, null/float/mixed residuals.
    let preds: Vec<(usize, CmpOp, Value)> = vec![
        (1, CmpOp::Ge, Value::Int(ts_hi / 3)),
        (1, CmpOp::Lt, Value::Int(ts_hi / 2 + 1)),
        (2, CmpOp::Eq, Value::Null),
        (2, CmpOp::Ne, Value::Null),
        (3, CmpOp::Gt, Value::Float(ts_hi as f64 / 6.0)),
        (3, CmpOp::Eq, Value::Float(f64::NAN)),
        (4, CmpOp::Ge, Value::Int(0)),
        (4, CmpOp::Lt, Value::from("x1")),
    ];
    let cols = ["kind", "ts", "note", "val", "extra"];
    for (ci, op, lit) in &preds {
        let q = Query::table("events").filter(cols[*ci], *op, lit.clone());
        let got = snap.query(&q).unwrap().to_rows();
        let want: Vec<Vec<Value>> = shadow
            .iter()
            .filter(|r| op.eval(&r[*ci], lit))
            .cloned()
            .collect();
        assert_eq!(
            got, want,
            "predicate {}{op:?}{lit:?} diverged {ctx}",
            cols[*ci]
        );
    }
    // A conjunctive window (Ge + Lt on ts) — the clustered
    // binary-search entry path once segments are sorted.
    let (lo, hi) = (ts_hi / 4, ts_hi / 4 + 9);
    let q = Query::table("events")
        .filter("ts", CmpOp::Ge, lo)
        .filter("ts", CmpOp::Lt, hi);
    let got = snap.query(&q).unwrap().to_rows();
    let want: Vec<Vec<Value>> = shadow
        .iter()
        .filter(|r| r[1].as_i64().is_some_and(|t| t >= lo && t < hi))
        .cloned()
        .collect();
    assert_eq!(got, want, "ts window [{lo},{hi}) diverged {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn columnar_reads_match_row_major_shadow(
        steps in proptest::collection::vec(arb_step(), 1..16),
        seed in 0u64..1_000_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "flor-prop-columnar-{}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("subject.wal");
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&wal));

        let mut db = Database::open(&wal, schemas()).unwrap();
        let mut shadow: Vec<Vec<Value>> = Vec::new();
        let policy = CompactionPolicy {
            min_dead_rows: 1,
            min_dead_ratio: 0.0,
            target_segment_rows: 64,
        };
        let mut ts = 0i64;

        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Commit { rows, late } => {
                    for j in 0..*rows as i64 {
                        let at = if *late {
                            (ts * 7 + j * 13) % (ts + 1)
                        } else {
                            ts += 1;
                            ts
                        };
                        let row = row_for(at);
                        db.insert("events", row.clone()).unwrap();
                        shadow.push(row);
                    }
                    db.commit().unwrap();
                }
                Step::Compact => {
                    // Pinned snapshots must keep re-reading their exact
                    // pre-compaction bytes.
                    let snap = db.pin();
                    let before = snap.scan("events").unwrap().to_rows();
                    db.compact_with(&policy).unwrap();
                    prop_assert_eq!(
                        snap.scan("events").unwrap().to_rows(),
                        before,
                        "pinned re-scan changed at step {}", i
                    );
                }
                Step::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Step::Reopen => {
                    drop(db);
                    db = Database::open(&wal, schemas()).unwrap();
                }
            }
            check_against_shadow(&db, &shadow, ts, &format!("at step {i} ({step:?})"));
        }
        db.checkpoint().unwrap();
        drop(db);
        let db = Database::open(&wal, schemas()).unwrap();
        check_against_shadow(&db, &shadow, ts, "after final reopen");

        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&wal));
        let _ = std::fs::remove_dir(&dir);
    }
}

/// The out-of-order (hindsight) regime: one oversized commit of
/// shuffled timestamps, then compaction. The monolith forms a single
/// run that is split into sorted chunks, so post-compaction the table
/// must satisfy the clustering invariant — observable from the outside
/// as: **disjoint** zone maps (a narrow window admits at most 2 of many
/// segments) and binary-search window entry surfacing in the explain
/// counters — while scans still read in insertion order.
#[test]
fn clustering_invariant_after_compacting_shuffled_monolith() {
    const N: i64 = 3000;
    let db = Database::in_memory(schemas());
    // (i * 2437) % N with gcd(2437, N) = 1 is a permutation of 0..N:
    // maximally shuffled timestamps in one giant commit.
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for i in 0..N {
        let ts = (i * 2437) % N;
        let row = row_for(ts);
        db.insert("events", row.clone()).unwrap();
        rows.push(row);
    }
    db.commit().unwrap();

    let policy = CompactionPolicy {
        min_dead_rows: 1,
        min_dead_ratio: 0.0,
        target_segment_rows: 512,
    };
    let stats = db.compact_with(&policy).unwrap();
    assert!(
        stats.segments_after >= 5,
        "monolith split into sorted chunks"
    );

    // Scan order: insertion order, although the single run was sorted
    // as a whole by (tstamp, insertion index) before chunking.
    let want = rows;
    let snap = db.pin();
    assert_eq!(snap.scan("events").unwrap().to_rows(), want);

    // Disjoint zone maps: a window of width 100 over 3000 timestamps
    // must admit at most 2 of the ~6 chunks (vs all of them when the
    // shuffled rows were unsorted).
    let window = [
        flor_store::Predicate::new("ts", CmpOp::Ge, 1000),
        flor_store::Predicate::new("ts", CmpOp::Lt, 1100),
    ];
    let (visited, total) = snap.zone_prune_stats("events", &window).unwrap();
    assert!(total >= 5, "expected several chunks, got {total}");
    assert!(
        visited <= 2,
        "disjoint zone maps admit at most 2 chunks for a 100-wide window, got {visited}/{total}"
    );

    // Binary-search entry: the explain counters record clustered probes
    // and examine only the window's rows (plus at most one partial
    // chunk), not the whole admitted segments.
    let q = Query::table("events")
        .filter("ts", CmpOp::Ge, 1000)
        .filter("ts", CmpOp::Lt, 1100);
    let (df, ex) = snap.explain(&q).unwrap();
    assert_eq!(df.n_rows(), 100);
    assert!(
        ex.clustered_probes >= 1,
        "range preds consumed by binary search"
    );
    assert_eq!(
        ex.rows_examined, 100,
        "window binary-searched, not filtered"
    );
    assert_eq!(ex.segments_scanned, visited);

    // Re-compaction passes sorted chunks through untouched (idempotent).
    assert!(db.compact_with(&policy).unwrap().tables_compacted == 0);

    // And the query result equals the shadow's filter, in insertion order.
    let got = snap.query(&q).unwrap().to_rows();
    let expect: Vec<Vec<Value>> = want
        .iter()
        .filter(|r| r[1].as_i64().is_some_and(|t| (1000..1100).contains(&t)))
        .cloned()
        .collect();
    assert_eq!(got, expect);
}

/// `data` in the retired version-1 (row-major) sidecar layout, byte for
/// byte what pre-columnar builds wrote: `[magic][1][fnv of body]` then
/// `[epoch][max_txn][n_tables]` and per table `[name][n_rows][rows…]`.
/// The writer is gone from the crate; the reader must keep working.
fn v1_blob(data: &flor_store::checkpoint::CheckpointData) -> Vec<u8> {
    use flor_store::codec::Put;
    let mut body = Vec::new();
    body.put_u64(data.epoch);
    body.put_u64(data.max_txn);
    body.put_u16(data.tables.len() as u16);
    for (name, rows) in &data.tables {
        body.put_u16(name.len() as u16);
        body.extend_from_slice(name.as_bytes());
        body.put_u64(rows.len() as u64);
        for row in rows {
            flor_store::codec::encode_row(row, &mut body);
        }
    }
    let mut out = 0x464C_4F52u32.to_be_bytes().to_vec();
    out.push(1);
    out.extend_from_slice(&flor_store::codec::fnv1a(&body).to_be_bytes());
    out.extend_from_slice(&body);
    out
}

/// A pre-refactor (version 1, row-major) checkpoint sidecar must reopen
/// cleanly: rewrite the current sidecar in the legacy layout, reopen,
/// and expect the same bytes back.
#[test]
fn legacy_row_major_sidecar_reopens() {
    let dir = std::env::temp_dir().join(format!("flor-v1-reopen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("legacy.wal");
    let _ = std::fs::remove_file(&wal);
    let sidecar = flor_store::checkpoint::sidecar_path(&wal);
    let _ = std::fs::remove_file(&sidecar);

    let db = Database::open(&wal, schemas()).unwrap();
    for ts in 1..=300 {
        db.insert("events", row_for(ts)).unwrap();
    }
    db.commit().unwrap();
    db.checkpoint().unwrap();
    let expected = db.scan("events").unwrap().to_rows();
    drop(db);

    // Downgrade the sidecar to the legacy row-major layout in place —
    // the file a pre-columnar build would have left behind.
    let v2 = std::fs::read(&sidecar).unwrap();
    let data = flor_store::checkpoint::decode_checkpoint(v2).unwrap();
    std::fs::write(&sidecar, v1_blob(&data)).unwrap();

    let db = Database::open(&wal, schemas()).unwrap();
    assert!(
        db.recovery_info().from_checkpoint,
        "reopen must seed from the legacy sidecar"
    );
    assert_eq!(db.scan("events").unwrap().to_rows(), expected);

    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&sidecar);
    let _ = std::fs::remove_dir(&dir);
}

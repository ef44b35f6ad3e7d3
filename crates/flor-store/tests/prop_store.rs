//! Property tests: WAL codec round-trips, crash-prefix recovery,
//! query/scan equivalence, and catching up by rid watermark.

use flor_df::Value;
use flor_store::codec::{decode_row, encode_record, encode_row, Cursor, WalRecord};
use flor_store::wal::{read_frames, Folded, StreamEnd, TxnFold};
use flor_store::{ColType, ColumnDef, CompactionPolicy, Database, Query, TableSchema};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[ -~]{0,24}".prop_map(Value::from),
    ]
}

/// What a leader open makes of the byte stream `bytes`: every committed
/// transaction as `(txn, rows)`, in the order the fold yields them, the
/// bytes the whole frames occupy, and how the stream ended.
type Committed = Vec<(u64, Vec<(String, Vec<Value>)>)>;

fn fold_bytes(fold: &mut TxnFold, bytes: &[u8], out: &mut Committed) -> (u64, StreamEnd) {
    read_frames(bytes, |rec| {
        if let Folded::Committed { txn, rows } = fold.push(rec) {
            out.push((txn, rows));
        }
    })
    .expect("a slice reader cannot fail with an I/O error")
}

fn values_bitwise_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

proptest! {
    /// Row encode/decode is the identity (floats compared bitwise so NaN
    /// payloads count).
    #[test]
    fn row_codec_round_trip(row in proptest::collection::vec(arb_value(), 0..12)) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let back = decode_row(&mut Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back.len(), row.len());
        for (a, b) in row.iter().zip(&back) {
            prop_assert!(values_bitwise_eq(a, b), "{:?} vs {:?}", a, b);
        }
    }

    /// Record frames survive concatenated stream decode.
    #[test]
    fn record_stream_round_trip(
        recs in proptest::collection::vec(
            prop_oneof![
                (any::<u64>(), "[a-z]{1,8}", proptest::collection::vec(arb_value(), 0..6))
                    .prop_map(|(txn, table, row)| WalRecord::Insert { txn, table, row }),
                any::<u64>().prop_map(|txn| WalRecord::Commit { txn }),
            ],
            0..20,
        )
    ) {
        let all: Vec<u8> = recs.iter().flat_map(encode_record).collect();
        let mut out = Vec::new();
        let (consumed, end) = read_frames(all.as_slice(), |r| out.push(r)).unwrap();
        prop_assert_eq!((consumed, end), (all.len() as u64, StreamEnd::Clean));
        prop_assert_eq!(out, recs);
    }

    /// Any prefix of a WAL recovers without error, and the set of
    /// recovered rows equals the rows of transactions whose commit marker
    /// made it into the prefix.
    #[test]
    fn crash_prefix_recovery(
        n_txns in 1usize..6,
        rows_per in 1usize..4,
        cut_frac in 0.0f64..1.0,
    ) {
        // Transaction ids are 1-based, as the engine allocates them.
        let mut bytes = Vec::new();
        for t in 0..n_txns {
            for r in 0..rows_per {
                bytes.extend_from_slice(&encode_record(&WalRecord::Insert {
                    txn: (t + 1) as u64,
                    table: "t".into(),
                    row: vec![Value::Int((t * 100 + r) as i64)],
                }));
            }
            bytes.extend_from_slice(&encode_record(&WalRecord::Commit { txn: (t + 1) as u64 }));
        }
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut by_txn = Committed::new();
        fold_bytes(&mut TxnFold::new(0), &bytes[..cut], &mut by_txn);
        let committed: Vec<_> = by_txn.into_iter().flat_map(|(_, rows)| rows).collect();
        // Committed rows must come in whole-transaction batches.
        prop_assert_eq!(committed.len() % rows_per, 0);
        let committed_txns = committed.len() / rows_per;
        prop_assert!(committed_txns <= n_txns);
        // Committed transactions are a prefix (log order).
        for (i, (_, row)) in committed.iter().enumerate() {
            let t = i / rows_per;
            let r = i % rows_per;
            prop_assert_eq!(row[0].clone(), Value::Int((t * 100 + r) as i64));
        }
    }

    /// Flipping any single byte of a single-frame WAL never yields a
    /// silently-wrong record: it either still decodes identically (flip in
    /// the already-consumed region can't happen with one frame), errors,
    /// or is detected by checksum.
    #[test]
    fn single_byte_corruption_never_silent(
        row in proptest::collection::vec(arb_value(), 1..4),
        flip_at_frac in 0.0f64..1.0,
    ) {
        let rec = WalRecord::Insert { txn: 1, table: "t".into(), row };
        let mut bytes = encode_record(&rec);
        let at = ((bytes.len() - 1) as f64 * flip_at_frac) as usize;
        bytes[at] ^= 0x01;
        let mut got = Vec::new();
        let (consumed, _) = read_frames(bytes.as_slice(), |r| got.push(r)).unwrap();
        // No record at all is a detected flip; a record that decodes over
        // the whole frame must be bit-identical content.
        if consumed == bytes.len() as u64 {
            prop_assert_eq!(got, vec![rec]);
        }
    }

    /// A query's equality and IN predicates always equal the filtered
    /// scan, over rows spread across several commits: each commit seals
    /// a segment (or folds into the trailing one), so the zone maps that
    /// prune segments see narrow, overlapping `k` ranges and disjoint,
    /// increasing `i` ranges.
    #[test]
    fn query_scan_equivalence(
        batches in proptest::collection::vec(proptest::collection::vec(0u8..5, 0..12), 0..6),
        in_keys in proptest::collection::vec(0u8..7, 0..4),
    ) {
        let db = Database::in_memory(vec![TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", ColType::Str),
                ColumnDef::new("i", ColType::Int),
            ],
        )]);
        let mut i = 0i64;
        for batch in &batches {
            for k in batch {
                db.insert("t", vec![format!("k{k}").into(), i.into()]).unwrap();
                i += 1;
            }
            db.commit().unwrap();
        }
        let snap = db.pin();
        let scan = snap.scan("t").unwrap();
        let filtered = |col: &str, values: &[Value]| {
            scan.filter(|r| values.contains(r.get(col).unwrap())).to_rows()
        };
        let key = |k: u8| Value::from(format!("k{k}"));
        let id = |k: u8| Value::Int(i64::from(k) * 3);
        for (col, value) in [("k", &key as &dyn Fn(u8) -> Value), ("i", &id)] {
            for k in 0u8..7 {
                let v = value(k);
                let q = Query::table("t").filter_eq(col, v.clone());
                prop_assert_eq!(snap.query(&q).unwrap().to_rows(), filtered(col, &[v]));
            }
            let values: Vec<Value> = in_keys.iter().map(|&k| value(k)).collect();
            let (df, ex) = snap.explain(&Query::table("t").filter_in(col, values.clone())).unwrap();
            prop_assert_eq!(df.to_rows(), filtered(col, &values));
            prop_assert_eq!(ex.segments_scanned + ex.segments_pruned, ex.segments_total);
        }
    }

    /// Rollback leaves no trace; committed counts add up.
    #[test]
    fn txn_visibility(batches in proptest::collection::vec((0usize..5, any::<bool>()), 0..10)) {
        let db = Database::in_memory(vec![TableSchema::new(
            "t", vec![ColumnDef::new("v", ColType::Int)],
        )]);
        let mut expected = 0usize;
        for (n, commit) in batches {
            for i in 0..n {
                db.insert("t", vec![(i as i64).into()]).unwrap();
            }
            if commit {
                db.commit().unwrap();
                expected += n;
            } else {
                db.rollback();
            }
        }
        prop_assert_eq!(db.row_count("t").unwrap(), expected);
    }
}

/// One step of a generated record stream: small transaction ids so
/// streams interleave, repeat commit markers, and dip at or below the
/// base on their own.
fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        3 => (0u64..7, 0u8..2, any::<i64>()).prop_map(|(txn, t, v)| WalRecord::Insert {
            txn,
            table: format!("t{t}"),
            row: vec![Value::Int(v)],
        }),
        1 => (0u64..7).prop_map(|txn| WalRecord::Commit { txn }),
    ]
}

proptest! {
    /// The fold is the same computation however the stream arrives: fed
    /// whole (a leader open) or in arbitrary byte chunks that split
    /// frames anywhere (follower polls, each resuming at the last whole
    /// frame), it yields exactly the same committed `(txn, rows)`
    /// sequence — over interleaved transactions, uncommitted tails,
    /// records at or below the base and repeated commit ids — and a torn
    /// final frame leaves the complete prefix applied with the offset at
    /// the last whole frame.
    #[test]
    fn chunked_fold_equals_whole_fold(
        recs in proptest::collection::vec(arb_record(), 0..40),
        base_txn in 0u64..3,
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
        torn_frac in 0.0f64..1.0,
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0u64];
        for r in &recs {
            bytes.extend_from_slice(&encode_record(r));
            boundaries.push(bytes.len() as u64);
        }

        // Leader: the whole stream at once.
        let mut whole = Committed::new();
        let mut leader = TxnFold::new(base_txn);
        let (consumed, end) = fold_bytes(&mut leader, &bytes, &mut whole);
        prop_assert_eq!(end, StreamEnd::Clean);
        prop_assert_eq!(consumed, bytes.len() as u64);

        // The stream's own invariants: commit-marker order, nothing at
        // or below the base, no transaction twice, rows in insert order.
        let mut applied = base_txn;
        for (txn, rows) in &whole {
            prop_assert!(*txn > applied, "txn {} after {}", txn, applied);
            applied = *txn;
            let inserted: Vec<(String, Vec<Value>)> = recs
                .iter()
                .filter_map(|r| match r {
                    WalRecord::Insert { txn: t, table, row } if t == txn => {
                        Some((table.clone(), row.clone()))
                    }
                    _ => None,
                })
                .collect();
            // Rows are a prefix of the transaction's inserts: those that
            // arrived before the marker that made it visible.
            prop_assert!(rows.len() <= inserted.len());
            prop_assert_eq!(&inserted[..rows.len()], &rows[..]);
        }
        prop_assert_eq!(leader.last_applied(), applied);

        // Follower: poll at arbitrary byte lengths, resuming each time
        // from the last whole frame, exactly like `poll_tail`.
        let mut lens: Vec<usize> = cuts
            .iter()
            .map(|f| (bytes.len() as f64 * f) as usize)
            .collect();
        lens.sort_unstable();
        lens.push(bytes.len());
        let mut chunked = Committed::new();
        let mut follower = TxnFold::new(base_txn);
        let mut offset = 0usize;
        for len in lens {
            let (n, end) = fold_bytes(&mut follower, &bytes[offset..len], &mut chunked);
            offset += n as usize;
            prop_assert!(boundaries.contains(&(offset as u64)), "offset off a frame boundary");
            prop_assert!(end != StreamEnd::Clean || offset == len);
            prop_assert!(matches!(end, StreamEnd::Clean | StreamEnd::Partial));
        }
        prop_assert_eq!(offset, bytes.len());
        prop_assert_eq!(&chunked, &whole);
        prop_assert_eq!(follower.last_applied(), leader.last_applied());
        prop_assert_eq!(follower.max_txn(), leader.max_txn());

        // A torn final frame: the complete prefix is applied, the offset
        // stops at the last whole frame, and the fold is where a clean
        // read of that prefix leaves it.
        let extra = encode_record(&WalRecord::Insert {
            txn: 9,
            table: "t0".into(),
            row: vec![Value::Int(0)],
        });
        let keep = 1 + ((extra.len() - 2) as f64 * torn_frac) as usize;
        let mut torn_bytes = bytes.clone();
        torn_bytes.extend_from_slice(&extra[..keep]);
        let mut torn = Committed::new();
        let mut torn_fold = TxnFold::new(base_txn);
        let (n, end) = fold_bytes(&mut torn_fold, &torn_bytes, &mut torn);
        prop_assert_eq!(end, StreamEnd::Partial);
        prop_assert_eq!(n, bytes.len() as u64);
        prop_assert_eq!(&torn, &whole);
    }
}

/// One step of a writer driving table `t(v, c)`, clustered by `c`.
#[derive(Debug, Clone)]
enum Op {
    /// Stage a row with cluster key `c`.
    Insert(i64),
    Commit,
    Rollback,
    /// Compact into segments of at most this many rows (clustered: each
    /// rewrite sorts by `c`, permuting rids across segments).
    Compact(usize),
    /// Pin, catch the mirror up and compare it with the scan.
    Pin,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0i64..20).prop_map(Op::Insert),
        3 => Just(Op::Commit),
        1 => Just(Op::Rollback),
        1 => (1usize..8).prop_map(Op::Compact),
        2 => Just(Op::Pin),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A reader that pins now and then and appends `since(watermark)` to
    /// a mirror, passing back each returned watermark, holds exactly the
    /// pinned scan: every committed row once, in commit order — across
    /// clustered compactions that move rows it has not read yet into
    /// rid-mapped segments ahead of rows it has — and never a staged or
    /// rolled-back row.
    #[test]
    fn since_chunks_concatenate_to_the_scan(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let db = Database::in_memory(vec![TableSchema::new(
            "t",
            vec![ColumnDef::new("v", ColType::Int), ColumnDef::new("c", ColType::Int)],
        )
        .with_cluster_by("c")]);
        let (mut mirror, mut watermark) = (Vec::new(), 0usize);
        let (mut staged, mut committed) = (Vec::new(), Vec::new());
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(c) => {
                    db.insert("t", vec![(i as i64).into(), c.into()]).unwrap();
                    staged.push(Value::Int(i as i64));
                }
                Op::Commit => {
                    db.commit().unwrap();
                    committed.append(&mut staged);
                }
                Op::Rollback => {
                    db.rollback();
                    staged.clear();
                }
                Op::Compact(rows) => {
                    let policy = CompactionPolicy {
                        target_segment_rows: rows,
                        ..CompactionPolicy::default()
                    };
                    db.compact_with(&policy).unwrap();
                }
                Op::Pin => {}
            }
            if i + 1 < ops.len() && !matches!(op, Op::Pin) {
                continue;
            }
            let snap = db.pin();
            let (chunk, next) = snap.since("t", watermark).unwrap();
            prop_assert!(next >= watermark);
            mirror.extend(chunk.to_rows());
            watermark = next;
            prop_assert_eq!(&mirror, &snap.scan("t").unwrap().to_rows(), "after {:?}", op);
            let values: Vec<Value> = mirror.iter().map(|row| row[0].clone()).collect();
            prop_assert_eq!(&values, &committed);
        }
    }
}

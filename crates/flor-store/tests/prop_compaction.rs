//! Compaction oracle property test: random commit / compact / checkpoint
//! / reopen interleavings must be indistinguishable — to every
//! fold-respecting reader — from a run that never compacted.
//!
//! The oracle is a second database receiving exactly the same commits but
//! never compacting (and never checkpointing). After every step we check:
//!
//! * tables **without** a latest-wins policy scan byte-identically;
//! * tables **with** one (here: a `jobs`-shaped table, and a clustered
//!   variant whose compactions permute rows against commit order, with
//!   tied `seq`s and payloads on any row) agree on the latest-wins fold —
//!   winner per key by max `ord`, ties to the oldest row, carry-forward
//!   columns restored — which is the only view any consumer of such a
//!   table reads, and the store's own fold (`Snapshot::latest_wins`)
//!   equals it;
//! * snapshots pinned *before* a compaction keep re-scanning their
//!   original rows byte-identically afterwards;
//! * zone-map-pruned range queries equal the oracle's unpruned filter;
//! * per-segment summaries (`Snapshot::summaries`), merged across
//!   segments by smallest rid, equal the summary of the table's rows —
//!   across merges, clustered merges that permute rows against commit
//!   order, and reopens — and each segment is summarised once;
//! * a reopen (checkpoint sidecar + WAL tail) converges to the same
//!   state.

use flor_df::Value;
use flor_store::{
    CmpOp, ColType, ColumnDef, CompactionPolicy, Database, LatestWins, Query, Snapshot, TableSchema,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Three tables: an append-only one (`events`), a latest-wins one with a
/// carry-forward column (`state`, shaped like `jobs`), and `clustered`:
/// `state` plus a cluster column `c` that compaction sorts rows by.
fn schemas() -> Vec<TableSchema> {
    vec![
        TableSchema::new(
            "events",
            vec![
                ColumnDef::new("kind", ColType::Str),
                ColumnDef::new("ts", ColType::Int),
            ],
        ),
        TableSchema::new(
            "state",
            vec![
                ColumnDef::new("key", ColType::Int),
                ColumnDef::new("seq", ColType::Int),
                ColumnDef::new("payload", ColType::Str),
            ],
        )
        .with_latest_wins(LatestWins::new(&["key"], Some("seq")).carry_first(&["payload"])),
        TableSchema::new(
            "clustered",
            vec![
                ColumnDef::new("key", ColType::Int),
                ColumnDef::new("seq", ColType::Int),
                ColumnDef::new("c", ColType::Int),
                ColumnDef::new("payload", ColType::Str),
            ],
        )
        .with_latest_wins(LatestWins::new(&["key"], Some("seq")).carry_first(&["payload"]))
        .with_cluster_by("c"),
    ]
}

/// The fold tables, each checked against the oracle's fold.
const FOLDED: [&str; 2] = ["state", "clustered"];

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// Commit `events` rows (append-only), `state` transitions and
    /// `clustered` rows `(key, same seq as the key's last row, with a
    /// payload, c)`.
    Commit {
        events: usize,
        transitions: Vec<(i64, bool)>,
        clustered: Vec<(i64, bool, bool, i64)>,
    },
    Compact,
    /// A compaction that merges (and clusters) but drops nothing.
    Merge,
    Checkpoint,
    Reopen,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (
            1usize..40,
            proptest::collection::vec((0i64..12, any::<bool>()), 0..6),
            proptest::collection::vec((0i64..6, any::<bool>(), any::<bool>(), 0i64..16), 0..6),
        )
            .prop_map(|(events, transitions, clustered)| Step::Commit {
                events,
                transitions,
                clustered,
            }),
        2 => Just(Step::Compact),
        1 => Just(Step::Merge),
        1 => Just(Step::Checkpoint),
        1 => Just(Step::Reopen),
    ]
}

/// The latest-wins fold every consumer of `table` applies: per key the
/// row with max `seq` (ties: oldest), with the first non-empty payload
/// carried forward. Computed from a raw scan, so it works identically on
/// compacted and uncompacted databases.
fn fold_state(db: &Database, table: &str) -> Vec<(i64, i64, String)> {
    let df = db.scan(table).expect("table scans");
    let mut best: HashMap<i64, (i64, String)> = HashMap::new();
    let mut payloads: HashMap<i64, String> = HashMap::new();
    for row in df.rows() {
        let key = row.get("key").and_then(Value::as_i64).unwrap();
        let seq = row.get("seq").and_then(Value::as_i64).unwrap();
        let payload = row.get("payload").map(|v| v.to_text()).unwrap_or_default();
        if !payload.is_empty() {
            payloads.entry(key).or_insert_with(|| payload.clone());
        }
        match best.get(&key) {
            Some((prev, _)) if *prev >= seq => {}
            _ => {
                best.insert(key, (seq, payload));
            }
        }
    }
    let mut out: Vec<(i64, i64, String)> = best
        .into_iter()
        .map(|(k, (s, p))| {
            let p = if p.is_empty() {
                payloads.get(&k).cloned().unwrap_or_default()
            } else {
                p
            };
            (k, s, p)
        })
        .collect();
    out.sort();
    out
}

/// The store's own fold of `table`, as `fold_state` lays it out.
fn latest_wins(db: &Database, table: &str) -> Vec<(i64, i64, String)> {
    let df = db.pin().latest_wins(table).expect("table folds");
    let mut out: Vec<(i64, i64, String)> = df
        .rows()
        .map(|row| {
            let key = row.get("key").and_then(Value::as_i64).unwrap();
            let seq = row.get("seq").and_then(Value::as_i64).unwrap();
            (key, seq, row.get("payload").unwrap().to_text())
        })
        .collect();
    out.sort();
    out
}

/// Per key of column `col`: its first rid and its row count in one
/// segment — a per-segment summary of the shape the pivot keeps.
type KeyFirsts = HashMap<Value, (usize, usize)>;

/// `snap`'s per-segment summaries of `table` merged across segments —
/// each key's smallest rid, counts summed — as keys in rid order with
/// their counts.
fn merged_summaries(snap: &Snapshot, table: &str, col: &str) -> Vec<(Value, usize)> {
    let summarise = |rows: &flor_df::DataFrame, rids: &[usize]| {
        let mut firsts = KeyFirsts::new();
        for (key, &rid) in rows.column(col).unwrap().values.iter().zip(rids) {
            firsts.entry(key.clone()).or_insert((rid, 0)).1 += 1;
        }
        firsts
    };
    let (segments, _) = snap.summaries(table, &[col], |_| true, summarise).unwrap();
    let mut merged = KeyFirsts::new();
    for (key, &(rid, n)) in segments.iter().flat_map(|s| s.iter()) {
        let slot = merged.entry(key.clone()).or_insert((rid, 0));
        slot.0 = slot.0.min(rid);
        slot.1 += n;
    }
    let mut merged: Vec<(usize, Value, usize)> = merged
        .into_iter()
        .map(|(k, (rid, n))| (rid, k, n))
        .collect();
    merged.sort_by_key(|(rid, ..)| *rid);
    merged.into_iter().map(|(_, k, n)| (k, n)).collect()
}

/// The same facts read off `table`'s rows: keys in first-seen order —
/// commit order, the store's read-order contract — with their counts.
fn first_seen(snap: &Snapshot, table: &str, col: &str) -> Vec<(Value, usize)> {
    let mut out: Vec<(Value, usize)> = Vec::new();
    for key in &snap.scan(table).unwrap().column(col).unwrap().values {
        match out.iter_mut().find(|(k, _)| k == key) {
            Some((_, n)) => *n += 1,
            None => out.push((key.clone(), 1)),
        }
    }
    out
}

/// Summaries of merged, clustered and recovered segments equal the
/// summary of their rows, and a summary is made once per segment.
fn check_summaries(snap: &Snapshot, ctx: &str) {
    for (table, col) in [("events", "kind"), ("state", "key"), ("clustered", "key")] {
        assert_eq!(
            merged_summaries(snap, table, col),
            first_seen(snap, table, col),
            "{table} summaries diverged from its rows {ctx}"
        );
        let (_, rows) = snap
            .summaries(table, &[col], |_: &KeyFirsts| true, |_, _| KeyFirsts::new())
            .unwrap();
        assert_eq!(rows, 0, "{table} summarised twice {ctx}");
    }
}

fn check_equivalence(db: &Database, oracle: &Database, ts_hi: i64, ctx: &str) {
    check_summaries(&db.pin(), ctx);
    // Append-only tables: raw scans byte-identical.
    assert_eq!(
        db.scan("events").unwrap(),
        oracle.scan("events").unwrap(),
        "events scan diverged {ctx}"
    );
    // Latest-wins tables: the fold agrees, and so does the store's.
    for table in FOLDED {
        let want = fold_state(oracle, table);
        assert_eq!(fold_state(db, table), want, "{table} fold diverged {ctx}");
        assert_eq!(latest_wins(db, table), want, "{table} latest_wins {ctx}");
    }
    // Zone-map-pruned range windows equal the oracle's unpruned filter.
    for (lo, hi) in [(0, ts_hi / 3), (ts_hi / 2, ts_hi), (ts_hi + 10, ts_hi + 20)] {
        let q = Query::table("events")
            .filter("ts", CmpOp::Ge, lo)
            .filter("ts", CmpOp::Lt, hi);
        let pruned = db.pin().query(&q).unwrap();
        let oracle_rows = oracle.scan("events").unwrap().filter(|r| {
            r.get("ts")
                .and_then(Value::as_i64)
                .is_some_and(|t| t >= lo && t < hi)
        });
        assert_eq!(
            pruned.to_rows(),
            oracle_rows.to_rows(),
            "pruned window [{lo},{hi}) diverged {ctx}"
        );
    }
    // Point lookups agree on the append-only table.
    let via_db = db.lookup("events", "kind", &"a".into()).unwrap();
    let via_oracle = oracle.lookup("events", "kind", &"a".into()).unwrap();
    assert_eq!(via_db, via_oracle, "point lookup diverged {ctx}");
}

proptest! {
    // Each case replays a whole interleaving on two databases plus disk
    // I/O for checkpoints/reopens; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compacted_run_is_equivalent_to_never_compacted_oracle(
        steps in proptest::collection::vec(arb_step(), 1..18),
        seed in 0u64..1_000_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "flor-prop-compact-{}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("subject.wal");
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&wal));

        let mut db = Database::open(&wal, schemas()).unwrap();
        let oracle = Database::in_memory(schemas());
        // Aggressive policy so small generated histories actually compact.
        let policy = CompactionPolicy {
            min_dead_rows: 1,
            min_dead_ratio: 0.0,
            target_segment_rows: 64,
        };
        let mut ts = 0i64;
        let mut seqs: HashMap<i64, i64> = HashMap::new();
        let mut clustered_seqs: HashMap<i64, i64> = HashMap::new();
        let mut payloads = 0usize;
        // A snapshot pinned mid-history, with its expected frames.
        type PinnedView = (flor_store::Snapshot, Vec<Vec<Value>>, Vec<Vec<Value>>);
        let mut pinned: Option<PinnedView> = None;

        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Commit { events, transitions, clustered } => {
                    for _ in 0..*events {
                        ts += 1;
                        let kind = if ts % 3 == 0 { "a" } else { "b" };
                        for d in [&db, &oracle] {
                            d.insert("events", vec![kind.into(), ts.into()]).unwrap();
                        }
                    }
                    for (key, with_payload) in transitions {
                        let seq = seqs.entry(*key).and_modify(|s| *s += 1).or_insert(1);
                        let payload = if *with_payload && *seq == 1 {
                            format!("payload-{key}")
                        } else {
                            String::new()
                        };
                        for d in [&db, &oracle] {
                            d.insert(
                                "state",
                                vec![(*key).into(), (*seq).into(), payload.as_str().into()],
                            )
                            .unwrap();
                        }
                    }
                    for &(key, same_seq, with_payload, c) in clustered {
                        let last = clustered_seqs.entry(key).or_insert(0);
                        if !same_seq || *last == 0 {
                            *last += 1;
                        }
                        payloads += 1;
                        let payload = if with_payload {
                            format!("payload-{payloads}")
                        } else {
                            String::new()
                        };
                        for d in [&db, &oracle] {
                            d.insert(
                                "clustered",
                                vec![key.into(), (*last).into(), c.into(), payload.as_str().into()],
                            )
                            .unwrap();
                        }
                    }
                    db.commit().unwrap();
                    oracle.commit().unwrap();
                }
                Step::Merge => {
                    let merge_only = CompactionPolicy {
                        min_dead_rows: usize::MAX,
                        ..policy.clone()
                    };
                    db.compact_with(&merge_only).unwrap();
                }
                Step::Compact => {
                    // Pin before compacting: the pinned view must keep
                    // re-reading its exact pre-compaction rows.
                    let snap = db.pin();
                    let ev = snap.scan("events").unwrap().to_rows();
                    let st = snap.scan("state").unwrap().to_rows();
                    db.compact_with(&policy).unwrap();
                    prop_assert_eq!(
                        snap.scan("events").unwrap().to_rows(),
                        ev.clone(),
                        "pinned events re-scan changed at step {}", i
                    );
                    prop_assert_eq!(
                        snap.scan("state").unwrap().to_rows(),
                        st.clone(),
                        "pinned state re-scan changed at step {}", i
                    );
                    pinned = Some((snap, ev, st));
                }
                Step::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Step::Reopen => {
                    pinned = None; // pins don't survive a process restart
                    drop(db);
                    db = Database::open(&wal, schemas()).unwrap();
                }
            }
            check_equivalence(&db, &oracle, ts, &format!("at step {i} ({step:?})"));
            if let Some((snap, ev, st)) = &pinned {
                prop_assert_eq!(&snap.scan("events").unwrap().to_rows(), ev);
                prop_assert_eq!(&snap.scan("state").unwrap().to_rows(), st);
                check_summaries(snap, &format!("pinned, at step {i}"));
            }
        }
        // Final convergence through one more checkpoint + reopen.
        db.checkpoint().unwrap();
        drop(db);
        let db = Database::open(&wal, schemas()).unwrap();
        check_equivalence(&db, &oracle, ts, "after final reopen");

        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(flor_store::checkpoint::sidecar_path(&wal));
        let _ = std::fs::remove_dir(&dir);
    }
}

//! Metrics consistency under concurrency: writers, readers and a
//! maintenance thread (checkpoint + compaction) hammer one database
//! while a monitor thread takes registry snapshots. Every snapshot must
//! be internally consistent and every counter monotone across
//! successive snapshots.

use flor_df::Value;
use flor_store::{
    CmpOp, ColType, ColumnDef, CompactionPolicy, Database, LatestWins, MetricsSnapshot, Query,
    TableSchema,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn schema() -> Vec<TableSchema> {
    vec![TableSchema::new(
        "events",
        vec![
            ColumnDef::new("kind", ColType::Str),
            ColumnDef::new("seq", ColType::Int),
        ],
    )
    .with_latest_wins(LatestWins::new(&["kind", "seq"], None))]
}

/// Every histogram's `count` must equal the sum of its bucket counts,
/// and bucket bounds must be strictly ascending.
fn assert_internally_consistent(snap: &MetricsSnapshot) {
    for (name, h) in &snap.histograms {
        let bucket_sum: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(h.count, bucket_sum, "histogram {name}: count != Σ buckets");
        assert!(
            h.buckets.windows(2).all(|w| w[0].0 < w[1].0),
            "histogram {name}: bucket bounds not ascending"
        );
    }
}

/// Counters (and histogram counts) never go backwards between two
/// snapshots of the same registry.
fn assert_monotone(prev: &MetricsSnapshot, next: &MetricsSnapshot) {
    let earlier: HashMap<&str, u64> = prev
        .counters
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    for (name, v) in &next.counters {
        if let Some(&old) = earlier.get(name.as_str()) {
            assert!(*v >= old, "counter {name} went backwards: {old} -> {v}");
        }
    }
    let earlier: HashMap<&str, u64> = prev
        .histograms
        .iter()
        .map(|(n, h)| (n.as_str(), h.count))
        .collect();
    for (name, h) in &next.histograms {
        if let Some(&old) = earlier.get(name.as_str()) {
            assert!(
                h.count >= old,
                "histogram {name} count went backwards: {old} -> {}",
                h.count
            );
        }
    }
}

#[test]
fn metrics_stay_consistent_under_concurrency() {
    const WRITERS: usize = 2;
    const ROUNDS: usize = 60;
    const ROWS_PER_COMMIT: usize = 5;

    let db = Database::in_memory(schema());
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    for w in 0..WRITERS {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            for round in 0..ROUNDS {
                for i in 0..ROWS_PER_COMMIT {
                    db.insert(
                        "events",
                        vec![
                            Value::from(format!("kind{}", (round + i) % 7).as_str()),
                            Value::Int((w * ROUNDS + round) as i64),
                        ],
                    )
                    .expect("insert");
                }
                db.commit().expect("commit");
            }
        }));
    }

    // Readers: run traced queries (feeding the store.query.* counters)
    // and check that `DbStats` agrees with itself on every iteration.
    for _ in 0..2 {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let stats = db.stats();
                let per_table: usize = stats.rows_per_table.iter().map(|&(_, n)| n).sum();
                assert_eq!(stats.total_rows, per_table, "DbStats disagrees with itself");
                let snap = db.pin();
                let q = Query::table("events").filter_eq("kind", "kind3").filter(
                    "seq",
                    CmpOp::Ge,
                    10i64,
                );
                let (df, ex) = snap.explain(&q).expect("explain");
                assert_eq!(df.n_rows(), ex.rows_returned);
                assert!(ex.rows_examined >= ex.rows_matched);
                assert!(ex.rows_matched >= ex.rows_returned);
                assert_eq!(ex.segments_scanned + ex.segments_pruned, ex.segments_total);
                thread::sleep(Duration::from_micros(200));
            }
        }));
    }

    // Maintenance: checkpoints and compaction passes interleaved with
    // the writers, so their histograms fill under contention.
    {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            let policy = CompactionPolicy::default();
            while !stop.load(Ordering::Relaxed) {
                db.checkpoint().expect("checkpoint");
                db.compact_with(&policy).expect("compact");
                thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    // Monitor: successive registry snapshots must be internally
    // consistent and monotone while everything above runs.
    let registry = db.metrics_registry();
    let mut prev = registry.snapshot();
    assert_internally_consistent(&prev);
    for _ in 0..50 {
        let next = registry.snapshot();
        assert_internally_consistent(&next);
        assert_monotone(&prev, &next);
        prev = next;
        thread::sleep(Duration::from_micros(500));
    }

    // Writers finish first; then release the loop threads.
    let (writers, loopers): (Vec<_>, Vec<_>) = {
        let mut it = handles.into_iter();
        let w: Vec<_> = (&mut it).take(WRITERS).collect();
        (w, it.collect())
    };
    for h in writers {
        h.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    for h in loopers {
        h.join().expect("looper");
    }

    // Final ledger: the commit histogram saw every commit, the row
    // counter every committed row, and the query accounting obeys
    // examined >= returned.
    let fin = registry.snapshot();
    assert_internally_consistent(&fin);
    assert_monotone(&prev, &fin);
    let commits = fin
        .histogram("store.commit.nanos")
        .expect("commit histogram exists")
        .count;
    // Two writers share the single logical writer's open transaction: an
    // insert can join the other writer's txn, whose commit() then seals
    // both writers' rows while the second commit() finds nothing open
    // (and records no sample). The exact invariant is one histogram
    // sample per *applied* commit — i.e. per epoch bump — bounded above
    // by the number of commit() calls.
    assert_eq!(commits, db.stats().wal_epoch);
    assert!(commits <= (WRITERS * ROUNDS) as u64);
    assert!(commits > 0);
    assert_eq!(
        fin.counter("store.commit.rows"),
        Some((WRITERS * ROUNDS * ROWS_PER_COMMIT) as u64)
    );
    assert!(fin.histogram("store.checkpoint.nanos").is_some());
    assert!(
        fin.counter("store.query.rows_examined").unwrap_or(0)
            >= fin.counter("store.query.rows_returned").unwrap_or(0)
    );
    // And the disabled registry really goes quiet: no new samples.
    registry.set_enabled(false);
    let before = registry.snapshot();
    for _ in 0..3 {
        db.insert("events", vec![Value::from("off"), Value::Int(0)])
            .expect("insert");
    }
    db.commit().expect("commit");
    let after = registry.snapshot();
    assert_eq!(
        before.histogram("store.commit.nanos"),
        after.histogram("store.commit.nanos"),
        "disabled registry must not record commit latency"
    );
}

//! Experiment: columnar segment layout vs the row-major scan it replaced.
//!
//! A 100k-row `logs` history (one commit, then clustered compaction).
//! Acceptance criteria asserted at bench time:
//!
//! * a selective full-scan query — dictionary-column equality plus a
//!   numeric residual, run as typed loops over the whole 100k-row
//!   segment, since no predicate is on the cluster column and the store
//!   has no index to narrow it — runs **≥ 5× faster** through the
//!   columnar engine than an in-bench row-major baseline evaluating
//!   [`Predicate::matches`] per row over `Vec<Vec<Value>>` (the shape
//!   of the pre-columnar scan path), with byte-identical results;
//! * a clustered `tstamp` window touches **only zone-admitted
//!   segments** and enters them by binary search — asserted through
//!   the explain counters (`segments_scanned` equals the zone-map
//!   admission count, `clustered_probes ≥ 1`, `rows_examined` equals
//!   the window's row count exactly);
//! * dictionary-encoded string columns keep the table's resident
//!   bytes **under half** the row-major footprint estimate.
//!
//! Benchmarked timings report the columnar scan, the row-major
//! baseline, and the clustered window query.

use criterion::{criterion_group, criterion_main, Criterion};
use flor_df::Value;
use flor_store::{flor_schema, CmpOp, CompactionPolicy, Database, Predicate, Query};
use std::time::{Duration, Instant};

const ROWS: i64 = 100_000;
const WINDOW: (i64, i64) = (40_000, 40_500);

/// A `logs` row with the paper's dotted-path value names: long shared
/// prefixes are exactly what dictionary codes collapse and what byte-wise
/// row-major comparisons pay for.
fn log_row(i: i64) -> Vec<Value> {
    vec![
        "bench".into(),
        i.into(),
        "train.fl".into(),
        (i % 50).into(),
        format!("experiment/bench/epoch-checkpoint/metric_{:03}", i % 100).into(),
        format!("{}", i as f64 * 0.5).into(),
        3.into(),
    ]
}

fn selective_predicates() -> Vec<Predicate> {
    vec![
        Predicate::new(
            "value_name",
            CmpOp::Eq,
            "experiment/bench/epoch-checkpoint/metric_037",
        ),
        Predicate::new("ctx_id", CmpOp::Ge, 25),
    ]
}

fn selective_query() -> Query {
    let mut q = Query::table("logs");
    for p in selective_predicates() {
        q = q.filter_pred(p);
    }
    q
}

/// The pre-columnar scan: walk row-major storage, short-circuit the
/// predicate conjunction per row, clone survivors out (what the old
/// engine materialized into a frame).
fn row_major_scan(rows: &[Vec<Value>], preds: &[(usize, Predicate)]) -> Vec<Vec<Value>> {
    rows.iter()
        .filter(|r| preds.iter().all(|(ci, p)| p.matches(&r[*ci])))
        .cloned()
        .collect()
}

/// Best-of-`reps` wall clock for `f` (first rep doubles as warmup).
fn best_of(reps: usize, mut f: impl FnMut() -> usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed());
    }
    best
}

/// Resident-byte estimate for the same table held row-major: one heap
/// `Vec<Value>` per row plus the string payloads.
fn row_major_bytes(rows: &[Vec<Value>]) -> usize {
    rows.iter()
        .map(|r| {
            std::mem::size_of::<Vec<Value>>()
                + r.len() * std::mem::size_of::<Value>()
                + r.iter()
                    .map(|v| match v {
                        Value::Str(s) => s.len(),
                        _ => 0,
                    })
                    .sum::<usize>()
        })
        .sum()
}

fn bench_columnar_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_scan");
    group.sample_size(10);

    let db = Database::in_memory(flor_schema());
    let rows: Vec<Vec<Value>> = (0..ROWS).map(log_row).collect();
    for row in &rows {
        db.insert("logs", row.clone()).unwrap();
    }
    db.commit().unwrap();

    let schema = &flor_schema()[0];
    let preds: Vec<(usize, Predicate)> = selective_predicates()
        .into_iter()
        .map(|p| (schema.col_index(&p.col).unwrap(), p))
        .collect();

    // ---- acceptance: byte-identical results ---------------------------
    let snap = db.pin();
    let oracle = row_major_scan(&rows, &preds);
    assert!(!oracle.is_empty(), "selective query must match something");
    assert_eq!(
        snap.query(&selective_query()).unwrap().to_rows(),
        oracle,
        "columnar scan diverged from the row-major oracle"
    );

    // ---- acceptance: >= 5x selective full scan ------------------------
    let col = best_of(15, || snap.query(&selective_query()).unwrap().n_rows());
    let row = best_of(15, || row_major_scan(&rows, &preds).len());
    let speedup = row.as_secs_f64() / col.as_secs_f64();
    assert!(
        speedup >= 5.0,
        "columnar selective scan {col:?} vs row-major {row:?} \
         ({speedup:.1}x) — acceptance requires >= 5x"
    );

    // ---- acceptance: dictionary memory --------------------------------
    let resident = snap.resident_bytes("logs").unwrap();
    let estimate = row_major_bytes(&rows);
    assert!(
        resident * 2 <= estimate,
        "columnar residency {resident}B vs row-major estimate {estimate}B — \
         dictionary encoding must at least halve it"
    );

    group.bench_function("selective_scan_columnar", |b| {
        b.iter(|| snap.query(&selective_query()).unwrap().n_rows())
    });
    group.bench_function("selective_scan_row_major", |b| {
        b.iter(|| row_major_scan(&rows, &preds).len())
    });

    // ---- acceptance: clustered window after compaction ----------------
    // Chunk the monolith; `logs` clusters by tstamp, so the output
    // segments carry disjoint zone maps and sorted columns.
    db.compact_with(&CompactionPolicy {
        min_dead_rows: 1,
        min_dead_ratio: 0.0,
        target_segment_rows: 8192,
    })
    .unwrap();
    let snap = db.pin();
    let window_preds = vec![
        Predicate::new("tstamp", CmpOp::Ge, WINDOW.0),
        Predicate::new("tstamp", CmpOp::Lt, WINDOW.1),
    ];
    let window_query = Query::table("logs")
        .filter("tstamp", CmpOp::Ge, WINDOW.0)
        .filter("tstamp", CmpOp::Lt, WINDOW.1);
    let (visited, total) = snap.zone_prune_stats("logs", &window_preds).unwrap();
    assert!(
        total >= 10,
        "expected a chunked table, got {total} segments"
    );
    assert!(
        visited <= 2,
        "disjoint zone maps must admit <= 2 segments for a 500-row window, \
         got {visited}/{total}"
    );
    let (df, ex) = snap.explain(&window_query).unwrap();
    assert_eq!(df.n_rows() as i64, WINDOW.1 - WINDOW.0);
    assert_eq!(
        ex.segments_scanned, visited,
        "window query must touch only zone-admitted segments"
    );
    assert!(
        ex.clustered_probes >= 1,
        "sorted segments must be entered by binary search"
    );
    assert_eq!(
        ex.rows_examined as i64,
        WINDOW.1 - WINDOW.0,
        "binary-search entry must examine exactly the window's rows"
    );
    let window_oracle: Vec<Vec<Value>> = rows
        .iter()
        .filter(|r| {
            r[1].as_i64()
                .is_some_and(|t| (WINDOW.0..WINDOW.1).contains(&t))
        })
        .cloned()
        .collect();
    assert_eq!(df.to_rows(), window_oracle, "clustered window diverged");

    group.bench_function("clustered_window_compacted", |b| {
        b.iter(|| snap.query(&window_query).unwrap().n_rows())
    });
    group.finish();

    println!(
        "\ncolumnar report: selective scan {speedup:.1}x over row-major \
         ({col:?} vs {row:?}), resident {resident}B vs row-major ~{estimate}B \
         ({:.1}x smaller), window visits {visited}/{total} segments, \
         {} clustered probes, {} rows examined",
        estimate as f64 / resident as f64,
        ex.clustered_probes,
        ex.rows_examined,
    );
}

criterion_group!(benches, bench_columnar_scan);
criterion_main!(benches);

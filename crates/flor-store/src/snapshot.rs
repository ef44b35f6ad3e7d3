//! Snapshot reads: the lock-free side of the concurrency model.
//!
//! [`crate::Database::pin`] takes the inner lock for the nanoseconds
//! needed to clone one `Arc` and read the epoch, and returns an
//! epoch-stamped [`Snapshot`]. Every scan, lookup and query then runs
//! **lock-free** against the pinned segments ([`crate::segment`]): a
//! concurrent commit builds new table versions beside them and can
//! neither block nor be blocked by any number of readers. A pinned
//! snapshot is stable forever — re-scanning it yields byte-identical
//! frames no matter how many commits land meanwhile (the
//! `snapshot_isolation` property test).
//!
//! There is one read engine: [`Snapshot::lookup`] and
//! [`Snapshot::lookup_many`] are [`crate::query::Query`] spellings, so
//! every read is planned, zone-pruned and accounted the same way.

use crate::checkpoint::CheckpointData;
use crate::db::{StoreError, StoreResult};
use crate::metrics::StoreMetrics;
use crate::query::{Predicate, Query, QueryExplain};
use crate::segment::TableVersion;
use flor_df::{DataFrame, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// An epoch-stamped, immutable view of every table: the unit of
/// isolation. Obtained from [`crate::Database::pin`] in O(1); all reads against
/// it are lock-free and stable — concurrent commits publish new table
/// versions without touching the pinned segments.
///
/// Cloning a snapshot is one `Arc` clone.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) epoch: u64,
    pub(crate) tables: Arc<HashMap<String, Arc<TableVersion>>>,
    /// Query-path accounting flows into the owning database's registry.
    pub(crate) metrics: Arc<StoreMetrics>,
}

impl Snapshot {
    /// The commit count this snapshot reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    pub(crate) fn table(&self, name: &str) -> StoreResult<&TableVersion> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Number of committed rows in a table.
    pub fn row_count(&self, table: &str) -> StoreResult<usize> {
        Ok(self.table(table)?.total_rows)
    }

    /// Full scan of committed rows as a [`DataFrame`], in commit order —
    /// the [read-order contract](crate::segment#read-order).
    pub fn scan(&self, table: &str) -> StoreResult<DataFrame> {
        Ok(self.table(table)?.scan())
    }

    /// Approximate resident heap bytes of `table`'s sealed column data —
    /// what dictionary encoding shrinks on string-heavy tables.
    pub fn resident_bytes(&self, table: &str) -> StoreResult<usize> {
        Ok(self
            .table(table)?
            .segments
            .iter()
            .map(|s| s.mem_bytes())
            .sum())
    }

    /// Point lookup: rows where `col == value`, in commit order
    /// ([read-order contract](crate::segment#read-order)) — the
    /// [`Query::filter_eq`] spelling, so an index on `col` serves it when
    /// one exists and a zone-pruned scan otherwise.
    pub fn lookup(&self, table: &str, col: &str, value: &Value) -> StoreResult<DataFrame> {
        self.query_known(col, Query::table(table).filter_eq(col, value.clone()))
    }

    /// Multi-value point lookup: rows where `col` equals any of `values`,
    /// in commit order ([read-order contract](crate::segment#read-order))
    /// — the [`Query::filter_in`] spelling.
    pub fn lookup_many(&self, table: &str, col: &str, values: &[Value]) -> StoreResult<DataFrame> {
        self.query_known(col, Query::table(table).filter_in(col, values.to_vec()))
    }

    /// Run `q`, refusing a `col` its table lacks (a bare [`Query`] treats
    /// an unknown predicate column as "matches nothing").
    fn query_known(&self, col: &str, q: Query) -> StoreResult<DataFrame> {
        if self.table(q.table_name())?.schema.col_index(col).is_none() {
            return Err(StoreError::Invalid(format!("no column {col}")));
        }
        self.query(&q)
    }

    /// Execute a [`crate::query::Query`] against this snapshot. Without an
    /// `order_by` the rows come back in commit order, whichever access
    /// path ran ([read-order contract](crate::segment#read-order)).
    pub fn query(&self, q: &Query) -> StoreResult<DataFrame> {
        let (df, ex) = q.run_traced(self.table(q.table_name())?)?;
        self.metrics.record_query(&ex);
        Ok(df)
    }

    /// Execute a [`crate::query::Query`] and return the frame together
    /// with its [`QueryExplain`] — access path, zone-map pruning, rows
    /// examined vs returned, and wall-clock timing. The query really
    /// runs (the counts are measurements, not estimates) and its
    /// accounting feeds the `store.query.*` counters like any other run.
    pub fn explain(&self, q: &Query) -> StoreResult<(DataFrame, QueryExplain)> {
        let start = Instant::now();
        let (df, mut ex) = q.run_traced(self.table(q.table_name())?)?;
        ex.elapsed_nanos = start.elapsed().as_nanos() as u64;
        self.metrics.record_query(&ex);
        Ok((df, ex))
    }

    /// Zone-map pruning accounting for a full scan of `table` under the
    /// conjunction of `predicates`: `(segments that must be visited,
    /// total segments)`. What the compaction bench and property tests
    /// assert pruning ratios on.
    pub fn zone_prune_stats(
        &self,
        table: &str,
        predicates: &[Predicate],
    ) -> StoreResult<(usize, usize)> {
        let t = self.table(table)?;
        let visited = t.segments.iter().filter(|s| s.admits(predicates)).count();
        Ok((visited, t.segments.len()))
    }

    /// Live (retained) rows in `table` — what a full scan touches. After
    /// a compaction of a latest-wins table this is smaller than the rid
    /// high watermark.
    pub fn live_rows(&self, table: &str) -> StoreResult<usize> {
        Ok(self.table(table)?.total_rows)
    }

    /// Total committed rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.total_rows).sum()
    }

    /// The raw committed rows of every table, in commit order — what a
    /// checkpoint serializes.
    pub(crate) fn to_checkpoint(&self, max_txn: u64) -> CheckpointData {
        let mut tables: Vec<(String, Vec<Vec<Value>>)> = self
            .tables
            .iter()
            .map(|(name, t)| (name.clone(), t.scan().to_rows()))
            .collect();
        tables.sort_by(|(a, _), (b, _)| a.cmp(b));
        CheckpointData {
            epoch: self.epoch,
            max_txn,
            tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::testing::tiny_schema;

    #[test]
    fn scan_returns_committed_rows() {
        let db = Database::in_memory(tiny_schema());
        for i in 0..5 {
            db.insert("t", vec![format!("k{i}").into(), i.into()])
                .unwrap();
        }
        db.commit().unwrap();
        let df = db.scan("t").unwrap();
        assert_eq!(df.n_rows(), 5);
        assert_eq!(df.column_names(), vec!["k", "v"]);
    }

    #[test]
    fn indexed_lookup_matches_scan_filter() {
        let db = Database::in_memory(tiny_schema());
        for i in 0..100 {
            db.insert("t", vec![format!("k{}", i % 10).into(), i.into()])
                .unwrap();
        }
        db.commit().unwrap();
        assert!(db.has_index("t", "k"));
        let via_index = db.lookup("t", "k", &"k3".into()).unwrap();
        let via_scan = db.scan("t").unwrap().filter_eq("k", &"k3".into());
        assert_eq!(via_index.n_rows(), 10);
        assert_eq!(via_index.to_rows(), via_scan.to_rows());
    }

    #[test]
    fn indexed_lookup_spans_segments() {
        // Rows for one key spread across many sealed segments must come
        // back complete and in insertion order.
        let db = Database::in_memory(tiny_schema());
        for batch in 0..5 {
            for i in 0..3 {
                db.insert("t", vec!["hot".into(), (batch * 10 + i).into()])
                    .unwrap();
            }
            db.commit().unwrap();
        }
        let df = db.lookup("t", "k", &"hot".into()).unwrap();
        let vs: Vec<i64> = df
            .column("v")
            .unwrap()
            .values
            .iter()
            .filter_map(Value::as_i64)
            .collect();
        assert_eq!(
            vs,
            vec![0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31, 32, 40, 41, 42]
        );
    }

    #[test]
    fn pinned_snapshot_is_stable_across_commits() {
        let db = Database::in_memory(tiny_schema());
        db.insert("t", vec!["a".into(), 1.into()]).unwrap();
        db.commit().unwrap();
        let pinned = db.pin();
        let before = pinned.scan("t").unwrap();
        for i in 0..100 {
            db.insert("t", vec![format!("w{i}").into(), i.into()])
                .unwrap();
            db.commit().unwrap();
        }
        // The pinned view re-reads byte-identically; a fresh pin sees all.
        assert_eq!(pinned.scan("t").unwrap(), before);
        assert_eq!(pinned.row_count("t").unwrap(), 1);
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(db.pin().row_count("t").unwrap(), 101);
    }

    #[test]
    fn lookup_many_preserves_insertion_order() {
        let db = Database::in_memory(tiny_schema());
        for (i, k) in ["b", "a", "b", "c", "a"].iter().enumerate() {
            db.insert("t", vec![(*k).into(), (i as i64).into()])
                .unwrap();
        }
        db.commit().unwrap();
        let df = db.lookup_many("t", "k", &["a".into(), "b".into()]).unwrap();
        let order: Vec<i64> = df
            .column("v")
            .unwrap()
            .values
            .iter()
            .filter_map(Value::as_i64)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 4], "scan order, not per-key order");
        // Unindexed column falls back to a filtered scan, same order.
        let df2 = db.lookup_many("t", "v", &[1.into(), 0.into()]).unwrap();
        assert_eq!(df2.n_rows(), 2);
        assert_eq!(df2.get(0, "k"), Some(&Value::from("b")));
    }

    #[test]
    fn unindexed_lookup_falls_back() {
        let db = Database::in_memory(tiny_schema());
        db.insert("t", vec!["a".into(), 7.into()]).unwrap();
        db.commit().unwrap();
        assert!(!db.has_index("t", "v"));
        let df = db.lookup("t", "v", &7.into()).unwrap();
        assert_eq!(df.n_rows(), 1);
        // An unknown column is an error, not an empty frame.
        assert!(matches!(
            db.lookup("t", "nope", &7.into()),
            Err(StoreError::Invalid(m)) if m == "no column nope"
        ));
        assert!(matches!(
            db.lookup_many("t", "nope", &[7.into()]),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn pinned_queries_run_at_one_epoch() {
        use crate::query::Query;
        let db = Database::in_memory(tiny_schema());
        for (k, v) in [("a", 1i64), ("b", 2), ("a", 3)] {
            db.insert("t", vec![k.into(), v.into()]).unwrap();
        }
        db.commit().unwrap();
        let snap = db.pin();
        let frames = [
            snap.query(&Query::table("t").filter_in("k", vec!["a".into()]))
                .unwrap(),
            snap.query(&Query::table("t")).unwrap(),
        ];
        assert_eq!(snap.epoch(), 1);
        assert_eq!(frames[0].n_rows(), 2);
        assert_eq!(frames[1].n_rows(), 3);
        assert!(snap.query(&Query::table("absent")).is_err());
    }

    #[test]
    fn snapshot_is_atomic_and_epoch_stamped() {
        let db = Database::in_memory(tiny_schema());
        db.insert("t", vec!["a".into(), 1.into()]).unwrap();
        db.commit().unwrap();
        let snap = db.pin();
        let frames = [snap.scan("t").unwrap()];
        assert_eq!(snap.epoch(), 1);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].n_rows(), 1);
        assert!(matches!(snap.scan("nope"), Err(StoreError::NoSuchTable(_))));
    }
}

//! A small query layer: predicate pushdown onto zone maps, projection,
//! and ordering, materialising [`DataFrame`]s.
//!
//! FlorDB promises "powerful, SQL-like data reads" (§3.1). Complex
//! relational work (joins, pivots) happens on the dataframe layer; the
//! query layer's job is to get the right rows out of the store cheaply.
//! Every query takes one access path, a zone-pruned scan: each segment's
//! zone maps (min/max per column, built at seal time) skip it wholesale
//! when a predicate or an IN list ([`Query::filter_in`]) cannot match
//! any row in it — a `tstamp` window or a point lookup never reads cold
//! history — a range or equality on a clustered segment's sort column
//! narrows the visited segment by binary search, and the remaining
//! predicates run as typed loops over the segment's columns into a
//! selection bitmap. The same [`CmpOp`]/[`Predicate`] vocabulary is
//! reused by the lazy query builder (`flor_view::QueryPlan` /
//! `Flor::query`) so one predicate type spans every layer of the stack.

use crate::column::Bitmap;
use crate::db::{Database, StoreResult};
use crate::segment::{Segment, TableVersion};
use flor_df::{Column, DataFrame, DfError, DfResult, Value};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Comparison operators for scan predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluate `a op b` under the total value order of [`Value`].
    pub fn eval(&self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One predicate: `column op literal`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// Column name.
    pub col: String,
    /// Operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl Predicate {
    /// Build a predicate.
    pub fn new(col: &str, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate {
            col: col.to_string(),
            op,
            value: value.into(),
        }
    }

    /// Whether a cell value satisfies this predicate.
    pub fn matches(&self, v: &Value) -> bool {
        self.op.eval(v, &self.value)
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {:?}", self.col, self.op, self.value)
    }
}

/// A declarative query against one table.
#[derive(Debug, Clone)]
pub struct Query {
    table: String,
    predicates: Vec<Predicate>,
    /// Set-membership predicates: `col IN (values)`.
    in_predicates: Vec<(String, Vec<Value>)>,
    projection: Option<Vec<String>>,
    order_by: Vec<(String, bool)>,
    limit: Option<usize>,
}

/// How the executor satisfied `order_by`, as reported by
/// [`QueryExplain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPath {
    /// No ordering requested.
    Unordered,
    /// Full sort of the matched rows.
    FullSort,
    /// Bounded binary heap: `order_by` + `limit(n)` kept only the `n`
    /// best rows — O(rows · log n) instead of a full sort.
    TopK,
}

impl std::fmt::Display for OrderPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderPath::Unordered => f.write_str("unordered"),
            OrderPath::FullSort => f.write_str("full-sort"),
            OrderPath::TopK => f.write_str("top-k"),
        }
    }
}

/// Execution accounting for one store query, produced by every run and
/// surfaced through [`crate::Snapshot::explain`] (and, at the kernel,
/// `QueryBuilder::explain`).
///
/// Counts describe the run itself, not estimates: `rows_examined` is the
/// number of rows in the visited segments' scan windows (after
/// binary-search entry into clustered segments) that the predicates
/// were tested against, `rows_matched` how many survived them, and
/// `rows_returned` the final frame size after ordering/limit/projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryExplain {
    /// Queried table.
    pub table: String,
    /// Segments in the pinned table version.
    pub segments_total: usize,
    /// Segments actually visited.
    pub segments_scanned: usize,
    /// Segments skipped wholesale via zone maps.
    pub segments_pruned: usize,
    /// Rows in the visited scan windows, tested against the predicates.
    pub rows_examined: usize,
    /// Rows that satisfied every predicate.
    pub rows_matched: usize,
    /// Rows in the returned frame (after order/limit/projection).
    pub rows_returned: usize,
    /// Predicates and IN lists over known columns: each runs as a
    /// filter over the visited rows, except in a segment where a
    /// clustered probe consumed it.
    pub residual_predicates: usize,
    /// Range predicates answered by **binary search** into a clustered
    /// (sorted) segment instead of filtering it: each probe narrows one
    /// segment's scan window and consumes the predicate there.
    pub clustered_probes: usize,
    /// How `order_by` was satisfied ([`OrderPath::TopK`] when a `limit`
    /// let a bounded heap replace the full sort).
    pub order: OrderPath,
    /// Wall-clock execution time. Zero unless the caller timed the run
    /// (e.g. [`crate::Snapshot::explain`]).
    pub elapsed_nanos: u64,
}

impl std::fmt::Display for QueryExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "QUERY {}", self.table)?;
        writeln!(
            f,
            "  segments: {} scanned, {} pruned of {}",
            self.segments_scanned, self.segments_pruned, self.segments_total
        )?;
        writeln!(
            f,
            "  rows: {} examined, {} matched, {} returned",
            self.rows_examined, self.rows_matched, self.rows_returned
        )?;
        if self.clustered_probes > 0 {
            writeln!(f, "  clustered probes: {}", self.clustered_probes)?;
        }
        if self.order != OrderPath::Unordered {
            writeln!(f, "  order: {}", self.order)?;
        }
        write!(
            f,
            "  residual predicates: {}; elapsed: {}ns",
            self.residual_predicates, self.elapsed_nanos
        )
    }
}

impl Query {
    /// Query all rows of `table`.
    pub fn table(table: &str) -> Query {
        Query {
            table: table.to_string(),
            predicates: Vec::new(),
            in_predicates: Vec::new(),
            projection: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// The queried table's name.
    pub fn table_name(&self) -> &str {
        &self.table
    }

    /// Add an equality predicate.
    pub fn filter_eq(mut self, col: &str, value: impl Into<Value>) -> Query {
        self.predicates.push(Predicate {
            col: col.to_string(),
            op: CmpOp::Eq,
            value: value.into(),
        });
        self
    }

    /// Add a set-membership predicate: `col IN (values)`. A segment whose
    /// zone on `col` holds none of `values` is skipped without reading a
    /// row, like one an equality rules out.
    pub fn filter_in(mut self, col: &str, values: Vec<Value>) -> Query {
        self.in_predicates.push((col.to_string(), values));
        self
    }

    /// Add a general comparison predicate.
    pub fn filter(mut self, col: &str, op: CmpOp, value: impl Into<Value>) -> Query {
        self.predicates.push(Predicate {
            col: col.to_string(),
            op,
            value: value.into(),
        });
        self
    }

    /// Add a ready-made [`Predicate`].
    pub fn filter_pred(mut self, pred: Predicate) -> Query {
        self.predicates.push(pred);
        self
    }

    /// Project only these columns (in order).
    pub fn project(mut self, cols: &[&str]) -> Query {
        self.projection = Some(cols.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Sort by `col` ascending (`true`) or descending; may be chained.
    pub fn order_by(mut self, col: &str, ascending: bool) -> Query {
        self.order_by.push((col.to_string(), ascending));
        self
    }

    /// Keep at most `n` rows (applied after ordering).
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// Execute against `db`: pins a snapshot and runs lock-free against
    /// it (equivalent to `db.pin().query(self)`).
    pub fn execute(&self, db: &Database) -> StoreResult<DataFrame> {
        db.pin().query(self)
    }

    /// Execute against one pinned table version, returning the frame plus
    /// its execution accounting. Crate-internal: this is what lets
    /// [`crate::Snapshot::query`] run several queries against one
    /// pinned epoch, entirely lock-free. The accounting rides along on
    /// every run (a few counter bumps per segment); timing is left to
    /// callers so the untimed path never touches the clock.
    pub(crate) fn run_traced(&self, t: &TableVersion) -> StoreResult<(DataFrame, QueryExplain)> {
        let filters: Vec<(usize, &Predicate)> = self
            .predicates
            .iter()
            .filter_map(|p| t.schema.col_index(&p.col).map(|ci| (ci, p)))
            .collect();
        let in_filters: Vec<(usize, &Vec<Value>)> = self
            .in_predicates
            .iter()
            .filter_map(|(col, vs)| t.schema.col_index(col).map(|ci| (ci, vs)))
            .collect();
        let segments_total = t.segments.len();
        let (mut segments_scanned, mut examined, mut matched) = (0usize, 0usize, 0usize);
        let mut clustered_probes = 0usize;
        // One selection bitmap per visited segment. Zone maps skip a
        // segment wholesale when its per-column min/max proves no row in
        // it can match — a `tstamp` window over a long history reads only
        // the segments the window touches. A visited segment starts from
        // its rows, binary-searched down to the window a range predicate
        // on a clustered segment's sort column admits; every remaining
        // predicate then runs as a tight loop over the segment's typed
        // column, ANDing into the selection, and values materialise only
        // for selected rows.
        let mut parts: Vec<(&Segment, Bitmap)> = Vec::new();
        for seg in &t.segments {
            if !seg.admits(&self.predicates, &self.in_predicates) {
                continue;
            }
            let n = seg.len();
            let (mut lo, mut hi) = (0usize, n);
            let mut consumed = vec![false; filters.len()];
            if let Some(ci) = seg.sorted_by {
                let col = &seg.cols[ci];
                for (k, (pci, p)) in filters.iter().enumerate() {
                    if *pci != ci {
                        continue;
                    }
                    match p.op {
                        CmpOp::Ge => lo = lo.max(col.lower_bound(&p.value)),
                        CmpOp::Gt => lo = lo.max(col.upper_bound(&p.value)),
                        CmpOp::Le => hi = hi.min(col.upper_bound(&p.value)),
                        CmpOp::Lt => hi = hi.min(col.lower_bound(&p.value)),
                        CmpOp::Eq => {
                            lo = lo.max(col.lower_bound(&p.value));
                            hi = hi.min(col.upper_bound(&p.value));
                        }
                        CmpOp::Ne => continue,
                    }
                    consumed[k] = true;
                    clustered_probes += 1;
                }
            }
            let mut sel = Bitmap::ones_in_range(n, lo, hi);
            segments_scanned += 1;
            examined += sel.count_ones();
            for (k, (ci, p)) in filters.iter().enumerate() {
                if !consumed[k] {
                    seg.cols[*ci].eval(p.op, &p.value, lo, hi, &mut sel);
                }
            }
            for (ci, vs) in &in_filters {
                seg.cols[*ci].eval_in(vs, lo, hi, &mut sel);
            }
            matched += sel.count_ones();
            parts.push((seg, sel));
        }
        // A projection materialises only its own columns and the sort
        // keys; a projected column the schema lacks errors in `select`
        // below either way.
        let cols: Vec<usize> = (0..t.schema.columns.len())
            .filter(|&ci| {
                let name = &t.schema.columns[ci].name;
                self.projection.as_ref().is_none_or(|proj| {
                    proj.contains(name) || self.order_by.iter().any(|(c, _)| c == name)
                })
            })
            .collect();
        let mut df = t.materialise(&parts, &cols);

        // Drop rows referencing unknown predicate columns conservatively:
        // a predicate over a column the schema lacks matches nothing.
        let unknown_col = self
            .predicates
            .iter()
            .map(|p| p.col.as_str())
            .chain(self.in_predicates.iter().map(|(c, _)| c.as_str()))
            .any(|c| t.schema.col_index(c).is_none());
        if unknown_col {
            df = df.head(0);
        }
        let mut order = OrderPath::Unordered;
        if !self.order_by.is_empty() {
            let keys: Vec<(&str, bool)> = self
                .order_by
                .iter()
                .map(|(c, a)| (c.as_str(), *a))
                .collect();
            match self.limit {
                // A limit below the matched row count bounds the sort:
                // a binary heap keeps only the `n` best rows seen so
                // far, O(rows · log n) instead of O(rows · log rows).
                Some(n) if n < df.n_rows() => {
                    df = top_k(&df, &keys, n)?;
                    order = OrderPath::TopK;
                }
                _ => {
                    df = df.sort_by(&keys)?;
                    order = OrderPath::FullSort;
                }
            }
        }
        if let Some(n) = self.limit {
            df = df.head(n);
        }
        if let Some(proj) = &self.projection {
            let cols: Vec<&str> = proj.iter().map(String::as_str).collect();
            df = df.select(&cols)?;
        }
        let explain = QueryExplain {
            table: self.table.clone(),
            segments_total,
            segments_scanned,
            segments_pruned: segments_total - segments_scanned,
            rows_examined: examined,
            rows_matched: matched,
            rows_returned: df.n_rows(),
            residual_predicates: filters.len() + in_filters.len(),
            clustered_probes,
            order,
            elapsed_nanos: 0,
        };
        Ok((df, explain))
    }
}

/// The `n` smallest rows of `df` under `keys` (each `(column, asc)`),
/// in sorted order — byte-identical to `df.sort_by(keys)?.head(n)`,
/// computed with a bounded max-heap instead of a full sort. Ties
/// preserve row order, matching the stable sort.
fn top_k(df: &DataFrame, keys: &[(&str, bool)], n: usize) -> DfResult<DataFrame> {
    for (k, _) in keys {
        if df.column(k).is_none() {
            return Err(DfError::UnknownColumn((*k).to_string()));
        }
    }
    if n == 0 {
        return Ok(df.head(0));
    }
    let cols: Vec<&Column> = keys
        .iter()
        // audit: allow(panic) — every key was checked against the frame in
        // the validation loop above (UnknownColumn otherwise).
        .map(|(k, _)| df.column(k).expect("validated above"))
        .collect();
    let dirs: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();

    struct Entry<'a> {
        key: Vec<&'a Value>,
        dirs: &'a [bool],
        idx: usize,
    }
    impl PartialEq for Entry<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Entry<'_> {}
    impl PartialOrd for Entry<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry<'_> {
        fn cmp(&self, other: &Self) -> Ordering {
            for ((a, b), &asc) in self.key.iter().zip(&other.key).zip(self.dirs) {
                let ord = if asc { a.cmp(b) } else { b.cmp(a) };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            self.idx.cmp(&other.idx)
        }
    }

    // Max-heap of the n best (smallest) rows: the root is the worst of
    // the kept set and is evicted by any strictly better row.
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(n + 1);
    for idx in 0..df.n_rows() {
        let e = Entry {
            key: cols.iter().map(|c| &c.values[idx]).collect(),
            dirs: &dirs,
            idx,
        };
        if heap.len() < n {
            heap.push(e);
        // audit: allow(panic) — this branch runs only when len == n and
        // n > 0 (the n == 0 case returned early), so peek succeeds.
        } else if e < *heap.peek().expect("heap is non-empty at capacity") {
            heap.pop();
            heap.push(e);
        }
    }
    let indices: Vec<usize> = heap.into_sorted_vec().into_iter().map(|e| e.idx).collect();
    Ok(df.take(&indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};

    fn empty_db() -> Database {
        Database::in_memory(vec![TableSchema::new(
            "logs",
            vec![
                ColumnDef::new("name", ColType::Str),
                ColumnDef::new("tstamp", ColType::Int),
                ColumnDef::new("value", ColType::Float),
            ],
        )])
    }

    fn db_with_rows(n: i64) -> Database {
        let db = empty_db();
        for i in 0..n {
            db.insert(
                "logs",
                vec![
                    format!("m{}", i % 3).into(),
                    i.into(),
                    (i as f64 / 10.0).into(),
                ],
            )
            .unwrap();
        }
        db.commit().unwrap();
        db
    }

    #[test]
    fn eq_uses_index_and_matches_scan() {
        let db = db_with_rows(30);
        let q = Query::table("logs").filter_eq("name", "m1");
        let df = q.execute(&db).unwrap();
        assert_eq!(df.n_rows(), 10);
        let scan = db.scan("logs").unwrap().filter_eq("name", &"m1".into());
        assert_eq!(df.to_rows(), scan.to_rows());
    }

    #[test]
    fn range_predicates() {
        let db = db_with_rows(20);
        let df = Query::table("logs")
            .filter("tstamp", CmpOp::Ge, 15)
            .filter("tstamp", CmpOp::Lt, 18)
            .execute(&db)
            .unwrap();
        assert_eq!(df.n_rows(), 3);
    }

    #[test]
    fn combined_index_and_residual() {
        let db = db_with_rows(30);
        let df = Query::table("logs")
            .filter_eq("name", "m0")
            .filter("tstamp", CmpOp::Gt, 10)
            .execute(&db)
            .unwrap();
        // m0 occurs at tstamps 0,3,...,27; those > 10: 12,15,...,27 → 6 rows
        assert_eq!(df.n_rows(), 6);
    }

    #[test]
    fn in_predicate_uses_index_in_insertion_order() {
        let db = db_with_rows(9);
        let df = Query::table("logs")
            .filter_in("name", vec!["m2".into(), "m0".into()])
            .execute(&db)
            .unwrap();
        // Insertion order, not per-value order: m0 at 0,3,6; m2 at 2,5,8.
        let ts: Vec<i64> = df
            .column("tstamp")
            .unwrap()
            .values
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        assert_eq!(ts, vec![0, 2, 3, 5, 6, 8]);
        // Identical to a row-by-row evaluation of the same predicate.
        let scan = db
            .scan("logs")
            .unwrap()
            .filter(|r| ["m0", "m2"].contains(&r.get("name").unwrap().to_text().as_str()));
        assert_eq!(df.to_rows(), scan.to_rows());
    }

    #[test]
    fn in_predicate_residual_on_unindexed_column() {
        let db = db_with_rows(10);
        let df = Query::table("logs")
            .filter_in("tstamp", vec![1.into(), 4.into(), 99.into()])
            .execute(&db)
            .unwrap();
        assert_eq!(df.n_rows(), 2);
    }

    #[test]
    fn eq_and_in_on_one_column_conjoin() {
        // An equality and an IN list on the same column are both
        // filters: overlapping ones keep the rows they share.
        let db = db_with_rows(30);
        let df = Query::table("logs")
            .filter_eq("name", "m0")
            .filter_in("name", vec!["m0".into()])
            .execute(&db)
            .unwrap();
        assert_eq!(df.n_rows(), 10);
        // Disjoint Eq + IN predicates conjoin to nothing.
        let df = Query::table("logs")
            .filter_eq("name", "m0")
            .filter_in("name", vec!["m1".into()])
            .execute(&db)
            .unwrap();
        assert_eq!(df.n_rows(), 0);
    }

    #[test]
    fn in_lists_prune_segments_by_zone() {
        // Three commits of 512 rows each seal three segments with
        // disjoint `tstamp` ranges: [0, 512), [512, 1024), [1024, 1536).
        let db = empty_db();
        for batch in 0..3i64 {
            for i in batch * 512..(batch + 1) * 512 {
                db.insert(
                    "logs",
                    vec![format!("m{}", i % 3).into(), i.into(), 0.5.into()],
                )
                .unwrap();
            }
            db.commit().unwrap();
        }
        let snap = db.pin();
        let q = Query::table("logs").filter_in("tstamp", vec![5.into(), 1100.into(), 9999.into()]);
        let (df, ex) = snap.explain(&q).unwrap();
        assert_eq!(ex.segments_total, 3);
        assert_eq!(ex.segments_pruned, 1, "no listed value lies in [512, 1024)");
        assert_eq!(ex.rows_examined, 1024);
        let scan = snap
            .scan("logs")
            .unwrap()
            .filter(|r| [5, 1100].contains(&r.get("tstamp").unwrap().as_i64().unwrap()));
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.to_rows(), scan.to_rows());
        // A list none of whose values any zone holds visits nothing; an
        // empty list matches nothing.
        for values in [vec![Value::Int(-1), Value::Int(5000)], vec![]] {
            let (df, ex) = snap
                .explain(&Query::table("logs").filter_in("tstamp", values))
                .unwrap();
            assert_eq!((df.n_rows(), ex.segments_scanned), (0, 0));
        }
    }

    #[test]
    fn projection_and_order_and_limit() {
        let db = db_with_rows(10);
        let df = Query::table("logs")
            .order_by("tstamp", false)
            .limit(3)
            .project(&["tstamp"])
            .execute(&db)
            .unwrap();
        assert_eq!(df.column_names(), vec!["tstamp"]);
        let ts: Vec<i64> = df
            .column("tstamp")
            .unwrap()
            .values
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        assert_eq!(ts, vec![9, 8, 7]);
    }

    #[test]
    fn top_k_matches_full_sort_exactly() {
        // 40 rows, 3-way ties on `name`: the heap must reproduce the
        // stable sort's tie-breaking (row order) byte for byte, on both
        // single- and multi-key orderings, ascending and descending.
        let db = db_with_rows(40);
        for keys in [
            vec![("name", true)],
            vec![("name", false)],
            vec![("name", true), ("tstamp", false)],
            vec![("tstamp", false)],
        ] {
            for n in [0usize, 1, 7, 39, 40, 100] {
                let mut q = Query::table("logs").limit(n);
                for (c, asc) in &keys {
                    q = q.order_by(c, *asc);
                }
                let got = q.execute(&db).unwrap();
                let want = db
                    .pin()
                    .scan("logs")
                    .unwrap()
                    .sort_by(&keys)
                    .unwrap()
                    .head(n);
                assert_eq!(got.to_rows(), want.to_rows(), "keys={keys:?} n={n}");
            }
        }
    }

    #[test]
    fn explain_reports_order_path() {
        let db = db_with_rows(20);
        let snap = db.pin();
        let (_, ex) = snap
            .explain(&Query::table("logs").order_by("tstamp", false).limit(3))
            .unwrap();
        assert_eq!(ex.order, OrderPath::TopK);
        assert!(ex.to_string().contains("order: top-k"));
        let (_, ex) = snap
            .explain(&Query::table("logs").order_by("tstamp", false))
            .unwrap();
        assert_eq!(ex.order, OrderPath::FullSort);
        let (_, ex) = snap.explain(&Query::table("logs")).unwrap();
        assert_eq!(ex.order, OrderPath::Unordered);
        assert!(!ex.to_string().contains("order:"));
    }

    #[test]
    fn unknown_predicate_column_matches_nothing() {
        let db = db_with_rows(5);
        let df = Query::table("logs")
            .filter_eq("no_such_col", 1)
            .execute(&db)
            .unwrap();
        assert_eq!(df.n_rows(), 0);
        let df = Query::table("logs")
            .filter_in("no_such_col", vec![1.into()])
            .execute(&db)
            .unwrap();
        assert_eq!(df.n_rows(), 0);
    }

    #[test]
    fn ne_lt_le_operators() {
        let db = db_with_rows(4);
        assert_eq!(
            Query::table("logs")
                .filter("tstamp", CmpOp::Ne, 0)
                .execute(&db)
                .unwrap()
                .n_rows(),
            3
        );
        assert_eq!(
            Query::table("logs")
                .filter("tstamp", CmpOp::Le, 1)
                .execute(&db)
                .unwrap()
                .n_rows(),
            2
        );
    }

    #[test]
    fn missing_table_errors() {
        let db = db_with_rows(1);
        assert!(Query::table("absent").execute(&db).is_err());
    }

    #[test]
    fn predicate_matches_and_displays() {
        let p = Predicate::new("tstamp", CmpOp::Ge, 5);
        assert!(p.matches(&Value::Int(5)));
        assert!(!p.matches(&Value::Int(4)));
        assert_eq!(p.to_string(), "tstamp >= Int(5)");
    }
}

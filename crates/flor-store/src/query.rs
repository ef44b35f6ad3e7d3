//! A small query layer: predicate pushdown onto indexes, projection, and
//! ordering, materialising [`DataFrame`]s.
//!
//! FlorDB promises "powerful, SQL-like data reads" (§3.1). Complex
//! relational work (joins, pivots) happens on the dataframe layer; the
//! query layer's job is to get the right rows out of the store cheaply.
//! The planner picks the most selective index-backed access path among the
//! equality ([`Query::filter_eq`]) and set-membership ([`Query::filter_in`])
//! predicates, then applies the rest as residual filters over the fetched
//! rows. Full scans prune whole segments through the per-segment zone
//! maps (min/max per column, built at seal time): a range predicate —
//! e.g. a `tstamp` window for `runs_of` or a time-travel query — skips
//! every segment whose range cannot intersect it, so cold history is
//! never read. The same [`CmpOp`]/[`Predicate`] vocabulary is reused by
//! the lazy query builder (`flor_view::QueryPlan` / `Flor::query`) so one
//! predicate type spans every layer of the stack.

use crate::column::Bitmap;
use crate::db::{Database, StoreResult};
use crate::segment::{Segment, TableVersion};
use flor_df::{Column, DataFrame, DfError, DfResult, Value};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Comparison operators for scan predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality (index-eligible).
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
    /// Set-membership predicates: `col IN (values)`, index-eligible.
    in_predicates: Vec<(String, Vec<Value>)>,
    projection: Option<Vec<String>>,
    order_by: Vec<(String, bool)>,
    limit: Option<usize>,
}

/// The access path the planner settled on (see [`Query::run_traced`]).
enum Access {
    /// Full scan: every row id is a candidate.
    Scan,
    /// The `i`-th equality predicate, served from a secondary index.
    EqIndex(usize),
    /// The `i`-th IN predicate, served from a secondary index
    /// (the `lookup_many` fast path).
    InIndex(usize),
}

/// The access path a query executed with, as reported by
/// [`QueryExplain`] — the public mirror of the planner's decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Full segment scan (zone-map pruned).
    FullScan,
    /// Equality probe against the secondary index on the named column.
    IndexEq(String),
    /// Set-membership probe against the secondary index on the named
    /// column.
    IndexIn(String),
}

impl std::fmt::Display for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessPath::FullScan => f.write_str("full-scan"),
            AccessPath::IndexEq(c) => write!(f, "index-eq({c})"),
            AccessPath::IndexIn(c) => write!(f, "index-in({c})"),
        }
    }
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
/// number of rows the access path selected and the residual predicates
/// were tested against, `rows_matched` how many survived them, and
/// `rows_returned` the final frame size after ordering/limit/projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryExplain {
    /// Queried table.
    pub table: String,
    /// Access path the planner chose.
    pub access: AccessPath,
    /// Segments in the pinned table version.
    pub segments_total: usize,
    /// Segments actually visited (scanned or index-probed).
    pub segments_scanned: usize,
    /// Segments skipped wholesale via zone maps.
    pub segments_pruned: usize,
    /// Rows the access path selected, tested against residual predicates.
    pub rows_examined: usize,
    /// Rows that satisfied every predicate.
    pub rows_matched: usize,
    /// Rows in the returned frame (after order/limit/projection).
    pub rows_returned: usize,
    /// Predicates applied as residual filters (not served by the access
    /// path).
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
        writeln!(f, "QUERY {} via {}", self.table, self.access)?;
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

    /// Add an equality predicate (index-eligible).
    pub fn filter_eq(mut self, col: &str, value: impl Into<Value>) -> Query {
        self.predicates.push(Predicate {
            col: col.to_string(),
            op: CmpOp::Eq,
            value: value.into(),
        });
        self
    }

    /// Add a set-membership predicate: `col IN (values)`. Index-eligible —
    /// over an indexed column this is the `lookup_many` fast path, reaching
    /// the matches without touching non-matching rows.
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

    /// Candidate row count if the access path `a` were chosen — the
    /// planner's (exact, hash-index-backed) selectivity estimate.
    fn candidates(&self, t: &TableVersion, a: &Access) -> usize {
        match a {
            Access::Scan => t.total_rows,
            Access::EqIndex(i) => {
                let p = &self.predicates[*i];
                t.index_len(&p.col, &p.value)
            }
            Access::InIndex(i) => {
                let (col, values) = &self.in_predicates[*i];
                values.iter().map(|v| t.index_len(col, v)).sum()
            }
        }
    }

    /// Execute against one pinned table version, returning the frame plus
    /// its execution accounting. Crate-internal: this is what lets
    /// [`crate::Snapshot::query`] run several queries against one
    /// pinned epoch, entirely lock-free. The accounting rides along on
    /// every run (a few counter bumps per segment); timing is left to
    /// callers so the untimed path never touches the clock.
    pub(crate) fn run_traced(&self, t: &TableVersion) -> StoreResult<(DataFrame, QueryExplain)> {
        // Plan: among the index-eligible predicates (Eq and IN over indexed
        // columns), pick the one with the fewest candidate rows; everything
        // else becomes a residual filter over the fetched rows.
        let mut access = Access::Scan;
        let mut best = self.candidates(t, &access);
        for (i, p) in self.predicates.iter().enumerate() {
            if p.op == CmpOp::Eq && t.has_index(&p.col) {
                let cand = Access::EqIndex(i);
                let n = self.candidates(t, &cand);
                if n < best {
                    best = n;
                    access = cand;
                }
            }
        }
        for (i, (col, _)) in self.in_predicates.iter().enumerate() {
            if t.has_index(col) {
                let cand = Access::InIndex(i);
                let n = self.candidates(t, &cand);
                if n < best {
                    best = n;
                    access = cand;
                }
            }
        }

        // What an index access probes: the column and the values whose
        // per-segment postings seed the selection.
        let probe: Option<(&str, &[Value])> = match access {
            Access::Scan => None,
            Access::EqIndex(i) => {
                let p = &self.predicates[i];
                Some((&p.col, std::slice::from_ref(&p.value)))
            }
            Access::InIndex(i) => {
                let (col, values) = &self.in_predicates[i];
                Some((col, values))
            }
        };
        let residual: Vec<(usize, &Predicate)> = self
            .predicates
            .iter()
            .enumerate()
            .filter(|(i, _)| !matches!(access, Access::EqIndex(j) if j == *i))
            .filter_map(|(_, p)| t.schema.col_index(&p.col).map(|ci| (ci, p)))
            .collect();
        let residual_in: Vec<(usize, &Vec<Value>)> = self
            .in_predicates
            .iter()
            .enumerate()
            .filter(|(i, _)| !matches!(access, Access::InIndex(j) if j == *i))
            .filter_map(|(_, (col, vs))| t.schema.col_index(col).map(|ci| (ci, vs)))
            .collect();
        let segments_total = t.segments.len();
        let (mut segments_scanned, mut examined, mut matched) = (0usize, 0usize, 0usize);
        let mut clustered_probes = 0usize;
        // One selection bitmap per visited segment. Zone maps skip a
        // segment wholesale when its per-column min/max proves the access
        // path can match no row in it — a `tstamp` window over a long
        // history reads only the segments the window touches. A scan
        // starts from the segment's rows, binary-searched down to the
        // window a range predicate on a clustered segment's sort column
        // admits; an index probe starts from the postings (already local
        // offsets). Either way every remaining predicate then runs as a
        // tight loop over the segment's typed column, ANDing into the
        // selection, and values materialise only for selected rows.
        let mut parts: Vec<(&Segment, Bitmap)> = Vec::new();
        for seg in &t.segments {
            let n = seg.len();
            let (mut lo, mut hi) = (0usize, n);
            let mut consumed = vec![false; residual.len()];
            let mut sel = match probe {
                None => {
                    if !seg.admits(&self.predicates) {
                        continue;
                    }
                    if let Some(ci) = seg.sorted_by {
                        let col = &seg.cols[ci];
                        for (k, (pci, p)) in residual.iter().enumerate() {
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
                    Bitmap::ones_in_range(n, lo, hi)
                }
                Some((col, values)) => {
                    if !values.iter().any(|v| seg.zone_admits_eq(col, v)) {
                        continue;
                    }
                    let mut sel = Bitmap::zeroes(n);
                    for postings in values.iter().filter_map(|v| seg.indexes.get(col)?.get(v)) {
                        postings.iter().for_each(|&local| sel.set(local as usize));
                    }
                    sel
                }
            };
            segments_scanned += 1;
            examined += sel.count_ones();
            for (k, (ci, p)) in residual.iter().enumerate() {
                if !consumed[k] {
                    seg.cols[*ci].eval(p.op, &p.value, lo, hi, &mut sel);
                }
            }
            for (ci, vs) in &residual_in {
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
            access: match access {
                Access::Scan => AccessPath::FullScan,
                Access::EqIndex(i) => AccessPath::IndexEq(self.predicates[i].col.clone()),
                Access::InIndex(i) => AccessPath::IndexIn(self.in_predicates[i].0.clone()),
            },
            segments_total,
            segments_scanned,
            segments_pruned: segments_total - segments_scanned,
            rows_examined: examined,
            rows_matched: matched,
            rows_returned: df.n_rows(),
            residual_predicates: residual.len() + residual_in.len(),
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

    fn db_with_rows(n: i64) -> Database {
        let db = Database::in_memory(vec![TableSchema::new(
            "logs",
            vec![
                ColumnDef::indexed("name", ColType::Str),
                ColumnDef::new("tstamp", ColType::Int),
                ColumnDef::new("value", ColType::Float),
            ],
        )]);
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
        // Identical to the unindexed evaluation of the same predicate.
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
    fn planner_picks_most_selective_index() {
        // name is indexed with 10 rows per value; the IN predicate narrows
        // to a single value → the IN path (10 candidates) must win over the
        // Eq path only when it is tighter.
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

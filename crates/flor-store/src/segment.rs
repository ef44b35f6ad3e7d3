//! Sealed segments and table versions: the immutable, `Arc`-shared
//! storage every [`crate::snapshot::Snapshot`] reads and every commit,
//! recovery and compaction publishes successors of.
//!
//! # Columnar layout
//!
//! A sealed segment stores its rows **column-major**: one typed vector
//! per column (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`), a side null bitmap,
//! and string columns **dictionary-encoded** — a per-segment first-
//! appearance dict of `Arc<str>` plus `u32` codes per row (columns whose
//! non-null cells mix types fall back to a tagged `Value` vector). The
//! query layer evaluates predicates as tight loops over these vectors
//! into selection bitmaps — an equality on a dict column precomputes one
//! verdict per dict entry and then compares codes — and materialises
//! [`flor_df::Value`]s only for the selected rows. Cell reads for
//! point lookups transpose on demand.
//!
//! Secondary hash indexes are per-segment, built in the **same single
//! pass** that seals the columns; their postings are local row offsets,
//! so an index probe seeds a selection bitmap directly. That pass also
//! builds per-segment **zone maps** — min/max per column — which the
//! query planner uses to prune whole segments from range scans (`tstamp`
//! windows, time travel) without reading a row.
//!
//! # Read order
//!
//! **Rows leave a table in commit order; clustering affects pruning,
//! never order.** A row's global id (rid) is its commit position, kept
//! for life — compaction carries it through an explicit rid map — and
//! every read (scan, index probe, zone-pruned query, checkpoint) is a
//! caller of the one materialiser, `TableVersion::materialise`, which
//! emits its selection in ascending rid. So a reader cannot tell a
//! clustered table from an unclustered one, a checkpoint + reopen hands
//! the rows their commit positions back as fresh rids, and the `logs`
//! fetch behind a from-scratch pivot sees rows in exactly the order the
//! change feed delivered them to the incremental view.
//!
//! # Segment lifecycle: seal → coalesce → compact/cluster → checkpoint
//!
//! 1. **Seal.** A commit seals its staged rows into a fresh immutable
//!    columnar segment (columns + dictionaries + indexes + zone maps
//!    built in one pass over the rows, never mutated after). A segment
//!    whose [`crate::schema::ClusterBy`] column arrives already
//!    non-decreasing is marked sorted at seal time.
//! 2. **Coalesce.** Small trailing segments are folded geometrically at
//!    commit time (a segment is absorbed only once the incoming run is at
//!    least its size, up to [`SEGMENT_COALESCE_ROWS`]), so N tiny commits
//!    cost O(N log N) row copies — not O(N²) — and leave O(log N)
//!    segments. Only the trailing run of small, contiguous segments is
//!    ever touched by a commit; everything before it is *cold*.
//! 3. **Compact.** [`crate::Database::compact`] merges runs of cold sealed
//!    segments into fewer, right-sized ones and — for tables with a
//!    declared [`crate::schema::LatestWins`] policy (the `jobs` control
//!    plane) — drops rows a newer row has superseded, so scans touch
//!    only live data. (`logs` deliberately declares no policy: replay
//!    and the pivot depend on raw row order and multiplicity — see
//!    [`crate::schema::flor_schema`].) Compacted segments carry an explicit rid map (the
//!    dropped rows leave holes in the global row-id space) and the
//!    successor table version is published by the same pointer swap a
//!    commit uses: snapshots pinned before the compaction keep re-reading
//!    their original segments, byte-identically, forever. Compaction
//!    never bumps the epoch and publishes nothing to the change feed —
//!    it is invisible to every fold-respecting reader. For tables with a
//!    declared [`crate::schema::ClusterBy`] column (`logs` clusters by
//!    `tstamp`), rewritten runs are **sorted** by that column (ties keep
//!    insertion order), so the output chunks' zone maps are disjoint and
//!    range scans binary-search into each admitted chunk — a physical
//!    permutation only: see *Read order* above.
//! 4. **Checkpoint.** [`crate::Database::checkpoint`] serializes a pinned
//!    snapshot to a `<wal>.ckpt` sidecar and truncates the WAL to the
//!    uncovered tail, making [`crate::Database::open`] O(live data). A
//!    checkpoint taken after a compaction persists the *compacted* state
//!    (in commit order, like any read), which is how dropped rows
//!    eventually leave the log too (see
//!    [`crate::checkpoint`] for the crash-safety argument). Compactions
//!    and checkpoints are serialized against each other.
//!
//! # Summaries
//!
//! Next to its zone maps a segment keeps one more per-segment fact: a
//! **summary**, an arbitrary value a reader derives from the segment's
//! rows (the pivot keeps its loop contexts per `loops` segment and its
//! first-seen names per `logs` segment). Unlike a zone map it is built
//! lazily — by the first [`crate::Snapshot::summaries`] call that needs
//! it, never at seal or commit time — and then shared by `Arc` with every
//! snapshot that pins the segment, for the segment's life. A segment a
//! commit coalesces or a compaction merges is a new segment with an
//! empty slot, so a summary never outlives the rows it describes; nothing
//! is persisted, and a reopened table starts with empty slots.

use crate::column;
use crate::query::{CmpOp, Predicate};
use crate::schema::TableSchema;
use flor_df::{Column, DataFrame, Value};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Tail segments smaller than this participate in commit-time coalescing.
/// Folding is geometric — a trailing segment is absorbed only when the
/// incoming run is at least its size — so each row is re-copied O(log)
/// times on its way to a full-size segment, and sub-threshold segment
/// counts stay logarithmic in history. The sealed segments readers
/// already pinned are untouched. Segments at or past this size are never
/// modified by commits again: they are *cold*, and only [`crate::Database::compact`]
/// may replace them.
pub const SEGMENT_COALESCE_ROWS: usize = 512;

/// Chunk size for segments sealed on the recovery path
/// ([`crate::Database::open`]): a reopened table is rebuilt as several
/// bounded segments rather than one history-wide monolith, so zone-map
/// pruning keeps working across restarts.
pub const RECOVERED_SEGMENT_ROWS: usize = 4096;

/// One immutable run of committed rows, stored **columnar**: one typed
/// [`column::Column`] per schema column (primitive vectors, dictionary-
/// encoded strings, null bitmaps). Sealed at commit time (or built by
/// compaction), shared by `Arc` between the live table and every pinned
/// snapshot; never mutated afterwards.
#[derive(Debug)]
pub(crate) struct Segment {
    /// Global row id of this segment's first row (in insertion order —
    /// for clustered segments this is still the smallest-at-seal first
    /// row's rid; commit-time coalescing only ever folds unclustered
    /// contiguous segments, for which `start + len` is the next rid).
    pub start: usize,
    /// Number of rows.
    len: usize,
    /// One typed column per schema column, all of length `len`.
    pub cols: Vec<column::Column>,
    /// Global row id of each row, in row order. `None` for plain sealed
    /// segments whose rids are contiguous (`start + offset`); `Some` for
    /// compacted segments where dropped rows left holes in the rid space
    /// or clustering reordered rows.
    pub rids: Option<Vec<usize>>,
    /// column name → value → local row offsets (ascending). Built once
    /// at seal time.
    pub indexes: HashMap<String, HashMap<Value, Vec<u32>>>,
    /// column name → (min, max) over this segment's rows, built once at
    /// seal time (segments are immutable, so zone maps are free to keep
    /// current). Range and equality predicates prune whole segments with
    /// them; absent for empty segments.
    pub zones: HashMap<String, (Value, Value)>,
    /// `Some(col_pos)` when this segment's rows are sorted non-decreasing
    /// on the schema's [`crate::schema::ClusterBy`] column — range scans
    /// then binary-search into the segment instead of filtering it.
    pub sorted_by: Option<usize>,
    /// The reader-defined [summary](self#summaries) of this segment's
    /// rows: empty until the first [`crate::Snapshot::summaries`] call
    /// that needs it, then fixed.
    pub summary: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl Segment {
    fn seal(schema: &TableSchema, start: usize, rows: Vec<Vec<Value>>) -> Segment {
        Segment::build(schema, start, None, rows)
    }

    /// Seal a compacted segment whose retained rows keep their original
    /// (now non-contiguous, possibly reordered-by-clustering) global row
    /// ids. Ascending contiguous rid runs collapse back to a plain
    /// segment.
    pub(crate) fn seal_mapped(
        schema: &TableSchema,
        rids: Vec<usize>,
        rows: Vec<Vec<Value>>,
    ) -> Segment {
        debug_assert_eq!(rids.len(), rows.len());
        let ascending = rids.windows(2).all(|w| w[0] < w[1]);
        let start = rids.first().copied().unwrap_or(0);
        let contiguous = ascending
            && rids
                .last()
                .is_none_or(|&last| last + 1 - start == rids.len());
        let rids = if contiguous { None } else { Some(rids) };
        Segment::build(schema, start, rids, rows)
    }

    /// Single-pass seal: one walk over the rows feeds the per-column
    /// builders *and* the secondary-index postings; zone maps then fall
    /// out of the finished columns' min/max without touching rows again.
    fn build(
        schema: &TableSchema,
        start: usize,
        rids: Option<Vec<usize>>,
        rows: Vec<Vec<Value>>,
    ) -> Segment {
        let n_cols = schema.columns.len();
        let indexed: Vec<usize> = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.indexed)
            .map(|(i, _)| i)
            .collect();
        let mut builders: Vec<column::ColumnBuilder> =
            (0..n_cols).map(|_| column::ColumnBuilder::new()).collect();
        let mut index_maps: Vec<HashMap<Value, Vec<u32>>> =
            indexed.iter().map(|_| HashMap::new()).collect();
        let len = rows.len();
        for (i, row) in rows.into_iter().enumerate() {
            for (&pos, idx) in indexed.iter().zip(&mut index_maps) {
                idx.entry(row[pos].clone()).or_default().push(i as u32);
            }
            for (cell, b) in row.into_iter().zip(&mut builders) {
                b.push(&cell);
            }
        }
        let cols: Vec<column::Column> = builders.into_iter().map(|b| b.finish()).collect();
        let indexes = indexed
            .iter()
            .zip(index_maps)
            .map(|(&pos, idx)| (schema.columns[pos].name.clone(), idx))
            .collect();
        let mut zones = HashMap::new();
        for (col, def) in cols.iter().zip(&schema.columns) {
            if let Some((lo, hi)) = col.min_max() {
                zones.insert(def.name.clone(), (lo, hi));
            }
        }
        let sorted_by = schema
            .cluster_by
            .as_ref()
            .and_then(|c| schema.col_index(&c.column))
            .filter(|&ci| len > 0 && cols[ci].is_non_decreasing());
        Segment {
            start,
            len,
            cols,
            rids,
            indexes,
            zones,
            sorted_by,
            summary: OnceLock::new(),
        }
    }

    /// Number of rows in this segment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Materialize the cell at (`local`, `col`) as an owned [`Value`].
    pub fn cell(&self, local: usize, col: usize) -> Value {
        self.cols[col].value_at(local)
    }

    /// Materialize the row at local offset `local`.
    pub fn row_at(&self, local: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value_at(local)).collect()
    }

    /// Materialize every row, in row order (compaction's rewrite path).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = vec![Vec::with_capacity(self.cols.len()); self.len];
        for col in &self.cols {
            let mut cells = Vec::with_capacity(self.len);
            col.extend_all(&mut cells);
            for (row, cell) in rows.iter_mut().zip(cells) {
                row.push(cell);
            }
        }
        rows
    }

    /// Approximate resident heap bytes of this segment's column data.
    pub fn mem_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.mem_bytes()).sum()
    }

    /// The global row id of the row at local offset `local`.
    pub fn rid_at(&self, local: usize) -> usize {
        match &self.rids {
            Some(rids) => rids[local],
            None => self.start + local,
        }
    }

    /// Whether this segment's zone map admits any row satisfying `pred`.
    /// `true` means "must scan"; `false` proves no row here can match.
    /// Columns without a zone (unknown column, empty segment) are never
    /// pruned.
    pub fn may_match(&self, pred: &Predicate) -> bool {
        let Some((lo, hi)) = self.zones.get(&pred.col) else {
            return true;
        };
        let v = &pred.value;
        match pred.op {
            CmpOp::Eq => v >= lo && v <= hi,
            CmpOp::Ne => !(lo == hi && lo == v),
            CmpOp::Lt => lo < v,
            CmpOp::Le => lo <= v,
            CmpOp::Gt => hi > v,
            CmpOp::Ge => hi >= v,
        }
    }

    /// Whether a scan under the conjunction `predicates` must visit this
    /// segment: it is skipped when any predicate provably matches no row
    /// in it. Sound for conjunctions only (which is what
    /// [`crate::query::Query`] evaluates).
    pub fn admits(&self, predicates: &[Predicate]) -> bool {
        predicates.iter().all(|p| self.may_match(p))
    }

    /// Zone check for an equality lookup on `col` (the index fast path's
    /// pre-filter: segments whose range excludes the value skip the hash
    /// probe entirely).
    pub fn zone_admits_eq(&self, col: &str, v: &Value) -> bool {
        self.zones
            .get(col)
            .is_none_or(|(lo, hi)| v >= lo && v <= hi)
    }
}

/// One published version of a table: its schema plus the segment list at
/// some epoch. Immutable; commits (and compactions) publish a successor
/// version. Rows are read out through [`TableVersion::materialise`] only
/// — the [read-order contract](self#read-order).
#[derive(Debug)]
pub(crate) struct TableVersion {
    pub schema: Arc<TableSchema>,
    pub segments: Vec<Arc<Segment>>,
    /// Live (retained) rows across all segments — what a full scan
    /// touches. Compaction shrinks this; the rid space does not shrink.
    pub total_rows: usize,
    /// Global row-id high watermark: the rid the next appended row gets.
    /// Diverges from `total_rows` once compaction drops dead rows (rids
    /// are never reused, so pinned index results stay unambiguous).
    pub next_rid: usize,
}

impl TableVersion {
    pub fn empty(schema: Arc<TableSchema>) -> TableVersion {
        TableVersion {
            schema,
            segments: Vec::new(),
            total_rows: 0,
            next_rid: 0,
        }
    }

    /// Successor version with `new_rows` appended. The incoming run is
    /// sealed as a segment, geometrically folding in trailing segments no
    /// larger than itself (and below [`SEGMENT_COALESCE_ROWS`]) — the
    /// amortization that keeps N tiny commits at O(N log N) copied rows
    /// instead of O(N²). Pinned copies of the folded segments are
    /// untouched. Returns the successor and how many existing rows were
    /// re-copied by the fold (the coalescing cost a bench can assert on).
    pub fn with_appended(&self, new_rows: Vec<Vec<Value>>) -> (TableVersion, u64) {
        let mut segments = self.segments.clone();
        let added = new_rows.len();
        let mut rows = new_rows;
        let mut start = self.next_rid;
        let mut copied = 0u64;
        while let Some(last) = segments.last() {
            // Compacted segments (rid-mapped) are cold: commits never
            // re-open them. Plain segments fold only while they are both
            // small and no larger than the run being sealed — and flush
            // with the run's first rid: a compaction that dropped a dead
            // suffix can leave a plain segment ending below `next_rid`,
            // and folding across that hole would re-issue dropped rids.
            if last.rids.is_some()
                || last.len() >= SEGMENT_COALESCE_ROWS
                || last.len() > rows.len()
                || last.start + last.len() != start
            {
                break;
            }
            // audit: allow(panic) — the loop condition peeked `last()`,
            // so the vec is non-empty when we pop.
            let last = segments.pop().expect("just peeked");
            copied += last.len() as u64;
            start = last.start;
            let mut merged = last.to_rows();
            merged.extend(rows);
            rows = merged;
        }
        segments.push(Arc::new(Segment::seal(&self.schema, start, rows)));
        (
            TableVersion {
                schema: Arc::clone(&self.schema),
                segments,
                total_rows: self.total_rows + added,
                next_rid: self.next_rid + added,
            },
            copied,
        )
    }

    /// The one way out of a table: the rows `parts` selects (a selection
    /// bitmap per visited segment, in segment order) as one frame of the
    /// schema columns at positions `cols` (ascending), in ascending rid —
    /// commit — order (see the read-order contract in the module docs).
    /// Whether the physical order already is commit order is read off the
    /// selected rids themselves: when it is (every table no clustered
    /// compaction has permuted) this is one linear, column-at-a-time
    /// pass; otherwise one sort over the selected positions restores it.
    pub fn materialise(&self, parts: &[(&Segment, column::Bitmap)], cols: &[usize]) -> DataFrame {
        let (mut n, mut last, mut ascending) = (0usize, None, true);
        for (seg, sel) in parts {
            sel.for_each_set(|local| {
                let rid = Some(seg.rid_at(local));
                ascending &= last < rid;
                last = rid;
                n += 1;
            });
        }
        let mut out: Vec<Vec<Value>> = vec![Vec::with_capacity(n); cols.len()];
        if ascending {
            for (seg, sel) in parts {
                let whole = sel.count_ones() == seg.len();
                for (col, vals) in cols.iter().map(|&ci| &seg.cols[ci]).zip(&mut out) {
                    if whole {
                        col.extend_all(vals);
                    } else {
                        col.extend_selected(sel, vals);
                    }
                }
            }
        } else {
            let mut at: Vec<(usize, &Segment, usize)> = Vec::with_capacity(n);
            for (seg, sel) in parts {
                sel.for_each_set(|local| at.push((seg.rid_at(local), seg, local)));
            }
            at.sort_unstable_by_key(|&(rid, ..)| rid);
            for (&ci, vals) in cols.iter().zip(&mut out) {
                vals.extend(at.iter().map(|&(_, seg, local)| seg.cell(local, ci)));
            }
        }
        let cols = cols
            .iter()
            .zip(out)
            .map(|(&ci, vals)| Column::new(self.schema.columns[ci].name.as_str(), vals))
            .collect();
        // audit: allow(panic) — one value vec per requested schema column,
        // each filled from the same selection: lengths and names are
        // uniform.
        DataFrame::from_columns(cols).expect("schema columns are uniform")
    }

    /// Every row of `seg`, one of this version's segments, as columns
    /// `cols` in rid order, with those rids — what a
    /// [summary](self#summaries) is made from.
    pub fn segment_rows(&self, seg: &Segment, cols: &[usize]) -> (DataFrame, Vec<usize>) {
        let all = column::Bitmap::ones_in_range(seg.len(), 0, seg.len());
        let mut rids: Vec<usize> = (0..seg.len()).map(|local| seg.rid_at(local)).collect();
        rids.sort_unstable();
        (self.materialise(&[(seg, all)], cols), rids)
    }

    /// Every row — the all-ones selection a full scan and a checkpoint
    /// hand to [`TableVersion::materialise`].
    pub fn scan(&self) -> DataFrame {
        let all: Vec<(&Segment, column::Bitmap)> = self
            .segments
            .iter()
            .map(|s| {
                (
                    s.as_ref(),
                    column::Bitmap::ones_in_range(s.len(), 0, s.len()),
                )
            })
            .collect();
        let cols: Vec<usize> = (0..self.schema.columns.len()).collect();
        self.materialise(&all, &cols)
    }

    /// Whether `col` carries a secondary index.
    pub fn has_index(&self, col: &str) -> bool {
        self.schema
            .columns
            .iter()
            .any(|c| c.indexed && c.name == col)
    }

    /// Number of rows matching `col == value` via the index (0 without
    /// an index — callers check [`TableVersion::has_index`] first).
    pub fn index_len(&self, col: &str, value: &Value) -> usize {
        self.segments
            .iter()
            .filter(|seg| seg.zone_admits_eq(col, value))
            .filter_map(|seg| seg.indexes.get(col).and_then(|idx| idx.get(value)))
            .map(Vec::len)
            .sum()
    }
}

/// Seal recovered `rows` into `tables[name]` in bounded chunks, not one
/// monolith per table: zone-map pruning needs multiple segments to
/// prune, and a single history-wide segment's min/max covers everything.
/// The chunks are >= [`SEGMENT_COALESCE_ROWS`], so commit-time folding
/// never re-merges them.
pub(crate) fn append_chunked(
    tables: &mut HashMap<String, Arc<TableVersion>>,
    name: &str,
    rows: Vec<Vec<Value>>,
) {
    if let Some(t) = tables.get_mut(name) {
        let mut rows = rows;
        while !rows.is_empty() {
            let rest = rows.split_off(rows.len().min(RECOVERED_SEGMENT_ROWS));
            *t = Arc::new(t.with_appended(rows).0);
            rows = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::testing::{lw_schema, tiny_schema};

    /// The row holding global id `rid`, or `None` for a rid the table
    /// never issued or compaction dropped.
    fn row(t: &TableVersion, rid: usize) -> Option<Vec<Value>> {
        t.segments.iter().find_map(|seg| {
            (0..seg.len())
                .find(|&local| seg.rid_at(local) == rid)
                .map(|local| seg.row_at(local))
        })
    }

    #[test]
    fn small_commits_coalesce_segments() {
        let db = Database::in_memory(tiny_schema());
        for i in 0..50 {
            db.insert("t", vec![format!("k{i}").into(), i.into()])
                .unwrap();
            db.commit().unwrap();
        }
        // Geometric coalescing: 50 one-row commits leave O(log n) tail
        // segments (the binary-counter invariant), not 50 and not 1.
        assert!(
            db.stats().segments <= 6,
            "got {} segments",
            db.stats().segments
        );
        assert_eq!(db.row_count("t").unwrap(), 50);
    }

    #[test]
    fn tail_coalescing_cost_is_amortized_not_quadratic() {
        // The old scheme re-copied the whole sub-threshold tail on every
        // commit: N one-row commits copied ~N²/2 rows. Geometric folding
        // copies each row O(log N) times on its way up.
        let n: usize = 256;
        let db = Database::in_memory(tiny_schema());
        for i in 0..n {
            db.insert("t", vec![format!("k{i}").into(), (i as i64).into()])
                .unwrap();
            db.commit().unwrap();
        }
        let copied = db.stats().rows_coalesced;
        let quadratic = (n * (n - 1) / 2) as u64;
        let amortized_bound = (n * 8) as u64; // n · log2(256)
        assert!(
            copied <= amortized_bound,
            "coalescing copied {copied} rows; amortized bound is {amortized_bound} \
             (the old quadratic scheme copies {quadratic})"
        );
        // And the rows all arrive, in order.
        let df = db.scan("t").unwrap();
        assert_eq!(df.n_rows(), n);
        assert_eq!(df.get(n - 1, "v"), Some(&Value::Int(n as i64 - 1)));
    }

    #[test]
    fn dropped_suffix_rids_are_never_reissued() {
        // A dead row at the very end of a table (an equal-`s` tie loses
        // to the older row) leaves the compacted tail segment ending
        // below `next_rid`. The next commit must NOT fold into it with
        // implicit rids — that would re-issue the dropped rid.
        let db = Database::in_memory(lw_schema());
        db.insert("t", vec![1i64.into(), 5i64.into(), "pay".into()])
            .unwrap();
        db.insert("t", vec![1i64.into(), 5i64.into(), "".into()])
            .unwrap();
        db.commit().unwrap();
        let stats = db.compact().unwrap();
        assert_eq!(stats.rows_dropped, 1, "tie keeps the older row");
        db.insert("t", vec![2i64.into(), 1i64.into(), "".into()])
            .unwrap();
        db.commit().unwrap();
        let g = db.inner.read();
        let t = g.tables.get("t").unwrap();
        assert_eq!(row(t, 0).map(|r| r[2].clone()), Some(Value::from("pay")));
        assert!(row(t, 1).is_none(), "dropped rid stays a hole forever");
        assert_eq!(row(t, 2).map(|r| r[0].clone()), Some(Value::Int(2)));
        assert_eq!(t.next_rid, 3);
        drop(g);
        let hits = db.lookup("t", "k", &2i64.into()).unwrap();
        assert_eq!(hits.n_rows(), 1);
    }

    #[test]
    fn zone_maps_prune_range_scans() {
        use crate::query::Query;
        let db = Database::in_memory(tiny_schema());
        // 4 cold segments with disjoint, increasing `v` ranges.
        for batch in 0..4 {
            for i in 0..SEGMENT_COALESCE_ROWS {
                db.insert(
                    "t",
                    vec![
                        format!("k{i}").into(),
                        ((batch * SEGMENT_COALESCE_ROWS + i) as i64).into(),
                    ],
                )
                .unwrap();
            }
            db.commit().unwrap();
        }
        let snap = db.pin();
        let preds = vec![
            Predicate::new("v", CmpOp::Ge, 600),
            Predicate::new("v", CmpOp::Lt, 700),
        ];
        let (visited, total) = snap.zone_prune_stats("t", &preds).unwrap();
        assert_eq!(total, 4);
        assert_eq!(visited, 1, "the window lies inside one segment");
        // And the pruned execution is byte-identical to the full filter.
        let q = Query::table("t")
            .filter("v", CmpOp::Ge, 600)
            .filter("v", CmpOp::Lt, 700);
        let pruned = snap.query(&q).unwrap();
        let oracle = snap.scan("t").unwrap().filter(|r| {
            r.get("v")
                .and_then(Value::as_i64)
                .is_some_and(|v| (600..700).contains(&v))
        });
        assert_eq!(pruned.to_rows(), oracle.to_rows());
        assert_eq!(pruned.n_rows(), 100);
        // An out-of-range window visits nothing.
        let none = vec![Predicate::new("v", CmpOp::Gt, 1_000_000)];
        assert_eq!(snap.zone_prune_stats("t", &none).unwrap().0, 0);
    }

    #[test]
    fn row_lookup_is_total() {
        let db = Database::in_memory(lw_schema());
        {
            let g = db.inner.read();
            let t = g.tables.get("t").unwrap();
            assert!(row(t, 0).is_none(), "empty table has no rows");
        }
        for gen in 0..2i64 {
            for k in 0..256i64 {
                db.insert("t", vec![k.into(), gen.into(), "".into()])
                    .unwrap();
            }
            db.commit().unwrap();
        }
        db.compact().unwrap();
        let g = db.inner.read();
        let t = g.tables.get("t").unwrap();
        // Generation-0 rows (rids 0..256) were dropped: holes, not panics.
        assert!(row(t, 3).is_none(), "dead rid resolves to None");
        assert_eq!(row(t, 256 + 3).map(|r| r[1].clone()), Some(Value::Int(1)));
        assert!(row(t, 999_999).is_none(), "past the high watermark");
        assert_eq!(t.total_rows, 256);
        assert_eq!(t.next_rid, 512);
    }
}

//! Delta operators: the one pivot of `logs ⋈ loops`, and `latest` on top.
//!
//! [`Pivot`] turns `logs` rows into the wide `flor.dataframe` frame. It
//! joins each row to its loop context (resolved once per `ctx_id`),
//! widens the schema when a row names a loop dimension or `value_name`
//! it has not seen, and writes the row's one cell straight into the
//! output column at the row its key names, last write wins. Every answer
//! comes from it: [`PivotState`] keeps one up to date under change-feed
//! batches, and the kernel's snapshot executor (`Flor::execute_at`) runs
//! one over a snapshot's rows. [`LatestState`] layers `flor.utils.latest`
//! on top via a per-group-key max-timestamp upsert.
//!
//! The invariant, enforced by `tests/prop_pivot.rs` (the operator against
//! a long-frame `DataFrame::pivot` reference, fed once or in batches) and
//! `tests/prop_view.rs` (kernel sessions, both executors against the same
//! reference): the frame is cell-for-cell the reference's — including
//! column order, row order, and nulls.

use crate::plan::FIXED_COLS as FIXED;
use flor_df::{Column, DataFrame, DataType, DfError, DfResult, Value};
use flor_store::{CommitBatch, Predicate, Query, RowDelta, Snapshot, StoreResult};
use std::borrow::Cow;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Why a delta batch could not be applied; the catalog reacts by falling
/// back to a full rebuild of the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// Batches arrived out of order (a feed epoch was skipped).
    EpochGap {
        /// The view's current epoch.
        have: u64,
        /// The batch that arrived.
        got: u64,
    },
    /// A delta row does not match the expected table schema.
    Malformed(String),
    /// The pivot refused a row: a value name that collides with an index
    /// column ([`DfError::DuplicateColumn`]), which a rebuild reports too.
    Df(DfError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::EpochGap { have, got } => {
                write!(f, "epoch gap: view at {have}, batch at {got}")
            }
            DeltaError::Malformed(m) => write!(f, "malformed delta: {m}"),
            DeltaError::Df(e) => write!(f, "pivot: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A logged cell as the pivot shows it: the `logs.value` text re-read as
/// its `value_type` tag — `Value::from_text(&value.to_text(), tag)`
/// without the intermediate `String`. A `Str` cell tagged `Str` shares
/// its `Arc`; other tags parse the borrowed text.
pub fn logged_value(value: &Value, tag: &Value) -> Value {
    let ty = DataType::from_tag(tag.as_i64().unwrap_or(DataType::Str.tag()));
    match (value, ty) {
        (Value::Str(s), DataType::Str) => Value::Str(Arc::clone(s)),
        (Value::Str(s), ty) => Value::from_text(s, ty),
        (other, ty) => Value::from_text(&other.to_text(), ty),
    }
}

/// `v.to_text()`, borrowed when `v` already is text (`logs` and `loops`
/// keep their names and text in `Str` columns, so that is every real
/// row).
fn text(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_text()),
    }
}

/// One loop-dimension cell of a pivot row: its column name
/// (`{loop}_iteration` or `{loop}_value`) and value.
type Dim = (Arc<str>, Value);

#[derive(Debug, Clone)]
struct LoopCtx {
    parent: i64,
    /// `{loop}_iteration` and `{loop}_value`, shared by every context of
    /// the same loop.
    cols: (Arc<str>, Arc<str>),
    iteration: Value,
    value: Value,
}

/// The `loops` table as a `ctx_id` → context map: what turns a log row's
/// `ctx_id` into its loop-dimension cells. A [`Pivot`] holds one — read
/// whole from a snapshot, then fed row by row from the change feed.
/// Dimension column names are built once per loop name, not per row.
#[derive(Debug, Clone, Default)]
pub struct LoopContexts {
    ctx: HashMap<i64, LoopCtx>,
    cols: HashMap<Arc<str>, (Arc<str>, Arc<str>)>,
}

impl LoopContexts {
    /// Every context in `snap`'s `loops`, reading only the five columns a
    /// chain needs.
    pub fn read(snap: &Snapshot) -> StoreResult<LoopContexts> {
        let loops = snap.query(&Query::table("loops").project(&[
            "ctx_id",
            "parent_ctx_id",
            "loop_name",
            "loop_iteration",
            "iteration_value",
        ]))?;
        Ok(LoopContexts::from_frame(&loops))
    }

    /// Every context in a `loops` frame (columns looked up by name; a
    /// missing column reads as nulls), later rows replacing earlier ones
    /// with the same `ctx_id`.
    pub fn from_frame(loops: &DataFrame) -> LoopContexts {
        let col = |name: &str| loops.column(name).map(|c| c.values.as_slice());
        let cols = [
            col("ctx_id"),
            col("parent_ctx_id"),
            col("loop_name"),
            col("loop_iteration"),
            col("iteration_value"),
        ];
        let cell = |c: usize, i: usize| cols[c].map_or(&Value::Null, |vals| &vals[i]);
        let mut out = LoopContexts::default();
        out.ctx.reserve(loops.n_rows());
        for i in 0..loops.n_rows() {
            out.insert(cell(0, i), cell(1, i), cell(2, i), cell(3, i), cell(4, i));
        }
        out
    }

    /// Add (or replace) one context; whether it replaced one.
    fn insert(
        &mut self,
        ctx_id: &Value,
        parent: &Value,
        loop_name: &Value,
        iteration: &Value,
        value: &Value,
    ) -> bool {
        let name = text(loop_name);
        let cols = match self.cols.get(name.as_ref()) {
            Some(cols) => cols.clone(),
            None => {
                let cols: (Arc<str>, Arc<str>) = (
                    format!("{name}_iteration").into(),
                    format!("{name}_value").into(),
                );
                self.cols.insert(name.as_ref().into(), cols.clone());
                cols
            }
        };
        let value = match value {
            Value::Str(s) => Value::Str(Arc::clone(s)),
            other => Value::from(other.to_text()),
        };
        let link = LoopCtx {
            parent: parent.as_i64().unwrap_or(0),
            cols,
            iteration: Value::Int(iteration.as_i64().unwrap_or(0)),
            value,
        };
        self.ctx
            .insert(ctx_id.as_i64().unwrap_or(0), link)
            .is_some()
    }

    /// The loop-dimension cells of a row logged under `ctx_id`: two per
    /// enclosing loop, outermost loop first. A missing link truncates the
    /// chain there (and the flag is `false`: a later `loops` row can
    /// lengthen it); a loop nested in a loop of the same name repeats its
    /// columns, and readers take the first (outermost) occurrence.
    fn dims(&self, ctx_id: i64) -> (Vec<Dim>, bool) {
        let mut dims: Vec<Dim> = Vec::new();
        let mut complete = ctx_id == 0;
        for c in self.chain(ctx_id) {
            dims.push((Arc::clone(&c.cols.1), c.value.clone()));
            dims.push((Arc::clone(&c.cols.0), c.iteration.clone()));
            complete = c.parent == 0;
        }
        dims.reverse();
        (dims, complete)
    }

    /// The column names of [`LoopContexts::dims`] without their cells,
    /// innermost loop first and without allocating.
    fn dim_names(&self, ctx_id: i64) -> impl Iterator<Item = &Arc<str>> {
        self.chain(ctx_id).flat_map(|c| [&c.cols.0, &c.cols.1])
    }

    /// The contexts enclosing a row logged under `ctx_id`, innermost
    /// first, up to the outermost loop or the first missing link.
    fn chain(&self, ctx_id: i64) -> impl Iterator<Item = &LoopCtx> {
        let mut cur = ctx_id;
        std::iter::from_fn(move || {
            if cur == 0 {
                return None;
            }
            let c = self.ctx.get(&cur)?;
            cur = c.parent;
            Some(c)
        })
    }
}

/// A `logs` row as the pivot reads it, borrowed from wherever it lives —
/// a fetched frame's columns ([`LogRow::all`]) or a change-feed delta.
#[derive(Debug, Clone, Copy)]
pub struct LogRow<'a> {
    /// `projid`, `tstamp`, `filename`: the row key's fixed cells, in
    /// [`crate::FIXED_COLS`] order.
    pub fixed: [&'a Value; 3],
    /// The loop context the row was logged under.
    pub ctx_id: &'a Value,
    /// The value column the row fills.
    pub value_name: &'a Value,
    /// The logged text.
    pub value: &'a Value,
    /// The `value_type` tag [`logged_value`] reads `value` as.
    pub value_type: &'a Value,
}

impl<'a> LogRow<'a> {
    /// Every row of a fetched `logs` frame, in order; a missing column is
    /// [`DfError::UnknownColumn`].
    pub fn all(logs: &'a DataFrame) -> DfResult<impl Iterator<Item = LogRow<'a>>> {
        let col = |name: &str| {
            logs.column(name)
                .map(|c| c.values.as_slice())
                .ok_or_else(|| DfError::UnknownColumn(name.to_string()))
        };
        let (projid, tstamp, filename) = (col("projid")?, col("tstamp")?, col("filename")?);
        let (ctx_id, value_name) = (col("ctx_id")?, col("value_name")?);
        let (value, value_type) = (col("value")?, col("value_type")?);
        Ok((0..logs.n_rows()).map(move |at| LogRow {
            fixed: [&projid[at], &tstamp[at], &filename[at]],
            ctx_id: &ctx_id[at],
            value_name: &value_name[at],
            value: &value[at],
            value_type: &value_type[at],
        }))
    }

    /// A row in the `logs` schema's column order (a change-feed delta).
    fn from_slice(row: &'a [Value]) -> Result<LogRow<'a>, DeltaError> {
        match row {
            [projid, tstamp, filename, ctx_id, value_name, value, value_type] => Ok(LogRow {
                fixed: [projid, tstamp, filename],
                ctx_id,
                value_name,
                value,
                value_type,
            }),
            _ => Err(DeltaError::Malformed(format!(
                "logs row has {} columns, expected 7",
                row.len()
            ))),
        }
    }

    /// The row's cell in index column `col` under context `ctx`: a fixed
    /// column's, a dimension's ([`Ctx::cell`]), or null.
    pub fn cell<'c>(&self, ctx: &'c Ctx, col: &str) -> &'c Value
    where
        'a: 'c,
    {
        match FIXED.iter().position(|f| *f == col) {
            Some(i) => self.fixed[i],
            None => ctx.cell(col),
        }
    }
}

/// One loop context as a row key sees it, resolved once per `ctx_id` by
/// [`Pivot::ctx`].
#[derive(Debug)]
pub struct Ctx {
    /// [`LoopContexts::dims`] of the context.
    dims: Vec<Dim>,
    /// [`Ctx::hash`], computed on first use: the pre-cuts resolve every
    /// fetched row's context but write only the rows they keep.
    hash: OnceLock<u64>,
}

impl Ctx {
    /// The sum of one hash per key cell — each column's first (outermost)
    /// cell, nulls left out — so neither column order nor a dimension
    /// discovered later changes it.
    fn hash(&self) -> u64 {
        *self.hash.get_or_init(|| {
            let mut hash = 0u64;
            for (i, (d, v)) in self.dims.iter().enumerate() {
                if !v.is_null() && !self.dims[..i].iter().any(|(e, _)| e == d) {
                    let mut h = DefaultHasher::new();
                    (d, v).hash(&mut h);
                    hash = hash.wrapping_add(h.finish());
                }
            }
            hash
        })
    }

    /// The cell of dimension column `col`: the first (outermost) with
    /// that name, or null.
    pub fn cell(&self, col: &str) -> &Value {
        self.dims
            .iter()
            .find(|(d, _)| **d == *col)
            .map_or(&Value::Null, |(_, v)| v)
    }
}

/// No further row in a [`Pivot`]'s hash chain.
const END: usize = usize::MAX;

/// The one pivot of `logs ⋈ loops`, long → wide: one row per distinct
/// key — the fixed context columns plus the loop dimensions — in
/// first-seen order, and the columns [`crate::FIXED_COLS`], then loop
/// dimensions, then value names, each in first-seen order.
///
/// Per row there is no long frame and no owned key: the context is
/// resolved once per `ctx_id`; a row with the same context and fixed
/// cells as the row written before it goes to that row; otherwise the
/// key's hash finds candidate rows, whose index cells *are* the keys.
/// The one cell is written by column position. A value name equal to an
/// index column's name is [`DfError::DuplicateColumn`], as it is for
/// [`DataFrame::pivot`].
#[derive(Debug, Clone, Default)]
pub struct Pivot {
    loops: LoopContexts,
    /// Every `ctx_id` resolved so far; emptied when a `loops` row may
    /// change one of their chains.
    ctxs: HashMap<i64, Arc<Ctx>>,
    /// Whether a chain in `ctxs` stopped at a missing link.
    truncated: bool,
    /// Dimension columns, in first-seen order.
    dims: Vec<Arc<str>>,
    /// Value columns, in first-seen order.
    names: Vec<Arc<str>>,
    /// Row-key hash → the newest row with that hash; `chain[r]` is the
    /// next older row sharing row `r`'s hash, or [`END`].
    heads: HashMap<u64, usize>,
    chain: Vec<usize>,
    /// The last row written and its context.
    last: Option<(Arc<Ctx>, usize)>,
    /// The `ctx_id` of the last row discovered: its dimensions are known.
    discovered: Option<i64>,
    /// The wide frame. Shared out by [`Pivot::frame`]; writes go through
    /// `Arc::make_mut` (a copy only while a reader holds an old frame).
    frame: Arc<DataFrame>,
}

impl Pivot {
    /// An empty pivot over the contexts in `loops`.
    pub fn new(loops: LoopContexts) -> Pivot {
        Pivot {
            loops,
            ..Pivot::default()
        }
    }

    /// The dimension columns, in first-seen order.
    pub fn dims(&self) -> &[Arc<str>] {
        &self.dims
    }

    /// Whether `col` is an index column — one of the three fixed context
    /// columns or a discovered loop dimension. Index cells are written
    /// once when their row is created and never rewritten; value cells
    /// can be.
    pub fn is_index(&self, col: &str) -> bool {
        FIXED.contains(&col) || self.dims.iter().any(|d| **d == *col)
    }

    /// The wide frame so far. Cheap (`Arc` clone).
    pub fn frame(&self) -> Arc<DataFrame> {
        Arc::clone(&self.frame)
    }

    /// The wide frame, without a copy when no reader shares it.
    pub fn into_frame(self) -> DataFrame {
        Arc::unwrap_or_clone(self.frame)
    }

    /// Add (or replace) one `loops` row, in the table's column order.
    fn insert_loop(&mut self, row: &[Value]) -> Result<(), DeltaError> {
        let [_, _, _, ctx_id, parent, loop_name, iteration, value] = row else {
            return Err(DeltaError::Malformed(format!(
                "loops row has {} columns, expected 8",
                row.len()
            )));
        };
        let replaced = self
            .loops
            .insert(ctx_id, parent, loop_name, iteration, value);
        // A resolved chain may run through a replaced context, or stop
        // short of a new one where a link was missing.
        if replaced || self.truncated {
            self.ctxs.clear();
            self.truncated = false;
            self.last = None;
            self.discovered = None;
        }
        Ok(())
    }

    /// The context of a row logged under `ctx_id`. Resolving it the first
    /// time widens the schema by the dimensions it names that are new, in
    /// its chain's order (outermost first).
    pub fn ctx(&mut self, ctx_id: &Value) -> DfResult<Arc<Ctx>> {
        let id = ctx_id.as_i64().unwrap_or(0);
        let slot = match self.ctxs.entry(id) {
            Entry::Occupied(known) => return Ok(Arc::clone(known.get())),
            Entry::Vacant(slot) => slot,
        };
        let (dims, complete) = self.loops.dims(id);
        self.truncated |= !complete;
        let ctx = Arc::new(Ctx {
            dims,
            hash: OnceLock::new(),
        });
        let frame = with_fixed(&mut self.frame)?;
        for (d, _) in &ctx.dims {
            if !self.dims.contains(d) {
                frame.insert_column(FIXED.len() + self.dims.len(), nulls(d, frame))?;
                self.dims.push(Arc::clone(d));
            }
        }
        slot.insert(Arc::clone(&ctx));
        Ok(ctx)
    }

    /// The position of value column `value_name` among the value columns,
    /// added on first sight.
    fn name(&mut self, value_name: &Value) -> DfResult<usize> {
        let name = text(value_name);
        if let Some(at) = self.names.iter().position(|n| **n == *name) {
            return Ok(at);
        }
        let frame = with_fixed(&mut self.frame)?;
        frame.add_column(nulls(&name, frame))?;
        self.names.push(name.into());
        Ok(self.names.len() - 1)
    }

    /// Widen the schema for a row logged under `ctx_id` as `value_name`
    /// without writing the row: what a row the caller filters out still
    /// contributes, so the columns are those of the pivot of every row.
    pub fn discover(&mut self, ctx_id: &Value, value_name: &Value) -> DfResult<()> {
        // Resolving a context only to learn that it names no new
        // dimension is most of a schema pass's cost; its names alone say,
        // and a row under the previous row's context needs not even them.
        let id = ctx_id.as_i64().unwrap_or(0);
        if self.discovered != Some(id) && !self.loops.dim_names(id).all(|d| self.dims.contains(d)) {
            self.ctx(ctx_id)?;
        }
        self.discovered = Some(id);
        self.name(value_name).map(drop)
    }

    /// Write one row: discover its columns, then set its one cell in the
    /// row its key names — a new last row on first sight of the key, else
    /// the existing row (last write wins). Returns the row's position.
    pub fn upsert(&mut self, row: LogRow<'_>) -> DfResult<usize> {
        let ctx = self.ctx(row.ctx_id)?;
        let col = FIXED.len() + self.dims.len() + self.name(row.value_name)?;
        let value = logged_value(row.value, row.value_type);
        let dims = &self.dims;
        let frame = Arc::make_mut(&mut self.frame);
        let same_as_last = self
            .last
            .as_ref()
            .filter(|(c, at)| Arc::ptr_eq(c, &ctx) && fixed_at(frame, *at, row.fixed))
            .map(|(_, at)| *at);
        let at = match same_as_last {
            Some(at) => at,
            None => {
                let mut h = DefaultHasher::new();
                row.fixed.hash(&mut h);
                h.write_u64(ctx.hash());
                let hash = h.finish();
                let mut at = self.heads.get(&hash).copied().unwrap_or(END);
                while at != END && !key_at(frame, at, row.fixed, &ctx, dims) {
                    at = self.chain[at];
                }
                if at == END {
                    at = frame.n_rows();
                    frame.push_row_with(|c| match c {
                        c if c < FIXED.len() => row.fixed[c].clone(),
                        c => dims
                            .get(c - FIXED.len())
                            .map_or(Value::Null, |d| ctx.cell(d).clone()),
                    });
                    self.chain.push(self.heads.insert(hash, at).unwrap_or(END));
                }
                at
            }
        };
        frame.set_at(at, col, value);
        self.last = Some((ctx, at));
        Ok(at)
    }
}

/// `frame`, made unique, with the fixed columns once it has any.
fn with_fixed(frame: &mut Arc<DataFrame>) -> DfResult<&mut DataFrame> {
    let frame = Arc::make_mut(frame);
    if frame.n_cols() == 0 {
        for f in FIXED {
            frame.add_column(nulls(f, frame))?;
        }
    }
    Ok(frame)
}

/// An all-null column named `name` as long as `frame`.
fn nulls(name: &str, frame: &DataFrame) -> Column {
    Column {
        name: name.to_string(),
        values: vec![Value::Null; frame.n_rows()],
    }
}

/// Whether row `at` has the fixed cells `fixed`.
fn fixed_at(frame: &DataFrame, at: usize, fixed: [&Value; 3]) -> bool {
    frame
        .columns()
        .iter()
        .zip(fixed)
        .all(|(c, v)| c.values[at] == *v)
}

/// Whether row `at`'s key is `fixed` plus `ctx`'s cells in the
/// dimension columns `dims`.
fn key_at(frame: &DataFrame, at: usize, fixed: [&Value; 3], ctx: &Ctx, dims: &[Arc<str>]) -> bool {
    fixed_at(frame, at, fixed)
        && frame.columns()[FIXED.len()..]
            .iter()
            .zip(dims)
            .all(|(c, d)| c.values[at] == *ctx.cell(d))
}

/// The pivot of `logs ⋈ loops` projected onto a set of `value_name`s and
/// maintained under change-feed batches: a [`Pivot`] plus the projection,
/// the view's pushdown predicates and the epoch it reflects.
#[derive(Debug, Clone)]
pub struct PivotState {
    names: Vec<String>,
    /// Pushdown predicates over the fixed context columns, enforced at
    /// materialization time: rows failing any predicate are skipped at the
    /// upsert — but still participate in schema discovery, because the
    /// from-scratch oracle's column set and order are determined by *all*
    /// matching-name rows, filtered or not. Fixed columns are part of the
    /// row key, so an excluded log row can never share a pivot row with an
    /// included one and last-write-wins stays intact.
    pushdown: Vec<Predicate>,
    pivot: Pivot,
    epoch: u64,
}

impl PivotState {
    /// Empty view at epoch `epoch` for the given projection, with
    /// pushdown predicates over the fixed context columns (see the
    /// `pushdown` field docs; `&[]` for an unfiltered view): the
    /// maintained frame holds only rows satisfying every predicate. The
    /// caller (the query planner's
    /// [`crate::QueryPlan::split_predicates`]) guarantees predicate
    /// columns are fixed context columns; a predicate over any other
    /// column conservatively matches nothing.
    pub fn filtered(names: &[&str], pushdown: &[Predicate], epoch: u64) -> PivotState {
        PivotState {
            names: names.iter().map(|s| s.to_string()).collect(),
            pushdown: pushdown.to_vec(),
            pivot: Pivot::default(),
            epoch,
        }
    }

    /// Build from a consistent snapshot at `epoch` — its `logs` rows and
    /// its [`LoopContexts`] — by feeding every row through the step a
    /// live batch's rows take, in order, so the result is identical to an
    /// incremental build that watched the log grow row by row. `pushdown`
    /// as in [`PivotState::filtered`].
    pub fn from_snapshot_filtered(
        names: &[&str],
        pushdown: &[Predicate],
        epoch: u64,
        logs: &DataFrame,
        loops: LoopContexts,
    ) -> DfResult<PivotState> {
        let mut state = PivotState {
            pivot: Pivot::new(loops),
            ..PivotState::filtered(names, pushdown, epoch)
        };
        for row in LogRow::all(logs)? {
            state.apply_log_row(row)?;
        }
        Ok(state)
    }

    /// The epoch this view reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `col` is an index column of the maintained frame
    /// ([`Pivot::is_index`]).
    pub fn is_index_col(&self, col: &str) -> bool {
        self.pivot.is_index(col)
    }

    /// Shared snapshot of the maintained frame. Cheap (`Arc` clone).
    pub fn frame(&self) -> Arc<DataFrame> {
        self.pivot.frame()
    }

    /// Apply one commit batch. Returns the positions of rows added or
    /// updated (deduplicated, ascending). Batches at or below the view's
    /// epoch are skipped (already reflected by the snapshot the view was
    /// built from); a skipped-ahead epoch is an [`DeltaError::EpochGap`].
    pub fn apply(&mut self, batch: &CommitBatch) -> Result<Vec<usize>, DeltaError> {
        if batch.epoch <= self.epoch {
            return Ok(Vec::new());
        }
        // A coalesced batch spans `first_epoch()..=epoch`; it applies
        // cleanly only when its first commit is the view's next one. A
        // later first commit means batches were shed (an epoch gap); an
        // earlier one would straddle the view's snapshot — also a rebuild.
        if batch.first_epoch() != self.epoch + 1 {
            return Err(DeltaError::EpochGap {
                have: self.epoch,
                got: batch.first_epoch(),
            });
        }
        // Loop rows first: within a transaction a log row may reference a
        // ctx minted earlier in the same transaction, and the full-rebuild
        // oracle resolves chains against the complete loops table.
        for delta in batch.deltas.iter() {
            if delta.table == "loops" {
                self.pivot.insert_loop(&delta.row)?;
            }
        }
        let mut changed = Vec::new();
        for delta in batch.deltas.iter() {
            if delta.table == "logs" {
                let row = LogRow::from_slice(&delta.row)?;
                if let Some(pos) = self.apply_log_row(row).map_err(DeltaError::Df)? {
                    changed.push(pos);
                }
            }
        }
        self.epoch = batch.epoch;
        changed.sort_unstable();
        changed.dedup();
        Ok(changed)
    }

    /// Total deltas in `batch` this view would look at (logs + loops).
    pub fn relevant_deltas(batch: &CommitBatch) -> usize {
        batch
            .deltas
            .iter()
            .filter(|d: &&RowDelta| d.table == "logs" || d.table == "loops")
            .count()
    }

    /// One `logs` row: ignored unless the view projects its name;
    /// discovered whatever the pushdown says; written (and its position
    /// returned) only when every pushdown predicate admits it.
    fn apply_log_row(&mut self, row: LogRow<'_>) -> DfResult<Option<usize>> {
        let name = text(row.value_name);
        if !self.names.iter().any(|n| *n == *name) {
            return Ok(None);
        }
        let excluded = self
            .pushdown
            .iter()
            .any(|p| match FIXED.iter().position(|f| *f == p.col) {
                Some(i) => !p.matches(row.fixed[i]),
                None => true,
            });
        if excluded {
            self.pivot.discover(row.ctx_id, row.value_name)?;
            return Ok(None);
        }
        self.pivot.upsert(row).map(Some)
    }
}

/// Incremental `flor.utils.latest`: for each distinct group-key, keep the
/// rows carrying the maximum `tstamp`. Maintained by per-key upsert from
/// the pivot's changed-row reports.
#[derive(Debug, Clone)]
pub struct LatestState {
    group: Vec<String>,
    /// group key → (max `tstamp`, row positions at that value).
    best: HashMap<Vec<Value>, (Value, Vec<usize>)>,
}

impl LatestState {
    /// Empty state for the given group columns.
    pub fn new(group: &[&str]) -> LatestState {
        LatestState {
            group: group.iter().map(|s| s.to_string()).collect(),
            best: HashMap::new(),
        }
    }

    /// The group columns.
    pub fn group(&self) -> &[String] {
        &self.group
    }

    /// Observe added or upserted rows of the pivot frame (per-key upsert).
    pub fn observe(&mut self, frame: &DataFrame, added_rows: &[usize]) {
        for &r in added_rows {
            let key: Vec<Value> = self
                .group
                .iter()
                .map(|g| frame.get(r, g).cloned().unwrap_or(Value::Null))
                .collect();
            let ts = frame.get(r, "tstamp").cloned().unwrap_or(Value::Null);
            match self.best.get_mut(&key) {
                None => {
                    self.best.insert(key, (ts, vec![r]));
                }
                Some((max, rows)) => {
                    if ts > *max {
                        *max = ts;
                        rows.clear();
                        rows.push(r);
                    } else if ts == *max && !rows.contains(&r) {
                        // `changed` includes in-place upserts: a row already
                        // tracked at the max timestamp must not be pushed
                        // again, or the materialized view duplicates it.
                        rows.push(r);
                    }
                }
            }
        }
    }

    /// Row positions surviving the latest-filter, ascending — the rows a
    /// from-scratch `frame.latest(group, "tstamp")` would keep.
    pub fn surviving_rows(&self) -> Vec<usize> {
        let mut keep: Vec<usize> = self
            .best
            .values()
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect();
        keep.sort_unstable();
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_store::{flor_schema, Database};

    fn log_row(ts: i64, ctx: i64, name: &str, value: &str, tag: i64) -> Vec<Value> {
        vec![
            "p".into(),
            ts.into(),
            "f.fl".into(),
            ctx.into(),
            name.into(),
            value.into(),
            tag.into(),
        ]
    }

    fn loop_row(ts: i64, ctx: i64, parent: i64, name: &str, iter: i64, val: &str) -> Vec<Value> {
        vec![
            "p".into(),
            ts.into(),
            "f.fl".into(),
            ctx.into(),
            parent.into(),
            name.into(),
            iter.into(),
            val.into(),
        ]
    }

    #[test]
    fn pivot_state_builds_and_applies() {
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view = PivotState::filtered(&["loss", "acc"], &[], 0);

        db.insert("logs", log_row(1, 0, "loss", "0.5", 3)).unwrap();
        db.insert("logs", log_row(1, 0, "acc", "0.9", 3)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            view.apply(&batch).unwrap();
        }
        let f = view.frame();
        assert_eq!(
            f.column_names(),
            vec!["projid", "tstamp", "filename", "loss", "acc"]
        );
        assert_eq!(f.n_rows(), 1);
        assert_eq!(f.get(0, "loss"), Some(&Value::Float(0.5)));

        // Second commit: new tstamp row plus a re-log (upsert) is additive.
        db.insert("logs", log_row(2, 0, "loss", "0.25", 3)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            let changed = view.apply(&batch).unwrap();
            assert_eq!(changed, vec![1]);
        }
        let f = view.frame();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.get(1, "acc"), Some(&Value::Null));
    }

    #[test]
    fn new_dimension_discovery_mid_stream() {
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view = PivotState::filtered(&["loss"], &[], 0);
        db.insert("logs", log_row(1, 0, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        db.insert("loops", loop_row(2, 7, 0, "epoch", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(2, 7, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            view.apply(&batch).unwrap();
        }
        let f = view.frame();
        assert_eq!(
            f.column_names(),
            vec![
                "projid",
                "tstamp",
                "filename",
                "epoch_iteration",
                "epoch_value",
                "loss"
            ]
        );
        // The old row's late-added dimension cells are null.
        assert_eq!(f.get(0, "epoch_iteration"), Some(&Value::Null));
        assert_eq!(f.get(1, "epoch_iteration"), Some(&Value::Int(0)));
    }

    #[test]
    fn filtered_state_skips_rows_but_discovers_columns() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view =
            PivotState::filtered(&["loss"], &[Predicate::new("tstamp", CmpOp::Gt, 1)], 0);
        // ts=1 fails the predicate but its loop dimension must still be
        // discovered (the oracle pivots all rows, then filters).
        db.insert("loops", loop_row(1, 5, 0, "epoch", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "9", 2)).unwrap();
        db.insert("logs", log_row(2, 0, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            let changed = view.apply(&batch).unwrap();
            assert_eq!(changed, vec![0], "only the ts=2 row materializes");
        }
        let f = view.frame();
        assert_eq!(
            f.column_names(),
            vec![
                "projid",
                "tstamp",
                "filename",
                "epoch_iteration",
                "epoch_value",
                "loss"
            ]
        );
        assert_eq!(f.n_rows(), 1);
        assert_eq!(f.get(0, "tstamp"), Some(&Value::Int(2)));
        // The excluded row's dimension cells stay null on the survivor.
        assert_eq!(f.get(0, "epoch_iteration"), Some(&Value::Null));
    }

    #[test]
    fn epoch_gap_detected() {
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view = PivotState::filtered(&["x"], &[], 0);
        db.insert("logs", log_row(1, 0, "x", "1", 2)).unwrap();
        db.commit().unwrap();
        db.insert("logs", log_row(2, 0, "x", "2", 2)).unwrap();
        db.commit().unwrap();
        let batches = sub.poll();
        assert_eq!(batches.len(), 2);
        // Skip the first batch: the view must refuse the second.
        assert!(matches!(
            view.apply(&batches[1]),
            Err(DeltaError::EpochGap { have: 0, got: 2 })
        ));
        // And stale batches are ignored once the view catches up.
        view.apply(&batches[0]).unwrap();
        view.apply(&batches[1]).unwrap();
        assert!(view.apply(&batches[0]).unwrap().is_empty());
    }

    #[test]
    fn loop_rows_reresolve_the_contexts_they_change() {
        // Context 5 sits in loop "inner" under context 9, not known yet.
        let mut pivot = Pivot::default();
        let write = |pivot: &mut Pivot, ts: i64| {
            let row = log_row(ts, 5, "loss", &ts.to_string(), 2);
            pivot.upsert(LogRow::from_slice(&row).unwrap()).unwrap();
        };
        pivot
            .insert_loop(&loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        write(&mut pivot, 1);
        // The missing link arrives: later rows see the outer loop...
        pivot
            .insert_loop(&loop_row(1, 9, 0, "outer", 3, "3"))
            .unwrap();
        write(&mut pivot, 2);
        // ...and a replaced context's new cells.
        pivot
            .insert_loop(&loop_row(1, 9, 0, "outer", 4, "4"))
            .unwrap();
        write(&mut pivot, 3);
        let f = pivot.frame();
        let outer: Vec<_> = (0..3).map(|r| f.get(r, "outer_iteration")).collect();
        let want = [Value::Null, Value::Int(3), Value::Int(4)];
        assert_eq!(outer, want.iter().map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn malformed_rows_rejected() {
        assert!(LogRow::from_slice(&["p".into()]).is_err());
        let mut pivot = Pivot::new(LoopContexts::default());
        assert!(pivot.insert_loop(&["p".into()]).is_err());
    }

    #[test]
    fn latest_state_per_key_upsert() {
        let mut frame = DataFrame::new();
        frame.push_row(&[("tstamp", 1.into()), ("doc_value", "a".into())]);
        frame.push_row(&[("tstamp", 2.into()), ("doc_value", "a".into())]);
        frame.push_row(&[("tstamp", 1.into()), ("doc_value", "b".into())]);
        let mut latest = LatestState::new(&["doc_value"]);
        latest.observe(&frame, &[0, 1, 2]);
        assert_eq!(latest.surviving_rows(), vec![1, 2]);
        // A newer row for "b" evicts the old one; ties keep both.
        frame.push_row(&[("tstamp", 5.into()), ("doc_value", "b".into())]);
        frame.push_row(&[("tstamp", 5.into()), ("doc_value", "b".into())]);
        latest.observe(&frame, &[3, 4]);
        assert_eq!(latest.surviving_rows(), vec![1, 3, 4]);
    }
}

//! Delta operators: the one pivot of `logs ⋈ loops`, and `latest` on top.
//!
//! [`Pivot`] turns `logs` rows into the wide `flor.dataframe` frame. It
//! joins each row to its loop context, widens the schema when a row
//! names a loop dimension or `value_name` it has not seen, and writes the
//! row's one cell straight into the output column at the row its key
//! names, last write wins. Every answer comes from it: [`PivotState`]
//! keeps one up to date under change-feed batches, and the kernel's
//! snapshot executor (`Flor::execute_at`) runs one over a snapshot's
//! rows. [`LatestState`] layers `flor.utils.latest` on top via a
//! per-group-key max-timestamp upsert.
//!
//! Neither reads history whole per query. The loop contexts are a stack
//! ([`LoopContexts`]): one context map per sealed `loops` segment, each
//! context resolved once per segment when its chain lies there, made by
//! the first reader of the segment and shared by `Arc` with every later
//! snapshot and cached view ([`flor_store::Snapshot::summaries`]), plus
//! the tail the change feed adds. The snapshot executor's schema pass
//! ([`Pivot::discover_all`]) is a merge, by smallest rid, of one summary
//! per sealed `logs` segment — each value name's first rid and the first
//! rid of each dimension signature it was logged under — since
//! first-seen order is rid order. Where a summary cannot be exact — a
//! chain incomplete when summarised, a `ctx_id` some `loops` row
//! redefines — the context is resolved at query time instead.
//!
//! The invariant, enforced by `tests/prop_pivot.rs` (the operator against
//! a long-frame `DataFrame::pivot` reference, fed once or in batches) and
//! `tests/prop_view.rs` (kernel sessions, both executors against the same
//! reference): the frame is cell-for-cell the reference's — including
//! column order, row order, and nulls.

use crate::plan::FIXED_COLS as FIXED;
use flor_df::{Column, DataFrame, DataType, DfError, DfResult, Value};
use flor_store::{CommitBatch, Predicate, RowDelta, Snapshot, StoreResult};
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

/// The dimension column names of a context, outermost loop first: what
/// a row logged under it adds to the schema.
type Signature = Arc<[Arc<str>]>;

#[derive(Debug, Clone)]
struct LoopCtx {
    parent: i64,
    /// `{loop}_iteration` and `{loop}_value`, shared by every context of
    /// the same loop.
    cols: (Arc<str>, Arc<str>),
    iteration: Value,
    value: Value,
}

/// Dimension column names per loop name, built once per loop name, not
/// per row.
#[derive(Debug, Clone, Default)]
struct DimNames(HashMap<Arc<str>, (Arc<str>, Arc<str>)>);

impl DimNames {
    /// The link a `loops` row adds.
    fn link(
        &mut self,
        parent: &Value,
        loop_name: &Value,
        iteration: &Value,
        value: &Value,
    ) -> LoopCtx {
        let name = text(loop_name);
        let cols = match self.0.get(name.as_ref()) {
            Some(cols) => cols.clone(),
            None => {
                let cols: (Arc<str>, Arc<str>) = (
                    format!("{name}_iteration").into(),
                    format!("{name}_value").into(),
                );
                self.0.insert(name.as_ref().into(), cols.clone());
                cols
            }
        };
        let value = match value {
            Value::Str(s) => Value::Str(Arc::clone(s)),
            other => Value::from(other.to_text()),
        };
        LoopCtx {
            parent: parent.as_i64().unwrap_or(0),
            cols,
            iteration: Value::Int(iteration.as_i64().unwrap_or(0)),
            value,
        }
    }
}

/// The `loops` columns a chain needs, in the order [`loop_rows`] yields.
const LOOP_COLS: [&str; 5] = [
    "ctx_id",
    "parent_ctx_id",
    "loop_name",
    "loop_iteration",
    "iteration_value",
];

/// The rows of a `loops` frame as `(ctx_id, [parent, loop_name,
/// iteration, value])` (columns looked up by name; a missing column
/// reads as nulls).
fn loop_rows(loops: &DataFrame) -> impl Iterator<Item = (i64, [&Value; 4])> {
    let cols = LOOP_COLS.map(|name| loops.column(name).map(|c| c.values.as_slice()));
    (0..loops.n_rows()).map(move |i| {
        let cell = |c: usize| cols[c].map_or(&Value::Null, |vals| &vals[i]);
        let id = cell(0).as_i64().unwrap_or(0);
        (id, [cell(1), cell(2), cell(3), cell(4)])
    })
}

/// The contexts enclosing a row logged under `ctx_id`, innermost first,
/// up to the outermost loop or the first link `link` lacks.
fn chain<'c>(
    link: impl Fn(i64) -> Option<&'c LoopCtx>,
    ctx_id: i64,
) -> impl Iterator<Item = &'c LoopCtx> {
    let mut cur = ctx_id;
    std::iter::from_fn(move || {
        if cur == 0 {
            return None;
        }
        let c = link(cur)?;
        cur = c.parent;
        Some(c)
    })
}

/// The loop-dimension cells of a row logged under `ctx_id`: two per
/// enclosing loop, outermost loop first. A missing link truncates the
/// chain there (and the flag is `false`: a later `loops` row can
/// lengthen it); a loop nested in a loop of the same name repeats its
/// columns, and readers take the first (outermost) occurrence.
fn dims<'c>(link: impl Fn(i64) -> Option<&'c LoopCtx>, ctx_id: i64) -> (Vec<Dim>, bool) {
    let mut dims: Vec<Dim> = Vec::new();
    let mut complete = ctx_id == 0;
    for c in chain(link, ctx_id) {
        dims.push((Arc::clone(&c.cols.1), c.value.clone()));
        dims.push((Arc::clone(&c.cols.0), c.iteration.clone()));
        complete = c.parent == 0;
    }
    dims.reverse();
    (dims, complete)
}

/// One context of a sealed `loops` segment.
#[derive(Debug)]
struct SealedCtx {
    link: LoopCtx,
    /// The rid of the `loops` row that defines it.
    rid: usize,
    /// The context, resolved once when its whole chain lies in the
    /// segment.
    resolved: Option<Arc<Ctx>>,
}

/// The contexts one sealed `loops` segment defines: the summary the store
/// keeps beside the segment ([`Snapshot::summaries`]), made once and
/// shared by every snapshot that pins the segment.
#[derive(Debug, Default)]
struct SegmentContexts {
    ctx: HashMap<i64, SealedCtx>,
    /// The smallest and largest `ctx_id` defined here.
    ids: Option<(i64, i64)>,
    /// Whether two rows here define the same `ctx_id` (the later wins).
    redefines: bool,
    /// The largest rid here.
    last_rid: usize,
}

impl SegmentContexts {
    /// Summarise a segment's `loops` rows ([`LOOP_COLS`], in rid order).
    fn of(loops: &DataFrame, rids: &[usize]) -> SegmentContexts {
        let mut names = DimNames::default();
        let mut out = SegmentContexts::default();
        for ((id, [parent, name, iteration, value]), &rid) in loop_rows(loops).zip(rids) {
            let link = names.link(parent, name, iteration, value);
            let sealed = SealedCtx {
                link,
                rid,
                resolved: None,
            };
            out.redefines |= out.ctx.insert(id, sealed).is_some();
            out.ids = Some(
                out.ids
                    .map_or((id, id), |(lo, hi)| (lo.min(id), hi.max(id))),
            );
            out.last_rid = rid;
        }
        let resolved: Vec<(i64, Arc<Ctx>)> = out
            .ctx
            .keys()
            .filter_map(|&id| {
                let (dims, complete) = dims(|id| out.get(id).map(|c| &c.link), id);
                complete.then(|| (id, Arc::new(Ctx::new(dims))))
            })
            .collect();
        for (id, ctx) in resolved {
            if let Some(c) = out.ctx.get_mut(&id) {
                c.resolved = Some(ctx);
            }
        }
        out
    }

    fn get(&self, id: i64) -> Option<&SealedCtx> {
        let (lo, hi) = self.ids?;
        if id < lo || id > hi {
            return None;
        }
        self.ctx.get(&id)
    }
}

/// The `loops` table as a `ctx_id` → context map: what turns a log row's
/// `ctx_id` into its loop-dimension cells. A [`Pivot`] holds one — the
/// per-segment contexts of a snapshot ([`LoopContexts::of`]), looked up
/// newest first, plus a tail fed row by row from the change feed.
#[derive(Debug, Clone, Default)]
pub struct LoopContexts {
    /// Each sealed segment's contexts, oldest first. No `ctx_id` is
    /// defined twice across them and the tail, so a context resolved
    /// within its segment is the snapshot's.
    sealed: Vec<Arc<SegmentContexts>>,
    /// Contexts added after the sealed ones — or every context, once a
    /// `ctx_id` is defined twice and the sealed resolutions cannot be
    /// trusted.
    tail: HashMap<i64, LoopCtx>,
    names: DimNames,
}

impl LoopContexts {
    /// The contexts of `snap`'s `loops`: one summary per sealed segment,
    /// made by the first reader of the segment and shared by every later
    /// one, so no query re-reads the table. When some `ctx_id` is defined
    /// twice (the kernel mints each once; raw `Database` writers need
    /// not), they fold into one map, later rows winning, as a row-by-row
    /// read would.
    pub fn of(snap: &Snapshot) -> StoreResult<LoopContexts> {
        let (sealed, _) = snap.summaries("loops", &LOOP_COLS, |_| true, SegmentContexts::of)?;
        let mut out = LoopContexts {
            sealed,
            ..LoopContexts::default()
        };
        let mut ranges: Vec<(i64, i64)> = out.sealed.iter().filter_map(|s| s.ids).collect();
        ranges.sort_unstable();
        if out.sealed.iter().any(|s| s.redefines) || ranges.windows(2).any(|w| w[0].1 >= w[1].0) {
            out.flatten();
        }
        Ok(out)
    }

    /// Every context in a `loops` frame, later rows replacing earlier
    /// ones with the same `ctx_id`.
    pub fn from_frame(loops: &DataFrame) -> LoopContexts {
        let mut out = LoopContexts::default();
        out.tail.reserve(loops.n_rows());
        for (id, [parent, name, iteration, value]) in loop_rows(loops) {
            let link = out.names.link(parent, name, iteration, value);
            out.tail.insert(id, link);
        }
        out
    }

    /// Fold the sealed contexts into the tail, the latest row per
    /// `ctx_id` winning (the tail is newer than every sealed row).
    fn flatten(&mut self) {
        let mut latest: HashMap<i64, &SealedCtx> = HashMap::new();
        for (&id, c) in self.sealed.iter().flat_map(|s| &s.ctx) {
            let slot = latest.entry(id).or_insert(c);
            if c.rid > slot.rid {
                *slot = c;
            }
        }
        for (id, c) in latest {
            self.tail.entry(id).or_insert_with(|| c.link.clone());
        }
        self.sealed.clear();
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
        let id = ctx_id.as_i64().unwrap_or(0);
        let sealed = self.sealed.iter().any(|s| s.get(id).is_some());
        if sealed {
            self.flatten();
        }
        let link = self.names.link(parent, loop_name, iteration, value);
        self.tail.insert(id, link).is_some() || sealed
    }

    /// The link defining `ctx_id`.
    fn link(&self, ctx_id: i64) -> Option<&LoopCtx> {
        match self.tail.get(&ctx_id) {
            Some(link) => Some(link),
            None => self.sealed(ctx_id).map(|c| &c.link),
        }
    }

    fn sealed(&self, ctx_id: i64) -> Option<&SealedCtx> {
        self.sealed.iter().rev().find_map(|s| s.get(ctx_id))
    }

    /// [`dims`] of `ctx_id` through every link.
    fn dims(&self, ctx_id: i64) -> (Vec<Dim>, bool) {
        dims(|id| self.link(id), ctx_id)
    }

    /// The column names of [`LoopContexts::dims`] without their cells,
    /// innermost loop first and without allocating.
    fn dim_names(&self, ctx_id: i64) -> impl Iterator<Item = &Arc<str>> {
        chain(|id| self.link(id), ctx_id).flat_map(|c| [&c.cols.0, &c.cols.1])
    }

    /// `ctx_id`'s dimension column names, outermost loop first, and the
    /// largest rid among its links, through the sealed links only —
    /// `None` while a link is missing.
    fn signature(&self, ctx_id: i64) -> Option<(Signature, Option<usize>)> {
        let (mut names, mut last_rid, mut cur) = (Vec::new(), None, ctx_id);
        while cur != 0 {
            let c = self.sealed(cur)?;
            names.push(Arc::clone(&c.link.cols.1));
            names.push(Arc::clone(&c.link.cols.0));
            last_rid = last_rid.max(Some(c.rid));
            cur = c.link.parent;
        }
        names.reverse();
        Some((names.into(), last_rid))
    }

    /// The rid below which every sealed link lies, when each `ctx_id` is
    /// defined once and nothing has been fed since; 0 otherwise. A schema
    /// summary whose chains lie below it is exact here.
    fn trusted_below(&self) -> usize {
        match self.sealed.iter().map(|s| s.last_rid).max() {
            Some(last) if self.tail.is_empty() => last + 1,
            _ => 0,
        }
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

/// One loop context as a row key sees it: resolved once per sealed
/// `loops` segment when its chain lies in the segment, else once per
/// `ctx_id` by [`Pivot::ctx`].
#[derive(Debug)]
pub struct Ctx {
    /// [`LoopContexts::dims`] of the context.
    dims: Vec<Dim>,
    /// [`Ctx::hash`], computed on first use: the pre-cuts resolve every
    /// fetched row's context but write only the rows they keep.
    hash: OnceLock<u64>,
}

impl Ctx {
    fn new(dims: Vec<Dim>) -> Ctx {
        Ctx {
            dims,
            hash: OnceLock::new(),
        }
    }

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

/// Where a value name was first logged in one sealed `logs` segment.
#[derive(Debug)]
struct NameFirsts {
    /// The name's first rid.
    first: usize,
    /// The first rid under each dimension signature.
    signatures: Vec<(Signature, usize)>,
    /// The first rid under each context whose chain was incomplete when
    /// summarised; resolved by every query.
    open: Vec<(i64, usize)>,
}

/// The schema facts of one sealed `logs` segment: the summary the store
/// keeps beside the segment ([`Snapshot::summaries`]). The pivot's
/// columns are in first-seen order, and first-seen order is rid order
/// (the store's read-order contract), so the columns of any projection
/// follow from each name's and each signature's smallest rid, merged
/// across segments.
#[derive(Debug, Default)]
struct SegmentNames {
    names: HashMap<Value, NameFirsts>,
    /// Every signature's chain lies in `loops` rows below this rid; a
    /// [`LoopContexts`] whose [`LoopContexts::trusted_below`] reaches it
    /// resolves them the same way.
    needs: usize,
}

impl SegmentNames {
    /// Summarise a segment's `ctx_id` / `value_name` rows (in rid order)
    /// against `loops`, whose sealed links are trusted below `trusted`.
    fn of(logs: &DataFrame, rids: &[usize], loops: &LoopContexts, trusted: usize) -> SegmentNames {
        let column = |name: &str| logs.column(name).map_or(&[][..], |c| c.values.as_slice());
        let mut out = SegmentNames::default();
        let mut resolved: HashMap<i64, Option<Signature>> = HashMap::new();
        for ((ctx_id, name), &rid) in column("ctx_id").iter().zip(column("value_name")).zip(rids) {
            let id = ctx_id.as_i64().unwrap_or(0);
            let signature = resolved.entry(id).or_insert_with(|| {
                let (signature, last) = loops.signature(id)?;
                match last {
                    Some(last) if last < trusted => out.needs = out.needs.max(last + 1),
                    Some(_) => return None,
                    None => {}
                }
                Some(signature)
            });
            let firsts = match out.names.entry(name.clone()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(NameFirsts {
                    first: rid,
                    signatures: Vec::new(),
                    open: Vec::new(),
                }),
            };
            match signature {
                Some(sig) if !firsts.signatures.iter().any(|(s, _)| s == sig) => {
                    firsts.signatures.push((Arc::clone(sig), rid));
                }
                Some(_) => {}
                None if !firsts.open.iter().any(|&(c, _)| c == id) => firsts.open.push((id, rid)),
                None => {}
            }
        }
        out
    }
}

/// No older key in a [`KeyIndex`] hash chain.
const END: usize = usize::MAX;

/// Distinct row keys numbered in first-seen order, found by hash without
/// an owned key: keys sharing a hash are told apart by the caller, which
/// compares the cells it keeps for each key number.
#[derive(Debug, Clone, Default)]
pub struct KeyIndex {
    /// Key hash → the newest key with that hash.
    heads: HashMap<u64, usize>,
    /// Per key, the next older key sharing its hash, or [`END`].
    next: Vec<usize>,
}

impl KeyIndex {
    /// The number of keys.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Whether there is no key yet.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// The key hashing to `hash` that `same` accepts, else a new key
    /// numbered [`KeyIndex::len`]; and whether it is new.
    pub fn find_or_add(&mut self, hash: u64, same: impl Fn(usize) -> bool) -> (usize, bool) {
        let mut at = self.heads.get(&hash).copied().unwrap_or(END);
        while at != END && !same(at) {
            at = self.next[at];
        }
        if at != END {
            return (at, false);
        }
        let at = self.next.len();
        self.next.push(self.heads.insert(hash, at).unwrap_or(END));
        (at, true)
    }
}

/// The one pivot of `logs ⋈ loops`, long → wide: one row per distinct
/// key — the fixed context columns plus the loop dimensions — in
/// first-seen order, and the columns [`crate::FIXED_COLS`], then loop
/// dimensions, then value names, each in first-seen order.
///
/// Per row there is no long frame and no owned key: the context comes
/// resolved from its sealed segment or is resolved once per `ctx_id`; a
/// row with the same context and fixed cells as the row written before
/// it goes to that row; otherwise the key's hash finds candidate rows
/// ([`KeyIndex`]), whose index cells *are* the keys. The one cell is written by column
/// position. A value name equal to an index column's name is
/// [`DfError::DuplicateColumn`], as it is for [`DataFrame::pivot`].
#[derive(Debug, Clone, Default)]
pub struct Pivot {
    loops: LoopContexts,
    /// Every `ctx_id` resolved here rather than taken from its sealed
    /// segment; emptied when a `loops` row may change one of their
    /// chains.
    ctxs: HashMap<i64, Arc<Ctx>>,
    /// Whether a chain in `ctxs` stopped at a missing link.
    truncated: bool,
    /// Dimension columns, in first-seen order.
    dims: Vec<Arc<str>>,
    /// Value columns, in first-seen order.
    names: Vec<Arc<str>>,
    /// The frame's row keys: key `r` is row `r`.
    keys: KeyIndex,
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
        }
        // The last row discovered may sit under a chain this row
        // lengthens: `discover` resolves no context whose names it knows,
        // so `truncated` need not have seen it.
        self.discovered = None;
        Ok(())
    }

    /// The context of a row logged under `ctx_id`. The first sight of a
    /// context widens the schema by the dimensions it names that are
    /// new, in its chain's order (outermost first).
    pub fn ctx(&mut self, ctx_id: &Value) -> DfResult<Arc<Ctx>> {
        let id = ctx_id.as_i64().unwrap_or(0);
        let ctx = match self.loops.sealed(id).and_then(|c| c.resolved.as_ref()) {
            Some(ctx) => Arc::clone(ctx),
            None => match self.ctxs.entry(id) {
                Entry::Occupied(known) => return Ok(Arc::clone(known.get())),
                Entry::Vacant(slot) => {
                    let (dims, complete) = self.loops.dims(id);
                    self.truncated |= !complete;
                    Arc::clone(slot.insert(Arc::new(Ctx::new(dims))))
                }
            },
        };
        self.widen(ctx.dims.iter().map(|(d, _)| d))?;
        Ok(ctx)
    }

    /// Add the dimension columns among `dims` not yet known, in order.
    fn widen<'d>(&mut self, dims: impl IntoIterator<Item = &'d Arc<str>>) -> DfResult<()> {
        for d in dims {
            if !self.dims.iter().any(|k| Arc::ptr_eq(k, d) || k == d) {
                let frame = with_fixed(&mut self.frame)?;
                frame.insert_column(FIXED.len() + self.dims.len(), nulls(d, frame))?;
                self.dims.push(Arc::clone(d));
            }
        }
        Ok(())
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

    /// The schema pass: widen the schema to the columns of the pivot of
    /// every `logs` row of `snap` named in `names`, without reading those
    /// rows. Each sealed `logs` segment's summary is made once and
    /// shared; the columns are then a merge by first rid — over dimension
    /// signatures and value names, plus the contexts whose chains were
    /// incomplete when a segment was summarised, resolved now. Returns
    /// the rows summarised by this call.
    pub fn discover_all(&mut self, snap: &Snapshot, names: &[String]) -> StoreResult<usize> {
        let trusted = self.loops.trusted_below();
        let loops = &self.loops;
        let (segments, rows) = snap.summaries(
            "logs",
            &["ctx_id", "value_name"],
            |s: &SegmentNames| s.needs <= trusted,
            |logs, rids| SegmentNames::of(logs, rids, loops, trusted),
        )?;
        let keys: Vec<Value> = names.iter().map(|n| Value::from(n.as_str())).collect();
        let mut firsts: Vec<(usize, &Value)> = Vec::new();
        let mut signatures: Vec<(usize, Signature)> = Vec::new();
        for (key, firsts_in) in segments
            .iter()
            .flat_map(|s| keys.iter().filter_map(|k| Some((k, s.names.get(k)?))))
        {
            firsts.push((firsts_in.first, key));
            for (sig, rid) in &firsts_in.signatures {
                signatures.push((*rid, Arc::clone(sig)));
            }
            for &(id, rid) in &firsts_in.open {
                let (dims, _) = loops.dims(id);
                signatures.push((rid, dims.into_iter().map(|(d, _)| d).collect()));
            }
        }
        signatures.sort_by_key(|(rid, _)| *rid);
        firsts.sort_by_key(|(rid, _)| *rid);
        for (_, sig) in &signatures {
            self.widen(sig.iter())?;
        }
        for (_, name) in firsts {
            self.name(name)?;
        }
        Ok(rows)
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
                let hash = key_hash(row.fixed, &ctx);
                let (at, new) = self
                    .keys
                    .find_or_add(hash, |at| key_at(frame, at, row.fixed, &ctx, dims));
                if new {
                    frame.push_row_with(|c| match c {
                        c if c < FIXED.len() => row.fixed[c].clone(),
                        c => dims
                            .get(c - FIXED.len())
                            .map_or(Value::Null, |d| ctx.cell(d).clone()),
                    });
                }
                at
            }
        };
        frame.set_at(at, col, value);
        self.last = Some((ctx, at));
        Ok(at)
    }
}

/// The hash of the row key with fixed cells `fixed` under `ctx`: equal
/// keys hash equal whatever dimensions the pivot has discovered.
pub fn key_hash(fixed: [&Value; 3], ctx: &Ctx) -> u64 {
    let mut h = DefaultHasher::new();
    fixed.hash(&mut h);
    h.write_u64(ctx.hash());
    h.finish()
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
    fn a_loop_row_completing_a_chain_widens_a_views_schema() {
        use flor_store::CmpOp;
        // The pushdown excludes every row, so each is only discovered.
        let pushdown = [Predicate::new("tstamp", CmpOp::Gt, 100)];
        let db = Database::in_memory(flor_schema());
        let sub = db.subscribe();
        let mut view = PivotState::filtered(&["loss"], &pushdown, 0);
        // Context 7 ("inner") under 8 ("outer"); context 5 ("inner")
        // under 9, not known yet.
        for row in [
            loop_row(1, 8, 0, "outer", 0, "0"),
            loop_row(1, 7, 8, "inner", 0, "0"),
            loop_row(1, 5, 9, "inner", 1, "1"),
        ] {
            db.insert("loops", row).unwrap();
        }
        db.insert("logs", log_row(1, 7, "loss", "1", 2)).unwrap();
        db.insert("logs", log_row(1, 5, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        // Context 9 ("top") arrives; another row under 5 names it.
        db.insert("loops", loop_row(2, 9, 0, "top", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(2, 5, "loss", "3", 2)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            view.apply(&batch).unwrap();
        }
        let snap = db.pin();
        let logs = snap.scan("logs").unwrap();
        let loops = LoopContexts::of(&snap).unwrap();
        let built =
            PivotState::from_snapshot_filtered(&["loss"], &pushdown, 2, &logs, loops).unwrap();
        let columns = built.frame().column_names().join(",");
        assert!(columns.contains("top_iteration,top_value"), "{columns}");
        assert_eq!(view.frame().column_names(), built.frame().column_names());
    }

    /// Context 5 ("inner") under 9 ("outer", iteration 3), one row
    /// logged under 5, then a later commit redefining 9 (iteration 4) in
    /// a segment of its own.
    fn redefined_parent() -> Database {
        let db = Database::in_memory(flor_schema());
        db.insert("loops", loop_row(1, 9, 0, "outer", 3, "3"))
            .unwrap();
        db.insert("loops", loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        db.insert("loops", loop_row(2, 9, 0, "outer", 4, "4"))
            .unwrap();
        db.commit().unwrap();
        db
    }

    #[test]
    fn a_later_segment_redefining_a_link_reresolves_the_chains_through_it() {
        let db = redefined_parent();
        let snap = db.pin();
        let mut pivot = Pivot::new(LoopContexts::of(&snap).unwrap());
        let ctx = pivot.ctx(&Value::Int(5)).unwrap();
        assert_eq!(ctx.cell("outer_iteration"), &Value::Int(4));
    }

    #[test]
    fn a_fed_row_redefining_a_sealed_context_reresolves_it() {
        // Context 5 ("inner") under 9 ("outer", iteration 3), sealed.
        let db = Database::in_memory(flor_schema());
        db.insert("loops", loop_row(1, 9, 0, "outer", 3, "3"))
            .unwrap();
        db.insert("loops", loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        let sub = db.subscribe();
        let snap = db.pin();
        let logs = snap.scan("logs").unwrap();
        let loops = LoopContexts::of(&snap).unwrap();
        let mut view = PivotState::from_snapshot_filtered(&["loss"], &[], 1, &logs, loops).unwrap();
        // The feed redefines 9; a later row under 5 sees the new cells.
        db.insert("loops", loop_row(2, 9, 0, "outer", 4, "4"))
            .unwrap();
        db.insert("logs", log_row(2, 5, "loss", "2", 2)).unwrap();
        db.commit().unwrap();
        for batch in sub.poll() {
            view.apply(&batch).unwrap();
        }
        let frame = view.frame();
        assert_eq!(frame.get(0, "outer_iteration"), Some(&Value::Int(3)));
        assert_eq!(frame.get(1, "outer_iteration"), Some(&Value::Int(4)));
    }

    #[test]
    fn an_older_snapshot_does_not_reuse_a_newer_ones_schema_summary() {
        // Row under 5, whose parent 9 ("top") arrives in a later commit.
        let db = Database::in_memory(flor_schema());
        db.insert("loops", loop_row(1, 5, 9, "inner", 0, "0"))
            .unwrap();
        db.insert("logs", log_row(1, 5, "loss", "1", 2)).unwrap();
        db.commit().unwrap();
        let old = db.pin();
        db.insert("loops", loop_row(2, 9, 0, "top", 0, "0"))
            .unwrap();
        db.commit().unwrap();
        let columns = |snap: &Snapshot| {
            let mut pivot = Pivot::new(LoopContexts::of(snap).unwrap());
            let rows = pivot.discover_all(snap, &["loss".to_string()]).unwrap();
            (pivot.frame().column_names().join(","), rows)
        };
        // The newer snapshot summarises the `logs` segment with the
        // whole chain; the older one lacks the link and must not use it.
        let top = "projid,tstamp,filename,top_iteration,top_value,inner_iteration,inner_value,loss";
        assert_eq!(columns(&db.pin()), (top.to_string(), 1));
        let inner = "projid,tstamp,filename,inner_iteration,inner_value,loss";
        assert_eq!(columns(&old), (inner.to_string(), 1));
        assert_eq!(columns(&db.pin()), (top.to_string(), 0));
    }

    #[test]
    fn the_schema_pass_orders_columns_by_rid_not_by_segment() {
        // "b" is first logged after "a", at an older `tstamp`.
        let db = Database::in_memory(flor_schema());
        db.insert("loops", loop_row(9, 7, 0, "x", 0, "0")).unwrap();
        db.insert("loops", loop_row(1, 8, 0, "y", 0, "0")).unwrap();
        db.insert("logs", log_row(9, 7, "a", "1", 2)).unwrap();
        db.insert("logs", log_row(1, 8, "b", "2", 2)).unwrap();
        db.commit().unwrap();
        // A clustered compaction into one-row segments puts "b" first.
        let policy = flor_store::CompactionPolicy {
            target_segment_rows: 1,
            ..Default::default()
        };
        db.compact_with(&policy).unwrap();
        let snap = db.pin();
        let first = snap.scan("logs").unwrap();
        assert_eq!(first.get(0, "value_name"), Some(&Value::from("a")));
        let mut pivot = Pivot::new(LoopContexts::of(&snap).unwrap());
        let names = ["a".to_string(), "b".to_string()];
        pivot.discover_all(&snap, &names).unwrap();
        assert_eq!(
            pivot.frame().column_names(),
            [
                "projid",
                "tstamp",
                "filename",
                "x_iteration",
                "x_value",
                "y_iteration",
                "y_value",
                "a",
                "b"
            ]
        );
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

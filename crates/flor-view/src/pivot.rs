//! The one pivot of `logs ⋈ loops`, and the one function that runs it
//! over a pinned snapshot.
//!
//! [`Pivot`] turns `logs` rows into the wide `flor.dataframe` frame. It
//! joins each row to its loop context, widens the schema when a row
//! names a loop dimension or `value_name` it has not seen, and writes the
//! row's one cell straight into the output column at the row its key
//! names, last write wins. Every answer comes from it. [`pivot_at`] runs
//! one over a snapshot's rows under a plan, for two callers: [`execute_at`]
//! (behind `Flor::execute_at`, so every `flor-serve` request) and the view
//! catalog's cold build, which hands the result to a
//! [`crate::PivotState`] that keeps it up to date with the rows later
//! commits add ([`flor_store::Snapshot::since`]).
//!
//! Nothing reads history whole per query. The loop contexts are a stack
//! ([`LoopContexts`]): one context map per sealed `loops` segment, each
//! context resolved once per segment when its chain lies there, made by
//! the first reader of the segment and shared by `Arc` with every later
//! snapshot and cached view ([`flor_store::Snapshot::summaries`]), plus
//! the tail a maintained view reads in as it catches up. The schema pass
//! ([`Pivot::discover_all`]) is a merge, by smallest rid, of one summary
//! per sealed `logs` segment — each value name's first rid and the first
//! rid of each dimension signature it was logged under — since
//! first-seen order is rid order. Where a summary cannot be exact — a
//! chain incomplete when summarised, a `ctx_id` some `loops` row
//! redefines — the context is resolved at query time instead.
//!
//! When [`QueryPlan::below_pivot`] lowers steps, [`pivot_at`] first fixes
//! the columns of every projected row with the schema pass, then pushes
//! the `projid` / `tstamp` / `filename` predicates into the `logs` fetch
//! and runs the key predicates, the `latest` cut and the top-K cut over
//! the fetched rows joined to their loop contexts ([`LogRows`]), so the
//! pivot writes only the rows they keep and the reduced frame still has
//! the columns the pivot of every row would have. Rows stay in commit
//! order throughout (the store's read-order contract,
//! `flor_store::segment`), which is the order a maintained view reads
//! later commits' rows in: a maintained view and a snapshot pivot
//! discover columns and rows in the same order.
//!
//! The invariant, enforced by `tests/prop_pivot.rs` (the operator against
//! a long-frame `DataFrame::pivot` reference, fed in one batch or many)
//! and `tests/prop_view.rs` (kernel sessions, the view catalog and the
//! snapshot pivot against the same reference): the frame is cell-for-cell
//! the reference's — including column order, row order, and nulls.

use crate::plan::{BelowPivot, QueryPlan, FIXED_COLS as FIXED};
use flor_df::{Column, DataFrame, DataType, DfError, DfResult, Value};
use flor_obs::ActiveTrace;
use flor_store::{Predicate, QueryExplain, Snapshot, StoreResult};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A logged cell as the pivot shows it: the `logs.value` text re-read as
/// its `value_type` tag — `Value::from_text(&value.to_text(), tag)`
/// without the intermediate `String`. A `Str` cell tagged `Str` shares
/// its `Arc`; other tags parse the borrowed text.
fn logged_value(value: &Value, tag: &Value) -> Value {
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
pub(crate) fn text(v: &Value) -> Cow<'_, str> {
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

/// The loop-dimension cells of a row logged under `ctx_id`: two per
/// enclosing loop, outermost loop first. A missing link truncates the
/// chain there (and the flag is `false`: a later `loops` row can
/// lengthen it); a loop nested in a loop of the same name repeats its
/// columns, and readers take the first (outermost) occurrence.
fn dims<'c>(link: impl Fn(i64) -> Option<&'c LoopCtx>, ctx_id: i64) -> (Vec<Dim>, bool) {
    let (mut dims, mut cur): (Vec<Dim>, i64) = (Vec::new(), ctx_id);
    while let Some(c) = (cur != 0).then(|| link(cur)).flatten() {
        dims.push((Arc::clone(&c.cols.1), c.value.clone()));
        dims.push((Arc::clone(&c.cols.0), c.iteration.clone()));
        cur = c.parent;
    }
    dims.reverse();
    (dims, cur == 0)
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
/// newest first, plus a tail of the `loops` rows a maintained view reads
/// in as it catches up ([`Pivot::insert_loops`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct LoopContexts {
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
    pub(crate) fn of(snap: &Snapshot) -> StoreResult<LoopContexts> {
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
    fn insert(&mut self, id: i64, [parent, loop_name, iteration, value]: [&Value; 4]) -> bool {
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

/// A `logs` row as the pivot reads it, borrowed from a fetched frame's
/// columns ([`LogRow::all`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogRow<'a> {
    /// `projid`, `tstamp`, `filename`: the row key's fixed cells, in
    /// [`crate::FIXED_COLS`] order.
    pub(crate) fixed: [&'a Value; 3],
    /// The loop context the row was logged under.
    pub(crate) ctx_id: &'a Value,
    /// The value column the row fills.
    pub(crate) value_name: &'a Value,
    /// The logged text.
    pub(crate) value: &'a Value,
    /// The `value_type` tag [`logged_value`] reads `value` as.
    pub(crate) value_type: &'a Value,
}

impl<'a> LogRow<'a> {
    /// Every row of a fetched `logs` frame, in order; a missing column is
    /// [`DfError::UnknownColumn`].
    pub(crate) fn all(logs: &'a DataFrame) -> DfResult<impl Iterator<Item = LogRow<'a>>> {
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

    /// The row's cell in index column `col` under context `ctx`: a fixed
    /// column's, a dimension's ([`Ctx::cell`]), or null.
    fn cell<'c>(&self, ctx: &'c Ctx, col: &str) -> &'c Value
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
pub(crate) struct Ctx {
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
    /// added later changes it.
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
    pub(crate) fn cell(&self, col: &str) -> &Value {
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
struct KeyIndex {
    /// Key hash → the newest key with that hash.
    heads: HashMap<u64, usize>,
    /// Per key, the next older key sharing its hash, or [`END`].
    next: Vec<usize>,
}

impl KeyIndex {
    /// The number of keys.
    fn len(&self) -> usize {
        self.next.len()
    }

    /// The key hashing to `hash` that `same` accepts, else a new key
    /// numbered [`KeyIndex::len`]; and whether it is new.
    fn find_or_add(&mut self, hash: u64, same: impl Fn(usize) -> bool) -> (usize, bool) {
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
/// ([`KeyIndex`]), whose index cells *are* the keys. The one cell is
/// written by column position. A value name equal to an index column's
/// name is [`DfError::DuplicateColumn`], as it is for
/// [`DataFrame::pivot`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Pivot {
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
    /// The wide frame. Shared out by [`Pivot::frame`]; writes go through
    /// `Arc::make_mut` (a copy only while a reader holds an old frame).
    frame: Arc<DataFrame>,
}

impl Pivot {
    /// An empty pivot over the contexts in `loops`.
    pub(crate) fn new(loops: LoopContexts) -> Pivot {
        Pivot {
            loops,
            ..Pivot::default()
        }
    }

    /// Whether `col` is an index column — one of the three fixed context
    /// columns or a loop dimension the pivot has seen. Index cells are
    /// written once when their row is created and never rewritten; value
    /// cells can be.
    pub(crate) fn is_index(&self, col: &str) -> bool {
        FIXED.contains(&col) || self.dims.iter().any(|d| **d == *col)
    }

    /// The wide frame so far. Cheap (`Arc` clone).
    pub(crate) fn frame(&self) -> Arc<DataFrame> {
        Arc::clone(&self.frame)
    }

    /// The wide frame, without a copy when no reader shares it.
    fn into_frame(self) -> DataFrame {
        Arc::unwrap_or_clone(self.frame)
    }

    /// Add (or replace) the contexts a frame of `loops` rows defines,
    /// in order (columns looked up by name, as [`loop_rows`] reads them).
    pub(crate) fn insert_loops(&mut self, loops: &DataFrame) {
        for (id, link) in loop_rows(loops) {
            let replaced = self.loops.insert(id, link);
            // A resolved chain may run through a replaced context, or
            // stop short of a new one where a link was missing.
            if replaced || self.truncated {
                self.ctxs.clear();
                self.truncated = false;
                self.last = None;
            }
        }
    }

    /// The context of a row logged under `ctx_id`. The first sight of a
    /// context widens the schema by the dimensions it names that are
    /// new, in its chain's order (outermost first).
    pub(crate) fn ctx(&mut self, ctx_id: &Value) -> DfResult<Arc<Ctx>> {
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

    /// The schema pass: widen the schema to the columns of the pivot of
    /// every `logs` row of `snap` named in `names`, without reading those
    /// rows. Each sealed `logs` segment's summary is made once and
    /// shared; the columns are then a merge by first rid — over dimension
    /// signatures and value names, plus the contexts whose chains were
    /// incomplete when a segment was summarised, resolved now. Returns
    /// the rows summarised by this call.
    pub(crate) fn discover_all(&mut self, snap: &Snapshot, names: &[String]) -> StoreResult<usize> {
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
    pub(crate) fn upsert(&mut self, row: LogRow<'_>) -> DfResult<usize> {
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
/// keys hash equal whatever dimensions the pivot has seen.
fn key_hash(fixed: [&Value; 3], ctx: &Ctx) -> u64 {
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

/// Whether `push` runs exactly against the columns `pivot` found:
/// every column a pushed step names exists in the role the lowering
/// assumed. (A value name that collides with an index column never gets
/// here: discovery refuses it.)
fn admits(pivot: &Pivot, push: &BelowPivot, order_by: &[(String, bool)]) -> bool {
    // Key predicates are never on a fixed column: those join the fetch.
    let index = |c: &String| pivot.is_index(c);
    push.key.iter().all(|p| index(&p.col))
        && push.latest.iter().flatten().all(index)
        && (push.top_k.is_none()
            || order_by
                .iter()
                .all(|(c, _)| index(c) || pivot.frame().column(c).is_some()))
}

/// Fetched `logs` rows on their way to the pivot: each kept row and its
/// resolved loop context.
struct LogRows<'a> {
    rows: Vec<(LogRow<'a>, Arc<Ctx>)>,
}

impl<'a> LogRows<'a> {
    /// Join every fetched row to its loop context.
    fn join(rows: impl Iterator<Item = LogRow<'a>>, pivot: &mut Pivot) -> DfResult<LogRows<'a>> {
        let rows = rows.map(|row| Ok((row, pivot.ctx(row.ctx_id)?)));
        Ok(LogRows {
            rows: rows.collect::<DfResult<_>>()?,
        })
    }

    /// Keep the rows `keep` accepts; rows in and out.
    fn retain(&mut self, keep: impl FnMut(&(LogRow<'a>, Arc<Ctx>)) -> bool) -> (usize, usize) {
        let rows_in = self.rows.len();
        self.rows.retain(keep);
        (rows_in, self.rows.len())
    }

    /// Keep the rows whose key satisfies every predicate.
    fn key_predicates(&mut self, preds: &[Predicate]) -> (usize, usize) {
        self.retain(|(row, ctx)| preds.iter().all(|p| p.matches(row.cell(ctx, &p.col))))
    }

    /// Keep the rows whose key carries the maximum `tstamp` of its
    /// `group` — the keys `DataFrame::latest(group, "tstamp")` keeps.
    fn latest_cut(&mut self, group: &[String]) -> (usize, usize) {
        let rows = &self.rows;
        let cells = |r: usize| {
            let (row, ctx) = &rows[r];
            group.iter().map(move |g| row.cell(ctx, g))
        };
        let mut keys = KeyIndex::default();
        // Per group: its first row and maximum `tstamp`.
        let mut groups: Vec<(usize, &'a Value)> = Vec::new();
        let mut group_of = Vec::with_capacity(rows.len());
        for (r, (row, _)) in rows.iter().enumerate() {
            let mut h = DefaultHasher::new();
            cells(r).for_each(|c| c.hash(&mut h));
            let ts = row.fixed[1];
            let (g, new) = keys.find_or_add(h.finish(), |g| cells(groups[g].0).eq(cells(r)));
            if new {
                groups.push((r, ts));
            } else if ts > groups[g].1 {
                groups[g].1 = ts;
            }
            group_of.push(g);
        }
        let mut group_of = group_of.into_iter();
        self.retain(|(row, _)| group_of.next().is_some_and(|g| row.fixed[1] == groups[g].1))
    }

    /// Keep the rows of the `n` keys `sort_by(order_by).head(n)` keeps:
    /// keys compared by their `order_by` cells under `Value`'s order —
    /// index cells from the key, value cells last-write-wins per
    /// (key, name) as the pivot writes them — ties broken by first
    /// appearance, as the stable sort breaks them. Rows are keyed as
    /// [`Pivot::upsert`] keys them: by [`key_hash`], candidates compared
    /// by their cells.
    fn top_k_cut(
        &mut self,
        order_by: &[(String, bool)],
        n: usize,
        pivot: &Pivot,
    ) -> (usize, usize) {
        let rows = &self.rows;
        let dims = &pivot.dims;
        let same_key = |a: usize, b: usize| {
            let ((ra, ca), (rb, cb)) = (&rows[a], &rows[b]);
            ra.fixed == rb.fixed
                && (Arc::ptr_eq(ca, cb) || dims.iter().all(|d| ca.cell(d) == cb.cell(d)))
        };
        let k = order_by.len();
        let mut keys = KeyIndex::default();
        // Per key: its first row, and its `k` sort cells in `sort`.
        let mut firsts: Vec<usize> = Vec::new();
        let mut sort: Vec<Value> = Vec::new();
        let mut slots = Vec::with_capacity(rows.len());
        for (r, (row, ctx)) in rows.iter().enumerate() {
            let hash = key_hash(row.fixed, ctx);
            let (slot, new) = keys.find_or_add(hash, |slot| same_key(firsts[slot], r));
            if new {
                firsts.push(r);
                sort.extend(order_by.iter().map(|(c, _)| row.cell(ctx, c).clone()));
            }
            let name = row.value_name.as_str();
            for (i, (c, _)) in order_by.iter().enumerate() {
                if name == Some(c.as_str()) {
                    sort[slot * k + i] = logged_value(row.value, row.value_type);
                }
            }
            slots.push(slot);
        }
        let cell = |slot: usize, i: usize| &sort[slot * k + i];
        let mut best: Vec<usize> = (0..keys.len()).collect();
        if n < best.len() {
            best.select_nth_unstable_by(n, |&a, &b| {
                order_by
                    .iter()
                    .enumerate()
                    .map(|(i, (_, asc))| {
                        let ord = cell(a, i).cmp(cell(b, i));
                        if *asc {
                            ord
                        } else {
                            ord.reverse()
                        }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(Ordering::Equal)
                    .then(a.cmp(&b))
            });
            best.truncate(n);
        }
        let mut keep = vec![false; keys.len()];
        for slot in best {
            keep[slot] = true;
        }
        let mut slots = slots.into_iter();
        self.retain(|_| slots.next().is_some_and(|slot| keep[slot]))
    }
}

/// The one pivot of a pinned snapshot under `plan`, without the
/// post-pass: the `logs` rows the plan projects, written through one
/// [`Pivot`] over the snapshot's loop contexts ([`LoopContexts::of`]).
/// Every read is of `snap`, so the frame reflects exactly its epoch.
///
/// The plan decides, step by step in [`QueryPlan::post_pass`] order,
/// what runs here ([`QueryPlan::below_pivot`]): predicates on `projid` /
/// `tstamp` / `filename` join the `logs` fetch
/// ([`QueryPlan::logs_fetch`]), so index postings, zone maps and binary
/// search prune before rows materialise; predicates on loop dimensions
/// test each fetched row's index key; `latest` and top-K cut the rows to
/// the keys they would keep. When anything is pushed, the pivot first
/// fixes the columns of every projected row (the schema pass,
/// [`Pivot::discover_all`]), so the reduced frame has the full pivot's
/// columns. A plan with nothing to push — or whose pushed columns the
/// schema pass cannot place ([`admits`]) — takes the same path with an
/// empty push set: every fetched row written. [`PlanExplain::schema`] is
/// `Some` exactly when the push set was not empty.
///
/// `tr` records the child spans `store.scan` and `pivot`, with each
/// step's rows in and out as span events, or nothing when it is inert.
pub(crate) fn pivot_at(
    snap: &Snapshot,
    plan: &QueryPlan,
    tr: &mut ActiveTrace,
) -> StoreResult<(Pivot, PlanExplain)> {
    let scan = tr.begin("store.scan");
    let mut pivot = Pivot::new(LoopContexts::of(snap)?);
    let lowered = plan.below_pivot();
    // With anything to push, the pivot first takes the columns of
    // every projected row from the snapshot's per-segment summaries.
    let schema_rows = if lowered.is_empty() {
        None
    } else {
        Some(pivot.discover_all(snap, &plan.names)?)
    };
    let below = schema_rows
        .filter(|_| admits(&pivot, &lowered, &plan.order_by))
        .map(|rows| (lowered, rows));
    let mut fetch = plan.logs_fetch();
    for p in below.iter().flat_map(|(push, _)| &push.store) {
        fetch = fetch.filter_pred(p.clone());
    }
    let (logs, store) = snap.explain(&fetch)?;
    tr.event(|| {
        format!(
            "access={} segments={}/{} pruned={} rows examined={} returned={}",
            store.access,
            store.segments_scanned,
            store.segments_total,
            store.segments_pruned,
            store.rows_examined,
            store.rows_returned,
        )
    });
    let mut explain = PlanExplain {
        schema: below
            .as_ref()
            .map(|(_, rows)| (*rows, pivot.frame.n_cols())),
        store,
        key_predicates: None,
        latest_cut: None,
        top_k_cut: None,
        pivot: (0, 0),
        post_pass: None,
    };
    if let Some((rows, cols)) = explain.schema {
        tr.event(|| format!("schema pass: {rows} rows summarised, {cols} columns"));
    }
    tr.end(scan);

    let piv = tr.begin("pivot");
    let fetched = LogRow::all(&logs)?;
    let rows_in = match &below {
        Some((push, _)) => {
            let mut rows = LogRows::join(fetched, &mut pivot)?;
            if !push.key.is_empty() {
                explain.key_predicates = Some(rows.key_predicates(&push.key));
            }
            if let Some(group) = &push.latest {
                explain.latest_cut = Some(rows.latest_cut(group));
            }
            if let Some(n) = push.top_k {
                explain.top_k_cut = Some(rows.top_k_cut(&plan.order_by, n, &pivot));
            }
            let rows_in = rows.rows.len();
            for (row, _) in rows.rows {
                pivot.upsert(row)?;
            }
            rows_in
        }
        None => {
            for row in fetched {
                pivot.upsert(row)?;
            }
            logs.n_rows()
        }
    };
    explain.pivot = (rows_in, pivot.frame.n_rows());
    for (step, rows) in explain.steps() {
        tr.event(|| step_line(step, rows));
    }
    tr.end(piv);
    Ok((pivot, explain))
}

/// The snapshot executor: the one pivot of `snap`'s `logs` rows under
/// `plan` — the `logs` fetch, the steps [`QueryPlan::below_pivot`]
/// lowers, the pivot; the same code a view catalog builds its views
/// with — then the plan's **whole** [`QueryPlan::post_pass`], whatever
/// was pushed: each pushed step is a filter it repeats or a cut its
/// later steps would make, so the frame is the post-hoc answer, cell for
/// cell. Every read is of `snap`, so the frame reflects exactly its
/// epoch. `Flor::execute_at` is this call; it is the oracle every
/// incremental answer is checked against and what `flor-serve` answers
/// each session with, at the epoch the session pinned.
///
/// `tr` records the child spans `store.scan`, `pivot`, and `post_pass`
/// when one runs, with each step's rows in and out as span events — or
/// nothing at all when it is inert; the frame is the same either way.
/// The measured [`PlanExplain`] rides along for slow-query capture.
pub fn execute_at(
    snap: &Snapshot,
    plan: &QueryPlan,
    tr: &mut ActiveTrace,
) -> StoreResult<(DataFrame, PlanExplain)> {
    let (pivot, mut explain) = pivot_at(snap, plan, tr)?;
    let base = pivot.into_frame();
    if plan.post_pass_is_identity(&plan.predicates, plan.latest_group.is_some()) {
        return Ok((base, explain));
    }
    let pp = tr.begin("post_pass");
    let out = plan.post_pass(&base, &plan.predicates, true)?;
    let rows = (base.n_rows(), out.n_rows());
    explain.post_pass = Some(rows);
    tr.event(|| step_line("post-pass", rows));
    tr.end(pp);
    Ok((out, explain))
}

/// How one [`execute_at`] ran, step by step: the store's report for the
/// `logs` fetch, then rows into and out of each step that ran (`None`
/// for one that did not). Every count is a measurement of that
/// execution. Renders as the store report followed by one line per step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplain {
    /// The `logs` fetch, with any pushed store predicates joined: access
    /// path, zone-map pruning, rows examined vs returned.
    pub store: QueryExplain,
    /// `logs` rows the schema pass summarised in this execution (0 when
    /// every sealed segment's summary was already made) and the columns
    /// it found — run only when something was pushed below the pivot.
    pub schema: Option<(usize, usize)>,
    /// Rows into and out of the key predicates.
    pub key_predicates: Option<(usize, usize)>,
    /// Rows into and out of the `latest` cut.
    pub latest_cut: Option<(usize, usize)>,
    /// Rows into and out of the top-K cut.
    pub top_k_cut: Option<(usize, usize)>,
    /// Log rows into the pivot, wide rows out of it.
    pub pivot: (usize, usize),
    /// Wide rows into and out of the post-pass.
    pub post_pass: Option<(usize, usize)>,
}

impl PlanExplain {
    /// The steps from the key predicates on that ran, with rows in and
    /// out — the report's tail and the trace's span events.
    fn steps(&self) -> impl Iterator<Item = (&'static str, (usize, usize))> {
        [
            ("key predicates", self.key_predicates),
            ("latest cut", self.latest_cut),
            ("top-K cut", self.top_k_cut),
            ("pivot", Some(self.pivot)),
            ("post-pass", self.post_pass),
        ]
        .into_iter()
        .filter_map(|(step, rows)| Some((step, rows?)))
    }
}

/// One step of a [`PlanExplain`], as rendered and traced.
fn step_line(step: &str, (rows_in, rows_out): (usize, usize)) -> String {
    format!("{step}: {rows_in} rows in, {rows_out} out")
}

impl std::fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.store)?;
        match self.schema {
            Some((rows, cols)) => {
                write!(f, "\n  schema pass: {rows} rows summarised, {cols} columns")?
            }
            None => write!(f, "\n  nothing pushed below the pivot")?,
        }
        for (step, rows) in self.steps() {
            write!(f, "\n  {}", step_line(step, rows))?;
        }
        Ok(())
    }
}

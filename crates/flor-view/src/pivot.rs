//! The one pivot of `logs ⋈ loops`, and the one function that builds it
//! from a pinned snapshot.
//!
//! [`Pivot`] is the wide `flor.dataframe` frame of `logs` rows joined to
//! their loop contexts. It is only ever written from a [`Merge`] of
//! **fragments** — `logs` rows pivoted once per key — by one function,
//! [`Pivot::apply`]: the schema widens first ([`Pivot::discover`]), then
//! a merged key the frame already has gets its cells patched, and the
//! rest are appended as new rows.
//!
//! [`pivot_at`] builds a frame from a snapshot without pivoting a row.
//! Each sealed `logs` segment keeps a fragment ([`Fragment`],
//! the segment's [`Snapshot::summaries`] slot): its rows pivoted once
//! under the snapshot's loop contexts — one entry per row key, and per
//! value name each key's last cell with the first and the last rid that
//! wrote it, plus the name's schema facts. The first read that needs a
//! segment makes its fragment, and every later snapshot that pins the
//! segment shares it by `Arc`; nothing is made at commit. A query merges
//! the fragments of every segment through one [`KeyIndex`]:
//! - a key's row position is the smallest first rid among its
//!   **projected** cells, and a key with no projected cell is no row;
//! - a cell's value is the one with the largest last rid;
//! - the columns are a merge of the fragments' schema facts by smallest
//!   rid ([`Pivot::discover`]), since first-seen order is rid order.
//!
//! The merge goes by rid, never by segment order: a backfill writes
//! cells for old keys into new segments, and a clustered compaction
//! permutes rids across segments. So the frame is what writing the
//! projected rows one by one in commit order, last write wins, would have
//! built.
//!
//! A maintained view ([`crate::delta::PivotState`]) catches up the same way
//! ([`Delta`]): the `logs` rows later commits add
//! ([`flor_store::Snapshot::since`]) become one transient fragment, made
//! by the same [`Fragment::of`] under the new snapshot's loop contexts
//! and with the rids the rows were committed at, and each view merges it
//! and applies it onto the pivot it holds. Every delta row is newer than
//! every row the view holds, so its keys come after the view's rows and
//! its cells win.
//!
//! A [`Pivot`] also keeps, per value column, each row's first rid under
//! that name (`usize::MAX` where the row has no cell, so presence is not
//! the null bitmap: a logged null is a cell) and the name's dimension
//! signatures with their first rids, and per row its key hash; `discover`
//! and `apply` maintain them on every merge, a build's and a catch-up's
//! alike. That makes a pivot over fewer names a function of this one
//! ([`Pivot::select`]): its rows are the rows with a selected name's
//! cell, ordered by their smallest first rid among those names; its
//! dimension columns are the selected names' signatures merged by first
//! rid; and its key index is rebuilt from the kept hashes.
//!
//! The loop contexts are kept the same way ([`LoopContexts`]): one
//! context map per sealed `loops` segment, each context resolved once
//! per segment when its chain lies there. A fragment is reused only by a
//! snapshot whose sealed contexts resolve its keys the same way. A key
//! whose chain had a link missing when the fragment was made — a parent
//! not yet committed or never committed, or any link once contexts are
//! flattened because some `ctx_id` may be defined twice — stays **open**:
//! the fragment keeps it by `ctx_id`, and each query resolves it against
//! its own contexts, so the fragment stays reusable when the link
//! arrives.
//!
//! When [`QueryPlan::below_pivot`] lowers steps, they run over the merged
//! keys before any row is materialised: `projid` / `tstamp` / `filename`
//! predicates test each key's fixed cells (a fragment whose fixed cells
//! none can match adds only its schema facts), key predicates its loop
//! cells, and the `latest` and top-K cuts keep the keys those steps
//! would keep.
//!
//! Those two cuts merge only **candidates**: before the merge, each
//! fragment's per-name summaries ([`CutSummary`], made on first use and
//! shared with the fragment) name the keys that can survive the cut
//! ([`cut_candidates`]). `latest` merges the keys at their group's newest
//! `tstamp` among each fragment's newest key per class (a key without
//! its `tstamp`); top-K on a projected name merges each fragment's `n`
//! best cells of that name plus every tie with the `n`-th, and the keys
//! lacking the name when nulls sort first. A fragment contributes all
//! its keys when it holds open keys, and to top-K every key at a `tstamp`
//! another fragment's range also holds (after a backfill, say); every
//! fragment does when the plan pushes a predicate. The full merge is the
//! case where every key is a candidate: the same [`Merge`], cuts and
//! [`Pivot::apply`] run over the candidates, so the frame is the same.
//!
//! The invariant, enforced by `tests/prop_pivot.rs` (a view caught up
//! over one commit or many against a long-frame `DataFrame::pivot`
//! reference)
//! and `tests/prop_view.rs` (kernel sessions, the view catalog and the
//! snapshot pivot against the same reference): the frame is cell-for-cell
//! the reference's — including column order, row order, and nulls.

use crate::plan::{BelowPivot, QueryPlan, FIXED_COLS as FIXED};
use flor_df::{Column, DataFrame, DataType, DfError, DfResult, Value};
use flor_obs::ActiveTrace;
use flor_store::{Predicate, Snapshot, StoreResult};
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

/// The `loops` table of one snapshot as a `ctx_id` → context map
/// ([`LoopContexts::of`]): what turns a log row's `ctx_id` into its
/// loop-dimension cells.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoopContexts {
    /// Each sealed segment's contexts, oldest first, looked up newest
    /// first. No `ctx_id` is defined twice across them, so a context
    /// resolved within its segment is the snapshot's.
    sealed: Vec<Arc<SegmentContexts>>,
    /// Every context, in place of `sealed`, once some `ctx_id` may be
    /// defined twice and the sealed resolutions cannot be trusted.
    flat: HashMap<i64, LoopCtx>,
}

impl LoopContexts {
    /// The contexts of `snap`'s `loops`: one summary per sealed segment,
    /// made by the first reader of the segment and shared by every later
    /// one, so no query re-reads the table. When some `ctx_id` may be
    /// defined twice — one segment defines it twice, or two segments' id
    /// ranges overlap (the kernel mints each id once, in rising order; raw
    /// `Database` writers need not) — they fold into one map, later rows
    /// winning, as a row-by-row read would.
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

    /// Fold the sealed contexts into one map, the latest row per `ctx_id`
    /// winning.
    fn flatten(&mut self) {
        let mut latest: HashMap<i64, &SealedCtx> = HashMap::new();
        for (&id, c) in self.sealed.iter().flat_map(|s| &s.ctx) {
            let slot = latest.entry(id).or_insert(c);
            if c.rid > slot.rid {
                *slot = c;
            }
        }
        self.flat = latest
            .into_iter()
            .map(|(id, c)| (id, c.link.clone()))
            .collect();
        self.sealed.clear();
    }

    /// The link defining `ctx_id`.
    fn link(&self, ctx_id: i64) -> Option<&LoopCtx> {
        match self.flat.get(&ctx_id) {
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

    /// The largest rid among `ctx_id`'s links, through the sealed links
    /// only (`Some(None)` for a context with none, `ctx_id` 0) — `None`
    /// while a link is missing.
    fn sealed_last_rid(&self, ctx_id: i64) -> Option<Option<usize>> {
        let (mut last_rid, mut cur) = (None, ctx_id);
        while cur != 0 {
            let c = self.sealed(cur)?;
            last_rid = last_rid.max(Some(c.rid));
            cur = c.link.parent;
        }
        Some(last_rid)
    }

    /// The rid below which every sealed link lies, when each `ctx_id` is
    /// defined once; 0 once flattened. A fragment whose chains lie below
    /// it is exact here.
    fn trusted_below(&self) -> usize {
        self.sealed
            .iter()
            .map(|s| s.last_rid)
            .max()
            .map_or(0, |last| last + 1)
    }
}

/// A `logs` row as the pivot reads it, borrowed from a frame's columns
/// ([`LogRow::all`]).
#[derive(Debug, Clone, Copy)]
struct LogRow<'a> {
    /// `projid`, `tstamp`, `filename`: the row key's fixed cells, in
    /// [`crate::FIXED_COLS`] order.
    fixed: [&'a Value; 3],
    /// The loop context the row was logged under.
    ctx_id: &'a Value,
    /// The value column the row fills.
    value_name: &'a Value,
    /// The logged text.
    value: &'a Value,
    /// The `value_type` tag [`logged_value`] reads `value` as.
    value_type: &'a Value,
}

impl<'a> LogRow<'a> {
    /// Every row of a `logs` frame, in order; `None` when a column is
    /// missing (the store hands over every column asked for).
    fn all(logs: &'a DataFrame) -> Option<impl Iterator<Item = LogRow<'a>>> {
        let col = |name: &str| logs.column(name).map(|c| c.values.as_slice());
        let (projid, tstamp, filename) = (col("projid")?, col("tstamp")?, col("filename")?);
        let (ctx_id, value_name) = (col("ctx_id")?, col("value_name")?);
        let (value, value_type) = (col("value")?, col("value_type")?);
        Some((0..logs.n_rows()).map(move |at| LogRow {
            fixed: [&projid[at], &tstamp[at], &filename[at]],
            ctx_id: &ctx_id[at],
            value_name: &value_name[at],
            value: &value[at],
            value_type: &value_type[at],
        }))
    }
}

/// One loop context as a row key sees it: resolved once per sealed
/// `loops` segment when its chain lies in the segment, else once per
/// fragment by [`Fragment::of`] (an open key's once per query, by
/// [`Fragment::reopen`]).
#[derive(Debug)]
struct Ctx {
    /// [`LoopContexts::dims`] of the context.
    dims: Vec<Dim>,
    /// [`Ctx::hash`], computed on first use: one context serves every
    /// key logged under it, in every fragment that shares it.
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
    fn cell(&self, col: &str) -> &Value {
        self.dims
            .iter()
            .find(|(d, _)| **d == *col)
            .map_or(&Value::Null, |(_, v)| v)
    }

    /// Whether `other` has the same cell in every dimension column either
    /// names: whether the two put a key in the same row. Two contexts
    /// that list the same dimensions in the same order with equal cells —
    /// one loop's iterations, the common case — match without a lookup
    /// per column.
    fn same_cells(&self, other: &Ctx) -> bool {
        let same_dims = self.dims.len() == other.dims.len()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|((d, v), (e, w))| (Arc::ptr_eq(d, e) || d == e) && v == w);
        same_dims
            || self
                .dims
                .iter()
                .chain(&other.dims)
                .all(|(d, _)| self.cell(d) == other.cell(d))
    }
}

/// One row key of a [`Fragment`]: its fixed cells, its loop context, and
/// its [`key_hash`], by which the merge and the frame's key index find
/// it.
#[derive(Debug)]
struct FragKey {
    /// `projid`, `tstamp`, `filename`, in [`FIXED`] order.
    fixed: [Value; 3],
    ctx: Arc<Ctx>,
    hash: u64,
}

impl FragKey {
    /// The key's cell in index column `col`: a fixed column's, a
    /// dimension's ([`Ctx::cell`]), or null.
    fn cell(&self, col: &str) -> &Value {
        match FIXED.iter().position(|f| *f == col) {
            Some(i) => &self.fixed[i],
            None => self.ctx.cell(col),
        }
    }

    /// Whether `self` and `other` are one row key.
    fn same(&self, other: &FragKey) -> bool {
        self.hash == other.hash
            && self.fixed == other.fixed
            && (Arc::ptr_eq(&self.ctx, &other.ctx) || self.ctx.same_cells(&other.ctx))
    }
}

/// One key's cell under one value name in a [`Fragment`].
#[derive(Debug)]
struct KeyCell {
    /// The key, a position in [`Fragment::keys`].
    key: usize,
    /// The value the segment's last row of this key and name wrote.
    value: Value,
    /// The first and the last rid that wrote it.
    first: usize,
    last: usize,
}

/// What a [`Fragment`] knows of one value name.
#[derive(Debug)]
struct NameFacts {
    /// The name's first rid: where its column is first seen.
    first: usize,
    /// The first rid under each dimension signature: where the
    /// dimension columns its rows add are first seen.
    signatures: Vec<(Signature, usize)>,
    /// The first rid under each `ctx_id` of an open key
    /// ([`Fragment::open`]), whose signature each query reads.
    open: Vec<(i64, usize)>,
    /// Per key that logged the name: its cell, in first-rid order.
    cells: Vec<KeyCell>,
    /// The cells summarised for the `latest` and top-K cuts, made by the
    /// first query that needs them ([`NameFacts::cut`]).
    cut: OnceLock<CutSummary>,
}

impl NameFacts {
    /// The name's [`CutSummary`] over the fragment's `keys`, made on
    /// first use.
    fn cut(&self, keys: &[FragKey]) -> &CutSummary {
        self.cut.get_or_init(|| CutSummary::of(&self.cells, keys))
    }
}

/// One name's cells of a fragment as the pushed cuts read them
/// ([`cut_candidates`]). Neither depends on a plan, so every query
/// shares them with the fragment.
#[derive(Debug)]
struct CutSummary {
    /// Every cell, as a position in [`NameFacts::cells`], ordered by
    /// value under `Value`'s order (ties in first-rid order).
    sorted: Vec<usize>,
    /// One cell per **class** — a key without its `tstamp`: its
    /// `projid`, `filename` and loop cells — the cell of the class's key
    /// with the largest `tstamp`. One class and `tstamp` are one key.
    classes: Vec<usize>,
}

impl CutSummary {
    fn of(cells: &[KeyCell], keys: &[FragKey]) -> CutSummary {
        let mut sorted: Vec<usize> = (0..cells.len()).collect();
        sorted.sort_by(|&a, &b| cells[a].value.cmp(&cells[b].value));
        let key = |c: usize| &keys[cells[c].key];
        let mut index = KeyIndex::default();
        let mut classes: Vec<usize> = Vec::new();
        // The hasher after the last key's `projid` and `filename`: a
        // fragment's keys mostly share both, so they are hashed once per
        // run of keys that does, not once per cell.
        let mut prefix: Option<(&[Value; 3], DefaultHasher)> = None;
        for c in 0..cells.len() {
            let k = key(c);
            let mut h = match &prefix {
                Some((fixed, h)) if fixed[0] == k.fixed[0] && fixed[2] == k.fixed[2] => h.clone(),
                _ => {
                    let mut h = DefaultHasher::new();
                    [&k.fixed[0], &k.fixed[2]].hash(&mut h);
                    prefix = Some((&k.fixed, h.clone()));
                    h
                }
            };
            h.write_u64(k.ctx.hash());
            let (at, new) = index.find_or_add(h.finish(), |at| {
                let other = key(classes[at]);
                other.fixed[0] == k.fixed[0]
                    && other.fixed[2] == k.fixed[2]
                    && (Arc::ptr_eq(&other.ctx, &k.ctx) || other.ctx.same_cells(&k.ctx))
            });
            if new {
                classes.push(c);
            } else if k.fixed[1] > key(classes[at]).fixed[1] {
                classes[at] = c;
            }
        }
        CutSummary { sorted, classes }
    }
}

/// One sealed `logs` segment pivoted once: the summary the store keeps
/// beside the segment ([`Snapshot::summaries`]), made by the first
/// [`pivot_at`] that needs it and merged by every later one.
#[derive(Debug, Default)]
struct Fragment {
    /// The segment's row keys, in first-rid order.
    keys: Vec<FragKey>,
    /// The open keys, as positions in `keys` (ascending) with their
    /// `ctx_id`: keys whose chain had a link missing from the sealed
    /// contexts when the fragment was made — a parent not yet committed
    /// or never committed, or any link once the contexts were flattened.
    /// They are told apart by `ctx_id`, and each query resolves them
    /// against its own contexts ([`Fragment::reopen`]).
    open: Vec<(usize, i64)>,
    /// Per value name logged here, by its text (a `Str`): the column it
    /// fills.
    names: HashMap<Value, NameFacts>,
    /// Every chain of a key that is not open lies in `loops` rows below
    /// this rid; a [`LoopContexts`] whose
    /// [`LoopContexts::trusted_below`] reaches it resolves them the same
    /// way.
    needs: usize,
    /// The smallest and the largest `tstamp` among the keys: a fragment
    /// whose range overlaps no other fragment's shares no key with one.
    tstamps: Option<(Value, Value)>,
}

impl Fragment {
    /// Pivot `logs` rows (every `logs` column, in rid order, with their
    /// `rids`) under `loops`, whose sealed links are trusted below
    /// `trusted`.
    fn of(logs: &DataFrame, rids: &[usize], loops: &LoopContexts, trusted: usize) -> Fragment {
        let mut out = Fragment::default();
        let Some(rows) = LogRow::all(logs) else {
            return out;
        };
        let mut ctxs: HashMap<i64, (Arc<Ctx>, Option<Signature>)> = HashMap::new();
        let mut index = KeyIndex::default();
        // Each name's facts, found by the name's text: its column's name.
        let mut slots: HashMap<Cow<'_, str>, usize> = HashMap::new();
        let mut names: Vec<(Value, NameFacts)> = Vec::new();
        // (key, name slot) → the cell's position in the name's `cells`.
        let mut cells: HashMap<(usize, usize), usize> = HashMap::new();
        let mut last: Option<usize> = None;
        for (row, &rid) in rows.zip(rids) {
            let id = row.ctx_id.as_i64().unwrap_or(0);
            let (ctx, signature) = match ctxs.entry(id) {
                Entry::Occupied(known) => known.into_mut(),
                Entry::Vacant(slot) => slot.insert(out.resolve(loops, id, trusted)),
            };
            let same_as_last = last.filter(|&k| {
                let key = &out.keys[k];
                Arc::ptr_eq(&key.ctx, ctx) && key.fixed.iter().eq(row.fixed)
            });
            let key = match same_as_last {
                Some(k) => k,
                None => {
                    let hash = key_hash(row.fixed, ctx);
                    let (keys, open) = (&out.keys, &out.open);
                    let is_open = |k: usize| open.binary_search_by_key(&k, |&(k, _)| k).is_ok();
                    let (k, new) = index.find_or_add(hash, |k| {
                        keys[k].fixed.iter().eq(row.fixed)
                            && match signature {
                                Some(_) => !is_open(k) && keys[k].ctx.same_cells(ctx),
                                // One `Arc` per open `ctx_id`.
                                None => Arc::ptr_eq(&keys[k].ctx, ctx),
                            }
                    });
                    if new {
                        if signature.is_none() {
                            out.open.push((out.keys.len(), id));
                        }
                        let ts = row.fixed[1];
                        let (lo, hi) = out.tstamps.get_or_insert_with(|| (ts.clone(), ts.clone()));
                        if *ts < *lo {
                            *lo = ts.clone();
                        } else if *ts > *hi {
                            *hi = ts.clone();
                        }
                        out.keys.push(FragKey {
                            fixed: row.fixed.map(Value::clone),
                            ctx: Arc::clone(ctx),
                            hash,
                        });
                    }
                    k
                }
            };
            last = Some(key);
            let name = text(row.value_name);
            let slot = match slots.get(&name) {
                Some(&slot) => slot,
                None => {
                    let facts = NameFacts {
                        first: rid,
                        signatures: Vec::new(),
                        open: Vec::new(),
                        cells: Vec::new(),
                        cut: OnceLock::new(),
                    };
                    names.push((Value::from(name.as_ref()), facts));
                    slots.insert(name, names.len() - 1);
                    names.len() - 1
                }
            };
            let facts = &mut names[slot].1;
            match signature {
                Some(sig) if !facts.signatures.iter().any(|(s, _)| s == sig) => {
                    facts.signatures.push((Arc::clone(sig), rid));
                }
                None if !facts.open.iter().any(|&(c, _)| c == id) => facts.open.push((id, rid)),
                _ => {}
            }
            let value = logged_value(row.value, row.value_type);
            match cells.entry((key, slot)) {
                Entry::Occupied(at) => {
                    let cell = &mut facts.cells[*at.get()];
                    (cell.value, cell.last) = (value, rid);
                }
                Entry::Vacant(at) => {
                    at.insert(facts.cells.len());
                    facts.cells.push(KeyCell {
                        key,
                        value,
                        first: rid,
                        last: rid,
                    });
                }
            }
        }
        out.names = names.into_iter().collect();
        out
    }

    /// The context of `ctx_id` and its signature — none for a key that
    /// stays open — noting what the resolution depends on.
    fn resolve(
        &mut self,
        loops: &LoopContexts,
        id: i64,
        trusted: usize,
    ) -> (Arc<Ctx>, Option<Signature>) {
        let ctx = match loops.sealed(id).and_then(|c| c.resolved.as_ref()) {
            Some(ctx) => Arc::clone(ctx),
            None => Arc::new(Ctx::new(loops.dims(id).0)),
        };
        match loops.sealed_last_rid(id) {
            Some(Some(last)) if last < trusted => self.needs = self.needs.max(last + 1),
            Some(None) => {}
            _ => return (ctx, None),
        }
        let signature = ctx.dims.iter().map(|(d, _)| Arc::clone(d)).collect();
        (ctx, Some(signature))
    }

    /// The open keys resolved against `loops`, in [`Fragment::open`]
    /// order.
    fn reopen(&self, loops: &LoopContexts) -> Vec<FragKey> {
        let mut ctxs: HashMap<i64, Arc<Ctx>> = HashMap::new();
        let mut reopened = Vec::with_capacity(self.open.len());
        for &(k, id) in &self.open {
            let ctx = ctxs
                .entry(id)
                .or_insert_with(|| Arc::new(Ctx::new(loops.dims(id).0)));
            let fixed = self.keys[k].fixed.clone();
            reopened.push(FragKey {
                hash: key_hash(fixed.each_ref(), ctx),
                fixed,
                ctx: Arc::clone(ctx),
            });
        }
        reopened
    }

    /// Key `k` as this query sees it: an open key from `reopened`.
    fn key<'a>(&'a self, k: usize, reopened: &'a [FragKey]) -> &'a FragKey {
        match self.open.binary_search_by_key(&k, |&(k, _)| k) {
            Ok(at) => &reopened[at],
            Err(_) => &self.keys[k],
        }
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
    /// The key hashing to `hash` that `same` accepts, else a new key
    /// numbered as the next; and whether it is new.
    fn find_or_add(&mut self, hash: u64, same: impl Fn(usize) -> bool) -> (usize, bool) {
        let mut at = self.heads.get(&hash).copied().unwrap_or(END);
        while at != END && !same(at) {
            at = self.next[at];
        }
        if at != END {
            return (at, false);
        }
        (self.push(hash), true)
    }

    /// Number a new key hashing to `hash` as the next.
    fn push(&mut self, hash: u64) -> usize {
        let at = self.next.len();
        self.next.push(self.heads.insert(hash, at).unwrap_or(END));
        at
    }
}

/// The one pivot of `logs ⋈ loops`, long → wide: one row per distinct
/// key — the fixed context columns plus the loop dimensions — and the
/// columns [`crate::FIXED_COLS`], then loop dimensions, then value names,
/// each in first-seen order.
///
/// It is written only from merged fragments: [`Pivot::discover`] widens
/// the schema from their facts, then [`Pivot::apply`] writes the merged
/// keys. There is no owned key per row: the key index ([`KeyIndex`])
/// holds each row's key hash, and the frame's own index cells *are* the
/// keys its candidates are compared against. A value name equal to an
/// index column's name is [`flor_df::DfError::DuplicateColumn`], as it is for
/// [`DataFrame::pivot`].
///
/// Beside the frame it keeps what [`Pivot::select`] needs to project it
/// onto fewer names exactly: per value column its schema facts and each
/// row's first rid ([`ValueColumn`]), and each row's key hash.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pivot {
    /// Dimension columns, in first-seen order.
    dims: Vec<Arc<str>>,
    /// Value columns, in first-seen order.
    names: Vec<ValueColumn>,
    /// The frame's row keys: key `r` is row `r`.
    keys: KeyIndex,
    /// Per row, its key's hash: what a selection re-indexes its rows by.
    hashes: Vec<u64>,
    /// The wide frame. Shared out by [`Pivot::frame`]; writes go through
    /// `Arc::make_mut` (a copy only while a reader holds an old frame).
    frame: Arc<DataFrame>,
}

/// One value column of a [`Pivot`] and what the pivot keeps of its name
/// beyond the cells.
#[derive(Debug, Clone)]
struct ValueColumn {
    name: Arc<str>,
    /// Each dimension signature the name's rows were logged under, with
    /// its first rid — an open key's as [`Pivot::discover`] resolved it:
    /// the name's share of the dimension columns and their order.
    signatures: Vec<(Signature, usize)>,
    /// Per row, the first rid of its cell under this name, or
    /// `usize::MAX` when it has none. Presence, not the cell: a logged
    /// null is a cell.
    firsts: Vec<usize>,
}

impl Pivot {
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

    /// Catch up over `delta`: merge its fragment's cells of the projected
    /// `names` and apply them. Returns the positions of rows changed or
    /// added, ascending.
    pub(crate) fn catch_up(&mut self, delta: &Delta, names: &[Value]) -> DfResult<Vec<usize>> {
        self.discover(&delta.loops, [&delta.fragment], names)?;
        let mut merge = Merge::new(names);
        merge.add(&delta.fragment, &delta.reopened, &[], None);
        self.apply(&merge, &merge.rows())
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

    /// Value column `name`, added unless it is known.
    fn name(&mut self, name: &Value) -> DfResult<usize> {
        let name = text(name);
        if let Some(c) = self.names.iter().position(|n| *n.name == *name) {
            return Ok(c);
        }
        let frame = with_fixed(&mut self.frame)?;
        frame.add_column(nulls(&name, frame))?;
        self.names.push(ValueColumn {
            name: name.into(),
            signatures: Vec::new(),
            firsts: vec![usize::MAX; frame.n_rows()],
        });
        Ok(self.names.len() - 1)
    }

    /// The schema pass: widen the schema to the columns of the pivot of
    /// every row of `fragments` named in `names`, resolving open keys
    /// under `loops`, without reading a row. The columns are a merge by
    /// first rid over the fragments' schema facts: dimension signatures
    /// first, then value names. Each value column keeps its name's
    /// signatures with their first rids.
    fn discover<'f>(
        &mut self,
        loops: &LoopContexts,
        fragments: impl IntoIterator<Item = &'f Fragment>,
        names: &[Value],
    ) -> DfResult<()> {
        let mut firsts: Vec<(usize, usize)> = Vec::new();
        // (first rid, signature, projected name).
        let mut signatures: Vec<(usize, Signature, usize)> = Vec::new();
        for (n, facts) in fragments.into_iter().flat_map(|f| {
            let named = names.iter().enumerate();
            named.filter_map(|(n, name)| Some((n, f.names.get(name)?)))
        }) {
            firsts.push((facts.first, n));
            signatures.extend(
                facts
                    .signatures
                    .iter()
                    .map(|(sig, rid)| (*rid, Arc::clone(sig), n)),
            );
            for &(id, rid) in &facts.open {
                let dims = loops.dims(id).0;
                signatures.push((rid, dims.into_iter().map(|(d, _)| d).collect(), n));
            }
        }
        signatures.sort_by_key(|(rid, _, _)| *rid);
        firsts.sort_by_key(|(rid, _)| *rid);
        for (_, sig, _) in &signatures {
            self.widen(sig.iter())?;
        }
        let mut columns = vec![0; names.len()];
        for (_, n) in firsts {
            columns[n] = self.name(&names[n])?;
        }
        for (rid, sig, n) in signatures {
            let known = &mut self.names[columns[n]].signatures;
            match known.iter_mut().find(|(s, _)| *s == sig) {
                Some((_, first)) => *first = (*first).min(rid),
                None => known.push((sig, rid)),
            }
        }
        Ok(())
    }

    /// The pivot of `names`, each among this pivot's projected names,
    /// selected from this one rather than merged from history: what
    /// merging every row this pivot has merged, projected onto `names`,
    /// would have built.
    /// - Its rows are the rows with a cell of a selected name, ordered by
    ///   the smallest first rid among those cells — sorted only when that
    ///   is not already this pivot's order (a backfilled cell of an old
    ///   key moves the key).
    /// - Its dimension columns come from the selected names' signatures
    ///   alone, merged by first rid as [`Pivot::discover`] merges them.
    ///   Its value columns keep this pivot's first-seen order.
    /// - Its key index is this one's when every row stays where it was,
    ///   else rebuilt from the rows' kept hashes.
    ///
    /// The frame is written fresh, sharing no `Arc` with this one, so
    /// neither pivot's next write copies the other's frame.
    pub(crate) fn select(&self, names: &[Value]) -> DfResult<Pivot> {
        let values: Vec<(usize, &ValueColumn)> = self
            .names
            .iter()
            .enumerate()
            .filter(|(_, v)| names.iter().any(|n| text(n) == *v.name))
            .collect();
        let mut rows: Vec<(usize, usize)> = (0..self.hashes.len())
            .filter_map(|r| {
                let first = values.iter().map(|(_, v)| v.firsts[r]).min()?;
                (first != usize::MAX).then_some((first, r))
            })
            .collect();
        let in_order = rows.is_sorted_by_key(|(first, _)| *first);
        if !in_order {
            rows.sort_unstable_by_key(|(first, _)| *first);
        }
        let kept: Vec<usize> = rows.into_iter().map(|(_, r)| r).collect();
        let mut signatures: Vec<(usize, &Signature)> = values
            .iter()
            .flat_map(|(_, v)| v.signatures.iter().map(|(sig, rid)| (*rid, sig)))
            .collect();
        signatures.sort_by_key(|(rid, _)| *rid);
        let mut dims: Vec<Arc<str>> = Vec::new();
        for d in signatures.into_iter().flat_map(|(_, sig)| sig.iter()) {
            if !dims.contains(d) {
                dims.push(Arc::clone(d));
            }
        }
        let source = self.frame.columns();
        let take = |c: usize| Column {
            name: source[c].name.clone(),
            values: kept.iter().map(|&r| source[c].values[r].clone()).collect(),
        };
        let frame = if values.is_empty() {
            DataFrame::default()
        } else {
            let mut columns: Vec<Column> = (0..FIXED.len()).map(take).collect();
            for d in &dims {
                let at = self.dims.iter().position(|k| k == d);
                let at = at.ok_or_else(|| DfError::UnknownColumn(d.to_string()))?;
                columns.push(take(FIXED.len() + at));
            }
            let values_at = FIXED.len() + self.dims.len();
            columns.extend(values.iter().map(|&(c, _)| take(values_at + c)));
            DataFrame::from_columns(columns)?
        };
        let hashes: Vec<u64> = kept.iter().map(|&r| self.hashes[r]).collect();
        let keys = if in_order && kept.len() == self.hashes.len() {
            self.keys.clone()
        } else {
            let mut keys = KeyIndex::default();
            for &hash in &hashes {
                keys.push(hash);
            }
            keys
        };
        let names = values
            .into_iter()
            .map(|(_, v)| ValueColumn {
                name: Arc::clone(&v.name),
                signatures: v.signatures.clone(),
                firsts: kept.iter().map(|&r| v.firsts[r]).collect(),
            })
            .collect();
        Ok(Pivot {
            dims,
            names,
            keys,
            hashes,
            frame: Arc::new(frame),
        })
    }

    /// Write the merged keys `rows`, in order, into the discovered
    /// columns — the one writer of pivot rows. A key the frame already
    /// has (its hash in the key index, its index cells in the frame) gets
    /// its merged cells patched in; the others are appended, in order, as
    /// new rows. Returns the positions of rows changed or added,
    /// ascending.
    fn apply(&mut self, merge: &Merge<'_>, rows: &[usize]) -> DfResult<Vec<usize>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let dims = &self.dims;
        let values_at = FIXED.len() + dims.len();
        // Each value column's projected name.
        let slots: Vec<Option<usize>> = self
            .names
            .iter()
            .map(|n| merge.names.iter().position(|m| text(m) == *n.name))
            .collect();
        let old_rows = self.frame.n_rows();
        let frame = Arc::make_mut(&mut self.frame);
        let mut changed = Vec::with_capacity(rows.len());
        let mut new = Vec::new();
        for &m in rows {
            let key = merge.keys[m].0;
            let (at, is_new) = self
                .keys
                .find_or_add(key.hash, |at| at < old_rows && key_at(frame, at, key, dims));
            if is_new {
                new.push(m);
                self.hashes.push(key.hash);
            } else {
                for (c, &slot) in slots.iter().enumerate() {
                    let Some(n) = slot else { continue };
                    if let Some(cell) = merge.cell(m, n) {
                        frame.set_at(at, values_at + c, cell.value.clone());
                        let first = &mut self.names[c].firsts[at];
                        *first = (*first).min(merge.first(m, n));
                    }
                }
            }
            changed.push(at);
        }
        for (column, slot) in self.names.iter_mut().zip(&slots) {
            let first = |m: usize| slot.map_or(usize::MAX, |n| merge.first(m, n));
            column.firsts.extend(new.iter().map(|&m| first(m)));
        }
        // The new rows, column by column.
        let key = |m: usize| merge.keys[m].0;
        let columns: Vec<Vec<Value>> = (0..frame.n_cols())
            .map(|c| match c {
                c if c < FIXED.len() => new.iter().map(|&m| key(m).fixed[c].clone()).collect(),
                c if c < values_at => {
                    let d = &dims[c - FIXED.len()];
                    new.iter().map(|&m| key(m).ctx.cell(d).clone()).collect()
                }
                c => {
                    let slot = slots[c - values_at];
                    new.iter()
                        .map(|&m| {
                            slot.and_then(|n| merge.cell(m, n))
                                .map_or(Value::Null, |cell| cell.value.clone())
                        })
                        .collect()
                }
            })
            .collect();
        // A fresh frame takes the columns whole; one with rows gets them
        // row by row (`DataFrame` extends a column only through a row).
        if old_rows == 0 {
            let named = frame
                .columns()
                .iter()
                .zip(columns)
                .map(|(column, values)| Column {
                    name: column.name.clone(),
                    values,
                });
            *frame = DataFrame::from_columns(named.collect())?;
        } else {
            let mut columns: Vec<_> = columns.into_iter().map(Vec::into_iter).collect();
            for _ in &new {
                frame.push_row_with(|c| columns[c].next().unwrap_or(Value::Null));
            }
        }
        changed.sort_unstable();
        Ok(changed)
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

/// Whether row `at`'s index cells are `key`'s: its fixed cells, and its
/// context's cells in the dimension columns `dims`.
fn key_at(frame: &DataFrame, at: usize, key: &FragKey, dims: &[Arc<str>]) -> bool {
    let columns = frame.columns();
    columns
        .iter()
        .zip(&key.fixed)
        .all(|(c, v)| c.values[at] == *v)
        && columns[FIXED.len()..]
            .iter()
            .zip(dims)
            .all(|(c, d)| c.values[at] == *key.ctx.cell(d))
}

/// Whether `push` runs exactly against the columns `pivot` found:
/// every column a pushed step names exists in the role the lowering
/// assumed. (A value name that collides with an index column never gets
/// here: discovery refuses it.)
fn admits(pivot: &Pivot, push: &BelowPivot, order_by: &[(String, bool)]) -> bool {
    // Key predicates are never on a fixed column: those are store ones.
    let index = |c: &String| pivot.is_index(c);
    push.key.iter().all(|p| index(&p.col))
        && push.latest.iter().flatten().all(index)
        && (push.top_k.is_none()
            || order_by
                .iter()
                .all(|(c, _)| index(c) || pivot.frame().column(c).is_some()))
}

/// The fragments of one query merged by rid: every key with a projected
/// cell once, and per projected name its winning cell.
struct Merge<'f> {
    /// The projected names, each once.
    names: &'f [Value],
    index: KeyIndex,
    /// Per merged key: a fragment key naming it, and the smallest first
    /// rid among its projected cells — its row position.
    keys: Vec<(&'f FragKey, usize)>,
    /// Per merged key, per projected name: the cell with the largest last
    /// rid.
    cells: Vec<Option<&'f KeyCell>>,
    /// Per merged key, per projected name: the smallest first rid among
    /// its cells, or `usize::MAX`.
    firsts: Vec<usize>,
}

impl<'f> Merge<'f> {
    fn new(names: &'f [Value]) -> Merge<'f> {
        Merge {
            names,
            index: KeyIndex::default(),
            keys: Vec::new(),
            cells: Vec::new(),
            firsts: Vec::new(),
        }
    }

    /// Merge `frag`'s projected cells whose keys (its open ones as
    /// `reopened`) are among `only` (every key when `None`) and pass
    /// every predicate of `store`; the keys in and out of those
    /// predicates.
    fn add(
        &mut self,
        frag: &'f Fragment,
        reopened: &'f [FragKey],
        store: &[Predicate],
        only: Option<&[usize]>,
    ) -> (usize, usize) {
        let (mut keys_in, mut keys_out) = (0, 0);
        // Per fragment key once met: its merged key, or `None` when a
        // store predicate dropped it or `only` leaves it out.
        let mut merged: Vec<Option<Option<usize>>> = match only {
            None => vec![None; frag.keys.len()],
            Some([]) => return (0, 0),
            Some(keys) => {
                let mut merged = vec![Some(None); frag.keys.len()];
                for &k in keys {
                    merged[k] = None;
                }
                merged
            }
        };
        for (n, name) in self.names.iter().enumerate() {
            for cell in frag.names.get(name).map_or(&[][..], |f| &f.cells) {
                let met = *merged[cell.key].get_or_insert_with(|| {
                    let key = frag.key(cell.key, reopened);
                    keys_in += 1;
                    store.iter().all(|p| p.matches(key.cell(&p.col))).then(|| {
                        keys_out += 1;
                        self.key(key)
                    })
                });
                let Some(m) = met else {
                    continue;
                };
                let at = m * self.names.len() + n;
                let first = &mut self.keys[m].1;
                *first = (*first).min(cell.first);
                let first = &mut self.firsts[at];
                *first = (*first).min(cell.first);
                let slot = &mut self.cells[at];
                if slot.is_none_or(|won| cell.last > won.last) {
                    *slot = Some(cell);
                }
            }
        }
        (keys_in, keys_out)
    }

    /// The merged key `key` names, added on first sight.
    fn key(&mut self, key: &'f FragKey) -> usize {
        let keys = &self.keys;
        let (m, new) = self.index.find_or_add(key.hash, |m| keys[m].0.same(key));
        if new {
            self.keys.push((key, usize::MAX));
            self.cells.extend(self.names.iter().map(|_| None));
            self.firsts.extend(self.names.iter().map(|_| usize::MAX));
        }
        m
    }

    /// Key `m`'s winning cell under projected name `n`.
    fn cell(&self, m: usize, n: usize) -> Option<&'f KeyCell> {
        self.cells[m * self.names.len() + n]
    }

    /// Key `m`'s first rid under projected name `n`, or `usize::MAX`.
    fn first(&self, m: usize, n: usize) -> usize {
        self.firsts[m * self.names.len() + n]
    }

    /// Every merged key, in row order.
    fn rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..self.keys.len()).collect();
        rows.sort_unstable_by_key(|&m| self.keys[m].1);
        rows
    }

    /// The projected cells of the merged keys `rows`.
    fn cells_of(&self, rows: &[usize]) -> usize {
        let n = self.names.len();
        rows.iter()
            .map(|&m| self.cells[m * n..(m + 1) * n].iter().flatten().count())
            .sum()
    }
}

/// The `logs` rows commits added past a rid, pivoted once for every view
/// that catches up over them ([`Pivot::catch_up`]): one transient
/// [`Fragment`] made by [`Fragment::of`] under the loop contexts of the
/// snapshot they were read from, with its open keys resolved there.
pub(crate) struct Delta {
    loops: LoopContexts,
    fragment: Fragment,
    reopened: Vec<FragKey>,
    /// The `logs` rows it holds.
    pub(crate) rows: usize,
    /// The rid past its last row: where the next catch-up reads from.
    pub(crate) next: usize,
}

impl Delta {
    /// The rows of `snap`'s `logs` at or past `rid`
    /// ([`Snapshot::since`]), under `snap`'s loop contexts
    /// ([`LoopContexts::of`]).
    pub(crate) fn since(snap: &Snapshot, rid: usize) -> StoreResult<Delta> {
        let (logs, next) = snap.since("logs", rid)?;
        let loops = LoopContexts::of(snap)?;
        // No `logs` row is ever dropped, so the rows past `rid` are the
        // ones up to `next`, in rid order.
        let rids: Vec<usize> = (next - logs.n_rows()..next).collect();
        let fragment = Fragment::of(&logs, &rids, &loops, loops.trusted_below());
        let reopened = fragment.reopen(&loops);
        Ok(Delta {
            loops,
            fragment,
            reopened,
            rows: logs.n_rows(),
            next,
        })
    }
}

/// Keep the `rows` `keep` accepts; rows in and out.
fn retain(rows: &mut Vec<usize>, keep: impl FnMut(&usize) -> bool) -> (usize, usize) {
    let rows_in = rows.len();
    rows.retain(keep);
    (rows_in, rows.len())
}

/// Keep the keys among `rows` that carry the maximum `tstamp` of their
/// `group` — the keys `DataFrame::latest(group, "tstamp")` keeps.
fn latest_cut(merge: &Merge<'_>, rows: &mut Vec<usize>, group: &[String]) -> (usize, usize) {
    let keys: Vec<&FragKey> = rows.iter().map(|&m| merge.keys[m].0).collect();
    let mut keep = newest_in_group(&keys, group).into_iter();
    retain(rows, |_| keep.next().unwrap_or(false))
}

/// Whether each of `keys` carries the maximum `tstamp` among the keys
/// with its cells in the `group` columns.
fn newest_in_group(keys: &[&FragKey], group: &[String]) -> Vec<bool> {
    let cells = |k: usize| group.iter().map(move |g| keys[k].cell(g));
    let mut index = KeyIndex::default();
    // Per group: its first key and maximum `tstamp`.
    let mut groups: Vec<(usize, &Value)> = Vec::new();
    let mut group_of = Vec::with_capacity(keys.len());
    for (k, key) in keys.iter().enumerate() {
        let mut h = DefaultHasher::new();
        cells(k).for_each(|c| c.hash(&mut h));
        let ts = &key.fixed[1];
        let (g, new) = index.find_or_add(h.finish(), |g| cells(groups[g].0).eq(cells(k)));
        if new {
            groups.push((k, ts));
        } else if ts > groups[g].1 {
            groups[g].1 = ts;
        }
        group_of.push(g);
    }
    keys.iter()
        .zip(group_of)
        .map(|(key, g)| key.fixed[1] == *groups[g].1)
        .collect()
}

/// Keep the `n` keys among `rows` that `sort_by(order_by).head(n)` keeps:
/// keys compared by their `order_by` cells under `Value`'s order — an
/// index cell, or the winning cell of a projected name (null when the key
/// has none) — ties broken by row order, as the stable sort breaks them.
fn top_k_cut(
    merge: &Merge<'_>,
    rows: &mut Vec<usize>,
    order_by: &[(String, bool)],
    n: usize,
) -> (usize, usize) {
    let k = order_by.len();
    let mut sort: Vec<&Value> = Vec::with_capacity(rows.len() * k);
    for &m in rows.iter() {
        for (c, _) in order_by {
            sort.push(
                match merge.names.iter().position(|n| n.as_str() == Some(c)) {
                    Some(n) => merge.cell(m, n).map_or(&Value::Null, |cell| &cell.value),
                    None => merge.keys[m].0.cell(c),
                },
            );
        }
    }
    let mut best: Vec<usize> = (0..rows.len()).collect();
    if n < best.len() {
        best.select_nth_unstable_by(n, |&a, &b| {
            order_by
                .iter()
                .enumerate()
                .map(|(i, (_, asc))| {
                    let ord = sort[a * k + i].cmp(sort[b * k + i]);
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
    let mut keep = vec![false; rows.len()];
    for at in best {
        keep[at] = true;
    }
    let mut keep = keep.into_iter();
    retain(rows, |_| keep.next().unwrap_or(false))
}

/// The keys of each fragment that a pushed `latest` or top-K cut can
/// keep, picked from the fragments' [`CutSummary`]s before the merge:
/// `None` for a fragment that contributes all its keys — one holding
/// open keys, whose classes no summary knows — and `None` overall when
/// no summary applies: the plan pushes a predicate, or neither cut
/// below.
/// - `latest`, no group column being `tstamp`: the keys at their group's
///   newest `tstamp` among the fragments' class cells. A row at that
///   `tstamp` is its class's newest in every fragment holding one of its
///   cells, so each such fragment names it and all its cells merge.
/// - top-K whose first sort column is a projected name: [`top_keys`] of
///   each fragment.
///
/// The same cuts then run over the merged candidates, so the frame is
/// the one the merge of every key gives.
fn cut_candidates(
    fragments: &[Arc<Fragment>],
    names: &[Value],
    push: &BelowPivot,
    order_by: &[(String, bool)],
) -> Option<Vec<Option<Vec<usize>>>> {
    if !push.store.is_empty() || !push.key.is_empty() {
        return None;
    }
    let mut out: Vec<Option<Vec<usize>>> = fragments
        .iter()
        .map(|f| f.open.is_empty().then(Vec::new))
        .collect();
    if let Some(group) = &push.latest {
        if group.iter().any(|g| g == "tstamp") {
            return None;
        }
        // Each summarised fragment's newest key per class and name.
        let (mut found, mut keys): (Vec<(usize, usize)>, Vec<&FragKey>) = (Vec::new(), Vec::new());
        for (f, frag) in fragments
            .iter()
            .enumerate()
            .filter(|(f, _)| out[*f].is_some())
        {
            for facts in names.iter().filter_map(|n| frag.names.get(n)) {
                for &c in &facts.cut(&frag.keys).classes {
                    let k = facts.cells[c].key;
                    found.push((f, k));
                    keys.push(&frag.keys[k]);
                }
            }
        }
        let newest = newest_in_group(&keys, group);
        for ((f, k), _) in found.into_iter().zip(newest).filter(|(_, newest)| *newest) {
            out[f].iter_mut().for_each(|keys| keys.push(k));
        }
    } else {
        let n = push.top_k?;
        let (first, asc) = order_by.first()?;
        let x = names.iter().position(|n| n.as_str() == Some(first))?;
        let shared = shared_tstamps(fragments);
        for (frag, keys) in fragments.iter().zip(&mut out) {
            if let Some(keys) = keys {
                *keys = top_keys(frag, names, x, *asc, n, &shared);
            }
        }
    }
    for keys in out.iter_mut().flatten() {
        keys.sort_unstable();
        keys.dedup();
    }
    Some(out)
}

/// The `tstamp`s that two or more fragments' ranges hold, as disjoint
/// closed intervals in ascending order: only a key at one of them can
/// have cells in two fragments (after a backfill, say, or where one
/// run's keys straddle a segment boundary).
fn shared_tstamps(fragments: &[Arc<Fragment>]) -> Vec<(&Value, &Value)> {
    let ranges = fragments.iter().filter_map(|f| f.tstamps.as_ref());
    let mut starts: Vec<&Value> = ranges.clone().map(|(lo, _)| lo).collect();
    let mut ends: Vec<&Value> = ranges.map(|(_, hi)| hi).collect();
    starts.sort_unstable();
    ends.sort_unstable();
    // Sweep the ranges' ends in order, a start before an equal end (the
    // ranges are closed), tracking how many ranges hold the point.
    let (mut out, mut from) = (Vec::new(), None);
    let (mut s, mut depth) = (0, 0);
    for end in ends {
        while s < starts.len() && starts[s] <= end {
            depth += 1;
            if depth == 2 {
                from = Some(starts[s]);
            }
            s += 1;
        }
        if depth == 2 {
            out.extend(from.take().map(|from| (from, end)));
        }
        depth -= 1;
    }
    out
}

/// Whether `t` lies in one of the ascending disjoint closed `intervals`.
fn within(intervals: &[(&Value, &Value)], t: &Value) -> bool {
    let at = intervals.partition_point(|(_, hi)| *hi < t);
    intervals.get(at).is_some_and(|(lo, _)| *lo <= t)
}

/// The keys of a fragment that can be among the `n` best rows by
/// projected name `names[x]`, ascending or not. A key at a `shared`
/// `tstamp` may have cells in another fragment, so it is always kept.
/// Of the others, whose cells are all here, the `n` best are kept plus
/// every tie with the `n`-th, where a key that holds another projected
/// name but not this one ranks as null (`Value`'s least, so first when
/// ascending). Any other key has `n` better rows.
fn top_keys(
    frag: &Fragment,
    names: &[Value],
    x: usize,
    asc: bool,
    n: usize,
    shared: &[(&Value, &Value)],
) -> Vec<usize> {
    let shared: &[(&Value, &Value)] = match &frag.tstamps {
        Some((lo, hi)) => {
            let from = shared.partition_point(|(_, end)| *end < lo);
            let to = shared.partition_point(|(start, _)| *start <= hi);
            &shared[from..to.max(from)]
        }
        None => &[],
    };
    let mut own = vec![true; frag.keys.len()];
    let mut out = Vec::new();
    if !shared.is_empty() {
        for (k, key) in frag.keys.iter().enumerate() {
            if within(shared, &key.fixed[1]) {
                own[k] = false;
                out.push(k);
            }
        }
    }
    let facts = frag.names.get(&names[x]);
    let cells: &[KeyCell] = facts.map_or(&[], |f| &f.cells);
    let mut lacking = Vec::new();
    if names.len() > 1 {
        let mut seen = own.iter().map(|own| !own).collect::<Vec<_>>();
        for cell in cells {
            seen[cell.key] = true;
        }
        for cell in names
            .iter()
            .filter_map(|n| frag.names.get(n))
            .flat_map(|f| &f.cells)
        {
            if !std::mem::replace(&mut seen[cell.key], true) {
                lacking.push(cell.key);
            }
        }
    }
    let nulls = lacking.into_iter().map(|k| (&Value::Null, k));
    let sorted: &[usize] = facts.map_or(&[], |f| &f.cut(&frag.keys).sorted);
    let ranked = sorted
        .iter()
        .map(|&c| (&cells[c].value, cells[c].key))
        .filter(|&(_, k)| own[k]);
    out.extend(if asc {
        best(nulls.chain(ranked), n)
    } else {
        best(ranked.rev().chain(nulls), n)
    });
    out
}

/// The keys of the first `n` of `ranked` and of every later one whose
/// value ties with the `n`-th's.
fn best<'v>(ranked: impl Iterator<Item = (&'v Value, usize)>, n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut nth = None;
    for (value, key) in ranked {
        if out.len() >= n && nth != Some(value) {
            break;
        }
        if out.len() + 1 == n {
            nth = Some(value);
        }
        out.push(key);
    }
    out
}

/// The projected `names`, each once, in order.
pub(crate) fn projected(names: &[String]) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::with_capacity(names.len());
    for name in names {
        let name = Value::from(name.as_str());
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// The one pivot of a pinned snapshot under `plan`, without the
/// post-pass: the fragments of every sealed `logs` segment ([`Fragment`],
/// made here for a segment whose slot is empty or whose fragment this
/// snapshot cannot reuse) merged over the snapshot's loop contexts
/// ([`LoopContexts::of`]) and applied onto an empty [`Pivot`], which a
/// maintained view goes on catching up ([`Pivot::catch_up`]). Every read
/// is of `snap`, so the frame reflects exactly its epoch. No `logs` row
/// is fetched.
///
/// The plan decides, step by step in [`QueryPlan::post_pass`] order,
/// what runs here ([`QueryPlan::below_pivot`]), all of it over keys:
/// predicates on `projid` / `tstamp` / `filename` test each key's fixed
/// cells as its fragment is merged, and skip a fragment whose fixed
/// cells none can match ([`Snapshot::zone_admits`]); predicates on loop
/// dimensions test each merged key's loop cells; `latest` and top-K cut
/// the merged keys to the ones they would keep. The columns are always
/// those of every projected row ([`Pivot::discover`]), so a reduced
/// frame has the full pivot's. A plan whose pushed columns the schema
/// pass cannot place ([`admits`]) pushes nothing.
///
/// With no predicate pushed, a `latest` cut (no group column `tstamp`)
/// or a top-K cut whose first sort column is a projected name merges
/// only the candidate keys the fragments' summaries name
/// ([`cut_candidates`]): for `latest`, the keys at their group's newest
/// `tstamp` among each fragment's newest key per class and name; for
/// top-K, each fragment's `n` best cells plus ties with the `n`-th (and
/// the keys lacking the name, when nulls sort first). A fragment holding
/// open keys contributes all of them, and so, to top-K, does every key at
/// a `tstamp` two fragments' ranges share; a pushed predicate makes
/// every key a candidate.
///
/// `tr` records the child spans `store.scan` (contexts and fragments)
/// and `pivot` (the merge and the frame), with each step's counts as
/// span events, or nothing when it is inert.
pub(crate) fn pivot_at(
    snap: &Snapshot,
    plan: &QueryPlan,
    tr: &mut ActiveTrace,
) -> StoreResult<(Pivot, PlanExplain)> {
    let scan = tr.begin("store.scan");
    let loops = LoopContexts::of(snap)?;
    let trusted = loops.trusted_below();
    let made = std::cell::Cell::new(0);
    let cols = [
        "projid",
        "tstamp",
        "filename",
        "ctx_id",
        "value_name",
        "value",
        "value_type",
    ];
    let (fragments, rows) = snap.summaries(
        "logs",
        &cols,
        |f: &Fragment| f.needs <= trusted,
        |logs, rids| {
            made.set(made.get() + 1);
            Fragment::of(logs, rids, &loops, trusted)
        },
    )?;
    let mut explain = PlanExplain {
        segments: (0, fragments.len()),
        fragments: (made.get(), rows),
        store_predicates: None,
        cut_summaries: None,
        merge: (0, 0),
        key_predicates: None,
        latest_cut: None,
        top_k_cut: None,
        pivot: (0, 0),
        post_pass: None,
    };
    tr.event(|| {
        let (made, rows) = explain.fragments;
        format!(
            "logs: {} segments, {made} fragments made ({rows} rows summarised)",
            explain.segments.1
        )
    });
    tr.end(scan);

    let piv = tr.begin("pivot");
    let names = projected(&plan.names);
    let mut pivot = Pivot::default();
    pivot.discover(&loops, fragments.iter().map(|f| &**f), &names)?;
    let lowered = plan.below_pivot();
    let push = if admits(&pivot, &lowered, &plan.order_by) {
        lowered
    } else {
        BelowPivot::default()
    };
    let reopened: Vec<Vec<FragKey>> = fragments.iter().map(|f| f.reopen(&loops)).collect();
    let candidates = cut_candidates(&fragments, &names, &push, &plan.order_by);
    if let Some(candidates) = &candidates {
        let kept = candidates.iter().flatten();
        explain.cut_summaries = Some((kept.clone().count(), kept.map(Vec::len).sum()));
    }
    let mut merge = Merge::new(&names);
    let mut store = (0, 0);
    let admitted = snap.zone_admits("logs", &push.store)?;
    for (f, (frag, reopened)) in fragments
        .iter()
        .zip(&reopened)
        .enumerate()
        .filter(|(f, _)| admitted[*f])
    {
        let only = candidates.as_ref().and_then(|c| c[f].as_deref());
        let (keys_in, keys_out) = merge.add(frag, reopened, &push.store, only);
        explain.segments.0 += 1;
        (store.0, store.1) = (store.0 + keys_in, store.1 + keys_out);
    }
    if !push.store.is_empty() {
        explain.store_predicates = Some(store);
    }
    explain.merge = (store.1, merge.keys.len());
    let mut rows = merge.rows();
    if !push.key.is_empty() {
        let keep = |&m: &usize| {
            push.key
                .iter()
                .all(|p| p.matches(merge.keys[m].0.cell(&p.col)))
        };
        explain.key_predicates = Some(retain(&mut rows, keep));
    }
    if let Some(group) = &push.latest {
        explain.latest_cut = Some(latest_cut(&merge, &mut rows, group));
    }
    if let Some(n) = push.top_k {
        explain.top_k_cut = Some(top_k_cut(&merge, &mut rows, &plan.order_by, n));
    }
    pivot.apply(&merge, &rows)?;
    explain.pivot = (merge.cells_of(&rows), rows.len());
    for step in explain.steps() {
        tr.event(|| step_line(step));
    }
    tr.end(piv);
    Ok((pivot, explain))
}

/// The snapshot executor: the one pivot of `snap`'s `logs` rows under
/// `plan` — the fragments merged, the steps [`QueryPlan::below_pivot`]
/// lowers run over their keys; the same code a view catalog builds its
/// views with — then the plan's **whole** [`QueryPlan::post_pass`],
/// whatever was pushed: each pushed step is a filter it repeats or a cut
/// its later steps would make, so the frame is the post-hoc answer, cell
/// for cell. Every read is of `snap`, so the frame reflects exactly its
/// epoch. `Flor::execute_at` is this call; it is the oracle every
/// incremental answer is checked against and what `flor-serve` answers
/// each session with, at the epoch the session pinned.
///
/// `tr` records the child spans `store.scan`, `pivot`, and `post_pass`
/// when one runs, with each step's counts as span events — or nothing at
/// all when it is inert; the frame is the same either way. The measured
/// [`PlanExplain`] rides along for slow-query capture.
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
    tr.event(|| step_line(("post-pass", "rows in", "rows out", rows)));
    tr.end(pp);
    Ok((out, explain))
}

/// How one [`execute_at`] ran, step by step: the `logs` fragments it
/// merged and made, then keys into and out of each step over keys, cells
/// into the pivot and rows out, rows into and out of the post-pass
/// (`None` for a step that did not run). Every count is a measurement of
/// that execution. Renders as the fragment line followed by one line per
/// step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplain {
    /// `logs` segments whose fragments were merged, of all sealed `logs`
    /// segments: a fragment whose fixed cells no store predicate can
    /// match adds only its columns.
    pub segments: (usize, usize),
    /// Fragments this execution made, and the `logs` rows they
    /// summarised: `(0, 0)` when every segment's fragment was already
    /// made and this snapshot could reuse it.
    pub fragments: (usize, usize),
    /// Keys into and out of the `projid` / `tstamp` / `filename`
    /// predicates: each merged fragment's keys with a projected cell.
    pub store_predicates: Option<(usize, usize)>,
    /// Fragments whose keys a pushed `latest` or top-K cut picked from
    /// their per-name summaries before the merge, and the keys it kept
    /// of them; `None` when every fragment's keys were merged.
    pub cut_summaries: Option<(usize, usize)>,
    /// Fragment keys into the merge, distinct keys out.
    pub merge: (usize, usize),
    /// Keys into and out of the key predicates.
    pub key_predicates: Option<(usize, usize)>,
    /// Keys into and out of the `latest` cut.
    pub latest_cut: Option<(usize, usize)>,
    /// Keys into and out of the top-K cut.
    pub top_k_cut: Option<(usize, usize)>,
    /// Cells written into the frame, and its rows.
    pub pivot: (usize, usize),
    /// Wide rows into and out of the post-pass.
    pub post_pass: Option<(usize, usize)>,
}

impl PlanExplain {
    /// The steps that ran, with what goes in and out of each — the
    /// report's tail and the trace's span events.
    fn steps(&self) -> impl Iterator<Item = Step> {
        let keys = |step, rows: Option<(usize, usize)>| Some((step, "keys in", "keys out", rows?));
        [
            keys("store predicates", self.store_predicates),
            self.cut_summaries
                .map(|kept| ("cut summaries", "fragments", "keys kept", kept)),
            keys("merge", Some(self.merge)),
            keys("key predicates", self.key_predicates),
            keys("latest cut", self.latest_cut),
            keys("top-K cut", self.top_k_cut),
            Some(("pivot", "cells in", "rows out", self.pivot)),
            self.post_pass
                .map(|rows| ("post-pass", "rows in", "rows out", rows)),
        ]
        .into_iter()
        .flatten()
    }
}

/// One step of a [`PlanExplain`]: its name, the two things it counts,
/// and how many of each.
type Step = (&'static str, &'static str, &'static str, (usize, usize));

/// One step of a [`PlanExplain`], as rendered and traced.
fn step_line((step, first, second, (n_first, n_second)): Step) -> String {
    format!("{step}: {n_first} {first}, {n_second} {second}")
}

impl std::fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ((merged, total), (made, rows)) = (self.segments, self.fragments);
        write!(
            f,
            "logs: {merged}/{total} segments merged, {made} fragments made ({rows} rows summarised)"
        )?;
        for step in self.steps() {
            write!(f, "\n  {}", step_line(step))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `logs` frame of `(tstamp, value_name, value)` rows, all in
    /// project `p`, file `f.fl`, outside any loop, logged as text.
    fn logs(rows: &[(i64, &str, &str)]) -> DataFrame {
        let rows = rows
            .iter()
            .map(|&(ts, name, value)| {
                let row: [Value; 7] = [
                    "p".into(),
                    ts.into(),
                    "f.fl".into(),
                    0.into(),
                    name.into(),
                    value.into(),
                    DataType::Str.tag().into(),
                ];
                row.to_vec()
            })
            .collect();
        let cols = vec![
            "projid",
            "tstamp",
            "filename",
            "ctx_id",
            "value_name",
            "value",
            "value_type",
        ];
        DataFrame::from_rows(cols, rows).unwrap()
    }

    #[test]
    fn contexts_match_on_their_cells_not_their_layout() {
        // Keys are compared by `same_cells` only after their hashes
        // match, so test it directly: a hash collision must not merge
        // two rows.
        let (epoch, step): (Arc<str>, Arc<str>) = ("epoch".into(), "step".into());
        let ctx = |dims: &[(&Arc<str>, i64)]| {
            Ctx::new(
                dims.iter()
                    .map(|(d, v)| (Arc::clone(d), (*v).into()))
                    .collect(),
            )
        };
        let a = ctx(&[(&epoch, 1), (&step, 2)]);
        // Same layout: equal cells match, a differing cell does not.
        assert!(a.same_cells(&ctx(&[(&epoch, 1), (&step, 2)])));
        assert!(!a.same_cells(&ctx(&[(&epoch, 1), (&step, 3)])));
        // The same names from other allocations, or in another order.
        let other: Arc<str> = "epoch".into();
        assert!(a.same_cells(&ctx(&[(&other, 1), (&step, 2)])));
        assert!(a.same_cells(&ctx(&[(&step, 2), (&epoch, 1)])));
        assert!(!a.same_cells(&ctx(&[(&step, 2), (&epoch, 9)])));
        // A column only one side names is null on the other.
        assert!(!a.same_cells(&ctx(&[(&epoch, 1)])));
        // A repeated name's column is its outermost cell.
        let nested = ctx(&[(&epoch, 1), (&epoch, 5)]);
        assert!(nested.same_cells(&ctx(&[(&epoch, 1), (&epoch, 6)])));
        assert!(!nested.same_cells(&ctx(&[(&epoch, 2), (&epoch, 5)])));
    }

    #[test]
    fn fragments_merge_by_rid_not_by_segment_order() {
        // Segment order is not rid order here, as after a clustered
        // compaction: the segment merged first holds the later rids.
        // Key 1 logs `loss` at rids 3 and 5; key 2 logs `acc` at rid 1,
        // before any key's `loss`, then `loss` at rid 4; key 3 logs only
        // `acc`.
        let loops = LoopContexts::default();
        let later = Fragment::of(
            &logs(&[(2, "loss", "y"), (1, "loss", "x2")]),
            &[4, 5],
            &loops,
            0,
        );
        let earlier = Fragment::of(
            &logs(&[(2, "acc", "a"), (3, "acc", "z"), (1, "loss", "x1")]),
            &[1, 2, 3],
            &loops,
            0,
        );
        let names = [Value::from("loss")];
        let mut merge = Merge::new(&names);
        merge.add(&later, &[], &[], None);
        merge.add(&earlier, &[], &[], None);
        let rows = merge.rows();
        let cells: Vec<(&Value, &Value)> = rows
            .iter()
            .map(|&m| (&merge.keys[m].0.fixed[1], &merge.cell(m, 0).unwrap().value))
            .collect();
        // Rows by the smallest rid of a projected cell; the later rid's
        // value wins; the key with no `loss` is no row.
        let want = [
            (Value::Int(1), Value::from("x2")),
            (Value::Int(2), Value::from("y")),
        ];
        assert_eq!(cells, want.iter().map(|(t, v)| (t, v)).collect::<Vec<_>>());
    }
}

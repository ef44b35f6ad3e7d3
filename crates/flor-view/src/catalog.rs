//! The view catalog: one maintained pivot per projection, caught up
//! from the snapshot, bounded by an LRU; a view that rejects a row is
//! dropped.
//!
//! Every dataframe read, embedded or served, enters through
//! [`ViewCatalog::answer`], which routes it once: a plan that lowers
//! nothing below the pivot but a `latest` ([`QueryPlan::below_pivot`]) is
//! read from its projection's view when the catalog has not passed the
//! snapshot's epoch; every other plan, and any plan of a snapshot behind
//! the catalog, runs on the snapshot executor ([`execute_at`]), which
//! pushes its index predicates and cuts. The [`Answer`] says which
//! ([`How`]).
//!
//! A view is keyed by the projected names alone (in request order) and
//! holds every projected row. A view-read plan's value predicates,
//! ordering and limit run over it as a post-pass
//! ([`QueryPlan::post_pass`]), so plans that differ only there share one
//! view. A plan with a `latest` group and no predicate is served from a
//! per-group max-`tstamp` upsert kept on its projection's view; with a
//! predicate, the dedup runs in the post-pass after the filter.
//!
//! Every view read is of the caller's snapshot, at or past the catalog's
//! epoch, since views only move forward. Every cached view reflects one
//! earlier snapshot, whose epoch and `logs` rid watermark the catalog
//! keeps once. When the epochs differ, the `logs` rows committed since
//! are read once from the snapshot being read
//! ([`flor_store::Snapshot::since`]) and pivoted once, under that
//! snapshot's loop contexts, into one fragment ([`Delta`]) that *all*
//! cached views merge and apply; the watermark advances, and a miss is
//! made at the same snapshot. Every snapshot of one epoch holds the same
//! `logs` rows at the same rids, so a catch-up to a session's older pin
//! leaves the views where a fresh pin at that epoch would have. The loop
//! contexts come from the snapshot itself (per sealed `loops` segment,
//! shared with every query), so no `loops` row is read here. This is
//! exact because `logs` and `loops` declare no latest-wins policy, so no
//! row is ever dropped, and a row's rid is its commit position on every
//! handle, a follower's rebootstrap included. If a value name collides
//! with an index column ([`DfError::DuplicateColumn`], the only row a
//! view rejects) the view is dropped instead of serving wrong data, and
//! counted in [`CatalogStats::fallback_rebuilds`]. A rebuild at the same
//! snapshot would meet the same collision, so none is tried: the next
//! plan that needs the view builds it and gets the build's error.
//!
//! A miss is answered from the views already caught up when it can be.
//! If some cached view's names include every requested name, the one
//! with the fewest names gives the new view by **selection**
//! ([`PivotState::select`]): the rows holding a requested name's cell, in
//! the order of their first such rid, the requested value columns, and
//! the dimension columns of those names' signatures — no fragment of
//! history is merged. Only a miss no cached view covers is built by the
//! snapshot pivot ([`PivotState::at`]). Which path runs depends only on
//! which names are cached. Either way the new view is cached and caught
//! up like any other; a selection counts as a miss and in
//! [`CatalogStats::selections`].

use crate::delta::{LatestState, PivotState};
use crate::pivot::{execute_at, Delta, PlanExplain};
use crate::plan::QueryPlan;
use flor_df::{DataFrame, DfError, DfResult};
use flor_obs::{ActiveTrace, Counter, Histogram, MetricsRegistry, Span};
use flor_store::{Database, Snapshot, StoreError, StoreResult};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Pre-bound handles into the database's metrics registry (shared with
/// the store and the jobs runner, so the kernel snapshots all three at
/// once). `view.build_nanos` vs `view.refresh_nanos` is the paper's
/// incremental-maintenance claim in histogram form: refreshes should
/// stay orders of magnitude cheaper than builds.
struct ViewMetrics {
    registry: MetricsRegistry,
    /// `view.build_nanos` — full builds from a snapshot (a miss no
    /// cached view covers).
    build_nanos: Arc<Histogram>,
    /// `view.select_nanos` — misses selected from a cached view that
    /// covers their names.
    select_nanos: Arc<Histogram>,
    /// `view.refresh_nanos` — one catch-up of the cached views: pin,
    /// read, pivot and apply (only recorded when commits had landed).
    refresh_nanos: Arc<Histogram>,
    /// `view.hits` — requests served from a cached view.
    hits: Arc<Counter>,
    /// `view.misses` — requests that made a new view, built or selected.
    misses: Arc<Counter>,
    /// `view.selections` — misses selected from a covering view.
    selections: Arc<Counter>,
    /// `view.rebuilds` — views dropped after rejecting a row.
    rebuilds: Arc<Counter>,
}

impl ViewMetrics {
    fn new(registry: MetricsRegistry) -> ViewMetrics {
        ViewMetrics {
            build_nanos: registry.histogram("view.build_nanos"),
            select_nanos: registry.histogram("view.select_nanos"),
            refresh_nanos: registry.histogram("view.refresh_nanos"),
            hits: registry.counter("view.hits"),
            misses: registry.counter("view.misses"),
            selections: registry.counter("view.selections"),
            rebuilds: registry.counter("view.rebuilds"),
            registry,
        }
    }
}

/// Counters describing catalog behaviour; cheap to snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Requests served from a cached view (possibly after catching up).
    pub hits: u64,
    /// Requests that made a new view: built from a snapshot, or
    /// selected from a cached one.
    pub misses: u64,
    /// Misses selected from a cached view whose names cover theirs,
    /// without merging history.
    pub selections: u64,
    /// Views dropped because a row could not be applied (a value name
    /// colliding with an index column). The next read of such a view
    /// builds it, and gets the same error.
    pub fallback_rebuilds: u64,
    /// Views evicted by the LRU bound.
    pub evictions: u64,
    /// Commits the cached views caught up over.
    pub batches_applied: u64,
    /// `logs` rows read, and pivoted once, to catch the cached views up.
    pub deltas_applied: u64,
}

/// The snapshot every cached view reflects: its epoch, and the next
/// `logs` rid — where the rows it has not seen start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Watermark {
    epoch: u64,
    logs: usize,
}

/// One `latest` group served from a view.
struct Latest {
    /// The per-key upsert state; `None` when a group column is a value
    /// column, whose cells an upsert can rewrite — that group is
    /// recomputed from the frame instead. A column's class is fixed from
    /// the moment it exists, so this is decided once.
    state: Option<LatestState>,
    /// The deduplicated frame, dropped whenever the pivot moves.
    frame: Option<Arc<DataFrame>>,
}

struct CachedView {
    pivot: PivotState,
    /// The `latest` groups read from this view, by group columns.
    latest: HashMap<Vec<String>, Latest>,
    last_used: u64,
}

impl CachedView {
    /// A new view of `pivot`, with no `latest` group read yet.
    fn new(pivot: PivotState) -> CachedView {
        CachedView {
            pivot,
            latest: HashMap::new(),
            last_used: 0,
        }
    }

    /// Apply the rows past the catalog's watermark (see
    /// [`PivotState::apply`]), moving every `latest` group with them.
    fn apply(&mut self, delta: &Delta) -> DfResult<()> {
        let changed = self.pivot.apply(delta)?;
        if !changed.is_empty() {
            let frame = self.pivot.frame();
            for latest in self.latest.values_mut() {
                latest.frame = None;
                if let Some(state) = &mut latest.state {
                    state.observe(&frame, &changed);
                }
            }
        }
        Ok(())
    }

    /// The `latest`-per-`group` dedup of the view, cached until the
    /// pivot moves. It matches the from-scratch path exactly: an empty
    /// view skips the dedup and keeps its columns, and an unknown group
    /// column errors.
    fn latest(&mut self, group: &[String]) -> StoreResult<Arc<DataFrame>> {
        let frame = self.pivot.frame();
        if let Some(cached) = self.latest.get(group).and_then(|l| l.frame.clone()) {
            return Ok(cached);
        }
        if frame.n_rows() == 0 {
            return Ok(frame);
        }
        if let Some(missing) = group.iter().find(|g| frame.column(g).is_none()) {
            return Err(StoreError::Df(DfError::UnknownColumn(missing.clone())));
        }
        let pivot = &self.pivot;
        let latest = self.latest.entry(group.to_vec()).or_insert_with(|| {
            // Index cells (fixed or loop dimension) are written once per
            // row, so the per-key upsert stays sound for them.
            let stable = group.iter().all(|g| pivot.is_index_col(g));
            let state = stable.then(|| {
                let mut state = LatestState::new(group);
                state.observe(&frame, &(0..frame.n_rows()).collect::<Vec<_>>());
                state
            });
            Latest { state, frame: None }
        });
        let out = match &latest.state {
            Some(state) => Arc::new(frame.take(&state.surviving_rows())),
            None => {
                let gs: Vec<&str> = group.iter().map(String::as_str).collect();
                Arc::new(frame.latest(&gs, "tstamp").map_err(StoreError::Df)?)
            }
        };
        latest.frame = Some(Arc::clone(&out));
        Ok(out)
    }
}

/// How [`ViewCatalog::answer`] answered a plan: from a maintained view
/// (how the view was reached), or by the snapshot executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum How {
    /// The projection's view was cached, already at the snapshot's epoch.
    Hit,
    /// The projection's view was built at the snapshot.
    Built,
    /// The projection's view was selected from a cached view whose names
    /// cover its own, caught up to the snapshot.
    Selected {
        /// The names of the view it was selected from, as that view's
        /// projection was asked for.
        from: Vec<String>,
    },
    /// The cached views caught up over this many `logs` rows to the
    /// snapshot's epoch.
    CaughtUp {
        /// The `logs` rows read and pivoted once for every cached view.
        rows: usize,
        /// Cached views that rejected one of those rows and were dropped
        /// (see [`CatalogStats::fallback_rebuilds`]).
        fallbacks: usize,
    },
    /// The snapshot executor ([`execute_at`]) ran the plan: it lowers a
    /// step below the pivot other than a `latest`, or the catalog already
    /// reflects a later epoch than the snapshot.
    Executed {
        /// The executor's measured report.
        explain: PlanExplain,
        /// Whether the catalog would have answered but stands past the
        /// snapshot's epoch.
        behind: bool,
    },
}

/// A plan's answer at one snapshot ([`ViewCatalog::answer`]).
#[derive(Debug, Clone)]
pub struct Answer {
    /// The frame: a maintained view's own, shared, when the plan has no
    /// post-pass.
    pub frame: Arc<DataFrame>,
    /// The epoch the answer reflects: the snapshot's.
    pub epoch: u64,
    /// How the answer was reached.
    pub how: How,
    /// Whether the catalog keeps `frame`: a view's own frame, or its
    /// cached `latest` dedup, returned whole because nothing of the plan
    /// was left to run over it. Such a frame is the same `Arc` for every
    /// read of its plan until the view moves, so what is derived from it
    /// at one epoch (its wire bytes) can be kept beside it. The
    /// executor's frames and post-pass results are made per read and are
    /// never kept.
    pub kept: bool,
}

/// How the answer was reached, and at which epoch: the event a view
/// read's trace records and the line every explain and slow-query record
/// shows.
impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let epoch = self.epoch;
        match &self.how {
            How::Hit => write!(f, "hit at epoch {epoch}"),
            How::Built => write!(f, "built at epoch {epoch}"),
            How::Selected { from } => {
                write!(
                    f,
                    "selected from pivot[{}] at epoch {epoch}",
                    from.join(",")
                )
            }
            How::CaughtUp { rows, fallbacks } => {
                write!(f, "caught up over {rows} logs rows to epoch {epoch}")?;
                if *fallbacks > 0 {
                    write!(f, ", {fallbacks} view(s) dropped")?;
                }
                Ok(())
            }
            How::Executed { explain, behind } => {
                let behind = if *behind { " behind the catalog" } else { "" };
                write!(f, "executed at epoch {epoch}{behind}: {explain}")
            }
        }
    }
}

struct CatalogInner {
    views: HashMap<Vec<String>, CachedView>,
    at: Watermark,
    clock: u64,
    stats: CatalogStats,
}

/// A bounded cache of incrementally maintained views over one database,
/// one per projection.
///
/// Cloning shares the same catalog (and its one watermark).
#[derive(Clone)]
pub struct ViewCatalog {
    capacity: usize,
    metrics: Arc<ViewMetrics>,
    inner: Arc<Mutex<CatalogInner>>,
}

impl ViewCatalog {
    /// Catalog over `db` holding at most `capacity` views, recording into
    /// its metrics registry. Every snapshot it answers at must be `db`'s.
    pub fn new(db: Database, capacity: usize) -> ViewCatalog {
        let metrics = Arc::new(ViewMetrics::new(db.metrics_registry()));
        ViewCatalog {
            capacity: capacity.max(1),
            metrics,
            inner: Arc::new(Mutex::new(CatalogInner {
                views: HashMap::new(),
                at: Watermark::default(),
                clock: 0,
                stats: CatalogStats::default(),
            })),
        }
    }

    /// Answer `plan` at `snap`: the one read path of every dataframe
    /// read, embedded or served, and the one place it is routed. The
    /// catalog answers when the plan lowers nothing below the pivot but a
    /// `latest` ([`QueryPlan::below_pivot`]: no store predicate, no key
    /// predicate, no top-K) and the catalog has not passed `snap`'s epoch:
    /// its views catch up to `snap` itself, the projection's frame is
    /// taken under the catalog lock — deduplicated when the plan has a
    /// `latest` and no predicate — and the rest of the plan runs as a
    /// post-pass outside it, inside one `view.plan` span whose event says
    /// how the view was reached. Every other plan runs on the snapshot
    /// executor ([`execute_at`]) at `snap`, outside the lock, recording
    /// its own spans into `tr`. Either way the frame is the plan's at
    /// `snap.epoch()`, byte for byte; a `latest` group column missing from
    /// the pivoted frame errors on both.
    pub fn answer(
        &self,
        snap: &Snapshot,
        plan: &QueryPlan,
        tr: &mut ActiveTrace,
    ) -> StoreResult<Answer> {
        let mut behind = false;
        if reads_a_view(plan) {
            let span = tr.begin("view.plan");
            let read = self.read(snap, plan);
            match &read {
                Ok(Some(answer)) => tr.event(|| answer.to_string()),
                Ok(None) => tr.event(|| "behind the catalog: snapshot executor"),
                Err(_) => {}
            }
            tr.end(span);
            match read? {
                Some(answer) => return Ok(answer),
                None => behind = true,
            }
        }
        let (frame, explain) = execute_at(snap, plan, tr)?;
        Ok(Answer {
            frame: Arc::new(frame),
            epoch: snap.epoch(),
            how: How::Executed { explain, behind },
            kept: false,
        })
    }

    /// The view read of [`ViewCatalog::answer`]: `None` when the catalog
    /// already reflects a later epoch than `snap` — its views cannot go
    /// back — and the catalog is left untouched.
    fn read(&self, snap: &Snapshot, plan: &QueryPlan) -> StoreResult<Option<Answer>> {
        let (base, how) = {
            let mut g = self.inner.lock();
            if snap.epoch() < g.at.epoch {
                return Ok(None);
            }
            let caught_up = self.catch_up(&mut g, snap)?;
            let (view, made) = self.view(&mut g, &plan.names, snap)?;
            let base = match maintained(plan) {
                Some(group) => view.latest(group),
                None => Ok(view.pivot.frame()),
            };
            let how = match (made, caught_up) {
                (Some(made), _) => made,
                (None, Some((rows, fallbacks))) => How::CaughtUp { rows, fallbacks },
                (None, None) => How::Hit,
            };
            self.evict(&mut g);
            (base?, how)
        };
        let (frame, kept) = post_pass(plan, base)?;
        Ok(Some(Answer {
            frame,
            epoch: snap.epoch(),
            how,
            kept,
        }))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CatalogStats {
        self.inner.lock().stats.clone()
    }

    /// Bring every cached view to `snap`, at or past the catalog's
    /// epoch: read the `logs` rows past the watermark and pivot them once
    /// ([`Delta`]), apply that to each view, and advance the watermark. A
    /// view that rejects a row is dropped. With no view cached there is
    /// nothing to read: the watermark jumps. Returns the `logs` rows read
    /// and how many views were dropped, or `None` when the catalog was
    /// already at `snap`'s epoch.
    fn catch_up(
        &self,
        g: &mut CatalogInner,
        snap: &Snapshot,
    ) -> StoreResult<Option<(usize, usize)>> {
        let started = self.metrics.registry.enabled().then(Instant::now);
        let from = g.at;
        if snap.epoch() == from.epoch {
            return Ok(None);
        }
        if g.views.is_empty() {
            // A read from past every row returns only the watermark.
            g.at = Watermark {
                epoch: snap.epoch(),
                logs: snap.since("logs", usize::MAX)?.1,
            };
            return Ok(Some((0, 0)));
        }
        let delta = Delta::since(snap, from.logs)?;
        g.at = Watermark {
            epoch: snap.epoch(),
            logs: delta.next,
        };
        g.stats.batches_applied += snap.epoch().saturating_sub(from.epoch);
        g.stats.deltas_applied += delta.rows as u64;
        let rejected: Vec<Vec<String>> = g
            .views
            .iter_mut()
            .filter_map(|(names, view)| view.apply(&delta).err().map(|_| names.clone()))
            .collect();
        let fallbacks = rejected.len();
        for names in rejected {
            self.drop_rejected(g, names);
        }
        if let Some(started) = started {
            self.metrics
                .refresh_nanos
                .record_duration(started.elapsed());
        }
        Ok(Some((delta.rows, fallbacks)))
    }

    /// Drop a view that rejected a row. A view rejects a row only when a
    /// value name collides with an index column, which a rebuild at the
    /// same snapshot would meet again; the next plan that needs the view
    /// builds it and gets that error.
    fn drop_rejected(&self, g: &mut CatalogInner, names: Vec<String>) {
        g.stats.fallback_rebuilds += 1;
        if self.metrics.registry.enabled() {
            self.metrics.rebuilds.inc();
            self.metrics.registry.event_at(
                flor_obs::Level::Warn,
                "view.rebuild",
                format!("pivot[{}]", names.join(",")),
            );
        }
        g.views.remove(&names);
    }

    /// The view of `names` — from cache, else selected from the
    /// smallest cached view that covers its names, else built at `snap`
    /// — and how a miss made it; touches the LRU clock.
    fn view<'g>(
        &self,
        g: &'g mut CatalogInner,
        names: &[String],
        snap: &Snapshot,
    ) -> StoreResult<(&'g mut CachedView, Option<How>)> {
        g.clock += 1;
        let selected = if g.views.contains_key(names) {
            None
        } else {
            self.select(&g.views, names)?
        };
        let enabled = self.metrics.registry.enabled();
        let (view, made) = match g.views.entry(names.to_vec()) {
            Entry::Occupied(view) => {
                g.stats.hits += 1;
                if enabled {
                    self.metrics.hits.inc();
                }
                (view.into_mut(), None)
            }
            Entry::Vacant(slot) => {
                g.stats.misses += 1;
                if enabled {
                    self.metrics.misses.inc();
                }
                match selected {
                    Some((view, from)) => {
                        g.stats.selections += 1;
                        if enabled {
                            self.metrics.selections.inc();
                        }
                        (slot.insert(view), Some(How::Selected { from }))
                    }
                    None => (slot.insert(self.build(names, snap)?), Some(How::Built)),
                }
            }
        };
        view.last_used = g.clock;
        Ok((view, made))
    }

    /// The view of `names` selected ([`PivotState::select`]) from the
    /// cached view with the fewest names that covers them — the most
    /// recently used among equals — with that view's names; `None` when
    /// no cached view covers them. Every cached view was just caught up
    /// to the snapshot being read, so the selection reflects it too.
    fn select(
        &self,
        views: &HashMap<Vec<String>, CachedView>,
        names: &[String],
    ) -> StoreResult<Option<(CachedView, Vec<String>)>> {
        let Some((from, source)) = views
            .iter()
            .filter(|(_, v)| v.pivot.covers(names))
            .min_by_key(|(_, v)| (v.pivot.names().len(), Reverse(v.last_used)))
        else {
            return Ok(None);
        };
        let _select = Span::enter(&self.metrics.registry, &self.metrics.select_nanos);
        let pivot = source.pivot.select(names).map_err(StoreError::Df)?;
        Ok(Some((CachedView::new(pivot), from.clone())))
    }

    /// Enforce the capacity bound, coldest first. The view just served
    /// holds the newest clock, so it is never the one evicted.
    fn evict(&self, g: &mut CatalogInner) {
        while g.views.len() > self.capacity {
            let Some(coldest) = g
                .views
                .iter()
                .min_by_key(|(_, v)| v.last_used)
                .map(|(names, _)| names.clone())
            else {
                return;
            };
            g.views.remove(&coldest);
            g.stats.evictions += 1;
        }
    }

    /// Build the view of `names` at `snap`, the snapshot every cached
    /// view was just caught up to, so the catalog's one watermark holds
    /// for it too.
    ///
    /// The build is the snapshot pivot `Flor::execute_at` runs, over the
    /// plan projecting `names` ([`PivotState::at`]): a merge of the
    /// snapshot's per-segment loop contexts and pivot fragments, shared
    /// with every other view and query rather than read and pivoted again
    /// per build.
    fn build(&self, names: &[String], snap: &Snapshot) -> StoreResult<CachedView> {
        let _build = Span::enter(&self.metrics.registry, &self.metrics.build_nanos);
        Ok(CachedView::new(PivotState::at(snap, names)?))
    }
}

/// The routing rule of [`ViewCatalog::answer`]: a plan is read from its
/// projection's view when it lowers nothing below the pivot but a
/// `latest` ([`QueryPlan::below_pivot`]) — no store predicate, no key
/// predicate, no top-K. Such a plan's predicates are all over value
/// columns, so the view's post-pass is its whole filter; any other plan
/// gets the executor's pushdown and cut summaries.
fn reads_a_view(plan: &QueryPlan) -> bool {
    let below = plan.below_pivot();
    below.store.is_empty() && below.key.is_empty() && below.top_k.is_none()
}

/// The plan's `latest` group when the view maintains it: only when no
/// predicate must filter rows before the dedup; otherwise it runs in the
/// post-pass.
fn maintained(plan: &QueryPlan) -> Option<&Vec<String>> {
    plan.latest_group
        .as_ref()
        .filter(|_| plan.predicates.is_empty())
}

/// The rest of `plan` over its projection's frame `base`, and whether
/// the result is `base` itself, shared, because nothing was left to run.
fn post_pass(plan: &QueryPlan, base: Arc<DataFrame>) -> StoreResult<(Arc<DataFrame>, bool)> {
    let apply_latest = maintained(plan).is_none() && plan.latest_group.is_some();
    if plan.post_pass_is_identity(&plan.predicates, apply_latest) {
        return Ok((base, true));
    }
    let frame = plan.post_pass(&base, &plan.predicates, apply_latest)?;
    Ok((Arc::new(frame), false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_df::Value;
    use flor_store::flor_schema;

    fn log_row(ts: i64, name: &str, value: &str) -> Vec<Value> {
        vec![
            "p".into(),
            ts.into(),
            "f.fl".into(),
            0.into(),
            name.into(),
            value.into(),
            2.into(),
        ]
    }

    /// A top-level `loops` row defining `ctx` as iteration `iteration`
    /// of loop `name`.
    fn loop_row(ts: i64, ctx: i64, name: &str, iteration: i64) -> Vec<Value> {
        vec![
            "p".into(),
            ts.into(),
            "f.fl".into(),
            ctx.into(),
            0.into(),
            name.into(),
            iteration.into(),
            iteration.to_string().into(),
        ]
    }

    #[test]
    fn view_refreshes_incrementally() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        db.insert("logs", log_row(1, "loss", "10")).unwrap();
        db.commit().unwrap();
        let v1 = frame(&catalog, &db, &QueryPlan::new(&["loss"])).unwrap();
        assert_eq!(v1.n_rows(), 1);
        assert_eq!(catalog.stats().misses, 1);

        db.insert("logs", log_row(2, "loss", "20")).unwrap();
        db.commit().unwrap();
        let v2 = frame(&catalog, &db, &QueryPlan::new(&["loss"])).unwrap();
        assert_eq!(v2.n_rows(), 2);
        let s = catalog.stats();
        assert_eq!(s.misses, 1, "second call must reuse the cached view");
        assert_eq!(s.hits, 1);
        assert!(s.deltas_applied >= 1);
        // The earlier snapshot is unaffected (copy-on-write).
        assert_eq!(v1.n_rows(), 1);
    }

    #[test]
    fn answer_reads_the_callers_snapshot_and_executes_one_behind() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        let plan = QueryPlan::new(&["loss"]);
        let mut snaps = Vec::new();
        for ts in 1..=3 {
            db.insert("logs", log_row(ts, "loss", &ts.to_string()))
                .unwrap();
            db.commit().unwrap();
            snaps.push(db.pin());
        }
        let at = |snap: &Snapshot| catalog.answer(snap, &plan, &mut off()).unwrap();
        let executed = |snap: &Snapshot| crate::execute_at(snap, &plan, &mut off()).unwrap().0;
        let answer = at(&snaps[0]);
        assert_eq!((answer.how.clone(), answer.epoch), (How::Built, 1));
        assert_eq!(answer.to_string(), "built at epoch 1");
        // Caught up to the caller's epoch 2, not the newest 3.
        let answer = at(&snaps[1]);
        let caught_up = How::CaughtUp {
            rows: 1,
            fallbacks: 0,
        };
        assert_eq!(answer.how, caught_up);
        assert_eq!(answer.to_string(), "caught up over 1 logs rows to epoch 2");
        assert_eq!(*answer.frame, executed(&snaps[1]));
        let again = at(&snaps[1]);
        assert_eq!(again.how, How::Hit);
        assert!(Arc::ptr_eq(&answer.frame, &again.frame));
        // Behind the catalog: the executor answers, and the catalog is
        // untouched.
        let stats = catalog.stats();
        let behind = at(&snaps[0]);
        assert!(
            matches!(behind.how, How::Executed { behind: true, .. }),
            "{behind}"
        );
        assert!(behind
            .to_string()
            .starts_with("executed at epoch 1 behind the catalog: logs: "));
        assert_eq!(*behind.frame, executed(&snaps[0]));
        assert_eq!(catalog.stats(), stats);
        assert_eq!(frame(&catalog, &db, &plan).unwrap().n_rows(), 3);
        assert!(matches!(
            at(&snaps[1]).how,
            How::Executed { behind: true, .. }
        ));
        assert_eq!(at(&snaps[2]).how, How::Hit);
    }

    #[test]
    fn only_a_plan_lowering_at_most_a_latest_reads_a_view() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        for ts in 1..=3 {
            log_epochs(&db, ts, "loss");
        }
        let top = QueryPlan {
            order_by: vec![("loss".into(), true)],
            limit: Some(2),
            ..QueryPlan::new(&["loss"])
        };
        let executed = [
            QueryPlan::new(&["loss"]).filter("tstamp", CmpOp::Ge, 2),
            QueryPlan::new(&["loss"]).filter("epoch_iteration", CmpOp::Eq, 1),
            top,
            QueryPlan {
                limit: Some(1),
                ..QueryPlan::with_latest(&["loss"], &["epoch_iteration"])
            },
        ];
        for plan in &executed {
            let answer = catalog.answer(&db.pin(), plan, &mut off()).unwrap();
            assert!(
                matches!(answer.how, How::Executed { behind: false, .. }),
                "{plan:?}: {answer}"
            );
            assert!(!answer.kept, "{plan:?}");
            assert_eq!(*answer.frame, full(&db, plan));
        }
        assert_eq!(catalog.stats(), CatalogStats::default(), "no view read");
        let ordered = QueryPlan {
            order_by: vec![("loss".into(), false)],
            ..QueryPlan::new(&["loss"])
        };
        // Each plan, and whether its answer is a frame the catalog keeps:
        // the view's own, or its `latest` dedup, with no post-pass left.
        let viewed = [
            (QueryPlan::new(&["loss"]), true),
            (
                QueryPlan::new(&["loss"]).filter("loss", CmpOp::Gt, 10),
                false,
            ),
            (
                QueryPlan::with_latest(&["loss"], &["epoch_iteration"]),
                true,
            ),
            (QueryPlan::with_latest(&["loss"], &["loss"]), true),
            (ordered, false),
        ];
        for (plan, kept) in &viewed {
            let answer = catalog.answer(&db.pin(), plan, &mut off()).unwrap();
            assert!(!matches!(answer.how, How::Executed { .. }), "{plan:?}");
            assert_eq!(*answer.frame, full(&db, plan));
            assert_eq!(answer.kept, *kept, "{plan:?}");
            let again = catalog.answer(&db.pin(), plan, &mut off()).unwrap();
            assert_eq!(Arc::ptr_eq(&answer.frame, &again.frame), *kept, "{plan:?}");
        }
        assert_eq!(catalog.stats().misses, 1, "one view for every plan");
    }

    fn off() -> flor_obs::ActiveTrace {
        flor_obs::ActiveTrace::new(false, None, "")
    }

    /// `plan`'s frame from `catalog`, answered at a fresh pin of `db`.
    fn frame(
        catalog: &ViewCatalog,
        db: &Database,
        plan: &QueryPlan,
    ) -> StoreResult<Arc<DataFrame>> {
        catalog
            .answer(&db.pin(), plan, &mut off())
            .map(|answer| answer.frame)
    }

    #[test]
    fn repeated_queries_share_one_snapshot() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        db.insert("logs", log_row(1, "x", "1")).unwrap();
        db.commit().unwrap();
        let a = frame(&catalog, &db, &QueryPlan::new(&["x"])).unwrap();
        let b = frame(&catalog, &db, &QueryPlan::new(&["x"])).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn lru_bound_evicts_coldest() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 2);
        db.insert("logs", log_row(1, "a", "1")).unwrap();
        db.insert("logs", log_row(1, "b", "2")).unwrap();
        db.insert("logs", log_row(1, "c", "3")).unwrap();
        db.commit().unwrap();
        frame(&catalog, &db, &QueryPlan::new(&["a"])).unwrap();
        frame(&catalog, &db, &QueryPlan::new(&["b"])).unwrap();
        frame(&catalog, &db, &QueryPlan::new(&["a"])).unwrap(); // touch: "b" is now coldest
        frame(&catalog, &db, &QueryPlan::new(&["c"])).unwrap();
        assert_eq!(catalog.stats().evictions, 1);
        // "a" and "c" are still cached; "b" was evicted and builds again.
        let misses = catalog.stats().misses;
        frame(&catalog, &db, &QueryPlan::new(&["a"])).unwrap();
        frame(&catalog, &db, &QueryPlan::new(&["c"])).unwrap();
        assert_eq!(catalog.stats().misses, misses);
        frame(&catalog, &db, &QueryPlan::new(&["b"])).unwrap();
        assert_eq!(catalog.stats().misses, misses + 1);
    }

    #[test]
    fn a_filtered_plan_is_served_from_its_projections_view() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        for ts in 1..=4 {
            db.insert("logs", log_row(ts, "loss", &ts.to_string()))
                .unwrap();
        }
        db.commit().unwrap();
        let plan = QueryPlan::new(&["loss"]).filter("loss", CmpOp::Ge, 3);
        let v = frame(&catalog, &db, &plan).unwrap();
        assert_eq!(v.n_rows(), 2);
        // New commits land on the projection's view; the value filter runs
        // in the post-pass.
        db.insert("logs", log_row(5, "loss", "5")).unwrap();
        db.insert("logs", log_row(0, "loss", "0")).unwrap();
        db.commit().unwrap();
        let v = frame(&catalog, &db, &plan).unwrap();
        assert_eq!(v.n_rows(), 3, "ts=5 admitted, ts=0 filtered out");
        assert_eq!(*v, full(&db, &plan));
        // The unfiltered read of the same names is the same view.
        let plain = QueryPlan::new(&["loss"]);
        assert_eq!(frame(&catalog, &db, &plain).unwrap().n_rows(), 6);
        assert_eq!((catalog.stats().misses, catalog.stats().hits), (1, 2));
    }

    #[test]
    fn plans_share_a_maintained_view_across_post_passes() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        for ts in 1..=5 {
            db.insert("logs", log_row(ts, "x", &ts.to_string()))
                .unwrap();
        }
        db.commit().unwrap();
        let base = QueryPlan::new(&["x"]).filter("x", CmpOp::Gt, 1);
        let limited = QueryPlan {
            order_by: vec![("tstamp".into(), false)],
            limit: Some(2),
            ..base.clone()
        };
        assert_eq!(frame(&catalog, &db, &base).unwrap().n_rows(), 4);
        let top = frame(&catalog, &db, &limited).unwrap();
        assert_eq!(top.n_rows(), 2);
        assert_eq!(top.get(0, "tstamp"), Some(&Value::Int(5)));
        // Same projection → one build, differing post-passes only.
        assert_eq!(catalog.stats().misses, 1);
        // Neither do other predicates, nor their call order.
        let swapped = QueryPlan::new(&["x"])
            .filter("x", CmpOp::Lt, 9)
            .filter("x", CmpOp::Gt, 1);
        let canon = QueryPlan::new(&["x"])
            .filter("x", CmpOp::Gt, 1)
            .filter("x", CmpOp::Lt, 9);
        assert_eq!(
            *frame(&catalog, &db, &swapped).unwrap(),
            full(&db, &swapped)
        );
        assert_eq!(*frame(&catalog, &db, &canon).unwrap(), full(&db, &canon));
        assert_eq!(catalog.stats().misses, 1);
    }

    #[test]
    fn residual_latest_runs_in_post_pass() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        for ts in 1..=3 {
            db.insert("logs", log_row(ts, "acc", &ts.to_string()))
                .unwrap();
        }
        db.commit().unwrap();
        // A residual (value-column) predicate must filter *before* the
        // dedup, so latest runs over the filtered rows in the post-pass.
        let plan = QueryPlan {
            latest_group: Some(vec!["projid".into()]),
            ..QueryPlan::new(&["acc"])
        }
        .filter("acc", CmpOp::Le, 2);
        let v = frame(&catalog, &db, &plan).unwrap();
        assert_eq!(v.n_rows(), 1);
        assert_eq!(v.get(0, "acc"), Some(&Value::Int(2)));
        // The maintained view is the projection's plain pivot.
        assert_eq!(catalog.stats().misses, 1);
        frame(&catalog, &db, &QueryPlan::new(&["acc"])).unwrap();
        assert_eq!(catalog.stats().misses, 1);
    }

    #[test]
    fn a_delta_widening_the_schema_invalidates_the_latest_cache() {
        // Regression: a committed row can widen the pivot's schema (a new
        // loop dimension); the cached `latest` output must be dropped, or
        // it serves a stale column set.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        db.insert("logs", log_row(1, "loss", "10")).unwrap();
        db.commit().unwrap();
        let plan = QueryPlan::with_latest(&["loss"], &["projid"]);
        let v = frame(&catalog, &db, &plan).unwrap();
        assert_eq!(
            v.column_names(),
            vec!["projid", "tstamp", "filename", "loss"]
        );
        // A row logged under a new "batch" loop.
        db.insert("loops", loop_row(2, 9, "batch", 0)).unwrap();
        let mut row = log_row(2, "loss", "20");
        row[3] = 9.into();
        db.insert("logs", row).unwrap();
        db.commit().unwrap();
        let v = frame(&catalog, &db, &plan).unwrap();
        assert_eq!(
            v.column_names(),
            vec![
                "projid",
                "tstamp",
                "filename",
                "batch_iteration",
                "batch_value",
                "loss"
            ],
            "stale latest cache served after schema widening"
        );
        assert_eq!(*v, full(&db, &plan));
        assert_eq!(v.get(0, "tstamp"), Some(&Value::Int(2)));
        let stats = catalog.stats();
        assert_eq!((stats.misses, stats.fallback_rebuilds), (1, 0));
    }

    #[test]
    fn a_rebuild_event_names_the_projection() {
        // `a_iteration` is logged as a value, then a loop `a` makes it a
        // dimension: the row is rejected and the rebuild fails too.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        db.insert("logs", log_row(1, "a_iteration", "1")).unwrap();
        db.commit().unwrap();
        let plan = QueryPlan::new(&["x", "a_iteration"]);
        frame(&catalog, &db, &plan).unwrap();
        let xs = QueryPlan::new(&["x"]);
        frame(&catalog, &db, &xs).unwrap();
        db.insert("loops", loop_row(2, 9, "a", 0)).unwrap();
        let mut row = log_row(2, "x", "2");
        row[3] = 9.into();
        db.insert("logs", row).unwrap();
        db.commit().unwrap();
        // The catch-up that serves `x` shows the other view's fallback.
        let answer = catalog.answer(&db.pin(), &xs, &mut off()).unwrap();
        let how = How::CaughtUp {
            rows: 1,
            fallbacks: 1,
        };
        assert_eq!(answer.how, how);
        assert_eq!(
            answer.to_string(),
            "caught up over 1 logs rows to epoch 2, 1 view(s) dropped"
        );
        assert!(
            frame(&catalog, &db, &plan).is_err(),
            "the dropped view's build fails"
        );
        assert_eq!(catalog.stats().fallback_rebuilds, 1);
        let events = db.metrics_registry().events_at_least(flor_obs::Level::Warn);
        let rebuilds: Vec<_> = events.iter().filter(|e| e.kind == "view.rebuild").collect();
        assert_eq!(rebuilds.len(), 1);
        assert_eq!(rebuilds[0].detail, "pivot[x,a_iteration]");
    }

    #[test]
    fn latest_view_dedupes_and_caches() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        for ts in 1..=3 {
            db.insert("logs", log_row(ts, "acc", &ts.to_string()))
                .unwrap();
            db.commit().unwrap();
        }
        let latest = frame(
            &catalog,
            &db,
            &QueryPlan::with_latest(&["acc"], &["projid"]),
        )
        .unwrap();
        assert_eq!(latest.n_rows(), 1);
        assert_eq!(latest.get(0, "acc"), Some(&Value::Int(3)));
        let again = frame(
            &catalog,
            &db,
            &QueryPlan::with_latest(&["acc"], &["projid"]),
        )
        .unwrap();
        assert!(Arc::ptr_eq(&latest, &again));
        // Unknown group column errors like the from-scratch path.
        assert!(frame(&catalog, &db, &QueryPlan::with_latest(&["acc"], &["nope"])).is_err());
    }

    #[test]
    fn latest_upsert_at_max_tstamp_does_not_duplicate() {
        // Regression: filling a hole in the newest row (same tstamp, same
        // context — the backfill shape) upserts a cell of a row already
        // tracked at the max timestamp; the latest view must not emit the
        // row twice.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        db.insert("logs", log_row(1, "loss", "10")).unwrap();
        db.commit().unwrap();
        let first = frame(
            &catalog,
            &db,
            &QueryPlan::with_latest(&["loss", "acc"], &["projid"]),
        )
        .unwrap();
        assert_eq!(first.n_rows(), 1);
        // Same (projid, tstamp, filename, ctx): lands in the existing row.
        db.insert("logs", log_row(1, "acc", "7")).unwrap();
        db.commit().unwrap();
        let after = frame(
            &catalog,
            &db,
            &QueryPlan::with_latest(&["loss", "acc"], &["projid"]),
        )
        .unwrap();
        assert_eq!(after.n_rows(), 1, "upsert must not duplicate the row");
        assert_eq!(after.get(0, "acc"), Some(&Value::Int(7)));
        let oracle = frame(&catalog, &db, &QueryPlan::new(&["loss", "acc"]))
            .unwrap()
            .latest(&["projid"], "tstamp")
            .unwrap();
        assert_eq!(*after, oracle);
    }

    #[test]
    fn latest_by_value_column_recomputes_and_stays_correct() {
        // Grouping by a *value* column is unstable under upserts: the
        // catalog must serve it by recomputation, not the upsert map —
        // even when the column name looks like a loop dimension.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        let str_row = |ts: i64, name: &str, value: &str| -> Vec<Value> {
            vec![
                "p".into(),
                ts.into(),
                "f.fl".into(),
                0.into(),
                name.into(),
                value.into(),
                4.into(), // value_type: Str
            ]
        };
        db.insert("logs", str_row(1, "f1_value", "a")).unwrap();
        db.insert("logs", log_row(1, "score", "1")).unwrap();
        db.commit().unwrap();
        frame(
            &catalog,
            &db,
            &QueryPlan::with_latest(&["f1_value", "score"], &["f1_value"]),
        )
        .unwrap();
        // Re-log moves the row to group "b"; tstamp unchanged.
        db.insert("logs", str_row(1, "f1_value", "b")).unwrap();
        db.commit().unwrap();
        let latest = frame(
            &catalog,
            &db,
            &QueryPlan::with_latest(&["f1_value", "score"], &["f1_value"]),
        )
        .unwrap();
        let oracle = frame(&catalog, &db, &QueryPlan::new(&["f1_value", "score"]))
            .unwrap()
            .latest(&["f1_value"], "tstamp")
            .unwrap();
        assert_eq!(*latest, oracle);
        assert_eq!(latest.n_rows(), 1);
        assert_eq!(latest.get(0, "f1_value"), Some(&Value::Str("b".into())));
    }

    /// The snapshot executor's answer to `plan` at `db`'s current state.
    fn full(db: &Database, plan: &QueryPlan) -> DataFrame {
        let off = &mut flor_obs::ActiveTrace::new(false, None, "");
        crate::execute_at(&db.pin(), plan, off).unwrap().0
    }

    #[test]
    fn an_idle_view_catches_up_over_any_backlog_without_a_rebuild() {
        // 19,200 `logs` rows over 300 commits land while the view sits
        // idle, two of each commit's under `epoch` contexts, with a
        // compaction into 3-row segments halfway: one read catches it up,
        // resolving contexts from coalesced and compacted `loops`
        // segments, with no rebuild.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        let plan = QueryPlan::new(&["x"]);
        db.insert("logs", log_row(0, "x", "0")).unwrap();
        db.commit().unwrap();
        frame(&catalog, &db, &plan).unwrap();
        let (commits, per_commit) = (300u64, 64i64);
        for c in 0..commits as i64 {
            for r in 1..per_commit - 1 {
                let ts = c * per_commit + r;
                db.insert("logs", log_row(ts, "x", &ts.to_string()))
                    .unwrap();
            }
            stage_epochs(&db, (c + 1) * per_commit, "x");
            db.commit().unwrap();
            if c == commits as i64 / 2 {
                let policy = flor_store::CompactionPolicy {
                    target_segment_rows: 3,
                    ..Default::default()
                };
                db.compact_with(&policy).unwrap();
            }
        }
        let view = frame(&catalog, &db, &plan).unwrap();
        assert_eq!(view.n_rows(), (commits * per_commit as u64) as usize + 1);
        assert_eq!(*view, full(&db, &plan));
        let stats = catalog.stats();
        assert_eq!(stats.fallback_rebuilds, 0);
        assert_eq!(stats.batches_applied, commits);
        assert_eq!(stats.deltas_applied, commits * per_commit as u64);
    }

    #[test]
    fn backfilled_rows_compacted_into_older_segments_still_reach_the_view() {
        // A backfill commits rows with old `tstamp`s after the view's
        // watermark; a clustered compaction then sorts them into
        // rid-mapped segments ahead of the rows they were committed after.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        let plan = QueryPlan::new(&["x", "y"]);
        for ts in 10..40 {
            db.insert("logs", log_row(ts, "x", &ts.to_string()))
                .unwrap();
            db.commit().unwrap();
        }
        frame(&catalog, &db, &plan).unwrap();
        for ts in (1..30).step_by(3) {
            db.insert("logs", log_row(ts, "y", &(-ts).to_string()))
                .unwrap();
        }
        db.commit().unwrap();
        let policy = flor_store::CompactionPolicy {
            target_segment_rows: 4,
            ..Default::default()
        };
        db.compact_with(&policy).unwrap();
        let view = frame(&catalog, &db, &plan).unwrap();
        assert_eq!(*view, full(&db, &plan));
        assert_eq!(view.n_rows(), 30 + 3, "ts 1, 4 and 7 are new rows");
        let stats = catalog.stats();
        assert_eq!((stats.misses, stats.fallback_rebuilds), (1, 0));
    }

    /// One run at `ts` of an `epoch` loop over two iterations, logging
    /// `name` in each, staged.
    fn stage_epochs(db: &Database, ts: i64, name: &str) {
        for e in 0..2i64 {
            let ctx = ts * 10 + e;
            db.insert("loops", loop_row(ts, ctx, "epoch", e)).unwrap();
            let mut row = log_row(ts, name, &ctx.to_string());
            row[3] = ctx.into();
            db.insert("logs", row).unwrap();
        }
    }

    /// [`stage_epochs`], committed.
    fn log_epochs(db: &Database, ts: i64, name: &str) {
        stage_epochs(db, ts, name);
        db.commit().unwrap();
    }

    #[test]
    fn a_latest_view_whose_pushdown_admits_no_row_keeps_its_columns() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        for ts in 1..=2 {
            log_epochs(&db, ts, "loss");
        }
        let columns = [
            "projid",
            "tstamp",
            "filename",
            "epoch_iteration",
            "epoch_value",
            "loss",
        ];
        for group in [&["epoch_iteration"], &["projid"]] {
            let plan = QueryPlan::with_latest(&["loss"], group).filter("tstamp", CmpOp::Gt, 100);
            let v = frame(&catalog, &db, &plan).unwrap();
            assert_eq!(v.n_rows(), 0);
            assert_eq!(v.column_names(), columns, "latest by {group:?}");
        }
    }

    #[test]
    fn a_predicate_sweep_does_not_evict_a_hot_view() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 8);
        for ts in 1..=10 {
            db.insert("logs", log_row(ts, "loss", &ts.to_string()))
                .unwrap();
        }
        db.commit().unwrap();
        let hot = QueryPlan::new(&["loss"]);
        assert_eq!(*frame(&catalog, &db, &hot).unwrap(), full(&db, &hot));
        for t in 1..=8 {
            let window = QueryPlan::new(&["loss"]).filter("loss", CmpOp::Ge, t);
            assert_eq!(*frame(&catalog, &db, &window).unwrap(), full(&db, &window));
        }
        let hits = catalog.stats().hits;
        assert_eq!(*frame(&catalog, &db, &hot).unwrap(), full(&db, &hot));
        let stats = catalog.stats();
        assert_eq!(stats.hits, hits + 1, "the hot view is still cached");
        assert_eq!((stats.misses, stats.evictions), (1, 0));
    }

    /// A `logs` row of `name` at `ts`, outside any loop, logged as null.
    fn null_row(ts: i64, name: &str) -> Vec<Value> {
        let mut row = log_row(ts, name, "");
        row[6] = 0.into();
        row
    }

    /// `plan` read through the catalog at a fresh pin, checked against
    /// the snapshot executor there; how the view was reached.
    fn read(catalog: &ViewCatalog, db: &Database, plan: &QueryPlan) -> How {
        let snap = db.pin();
        let answer = catalog.answer(&snap, plan, &mut off()).unwrap();
        let want = crate::execute_at(&snap, plan, &mut off()).unwrap().0;
        assert_eq!(*answer.frame, want, "{plan:?}");
        answer.how
    }

    fn selected(from: &[&str]) -> How {
        How::Selected {
            from: from.iter().map(|n| n.to_string()).collect(),
        }
    }

    #[test]
    fn a_miss_selects_from_the_smallest_covering_view() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 8);
        for ts in 1..=3 {
            for name in ["a", "b", "c"] {
                db.insert("logs", log_row(ts, name, &ts.to_string()))
                    .unwrap();
            }
        }
        log_epochs(&db, 4, "c");
        let wide = QueryPlan::new(&["a", "b", "c"]);
        assert_eq!(read(&catalog, &db, &wide), How::Built);
        // `c`'s loop is not among `b, a`'s columns.
        let pair = QueryPlan::new(&["b", "a"]);
        assert_eq!(read(&catalog, &db, &pair), selected(&["a", "b", "c"]));
        let single = QueryPlan::new(&["a"]);
        let answer = catalog.answer(&db.pin(), &single, &mut off()).unwrap();
        assert_eq!(answer.how, selected(&["b", "a"]));
        assert_eq!(answer.to_string(), "selected from pivot[b,a] at epoch 1");
        // A selected view is cached and caught up like a built one.
        db.insert("logs", log_row(5, "a", "5")).unwrap();
        db.commit().unwrap();
        assert_eq!(
            read(&catalog, &db, &single),
            How::CaughtUp {
                rows: 1,
                fallbacks: 0
            }
        );
        assert_eq!(read(&catalog, &db, &pair), How::Hit);
        let stats = catalog.stats();
        assert_eq!((stats.misses, stats.selections), (3, 2));
        assert_eq!(stats.fallback_rebuilds, 0);
        let metrics = db.metrics_registry().snapshot();
        assert_eq!(metrics.counter("view.selections"), Some(2));
        assert_eq!(metrics.histogram("view.select_nanos").unwrap().count, 2);
        assert_eq!(metrics.histogram("view.build_nanos").unwrap().count, 1);
    }

    #[test]
    fn an_uncovered_miss_still_builds() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 8);
        db.insert("logs", log_row(1, "a", "1")).unwrap();
        db.insert("logs", log_row(1, "b", "2")).unwrap();
        db.commit().unwrap();
        assert_eq!(read(&catalog, &db, &QueryPlan::new(&["a"])), How::Built);
        let both = QueryPlan::new(&["a", "b"]);
        assert_eq!(read(&catalog, &db, &both), How::Built);
        let stats = catalog.stats();
        assert_eq!((stats.misses, stats.selections), (2, 0));
    }

    #[test]
    fn a_name_logged_only_as_null_keeps_its_rows() {
        // A logged null is a cell: presence is not the cell's value.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 8);
        db.insert("logs", log_row(1, "a", "1")).unwrap();
        db.insert("logs", null_row(2, "n")).unwrap();
        db.insert("logs", log_row(3, "a", "3")).unwrap();
        db.insert("logs", null_row(3, "n")).unwrap();
        db.commit().unwrap();
        read(&catalog, &db, &QueryPlan::new(&["a", "n"]));
        let nulls = QueryPlan::new(&["n"]);
        assert_eq!(read(&catalog, &db, &nulls), selected(&["a", "n"]));
        let frame = frame(&catalog, &db, &nulls).unwrap();
        assert_eq!(frame.n_rows(), 2);
        assert_eq!(frame.get(0, "n"), Some(&Value::Null));
    }

    #[test]
    fn a_backfilled_cell_moves_its_old_key_last_in_a_selection() {
        // Keys at `tstamp` 1 and 2 log `x`; only 2 logs `y`, until a
        // backfill writes `y` into key 1 after it: in `y`'s projection
        // key 1 comes last, though it is first in the wider view.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 8);
        db.insert("logs", log_row(1, "x", "1")).unwrap();
        db.insert("logs", log_row(2, "x", "2")).unwrap();
        db.insert("logs", log_row(2, "y", "2")).unwrap();
        db.insert("logs", log_row(3, "x", "3")).unwrap();
        db.commit().unwrap();
        db.insert("logs", log_row(1, "y", "-1")).unwrap();
        db.commit().unwrap();
        let wide = QueryPlan::new(&["x", "y"]);
        read(&catalog, &db, &wide);
        assert_eq!(
            frame(&catalog, &db, &wide).unwrap().get(0, "tstamp"),
            Some(&Value::Int(1))
        );
        let ys = QueryPlan::new(&["y"]);
        assert_eq!(read(&catalog, &db, &ys), selected(&["x", "y"]));
        let frame = frame(&catalog, &db, &ys).unwrap();
        let tstamps: Vec<_> = (0..frame.n_rows())
            .map(|r| frame.get(r, "tstamp"))
            .collect();
        assert_eq!(tstamps, [Some(&Value::Int(2)), Some(&Value::Int(1))]);
        // The selection's key index finds its rows: a re-log into key 2
        // patches it, and key 3 (no `y`) is a new row.
        db.insert("logs", log_row(2, "y", "20")).unwrap();
        db.insert("logs", log_row(3, "y", "30")).unwrap();
        db.commit().unwrap();
        assert_eq!(
            read(&catalog, &db, &ys),
            How::CaughtUp {
                rows: 2,
                fallbacks: 0
            }
        );
        assert_eq!(
            read(&catalog, &db, &QueryPlan::new(&["x"])),
            selected(&["x", "y"])
        );
        db.insert("logs", log_row(1, "x", "10")).unwrap();
        db.commit().unwrap();
        read(&catalog, &db, &QueryPlan::new(&["x"]));
        assert_eq!(catalog.stats().fallback_rebuilds, 0);
    }

    #[test]
    fn plain_and_latest_reads_of_one_projection_share_one_build() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        log_epochs(&db, 1, "acc");
        let plain = QueryPlan::new(&["acc"]);
        let latest = QueryPlan::with_latest(&["acc"], &["epoch_iteration"]);
        for _ in 0..2 {
            assert_eq!(*frame(&catalog, &db, &plain).unwrap(), full(&db, &plain));
            assert_eq!(*frame(&catalog, &db, &latest).unwrap(), full(&db, &latest));
            // A newer run replaces every epoch's latest row.
            log_epochs(&db, 2, "acc");
        }
        assert_eq!(catalog.stats().misses, 1);
    }
}

//! The view catalog: named materialized views, caught up from the
//! snapshot, bounded by an LRU, with transparent full-rebuild fallback.
//!
//! Every access pins one snapshot. Every cached view reflects one
//! earlier snapshot, whose epoch and `loops` / `logs` rid watermarks the
//! catalog keeps once. When the epochs differ, the rows committed since
//! are read once from the new snapshot
//! ([`flor_store::Snapshot::since`]) and applied to *all* cached views —
//! `loops` before `logs` — and the watermarks advance; a miss is built at
//! the same snapshot. This is exact because `logs` and `loops` declare
//! no latest-wins policy, so no row is ever dropped, and a row's rid is
//! its commit position on every handle, a follower's rebootstrap
//! included. If a value name collides with an index column
//! ([`DfError::DuplicateColumn`]) the view is rebuilt from scratch
//! instead of serving wrong data; the event is counted in
//! [`CatalogStats::fallback_rebuilds`]. A view whose rebuild fails is
//! dropped, and the next plan that needs it gets the build's error.

use crate::delta::{LatestState, PivotState};
use crate::plan::QueryPlan;
use flor_df::{DataFrame, DfError};
use flor_obs::{Counter, Histogram, MetricsRegistry, Span};
use flor_store::{Database, Predicate, Snapshot, StoreError, StoreResult};
use parking_lot::Mutex;
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
    /// `view.build_nanos` — full builds from a snapshot (miss or
    /// fallback rebuild).
    build_nanos: Arc<Histogram>,
    /// `view.refresh_nanos` — one catch-up of the cached views: pin,
    /// read and apply (only recorded when commits had landed).
    refresh_nanos: Arc<Histogram>,
    /// `view.hits` — requests served from a cached view.
    hits: Arc<Counter>,
    /// `view.misses` — requests that built a new view.
    misses: Arc<Counter>,
    /// `view.rebuilds` — fallback full rebuilds after a rejected row.
    rebuilds: Arc<Counter>,
}

impl ViewMetrics {
    fn new(registry: MetricsRegistry) -> ViewMetrics {
        ViewMetrics {
            build_nanos: registry.histogram("view.build_nanos"),
            refresh_nanos: registry.histogram("view.refresh_nanos"),
            hits: registry.counter("view.hits"),
            misses: registry.counter("view.misses"),
            rebuilds: registry.counter("view.rebuilds"),
            registry,
        }
    }
}

/// Identity of a materialized view: the fingerprint of the *maintained*
/// part of a [`QueryPlan`] — the projected `value_name`s, the pushdown
/// predicates enforced inside the view, and the `latest` group columns
/// for deduplicated views. Two plans that differ only in their post-pass
/// (residual predicates, ordering, limits) share one maintained view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ViewKey {
    /// Projected log names, in request order.
    names: Vec<String>,
    /// `Some(group)` for a `latest`-deduplicated view.
    group: Option<Vec<String>>,
    /// Pushdown predicates maintained inside the view, canonically
    /// ordered so predicate call order does not split the cache.
    pushdown: Vec<Predicate>,
}

impl ViewKey {
    /// The maintained-part fingerprint of `plan`, whose predicates split
    /// ([`QueryPlan::split_predicates`]) into `pushdown` and a residual
    /// set that is empty when `no_residual`: its names, its pushdown
    /// predicates (canonically sorted and deduplicated), and — only when
    /// no residual predicate intervenes before the dedup — its `latest`
    /// group. A residual filter must run *before* `latest`, so such plans
    /// lower onto the underlying pivot view and dedup in the post-pass.
    fn from_split(plan: &QueryPlan, mut pushdown: Vec<Predicate>, no_residual: bool) -> ViewKey {
        pushdown.sort_by_key(|p| p.to_string());
        pushdown.dedup();
        ViewKey {
            names: plan.names.clone(),
            group: if no_residual {
                plan.latest_group.clone()
            } else {
                None
            },
            pushdown,
        }
    }

    /// Canonical one-line rendering, for the `view.rebuild` event.
    fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut s = format!("pivot[{}]", self.names.join(","));
        for p in &self.pushdown {
            let _ = write!(s, " where {p}");
        }
        if let Some(group) = &self.group {
            let _ = write!(s, " latest by [{}]", group.join(","));
        }
        s
    }
}

/// Counters describing catalog behaviour; cheap to snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Requests served from a cached view (possibly after catching up).
    pub hits: u64,
    /// Requests that built a new view from a snapshot.
    pub misses: u64,
    /// Views rebuilt because a row could not be applied.
    pub fallback_rebuilds: u64,
    /// Views evicted by the LRU bound.
    pub evictions: u64,
    /// Commits the cached views caught up over.
    pub batches_applied: u64,
    /// `logs` and `loops` rows read to catch the cached views up.
    pub deltas_applied: u64,
}

/// The snapshot every cached view reflects: its epoch, and the next
/// `loops` and `logs` rids — where the rows it has not seen start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Watermark {
    epoch: u64,
    loops: usize,
    logs: usize,
}

struct CachedView {
    pivot: PivotState,
    /// Present for `latest` views; `None` means served straight from pivot.
    latest: Option<LatestState>,
    /// Materialized `latest` output, invalidated whenever the pivot moves.
    latest_frame: Option<Arc<DataFrame>>,
    last_used: u64,
}

struct CatalogInner {
    views: HashMap<ViewKey, CachedView>,
    at: Watermark,
    clock: u64,
    stats: CatalogStats,
}

/// A bounded cache of incrementally maintained views over one database.
///
/// Cloning shares the same catalog (and its one watermark).
#[derive(Clone)]
pub struct ViewCatalog {
    db: Database,
    capacity: usize,
    metrics: Arc<ViewMetrics>,
    inner: Arc<Mutex<CatalogInner>>,
}

impl ViewCatalog {
    /// Catalog over `db` holding at most `capacity` views.
    pub fn new(db: Database, capacity: usize) -> ViewCatalog {
        let metrics = Arc::new(ViewMetrics::new(db.metrics_registry()));
        ViewCatalog {
            db,
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

    /// Serve a [`QueryPlan`] — the catalog's single entry point, behind
    /// every incremental dataframe read. The plan's maintained part
    /// (projection, pushdown predicates, and `latest` group when no
    /// residual filter precedes it) is served from the catalog as an
    /// incrementally maintained view, caught up to a snapshot pinned by
    /// this call; the rest runs as a post-pass over that frame. Plans
    /// with no post-pass share the maintained snapshot allocation (`Arc` clone — cheap when
    /// nothing changed since the last call). A `latest` group column
    /// missing from the pivoted frame errors like the from-scratch path.
    pub fn plan(&self, plan: &QueryPlan) -> StoreResult<Arc<DataFrame>> {
        let (pushdown, residual) = plan.split_predicates();
        let key = ViewKey::from_split(plan, pushdown, residual.is_empty());
        let base = {
            let mut g = self.inner.lock();
            let snap = self.catch_up(&mut g)?;
            self.ensure_view(&mut g, &key, &snap)?;
            if key.group.is_some() {
                self.materialize_latest(&mut g, &key)?
            } else {
                // audit: allow(panic) — ensure_view inserted this key two
                // lines up and the lock is still held.
                g.views.get(&key).expect("just ensured").pivot.frame()
            }
        };
        // `latest` runs in the post-pass only when a residual predicate
        // must filter rows first (the maintained key then has no group).
        let apply_latest = key.group.is_none() && plan.latest_group.is_some();
        if plan.post_pass_is_identity(&residual, apply_latest) {
            return Ok(base);
        }
        plan.post_pass(&base, &residual, apply_latest).map(Arc::new)
    }

    /// Materialize the `latest` output of an already-ensured view, with
    /// per-view caching (invalidated whenever the pivot moves).
    fn materialize_latest(
        &self,
        g: &mut CatalogInner,
        key: &ViewKey,
    ) -> StoreResult<Arc<DataFrame>> {
        // audit: allow(panic) — both callers run ensure_view first and
        // only take this path when key.group is Some, under one lock hold.
        let view = g.views.get_mut(key).expect("caller ensured the view");
        // audit: allow(panic) — same caller contract as above
        let group = key
            .group
            .as_ref()
            .expect("caller checked the key is grouped");
        if let Some(cached) = &view.latest_frame {
            return Ok(Arc::clone(cached));
        }
        let frame = view.pivot.frame();
        // Match the oracle's semantics exactly: an empty view skips the
        // dedup and keeps its columns, unknown group columns error.
        let out = if frame.n_rows() == 0 {
            frame
        } else {
            for gcol in group {
                if frame.column(gcol).is_none() {
                    return Err(StoreError::Df(DfError::UnknownColumn(gcol.clone())));
                }
            }
            // The per-key upsert state is only sound when every group
            // column is an index column (fixed or loop dimension): those
            // cells are written once per row. Grouping by a *value* column
            // is legal but unstable — an upsert can rewrite the cell and
            // silently move the row between groups — so recompute the
            // filter from the maintained frame instead. Decided per
            // materialization because dimensions are discovered lazily; a
            // column's class is fixed from the moment it exists.
            let stable = group.iter().all(|gcol| view.pivot.is_index_col(gcol));
            match (&view.latest, stable) {
                (Some(latest), true) => {
                    let keep = latest.surviving_rows();
                    Arc::new(frame.take(&keep))
                }
                _ => {
                    let gs: Vec<&str> = group.iter().map(String::as_str).collect();
                    Arc::new(frame.latest(&gs, "tstamp").map_err(StoreError::Df)?)
                }
            }
        };
        view.latest_frame = Some(Arc::clone(&out));
        Ok(out)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CatalogStats {
        self.inner.lock().stats.clone()
    }

    /// Pin one snapshot and bring every cached view to it: read the
    /// `loops` and `logs` rows past the watermarks once, apply them to
    /// each view, and advance the watermarks. A view that rejects a row
    /// falls back to a rebuild at the same snapshot and is dropped if the
    /// rebuild fails. With no view cached there is nothing to read: the
    /// watermarks jump. Returns the snapshot, for building misses at it.
    fn catch_up(&self, g: &mut CatalogInner) -> StoreResult<Snapshot> {
        let started = self.metrics.registry.enabled().then(Instant::now);
        let snap = self.db.pin();
        let from = g.at;
        if snap.epoch() == from.epoch {
            return Ok(snap);
        }
        if g.views.is_empty() {
            // A read from past every row returns only the watermark.
            g.at = Watermark {
                epoch: snap.epoch(),
                loops: snap.since("loops", usize::MAX)?.1,
                logs: snap.since("logs", usize::MAX)?.1,
            };
            return Ok(snap);
        }
        let (loops, next_loops) = snap.since("loops", from.loops)?;
        let (logs, next_logs) = snap.since("logs", from.logs)?;
        g.at = Watermark {
            epoch: snap.epoch(),
            loops: next_loops,
            logs: next_logs,
        };
        g.stats.batches_applied += snap.epoch().saturating_sub(from.epoch);
        g.stats.deltas_applied += (loops.n_rows() + logs.n_rows()) as u64;
        let keys: Vec<ViewKey> = g.views.keys().cloned().collect();
        for key in keys {
            // audit: allow(panic) — keys were cloned from this map under
            // the same lock hold; only `rebuild` removes an entry, and
            // only the one it is handed.
            let view = g.views.get_mut(&key).expect("key from live map");
            // Rows can widen the pivot's schema without materializing
            // any row (a pushdown-excluded row discovering a new loop
            // dimension), so the cached latest output is stale whenever
            // rows changed *or* columns appeared.
            let cols_before = view.pivot.frame().n_cols();
            match view.pivot.apply(&loops, &logs) {
                Ok(changed) => {
                    if !changed.is_empty() || view.pivot.frame().n_cols() != cols_before {
                        view.latest_frame = None;
                        if let Some(latest) = &mut view.latest {
                            latest.observe(&view.pivot.frame(), &changed);
                        }
                    }
                }
                Err(_) => self.rebuild(g, key, &snap),
            }
        }
        if let Some(started) = started {
            self.metrics
                .refresh_nanos
                .record_duration(started.elapsed());
        }
        Ok(snap)
    }

    /// Transparent fallback for a view that rejected a row: rebuild it
    /// from `snap`. A view that cannot be rebuilt (a value name now
    /// collides with an index column) is dropped, so the next plan that
    /// needs it builds it and gets the error.
    fn rebuild(&self, g: &mut CatalogInner, key: ViewKey, snap: &Snapshot) {
        g.stats.fallback_rebuilds += 1;
        if self.metrics.registry.enabled() {
            self.metrics.rebuilds.inc();
            self.metrics.registry.event_at(
                flor_obs::Level::Warn,
                "view.rebuild",
                key.fingerprint(),
            );
        }
        let last_used = g.views.remove(&key).map_or(0, |v| v.last_used);
        if let Ok(rebuilt) = self.build(&key, snap) {
            g.views.insert(
                key,
                CachedView {
                    last_used,
                    ..rebuilt
                },
            );
        }
    }

    /// Serve `key` from cache or build it; touches the LRU clock and
    /// enforces the capacity bound.
    fn ensure_view(&self, g: &mut CatalogInner, key: &ViewKey, snap: &Snapshot) -> StoreResult<()> {
        g.clock += 1;
        let clock = g.clock;
        if let Some(view) = g.views.get_mut(key) {
            view.last_used = clock;
            g.stats.hits += 1;
            if self.metrics.registry.enabled() {
                self.metrics.hits.inc();
            }
            return Ok(());
        }
        g.stats.misses += 1;
        if self.metrics.registry.enabled() {
            self.metrics.misses.inc();
        }
        let mut built = self.build(key, snap)?;
        built.last_used = clock;
        g.views.insert(key.clone(), built);
        while g.views.len() > self.capacity {
            let coldest = g
                .views
                .iter()
                .filter(|(k, _)| *k != key)
                .min_by_key(|(_, v)| v.last_used)
                .map(|(k, _)| k.clone())
                // audit: allow(panic) — len > capacity >= 1 and the filter
                // drops exactly one key, so an eviction candidate remains.
                .expect("capacity >= 1 so another view exists");
            g.views.remove(&coldest);
            g.stats.evictions += 1;
        }
        Ok(())
    }

    /// Build a view at `snap`, the snapshot every cached view was just
    /// caught up to, so the catalog's one watermark holds for it too.
    ///
    /// The build is the snapshot pivot `Flor::execute_at` runs, over the
    /// plan of the key's names and pushdown predicates
    /// ([`PivotState::at`]): the fetch reads only the projected rows the
    /// pushdown admits, and the loop contexts and the schema pass come
    /// from the snapshot's per-segment summaries, shared with every other
    /// view and query rather than read and resolved again per build.
    fn build(&self, key: &ViewKey, snap: &Snapshot) -> StoreResult<CachedView> {
        let _build = Span::enter(&self.metrics.registry, &self.metrics.build_nanos);
        let pivot = PivotState::at(snap, &key.names, &key.pushdown)?;
        // Latest views always carry upsert state; whether it is *used*
        // (vs. recomputing from the frame) is decided per materialization,
        // based on the pivot's actual index columns.
        let latest = key.group.as_ref().map(|group| {
            let gs: Vec<&str> = group.iter().map(String::as_str).collect();
            let mut state = LatestState::new(&gs);
            let frame = pivot.frame();
            let all_rows: Vec<usize> = (0..frame.n_rows()).collect();
            state.observe(&frame, &all_rows);
            state
        });
        Ok(CachedView {
            pivot,
            latest,
            latest_frame: None,
            last_used: 0,
        })
    }
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

    #[test]
    fn view_refreshes_incrementally() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        db.insert("logs", log_row(1, "loss", "10")).unwrap();
        db.commit().unwrap();
        let v1 = catalog.plan(&QueryPlan::new(&["loss"])).unwrap();
        assert_eq!(v1.n_rows(), 1);
        assert_eq!(catalog.stats().misses, 1);

        db.insert("logs", log_row(2, "loss", "20")).unwrap();
        db.commit().unwrap();
        let v2 = catalog.plan(&QueryPlan::new(&["loss"])).unwrap();
        assert_eq!(v2.n_rows(), 2);
        let s = catalog.stats();
        assert_eq!(s.misses, 1, "second call must reuse the cached view");
        assert_eq!(s.hits, 1);
        assert!(s.deltas_applied >= 1);
        // The earlier snapshot is unaffected (copy-on-write).
        assert_eq!(v1.n_rows(), 1);
    }

    #[test]
    fn repeated_queries_share_one_snapshot() {
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        db.insert("logs", log_row(1, "x", "1")).unwrap();
        db.commit().unwrap();
        let a = catalog.plan(&QueryPlan::new(&["x"])).unwrap();
        let b = catalog.plan(&QueryPlan::new(&["x"])).unwrap();
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
        catalog.plan(&QueryPlan::new(&["a"])).unwrap();
        catalog.plan(&QueryPlan::new(&["b"])).unwrap();
        catalog.plan(&QueryPlan::new(&["a"])).unwrap(); // touch: "b" is now coldest
        catalog.plan(&QueryPlan::new(&["c"])).unwrap();
        assert_eq!(catalog.stats().evictions, 1);
        // "a" and "c" are still cached; "b" was evicted and builds again.
        let misses = catalog.stats().misses;
        catalog.plan(&QueryPlan::new(&["a"])).unwrap();
        catalog.plan(&QueryPlan::new(&["c"])).unwrap();
        assert_eq!(catalog.stats().misses, misses);
        catalog.plan(&QueryPlan::new(&["b"])).unwrap();
        assert_eq!(catalog.stats().misses, misses + 1);
    }

    #[test]
    fn plan_with_pushdown_maintains_filtered_view() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        for ts in 1..=4 {
            db.insert("logs", log_row(ts, "loss", &ts.to_string()))
                .unwrap();
        }
        db.commit().unwrap();
        let plan = QueryPlan::new(&["loss"]).filter("tstamp", CmpOp::Ge, 3);
        let v = catalog.plan(&plan).unwrap();
        assert_eq!(v.n_rows(), 2);
        // New commits land as deltas on the filtered view: no new build.
        db.insert("logs", log_row(5, "loss", "5")).unwrap();
        db.insert("logs", log_row(0, "loss", "0")).unwrap();
        db.commit().unwrap();
        let v = catalog.plan(&plan).unwrap();
        assert_eq!(v.n_rows(), 3, "ts=5 admitted, ts=0 filtered out");
        assert_eq!(catalog.stats().misses, 1);
        // A plan with no post-pass shares the maintained allocation.
        let again = catalog.plan(&plan).unwrap();
        assert!(Arc::ptr_eq(&v, &again));
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
        let base = QueryPlan::new(&["x"]).filter("tstamp", CmpOp::Gt, 1);
        let limited = QueryPlan {
            order_by: vec![("tstamp".into(), false)],
            limit: Some(2),
            ..base.clone()
        };
        assert_eq!(catalog.plan(&base).unwrap().n_rows(), 4);
        let top = catalog.plan(&limited).unwrap();
        assert_eq!(top.n_rows(), 2);
        assert_eq!(top.get(0, "tstamp"), Some(&Value::Int(5)));
        // Same maintained part → one build, differing post-passes only.
        assert_eq!(catalog.stats().misses, 1);
        // Predicate call order does not split the cache either: one more
        // build serves both orders.
        let swapped = QueryPlan::new(&["x"])
            .filter("tstamp", CmpOp::Lt, 9)
            .filter("tstamp", CmpOp::Gt, 1);
        let canon = QueryPlan::new(&["x"])
            .filter("tstamp", CmpOp::Gt, 1)
            .filter("tstamp", CmpOp::Lt, 9);
        catalog.plan(&swapped).unwrap();
        catalog.plan(&canon).unwrap();
        assert_eq!(catalog.stats().misses, 2);
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
        let v = catalog.plan(&plan).unwrap();
        assert_eq!(v.n_rows(), 1);
        assert_eq!(v.get(0, "acc"), Some(&Value::Int(2)));
        // The maintained view is the plain pivot (group lowered away).
        assert_eq!(catalog.stats().misses, 1);
        catalog.plan(&QueryPlan::new(&["acc"])).unwrap();
        assert_eq!(catalog.stats().misses, 1);
    }

    #[test]
    fn excluded_delta_widening_schema_invalidates_latest_cache() {
        // Regression: a pushdown-excluded log row can widen the pivot's
        // schema (new loop dimension) while materializing no row; the
        // cached `latest` output must still be invalidated, or it serves
        // a stale column set.
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        db.insert("logs", log_row(1, "loss", "10")).unwrap();
        db.commit().unwrap();
        let plan = QueryPlan {
            latest_group: Some(vec!["projid".into()]),
            ..QueryPlan::new(&["loss"])
        }
        .filter("tstamp", CmpOp::Le, 1);
        let v = catalog.plan(&plan).unwrap();
        assert_eq!(
            v.column_names(),
            vec!["projid", "tstamp", "filename", "loss"]
        );
        // Excluded by the pushdown gate, but discovers the "batch" dims.
        db.insert(
            "loops",
            vec![
                "p".into(),
                2.into(),
                "f.fl".into(),
                9.into(),
                0.into(),
                "batch".into(),
                0.into(),
                "0".into(),
            ],
        )
        .unwrap();
        db.insert(
            "logs",
            vec![
                "p".into(),
                2.into(),
                "f.fl".into(),
                9.into(),
                "loss".into(),
                "20".into(),
                2.into(),
            ],
        )
        .unwrap();
        db.commit().unwrap();
        let v = catalog.plan(&plan).unwrap();
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
        assert_eq!(v.n_rows(), 1, "the ts=2 row itself stays excluded");
        assert_eq!(catalog.stats().fallback_rebuilds, 0);
    }

    #[test]
    fn view_key_fingerprint_renders_plan() {
        use flor_store::CmpOp;
        let plan =
            QueryPlan::with_latest(&["loss", "acc"], &["projid"]).filter("tstamp", CmpOp::Ge, 2);
        let (pushdown, residual) = plan.split_predicates();
        let key = ViewKey::from_split(&plan, pushdown, residual.is_empty());
        assert_eq!(
            key.fingerprint(),
            "pivot[loss,acc] where tstamp >= Int(2) latest by [projid]"
        );
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
        let latest = catalog
            .plan(&QueryPlan::with_latest(&["acc"], &["projid"]))
            .unwrap();
        assert_eq!(latest.n_rows(), 1);
        assert_eq!(latest.get(0, "acc"), Some(&Value::Int(3)));
        let again = catalog
            .plan(&QueryPlan::with_latest(&["acc"], &["projid"]))
            .unwrap();
        assert!(Arc::ptr_eq(&latest, &again));
        // Unknown group column errors like the from-scratch path.
        assert!(catalog
            .plan(&QueryPlan::with_latest(&["acc"], &["nope"]))
            .is_err());
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
        let first = catalog
            .plan(&QueryPlan::with_latest(&["loss", "acc"], &["projid"]))
            .unwrap();
        assert_eq!(first.n_rows(), 1);
        // Same (projid, tstamp, filename, ctx): lands in the existing row.
        db.insert("logs", log_row(1, "acc", "7")).unwrap();
        db.commit().unwrap();
        let after = catalog
            .plan(&QueryPlan::with_latest(&["loss", "acc"], &["projid"]))
            .unwrap();
        assert_eq!(after.n_rows(), 1, "upsert must not duplicate the row");
        assert_eq!(after.get(0, "acc"), Some(&Value::Int(7)));
        let oracle = catalog
            .plan(&QueryPlan::new(&["loss", "acc"]))
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
        catalog
            .plan(&QueryPlan::with_latest(
                &["f1_value", "score"],
                &["f1_value"],
            ))
            .unwrap();
        // Re-log moves the row to group "b"; tstamp unchanged.
        db.insert("logs", str_row(1, "f1_value", "b")).unwrap();
        db.commit().unwrap();
        let latest = catalog
            .plan(&QueryPlan::with_latest(
                &["f1_value", "score"],
                &["f1_value"],
            ))
            .unwrap();
        let oracle = catalog
            .plan(&QueryPlan::new(&["f1_value", "score"]))
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
        // 19,200 rows over 300 commits land while the view sits idle:
        // one read catches it up, with no rebuild.
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        let plan = QueryPlan::new(&["x"]);
        db.insert("logs", log_row(0, "x", "0")).unwrap();
        db.commit().unwrap();
        catalog.plan(&plan).unwrap();
        let (commits, per_commit) = (300u64, 64i64);
        for c in 0..commits as i64 {
            for r in 1..=per_commit {
                let ts = c * per_commit + r;
                db.insert("logs", log_row(ts, "x", &ts.to_string()))
                    .unwrap();
            }
            db.commit().unwrap();
        }
        let view = catalog.plan(&plan).unwrap();
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
        catalog.plan(&plan).unwrap();
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
        let view = catalog.plan(&plan).unwrap();
        assert_eq!(*view, full(&db, &plan));
        assert_eq!(view.n_rows(), 30 + 3, "ts 1, 4 and 7 are new rows");
        let stats = catalog.stats();
        assert_eq!((stats.misses, stats.fallback_rebuilds), (1, 0));
    }

    #[test]
    fn a_latest_view_whose_pushdown_admits_no_row_keeps_its_columns() {
        use flor_store::CmpOp;
        let db = Database::in_memory(flor_schema());
        let catalog = ViewCatalog::new(db.clone(), 4);
        // Two runs of an `epoch` loop over two iterations, logging `loss`.
        for ts in 1..=2i64 {
            for e in 0..2i64 {
                let ctx = ts * 10 + e;
                let link = vec![
                    "p".into(),
                    ts.into(),
                    "f.fl".into(),
                    ctx.into(),
                    0.into(),
                    "epoch".into(),
                    e.into(),
                    e.to_string().into(),
                ];
                db.insert("loops", link).unwrap();
                let mut row = log_row(ts, "loss", &e.to_string());
                row[3] = ctx.into();
                db.insert("logs", row).unwrap();
            }
            db.commit().unwrap();
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
            let v = catalog.plan(&plan).unwrap();
            assert_eq!(v.n_rows(), 0);
            assert_eq!(v.column_names(), columns, "latest by {group:?}");
        }
    }
}

//! The segment compaction planner: merge cold sealed segments, drop
//! latest-wins dead rows.
//!
//! PR 4's MVCC layout seals every commit into immutable segments and
//! coalesces only the small tail; the sealed middle is never merged, and
//! latest-wins tables (`jobs` state transitions) accumulate dead rows
//! every scan still touches. This module plans the maintenance pass
//! [`crate::Database::compact_with`] executes:
//!
//! 1. **Liveness fold.** For tables with a declared
//!    [`LatestWins`] policy, one pass over the pinned version computes
//!    the winning row per key (max `ord`, ties to the oldest row — the
//!    `recover_records` convention — or pure insertion order without an
//!    `ord` column) and the carry-forward rows the fold still needs
//!    (`jobs.payload` lands only on a job's first transition).
//!    Everything else is dead.
//! 2. **Run selection.** Adjacent segments are grouped into runs of at
//!    most `target_segment_rows` live rows; a run is rewritten when it
//!    merges ≥ 2 segments, drops ≥ 1 dead row, or — on a table with a
//!    declared [`crate::schema::ClusterBy`] — still holds unsorted rows,
//!    and passed through untouched (same `Arc`) otherwise.
//! 3. **Clustering.** Rewritten runs of a clustered table are sorted by
//!    the cluster column (ties by global row id, so the sort is stable
//!    in insertion order) before chunking, which makes the output
//!    chunks' zone maps **disjoint** on that column: a range scan prunes
//!    every chunk but the overlapping ones and binary-searches into
//!    those.
//!
//! The plan is computed against a pinned version with no lock held; the
//! publish step validates, under the write lock, that the planned
//! segments are still the table's segments (by pointer identity) and
//! retries the table when a concurrent commit folded the tail meanwhile.
//!
//! Rewritten segments keep their rows' original global row ids through an
//! explicit rid map (`Segment::seal_mapped`), so index postings and
//! pinned readers agree on identity across compactions; rid holes are why
//! `TableVersion::row` returns `Option`.

use crate::schema::LatestWins;
use crate::segment::{Segment, TableVersion};
use flor_df::Value;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Tuning knobs for one compaction pass. The default is the explicit
/// "compact whatever is worth compacting" policy: any dead row is worth
/// dropping, any mergeable run is worth merging.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionPolicy {
    /// Drop dead rows only when a table has at least this many.
    pub min_dead_rows: usize,
    /// ... and the dead fraction of the table is at least this.
    pub min_dead_ratio: f64,
    /// Cap on live rows per merged segment: runs close at this size, so
    /// compaction also right-sizes segments for zone-map pruning instead
    /// of producing one monolith per table.
    pub target_segment_rows: usize,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            min_dead_rows: 1,
            min_dead_ratio: 0.0,
            target_segment_rows: 4096,
        }
    }
}

/// When the commit layer triggers a background compaction (see
/// [`crate::Database::set_auto_compact`]). The commit path pays one
/// counter bump; the dead-row analysis runs on the spawned thread.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionTrigger {
    /// Appended rows between trigger evaluations.
    pub check_every_rows: u64,
    /// The policy the background pass runs with.
    pub policy: CompactionPolicy,
}

impl Default for CompactionTrigger {
    fn default() -> CompactionTrigger {
        CompactionTrigger {
            check_every_rows: 4096,
            policy: CompactionPolicy {
                // Conservative background thresholds: don't churn tables
                // whose dead fraction is still small.
                min_dead_rows: 1024,
                min_dead_ratio: 0.25,
                target_segment_rows: 4096,
            },
        }
    }
}

/// Summary of one completed [`crate::Database::compact_with`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Tables whose segment list was replaced.
    pub tables_compacted: usize,
    /// Runs of adjacent segments merged into one.
    pub runs_merged: usize,
    /// Segments across all tables before the pass.
    pub segments_before: usize,
    /// Segments across all tables after the pass.
    pub segments_after: usize,
    /// Superseded rows dropped.
    pub rows_dropped: usize,
    /// Live rows copied into merged segments (the rewrite cost).
    pub rows_rewritten: usize,
}

/// One table's planned replacement: the segments to swap out (kept for
/// pointer-identity validation at publish time) and what replaces them.
pub(crate) struct TableCompaction {
    /// The exact segment list this plan replaces — the table's segments
    /// at planning time.
    pub source: Vec<Arc<Segment>>,
    /// Their replacement (merged/pruned, or pass-through `Arc`s).
    pub new_segments: Vec<Arc<Segment>>,
    /// Runs of ≥ 2 segments merged.
    pub runs_merged: usize,
    /// Dead rows dropped.
    pub rows_dropped: usize,
    /// Live rows copied into rewritten segments.
    pub rows_rewritten: usize,
}

/// The global row ids a latest-wins fold of `t` retains: per key, the
/// winning row (max `ord`, ties to the oldest rid — the
/// `recover_records` convention) plus — per carry-forward column whose
/// winner cell is empty — the oldest row holding a non-empty value.
fn retained_rids(t: &TableVersion, lw: &LatestWins) -> HashSet<usize> {
    let key_pos: Vec<usize> = lw
        .key
        .iter()
        .filter_map(|c| t.schema.col_index(c))
        .collect();
    let ord_pos = lw.ord.as_ref().and_then(|c| t.schema.col_index(c));
    let carry_pos: Vec<usize> = lw
        .carry_first
        .iter()
        .filter_map(|c| t.schema.col_index(c))
        .collect();
    // A policy naming any unknown column can't be folded faithfully —
    // a typo'd `ord` would silently change which row wins, a typo'd
    // carry column would drop the carrier. Keep every row instead.
    if key_pos.len() != lw.key.len()
        || ord_pos.is_none() != lw.ord.is_none()
        || carry_pos.len() != lw.carry_first.len()
    {
        return all_rids(t);
    }
    struct KeyState {
        winner_rid: usize,
        winner_ord: Option<Value>,
        /// Per carry column: oldest rid with a non-empty cell.
        carry_rid: Vec<Option<usize>>,
    }
    let mut keys: HashMap<Vec<Value>, KeyState> = HashMap::new();
    for seg in &t.segments {
        for local in 0..seg.len() {
            let rid = seg.rid_at(local);
            let key: Vec<Value> = key_pos.iter().map(|&p| seg.cell(local, p)).collect();
            let ord = ord_pos.map(|p| seg.cell(local, p));
            let entry = keys.entry(key).or_insert_with(|| KeyState {
                winner_rid: rid,
                winner_ord: ord.clone(),
                carry_rid: vec![None; carry_pos.len()],
            });
            // Segments are walked in ascending rid order. With an `ord`
            // column a strictly greater value wins (ties keep the older
            // row — the `recover_records` fold convention); without one,
            // insertion order decides and the newest row wins.
            let wins = match (&ord, &entry.winner_ord) {
                (Some(a), Some(b)) => a > b,
                _ => true,
            };
            if rid != entry.winner_rid && wins {
                entry.winner_rid = rid;
                entry.winner_ord = ord;
            }
            for (ci, &p) in carry_pos.iter().enumerate() {
                if entry.carry_rid[ci].is_none() && !cell_is_empty(&seg.cell(local, p)) {
                    entry.carry_rid[ci] = Some(rid);
                }
            }
        }
    }
    let mut retained = HashSet::with_capacity(keys.len());
    for state in keys.values() {
        retained.insert(state.winner_rid);
        if carry_pos.is_empty() {
            continue;
        }
        // audit: allow(panic) — winner_rid was recorded while scanning
        // this same table's rows, so the row lookup cannot miss.
        let winner = t.row(state.winner_rid).expect("winner rid is retained");
        for (ci, &p) in carry_pos.iter().enumerate() {
            if cell_is_empty(&winner[p]) {
                if let Some(rid) = state.carry_rid[ci] {
                    retained.insert(rid);
                }
            }
        }
    }
    retained
}

fn all_rids(t: &TableVersion) -> HashSet<usize> {
    t.segments
        .iter()
        .flat_map(|s| (0..s.len()).map(move |i| s.rid_at(i)))
        .collect()
}

/// "Empty" for carry-forward purposes: a null, or text of length zero —
/// the shape of a `jobs.payload` cell on every transition after the
/// first.
fn cell_is_empty(v: &Value) -> bool {
    match v {
        Value::Null => true,
        Value::Str(s) => s.is_empty(),
        _ => false,
    }
}

/// Dead-row count for one table version under its declared policy (0
/// without one) — the observability fold behind
/// [`crate::Database::dead_rows`].
pub(crate) fn dead_rows(t: &TableVersion) -> usize {
    match &t.schema.latest_wins {
        None => 0,
        Some(lw) => t.total_rows - retained_rids(t, lw).len(),
    }
}

/// Plan one table's compaction, or `None` when there is nothing worth
/// doing. Pure read over the pinned version; builds the replacement
/// segments eagerly (still off-lock — the caller publishes them).
pub(crate) fn plan_table(t: &TableVersion, policy: &CompactionPolicy) -> Option<TableCompaction> {
    let k = t.segments.len();
    if k == 0 {
        return None;
    }
    let retained = t.schema.latest_wins.as_ref().map(|lw| retained_rids(t, lw));
    let droppable: usize = match &retained {
        None => 0,
        Some(r) => t.total_rows - r.len(),
    };
    let drop_mode = droppable >= policy.min_dead_rows.max(1)
        && droppable as f64 >= policy.min_dead_ratio * t.total_rows as f64;
    let keep =
        |rid: usize| -> bool { !drop_mode || retained.as_ref().is_none_or(|r| r.contains(&rid)) };
    // Group the segments into runs of at most target_segment_rows live
    // rows (an oversized single segment forms its own run).
    let live: Vec<usize> = t
        .segments
        .iter()
        .map(|s| (0..s.len()).filter(|&i| keep(s.rid_at(i))).count())
        .collect();
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let (mut run_start, mut run_live) = (0usize, 0usize);
    for (i, &n) in live.iter().enumerate() {
        if i > run_start && run_live + n > policy.target_segment_rows {
            runs.push((run_start, i));
            run_start = i;
            run_live = 0;
        }
        run_live += n;
    }
    runs.push((run_start, k));

    let mut plan = TableCompaction {
        source: t.segments.clone(),
        new_segments: Vec::new(),
        runs_merged: 0,
        rows_dropped: 0,
        rows_rewritten: 0,
    };
    // Clustering: rewritten runs are sorted by the declared cluster
    // column (ties broken by rid, i.e. insertion order), making the
    // output chunks' zone maps disjoint on that column — range scans
    // then binary-search into them.
    let cluster_pos = t
        .schema
        .cluster_by
        .as_ref()
        .and_then(|c| t.schema.col_index(&c.column));
    let mut rewrote = false;
    for &(a, b) in &runs {
        let run_rows: usize = t.segments[a..b].iter().map(|s| s.len()).sum();
        let run_live: usize = live[a..b].iter().sum();
        let cluster_ok = match cluster_pos {
            None => true,
            // An unsorted segment of a clustered table is worth a
            // rewrite even when right-sized: once sorted, the next pass
            // passes it through — compaction stays idempotent.
            Some(ci) => t.segments[a].sorted_by == Some(ci),
        };
        if b - a == 1
            && run_live == run_rows
            && run_rows <= policy.target_segment_rows
            && cluster_ok
        {
            // Nothing to merge, drop, split or sort: pass it through.
            plan.new_segments.push(Arc::clone(&t.segments[a]));
            continue;
        }
        // Rewrite the run, chunking the output at target_segment_rows —
        // this both caps merged segments and *splits* an oversized
        // monolith (e.g. a pre-chunking recovery segment) so zone maps
        // get ranges narrow enough to prune.
        rewrote = true;
        let mut pending: Vec<(usize, Vec<Value>)> = Vec::new();
        for seg in &t.segments[a..b] {
            for local in 0..seg.len() {
                let rid = seg.rid_at(local);
                if keep(rid) {
                    pending.push((rid, seg.row_at(local)));
                } else {
                    plan.rows_dropped += 1;
                }
            }
        }
        if let Some(ci) = cluster_pos {
            pending.sort_by(|x, y| x.1[ci].cmp(&y.1[ci]).then(x.0.cmp(&y.0)));
        }
        let mut chunks: Vec<Arc<Segment>> = Vec::new();
        let mut rids: Vec<usize> = Vec::new();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (rid, row) in pending {
            rids.push(rid);
            rows.push(row);
            if rows.len() >= policy.target_segment_rows {
                chunks.push(Arc::new(Segment::seal_mapped(
                    &t.schema,
                    std::mem::take(&mut rids),
                    std::mem::take(&mut rows),
                )));
            }
        }
        if !rows.is_empty() {
            chunks.push(Arc::new(Segment::seal_mapped(&t.schema, rids, rows)));
        }
        plan.rows_rewritten += chunks.iter().map(|s| s.len()).sum::<usize>();
        plan.new_segments.extend(chunks);
        if b - a > 1 {
            plan.runs_merged += 1;
        }
    }
    if !rewrote {
        return None;
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::query::{CmpOp, Predicate};
    use crate::segment::SEGMENT_COALESCE_ROWS;
    use crate::testing::{lw_schema, tiny_schema};
    use flor_df::{DataFrame, Value};
    use std::collections::HashMap;

    #[test]
    fn default_policy_is_eager_and_trigger_is_conservative() {
        let p = CompactionPolicy::default();
        assert_eq!(p.min_dead_rows, 1);
        assert_eq!(p.min_dead_ratio, 0.0);
        let t = CompactionTrigger::default();
        assert!(t.policy.min_dead_rows > p.min_dead_rows);
        assert!(t.policy.min_dead_ratio > 0.0);
    }

    #[test]
    fn empty_cell_detection() {
        assert!(cell_is_empty(&Value::Null));
        assert!(cell_is_empty(&Value::Str("".into())));
        assert!(!cell_is_empty(&Value::Str("x".into())));
        assert!(!cell_is_empty(&Value::Int(0)));
    }

    #[test]
    fn compaction_merges_cold_segments_preserving_scans() {
        let db = Database::in_memory(tiny_schema());
        for batch in 0..5 {
            for i in 0..SEGMENT_COALESCE_ROWS {
                db.insert(
                    "t",
                    vec![
                        format!("k{batch}").into(),
                        ((batch * 10_000 + i) as i64).into(),
                    ],
                )
                .unwrap();
            }
            db.commit().unwrap();
        }
        assert_eq!(db.stats().segments, 5);
        let before = db.scan("t").unwrap();
        let pinned = db.pin();
        let stats = db.compact().unwrap();
        assert_eq!(stats.tables_compacted, 1);
        assert_eq!(stats.rows_dropped, 0, "no latest-wins policy declared");
        assert!(stats.segments_after < stats.segments_before);
        // Scans, pinned or fresh, are byte-identical across the swap.
        assert_eq!(db.scan("t").unwrap(), before);
        assert_eq!(pinned.scan("t").unwrap(), before);
        // Index lookups agree too (rids are preserved by the merge).
        let df = db.lookup("t", "k", &"k3".into()).unwrap();
        assert_eq!(df.n_rows(), SEGMENT_COALESCE_ROWS);
        // A second pass finds nothing left to do.
        let again = db.compact().unwrap();
        assert_eq!(again.tables_compacted, 0);
    }

    #[test]
    fn compaction_drops_superseded_rows_and_keeps_carry_payload() {
        let db = Database::in_memory(lw_schema());
        // 4 generations of the same 128 keys; the payload lands only on
        // generation 0 (the `jobs.payload` shape).
        for gen in 0..4i64 {
            for k in 0..128i64 {
                let p = if gen == 0 {
                    format!("pay{k}")
                } else {
                    String::new()
                };
                db.insert("t", vec![k.into(), gen.into(), p.into()])
                    .unwrap();
            }
            db.commit().unwrap();
        }
        assert_eq!(db.dead_rows("t").unwrap(), 256, "2 middle generations dead");
        let pinned = db.pin();
        let before = pinned.scan("t").unwrap();
        let stats = db.compact().unwrap();
        assert_eq!(stats.rows_dropped, 256);
        assert_eq!(db.dead_rows("t").unwrap(), 0);
        // Live rows: 128 winners (gen 3) + 128 carry rows (gen 0, payload).
        let snap = db.pin();
        assert_eq!(snap.live_rows("t").unwrap(), 256);
        let df = snap.scan("t").unwrap();
        // The latest-wins fold over the compacted scan matches the fold
        // over the uncompacted oracle: max s per key, payload carried.
        let fold = |df: &DataFrame| -> Vec<(i64, i64, String)> {
            let mut best: HashMap<i64, (i64, String)> = HashMap::new();
            let mut pay: HashMap<i64, String> = HashMap::new();
            for r in df.rows() {
                let k = r.get("k").and_then(Value::as_i64).unwrap();
                let s = r.get("s").and_then(Value::as_i64).unwrap();
                let p = r.get("p").map(|v| v.to_text()).unwrap_or_default();
                if !p.is_empty() {
                    pay.entry(k).or_insert(p.clone());
                }
                match best.get(&k) {
                    Some((prev, _)) if *prev >= s => {}
                    _ => {
                        best.insert(k, (s, p));
                    }
                }
            }
            let mut out: Vec<(i64, i64, String)> = best
                .into_iter()
                .map(|(k, (s, p))| {
                    let p = if p.is_empty() {
                        pay.get(&k).cloned().unwrap_or_default()
                    } else {
                        p
                    };
                    (k, s, p)
                })
                .collect();
            out.sort();
            out
        };
        assert_eq!(fold(&df), fold(&before));
        assert_eq!(fold(&df)[5], (5, 3, "pay5".to_string()));
        // The pre-compaction pin still re-reads every superseded row.
        assert_eq!(pinned.scan("t").unwrap(), before);
        assert_eq!(pinned.row_count("t").unwrap(), 512);
        // Indexed lookups against the compacted version return only live
        // rows, in insertion order.
        let hits = db.lookup("t", "k", &7i64.into()).unwrap();
        assert_eq!(hits.n_rows(), 2);
        assert_eq!(hits.get(0, "s"), Some(&Value::Int(0)));
        assert_eq!(hits.get(1, "s"), Some(&Value::Int(3)));
    }

    #[test]
    fn appends_after_compaction_use_fresh_rids() {
        let db = Database::in_memory(lw_schema());
        for gen in 0..2i64 {
            for k in 0..256i64 {
                db.insert("t", vec![k.into(), gen.into(), "".into()])
                    .unwrap();
            }
            db.commit().unwrap();
        }
        db.compact().unwrap();
        let live_before = db.pin().live_rows("t").unwrap();
        assert_eq!(live_before, 256);
        // New commits append past the rid high watermark; their rows are
        // reachable by index and by scan, and never collide with holes.
        for k in 0..10i64 {
            db.insert("t", vec![k.into(), 99i64.into(), "".into()])
                .unwrap();
        }
        db.commit().unwrap();
        let hits = db.lookup("t", "k", &3i64.into()).unwrap();
        assert_eq!(hits.n_rows(), 2);
        assert_eq!(
            hits.column("s").unwrap().values,
            vec![Value::Int(1), Value::Int(99)]
        );
        assert_eq!(db.pin().live_rows("t").unwrap(), 266);
    }

    #[test]
    fn compaction_splits_oversized_segments() {
        // A monolithic segment (here: one giant commit) is split at
        // target_segment_rows so zone maps get prunable ranges.
        let db = Database::in_memory(tiny_schema());
        for i in 0..5000i64 {
            db.insert("t", vec![format!("k{i}").into(), i.into()])
                .unwrap();
        }
        db.commit().unwrap();
        assert_eq!(db.stats().segments, 1);
        let before = db.scan("t").unwrap();
        let stats = db
            .compact_with(&CompactionPolicy {
                target_segment_rows: 1024,
                ..CompactionPolicy::default()
            })
            .unwrap();
        assert_eq!(stats.rows_dropped, 0);
        assert_eq!(db.stats().segments, 5, "5000 rows / 1024-row chunks");
        assert_eq!(db.scan("t").unwrap(), before);
        let preds = vec![Predicate::new("v", CmpOp::Lt, 1000)];
        let (visited, total) = db.pin().zone_prune_stats("t", &preds).unwrap();
        assert_eq!((visited, total), (1, 5));
        // Idempotent: chunks at the target size pass through untouched.
        let again = db
            .compact_with(&CompactionPolicy {
                target_segment_rows: 1024,
                ..CompactionPolicy::default()
            })
            .unwrap();
        assert_eq!(again.tables_compacted, 0);
    }

    #[test]
    fn auto_compaction_triggers_at_commit_layer() {
        let db = Database::in_memory(lw_schema());
        // 1024 appended rows = exactly the two generations below, so one
        // trigger fires, after the superseding commit.
        db.set_auto_compact(Some(CompactionTrigger {
            check_every_rows: 1024,
            policy: CompactionPolicy::default(),
        }));
        for gen in 0..2i64 {
            for k in 0..512i64 {
                db.insert("t", vec![k.into(), gen.into(), "".into()])
                    .unwrap();
            }
            db.commit().unwrap();
        }
        // The second commit superseded generation 0; the spawned
        // background pass must drop it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.stats().compactions == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "auto-compaction never ran"
            );
            std::thread::yield_now();
        }
        assert_eq!(db.pin().live_rows("t").unwrap(), 512);
        assert_eq!(db.stats().rows_dropped, 512);
        // Disabled trigger stays quiet.
        let quiet = Database::in_memory(lw_schema());
        quiet.set_auto_compact(None);
        for k in 0..600i64 {
            quiet
                .insert("t", vec![k.into(), 0i64.into(), "".into()])
                .unwrap();
        }
        quiet.commit().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(quiet.stats().compactions, 0);
    }
}

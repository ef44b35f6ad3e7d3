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
//!    [`crate::schema::LatestWins`] policy, one pass over the pinned
//!    version computes the winning row per key (max `ord`, ties to the
//!    smallest rid; without an `ord` column the largest rid) and, per
//!    carry-forward column, the smallest-rid row holding a value
//!    (`jobs.payload` lands only on a job's first transition). Winners
//!    and carriers are live; everything else is dead. The same fold is
//!    the store's one latest-wins read, [`crate::Snapshot::latest_wins`].
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
//! pinned readers agree on identity across compactions, and the
//! latest-wins fold, which decides by rid, reads the same afterwards.

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

/// Where a row of a table version sits: its rid, segment and offset.
#[derive(Clone, Copy)]
struct RowAt {
    rid: usize,
    seg: usize,
    local: usize,
}

/// One key's latest-wins decision.
struct KeyFold {
    /// The max-`ord` row, ties to the smallest rid (without an `ord`
    /// column: the largest rid).
    winner: RowAt,
    /// The winner's `ord` cell.
    ord: Option<Value>,
    /// Per carry column: the smallest-rid row whose cell is non-empty.
    carriers: Vec<Option<RowAt>>,
}

/// The latest-wins fold of `t` under its declared policy — one
/// [`KeyFold`] per key, in no particular order — and the carry columns'
/// positions. `None` when the table declares no policy, or one naming a
/// column it lacks: a typo'd `ord` would silently change which row wins
/// and a typo'd carry column would lose the carrier, so such a table is
/// read and kept whole.
///
/// Every decision compares rids, never walk order: a clustered
/// compaction permutes rows physically, and the fold must read the same
/// before and after it.
fn fold(t: &TableVersion) -> Option<(Vec<KeyFold>, Vec<usize>)> {
    let lw = t.schema.latest_wins.as_ref()?;
    let positions = |cols: &[String]| -> Option<Vec<usize>> {
        cols.iter().map(|c| t.schema.col_index(c)).collect()
    };
    let key_pos = positions(&lw.key)?;
    let carry_pos = positions(&lw.carry_first)?;
    let ord_pos = match &lw.ord {
        Some(c) => Some(t.schema.col_index(c)?),
        None => None,
    };
    let mut keys: HashMap<Vec<Value>, KeyFold> = HashMap::new();
    for (seg_i, seg) in t.segments.iter().enumerate() {
        for local in 0..seg.len() {
            let at = RowAt {
                rid: seg.rid_at(local),
                seg: seg_i,
                local,
            };
            let key: Vec<Value> = key_pos.iter().map(|&p| seg.cell(local, p)).collect();
            let ord = ord_pos.map(|p| seg.cell(local, p));
            let k = keys.entry(key).or_insert_with(|| KeyFold {
                winner: at,
                ord: ord.clone(),
                carriers: vec![None; carry_pos.len()],
            });
            let wins = match (&ord, &k.ord) {
                (Some(a), Some(b)) => a > b || (a == b && at.rid < k.winner.rid),
                _ => at.rid > k.winner.rid,
            };
            if wins {
                k.winner = at;
                k.ord = ord;
            }
            for (carrier, &p) in k.carriers.iter_mut().zip(&carry_pos) {
                if carrier.is_none_or(|c| at.rid < c.rid) && !cell_is_empty(&seg.cell(local, p)) {
                    *carrier = Some(at);
                }
            }
        }
    }
    Some((keys.into_values().collect(), carry_pos))
}

/// The rows a latest-wins fold of `t` needs — every key's winner and
/// carriers — or `None` when the table is not folded (see [`fold`]).
fn retained_rids(t: &TableVersion) -> Option<HashSet<usize>> {
    let (keys, _) = fold(t)?;
    let rows = keys
        .iter()
        .flat_map(|k| std::iter::once(&k.winner).chain(k.carriers.iter().flatten()));
    Some(rows.map(|at| at.rid).collect())
}

/// `t` as its latest-wins fold reads it: per key the winner, each empty
/// carry cell filled from that column's carrier, in winner-rid order;
/// `None` when the table is not folded (see [`fold`]). What
/// [`crate::Snapshot::latest_wins`] returns.
pub(crate) fn latest_rows(t: &TableVersion) -> Option<Vec<Vec<Value>>> {
    let (mut keys, carry_pos) = fold(t)?;
    keys.sort_unstable_by_key(|k| k.winner.rid);
    let rows = keys.iter().map(|k| {
        let mut row = t.segments[k.winner.seg].row_at(k.winner.local);
        for (&p, carrier) in carry_pos.iter().zip(&k.carriers) {
            if let Some(c) = carrier.filter(|_| cell_is_empty(&row[p])) {
                row[p] = t.segments[c.seg].cell(c.local, p);
            }
        }
        row
    });
    Some(rows.collect())
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
    retained_rids(t).map_or(0, |r| t.total_rows - r.len())
}

/// Plan one table's compaction, or `None` when there is nothing worth
/// doing. Pure read over the pinned version; builds the replacement
/// segments eagerly (still off-lock — the caller publishes them).
pub(crate) fn plan_table(t: &TableVersion, policy: &CompactionPolicy) -> Option<TableCompaction> {
    let k = t.segments.len();
    if k == 0 {
        return None;
    }
    let retained = retained_rids(t);
    let droppable = retained.as_ref().map_or(0, |r| t.total_rows - r.len());
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
    use crate::schema::{ColType, ColumnDef, LatestWins, TableSchema};
    use crate::segment::SEGMENT_COALESCE_ROWS;
    use crate::testing::{lw_schema, tiny_schema};
    use flor_df::{DataFrame, Value};
    use std::collections::HashMap;

    /// The latest-wins fold of a `(k, s, p)` frame, computed from its rows
    /// in frame (commit) order: max `s` per key, ties to the first row,
    /// the first non-empty `p` carried into an empty winner; sorted.
    fn fold(df: &DataFrame) -> Vec<(i64, i64, String)> {
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
    }

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
        assert_eq!(fold(&df), fold(&before));
        assert_eq!(fold(&snap.latest_wins("t").unwrap()), fold(&before));
        assert_eq!(fold(&df)[5], (5, 3, "pay5".to_string()));
        // The pre-compaction pin still re-reads every superseded row.
        assert_eq!(pinned.scan("t").unwrap(), before);
        assert_eq!(pinned.row_count("t").unwrap(), 512);
        // Point lookups against the compacted version return only live
        // rows, in insertion order.
        let hits = db.lookup("t", "k", &7i64.into()).unwrap();
        assert_eq!(hits.n_rows(), 2);
        assert_eq!(hits.get(0, "s"), Some(&Value::Int(0)));
        assert_eq!(hits.get(1, "s"), Some(&Value::Int(3)));
    }

    #[test]
    fn clustered_compaction_keeps_the_fold() {
        // `t(k, s, c, p)` clustered by `c`: a rewrite sorts rows by `c`,
        // against commit order. One commit per row; each case is `(s, c,
        // p)` rows of key 1 and the fold's `(s, p)`.
        let schema = || {
            vec![TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("k", ColType::Int),
                    ColumnDef::new("s", ColType::Int),
                    ColumnDef::new("c", ColType::Int),
                    ColumnDef::new("p", ColType::Str),
                ],
            )
            .with_latest_wins(LatestWins::new(&["k"], Some("s")).carry_first(&["p"]))
            .with_cluster_by("c")]
        };
        // Carry: the oldest payload, not the first in `c` order.
        let carry = (vec![(1, 9, "A"), (2, 1, "B"), (3, 5, "")], (3, "A"));
        // Tie: the older of two equal-`s` rows wins.
        let tie = (vec![(5, 9, "old"), (5, 1, "new")], (5, "old"));
        for (rows, (s, p)) in [carry, tie] {
            let db = Database::in_memory(schema());
            for (s, c, p) in rows {
                db.insert("t", vec![1i64.into(), s.into(), c.into(), p.into()])
                    .unwrap();
                db.commit().unwrap();
            }
            let want = vec![(1, s, p.to_string())];
            let check = |when: &str| {
                let snap = db.pin();
                assert_eq!(fold(&snap.scan("t").unwrap()), want, "scan {when}");
                assert_eq!(
                    fold(&snap.latest_wins("t").unwrap()),
                    want,
                    "latest_wins {when}"
                );
            };
            check("before compaction");
            let merge_only = CompactionPolicy {
                min_dead_rows: 1_000_000,
                ..CompactionPolicy::default()
            };
            assert_eq!(db.compact_with(&merge_only).unwrap().rows_dropped, 0);
            check("after the clustering merge");
            let dropped = db.compact_with(&CompactionPolicy::default()).unwrap();
            assert_eq!(dropped.rows_dropped, 1);
            check("after dropping dead rows");
        }
    }

    #[test]
    fn unfolded_tables_read_and_keep_every_row() {
        // No `ord` column: the newest row wins. A policy naming a column
        // the table lacks folds nothing, like a table without one.
        let table = |lw: LatestWins| {
            let db = Database::in_memory(vec![TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("k", ColType::Int),
                    ColumnDef::new("s", ColType::Int),
                ],
            )
            .with_latest_wins(lw)]);
            for (k, s) in [(1i64, 2i64), (2, 1), (1, 1)] {
                db.insert("t", vec![k.into(), s.into()]).unwrap();
            }
            db.commit().unwrap();
            db
        };
        let newest = table(LatestWins::new(&["k"], None));
        let folded = newest.pin().latest_wins("t").unwrap().to_rows();
        assert_eq!(
            folded,
            vec![vec![2.into(), 1.into()], vec![1.into(), 1.into()]]
        );
        assert_eq!(newest.dead_rows("t").unwrap(), 1);
        let typo = table(LatestWins::new(&["k"], Some("seq")));
        assert_eq!(
            typo.pin().latest_wins("t").unwrap(),
            typo.scan("t").unwrap()
        );
        assert_eq!(typo.dead_rows("t").unwrap(), 0);
        assert_eq!(typo.compact().unwrap().rows_dropped, 0);
        let plain = Database::in_memory(tiny_schema());
        plain.insert("t", vec!["a".into(), 1i64.into()]).unwrap();
        plain.commit().unwrap();
        assert_eq!(
            plain.pin().latest_wins("t").unwrap(),
            plain.scan("t").unwrap()
        );
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

//! Complexity claims checked by work counters at two history sizes, N
//! and 4N runs, rather than by wall clock: a claim holds when the counter
//! at 4N equals the one at N.
//!
//! Claim: a cold read of a projection whose names a cached view covers
//! costs a selection from that view, not a merge of history. It records
//! no `view.build_nanos` sample at either size, and the selected view's
//! next one-commit catch-up reads only that commit's `logs` rows. A
//! projection no cached view covers is still built once.

use flor_core::Flor;
use flor_view::QueryPlan;

const NAMES: [&str; 4] = ["loss", "acc", "lr", "grad_norm"];
const EPOCHS: usize = 20;
const N: usize = 40;

/// `runs` committed runs of `EPOCHS` epochs logging every name, in
/// memory.
fn history(runs: usize) -> Flor {
    let flor = Flor::new("complexity");
    flor.set_filename("train.fl");
    for run in 0..runs {
        log_run(&flor, run);
    }
    flor
}

/// One run, committed: `EPOCHS × NAMES.len()` `logs` rows.
fn log_run(flor: &Flor, run: usize) {
    flor.for_each("epoch", 0..EPOCHS as i64, |flor, &e| {
        for (i, name) in NAMES.iter().enumerate() {
            flor.log(name, (run * 31 + i) as f64 / (e + 1) as f64);
        }
    });
    flor.commit("run").expect("commit");
}

/// Samples in `view.build_nanos` so far.
fn builds(flor: &Flor) -> u64 {
    let metrics = flor.metrics();
    metrics.histogram("view.build_nanos").map_or(0, |h| h.count)
}

/// What one history size costs: builds and selections of the covered
/// miss, `logs` rows its next catch-up read, and builds of the
/// uncovered miss.
fn costs(runs: usize) -> (u64, u64, u64, u64) {
    let flor = history(runs);
    flor.run_plan(&QueryPlan::new(&NAMES)).expect("wide read");
    let (built, before) = (builds(&flor), flor.views.stats());
    let covered = QueryPlan::new(&["acc", "lr"]);
    let frame = flor.run_plan(&covered).expect("covered read");
    assert_eq!(*frame, flor.run_plan_full(&covered).expect("oracle"));
    let after = flor.views.stats();
    assert_eq!(after.misses, before.misses + 1);
    let covered_builds = builds(&flor) - built;
    let selections = after.selections - before.selections;

    log_run(&flor, runs);
    let frame = flor.run_plan(&covered).expect("caught-up read");
    assert_eq!(*frame, flor.run_plan_full(&covered).expect("oracle"));
    let caught_up = flor.views.stats();
    assert_eq!(
        caught_up.misses, after.misses,
        "the selected view caught up"
    );
    let rows_read = caught_up.deltas_applied - after.deltas_applied;

    let built = builds(&flor);
    let uncovered = QueryPlan::new(&["acc", "note"]);
    flor.run_plan(&uncovered).expect("uncovered read");
    (covered_builds, selections, rows_read, builds(&flor) - built)
}

#[test]
fn a_covered_miss_is_a_selection_at_any_history_size() {
    let one_commit = (EPOCHS * NAMES.len()) as u64;
    for runs in [N, 4 * N] {
        assert_eq!(costs(runs), (0, 1, one_commit, 1), "at {runs} runs");
    }
}

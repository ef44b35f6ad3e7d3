//! Background backfill with flor-jobs: submit, poll progress, query
//! concurrently, cancel.
//!
//! The paper's "magic trick" — retroactive logging via incremental replay
//! — is a long-running batch computation, so FlorDB schedules it as a
//! durable background job instead of blocking the process: per-version
//! replay units run on a worker pool, each version's recovered values
//! commit as soon as it finishes (live views refresh through the change
//! feed mid-job), and a job interrupted by a crash is resumed from the
//! `jobs` table on the next `Flor::open`.
//!
//! Run with `cargo run --example background_backfill`.

use flordb::prelude::*;

const EPOCHS: usize = 8;
const VERSIONS: usize = 6;

fn train_script(with_metrics: bool) -> String {
    let metrics = if with_metrics {
        "        let m = eval_model(net, data);\n        flor.log(\"acc\", m[0]);\n"
    } else {
        ""
    };
    format!(
        r#"let data = load_dataset("first_page", 80, 42);
let net = make_model(5, 6, 2, 7);
with flor.checkpointing(net) {{
    for e in flor.loop("epoch", range(0, {EPOCHS})) {{
        work(200);
        let loss = train_step(net, data, 0.5);
        flor.log("loss", loss);
{metrics}    }}
}}
"#
    )
}

fn main() {
    let flor = Flor::new("background");

    // History: several recorded runs that never logged `acc`.
    flor.fs.write("train.fl", &train_script(false));
    for _ in 0..VERSIONS {
        run_script(&flor, "train.fl", CheckpointPolicy::EveryK(1)).expect("record run");
    }
    // The developer adds the metric to the latest version only.
    flor.fs.write("train.fl", &train_script(true));

    // Submit the backfill as a background job and keep working.
    let handle = flor
        .submit_backfill("train.fl", &["acc"])
        .expect("submit backfill");
    println!(
        "submitted backfill job #{} over {} versions",
        handle.job_id(),
        VERSIONS
    );

    // Foreground reads keep flowing while the job runs; recovered values
    // land incrementally, version by version.
    let mut last_done = 0;
    while !handle.state().is_terminal() {
        let progress = handle.progress();
        if progress.units_done != last_done {
            last_done = progress.units_done;
            let df = flor.dataframe(&["loss", "acc"]).expect("query mid-job");
            let filled = df
                .column("acc")
                .map(|c| c.values.iter().filter(|v| !v.is_null()).count())
                .unwrap_or(0);
            println!(
                "  {}/{} versions done, {} iterations replayed, {} acc cells live",
                progress.units_done, progress.units_total, progress.ticks, filled
            );
        }
        std::thread::yield_now();
    }

    // Per-version outcomes stream on the handle (oldest run first); the
    // blocking wait() just assembles the aggregate report.
    let report = handle.wait();
    println!(
        "backfill done: {} values recovered, {}/{} iterations replayed",
        report.values_recovered, report.iterations_replayed, report.iterations_full
    );
    for v in &report.versions {
        println!(
            "  run ts={} vid={}.. injected={} replayed={}/{}",
            v.tstamp,
            &v.vid[..8.min(v.vid.len())],
            v.injected,
            v.iterations_replayed,
            v.iterations_total
        );
    }

    // The maintained view is complete and equals the from-scratch oracle.
    let df = flor.dataframe(&["loss", "acc"]).expect("query");
    assert_eq!(
        df,
        flor.query(&["loss", "acc"]).collect_full().expect("oracle")
    );
    println!("view complete: {} rows, oracle-verified", df.n_rows());

    // A second thought — backfill `recall` too — cancelled mid-flight:
    // pending versions are dropped and the cancellation is durable.
    flor.fs.write(
        "train.fl",
        &train_script(true).replace(
            "flor.log(\"acc\", m[0]);",
            "flor.log(\"acc\", m[0]);\n        flor.log(\"recall\", m[1]);",
        ),
    );
    let second = flor
        .submit_backfill("train.fl", &["recall"])
        .expect("submit second");
    second.cancel();
    second.wait();
    println!("second job #{} -> {}", second.job_id(), second.state());

    // Durable observability: every job's latest state, from the jobs table.
    let stats = flor.job_stats().expect("job stats");
    println!(
        "jobs: {} done, {} cancelled ({} total transitions in the jobs table)",
        stats.done,
        stats.cancelled,
        flor.db.row_count("jobs").expect("row count")
    );
}

//! Figure 1 reproduction: the extended FlorDB data model.
//!
//! Populates all six tables (`logs`, `loops`, `ts2vid`, `git`, `obj_store`,
//! `build_deps`) through ordinary API usage, prints each table's schema and
//! sample rows, and shows the join/pivot that turns the normalized model
//! into the `flor.dataframe` wide view.
//!
//! Run with `cargo run --example data_model`.

use flordb::prelude::*;
use flordb::store::flor_schema;

fn main() {
    // Print the schema exactly as Fig. 1 defines it.
    println!("== The FlorDB data model (Fig. 1) ==");
    for table in flor_schema() {
        let cols: Vec<String> = table
            .columns
            .iter()
            .map(|c| format!("{}: {}", c.name, c.ty))
            .collect();
        println!("  {}({})", table.name, cols.join(", "));
    }

    // Populate through normal use.
    let flor = Flor::new("demo");
    flor.fs.write("featurize.fl", "// v1 of the featurizer");
    flor.set_filename("featurize.fl");
    flor.for_each("document", ["a.pdf", "b.pdf"], |flor, doc| {
        flor.for_each("page", 0..2, |flor, &p| {
            flor.log("text_src", if p == 0 { "OCR" } else { "TXT" });
            flor.log(
                "page_text",
                format!("{doc} page {p} {}", "lorem ".repeat(900)),
            );
        });
    });
    flor.record_build_dep(
        "worktree",
        "featurize",
        &["process_pdfs".into(), "featurize.fl".into()],
        &["python featurize.py".into()],
        false,
    )
    .unwrap();
    flor.commit("featurize run").unwrap();

    println!("\n== Table contents after one instrumented run ==");
    for name in flor.db.table_names() {
        let df = flor.db.scan(&name).unwrap();
        println!("\n-- {name} ({} rows) --", df.n_rows());
        // page_text is huge; show a trimmed view.
        println!("{}", df.head(4));
    }

    // The pivoted view assembled from logs ⋈ loops.
    println!("\n== flor.dataframe(\"text_src\") — the pivoted view ==");
    let df = flor.dataframe(&["text_src"]).unwrap();
    println!("{df}");

    // Storage-engine behaviour: stats + durability story.
    let stats = flor.db.stats();
    println!("\n== engine stats ==");
    println!(
        "total rows: {}, WAL records: {}",
        stats.total_rows, stats.wal_records
    );
    for (t, n) in &stats.rows_per_table {
        println!("  {t}: {n}");
    }
    println!(
        "\nbig page_text values spilled to obj_store: {} rows",
        flor.db.row_count("obj_store").unwrap()
    );
}

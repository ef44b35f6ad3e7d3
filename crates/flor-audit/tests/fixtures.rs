//! Fixture tests for the audit rules: each rule gets a known-good and a
//! known-bad source snippet (under `tests/fixtures/`, which the audit
//! itself skips), and the bad ones must produce *exactly* the expected
//! diagnostics. The final test audits the real workspace and requires
//! it clean — the same check CI's `audit` job runs.

use flor_audit::{audit_sources, Manifest};

/// A two-class hierarchy plus one project I/O wrapper — just enough
/// manifest for the fixtures.
const MANIFEST: &str = r#"
[hierarchy]
order = [
    "outer",
    "inner",
]

[classes.outer]
sites = ["src/**:outer"]

[classes.inner]
sites = ["src/**:inner"]

[io]
fns = ["flush_log"]
"#;

/// Audit in-memory fixtures and render the diagnostics to strings.
fn audit(files: &[(&str, &str)]) -> Vec<String> {
    let manifest = Manifest::parse(MANIFEST).expect("fixture manifest parses");
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    audit_sources(&files, &manifest)
        .diagnostics
        .iter()
        .map(|d| d.to_string())
        .collect()
}

#[test]
fn lock_order_good_is_clean() {
    let diags = audit(&[(
        "src/lock_order_good.rs",
        include_str!("fixtures/lock_order_good.rs"),
    )]);
    assert_eq!(diags, Vec::<String>::new());
}

#[test]
fn lock_order_bad_is_flagged() {
    let diags = audit(&[(
        "src/lock_order_bad.rs",
        include_str!("fixtures/lock_order_bad.rs"),
    )]);
    assert_eq!(
        diags,
        vec![
            "src/lock_order_bad.rs:4: [lock-order] `outer` acquired at outer while holding \
             `inner` (line 3) contradicts the declared hierarchy (inner is inner to outer)",
            "src/lock_order_bad.rs:10: [lock-order] `outer` acquired in fn reentrant while \
             already held (line 9) — self-deadlock",
            "src/lock_order_bad.rs:15: [lock-order] unclassified lock acquisition \
             `mystery.lock()` in fn undeclared — declare it in lockorder.toml [classes.*] \
             or annotate",
        ]
    );
}

#[test]
fn lock_cycle_is_detected_across_files() {
    // The good file acquires outer->inner, the bad one inner->outer:
    // together the observed acquisition graph has a cycle.
    let diags = audit(&[
        (
            "src/lock_order_good.rs",
            include_str!("fixtures/lock_order_good.rs"),
        ),
        (
            "src/lock_order_bad.rs",
            include_str!("fixtures/lock_order_bad.rs"),
        ),
    ]);
    let cycle = "src/lock_order_bad.rs:4: [lock-order] cyclic lock acquisition: \
                 inner -> outer -> inner — deadlock possible";
    assert!(
        diags.iter().any(|d| d == cycle),
        "missing cycle diagnostic in: {diags:#?}"
    );
}

#[test]
fn hold_across_io_good_is_clean() {
    let diags = audit(&[(
        "src/hold_io_good.rs",
        include_str!("fixtures/hold_io_good.rs"),
    )]);
    assert_eq!(diags, Vec::<String>::new());
}

#[test]
fn hold_across_io_bad_is_flagged() {
    let diags = audit(&[(
        "src/hold_io_bad.rs",
        include_str!("fixtures/hold_io_bad.rs"),
    )]);
    assert_eq!(
        diags,
        vec![
            "src/hold_io_bad.rs:4: [hold-across-io] I/O call `flush_log` in fn flush_bad \
             while holding `outer` (line 3) — release the guard first or annotate with the \
             reason the hold is deliberate",
        ]
    );
}

#[test]
fn atomic_good_is_clean() {
    let diags = audit(&[(
        "src/atomic_good.rs",
        include_str!("fixtures/atomic_good.rs"),
    )]);
    assert_eq!(diags, Vec::<String>::new());
}

#[test]
fn atomic_bad_is_flagged() {
    let diags = audit(&[("src/atomic_bad.rs", include_str!("fixtures/atomic_bad.rs"))]);
    assert_eq!(
        diags,
        vec![
            "src/atomic_bad.rs:3: [atomic-ordering] Ordering::Relaxed without an \
             `// audit: ordering — <why>` justification",
            "src/atomic_bad.rs:7: [atomic-ordering] Ordering::SeqCst without an \
             `// audit: ordering — <why>` justification",
        ]
    );
}

#[test]
fn panic_good_is_clean() {
    let diags = audit(&[("src/panic_good.rs", include_str!("fixtures/panic_good.rs"))]);
    assert_eq!(diags, Vec::<String>::new());
}

#[test]
fn panic_bad_is_flagged() {
    let diags = audit(&[("src/panic_bad.rs", include_str!("fixtures/panic_bad.rs"))]);
    let tail = "in non-test code — return an error, or annotate \
                `// audit: allow(panic) — <why it cannot fire>`";
    assert_eq!(
        diags,
        vec![
            format!("src/panic_bad.rs:3: [panic] `.unwrap()` {tail}"),
            format!("src/panic_bad.rs:4: [panic] `.expect()` {tail}"),
            format!("src/panic_bad.rs:6: [panic] `unreachable!` {tail}"),
            format!("src/panic_bad.rs:8: [panic] `panic!` {tail}"),
        ]
    );
}

#[test]
fn bad_annotations_are_flagged_and_do_not_suppress() {
    let diags = audit(&[(
        "src/annotation_bad.rs",
        include_str!("fixtures/annotation_bad.rs"),
    )]);
    let tail = "in non-test code — return an error, or annotate \
                `// audit: allow(panic) — <why it cannot fire>`";
    assert_eq!(
        diags,
        vec![
            "src/annotation_bad.rs:4: [annotation] allow(panic) needs a written reason \
             after a dash"
                .to_string(),
            format!("src/annotation_bad.rs:5: [panic] `.unwrap()` {tail}"),
            "src/annotation_bad.rs:9: [annotation] unparseable audit annotation: unknown \
             rule in allow(...)"
                .to_string(),
            format!("src/annotation_bad.rs:10: [panic] `.unwrap()` {tail}"),
        ]
    );
}

/// The fixture manifest plus `extra` sections, with `unused` ranked
/// innermost so a class named so parses.
fn manifest_with(extra: &str) -> Manifest {
    let text = MANIFEST.replace("\"inner\",\n]", "\"inner\",\n    \"unused\",\n]");
    Manifest::parse(&format!("{text}\n{extra}")).expect("fixture manifest parses")
}

fn stale(manifest: &Manifest) -> Vec<String> {
    let files = [(
        "src/lock_order_good.rs".to_string(),
        include_str!("fixtures/lock_order_good.rs").to_string(),
    )];
    audit_sources(&files, manifest).stale
}

#[test]
fn a_class_whose_sites_match_no_acquisition_is_stale() {
    let manifest = manifest_with("[classes.unused]\nsites = [\"src/**:nobody\"]\n");
    assert_eq!(
        stale(&manifest),
        vec!["class unused: no site matches a lock acquisition"]
    );
    assert!(stale(&manifest_with("")).is_empty());
}

#[test]
fn a_summary_never_called_in_its_paths_is_stale() {
    // `use_both` is called in the fixture, but not under `lib/`.
    let manifest = manifest_with(
        "[summaries.elsewhere]\nfn = \"use_both\"\nclass = \"unused\"\npaths = [\"lib/**\"]\n\n\
         [summaries.here]\nfn = \"use_both\"\nclass = \"unused\"\npaths = [\"src/**\"]\n",
    );
    assert_eq!(
        stale(&manifest),
        vec!["summary fn use_both: never called in its paths"]
    );
}

#[test]
fn workspace_is_clean() {
    // The same gate CI runs: the real workspace, under the real
    // manifest, must carry zero violations.
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !root.join("lockorder.toml").is_file() {
        assert!(root.pop(), "lockorder.toml not found above the crate dir");
    }
    let manifest = flor_audit::load_manifest(&root).expect("lockorder.toml parses");
    let report = flor_audit::audit_workspace(&root, &manifest).expect("workspace walk");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace is not audit-clean:\n{}",
        rendered.join("\n")
    );
    assert_eq!(
        report.stale,
        Vec::<String>::new(),
        "stale lockorder.toml entries"
    );
    assert!(report.files_audited > 0);
    assert!(report.lock_sites > 0);
}

//! `flor-audit` — the workspace concurrency-invariant linter.
//!
//! The stack's concurrency contracts (checkpoints serialize on
//! `ckpt_serial` *before* the commit lock, trace publication is one
//! short mutex hold, relaxed atomics are deliberate, the serve loop
//! never panics a connection thread) used to live only in commit
//! messages. This crate checks them statically, on every CI run:
//!
//! * **lock-order** — every classified lock acquisition is checked
//!   against the hierarchy declared in `lockorder.toml`; acquiring a
//!   lock that the hierarchy places *outside* one already held fails,
//!   as does any cycle in the observed acquisition graph, as does a
//!   `.lock()`/`.read()`/`.write()` on a receiver the manifest does
//!   not classify (new locks must be declared).
//! * **hold-across-io** — file/network calls (`fsync`, `sync_all`,
//!   `write_all`, `File::create`, `fs::rename`, WAL wrappers, ...)
//!   while a guard is live violate the "short mutex hold" contract.
//! * **atomic-ordering** — `Ordering::Relaxed` and `Ordering::SeqCst`
//!   must carry an `// audit: ordering — <why>` justification.
//! * **panic** — `.unwrap()` / `.expect()` / `panic!` /
//!   `unreachable!` are banned outside tests/benches unless annotated
//!   `// audit: allow(panic) — <why it cannot fire>`.
//!
//! Rules are individually suppressible with a mandatory written
//! reason; reason-less or malformed annotations are themselves
//! violations, so the audit stays honest rather than noisy. See
//! `crates/flor-audit/README.md` for the annotation grammar and the
//! manifest format.

pub mod analysis;
pub mod lexer;
pub mod loc;
pub mod manifest;
pub mod rules;

pub use manifest::{Manifest, ManifestError};
pub use rules::{Diagnostic, RuleId};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Path globs excluded from the audit regardless of the manifest: test
/// and bench code may panic freely, vendored subsets are not ours, and
/// build output is not source.
const DEFAULT_SKIP: &[&str] = &[
    "**/tests/**",
    "**/benches/**",
    "**/examples/**",
    "vendor/**",
    "target/**",
    ".git/**",
];

/// Result of auditing a set of files.
#[derive(Debug, Default)]
pub struct AuditReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Manifest entries nothing audited uses ([`Manifest::stale`]): a
    /// config error, reported apart from the rule violations.
    pub stale: Vec<String>,
    pub files_audited: usize,
    pub functions_audited: usize,
    pub lock_sites: usize,
}

/// Audit in-memory sources (used by the fixture tests): each entry is
/// `(workspace-relative path, source text)`.
pub fn audit_sources(files: &[(String, String)], manifest: &Manifest) -> AuditReport {
    let mut analyzed = Vec::with_capacity(files.len());
    for (path, src) in files {
        analyzed.push(analysis::analyze(path, src, manifest));
    }
    let functions_audited = analyzed.iter().map(|f| f.audited_fns).sum();
    let lock_sites = analyzed.iter().map(|f| f.locks.len()).sum();
    AuditReport {
        diagnostics: rules::check(&analyzed, manifest),
        stale: manifest.stale(&analyzed),
        files_audited: files.len(),
        functions_audited,
        lock_sites,
    }
}

/// Audit every non-skipped `.rs` file under `root`.
pub fn audit_workspace(root: &Path, manifest: &Manifest) -> io::Result<AuditReport> {
    let mut sources = Vec::new();
    for (rel, path) in rs_files(root, |rel| skipped(rel, manifest))? {
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(audit_sources(&sources, manifest))
}

/// Every `.rs` file under `root` as `(root-relative path, path)`, sorted;
/// `skip` prunes files and whole directories by relative path.
pub(crate) fn rs_files(
    root: &Path,
    skip: impl Fn(&str) -> bool,
) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = rel_path(root, &path);
            if skip(&rel) {
                continue;
            }
            if entry.file_type()?.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push((rel, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Load `lockorder.toml` from `root`.
pub fn load_manifest(root: &Path) -> Result<Manifest, ManifestError> {
    let path = root.join("lockorder.toml");
    let text = fs::read_to_string(&path)
        .map_err(|e| ManifestError(format!("cannot read {}: {e}", path.display())))?;
    Manifest::parse(&text)
}

/// Workspace-relative `/`-separated path for glob matching and
/// diagnostics.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn skipped(rel: &str, manifest: &Manifest) -> bool {
    // Directory prefixes match too: a glob `vendor/**` must prune the
    // `vendor` dir itself during the walk (match "vendor" against the
    // glob minus the trailing `/**` as well).
    let hit = |glob: &str| {
        manifest::glob_match(glob, rel)
            || glob
                .strip_suffix("/**")
                .is_some_and(|g| manifest::glob_match(g, rel))
            || glob
                .strip_prefix("**/")
                .and_then(|g| g.strip_suffix("/**"))
                .is_some_and(|mid| rel.split('/').any(|seg| manifest::glob_match(mid, seg)))
    };
    DEFAULT_SKIP.iter().any(|g| hit(g)) || manifest.skip.iter().any(|g| hit(g))
}

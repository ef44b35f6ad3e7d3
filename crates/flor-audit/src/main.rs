//! CLI for the workspace concurrency audit.
//!
//! ```text
//! cargo run -p flor-audit -- --workspace            # audit the repo
//! cargo run -p flor-audit -- --root <dir>           # explicit root
//! cargo run -p flor-audit -- --manifest <file> ...  # explicit manifest
//! cargo run -p flor-audit -- --loc                  # code lines per crate/file
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/config error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut loc = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--loc" => loc = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--manifest" => match args.next() {
                Some(p) => manifest_path = Some(PathBuf::from(p)),
                None => return usage("--manifest needs a path"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "flor-audit: workspace concurrency-invariant linter\n\
                     usage: flor-audit [--workspace] [--root DIR] [--manifest FILE]\n\
                     \x20      flor-audit --loc [--root DIR]   (non-test, non-comment lines\n\
                     \x20                                       per crate and file, one line\n\
                     \x20                                       per vendored stub; no gate)"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    // Root: explicit, else walk up from CWD to the directory holding
    // lockorder.toml (so the binary works from any crate dir).
    let root = match root {
        Some(r) => r,
        None => {
            let mut dir = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => return config_err(&format!("cannot read cwd: {e}")),
            };
            loop {
                if dir.join("lockorder.toml").is_file() {
                    break dir;
                }
                if !dir.pop() {
                    return config_err("no lockorder.toml found here or in any parent directory");
                }
            }
        }
    };

    if loc {
        use flor_audit::loc::{crates_loc, render};
        // A workspace need not vendor anything.
        let vendor_dir = root.join("vendor");
        let vendor = if vendor_dir.is_dir() {
            crates_loc(&vendor_dir)
        } else {
            Ok(Vec::new())
        };
        return match (crates_loc(&root.join("crates")), vendor) {
            (Ok(crates), Ok(vendor)) => {
                print!("{}", render(&crates, &vendor));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                config_err(&format!("cannot count lines under {}: {e}", root.display()))
            }
        };
    }

    let manifest = match manifest_path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(text) => match flor_audit::Manifest::parse(&text) {
                Ok(m) => m,
                Err(e) => return config_err(&e.to_string()),
            },
            Err(e) => return config_err(&format!("cannot read {}: {e}", p.display())),
        },
        None => match flor_audit::load_manifest(&root) {
            Ok(m) => m,
            Err(e) => return config_err(&e.to_string()),
        },
    };

    let report = match flor_audit::audit_workspace(&root, &manifest) {
        Ok(r) => r,
        Err(e) => return config_err(&format!("audit failed: {e}")),
    };

    for d in &report.diagnostics {
        println!("{d}");
    }
    if report.diagnostics.is_empty() {
        println!(
            "flor-audit: workspace clean ({} files, {} functions, {} lock sites audited)",
            report.files_audited, report.functions_audited, report.lock_sites
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "flor-audit: {} violation(s) across {} files audited",
            report.diagnostics.len(),
            report.files_audited
        );
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("flor-audit: {msg} (try --help)");
    ExitCode::from(2)
}

fn config_err(msg: &str) -> ExitCode {
    eprintln!("flor-audit: {msg}");
    ExitCode::from(2)
}

//! `--loc`: non-test, non-comment source lines per crate and per file.
//!
//! The number simplification PRs report ("flor-store went from N to M
//! lines") has to be reproducible, so it is defined by this tokenizer
//! rather than by hand: a line counts when at least one token starts on
//! it — comments, doc comments and blank lines carry none — and a file
//! stops counting at its first `#[cfg(test)]`. `crates/*/src` is measured
//! file by file; each vendored stub under `vendor/*/src` gets one line of
//! its own, outside the total, so deleting one shows up in the report.
//! Informational: there is no threshold.

use crate::lexer::{lex, Token};
use std::fs;
use std::io;
use std::path::Path;

/// Code lines of one source text: distinct lines a token starts on,
/// before the first `#[cfg(test)]` (or `#![cfg(test)]`).
pub fn code_lines(src: &str) -> usize {
    let tokens = lex(src).tokens;
    let end = (0..tokens.len())
        .find(|&i| starts_cfg_test(&tokens[i..]))
        .unwrap_or(tokens.len());
    let mut lines: Vec<u32> = tokens[..end].iter().map(|t| t.line).collect();
    lines.dedup();
    lines.len()
}

/// Whether `toks` begins with `#[cfg(test)]` or `#![cfg(test)]`.
fn starts_cfg_test(toks: &[Token]) -> bool {
    let Some((hash, rest)) = toks.split_first() else {
        return false;
    };
    let rest = match rest.split_first() {
        Some((bang, after)) if bang.is_punct('!') => after,
        _ => rest,
    };
    hash.is_punct('#')
        && rest.len() >= 6
        && rest[0].is_punct('[')
        && rest[1].ident() == Some("cfg")
        && rest[2].is_punct('(')
        && rest[3].ident() == Some("test")
        && rest[4].is_punct(')')
        && rest[5].is_punct(']')
}

/// One crate's count: its directory name and `(file relative to its
/// src/, code lines)` per source file, sorted by file.
pub struct CrateLoc {
    pub name: String,
    pub files: Vec<(String, usize)>,
}

/// The count for every crate directly under `dir` (`<root>/crates`,
/// `<root>/vendor`), sorted by name.
pub fn crates_loc(dir: &Path) -> io::Result<Vec<CrateLoc>> {
    let mut crates = Vec::new();
    for entry in fs::read_dir(dir)? {
        let src = entry?.path().join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        for (rel, path) in crate::rs_files(&src, |_| false)? {
            files.push((rel, code_lines(&fs::read_to_string(&path)?)));
        }
        let name = src
            .parent()
            .and_then(Path::file_name)
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        crates.push(CrateLoc { name, files });
    }
    crates.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(crates)
}

impl CrateLoc {
    fn sum(&self) -> usize {
        self.files.iter().map(|(_, n)| n).sum()
    }
}

/// Render the `--loc` report: one total per crate, its files beneath,
/// the workspace total, then one line per vendored stub.
pub fn render(crates: &[CrateLoc], vendor: &[CrateLoc]) -> String {
    let mut out = String::new();
    for c in crates {
        out.push_str(&format!("{:>7}  {}\n", c.sum(), c.name));
        for (file, n) in &c.files {
            out.push_str(&format!("{n:>7}      {file}\n"));
        }
    }
    let total: usize = crates.iter().map(CrateLoc::sum).sum();
    out.push_str(&format!("{total:>7}  total (crates/*/src)\n"));
    for v in vendor {
        out.push_str(&format!("{:>7}  vendor/{}\n", v.sum(), v.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_token_lines_and_stops_at_cfg_test() {
        let src = "\
//! module doc\n\
use std::fs; // trailing comment still counts the line\n\
\n\
/// doc comment\n\
fn f() {\n\
    /* block\n\
       comment */\n\
    let s = \"a\n\
b\";\n\
}\n\
#[cfg(feature = \"x\")]\n\
fn g() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn not_counted() {}\n\
}\n";
        // use, fn f, let, closing quote+semicolon line, }, #[cfg(feature)], fn g
        assert_eq!(code_lines(src), 7);
        assert_eq!(code_lines("#![cfg(test)]\nfn helper() {}\n"), 0);
        assert_eq!(code_lines(""), 0);
    }
}

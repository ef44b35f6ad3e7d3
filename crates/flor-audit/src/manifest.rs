//! The `lockorder.toml` manifest: the workspace's declared lock
//! hierarchy, lock-site classification, one-hop call summaries, extra
//! I/O function names, and skip globs.
//!
//! Parsed with a purpose-built TOML subset reader (tables, string
//! values, string arrays — all the manifest needs; the build has no
//! crates.io access so no `toml` crate).

use crate::analysis::FileFacts;
use std::collections::BTreeMap;
use std::fmt;

/// A manifest load/parse problem (reported as a config error, exit 2).
#[derive(Debug, Clone)]
pub struct ManifestError(pub String);

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lockorder.toml: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

/// One classified lock-acquisition site pattern: `glob:receiver`.
#[derive(Debug, Clone)]
pub struct SitePattern {
    /// Path glob relative to the workspace root (`**`, `*` supported).
    pub glob: String,
    /// The receiver identifier immediately before `.lock()` /
    /// `.read()` / `.write()`.
    pub recv: String,
}

/// A one-hop interprocedural summary: calling `fn_name(...)` acquires
/// `class` internally.
#[derive(Debug, Clone)]
pub struct Summary {
    pub fn_name: String,
    pub class: String,
    /// True when the call *returns* the guard (the acquisition outlives
    /// the call, e.g. a `lock(&mutex)` helper); false when the lock is
    /// released before returning (e.g. `publish`).
    pub returns_guard: bool,
    /// Path globs the summary applies in (empty = everywhere).
    pub paths: Vec<String>,
}

/// Parsed manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Declared hierarchy, outermost lock first. An acquisition of `B`
    /// while `A` is held is legal only if `A` precedes `B` here.
    pub order: Vec<String>,
    /// class name -> site patterns.
    pub classes: BTreeMap<String, Vec<SitePattern>>,
    /// Call summaries.
    pub summaries: Vec<Summary>,
    /// Extra I/O function names (beyond the built-in set).
    pub io_fns: Vec<String>,
    /// Path globs excluded from the audit entirely (tests, benches,
    /// vendored code are excluded by default; these add to that).
    pub skip: Vec<String>,
}

impl Manifest {
    /// Parse manifest text.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let raw = parse_toml_subset(text)?;
        let mut m = Manifest::default();
        for (section, kv) in &raw {
            if section == "hierarchy" {
                m.order = get_array(kv, "order")?;
            } else if let Some(class) = section.strip_prefix("classes.") {
                let mut sites = Vec::new();
                for s in get_array(kv, "sites")? {
                    let Some((glob, recv)) = s.rsplit_once(':') else {
                        return Err(ManifestError(format!(
                            "class {class}: site {s:?} must be \"<glob>:<receiver>\""
                        )));
                    };
                    sites.push(SitePattern {
                        glob: glob.to_string(),
                        recv: recv.to_string(),
                    });
                }
                m.classes.insert(class.to_string(), sites);
            } else if let Some(name) = section.strip_prefix("summaries.") {
                let fn_name = get_string(kv, "fn")
                    .ok_or_else(|| ManifestError(format!("summary {name}: missing fn")))?;
                let class = get_string(kv, "class")
                    .ok_or_else(|| ManifestError(format!("summary {name}: missing class")))?;
                let returns_guard = get_string(kv, "guard").as_deref() == Some("true");
                let paths = match kv.get("paths") {
                    Some(Val::Array(a)) => a.clone(),
                    _ => Vec::new(),
                };
                m.summaries.push(Summary {
                    fn_name,
                    class,
                    returns_guard,
                    paths,
                });
            } else if section == "io" {
                m.io_fns = get_array(kv, "fns").unwrap_or_default();
            } else if section == "skip" {
                m.skip = get_array(kv, "paths").unwrap_or_default();
            } else {
                return Err(ManifestError(format!("unknown section [{section}]")));
            }
        }
        // Every class must have a place in the hierarchy, or edge
        // checks would be undefined for it.
        for class in m.classes.keys() {
            if !m.order.iter().any(|o| o == class) {
                return Err(ManifestError(format!(
                    "class {class} is not listed in [hierarchy] order"
                )));
            }
        }
        for s in &m.summaries {
            if !m.order.iter().any(|o| o == &s.class) {
                return Err(ManifestError(format!(
                    "summary fn {}: class {} is not in [hierarchy] order",
                    s.fn_name, s.class
                )));
            }
        }
        Ok(m)
    }

    /// Rank of a class in the declared hierarchy.
    pub fn rank(&self, class: &str) -> Option<usize> {
        self.order.iter().position(|o| o == class)
    }

    /// Classify a lock receiver at `path` (workspace-relative, `/`
    /// separators). Returns the class name.
    pub fn classify(&self, path: &str, recv: &str) -> Option<&str> {
        for (class, sites) in &self.classes {
            for s in sites {
                if s.recv == recv && glob_match(&s.glob, path) {
                    return Some(class.as_str());
                }
            }
        }
        None
    }

    /// Find a call summary applicable to `fn_name` at `path`.
    pub fn summary_for(&self, path: &str, fn_name: &str) -> Option<&Summary> {
        self.summaries.iter().find(|s| {
            s.fn_name == fn_name
                && (s.paths.is_empty() || s.paths.iter().any(|g| glob_match(g, path)))
        })
    }

    /// Entries that describe nothing in `files`: a class none of whose
    /// sites matches a lock acquisition, and a summary whose `fn` is
    /// never called where it applies. Each is a config error — a
    /// manifest entry must not outlive the lock it declares.
    pub fn stale(&self, files: &[FileFacts]) -> Vec<String> {
        let locks = || {
            files
                .iter()
                .flat_map(|f| f.locks.iter().map(move |l| (f, l)))
        };
        let classes = self.classes.keys().filter(|class| {
            !locks().any(|(_, l)| l.receiver_style && l.class.as_ref() == Some(class))
        });
        let summaries = self.summaries.iter().filter(|s| {
            let site = format!("{}()", s.fn_name);
            !locks().any(|(f, l)| {
                !l.receiver_style
                    && l.site == site
                    && self
                        .summary_for(&f.path, &s.fn_name)
                        .is_some_and(|hit| std::ptr::eq(hit, *s))
            })
        });
        classes
            .map(|c| format!("class {c}: no site matches a lock acquisition"))
            .chain(
                summaries.map(|s| format!("summary fn {}: never called in its paths", s.fn_name)),
            )
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Val {
    Str(String),
    Array(Vec<String>),
}

fn get_array(kv: &BTreeMap<String, Val>, key: &str) -> Result<Vec<String>, ManifestError> {
    match kv.get(key) {
        Some(Val::Array(a)) => Ok(a.clone()),
        Some(Val::Str(_)) => Err(ManifestError(format!("{key} must be an array"))),
        None => Err(ManifestError(format!("missing key {key}"))),
    }
}

fn get_string(kv: &BTreeMap<String, Val>, key: &str) -> Option<String> {
    match kv.get(key) {
        Some(Val::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// A parsed `[section]` in declaration order: name plus its key/values.
type Sections = Vec<(String, BTreeMap<String, Val>)>;

/// Parse the TOML subset: `[dotted.section]` headers, `key = "str"`,
/// `key = [ "a", "b" ]` (arrays may span lines), `#` comments.
fn parse_toml_subset(text: &str) -> Result<Sections, ManifestError> {
    let mut sections: Sections = Vec::new();
    let mut current: Option<usize> = None;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ManifestError(format!(
                    "line {}: bad section header",
                    ln + 1
                )));
            };
            sections.push((name.trim().to_string(), BTreeMap::new()));
            current = Some(sections.len() - 1);
            continue;
        }
        let Some((key, vtext)) = line.split_once('=') else {
            return Err(ManifestError(format!(
                "line {}: expected key = value",
                ln + 1
            )));
        };
        let key = key.trim().to_string();
        let mut vbuf = vtext.trim().to_string();
        // Multi-line array: keep consuming until the bracket closes.
        if vbuf.starts_with('[') {
            while !vbuf.trim_end().ends_with(']') {
                let Some((_, cont)) = lines.next() else {
                    return Err(ManifestError(format!(
                        "line {}: unterminated array",
                        ln + 1
                    )));
                };
                vbuf.push(' ');
                vbuf.push_str(strip_comment(cont).trim());
            }
        }
        let val =
            parse_value(vbuf.trim()).map_err(|e| ManifestError(format!("line {}: {e}", ln + 1)))?;
        let Some(idx) = current else {
            return Err(ManifestError(format!(
                "line {}: key outside any [section]",
                ln + 1
            )));
        };
        sections[idx].1.insert(key, val);
    }
    Ok(sections)
}

fn strip_comment(line: &str) -> &str {
    // `#` inside quoted strings does not occur in this manifest format's
    // values in practice (globs and identifiers); keep it simple.
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_value(v: &str) -> Result<Val, String> {
    if let Some(inner) = v.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or("unterminated array")?;
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(unquote(part)?);
        }
        return Ok(Val::Array(items));
    }
    Ok(Val::Str(unquote(v)?))
}

fn unquote(s: &str) -> Result<String, String> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('"') {
        if let Some(body) = rest.strip_suffix('"') {
            return Ok(body.to_string());
        }
        return Err(format!("unterminated string: {s}"));
    }
    // Bare values (true/false, identifiers) pass through.
    Ok(s.to_string())
}

/// Match `path` (always `/`-separated, workspace-relative) against a
/// glob supporting `**` (any number of path segments, including zero)
/// and `*` (within one segment).
pub fn glob_match(glob: &str, path: &str) -> bool {
    let g: Vec<&str> = glob.split('/').collect();
    let p: Vec<&str> = path.split('/').collect();
    seg_match(&g, &p)
}

fn seg_match(g: &[&str], p: &[&str]) -> bool {
    match g.first() {
        None => p.is_empty(),
        Some(&"**") => {
            // `**` may swallow zero or more leading path segments.
            (0..=p.len()).any(|k| seg_match(&g[1..], &p[k..]))
        }
        Some(seg) => match p.first() {
            None => false,
            Some(ps) => wildcard_match(seg, ps) && seg_match(&g[1..], &p[1..]),
        },
    }
}

/// `*`-wildcard match within a single path segment.
fn wildcard_match(pat: &str, s: &str) -> bool {
    let pb: Vec<char> = pat.chars().collect();
    let sb: Vec<char> = s.chars().collect();
    fn go(p: &[char], s: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('*') => (0..=s.len()).any(|k| go(&p[1..], &s[k..])),
            Some(c) => s.first() == Some(c) && go(&p[1..], &s[1..]),
        }
    }
    go(&pb, &sb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_manifest() {
        let text = r#"
# comment
[hierarchy]
order = [
    "outer",   # outermost
    "inner",
]

[classes.outer]
sites = ["crates/a/src/*.rs:state"]

[classes.inner]
sites = ["**:queue", "crates/b/**:q"]

[summaries.pub]
fn = "publish"
class = "inner"
guard = "false"
paths = ["crates/a/**"]

[io]
fns = ["append"]

[skip]
paths = ["crates/bench/**"]
"#;
        let m = Manifest::parse(text).unwrap();
        assert_eq!(m.order, vec!["outer", "inner"]);
        assert_eq!(m.classify("crates/a/src/db.rs", "state"), Some("outer"));
        assert_eq!(m.classify("crates/x/src/y.rs", "queue"), Some("inner"));
        assert_eq!(m.classify("crates/a/src/db.rs", "nope"), None);
        assert!(m.summary_for("crates/a/src/db.rs", "publish").is_some());
        assert!(m.summary_for("crates/c/src/db.rs", "publish").is_none());
        assert_eq!(m.io_fns, vec!["append"]);
        assert_eq!(m.skip, vec!["crates/bench/**"]);
    }

    #[test]
    fn class_must_be_in_hierarchy() {
        let text = "[hierarchy]\norder = [\"a\"]\n[classes.b]\nsites = [\"**:x\"]\n";
        assert!(Manifest::parse(text).is_err());
    }

    #[test]
    fn globs() {
        assert!(glob_match("crates/*/src/**", "crates/flor-store/src/db.rs"));
        assert!(glob_match("**", "anything/at/all.rs"));
        assert!(glob_match("**/tests/**", "crates/x/tests/t.rs"));
        assert!(!glob_match("crates/a/**", "crates/b/src/lib.rs"));
        assert!(glob_match("src/*.rs", "src/lib.rs"));
        assert!(!glob_match("src/*.rs", "src/sub/lib.rs"));
    }
}

//! Table schemas, including the six-table FlorDB data model of paper Fig. 1.

use flor_df::{DataType, Value};
use std::fmt;

/// Column type for schema validation. `Any` columns accept every value
/// (the `logs.value` column stores heterogeneous logged values as text plus
/// a type tag, so the engine must tolerate mixed types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Str,
    /// Boolean.
    Bool,
    /// Accepts any value type.
    Any,
}

impl ColType {
    /// Whether `v` conforms to this column type (null always allowed).
    pub fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v.data_type()),
            (_, DataType::Null)
                | (ColType::Any, _)
                | (ColType::Int, DataType::Int)
                | (ColType::Float, DataType::Float | DataType::Int)
                | (ColType::Str, DataType::Str)
                | (ColType::Bool, DataType::Bool)
        )
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColType::Int => "int",
            ColType::Float => "float",
            ColType::Str => "str",
            ColType::Bool => "bool",
            ColType::Any => "any",
        };
        f.write_str(s)
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColType,
}

impl ColumnDef {
    /// A column named `name` holding values of type `ty`.
    pub fn new(name: &str, ty: ColType) -> Self {
        ColumnDef {
            name: name.to_string(),
            ty,
        }
    }
}

/// A declared latest-wins policy: the store is append-only, so "updates"
/// to these tables land as fresh rows and only the newest row per key
/// tuple is semantically live. [`crate::Snapshot::latest_wins`] reads a
/// table folded by this rule, and segment compaction drops only rows
/// that fold does not need, so the read is identical before and after a
/// compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatestWins {
    /// Key columns: one live row per distinct key tuple.
    pub key: Vec<String>,
    /// Ordering column deciding the winner: max wins, and a tie keeps
    /// the *oldest* row. `None` falls back to commit (global row id)
    /// order: the newest row wins.
    pub ord: Option<String>,
    /// Columns written only on a key's *first* row and carried forward by
    /// the fold (`jobs.payload`): a winner whose own cell is empty reads
    /// the oldest non-empty value, and compaction keeps the row holding
    /// it.
    pub carry_first: Vec<String>,
}

impl LatestWins {
    /// Declare a latest-wins policy keyed by `key`, with the winner
    /// decided by the maximum of `ord` (insertion order when `None`).
    pub fn new(key: &[&str], ord: Option<&str>) -> LatestWins {
        LatestWins {
            key: key.iter().map(|s| s.to_string()).collect(),
            ord: ord.map(str::to_string),
            carry_first: Vec::new(),
        }
    }

    /// Add columns whose first non-empty value must survive compaction
    /// even when a later row wins.
    pub fn carry_first(mut self, cols: &[&str]) -> LatestWins {
        self.carry_first = cols.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// A declared clustering column: segment compaction sorts the rows of
/// each rewritten segment by this column (ties broken by global row id,
/// so the sort is stable with respect to insertion order). Sorted
/// segments get **disjoint zone maps** on the cluster column and range
/// scans binary-search into them instead of linear-filtering.
///
/// Clustering is a physical layout only: it decides what a range scan
/// can prune, never the order rows are read in — every read returns
/// commit order (see the read-order contract in [`crate::segment`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterBy {
    /// The column rewritten segments are sorted by.
    pub column: String,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Declared latest-wins policy, if any — what lets segment compaction
    /// drop superseded rows (see [`LatestWins`]).
    pub latest_wins: Option<LatestWins>,
    /// Declared clustering column, if any — segment compaction sorts
    /// rewritten segments by it (see [`ClusterBy`]).
    pub cluster_by: Option<ClusterBy>,
}

impl TableSchema {
    /// Build a schema.
    pub fn new(name: &str, columns: Vec<ColumnDef>) -> Self {
        TableSchema {
            name: name.to_string(),
            columns,
            latest_wins: None,
            cluster_by: None,
        }
    }

    /// Attach a latest-wins policy (builder style).
    pub fn with_latest_wins(mut self, policy: LatestWins) -> Self {
        self.latest_wins = Some(policy);
        self
    }

    /// Declare a clustering column (builder style).
    pub fn with_cluster_by(mut self, column: &str) -> Self {
        self.cluster_by = Some(ClusterBy {
            column: column.to_string(),
        });
        self
    }

    /// Position of a column by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column names in order.
    pub fn col_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Validate a row against arity and column types.
    pub fn validate(&self, row: &[Value]) -> Result<(), String> {
        if row.len() != self.columns.len() {
            return Err(format!(
                "table {}: expected {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            ));
        }
        for (col, v) in self.columns.iter().zip(row) {
            if !col.ty.accepts(v) {
                return Err(format!(
                    "table {}: column {} expects {}, got {} ({v})",
                    self.name,
                    col.name,
                    col.ty,
                    v.data_type()
                ));
            }
        }
        Ok(())
    }
}

/// The FlorDB schema from paper Fig. 1, plus the `jobs` control-plane
/// table. "Basic tables denoted in white; virtual tables in gray" — we
/// materialise all six; the gray ones (`ts2vid`, `git`, `build_deps`) are
/// populated by the kernel rather than by user log statements. The `jobs`
/// table records background-job state transitions (see `flor-jobs`).
pub fn flor_schema() -> Vec<TableSchema> {
    vec![
        // logs(projid, tstamp, filename, ctx_id, value_name, value, value_type)
        //
        // Deliberately NOT latest-wins, even though the pivot upserts
        // last-write-wins per (coordinates, value_name): two consumers
        // depend on the raw rows' insertion order and multiplicity.
        // Hindsight replay (`load_record`) reconstructs a run's log
        // sequence row by row — duplicates included — and the pivot
        // orders its rows and value columns by *first* appearance, which
        // a superseded row may own. Compaction therefore only merges
        // `logs` segments; it never drops rows here.
        //
        // It *is* clustered by tstamp: the logical clock is the primary
        // range-scan axis (time travel, windows). Hindsight backfill
        // appends rows at old timestamps, so the sort really permutes
        // them — which no reader sees: reads return commit order.
        TableSchema::new(
            "logs",
            vec![
                ColumnDef::new("projid", ColType::Str),
                ColumnDef::new("tstamp", ColType::Int),
                ColumnDef::new("filename", ColType::Str),
                ColumnDef::new("ctx_id", ColType::Int),
                ColumnDef::new("value_name", ColType::Str),
                ColumnDef::new("value", ColType::Str),
                ColumnDef::new("value_type", ColType::Int),
            ],
        )
        .with_cluster_by("tstamp"),
        // loops(projid, tstamp, filename, ctx_id, parent_ctx_id, loop_name,
        //       loop_iteration, iteration_value)
        //
        // Clustered by tstamp like `logs`, and `obj_store` below too:
        // hindsight replay (`load_record`) reads one run's rows of each
        // by `tstamp` equality, which binary-searches into a sorted
        // segment instead of filtering every row of it. A run commits
        // its rows under one tstamp, so sealed segments arrive sorted
        // and compaction only re-sorts the ones a backfill appended to.
        TableSchema::new(
            "loops",
            vec![
                ColumnDef::new("projid", ColType::Str),
                ColumnDef::new("tstamp", ColType::Int),
                ColumnDef::new("filename", ColType::Str),
                ColumnDef::new("ctx_id", ColType::Int),
                ColumnDef::new("parent_ctx_id", ColType::Int),
                ColumnDef::new("loop_name", ColType::Str),
                ColumnDef::new("loop_iteration", ColType::Int),
                ColumnDef::new("iteration_value", ColType::Str),
            ],
        )
        .with_cluster_by("tstamp"),
        // ts2vid(projid, ts_start, ts_end, vid, root_target)
        TableSchema::new(
            "ts2vid",
            vec![
                ColumnDef::new("projid", ColType::Str),
                ColumnDef::new("ts_start", ColType::Int),
                ColumnDef::new("ts_end", ColType::Int),
                ColumnDef::new("vid", ColType::Str),
                ColumnDef::new("root_target", ColType::Str),
            ],
        ),
        // git(vid, filename, parent_vid, contents)
        TableSchema::new(
            "git",
            vec![
                ColumnDef::new("vid", ColType::Str),
                ColumnDef::new("filename", ColType::Str),
                ColumnDef::new("parent_vid", ColType::Str),
                ColumnDef::new("contents", ColType::Str),
            ],
        ),
        // obj_store(projid, tstamp, filename, ctx_id, value_name, contents)
        TableSchema::new(
            "obj_store",
            vec![
                ColumnDef::new("projid", ColType::Str),
                ColumnDef::new("tstamp", ColType::Int),
                ColumnDef::new("filename", ColType::Str),
                ColumnDef::new("ctx_id", ColType::Int),
                ColumnDef::new("value_name", ColType::Str),
                ColumnDef::new("contents", ColType::Str),
            ],
        )
        .with_cluster_by("tstamp"),
        // build_deps(vid, target, deps, cmds, cached) — deps/cmds are text[]
        // in the paper; we store them newline-joined.
        TableSchema::new(
            "build_deps",
            vec![
                ColumnDef::new("vid", ColType::Str),
                ColumnDef::new("target", ColType::Str),
                ColumnDef::new("deps", ColType::Str),
                ColumnDef::new("cmds", ColType::Str),
                ColumnDef::new("cached", ColType::Bool),
            ],
        ),
        // jobs(job_id, seq, kind, priority, state, payload, units_total,
        //      units_done, done_keys, detail) — the flor-jobs control
        // plane. Not a Fig. 1 table: the store has no in-place update, so
        // job state transitions are append-only rows and the *latest* row
        // per job_id (max seq) is the job's current state — the same
        // latest-wins discipline `flor.utils.latest` applies to log rows.
        TableSchema::new(
            "jobs",
            vec![
                ColumnDef::new("job_id", ColType::Int),
                ColumnDef::new("seq", ColType::Int),
                ColumnDef::new("kind", ColType::Str),
                ColumnDef::new("priority", ColType::Int),
                ColumnDef::new("state", ColType::Str),
                ColumnDef::new("payload", ColType::Str),
                ColumnDef::new("units_total", ColType::Int),
                ColumnDef::new("units_done", ColType::Int),
                ColumnDef::new("done_keys", ColType::Str),
                ColumnDef::new("detail", ColType::Str),
            ],
        )
        // One live row per job (max seq); the payload lands only on the
        // first transition, so compaction must keep that row around until
        // a winning row carries the payload itself.
        .with_latest_wins(LatestWins::new(&["job_id"], Some("seq")).carry_first(&["payload"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flor_schema_has_fig1_tables_plus_jobs() {
        let s = flor_schema();
        let names: Vec<&str> = s.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "logs",
                "loops",
                "ts2vid",
                "git",
                "obj_store",
                "build_deps",
                "jobs"
            ]
        );
    }

    #[test]
    fn logs_schema_matches_fig1() {
        let s = flor_schema();
        let logs = &s[0];
        assert_eq!(
            logs.col_names(),
            vec![
                "projid",
                "tstamp",
                "filename",
                "ctx_id",
                "value_name",
                "value",
                "value_type"
            ]
        );
    }

    #[test]
    fn validate_checks_arity() {
        let t = TableSchema::new("t", vec![ColumnDef::new("a", ColType::Int)]);
        assert!(t.validate(&[Value::Int(1)]).is_ok());
        assert!(t.validate(&[]).is_err());
        assert!(t.validate(&[Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn validate_checks_types() {
        let t = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("i", ColType::Int),
                ColumnDef::new("s", ColType::Str),
                ColumnDef::new("any", ColType::Any),
            ],
        );
        assert!(t
            .validate(&[Value::Int(1), Value::Str("x".into()), Value::Float(1.5)])
            .is_ok());
        assert!(t
            .validate(&[Value::Str("no".into()), Value::Str("x".into()), Value::Null])
            .is_err());
    }

    #[test]
    fn nulls_always_accepted() {
        let t = TableSchema::new("t", vec![ColumnDef::new("i", ColType::Int)]);
        assert!(t.validate(&[Value::Null]).is_ok());
    }

    #[test]
    fn float_accepts_int_widening() {
        assert!(ColType::Float.accepts(&Value::Int(3)));
        assert!(!ColType::Int.accepts(&Value::Float(3.0)));
    }

    #[test]
    fn col_index_lookup() {
        let t = &flor_schema()[0];
        assert_eq!(t.col_index("value_name"), Some(4));
        assert_eq!(t.col_index("nope"), None);
    }
}

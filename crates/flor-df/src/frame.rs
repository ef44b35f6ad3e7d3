//! The [`DataFrame`] type: a small column-oriented table with the operators
//! `flor.dataframe` needs — select, filter, sort, join, pivot and
//! `latest`.

use crate::error::{DfError, DfResult};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// A named column of [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name; unique within a frame.
    pub name: String,
    /// Cell values, one per row.
    pub values: Vec<Value>,
}

impl Column {
    /// Create a column from anything convertible to values.
    pub fn new<N: Into<String>, V: Into<Value>>(name: N, values: Vec<V>) -> Self {
        Column {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Count of non-null cells.
    pub fn count_non_null(&self) -> usize {
        self.values.iter().filter(|v| !v.is_null()).count()
    }

    /// True iff any cell is null.
    pub fn has_nulls(&self) -> bool {
        self.values.iter().any(Value::is_null)
    }
}

/// A column-oriented table.
///
/// Invariant: all columns have identical length and unique names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    columns: Vec<Column>,
}

/// A borrowed view of one row, used by filter predicates and row iteration.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    frame: &'a DataFrame,
    idx: usize,
}

impl<'a> RowView<'a> {
    /// Value of the named column at this row, or `None` if the column does
    /// not exist.
    pub fn get(&self, name: &str) -> Option<&'a Value> {
        self.frame.column(name).map(|c| &c.values[self.idx])
    }

    /// Row index within the frame.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// The row as an owned vector, in column order.
    pub fn to_vec(&self) -> Vec<Value> {
        self.frame
            .columns
            .iter()
            .map(|c| c.values[self.idx].clone())
            .collect()
    }
}

impl DataFrame {
    /// An empty frame with no columns and no rows.
    pub fn new() -> Self {
        DataFrame::default()
    }

    /// Build a frame from columns, validating the length/name invariants.
    pub fn from_columns(columns: Vec<Column>) -> DfResult<Self> {
        if let Some(first) = columns.first() {
            let n = first.len();
            for c in &columns {
                if c.len() != n {
                    return Err(DfError::LengthMismatch {
                        column: c.name.clone(),
                        expected: n,
                        actual: c.len(),
                    });
                }
            }
        }
        let mut seen = HashMap::new();
        for c in &columns {
            if seen.insert(c.name.clone(), ()).is_some() {
                return Err(DfError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(DataFrame { columns })
    }

    /// Build a frame from column names plus row-major data.
    pub fn from_rows<N: Into<String>>(names: Vec<N>, rows: Vec<Vec<Value>>) -> DfResult<Self> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let mut cols: Vec<Column> = names
            .iter()
            .map(|n| Column {
                name: n.clone(),
                values: Vec::with_capacity(rows.len()),
            })
            .collect();
        for (i, row) in rows.into_iter().enumerate() {
            if row.len() != cols.len() {
                return Err(DfError::LengthMismatch {
                    column: format!("row {i}"),
                    expected: cols.len(),
                    actual: row.len(),
                });
            }
            for (c, v) in cols.iter_mut().zip(row) {
                c.values.push(v);
            }
        }
        DataFrame::from_columns(cols)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True iff the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Borrow all columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Cell accessor.
    pub fn get(&self, row: usize, col: &str) -> Option<&Value> {
        self.column(col).and_then(|c| c.values.get(row))
    }

    /// Append a column; must match the row count (or be the first column).
    pub fn add_column(&mut self, col: Column) -> DfResult<()> {
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(DfError::LengthMismatch {
                column: col.name.clone(),
                expected: self.n_rows(),
                actual: col.len(),
            });
        }
        if self.column(&col.name).is_some() {
            return Err(DfError::DuplicateColumn(col.name));
        }
        self.columns.push(col);
        Ok(())
    }

    /// Insert a column at position `pos` (shifting later columns right);
    /// must match the row count unless the frame is empty. Incremental
    /// view maintenance uses this to keep late-discovered dimension
    /// columns in the same position a from-scratch pivot would put them.
    pub fn insert_column(&mut self, pos: usize, col: Column) -> DfResult<()> {
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(DfError::LengthMismatch {
                column: col.name.clone(),
                expected: self.n_rows(),
                actual: col.len(),
            });
        }
        if self.column(&col.name).is_some() {
            return Err(DfError::DuplicateColumn(col.name));
        }
        let pos = pos.min(self.columns.len());
        self.columns.insert(pos, col);
        Ok(())
    }

    /// Overwrite the cell at row `row` of the column at position `col`.
    /// Panics on either index past the end (same contract as slice
    /// indexing).
    pub fn set_at(&mut self, row: usize, col: usize, value: Value) {
        self.columns[col].values[row] = value;
    }

    /// Append one row whose cell in the column at position `i` is
    /// `cell(i)` — [`DataFrame::push_row`] by position, for a writer that
    /// already knows where every column is.
    pub fn push_row_with(&mut self, mut cell: impl FnMut(usize) -> Value) {
        for (i, col) in self.columns.iter_mut().enumerate() {
            col.values.push(cell(i));
        }
    }

    /// Append a row given `(name, value)` pairs; missing columns get null,
    /// unknown names create new null-backfilled columns (NoSQL-style writes,
    /// per the paper's "flexible data writes" goal).
    pub fn push_row(&mut self, entries: &[(&str, Value)]) {
        let n = self.n_rows();
        for (name, _) in entries {
            if self.column(name).is_none() {
                self.columns.push(Column {
                    name: (*name).to_string(),
                    values: vec![Value::Null; n],
                });
            }
        }
        for col in &mut self.columns {
            let v = entries
                .iter()
                .find(|(name, _)| *name == col.name)
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null);
            col.values.push(v);
        }
    }

    /// Iterate row views.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        (0..self.n_rows()).map(move |idx| RowView { frame: self, idx })
    }

    /// Project a subset of columns, in the given order.
    pub fn select(&self, names: &[&str]) -> DfResult<DataFrame> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            let c = self
                .column(n)
                .ok_or_else(|| DfError::UnknownColumn(n.to_string()))?;
            cols.push(c.clone());
        }
        DataFrame::from_columns(cols)
    }

    /// Keep rows where `pred` returns true.
    pub fn filter<F: FnMut(RowView<'_>) -> bool>(&self, mut pred: F) -> DataFrame {
        let keep: Vec<usize> = (0..self.n_rows())
            .filter(|&idx| pred(RowView { frame: self, idx }))
            .collect();
        self.take(&keep)
    }

    /// Keep rows where `col == value` (pandas' `df[df.col == v]`).
    pub fn filter_eq(&self, col: &str, value: &Value) -> DataFrame {
        self.filter(|r| r.get(col) == Some(value))
    }

    /// Keep rows where `keep` accepts the cell of the named column —
    /// the row-level filter the query builder's residual pass and its
    /// from-scratch collect path share. Unlike [`DataFrame::filter_eq`],
    /// an unknown column is an error, so callers choose their own
    /// missing-column semantics explicitly.
    pub fn filter_by<F: Fn(&Value) -> bool>(&self, col: &str, keep: F) -> DfResult<DataFrame> {
        let c = self
            .column(col)
            .ok_or_else(|| DfError::UnknownColumn(col.to_string()))?;
        let idx: Vec<usize> = c
            .values
            .iter()
            .enumerate()
            .filter(|(_, v)| keep(v))
            .map(|(i, _)| i)
            .collect();
        Ok(self.take(&idx))
    }

    /// Materialise the rows at `indices` (in order, duplicates allowed).
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        DataFrame {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    values: indices.iter().map(|&i| c.values[i].clone()).collect(),
                })
                .collect(),
        }
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let idx: Vec<usize> = (0..self.n_rows().min(n)).collect();
        self.take(&idx)
    }

    /// Stable sort by the named key columns, each ascending (`true`) or
    /// descending (`false`).
    // audit: allow(panic) — every column name used below is checked
    // against this frame at entry (UnknownColumn otherwise), so the
    // lookups cannot fail.
    pub fn sort_by(&self, keys: &[(&str, bool)]) -> DfResult<DataFrame> {
        for (k, _) in keys {
            if self.column(k).is_none() {
                return Err(DfError::UnknownColumn((*k).to_string()));
            }
        }
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        idx.sort_by(|&a, &b| {
            for (k, asc) in keys {
                let col = self.column(k).expect("validated above");
                let ord = col.values[a].cmp(&col.values[b]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(self.take(&idx))
    }

    /// Row-major dump (useful in tests).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.rows().map(|r| r.to_vec()).collect()
    }
}

impl fmt::Display for DataFrame {
    /// Pretty-print as an aligned text table, pandas-style, with a trailing
    /// `[N rows x M columns]` footer.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_ROWS: usize = 30;
        const MAX_WIDTH: usize = 28;
        let clip = |s: String| {
            if s.chars().count() > MAX_WIDTH {
                let cut: String = s.chars().take(MAX_WIDTH - 3).collect();
                format!("{cut}...")
            } else {
                s
            }
        };
        let header: Vec<String> = self.columns.iter().map(|c| clip(c.name.clone())).collect();
        let shown = self.n_rows().min(MAX_ROWS);
        let mut grid: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            grid.push(
                self.columns
                    .iter()
                    .map(|c| clip(c.values[i].to_string()))
                    .collect(),
            );
        }
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in &grid {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let idx_w = shown.saturating_sub(1).to_string().len().max(1);
        write!(f, "{:>idx_w$} ", "")?;
        for (h, w) in header.iter().zip(&widths) {
            write!(f, " {h:>w$}")?;
        }
        writeln!(f)?;
        for (i, row) in grid.iter().enumerate() {
            write!(f, "{i:>idx_w$} ")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:>w$}")?;
            }
            writeln!(f)?;
        }
        if self.n_rows() > MAX_ROWS {
            writeln!(f, "...")?;
        }
        write!(f, "[{} rows x {} columns]", self.n_rows(), self.n_cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::new("name", vec!["a", "b", "c", "a"]),
            Column::new("x", vec![1i64, 2, 3, 4]),
            Column::new("y", vec![1.5f64, 2.5, 3.5, 4.5]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths() {
        let err = DataFrame::from_columns(vec![
            Column::new("a", vec![1i64]),
            Column::new("b", vec![1i64, 2]),
        ])
        .unwrap_err();
        assert!(matches!(err, DfError::LengthMismatch { .. }));
    }

    #[test]
    fn construction_checks_duplicates() {
        let err = DataFrame::from_columns(vec![
            Column::new("a", vec![1i64]),
            Column::new("a", vec![2i64]),
        ])
        .unwrap_err();
        assert!(matches!(err, DfError::DuplicateColumn(_)));
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![
            vec![Value::Int(1), Value::Str("x".into())],
            vec![Value::Int(2), Value::Str("y".into())],
        ];
        let df = DataFrame::from_rows(vec!["i", "s"], rows.clone()).unwrap();
        assert_eq!(df.to_rows(), rows);
    }

    #[test]
    fn select_projects_in_order() {
        let df = sample().select(&["y", "name"]).unwrap();
        assert_eq!(df.column_names(), vec!["y", "name"]);
        assert_eq!(df.n_rows(), 4);
    }

    #[test]
    fn select_unknown_errors() {
        assert!(matches!(
            sample().select(&["zzz"]),
            Err(DfError::UnknownColumn(_))
        ));
    }

    #[test]
    fn filter_eq_matches() {
        let df = sample().filter_eq("name", &Value::from("a"));
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.get(1, "x"), Some(&Value::Int(4)));
    }

    #[test]
    fn filter_by_predicate_and_unknown_column() {
        let df = sample()
            .filter_by("x", |v| v.as_i64().unwrap() > 2)
            .unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.get(0, "name"), Some(&Value::from("c")));
        assert!(matches!(
            sample().filter_by("zzz", |_| true),
            Err(DfError::UnknownColumn(_))
        ));
    }

    #[test]
    fn sort_desc_then_asc() {
        let df = sample().sort_by(&[("name", false), ("x", true)]).unwrap();
        let names: Vec<_> = df
            .column("name")
            .unwrap()
            .values
            .iter()
            .map(|v| v.to_text())
            .collect();
        assert_eq!(names, vec!["c", "b", "a", "a"]);
        assert_eq!(df.get(2, "x"), Some(&Value::Int(1)));
    }

    #[test]
    fn push_row_backfills_nulls() {
        let mut df = DataFrame::new();
        df.push_row(&[("a", Value::Int(1))]);
        df.push_row(&[("a", Value::Int(2)), ("b", Value::from("hi"))]);
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.get(0, "b"), Some(&Value::Null));
        assert_eq!(df.get(1, "b"), Some(&Value::from("hi")));
    }

    #[test]
    fn head_and_take() {
        let df = sample().head(2);
        assert_eq!(df.n_rows(), 2);
        let df2 = sample().take(&[3, 0, 0]);
        assert_eq!(df2.get(0, "x"), Some(&Value::Int(4)));
        assert_eq!(df2.get(2, "x"), Some(&Value::Int(1)));
    }

    #[test]
    fn display_formats() {
        let s = sample().to_string();
        assert!(s.contains("name"));
        assert!(s.contains("[4 rows x 3 columns]"));
    }

    #[test]
    fn display_clips_long_cells() {
        let long = "x".repeat(100);
        let df = DataFrame::from_columns(vec![Column::new("c", vec![long.as_str()])]).unwrap();
        let s = df.to_string();
        assert!(s.contains("..."));
        assert!(!s.contains(&long));
    }

    #[test]
    fn insert_column_positions_and_validates() {
        let mut df = sample();
        df.insert_column(1, Column::new("z", vec![9i64, 8, 7, 6]))
            .unwrap();
        assert_eq!(df.column_names(), vec!["name", "z", "x", "y"]);
        assert!(df
            .insert_column(0, Column::new("z", vec![1i64, 2, 3, 4]))
            .is_err());
        assert!(df.insert_column(0, Column::new("w", vec![1i64])).is_err());
        // Past-the-end position clamps to append.
        df.insert_column(99, Column::new("tail", vec![0i64, 0, 0, 0]))
            .unwrap();
        assert_eq!(df.column_names().last(), Some(&"tail"));
    }

    #[test]
    fn set_cell_overwrites() {
        let mut df = sample();
        df.set_at(2, 1, Value::Int(99));
        assert_eq!(df.get(2, "x"), Some(&Value::Int(99)));
        assert_eq!(df.n_rows(), 4);
    }

    #[test]
    fn push_row_with_appends_by_position() {
        let mut df = sample();
        df.push_row_with(|i| Value::Int(i as i64));
        assert_eq!(df.n_rows(), 5);
        assert_eq!(df.get(4, "name"), Some(&Value::Int(0)));
        assert_eq!(df.get(4, "y"), Some(&Value::Int(2)));
    }

    #[test]
    fn add_column_validates() {
        let mut df = sample();
        assert!(df.add_column(Column::new("z", vec![1i64, 2, 3, 4])).is_ok());
        assert!(df.add_column(Column::new("w", vec![1i64])).is_err());
        assert!(df
            .add_column(Column::new("z", vec![1i64, 2, 3, 4]))
            .is_err());
    }
}

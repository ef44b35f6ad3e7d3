//! Relational operators over [`DataFrame`]: hash joins, the pivoted wide
//! view used by `flor.dataframe`, and `flor.utils.latest` (paper Fig. 6).

use crate::error::{DfError, DfResult};
use crate::frame::{Column, DataFrame};
use crate::value::Value;
use std::collections::HashMap;

/// Join flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Keep only matching rows.
    Inner,
    /// Keep all left rows; unmatched right columns become null.
    Left,
    /// Keep all rows from both sides.
    Outer,
}

impl DataFrame {
    /// Hash join with `other` on the named key columns (same names on both
    /// sides, pandas `merge(on=...)` style). Non-key columns that collide
    /// get `_x` / `_y` suffixes.
    // audit: allow(panic) — every column name used below is checked
    // against this frame at entry (UnknownColumn otherwise), so the
    // lookups cannot fail.
    pub fn join(&self, other: &DataFrame, on: &[&str], kind: JoinKind) -> DfResult<DataFrame> {
        for k in on {
            if self.column(k).is_none() || other.column(k).is_none() {
                return Err(DfError::UnknownColumn((*k).to_string()));
            }
        }
        // Build side: hash the right frame's key tuples.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for i in 0..other.n_rows() {
            let key: Vec<Value> = on
                .iter()
                .map(|k| other.column(k).unwrap().values[i].clone())
                .collect();
            table.entry(key).or_default().push(i);
        }
        let mut left_idx: Vec<usize> = Vec::new();
        let mut right_idx: Vec<Option<usize>> = Vec::new();
        let mut matched_right = vec![false; other.n_rows()];
        for i in 0..self.n_rows() {
            let key: Vec<Value> = on
                .iter()
                .map(|k| self.column(k).unwrap().values[i].clone())
                .collect();
            match table.get(&key) {
                Some(rights) => {
                    for &r in rights {
                        left_idx.push(i);
                        right_idx.push(Some(r));
                        matched_right[r] = true;
                    }
                }
                None => {
                    if matches!(kind, JoinKind::Left | JoinKind::Outer) {
                        left_idx.push(i);
                        right_idx.push(None);
                    }
                }
            }
        }
        let outer_rights: Vec<usize> = if kind == JoinKind::Outer {
            (0..other.n_rows()).filter(|&r| !matched_right[r]).collect()
        } else {
            Vec::new()
        };

        let mut out = Vec::new();
        // Key columns come from the left (or right for outer-only rows).
        for k in on {
            let lc = self.column(k).unwrap();
            let rc = other.column(k).unwrap();
            let mut vals: Vec<Value> = left_idx.iter().map(|&i| lc.values[i].clone()).collect();
            vals.extend(outer_rights.iter().map(|&r| rc.values[r].clone()));
            out.push(Column {
                name: (*k).to_string(),
                values: vals,
            });
        }
        let n_out = left_idx.len() + outer_rights.len();
        for c in self.columns() {
            if on.contains(&c.name.as_str()) {
                continue;
            }
            let name = if other.column(&c.name).is_some() {
                format!("{}_x", c.name)
            } else {
                c.name.clone()
            };
            let mut vals: Vec<Value> = left_idx.iter().map(|&i| c.values[i].clone()).collect();
            vals.resize(n_out, Value::Null);
            out.push(Column { name, values: vals });
        }
        for c in other.columns() {
            if on.contains(&c.name.as_str()) {
                continue;
            }
            let name = if self.column(&c.name).is_some() {
                format!("{}_y", c.name)
            } else {
                c.name.clone()
            };
            let mut vals: Vec<Value> = right_idx
                .iter()
                .map(|r| match r {
                    Some(r) => c.values[*r].clone(),
                    None => Value::Null,
                })
                .collect();
            vals.extend(outer_rights.iter().map(|&r| c.values[r].clone()));
            out.push(Column { name, values: vals });
        }
        DataFrame::from_columns(out)
    }

    /// Pivot a long `(index..., name, value)` frame into a wide view: one
    /// output row per distinct index tuple, one output column per distinct
    /// value of `name_col`. This is exactly the transformation
    /// `flor.dataframe` applies to the `logs` table (paper §2, Fig. 3):
    /// each logging statement becomes a column.
    ///
    /// When multiple rows share (index, name) the last one wins — matching
    /// the paper's semantics where a re-logged value supersedes. A
    /// `name_col` value equal to an index column's name is a
    /// [`DfError::DuplicateColumn`].
    ///
    /// This is the generic, obviously-correct form. `flor.dataframe`
    /// itself runs `flor-view`'s pivot operator (crate-private, reached
    /// through `flor_view::execute_at` and the view catalog), which
    /// writes the same frame without a long frame in between; the
    /// property tests check the two against each other.
    pub fn pivot(&self, index: &[&str], name_col: &str, value_col: &str) -> DfResult<DataFrame> {
        let keys = index
            .iter()
            .map(|k| {
                self.column(k)
                    .ok_or_else(|| DfError::UnknownColumn((*k).to_string()))
            })
            .collect::<DfResult<Vec<&Column>>>()?;
        let names = self
            .column(name_col)
            .ok_or_else(|| DfError::UnknownColumn(name_col.to_string()))?;
        let values = self
            .column(value_col)
            .ok_or_else(|| DfError::UnknownColumn(value_col.to_string()))?;

        // Distinct output columns in first-seen order, and each input
        // row's output column.
        let mut col_order: Vec<String> = Vec::new();
        let mut col_pos: HashMap<String, usize> = HashMap::new();
        let row_col: Vec<usize> = names
            .values
            .iter()
            .map(|v| {
                *col_pos.entry(v.to_text()).or_insert_with_key(|n| {
                    col_order.push(n.clone());
                    col_order.len() - 1
                })
            })
            .collect();
        // Distinct index tuples in first-seen order, written straight
        // into the output columns; a later row for a tuple overwrites.
        let mut row_pos: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut index_cells: Vec<Vec<Value>> = vec![Vec::new(); index.len()];
        let mut cells: Vec<Vec<Value>> = vec![Vec::new(); col_order.len()];
        for (i, &c) in row_col.iter().enumerate() {
            let key: Vec<Value> = keys.iter().map(|k| k.values[i].clone()).collect();
            let r = match row_pos.get(&key) {
                Some(&r) => r,
                None => {
                    let r = row_pos.len();
                    for (col, v) in index_cells.iter_mut().zip(&key) {
                        col.push(v.clone());
                    }
                    for col in &mut cells {
                        col.push(Value::Null);
                    }
                    row_pos.insert(key, r);
                    r
                }
            };
            cells[c][r] = values.values[i].clone();
        }
        let cols = index
            .iter()
            .map(|k| k.to_string())
            .zip(index_cells)
            .chain(col_order.into_iter().zip(cells))
            .map(|(name, values)| Column { name, values })
            .collect();
        DataFrame::from_columns(cols)
    }

    /// `flor.utils.latest` (paper Fig. 6): keep, for each distinct tuple of
    /// `group` columns, only the rows carrying the maximum `time_col` value.
    // audit: allow(panic) — every column name used below is checked
    // against this frame at entry (UnknownColumn otherwise), so the
    // lookups cannot fail.
    pub fn latest(&self, group: &[&str], time_col: &str) -> DfResult<DataFrame> {
        let tc = self
            .column(time_col)
            .ok_or_else(|| DfError::UnknownColumn(time_col.to_string()))?;
        for k in group {
            if self.column(k).is_none() {
                return Err(DfError::UnknownColumn((*k).to_string()));
            }
        }
        let mut max_ts: HashMap<Vec<Value>, Value> = HashMap::new();
        for i in 0..self.n_rows() {
            let key: Vec<Value> = group
                .iter()
                .map(|k| self.column(k).unwrap().values[i].clone())
                .collect();
            let t = tc.values[i].clone();
            max_ts
                .entry(key)
                .and_modify(|m| {
                    if t > *m {
                        *m = t.clone();
                    }
                })
                .or_insert(t);
        }
        let keep: Vec<usize> = (0..self.n_rows())
            .filter(|&i| {
                let key: Vec<Value> = group
                    .iter()
                    .map(|k| self.column(k).unwrap().values[i].clone())
                    .collect();
                tc.values[i] == max_ts[&key]
            })
            .collect();
        Ok(self.take(&keep))
    }

    /// Column-wise numeric cumulative sum of `col`, as used by the paper's
    /// `get_colors` helper (Fig. 6: `astype(int).cumsum()`).
    pub fn cumsum(&self, col: &str) -> DfResult<Vec<i64>> {
        let c = self
            .column(col)
            .ok_or_else(|| DfError::UnknownColumn(col.to_string()))?;
        let mut acc = 0i64;
        let mut out = Vec::with_capacity(c.len());
        for v in &c.values {
            acc += v.as_i64().unwrap_or(0);
            out.push(acc);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_logs() -> DataFrame {
        // (tstamp, name, value) long format like the logs table
        DataFrame::from_rows(
            vec!["tstamp", "name", "value"],
            vec![
                vec![1.into(), "acc".into(), 0.8f64.into()],
                vec![1.into(), "recall".into(), 0.7f64.into()],
                vec![2.into(), "acc".into(), 0.9f64.into()],
                vec![2.into(), "recall".into(), 0.75f64.into()],
                vec![3.into(), "acc".into(), 0.85f64.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn pivot_long_to_wide() {
        let wide = long_logs().pivot(&["tstamp"], "name", "value").unwrap();
        assert_eq!(wide.column_names(), vec!["tstamp", "acc", "recall"]);
        assert_eq!(wide.n_rows(), 3);
        assert_eq!(wide.get(1, "acc"), Some(&Value::Float(0.9)));
        // tstamp 3 never logged recall: sparse null.
        assert_eq!(wide.get(2, "recall"), Some(&Value::Null));
    }

    #[test]
    fn pivot_last_write_wins() {
        let df = DataFrame::from_rows(
            vec!["k", "name", "value"],
            vec![
                vec![1.into(), "v".into(), 10.into()],
                vec![1.into(), "v".into(), 20.into()],
            ],
        )
        .unwrap();
        let wide = df.pivot(&["k"], "name", "value").unwrap();
        assert_eq!(wide.get(0, "v"), Some(&Value::Int(20)));
    }

    #[test]
    fn inner_join_basic() {
        let a = DataFrame::from_rows(
            vec!["k", "va"],
            vec![
                vec![1.into(), "x".into()],
                vec![2.into(), "y".into()],
                vec![3.into(), "z".into()],
            ],
        )
        .unwrap();
        let b = DataFrame::from_rows(
            vec!["k", "vb"],
            vec![vec![2.into(), 20.into()], vec![3.into(), 30.into()]],
        )
        .unwrap();
        let j = a.join(&b, &["k"], JoinKind::Inner).unwrap();
        assert_eq!(j.n_rows(), 2);
        assert_eq!(j.column_names(), vec!["k", "va", "vb"]);
        assert_eq!(j.get(0, "vb"), Some(&Value::Int(20)));
    }

    #[test]
    fn left_join_nulls_unmatched() {
        let a = DataFrame::from_rows(vec!["k"], vec![vec![1.into()], vec![9.into()]]).unwrap();
        let b = DataFrame::from_rows(vec!["k", "v"], vec![vec![1.into(), "hit".into()]]).unwrap();
        let j = a.join(&b, &["k"], JoinKind::Left).unwrap();
        assert_eq!(j.n_rows(), 2);
        assert_eq!(j.get(1, "v"), Some(&Value::Null));
    }

    #[test]
    fn outer_join_keeps_both() {
        let a = DataFrame::from_rows(vec!["k", "va"], vec![vec![1.into(), 10.into()]]).unwrap();
        let b = DataFrame::from_rows(vec!["k", "vb"], vec![vec![2.into(), 20.into()]]).unwrap();
        let j = a.join(&b, &["k"], JoinKind::Outer).unwrap();
        assert_eq!(j.n_rows(), 2);
        assert_eq!(j.get(0, "vb"), Some(&Value::Null));
        assert_eq!(j.get(1, "k"), Some(&Value::Int(2)));
        assert_eq!(j.get(1, "va"), Some(&Value::Null));
        assert_eq!(j.get(1, "vb"), Some(&Value::Int(20)));
    }

    #[test]
    fn join_one_to_many_multiplies() {
        let a = DataFrame::from_rows(vec!["k"], vec![vec![1.into()]]).unwrap();
        let b = DataFrame::from_rows(
            vec!["k", "v"],
            vec![vec![1.into(), 1.into()], vec![1.into(), 2.into()]],
        )
        .unwrap();
        let j = a.join(&b, &["k"], JoinKind::Inner).unwrap();
        assert_eq!(j.n_rows(), 2);
    }

    #[test]
    fn join_suffixes_collisions() {
        let a = DataFrame::from_rows(vec!["k", "v"], vec![vec![1.into(), "a".into()]]).unwrap();
        let b = DataFrame::from_rows(vec!["k", "v"], vec![vec![1.into(), "b".into()]]).unwrap();
        let j = a.join(&b, &["k"], JoinKind::Inner).unwrap();
        assert_eq!(j.column_names(), vec!["k", "v_x", "v_y"]);
    }

    #[test]
    fn latest_keeps_max_time_per_group() {
        let df = DataFrame::from_rows(
            vec!["doc", "tstamp", "v"],
            vec![
                vec!["d1".into(), 1.into(), "old".into()],
                vec!["d1".into(), 5.into(), "new".into()],
                vec!["d2".into(), 2.into(), "only".into()],
                vec!["d1".into(), 5.into(), "new2".into()],
            ],
        )
        .unwrap();
        let l = df.latest(&["doc"], "tstamp").unwrap();
        assert_eq!(l.n_rows(), 3); // both tstamp=5 rows of d1 + d2's row
        assert!(l
            .column("v")
            .unwrap()
            .values
            .iter()
            .all(|v| v.to_text() != "old"));
    }

    #[test]
    fn cumsum_matches_fig6_color_logic() {
        // first_page booleans -> page colors, as in get_colors()
        let df = DataFrame::from_rows(
            vec!["first_page"],
            vec![
                vec![true.into()],
                vec![false.into()],
                vec![true.into()],
                vec![false.into()],
            ],
        )
        .unwrap();
        let colors: Vec<i64> = df
            .cumsum("first_page")
            .unwrap()
            .iter()
            .map(|c| c - 1)
            .collect();
        assert_eq!(colors, vec![0, 0, 1, 1]);
    }

    #[test]
    fn unknown_columns_error() {
        let df = long_logs();
        assert!(df.pivot(&["zzz"], "name", "value").is_err());
        assert!(df.latest(&["zzz"], "tstamp").is_err());
        assert!(df.join(&df, &["zzz"], JoinKind::Inner).is_err());
        assert!(df.cumsum("zzz").is_err());
    }
}

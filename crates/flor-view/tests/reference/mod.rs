//! The pivot's reference, independent of flor-view's pivot operator: each
//! projected `logs` row joined to its loop chain as one row of a long
//! frame, then the generic `DataFrame::pivot` over every column but
//! `value_name` and `value`. Chains are resolved here from the raw
//! `loops` rows, with the same cell conventions (`ctx_id` and
//! `parent_ctx_id` read as integers, null as 0; iteration as an integer;
//! the loop value as text).

use flor_df::{DataFrame, DataType, DfResult, Value};
use std::collections::HashMap;

/// One `loops` row, as a chain link.
struct Link {
    parent: i64,
    name: String,
    iteration: Value,
    value: Value,
}

/// `flor.dataframe(names)` over `logs` and `loops` frames (the Fig. 1
/// columns, rows in commit order): the long frame pivoted wide. No
/// projected row gives a frame with no columns at all.
pub fn reference_pivot(logs: &DataFrame, loops: &DataFrame, names: &[&str]) -> DfResult<DataFrame> {
    let mut links: HashMap<i64, Link> = HashMap::new();
    for row in loops.rows() {
        let cell = |c: &str| row.get(c).cloned().unwrap_or(Value::Null);
        let value = match cell("iteration_value") {
            Value::Str(s) => Value::Str(s),
            other => Value::from(other.to_text()),
        };
        links.insert(
            cell("ctx_id").as_i64().unwrap_or(0),
            Link {
                parent: cell("parent_ctx_id").as_i64().unwrap_or(0),
                name: cell("loop_name").to_text(),
                iteration: Value::Int(cell("loop_iteration").as_i64().unwrap_or(0)),
                value,
            },
        );
    }
    let mut long = DataFrame::new();
    for row in logs.rows() {
        let cell = |c: &str| row.get(c).cloned().unwrap_or(Value::Null);
        let name = cell("value_name");
        if !names.contains(&name.to_text().as_str()) {
            continue;
        }
        let mut chain = Vec::new();
        let mut ctx = cell("ctx_id").as_i64().unwrap_or(0);
        while let Some(link) = links.get(&ctx).filter(|_| ctx != 0) {
            chain.push(link);
            ctx = link.parent;
        }
        let mut entries: Vec<(String, Value)> = ["projid", "tstamp", "filename"]
            .iter()
            .map(|c| (c.to_string(), cell(c)))
            .collect();
        for link in chain.iter().rev() {
            entries.push((format!("{}_iteration", link.name), link.iteration.clone()));
            entries.push((format!("{}_value", link.name), link.value.clone()));
        }
        let tag = cell("value_type").as_i64().unwrap_or(DataType::Str.tag());
        let value = Value::from_text(&cell("value").to_text(), DataType::from_tag(tag));
        entries.push(("value_name".to_string(), name));
        entries.push(("value".to_string(), value));
        let entries: Vec<(&str, Value)> = entries
            .iter()
            .map(|(c, v)| (c.as_str(), v.clone()))
            .collect();
        long.push_row(&entries);
    }
    if long.n_rows() == 0 {
        return Ok(DataFrame::new());
    }
    let index: Vec<&str> = long
        .column_names()
        .into_iter()
        .filter(|c| *c != "value_name" && *c != "value")
        .collect();
    long.pivot(&index, "value_name", "value")
}

//! # flor-df — columnar DataFrames for FlorDB
//!
//! A compact, dependency-free DataFrame library providing the relational
//! view layer of FlorDB (CIDR 2025). The paper exposes log data "directly as
//! tabular data using standard Python dataframes"; this crate is the Rust
//! equivalent, implementing exactly the operators `flor.dataframe` relies
//! on:
//!
//! * dynamic [`Value`] cells matching the `value_type`-tagged text storage
//!   of the paper's `logs` table (Fig. 1);
//! * projection, filtering, sorting;
//! * hash [`DataFrame::join`] (inner/left/outer) for `logs ⋈ loops ⋈ ts2vid`;
//! * [`DataFrame::pivot`] — the long→wide transform that turns each logging
//!   statement into a column (paper §2, Fig. 3);
//! * [`DataFrame::latest`] — `flor.utils.latest` (paper Fig. 6).
//!
//! ```
//! use flor_df::{DataFrame, Value};
//! let logs = DataFrame::from_rows(
//!     vec!["tstamp", "value_name", "value"],
//!     vec![
//!         vec![1.into(), "acc".into(), 0.8.into()],
//!         vec![1.into(), "recall".into(), 0.7.into()],
//!         vec![2.into(), "acc".into(), 0.9.into()],
//!     ],
//! ).unwrap();
//! let wide = logs.pivot(&["tstamp"], "value_name", "value").unwrap();
//! assert_eq!(wide.get(1, "acc"), Some(&Value::Float(0.9)));
//! ```

#![warn(missing_docs)]

mod error;
mod frame;
mod ops;
mod value;

pub use error::{DfError, DfResult};
pub use frame::{Column, DataFrame, RowView};
pub use ops::JoinKind;
pub use value::{DataType, Value};

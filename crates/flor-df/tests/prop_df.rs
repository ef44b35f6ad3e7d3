//! Property-based tests for flor-df invariants.

use flor_df::{DataFrame, JoinKind, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000.0f64..1000.0).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::from),
    ]
}

/// A long-format logs frame: (run, name, value).
fn arb_long() -> impl Strategy<Value = DataFrame> {
    proptest::collection::vec((0i64..6, 0u8..5, arb_value()), 0..60).prop_map(|rows| {
        DataFrame::from_rows(
            vec!["run", "name", "value"],
            rows.into_iter()
                .map(|(r, n, v)| vec![Value::Int(r), Value::from(format!("m{n}")), v])
                .collect(),
        )
        .unwrap()
    })
}

proptest! {
    /// Pivot preserves the last-written value for every (index, name) pair.
    #[test]
    fn pivot_is_last_write_wins(df in arb_long()) {
        let wide = df.pivot(&["run"], "name", "value").unwrap();
        for i in 0..df.n_rows() {
            let run = df.get(i, "run").unwrap().clone();
            let name = df.get(i, "name").unwrap().to_text();
            // Find the last row with this (run, name).
            let last = (0..df.n_rows())
                .rev()
                .find(|&j| df.get(j, "run").unwrap() == &run
                    && df.get(j, "name").unwrap().to_text() == name)
                .unwrap();
            let expected = df.get(last, "value").unwrap();
            let row = (0..wide.n_rows())
                .find(|&r| wide.get(r, "run").unwrap() == &run)
                .expect("pivot must contain every index key");
            prop_assert_eq!(wide.get(row, &name).unwrap(), expected);
        }
    }

    /// Pivot output has one row per distinct index value.
    #[test]
    fn pivot_row_count_is_distinct_keys(df in arb_long()) {
        let wide = df.pivot(&["run"], "name", "value").unwrap();
        let distinct = df.column("run").unwrap().values.iter()
            .collect::<std::collections::HashSet<_>>().len();
        prop_assert_eq!(wide.n_rows(), distinct);
    }

    /// Inner self-join on a unique key is the identity (modulo suffixed
    /// duplicate columns).
    #[test]
    fn self_join_on_unique_key_is_identity(n in 0usize..30) {
        let df = DataFrame::from_rows(
            vec!["k", "v"],
            (0..n).map(|i| vec![Value::Int(i as i64), Value::Int((i * 7) as i64)]).collect(),
        ).unwrap();
        let j = df.join(&df, &["k"], JoinKind::Inner).unwrap();
        prop_assert_eq!(j.n_rows(), n);
        for i in 0..n {
            prop_assert_eq!(j.get(i, "v_x").unwrap(), j.get(i, "v_y").unwrap());
        }
    }

    /// Inner join row count equals the sum over keys of |L_k| * |R_k|.
    #[test]
    fn join_cardinality(
        left in proptest::collection::vec(0i64..5, 0..20),
        right in proptest::collection::vec(0i64..5, 0..20),
    ) {
        let l = DataFrame::from_rows(
            vec!["k"], left.iter().map(|&k| vec![Value::Int(k)]).collect()).unwrap();
        let r = DataFrame::from_rows(
            vec!["k"], right.iter().map(|&k| vec![Value::Int(k)]).collect()).unwrap();
        let j = l.join(&r, &["k"], JoinKind::Inner).unwrap();
        let mut expected = 0usize;
        for k in 0..5 {
            let lc = left.iter().filter(|&&x| x == k).count();
            let rc = right.iter().filter(|&&x| x == k).count();
            expected += lc * rc;
        }
        prop_assert_eq!(j.n_rows(), expected);
    }

    /// Left join preserves every left row at least once.
    #[test]
    fn left_join_preserves_left(
        left in proptest::collection::vec(0i64..5, 1..20),
        right in proptest::collection::vec(0i64..5, 0..20),
    ) {
        let l = DataFrame::from_rows(
            vec!["k"], left.iter().map(|&k| vec![Value::Int(k)]).collect()).unwrap();
        let r = DataFrame::from_rows(
            vec!["k", "v"],
            right.iter().map(|&k| vec![Value::Int(k), Value::Int(k)]).collect()).unwrap();
        let j = l.join(&r, &["k"], JoinKind::Left).unwrap();
        prop_assert!(j.n_rows() >= left.len());
    }

    /// Sorting is stable and a permutation of the input.
    #[test]
    fn sort_is_permutation(df in arb_long()) {
        let sorted = df.sort_by(&[("name", true), ("run", false)]).unwrap();
        prop_assert_eq!(sorted.n_rows(), df.n_rows());
        let mut a = df.to_rows();
        let mut b = sorted.to_rows();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// latest() only keeps rows whose timestamp is maximal for their group.
    #[test]
    fn latest_rows_are_maximal(rows in proptest::collection::vec((0i64..4, 0i64..10), 1..40)) {
        let df = DataFrame::from_rows(
            vec!["g", "t"],
            rows.iter().map(|&(g, t)| vec![Value::Int(g), Value::Int(t)]).collect(),
        ).unwrap();
        let l = df.latest(&["g"], "t").unwrap();
        for r in 0..l.n_rows() {
            let g = l.get(r, "g").unwrap().as_i64().unwrap();
            let t = l.get(r, "t").unwrap().as_i64().unwrap();
            let max = rows.iter().filter(|(gg, _)| *gg == g).map(|(_, tt)| *tt).max().unwrap();
            prop_assert_eq!(t, max);
        }
        // Every group present in input appears in output.
        let groups_in: std::collections::HashSet<i64> = rows.iter().map(|(g, _)| *g).collect();
        let groups_out: std::collections::HashSet<i64> = l.column("g").unwrap().values.iter()
            .map(|v| v.as_i64().unwrap()).collect();
        prop_assert_eq!(groups_in, groups_out);
    }

    /// Value text round-trip through (to_text, data_type).
    #[test]
    fn value_text_round_trip(v in arb_value()) {
        let text = v.to_text();
        let back = Value::from_text(&text, v.data_type());
        prop_assert_eq!(back, v);
    }

    /// filter never grows.
    #[test]
    fn concat_and_filter_lengths(df in arb_long()) {
        let f = df.filter(|r| r.get("run").unwrap().as_i64().unwrap_or(0) % 2 == 0);
        prop_assert!(f.n_rows() <= df.n_rows());
    }
}

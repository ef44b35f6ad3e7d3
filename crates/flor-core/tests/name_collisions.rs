//! A logged name equal to an index column — a fixed context column such
//! as `tstamp`, or a loop dimension such as `epoch_iteration` — has no
//! column of its own in the pivot. Both executors refuse it with the same
//! typed error, whichever order the rows arrived in and whether or not
//! the view was already materialised when the colliding row landed.

use flor_core::Flor;
use flor_df::{DataFrame, DfError};
use flor_store::{StoreError, StoreResult};

/// Assert `got` is the pivot's duplicate-column error for `name`.
fn assert_duplicate(got: StoreResult<DataFrame>, name: &str, path: &str) {
    match got {
        Err(StoreError::Df(DfError::DuplicateColumn(col))) => assert_eq!(col, name, "{path}"),
        other => panic!("{path}: expected DuplicateColumn({name:?}), got {other:?}"),
    }
}

/// `collect()` (the view) and `collect_full()` (the snapshot executor)
/// both refuse `names` because of `name`.
fn assert_both_refuse(flor: &Flor, names: &[&str], name: &str) {
    assert_duplicate(flor.query(names).collect(), name, "collect");
    assert_duplicate(flor.query(names).collect_full(), name, "collect_full");
}

#[test]
fn a_value_named_tstamp_is_refused_by_both_executors() {
    let flor = Flor::new("collide");
    flor.set_filename("train.fl");
    flor.log("tstamp", 99);
    flor.log("loss", 0.5);
    flor.commit("run").unwrap();
    assert_both_refuse(&flor, &["tstamp", "loss"], "tstamp");
    // Asking again does not serve a half-built view.
    assert_both_refuse(&flor, &["tstamp", "loss"], "tstamp");
    // Without the colliding name the same rows pivot as usual.
    assert_eq!(flor.query(&["loss"]).collect().unwrap().n_rows(), 1);
}

#[test]
fn a_value_named_like_a_loop_dimension_is_refused_by_both_executors() {
    let flor = Flor::new("collide");
    flor.set_filename("train.fl");
    flor.for_each("epoch", 0..2, |flor, _| {
        flor.log("loss", 0.5);
    });
    flor.log("epoch_iteration", 7);
    flor.commit("run").unwrap();
    assert_both_refuse(&flor, &["loss", "epoch_iteration"], "epoch_iteration");
    assert_both_refuse(&flor, &["epoch_iteration", "loss"], "epoch_iteration");
}

#[test]
fn a_collision_arriving_as_a_delta_is_refused_and_stays_refused() {
    let flor = Flor::new("collide");
    flor.set_filename("train.fl");
    flor.for_each("epoch", 0..2, |flor, _| {
        flor.log("loss", 0.5);
    });
    flor.commit("run").unwrap();
    let names = ["loss", "epoch_iteration"];
    // Materialised before any row is named `epoch_iteration`.
    assert_eq!(flor.query(&names).collect().unwrap().n_rows(), 2);
    flor.log("epoch_iteration", 7);
    flor.commit("late").unwrap();
    assert_both_refuse(&flor, &names, "epoch_iteration");
    assert_both_refuse(&flor, &names, "epoch_iteration");

    // The same for a fixed column, and for a `latest` view.
    let latest = ["loss", "tstamp"];
    assert!(flor.query(&latest).latest(&["projid"]).collect().is_ok());
    flor.log("tstamp", 1);
    flor.commit("later").unwrap();
    for path in ["collect", "collect_full"] {
        let q = flor.query(&latest).latest(&["projid"]);
        let got = match path {
            "collect" => q.collect(),
            _ => q.collect_full(),
        };
        assert_duplicate(got, "tstamp", path);
    }
}

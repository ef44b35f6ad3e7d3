//! # flor-record — record/replay for multiversion hindsight logging
//!
//! The mechanics behind FlorDB's "magic trick" (CIDR 2025, §2): log now,
//! get data from the past.
//!
//! * [`record()`](fn@record) — run a program under a [`Recorder`], capturing every
//!   `flor.log` with loop context, resolved `flor.arg`s, and snapshots of
//!   what the checkpoint loop can change, at its iteration boundaries
//!   under a [`CheckpointPolicy`]
//!   (`None` / `EveryK` / the paper's `Adaptive` low-overhead policy);
//! * [`Placement`] — where a patched program's injected statements sit
//!   relative to its checkpoint loop (before, inside — as the body's tail
//!   or not — or after);
//! * [`replay()`](fn@replay) — given a (patched) program and a prior [`RunRecord`],
//!   plan the minimal set of iterations to execute ([`plan_replay`]),
//!   restore from the nearest checkpoints, resume only an injected tail
//!   where the placement allows, skip memoized iterations, and fan work
//!   out across threads;
//! * [`merge_logs`] — combine memoized recorded values with freshly
//!   replayed ones into the complete log of the patched program.
//!
//! The crate-level invariant, enforced by tests: *hindsight-replayed values
//! are bit-identical to the values a foresight run (the patched program
//! executed from scratch) would have logged.*

#![warn(missing_docs)]

pub mod placement;
pub mod record;
pub mod replay;

pub use placement::{Placement, Site};
pub use record::{record, CheckpointPolicy, LogRecord, Recorder, RunRecord};
pub use replay::{
    iterations_logging, merge_logs, plan_replay, replay, replay_with, IterAction, ReplayControl,
    ReplayOutcome, ReplayPlan, Replayer,
};

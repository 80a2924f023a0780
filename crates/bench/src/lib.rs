//! # bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§4) on the simulated substrate, plus shared
//! helpers for the Criterion benchmarks. See `src/bin/experiments.rs`
//! for the runnable harness and `EXPERIMENTS.md` for recorded outputs.

#![warn(missing_docs)]

pub mod alloc;
pub mod dict;
pub mod drift;
pub mod experiments;
pub mod fleet;
pub mod serve;

pub use dict::{
    dict_load, dict_suite, family_app, DictAppRow, DictLoadConfig, DictReport, DictSuiteRow,
};
pub use drift::{drift_feedback, DriftConfig, DriftReport};
pub use experiments::*;
pub use fleet::{fleet_load, FleetLoadConfig, FleetReport};
pub use serve::{serve_load, serve_one_slow, ServeLoadConfig, ServeReport};

//! # calibro-conform
//!
//! The differential-execution conformance harness for the Calibro
//! reproduction. The paper validates that linking-time outlining is
//! observationally invisible by running six commercial apps; this crate
//! validates the reproduction mechanically:
//!
//! 1. **Generate** seeded programs — app-shaped redundancy via
//!    [`calibro_workloads`] knobs plus targeted generators for the three
//!    ART patterns CTO outlines (`ArtMethod` call, `x19` entrypoint
//!    call, stack-overflow check).
//! 2. **Compare** every build-configuration matrix row (every
//!    [`LtboMode`](calibro::LtboMode), pass-pipeline subsets, 1 and 8
//!    compile threads) against the baseline: identical per-call
//!    outcomes, identical final [`StateSnapshot`](calibro_runtime::StateSnapshot),
//!    a cycle-sanity envelope, and structural invariants on the linked
//!    OAT (no overlapping symbols, every branch in-bounds).
//! 3. **Shrink** any divergence with a delta-debugging loop (trace →
//!    methods → blocks → instructions), emitting a ready-to-paste Rust
//!    reproducer plus a one-line entry for the committed regression
//!    corpus.
//!
//! The `conform` binary drives it: `--seeds N` sweeps the matrix,
//! `--shrink` minimizes one known case, and `--mutate` flips one encoded
//! instruction post-link to prove the oracle actually detects
//! miscompiles.

#![warn(missing_docs)]

mod corpus;
mod matrix;
mod mutate;
mod oracle;
mod program;
mod report;
mod shrink;

pub use corpus::{parse_corpus, SeedLine};
pub use matrix::{baseline_options, find_variant, full_matrix, Variant};
pub use mutate::{find_detected_mutation, Mutation};
pub use oracle::{
    check_oat, check_program, check_program_warm, check_variant, check_variant_warm, run_baseline,
    BaselineRun, Divergence, CYCLE_FACTOR, CYCLE_SLACK, MAX_STEPS,
};
pub use program::Program;
pub use report::{insn_to_rust, reproducer};
pub use shrink::{divergence_of, shrink, shrink_divergence, shrink_rooted};

/// The committed regression corpus, replayed by `tests/corpus.rs` and
/// appended to by the `conform` binary when it finds a divergence.
pub const CORPUS: &str = include_str!("../corpus/regressions.txt");

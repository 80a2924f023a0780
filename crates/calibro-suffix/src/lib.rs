//! # calibro-suffix
//!
//! Suffix-tree machinery for the Calibro reproduction: a suffix tree
//! over `u64` symbol sequences stored as an enhanced suffix array (suffix
//! array, LCP array, LCP intervals), repeat enumeration, the
//! paper's Figure 2 benefit model, overlap-resolving outline-plan
//! selection, and the paralleled-suffix-tree optimization (`PlOpti`,
//! §3.4.1 of the paper).
//!
//! # Examples
//!
//! Estimate the code-size reduction potential of a redundant sequence the
//! way the paper's §2.2 analysis does:
//!
//! ```
//! use calibro_suffix::{estimate_reduction, SuffixTree};
//!
//! // 50 basic blocks, each ending in a unique separator, all containing
//! // the same 8-symbol body.
//! let mut text = Vec::new();
//! for i in 0..50u64 {
//!     text.extend_from_slice(&[1u64, 2, 3, 4, 5, 6, 7, 8]);
//!     text.push(1_000 + i);
//! }
//! let tree = SuffixTree::build(text);
//! assert!(estimate_reduction(&tree, 2) > 0.75);
//! ```

#![warn(missing_docs)]

pub mod benefit;
mod naive;
mod parallel;
mod repeats;
mod tree;

pub use naive::{
    count_occurrences as naive_count, find_positions as naive_positions, repeated_substrings,
};
pub use parallel::{
    detect_group, group_text_len, partition_stable, partition_stable_by, stable_sequence_hash,
    stable_sequence_hash_of, GroupPlan, TaggedSequence, UNIQUE_SEPARATOR_BASE,
};
pub use repeats::{
    census, estimate_reduction, find_repeats, select_outline_rows, CensusEntry, OutlineCandidate,
    PlanRows, Repeat,
};
pub use tree::{InternalNode, NodeId, SuffixTree, Symbol, TERMINAL};

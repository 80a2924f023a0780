//! # calibro-dict
//!
//! The cross-tenant shared-outline dictionary: a content-addressed
//! registry of outlined-function bodies that every tenant served by one
//! `calibrod` daemon can link against, so an app-independent pattern
//! (the paper's §3.1 observation, pushed through LTBO) is carried
//! *once per daemon* instead of once per app. This is ShareJIT's
//! cross-process code-cache sharing applied to outlined functions
//! (PAPERS.md).
//!
//! [`DictRegistry`]/[`DictSession`] are the daemon-wide registry of
//! published bodies — each keyed by the hash of its words — sealed into
//! immutable epoch islands, with per-candidate routing and
//! [`DictStats`] (module `registry`).

#![warn(missing_docs)]

mod registry;

pub use registry::{DictRegistry, DictSession, DictStats, EpochLayout, MIN_ISLAND_WORDS};

//! # calibro-dict
//!
//! The cross-tenant shared-outline dictionary: a content-addressed
//! registry of outlined-function bodies that every tenant served by one
//! `calibrod` daemon can link against, so an app-independent pattern
//! (the paper's §3.1 observation, pushed through LTBO) is carried
//! *once per daemon* instead of once per app. This is ShareJIT's
//! cross-process code-cache sharing applied to outlined functions, with
//! the optimistic-commit/fall-back-private arbitration of the global
//! function merger (both PAPERS.md).
//!
//! Three pieces:
//!
//! - [`canonical_key`]/[`canonicalize`]: register-normalized 128-bit
//!   content addressing of bodies (module `canon`).
//! - [`DictRegistry`]/[`DictSession`]: the daemon-wide registry of
//!   published bodies, sealed into immutable epoch islands, with
//!   per-candidate routing and [`DictStats`] (module `registry`).
//! - Persistence and the fleet tier live in `calibro-cache`'s
//!   dictionary lane ([`DictEntry`](calibro_cache::DictEntry), `.cald`
//!   frames, `PeerLane::Dict`); this crate consumes them through
//!   [`ArtifactStore::dicts`](calibro_cache::ArtifactStore::dicts).

#![warn(missing_docs)]

mod canon;
mod registry;

pub use canon::{canonical_key, canonicalize};
pub use registry::{DictRegistry, DictSession, DictStats, EpochLayout};

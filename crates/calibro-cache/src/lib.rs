//! # calibro-cache
//!
//! The content-addressed per-method artifact store behind incremental
//! recompilation: `dex2oat` re-runs over apps whose DEX changes only
//! incrementally between updates, so the build pipeline memoizes each
//! method's [`CompiledMethod`](calibro_codegen::CompiledMethod) — code
//! bytes, LTBO metadata, stack maps — plus its pass counters and its
//! precomputed LTBO symbolization, keyed by
//!
//! ```text
//! key = H(schema salt, BuildOptions fingerprint, method bytecode)
//! ```
//!
//! (a method compiles from its own body alone). A rebuild after
//! an N-method delta recompiles only the N changed methods; everything
//! else replays from the store, and the linked output is byte-identical
//! to a cold build because compilation is deterministic in exactly the
//! key's inputs.
//!
//! The store is thread-safe (`&self` everywhere) so the driver's
//! index-order compile workers probe and populate it concurrently, and
//! optionally persists entries to disk — written best-effort, read
//! strictly (checksums + structural validation), so a poisoned entry
//! surfaces as a typed [`CacheError`] rather than a panic or a
//! miscompile.
//!
//! Frames are written in the workspace's one binary codec,
//! [`calibro_dex::wire`] — the compile daemon's messages and the OAT's
//! `.oatdata` too: one [`Wire`](calibro_dex::wire::Wire) trait, one
//! bounds-checked reader.

#![warn(missing_docs)]

mod disk;
mod entry;
mod error;
mod hash;
mod lane;
mod method_hash;
mod peer;
mod policy;
mod store;

pub use disk::{fnv64, from_frame, to_frame, LaneEntry, FORMAT_VERSION};
pub use entry::{
    sequence_content_key, CacheEntry, GroupPlanEntry, SymbolTemplate, LEADER_SEPARATOR,
};
pub use error::CacheError;
pub use hash::{CacheKey, StableHasher};
pub use lane::Lane;
pub use method_hash::{hash_method, hash_program};
pub use peer::{PeerError, PeerFetch, PeerFrame, PeerLane, PeerSource};
pub use store::{ArtifactStore, CacheConfig, CacheStats};

/// Schema salt folded into every cache key: the crate version plus a
/// manually bumped counter for behavioural changes that do not move the
/// version (e.g. a codegen fix). Keys from other schemas never match.
/// `+s9`: `BuildOptions`' wire row lost `dict` (the shared outline
/// dictionary is gone), so a row of the old schema could spell one of
/// the new under other options.
pub const SCHEMA_VERSION: &str = concat!(env!("CARGO_PKG_VERSION"), "+s9");

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
//! key = H(schema salt, compile config, method bytecode)
//! ```
//!
//! (a method compiles from its own body and the options codegen reads —
//! CTO, the pass switches, whether metadata is collected — alone; the
//! load address, hot set and LTBO mode are read after it and key
//! nothing). A rebuild after
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
mod store;

pub use disk::{fnv64, from_frame, to_frame, LaneEntry, FORMAT_VERSION};
pub use entry::{
    sequence_content_key, CacheEntry, GroupPlanEntry, Row, SymbolTemplate, LEADER_SEPARATOR,
};
pub use error::CacheError;
pub use hash::{CacheKey, StableHasher};
pub use lane::Lane;
pub use method_hash::{hash_method, hash_program};
pub use store::{ArtifactStore, CacheConfig, CacheStats};

/// Schema salt folded into every cache key: the crate version plus a
/// manually bumped counter for behavioural changes that do not move the
/// version (e.g. a codegen fix). Keys from other schemas never match.
/// `+s10`: a method key embeds the compile config's fingerprint in
/// place of the whole options', and a group-plan key `min_len` in place
/// of the whole LTBO config's.
pub const SCHEMA_VERSION: &str = concat!(env!("CARGO_PKG_VERSION"), "+s10");

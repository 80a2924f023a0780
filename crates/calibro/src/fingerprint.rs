//! Canonical fingerprints of build configuration, and the cache keys
//! composed from them.
//!
//! One walk per configuration type: a fingerprint is a domain tag plus
//! the type's [`Wire`] row — the same bytes a build request carries to
//! the daemon — so the rows at the bottom of this file are the only
//! place a [`BuildOptions`], [`CompileConfig`] or [`LtboConfig`] field
//! is spelled out. Each row destructures its input exhaustively (no
//! `..`) and decodes into a literal without `..`: adding a field or a
//! variant fails compilation there, so a new knob can never silently be
//! left out of a key (which would let two different configurations
//! collide on one cached artifact — a stale-hit miscompile). That equal
//! keys mean equal configurations is the codec's round trip
//! (`tests/key_wire.rs`), not a separate argument.
//!
//! Each cached artifact is keyed by exactly what its stage reads. A
//! method compiles from its body and its [`CompileConfig`] alone, so its
//! key is those two under the schema salt ([`compile_fingerprint`],
//! [`method_cache_key`]); a group plan is detected from its members'
//! symbol text and `min_len` alone, so its key is those
//! ([`group_plan_key_from`]). The load address, the LTBO mode, the hot
//! set and the thread counts are in neither: a rebuild that changes only
//! them replays every method. The full [`options_fingerprint`] names a
//! configuration on the wire (the daemon's cross-check, tenant identity,
//! replay slots) and addresses no cache entry.

use std::cell::RefCell;

use calibro_cache::{hash_method, hash_program, CacheKey, StableHasher, SCHEMA_VERSION};
use calibro_dex::wire::{wire_fields, Reader, Wire, WireError, Writer};
use calibro_dex::{DexFile, Method};

use crate::driver::{BuildOptions, CompileConfig};
use crate::ltbo::{LtboConfig, LtboMode};

thread_local! {
    /// The reusable per-worker serialization buffer: every method (and
    /// symbol-sequence) key on one worker thread reuses one allocation
    /// via [`StableHasher::finish_reset`]. Only bounded-size inputs go
    /// through it — whole-program hashing allocates its own buffer so a
    /// one-off multi-megabyte program hash does not pin that capacity
    /// in the thread-local for the rest of the process.
    static SCRATCH: RefCell<StableHasher> = RefCell::new(StableHasher::with_capacity(4096));
}

/// Feeds an [`LtboConfig`] into `h` — the LTBO fingerprint a build
/// request carries beside the options fingerprint.
pub fn fingerprint_ltbo_config(config: &LtboConfig, h: &mut StableHasher) {
    h.write_tag(0x4C); // 'L'
    h.write_wire(config);
}

/// The fingerprint of a whole configuration: schema salt plus the full
/// [`BuildOptions`]. It names a configuration; no cache key embeds it.
#[must_use]
pub fn options_fingerprint(options: &BuildOptions) -> CacheKey {
    let mut h = StableHasher::new();
    h.write_str(SCHEMA_VERSION);
    h.write_tag(0x42); // 'B'
    h.write_wire(options);
    h.finish()
}

/// The fingerprint every method key of a build embeds: schema salt plus
/// the [`CompileConfig`] row.
#[must_use]
pub fn compile_fingerprint(config: &CompileConfig) -> CacheKey {
    let mut h = StableHasher::new();
    h.write_str(SCHEMA_VERSION);
    h.write_tag(0x43); // 'C'
    h.write_wire(config);
    h.finish()
}

/// The content address of one detection group's cached
/// [`GroupPlanEntry`](calibro_cache::GroupPlanEntry), composed
/// Merkle-style from its members'
/// [`sequence_content_key`](calibro_cache::sequence_content_key)s: schema
/// salt, `min_len`, the member count, then each member key in group
/// order. Detection reads the members' symbol text and `min_len` and
/// nothing else; a hot method's restriction to its slow paths is in its
/// template, so in its member key.
///
/// The composition makes the warm probe O(members) instead of
/// O(total symbol text): per-sequence keys are computed once per method
/// (when its template is built) and a group's key is then a handful of
/// mixes. Distinct splits of the same flattened text get distinct keys
/// because every member key frames its own length.
///
/// The members come as an iterator, and the bytes go through one
/// reusable buffer per thread: a warm build keys every group, and needs
/// no allocation to do it.
#[must_use]
pub fn group_plan_key_from(
    min_len: usize,
    members: impl ExactSizeIterator<Item = CacheKey>,
) -> CacheKey {
    thread_local! {
        static SCRATCH: RefCell<StableHasher> = RefCell::new(StableHasher::with_capacity(1024));
    }
    SCRATCH.with(|cell| {
        let mut h = cell.borrow_mut();
        h.write_str(SCHEMA_VERSION);
        h.write_tag(0x47); // 'G'
        h.write_usize(min_len);
        h.write_usize(members.len());
        for k in members {
            h.write_wire(&k);
        }
        h.finish_reset()
    })
}

/// Fingerprint of the *reference environment*: exactly the
/// program-level facts [`calibro_dex::verify_references`] reads —
/// method count, per-callee nativeness, class count, the field bound,
/// and the static-slot bound. Everything else that check consumes is
/// the method body itself, which the per-method cache key already
/// covers, so `hit && entry.ref_env == reference_env(dex)` proves both
/// inputs of that deterministic check are unchanged and the warm path
/// may skip re-running it.
///
/// One pass over per-method flags and class headers — never over
/// bytecode — so it costs microseconds where the skipped re-verify
/// walks every instruction of every method.
#[must_use]
pub fn reference_env(dex: &DexFile) -> u64 {
    let mut h = StableHasher::new();
    h.write_tag(0x52); // 'R'
    let methods = dex.methods();
    h.write_usize(methods.len());
    // Per-callee nativeness, packed 64 methods to a word.
    let mut word = 0u64;
    for (i, m) in methods.iter().enumerate() {
        if m.is_native {
            word |= 1 << (i % 64);
        }
        if i % 64 == 63 {
            h.write_u64(word);
            word = 0;
        }
    }
    if !methods.len().is_multiple_of(64) {
        h.write_u64(word);
    }
    h.write_usize(dex.classes().len());
    h.write_u32(dex.classes().iter().map(|c| c.num_fields).max().unwrap_or(0));
    h.write_u32(dex.num_statics());
    let k = h.finish();
    k.hi ^ k.lo
}

/// The whole-program hash: a program's content key (calibrod's
/// `ProgramId` and tenant identity). No method key
/// includes it — a method compiles from its own body alone.
#[must_use]
pub fn program_salt(dex: &DexFile) -> CacheKey {
    let mut h = StableHasher::new();
    hash_program(dex, &mut h);
    h.finish()
}

/// The content address of one method's compilation artifact: its
/// build's [`compile_fingerprint`] and the method.
///
/// Serializes the method into the calling worker's thread-local scratch
/// buffer and mixes it in one word-at-a-time pass — the per-method hot
/// path of every warm rebuild, so it never allocates after a worker's
/// first method.
#[must_use]
pub fn method_cache_key(method: &Method, compile_fp: CacheKey) -> CacheKey {
    SCRATCH.with(|cell| {
        let mut h = cell.borrow_mut();
        h.write_wire(&compile_fp);
        hash_method(method, &mut h);
        h.finish_reset()
    })
}

wire_fields!(CompileConfig { cto, passes, metadata });

/// `None` / `Global` / `Parallel { groups, threads }` share one tag
/// byte, so this is not the generic `Option` form. (Free functions:
/// `impl Wire for Option<LtboMode>` is an orphan outside the trait's
/// crate.)
fn put_ltbo(ltbo: Option<LtboMode>, w: &mut Writer) {
    match ltbo {
        None => w.u8(0),
        Some(LtboMode::Global) => w.u8(1),
        Some(LtboMode::Parallel { groups, threads }) => {
            w.u8(2);
            groups.put(w);
            threads.put(w);
        }
    }
}

fn get_ltbo(r: &mut Reader<'_>, what: &'static str) -> Result<Option<LtboMode>, WireError> {
    match r.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(LtboMode::Global)),
        2 => Ok(Some(LtboMode::Parallel {
            groups: Wire::get(r, what)?,
            threads: Wire::get(r, what)?,
        })),
        tag => Err(WireError::InvalidTag { what, tag }),
    }
}

/// A standalone LTBO configuration reuses the fused tag with the mode
/// always present; tag 0 (LTBO off) is not a configuration.
impl Wire for LtboConfig {
    fn put(&self, w: &mut Writer) {
        let LtboConfig { mode, min_len, hot_methods } = self;
        put_ltbo(Some(*mode), w);
        min_len.put(w);
        hot_methods.put(w);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<LtboConfig, WireError> {
        Ok(LtboConfig {
            mode: get_ltbo(r, "mode")?.ok_or(WireError::InvalidTag { what: "mode", tag: 0 })?,
            min_len: Wire::get(r, "min_len")?,
            hot_methods: Wire::get(r, "hot_methods")?,
        })
    }
}

/// The fields in wire order, each decoded under its own name. Written
/// out (not `wire_fields!`) only for `ltbo`'s fused tag; both directions
/// stay exhaustive — a destructuring and a literal without `..` — so a
/// field added to [`BuildOptions`] fails compilation here too.
impl Wire for BuildOptions {
    fn put(&self, w: &mut Writer) {
        let BuildOptions {
            cto,
            ltbo,
            min_seq_len,
            hot_methods,
            base_address,
            force_metadata,
            compile_threads,
            passes,
        } = self;
        cto.put(w);
        put_ltbo(*ltbo, w);
        min_seq_len.put(w);
        hot_methods.put(w);
        base_address.put(w);
        force_metadata.put(w);
        compile_threads.put(w);
        passes.put(w);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<BuildOptions, WireError> {
        Ok(BuildOptions {
            cto: Wire::get(r, "cto")?,
            ltbo: get_ltbo(r, "ltbo")?,
            min_seq_len: Wire::get(r, "min_seq_len")?,
            hot_methods: Wire::get(r, "hot_methods")?,
            base_address: Wire::get(r, "base_address")?,
            force_metadata: Wire::get(r, "force_metadata")?,
            compile_threads: Wire::get(r, "compile_threads")?,
            passes: Wire::get(r, "passes")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_dex::wire::{decode, encode};

    #[test]
    fn an_undefined_ltbo_tag_is_a_typed_error_naming_the_field() {
        let mut bytes = encode(&BuildOptions::baseline());
        bytes[1] = 3; // the fused tag follows the one-byte `cto`
        assert_eq!(
            decode::<BuildOptions>(&bytes).err(),
            Some(WireError::InvalidTag { what: "ltbo", tag: 3 })
        );
    }

    #[test]
    fn hot_set_order_does_not_matter() {
        let a = BuildOptions::default().with_hot_filter([3, 1, 2].into_iter().collect());
        let b = BuildOptions::default().with_hot_filter([2, 3, 1].into_iter().collect());
        assert_eq!(options_fingerprint(&a), options_fingerprint(&b));
        let c = BuildOptions::default().with_hot_filter([2, 3].into_iter().collect());
        assert_ne!(options_fingerprint(&a), options_fingerprint(&c));
    }

    #[test]
    fn ltbo_modes_are_distinguished() {
        let mut keys = Vec::new();
        for mode in [
            None,
            Some(LtboMode::Global),
            Some(LtboMode::Parallel { groups: 4, threads: 2 }),
            Some(LtboMode::Parallel { groups: 2, threads: 4 }),
        ] {
            let options = BuildOptions { ltbo: mode, ..BuildOptions::default() };
            keys.push(options_fingerprint(&options));
        }
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}

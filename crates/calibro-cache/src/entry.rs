//! The cached per-method artifact: the compiled code, its pass
//! counters, and the precomputed LTBO symbolization template.

use std::cell::RefCell;
use std::mem::size_of_val;

use calibro_codegen::CompiledMethod;
use calibro_hgraph::PassStats;
use calibro_isa::Insn;
use calibro_suffix::{stable_sequence_hash_of, OutlineCandidate, UNIQUE_SEPARATOR_BASE};

use crate::hash::{CacheKey, StableHasher};

thread_local! {
    /// Reusable serialization buffer for [`sequence_content_key`] — the
    /// same scratch discipline as the per-method key path.
    static SCRATCH: RefCell<StableHasher> = RefCell::new(StableHasher::with_capacity(4096));
}

/// The canonical content key of one symbolized sequence — the per-member
/// Merkle leaf of a group-plan key.
///
/// Separator symbols (any symbol `>= UNIQUE_SEPARATOR_BASE`) are
/// canonicalized to a fixed tag rather than hashed by value: their
/// numbering is an artifact of symbolization order, while detection
/// results depend only on the fact that each separator is unique within
/// its group. Literal symbols (always `< 2^32`) are hashed exactly. The
/// sequence length is framed in so a sequence never collides with its
/// own prefix.
///
/// This is the single authoritative implementation; the hashes a
/// [`SymbolTemplate`] caches and the keys the outline stage composes
/// group addresses from both come from here.
#[must_use]
pub fn sequence_content_key(symbols: &[u64]) -> CacheKey {
    sequence_content_key_of(symbols.iter().copied())
}

/// [`sequence_content_key`] of the sequence `symbols` yields, without
/// that sequence ever being stored: [`SymbolTemplate::new`] feeds it
/// straight from the slots.
fn sequence_content_key_of(symbols: impl ExactSizeIterator<Item = u64>) -> CacheKey {
    SCRATCH.with(|cell| {
        let mut h = cell.borrow_mut();
        h.write_tag(0x53); // 'S'
        h.write_usize(symbols.len());
        for sym in symbols {
            if sym >= UNIQUE_SEPARATOR_BASE {
                h.write_tag(1);
            } else {
                h.write_u64(sym);
            }
        }
        h.finish_reset()
    })
}

/// One slot of a method's LTBO symbolization (§3.3.2), with the
/// config-independent structure precomputed: literal slots carry the
/// encoded instruction word, unique slots are assigned fresh separator
/// numbers at replay time. Replaying a template is byte-equivalent to
/// re-running symbolization over the method, but skips the per-word
/// metadata scans and instruction encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TemplateSlot {
    /// A basic-block leader boundary: a fresh separator with no backing
    /// word (branches land here, so no repeat may span it).
    Leader,
    /// An excluded word (terminator / PC-relative site / LR user / SP
    /// writer): a fresh separator mapping back to word `0`'s field.
    Fresh {
        /// The word index the separator maps back to.
        word: u32,
    },
    /// An outlinable word: the encoded instruction, emitted verbatim.
    Lit {
        /// The encoded instruction word.
        encoded: u32,
        /// The word index.
        word: u32,
    },
}

impl TemplateSlot {
    /// The symbol this slot replays to, as both canonical hashes see it:
    /// a `Lit` slot's word, and for a `Leader` or `Fresh` slot
    /// [`UNIQUE_SEPARATOR_BASE`], which stands for every separator.
    fn canonical_symbol(self) -> u64 {
        match self {
            TemplateSlot::Lit { encoded, .. } => u64::from(encoded),
            TemplateSlot::Leader | TemplateSlot::Fresh { .. } => UNIQUE_SEPARATOR_BASE,
        }
    }
}

/// The precomputed symbol sequence of one LTBO candidate method, before
/// fresh separator numbers are assigned. Computed for the unfiltered
/// (`hot = false`) case; hot-restricted methods fall back to direct
/// symbolization, which is rare by construction (§3.4.2 restricts a
/// small profiled subset).
///
/// Alongside the slots, the template caches the two canonical hashes of
/// its replay output — the [`sequence_content_key`] Merkle leaf and the
/// [`stable_sequence_hash`](calibro_suffix::stable_sequence_hash)
/// partition hash. Both canonicalize separator values, so they are
/// invariant under the separator band a replay draws from (and computed
/// from the slots without one); caching them here takes both hash
/// passes off the warm critical path (a cache-hit method replays its
/// template and reads the hashes instead of re-hashing its whole
/// sequence every build). The fields are private and computed only by
/// [`SymbolTemplate::new`], so a template's hashes can never disagree
/// with its slots.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymbolTemplate {
    /// The slots, in emission order.
    pub(crate) slots: Vec<TemplateSlot>,
    /// [`sequence_content_key`] of the replayed sequence.
    content_key: CacheKey,
    /// [`stable_sequence_hash`](calibro_suffix::stable_sequence_hash) of
    /// the replayed sequence.
    group_hash: u64,
}

impl SymbolTemplate {
    /// Builds a template from its slots, computing the canonical
    /// content key and partition hash of the replay output once —
    /// straight from the slots, with no replay: both hashes see every
    /// separator as the same canonical symbol, so which band a replay
    /// would draw from cannot matter.
    #[must_use]
    pub fn new(slots: Vec<TemplateSlot>) -> Self {
        let symbols = || slots.iter().map(|&slot| slot.canonical_symbol());
        let content_key = sequence_content_key_of(symbols());
        let group_hash = stable_sequence_hash_of(symbols());
        SymbolTemplate { slots, content_key, group_hash }
    }

    /// The slots, in emission order.
    #[must_use]
    pub fn slots(&self) -> &[TemplateSlot] {
        &self.slots
    }

    /// Cached [`sequence_content_key`] of the replayed sequence.
    #[must_use]
    pub fn content_key(&self) -> CacheKey {
        self.content_key
    }

    /// Cached [`stable_sequence_hash`](calibro_suffix::stable_sequence_hash)
    /// of the replayed sequence.
    #[must_use]
    pub fn group_hash(&self) -> u64 {
        self.group_hash
    }

    /// The code-word index symbol offset `sym` maps back to
    /// (`usize::MAX` for leader separators, which have no backing
    /// word), read straight from the slots. One symbol is emitted per
    /// slot, so symbol offsets and slot indices coincide and no
    /// symbol → word map is ever materialized.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is out of range of the replayed sequence.
    #[must_use]
    pub fn word_at(&self, sym: usize) -> usize {
        match self.slots[sym] {
            TemplateSlot::Leader => usize::MAX,
            TemplateSlot::Fresh { word } | TemplateSlot::Lit { word, .. } => word as usize,
        }
    }

    /// Replays the template into its symbol sequence, drawing fresh
    /// separator numbers from `unique` exactly as direct symbolization
    /// would. [`word_at`](Self::word_at) maps a symbol offset of the
    /// result back to its code word.
    pub fn replay_symbols(&self, unique: &mut u64) -> Vec<u64> {
        let mut symbols = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            match *slot {
                TemplateSlot::Lit { encoded, .. } => symbols.push(u64::from(encoded)),
                TemplateSlot::Leader | TemplateSlot::Fresh { .. } => {
                    *unique += 1;
                    symbols.push(*unique);
                }
            }
        }
        symbols
    }
}

/// One cached compilation artifact: everything the codegen stage
/// produced for a method, so a warm build can skip HGraph construction,
/// the pass pipeline, code generation, LTBO symbol extraction and
/// instruction encoding for methods whose inputs did not change.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The compiled method (instructions, their words, relocations, §3.2
    /// metadata, stack maps) exactly as codegen emitted it, pre-LTBO.
    pub compiled: CompiledMethod,
    /// Pass-pipeline counters from the cold compile, replayed into
    /// [`BuildStats`](https://docs.rs) so warm observability matches cold.
    pub pass_stats: PassStats,
    /// Precomputed LTBO symbolization (`None` when the build collected
    /// no metadata or the method is excluded from outlining).
    pub template: Option<SymbolTemplate>,
    /// Fingerprint of the *reference environment* the method's
    /// contextual verification ran against: the program-level facts
    /// (`verify_references` reads — method count, per-callee nativeness,
    /// class count, field/static bounds) that are not covered by the
    /// per-method cache key. A warm hit whose build presents the same
    /// fingerprint skips re-verifying references: both inputs to that
    /// deterministic check are unchanged, so its result is too. `0` is
    /// an ordinary value, not a sentinel — a mismatch merely re-runs the
    /// check.
    pub ref_env: u64,
}

impl CacheEntry {
    /// Approximate resident size in bytes, for the store's per-lane
    /// byte budgets. An estimate over the owned vectors — close enough
    /// for eviction pressure, not an allocator-exact measurement.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let m = &self.compiled;
        let mut bytes = 128; // struct headers and fixed fields
        bytes += size_of_val(&*m.insns);
        bytes += size_of_val(&*m.words);
        bytes += size_of_val(m.pool.as_slice());
        bytes += size_of_val(m.relocs.as_slice());
        bytes += size_of_val(m.metadata.pc_rel.as_slice());
        bytes += size_of_val(m.metadata.terminators.as_slice());
        bytes += size_of_val(m.metadata.embedded_data.as_slice());
        bytes += size_of_val(m.metadata.slow_paths.as_slice());
        bytes += size_of_val(m.stack_maps.as_slice());
        if let Some(template) = &self.template {
            bytes += size_of_val(template.slots()) + 32;
        }
        bytes
    }
}

/// One cached LTBO group plan: the outline candidates detected over a
/// group's concatenated symbol text, keyed by that text's canonicalized
/// content plus the `LtboConfig` fingerprint.
///
/// Only the candidates and the text length are cached — tags, offsets
/// and lens are positional bookkeeping tied to the *current* build's
/// method indices and are recomputed at replay
/// ([`replay_group_plan`](calibro_suffix::replay_group_plan)). The
/// candidates themselves are portable across builds whose group text
/// matches: their symbols are always literals (separators are unique,
/// so no repeated substring contains one), and their positions are
/// determined by the text alone because detection is deterministic
/// under any injective separator renumbering.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupPlanEntry {
    /// Length of the concatenated group text the plan was detected on
    /// (including one joint separator per sequence).
    pub text_len: usize,
    /// The selected outline candidates, in canonical (position-sorted)
    /// order.
    pub candidates: Vec<OutlineCandidate>,
}

impl GroupPlanEntry {
    /// Approximate resident size in bytes (see
    /// [`CacheEntry::approx_bytes`]).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = 64;
        for c in &self.candidates {
            bytes += 48 + c.positions.len() * 8 + c.symbols.len() * 8;
        }
        bytes
    }
}

/// One group within a cached merge plan: the representative member, the
/// members folded into it (representative included), and the positions
/// where member bodies differ (each backed by a parameter thunk slot).
/// All indices are positions within the bucket's member list, which is
/// ordered by method index and therefore stable across builds whose
/// bucket content is unchanged.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MergePlanGroup {
    /// Index (within the bucket's member list) of the representative
    /// whose body becomes the shared merged island.
    pub rep: u32,
    /// Member indices folded into this group, sorted ascending; always
    /// contains `rep` and at least two entries.
    pub members: Vec<u32>,
    /// Word positions where member bodies differ (parameter slots),
    /// sorted ascending.
    pub diff_positions: Vec<u32>,
}

/// One cached function-merge plan for a single structural bucket: which
/// members merge into which groups and at which parameter positions.
/// Keyed by the merge-config fingerprint plus the ordered member body
/// hashes, so a hit proves every member body is unchanged and the plan
/// replays bit-exactly — the merge analog of [`GroupPlanEntry`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MergePlanEntry {
    /// Number of members the bucket had when the plan was computed
    /// (bounds every index in `groups`).
    pub member_count: u32,
    /// The selected merge groups, in island-id order.
    pub groups: Vec<MergePlanGroup>,
}

impl MergePlanEntry {
    /// Approximate resident size in bytes (see
    /// [`CacheEntry::approx_bytes`]).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = 64;
        for g in &self.groups {
            bytes += 48 + g.members.len() * 4 + g.diff_positions.len() * 4;
        }
        bytes
    }
}

/// One shared-dictionary body: the concrete instruction sequence of an
/// outlined function published by some tenant, keyed in the dict lane by
/// the 128-bit hash of its *canonicalized* (register-renamed) form. The
/// value keeps the concrete body — reuse requires an exact instruction
/// match, so a canonical-key hit with a register-renamed body falls back
/// to private outlining — plus the calling-convention metadata: which
/// concrete registers the body touches, in first-use order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DictEntry {
    /// The outlined body exactly as it appears at every call site (the
    /// trailing `br x30` is appended at island emission, not stored).
    pub insns: Vec<Insn>,
    /// Concrete renameable registers the body uses, in first-use order —
    /// the calling convention a marshalling caller would have to honour.
    pub regs: Vec<u8>,
}

impl DictEntry {
    /// Approximate resident size in bytes (see
    /// [`CacheEntry::approx_bytes`]).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        64 + size_of_val(self.insns.as_slice()) + self.regs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_suffix::stable_sequence_hash;
    use proptest::prelude::*;

    #[test]
    fn replay_assigns_sequential_separators() {
        let t = SymbolTemplate::new(vec![
            TemplateSlot::Lit { encoded: 7, word: 0 },
            TemplateSlot::Leader,
            TemplateSlot::Fresh { word: 1 },
            TemplateSlot::Lit { encoded: 9, word: 2 },
        ]);
        let mut unique = 100;
        assert_eq!(t.replay_symbols(&mut unique), vec![7, 101, 102, 9]);
        assert_eq!(unique, 102);
    }

    #[test]
    fn word_at_answers_for_every_replayed_symbol() {
        let t = SymbolTemplate::new(vec![
            TemplateSlot::Lit { encoded: 7, word: 0 },
            TemplateSlot::Leader,
            TemplateSlot::Fresh { word: 1 },
            TemplateSlot::Lit { encoded: 9, word: 2 },
        ]);
        // One symbol per slot: every offset of the replayed sequence has
        // a word behind it (or `usize::MAX` for a leader boundary).
        let symbols = t.replay_symbols(&mut 500);
        let words: Vec<usize> = (0..symbols.len()).map(|sym| t.word_at(sym)).collect();
        assert_eq!(words, vec![0, usize::MAX, 1, 2]);
    }

    /// Asserts the template's cached hashes equal a direct hash of its
    /// replay output from three separator bands — the invariant that
    /// lets the warm path trust them, whatever band a method draws.
    fn assert_hashes_match_every_band(slots: Vec<TemplateSlot>) {
        let t = SymbolTemplate::new(slots);
        for band in [0u64, 1 << 24, 1835 << 24] {
            let mut unique = UNIQUE_SEPARATOR_BASE + band;
            let symbols = t.replay_symbols(&mut unique);
            assert_eq!(t.content_key(), sequence_content_key(&symbols), "band {band}");
            assert_eq!(t.group_hash(), stable_sequence_hash(&symbols), "band {band}");
        }
    }

    #[test]
    fn cached_hashes_match_any_replay_band() {
        assert_hashes_match_every_band(Vec::new());
        assert_hashes_match_every_band(vec![TemplateSlot::Leader; 5]);
        assert_hashes_match_every_band(vec![
            TemplateSlot::Lit { encoded: 7, word: 0 },
            TemplateSlot::Leader,
            TemplateSlot::Fresh { word: 1 },
            TemplateSlot::Lit { encoded: 9, word: 2 },
            TemplateSlot::Fresh { word: 3 },
        ]);
    }

    fn slot() -> impl Strategy<Value = TemplateSlot> {
        prop_oneof![
            Just(TemplateSlot::Leader),
            any::<u32>().prop_map(|word| TemplateSlot::Fresh { word }),
            (any::<u32>(), any::<u32>())
                .prop_map(|(encoded, word)| TemplateSlot::Lit { encoded, word }),
        ]
    }

    fn separator() -> impl Strategy<Value = TemplateSlot> {
        prop_oneof![
            Just(TemplateSlot::Leader),
            any::<u32>().prop_map(|word| TemplateSlot::Fresh { word })
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hashing the slots directly equals hashing what they replay to,
        /// over `Leader`/`Fresh`/`Lit` mixes of any length from zero.
        #[test]
        fn slot_hashes_equal_replay_hashes(slots in prop::collection::vec(slot(), 0..48)) {
            assert_hashes_match_every_band(slots);
        }

        /// The same over sequences of nothing but separators.
        #[test]
        fn separator_only_hashes_equal_replay_hashes(
            slots in prop::collection::vec(separator(), 0..16),
        ) {
            assert_hashes_match_every_band(slots);
        }
    }

    #[test]
    fn content_key_distinguishes_literals_but_not_separator_values() {
        let lit = |encoded| TemplateSlot::Lit { encoded, word: 0 };
        let a = SymbolTemplate::new(vec![lit(7), TemplateSlot::Leader, lit(9)]);
        let b = SymbolTemplate::new(vec![lit(7), TemplateSlot::Fresh { word: 2 }, lit(9)]);
        // Leader and Fresh both replay to a fresh separator, and
        // separators are canonicalized — same content key.
        assert_eq!(a.content_key(), b.content_key());
        assert_eq!(a.group_hash(), b.group_hash());
        let c = SymbolTemplate::new(vec![lit(8), TemplateSlot::Leader, lit(9)]);
        assert_ne!(a.content_key(), c.content_key());
    }
}

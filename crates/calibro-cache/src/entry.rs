//! The cached per-method artifact: the compiled code, its pass
//! counters, and the precomputed LTBO symbolization template.

use std::cell::RefCell;

use calibro_codegen::CompiledMethod;
use calibro_hgraph::PassStats;
use calibro_suffix::{stable_sequence_hash_of, PlanRows, UNIQUE_SEPARATOR_BASE};

use crate::hash::{CacheKey, StableHasher};

thread_local! {
    /// Reusable serialization buffer for [`sequence_content_key`] — the
    /// same scratch discipline as the per-method key path.
    static SCRATCH: RefCell<StableHasher> = RefCell::new(StableHasher::with_capacity(4096));
}

/// The canonical symbol of a leader separator — the separator a branch
/// target's word is preceded by, which has no word of its own — in the
/// sequence [`sequence_content_key`] reads. No replayed symbol takes this
/// value: method bands and group joints all lie below it.
pub const LEADER_SEPARATOR: u64 = u64::MAX;

/// The canonical content key of one symbolized sequence — the per-member
/// Merkle leaf of a group-plan key.
///
/// `symbols` is the sequence in canonical form: each literal (always
/// `< 2^32`) as itself, [`LEADER_SEPARATOR`] for a leader's separator
/// and any other separator (`>= UNIQUE_SEPARATOR_BASE`) for a word that
/// replays to one. Separators are hashed as one of two fixed tags rather
/// than by value: their numbering is an artifact of symbolization order,
/// while detection results depend only on the fact that each separator is
/// unique within its group. The two tags differ so that the key fixes
/// which symbols have a code word behind them — the word layout a cached
/// plan's occurrences are stored in — and not only the text detection
/// sees. The sequence length is framed in so a sequence never collides
/// with its own prefix.
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
/// straight from the flags and words.
fn sequence_content_key_of(symbols: impl ExactSizeIterator<Item = u64>) -> CacheKey {
    SCRATCH.with(|cell| {
        let mut h = cell.borrow_mut();
        h.write_tag(0x53); // 'S'
        h.write_usize(symbols.len());
        for sym in symbols {
            match sym {
                LEADER_SEPARATOR => h.write_tag(2),
                sym if sym >= UNIQUE_SEPARATOR_BASE => h.write_tag(1),
                literal => h.write_u64(literal),
            }
        }
        h.finish_reset()
    })
}

/// The precomputed §3.3.2 symbolization of one LTBO candidate method,
/// before fresh separator numbers are assigned: one flag byte per code
/// word of the method. A word flagged [`FRESH`](Self::FRESH) replays to
/// a fresh separator (a terminator, a PC-relative site, a call, an
/// outline hazard, or — in a hot method — a word outside every slow
/// path); any other word replays to itself, read from the method's own
/// words, so a template has no literal of its own that could disagree
/// with the code. A word flagged [`LEADER`](Self::LEADER) is a branch
/// target and a fresh separator precedes it. Replaying a template is
/// byte-equivalent to re-running symbolization over the method, but
/// skips the metadata scans and the hazard queries.
///
/// Alongside the flags, the template caches the two canonical hashes of
/// its replay output — the [`sequence_content_key`] Merkle leaf and the
/// [`stable_sequence_hash`](calibro_suffix::stable_sequence_hash)
/// partition hash. Both normalize separator values, so they are
/// invariant under the separator band a replay draws from (and computed
/// from flags and words without one); caching them here takes both hash
/// passes off the warm critical path. The content key alone tells a
/// leader's separator from a word's, so it also fixes the word layout.
/// The template keeps the symbol offset of every leader separator, so
/// mapping a symbol back to its word is one binary search. Everything
/// but the flags is derived by [`SymbolTemplate::new`] and never stored
/// on disk, so a template's hashes can never disagree with its flags.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymbolTemplate {
    /// One flag byte per code word.
    flags: Box<[u8]>,
    /// The symbol offset of each leader separator, ascending.
    leaders: Box<[u32]>,
    /// [`sequence_content_key`] of the replayed sequence's canonical form.
    content_key: CacheKey,
    /// [`stable_sequence_hash`](calibro_suffix::stable_sequence_hash) of
    /// the replayed sequence.
    group_hash: u64,
}

impl SymbolTemplate {
    /// The word replays to a fresh separator instead of itself.
    pub const FRESH: u8 = 1;
    /// A branch lands on the word, so a fresh separator precedes it.
    pub const LEADER: u8 = 2;

    /// Builds a template from one flag byte per word of `words` (the
    /// method's code), computing the leader offsets and both canonical
    /// hashes of the replay output once — straight from flags and words,
    /// with no replay: both hashes see a separator as a canonical symbol
    /// (one for a leader's, one for a word's), so which band a replay
    /// would draw from cannot matter. Total over any input: whether the
    /// flags fit the words is for the caller to check ([`CacheEntry`]'s
    /// frame validation does).
    #[must_use]
    pub fn new(flags: Vec<u8>, words: &[u32]) -> Self {
        let count = flags.iter().filter(|&&f| f & Self::LEADER != 0).count();
        let mut leaders = Vec::with_capacity(count);
        for (word, &f) in flags.iter().enumerate() {
            if f & Self::LEADER != 0 {
                leaders.push((word + leaders.len()) as u32);
            }
        }
        let symbols = || CanonicalSymbols {
            flags: flags.iter(),
            words: words.iter(),
            pending: None,
            left: flags.len() + leaders.len(),
        };
        let content_key = sequence_content_key_of(symbols());
        let group_hash = stable_sequence_hash_of(symbols());
        SymbolTemplate {
            flags: flags.into_boxed_slice(),
            leaders: leaders.into_boxed_slice(),
            content_key,
            group_hash,
        }
    }

    /// The flag bytes, one per code word.
    #[must_use]
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// Length of the replayed sequence: one symbol per word, and one per
    /// leader separator.
    #[must_use]
    pub fn symbol_count(&self) -> usize {
        self.flags.len() + self.leaders.len()
    }

    /// Cached [`sequence_content_key`] of the replayed sequence's
    /// canonical form.
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

    /// The symbol offset of each leader separator in the replayed
    /// sequence, ascending: the symbols with no code word behind them.
    #[must_use]
    pub fn leaders(&self) -> &[u32] {
        &self.leaders
    }

    /// The code-word index symbol offset `sym` of the replayed sequence
    /// maps back to (`usize::MAX` for a leader separator, which has no
    /// backing word): `sym` less the leaders before it, found by binary
    /// search, so no symbol → word map is ever materialized.
    #[must_use]
    pub fn word_at(&self, sym: usize) -> usize {
        let before = self.leaders.partition_point(|&leader| (leader as usize) < sym);
        match self.leaders.get(before) {
            Some(&leader) if leader as usize == sym => usize::MAX,
            _ => sym - before,
        }
    }

    /// Replays the template over `words`, the method's code, into its
    /// symbol sequence, drawing fresh separator numbers from `unique`
    /// exactly as direct symbolization would. [`word_at`](Self::word_at)
    /// maps a symbol offset of the result back to its code word.
    pub fn replay_symbols(&self, words: &[u32], unique: &mut u64) -> Vec<u64> {
        let mut symbols = Vec::with_capacity(self.symbol_count());
        self.replay_into(words, unique, &mut symbols);
        symbols
    }

    /// [`replay_symbols`](Self::replay_symbols) onto the end of `out`.
    pub fn replay_into(&self, words: &[u32], unique: &mut u64, out: &mut Vec<u64>) {
        debug_assert_eq!(words.len(), self.flags.len(), "one flag per word");
        out.reserve(self.symbol_count());
        for (&f, &word) in self.flags.iter().zip(words) {
            if f & Self::LEADER != 0 {
                *unique += 1;
                out.push(*unique);
            }
            if f & Self::FRESH != 0 {
                *unique += 1;
                out.push(*unique);
            } else {
                out.push(u64::from(word));
            }
        }
    }
}

/// The sequence a template replays to in canonical form — a literal's
/// word, [`LEADER_SEPARATOR`] for a leader's separator and
/// [`UNIQUE_SEPARATOR_BASE`] for a word's — yielded from flags and words
/// without being stored. The partition hash sees both separators alike.
struct CanonicalSymbols<'a> {
    flags: std::slice::Iter<'a, u8>,
    words: std::slice::Iter<'a, u32>,
    /// A word's symbol, held back while its leader separator goes first.
    pending: Option<u64>,
    /// Symbols not yet yielded.
    left: usize,
}

impl Iterator for CanonicalSymbols<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let sym = match self.pending.take() {
            Some(sym) => sym,
            None => {
                let (&f, &word) = (self.flags.next()?, self.words.next()?);
                let sym = match f & SymbolTemplate::FRESH {
                    0 => u64::from(word),
                    _ => UNIQUE_SEPARATOR_BASE,
                };
                if f & SymbolTemplate::LEADER == 0 {
                    sym
                } else {
                    self.pending = Some(sym);
                    LEADER_SEPARATOR
                }
            }
        };
        self.left -= 1;
        Some(sym)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for CanonicalSymbols<'_> {}

/// One cached compilation artifact: everything the codegen stage
/// produced for a method, so a warm build can skip HGraph construction,
/// the pass pipeline, code generation, LTBO symbol extraction and
/// instruction encoding for methods whose inputs did not change.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The compiled method (its words, relocations, §3.2 metadata,
    /// stack maps) exactly as codegen emitted it, pre-LTBO — as words
    /// only: `insns` is empty, and a reader that needs instructions
    /// decodes them ([`CompiledMethod::instructions`]).
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

/// One cached LTBO group plan: the outline candidates detected over a
/// group's concatenated symbol text, keyed by that text's normalized
/// content plus the `LtboConfig` fingerprint — as flat rows. Candidates
/// are *bodies*, numbered in the order of their first occurrence (the
/// canonical, position-sorted plan order); `lens[b]` is body `b`'s
/// length. Every occurrence of every body is one entry of
/// [`positions`](Self::positions) and [`bodies`](Self::bodies),
/// ascending by position over the whole plan, so a replay walks the group's members once, in order, and
/// meets each method's occurrences already sorted.
///
/// Occurrences are stored in *word space*: as offsets into the group's
/// code, its members' words concatenated in group order. Detection runs
/// over symbols, so a fresh plan's positions are resolved to words once,
/// when it becomes rows; a replay finds an occurrence's member from the
/// members' word counts alone and never sees the symbol text. A body's
/// words are not stored: they are the code's at its first occurrence.
/// Which member is which is not cached — method indices are tied to the
/// *current* build. The plan itself is portable across builds whose
/// group key matches: its symbols are always literals — instruction
/// words, as separators are unique and no repeated substring contains
/// one — their symbol positions are determined by the text alone because
/// detection is deterministic under any injective separator renumbering,
/// and the key's per-member leaves ([`sequence_content_key`]) fix each
/// member's word layout and its literal words, so the same symbols lie on
/// the same words.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupPlanEntry {
    /// Code words of the group the plan was detected on: its members'
    /// word counts summed.
    pub code_len: usize,
    /// Each body's length in words, bodies in first-occurrence order.
    pub lens: Vec<u32>,
    /// Every occurrence's first word: a group-code word offset,
    /// ascending, no occurrence overlapping the next.
    pub positions: Row,
    /// Every occurrence's body, an index into `lens`, one per position.
    pub bodies: Row,
}

/// A row of `u32` values, held as `u16`s when every value fits one. A
/// plan's positions and body indices nearly always do — a group's code
/// is rarely 65 536 words long — and a store holds the rows of every
/// plan it keeps, so this halves them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Row {
    /// Every value below 2^16.
    Narrow(Vec<u16>),
    /// Any other row.
    Wide(Vec<u32>),
}

impl Row {
    /// `values`, narrowed if every one fits.
    #[must_use]
    pub fn new(values: Vec<u32>) -> Row {
        match values.iter().map(|&v| u16::try_from(v)).collect() {
            Ok(narrow) => Row::Narrow(narrow),
            Err(_) => Row::Wide(values),
        }
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Row::Narrow(values) => values.len(),
            Row::Wide(values) => values.len(),
        }
    }

    /// Whether the row holds no value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`th value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Row::Narrow(values) => u32::from(values[i]),
            Row::Wide(values) => values[i],
        }
    }

    /// Every value, in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl GroupPlanEntry {
    /// The plan `rows`, detected over the symbol text of a group of
    /// `code_len` code words; `word_of` maps a group-text position an
    /// occurrence starts at to its group-code word offset, and must be
    /// increasing.
    ///
    /// # Panics
    ///
    /// Panics if the code is longer than `u32` offsets reach.
    #[must_use]
    pub fn from_rows(
        code_len: usize,
        rows: PlanRows,
        mut word_of: impl FnMut(u32) -> u32,
    ) -> GroupPlanEntry {
        assert!(u32::try_from(code_len).is_ok(), "a group of {code_len} code words");
        let PlanRows { lens, mut positions, bodies } = rows;
        positions.iter_mut().for_each(|p| *p = word_of(*p));
        GroupPlanEntry { code_len, lens, positions: Row::new(positions), bodies: Row::new(bodies) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_suffix::{
        detect_group, select_outline_rows, stable_sequence_hash, OutlineCandidate, SuffixTree,
        TaggedSequence,
    };
    use proptest::prelude::*;

    const FRESH: u8 = SymbolTemplate::FRESH;
    const LEADER: u8 = SymbolTemplate::LEADER;

    #[test]
    fn replay_assigns_sequential_separators() {
        let t = SymbolTemplate::new(vec![0, FRESH | LEADER, 0], &[7, 8, 9]);
        let mut unique = 100;
        assert_eq!(t.replay_symbols(&[7, 8, 9], &mut unique), vec![7, 101, 102, 9]);
        assert_eq!(unique, 102);
        assert_eq!(t.symbol_count(), 4);
    }

    #[test]
    fn word_at_answers_for_every_replayed_symbol() {
        let words = [7, 8, 9, 10];
        let t = SymbolTemplate::new(vec![LEADER, FRESH | LEADER, 0, LEADER], &words);
        // Symbols: leader, 7, leader, sep(8), 9, leader, 10 — every offset
        // of the replayed sequence has a word behind it, or `usize::MAX`
        // for a leader boundary.
        let symbols = t.replay_symbols(&words, &mut 500);
        let mapped: Vec<usize> = (0..symbols.len()).map(|sym| t.word_at(sym)).collect();
        let none = usize::MAX;
        assert_eq!(mapped, vec![none, 0, none, 1, 2, none, 3]);
    }

    /// Asserts the template's cached hashes equal a direct hash of its
    /// replay output from three separator bands — the invariant that
    /// lets the warm path trust them, whatever band a method draws. The
    /// content key hashes the canonical form, in which a symbol with no
    /// word behind it is a leader's separator.
    fn assert_hashes_match_every_band(flags: Vec<u8>, words: &[u32]) {
        let t = SymbolTemplate::new(flags, words);
        for band in [0u64, 1 << 24, 1835 << 24] {
            let mut unique = UNIQUE_SEPARATOR_BASE + band;
            let symbols = t.replay_symbols(words, &mut unique);
            assert_eq!(symbols.len(), t.symbol_count());
            let mut canonical = symbols.clone();
            for (sym, canonical) in canonical.iter_mut().enumerate() {
                if t.word_at(sym) == usize::MAX {
                    *canonical = LEADER_SEPARATOR;
                }
            }
            assert_eq!(t.content_key(), sequence_content_key(&canonical), "band {band}");
            assert_eq!(t.group_hash(), stable_sequence_hash(&symbols), "band {band}");
        }
    }

    #[test]
    fn cached_hashes_match_any_replay_band() {
        assert_hashes_match_every_band(Vec::new(), &[]);
        assert_hashes_match_every_band(vec![FRESH | LEADER; 5], &[1; 5]);
        assert_hashes_match_every_band(vec![0, LEADER, FRESH, 0, FRESH], &[7, 8, 9, 10, 11]);
    }

    #[test]
    fn a_row_is_narrow_exactly_when_every_value_fits() {
        let narrow = Row::new(vec![0, 65_535, 7]);
        assert_eq!(narrow, Row::Narrow(vec![0, 65_535, 7]));
        assert_eq!(narrow.iter().collect::<Vec<_>>(), [0, 65_535, 7]);
        let wide = Row::new(vec![0, 65_536, 7]);
        assert_eq!(wide, Row::Wide(vec![0, 65_536, 7]));
        assert_eq!((wide.len(), wide.get(1)), (3, 65_536));
        assert!(Row::new(Vec::new()).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hashing flags and words directly equals hashing what they
        /// replay to, over every flag combination and any length from
        /// zero.
        #[test]
        fn flag_hashes_equal_replay_hashes(
            code in prop::collection::vec((0u8..4, any::<u32>()), 0..48),
        ) {
            let (flags, words): (Vec<u8>, Vec<u32>) = code.into_iter().unzip();
            assert_hashes_match_every_band(flags, &words);
        }

        /// The same over sequences of nothing but separators.
        #[test]
        fn separator_only_hashes_equal_replay_hashes(
            code in prop::collection::vec((prop_oneof![Just(FRESH), Just(FRESH | LEADER)], any::<u32>()), 0..16),
        ) {
            let (flags, words): (Vec<u8>, Vec<u32>) = code.into_iter().unzip();
            assert_hashes_match_every_band(flags, &words);
        }
    }

    #[test]
    fn content_key_distinguishes_literals_but_not_separator_values() {
        let a = SymbolTemplate::new(vec![0, FRESH, 0], &[7, 8, 9]);
        let b = SymbolTemplate::new(vec![0, FRESH, 0], &[7, 1234, 9]);
        // A fresh word replays to a separator, whatever the word, and
        // separators are normalized — same content key.
        assert_eq!(a.content_key(), b.content_key());
        assert_eq!(a.group_hash(), b.group_hash());
        let c = SymbolTemplate::new(vec![0, FRESH, 0], &[8, 8, 9]);
        assert_ne!(a.content_key(), c.content_key());
        let d = SymbolTemplate::new(vec![0, FRESH | LEADER, 0], &[7, 8, 9]);
        assert_ne!(a.content_key(), d.content_key());
    }

    #[test]
    fn content_key_fixes_the_word_layout_the_partition_hash_does_not_see() {
        // Both replay to [7, sep, sep, 9]: one over three words, the
        // second separator a leader's; one over four, both a word's.
        let leader = SymbolTemplate::new(vec![0, FRESH, LEADER], &[7, 8, 9]);
        let fresh = SymbolTemplate::new(vec![0, FRESH, FRESH, 0], &[7, 8, 8, 9]);
        assert_eq!(leader.symbol_count(), fresh.symbol_count());
        // The same text for detection and the same group...
        assert_eq!(leader.group_hash(), fresh.group_hash());
        // ...but not the same code words under it, so not the same key.
        assert_ne!(leader.content_key(), fresh.content_key());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A detected plan's flat rows walk back to exactly the
        /// candidates `detect_group` selects, their positions in word
        /// space and each body's words read from the code at its first
        /// occurrence, over texts from a small alphabet (many repeats)
        /// split into up to four members and joined by joints of their
        /// own. Every symbol here is a word, so a position's word offset
        /// is the position less the joints before it, and the code is
        /// the members' symbols.
        #[test]
        fn a_detected_plan_round_trips_through_its_rows(
            members in prop::collection::vec(prop::collection::vec(0u64..6, 0..40), 0..4),
        ) {
            let code: Vec<u64> = members.concat();
            let mut text = Vec::new();
            for (joint, member) in (1_000..).zip(&members) {
                text.extend_from_slice(member);
                text.push(joint);
            }
            let total = text.len();
            let rows = select_outline_rows(&SuffixTree::build(text), 2, total);
            let group: Vec<TaggedSequence> = members
                .into_iter()
                .enumerate()
                .map(|(tag, symbols)| TaggedSequence { tag, symbols })
                .collect();
            let (plan, candidates) = detect_group(&group, 2);
            let code_len = plan.lens.iter().sum();
            let word_of = |p: usize| p + 1 - plan.offsets.partition_point(|&start| start <= p);
            let entry = GroupPlanEntry::from_rows(code_len, rows, |p| word_of(p as usize) as u32);
            let positions: Vec<u32> = entry.positions.iter().collect();
            prop_assert!(positions.windows(2).all(|w| w[0] < w[1]), "ascending");
            prop_assert_eq!(positions.len(), entry.bodies.len());
            let narrow = matches!((&entry.positions, &entry.bodies), (Row::Narrow(_), Row::Narrow(_)));
            prop_assert!(narrow, "a small group's rows are narrow");
            let mut back: Vec<OutlineCandidate> = entry
                .lens
                .iter()
                .map(|&len| OutlineCandidate { len: len as usize, positions: Vec::new(), symbols: Vec::new() })
                .collect();
            let mut seen = 0;
            for (p, b) in positions.into_iter().zip(entry.bodies.iter()) {
                let body = &mut back[b as usize];
                if body.positions.is_empty() {
                    prop_assert_eq!(b, seen, "bodies first occur in index order");
                    seen += 1;
                    body.symbols = code[p as usize..p as usize + body.len].to_vec();
                }
                body.positions.push(p as usize);
            }
            let in_words: Vec<OutlineCandidate> = candidates
                .into_iter()
                .map(|c| OutlineCandidate { positions: c.positions.into_iter().map(word_of).collect(), ..c })
                .collect();
            prop_assert_eq!(back, in_words);
            prop_assert_eq!(entry.code_len, code_len);
        }
    }
}

//! Paralleled suffix trees — the paper's `PlOpti` optimization (§3.4.1).
//!
//! Instead of one global suffix tree over the whole program, the input
//! sequences (one per candidate method) are partitioned into `k` groups
//! "evenly in terms of method numbers" with a "simple and random
//! partition", and a suffix tree is built and searched per group in
//! parallel. The trade-off — faster builds and smaller working sets for a
//! tolerable loss of cross-group repeats — is exactly what Tables 4 and 6
//! of the paper quantify.

use crate::repeats::{select_outline_rows, OutlineCandidate};
use crate::tree::{SuffixTree, Symbol};

/// Lowest symbol value reserved for position-assigned separators.
///
/// Literal symbols (encoded instruction words) live below `2^32`;
/// callers number their per-method separators from this base upward, and
/// the group joints added by [`detect_group`] sit in an even higher band.
/// [`stable_sequence_hash`] normalizes everything at or above this
/// base, so a sequence's identity depends only on its literal content and
/// separator *placement* — never on the global numbering, which shifts
/// whenever methods are added or removed elsewhere in the program.
pub const UNIQUE_SEPARATOR_BASE: Symbol = 1 << 40;

/// A sequence with the caller's identifier, so plans can be mapped back
/// to methods after partitioning.
#[derive(Clone, Debug)]
pub struct TaggedSequence {
    /// Caller-chosen identifier (e.g. a method index).
    pub tag: usize,
    /// The symbol sequence (instruction mappings with separators).
    pub symbols: Vec<Symbol>,
}

/// The positional layout of one detection group: which sequences its
/// text concatenates, and where — what maps a candidate's group-text
/// positions back to `(tag, offset)`. The candidates themselves are
/// [`detect_group`]'s second result; a caller that caches them resolves
/// their positions into whatever space it replays them in.
#[derive(Debug, PartialEq, Eq)]
pub struct GroupPlan {
    /// Tags of the sequences concatenated into this group, in order.
    pub tags: Vec<usize>,
    /// Start offset of each tagged sequence within the group text.
    pub offsets: Vec<usize>,
    /// Length of each tagged sequence (excluding its separator).
    pub lens: Vec<usize>,
}

impl GroupPlan {
    /// Maps a group-text position back to `(tag, offset_within_sequence)`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` points into separator space (the joint word after
    /// each sequence) or past the group text. A candidate position can
    /// never land there — separators are unique, so no repeat contains
    /// one — and silently attributing such a position to the preceding
    /// sequence would corrupt the outline plan downstream.
    #[must_use]
    pub fn resolve(&self, pos: usize) -> (usize, usize) {
        // offsets are sorted; find the owning sequence.
        let idx = match self.offsets.binary_search(&pos) {
            Ok(i) => i,
            Err(0) => panic!("position {pos} precedes the group text"),
            Err(i) => i - 1,
        };
        let within = pos - self.offsets[idx];
        assert!(
            within < self.lens[idx],
            "position {pos} is in separator space after sequence {} (tag {}, len {})",
            idx,
            self.tags[idx],
            self.lens[idx],
        );
        (self.tags[idx], within)
    }
}

/// Content hash of one symbol sequence, stable across builds.
///
/// One FxHash-style mix per symbol (the symbol is already a 64-bit
/// word — no reason to feed it through a byte-at-a-time loop), with
/// every separator (any symbol at or above [`UNIQUE_SEPARATOR_BASE`])
/// normalized to `u64::MAX` first, and the length folded in at the
/// end. Two sequences with the same literal content and the same
/// separator placement hash identically even when the global separator
/// counter assigned them different absolute values — the property the
/// content-stable partitioner needs so that editing one method never
/// reshuffles the others' groups.
#[must_use]
pub fn stable_sequence_hash(symbols: &[Symbol]) -> u64 {
    stable_sequence_hash_of(symbols.iter().copied())
}

/// [`stable_sequence_hash`] of the sequence `symbols` yields, without
/// that sequence ever being stored — the one implementation, which a
/// symbolization template feeds straight from its flags and words.
#[must_use]
pub fn stable_sequence_hash_of(symbols: impl ExactSizeIterator<Item = Symbol>) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let len = symbols.len();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for sym in symbols {
        let canonical = if sym >= UNIQUE_SEPARATOR_BASE { u64::MAX } else { sym };
        hash = (hash.rotate_left(5) ^ canonical).wrapping_mul(K);
    }
    hash = (hash.rotate_left(5) ^ len as u64).wrapping_mul(K);
    // Avalanche: group selection is `hash % k`, which reads low bits.
    hash ^= hash >> 32;
    hash = hash.wrapping_mul(0xd6e8_feb8_6659_fd93);
    hash ^ (hash >> 32)
}

/// Partitions `sequences` into `k` groups by content: each sequence goes
/// to group `stable_sequence_hash(symbols) % k`, preserving input order
/// within each group.
///
/// The assignment depends only on each sequence's own (normalized)
/// content — inserting or removing a method moves no other method
/// between groups, so an N-method edit dirties at most the N groups
/// those methods land in (up to 2N counting the groups they left). That
/// stability is what makes per-group plan caching sound. `k == 0` is
/// clamped to one group; `k` larger than the sequence count simply
/// leaves the surplus groups empty.
#[must_use]
pub fn partition_stable(sequences: Vec<TaggedSequence>, k: usize) -> Vec<Vec<TaggedSequence>> {
    let hashes: Vec<u64> = sequences.iter().map(|s| stable_sequence_hash(&s.symbols)).collect();
    partition_stable_by(sequences, k, |i, _| hashes[i])
}

/// [`partition_stable`] with caller-supplied content hashes: `hash_of`
/// receives each sequence's input index and the sequence, and must
/// return its [`stable_sequence_hash`] (or an equally content-stable
/// value). The outline pass reads those hashes from each method's
/// cached symbolization template and passes them in here, so the
/// partition step is O(sequences) bookkeeping rather than O(total symbol
/// text) hashing — and since nothing here reads the text, whatever
/// stands for a sequence will do (the outline pass partitions method
/// indices and materializes text only for the groups it must re-detect).
#[must_use]
pub fn partition_stable_by<T, F>(sequences: Vec<T>, k: usize, hash_of: F) -> Vec<Vec<T>>
where
    F: Fn(usize, &T) -> u64,
{
    let k = k.max(1);
    let of: Vec<usize> = sequences
        .iter()
        .enumerate()
        .map(|(i, seq)| (hash_of(i, seq) % k as u64) as usize)
        .collect();
    // Each group allocated once, at its size.
    let mut sizes = vec![0; k];
    for &group in &of {
        sizes[group] += 1;
    }
    let mut groups: Vec<Vec<T>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (seq, group) in sequences.into_iter().zip(of) {
        groups[group].push(seq);
    }
    groups
}

/// Total concatenated text length of a group whose sequences have the
/// given lengths, including one joint separator per sequence — the
/// length [`detect_group`] builds its tree over.
#[must_use]
pub fn group_text_len(lens: impl IntoIterator<Item = usize>) -> usize {
    lens.into_iter().map(|len| len + 1).sum()
}

/// Concatenates a group's sequences with unique separators and returns
/// `(text, tags, offsets, lens)`.
fn concatenate(group: &[TaggedSequence]) -> (Vec<Symbol>, Vec<usize>, Vec<usize>, Vec<usize>) {
    // Separators must be unique per joint and outside the symbol space of
    // instructions (< 2^32) and of the caller's separators; we use a
    // dedicated high band.
    const GROUP_SEP_BASE: Symbol = 0xfffe_0000_0000_0000;
    // One allocation: room for the terminal `SuffixTree::build` appends.
    let mut text = Vec::with_capacity(group_text_len(group.iter().map(|s| s.symbols.len())) + 1);
    let mut tags = Vec::with_capacity(group.len());
    let mut offsets = Vec::with_capacity(group.len());
    let mut lens = Vec::with_capacity(group.len());
    for (i, seq) in group.iter().enumerate() {
        tags.push(seq.tag);
        offsets.push(text.len());
        lens.push(seq.symbols.len());
        text.extend_from_slice(&seq.symbols);
        text.push(GROUP_SEP_BASE + i as Symbol);
    }
    (text, tags, offsets, lens)
}

/// Single-group detection: concatenate, build the tree, select the
/// plan. Returns the group's layout and its outline candidates, whose
/// positions the layout resolves — the reference form of a group's plan,
/// candidate by candidate; the outline pass builds its group text in
/// place and keeps the plan as [`PlanRows`](crate::PlanRows).
#[must_use]
pub fn detect_group(
    group: &[TaggedSequence],
    min_len: usize,
) -> (GroupPlan, Vec<OutlineCandidate>) {
    let (text, tags, offsets, lens) = concatenate(group);
    let total = text.len();
    let tree = SuffixTree::build(text);
    let candidates = select_outline_rows(&tree, min_len, total).candidates(tree.text());
    (GroupPlan { tags, offsets, lens }, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(tag: usize, symbols: &[Symbol]) -> TaggedSequence {
        TaggedSequence { tag, symbols: symbols.to_vec() }
    }

    #[test]
    fn partition_is_total() {
        let sequences: Vec<TaggedSequence> = (0..10).map(|t| seq(t, &[t as Symbol])).collect();
        let groups = partition_stable(sequences, 3);
        assert_eq!(groups.len(), 3);
        let mut tags: Vec<usize> = groups.iter().flatten().map(|s| s.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn partition_edge_cases_clamp_and_pad() {
        // k == 0 clamps to a single group rather than panicking.
        let sequences: Vec<TaggedSequence> = (0..4).map(|t| seq(t, &[t as Symbol])).collect();
        let zero = partition_stable(sequences.clone(), 0);
        assert_eq!(zero.len(), 1);
        assert_eq!(zero[0].len(), 4);

        // k > #sequences leaves the surplus groups empty but present.
        let wide_stable = partition_stable(sequences, 9);
        assert_eq!(wide_stable.len(), 9);
        assert_eq!(wide_stable.iter().map(Vec::len).sum::<usize>(), 4);

        // No sequences at all: every group exists and is empty, and
        // detection over an empty group yields an empty plan.
        let empty_stable = partition_stable(Vec::new(), 3);
        assert_eq!(empty_stable.len(), 3);
        assert!(empty_stable.iter().all(Vec::is_empty));
        let (plan, candidates) = detect_group(&[], 2);
        assert!(candidates.is_empty());
        assert!(plan.tags.is_empty());
    }

    #[test]
    fn stable_hash_normalizes_separator_numbering() {
        // Same literals, same separator placement, different absolute
        // separator values (as two builds of the same method would get).
        let a = [10u64, 11, UNIQUE_SEPARATOR_BASE + 7, 12];
        let b = [10u64, 11, UNIQUE_SEPARATOR_BASE + 901, 12];
        assert_eq!(stable_sequence_hash(&a), stable_sequence_hash(&b));
        // Moving the separator or changing a literal changes the hash.
        let moved = [10u64, UNIQUE_SEPARATOR_BASE + 7, 11, 12];
        assert_ne!(stable_sequence_hash(&a), stable_sequence_hash(&moved));
        let edited = [10u64, 99, UNIQUE_SEPARATOR_BASE + 7, 12];
        assert_ne!(stable_sequence_hash(&a), stable_sequence_hash(&edited));
    }

    #[test]
    fn stable_partition_is_insertion_stable() {
        let mk = |tag: usize| {
            seq(tag, &[tag as Symbol * 3 + 50, tag as Symbol * 7 + 900, tag as Symbol + 20_000])
        };
        let before: Vec<TaggedSequence> = (0..20).map(mk).collect();
        // Drop one method and add two new ones: every surviving method
        // must stay in the group it was in before.
        let mut after: Vec<TaggedSequence> = (0..20).filter(|&t| t != 7).map(mk).collect();
        after.push(mk(31));
        after.push(mk(32));

        let group_of = |groups: &[Vec<TaggedSequence>]| {
            let mut map = std::collections::HashMap::new();
            for (g, group) in groups.iter().enumerate() {
                for s in group {
                    map.insert(s.tag, g);
                }
            }
            map
        };
        let before_groups = group_of(&partition_stable(before, 5));
        let after_groups = group_of(&partition_stable(after, 5));
        for (tag, g) in &before_groups {
            if *tag != 7 {
                assert_eq!(after_groups[tag], *g, "method {tag} changed groups");
            }
        }
    }

    #[test]
    fn the_layout_covers_exactly_the_concatenated_text() {
        let group = [seq(5, &[1, 2, 3]), seq(9, &[]), seq(4, &[4, 5])];
        let (plan, _) = detect_group(&group, 2);
        assert_eq!(
            (plan.tags, plan.offsets, plan.lens),
            (vec![5, 9, 4], vec![0, 4, 5], vec![3, 0, 2])
        );
        assert_eq!(group_text_len(group.iter().map(|s| s.symbols.len())), 8);
    }

    #[test]
    fn group_detection_finds_cross_method_repeats() {
        // The same 4-symbol motif in three different methods of one group.
        let motif = [100u64, 101, 102, 103];
        let mk = |tag: usize| {
            let mut s = vec![tag as Symbol + 1_000];
            s.extend_from_slice(&motif);
            s.push(tag as Symbol + 2_000);
            seq(tag, &s)
        };
        let (plan, candidates) = detect_group(&[mk(0), mk(1), mk(2)], 2);
        assert_eq!(candidates.len(), 1);
        let cand = &candidates[0];
        assert_eq!(cand.symbols, motif.to_vec());
        assert_eq!(cand.positions.len(), 3);
        // Positions resolve back to the right methods at offset 1.
        let resolved: Vec<(usize, usize)> =
            cand.positions.iter().map(|&p| plan.resolve(p)).collect();
        assert_eq!(resolved, vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn partitioning_loses_only_cross_group_repeats() {
        // Two methods share a motif. In one group the repeat is found; in
        // two groups (one method each) it is not — the paper's stated
        // drawback of PlOpti.
        let motif = [40u64, 41, 42, 43, 44, 45];
        let sequences = vec![seq(0, &motif), seq(1, &motif)];
        let (_, one_group) = detect_group(&sequences, 2);
        assert_eq!(one_group.len(), 1);
        let mut split = sequences.iter().map(|s| detect_group(std::slice::from_ref(s), 2));
        assert!(split.all(|(_, candidates)| candidates.is_empty()));
    }

    #[test]
    fn resolve_maps_boundaries() {
        let (plan, _) = detect_group(&[seq(5, &[1, 2, 3]), seq(9, &[4, 5])], 2);
        assert_eq!(plan.resolve(0), (5, 0));
        assert_eq!(plan.resolve(2), (5, 2));
        assert_eq!(plan.resolve(4), (9, 0));
        assert_eq!(plan.resolve(5), (9, 1));
    }

    #[test]
    #[should_panic(expected = "separator space")]
    fn resolve_panics_on_separator_positions() {
        // Group text: [1, 2, 3, SEP0, 4, 5, SEP1]. Position 3 is the
        // separator after the first sequence; before the fix it resolved
        // to the nonsense (tag 5, offset 3).
        let (plan, _) = detect_group(&[seq(5, &[1, 2, 3]), seq(9, &[4, 5])], 2);
        let _ = plan.resolve(3);
    }

    #[test]
    #[should_panic(expected = "separator space")]
    fn resolve_panics_on_trailing_separator() {
        let (plan, _) = detect_group(&[seq(5, &[1, 2, 3]), seq(9, &[4, 5])], 2);
        let _ = plan.resolve(6);
    }
}

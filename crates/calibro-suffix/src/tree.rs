//! A suffix tree over `u64` symbol sequences, stored as an enhanced
//! suffix array.
//!
//! The paper builds suffix trees over "a sequence of unsigned integers"
//! produced by instruction mapping (§2.2 step 1-2). We use a `u64`
//! alphabet so that the 2^32 possible AArch64 machine words and the
//! *unique separator numbers* the paper assigns to terminator
//! instructions (§3.3.2) can coexist without collision.
//!
//! # Layout
//!
//! The tree is never materialized. [`SuffixTree::build`] dense-ranks the
//! alphabet, sorts the suffixes by prefix doubling, derives the LCP
//! array (Kasai) and makes one bottom-up pass over its LCP intervals: an
//! internal node is an interval `[lb, rb]` of the suffix array whose
//! suffixes share exactly `len` symbols, so its occurrence count is the
//! interval's width and its positions are a slice of the array. What is
//! kept is the text, the array, one 16-byte record per internal node and
//! each node's internal children — a few `u32`s per symbol, no edge map.
//!
//! # Determinism
//!
//! Traversals enumerate children in the order Ukkonen's algorithm would
//! have inserted them, which is a function of positions alone: children
//! in order of their first occurrence (the smallest suffix start below
//! them), except that at every non-root node the two earliest are
//! swapped — the split that creates a node inserts the new leaf before
//! the old continuation. The enumeration is therefore identical for any
//! two texts related by an injective symbol renaming, whatever it does
//! to symbol order, and so is downstream greedy candidate tie-breaking:
//! separator renumbering between builds can never change a detection
//! result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// A symbol in the sequence: an instruction mapping or a separator.
pub type Symbol = u64;

/// The reserved internal terminal symbol appended by [`SuffixTree::build`].
pub const TERMINAL: Symbol = u64::MAX;

/// Marks a leaf among a node's pending children.
const LEAF: u32 = u32::MAX;

/// A deterministic FxHash-style hasher for the rank map: unlike the
/// default `RandomState` it is seed-free (bit-stable across processes)
/// and one multiply per word instead of SipHash rounds — ranking hashes
/// every symbol of the text once.
#[derive(Default)]
struct FxHasher(u64);

const FX_K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    /// Required by the trait; the map's `u64` keys take `write_u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FX_K);
    }

    fn finish(&self) -> u64 {
        // One avalanche so the map's low-bit bucket selection does not
        // see the multiplier's weak low bits directly.
        let mut x = self.0;
        x ^= x >> 32;
        x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x ^ (x >> 32)
    }
}

type RankMap = HashMap<Symbol, u32, BuildHasherDefault<FxHasher>>;

/// An identifier of an internal node inside a [`SuffixTree`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(usize);

/// One internal node: the LCP interval `[lb, rb]` of the suffix array
/// whose suffixes share exactly `len` symbols.
#[derive(Clone, Copy, Debug)]
struct Interval {
    lb: u32,
    rb: u32,
    len: u32,
    /// One past this node's last entry in `SuffixTree::kids`; its first
    /// entry follows the previous node's last.
    kids_end: u32,
}

/// A suffix tree built from a symbol sequence.
///
/// # Examples
///
/// The paper's Figure 1 example — "banana" has the repeated substrings
/// "a", "an", "ana", "n", "na":
///
/// ```
/// use calibro_suffix::SuffixTree;
///
/// let text: Vec<u64> = "banana".bytes().map(u64::from).collect();
/// let tree = SuffixTree::build(text);
/// let na: Vec<u64> = "na".bytes().map(u64::from).collect();
/// assert_eq!(tree.count_occurrences(&na), 2);
/// let ana: Vec<u64> = "ana".bytes().map(u64::from).collect();
/// assert_eq!(tree.count_occurrences(&ana), 2); // overlapping occurrences
/// ```
#[derive(Debug)]
pub struct SuffixTree {
    text: Vec<Symbol>,
    /// Suffix starts in sorted order (the order of first-seen symbol
    /// ranks, which no output depends on).
    sa: Vec<u32>,
    /// Internal nodes in post-order: the root is last.
    nodes: Vec<Interval>,
    /// Each node's internal children, in insertion order, node after
    /// node.
    kids: Vec<u32>,
}

impl SuffixTree {
    /// Builds the suffix tree of `text`: rank, suffix array, LCP array,
    /// LCP intervals. A unique terminal symbol is appended internally.
    ///
    /// # Panics
    ///
    /// Panics if `text` contains the reserved [`TERMINAL`] symbol, or if
    /// it is `u32::MAX` symbols or longer (suffix-array indices are
    /// `u32`, and the terminal takes one).
    #[must_use]
    pub fn build(mut text: Vec<Symbol>) -> SuffixTree {
        assert!(!text.contains(&TERMINAL), "input must not contain the reserved terminal symbol");
        assert!(
            text.len() < u32::MAX as usize,
            "text of {} symbols exceeds the u32 suffix-array index limit of {} symbols",
            text.len(),
            u32::MAX - 1
        );
        text.push(TERMINAL);
        let (rank, alphabet) = {
            let (rank, ids) = dense_rank(&text);
            (rank, ids.len())
        };
        let (sa, isa) = suffix_array(&rank, alphabet);
        let plcp = permuted_lcp(&rank, &sa, isa);
        drop(rank);
        let (nodes, kids) = intervals(&sa, &plcp);
        SuffixTree { text, sa, nodes, kids }
    }

    /// The sequence the tree was built from, including the terminal.
    #[must_use]
    pub fn text(&self) -> &[Symbol] {
        &self.text
    }

    /// Number of symbols in the original sequence (excluding the terminal).
    #[must_use]
    pub fn len(&self) -> usize {
        self.text.len() - 1
    }

    /// Returns `true` if the original sequence was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of nodes of the suffix tree, root and leaves included (a
    /// linear-size witness used in tests: at most `2n` for a text of
    /// length `n`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len() + self.sa.len()
    }

    fn kids(&self, id: usize) -> &[u32] {
        let start = id.checked_sub(1).map_or(0, |prev| self.nodes[prev].kids_end as usize);
        &self.kids[start..self.nodes[id].kids_end as usize]
    }

    /// The suffix-array range of the suffixes starting with `pattern`.
    fn locate(&self, pattern: &[Symbol]) -> Range<usize> {
        // The array is sorted by first-seen rank, so the pattern is
        // compared in rank space. Only tests and examples query
        // patterns, so the rank map is rebuilt here rather than kept
        // alive by every tree the outliner builds.
        let (rank, ids) = dense_rank(&self.text);
        let Some(pattern) = pattern.iter().map(|s| ids.get(s).copied()).collect::<Option<Vec<_>>>()
        else {
            return 0..0;
        };
        let prefix = |&p: &u32| {
            let suffix = &rank[p as usize..];
            &suffix[..suffix.len().min(pattern.len())]
        };
        let lo = self.sa.partition_point(|p| prefix(p) < pattern.as_slice());
        let width = self.sa[lo..].partition_point(|p| prefix(p) == pattern.as_slice());
        lo..lo + width
    }

    /// Counts how many times `pattern` occurs in the sequence (including
    /// overlapping occurrences). The empty pattern occurs `len + 1` times
    /// by convention (all suffix starts).
    #[must_use]
    pub fn count_occurrences(&self, pattern: &[Symbol]) -> usize {
        self.locate(pattern).len()
    }

    /// Returns the sorted start positions of all occurrences of `pattern`.
    #[must_use]
    pub fn find_positions(&self, pattern: &[Symbol]) -> Vec<usize> {
        let mut positions = Vec::new();
        sorted_starts(&self.sa[self.locate(pattern)], &mut positions);
        positions
    }

    /// Visits every internal node (excluding the root) with its path
    /// length and descendant-leaf count — the raw material for the
    /// paper's repeat detection (§2.2 step 3) — in preorder, children
    /// last-inserted first.
    ///
    /// Path lengths never include the terminal symbol, which occurs
    /// once.
    pub fn visit_internal<F: FnMut(InternalNode)>(&self, mut visit: F) {
        let mut stack = self.kids(self.nodes.len() - 1).to_vec();
        while let Some(id) = stack.pop() {
            let id = id as usize;
            let node = self.nodes[id];
            visit(InternalNode {
                id: NodeId(id),
                len: node.len as usize,
                count: (node.rb - node.lb) as usize + 1,
            });
            stack.extend_from_slice(self.kids(id));
        }
    }

    /// Returns the sorted start positions of the substring represented by
    /// an internal node reported by [`SuffixTree::visit_internal`].
    /// `len` must be the node's reported path length.
    #[must_use]
    pub fn positions_of(&self, node: NodeId, len: usize) -> Vec<usize> {
        let mut positions = Vec::new();
        self.positions_into(node, len, &mut positions);
        positions
    }

    /// [`SuffixTree::positions_of`] into a caller-owned buffer, which is
    /// cleared first.
    pub(crate) fn positions_into(&self, node: NodeId, len: usize, out: &mut Vec<usize>) {
        let Interval { lb, rb, len: depth, .. } = self.nodes[node.0];
        debug_assert_eq!(len, depth as usize, "positions_of called with another node's length");
        sorted_starts(&self.sa[lb as usize..=rb as usize], out);
    }

    /// Every suffix of the sequence, terminal included, in suffix-array
    /// order (test oracle; allocates one vector per suffix).
    #[must_use]
    pub fn suffixes(&self) -> Vec<Vec<Symbol>> {
        self.sa.iter().map(|&p| self.text[p as usize..].to_vec()).collect()
    }
}

/// Replaces `out` with `starts` (a slice of the suffix array) in
/// ascending order.
fn sorted_starts(starts: &[u32], out: &mut Vec<usize>) {
    out.clear();
    out.extend(starts.iter().map(|&p| p as usize));
    out.sort_unstable();
}

/// An internal node summary passed to [`SuffixTree::visit_internal`].
#[derive(Clone, Copy, Debug)]
pub struct InternalNode {
    /// Handle for position queries.
    pub id: NodeId,
    /// Path label length == length of the repeated substring.
    pub len: usize,
    /// Number of descendant leaves == number of (overlapping) occurrences.
    pub count: usize,
}

/// Dense `u32` ranks in first-seen order, and the map that assigned
/// them. Any injective ranking sorts the suffixes into *an* order that
/// yields the same intervals; first-seen is the one that costs a single
/// hash probe per symbol.
fn dense_rank(text: &[Symbol]) -> (Vec<u32>, RankMap) {
    // Detection texts have about one distinct symbol per two or three
    // (every method brings unique separators): sized for that, the map
    // does not regrow, which would cost more than the probes.
    let mut ids = RankMap::with_capacity_and_hasher(text.len() / 2, BuildHasherDefault::default());
    let rank = text
        .iter()
        .map(|&s| {
            let next = ids.len() as u32;
            *ids.entry(s).or_insert(next)
        })
        .collect();
    (rank, ids)
}

/// Sorts the suffixes of `rank` (alphabet `0..alphabet`, last symbol
/// unique) by prefix doubling that re-sorts only the groups still
/// unsorted (Larsson–Sadakane). Returns the suffix array and its
/// inverse (the final group numbers: every group is one suffix).
///
/// A suffix's group number is the array index of its group's last
/// member, so comparing numbers compares groups. A round sorts each
/// unsorted group — suffixes equal on their first `h` symbols — by the
/// group number of the suffix `h` further on, and updates numbers in
/// place: a number read in the same round is then refined, never wrong,
/// so equal keys still mean at least `2h` shared symbols.
fn suffix_array(rank: &[u32], alphabet: usize) -> (Vec<u32>, Vec<u32>) {
    let n = rank.len();
    let mut bucket_end = vec![0u32; alphabet];
    for &r in rank {
        bucket_end[r as usize] += 1;
    }
    let mut sum = 0;
    for end in &mut bucket_end {
        sum += *end;
        *end = sum;
    }
    let mut group: Vec<u32> = rank.iter().map(|&r| bucket_end[r as usize] - 1).collect();
    let mut sa = vec![0u32; n];
    for (p, &r) in rank.iter().enumerate().rev() {
        bucket_end[r as usize] -= 1;
        sa[bucket_end[r as usize] as usize] = p as u32;
    }
    let mut unsorted = Vec::new();
    let mut i = 0;
    while i < n {
        let last = group[sa[i] as usize] as usize;
        if last > i {
            unsorted.push(i..last + 1);
        }
        i = last + 1;
    }

    let mut h = 1;
    let mut keys: Vec<u64> = Vec::new();
    while !unsorted.is_empty() {
        let mut next = Vec::new();
        for range in unsorted {
            // Suffixes sharing `h` symbols end past the terminal's
            // position only if they are one suffix, so `p + h < n`.
            keys.clear();
            keys.extend(
                sa[range.clone()]
                    .iter()
                    .map(|&p| (u64::from(group[p as usize + h]) << 32) | u64::from(p)),
            );
            keys.sort_unstable();
            let mut start = range.start;
            for (i, &key) in (range.start..).zip(&keys) {
                sa[i] = key as u32;
                if i + 1 == range.end || keys[i + 1 - range.start] >> 32 != key >> 32 {
                    for &p in &sa[start..=i] {
                        group[p as usize] = i as u32;
                    }
                    if i > start {
                        next.push(start..i + 1);
                    }
                    start = i + 1;
                }
            }
        }
        unsorted = next;
        h *= 2;
    }
    (sa, group)
}

/// Kasai's algorithm, writing the LCP of each suffix with its
/// predecessor in the array *by position* over the inverse array it
/// consumes: step `p` reads `isa[p]` before overwriting it, and no later
/// step reads it again.
fn permuted_lcp(rank: &[u32], sa: &[u32], mut isa: Vec<u32>) -> Vec<u32> {
    let mut h = 0usize;
    for p in 0..isa.len() {
        let i = isa[p] as usize;
        if i == 0 {
            h = 0;
            isa[p] = 0;
            continue;
        }
        let q = sa[i - 1] as usize;
        // The unique terminal ends every match before either index
        // runs off the text.
        while rank[p + h] == rank[q + h] {
            h += 1;
        }
        isa[p] = h as u32;
        h = h.saturating_sub(1);
    }
    isa
}

/// One bottom-up pass over the LCP intervals: returns the internal
/// nodes in post-order and, node after node, each one's internal
/// children in Ukkonen insertion order.
fn intervals(sa: &[u32], plcp: &[u32]) -> (Vec<Interval>, Vec<u32>) {
    struct Open {
        len: u32,
        lb: usize,
        /// Index of this node's first child in `pending`.
        from: usize,
    }
    let n = sa.len();
    let mut nodes: Vec<Interval> = Vec::new();
    let mut kids: Vec<u32> = Vec::new();
    // Children of the open nodes, in array order: (first occurrence,
    // node id or `LEAF`).
    let mut pending: Vec<(u32, u32)> = Vec::new();
    let mut internal: Vec<(u32, u32)> = Vec::new();
    let mut close = |open: Open, rb: usize, pending: &mut Vec<(u32, u32)>| {
        let mut first_leaf = u32::MAX;
        internal.clear();
        for &(first, id) in &pending[open.from..] {
            if id == LEAF {
                first_leaf = first_leaf.min(first);
            } else {
                internal.push((first, id));
            }
        }
        internal.sort_unstable();
        let first = internal.first().map_or(first_leaf, |&(f, _)| f.min(first_leaf));
        // The split that made a non-root node inserted the new leaf
        // before the old continuation: the two earliest children swap,
        // which reorders internal children only when both are internal.
        if open.len > 0 && internal.len() >= 2 && internal[1].0 < first_leaf {
            internal.swap(0, 1);
        }
        kids.extend(internal.iter().map(|&(_, id)| id));
        let id = nodes.len() as u32;
        nodes.push(Interval {
            lb: open.lb as u32,
            rb: rb as u32,
            len: open.len,
            kids_end: kids.len() as u32,
        });
        pending.truncate(open.from);
        pending.push((first, id));
    };

    let mut stack = vec![Open { len: 0, lb: 0, from: 0 }];
    for i in 1..n {
        pending.push((sa[i - 1], LEAF));
        let len = plcp[sa[i] as usize];
        let mut lb = i - 1;
        // The root (`len` 0) never closes here.
        while let Some(open) = stack.pop_if(|open| len < open.len) {
            lb = open.lb;
            close(open, i - 1, &mut pending);
        }
        if stack.last().is_some_and(|open| len > open.len) {
            stack.push(Open { len, lb, from: pending.len() - 1 });
        }
    }
    pending.push((sa[n - 1], LEAF));
    while let Some(open) = stack.pop() {
        close(open, n - 1, &mut pending);
    }
    (nodes, kids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Vec<Symbol> {
        s.bytes().map(Symbol::from).collect()
    }

    #[test]
    fn banana_matches_paper_figure_1() {
        let tree = SuffixTree::build(bytes("banana"));
        // Seven suffixes including the terminal-only one.
        let mut suffixes = tree.suffixes();
        suffixes.sort();
        assert_eq!(suffixes.len(), 7);
        // "na" occurs twice (Figure 1's rightmost non-leaf node).
        assert_eq!(tree.count_occurrences(&bytes("na")), 2);
        assert_eq!(tree.find_positions(&bytes("na")), vec![2, 4]);
        // "ana" occurs twice, overlapping (second leftmost non-leaf node).
        assert_eq!(tree.count_occurrences(&bytes("ana")), 2);
        assert_eq!(tree.find_positions(&bytes("ana")), vec![1, 3]);
        // "banana" itself occurs once; "nab" never.
        assert_eq!(tree.count_occurrences(&bytes("banana")), 1);
        assert_eq!(tree.count_occurrences(&bytes("nab")), 0);
    }

    #[test]
    fn internal_nodes_of_banana() {
        let tree = SuffixTree::build(bytes("banana"));
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        tree.visit_internal(|n| repeats.push((n.len, n.count)));
        repeats.sort_unstable();
        // Internal nodes: "a" (3 leaves), "ana" (2), "na" (2).
        assert_eq!(repeats, vec![(1, 3), (2, 2), (3, 2)]);
    }

    #[test]
    fn positions_of_internal_nodes() {
        let tree = SuffixTree::build(bytes("banana"));
        let mut checked = 0;
        tree.visit_internal(|n| {
            let positions = tree.positions_of(n.id, n.len);
            assert_eq!(positions.len(), n.count);
            // Every position must carry the same substring.
            let first = &tree.text()[positions[0]..positions[0] + n.len];
            for &p in &positions {
                assert_eq!(&tree.text()[p..p + n.len], first);
            }
            checked += 1;
        });
        assert_eq!(checked, 3);
    }

    #[test]
    fn empty_and_single() {
        let tree = SuffixTree::build(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(tree.count_occurrences(&[]), 1);
        let tree = SuffixTree::build(vec![7]);
        assert_eq!(tree.count_occurrences(&[7]), 1);
        assert_eq!(tree.count_occurrences(&[8]), 0);
    }

    #[test]
    fn all_same_symbol() {
        let tree = SuffixTree::build(vec![5; 20]);
        assert_eq!(tree.count_occurrences(&[5; 10]), 11);
        assert_eq!(tree.find_positions(&[5; 19]), vec![0, 1]);
    }

    #[test]
    fn node_count_is_linear() {
        let text: Vec<Symbol> = (0..1000).map(|i| u64::from(i % 17 == 0)).collect();
        let tree = SuffixTree::build(text);
        assert!(tree.node_count() <= 2 * (tree.len() + 1));
    }

    #[test]
    #[should_panic(expected = "reserved terminal")]
    fn rejects_terminal_in_input() {
        let _ = SuffixTree::build(vec![1, TERMINAL, 2]);
    }

    #[test]
    fn separators_confine_repeats() {
        // Two identical blocks joined by unique separators never produce a
        // repeat spanning the separator.
        let a = [10u64, 11, 12];
        let mut text = Vec::new();
        text.extend_from_slice(&a);
        text.push(1 << 33); // unique separator 1
        text.extend_from_slice(&a);
        text.push((1 << 33) + 1); // unique separator 2
        let tree = SuffixTree::build(text);
        assert_eq!(tree.count_occurrences(&[10, 11, 12]), 2);
        // No repeat includes a separator symbol.
        tree.visit_internal(|n| {
            let positions = tree.positions_of(n.id, n.len);
            for &p in &positions {
                for s in &tree.text()[p..p + n.len] {
                    assert!(*s < (1 << 33), "repeat contains separator");
                }
            }
        });
    }

    #[test]
    fn traversal_order_is_invariant_under_injective_renaming() {
        // Child order is a function of positions alone, so any
        // injective renaming — whatever it does to symbol order — must
        // yield the identical traversal and plan. The warm-path overlap
        // layer leans on this: separator renumbering between a fresh
        // detection and a cached replay can never reorder greedy
        // candidate selection.
        let small: Vec<Symbol> = (0..400).map(|i: u64| (i * i + 3) % 23).collect();
        // 1000 symbols with repeated runs, so the tree is deep and wide.
        let large: Vec<Symbol> = (0..3000)
            .map(|i: u64| if i % 700 < 350 { i % 350 } else { (i * 7919) % 1000 })
            .collect();
        let cases = [
            // Reverses the order of a 24-symbol alphabet.
            (small.clone(), small.iter().map(|&s| 23 - s).collect()),
            // An odd multiplier is a bijection on u64 and scatters the
            // symbol order across the whole range.
            (
                large.clone(),
                large.iter().map(|&s| s.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5555).collect(),
            ),
        ];
        for (text, renamed) in cases {
            let n = text.len();
            let trees = [SuffixTree::build(text), SuffixTree::build(renamed)];
            let [visits_a, visits_b] = trees.each_ref().map(|tree| {
                let mut visits = Vec::new();
                tree.visit_internal(|n| {
                    visits.push((n.len, n.count, tree.positions_of(n.id, n.len)))
                });
                visits
            });
            assert!(visits_a.len() > 100);
            assert_eq!(visits_a, visits_b);
            let [plan_a, plan_b] = trees.each_ref().map(|tree| {
                let plan = crate::select_outline_plan(tree, 2, n);
                plan.into_iter().map(|c| (c.len, c.positions)).collect::<Vec<_>>()
            });
            assert!(!plan_a.is_empty());
            assert_eq!(plan_a, plan_b);
        }
    }

    /// A fixed adversarial corpus: the classic strings, a unary run, the
    /// empty and single-symbol texts, and xorshift-drawn texts over
    /// alphabets of 1 to 1000 symbols, every third one built from
    /// periodic runs.
    fn order_corpus() -> Vec<Vec<Symbol>> {
        let mut texts = vec![
            bytes("banana"),
            bytes("mississippi"),
            vec![5; 300],
            Vec::new(),
            vec![7],
            (0..400).map(|i: u64| (i * i + 3) % 23).collect(),
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..3000 {
            let sigma = [1, 2, 3, 4, 16, 1000][i % 6];
            let len = (next() % 600) as usize;
            let mut text = Vec::with_capacity(len);
            while text.len() < len {
                if i % 3 == 0 && next() % 2 == 0 {
                    let period = 1 + (next() % 7) as usize;
                    let motif: Vec<Symbol> = (0..period).map(|_| next() % sigma).collect();
                    let reps = 2 + (next() % 40) as usize;
                    text.extend(motif.iter().cycle().take(period * reps));
                } else {
                    text.push(next() % sigma);
                }
            }
            text.truncate(len);
            texts.push(text);
        }
        texts
    }

    fn mix(hash: &mut u64, v: usize) {
        *hash = (*hash ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Digests of the full `visit_internal` sequence (`len`, `count`,
    /// `positions_of`) and of `select_outline_plan` at `min_len` 1, 2, 3
    /// over [`order_corpus`], recorded on the Ukkonen tree before the
    /// enhanced suffix array replaced it: the array must enumerate
    /// exactly what the tree enumerated, so that greedy tie-breaking —
    /// and every outlined byte downstream — is unchanged.
    #[test]
    fn traversal_and_plans_match_the_order_recorded_on_the_ukkonen_tree() {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        let mut visits = BASIS;
        let mut plans = [BASIS; 3];
        for text in order_corpus() {
            let n = text.len();
            let tree = SuffixTree::build(text);
            tree.visit_internal(|node| {
                mix(&mut visits, node.len);
                mix(&mut visits, node.count);
                for p in tree.positions_of(node.id, node.len) {
                    mix(&mut visits, p);
                }
            });
            mix(&mut visits, usize::MAX);
            for (min_len, digest) in (1..).zip(&mut plans) {
                for cand in crate::select_outline_plan(&tree, min_len, n) {
                    mix(digest, cand.len);
                    for p in cand.positions {
                        mix(digest, p);
                    }
                }
                mix(digest, usize::MAX);
            }
        }
        assert_eq!(visits, 0x5375_fba7_0a9c_8f61);
        assert_eq!(plans, [0xce15_2ffe_5ea9_3c56, 0xce15_2ffe_5ea9_3c56, 0xee87_ca8b_4b27_2397]);
    }
}

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
//! A symbol that occurs once (every separator of a detection text, about
//! half its symbols) starts a suffix that shares no symbol with any other
//! and so is a leaf of the root and of no internal node. Their suffixes
//! sort behind all the others, one to a bucket: the array keeps only the
//! suffixes that start with a repeated symbol, and sorting, LCPs and
//! intervals never visit the rest.
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

/// A symbol in the sequence: an instruction mapping or a separator.
pub type Symbol = u64;

/// The reserved internal terminal symbol appended by [`SuffixTree::build`].
pub const TERMINAL: Symbol = u64::MAX;

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
    /// Starts of the suffixes whose first symbol is repeated, in sorted
    /// order (under the symbol order `Buckets` gives, which no output
    /// depends on).
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
        let Buckets { group, sa, unsorted } = Buckets::of(&text);
        let (sa, isa) = suffix_array(group, sa, unsorted);
        let plcp = permuted_lcp(&text, &sa, isa);
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
        // Every suffix is a leaf, whether or not the array keeps it.
        self.nodes.len() + self.text.len()
    }

    fn kids(&self, id: usize) -> &[u32] {
        let start = id.checked_sub(1).map_or(0, |prev| self.nodes[prev].kids_end as usize);
        &self.kids[start..self.nodes[id].kids_end as usize]
    }

    /// The start positions of `pattern`'s occurrences, ascending: the
    /// array's range of the suffixes it prefixes, or, when its first
    /// symbol occurs once and the array does not keep that suffix, the
    /// one position where it could start. Only tests and examples query
    /// patterns, so the ranks are rebuilt here rather than kept alive by
    /// every tree the outliner builds.
    fn locate(&self, pattern: &[Symbol]) -> Vec<usize> {
        if pattern.is_empty() {
            return (0..self.text.len()).collect();
        }
        // The array is sorted by the symbols' initial group numbers, so
        // the pattern is compared in that order.
        let keyed = Buckets::of(&self.text).group;
        let mut keys = Vec::with_capacity(pattern.len());
        for &symbol in pattern {
            let Some(p) = self.text.iter().position(|&s| s == symbol) else {
                return Vec::new();
            };
            keys.push(keyed[p]);
        }
        let pattern = keys;
        // A first symbol seen once starts one suffix, which the array
        // does not keep.
        if pattern[0] as usize >= self.sa.len() {
            let first = keyed.iter().position(|&key| key == pattern[0]).expect("a text symbol");
            return if keyed[first..].starts_with(&pattern) { vec![first] } else { Vec::new() };
        }
        let prefix = |&p: &u32| {
            let suffix = &keyed[p as usize..];
            &suffix[..suffix.len().min(pattern.len())]
        };
        let lo = self.sa.partition_point(|p| prefix(p) < pattern.as_slice());
        let width = self.sa[lo..].partition_point(|p| prefix(p) == pattern.as_slice());
        let mut positions = Vec::new();
        sorted_starts(&self.sa[lo..lo + width], &mut positions);
        positions
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
        self.locate(pattern)
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
        let (starts, depth) = self.starts(node);
        debug_assert_eq!(len, depth, "positions_of called with another node's length");
        let mut positions = Vec::new();
        sorted_starts(starts, &mut positions);
        positions
    }

    /// An internal node's start positions, in array (not position)
    /// order, and its path length.
    pub(crate) fn starts(&self, node: NodeId) -> (&[u32], usize) {
        let Interval { lb, rb, len, .. } = self.nodes[node.0];
        (&self.sa[lb as usize..=rb as usize], len as usize)
    }

    /// Every suffix of the sequence, terminal included: those the array
    /// keeps in its order, then those that start with a symbol occurring
    /// once, in text order (test oracle; allocates one vector per suffix).
    #[must_use]
    pub fn suffixes(&self) -> Vec<Vec<Symbol>> {
        let kept = self.sa.len() as u32;
        let groups = Buckets::of(&self.text).group.into_iter().enumerate();
        let singles = groups.filter(|&(_, g)| g >= kept).map(|(p, _)| p as u32);
        let starts = self.sa.iter().copied().chain(singles);
        starts.map(|p| self.text[p as usize..].to_vec()).collect()
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

/// Where sorting the suffixes starts: every position's group number
/// before any refinement — an injective function of its symbol, so an
/// order of the symbols — and the suffixes that start with a repeated
/// symbol, bucketed by it in that order, every bucket unsorted. A
/// repeated symbol's group number is its bucket's last place; a symbol
/// that occurs once takes a place of its own counting down from the end
/// of the whole array, and its suffix is not kept. Any injective order
/// sorts the suffixes into *an* order that yields the same intervals.
struct Buckets {
    /// Each position's group number.
    group: Vec<u32>,
    /// The kept suffixes' starts, bucket by bucket, each bucket's
    /// ascending.
    sa: Vec<u32>,
    /// Each bucket's `[start, end)` in `sa`.
    unsorted: Vec<[u32; 2]>,
}

impl Buckets {
    /// The buckets of `text`, whose last symbol is the unique
    /// [`TERMINAL`]: dense ranks ([`rank`]) and each rank's count, then
    /// buckets in rank order, filled from the back.
    fn of(text: &[Symbol]) -> Buckets {
        let (rank, counts) = rank(text);
        // Per rank: its group number and, for a repeated symbol, the next
        // place to fill, from its bucket's back; a symbol seen once
        // writes its position to a spare slot past the kept array, which
        // keeps the per-position pass free of branches.
        let (mut kept, mut single) = (0, text.len() as u32);
        let (mut group_of, mut next) = (Vec::with_capacity(counts.len()), Vec::new());
        next.reserve_exact(counts.len());
        let mut unsorted = Vec::new();
        for &count in &counts {
            if count > 1 {
                unsorted.push([kept, kept + count]);
                kept += count;
                group_of.push(kept - 1);
                next.push(kept - 1);
            } else {
                single -= 1;
                group_of.push(single);
                next.push(u32::MAX);
            }
        }
        let mut sa = vec![0u32; kept as usize + 1];
        for (p, &r) in rank.iter().enumerate().rev() {
            let slot = next[r as usize].min(kept);
            sa[slot as usize] = p as u32;
            next[r as usize] = slot.wrapping_sub(u32::from(slot < kept));
        }
        sa.pop();
        // The ranks become the group numbers in place.
        let mut group = rank;
        for g in &mut group {
            *g = group_of[*g as usize];
        }
        Buckets { group, sa, unsorted }
    }
}

/// Multiplier of the rank table's Fibonacci hash (2^64 / φ, odd).
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// Dense ranks of `text` (whose last symbol is the unique [`TERMINAL`])
/// in first-seen order, and each rank's number of occurrences: one
/// multiply-shift hash and, mostly, one probe per symbol into a flat
/// open-addressed table sized to the text — a power of two at most 80 %
/// full. A slot holds one past the first position of its symbol, so the
/// table costs four bytes a slot: the symbol and its rank are read where
/// that position lies.
fn rank(text: &[Symbol]) -> (Vec<u32>, Vec<u32>) {
    let body = &text[..text.len() - 1];
    let slots = (body.len() + body.len() / 4 + 2).next_power_of_two();
    let shift = 64 - slots.trailing_zeros();
    let mut firsts = vec![0u32; slots];
    let mut rank: Vec<u32> = Vec::with_capacity(text.len());
    let mut distinct = 0;
    for (p, &symbol) in body.iter().enumerate() {
        let mut slot = (symbol.wrapping_mul(FIB) >> shift) as usize;
        let r = loop {
            match firsts[slot] {
                0 => {
                    firsts[slot] = p as u32 + 1;
                    distinct += 1;
                    break distinct - 1;
                }
                first if text[first as usize - 1] == symbol => break rank[first as usize - 1],
                _ => slot = (slot + 1) & (slots - 1),
            }
        };
        rank.push(r);
    }
    drop(firsts);
    rank.push(distinct);
    let mut counts = vec![0u32; distinct as usize + 1];
    for &r in &rank {
        counts[r as usize] += 1;
    }
    (rank, counts)
}

/// Sorts the kept suffixes — those whose first symbol repeats — from
/// their buckets by prefix doubling that re-sorts only the groups still
/// unsorted (Larsson–Sadakane). Returns their suffix array and, for
/// every position, its suffix's final group number: its place in the
/// whole array, in which the suffixes starting with a symbol seen once
/// sort behind the rest, one to a bucket.
///
/// A suffix's group number is the array index of its group's last
/// member, so comparing numbers compares groups. A round sorts each
/// unsorted group — suffixes equal on their first `h` symbols — by the
/// group number of the suffix `h` further on, and updates numbers in
/// place: a number read in the same round is then refined, never wrong,
/// so equal keys still mean at least `2h` shared symbols.
fn suffix_array(
    mut group: Vec<u32>,
    mut sa: Vec<u32>,
    mut unsorted: Vec<[u32; 2]>,
) -> (Vec<u32>, Vec<u32>) {
    let mut h = 1;
    let (mut keys, mut next) = (Vec::new(), Vec::new());
    while !unsorted.is_empty() {
        for &[start, end] in &unsorted {
            refine(&mut sa, &mut group, start as usize, end as usize, h, &mut keys, &mut next);
        }
        std::mem::swap(&mut unsorted, &mut next);
        next.clear();
        h *= 2;
    }
    (sa, group)
}

/// One Larsson–Sadakane step over the unsorted group `sa[start..end]`:
/// sorts it by the group number `h` symbols on, renumbers each run of
/// equal keys as a group and queues the runs still unsorted on
/// `unsorted`. Suffixes sharing `h` symbols end past the terminal's
/// position only if they are one suffix, so `p + h` is in the text.
fn refine(
    sa: &mut [u32],
    group: &mut [u32],
    start: usize,
    end: usize,
    h: usize,
    keys: &mut Vec<u64>,
    unsorted: &mut Vec<[u32; 2]>,
) {
    if end - start == 2 {
        // Most groups are pairs: compare, and split or keep them.
        let (a, b) = (sa[start], sa[start + 1]);
        let (ka, kb) = (group[a as usize + h], group[b as usize + h]);
        if ka == kb {
            unsorted.push([start as u32, end as u32]);
            return;
        }
        let (first, second) = if (ka, a) < (kb, b) { (a, b) } else { (b, a) };
        (sa[start], sa[start + 1]) = (first, second);
        group[first as usize] = start as u32;
        group[second as usize] = start as u32 + 1;
        return;
    }
    keys.clear();
    keys.extend(
        sa[start..end].iter().map(|&p| (u64::from(group[p as usize + h]) << 32) | u64::from(p)),
    );
    if keys.len() <= 16 {
        insertion_sort(keys);
    } else {
        keys.sort_unstable();
    }
    let mut run = start;
    for (i, &key) in (start..).zip(keys.iter()) {
        sa[i] = key as u32;
        if i + 1 == end || keys[i + 1 - start] >> 32 != key >> 32 {
            for &p in &sa[run..=i] {
                group[p as usize] = i as u32;
            }
            if i > run {
                unsorted.push([run as u32, i as u32 + 1]);
            }
            run = i + 1;
        }
    }
}

/// Sorts a short slice without the general sort's set-up.
fn insertion_sort(keys: &mut [u64]) {
    for i in 1..keys.len() {
        let key = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
    }
}

/// Kasai's algorithm, writing the LCP of each suffix the array keeps
/// with its predecessor there *by position* over the inverse array it
/// consumes: step `p` reads `isa[p]` before overwriting it, and no later
/// step reads it again. The kept suffixes are the array's first places,
/// so each has the predecessor it has in the whole array; a suffix it
/// does not keep shares no symbol with its neighbours, and the next
/// position starts from no shared symbol.
fn permuted_lcp(text: &[Symbol], sa: &[u32], mut isa: Vec<u32>) -> Vec<u32> {
    let mut h = 0usize;
    for p in 0..isa.len() {
        let i = isa[p] as usize;
        if i == 0 || i >= sa.len() {
            h = 0;
            isa[p] = 0;
            continue;
        }
        let q = sa[i - 1] as usize;
        // The unique terminal ends every match before either index
        // runs off the text.
        while text[p + h] == text[q + h] {
            h += 1;
        }
        isa[p] = h as u32;
        h = h.saturating_sub(1);
    }
    isa
}

/// One bottom-up pass over the LCP intervals: returns the internal
/// nodes in post-order and, node after node, each one's internal
/// children in Ukkonen insertion order. The suffixes the array does not
/// keep are leaves of the root alone, and a root's children are ordered
/// by their internal nodes' first occurrences, which no leaf changes.
fn intervals(sa: &[u32], plcp: &[u32]) -> (Vec<Interval>, Vec<u32>) {
    if sa.is_empty() {
        return (vec![Interval { lb: 0, rb: 0, len: 0, kids_end: 0 }], Vec::new());
    }
    struct Open {
        len: u32,
        lb: usize,
        /// Index of this node's first internal child in `pending`.
        from: usize,
        /// The smallest start among this node's leaf children.
        first_leaf: u32,
    }
    let n = sa.len();
    let mut nodes: Vec<Interval> = Vec::new();
    let mut kids: Vec<u32> = Vec::new();
    // Internal children of the open nodes, in array order: (first
    // occurrence, node id). A leaf child is only its start, folded into
    // its parent's `first_leaf`.
    let mut pending: Vec<(u32, u32)> = Vec::new();
    let mut close = |open: Open, rb: usize, pending: &mut Vec<(u32, u32)>| {
        let internal = &mut pending[open.from..];
        internal.sort_unstable();
        let first_leaf = open.first_leaf;
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

    let mut stack = vec![Open { len: 0, lb: 0, from: 0, first_leaf: u32::MAX }];
    for i in 1..n {
        let (leaf, len) = (sa[i - 1], plcp[sa[i] as usize]);
        let top = stack.last_mut().expect("the root stays open");
        if len > top.len {
            // A node opens whose first child is this leaf.
            stack.push(Open { len, lb: i - 1, from: pending.len(), first_leaf: leaf });
            continue;
        }
        top.first_leaf = top.first_leaf.min(leaf);
        let mut lb = i - 1;
        // The root (`len` 0) never closes here.
        while let Some(open) = stack.pop_if(|open| len < open.len) {
            lb = open.lb;
            close(open, i - 1, &mut pending);
        }
        if stack.last().is_some_and(|open| len > open.len) {
            // A node opens whose first child is the node just closed.
            let from = pending.len() - 1;
            stack.push(Open { len, lb, from, first_leaf: u32::MAX });
        }
    }
    let top = stack.last_mut().expect("the root stays open");
    top.first_leaf = top.first_leaf.min(sa[n - 1]);
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
                let plan = crate::select_outline_rows(tree, 2, n).candidates(tree.text());
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
    /// `positions_of`) and of `select_outline_rows` at `min_len` 1, 2, 3
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
                for cand in crate::select_outline_rows(&tree, min_len, n).candidates(tree.text()) {
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

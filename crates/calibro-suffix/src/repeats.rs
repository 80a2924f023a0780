//! Repeat detection and non-overlapping occurrence selection on top of
//! the suffix tree — §2.2 steps 3-4 and §3.3.3 of the paper.

use crate::benefit;
use crate::tree::{SuffixTree, Symbol};

/// A repeated sequence discovered in a suffix tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repeat {
    /// Length of the repeated sequence in symbols.
    pub len: usize,
    /// Number of (possibly overlapping) occurrences.
    pub count: usize,
    /// Sorted start positions of all occurrences.
    pub positions: Vec<usize>,
}

impl Repeat {
    /// The paper's benefit-model saving for this repeat, assuming all
    /// occurrences can be outlined.
    #[must_use]
    pub fn saving(&self) -> i64 {
        benefit::saving(self.len, self.count)
    }
}

/// One `(length, count)` row of the repeat census (the paper's Figure 3
/// raw data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CensusEntry {
    /// Repeated-sequence length in symbols.
    pub len: usize,
    /// Number of occurrences.
    pub count: usize,
}

/// Enumerates every repeated sequence of at least `min_len` symbols with
/// its full position list. Suitable for moderate inputs; the production
/// path uses [`census`] + [`select_outline_rows`] which avoid
/// materializing positions for rejected candidates.
#[must_use]
pub fn find_repeats(tree: &SuffixTree, min_len: usize) -> Vec<Repeat> {
    let mut repeats = Vec::new();
    tree.visit_internal(|node| {
        if node.len >= min_len && node.count >= 2 {
            repeats.push(Repeat {
                len: node.len,
                count: node.count,
                positions: tree.positions_of(node.id, node.len),
            });
        }
    });
    repeats.sort_by(|a, b| (b.len, &b.positions).cmp(&(a.len, &a.positions)));
    repeats
}

/// Produces the `(length, count)` census of all repeated sequences with
/// `len >= min_len` — the raw data behind the paper's Figure 3 and the
/// Table 1 estimate.
#[must_use]
pub fn census(tree: &SuffixTree, min_len: usize) -> Vec<CensusEntry> {
    let mut rows = Vec::new();
    tree.visit_internal(|node| {
        if node.len >= min_len && node.count >= 2 {
            rows.push(CensusEntry { len: node.len, count: node.count });
        }
    });
    rows.sort_unstable_by_key(|r| (r.len, r.count));
    rows
}

/// Estimates the whole-sequence reduction ratio the way the paper's §2.2
/// analysis does: each suffix-tree repeat is assessed with the Figure 2
/// benefit model, greedily claiming non-overlapping occurrences
/// (longest/most-saving first), and the summed saving is divided by the
/// total sequence length.
#[must_use]
pub fn estimate_reduction(tree: &SuffixTree, min_len: usize) -> f64 {
    if tree.is_empty() {
        return 0.0;
    }
    let plan = select_outline_rows(tree, min_len, tree.len()).candidates(tree.text());
    let saved: i64 = plan.iter().map(OutlineCandidate::saving).sum();
    saved.max(0) as f64 / tree.len() as f64
}

/// A repeat chosen for outlining, with the occurrences that survived
/// overlap resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutlineCandidate {
    /// Length of the outlined sequence in symbols.
    pub len: usize,
    /// Start positions of the occurrences to replace (non-overlapping,
    /// sorted).
    pub positions: Vec<usize>,
    /// The symbols of the sequence itself.
    pub symbols: Vec<Symbol>,
}

impl OutlineCandidate {
    /// Benefit-model saving using the surviving occurrence count.
    #[must_use]
    pub fn saving(&self) -> i64 {
        benefit::saving(self.len, self.positions.len())
    }
}

/// An outline plan as rows: each selected sequence (a *body*) by its
/// length, numbered in the order of its first occurrence, and every
/// occurrence of every body in one list, ascending by position, with the
/// body it is. The occurrences never overlap, and each body has at least
/// two and profits under the Figure 2 model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanRows {
    /// Each body's length in symbols, in first-occurrence order.
    pub lens: Vec<u32>,
    /// Every occurrence's start position, ascending.
    pub positions: Vec<u32>,
    /// The body each occurrence is, by its index into `lens`.
    pub bodies: Vec<u32>,
}

impl PlanRows {
    /// The plan as one [`OutlineCandidate`] per body, in body order (by
    /// first position), each body's symbols read from `text` — the text
    /// the plan was selected over — at its first occurrence. A reference
    /// form for callers that look at a plan candidate by candidate.
    #[must_use]
    pub fn candidates(&self, text: &[Symbol]) -> Vec<OutlineCandidate> {
        let mut plan: Vec<OutlineCandidate> = self
            .lens
            .iter()
            .map(|&len| OutlineCandidate {
                len: len as usize,
                positions: Vec::new(),
                symbols: Vec::new(),
            })
            .collect();
        for (&p, &body) in self.positions.iter().zip(&self.bodies) {
            let (p, candidate) = (p as usize, &mut plan[body as usize]);
            if candidate.positions.is_empty() {
                candidate.symbols = text[p..p + candidate.len].to_vec();
            }
            candidate.positions.push(p);
        }
        plan
    }
}

/// Selects the set of sequences to outline from a suffix tree, resolving
/// overlaps (§3.3.3: "choose the sequence with larger benefit among
/// multiple overlapping ones"), as [`PlanRows`].
///
/// Candidates are ranked by potential saving; occurrences overlapping an
/// already-claimed region are dropped, and a candidate is kept only if
/// the surviving occurrences still profit under the Figure 2 model.
/// Bodies are numbered by first position.
///
/// `total_len` is the length of the underlying sequence (used to size the
/// claim bitmap); it must be at least `tree.len()`.
///
/// # Panics
///
/// Panics if `total_len` is smaller than the tree's text, or does not
/// fit a `u32`.
#[must_use]
pub fn select_outline_rows(tree: &SuffixTree, min_len: usize, total_len: usize) -> PlanRows {
    assert!(total_len >= tree.len(), "claim bitmap smaller than sequence");
    assert!(u32::try_from(total_len).is_ok(), "a text of {total_len} symbols");
    // Gather census entries first (no positions yet), each under one
    // key: a realistic saving bound, highest first — a length-L sequence
    // can have at most total_len / L non-overlapping occurrences, so
    // self-overlapping candidates (e.g. periodic runs) don't hog the
    // front of the queue — then the longer first, then visit order,
    // which indexes `nodes`. The bound lies in -(total_len + 2)..=total_len.
    let (mut keys, mut nodes) = (Vec::new(), Vec::new());
    tree.visit_internal(|node| {
        if node.len >= min_len && node.count >= 2 && benefit::is_profitable(node.len, node.count) {
            let bound = node.count.min(total_len / node.len.max(1));
            let saving = ((1i64 << 34) - benefit::saving(node.len, bound)) as u128;
            let longer = u128::from(u32::MAX) - node.len as u128;
            keys.push(saving << 64 | longer << 32 | nodes.len() as u128);
            nodes.push(node.id);
        }
    });
    keys.sort_unstable();

    let mut claimed = vec![false; total_len];
    let free = |claimed: &[bool], p: usize, len: usize| !claimed[p..p + len].iter().any(|&c| c);
    // Every kept occurrence as `position << 32 | candidate`, so that one
    // sort puts them in position order; the candidates' lengths in the
    // order they are kept.
    let (mut occurrences, mut lens): (Vec<u64>, Vec<u32>) = (Vec::new(), Vec::new());
    // Scratch shared by every entry: a rejected one allocates nothing.
    let (mut positions, mut kept) = (Vec::new(), Vec::new());
    for key in keys {
        let (starts, len) = tree.starts(nodes[key as u32 as usize]);
        // Thinning keeps at most the occurrences no earlier candidate
        // claimed, and a saving grows with the count: too few of those,
        // and the entry is rejected before its positions are sorted.
        let unclaimed = starts.iter().filter(|&&p| free(&claimed, p as usize, len)).count();
        if unclaimed < 2 || !benefit::is_profitable(len, unclaimed) {
            continue;
        }
        positions.clear();
        positions.extend(starts.iter().map(|&p| p as usize));
        positions.sort_unstable();
        kept.clear();
        let mut next_free = 0usize;
        for &p in &positions {
            // Skip self-overlap within this candidate, and overlap with
            // previously planned candidates.
            if p >= next_free && free(&claimed, p, len) {
                kept.push(p);
                next_free = p + len;
            }
        }
        if kept.len() < 2 || !benefit::is_profitable(len, kept.len()) {
            continue;
        }
        for &p in &kept {
            claimed[p..p + len].fill(true);
        }
        occurrences.extend(kept.iter().map(|&p| (p as u64) << 32 | lens.len() as u64));
        lens.push(len as u32);
    }
    occurrences.sort_unstable();

    // Bodies numbered as they first occur.
    let mut body_of = vec![u32::MAX; lens.len()];
    let mut rows = PlanRows {
        lens: Vec::with_capacity(lens.len()),
        positions: Vec::with_capacity(occurrences.len()),
        bodies: Vec::with_capacity(occurrences.len()),
    };
    for &occurrence in &occurrences {
        let candidate = occurrence as u32 as usize;
        let body = &mut body_of[candidate];
        if *body == u32::MAX {
            *body = rows.lens.len() as u32;
            rows.lens.push(lens[candidate]);
        }
        rows.positions.push((occurrence >> 32) as u32);
        rows.bodies.push(*body);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Vec<Symbol> {
        s.bytes().map(Symbol::from).collect()
    }

    #[test]
    fn banana_repeats() {
        let tree = SuffixTree::build(bytes("banana"));
        let repeats = find_repeats(&tree, 1);
        let summary: Vec<(usize, usize)> = repeats.iter().map(|r| (r.len, r.count)).collect();
        assert_eq!(summary, vec![(3, 2), (2, 2), (1, 3)]);
    }

    #[test]
    fn census_matches_find_repeats() {
        let tree = SuffixTree::build(bytes("abcabcabcxyzxyz"));
        let repeats = find_repeats(&tree, 2);
        let census = census(&tree, 2);
        assert_eq!(census.len(), repeats.len());
        for entry in &census {
            assert!(repeats.iter().any(|r| r.len == entry.len && r.count == entry.count));
        }
    }

    #[test]
    fn overlapping_occurrences_are_thinned() {
        // "aaaa": the repeat "aa" occurs at 0,1,2 but only 0 and 2 can be
        // outlined simultaneously (the paper's §2.1.2 overlap remark).
        let tree = SuffixTree::build(bytes("aaaaaaaa"));
        let plan = select_outline_rows(&tree, 2, 8).candidates(tree.text());
        for cand in &plan {
            let mut last_end = 0;
            for &p in &cand.positions {
                assert!(p >= last_end, "occurrences overlap");
                last_end = p + cand.len;
            }
        }
    }

    #[test]
    fn plan_candidates_never_overlap_each_other() {
        let text = bytes("abcdefabcdefzzabcdqrstuqrstu");
        let n = text.len();
        let tree = SuffixTree::build(text);
        let plan = select_outline_rows(&tree, 2, n).candidates(tree.text());
        let mut claimed = vec![false; n];
        for cand in &plan {
            assert!(cand.positions.len() >= 2);
            assert!(cand.saving() > 0, "unprofitable candidate kept");
            for &p in &cand.positions {
                for slot in &mut claimed[p..p + cand.len] {
                    assert!(!*slot, "two candidates claim one position");
                    *slot = true;
                }
            }
        }
    }

    #[test]
    fn plan_prefers_bigger_saving() {
        // A long repeat (6 symbols, twice: saves 12-9=3) overlapping a
        // short one must win over the short one.
        let text = bytes("pqrstuXpqrstuY");
        let n = text.len();
        let tree = SuffixTree::build(text);
        let plan = select_outline_rows(&tree, 2, n).candidates(tree.text());
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].len, 6);
        assert_eq!(plan[0].positions, vec![0, 7]);
        assert_eq!(plan[0].symbols, bytes("pqrstu"));
    }

    #[test]
    fn estimate_reduction_of_highly_redundant_text() {
        // 50 copies of an 8-symbol block, separated like basic blocks:
        // the block is claimed almost everywhere.
        let block = bytes("abcdefgh");
        let mut text = Vec::new();
        for i in 0..50u64 {
            text.extend_from_slice(&block);
            text.push(1_000 + i); // unique separator
        }
        let tree = SuffixTree::build(text);
        let ratio = estimate_reduction(&tree, 2);
        assert!(ratio > 0.75, "ratio {ratio}");
        // Pure periodic text fragments under non-overlap selection but
        // still yields a strong estimate.
        let mut periodic = Vec::new();
        for _ in 0..50 {
            periodic.extend_from_slice(&block);
        }
        let tree = SuffixTree::build(periodic);
        let ratio = estimate_reduction(&tree, 2);
        assert!(ratio > 0.6, "periodic ratio {ratio}");
        // And of unique text: zero.
        let unique: Vec<Symbol> = (0..100).collect();
        let tree = SuffixTree::build(unique);
        assert_eq!(estimate_reduction(&tree, 2), 0.0);
    }

    #[test]
    fn min_len_filters() {
        let tree = SuffixTree::build(bytes("banana"));
        assert!(find_repeats(&tree, 4).is_empty());
        assert!(census(&tree, 4).is_empty());
    }
}

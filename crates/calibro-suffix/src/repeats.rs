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
/// path uses [`census`] + [`select_outline_plan`] which avoid
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
    let plan = select_outline_plan(tree, min_len, tree.len());
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

/// Selects the set of sequences to outline from a suffix tree, resolving
/// overlaps (§3.3.3: "choose the sequence with larger benefit among
/// multiple overlapping ones").
///
/// Candidates are ranked by potential saving; occurrences overlapping an
/// already-claimed region are dropped, and a candidate is kept only if
/// the surviving occurrences still profit under the Figure 2 model.
///
/// `total_len` is the length of the underlying sequence (used to size the
/// claim bitmap); it must be at least `tree.len()`.
#[must_use]
pub fn select_outline_plan(
    tree: &SuffixTree,
    min_len: usize,
    total_len: usize,
) -> Vec<OutlineCandidate> {
    assert!(total_len >= tree.len(), "claim bitmap smaller than sequence");
    // Gather census entries first (no positions yet).
    struct Entry {
        id: crate::tree::NodeId,
        len: usize,
        count: usize,
    }
    let mut entries = Vec::new();
    tree.visit_internal(|node| {
        if node.len >= min_len && node.count >= 2 && benefit::is_profitable(node.len, node.count) {
            entries.push(Entry { id: node.id, len: node.len, count: node.count });
        }
    });
    // Rank by a realistic saving bound: a length-L sequence can have at
    // most total_len / L non-overlapping occurrences, so self-overlapping
    // candidates (e.g. periodic runs) don't hog the front of the queue.
    let bounded_saving =
        |len: usize, count: usize| benefit::saving(len, count.min(total_len / len.max(1)));
    entries.sort_by_key(|e| (-bounded_saving(e.len, e.count), std::cmp::Reverse(e.len)));

    let mut claimed = vec![false; total_len];
    let mut plan = Vec::new();
    // Scratch shared by every entry: a rejected one allocates nothing.
    let (mut positions, mut kept) = (Vec::new(), Vec::new());
    for entry in entries {
        tree.positions_into(entry.id, entry.len, &mut positions);
        kept.clear();
        let mut next_free = 0usize;
        for &p in &positions {
            // Skip self-overlap within this candidate...
            if p < next_free {
                continue;
            }
            // ...and overlap with previously planned candidates.
            if claimed[p..p + entry.len].iter().any(|&c| c) {
                continue;
            }
            kept.push(p);
            next_free = p + entry.len;
        }
        if kept.len() < 2 || !benefit::is_profitable(entry.len, kept.len()) {
            continue;
        }
        for &p in &kept {
            claimed[p..p + entry.len].fill(true);
        }
        let first = kept[0];
        plan.push(OutlineCandidate {
            len: entry.len,
            symbols: tree.text()[first..first + entry.len].to_vec(),
            positions: kept.clone(),
        });
    }
    plan.sort_by(|a, b| a.positions.cmp(&b.positions));
    plan
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
        let plan = select_outline_plan(&tree, 2, 8);
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
        let plan = select_outline_plan(&tree, 2, n);
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
        let plan = select_outline_plan(&tree, 2, n);
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

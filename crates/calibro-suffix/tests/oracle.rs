//! Property tests checking the suffix tree against naive oracles.

use calibro_suffix::{
    detect_group, naive_count, naive_positions, partition_stable, repeated_substrings,
    select_outline_plan, SuffixTree, TaggedSequence, TERMINAL,
};
use proptest::prelude::*;

/// Small-alphabet sequences maximize repeat structure.
fn small_alphabet_text() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..4, 0..200)
}

fn pattern() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..4, 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tree stores exactly the suffixes of the input.
    #[test]
    fn suffixes_are_exact(text in small_alphabet_text()) {
        let tree = SuffixTree::build(text.clone());
        let mut got = tree.suffixes();
        got.sort();
        let mut terminated = text.clone();
        terminated.push(calibro_suffix::TERMINAL);
        let mut expected: Vec<Vec<u64>> =
            (0..terminated.len()).map(|i| terminated[i..].to_vec()).collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// Occurrence counting matches naive scanning for arbitrary patterns.
    #[test]
    fn counts_match_naive(text in small_alphabet_text(), pat in pattern()) {
        let tree = SuffixTree::build(text.clone());
        prop_assert_eq!(tree.count_occurrences(&pat), naive_count(&text, &pat));
    }

    /// Position listing matches naive scanning.
    #[test]
    fn positions_match_naive(text in small_alphabet_text(), pat in pattern()) {
        prop_assume!(!pat.is_empty());
        let tree = SuffixTree::build(text.clone());
        prop_assert_eq!(tree.find_positions(&pat), naive_positions(&text, &pat));
    }

    /// Patterns sampled from the text itself are always found.
    #[test]
    fn substrings_are_found(text in small_alphabet_text(), start in 0usize..200, len in 1usize..10) {
        prop_assume!(!text.is_empty());
        let start = start % text.len();
        let end = (start + len).min(text.len());
        let pat = text[start..end].to_vec();
        let tree = SuffixTree::build(text.clone());
        let positions = tree.find_positions(&pat);
        prop_assert!(positions.contains(&start));
    }

    /// Every brute-force repeated substring is countable through the tree
    /// with the same multiplicity.
    #[test]
    fn repeats_match_bruteforce(text in small_alphabet_text()) {
        let tree = SuffixTree::build(text.clone());
        for (pat, count) in repeated_substrings(&text, 1, 6) {
            prop_assert_eq!(tree.count_occurrences(&pat), count);
        }
    }

    /// Outline plans are sound: every position carries the claimed
    /// symbols, positions never overlap, and each candidate profits.
    #[test]
    fn outline_plans_are_sound(text in small_alphabet_text()) {
        let n = text.len();
        let tree = SuffixTree::build(text.clone());
        let plan = select_outline_plan(&tree, 2, n);
        let mut claimed = vec![false; n];
        for cand in &plan {
            prop_assert!(cand.positions.len() >= 2);
            prop_assert!(cand.saving() > 0);
            for &p in &cand.positions {
                prop_assert_eq!(&text[p..p + cand.len], cand.symbols.as_slice());
                for slot in &mut claimed[p..p + cand.len] {
                    prop_assert!(!*slot);
                    *slot = true;
                }
            }
        }
    }

    /// The node count stays within the 2n+1 Ukkonen bound.
    #[test]
    fn node_count_linear(text in small_alphabet_text()) {
        let tree = SuffixTree::build(text.clone());
        prop_assert!(tree.node_count() <= 2 * (text.len() + 1).max(1));
    }
}

// ---------------------------------------------------------------------
// Boundary cases the random generators rarely pin down exactly.
// ---------------------------------------------------------------------

fn tagged(tag: usize, symbols: &[u64]) -> TaggedSequence {
    TaggedSequence { tag, symbols: symbols.to_vec() }
}

#[test]
fn empty_input_builds_a_terminal_only_tree() {
    let tree = SuffixTree::build(vec![]);
    assert_eq!(tree.suffixes(), vec![vec![TERMINAL]]);
    assert_eq!(tree.count_occurrences(&[]), naive_count(&[], &[]));
    assert_eq!(tree.count_occurrences(&[7]), 0);
    assert!(tree.find_positions(&[7]).is_empty());
    assert!(select_outline_plan(&tree, 2, tree.len()).is_empty());
    // An empty group yields an empty, well-formed plan.
    let (plan, candidates) = detect_group(&[], 2);
    assert!(plan.tags.is_empty());
    assert!(candidates.is_empty());
}

#[test]
fn tree_matches_naive_on_pattern_length_boundaries() {
    let text = vec![1u64, 2, 1, 2, 1];
    let tree = SuffixTree::build(text.clone());
    let whole = text.clone();
    let longer = vec![1u64, 2, 1, 2, 1, 1];
    for pat in [vec![], vec![1u64], whole, longer] {
        assert_eq!(tree.count_occurrences(&pat), naive_count(&text, &pat), "count {pat:?}");
        if !pat.is_empty() {
            assert_eq!(tree.find_positions(&pat), naive_positions(&text, &pat), "pos {pat:?}");
        }
    }
}

#[test]
fn single_method_group_outlines_only_internal_repeats() {
    // A repeat-free body yields no candidates.
    let (plan, candidates) = detect_group(&[tagged(7, &[1, 2, 3, 4, 5])], 2);
    assert_eq!(plan.tags, vec![7]);
    assert!(candidates.is_empty());
    // A profitable internal repeat still outlines with only one method.
    let motif = [10u64, 11, 12, 13, 14, 15];
    let mut body = motif.to_vec();
    body.push(99);
    body.extend_from_slice(&motif);
    let (plan, candidates) = detect_group(&[tagged(0, &body)], 2);
    assert_eq!(candidates.len(), 1);
    assert_eq!(candidates[0].symbols, motif.to_vec());
    let resolved: Vec<(usize, usize)> =
        candidates[0].positions.iter().map(|&p| plan.resolve(p)).collect();
    assert_eq!(resolved, vec![(0, 0), (0, motif.len() + 1)]);
}

#[test]
fn all_identical_methods_outline_to_one_function() {
    let body = [5u64, 6, 7, 8, 9, 5, 6];
    let seqs: Vec<TaggedSequence> = (0..4).map(|t| tagged(t, &body)).collect();
    let (plan, candidates) = detect_group(&seqs, 2);
    // The whole body repeats once per method; the best candidate covers
    // it and every occurrence resolves to offset 0 of its own method.
    let best = candidates.iter().max_by_key(|c| c.len).expect("identical bodies outline");
    assert_eq!(best.symbols, body.to_vec());
    assert_eq!(best.positions.len(), 4);
    let resolved: Vec<(usize, usize)> = best.positions.iter().map(|&p| plan.resolve(p)).collect();
    assert_eq!(resolved, vec![(0, 0), (1, 0), (2, 0), (3, 0)]);
}

#[test]
fn separators_stop_repeats_at_method_boundaries() {
    // Method 0 ends with the motif, method 1 begins with it: in the
    // concatenated group text the two copies are adjacent except for the
    // separator, so any candidate spanning the joint would be a bug.
    let (plan, candidates) =
        detect_group(&[tagged(0, &[9, 1, 2, 3, 4]), tagged(1, &[1, 2, 3, 4, 9])], 2);
    assert!(
        candidates.iter().any(|c| c.symbols == [1, 2, 3, 4]),
        "the cross-method motif must be found: {candidates:?}",
    );
    for cand in &candidates {
        for &p in &cand.positions {
            // `resolve` itself panics on separator-space positions; also
            // demand the occurrence ends inside its own sequence.
            let (tag, off) = plan.resolve(p);
            let idx = plan.tags.iter().position(|&t| t == tag).unwrap();
            assert!(
                off + cand.len <= plan.lens[idx],
                "candidate {:?} at {p} crosses the separator after tag {tag}",
                cand.symbols
            );
        }
    }
}

#[test]
#[should_panic(expected = "separator space")]
fn resolve_panics_on_separator_space_positions() {
    let (plan, _) = detect_group(&[tagged(0, &[1, 2, 3]), tagged(1, &[4, 5, 6])], 2);
    // Position 3 is the separator joint after sequence 0; attributing it
    // to either neighbor would corrupt the outline plan (PR-1 fix).
    let _ = plan.resolve(3);
}

#[test]
#[should_panic(expected = "separator space")]
fn resolve_panics_past_the_group_text() {
    let (plan, _) = detect_group(&[tagged(0, &[1, 2, 3])], 2);
    let _ = plan.resolve(100);
}

#[test]
fn grouped_detection_agrees_with_single_group_and_stays_in_group() {
    let motif = [50u64, 51, 52, 53];
    let seqs: Vec<TaggedSequence> = (0..6)
        .map(|t| {
            let mut s = vec![t as u64 + 500];
            s.extend_from_slice(&motif);
            tagged(t, &s)
        })
        .collect();
    let single = detect_group(&seqs, 2);
    assert!(!single.1.is_empty());
    let groups = partition_stable(seqs.clone(), 1);
    let plans: Vec<_> = groups.iter().map(|g| detect_group(g, 2)).collect();
    assert_eq!(plans, [single]);
    // Splitting into more groups never invents candidates that resolve
    // outside their own group's sequences.
    let groups = partition_stable(seqs, 3);
    let plans: Vec<_> = groups.iter().map(|g| detect_group(g, 2)).collect();
    assert_eq!(plans.len(), 3);
    for (plan, candidates) in &plans {
        for cand in candidates {
            for &p in &cand.positions {
                let (tag, off) = plan.resolve(p);
                let idx = plan.tags.iter().position(|&t| t == tag).unwrap();
                assert!(off + cand.len <= plan.lens[idx]);
            }
        }
    }
}

//! Property tests on the Ukkonen suffix tree: correctness against naive
//! string search over arbitrary DNA texts.

use datasets::sequence::SuffixTree;
use proptest::prelude::*;

fn dna(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        len..len * 2,
    )
}

fn naive_longest_prefix(text: &[u8], query: &[u8]) -> usize {
    let mut best = 0;
    for s in 0..text.len() {
        let mut k = 0;
        while s + k < text.len() && k < query.len() && text[s + k] == query[k] {
            k += 1;
        }
        best = best.max(k);
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every substring of the text matches fully.
    #[test]
    fn substrings_match_fully(text in dna(8), start in 0usize..8, len in 1usize..8) {
        let tree = SuffixTree::build(&text);
        let start = start.min(text.len() - 1);
        let end = (start + len).min(text.len());
        let sub = &text[start..end];
        prop_assert_eq!(tree.match_prefix(sub), sub.len());
    }

    /// Arbitrary queries agree with naive longest-prefix search.
    #[test]
    fn queries_agree_with_naive(text in dna(6), query in dna(3)) {
        let tree = SuffixTree::build(&text);
        prop_assert_eq!(
            tree.match_prefix(&query),
            naive_longest_prefix(&text, &query),
            "text {:?} query {:?}",
            String::from_utf8_lossy(&text),
            String::from_utf8_lossy(&query)
        );
    }

    /// Node count stays within the 2n+1 suffix-tree bound and the
    /// flattened arrays are self-consistent.
    #[test]
    fn structure_bounds(text in dna(10)) {
        let tree = SuffixTree::build(&text);
        prop_assert!(tree.num_nodes() <= 2 * (text.len() + 1) + 1);
        let (children, starts, ends, codes) = tree.flatten();
        prop_assert_eq!(children.len(), tree.num_nodes() * 5);
        prop_assert_eq!(starts.len(), tree.num_nodes());
        prop_assert_eq!(ends.len(), tree.num_nodes());
        prop_assert_eq!(codes.len(), text.len() + 1); // sentinel appended
        for (n, (&s, &e)) in starts.iter().zip(&ends).enumerate() {
            if n > 0 {
                prop_assert!(s < e, "node {n}: empty edge {s}..{e}");
            }
            prop_assert!(e as usize <= codes.len());
        }
        for &c in &children {
            prop_assert!((c as usize) < tree.num_nodes());
        }
    }
}

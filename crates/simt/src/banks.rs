//! Shared-memory bank-conflict modeling.
//!
//! Shared memory is divided into word-interleaved banks. An access is
//! conflict-free when every active lane targets a different bank (or the
//! *same word*, which broadcasts). When `k` distinct words map to one
//! bank, the hardware replays the access `k` times; the maximum such `k`
//! over all banks is the serialization *degree* of the access.
//!
//! Functional capture computes a degree for every shared access of every
//! warp, so the functions here work in place: they reorder the caller's
//! slice and count runs over it, and never touch the heap. Bank counts
//! are powers of two, as [`crate::GpuConfig::validate`] requires.

/// Computes the bank-conflict serialization degree of one conflict
/// group (a half-warp on 16-bank parts, a full warp on 32-bank parts).
///
/// `words` are the 4-byte word offsets accessed by active lanes; they
/// are sorted in place by `(bank, word)`. `num_banks` is the number of
/// banks (16 on pre-Fermi, 32 on Fermi), a power of two. Returns 1 for
/// a conflict-free (or empty, or broadcast) access.
pub fn conflict_degree(words: &mut [usize], num_banks: u32) -> u32 {
    if words.is_empty() || num_banks <= 1 {
        return 1;
    }
    debug_assert!(num_banks.is_power_of_two());
    let bank = num_banks as usize - 1;
    words.sort_unstable_by_key(|&w| (w & bank, w));
    most_words_in_one_bank(words.iter().map(|&w| (w & bank, w)))
}

/// Computes the serialization degree of a whole warp's shared access:
/// lanes are split into hardware conflict groups of `num_banks` lanes
/// (half-warps on 16-bank parts, as GPGPU-Sim and the CUDA programming
/// guide define), each group resolves independently, and the access
/// replays for the worst group.
///
/// `lane_words` holds one `(lane, word)` pair per active lane, in any
/// order; it is sorted in place by `(group, bank, word)`, so each
/// bank of each group is one run and the degree is the longest count
/// of distinct words in a run.
pub fn warp_conflict_degree(lane_words: &mut [(usize, usize)], num_banks: u32) -> u32 {
    if lane_words.is_empty() || num_banks <= 1 {
        return 1;
    }
    debug_assert!(num_banks.is_power_of_two());
    let group_shift = num_banks.trailing_zeros();
    let bank = num_banks as usize - 1;
    let key = move |&(lane, word): &(usize, usize)| ((lane >> group_shift, word & bank), word);
    lane_words.sort_unstable_by_key(key);
    most_words_in_one_bank(lane_words.iter().map(key))
}

/// The number of distinct words a constant-cache access broadcasts: the
/// serialization of a warp's constant load. Sorts `words` in place.
pub(crate) fn distinct_words(words: &mut [usize]) -> usize {
    words.sort_unstable();
    let repeats = words.windows(2).filter(|pair| pair[0] == pair[1]).count();
    words.len() - repeats
}

/// Over `(bank, word)` pairs sorted by bank and then by word, the most
/// distinct words any one bank holds (at least 1).
fn most_words_in_one_bank<B: PartialEq>(sorted: impl Iterator<Item = (B, usize)>) -> u32 {
    let mut most = 1;
    let mut run = 0;
    let mut prev: Option<(B, usize)> = None;
    for (bank, word) in sorted {
        run = match &prev {
            Some((b, w)) if *b == bank => run + u32::from(*w != word),
            _ => 1,
        };
        most = most.max(run);
        prev = Some((bank, word));
    }
    most
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_is_conflict_free() {
        let mut idx: Vec<usize> = (0..16).collect();
        assert_eq!(conflict_degree(&mut idx, 16), 1);
    }

    #[test]
    fn stride_two_halves_the_banks() {
        let mut idx: Vec<usize> = (0..16).map(|i| i * 2).collect();
        assert_eq!(conflict_degree(&mut idx, 16), 2);
    }

    #[test]
    fn stride_sixteen_serializes_fully() {
        let mut idx: Vec<usize> = (0..16).map(|i| i * 16).collect();
        assert_eq!(conflict_degree(&mut idx, 16), 16);
    }

    #[test]
    fn broadcast_is_free() {
        let mut idx = vec![7; 32];
        assert_eq!(conflict_degree(&mut idx, 16), 1);
    }

    #[test]
    fn empty_access_has_degree_one() {
        assert_eq!(conflict_degree(&mut [], 16), 1);
    }

    #[test]
    fn odd_stride_avoids_conflicts() {
        // The classic padding trick: stride 17 over 16 banks is conflict-free.
        let mut idx: Vec<usize> = (0..16).map(|i| i * 17).collect();
        assert_eq!(conflict_degree(&mut idx, 16), 1);
    }
}

#[cfg(test)]
mod warp_tests {
    use super::*;

    #[test]
    fn half_warps_resolve_independently() {
        // 32 lanes over 32 distinct consecutive words on 16 banks: each
        // half-warp covers every bank exactly once -> conflict-free.
        let mut lane_words: Vec<(usize, usize)> = (0..32).map(|l| (l, l)).collect();
        assert_eq!(warp_conflict_degree(&mut lane_words, 16), 1);
    }

    #[test]
    fn conflicts_within_one_half_warp_count() {
        // First half-warp strides by 16 (all one bank), second is clean.
        let mut lane_words: Vec<(usize, usize)> = (0..16).map(|l| (l, l * 16)).collect();
        lane_words.extend((16..32).map(|l| (l, l)));
        assert_eq!(warp_conflict_degree(&mut lane_words, 16), 16);
    }

    #[test]
    fn padded_row_crossing_is_free() {
        // The Leukocyte-style pattern: lanes 0-15 at base..base+15,
        // lanes 16-31 at base+23..base+38 (23-padded rows).
        let mut lane_words: Vec<(usize, usize)> = (0..16).map(|l| (l, 100 + l)).collect();
        lane_words.extend((16..32).map(|l| (l, 100 + 23 + (l - 16))));
        assert_eq!(warp_conflict_degree(&mut lane_words, 16), 1);
    }

    #[test]
    fn empty_is_one() {
        assert_eq!(warp_conflict_degree(&mut [], 16), 1);
    }
}

/// The allocating algorithm the in-place functions replaced, kept as
/// the oracle of `prop_tests`.
#[cfg(test)]
mod reference {
    pub fn conflict_degree(word_indices: &[usize], num_banks: u32) -> u32 {
        if word_indices.is_empty() || num_banks <= 1 {
            return 1;
        }
        let nb = num_banks as usize;
        let mut words: Vec<usize> = word_indices.to_vec();
        words.sort_unstable();
        words.dedup();
        let mut per_bank = vec![0u32; nb];
        for w in words {
            per_bank[w % nb] += 1;
        }
        per_bank.into_iter().max().unwrap_or(1).max(1)
    }

    pub fn warp_conflict_degree(lane_words: &[(usize, usize)], num_banks: u32) -> u32 {
        if lane_words.is_empty() || num_banks <= 1 {
            return 1;
        }
        let group = num_banks as usize;
        let max_lane = lane_words.iter().map(|&(l, _)| l).max().unwrap_or(0);
        let mut degree = 1;
        for g in 0..=(max_lane / group) {
            let words: Vec<usize> = lane_words
                .iter()
                .filter(|&&(l, _)| l / group == g)
                .map(|&(_, w)| w)
                .collect();
            degree = degree.max(conflict_degree(&words, num_banks));
        }
        degree
    }

    pub fn distinct_words(words: &[usize]) -> usize {
        let mut words = words.to_vec();
        words.sort_unstable();
        words.dedup();
        words.len()
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// One warp access: `(lane, word)` pairs for a random subset of the
    /// lanes of a warp of 1..=64 lanes, in random lane order, over words
    /// drawn from a narrow, a medium or a wide range (so broadcasts,
    /// conflicts and clean accesses all occur), with a power-of-two bank
    /// count from 1 to 128.
    struct WarpAccess;

    impl Strategy for WarpAccess {
        type Value = (Vec<(usize, usize)>, u32);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let warp = 1 + rng.below(64) as usize;
            let mask = if rng.below(2) == 0 {
                u64::MAX
            } else {
                rng.next_u64()
            };
            let span = [8, 300, 1 << 20][rng.below(3) as usize];
            let banks = 1u32 << rng.below(8);
            let mut pairs: Vec<(usize, usize)> = (0..warp)
                .filter(|l| mask >> l & 1 == 1)
                .map(|l| (l, rng.below(span) as usize))
                .collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.below(i as u64 + 1) as usize);
            }
            (pairs, banks)
        }
    }

    proptest! {
        /// Degree is bounded by the number of distinct words and by the
        /// worst case of all-words-on-one-bank.
        #[test]
        fn degree_bounds(idx in proptest::collection::vec(0usize..4096, 0..32)) {
            let mut distinct = idx.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let d = conflict_degree(&mut idx.clone(), 16);
            prop_assert!(d >= 1);
            prop_assert!(d as usize <= distinct.len().max(1));
        }

        /// More banks never increase the conflict degree.
        #[test]
        fn monotone_in_banks(idx in proptest::collection::vec(0usize..4096, 1..32)) {
            let d16 = conflict_degree(&mut idx.clone(), 16);
            let d32 = conflict_degree(&mut idx.clone(), 32);
            // Doubling banks splits each bank's words across two banks;
            // the max over banks cannot grow.
            prop_assert!(d32 <= d16);
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The in-place counts equal the allocating reference on every
        /// warp access, at every bank count, including those wider
        /// than a warp; the staged pairs keep their multiset.
        #[test]
        fn in_place_counts_match_the_reference(access in WarpAccess) {
            let (pairs, banks) = access;
            let words: Vec<usize> = pairs.iter().map(|&(_, w)| w).collect();

            let mut staged = pairs.clone();
            let got = warp_conflict_degree(&mut staged, banks);
            prop_assert_eq!(got, reference::warp_conflict_degree(&pairs, banks));
            let (mut a, mut b) = (staged, pairs.clone());
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);

            let got = conflict_degree(&mut words.clone(), banks);
            prop_assert_eq!(got, reference::conflict_degree(&words, banks));

            let got = distinct_words(&mut words.clone());
            prop_assert_eq!(got, reference::distinct_words(&words));
        }
    }
}

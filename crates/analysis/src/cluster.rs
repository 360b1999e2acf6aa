//! Agglomerative hierarchical clustering (the paper's "classical
//! hierarchical clustering analysis", MATLAB `linkage`-style).

use crate::error::AnalysisError;

/// Linkage rule for merging clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average pairwise distance (UPGMA; MATLAB's default
    /// "average" linkage, used for the Figure 6 dendrogram).
    Average,
}

/// One merge step: clusters `a` and `b` join at `distance` into a new
/// cluster of `size` leaves. Leaves are clusters `0..n`; merge `i`
/// creates cluster `n + i` (the SciPy/MATLAB convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First constituent cluster id.
    pub a: usize,
    /// Second constituent cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happens.
    pub distance: f64,
    /// Leaves in the merged cluster.
    pub size: usize,
}

/// Clusters `n` items given their `n × n` distance matrix; returns the
/// `n − 1` merges in order of increasing linkage distance.
///
/// # Panics
///
/// Panics if the matrix is not square, contains non-finite distances,
/// or `n == 0`. Prefer [`try_hierarchical`] for typed errors.
pub fn hierarchical(dist: &[Vec<f64>], linkage: Linkage) -> Vec<Merge> {
    try_hierarchical(dist, linkage).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`hierarchical`].
///
/// A single item is not an error: it clusters trivially into an empty
/// merge list (the documented degenerate result for fewer than two
/// observations).
///
/// # Errors
///
/// [`AnalysisError::EmptyInput`] on an empty matrix,
/// [`AnalysisError::NotSquare`] if any row's length differs from the
/// row count, and [`AnalysisError::NonFinite`] if any distance is NaN
/// or infinite (NaN comparisons would silently corrupt the merge
/// order).
pub fn try_hierarchical(dist: &[Vec<f64>], linkage: Linkage) -> Result<Vec<Merge>, AnalysisError> {
    let n = dist.len();
    if n == 0 {
        return Err(AnalysisError::EmptyInput {
            what: "distance matrix",
        });
    }
    for (i, row) in dist.iter().enumerate() {
        if row.len() != n {
            return Err(AnalysisError::NotSquare {
                row: i,
                len: row.len(),
                n,
            });
        }
        if let Some(c) = row.iter().position(|x| !x.is_finite()) {
            return Err(AnalysisError::NonFinite {
                what: "distance matrix",
                row: i,
                col: c,
            });
        }
    }
    // Active clusters: id -> member leaves. Retired ids keep an empty
    // vector; `active` is the single source of truth for liveness, so
    // no Option/unwrap bookkeeping is needed in the merge loop.
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    let cluster_dist = |xa: &[usize], xb: &[usize]| -> f64 {
        let mut agg = match linkage {
            Linkage::Single => f64::INFINITY,
            Linkage::Complete => 0.0,
            Linkage::Average => 0.0,
        };
        for &i in xa {
            for &j in xb {
                let d = dist[i][j];
                match linkage {
                    Linkage::Single => agg = agg.min(d),
                    Linkage::Complete => agg = agg.max(d),
                    Linkage::Average => agg += d,
                }
            }
        }
        if linkage == Linkage::Average {
            agg / (xa.len() * xb.len()) as f64
        } else {
            agg
        }
    };

    while active.len() > 1 {
        // Find the closest active pair.
        let mut best = (0usize, 1usize, f64::INFINITY);
        for x in 0..active.len() {
            for y in (x + 1)..active.len() {
                let (ca, cb) = (active[x], active[y]);
                let d = cluster_dist(&members[ca], &members[cb]);
                if d < best.2 {
                    best = (ca, cb, d);
                }
            }
        }
        let (ca, cb, d) = best;
        let mut merged = std::mem::take(&mut members[ca]);
        merged.extend(std::mem::take(&mut members[cb]));
        let size = merged.len();
        members.push(merged);
        let new_id = members.len() - 1;
        active.retain(|&c| c != ca && c != cb);
        active.push(new_id);
        merges.push(Merge {
            a: ca,
            b: cb,
            distance: d,
            size,
        });
    }
    Ok(merges)
}

/// Cuts the merge tree into exactly `k` flat clusters; returns each
/// leaf's cluster label in `0..k`.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds the leaf count. Prefer
/// [`try_flat_clusters`] for a typed error.
pub fn flat_clusters(n_leaves: usize, merges: &[Merge], k: usize) -> Vec<usize> {
    try_flat_clusters(n_leaves, merges, k).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`flat_clusters`].
///
/// # Errors
///
/// [`AnalysisError::InvalidK`] if `k` is 0 or exceeds the leaf count.
pub fn try_flat_clusters(
    n_leaves: usize,
    merges: &[Merge],
    k: usize,
) -> Result<Vec<usize>, AnalysisError> {
    if k < 1 || k > n_leaves {
        return Err(AnalysisError::InvalidK { k, n_leaves });
    }
    // Apply the first n - k merges with a union-find.
    let total = n_leaves + merges.len();
    let mut parent: Vec<usize> = (0..total).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for (i, m) in merges.iter().take(n_leaves - k).enumerate() {
        let new_id = n_leaves + i;
        let ra = find(&mut parent, m.a);
        let rb = find(&mut parent, m.b);
        parent[ra] = new_id;
        parent[rb] = new_id;
    }
    // Label roots.
    let mut labels = std::collections::HashMap::new();
    Ok((0..n_leaves)
        .map(|leaf| {
            let r = find(&mut parent, leaf);
            let next = labels.len();
            *labels.entry(r).or_insert(next)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean_matrix;

    fn two_blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
        ]
    }

    #[test]
    fn blobs_separate_at_k2() {
        let d = euclidean_matrix(&two_blobs());
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let merges = hierarchical(&d, linkage);
            assert_eq!(merges.len(), 4);
            let labels = flat_clusters(5, &merges, 2);
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[0], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_ne!(labels[0], labels[3], "{linkage:?}: {labels:?}");
        }
    }

    #[test]
    fn last_merge_contains_everything() {
        let d = euclidean_matrix(&two_blobs());
        let merges = hierarchical(&d, Linkage::Average);
        assert_eq!(merges.last().unwrap().size, 5);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let d = euclidean_matrix(&two_blobs());
        let merges = hierarchical(&d, Linkage::Average);
        let labels = flat_clusters(5, &merges, 5);
        let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn single_item_clusters_trivially() {
        let merges = hierarchical(&[vec![0.0]], Linkage::Single);
        assert!(merges.is_empty());
        assert_eq!(flat_clusters(1, &merges, 1), vec![0]);
    }

    #[test]
    fn try_hierarchical_rejects_empty_matrix() {
        assert_eq!(
            try_hierarchical(&[], Linkage::Average),
            Err(AnalysisError::EmptyInput {
                what: "distance matrix"
            })
        );
    }

    #[test]
    fn try_hierarchical_rejects_non_square_and_nan() {
        assert_eq!(
            try_hierarchical(&[vec![0.0, 1.0], vec![1.0]], Linkage::Single),
            Err(AnalysisError::NotSquare {
                row: 1,
                len: 1,
                n: 2
            })
        );
        let nan = vec![vec![0.0, f64::NAN], vec![f64::NAN, 0.0]];
        assert!(matches!(
            try_hierarchical(&nan, Linkage::Complete),
            Err(AnalysisError::NonFinite { row: 0, col: 1, .. })
        ));
    }

    #[test]
    fn try_flat_clusters_rejects_bad_k() {
        let d = euclidean_matrix(&two_blobs());
        let merges = hierarchical(&d, Linkage::Average);
        assert_eq!(
            try_flat_clusters(5, &merges, 0),
            Err(AnalysisError::InvalidK { k: 0, n_leaves: 5 })
        );
        assert_eq!(
            try_flat_clusters(5, &merges, 6),
            Err(AnalysisError::InvalidK { k: 6, n_leaves: 5 })
        );
    }

    #[test]
    #[should_panic(expected = "empty distance matrix")]
    fn hierarchical_wrapper_panics_on_empty_input() {
        let _ = hierarchical(&[], Linkage::Average);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::distance::euclidean_matrix;
    use proptest::prelude::*;

    proptest! {
        /// Single and complete linkage produce monotone (non-decreasing)
        /// merge distances; every merge count is n-1; flat clusters for
        /// any k partition the leaves into exactly k groups.
        #[test]
        fn clustering_invariants(
            pts in proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, 2), 2..12),
            k_seed in 0usize..100,
        ) {
            let d = euclidean_matrix(&pts);
            let n = pts.len();
            for linkage in [Linkage::Single, Linkage::Complete] {
                let merges = hierarchical(&d, linkage);
                prop_assert_eq!(merges.len(), n - 1);
                for w in merges.windows(2) {
                    prop_assert!(
                        w[1].distance >= w[0].distance - 1e-9,
                        "{:?} linkage must be monotone", linkage
                    );
                }
                let k = 1 + k_seed % n;
                let labels = flat_clusters(n, &merges, k);
                let distinct: std::collections::HashSet<usize> =
                    labels.iter().copied().collect();
                prop_assert_eq!(distinct.len(), k);
            }
        }
    }
}

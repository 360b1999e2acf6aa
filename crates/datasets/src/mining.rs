//! Data-mining inputs: clustered feature vectors (Kmeans, StreamCluster,
//! Ferret) and skewed transaction databases (Freqmine).

use rand::Rng;

use crate::rng_for;

/// `n` feature vectors of `dims` dimensions drawn from `clusters`
/// Gaussian-ish blobs, flattened row-major. Mirrors Rodinia's kmeans
/// input (204800 × 34) and Parsec's streamcluster points.
pub fn clustered_points(n: usize, dims: usize, clusters: usize, seed: u64) -> Vec<f32> {
    assert!(clusters >= 1);
    let mut rng = rng_for("points", seed);
    let centers: Vec<f32> = (0..clusters * dims)
        .map(|_| rng.random::<f32>() * 10.0)
        .collect();
    let mut out = Vec::with_capacity(n * dims);
    for i in 0..n {
        let c = i % clusters;
        for d in 0..dims {
            // Sum of uniforms approximates a Gaussian spread.
            let jitter: f32 = (0..4).map(|_| rng.random::<f32>() - 0.5).sum::<f32>() * 0.5;
            out.push(centers[c * dims + d] + jitter);
        }
    }
    out
}

/// A transaction database with a skewed (roughly Zipfian) item
/// distribution plus a few embedded frequent patterns, as frequent-itemset
/// miners expect. Each transaction is a sorted, deduplicated item list.
pub fn transactions(count: usize, items: usize, avg_len: usize, seed: u64) -> Vec<Vec<u32>> {
    assert!(items >= 8 && avg_len >= 2);
    let mut rng = rng_for("transactions", seed);
    // A handful of "true" frequent patterns.
    let patterns: Vec<Vec<u32>> = (0..6)
        .map(|p| {
            (0..3 + p % 3)
                .map(|k| ((p * 7 + k * 3) % items) as u32)
                .collect()
        })
        .collect();
    (0..count)
        .map(|_| {
            let mut t: Vec<u32> = Vec::new();
            // 40% of transactions embed a frequent pattern.
            if rng.random::<f64>() < 0.4 {
                let p = &patterns[rng.random_range(0..patterns.len())];
                t.extend_from_slice(p);
            }
            let extra = rng.random_range(1..=avg_len * 2 - 1);
            for _ in 0..extra {
                // Skew: squaring a uniform biases toward low item ids.
                let u: f64 = rng.random();
                t.push(((u * u) * items as f64) as u32);
            }
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_shape() {
        let p = clustered_points(100, 8, 5, 1);
        assert_eq!(p.len(), 800);
    }

    #[test]
    fn points_cluster_structure() {
        // Points assigned to the same blob are closer to each other than
        // to other blobs, on average.
        let dims = 4;
        let p = clustered_points(200, dims, 2, 2);
        let dist = |a: usize, b: usize| -> f32 {
            (0..dims)
                .map(|d| (p[a * dims + d] - p[b * dims + d]).powi(2))
                .sum::<f32>()
        };
        // Points 0 and 2 share blob 0; point 1 is blob 1.
        let same: f32 = (0..50).map(|i| dist(2 * i, 2 * i + 2)).sum();
        let cross: f32 = (0..50).map(|i| dist(2 * i, 2 * i + 1)).sum();
        assert!(same < cross, "same-blob {same} vs cross-blob {cross}");
    }

    #[test]
    fn transactions_are_sorted_unique() {
        for t in transactions(200, 100, 8, 1) {
            assert!(!t.is_empty());
            for w in t.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(t.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn item_distribution_is_skewed() {
        let ts = transactions(2000, 100, 8, 3);
        let mut freq = vec![0usize; 100];
        for t in &ts {
            for &i in t {
                freq[i as usize] += 1;
            }
        }
        let low: usize = freq[..20].iter().sum();
        let high: usize = freq[80..].iter().sum();
        assert!(
            low > 2 * high,
            "low-id items should dominate: {low} vs {high}"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(transactions(10, 50, 4, 5), transactions(10, 50, 4, 5));
    }
}

//! Principal component analysis.

use crate::error::AnalysisError;
use crate::matrix::{jacobi_eigen, SymMat};
use crate::stats::try_standardize;

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Principal components (unit vectors, decreasing variance).
    pub components: Vec<Vec<f64>>,
    /// Variance along each component.
    pub eigenvalues: Vec<f64>,
    /// The standardized data projected onto all components
    /// (`samples × components`).
    pub scores: Vec<Vec<f64>>,
    /// Human-readable notes about degenerate inputs the fit survived
    /// (e.g. zero-variance feature columns dropped to all-zero).
    pub warnings: Vec<String>,
}

impl Pca {
    /// Fits PCA to a `samples × features` matrix. Features are z-scored
    /// first (the paper standardizes before PCA, as is conventional for
    /// mixed-unit workload characteristics).
    ///
    /// # Panics
    ///
    /// Panics on an empty, ragged, or non-finite data matrix. Prefer
    /// [`Pca::try_fit`] for typed errors.
    pub fn fit(data: &[Vec<f64>]) -> Pca {
        Pca::try_fit(data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Pca::fit`]. Rank-deficient input is not an error:
    /// zero-variance columns are dropped to all-zero by
    /// standardization and recorded in [`Pca::warnings`], and a
    /// rank-deficient covariance simply yields trailing ~0 eigenvalues.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::EmptyInput`] on zero rows,
    /// [`AnalysisError::RaggedMatrix`] if rows disagree on width, and
    /// [`AnalysisError::NonFinite`] if any entry is NaN or infinite.
    pub fn try_fit(data: &[Vec<f64>]) -> Result<Pca, AnalysisError> {
        if data.is_empty() {
            return Err(AnalysisError::EmptyInput {
                what: "data matrix",
            });
        }
        let mut z = data.to_vec();
        let degenerate = try_standardize(&mut z)?;
        let warnings: Vec<String> = degenerate
            .iter()
            .map(|&c| format!("feature column {c} has zero variance; dropped to all-zero"))
            .collect();
        let cov = SymMat::try_covariance(&z)?;
        let (eigenvalues, components) = jacobi_eigen(&cov);
        let scores = z
            .iter()
            .map(|row| {
                components
                    .iter()
                    .map(|c| row.iter().zip(c).map(|(x, w)| x * w).sum())
                    .collect()
            })
            .collect();
        Ok(Pca {
            components,
            eigenvalues,
            scores,
            warnings,
        })
    }

    /// Fraction of total variance explained by each component.
    pub fn variance_explained(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().map(|&e| e.max(0.0)).sum();
        if total <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues
            .iter()
            .map(|&e| e.max(0.0) / total)
            .collect()
    }

    /// Number of leading components needed to explain at least `frac`
    /// of the variance.
    pub fn components_for(&self, frac: f64) -> usize {
        let ve = self.variance_explained();
        let mut acc = 0.0;
        for (k, v) in ve.iter().enumerate() {
            acc += v;
            if acc >= frac - 1e-12 {
                return k + 1;
            }
        }
        ve.len()
    }

    /// The scores truncated to the first `k` components.
    pub fn truncated_scores(&self, k: usize) -> Vec<Vec<f64>> {
        self.scores
            .iter()
            .map(|r| r.iter().take(k).copied().collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_component_captures_the_dominant_direction() {
        // Points along y = x with small orthogonal noise.
        let data: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64;
                let noise = if i % 2 == 0 { 0.05 } else { -0.05 };
                vec![t + noise, t - noise]
            })
            .collect();
        let pca = Pca::fit(&data);
        let ve = pca.variance_explained();
        assert!(ve[0] > 0.99, "{ve:?}");
        assert_eq!(pca.components_for(0.9), 1);
        // The leading component is (1,1)/sqrt(2) up to sign.
        let c = &pca.components[0];
        assert!((c[0].abs() - c[1].abs()).abs() < 1e-6);
    }

    #[test]
    fn scores_have_zero_mean_and_eigenvalue_variance() {
        let data: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64, i as f64])
            .collect();
        let pca = Pca::fit(&data);
        let n = data.len() as f64;
        for k in 0..3 {
            let col: Vec<f64> = pca.scores.iter().map(|r| r[k]).collect();
            let mean: f64 = col.iter().sum::<f64>() / n;
            assert!(mean.abs() < 1e-9);
            let var: f64 = col.iter().map(|x| x * x).sum::<f64>() / n;
            assert!(
                (var - pca.eigenvalues[k].max(0.0)).abs() < 1e-8,
                "component {k}: var {var} vs eigenvalue {}",
                pca.eigenvalues[k]
            );
        }
    }

    #[test]
    fn truncation_keeps_k_columns() {
        let data = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![1.0, 0.0, 2.0],
        ];
        let pca = Pca::fit(&data);
        let t = pca.truncated_scores(2);
        assert!(t.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn try_fit_rejects_empty_matrix() {
        assert!(matches!(
            Pca::try_fit(&[]),
            Err(AnalysisError::EmptyInput { .. })
        ));
    }

    #[test]
    fn single_row_fit_degrades_to_zero_variance_with_warnings() {
        // One observation: every column is constant, so the whole fit
        // collapses to zeros — gracefully, with one warning per column.
        let pca = Pca::try_fit(&[vec![3.0, 7.0, 1.0]]).unwrap();
        assert_eq!(pca.warnings.len(), 3);
        assert!(pca.eigenvalues.iter().all(|&e| e.abs() < 1e-12));
        assert!(pca.scores[0].iter().all(|&s| s.abs() < 1e-12));
        assert_eq!(pca.variance_explained(), vec![0.0; 3]);
    }

    #[test]
    fn rank_deficient_fit_records_degenerate_columns() {
        // Column 1 is constant; the other two are perfectly correlated.
        let data: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![i as f64, 4.0, 2.0 * i as f64])
            .collect();
        let pca = Pca::try_fit(&data).unwrap();
        assert_eq!(pca.warnings.len(), 1);
        assert!(pca.warnings[0].contains("column 1"));
        // Two informative-but-identical directions: one eigenvalue
        // carries everything.
        assert!(pca.variance_explained()[0] > 0.99);
    }

    #[test]
    fn try_fit_rejects_nan_with_location() {
        let data = vec![vec![1.0, 2.0], vec![f64::NAN, 4.0]];
        assert!(matches!(
            Pca::try_fit(&data),
            Err(AnalysisError::NonFinite { row: 1, col: 0, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "empty data matrix")]
    fn fit_wrapper_panics_on_empty_input() {
        let _ = Pca::fit(&[]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Total variance of standardized data equals the number of
        /// non-constant features, and it is preserved by PCA.
        #[test]
        fn variance_is_preserved(
            data in proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, 4), 5..25)
        ) {
            let pca = Pca::fit(&data);
            let total: f64 = pca.eigenvalues.iter().sum();
            // Each standardized non-constant column contributes variance
            // exactly 1.
            let mut z = data.clone();
            crate::stats::standardize(&mut z);
            let expected: f64 = (0..4)
                .map(|c| {
                    let col: Vec<f64> = z.iter().map(|r| r[c]).collect();
                    crate::stats::std_dev(&col).powi(2)
                })
                .sum();
            prop_assert!((total - expected).abs() < 1e-8, "{total} vs {expected}");
            // Variance fractions sum to ~1 (or all zero for degenerate data).
            let ve_sum: f64 = pca.variance_explained().iter().sum();
            prop_assert!(ve_sum < 1.0 + 1e-9);
        }
    }
}

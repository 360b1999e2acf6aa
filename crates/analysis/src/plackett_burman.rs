//! Plackett–Burman two-level screening designs (Yi et al.'s methodology,
//! used for the paper's GPU sensitivity study in Section III.E).
//!
//! For `n` factors PB needs ~`2n` runs instead of `2^n`: each factor is
//! toggled between a low (−) and high (+) level according to an
//! orthogonal design matrix, and the magnitude of a factor's effect on
//! the response ranks its importance.

/// The standard 12-run Plackett–Burman design for up to 11 factors.
/// Rows are runs; entries are ±1. Built from the classic generator row
/// by cyclic shifts plus an all-minus row.
pub fn pb12() -> Vec<[i8; 11]> {
    const GEN: [i8; 11] = [1, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1];
    let mut rows = Vec::with_capacity(12);
    for shift in 0..11 {
        let mut row = [0i8; 11];
        for (i, r) in row.iter_mut().enumerate() {
            *r = GEN[(i + 11 - shift) % 11];
        }
        rows.push(row);
    }
    rows.push([-1; 11]);
    rows
}

use crate::error::AnalysisError;

/// Result of a Plackett–Burman analysis.
#[derive(Debug, Clone)]
pub struct PbResult {
    /// Factor names.
    pub factors: Vec<String>,
    /// Signed effect of each factor on the response.
    pub effects: Vec<f64>,
}

impl PbResult {
    /// Computes factor effects from the design matrix and per-run
    /// responses: `effect_j = Σ_i design[i][j]·y_i / (runs/2)`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed design (dimension mismatch, empty design,
    /// too many factors, non-finite responses). Prefer
    /// [`PbResult::try_analyze`] for typed errors.
    pub fn analyze(factors: &[&str], design: &[[i8; 11]], responses: &[f64]) -> PbResult {
        PbResult::try_analyze(factors, design, responses).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PbResult::analyze`].
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DesignMismatch`] when run and response counts
    /// disagree, [`AnalysisError::EmptyInput`] on a zero-run design
    /// (the effect divisor would be zero),
    /// [`AnalysisError::TooManyFactors`] beyond the design's 11
    /// columns, and [`AnalysisError::NonFinite`] for NaN/infinite
    /// responses.
    pub fn try_analyze(
        factors: &[&str],
        design: &[[i8; 11]],
        responses: &[f64],
    ) -> Result<PbResult, AnalysisError> {
        if design.len() != responses.len() {
            return Err(AnalysisError::DesignMismatch {
                runs: design.len(),
                responses: responses.len(),
            });
        }
        if design.is_empty() {
            return Err(AnalysisError::EmptyInput { what: "PB design" });
        }
        if factors.len() > 11 {
            return Err(AnalysisError::TooManyFactors {
                factors: factors.len(),
                max: 11,
            });
        }
        if let Some(i) = responses.iter().position(|y| !y.is_finite()) {
            return Err(AnalysisError::NonFinite {
                what: "PB responses",
                row: i,
                col: 0,
            });
        }
        let half = design.len() as f64 / 2.0;
        let effects = (0..factors.len())
            .map(|j| {
                design
                    .iter()
                    .zip(responses)
                    .map(|(row, y)| row[j] as f64 * y)
                    .sum::<f64>()
                    / half
            })
            .collect();
        Ok(PbResult {
            factors: factors
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            effects,
        })
    }

    /// Factors ranked by decreasing absolute effect.
    pub fn ranked(&self) -> Vec<(String, f64)> {
        let mut pairs: Vec<(String, f64)> = self
            .factors
            .iter()
            .cloned()
            .zip(self.effects.iter().copied())
            .collect();
        pairs.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_is_balanced_and_orthogonal() {
        let d = pb12();
        assert_eq!(d.len(), 12);
        for j in 0..11 {
            let sum: i32 = d.iter().map(|r| r[j] as i32).sum();
            assert_eq!(sum, 0, "column {j} must have six + and six -");
        }
        for a in 0..11 {
            for b in (a + 1)..11 {
                let dot: i32 = d.iter().map(|r| (r[a] * r[b]) as i32).sum();
                assert_eq!(dot, 0, "columns {a} and {b} must be orthogonal");
            }
        }
    }

    #[test]
    fn effects_recover_a_linear_model() {
        // y = 10 + 3*x0 - 2*x4 (columns in {-1, +1}).
        let d = pb12();
        let responses: Vec<f64> = d
            .iter()
            .map(|r| 10.0 + 3.0 * r[0] as f64 - 2.0 * r[4] as f64)
            .collect();
        let factors = [
            "f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10",
        ];
        let res = PbResult::analyze(&factors, &d, &responses);
        assert!((res.effects[0] - 6.0).abs() < 1e-9, "2 * coefficient");
        assert!((res.effects[4] + 4.0).abs() < 1e-9);
        for j in [1, 2, 3, 5, 6, 7, 8, 9, 10] {
            assert!(res.effects[j].abs() < 1e-9, "factor {j} has no effect");
        }
        let ranked = res.ranked();
        assert_eq!(ranked[0].0, "f0");
        assert_eq!(ranked[1].0, "f4");
    }

    #[test]
    #[should_panic(expected = "one response per run")]
    fn mismatched_responses_panic() {
        let _ = PbResult::analyze(&["a"], &pb12(), &[1.0, 2.0]);
    }

    #[test]
    fn try_analyze_types_each_malformed_design() {
        assert_eq!(
            PbResult::try_analyze(&["a"], &pb12(), &[1.0]).unwrap_err(),
            AnalysisError::DesignMismatch {
                runs: 12,
                responses: 1
            }
        );
        assert_eq!(
            PbResult::try_analyze(&["a"], &[], &[]).unwrap_err(),
            AnalysisError::EmptyInput { what: "PB design" }
        );
        let too_many: Vec<&str> = (0..12).map(|_| "f").collect();
        let responses = vec![1.0; 12];
        assert_eq!(
            PbResult::try_analyze(&too_many, &pb12(), &responses).unwrap_err(),
            AnalysisError::TooManyFactors {
                factors: 12,
                max: 11
            }
        );
        let mut bad = responses;
        bad[3] = f64::NAN;
        assert!(matches!(
            PbResult::try_analyze(&["a"], &pb12(), &bad),
            Err(AnalysisError::NonFinite { row: 3, .. })
        ));
    }
}

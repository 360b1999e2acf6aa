//! Fault sweep for the statistics pipeline: every degenerate input the
//! characterization study could plausibly feed it must produce a typed
//! [`AnalysisError`] or a documented degraded result — never a panic.
//!
//! The analysis-side sibling of `crates/simt/tests/fault_injection.rs`.

use analysis::cluster::{try_flat_clusters, try_hierarchical, Linkage};
use analysis::matrix::SymMat;
use analysis::plackett_burman::{pb12, PbResult};
use analysis::stats::try_standardize;
use analysis::{euclidean_matrix, AnalysisError, Pca};

/// Each degenerate input, exercised end-to-end through the public
/// fallible API. Returns `Ok(description)` for documented degraded
/// completions, `Err` for typed rejections.
fn scenarios() -> Vec<(&'static str, Result<String, AnalysisError>)> {
    let run = |name: &'static str, r: Result<String, AnalysisError>| (name, r);
    vec![
        run(
            "pca-empty-matrix",
            Pca::try_fit(&[]).map(|_| unreachable!()),
        ),
        run(
            "pca-single-row",
            Pca::try_fit(&[vec![1.0, 2.0, 3.0]])
                .map(|p| format!("zero-variance fit, {} warnings", p.warnings.len())),
        ),
        run(
            "pca-nan-entry",
            Pca::try_fit(&[vec![1.0, f64::NAN]]).map(|_| unreachable!()),
        ),
        run(
            "pca-ragged-rows",
            Pca::try_fit(&[vec![1.0, 2.0], vec![3.0]]).map(|_| unreachable!()),
        ),
        run(
            "pca-rank-deficient",
            Pca::try_fit(
                &(0..8)
                    .map(|i| vec![i as f64, 2.0 * i as f64, 5.0])
                    .collect::<Vec<_>>(),
            )
            .map(|p| {
                format!(
                    "{} warnings, ve0 = {:.3}",
                    p.warnings.len(),
                    p.variance_explained()[0]
                )
            }),
        ),
        run(
            "covariance-empty",
            SymMat::try_covariance(&[]).map(|_| unreachable!()),
        ),
        run(
            "standardize-infinite",
            try_standardize(&mut [vec![f64::INFINITY]]).map(|_| unreachable!()),
        ),
        run(
            "cluster-zero-observations",
            try_hierarchical(&[], Linkage::Average).map(|_| unreachable!()),
        ),
        run(
            "cluster-one-observation",
            try_hierarchical(&[vec![0.0]], Linkage::Average)
                .map(|m| format!("trivial clustering, {} merges", m.len())),
        ),
        run(
            "cluster-non-square",
            try_hierarchical(&[vec![0.0, 1.0], vec![1.0]], Linkage::Single).map(|_| unreachable!()),
        ),
        run(
            "cluster-nan-distance",
            try_hierarchical(
                &[vec![0.0, f64::NAN], vec![f64::NAN, 0.0]],
                Linkage::Complete,
            )
            .map(|_| unreachable!()),
        ),
        run(
            "flat-clusters-k-zero",
            try_flat_clusters(3, &[], 0).map(|_| unreachable!()),
        ),
        run(
            "pb-mismatched-responses",
            PbResult::try_analyze(&["a"], &pb12(), &[1.0]).map(|_| unreachable!()),
        ),
        run(
            "pb-empty-design",
            PbResult::try_analyze(&["a"], &[], &[]).map(|_| unreachable!()),
        ),
        run(
            "pb-nan-response",
            PbResult::try_analyze(&["a"], &pb12(), &[f64::NAN; 12]).map(|_| unreachable!()),
        ),
    ]
}

#[test]
fn every_degenerate_input_is_typed_or_documented() {
    let mut errors = 0;
    let mut degraded = 0;
    for (name, outcome) in scenarios() {
        match outcome {
            Ok(desc) => {
                degraded += 1;
                assert!(!desc.is_empty(), "{name}: degraded result undescribed");
            }
            Err(e) => {
                errors += 1;
                let msg = e.to_string();
                assert!(
                    !msg.is_empty() && !msg.contains("AnalysisError"),
                    "{name}: error message should be prose, got {msg:?}"
                );
            }
        }
    }
    assert!(
        errors >= 10,
        "expected >= 10 typed rejections, got {errors}"
    );
    assert!(
        degraded >= 2,
        "expected documented degraded results, got {degraded}"
    );
}

/// The full paper pipeline (standardize → PCA → distances → clustering
/// → flat cut) still works after sweeping every degenerate input, and a
/// rank-deficient corpus flows through it without panicking.
#[test]
fn pipeline_survives_sweep_and_rank_deficiency() {
    for (_, outcome) in scenarios() {
        let _ = outcome;
    }
    // Two tight blobs plus a constant feature column.
    let data: Vec<Vec<f64>> = (0..6)
        .map(|i| {
            let base = if i < 3 { 0.0 } else { 10.0 };
            vec![base + i as f64 * 0.01, base - i as f64 * 0.01, 42.0]
        })
        .collect();
    let pca = Pca::try_fit(&data).expect("rank-deficient fit succeeds");
    assert_eq!(pca.warnings.len(), 1, "constant column recorded");
    let scores = pca.truncated_scores(2);
    let dist = euclidean_matrix(&scores);
    let merges = try_hierarchical(&dist, Linkage::Average).expect("clustering succeeds");
    let labels = try_flat_clusters(6, &merges, 2).expect("flat cut succeeds");
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[3], labels[4]);
    assert_ne!(labels[0], labels[3], "blobs separate: {labels:?}");
}

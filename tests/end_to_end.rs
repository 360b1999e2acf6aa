//! End-to-end smoke tests: the experiment registry produces non-empty,
//! well-formed tables for every artifact of the paper.

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::experiments::{run_comparison, run_gpu};

#[test]
fn every_gpu_side_artifact_renders() {
    use ExperimentId::*;
    let session = StudySession::default();
    for id in [
        Table1, Table2, Fig1, Fig2, Fig3, Fig4, Table3, Fig5, Table4, Table5,
    ] {
        for table in run_gpu(&session, id, Scale::Tiny).expect("experiment runs") {
            assert!(!table.rows.is_empty(), "{id:?} produced an empty table");
            let text = table.to_string();
            assert!(text.lines().count() >= 3, "{id:?} rendered nothing");
            let csv = table.to_csv();
            assert_eq!(
                csv.lines().count(),
                table.rows.len() + 1,
                "{id:?} CSV shape"
            );
        }
    }
}

#[test]
fn plackett_burman_artifact_renders() {
    // Narrow subset: the full-suite PB study is exercised by the bench
    // harness.
    let session = StudySession::default();
    let study =
        rodinia_repro::rodinia_study::sensitivity::run(&session, Scale::Tiny, Some(&["HS", "NW"]))
            .expect("pb study runs");
    assert_eq!(study.per_benchmark.len(), 2);
    assert!(study
        .to_table()
        .expect("pb table")
        .to_string()
        .contains("HS"));
    assert_eq!(study.aggregate().len(), 9);
}

#[test]
fn every_comparison_artifact_renders() {
    use ExperimentId::*;
    let study = ComparisonStudy::run(&StudySession::sequential(), Scale::Tiny).expect("tiny study");
    for id in [Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12] {
        for table in run_comparison(id, &study).expect("experiment runs") {
            assert!(!table.rows.is_empty(), "{id:?} produced an empty table");
        }
    }
}

#[test]
fn full_feature_pca_explains_variance_in_few_components() {
    // The clustering pipeline retains the components covering >= 90% of
    // variance; sanity-check that this is a meaningful reduction of the
    // 28-dimensional feature space.
    let study = ComparisonStudy::run(&StudySession::sequential(), Scale::Tiny).expect("tiny study");
    let data: Vec<Vec<f64>> = study
        .profiles
        .iter()
        .map(rodinia_repro::rodinia_study::features::full_features)
        .collect();
    let pca = rodinia_repro::analysis::Pca::fit(&data);
    let k = pca.components_for(0.9);
    assert!(k >= 2, "at least two meaningful dimensions, got {k}");
    assert!(
        k <= 12,
        "90% variance should need far fewer than 28 dims, got {k}"
    );
}

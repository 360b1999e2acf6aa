//! The CPU half of the engine's determinism guarantee: the comparison
//! corpus — captured once per workload and replayed capacity-by-capacity
//! over the worker pool — renders **byte-identical** tables at any
//! `--jobs` value, and each assembled profile equals the direct
//! (capture-free) `tracekit::profile` path exactly.

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::experiments::run_comparison;
use rodinia_repro::rodinia_study::suite::combined_workloads;
use tracekit::ProfileConfig;

fn rendered(session: &StudySession) -> Vec<String> {
    use ExperimentId::*;
    let study = ComparisonStudy::run(session, Scale::Tiny)
        .unwrap_or_else(|e| panic!("corpus with {} jobs failed: {e}", session.jobs()));
    let mut out = Vec::new();
    for id in [Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12] {
        for t in run_comparison(id, &study).unwrap_or_else(|e| panic!("{id:?} failed: {e}")) {
            out.push(format!("{t}\n{}", t.to_csv()));
        }
    }
    out
}

#[test]
fn four_workers_render_byte_identical_comparison_tables_to_one() {
    let sequential = StudySession::new(1);
    let parallel = StudySession::new(4);

    let seq = rendered(&sequential);
    let par = rendered(&parallel);
    assert_eq!(seq, par, "parallel comparison rendering diverged");

    // One capture per workload in both sessions — never one per capacity.
    assert_eq!(sequential.cpu_cache().len(), 24);
    assert_eq!(parallel.cpu_cache().len(), 24);
}

#[test]
fn replayed_profiles_equal_the_direct_path_for_every_workload() {
    let cfg = ProfileConfig::default();
    let session = StudySession::new(4);
    let study = ComparisonStudy::run(&session, Scale::Tiny).expect("pipeline corpus");
    // A second run replays every capacity from the session's warm
    // capture cache and must land on the same profiles.
    let warm = ComparisonStudy::run(&session, Scale::Tiny).expect("warm pipeline corpus");
    assert_eq!(warm.profiles, study.profiles, "warm-cache replay diverged");
    let workloads = combined_workloads(Scale::Tiny);
    assert_eq!(study.profiles.len(), workloads.len());
    for (lw, replayed) in workloads.iter().zip(&study.profiles) {
        let direct = tracekit::profile(lw.workload.as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{} direct profile failed: {e}", lw.label));
        assert_eq!(
            &direct, replayed,
            "{}: replayed profile diverged from the direct path",
            lw.label
        );
    }
}

//! The CPU half of the engine's determinism guarantee: the comparison
//! corpus — one job per workload over the worker pool, each capturing
//! its workload once and replaying every capacity — renders
//! **byte-identical** tables at any `--jobs` value, and each assembled
//! profile equals the direct (capture-free) `tracekit::profile` path
//! exactly.

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

    // One capture per workload in both sessions — never one per
    // capacity — and none of them left resident.
    for session in [&sequential, &parallel] {
        assert_eq!(session.cpu_cache().captures(), 24);
        assert_eq!(session.cpu_cache().len(), 0);
    }
}

#[test]
fn a_corpus_uses_resident_captures_and_keeps_no_others() {
    let cfg = ProfileConfig::default();
    let session = StudySession::new(2);
    let workloads = combined_workloads(Scale::Tiny);
    for w in &workloads[..3] {
        session
            .cpu_cache()
            .capture_workload(&w.label, w.workload.as_ref(), Scale::Tiny, &cfg)
            .unwrap_or_else(|e| panic!("{} capture failed: {e}", w.label));
    }
    let study = session.corpus(Scale::Tiny).expect("corpus");
    assert_eq!(study.profiles.len(), 24);
    // The three resident captures were used, not recaptured; the other
    // 21 were captured once each and dropped after their replays.
    assert_eq!(session.cpu_cache().captures(), 24);
    assert_eq!(session.cpu_cache().len(), 3);
}

#[test]
fn replayed_profiles_equal_the_direct_path_for_every_workload() {
    let cfg = ProfileConfig::default();
    let session = StudySession::new(4);
    let study = ComparisonStudy::run(&session, Scale::Tiny).expect("pipeline corpus");
    // A second run captures every workload again (the session keeps
    // no CPU trace) and must land on the same profiles.
    let again = ComparisonStudy::run(&session, Scale::Tiny).expect("second pipeline corpus");
    assert_eq!(again.profiles, study.profiles, "second corpus diverged");
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

//! The CPU half of the engine's determinism guarantee: the comparison
//! corpus — one job per workload over the worker pool, each profiling
//! its workload live (or replaying a resident or stored capture) —
//! renders **byte-identical** tables at any `--jobs` value, and each
//! assembled profile equals one full shared-cache replay per capacity
//! of the workload's captured trace, whichever path produced it.

use std::sync::Arc;

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::experiments::run_comparison;
use rodinia_repro::rodinia_study::suite::combined_workloads;
use rodinia_repro::store::TraceStore;
use tracekit::{CacheStats, CpuCapture, ProfileConfig, SharedCache};

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

/// The oracle: one full [`SharedCache`] replay per capacity of the
/// capture's packed words, without the sweep's cutoff.
fn full_replays(cap: &CpuCapture, cfg: &ProfileConfig) -> Vec<CacheStats> {
    cfg.cache_sizes
        .iter()
        .map(|&bytes| {
            let mut c = SharedCache::new(bytes, cfg.ways, cfg.line).expect("valid geometry");
            for &w in cap.packed_words() {
                c.access_line((w & 0xff) as usize, w >> 8);
            }
            c.finish()
        })
        .collect()
}

#[test]
fn four_workers_render_byte_identical_comparison_tables_to_one() {
    let sequential = StudySession::new(1);
    let parallel = StudySession::new(4);

    let seq = rendered(&sequential);
    let par = rendered(&parallel);
    assert_eq!(seq, par, "parallel comparison rendering diverged");

    // Without a store every workload is profiled live: no capture is
    // made and none is left resident.
    for session in [&sequential, &parallel] {
        assert_eq!(session.cpu_cache().captures(), 0);
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
    // The three resident captures were replayed, not recaptured; the
    // other 21 workloads were profiled live, with no capture.
    assert_eq!(session.cpu_cache().captures(), 3);
    assert_eq!(session.cpu_cache().len(), 3);
    let live = ComparisonStudy::run(&StudySession::new(2), Scale::Tiny).expect("live corpus");
    assert_eq!(study.profiles, live.profiles);
}

#[test]
fn replayed_profiles_equal_the_direct_path_for_every_workload() {
    let cfg = ProfileConfig::default();
    let session = StudySession::new(4);
    let study = ComparisonStudy::run(&session, Scale::Tiny).expect("live corpus");
    let workloads = combined_workloads(Scale::Tiny);
    assert_eq!(study.profiles.len(), workloads.len());
    for (lw, profiled) in workloads.iter().zip(&study.profiles) {
        let cap = CpuCapture::capture(lw.workload.as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{} capture failed: {e}", lw.label));
        assert_eq!(
            &cap.profile_with(full_replays(&cap, &cfg)),
            profiled,
            "{}: profile diverged from one full replay per capacity",
            lw.label
        );
    }
}

#[test]
fn a_store_backed_corpus_persists_then_restores_the_live_profiles() {
    let dir = std::env::temp_dir().join(format!("rodinia-cpu-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(TraceStore::open(&dir).expect("open store"));
    let live = ComparisonStudy::run(&StudySession::new(2), Scale::Tiny).expect("live corpus");
    for (captures, restores) in [(24, 0), (0, 24)] {
        let mut session = StudySession::new(2);
        session.attach_store(Arc::clone(&store));
        let study = ComparisonStudy::run(&session, Scale::Tiny).expect("store-backed corpus");
        assert_eq!(study.profiles, live.profiles);
        let cache = session.cpu_cache();
        assert_eq!((cache.captures(), cache.restores()), (captures, restores));
        assert_eq!(
            cache.len(),
            0,
            "a stored capture is dropped after its replay"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

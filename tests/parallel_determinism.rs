//! The headline guarantee of the parallel study engine: results are
//! jobs-count-invariant.
//!
//! Jobs carry submission indices and results are reassembled in
//! submission order, so every rendered table must be **byte-identical**
//! whether the engine runs sequentially (`--jobs 1`) or fans work across
//! a worker pool (`--jobs 4`). This covers every GPU-side experiment —
//! Fig. 1/2/3 replay all 12 Rodinia benchmarks, Fig. 4 the channel
//! sweep, Table III the incremental versions, Fig. 5 the three Fermi
//! configurations, and the Plackett–Burman study the full 12-run design
//! per benchmark.

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::experiments::run_gpu;

fn rendered(session: &StudySession, id: ExperimentId) -> Vec<String> {
    run_gpu(session, id, Scale::Tiny)
        .unwrap_or_else(|e| panic!("{id:?} with {} jobs failed: {e}", session.jobs()))
        .iter()
        .map(|t| format!("{t}\n{}", t.to_csv()))
        .collect()
}

#[test]
fn four_workers_render_byte_identical_tables_to_one() {
    use ExperimentId::*;
    let sequential = StudySession::new(1);
    let parallel = StudySession::new(4);
    assert_eq!(sequential.jobs(), 1);
    assert_eq!(parallel.jobs(), 4);

    // The PB sweep runs first so its capture count is seen alone: one
    // capture per benchmark, never one per design point.
    assert_eq!(
        rendered(&sequential, PlackettBurman),
        rendered(&parallel, PlackettBurman),
        "PlackettBurman: parallel rendering diverged from sequential"
    );
    assert_eq!(parallel.cache().len(), all_benchmarks(Scale::Tiny).len());

    for id in [Fig1, Fig2, Fig3, Fig4, Table3, Fig5] {
        let seq = rendered(&sequential, id);
        let par = rendered(&parallel, id);
        assert_eq!(
            seq, par,
            "{id:?}: parallel rendering diverged from sequential"
        );
    }

    // Fig. 1/2/3 each touched all 12 benchmarks; the shared cache holds
    // one capture per (benchmark, scale, variant) — never one per config.
    assert!(sequential.cache().len() >= 12);
    assert_eq!(sequential.cache().len(), parallel.cache().len());
}

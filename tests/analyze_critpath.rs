//! Acceptance tests for `repro analyze`: the critical-path manifest
//! conserves the engine's stall accounting exactly, and its bytes are
//! deterministic across processes.

use std::path::Path;
use std::process::Command;

use rodinia_repro::obs::Json;
use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::analyze::{run_analyze, CRITPATH_FILE, DEFAULT_TOP_K};

/// Every benchmark's `attributed_sm_cycles` equals the engine's own
/// stall total — which the engine itself proves is `num_sms * cycles`.
/// The analysis layer never invents or loses a cycle.
#[test]
fn critpath_attribution_conserves_engine_stall_totals() {
    let session = StudySession::new(2);
    let scale = Scale::Tiny;
    let report = run_analyze(&session, scale, DEFAULT_TOP_K).expect("analyze runs");
    let cfg = GpuConfig::gpgpusim_default();
    let benches = all_benchmarks(scale);
    assert_eq!(report.critpath.kernels.len(), benches.len());
    for (b, k) in benches.iter().zip(&report.critpath.kernels) {
        assert_eq!(k.name, b.abbrev());
        // Cache hit: analyze above already captured this benchmark.
        let run = session
            .cache()
            .capture_benchmark(b.as_ref(), scale, &cfg)
            .expect("capture");
        let stats = run
            .stats_for(&cfg, &session.replay_options())
            .expect("stats");
        assert_eq!(
            k.attributed,
            stats.stall.total(),
            "{}: attribution must equal the engine stall total",
            b.abbrev()
        );
        assert_eq!(
            k.attributed,
            cfg.num_sms as u64 * stats.cycles,
            "{}: stall total must cover the full SM cycle budget",
            b.abbrev()
        );
        // The dominant chain is a subset of the attribution, never more.
        let chain_total: u64 = k.chain.iter().map(|l| l.cycles).sum();
        assert!(chain_total <= k.attributed);
    }
    assert!(
        !report.critpath.ranking.is_empty(),
        "suite ranking must name at least one component"
    );
}

fn run_analyze_into(dir: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["analyze", "tiny", "--jobs", "2", "--json"])
        .arg(dir)
        .output()
        .expect("repro analyze runs");
    assert!(
        output.status.success(),
        "repro analyze failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(dir.join(CRITPATH_FILE)).expect("critpath manifest written")
}

/// Two separate `repro analyze tiny --json` processes write
/// byte-identical `CRITPATH_manifest.json` files: the document carries
/// no wall-clock state and every ordering in it is deterministic.
#[test]
fn critpath_manifest_bytes_are_deterministic_across_processes() {
    let root = std::env::temp_dir().join("rodinia-analyze-determinism");
    let (a_dir, b_dir) = (root.join("a"), root.join("b"));
    let _ = std::fs::remove_dir_all(&root);
    let a = run_analyze_into(&a_dir);
    let b = run_analyze_into(&b_dir);
    assert_eq!(a, b, "CRITPATH_manifest.json must be byte-stable");
    let doc = Json::parse(&a).expect("manifest parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("rodinia-repro.critpath/v1")
    );
    assert_eq!(doc.get("scale").and_then(Json::as_str), Some("tiny"));
    let kernels = doc.get("kernels").and_then(Json::as_arr).expect("kernels");
    assert_eq!(kernels.len(), all_benchmarks(Scale::Tiny).len());
    for k in kernels {
        assert!(
            k.get("summary").and_then(Json::as_str).is_some(),
            "every kernel carries a human verdict"
        );
    }
    // The BENCH manifest rides along and embeds the critpath section.
    let bench = std::fs::read_to_string(a_dir.join("BENCH_manifest.json")).expect("manifest");
    let bench = Json::parse(&bench).expect("parses");
    assert!(bench.get("critpath").is_some(), "critpath section embedded");
    assert!(bench.get("store").is_some(), "store counters embedded");
    let _ = std::fs::remove_dir_all(&root);
}

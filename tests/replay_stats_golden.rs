//! Cycle-exact pin of the GPU replay engine.
//!
//! Every Tiny capture of the suite is re-timed under each configuration
//! the study replays it under — the 28- and 8-SM machines of Figure 1,
//! the 4/6/8-channel sweep of Figure 4, the GTX 280 of Figure 5, the
//! twelve Plackett–Burman design points, and (from the 32-bank capture)
//! the two GTX 480 configurations — and the full [`KernelStats`] of each
//! replay is digested through its `Debug` rendering. Unlike the rounded
//! paper tables, that rendering spells out every counter: cycles, the
//! stall partition, cache hit counts, the timeline samples. A change to
//! the engine that moves any of them by a single cycle fails here.
//!
//! The digests are checked at one and at four sim threads, so the pin
//! also covers the launch-parallel replay and launch interning.
//!
//! `tests/golden/replay_stats.txt` holds one `benchmark config digest`
//! line per replay. On a mismatch the test prints the full table it
//! computed; an intended timing-model change re-blesses by replacing the
//! file with that table.

use rodinia_repro::analysis::plackett_burman::pb12;
use rodinia_repro::datasets::Scale;
use rodinia_repro::rodinia_gpu::suite::all_benchmarks;
use rodinia_repro::rodinia_study::sensitivity::config_for;
use rodinia_repro::rodinia_study::trace_cache::TraceCache;
use rodinia_repro::simt::{GpuConfig, ReplayOptions};
use rodinia_repro::store::fnv1a64;

const GOLDEN: &str = include_str!("golden/replay_stats.txt");

/// The configurations replayed from the default (16-bank) capture.
fn base_configs() -> Vec<(String, GpuConfig)> {
    let base = GpuConfig::gpgpusim_default();
    let mut cfgs = vec![
        ("sm28".to_string(), base.clone()),
        ("sm8".to_string(), GpuConfig::gpgpusim_8sm()),
    ];
    for ch in [4u32, 6, 8] {
        cfgs.push((format!("ch{ch}"), base.with_mem_channels(ch)));
    }
    cfgs.push(("gtx280".to_string(), GpuConfig::gtx280()));
    for (i, row) in pb12().iter().enumerate() {
        cfgs.push((format!("pb{:02}", i + 1), config_for(row)));
    }
    cfgs
}

/// The configurations replayed from the 32-bank (GTX 480) capture.
fn fermi_configs() -> Vec<(String, GpuConfig)> {
    vec![
        ("gtx480-shared".to_string(), GpuConfig::gtx480_shared_bias()),
        ("gtx480-l1".to_string(), GpuConfig::gtx480_l1_bias()),
    ]
}

/// Replays every capture under every configuration at `sim_threads`
/// and renders the `benchmark config digest` table.
fn digest_table(cache: &TraceCache, sim_threads: usize) -> String {
    let opts = ReplayOptions::width(sim_threads);
    let mut table = String::new();
    for b in all_benchmarks(Scale::Tiny) {
        for (capture_cfg, cfgs) in [
            (GpuConfig::gpgpusim_default(), base_configs()),
            (GpuConfig::gtx480_shared_bias(), fermi_configs()),
        ] {
            let run = cache
                .capture_benchmark(b.as_ref(), Scale::Tiny, &capture_cfg)
                .expect("capture");
            for (label, cfg) in &cfgs {
                let stats = run.replay_with(cfg, &opts).expect("replay");
                let digest = fnv1a64(format!("{stats:?}").as_bytes());
                table.push_str(&format!("{} {label} {digest:016x}\n", b.abbrev()));
            }
        }
    }
    table
}

#[test]
fn replay_stats_match_the_golden_digests_at_one_and_four_sim_threads() {
    let cache = TraceCache::new();
    for threads in [1, 4] {
        let table = digest_table(&cache, threads);
        let drifted: Vec<String> = table
            .lines()
            .zip(GOLDEN.lines())
            .filter(|(got, want)| got != want)
            .map(|(got, want)| format!("  want {want}\n  got  {got}"))
            .collect();
        assert!(
            drifted.is_empty() && table.lines().count() == GOLDEN.lines().count(),
            "replay stats drifted at sim-threads {threads} ({} of {} lines):\n{}\n\
             full table computed:\n{table}",
            drifted.len(),
            GOLDEN.lines().count(),
            drifted.join("\n"),
        );
    }
}

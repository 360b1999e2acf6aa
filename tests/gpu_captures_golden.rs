//! Byte pin of GPU functional capture.
//!
//! Every Tiny capture the study makes is encoded with the store's trace
//! codec and digested: the 12 suite benchmarks under the default
//! 16-bank fingerprint and under the 32-bank GTX 480 fingerprint of
//! Figure 5, plus the SRAD and Leukocyte v1 versions of Table III. The
//! payload spells out every recorded op of every warp (active lanes,
//! conflict degrees, constant broadcasts, coalesced segments) and the
//! functional run's host↔device traffic, so a change to the kernel DSL
//! that moves a single trace byte fails here, even where no replayed
//! statistic would notice.
//!
//! `tests/golden/gpu_captures.txt` holds one `label fingerprint digest`
//! line per capture. On a mismatch the test prints the full table it
//! computed; an intended capture change re-blesses by replacing the
//! file with that table.
//!
//! Two more tests check the sanitizer's promise that taping a launch
//! never changes what it records, and that every capture's cached
//! instruction totals equal its per-op sums.

use std::sync::{Arc, Mutex};

use rodinia_repro::datasets::Scale;
use rodinia_repro::rodinia_gpu::leukocyte::Leukocyte;
use rodinia_repro::rodinia_gpu::srad::Srad;
use rodinia_repro::rodinia_gpu::suite::all_benchmarks;
use rodinia_repro::rodinia_study::trace_cache::CapturedRun;
use rodinia_repro::rodinia_study::trace_cache::{CaptureFingerprint, TraceCache};
use rodinia_repro::simt::{
    encode_capture_payload, Gpu, GpuConfig, KernelTrace, MemMix, OccupancyHistogram,
};
use rodinia_repro::store::fnv1a64;

const GOLDEN: &str = include_str!("golden/gpu_captures.txt");

/// `w{warp}b{banks}s{segment}`, as the store key spells a fingerprint.
fn fingerprint(cfg: &GpuConfig) -> String {
    let fp = CaptureFingerprint::of(cfg);
    format!("w{}b{}s{}", fp.warp_size, fp.shared_banks, fp.segment_bytes)
}

/// Captures every Tiny workload: its label, capture configuration and
/// captured run.
fn tiny_captures() -> Vec<(String, GpuConfig, Arc<CapturedRun>)> {
    let cache = TraceCache::new();
    let base = GpuConfig::gpgpusim_default();
    let mut runs = Vec::new();
    for cfg in [base.clone(), GpuConfig::gtx480_shared_bias()] {
        for b in all_benchmarks(Scale::Tiny) {
            let run = cache.capture_benchmark(b.as_ref(), Scale::Tiny, &cfg);
            runs.push((b.abbrev().to_string(), cfg.clone(), run.expect("capture")));
        }
    }
    let srad = cache.capture_fn("SRAD", Scale::Tiny, "v1", &base, |gpu| {
        Srad::v1(Scale::Tiny).run(gpu)
    });
    runs.push(("SRAD-v1".to_string(), base.clone(), srad.expect("capture")));
    let lc = cache.capture_fn("LC", Scale::Tiny, "v1", &base, |gpu| {
        Leukocyte::v1(Scale::Tiny).run(gpu)
    });
    runs.push(("LC-v1".to_string(), base.clone(), lc.expect("capture")));
    runs
}

/// Renders the `label fingerprint digest` table of every Tiny capture.
fn digest_table() -> String {
    let mut table = String::new();
    for (label, cfg, run) in tiny_captures() {
        let payload = encode_capture_payload(&run.traces, run.h2d_bytes, run.d2h_bytes);
        let digest = fnv1a64(&payload);
        table.push_str(&format!("{label} {} {digest:016x}\n", fingerprint(&cfg)));
    }
    table
}

#[test]
fn gpu_captures_match_the_golden_digests() {
    let table = digest_table();
    let drifted: Vec<String> = table
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        drifted.is_empty() && table.lines().count() == GOLDEN.lines().count(),
        "GPU captures drifted ({} of {} lines):\n{}\nfull table computed:\n{table}",
        drifted.len(),
        GOLDEN.lines().count(),
        drifted.join("\n"),
    );
}

/// Runs every Tiny benchmark with trace recording on, with or without
/// a sanitizer sink, and returns its traces and the number of tapes
/// the sink received.
fn recorded(cfg: &GpuConfig, taped: bool) -> Vec<(String, Vec<Arc<KernelTrace>>, usize)> {
    all_benchmarks(Scale::Tiny)
        .iter()
        .map(|b| {
            let mut gpu = Gpu::new(cfg.clone());
            gpu.set_trace_recording(true);
            let tapes = Arc::new(Mutex::new(0usize));
            if taped {
                let tapes = Arc::clone(&tapes);
                gpu.set_sanitizer_sink(move |_| *tapes.lock().unwrap() += 1);
            }
            b.run_on(&mut gpu);
            let n = *tapes.lock().unwrap();
            (b.abbrev().to_string(), gpu.take_recorded_traces(), n)
        })
        .collect()
}

#[test]
fn sanitizer_taping_leaves_every_capture_unchanged() {
    for cfg in [
        GpuConfig::gpgpusim_default(),
        GpuConfig::gtx480_shared_bias(),
    ] {
        let plain = recorded(&cfg, false);
        let taped = recorded(&cfg, true);
        for ((name, want, _), (_, got, tapes)) in plain.iter().zip(&taped) {
            assert_eq!(*tapes, want.len(), "{name}: one tape per launch");
            assert!(
                got == want,
                "{name} on {}: taped traces differ from untaped ones",
                cfg.name
            );
        }
    }
}

#[test]
fn cached_totals_equal_the_per_op_sums_of_every_tiny_capture() {
    let captures = tiny_captures();
    assert_eq!(captures.len(), 26);
    for (label, cfg, run) in &captures {
        for trace in &run.traces {
            let (mut threads, mut warps) = (0, 0);
            let mut mix = MemMix::default();
            let mut occupancy = OccupancyHistogram::new(trace.warp_size);
            for op in trace
                .ctas
                .iter()
                .flat_map(|c| &c.warps)
                .flat_map(|w| &w.ops)
            {
                let wi = op.warp_instructions();
                warps += wi;
                threads += op.thread_instructions();
                if op.lanes() > 0 {
                    occupancy.record(op.lanes(), wi);
                }
                if let Some(space) = op.mem_space() {
                    mix.add(space, wi);
                }
            }
            let totals = trace.totals();
            let at = format!("{label} on {}: {}", cfg.name, trace.name);
            assert_eq!(totals.thread_instructions, threads, "{at}");
            assert_eq!(totals.warp_instructions, warps, "{at}");
            assert_eq!(totals.mem_mix, mix, "{at}");
            assert_eq!(totals.occupancy, occupancy, "{at}");
        }
    }
}

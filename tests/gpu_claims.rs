//! Integration tests for the paper's GPU-side *ordinal* claims
//! (Section III). Run at Tiny scale so the suite stays fast; the
//! EXPERIMENTS.md numbers come from the Small-scale bench harness.

use rodinia_repro::prelude::*;
use rodinia_repro::rodinia_study::characterization::{
    channel_sweep, fermi_study, incremental_versions, ipc_scaling, memory_mix, warp_occupancy,
};

fn session() -> StudySession {
    StudySession::default()
}

#[test]
fn figure1_ipc_ordering() {
    // Small scale: Tiny grids have too few thread blocks to fill 28 SMs,
    // so the scalability half of the claim needs realistic sizes.
    let d = ipc_scaling(&session(), Scale::Small).expect("fig1");
    // "IPCs ... range from less than 100 in MUMmer and Needleman-Wunsch
    // to more than 700 in SRAD, HotSpot and Leukocyte" — check the
    // ordinal claim: the structured-grid benchmarks beat the graph/DP
    // benchmarks by a wide margin.
    for fast in ["SRAD", "HS", "LC"] {
        for slow in ["MUM", "NW"] {
            assert!(
                d.ipc28(fast) > 2.0 * d.ipc28(slow),
                "{fast} ({:.0}) should far exceed {slow} ({:.0})",
                d.ipc28(fast),
                d.ipc28(slow)
            );
        }
    }
    // "The benchmarks show high scalability across 8 and 28 shaders,
    // except for those like MUMmer and Breadth-First Search ... and like
    // LUD".
    let scaling = |a: &str| {
        let row = d.rows.iter().find(|(n, ..)| n == a).unwrap();
        row.2 / row.1
    };
    let scalable = ["SRAD", "HS", "KM"];
    let limited = ["MUM", "BFS", "LUD"];
    let min_scalable = scalable
        .iter()
        .map(|b| scaling(b))
        .fold(f64::INFINITY, f64::min);
    let max_limited = limited.iter().map(|b| scaling(b)).fold(0.0f64, f64::max);
    assert!(
        min_scalable > max_limited,
        "scalable {:?} vs limited {:?}",
        scalable.map(&scaling),
        limited.map(scaling)
    );
    assert!(min_scalable > 1.4, "scalable group should gain from SMs");
}

#[test]
fn figure2_memory_mix_shapes() {
    let d = memory_mix(&session(), Scale::Tiny).expect("fig2");
    // Fractions are [shared, tex, const, param, global/local].
    // "Back Propagation, HotSpot, Needleman-Wunsch and StreamCluster
    // make extensive use of shared memory."
    for b in ["BP", "HS", "NW", "SC"] {
        assert!(d.fractions(b)[0] > 0.3, "{b} shared {:?}", d.fractions(b));
    }
    // "Kmeans, Leukocyte and MUMmer are improved by taking advantage of
    // texture memory."
    for b in ["KM", "LC", "MUM"] {
        assert!(d.fractions(b)[1] > 0.25, "{b} tex {:?}", d.fractions(b));
    }
    // "Heartwall uses constant memory to store large numbers of
    // parameters."
    assert!(
        d.fractions("HW")[2] > 0.2,
        "HW const {:?}",
        d.fractions("HW")
    );
    // BFS is purely global.
    assert!(d.fractions("BFS")[4] > 0.9);
}

#[test]
fn figure3_divergence_shapes() {
    let d = warp_occupancy(&session(), Scale::Tiny).expect("fig3");
    // "Breadth-First Search contains many control flow operations;
    // hence the high number of low occupancy warps."
    assert!(d.quartiles("BFS")[0] > 0.3, "BFS {:?}", d.quartiles("BFS"));
    // "SRAD does not have much control flow": almost all warps full.
    assert!(
        d.quartiles("SRAD")[3] > 0.8,
        "SRAD {:?}",
        d.quartiles("SRAD")
    );
    // MUMmer bleeds lanes as queries mismatch.
    assert!(d.quartiles("MUM")[0] > 0.2, "MUM {:?}", d.quartiles("MUM"));
    // NW's 16-thread blocks never exceed 16 lanes.
    let nw = d.quartiles("NW");
    assert_eq!(nw[2] + nw[3], 0.0, "NW {nw:?}");
}

#[test]
fn figure4_channel_winners() {
    let d = channel_sweep(&session(), Scale::Small).expect("fig4");
    // "The benchmarks which benefit most from this change include
    // Breadth-First Search, CFD and MUMmer."
    let winners = ["BFS", "CFD", "MUM"];
    let losers = ["HS", "KM", "LC"]; // shared-memory / texture locality
    let min_winner = winners
        .iter()
        .map(|b| d.improvement8(b))
        .fold(f64::INFINITY, f64::min);
    let max_loser = losers
        .iter()
        .map(|b| d.improvement8(b))
        .fold(0.0f64, f64::max);
    assert!(
        min_winner > max_loser,
        "winners {:?} vs losers {:?}",
        winners.map(|b| d.improvement8(b)),
        losers.map(|b| d.improvement8(b))
    );
    // All improvements are sane: between 1x and 2x (channel count
    // doubles).
    for (name, b4, _, b8) in &d.rows {
        let imp = b8 / b4;
        assert!((0.8..=2.3).contains(&imp), "{name}: {imp}");
    }
}

#[test]
fn table3_incremental_versions() {
    let d = incremental_versions(&session(), Scale::Tiny).expect("table3");
    // SRAD v2 raises IPC via shared memory; Leukocyte v2 eliminates
    // global accesses (Table III: 0.0% global).
    assert!(d.ipc("SRAD v2") > d.ipc("SRAD v1"));
    assert!(d.global_frac("Leukocyte v2") < 0.02);
    assert!(d.global_frac("Leukocyte v1") > d.global_frac("Leukocyte v2"));
}

#[test]
fn figure5_fermi_preferences() {
    let d = fermi_study(&session(), Scale::Small).expect("fig5");
    // "The performances of MUMmer and BFS ... improve after switching
    // the configuration from shared bias to L1 bias."
    for b in ["MUM", "BFS"] {
        let (shared_bias, l1_bias) = d.normalized(b);
        assert!(
            l1_bias < shared_bias,
            "{b}: L1-bias {l1_bias:.3} should beat shared-bias {shared_bias:.3}"
        );
    }
    // "Many Rodinia applications, including SRAD ... expectedly prefer
    // the shared bias setting."
    {
        let (shared_bias, l1_bias) = d.normalized("SRAD");
        assert!(
            shared_bias <= l1_bias * 1.001,
            "SRAD: shared-bias {shared_bias:.3} should not lose to L1-bias {l1_bias:.3}"
        );
    }
    // "LU Decomposition and StreamCluster show very little performance
    // variation between the two configurations."
    for b in ["LUD", "SC"] {
        let (shared_bias, l1_bias) = d.normalized(b);
        let ratio = shared_bias / l1_bias;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{b} should be insensitive: ratio {ratio:.3}"
        );
    }
}

#[test]
fn gpu_runs_are_deterministic() {
    let run = || {
        let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
        let b = rodinia_repro::rodinia_gpu::bfs::Bfs::new(Scale::Tiny);
        let s = b.run(&mut gpu);
        (s.cycles, s.thread_instructions, s.dram_bytes)
    };
    assert_eq!(run(), run());
}

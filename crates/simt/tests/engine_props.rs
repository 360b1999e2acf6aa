//! Property tests on the timing engine's global invariants, driven by a
//! small randomized kernel family.

use proptest::prelude::*;
use simt::{
    time_trace, time_traces_concurrent, trace_kernel, try_time_trace, Gpu, GpuConfig, GpuMem,
    GridShape, Kernel, KernelTrace, PhaseControl, SimError, WarpCtx,
};

/// A configurable synthetic kernel: per-thread ALU work, strided global
/// loads, optional shared staging and divergence.
struct Synth {
    buf: simt::BufF32,
    n: usize,
    alu: u32,
    stride: usize,
    shared: bool,
    divergent: bool,
}

impl Kernel for Synth {
    fn name(&self) -> &str {
        "synth"
    }
    fn shape(&self) -> GridShape {
        GridShape::cover(self.n, 128)
    }
    fn shared_f32_words(&self) -> usize {
        if self.shared {
            128
        } else {
            0
        }
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let me = (self.buf, self.n, self.stride, self.alu);
        let tids = w.tids();
        let in_range: Vec<bool> = tids.iter().map(|&t| t < self.n).collect();
        let (shared, divergent) = (self.shared, self.divergent);
        w.if_active(&in_range, |w| {
            let (buf, n, stride, alu) = me;
            let x = w.ld_f32(buf, |_, tid| {
                (tid < n).then(|| (tid * stride) % (n * stride.max(1)))
            });
            w.alu(alu);
            if shared {
                let ltids = w.ltids();
                w.sh_st_f32(|lane, _| Some((ltids[lane] % 128, x[lane])));
                let _ = w.sh_ld_f32(|lane, _| Some((ltids[lane] + 1) % 128));
            }
            if divergent {
                let odd: Vec<bool> = (0..w.warp_size()).map(|l| l % 2 == 1).collect();
                w.if_else(&odd, |w| w.alu(alu / 2 + 1), |w| w.alu(1));
            }
        });
        PhaseControl::Done
    }
}

fn build_trace(
    alu: u32,
    stride: usize,
    shared: bool,
    divergent: bool,
    cfg: &GpuConfig,
) -> KernelTrace {
    let n = 4096;
    let mut mem = GpuMem::new();
    let buf = mem.alloc_f32_zeroed("buf", n * stride.max(1));
    trace_kernel(
        &Synth {
            buf,
            n,
            alu,
            stride,
            shared,
            divergent,
        },
        &mut mem,
        cfg,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// IPC never exceeds the machine's issue ceiling, cycles are
    /// positive, and re-timing is deterministic.
    #[test]
    fn ipc_bounded_and_deterministic(
        alu in 1u32..48,
        stride in 1usize..9,
        shared in proptest::bool::ANY,
        divergent in proptest::bool::ANY,
    ) {
        let cfg = GpuConfig::gpgpusim_default();
        let trace = build_trace(alu, stride, shared, divergent, &cfg);
        let s1 = time_trace(&trace, &cfg);
        let s2 = time_trace(&trace, &cfg);
        prop_assert!(s1.cycles > 0);
        prop_assert!(s1.ipc() <= (cfg.num_sms * cfg.warp_size) as f64 + 1e-9);
        prop_assert!(s1.bw_utilization() <= 1.0 + 1e-9);
        prop_assert_eq!(s1.cycles, s2.cycles);
        prop_assert_eq!(s1.thread_instructions, s2.thread_instructions);
    }

    /// More memory channels never slow a kernel down (same trace).
    #[test]
    fn channels_monotone(
        alu in 1u32..32,
        stride in 1usize..9,
    ) {
        let base = GpuConfig::gpgpusim_default();
        let trace = build_trace(alu, stride, false, false, &base);
        let c4 = time_trace(&trace, &base.with_mem_channels(4)).cycles;
        let c8 = time_trace(&trace, &base.with_mem_channels(8)).cycles;
        // Allow tiny slack: interleaving realigns queues.
        prop_assert!(c8 as f64 <= c4 as f64 * 1.02, "{c8} vs {c4}");
    }

    /// Concurrent execution conserves work, never beats the sum of the
    /// parts' best case (zero), and never exceeds serialized time by
    /// more than scheduling slack.
    #[test]
    fn concurrent_sanity(
        alu_a in 1u32..32,
        alu_b in 1u32..32,
    ) {
        let cfg = GpuConfig::gpgpusim_default();
        let ta = build_trace(alu_a, 1, false, false, &cfg);
        let tb = build_trace(alu_b, 2, true, false, &cfg);
        let sa = time_trace(&ta, &cfg);
        let sb = time_trace(&tb, &cfg);
        let conc = time_traces_concurrent(&[&ta, &tb], &cfg);
        prop_assert_eq!(
            conc.combined.thread_instructions,
            sa.thread_instructions + sb.thread_instructions
        );
        // Makespan at least the slower kernel alone, at most serial plus
        // slack.
        prop_assert!(conc.combined.cycles + 1 >= sa.cycles.max(sb.cycles) / 2);
        prop_assert!(
            conc.combined.cycles <= (sa.cycles + sb.cycles) * 12 / 10 + 100,
            "{} vs {}",
            conc.combined.cycles,
            sa.cycles + sb.cycles
        );
        prop_assert_eq!(conc.per_kernel_cycles.len(), 2);
    }

    /// Lane compaction never hurts, and helps divergent kernels.
    #[test]
    fn compaction_monotone(alu in 4u32..32) {
        let mut narrow = GpuConfig::gpgpusim_default();
        narrow.simd_width = 8;
        let trace = build_trace(alu, 1, false, true, &narrow);
        let base = time_trace(&trace, &narrow).cycles;
        let mut compact = narrow.clone();
        compact.lane_compaction = true;
        let fast = time_trace(&trace, &compact).cycles;
        prop_assert!(fast <= base, "compaction {fast} > baseline {base}");
    }
}

/// A kernel that requests another barrier phase forever — the classic
/// `while (true) __syncthreads();` bug.
struct NeverDone;

impl Kernel for NeverDone {
    fn name(&self) -> &str {
        "never-done"
    }
    fn shape(&self) -> GridShape {
        GridShape::new(1, 64)
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        w.alu(1);
        PhaseControl::Continue
    }
}

/// The launch watchdog converts a non-terminating kernel into a typed
/// error within its configured budget instead of hanging the process.
#[test]
fn watchdog_aborts_non_terminating_kernel() {
    let mut cfg = GpuConfig::gpgpusim_default();
    cfg.watchdog.max_phases = Some(256);
    let mut gpu = Gpu::try_new(cfg).expect("config is valid");
    match gpu.try_launch(&NeverDone) {
        Err(SimError::Watchdog {
            cycles,
            warps_stuck,
        }) => {
            assert_eq!(cycles, 256, "aborted exactly at the phase budget");
            assert_eq!(warps_stuck, 2, "two warps per 64-thread CTA");
        }
        other => panic!("expected SimError::Watchdog, got {other:?}"),
    }
}

/// The cycle watchdog bounds timing replay of a well-formed trace.
#[test]
fn cycle_watchdog_bounds_timing_replay() {
    let cfg = GpuConfig::gpgpusim_default();
    let trace = build_trace(32, 4, true, true, &cfg);
    let full = time_trace(&trace, &cfg);
    let mut tight = cfg.clone();
    tight.watchdog.max_cycles = Some(full.cycles / 2);
    match try_time_trace(&trace, &tight) {
        Err(SimError::Watchdog {
            cycles,
            warps_stuck,
        }) => {
            assert!(cycles <= full.cycles / 2 + 1, "stopped within budget");
            assert!(warps_stuck > 0);
        }
        other => panic!("expected SimError::Watchdog, got {other:?}"),
    }
    // A generous budget never fires.
    let mut roomy = cfg;
    roomy.watchdog.max_cycles = Some(full.cycles * 2 + 16);
    let s = try_time_trace(&trace, &roomy).expect("budget not reached");
    assert_eq!(s.cycles, full.cycles);
}

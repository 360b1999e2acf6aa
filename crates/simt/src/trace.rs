//! Functional kernel execution and trace capture.
//!
//! Runs every CTA of a launch sequentially (warps within a CTA in
//! lockstep phases, as described in [`crate::kernel`]), producing a
//! [`KernelTrace`] — the per-warp operation streams that the timing model
//! in [`crate::gpu`] replays.

use std::sync::OnceLock;

use crate::config::GpuConfig;
use crate::error::SimError;
use crate::isa::{ActiveMask, SegRange, TOp};
use crate::kernel::{Kernel, PhaseControl, WarpCtx};
use crate::memory::GpuMem;
use crate::sanitizer::{BarrierRecord, LaunchTape, TapeEvent};
use crate::stats::{MemMix, OccupancyHistogram};

/// The trace of one warp: its operation stream, with barriers inline,
/// and the one segment pool its memory ops index into. Capture and the
/// trace codec both leave the two vectors exact-size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpTrace {
    /// Captured operations in program order.
    pub ops: Vec<TOp>,
    /// Coalesced segment addresses of the memory ops, in program order;
    /// each op's run is at its [`SegRange`].
    pub segs: Vec<u64>,
}

impl WarpTrace {
    /// Appends `segs` to the pool and returns their range, or `None`
    /// (pool unchanged) if the range does not fit a [`SegRange`].
    pub fn push_segs(&mut self, segs: &[u64]) -> Option<SegRange> {
        let range = SegRange::new(self.segs.len(), segs.len())?;
        self.segs.extend_from_slice(segs);
        Some(range)
    }
}

/// The traces of all warps of one CTA.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtaTrace {
    /// One trace per warp, in warp order.
    pub warps: Vec<WarpTrace>,
}

/// A complete captured kernel launch.
///
/// Equality compares the captured fields only: the cached
/// [`KernelTrace::totals`] never takes part, so launch interning and
/// the capture goldens see the same traces as before they were counted.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// Kernel name.
    pub name: String,
    /// Per-CTA traces in launch order.
    pub ctas: Vec<CtaTrace>,
    /// Threads per block of the launch.
    pub threads_per_block: usize,
    /// Registers per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Shared memory per CTA in bytes (occupancy input).
    pub shared_bytes_per_cta: u32,
    /// Warp size the trace was captured with.
    pub warp_size: usize,
    /// The trace's [`TraceTotals`], counted on first use.
    totals: TotalsCache,
}

/// Everything a replay reports that no configuration can change: every
/// op of a trace issues exactly once, whatever the machine, so these
/// sums are counted once per trace instead of on every issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTotals {
    /// Scalar (thread-level) instructions.
    pub thread_instructions: u64,
    /// Warp-level instructions.
    pub warp_instructions: u64,
    /// Memory instructions by space, weighted by warp instructions.
    pub mem_mix: MemMix,
    /// Warp instructions by active-lane count.
    pub occupancy: OccupancyHistogram,
}

impl TraceTotals {
    /// Zero totals for warps of `warp_size` lanes.
    pub(crate) fn empty(warp_size: usize) -> TraceTotals {
        TraceTotals {
            thread_instructions: 0,
            warp_instructions: 0,
            mem_mix: MemMix::default(),
            occupancy: OccupancyHistogram::new(warp_size),
        }
    }

    /// Counts `trace` op by op.
    fn count(trace: &KernelTrace) -> TraceTotals {
        let mut t = TraceTotals::empty(trace.warp_size);
        for op in trace
            .ctas
            .iter()
            .flat_map(|c| &c.warps)
            .flat_map(|w| &w.ops)
        {
            let wi = op.warp_instructions();
            t.warp_instructions += wi;
            t.thread_instructions += op.thread_instructions();
            if op.lanes() > 0 {
                t.occupancy.record(op.lanes(), wi);
            }
            if let Some(space) = op.mem_space() {
                t.mem_mix.add(space, wi);
            }
        }
        t
    }

    /// Adds another trace's totals into these.
    pub(crate) fn merge(&mut self, other: &TraceTotals) {
        self.thread_instructions += other.thread_instructions;
        self.warp_instructions += other.warp_instructions;
        self.mem_mix.merge(&other.mem_mix);
        self.occupancy.merge(&other.occupancy);
    }
}

/// The lazily filled [`TraceTotals`] of one trace. It is not part of
/// what a trace *is*: every cache compares equal, and a clone starts
/// empty, so a copy that is edited before its first replay (as the
/// fault harness edits one) is counted afresh.
#[derive(Debug, Default)]
struct TotalsCache(OnceLock<TraceTotals>);

impl Clone for TotalsCache {
    fn clone(&self) -> Self {
        TotalsCache::default()
    }
}

impl PartialEq for TotalsCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl KernelTrace {
    /// A trace of `ctas` with the given launch geometry and resources.
    pub fn new(
        name: String,
        ctas: Vec<CtaTrace>,
        threads_per_block: usize,
        regs_per_thread: u32,
        shared_bytes_per_cta: u32,
        warp_size: usize,
    ) -> KernelTrace {
        KernelTrace {
            name,
            ctas,
            threads_per_block,
            regs_per_thread,
            shared_bytes_per_cta,
            warp_size,
            totals: TotalsCache::default(),
        }
    }

    /// The trace's instruction totals, counted on the first call and
    /// reused by every later replay. The trace must not be edited in
    /// place after that first call; debug builds recount and assert.
    pub fn totals(&self) -> &TraceTotals {
        let totals = self.totals.0.get_or_init(|| TraceTotals::count(self));
        debug_assert!(
            *totals == TraceTotals::count(self),
            "{}: cached totals are stale",
            self.name
        );
        totals
    }

    /// Total scalar (thread-level) instructions in the trace.
    pub fn thread_instructions(&self) -> u64 {
        self.totals().thread_instructions
    }

    /// Total warp-level instructions in the trace.
    pub fn warp_instructions(&self) -> u64 {
        self.totals().warp_instructions
    }

    /// Total warp-level operations (including barriers).
    pub fn total_ops(&self) -> usize {
        self.ctas
            .iter()
            .flat_map(|c| &c.warps)
            .map(|w| w.ops.len())
            .sum()
    }
}

/// Executes `kernel` functionally against `mem`, capturing its trace.
///
/// The trace depends only on the warp size, shared-memory bank count, and
/// coalescing segment size of `cfg`, so one trace can be re-timed under
/// many machine configurations (as the channel sweep and the
/// Plackett–Burman study do).
///
/// # Panics
///
/// Panics if the warps of a CTA disagree on [`PhaseControl`] (a malformed
/// kernel: barrier divergence is undefined behavior on real hardware
/// too), or if the kernel accesses memory out of bounds. Use
/// [`try_trace_kernel`] to receive those failures as [`SimError`]
/// instead.
pub fn trace_kernel(kernel: &dyn Kernel, mem: &mut GpuMem, cfg: &GpuConfig) -> KernelTrace {
    try_trace_kernel(kernel, mem, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`trace_kernel`].
///
/// # Errors
///
/// * [`SimError::EmptyGrid`] — the kernel declared zero blocks or zero
///   threads per block.
/// * [`SimError::KernelFault`] — the kernel accessed global, shared,
///   texture, or constant memory out of bounds; the launch is abandoned
///   at the end of the faulting warp's phase. Device memory may have
///   been partially written.
/// * [`SimError::BarrierDivergence`] — warps of one CTA disagreed on
///   [`PhaseControl`].
/// * [`SimError::Watchdog`] — a CTA requested more barrier phases than
///   `cfg.watchdog.max_phases` (the kernel never terminates).
pub fn try_trace_kernel(
    kernel: &dyn Kernel,
    mem: &mut GpuMem,
    cfg: &GpuConfig,
) -> Result<KernelTrace, SimError> {
    try_trace_kernel_with(kernel, mem, cfg, None)
}

/// [`try_trace_kernel`] with an optional sanitizer tape attached: every
/// per-lane resolved access and every CTA barrier vote is appended to
/// `tape.events` as execution proceeds (see [`crate::sanitizer`]). The
/// emitted [`KernelTrace`] is byte-identical with or without a tape.
///
/// On an error return the tape holds every event recorded up to the
/// abort — including the faulting access (flagged `faulted`) and, for
/// barrier divergence, the mixed vote vector. The caller is responsible
/// for stamping [`LaunchTape::aborted`] ([`crate::Gpu`] does).
///
/// # Errors
///
/// As [`try_trace_kernel`].
pub(crate) fn try_trace_kernel_with(
    kernel: &dyn Kernel,
    mem: &mut GpuMem,
    cfg: &GpuConfig,
    mut tape: Option<&mut LaunchTape>,
) -> Result<KernelTrace, SimError> {
    let _span = obs::span!("simt.trace.{}", kernel.name());
    let shape = kernel.shape();
    if shape.blocks == 0 || shape.threads_per_block == 0 {
        return Err(SimError::EmptyGrid {
            kernel: kernel.name().to_string(),
        });
    }
    let warp_size = cfg.warp_size as usize;
    let warps_per_block = shape.threads_per_block.div_ceil(warp_size);
    let mut ctas = Vec::with_capacity(shape.blocks);

    for block in 0..shape.blocks {
        let mut shared_f32 = vec![0.0f32; kernel.shared_f32_words()];
        let mut traces: Vec<WarpTrace> = vec![WarpTrace::default(); warps_per_block];

        let mut phase = 0usize;
        loop {
            if let Some(budget) = cfg.watchdog.max_phases {
                if phase as u64 >= budget {
                    return Err(SimError::Watchdog {
                        cycles: phase as u64,
                        warps_stuck: warps_per_block,
                    });
                }
            }
            let mut votes: Vec<PhaseControl> = Vec::with_capacity(warps_per_block);
            for (warp, trace) in traces.iter_mut().enumerate() {
                let lanes_in_warp = (shape.threads_per_block - warp * warp_size).min(warp_size);
                let mut ctx = WarpCtx {
                    mem,
                    shared_f32: &mut shared_f32,
                    trace,
                    block,
                    warp_in_block: warp,
                    warp_size,
                    threads_per_block: shape.threads_per_block,
                    phase,
                    mask: ActiveMask::first(lanes_in_warp),
                    banks: cfg.shared_banks,
                    seg_bytes: cfg.segment_bytes,
                    fault: None,
                    tape: tape.as_deref_mut(),
                };
                let pc = kernel.run_warp(&mut ctx);
                if let Some(reason) = ctx.fault.take() {
                    return Err(SimError::KernelFault {
                        kernel: kernel.name().to_string(),
                        reason,
                    });
                }
                votes.push(pc);
                if pc != votes[0] {
                    // Record the divergent vote vector (as collected so
                    // far) before abandoning: the sanitizer classifies
                    // barrier divergence from exactly this record.
                    if let Some(t) = tape.as_deref_mut() {
                        t.events.push(TapeEvent::Barrier(BarrierRecord {
                            block: block as u32,
                            phase: phase as u32,
                            continues: votes.iter().map(|v| *v == PhaseControl::Continue).collect(),
                        }));
                    }
                    return Err(SimError::BarrierDivergence {
                        kernel: kernel.name().to_string(),
                        block,
                        phase,
                    });
                }
            }
            match votes.first() {
                Some(PhaseControl::Continue) => {
                    if let Some(t) = tape.as_deref_mut() {
                        t.events.push(TapeEvent::Barrier(BarrierRecord {
                            block: block as u32,
                            phase: phase as u32,
                            continues: vec![true; warps_per_block].into_boxed_slice(),
                        }));
                    }
                    for t in &mut traces {
                        t.ops.push(TOp::Bar);
                    }
                    phase += 1;
                }
                _ => break,
            }
        }
        for t in &mut traces {
            t.ops.shrink_to_fit();
            t.segs.shrink_to_fit();
        }
        ctas.push(CtaTrace { warps: traces });
    }

    let trace = KernelTrace::new(
        kernel.name().to_string(),
        ctas,
        shape.threads_per_block,
        kernel.regs_per_thread(),
        kernel.shared_bytes(),
        warp_size,
    );
    // Once per launch, not per op: with the `simt.trace.*` spans this
    // gives capture time per warp op.
    obs::Registry::global().add("simt.trace.warp_ops", trace.total_ops() as u64);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::GridShape;
    use crate::memory::BufF32;

    /// Phase 0: each thread writes tid to shared; phase 1: each thread
    /// reads its neighbor's value (a classic barrier-dependent pattern).
    struct NeighborExchange {
        out: BufF32,
        n: usize,
    }

    impl Kernel for NeighborExchange {
        fn name(&self) -> &str {
            "neighbor-exchange"
        }
        fn shape(&self) -> GridShape {
            GridShape::cover(self.n, 64)
        }
        fn shared_f32_words(&self) -> usize {
            64
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
            let ltids = w.ltids();
            match w.phase() {
                0 => {
                    w.sh_st_f32(|lane, tid| Some((ltids[lane], tid as f32)));
                    PhaseControl::Continue
                }
                _ => {
                    let vals = w.sh_ld_f32(|lane, _| Some((ltids[lane] + 1) % 64));
                    let out = self.out;
                    let n = self.n;
                    w.st_f32(out, |lane, tid| (tid < n).then_some((tid, vals[lane])));
                    PhaseControl::Done
                }
            }
        }
    }

    #[test]
    fn barrier_phases_expose_other_warps_writes() {
        let cfg = GpuConfig::gpgpusim_default();
        let mut mem = GpuMem::new();
        let out = mem.alloc_f32_zeroed("out", 128);
        let k = NeighborExchange { out, n: 128 };
        let trace = trace_kernel(&k, &mut mem, &cfg);
        let got = mem.read_f32(out);
        // Thread 0 of block 0 reads the value written by local thread 1.
        assert_eq!(got[0], 1.0);
        // Thread 31 (warp 0) reads from thread 32 (warp 1): cross-warp.
        assert_eq!(got[31], 32.0);
        // Thread 63 wraps to local thread 0 of its own block.
        assert_eq!(got[63], 0.0);
        assert_eq!(got[127], 64.0);
        // Two CTAs of two warps each, with one barrier per warp.
        assert_eq!(trace.ctas.len(), 2);
        assert_eq!(trace.ctas[0].warps.len(), 2);
        let bar_count = trace.ctas[0].warps[0]
            .ops
            .iter()
            .filter(|o| matches!(o, TOp::Bar))
            .count();
        assert_eq!(bar_count, 1);
    }

    /// A kernel whose last warp is partially populated.
    struct Partial {
        out: BufF32,
        n: usize,
    }

    impl Kernel for Partial {
        fn name(&self) -> &str {
            "partial"
        }
        fn shape(&self) -> GridShape {
            GridShape::new(1, 40)
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
            let out = self.out;
            let n = self.n;
            w.st_f32(out, |_, tid| (tid < n).then_some((tid, 1.0)));
            PhaseControl::Done
        }
    }

    #[test]
    fn partial_warp_masks_trailing_lanes() {
        let cfg = GpuConfig::gpgpusim_default();
        let mut mem = GpuMem::new();
        let out = mem.alloc_f32_zeroed("out", 40);
        let trace = trace_kernel(&Partial { out, n: 40 }, &mut mem, &cfg);
        assert!(mem.read_f32(out).iter().all(|&v| v == 1.0));
        // Warp 1 has only 8 active lanes.
        let last = &trace.ctas[0].warps[1].ops[0];
        assert_eq!(last.lanes(), 8);
    }

    #[test]
    fn instruction_totals_are_consistent() {
        let cfg = GpuConfig::gpgpusim_default();
        let mut mem = GpuMem::new();
        let out = mem.alloc_f32_zeroed("out", 128);
        let trace = trace_kernel(&NeighborExchange { out, n: 128 }, &mut mem, &cfg);
        assert!(trace.thread_instructions() > trace.warp_instructions());
        assert!(trace.total_ops() > 0);
    }
}

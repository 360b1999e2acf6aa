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
use crate::sanitizer::{BarrierRecord, LaunchInfo, TapeSink};
use crate::shadow::SiteTable;
use crate::stats::{MemMix, OccupancyHistogram};

/// The most ops, and the most pool addresses, one warp's trace may
/// hold: replay keeps each warp's op and pool cursors in `u32`s.
pub const MAX_WARP_TRACE_LEN: usize = u32::MAX as usize;

/// The trace of one warp: its operation stream, with barriers inline,
/// and the one segment pool its memory ops take their addresses from.
/// Capture and the trace codec both leave the two vectors exact-size.
///
/// # The pool is read in program order
///
/// A memory op ([`TOp::Gmem`], [`TOp::Tex`]) stores only how many
/// addresses it takes ([`SegRange::len`]), not where they start. The
/// pool holds exactly the ops' runs, back to back in program order, so
/// an op's run starts at the sum of the earlier memory ops' lengths and
/// every reader walks the pool with a running cursor: replay keeps one
/// per warp, and [`WarpTrace::runs`] keeps one for everything else.
/// Capture appends each op's run with [`WarpTrace::push_segs`] as it
/// pushes the op, and the trace codec writes each op's run inline, so
/// both keep this invariant. Replay refuses a hand-built trace that
/// breaks it with [`SimError::MalformedTrace`] (see
/// [`KernelTrace::try_totals`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpTrace {
    /// Captured operations in program order.
    pub ops: Vec<TOp>,
    /// Coalesced segment addresses of the memory ops, one run per op in
    /// program order.
    pub segs: Vec<u64>,
}

impl WarpTrace {
    /// Appends `segs` to the pool as the run of the next memory op and
    /// returns its range, or `None` (pool unchanged) if the run does
    /// not fit a [`SegRange`] or the pool would outgrow
    /// [`MAX_WARP_TRACE_LEN`].
    pub fn push_segs(&mut self, segs: &[u64]) -> Option<SegRange> {
        let range = SegRange::new(segs.len())?;
        if self.segs.len() + segs.len() > MAX_WARP_TRACE_LEN {
            return None;
        }
        self.segs.extend_from_slice(segs);
        Some(range)
    }

    /// Each op with the run of pool addresses it names (empty for an op
    /// that is not a global, local or texture access), walking the pool
    /// in program order.
    ///
    /// # Panics
    ///
    /// Panics if the ops name more addresses than the pool holds.
    pub fn runs(&self) -> impl Iterator<Item = (&TOp, &[u64])> {
        let mut at = 0;
        self.ops.iter().map(move |op| match op.segs() {
            Some(range) => {
                let run = range.at(&self.segs, at);
                at += run.len();
                (op, run)
            }
            None => (op, &[][..]),
        })
    }
}

/// Why replay cannot walk a warp of `ops` ops whose pool holds `pool`
/// addresses while its ops name `named`, or `None` if it can.
fn malformed(ops: usize, pool: usize, named: u64) -> Option<String> {
    if ops > MAX_WARP_TRACE_LEN {
        Some(format!("{ops} ops, more than 2^32 - 1"))
    } else if pool > MAX_WARP_TRACE_LEN {
        Some(format!("{pool} pool addresses, more than 2^32 - 1"))
    } else if named != pool as u64 {
        Some(format!(
            "its ops name {named} segment addresses but its pool holds {pool}"
        ))
    } else {
        None
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

    /// Counts `trace` op by op, checking that each warp's ops name
    /// exactly the addresses its pool holds.
    fn count(trace: &KernelTrace) -> Result<TraceTotals, SimError> {
        let mut t = TraceTotals::empty(trace.warp_size);
        for (cta, c) in trace.ctas.iter().enumerate() {
            for (warp, w) in c.warps.iter().enumerate() {
                let mut named = 0u64;
                for op in &w.ops {
                    let wi = op.warp_instructions();
                    t.warp_instructions += wi;
                    t.thread_instructions += op.thread_instructions();
                    if op.lanes() > 0 {
                        t.occupancy.record(op.lanes(), wi);
                    }
                    if let Some(space) = op.mem_space() {
                        t.mem_mix.add(space, wi);
                    }
                    if let Some(range) = op.segs() {
                        named += u64::from(range.len);
                    }
                }
                if let Some(reason) = malformed(w.ops.len(), w.segs.len(), named) {
                    return Err(SimError::MalformedTrace {
                        kernel: trace.name.clone(),
                        cta,
                        warp,
                        reason,
                    });
                }
            }
        }
        Ok(t)
    }

    /// Adds another trace's totals into these.
    pub(crate) fn merge(&mut self, other: &TraceTotals) {
        self.thread_instructions += other.thread_instructions;
        self.warp_instructions += other.warp_instructions;
        self.mem_mix.merge(&other.mem_mix);
        self.occupancy.merge(&other.occupancy);
    }
}

/// The lazily filled [`TraceTotals`] of one trace, or why it cannot be
/// replayed. It is not part of what a trace *is*: every cache compares
/// equal, and a clone starts empty, so a copy that is edited before its
/// first replay (as the fault harness edits one) is counted afresh.
#[derive(Debug, Default)]
struct TotalsCache(OnceLock<Result<TraceTotals, SimError>>);

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
    ///
    /// The same pass checks, once per trace, what replay's per-warp
    /// cursors rely on: each warp's ops name exactly the addresses its
    /// pool holds, and neither its ops nor its pool outgrow
    /// [`MAX_WARP_TRACE_LEN`].
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedTrace`] for the first warp that breaks that.
    pub fn try_totals(&self) -> Result<&TraceTotals, SimError> {
        let totals = self.totals.0.get_or_init(|| TraceTotals::count(self));
        debug_assert!(
            *totals == TraceTotals::count(self),
            "{}: cached totals are stale",
            self.name
        );
        totals.as_ref().map_err(Clone::clone)
    }

    /// [`KernelTrace::try_totals`] of a well-formed trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is malformed.
    pub fn totals(&self) -> &TraceTotals {
        self.try_totals().unwrap_or_else(|e| panic!("{e}"))
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

/// The sanitizer attachment of one launch: where its events go, the
/// launch they belong to, and its op-site table.
pub(crate) struct Tap<'a> {
    pub(crate) launch: &'a LaunchInfo,
    pub(crate) sites: &'a mut SiteTable,
    pub(crate) sink: &'a mut dyn TapeSink,
}

impl Tap<'_> {
    /// The same attachment, borrowed for one warp's context.
    pub(crate) fn reborrow(&mut self) -> Tap<'_> {
        Tap {
            launch: self.launch,
            sites: &mut *self.sites,
            sink: &mut *self.sink,
        }
    }

    fn barrier(&mut self, block: usize, phase: usize, continues: Box<[bool]>) {
        let record = BarrierRecord {
            block: block as u32,
            phase: phase as u32,
            continues,
        };
        self.sink.barrier(self.launch, &record);
    }
}

/// [`try_trace_kernel`] with an optional sanitizer attached: every
/// per-lane resolved access and every CTA barrier vote goes to the
/// tap's sink as execution proceeds (see [`crate::sanitizer`]). The
/// emitted [`KernelTrace`] is byte-identical with or without a tap.
///
/// On an error return the sink has seen every event up to the abort —
/// including the faulting access (flagged `faulted`) and, for barrier
/// divergence, the mixed vote vector. Beginning and ending the launch
/// on the sink is the caller's job ([`crate::Gpu`] does both).
///
/// # Errors
///
/// As [`try_trace_kernel`].
pub(crate) fn try_trace_kernel_with(
    kernel: &dyn Kernel,
    mem: &mut GpuMem,
    cfg: &GpuConfig,
    mut tape: Option<Tap<'_>>,
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
                    tape: tape.as_mut().map(Tap::reborrow),
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
                    if let Some(t) = tape.as_mut() {
                        let continues = votes.iter().map(|v| *v == PhaseControl::Continue);
                        t.barrier(block, phase, continues.collect());
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
                    if let Some(t) = tape.as_mut() {
                        t.barrier(block, phase, vec![true; warps_per_block].into());
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
    fn a_warp_past_u32_max_ops_or_addresses_is_malformed() {
        let max = MAX_WARP_TRACE_LEN;
        assert_eq!(malformed(max, max, max as u64), None);
        assert!(malformed(max + 1, 0, 0).unwrap().contains("ops"));
        let reason = malformed(1, max + 1, max as u64 + 1).unwrap();
        assert!(reason.contains("pool addresses"), "{reason}");
        assert!(malformed(1, 3, 2).unwrap().contains("name 2"));
    }

    #[test]
    fn push_segs_refuses_a_run_wider_than_a_range() {
        let mut warp = WarpTrace::default();
        assert_eq!(warp.push_segs(&[0; 3]), Some(SegRange { len: 3 }));
        assert_eq!(warp.push_segs(&vec![0; 1 << 16]), None);
        assert_eq!(
            warp.segs.len(),
            3,
            "a refused run leaves the pool as it was"
        );
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

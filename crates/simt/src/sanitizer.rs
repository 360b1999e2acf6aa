//! Sanitizer instrumentation: the per-launch access **events** and the
//! sink that receives them.
//!
//! The timing trace ([`crate::KernelTrace`]) deliberately forgets *which
//! words* a warp touched — it keeps only the coalesced shape of each
//! access, because that is all the timing model needs. A
//! compute-sanitizer-style checker needs the opposite: the exact per-lane
//! resolved word indices, the allocation each access targeted, and the
//! per-warp barrier votes. This module defines those events and the
//! [`TapeSink`] through which [`crate::Gpu`] delivers them *as the
//! launch executes*: one [`TapeSink::begin`] with the launch's
//! [`LaunchInfo`] (geometry and allocation snapshot), one
//! [`TapeSink::access`] per warp-level memory instruction, one
//! [`TapeSink::barrier`] per CTA barrier, and one [`TapeSink::end`]
//! with the abort error, if any. Functional execution is sequential
//! within a launch, so the events arrive in execution order and a
//! consumer can fold them without holding them: an access's lane words
//! are borrowed from the warp's stack buffer for the duration of the
//! call. The sink is the only way events leave the simulator: nothing
//! holds a launch's events whole.
//!
//! Taping is **off by default and free when off**: the executor carries
//! an `Option` that is `None` unless a sink is installed, every
//! recording site is guarded by that option, and no emitted
//! [`crate::TOp`] changes either way — captured traces (and therefore
//! every replayed statistic) are byte-identical with the sanitizer on or
//! off.
//!
//! Each access additionally carries the **static op site** that issued
//! it — the kernel-source `file:line:column` of the `ld_*`/`st_*` call,
//! captured via `#[track_caller]` and interned into the launch's
//! [`SiteTable`] (see [`crate::shadow`]), which every access and the
//! end of the launch pass to the sink. The contract-inference layer
//! groups accesses by site to fit one symbolic form per static memory
//! instruction.
//!
//! The end of a launch is delivered even when the launch aborts with a
//! [`SimError`] (out-of-bounds access, barrier divergence, watchdog …):
//! the events recorded up to the abort, plus the error itself, are
//! exactly what a checker needs to classify the failure. The
//! `crates/sanitize` crate consumes these events.

use std::any::Any;

use crate::config::GpuConfig;
use crate::error::SimError;
use crate::isa::MemSpace;
use crate::kernel::Kernel;
use crate::memory::GpuMem;
use crate::shadow::SiteTable;

/// Which direction a recorded access moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read (global, texture, constant, or shared load).
    Load,
    /// A write (global or shared store).
    Store,
}

/// The allocation an access resolved into.
///
/// Global indices refer to [`LaunchInfo::allocs_f32`] /
/// [`LaunchInfo::allocs_u32`]; shared accesses target the CTA's `f32`
/// scratch declared by the kernel ([`LaunchInfo::shared_f32_words`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapeBuf {
    /// A global `f32` buffer (index into the allocation table).
    GlobalF32(u32),
    /// A global `u32` buffer (index into the allocation table).
    GlobalU32(u32),
    /// The CTA's `f32` shared-memory scratch.
    SharedF32,
}

/// One warp-level memory instruction with per-lane resolved word
/// indices, as the executor hands it to a [`TapeSink`]: the lane words
/// are borrowed for the duration of one [`TapeSink::access`] call.
#[derive(Debug, Clone)]
pub struct MemAccess<'a> {
    /// CTA (block) index of the accessing warp.
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Barrier phase in which the access executed.
    pub phase: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Memory space of the instruction (global/texture/constant/shared).
    pub space: MemSpace,
    /// Target allocation.
    pub buf: TapeBuf,
    /// Static op site that issued the access (id into the launch's
    /// [`SiteTable`]): the kernel-source location of the `ld_*`/`st_*`
    /// call, shared by every dynamic execution of that instruction.
    pub site: u32,
    /// `(lane, word index)` for each participating lane, in lane order.
    pub lane_words: &'a [(u8, u32)],
    /// `true` if the access faulted: the **last** entry of `lane_words`
    /// is the out-of-range word and the remaining lanes were suppressed.
    pub faulted: bool,
}

/// The barrier votes of one CTA at the end of one phase.
///
/// Recorded whenever a CTA passes a barrier (all warps voted `Continue`)
/// or aborts on a divergent vote; `continues[w]` is warp *w*'s vote. A
/// mixed vector is barrier divergence — some warps arrived at
/// `__syncthreads()` while others exited the kernel.
#[derive(Debug, Clone)]
pub struct BarrierRecord {
    /// CTA (block) index.
    pub block: u32,
    /// Phase the votes conclude.
    pub phase: u32,
    /// Per-warp vote: `true` = `Continue` (arrived at the barrier).
    pub continues: Box<[bool]>,
}

/// Extent (and initialization state) of one global allocation at launch
/// time.
#[derive(Debug, Clone)]
pub struct AllocInfo {
    /// Name given at allocation time.
    pub name: String,
    /// Length in 4-byte words.
    pub words: u32,
    /// Whether the contents were defined before any kernel ran: `true`
    /// for host-initialized and zero-filled (`cudaMemset`-style)
    /// allocations, `false` for [`GpuMem::alloc_f32_uninit`] /
    /// [`GpuMem::alloc_u32_uninit`].
    pub initialized: bool,
}

/// What a sink knows about a launch before its first event: the launch
/// geometry and the allocation tables.
#[derive(Debug, Clone)]
pub struct LaunchInfo {
    /// Kernel name.
    pub kernel: String,
    /// Number of CTAs launched.
    pub blocks: u32,
    /// Threads per CTA.
    pub threads_per_block: u32,
    /// Warp size of the capture.
    pub warp_size: u32,
    /// Words of per-CTA `f32` shared scratch.
    pub shared_f32_words: u32,
    /// Global `f32` allocations at launch time, in allocation order.
    pub allocs_f32: Vec<AllocInfo>,
    /// Global `u32` allocations at launch time, in allocation order.
    pub allocs_u32: Vec<AllocInfo>,
}

impl LaunchInfo {
    /// Describes a launch of `kernel` against `mem`, snapshotting the
    /// allocation table.
    pub fn for_launch(kernel: &dyn Kernel, mem: &GpuMem, cfg: &GpuConfig) -> LaunchInfo {
        let shape = kernel.shape();
        LaunchInfo {
            kernel: kernel.name().to_string(),
            blocks: shape.blocks as u32,
            threads_per_block: shape.threads_per_block as u32,
            warp_size: cfg.warp_size,
            shared_f32_words: kernel.shared_f32_words() as u32,
            allocs_f32: mem.snapshot_f32(),
            allocs_u32: mem.snapshot_u32(),
        }
    }

    /// Word extent of `buf` under this launch's allocation tables
    /// (`None` for a global index past the snapshot, which cannot occur
    /// for accesses produced by the executor).
    pub fn extent(&self, buf: TapeBuf) -> Option<u32> {
        match buf {
            TapeBuf::GlobalF32(i) => self.allocs_f32.get(i as usize).map(|a| a.words),
            TapeBuf::GlobalU32(i) => self.allocs_u32.get(i as usize).map(|a| a.words),
            TapeBuf::SharedF32 => Some(self.shared_f32_words),
        }
    }

    /// Human-readable name of `buf` ("shared f32" / the allocation name).
    pub fn buf_name(&self, buf: TapeBuf) -> &str {
        match buf {
            TapeBuf::GlobalF32(i) => self
                .allocs_f32
                .get(i as usize)
                .map_or("<unknown f32>", |a| a.name.as_str()),
            TapeBuf::GlobalU32(i) => self
                .allocs_u32
                .get(i as usize)
                .map_or("<unknown u32>", |a| a.name.as_str()),
            TapeBuf::SharedF32 => "shared f32",
        }
    }
}

/// A consumer of sanitizer events, installed on a device with
/// [`crate::Gpu::set_tape_sink`].
///
/// Every launch makes exactly one [`begin`](TapeSink::begin), then its
/// accesses and barriers in execution order, then exactly one
/// [`end`](TapeSink::end) — also when the launch aborts. The `launch`
/// passed to each call is the one `begin` received, and `sites` is the
/// launch's op-site table as interned so far (it covers every site id
/// the launch's accesses carry). A sink is [`Any`] so the device can
/// hand the concrete consumer back ([`crate::Gpu::take_tape_sink`]).
pub trait TapeSink: Any + Send + Sync {
    /// A launch is about to execute.
    fn begin(&mut self, launch: &LaunchInfo);
    /// One warp-level memory access of the current launch.
    fn access(&mut self, launch: &LaunchInfo, sites: &SiteTable, access: &MemAccess<'_>);
    /// One CTA barrier (or divergent attempt at one) of the current
    /// launch.
    fn barrier(&mut self, launch: &LaunchInfo, barrier: &BarrierRecord);
    /// The current launch is over: completed, or abandoned with
    /// `aborted`.
    fn end(&mut self, launch: &LaunchInfo, sites: &SiteTable, aborted: Option<&SimError>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{GridShape, PhaseControl, WarpCtx};

    struct Nop;
    impl Kernel for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn shape(&self) -> GridShape {
            GridShape::new(2, 64)
        }
        fn shared_f32_words(&self) -> usize {
            32
        }
        fn run_warp(&self, _w: &mut WarpCtx<'_>) -> PhaseControl {
            PhaseControl::Done
        }
    }

    #[test]
    fn tape_snapshots_allocations_and_geometry() {
        let cfg = GpuConfig::gpgpusim_default();
        let mut mem = GpuMem::new();
        let a = mem.alloc_f32("a", &[0.0; 100]);
        let b = mem.alloc_u32_zeroed("b", 7);
        let c = mem.alloc_f32_uninit("c", 9);
        let tape = LaunchInfo::for_launch(&Nop, &mem, &cfg);
        assert_eq!(tape.blocks, 2);
        assert_eq!(tape.threads_per_block, 64);
        assert_eq!(tape.shared_f32_words, 32);
        assert_eq!(tape.allocs_f32.len(), 2);
        assert_eq!(tape.allocs_u32.len(), 1);
        assert!(tape.allocs_f32[0].initialized);
        assert!(tape.allocs_u32[0].initialized);
        assert!(!tape.allocs_f32[1].initialized);
        assert_eq!(tape.extent(TapeBuf::GlobalF32(0)), Some(100));
        assert_eq!(tape.extent(TapeBuf::GlobalU32(0)), Some(7));
        assert_eq!(tape.extent(TapeBuf::SharedF32), Some(32));
        assert_eq!(tape.buf_name(TapeBuf::GlobalF32(1)), "c");
        assert_eq!(tape.buf_name(TapeBuf::SharedF32), "shared f32");
        let _ = (a, b, c);
    }
}

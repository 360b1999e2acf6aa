//! The warp-explicit kernel DSL.
//!
//! Kernels are written the way CUDA kernels are *executed*: one warp at a
//! time, in lockstep, with an active-lane mask. A kernel implements
//! [`Kernel::run_warp`], which both performs the real computation (reading
//! and writing [`crate::GpuMem`] buffers and per-CTA shared memory) and
//! emits the warp-level operation trace the timing model replays.
//!
//! Control divergence is expressed with [`WarpCtx::if_else`] /
//! [`WarpCtx::if_active`] / [`WarpCtx::loop_while`], which serialize the
//! taken and not-taken paths under complementary masks — the SIMT
//! post-dominator reconvergence model.
//!
//! `__syncthreads()` barriers split a kernel into *phases*: the executor
//! runs phase *k* of every warp in a CTA before any warp starts phase
//! *k + 1*, so shared-memory producer/consumer patterns behave exactly as
//! they would on hardware. Return [`PhaseControl::Continue`] to request
//! another phase (all warps of a CTA must agree).

use std::ops::{Deref, DerefMut};

use crate::banks::{distinct_words, warp_conflict_degree};
use crate::coalesce::coalesce;
use crate::isa::{ActiveMask, MemSpace, SegRange, TOp, MAX_WARP_SIZE};
use crate::memory::{BufF32, BufU32, GpuMem};
use crate::sanitizer::{AccessKind, LaunchTape, MemAccess, TapeBuf, TapeEvent};
use crate::trace::WarpTrace;

/// Whether a warp has more phases (barrier-separated sections) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseControl {
    /// The kernel is finished for this warp.
    Done,
    /// Run another phase after a CTA-wide barrier.
    Continue,
}

/// Grid dimensions of a kernel launch (linearized, CUDA-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridShape {
    /// Number of thread blocks (CTAs).
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
}

impl GridShape {
    /// A grid of exactly `blocks` CTAs of `threads_per_block` threads.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(blocks: usize, threads_per_block: usize) -> GridShape {
        assert!(blocks > 0 && threads_per_block > 0, "empty grid");
        GridShape {
            blocks,
            threads_per_block,
        }
    }

    /// The smallest grid of `threads_per_block`-sized CTAs covering `n`
    /// threads — the ubiquitous `(n + tpb - 1) / tpb` launch idiom.
    pub fn cover(n: usize, threads_per_block: usize) -> GridShape {
        assert!(threads_per_block > 0, "empty block");
        GridShape {
            blocks: n.div_ceil(threads_per_block).max(1),
            threads_per_block,
        }
    }
}

/// A GPU kernel: functional behavior plus trace emission, one warp at a
/// time.
pub trait Kernel {
    /// Kernel name (appears in statistics and reports).
    fn name(&self) -> &str;

    /// Launch dimensions.
    fn shape(&self) -> GridShape;

    /// Registers used per thread (occupancy limit input).
    fn regs_per_thread(&self) -> u32 {
        16
    }

    /// Per-CTA shared-memory words of `f32` scratch.
    fn shared_f32_words(&self) -> usize {
        0
    }

    /// Per-CTA shared-memory words of `u32` scratch.
    fn shared_u32_words(&self) -> usize {
        0
    }

    /// Per-CTA shared memory in bytes (occupancy limit input).
    fn shared_bytes(&self) -> u32 {
        ((self.shared_f32_words() + self.shared_u32_words()) * 4) as u32
    }

    /// Executes the current phase of one warp. Use [`WarpCtx::phase`] to
    /// tell phases apart; returning [`PhaseControl::Continue`] inserts a
    /// CTA-wide barrier and runs the next phase.
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl;
}

/// The per-lane staging of one warp access — byte addresses, constant
/// indices or shared `(lane, word)` pairs — held on the stack. Each
/// active lane stages at most one entry and a warp has at most
/// [`MAX_WARP_SIZE`] lanes, so staging an access never allocates.
struct Lanes<T> {
    items: [T; MAX_WARP_SIZE],
    len: usize,
}

impl<T: Copy + Default> Lanes<T> {
    fn new() -> Lanes<T> {
        Lanes {
            items: [T::default(); MAX_WARP_SIZE],
            len: 0,
        }
    }

    fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T> Deref for Lanes<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T> DerefMut for Lanes<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

/// Execution context of one warp during one phase.
///
/// All `ld_*`/`st_*` methods take a closure mapping
/// `(lane, global_thread_id)` to an element index (or `None` for lanes
/// that do not participate in the access); they perform the real data
/// movement *and* record the coalesced memory operation in the warp's
/// trace. The access path itself is allocation-free: a lane's thread id
/// is computed, not looked up, and the lanes' addresses or words are
/// staged in a fixed stack buffer (`Lanes`) that the coalescer and the
/// bank-conflict counter read in place. Only the returned per-lane
/// values and, with a sanitizer attached, the tape's word lists touch
/// the heap.
pub struct WarpCtx<'a> {
    pub(crate) mem: &'a mut GpuMem,
    pub(crate) shared_f32: &'a mut [f32],
    pub(crate) shared_u32: &'a mut [u32],
    pub(crate) trace: &'a mut WarpTrace,
    pub(crate) block: usize,
    pub(crate) warp_in_block: usize,
    pub(crate) warp_size: usize,
    pub(crate) threads_per_block: usize,
    pub(crate) phase: usize,
    pub(crate) mask: ActiveMask,
    pub(crate) banks: u32,
    pub(crate) seg_bytes: u32,
    /// First out-of-bounds access of this warp, if any. Set by the
    /// `ld_*`/`st_*` methods instead of panicking; once set, subsequent
    /// accesses become no-ops and the executor abandons the launch with
    /// [`crate::SimError::KernelFault`] when `run_warp` returns.
    pub(crate) fault: Option<String>,
    /// Sanitizer tape of the enclosing launch, when a sink is installed
    /// (`None` in normal runs: every recording site is guarded on it, so
    /// taping never perturbs the emitted trace). Accesses are appended
    /// to its event stream and their op sites interned into its
    /// [`crate::shadow::SiteTable`].
    pub(crate) tape: Option<&'a mut LaunchTape>,
}

impl std::fmt::Debug for WarpCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpCtx")
            .field("block", &self.block)
            .field("warp_in_block", &self.warp_in_block)
            .field("warp_size", &self.warp_size)
            .field("threads_per_block", &self.threads_per_block)
            .field("phase", &self.phase)
            .field("mask", &self.mask)
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

impl WarpCtx<'_> {
    /// The warp size (lanes per warp).
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// Linear block (CTA) index.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Warp index within the block.
    pub fn warp(&self) -> usize {
        self.warp_in_block
    }

    /// Current phase number (0 before the first barrier).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The current active mask.
    pub fn mask(&self) -> ActiveMask {
        self.mask
    }

    /// Records the warp's first memory fault; later accesses are
    /// suppressed so one bad index does not cascade into a storm of
    /// follow-on damage before the executor aborts the launch.
    fn record_fault(&mut self, reason: String) {
        if self.fault.is_none() {
            self.fault = Some(reason);
        }
    }

    fn faulted(&self) -> bool {
        self.fault.is_some()
    }

    /// Whether a sanitizer tape is attached to this launch.
    fn taping(&self) -> bool {
        self.tape.is_some()
    }

    /// Records one warp-level access on the sanitizer tape (no-op when
    /// no tape is attached; `words` is empty in that case too, because
    /// the access methods only collect words while taping).
    ///
    /// `#[track_caller]` — and the same attribute on every access method
    /// between here and the kernel — makes [`std::panic::Location`]
    /// resolve to the *kernel-source* call site, which is interned as the
    /// access's static op-site id.
    #[track_caller]
    fn tape_access(
        &mut self,
        kind: AccessKind,
        space: MemSpace,
        buf: TapeBuf,
        words: Vec<(u8, u32)>,
        faulted: bool,
    ) {
        if words.is_empty() {
            return;
        }
        let loc = std::panic::Location::caller();
        if let Some(tape) = self.tape.as_deref_mut() {
            let site = tape.sites.intern(loc);
            tape.events.push(TapeEvent::Access(MemAccess {
                block: self.block as u32,
                warp: self.warp_in_block as u32,
                phase: self.phase as u32,
                kind,
                space,
                buf,
                site,
                lane_words: words.into_boxed_slice(),
                faulted,
            }));
        }
    }

    /// Global thread id of lane 0; lane `l` is thread `tid0() + l`.
    fn tid0(&self) -> usize {
        self.block * self.threads_per_block + self.warp_in_block * self.warp_size
    }

    /// Global thread id of each lane (length = warp size, including
    /// inactive lanes).
    pub fn tids(&self) -> Vec<usize> {
        let base = self.tid0();
        (0..self.warp_size).map(|l| base + l).collect()
    }

    /// Thread id within the block, per lane.
    pub fn ltids(&self) -> Vec<usize> {
        let base = self.warp_in_block * self.warp_size;
        (0..self.warp_size).map(|l| base + l).collect()
    }

    /// Per-lane activity flags under the current mask.
    pub fn active(&self) -> Vec<bool> {
        (0..self.warp_size).map(|l| self.mask.lane(l)).collect()
    }

    // ---- compute accounting -------------------------------------------

    /// Records `n` back-to-back arithmetic instructions by the active
    /// lanes.
    pub fn alu(&mut self, n: u32) {
        if n > 0 && !self.mask.is_empty() {
            self.trace.ops.push(TOp::Alu {
                n,
                lanes: self.mask.count() as u8,
            });
        }
    }

    /// Records `n` special-function (transcendental) instructions.
    pub fn sfu(&mut self, n: u32) {
        if n > 0 && !self.mask.is_empty() {
            self.trace.ops.push(TOp::Sfu {
                n,
                lanes: self.mask.count() as u8,
            });
        }
    }

    /// Records `n` kernel-parameter loads (always cache hits).
    pub fn param(&mut self, n: u32) {
        if n > 0 && !self.mask.is_empty() {
            self.trace.ops.push(TOp::Param {
                n,
                lanes: self.mask.count() as u8,
            });
        }
    }

    // ---- global memory -------------------------------------------------

    /// Instructions a real kernel spends computing each global/texture
    /// address (index arithmetic, base+offset, bounds tests).
    const GMEM_ADDR_ALU: u32 = 4;
    /// Ditto for on-chip accesses (shared/constant/parameter), whose
    /// addressing is simpler.
    const ONCHIP_ADDR_ALU: u32 = 2;

    fn emit_gmem(&mut self, space: MemSpace, store: bool, addrs: &[u64]) {
        if addrs.is_empty() {
            return;
        }
        // Address-generation arithmetic accompanies every memory
        // instruction in the real ISA; without it, instruction counts
        // (and thus IPC) would be far below what GPGPU-Sim reports.
        self.alu(Self::GMEM_ADDR_ALU);
        let pool = &mut self.trace.segs;
        let start = pool.len();
        let n = coalesce(addrs, 4, self.seg_bytes, pool);
        let Some(segs) = SegRange::new(start, n) else {
            pool.truncate(start);
            self.record_fault("warp segment pool exceeds 2^32 addresses".to_string());
            return;
        };
        let lanes = self.mask.count() as u8;
        let op = match space {
            MemSpace::Texture => TOp::Tex { lanes, segs },
            _ => TOp::Gmem {
                space,
                store,
                lanes,
                segs,
            },
        };
        self.trace.ops.push(op);
    }

    #[track_caller]
    fn gather_f32(
        &mut self,
        buf: BufF32,
        space: MemSpace,
        mut f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<f32> {
        let tid0 = self.tid0();
        let base = self.mem.base_f32(buf);
        let data_len = self.mem.len_f32(buf);
        let mut out = vec![0.0f32; self.warp_size];
        if self.faulted() {
            return out;
        }
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut addrs = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some(idx) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                if idx >= data_len {
                    self.record_fault(format!(
                        "read out of bounds: {}[{idx}] (len {data_len})",
                        self.mem.name_f32(buf)
                    ));
                    let tb = TapeBuf::GlobalF32(buf.0 as u32);
                    self.tape_access(AccessKind::Load, space, tb, twords, true);
                    return out;
                }
                out[lane] = self.mem.f32_slice(buf)[idx];
                addrs.push(base + idx as u64 * 4);
            }
        }
        self.emit_gmem(space, false, &addrs);
        let tb = TapeBuf::GlobalF32(buf.0 as u32);
        self.tape_access(AccessKind::Load, space, tb, twords, false);
        out
    }

    /// Loads `f32` values from global memory (coalesced, uncached unless
    /// the configuration has an L1/L2).
    #[track_caller]
    pub fn ld_f32(
        &mut self,
        buf: BufF32,
        f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<f32> {
        self.gather_f32(buf, MemSpace::Global, f)
    }

    /// Loads `f32` values through the texture cache.
    #[track_caller]
    pub fn ld_tex_f32(
        &mut self,
        buf: BufF32,
        f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<f32> {
        self.gather_f32(buf, MemSpace::Texture, f)
    }

    /// Loads `f32` values from constant memory. Distinct addresses among
    /// active lanes serialize the broadcast.
    #[track_caller]
    pub fn ld_const_f32(
        &mut self,
        buf: BufF32,
        mut f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<f32> {
        let tid0 = self.tid0();
        let data_len = self.mem.len_f32(buf);
        let mut out = vec![0.0f32; self.warp_size];
        if self.faulted() {
            return out;
        }
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut idxs = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some(idx) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                if idx >= data_len {
                    self.record_fault(format!(
                        "constant read out of bounds: {}[{idx}] (len {data_len})",
                        self.mem.name_f32(buf)
                    ));
                    let tb = TapeBuf::GlobalF32(buf.0 as u32);
                    self.tape_access(AccessKind::Load, MemSpace::Constant, tb, twords, true);
                    return out;
                }
                out[lane] = self.mem.f32_slice(buf)[idx];
                idxs.push(idx);
            }
        }
        let tb = TapeBuf::GlobalF32(buf.0 as u32);
        self.tape_access(AccessKind::Load, MemSpace::Constant, tb, twords, false);
        if !idxs.is_empty() {
            let unique = distinct_words(&mut idxs);
            self.alu(Self::ONCHIP_ADDR_ALU);
            self.trace.ops.push(TOp::Const {
                lanes: self.mask.count() as u8,
                unique: unique.min(255) as u8,
            });
        }
        out
    }

    /// Stores `f32` values to global memory.
    #[track_caller]
    pub fn st_f32(&mut self, buf: BufF32, mut f: impl FnMut(usize, usize) -> Option<(usize, f32)>) {
        if self.faulted() {
            return;
        }
        let tid0 = self.tid0();
        let base = self.mem.base_f32(buf);
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut addrs = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some((idx, val)) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                let data = self.mem.f32_slice_mut(buf);
                if idx >= data.len() {
                    let len = data.len();
                    self.record_fault(format!(
                        "write out of bounds: {}[{idx}] (len {len})",
                        self.mem.name_f32(buf)
                    ));
                    let tb = TapeBuf::GlobalF32(buf.0 as u32);
                    self.tape_access(AccessKind::Store, MemSpace::Global, tb, twords, true);
                    return;
                }
                data[idx] = val;
                addrs.push(base + idx as u64 * 4);
            }
        }
        self.emit_gmem(MemSpace::Global, true, &addrs);
        let tb = TapeBuf::GlobalF32(buf.0 as u32);
        self.tape_access(AccessKind::Store, MemSpace::Global, tb, twords, false);
    }

    /// Loads `u32` values from global memory.
    #[track_caller]
    pub fn ld_u32(
        &mut self,
        buf: BufU32,
        mut f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<u32> {
        let tid0 = self.tid0();
        let base = self.mem.base_u32(buf);
        let data_len = self.mem.len_u32(buf);
        let mut out = vec![0u32; self.warp_size];
        if self.faulted() {
            return out;
        }
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut addrs = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some(idx) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                if idx >= data_len {
                    self.record_fault(format!(
                        "read out of bounds: {}[{idx}] (len {data_len})",
                        self.mem.name_u32(buf)
                    ));
                    let tb = TapeBuf::GlobalU32(buf.0 as u32);
                    self.tape_access(AccessKind::Load, MemSpace::Global, tb, twords, true);
                    return out;
                }
                out[lane] = self.mem.u32_slice(buf)[idx];
                addrs.push(base + idx as u64 * 4);
            }
        }
        self.emit_gmem(MemSpace::Global, false, &addrs);
        let tb = TapeBuf::GlobalU32(buf.0 as u32);
        self.tape_access(AccessKind::Load, MemSpace::Global, tb, twords, false);
        out
    }

    /// Loads `u32` values through the texture cache.
    #[track_caller]
    pub fn ld_tex_u32(
        &mut self,
        buf: BufU32,
        mut f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<u32> {
        let tid0 = self.tid0();
        let base = self.mem.base_u32(buf);
        let data_len = self.mem.len_u32(buf);
        let mut out = vec![0u32; self.warp_size];
        if self.faulted() {
            return out;
        }
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut addrs = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some(idx) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                if idx >= data_len {
                    self.record_fault(format!(
                        "texture read out of bounds: {}[{idx}] (len {data_len})",
                        self.mem.name_u32(buf)
                    ));
                    let tb = TapeBuf::GlobalU32(buf.0 as u32);
                    self.tape_access(AccessKind::Load, MemSpace::Texture, tb, twords, true);
                    return out;
                }
                out[lane] = self.mem.u32_slice(buf)[idx];
                addrs.push(base + idx as u64 * 4);
            }
        }
        self.emit_gmem(MemSpace::Texture, false, &addrs);
        let tb = TapeBuf::GlobalU32(buf.0 as u32);
        self.tape_access(AccessKind::Load, MemSpace::Texture, tb, twords, false);
        out
    }

    /// Stores `u32` values to global memory.
    #[track_caller]
    pub fn st_u32(&mut self, buf: BufU32, mut f: impl FnMut(usize, usize) -> Option<(usize, u32)>) {
        if self.faulted() {
            return;
        }
        let tid0 = self.tid0();
        let base = self.mem.base_u32(buf);
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut addrs = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some((idx, val)) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                let data = self.mem.u32_slice_mut(buf);
                if idx >= data.len() {
                    let len = data.len();
                    self.record_fault(format!(
                        "write out of bounds: {}[{idx}] (len {len})",
                        self.mem.name_u32(buf)
                    ));
                    let tb = TapeBuf::GlobalU32(buf.0 as u32);
                    self.tape_access(AccessKind::Store, MemSpace::Global, tb, twords, true);
                    return;
                }
                data[idx] = val;
                addrs.push(base + idx as u64 * 4);
            }
        }
        self.emit_gmem(MemSpace::Global, true, &addrs);
        let tb = TapeBuf::GlobalU32(buf.0 as u32);
        self.tape_access(AccessKind::Store, MemSpace::Global, tb, twords, false);
    }

    /// Atomically adds to `u32` global memory, returning each lane's old
    /// value. Lanes are serialized in lane order (deterministic).
    #[track_caller]
    pub fn atom_add_u32(
        &mut self,
        buf: BufU32,
        mut f: impl FnMut(usize, usize) -> Option<(usize, u32)>,
    ) -> Vec<u32> {
        let tid0 = self.tid0();
        let base = self.mem.base_u32(buf);
        let mut out = vec![0u32; self.warp_size];
        if self.faulted() {
            return out;
        }
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut addrs = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some((idx, val)) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                let data = self.mem.u32_slice_mut(buf);
                if idx >= data.len() {
                    let len = data.len();
                    self.record_fault(format!(
                        "atomic out of bounds: {}[{idx}] (len {len})",
                        self.mem.name_u32(buf)
                    ));
                    let tb = TapeBuf::GlobalU32(buf.0 as u32);
                    self.tape_access(AccessKind::Atomic, MemSpace::Global, tb, twords, true);
                    return out;
                }
                out[lane] = data[idx];
                data[idx] = data[idx].wrapping_add(val);
                addrs.push(base + idx as u64 * 4);
            }
        }
        // An atomic is a read-modify-write: count both directions.
        self.emit_gmem(MemSpace::Global, false, &addrs);
        self.emit_gmem(MemSpace::Global, true, &addrs);
        let tb = TapeBuf::GlobalU32(buf.0 as u32);
        self.tape_access(AccessKind::Atomic, MemSpace::Global, tb, twords, false);
        out
    }

    // ---- shared memory ---------------------------------------------------

    /// Records a shared access from its staged `(lane, word)` pairs,
    /// which the conflict count reorders in place.
    fn emit_shared(&mut self, lane_words: &mut [(usize, usize)], store: bool) {
        if lane_words.is_empty() {
            return;
        }
        self.alu(Self::ONCHIP_ADDR_ALU);
        let degree = warp_conflict_degree(lane_words, self.banks).min(255);
        self.trace.ops.push(TOp::Shared {
            degree: degree as u8,
            lanes: self.mask.count() as u8,
            store,
        });
    }

    /// Loads from the CTA's `f32` shared-memory scratch.
    #[track_caller]
    pub fn sh_ld_f32(&mut self, mut f: impl FnMut(usize, usize) -> Option<usize>) -> Vec<f32> {
        let tid0 = self.tid0();
        let mut out = vec![0.0f32; self.warp_size];
        if self.faulted() {
            return out;
        }
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut words = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some(idx) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                if idx >= self.shared_f32.len() {
                    let len = self.shared_f32.len();
                    self.record_fault(format!("shared read out of bounds: f32[{idx}] (len {len})"));
                    let (ak, sp) = (AccessKind::Load, MemSpace::Shared);
                    self.tape_access(ak, sp, TapeBuf::SharedF32, twords, true);
                    return out;
                }
                out[lane] = self.shared_f32[idx];
                words.push((lane, idx));
            }
        }
        self.emit_shared(&mut words, false);
        let (ak, sp) = (AccessKind::Load, MemSpace::Shared);
        self.tape_access(ak, sp, TapeBuf::SharedF32, twords, false);
        out
    }

    /// Stores to the CTA's `f32` shared-memory scratch.
    #[track_caller]
    pub fn sh_st_f32(&mut self, mut f: impl FnMut(usize, usize) -> Option<(usize, f32)>) {
        if self.faulted() {
            return;
        }
        let tid0 = self.tid0();
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut words = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some((idx, val)) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                if idx >= self.shared_f32.len() {
                    let len = self.shared_f32.len();
                    self.record_fault(format!(
                        "shared write out of bounds: f32[{idx}] (len {len})"
                    ));
                    let (ak, sp) = (AccessKind::Store, MemSpace::Shared);
                    self.tape_access(ak, sp, TapeBuf::SharedF32, twords, true);
                    return;
                }
                self.shared_f32[idx] = val;
                words.push((lane, idx));
            }
        }
        self.emit_shared(&mut words, true);
        let (ak, sp) = (AccessKind::Store, MemSpace::Shared);
        self.tape_access(ak, sp, TapeBuf::SharedF32, twords, false);
    }

    /// Loads from the CTA's `u32` shared-memory scratch. Bank indices are
    /// offset past the `f32` scratch, mirroring a single physical
    /// scratchpad.
    #[track_caller]
    pub fn sh_ld_u32(&mut self, mut f: impl FnMut(usize, usize) -> Option<usize>) -> Vec<u32> {
        let tid0 = self.tid0();
        let off = self.shared_f32.len();
        let mut out = vec![0u32; self.warp_size];
        if self.faulted() {
            return out;
        }
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut words = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some(idx) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                if idx >= self.shared_u32.len() {
                    let len = self.shared_u32.len();
                    self.record_fault(format!("shared read out of bounds: u32[{idx}] (len {len})"));
                    let (ak, sp) = (AccessKind::Load, MemSpace::Shared);
                    self.tape_access(ak, sp, TapeBuf::SharedU32, twords, true);
                    return out;
                }
                out[lane] = self.shared_u32[idx];
                words.push((lane, off + idx));
            }
        }
        self.emit_shared(&mut words, false);
        let (ak, sp) = (AccessKind::Load, MemSpace::Shared);
        self.tape_access(ak, sp, TapeBuf::SharedU32, twords, false);
        out
    }

    /// Stores to the CTA's `u32` shared-memory scratch.
    #[track_caller]
    pub fn sh_st_u32(&mut self, mut f: impl FnMut(usize, usize) -> Option<(usize, u32)>) {
        if self.faulted() {
            return;
        }
        let tid0 = self.tid0();
        let off = self.shared_f32.len();
        let taping = self.taping();
        let mut twords: Vec<(u8, u32)> = Vec::new();
        let mut words = Lanes::new();
        let mask = self.mask;
        for lane in mask.iter().take(self.warp_size) {
            if let Some((idx, val)) = f(lane, tid0 + lane) {
                if taping {
                    twords.push((lane as u8, idx as u32));
                }
                if idx >= self.shared_u32.len() {
                    let len = self.shared_u32.len();
                    self.record_fault(format!(
                        "shared write out of bounds: u32[{idx}] (len {len})"
                    ));
                    let (ak, sp) = (AccessKind::Store, MemSpace::Shared);
                    self.tape_access(ak, sp, TapeBuf::SharedU32, twords, true);
                    return;
                }
                self.shared_u32[idx] = val;
                words.push((lane, off + idx));
            }
        }
        self.emit_shared(&mut words, true);
        let (ak, sp) = (AccessKind::Store, MemSpace::Shared);
        self.tape_access(ak, sp, TapeBuf::SharedU32, twords, false);
    }

    // ---- divergence -----------------------------------------------------

    /// SIMT `if`/`else`: serializes both paths under complementary masks
    /// and records the branch.
    pub fn if_else(
        &mut self,
        cond: &[bool],
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        if self.mask.is_empty() {
            return;
        }
        let cm = ActiveMask::from_preds(cond);
        let t = self.mask.and(cm);
        let e = self.mask.and_not(cm);
        self.trace.ops.push(TOp::Branch {
            lanes: self.mask.count() as u8,
        });
        let saved = self.mask;
        if !t.is_empty() {
            self.mask = t;
            then(self);
        }
        if !e.is_empty() {
            self.mask = e;
            els(self);
        }
        self.mask = saved;
    }

    /// SIMT `if` with no `else` path.
    pub fn if_active(&mut self, cond: &[bool], then: impl FnOnce(&mut Self)) {
        self.if_else(cond, then, |_| {});
    }

    /// SIMT loop: re-evaluates `cond` each iteration; lanes drop out as
    /// their predicate goes false, and the loop exits when none remain.
    pub fn loop_while(
        &mut self,
        mut cond: impl FnMut(&mut Self) -> Vec<bool>,
        mut body: impl FnMut(&mut Self),
    ) {
        let saved = self.mask;
        loop {
            if self.mask.is_empty() {
                break;
            }
            let c = cond(self);
            let m = self.mask.and(ActiveMask::from_preds(&c));
            self.trace.ops.push(TOp::Branch {
                lanes: self.mask.count() as u8,
            });
            if m.is_empty() {
                break;
            }
            self.mask = m;
            body(self);
        }
        self.mask = saved;
    }
}

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
use std::panic::Location;

use crate::banks::{distinct_words, warp_conflict_degree};
use crate::coalesce::coalesce;
use crate::isa::{ActiveMask, MemSpace, SegRange, TOp, MAX_WARP_SIZE};
use crate::memory::{BufF32, BufU32, GpuMem, Handle, View};
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

    /// Per-CTA shared memory in bytes (occupancy limit input).
    fn shared_bytes(&self) -> u32 {
        (self.shared_f32_words() * 4) as u32
    }

    /// Executes the current phase of one warp. Use [`WarpCtx::phase`] to
    /// tell phases apart; returning [`PhaseControl::Continue`] inserts a
    /// CTA-wide barrier and runs the next phase.
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl;
}

/// The per-lane staging of one warp access — `(lane, word)` pairs, or
/// the byte addresses or constant indices mapped from them — held on
/// the stack. Each active lane stages at most one entry and a warp has
/// at most [`MAX_WARP_SIZE`] lanes, so staging an access never
/// allocates.
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

    fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Lanes<U> {
        let mut out = Lanes::new();
        for &item in self.iter() {
            out.push(f(item));
        }
        out
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
/// trace. Every one of them is a thin wrapper over a single private
/// lane loop, generic over the element type and the load or store, that
/// reaches a device buffer or the CTA's shared scratch through one view
/// and emits the op its memory space calls for. The access path is
/// allocation-free: a lane's thread id is computed, not looked up, and
/// the lanes' `(lane, word)` pairs are staged in fixed stack buffers
/// (`Lanes`) that the coalescer, the constant broadcast and the
/// bank-conflict counter read. Only the returned per-lane
/// values and, with a sanitizer attached, the tape's word lists touch
/// the heap.
pub struct WarpCtx<'a> {
    pub(crate) mem: &'a mut GpuMem,
    pub(crate) shared_f32: &'a mut [f32],
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
    /// the access loop only collects words while taping). `site` is
    /// interned as the access's static op-site id.
    fn tape_access(
        &mut self,
        site: &'static Location<'static>,
        kind: AccessKind,
        space: MemSpace,
        buf: TapeBuf,
        words: Vec<(u8, u32)>,
        faulted: bool,
    ) {
        if words.is_empty() {
            return;
        }
        if let Some(tape) = self.tape.as_deref_mut() {
            let site = tape.sites.intern(site);
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

    // ---- memory --------------------------------------------------------

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

    /// Records a constant load from its staged word indices: distinct
    /// indices among the active lanes serialize the broadcast.
    fn emit_const(&mut self, idxs: &mut [usize]) {
        if idxs.is_empty() {
            return;
        }
        let unique = distinct_words(idxs);
        self.alu(Self::ONCHIP_ADDR_ALU);
        self.trace.ops.push(TOp::Const {
            lanes: self.mask.count() as u8,
            unique: unique.min(255) as u8,
        });
    }

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

    /// The one lane loop behind every `ld_*`/`st_*` method.
    ///
    /// Each active lane maps to `Some((index, value))` through `lane`
    /// (or sits out with `None`); an in-bounds index moves data through
    /// `apply(lane, slot, value)` and stages `(lane, index)`. The first
    /// out-of-bounds lane faults the warp: the access emits no op, and
    /// its tape entry ends at the faulting word. Otherwise the op for
    /// `space` is emitted once, after the loop. `target` resolves the
    /// storage from the device memory or the CTA's shared scratch;
    /// `site` is the kernel-source call, captured by the public method.
    fn access<T, V>(
        &mut self,
        site: &'static Location<'static>,
        kind: AccessKind,
        space: MemSpace,
        target: impl for<'m> FnOnce(&'m mut GpuMem, &'m mut [f32]) -> View<'m, T>,
        mut lane: impl FnMut(usize, usize) -> Option<(usize, V)>,
        mut apply: impl FnMut(usize, &mut T, V),
    ) {
        if self.faulted() {
            return;
        }
        let (tid0, mask, taping) = (self.tid0(), self.mask, self.taping());
        let mut words: Vec<(u8, u32)> = Vec::new();
        let mut staged: Lanes<(usize, usize)> = Lanes::new();
        let mut fault = None;
        let view = target(&mut *self.mem, &mut *self.shared_f32);
        let (base, len, buf) = (view.base, view.data.len(), view.tape);
        for l in mask.iter().take(self.warp_size) {
            let Some((idx, value)) = lane(l, tid0 + l) else {
                continue;
            };
            if taping {
                // Saturated: an index past `u32::MAX` still tapes out
                // of range.
                words.push((l as u8, u32::try_from(idx).unwrap_or(u32::MAX)));
            }
            let Some(slot) = view.data.get_mut(idx) else {
                fault = Some(oob_reason(kind, space, view.name, idx, len));
                break;
            };
            apply(l, slot, value);
            staged.push((l, idx));
        }
        let faulted = fault.is_some();
        let store = kind == AccessKind::Store;
        match fault {
            Some(reason) => self.record_fault(reason),
            None if space == MemSpace::Shared => self.emit_shared(&mut staged, store),
            None if space == MemSpace::Constant => self.emit_const(&mut staged.map(|(_, i)| i)),
            None => self.emit_gmem(space, store, &staged.map(|(_, i)| base + i as u64 * 4)),
        }
        self.tape_access(site, kind, space, buf, words, faulted);
    }

    /// [`WarpCtx::access`] for a load: returns each lane's value (zero
    /// for lanes that sit out).
    fn load<T: Copy + Default>(
        &mut self,
        site: &'static Location<'static>,
        space: MemSpace,
        target: impl for<'m> FnOnce(&'m mut GpuMem, &'m mut [f32]) -> View<'m, T>,
        mut f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<T> {
        let mut out = vec![T::default(); self.warp_size];
        let lane = |l, tid| f(l, tid).map(|idx| (idx, ()));
        let apply = |l, x: &mut T, ()| out[l] = *x;
        self.access(site, AccessKind::Load, space, target, lane, apply);
        out
    }

    /// [`WarpCtx::access`] for a store of each lane's `(index, value)`.
    fn store<T>(
        &mut self,
        site: &'static Location<'static>,
        space: MemSpace,
        target: impl for<'m> FnOnce(&'m mut GpuMem, &'m mut [f32]) -> View<'m, T>,
        f: impl FnMut(usize, usize) -> Option<(usize, T)>,
    ) {
        self.access(site, AccessKind::Store, space, target, f, |_, x, v| *x = v);
    }

    /// Loads `f32` values from global memory (coalesced, uncached unless
    /// the configuration has an L1/L2).
    #[track_caller]
    pub fn ld_f32(
        &mut self,
        buf: BufF32,
        f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<f32> {
        self.load(Location::caller(), MemSpace::Global, |m, _| buf.view(m), f)
    }

    /// Loads `f32` values through the texture cache.
    #[track_caller]
    pub fn ld_tex_f32(
        &mut self,
        buf: BufF32,
        f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<f32> {
        self.load(Location::caller(), MemSpace::Texture, |m, _| buf.view(m), f)
    }

    /// Loads `f32` values from constant memory. Distinct addresses among
    /// active lanes serialize the broadcast.
    #[track_caller]
    pub fn ld_const_f32(
        &mut self,
        buf: BufF32,
        f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<f32> {
        let site = Location::caller();
        self.load(site, MemSpace::Constant, |m, _| buf.view(m), f)
    }

    /// Stores `f32` values to global memory.
    #[track_caller]
    pub fn st_f32(&mut self, buf: BufF32, f: impl FnMut(usize, usize) -> Option<(usize, f32)>) {
        self.store(Location::caller(), MemSpace::Global, |m, _| buf.view(m), f);
    }

    /// Loads `u32` values from global memory.
    #[track_caller]
    pub fn ld_u32(
        &mut self,
        buf: BufU32,
        f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<u32> {
        self.load(Location::caller(), MemSpace::Global, |m, _| buf.view(m), f)
    }

    /// Loads `u32` values through the texture cache.
    #[track_caller]
    pub fn ld_tex_u32(
        &mut self,
        buf: BufU32,
        f: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Vec<u32> {
        self.load(Location::caller(), MemSpace::Texture, |m, _| buf.view(m), f)
    }

    /// Stores `u32` values to global memory.
    #[track_caller]
    pub fn st_u32(&mut self, buf: BufU32, f: impl FnMut(usize, usize) -> Option<(usize, u32)>) {
        self.store(Location::caller(), MemSpace::Global, |m, _| buf.view(m), f);
    }

    /// Loads from the CTA's `f32` shared-memory scratch.
    #[track_caller]
    pub fn sh_ld_f32(&mut self, f: impl FnMut(usize, usize) -> Option<usize>) -> Vec<f32> {
        self.load(Location::caller(), MemSpace::Shared, |_, s| scratch(s), f)
    }

    /// Stores to the CTA's `f32` shared-memory scratch.
    #[track_caller]
    pub fn sh_st_f32(&mut self, f: impl FnMut(usize, usize) -> Option<(usize, f32)>) {
        self.store(Location::caller(), MemSpace::Shared, |_, s| scratch(s), f);
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

/// The CTA's `f32` shared scratch as an access target.
fn scratch(data: &mut [f32]) -> View<'_, f32> {
    View {
        name: "f32",
        base: 0,
        data,
        tape: TapeBuf::SharedF32,
    }
}

/// The fault message of an out-of-bounds access, e.g. `texture read out
/// of bounds: nodes[96] (len 96)`.
fn oob_reason(kind: AccessKind, space: MemSpace, name: &str, idx: usize, len: usize) -> String {
    let space = match space {
        MemSpace::Texture => "texture ",
        MemSpace::Constant => "constant ",
        MemSpace::Shared => "shared ",
        _ => "",
    };
    let verb = match kind {
        AccessKind::Load => "read",
        AccessKind::Store => "write",
    };
    format!("{space}{verb} out of bounds: {name}[{idx}] (len {len})")
}

//! Core instruction-set-level types: memory spaces, active masks, and the
//! warp-level trace operations the timing model replays.

use std::fmt;

/// The GPU memory spaces distinguished by the paper's Figure 2.
///
/// `Param` refers to kernel-call parameters, which (following GPGPU-Sim and
/// the paper) are always treated as cache hits. `Local` is per-thread
/// spilled memory; it shares the global-memory path, and the paper reports
/// the two together ("Global/Local").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemSpace {
    /// Off-chip global memory.
    Global,
    /// Per-thread local memory (same physical path as global).
    Local,
    /// Per-CTA on-chip scratchpad ("shared memory").
    Shared,
    /// Read-only texture memory, cached per SM.
    Texture,
    /// Read-only constant memory with broadcast semantics.
    Constant,
    /// Kernel-call parameters; always a cache hit.
    Param,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSpace::Global => "global",
            MemSpace::Local => "local",
            MemSpace::Shared => "shared",
            MemSpace::Texture => "tex",
            MemSpace::Constant => "const",
            MemSpace::Param => "param",
        };
        f.write_str(s)
    }
}

/// The widest warp the simulator supports: one bit per lane of an
/// [`ActiveMask`]. [`crate::GpuConfig::validate`] rejects wider warps.
pub const MAX_WARP_SIZE: usize = 64;

/// A set of active lanes within a warp (up to [`MAX_WARP_SIZE`] lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActiveMask(u64);

impl ActiveMask {
    /// A mask with no active lanes.
    pub const EMPTY: ActiveMask = ActiveMask(0);

    /// A mask with the first `n` lanes active, saturating at the 64-lane
    /// hardware width.
    ///
    /// Infallible by contract: warp sizes above 64 are rejected up front
    /// by [`crate::GpuConfig`] validation (`SimError::InvalidConfig`), so
    /// a saturated mask can only be requested by code that bypassed
    /// validation — and even then replay stays panic-free.
    pub fn first(n: usize) -> ActiveMask {
        if n >= 64 {
            ActiveMask(u64::MAX)
        } else {
            ActiveMask((1u64 << n) - 1)
        }
    }

    /// Builds a mask from a per-lane predicate slice.
    pub fn from_preds(preds: &[bool]) -> ActiveMask {
        let mut bits = 0u64;
        for (i, &p) in preds.iter().enumerate() {
            if p {
                bits |= 1 << i;
            }
        }
        ActiveMask(bits)
    }

    /// Whether lane `i` is active.
    #[inline]
    pub fn lane(&self, i: usize) -> bool {
        i < 64 && (self.0 >> i) & 1 == 1
    }

    /// Number of active lanes.
    #[inline]
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether no lanes are active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Intersection of two masks.
    #[inline]
    pub fn and(self, other: ActiveMask) -> ActiveMask {
        ActiveMask(self.0 & other.0)
    }

    /// Lanes active in `self` but not in `other`.
    #[inline]
    pub fn and_not(self, other: ActiveMask) -> ActiveMask {
        ActiveMask(self.0 & !other.0)
    }

    /// Iterator over the indices of active lanes, in ascending order.
    /// It visits only the set bits (one `trailing_zeros` each), not all
    /// 64 lane slots.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let lane = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
            Some(lane)
        })
    }
}

/// One warp-level operation in a captured kernel trace.
///
/// Memory operations are stored *post-coalescing*: global/local/texture
/// accesses carry a [`SegRange`] counting the 64-byte segment addresses
/// they take from their warp's segment pool
/// ([`crate::trace::WarpTrace::segs`]), shared-memory accesses carry
/// their bank-conflict serialization degree, and constant accesses
/// carry the number of distinct addresses (a value > 1 serializes the
/// broadcast). Every op is an 8-byte `Copy` word, so a warp's trace is
/// two flat arrays: its ops and its segment pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TOp {
    /// `n` back-to-back arithmetic instructions with `lanes` active threads.
    Alu {
        /// Back-to-back instruction count.
        n: u32,
        /// Active lanes.
        lanes: u8,
    },
    /// `n` special-function (transcendental) instructions.
    Sfu {
        /// Back-to-back instruction count.
        n: u32,
        /// Active lanes.
        lanes: u8,
    },
    /// A shared-memory access with bank-conflict `degree` (1 = conflict-free).
    Shared {
        /// Serialization degree from bank conflicts.
        degree: u8,
        /// Active lanes.
        lanes: u8,
        /// Whether the access is a store.
        store: bool,
    },
    /// A global- or local-memory access touching the given segments.
    Gmem {
        /// Global or local space.
        space: MemSpace,
        /// Whether the access is a store.
        store: bool,
        /// Active lanes.
        lanes: u8,
        /// Coalesced segment base addresses, in the warp's pool.
        segs: SegRange,
    },
    /// A texture fetch touching the given segments (read-only, cached).
    Tex {
        /// Active lanes.
        lanes: u8,
        /// Coalesced segment base addresses, in the warp's pool.
        segs: SegRange,
    },
    /// A constant load with `unique` distinct addresses among active lanes.
    Const {
        /// Active lanes.
        lanes: u8,
        /// Distinct addresses (a value > 1 serializes the broadcast).
        unique: u8,
    },
    /// `n` parameter loads; always treated as cache hits.
    Param {
        /// Back-to-back load count.
        n: u32,
        /// Active lanes.
        lanes: u8,
    },
    /// A potentially divergent branch.
    Branch {
        /// Active lanes.
        lanes: u8,
    },
    /// A CTA-wide barrier (`__syncthreads()`).
    Bar,
}

/// How many coalesced segment addresses one memory op takes from its
/// warp's segment pool. A range names no start: a warp's memory ops
/// take their runs from the pool strictly in program order, so an op's
/// run starts where the previous memory op's run ended, at the sum of
/// the earlier ops' lengths, and every reader walks the pool with a
/// running cursor (see [`crate::trace::WarpTrace`]). A warp instruction
/// touches at most two segments per lane, so `len` never exceeds 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRange {
    /// Number of addresses.
    pub len: u16,
}

impl SegRange {
    /// The range of `len` pool entries, or `None` if `len` does not fit.
    pub fn new(len: usize) -> Option<SegRange> {
        Some(SegRange {
            len: u16::try_from(len).ok()?,
        })
    }

    /// The addresses this range names in `pool` when the earlier
    /// memory ops of its warp took `start` addresses.
    ///
    /// # Panics
    ///
    /// Panics if the range lies outside `pool`. Replay checks each
    /// warp's pool once per trace ([`crate::KernelTrace::try_totals`]).
    #[inline]
    pub fn at(self, pool: &[u64], start: usize) -> &[u64] {
        &pool[start..][..self.len as usize]
    }
}

impl TOp {
    /// Number of active lanes for occupancy accounting (barriers count 0).
    pub fn lanes(&self) -> u32 {
        match *self {
            TOp::Alu { lanes, .. }
            | TOp::Sfu { lanes, .. }
            | TOp::Shared { lanes, .. }
            | TOp::Gmem { lanes, .. }
            | TOp::Tex { lanes, .. }
            | TOp::Const { lanes, .. }
            | TOp::Param { lanes, .. }
            | TOp::Branch { lanes } => lanes as u32,
            TOp::Bar => 0,
        }
    }

    /// Number of warp-level instructions this op represents.
    pub fn warp_instructions(&self) -> u64 {
        match *self {
            TOp::Alu { n, .. } | TOp::Sfu { n, .. } | TOp::Param { n, .. } => n as u64,
            TOp::Bar => 0,
            _ => 1,
        }
    }

    /// Number of thread-level (scalar) instructions this op represents.
    pub fn thread_instructions(&self) -> u64 {
        self.warp_instructions() * self.lanes() as u64
    }

    /// The pool range of a global, local or texture access, if this is
    /// one.
    #[inline]
    pub fn segs(&self) -> Option<SegRange> {
        match *self {
            TOp::Gmem { segs, .. } | TOp::Tex { segs, .. } => Some(segs),
            _ => None,
        }
    }

    /// The memory space of a memory operation, if this is one.
    pub fn mem_space(&self) -> Option<MemSpace> {
        match *self {
            TOp::Shared { .. } => Some(MemSpace::Shared),
            TOp::Gmem { space, .. } => Some(space),
            TOp::Tex { .. } => Some(MemSpace::Texture),
            TOp::Const { .. } => Some(MemSpace::Constant),
            TOp::Param { .. } => Some(MemSpace::Param),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_first_counts() {
        assert_eq!(ActiveMask::first(0).count(), 0);
        assert_eq!(ActiveMask::first(32).count(), 32);
        assert_eq!(ActiveMask::first(64).count(), 64);
        assert!(ActiveMask::first(0).is_empty());
    }

    #[test]
    fn mask_from_preds_roundtrip() {
        let preds = [true, false, true, true, false];
        let m = ActiveMask::from_preds(&preds);
        assert_eq!(m.count(), 3);
        for (i, &p) in preds.iter().enumerate() {
            assert_eq!(m.lane(i), p);
        }
        assert!(!m.lane(63));
    }

    #[test]
    fn mask_set_algebra() {
        let a = ActiveMask::from_preds(&[true, true, false, false]);
        let b = ActiveMask::from_preds(&[true, false, true, false]);
        assert_eq!(a.and(b).count(), 1);
        assert_eq!(a.and_not(b).count(), 1);
        assert!(a.and(b).lane(0));
        assert!(a.and_not(b).lane(1));
    }

    #[test]
    fn mask_iter_matches_lanes() {
        let m = ActiveMask::from_preds(&[false, true, false, true]);
        let lanes: Vec<usize> = m.iter().collect();
        assert_eq!(lanes, vec![1, 3]);
    }

    #[test]
    fn top_instruction_accounting() {
        let op = TOp::Alu { n: 3, lanes: 16 };
        assert_eq!(op.warp_instructions(), 3);
        assert_eq!(op.thread_instructions(), 48);
        assert_eq!(TOp::Bar.thread_instructions(), 0);
        let mem = TOp::Gmem {
            space: MemSpace::Global,
            store: false,
            lanes: 32,
            segs: SegRange { len: 2 },
        };
        assert_eq!(mem.warp_instructions(), 1);
        assert_eq!(mem.mem_space(), Some(MemSpace::Global));
        assert_eq!(mem.segs(), Some(SegRange { len: 2 }));
        assert_eq!(SegRange { len: 2 }.at(&[7, 0, 64, 9], 1), &[0, 64]);
        assert_eq!(TOp::Branch { lanes: 4 }.mem_space(), None);
    }

    #[test]
    fn an_op_is_one_eight_byte_word() {
        assert_eq!(std::mem::size_of::<TOp>(), 8);
    }

    #[test]
    fn mask_first_saturates_at_hardware_width() {
        assert_eq!(ActiveMask::first(65), ActiveMask::first(64));
        assert_eq!(ActiveMask::first(usize::MAX).count(), 64);
        assert_eq!(ActiveMask::first(64).count(), 64);
        assert_eq!(ActiveMask::first(0), ActiveMask::EMPTY);
    }
}

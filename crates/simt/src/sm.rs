//! SM-local runtime of the timing model: warps, CTAs, and the per-SM
//! execution step of the epoch-barrier replay engine.
//!
//! # What an SM owns
//!
//! Every piece of mutable state an SM touches while simulating an
//! epoch lives *inside* its `SmRt`: the warp table, the CTA table, the
//! packed scheduler words, the L1 and texture caches, and the SM's
//! stall ledger. Anything an SM would need from *outside* itself (the
//! shared DRAM channels, the chip-wide L2, the pending-CTA queue, the
//! global live-warp count) is not touched during an epoch. Instead the
//! SM appends an event to the epoch's `EpochLog` — a memory request, a
//! warp retirement, a CTA completion — and the engine applies the
//! sorted, canonically ordered log at the next epoch barrier (see
//! [`crate::gpu`] for why that reproduces a cycle-by-cycle lockstep
//! sweep exactly). Because no SM can observe another inside an epoch,
//! `run_epoch` advances each SM alone to the epoch end.
//!
//! # The packed scheduler word
//!
//! Each resident warp mirrors its state into one `u64` (see
//! `WarpRt::sched_word`): unpickable warps carry a high flag bit
//! (`SCHED_DONE`, `SCHED_BARRIER`) so the scheduler's pickability
//! test is a single `word & SCHED_PICK_MASK <= cycle` compare, and a
//! warp waiting on an *unresolved* shared-memory request (one whose
//! completion cycle the barrier has not yet computed) parks on a
//! sentinel `ready_at` that cannot pass the compare before the epoch
//! ends.
//!
//! # Failed scans
//!
//! The round-robin scheduler walks the words once, from the issue
//! pointer around to just before it (`scan_round_robin`). The walk
//! returns the first pickable slot, or, when there is none, the SM's
//! digest (`SmSummary`): earliest ready cycle, liveness, memory and
//! barrier flags, and the first slot in round-robin order that holds
//! that earliest cycle. The walk is branch-free but for its exit: which
//! slot lowers the running minimum is data. A failed scan at cycle `c`
//! means every waiting warp is ready only after `c`, and the issue port
//! is free by `c`, so the SM's next visit is exactly `min_ready`. The
//! digest is exact for as long as it is cached: an issue or a CTA
//! placement clears it, and the barrier's memory resolutions only lower
//! an unresolved warp's word, which `SmRt::resolve` folds into the
//! cached minimum. So at `min_ready` the warp in the recorded slot is
//! the pick, and no second scan is made, even across a barrier. The
//! failed scan is the only place the epoch loop refreshes the digest.
//! Elsewhere (the next-wake computation, stall attribution) a cleared
//! digest is rebuilt by `fold_summary`, which folds the words in
//! fixed-width chunks of branchless lane accumulators, a shape the
//! compiler can autovectorize.
//!
//! # What an issue does not count
//!
//! Every op of a trace issues exactly once, whatever the configuration,
//! so instruction counts, the memory mix and the occupancy histogram are
//! not counted here: they are the trace's own [`TraceTotals`], counted
//! once per trace and added up when the engine closes its books. An
//! issue does only what the configuration can change, and looks its
//! lane-dependent costs up in the engine's `IssueCosts` tables.
//!
//! [`TraceTotals`]: crate::trace::TraceTotals

use crate::caches::Cache;
use crate::config::{GpuConfig, SchedPolicy};
use crate::isa::TOp;
use crate::stats::StallBreakdown;

/// Scheduler-word flag: the warp has drained its trace.
pub(crate) const SCHED_DONE: u64 = 1 << 63;
/// Scheduler-word flag: the warp is parked at a barrier.
pub(crate) const SCHED_BARRIER: u64 = 1 << 62;
/// Scheduler-word flag: the warp's pending latency is a memory access.
pub(crate) const SCHED_MEM: u64 = 1 << 61;
/// Low bits of a scheduler word: the warp's `ready_at` cycle.
pub(crate) const SCHED_READY_MASK: u64 = SCHED_MEM - 1;
/// Pickability view of a scheduler word: the memory-wait bit is purely
/// classificatory (a warp whose load has returned is pickable), so it is
/// masked out; the DONE/BARRIER flags stay and keep the compare failing.
pub(crate) const SCHED_PICK_MASK: u64 = !SCHED_MEM;

/// Number of scheduler words folded per accumulator lane in
/// [`fold_summary`]; sized to a 512-bit vector of `u64`s.
const FOLD_LANES: usize = 8;

/// `SmSummary::min_slot` when no scan recorded a slot.
const NO_SLOT: usize = usize::MAX;

/// Timing state of one resident warp.
#[derive(Debug, Clone)]
pub(crate) struct WarpRt<'a> {
    /// The warp's recorded operation stream, resolved once at CTA
    /// placement so the (very hot) issue path reads `ops[pc]` directly
    /// instead of chasing trace → CTA → warp indirections every issue.
    pub ops: &'a [TOp],
    /// The segment pool `ops`' memory operations take their runs from,
    /// in program order.
    pub segs: &'a [u64],
    /// Next operation to issue. Replay checks once per trace that a
    /// warp's ops and pool fit a `u32`.
    pub pc: u32,
    /// Start in `segs` of the next memory op's run: the number of
    /// addresses the issued memory ops took.
    pub seg: u32,
    /// Cycle at which the warp may issue again. While `unresolved` is
    /// set this holds only the synchronous floor (issue + hit
    /// components); the epoch barrier maxes in the shared-memory
    /// completions.
    pub ready_at: u64,
    /// Cycle of this warp's most recent issue (greedy-then-oldest input).
    pub last_issue: u64,
    /// Index of the owning CTA in the SM-local CTA table (which also
    /// records the kernel the warp belongs to).
    pub cta_rt: u32,
    /// Whether the warp is parked at a barrier.
    pub at_barrier: bool,
    /// Whether the warp's most recent issue is waiting on a memory
    /// access (stall-attribution input; false for stores, which retire
    /// through the write buffer without stalling the warp).
    pub waiting_mem: bool,
    /// Whether the warp's pending memory request has yet to be resolved
    /// at an epoch barrier. An unresolved warp schedules as "not before
    /// the epoch ends" via a sentinel word; the shortest shared-memory
    /// response exceeds the epoch length, so the sentinel never changes
    /// a scheduling decision the serial engine would have made.
    pub unresolved: bool,
    /// Whether the warp has drained its trace.
    pub done: bool,
}

impl WarpRt<'_> {
    /// The warp's packed scheduler word (see [`SmRt::sched`]): an
    /// unpickable warp (done or at a barrier) gets a flag in the top
    /// bits, so the scheduler's pickability test collapses to a single
    /// `word <= cycle` compare; a waiting warp carries its `ready_at`
    /// plus the memory-wait bit for stall classification. An unresolved
    /// memory wait parks on the sentinel `SCHED_READY_MASK` — maximally
    /// far in the future — until the barrier fills in the real cycle.
    pub fn sched_word(&self) -> u64 {
        if self.done {
            SCHED_DONE
        } else if self.at_barrier {
            SCHED_BARRIER
        } else if self.unresolved {
            SCHED_READY_MASK | SCHED_MEM
        } else if self.waiting_mem {
            self.ready_at | SCHED_MEM
        } else {
            self.ready_at
        }
    }
}

/// Timing state of one resident CTA.
#[derive(Debug, Clone)]
pub(crate) struct CtaRt {
    /// Which kernel (trace) the CTA belongs to.
    pub kernel: usize,
    /// Indices of the CTA's warps in the SM-local warp table.
    pub warps: Vec<usize>,
    /// Warps currently parked at the barrier.
    pub arrived: usize,
    /// Warps that have drained their traces.
    pub done_warps: usize,
}

/// Cached per-SM warp-state digest, recomputed lazily after any warp on
/// the SM changes state. It answers the three questions the scheduler
/// loop, the fast-forward targeting, and the stall attribution ask every
/// cycle — without re-scanning the SM's warp list when nothing changed
/// (the common case for an SM parked on a long memory stall).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmSummary {
    /// Earliest `ready_at` among live, non-barrier warps (`u64::MAX` when
    /// the SM has none; the unresolved sentinel reads as "after the
    /// epoch", which the barrier replaces before anyone fast-forwards).
    pub min_ready: u64,
    /// The first slot, in round-robin order from the issue pointer,
    /// whose warp is ready at `min_ready`: the pick at that cycle.
    /// `NO_SLOT` unless a failed round-robin scan built the digest.
    pub min_slot: usize,
    /// Any resident warp not yet retired.
    pub any_live: bool,
    /// Any live, non-barrier warp waiting on a memory response.
    pub any_mem: bool,
    /// Every live warp is parked at a barrier.
    pub all_barrier: bool,
}

impl SmSummary {
    fn empty() -> SmSummary {
        SmSummary {
            min_ready: u64::MAX,
            min_slot: NO_SLOT,
            any_live: false,
            any_mem: false,
            all_barrier: true,
        }
    }

    /// Whether two digests describe the same warp states (`min_slot`
    /// aside, which only a scan records).
    pub(crate) fn same_state(&self, other: &SmSummary) -> bool {
        self.min_ready == other.min_ready
            && self.any_live == other.any_live
            && self.any_mem == other.any_mem
            && self.all_barrier == other.all_barrier
    }
}

/// Folds a packed scheduler-word slice into its [`SmSummary`] (with no
/// `min_slot`).
///
/// The fold runs [`FOLD_LANES`] independent branchless accumulators over
/// fixed-width chunks — min/mask reductions with no cross-lane
/// dependency — and merges the lanes once at the end, so the compiler is
/// free to autovectorize the hot loop. Visiting order does not matter:
/// every component of the summary is a commutative reduction.
pub(crate) fn fold_summary(sched: &[u64]) -> SmSummary {
    let mut min_r = [u64::MAX; FOLD_LANES];
    let mut live = [false; FOLD_LANES];
    let mut mem = [false; FOLD_LANES];
    let mut active_any = [false; FOLD_LANES];
    let mut chunks = sched.chunks_exact(FOLD_LANES);
    for chunk in &mut chunks {
        for i in 0..FOLD_LANES {
            let v = chunk[i];
            let is_live = v & SCHED_DONE == 0;
            let active = is_live && v & SCHED_BARRIER == 0;
            live[i] |= is_live;
            active_any[i] |= active;
            mem[i] |= active && v & SCHED_MEM != 0;
            let r = if active {
                v & SCHED_READY_MASK
            } else {
                u64::MAX
            };
            min_r[i] = min_r[i].min(r);
        }
    }
    for (i, &v) in chunks.remainder().iter().enumerate() {
        let is_live = v & SCHED_DONE == 0;
        let active = is_live && v & SCHED_BARRIER == 0;
        live[i] |= is_live;
        active_any[i] |= active;
        mem[i] |= active && v & SCHED_MEM != 0;
        let r = if active {
            v & SCHED_READY_MASK
        } else {
            u64::MAX
        };
        min_r[i] = min_r[i].min(r);
    }
    let mut s = SmSummary::empty();
    for i in 0..FOLD_LANES {
        s.any_live |= live[i];
        s.any_mem |= mem[i];
        s.all_barrier &= !active_any[i];
        s.min_ready = s.min_ready.min(min_r[i]);
    }
    s
}

/// One round-robin pass over `sched`, visiting slots `start..` and then
/// `..start`: the first slot whose warp is pickable at `cycle`, or, if
/// none is, the SM's digest with `min_slot` set to the first visited
/// slot that holds `min_ready`.
pub(crate) fn scan_round_robin(
    sched: &[u64],
    start: usize,
    cycle: u64,
) -> Result<usize, SmSummary> {
    // A word below `SCHED_BARRIER` carries neither flag: its warp is
    // live and not at a barrier, and its pickability view is its ready
    // cycle. Flagged words have larger views, so the smallest view is
    // `min_ready` whenever any warp is active.
    let mut min = u64::MAX;
    let mut min_slot = NO_SLOT;
    let (mut live, mut active, mut mem) = (false, false, false);
    let (wrapped, first) = sched.split_at(start);
    for (base, part) in [(start, first), (0, wrapped)] {
        for (i, &v) in part.iter().enumerate() {
            let view = v & SCHED_PICK_MASK;
            if view <= cycle {
                return Ok(base + i);
            }
            let is_active = v < SCHED_BARRIER;
            live |= v < SCHED_DONE;
            active |= is_active;
            mem |= is_active & (v & SCHED_MEM != 0);
            // Branch-free: which visit lowers the minimum is data.
            let lower = view < min;
            min = std::hint::select_unpredictable(lower, view, min);
            min_slot = std::hint::select_unpredictable(lower, base + i, min_slot);
        }
    }
    let mut s = SmSummary::empty();
    s.any_live = live;
    s.any_mem = mem;
    s.all_barrier = !active;
    if active {
        s.min_ready = min;
        s.min_slot = min_slot;
    }
    Err(s)
}

/// Issue costs by active-lane count, built once per engine so an issue
/// reads a table instead of dividing by the SIMD width. Indexed by any
/// `u8` lane count a trace op can carry.
#[derive(Debug)]
pub(crate) struct IssueCosts {
    /// Issue-port cycles of one issue slot
    /// ([`GpuConfig::issue_cycles_for`]).
    slot: [u64; 256],
    /// Cycles of each slot lost to lanes masked off by divergence: the
    /// slot's cycles less `ceil(lanes / simd_width)`, at least zero.
    waste: [u64; 256],
}

impl IssueCosts {
    pub(crate) fn new(cfg: &GpuConfig) -> IssueCosts {
        let simd = cfg.simd_width as u64;
        let full = cfg.issue_cycles();
        let mut costs = IssueCosts {
            slot: [0; 256],
            waste: [0; 256],
        };
        // `compact` is `ceil(max(lanes, 1) / simd)`, stepped up as the
        // lane count passes each multiple of the SIMD width.
        let mut compact = 1u64;
        for lanes in 0..256u64 {
            if lanes > compact * simd {
                compact += 1;
            }
            let slot = if cfg.lane_compaction { compact } else { full };
            costs.slot[lanes as usize] = slot;
            costs.waste[lanes as usize] = slot.saturating_sub(compact);
        }
        costs
    }
}

/// One entry in the epoch event log, applied at the next barrier.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvRec {
    /// Cycle the event occurred at.
    pub cycle: u64,
    /// Global SM index the event occurred on.
    pub sm: u32,
    /// Issue sequence number on the SM (monotone; orders same-cycle
    /// events of one SM exactly as the serial engine processed them).
    pub seq: u32,
    /// What happened.
    pub kind: EvKind,
}

/// Payload of one [`EvRec`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum EvKind {
    /// A memory request that must travel through the shared L2/DRAM.
    /// `segs` indexes the epoch log's segment pool; `add` is the
    /// latency added on top of each segment's completion (L1 or texture
    /// fill); `wait` is false for stores, which consume bandwidth but
    /// never stall the warp.
    Mem {
        /// SM-local warp-table index of the issuing warp.
        warp: u32,
        /// Latency added on top of each segment completion.
        add: u32,
        /// Whether the issuing warp waits for the response.
        wait: bool,
        /// `(start, end)` range into the epoch log's segment pool.
        segs: (u32, u32),
    },
    /// A warp drained its trace (global live-warp count decrement).
    Retire,
    /// A CTA completed: free its SM resources and pull from the queue.
    CtaDone {
        /// SM-local CTA-table index.
        cta: u32,
    },
}

impl EvKind {
    /// Tie-break rank for same-`(cycle, sm, seq)` events, matching the
    /// serial engine's order within one issue: memory accesses happen
    /// during the issue, the warp retires at its end, and CTA completion
    /// (queue pulls) last.
    pub fn rank(&self) -> u8 {
        match self {
            EvKind::Mem { .. } => 0,
            EvKind::Retire => 1,
            EvKind::CtaDone { .. } => 2,
        }
    }
}

/// The epoch output: the event log destined for the barrier, plus the
/// issue horizon and last issue cycle, which keep their maxima across
/// epochs.
#[derive(Debug, Default)]
pub(crate) struct EpochLog {
    /// Events of the current epoch, in SM-major order (each SM runs the
    /// whole epoch before the next starts). Each event's `(cycle, sm,
    /// seq, kind)` key is unique, and the barrier sorts by it, so the
    /// log order never reaches a result.
    pub events: Vec<EvRec>,
    /// Segment pool the epoch's `Mem` events point into.
    pub segs: Vec<u64>,
    /// Max completion cycle scheduled by any issue (the barrier maxes
    /// in resolved memory completions separately).
    pub horizon: u64,
    /// Last cycle at which any SM issued anything.
    pub last_cycle: u64,
}

/// Timing state of one streaming multiprocessor — self-contained, so an
/// epoch can advance it with no access to any other SM.
#[derive(Debug)]
pub(crate) struct SmRt<'a> {
    /// Global SM index (stamps emitted events).
    pub id: u32,
    /// SM-local warp table; indices are stable for the SM's lifetime.
    pub warp_tab: Vec<WarpRt<'a>>,
    /// SM-local CTA table; indices are stable for the SM's lifetime.
    pub ctas: Vec<CtaRt>,
    /// Warp-table indices of resident warps, in scheduler visit order
    /// (compacted when a CTA completes).
    pub list: Vec<usize>,
    /// Packed scheduler words, parallel to `list` (see
    /// [`WarpRt::sched_word`]). Kept in sync at every warp-state
    /// mutation so scheduler scans read one dense `u64` per slot
    /// instead of chasing a `WarpRt` per visit.
    pub sched: Vec<u64>,
    /// Each warp's current slot in `list`/`sched`, indexed by warp-table
    /// id (rebuilt when a CTA's dead warps are compacted away).
    pub slot_of: Vec<usize>,
    /// Round-robin issue pointer into `list`, taken modulo its length.
    pub rr: usize,
    /// Cycle at which the issue port frees.
    pub port_free_at: u64,
    /// Resident CTA count.
    pub resident_ctas: usize,
    /// Warp issued most recently (greedy-then-oldest state).
    pub last_warp: Option<usize>,
    /// Resident threads (occupancy tracking for concurrent kernels).
    pub used_threads: u32,
    /// Resident registers.
    pub used_regs: u32,
    /// Resident shared-memory bytes.
    pub used_shared: u32,
    /// Per-SM L1 data cache (Fermi configurations).
    pub l1: Option<Cache>,
    /// Per-SM texture cache.
    pub tex: Option<Cache>,
    /// Lazily maintained warp-state digest (`None` = stale, recompute).
    pub summary: Option<SmSummary>,
    /// This SM's stall ledger.
    pub stall: StallBreakdown,
    /// Cycle up to which this SM's idle time has been attributed. The
    /// SM's stall classification only changes when it issues or receives
    /// a CTA, so attribution is deferred and charged in one merged span
    /// at each such event — equivalent, cycle for cycle, to per-interval
    /// accounting, without walking every SM on every simulated cycle.
    pub attributed: u64,
    /// Monotone issue counter (events of one issue share a `seq`); at
    /// the end of a replay, the SM's issue count.
    pub seq: u32,
    /// Scheduler passes over the warp words. A pick that a failed
    /// scan predicted makes none.
    pub scans: u64,
}

impl<'a> SmRt<'a> {
    pub(crate) fn new(id: u32, cfg: &GpuConfig) -> SmRt<'a> {
        SmRt {
            id,
            warp_tab: Vec::new(),
            ctas: Vec::new(),
            list: Vec::new(),
            sched: Vec::new(),
            slot_of: Vec::new(),
            rr: 0,
            port_free_at: 0,
            resident_ctas: 0,
            last_warp: None,
            used_threads: 0,
            used_regs: 0,
            used_shared: 0,
            l1: cfg.l1.map(Cache::new),
            tex: cfg.tex_cache.map(Cache::new),
            summary: None,
            stall: StallBreakdown::default(),
            attributed: 0,
            seq: 0,
            scans: 0,
        }
    }

    /// The (cached) warp-state digest. Recomputed in one fold of the
    /// packed scheduler words when stale; every warp mutation on the SM
    /// marks it stale.
    pub(crate) fn summary(&mut self) -> SmSummary {
        if let Some(s) = self.summary {
            return s;
        }
        let s = fold_summary(&self.sched);
        self.summary = Some(s);
        s
    }

    /// Resolves warp `w`'s memory wait at the epoch barrier: it becomes
    /// ready at `ready_at`.
    ///
    /// The warp's word falls from the unresolved sentinel to `ready_at`
    /// and stays live, active and waiting on memory, so a cached digest
    /// stays exact with one min-update: the warp becomes the earliest
    /// if it is strictly earlier, or if it ties and comes first in
    /// round-robin order. A digest that survives the barrier spares
    /// the next-wake computation its fold and the SM its next scan.
    pub(crate) fn resolve(&mut self, w: usize, ready_at: u64) {
        let warp = &mut self.warp_tab[w];
        warp.ready_at = ready_at;
        warp.unresolved = false;
        let slot = self.slot_of[w];
        self.sched[slot] = warp.sched_word();
        let n = self.list.len();
        let Some(s) = &mut self.summary else {
            return;
        };
        // Position of a slot in round-robin order from the issue pointer.
        let order = |slot: usize| (slot + n - self.rr % n) % n;
        if ready_at < s.min_ready
            || (ready_at == s.min_ready && s.min_slot < n && order(slot) < order(s.min_slot))
        {
            s.min_ready = ready_at;
            s.min_slot = slot;
        }
    }

    /// Attributes this SM's cycles in `[attributed, to)` to stall
    /// categories, then advances the watermark.
    ///
    /// Called immediately before any state change on the SM (an issue or
    /// a CTA placement) and once at the end of simulation. Issues only
    /// happen at span starts, so within the span the SM's busy cycles
    /// are the contiguous prefix up to `port_free_at` (already charged
    /// to issue/bank-conflict/divergence at issue time); the idle
    /// remainder is classified from the SM's warp state, which cannot
    /// change mid-span. Charging the merged span is therefore exactly
    /// equivalent to accounting every simulated cycle individually.
    pub(crate) fn attribute_span(&mut self, to: u64) {
        let from = self.attributed;
        if to <= from {
            return;
        }
        self.attributed = to;
        let busy = self.port_free_at.clamp(from, to) - from;
        let idle = (to - from) - busy;
        if idle == 0 {
            return;
        }
        let s = self.summary();
        if !s.any_live {
            self.stall.empty += idle;
        } else if s.any_mem {
            self.stall.mem_pending += idle;
        } else if s.all_barrier {
            self.stall.barrier += idle;
        } else {
            // Warps waiting on compute latency or a CTA-launch window.
            self.stall.issue += idle;
        }
    }

    /// Selects an issuable warp according to the configured scheduler
    /// policy.
    ///
    /// A *failed* selection has necessarily visited every resident warp,
    /// so it caches the SM's [`SmSummary`] from the same pass — the
    /// run-loop jump and the stall attribution then reuse it without a
    /// second scan, and under round robin the next pick, at `min_ready`,
    /// is the digest's `min_slot` (see the module docs). A successful
    /// pick leaves a stale digest; [`SmRt::issue`] invalidates it anyway.
    pub(crate) fn pick_warp(&mut self, cycle: u64, cfg: &GpuConfig) -> Option<usize> {
        let n = self.list.len();
        if n == 0 {
            self.summary = Some(SmSummary::empty());
            return None;
        }
        match cfg.sched_policy {
            SchedPolicy::RoundRobin => {
                let slot = match self.summary {
                    Some(s) if s.min_ready == cycle && s.min_slot < n => s.min_slot,
                    _ => {
                        self.scans += 1;
                        let start = if self.rr < n { self.rr } else { self.rr % n };
                        match scan_round_robin(&self.sched[..n], start, cycle) {
                            Ok(slot) => slot,
                            Err(s) => {
                                self.summary = Some(s);
                                return None;
                            }
                        }
                    }
                };
                self.rr = slot + 1;
                Some(self.list[slot])
            }
            SchedPolicy::GreedyThenOldest => {
                // Greedy: stick with the last warp while it stays ready.
                if let Some(w) = self.last_warp {
                    if self.sched[self.slot_of[w]] & SCHED_PICK_MASK <= cycle {
                        return Some(w);
                    }
                }
                // Oldest: least-recently-issued ready warp.
                self.scans += 1;
                let mut best: Option<usize> = None;
                for slot in 0..n {
                    let v = self.sched[slot];
                    if v & SCHED_PICK_MASK <= cycle {
                        let w = self.list[slot];
                        if best.is_none_or(|b| {
                            self.warp_tab[w].last_issue < self.warp_tab[b].last_issue
                        }) {
                            best = Some(w);
                        }
                    }
                }
                if best.is_none() {
                    self.summary = Some(fold_summary(&self.sched[..n]));
                }
                best
            }
        }
    }

    /// Issues one operation of warp `w` at `cycle`.
    ///
    /// Everything SM-local — compute latencies, shared-memory conflicts,
    /// L1/texture lookups, barriers, warp retirement and CTA compaction
    /// — is applied immediately, exactly as the serial engine would.
    /// Traffic for the shared L2/DRAM is logged to `out` instead and
    /// resolved at the epoch barrier; until then the warp parks on the
    /// unresolved sentinel, which cannot change any scheduling decision
    /// because the shortest shared response outlives the epoch.
    pub(crate) fn issue(
        &mut self,
        w: usize,
        cycle: u64,
        cfg: &GpuConfig,
        costs: &IssueCosts,
        out: &mut EpochLog,
    ) {
        // Issuing mutates this warp's state (and possibly, via barrier
        // release or CTA retirement, its whole CTA's) — all on this SM.
        // Settle the SM's deferred stall attribution under the old state
        // first, then invalidate the digest.
        self.attribute_span(cycle);
        self.summary = None;
        out.last_cycle = out.last_cycle.max(cycle);
        let seq = self.seq;
        self.seq += 1;
        let warp = &mut self.warp_tab[w];
        let (ops, pool, seg_at) = (warp.ops, warp.segs, warp.seg as usize);
        let op = &ops[warp.pc as usize];
        warp.pc += 1;
        if let TOp::Gmem { segs, .. } | TOp::Tex { segs, .. } = op {
            warp.seg += u32::from(segs.len);
        }

        let lanes = op.lanes() as usize;
        let ic = match op {
            TOp::Bar => 1,
            _ => costs.slot[lanes],
        };
        let mut unresolved = false;
        let sm_id = self.id;
        // Logs the segments appended to `out.segs` since `start` as one
        // request, if there are any; returns whether the warp waits.
        let log_mem = |out: &mut EpochLog, start: usize, add: u32, wait: bool| {
            let end = out.segs.len();
            if end == start {
                return false;
            }
            out.events.push(EvRec {
                cycle,
                sm: sm_id,
                seq,
                kind: EvKind::Mem {
                    warp: w as u32,
                    add,
                    wait,
                    segs: (start as u32, end as u32),
                },
            });
            wait
        };
        let (port_busy, ready_at) = match op {
            TOp::Alu { n, .. } => {
                let busy = ic * *n as u64;
                (busy, cycle + busy + cfg.alu_latency as u64)
            }
            TOp::Sfu { n, .. } => {
                // SFUs are quarter-rate.
                let busy = 4 * ic * *n as u64;
                (busy, cycle + busy + cfg.sfu_latency as u64)
            }
            TOp::Branch { .. } => (ic, cycle + ic + cfg.alu_latency as u64),
            TOp::Param { n, .. } => {
                let busy = ic * *n as u64;
                (busy, cycle + busy + cfg.param_latency as u64)
            }
            TOp::Const { unique, .. } => {
                let busy = ic * *unique as u64;
                (busy, cycle + busy + cfg.const_latency as u64)
            }
            TOp::Shared { degree, .. } => {
                let d = if cfg.model_bank_conflicts {
                    *degree as u64
                } else {
                    1
                };
                let busy = ic * d;
                (busy, cycle + busy + cfg.shared_latency as u64)
            }
            TOp::Tex { segs, .. } => {
                let done = cycle + ic + cfg.tex_latency as u64;
                let tex = &mut self.tex;
                let start = out.segs.len();
                out.segs.extend(
                    segs.at(pool, seg_at)
                        .iter()
                        .copied()
                        .filter(|&seg| !tex.as_mut().is_some_and(|t| t.access(seg))),
                );
                unresolved = log_mem(out, start, cfg.tex_latency, true);
                (ic, done)
            }
            TOp::Gmem { store, segs, .. } => {
                let start = out.segs.len();
                if *store {
                    // Stores retire through a write buffer; the warp does
                    // not wait, but bandwidth is consumed.
                    out.segs.extend_from_slice(segs.at(pool, seg_at));
                    log_mem(out, start, 0, false);
                    (ic, cycle + ic + cfg.alu_latency as u64)
                } else {
                    let mut done = cycle + ic;
                    let l1_lat = cfg.l1_latency as u64;
                    let (mut l1, add) = match &mut self.l1 {
                        Some(l1) => (Some(l1), cfg.l1_latency),
                        None => (None, 0),
                    };
                    out.segs
                        .extend(segs.at(pool, seg_at).iter().copied().filter(|&seg| {
                            let hit = l1.as_mut().is_some_and(|l1| l1.access(seg));
                            if hit {
                                done = done.max(cycle + l1_lat);
                            }
                            !hit
                        }));
                    unresolved = log_mem(out, start, add, true);
                    (ic, done)
                }
            }
            TOp::Bar => {
                self.arrive_barrier(w, cycle);
                (1, cycle + 1)
            }
        };

        // Split the port-busy cycles into stall categories: bank-conflict
        // replay beats, divergence-masked issue slots, and true issue.
        // `slots` is the number of `ic`-cycle issue slots the op occupies;
        // lanes masked off by divergence waste `ic - ceil(lanes/simd)`
        // cycles of each (zero when lane compaction is modeled, where
        // `ic` is already compacted).
        let (slots, bank_extra) = match op {
            TOp::Alu { n, .. } | TOp::Param { n, .. } => (*n as u64, 0),
            TOp::Sfu { n, .. } => (4 * *n as u64, 0),
            TOp::Const { unique, .. } => (*unique as u64, 0),
            TOp::Shared { degree, .. } => {
                let d = if cfg.model_bank_conflicts {
                    *degree as u64
                } else {
                    1
                };
                (1, ic * (d - 1))
            }
            TOp::Branch { .. } | TOp::Tex { .. } | TOp::Gmem { .. } => (1, 0),
            TOp::Bar => (0, 0),
        };
        let divergence = costs.waste[lanes] * slots;
        self.stall.bank_conflict += bank_extra;
        self.stall.divergence += divergence;
        self.stall.issue += port_busy - bank_extra - divergence;
        let warp = &mut self.warp_tab[w];
        warp.waiting_mem = match op {
            TOp::Gmem { store, .. } => !*store,
            _ => op.mem_space().is_some(),
        };
        warp.unresolved = unresolved;
        warp.last_issue = cycle;
        if !warp.at_barrier {
            warp.ready_at = ready_at;
        }
        let word = warp.sched_word();
        self.sched[self.slot_of[w]] = word;
        self.port_free_at = cycle.max(self.port_free_at) + port_busy;
        self.last_warp = Some(w);
        out.horizon = out.horizon.max(ready_at);

        // Trace drained?
        if self.warp_tab[w].pc as usize == ops.len() {
            debug_assert_eq!(self.warp_tab[w].seg as usize, pool.len(), "pool not walked");
            self.retire_warp(w, cycle, seq, out);
        }
    }

    fn arrive_barrier(&mut self, w: usize, cycle: u64) {
        let cta_rt = self.warp_tab[w].cta_rt as usize;
        self.warp_tab[w].at_barrier = true;
        self.sched[self.slot_of[w]] = self.warp_tab[w].sched_word();
        self.ctas[cta_rt].arrived += 1;
        let expected = self.ctas[cta_rt].warps.len() - self.ctas[cta_rt].done_warps;
        if self.ctas[cta_rt].arrived >= expected {
            let release = cycle + 1;
            self.ctas[cta_rt].arrived = 0;
            let warps = std::mem::take(&mut self.ctas[cta_rt].warps);
            for &wid in &warps {
                if self.warp_tab[wid].at_barrier {
                    self.warp_tab[wid].at_barrier = false;
                    self.warp_tab[wid].ready_at = release;
                    self.sched[self.slot_of[wid]] = self.warp_tab[wid].sched_word();
                }
            }
            self.ctas[cta_rt].warps = warps;
        }
    }

    /// Retires warp `w` at `cycle`: SM-local bookkeeping (compaction,
    /// CTA completion detection) happens immediately; the global
    /// live-warp count and the shared CTA queue are notified via events
    /// the barrier applies in canonical order.
    fn retire_warp(&mut self, w: usize, cycle: u64, seq: u32, out: &mut EpochLog) {
        self.warp_tab[w].done = true;
        self.sched[self.slot_of[w]] = SCHED_DONE;
        out.events.push(EvRec {
            cycle,
            sm: self.id,
            seq,
            kind: EvKind::Retire,
        });
        let cta_rt = self.warp_tab[w].cta_rt as usize;
        self.ctas[cta_rt].done_warps += 1;
        if self.ctas[cta_rt].done_warps == self.ctas[cta_rt].warps.len() {
            // CTA complete. Resource release and queue pulls go through
            // the barrier (the queue is shared, and pull order must match
            // the serial engine's (cycle, sm) order); the scheduler-list
            // compaction is SM-local and happens now, exactly as the
            // serial engine compacts at CTA completion.
            out.events.push(EvRec {
                cycle,
                sm: self.id,
                seq,
                kind: EvKind::CtaDone { cta: cta_rt as u32 },
            });
            let dead = &self.ctas[cta_rt].warps;
            self.list.retain(|id| !dead.contains(id));
            // A dead last_warp would fail the greedy readiness check
            // anyway; drop it rather than leave its slot map dangling.
            if let Some(lw) = self.last_warp {
                if dead.contains(&lw) {
                    self.last_warp = None;
                }
            }
            // Compact the scheduler words identically and re-point the
            // surviving warps' slot map at their shifted positions.
            self.sched.clear();
            for slot in 0..self.list.len() {
                let id = self.list[slot];
                self.slot_of[id] = slot;
                let word = self.warp_tab[id].sched_word();
                self.sched.push(word);
            }
        }
    }
}

/// Simulates every SM through the epoch `[start, end)`.
///
/// Within an epoch no SM can observe another's state — everything
/// shared waits for the barrier — so each SM runs alone from `start`
/// to `end`, jumping from one possible issue cycle to the next. It
/// issues at exactly the cycles a lockstep sweep over all SMs would,
/// because such a sweep's visits between an SM's own wake-ups find no
/// pickable warp and change nothing. The event log therefore comes out
/// SM-major rather than cycle-major; the barrier's sort restores the
/// canonical order.
///
/// After an issue the next visit is the cycle the issue port frees (no
/// warp can issue sooner). A failed pick there leaves a fresh digest,
/// and since the port is already free, the SM jumps straight to the
/// digest's `min_ready`, where the failed scan has already found the
/// pick. A digest left by the barrier jumps the same way.
pub(crate) fn run_epoch(
    sms: &mut [SmRt<'_>],
    cfg: &GpuConfig,
    costs: &IssueCosts,
    start: u64,
    end: u64,
    out: &mut EpochLog,
) {
    for sm in sms.iter_mut() {
        let mut cycle = start.max(sm.port_free_at);
        while cycle < end {
            if let Some(s) = sm.summary.filter(|s| s.min_ready > cycle) {
                cycle = s.min_ready.max(sm.port_free_at);
                continue;
            }
            match sm.pick_warp(cycle, cfg) {
                Some(w) => {
                    sm.issue(w, cycle, cfg, costs, out);
                    cycle = cycle.max(sm.port_free_at);
                }
                None => {
                    debug_assert!(sm.port_free_at <= cycle);
                    cycle = sm.summary.map_or(u64::MAX, |s| s.min_ready);
                }
            }
        }
    }
}

/// Maximum CTAs an SM can hold for a kernel, given all four occupancy
/// limits (CTA slots, threads, registers, shared memory).
///
/// Returns an error naming the binding resource if even one CTA does not
/// fit.
pub(crate) fn ctas_per_sm(
    cfg: &GpuConfig,
    threads_per_cta: usize,
    regs_per_thread: u32,
    shared_bytes: u32,
) -> Result<usize, String> {
    let by_slots = cfg.max_ctas_per_sm as usize;
    let by_threads = cfg.max_threads_per_sm as usize / threads_per_cta.max(1);
    let cta_regs = regs_per_thread as usize * threads_per_cta;
    let by_regs = (cfg.regs_per_sm as usize)
        .checked_div(cta_regs)
        .unwrap_or(usize::MAX);
    let by_shared = if shared_bytes == 0 {
        usize::MAX
    } else {
        cfg.shared_mem_per_sm as usize / shared_bytes as usize
    };
    let n = by_slots.min(by_threads).min(by_regs).min(by_shared);
    if n == 0 {
        if by_threads == 0 {
            Err(format!(
                "CTA of {threads_per_cta} threads exceeds {} threads/SM",
                cfg.max_threads_per_sm
            ))
        } else if by_regs == 0 {
            Err(format!(
                "CTA needs {cta_regs} registers but the SM has {}",
                cfg.regs_per_sm
            ))
        } else {
            Err(format!(
                "CTA needs {shared_bytes} B shared memory but the SM has {}",
                cfg.shared_mem_per_sm
            ))
        }
    } else {
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_limited_by_cta_slots() {
        let cfg = GpuConfig::gpgpusim_default();
        // Tiny CTAs: slot limit (8) binds.
        assert_eq!(ctas_per_sm(&cfg, 32, 4, 0).unwrap(), 8);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let cfg = GpuConfig::gpgpusim_default();
        // 512-thread CTAs: 1024 / 512 = 2.
        assert_eq!(ctas_per_sm(&cfg, 512, 4, 0).unwrap(), 2);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let cfg = GpuConfig::gpgpusim_default();
        // 256 threads x 32 regs = 8192 regs -> 16384 / 8192 = 2.
        assert_eq!(ctas_per_sm(&cfg, 256, 32, 0).unwrap(), 2);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let cfg = GpuConfig::gpgpusim_default();
        // 12 kB shared per CTA -> 32 kB / 12 kB = 2.
        assert_eq!(ctas_per_sm(&cfg, 64, 4, 12 * 1024).unwrap(), 2);
    }

    #[test]
    fn oversized_cta_is_an_error() {
        let cfg = GpuConfig::gpgpusim_default();
        assert!(ctas_per_sm(&cfg, 2048, 4, 0).is_err());
        assert!(ctas_per_sm(&cfg, 64, 4, 64 * 1024).is_err());
        assert!(ctas_per_sm(&cfg, 1024, 64, 0).is_err());
    }

    #[test]
    fn fold_summary_matches_scalar_reference() {
        // Cross-check the chunk-folded digest against a straightforward
        // per-word scan over a mix of done / barrier / memory / ready
        // words long enough to exercise both the vector body and the
        // remainder tail.
        let mut sched = Vec::new();
        for i in 0..37u64 {
            sched.push(match i % 5 {
                0 => SCHED_DONE,
                1 => SCHED_BARRIER,
                2 => (1000 + i) | SCHED_MEM,
                3 => SCHED_READY_MASK | SCHED_MEM,
                _ => 100 + i,
            });
        }
        let folded = fold_summary(&sched);
        let mut reference = SmSummary::empty();
        for &v in &sched {
            if v & SCHED_DONE != 0 {
                continue;
            }
            reference.any_live = true;
            if v & SCHED_BARRIER != 0 {
                continue;
            }
            reference.all_barrier = false;
            if v & SCHED_MEM != 0 {
                reference.any_mem = true;
            }
            reference.min_ready = reference.min_ready.min(v & SCHED_READY_MASK);
        }
        assert_eq!(folded.min_ready, reference.min_ready);
        assert_eq!(folded.any_live, reference.any_live);
        assert_eq!(folded.any_mem, reference.any_mem);
        assert_eq!(folded.all_barrier, reference.all_barrier);
    }

    #[test]
    fn fold_summary_of_empty_and_all_done() {
        let s = fold_summary(&[]);
        assert_eq!(s.min_ready, u64::MAX);
        assert!(!s.any_live && !s.any_mem && s.all_barrier);
        let s = fold_summary(&[SCHED_DONE; 11]);
        assert!(!s.any_live);
        assert_eq!(s.min_ready, u64::MAX);
    }

    #[test]
    fn issue_cost_tables_match_the_division() {
        let mut cfgs = vec![GpuConfig::gpgpusim_default(), GpuConfig::gtx280()];
        for simd in [1, 3, 8, 16, 32] {
            for compaction in [false, true] {
                let mut cfg = GpuConfig::gpgpusim_default();
                cfg.simd_width = simd;
                cfg.lane_compaction = compaction;
                cfgs.push(cfg);
            }
        }
        for cfg in &cfgs {
            let costs = IssueCosts::new(cfg);
            for lanes in 0..256u32 {
                let slot = cfg.issue_cycles_for(lanes);
                let compact = (lanes.max(1) as u64).div_ceil(cfg.simd_width as u64);
                assert_eq!(costs.slot[lanes as usize], slot, "{lanes} lanes");
                assert_eq!(
                    costs.waste[lanes as usize],
                    slot.saturating_sub(compact),
                    "{lanes} lanes"
                );
            }
        }
    }

    #[test]
    fn a_warp_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<WarpRt<'_>>(), 64);
    }

    #[test]
    fn unresolved_warp_parks_on_the_sentinel() {
        let w = WarpRt {
            cta_rt: 0,
            ops: &[],
            segs: &[],
            pc: 0,
            seg: 0,
            ready_at: 42,
            at_barrier: false,
            waiting_mem: true,
            unresolved: true,
            done: false,
            last_issue: 0,
        };
        let word = w.sched_word();
        assert_eq!(word, SCHED_READY_MASK | SCHED_MEM);
        // Unpickable at any realistic cycle, classified as a memory wait.
        assert!(word & SCHED_PICK_MASK > (1 << 60));
        assert!(word & SCHED_MEM != 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The returned CTA count never violates any SM resource limit.
        #[test]
        fn occupancy_is_safe(
            threads in 1usize..=1024,
            regs in 1u32..=64,
            shared in 0u32..=32_768,
        ) {
            let cfg = GpuConfig::gpgpusim_default();
            if let Ok(n) = ctas_per_sm(&cfg, threads, regs, shared) {
                prop_assert!(n >= 1);
                prop_assert!(n <= cfg.max_ctas_per_sm as usize);
                prop_assert!(n * threads <= cfg.max_threads_per_sm as usize);
                prop_assert!(n as u64 * regs as u64 * threads as u64 <= cfg.regs_per_sm as u64);
                prop_assert!(n as u64 * shared as u64 <= cfg.shared_mem_per_sm as u64);
            }
        }

        /// The chunk-folded summary equals the scalar reference on
        /// arbitrary scheduler-word mixes.
        #[test]
        fn fold_matches_reference(raw in proptest::collection::vec(
            (0u8..5, 0u64..1_000_000),
            0..80,
        )) {
            let words: Vec<u64> = raw
                .iter()
                .map(|&(kind, r)| match kind {
                    0 => SCHED_DONE,
                    1 => SCHED_BARRIER,
                    2 => r | SCHED_MEM,
                    3 => SCHED_READY_MASK | SCHED_MEM, // unresolved sentinel
                    _ => r,
                })
                .collect();
            let folded = fold_summary(&words);
            let mut r = SmSummary::empty();
            for &v in &words {
                if v & SCHED_DONE != 0 { continue; }
                r.any_live = true;
                if v & SCHED_BARRIER != 0 { continue; }
                r.all_barrier = false;
                if v & SCHED_MEM != 0 { r.any_mem = true; }
                r.min_ready = r.min_ready.min(v & SCHED_READY_MASK);
            }
            prop_assert_eq!(folded.min_ready, r.min_ready);
            prop_assert_eq!(folded.any_live, r.any_live);
            prop_assert_eq!(folded.any_mem, r.any_mem);
            prop_assert_eq!(folded.all_barrier, r.all_barrier);
        }

        /// The one-pass round-robin pick, and the pick a failed scan
        /// predicts for `min_ready`, equal a plain linear round-robin
        /// search. Ready cycles are drawn from a narrow range so that
        /// several warps often tie on the earliest one.
        #[test]
        fn round_robin_pick_matches_a_linear_search(
            raw in proptest::collection::vec((0u8..5, 0u64..24), 1..40),
            rr in 0usize..90,
            cycle in 0u64..24,
        ) {
            let words: Vec<u64> = raw
                .iter()
                .map(|&(kind, r)| match kind {
                    0 => SCHED_DONE,
                    1 => SCHED_BARRIER,
                    2 => r | SCHED_MEM,
                    3 => SCHED_READY_MASK | SCHED_MEM, // unresolved sentinel
                    _ => r,
                })
                .collect();
            let n = words.len();
            // Warp ids differ from slots, as after a compaction.
            let cfg = GpuConfig::gpgpusim_default();
            let mut sm = SmRt::new(0, &cfg);
            sm.list = (0..n).map(|slot| 100 + slot).collect();
            sm.sched = words.clone();
            sm.rr = rr;
            let linear = |at: u64| {
                (0..n)
                    .map(|i| (rr + i) % n)
                    .find(|&slot| words[slot] & SCHED_PICK_MASK <= at)
            };
            let picked = sm.pick_warp(cycle, &cfg);
            prop_assert_eq!(picked, linear(cycle).map(|slot| 100 + slot));
            prop_assert_eq!(sm.scans, 1);
            if let Some(w) = picked {
                prop_assert_eq!(sm.rr, w - 100 + 1);
                return Ok(());
            }
            // A failed scan leaves the fold's digest...
            let s = sm.summary.expect("a failed scan caches the digest");
            let folded = fold_summary(&words);
            prop_assert_eq!(s.min_ready, folded.min_ready);
            prop_assert_eq!(s.any_live, folded.any_live);
            prop_assert_eq!(s.any_mem, folded.any_mem);
            prop_assert_eq!(s.all_barrier, folded.all_barrier);
            prop_assert!(s.min_ready > cycle);
            if s.min_ready == u64::MAX {
                prop_assert_eq!(s.min_slot, NO_SLOT);
                return Ok(());
            }
            // ... and the pick at `min_ready` needs no second scan.
            let predicted = sm.pick_warp(s.min_ready, &cfg);
            prop_assert_eq!(predicted, linear(s.min_ready).map(|slot| 100 + slot));
            prop_assert_eq!(sm.scans, 1);
        }
    }
}

//! Dynamic checkers over the sanitizer events of launches.
//!
//! [`Analyzer`] folds the sanitizer events of one application run (one
//! benchmark = many launches against one device memory) as a
//! [`TapeSink`], and reports:
//!
//! * **shared-memory races** — conflicting same-word accesses from
//!   *different warps* of one CTA within one barrier interval, tracked
//!   with a per-word last-writer/reader shadow map that resets at each
//!   barrier. Accesses by different threads of the *same* warp are not
//!   races here: the executor runs a warp in lockstep program order, the
//!   warp-synchronous idiom Rodinia-era kernels rely on.
//! * **barrier divergence** — a CTA whose warps split their phase votes
//!   (some arrived at `__syncthreads`, some exited the kernel).
//! * **out-of-bounds** — any lane word at or past the target
//!   allocation's extent, for global and shared spaces.
//! * **read-before-write** — a read of a shared word no thread of the
//!   CTA has written (shared memory is never zero-initialized on real
//!   hardware), or of an uninitialized global allocation
//!   ([`simt::GpuMem::alloc_f32_uninit`]) before any kernel wrote the
//!   word. Global write shadows persist across the launches one
//!   `Analyzer` observes, so a producer kernel legitimately feeds a
//!   consumer kernel.
//!
//! Findings are coalesced per `(kind, kernel, subject)` and returned in
//! a deterministic order.

use std::collections::BTreeMap;

use simt::{
    AccessKind, BarrierRecord, LaunchInfo, MemAccess, SimError, SiteTable, TapeBuf, TapeSink,
};

use crate::finding::{Finding, FindingKind};

/// Aggregates findings per `(kind, kernel, subject)`, keeping the first
/// occurrence's message and counting repeats, in deterministic order.
#[derive(Debug, Default)]
pub(crate) struct FindingSet {
    map: BTreeMap<(FindingKind, String, String), (String, u64)>,
}

impl FindingSet {
    pub(crate) fn record(&mut self, kind: FindingKind, kernel: &str, subject: &str, msg: String) {
        self.map
            .entry((kind, kernel.to_string(), subject.to_string()))
            .and_modify(|(_, n)| *n += 1)
            .or_insert((msg, 1));
    }

    pub(crate) fn into_findings(self) -> Vec<Finding> {
        self.map
            .into_iter()
            .map(|((kind, kernel, subject), (message, count))| Finding {
                kind,
                kernel,
                subject,
                message,
                count,
            })
            .collect()
    }
}

/// Per-word interval state for the shared-memory race shadow map.
#[derive(Debug, Clone, Copy, Default)]
struct WordState {
    /// Interval (epoch) this state belongs to; stale states read as
    /// empty, so barriers reset the map in O(1).
    epoch: u32,
    /// Warps that wrote the word this interval (bit = warp index,
    /// saturated at 63).
    writer_mask: u64,
    /// Warps that read the word this interval.
    reader_mask: u64,
}

impl WordState {
    fn fresh(&self, epoch: u32) -> WordState {
        if self.epoch == epoch {
            *self
        } else {
            WordState {
                epoch,
                ..WordState::default()
            }
        }
    }
}

/// Per-CTA shadow state, rebuilt for each block as the events stream by.
#[derive(Debug, Default)]
struct BlockState {
    block: u32,
    epoch: u32,
    phase: u32,
    words: Vec<WordState>,
    /// Words written by any thread of the block so far (any interval);
    /// shared read-before-write keys off this.
    written: Vec<bool>,
}

fn warp_bit(warp: u32) -> u64 {
    1u64 << warp.min(63)
}

/// Streaming checker over the launches of one application run.
///
/// Install it as the device's [`TapeSink`], then take the coalesced
/// findings with [`Analyzer::finish`].
#[derive(Debug, Default)]
pub struct Analyzer {
    findings: FindingSet,
    /// Cross-launch kernel-write shadow for *uninitialized* global
    /// allocations, indexed like the launch's allocation tables
    /// (`None` = initialized or never seen: no tracking needed).
    gwritten_f32: Vec<Option<Vec<bool>>>,
    gwritten_u32: Vec<Option<Vec<bool>>>,
    launches: u64,
    /// Shared-memory shadow of the block the current launch is in
    /// (`None` until its first shared access).
    blk: Option<BlockState>,
}

impl Analyzer {
    /// Creates an analyzer with empty shadows.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Number of launches observed so far.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Returns the coalesced findings, consuming the analyzer.
    pub fn finish(self) -> Vec<Finding> {
        self.findings.into_findings()
    }

    /// Grows/initializes the uninitialized-allocation shadows to match
    /// this launch's allocation tables.
    fn sync_global_shadows(&mut self, launch: &LaunchInfo) {
        if self.gwritten_f32.len() < launch.allocs_f32.len() {
            self.gwritten_f32.resize(launch.allocs_f32.len(), None);
        }
        if self.gwritten_u32.len() < launch.allocs_u32.len() {
            self.gwritten_u32.resize(launch.allocs_u32.len(), None);
        }
        for (i, a) in launch.allocs_f32.iter().enumerate() {
            if !a.initialized && self.gwritten_f32[i].is_none() {
                self.gwritten_f32[i] = Some(vec![false; a.words as usize]);
            }
        }
        for (i, a) in launch.allocs_u32.iter().enumerate() {
            if !a.initialized && self.gwritten_u32[i].is_none() {
                self.gwritten_u32[i] = Some(vec![false; a.words as usize]);
            }
        }
    }

    fn check_shared(&mut self, launch: &LaunchInfo, a: &MemAccess<'_>) {
        let words = launch.shared_f32_words as usize;
        let blk = match &mut self.blk {
            Some(blk) if blk.block == a.block => blk,
            slot => slot.insert(BlockState {
                block: a.block,
                epoch: 1,
                phase: a.phase,
                words: vec![WordState::default(); words],
                written: vec![false; words],
            }),
        };
        if a.phase != blk.phase {
            // Barrier interval boundary: new epoch makes every word's
            // interval state read as empty.
            blk.phase = a.phase;
            blk.epoch += 1;
        }
        let (kernel, extent) = (launch.kernel.as_str(), launch.shared_f32_words);
        let subject = launch.buf_name(a.buf);
        let bit = warp_bit(a.warp);
        for &(lane, word) in a.lane_words {
            if word >= extent {
                self.findings.record(
                    FindingKind::SharedOutOfBounds,
                    kernel,
                    subject,
                    format!(
                        "block {} warp {} lane {}: {} {}[{}] out of bounds (len {})",
                        a.block,
                        a.warp,
                        lane,
                        kind_verb(a.kind),
                        subject,
                        word,
                        extent
                    ),
                );
                continue;
            }
            let w = word as usize;
            let mut st = blk.words[w].fresh(blk.epoch);
            match a.kind {
                AccessKind::Store => {
                    let others = (st.writer_mask | st.reader_mask) & !bit;
                    if others != 0 {
                        self.findings.record(
                            FindingKind::SharedRace,
                            kernel,
                            subject,
                            format!(
                                "block {} phase {}: warp {} lane {} wrote {}[{}] also touched \
                                 by warp {} in the same barrier interval",
                                a.block,
                                a.phase,
                                a.warp,
                                lane,
                                subject,
                                word,
                                others.trailing_zeros()
                            ),
                        );
                    }
                    st.writer_mask |= bit;
                    blk.written[w] = true;
                }
                AccessKind::Load => {
                    if !blk.written[w] {
                        self.findings.record(
                            FindingKind::SharedReadBeforeWrite,
                            kernel,
                            subject,
                            format!(
                                "block {} warp {} lane {}: read {}[{}] before any thread of \
                                 the block wrote it",
                                a.block, a.warp, lane, subject, word
                            ),
                        );
                    }
                    let others = st.writer_mask & !bit;
                    if others != 0 {
                        self.findings.record(
                            FindingKind::SharedRace,
                            kernel,
                            subject,
                            format!(
                                "block {} phase {}: warp {} lane {} read {}[{}] written by \
                                 warp {} in the same barrier interval",
                                a.block,
                                a.phase,
                                a.warp,
                                lane,
                                subject,
                                word,
                                others.trailing_zeros()
                            ),
                        );
                    }
                    st.reader_mask |= bit;
                }
            }
            blk.words[w] = st;
        }
    }

    fn check_global(&mut self, launch: &LaunchInfo, a: &MemAccess<'_>) {
        let Some(extent) = launch.extent(a.buf) else {
            return;
        };
        let (kernel, subject) = (launch.kernel.as_str(), launch.buf_name(a.buf));
        let (shadows, allocs, i) = match a.buf {
            TapeBuf::GlobalF32(i) => (&mut self.gwritten_f32, &launch.allocs_f32, i as usize),
            TapeBuf::GlobalU32(i) => (&mut self.gwritten_u32, &launch.allocs_u32, i as usize),
            TapeBuf::SharedF32 => unreachable!("check_global only sees global bufs"),
        };
        // Only uninitialized allocations have a write shadow.
        let mut shadow = match allocs.get(i) {
            Some(alloc) if !alloc.initialized => shadows.get_mut(i).and_then(Option::as_mut),
            _ => None,
        };
        for &(lane, word) in a.lane_words {
            if word >= extent {
                let kind = match a.kind {
                    AccessKind::Load => FindingKind::GlobalOutOfBoundsLoad,
                    AccessKind::Store => FindingKind::GlobalOutOfBoundsStore,
                };
                self.findings.record(
                    kind,
                    kernel,
                    subject,
                    format!(
                        "block {} warp {} lane {}: {} {}[{}] out of bounds (len {}, {:?} space)",
                        a.block,
                        a.warp,
                        lane,
                        kind_verb(a.kind),
                        subject,
                        word,
                        extent,
                        a.space
                    ),
                );
                continue;
            }
            let Some(written) = shadow.as_mut().and_then(|s| s.get_mut(word as usize)) else {
                continue;
            };
            // An access is all loads or all stores, so a load never
            // sees a mark made by its own warp instruction.
            match a.kind {
                AccessKind::Store => *written = true,
                AccessKind::Load if !*written => self.findings.record(
                    FindingKind::GlobalReadBeforeWrite,
                    kernel,
                    subject,
                    format!(
                        "block {} warp {} lane {}: read uninitialized {}[{}] before any \
                         kernel wrote it",
                        a.block, a.warp, lane, subject, word
                    ),
                ),
                AccessKind::Load => {}
            }
        }
    }
}

impl TapeSink for Analyzer {
    fn begin(&mut self, launch: &LaunchInfo) {
        self.launches += 1;
        self.sync_global_shadows(launch);
        self.blk = None;
    }

    fn access(&mut self, launch: &LaunchInfo, _: &SiteTable, a: &MemAccess<'_>) {
        match a.buf {
            TapeBuf::SharedF32 => self.check_shared(launch, a),
            TapeBuf::GlobalF32(_) | TapeBuf::GlobalU32(_) => self.check_global(launch, a),
        }
    }

    fn barrier(&mut self, launch: &LaunchInfo, b: &BarrierRecord) {
        let arrived = b.continues.iter().filter(|&&c| c).count();
        if arrived != 0 && arrived != b.continues.len() {
            self.findings.record(
                FindingKind::BarrierDivergence,
                &launch.kernel,
                "barrier",
                format!(
                    "block {} phase {}: {}/{} warps arrived at the barrier",
                    b.block,
                    b.phase,
                    arrived,
                    b.continues.len()
                ),
            );
        }
    }

    fn end(&mut self, launch: &LaunchInfo, _: &SiteTable, aborted: Option<&SimError>) {
        // Aborts no event stream can express (watchdog, empty grid, ...).
        // A kernel fault or barrier divergence was already reported from
        // the faulting access or the divergent barrier record.
        match aborted {
            Some(SimError::KernelFault { .. } | SimError::BarrierDivergence { .. }) | None => {}
            Some(e) => {
                self.findings.record(
                    FindingKind::LaunchFailure,
                    &launch.kernel,
                    "launch",
                    format!("{e}"),
                );
            }
        }
        self.blk = None;
    }
}

fn kind_verb(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Load => "read",
        AccessKind::Store => "write",
    }
}

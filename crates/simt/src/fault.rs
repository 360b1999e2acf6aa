//! Fault-injection harness for the simulation core.
//!
//! Robustness claim of this crate: **no input — configuration, kernel,
//! or captured trace — makes the simulator panic or hang.** Every
//! failure either surfaces as a typed [`SimError`] from a `try_*` entry
//! point or completes with a documented degraded result.
//!
//! This module makes that claim testable. [`Fault`] enumerates the
//! perturbation classes (invalid configurations, malformed grids,
//! out-of-range addresses, shared-memory oversubscription, truncated
//! traces, non-terminating kernels, ...), and [`inject`] builds a
//! minimal scenario for each and drives it through the public fallible
//! API. The integration suite in `tests/fault_injection.rs` asserts
//! that every class yields the expected [`SimError`] variant.
//!
//! The harness is compiled into the library (not test-gated) so
//! downstream crates and future fuzzing drivers can reuse the
//! scenarios.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::config::{CacheGeom, GpuConfig};
use crate::error::SimError;
use crate::gpu::{try_time_trace, try_time_traces_concurrent, Gpu};
use crate::isa::TOp;
use crate::kernel::{GridShape, Kernel, PhaseControl, WarpCtx};
use crate::sanitizer::{BarrierRecord, LaunchInfo, MemAccess, TapeSink};
use crate::shadow::SiteTable;
use crate::trace::try_trace_kernel;

/// A class of injectable fault.
///
/// Each variant perturbs one layer of the stack: the machine
/// configuration, the launch geometry, the kernel's memory behavior, or
/// the captured trace handed to the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Configuration with zero SMs.
    ZeroSms,
    /// Configuration with a zero warp size.
    ZeroWarpSize,
    /// SIMD pipeline wider than the warp.
    SimdWiderThanWarp,
    /// Configuration with zero DRAM channels (the address interleave
    /// would divide by zero).
    ZeroDramChannels,
    /// Coalescing segment size that is not a power of two.
    NonPow2SegmentBytes,
    /// Shared-memory bank count that is not a power of two (the
    /// conflict model indexes banks by masking).
    NonPow2SharedBanks,
    /// Non-finite core clock (every derived time would be NaN).
    NanCoreClock,
    /// L1 cache geometry with zero ways (set indexing would divide by
    /// zero on the first access).
    DegenerateCacheGeometry,
    /// L2 geometry that is consistent but absurdly large (2 GiB of
    /// 1-byte lines): allocating its tags would abort the process.
    OversizedCacheGeometry,
    /// Kernel declaring a grid with zero blocks.
    ZeroSizedGrid,
    /// Kernel load past the end of a global buffer.
    OutOfRangeLoad,
    /// Kernel store past the end of a global buffer.
    OutOfRangeStore,
    /// Kernel whose per-CTA shared memory exceeds the SM's capacity
    /// (occupancy can never be satisfied).
    SharedOversubscription,
    /// Kernel indexing past the end of its shared-memory scratch.
    SharedOutOfRange,
    /// Warps of one CTA disagreeing on barrier phase control.
    BarrierDivergence,
    /// Kernel that requests barrier phases forever.
    NonTerminatingKernel,
    /// Captured trace truncated mid-stream so a barrier can never
    /// release.
    TruncatedTrace,
    /// Trace captured at one warp size replayed under another.
    WarpSizeMismatchTrace,
    /// Timing replay invoked with no traces at all.
    EmptyTraceList,
}

impl Fault {
    /// Every fault class, for exhaustive sweeps.
    pub fn all() -> Vec<Fault> {
        use Fault::*;
        vec![
            ZeroSms,
            ZeroWarpSize,
            SimdWiderThanWarp,
            ZeroDramChannels,
            NonPow2SegmentBytes,
            NonPow2SharedBanks,
            NanCoreClock,
            DegenerateCacheGeometry,
            OversizedCacheGeometry,
            ZeroSizedGrid,
            OutOfRangeLoad,
            OutOfRangeStore,
            SharedOversubscription,
            SharedOutOfRange,
            BarrierDivergence,
            NonTerminatingKernel,
            TruncatedTrace,
            WarpSizeMismatchTrace,
            EmptyTraceList,
        ]
    }
}

/// A minimal, well-formed kernel used as the victim for config-level
/// faults: each thread doubles one element of `data`.
struct Victim {
    data: crate::memory::BufF32,
    n: usize,
}

impl Kernel for Victim {
    fn name(&self) -> &str {
        "fault-victim"
    }
    fn shape(&self) -> GridShape {
        GridShape::cover(self.n, 64)
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let (data, n) = (self.data, self.n);
        let x = w.ld_f32(data, |_, tid| (tid < n).then_some(tid));
        w.alu(1);
        w.st_f32(data, |lane, tid| (tid < n).then_some((tid, x[lane] * 2.0)));
        PhaseControl::Done
    }
}

/// A kernel parameterized over its misbehavior.
struct Saboteur {
    shape: GridShape,
    shared_words: usize,
    mode: SabotageMode,
}

#[derive(Clone, Copy)]
enum SabotageMode {
    /// Behave (used when the fault lives elsewhere, e.g. in the grid).
    None,
    /// Read one element past the buffer.
    LoadPastEnd(crate::memory::BufF32, usize),
    /// Write one element past the buffer.
    StorePastEnd(crate::memory::BufF32, usize),
    /// Index shared memory out of range.
    SharedPastEnd,
    /// Warp 0 requests another phase, the rest finish.
    DivergeAtBarrier,
    /// Request phases forever.
    NeverTerminate,
}

impl Kernel for Saboteur {
    fn name(&self) -> &str {
        "saboteur"
    }
    fn shape(&self) -> GridShape {
        self.shape
    }
    fn shared_f32_words(&self) -> usize {
        self.shared_words
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        match self.mode {
            SabotageMode::None => PhaseControl::Done,
            SabotageMode::LoadPastEnd(buf, len) => {
                let _ = w.ld_f32(buf, |_, _| Some(len));
                PhaseControl::Done
            }
            SabotageMode::StorePastEnd(buf, len) => {
                w.st_f32(buf, |_, _| Some((len, 1.0)));
                PhaseControl::Done
            }
            SabotageMode::SharedPastEnd => {
                w.sh_st_f32(|_, _| Some((self.shared_words + 7, 0.0)));
                PhaseControl::Done
            }
            SabotageMode::DivergeAtBarrier => {
                if w.warp() == 0 && w.phase() == 0 {
                    PhaseControl::Continue
                } else {
                    PhaseControl::Done
                }
            }
            SabotageMode::NeverTerminate => {
                w.alu(1);
                PhaseControl::Continue
            }
        }
    }
}

fn broken_config(fault: Fault) -> GpuConfig {
    let mut cfg = GpuConfig::gpgpusim_default();
    cfg.name = format!("faulty-{fault:?}");
    match fault {
        Fault::ZeroSms => cfg.num_sms = 0,
        Fault::ZeroWarpSize => cfg.warp_size = 0,
        Fault::SimdWiderThanWarp => cfg.simd_width = cfg.warp_size * 2,
        Fault::ZeroDramChannels => cfg.mem_channels = 0,
        Fault::NonPow2SegmentBytes => cfg.segment_bytes = 48,
        Fault::NonPow2SharedBanks => cfg.shared_banks = 12,
        Fault::NanCoreClock => cfg.core_clock_ghz = f64::NAN,
        Fault::DegenerateCacheGeometry => {
            cfg.l1 = Some(CacheGeom {
                bytes: 16 * 1024,
                ways: 0,
                line: 64,
            });
        }
        Fault::OversizedCacheGeometry => {
            cfg.l2 = Some(CacheGeom {
                bytes: 1 << 31,
                ways: 1,
                line: 1,
            });
        }
        _ => unreachable!("not a config fault: {fault:?}"),
    }
    cfg
}

/// Builds the scenario for `fault` and drives it through the fallible
/// API.
///
/// # Errors
///
/// Returns the typed [`SimError`] the fault produces — that is the
/// *expected* outcome for every current fault class; an `Ok` return
/// carries a description of a documented degraded completion and is
/// reserved for future soft-fault classes.
pub fn inject(fault: Fault) -> Result<String, SimError> {
    inject_impl(fault, &|_| {})
}

/// [`inject`] with `sink` receiving the sanitizer events of every
/// launch the scenario makes, as they execute; returns the outcome and
/// the sink.
///
/// The fault harness thus doubles as the sanitizer's true-positive
/// corpus: the memory and barrier fault classes
/// ([`Fault::OutOfRangeLoad`], [`Fault::OutOfRangeStore`],
/// [`Fault::SharedOutOfRange`], [`Fault::BarrierDivergence`]) each
/// stream a launch from which `sanitize` must reproduce and classify
/// the fault. Scenarios that never construct a `Gpu` (or whose fault
/// lives in the configuration, rejected before any launch) deliver no
/// launch to the sink.
pub fn inject_sink<S: TapeSink>(fault: Fault, sink: S) -> (Result<String, SimError>, S) {
    let shared = Arc::new(Mutex::new(sink));
    let result = inject_impl(fault, &|gpu| {
        gpu.set_tape_sink(Box::new(Forward(Arc::clone(&shared))));
    });
    let sink = Arc::into_inner(shared).expect("every device the scenario built is dropped");
    (result, sink.into_inner().expect("the sink did not panic"))
}

/// Forwards a device's sanitizer events to a sink the harness keeps
/// a handle on.
struct Forward<S>(Arc<Mutex<S>>);

impl<S: TapeSink> Forward<S> {
    fn sink(&self) -> MutexGuard<'_, S> {
        self.0.lock().expect("the sink did not panic")
    }
}

impl<S: TapeSink> TapeSink for Forward<S> {
    fn begin(&mut self, launch: &LaunchInfo) {
        self.sink().begin(launch);
    }

    fn access(&mut self, launch: &LaunchInfo, sites: &SiteTable, access: &MemAccess<'_>) {
        self.sink().access(launch, sites, access);
    }

    fn barrier(&mut self, launch: &LaunchInfo, barrier: &BarrierRecord) {
        self.sink().barrier(launch, barrier);
    }

    fn end(&mut self, launch: &LaunchInfo, sites: &SiteTable, aborted: Option<&SimError>) {
        self.sink().end(launch, sites, aborted);
    }
}

/// Runs `fault`'s scenario, calling `attach` on each device it builds
/// before the first launch.
fn inject_impl(fault: Fault, attach: &dyn Fn(&mut Gpu)) -> Result<String, SimError> {
    let cfg = GpuConfig::gpgpusim_default();
    match fault {
        Fault::ZeroSms
        | Fault::ZeroWarpSize
        | Fault::SimdWiderThanWarp
        | Fault::ZeroDramChannels
        | Fault::NonPow2SegmentBytes
        | Fault::NonPow2SharedBanks
        | Fault::NanCoreClock
        | Fault::DegenerateCacheGeometry
        | Fault::OversizedCacheGeometry => {
            let mut gpu = Gpu::try_new(broken_config(fault))?;
            attach(&mut gpu);
            // try_new rejects every current config fault, so this is
            // unreachable today; kept total in case validation ever
            // loosens — the launch path re-validates.
            let data = gpu.mem_mut().alloc_f32_zeroed("data", 256);
            gpu.try_launch(&Victim { data, n: 256 })?;
            Ok("configuration accepted and launch completed".into())
        }
        Fault::ZeroSizedGrid => {
            let mut gpu = Gpu::try_new(cfg)?;
            attach(&mut gpu);
            gpu.try_launch(&Saboteur {
                shape: GridShape {
                    blocks: 0,
                    threads_per_block: 64,
                },
                shared_words: 0,
                mode: SabotageMode::None,
            })?;
            Ok("empty grid completed as a no-op".into())
        }
        Fault::OutOfRangeLoad => {
            let mut gpu = Gpu::try_new(cfg)?;
            attach(&mut gpu);
            let buf = gpu.mem_mut().alloc_f32_zeroed("victim", 128);
            gpu.try_launch(&Saboteur {
                shape: GridShape::new(1, 64),
                shared_words: 0,
                mode: SabotageMode::LoadPastEnd(buf, 128),
            })?;
            Ok("out-of-range load completed".into())
        }
        Fault::OutOfRangeStore => {
            let mut gpu = Gpu::try_new(cfg)?;
            attach(&mut gpu);
            let buf = gpu.mem_mut().alloc_f32_zeroed("victim", 128);
            gpu.try_launch(&Saboteur {
                shape: GridShape::new(1, 64),
                shared_words: 0,
                mode: SabotageMode::StorePastEnd(buf, 128),
            })?;
            Ok("out-of-range store completed".into())
        }
        Fault::SharedOversubscription => {
            let mut gpu = Gpu::try_new(cfg)?;
            attach(&mut gpu);
            gpu.try_launch(&Saboteur {
                shape: GridShape::new(1, 64),
                // 256 kB of f32 scratch: exceeds every preset's SM.
                shared_words: 64 * 1024,
                mode: SabotageMode::None,
            })?;
            Ok("oversubscribed CTA launched".into())
        }
        Fault::SharedOutOfRange => {
            let mut gpu = Gpu::try_new(cfg)?;
            attach(&mut gpu);
            gpu.try_launch(&Saboteur {
                shape: GridShape::new(1, 64),
                shared_words: 32,
                mode: SabotageMode::SharedPastEnd,
            })?;
            Ok("shared-memory overrun completed".into())
        }
        Fault::BarrierDivergence => {
            let mut gpu = Gpu::try_new(cfg)?;
            attach(&mut gpu);
            gpu.try_launch(&Saboteur {
                shape: GridShape::new(1, 128),
                shared_words: 0,
                mode: SabotageMode::DivergeAtBarrier,
            })?;
            Ok("divergent barrier completed".into())
        }
        Fault::NonTerminatingKernel => {
            let mut tight = cfg;
            // Tighten the watchdog so the test is fast; the default
            // budget would also fire, just later.
            tight.watchdog.max_phases = Some(512);
            let mut gpu = Gpu::try_new(tight)?;
            attach(&mut gpu);
            gpu.try_launch(&Saboteur {
                shape: GridShape::new(1, 64),
                shared_words: 0,
                mode: SabotageMode::NeverTerminate,
            })?;
            Ok("non-terminating kernel completed".into())
        }
        Fault::TruncatedTrace => {
            let mut gpu = Gpu::try_new(cfg.clone())?;
            attach(&mut gpu);
            let data = gpu.mem_mut().alloc_f32_zeroed("data", 256);
            // A healthy two-warp kernel with one barrier...
            struct TwoPhase {
                data: crate::memory::BufF32,
            }
            impl Kernel for TwoPhase {
                fn name(&self) -> &str {
                    "two-phase"
                }
                fn shape(&self) -> GridShape {
                    GridShape::new(1, 64)
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
                            let v = w.sh_ld_f32(|lane, _| Some(ltids[lane]));
                            let data = self.data;
                            w.st_f32(data, |lane, tid| Some((tid, v[lane])));
                            PhaseControl::Done
                        }
                    }
                }
            }
            let mut trace = try_trace_kernel(&TwoPhase { data }, gpu.mem_mut(), &cfg)?;
            // ... whose second warp loses its barrier token mid-stream
            // (the rest of the capture survives). Warp 0 parks at a
            // barrier warp 1 never arrives at — and because warp 1 stays
            // live past warp 0's arrival, the barrier can never release.
            let w1 = &mut trace.ctas[0].warps[1].ops;
            let bar = w1
                .iter()
                .position(|op| matches!(op, TOp::Bar))
                .expect("two-phase kernel must contain a barrier");
            w1.remove(bar);
            try_time_trace(&trace, &cfg)?;
            Ok("truncated trace replayed to completion".into())
        }
        Fault::WarpSizeMismatchTrace => {
            let mut gpu = Gpu::try_new(cfg.clone())?;
            attach(&mut gpu);
            let data = gpu.mem_mut().alloc_f32_zeroed("data", 256);
            let trace = try_trace_kernel(&Victim { data, n: 256 }, gpu.mem_mut(), &cfg)?;
            let mut narrow = cfg;
            narrow.warp_size = 16;
            narrow.simd_width = 16;
            narrow.name = "narrow-warp".into();
            try_time_trace(&trace, &narrow)?;
            Ok("mismatched warp size replayed to completion".into())
        }
        Fault::EmptyTraceList => {
            try_time_traces_concurrent(&[], &cfg)?;
            Ok("empty launch completed".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_class_once() {
        let all = Fault::all();
        assert_eq!(all.len(), 19);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

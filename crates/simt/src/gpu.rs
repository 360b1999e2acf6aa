//! The whole-GPU timing model: CTA scheduling and trace replay.
//!
//! # The epoch-barrier engine
//!
//! One launch replays on one thread. Execution alternates two phases:
//!
//! 1. **Epoch** `[start, end)` — every SM advances alone through the
//!    window touching only SM-local state (warp scheduling, compute
//!    latencies, L1/texture caches, barriers, retirement). Traffic for
//!    *shared* resources — the chip-wide L2, the DRAM channels, the
//!    pending-CTA queue, the global live-warp count — is appended to the
//!    epoch's event log instead of applied.
//! 2. **Barrier** — the engine sorts the log by `(cycle, sm, seq, kind)`
//!    — exactly the order a cycle-by-cycle lockstep sweep over the SMs
//!    would have processed the events in — and applies it: L2/DRAM
//!    accesses resolve waiting warps, retirements decrement the live
//!    count, completed CTAs free resources and pull from the queue, and
//!    the timeline sampler records every boundary that falls before each
//!    event.
//!
//! The epoch length is chosen so that *no deferred effect can land
//! inside the epoch that produced it*: it never exceeds the minimum
//! shared-memory response latency (an L2 hit, or DRAM service + latency
//! without an L2), and while CTAs are queued it never exceeds the CTA
//! launch overhead. Under that bound, deferring shared traffic to the
//! barrier is not an approximation — every statistic, including cycle
//! counts, [`StallBreakdown`], [`Timeline`] samples, and cache hit
//! counters, is byte-identical to a lockstep simulation — and it lets
//! each SM run a whole epoch in one tight loop.
//!
//! # Parallelism: across launches, not SMs
//!
//! The launches of an application run are independent — each one times
//! on a fresh engine — so [`try_time_launches`] spends the
//! [`ReplayOptions::sim_threads`] workers its caller passes, with the
//! buffer for its `kernel_stats` records, on a run's *distinct*
//! launches: each distinct launch (by `Arc` identity) is replayed once,
//! and the per-launch stats are merged in launch order on the calling
//! thread. The width changes wall-clock time, never results; it is a
//! pure performance knob, like `--jobs`, excluded from study cache
//! keys. (Splitting one launch's SMs across
//! threads was measured and retired: the per-epoch handoff and barrier
//! are serial, and two SM shards ran 1.5–3.8× slower than one thread at
//! every study scale.)
//!
//! ```
//! use std::sync::Arc;
//! use simt::{trace_kernel, try_time_launches, GpuConfig, ReplayOptions};
//! use simt::{GridShape, Kernel, PhaseControl, WarpCtx};
//!
//! struct Saxpy { n: usize }
//! impl Kernel for Saxpy {
//!     fn name(&self) -> &str { "saxpy" }
//!     fn shape(&self) -> GridShape { GridShape::cover(self.n, 128) }
//!     fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
//!         w.alu(8);
//!         PhaseControl::Done
//!     }
//! }
//!
//! let cfg = GpuConfig::gpgpusim_default();
//! let mut mem = simt::GpuMem::new();
//! let big = Arc::new(trace_kernel(&Saxpy { n: 4096 }, &mut mem, &cfg));
//! let small = Arc::new(trace_kernel(&Saxpy { n: 512 }, &mut mem, &cfg));
//! // A run of three launches, two of them the same capture.
//! let run = [Arc::clone(&big), small, big];
//! // The worker count changes wall-clock time, never results.
//! let records = obs::Records::default();
//! records.set_recording(true);
//! let serial = ReplayOptions { sim_threads: 1, records: Some(&records) };
//! let serial = try_time_launches(&run, &cfg, &serial).unwrap();
//! let parallel = ReplayOptions { sim_threads: 4, records: None };
//! let parallel = try_time_launches(&run, &cfg, &parallel).unwrap();
//! assert_eq!(serial.to_json(), parallel.to_json());
//! assert_eq!(serial.launches, 3);
//! assert_eq!(records.drain().0.len(), 3); // one record per launch
//! ```

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::caches::Cache;
use crate::config::GpuConfig;
use crate::dram::Dram;
use crate::error::SimError;
use crate::kernel::Kernel;
use crate::memory::GpuMem;
use crate::sanitizer::LaunchTape;
use crate::sm::{
    ctas_per_sm, fold_summary, run_epoch, CtaRt, EpochLog, EvKind, EvRec, IssueCosts, SmRt, WarpRt,
    SCHED_READY_MASK,
};
use crate::stats::{KernelStats, StallBreakdown, Timeline, TimelineSample};
use crate::trace::{try_trace_kernel, try_trace_kernel_with, KernelTrace, TraceTotals};

/// How one replay of a recorded run is carried out: its worker width
/// and where its `kernel_stats` records go. Neither changes a result,
/// so neither is part of [`GpuConfig`] or of any study cache key.
#[derive(Debug, Clone, Copy)]
pub struct ReplayOptions<'a> {
    /// Worker threads *inside* the replay (0 = one per CPU), capped by
    /// the run's distinct launch count and the host's CPU count.
    pub sim_threads: usize,
    /// The buffer that receives one `kernel_stats` record per launch, in
    /// launch order; `None` publishes nothing.
    pub records: Option<&'a obs::Records>,
}

impl ReplayOptions<'_> {
    /// A replay on `sim_threads` workers that publishes nothing.
    pub fn width(sim_threads: usize) -> Self {
        ReplayOptions {
            sim_threads,
            records: None,
        }
    }
}

/// Publishes `stats` as a `kernel_stats` record into `records`, if any.
fn publish(records: Option<&obs::Records>, stats: &KernelStats) {
    if let Some(records) = records {
        records.record_with("kernel_stats", || stats.to_json());
    }
}

/// The width read only by the bench harness's `CapturedRun::replay`.
static SIM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the width `CapturedRun::replay` reads (`0` = auto).
#[doc(hidden)]
pub fn set_sim_threads(n: usize) {
    SIM_THREADS.store(n, Ordering::Relaxed);
}

/// The width set by [`set_sim_threads`].
#[doc(hidden)]
pub fn sim_threads() -> usize {
    SIM_THREADS.load(Ordering::Relaxed)
}

/// The host's CPU count.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Resolves a requested thread count (`0` = auto) to a worker count.
fn resolve_sim_threads(n: usize) -> usize {
    match n {
        0 => host_cpus(),
        n => n,
    }
}

/// An installed sanitizer sink (a boxed closure; opaque to `Debug`).
struct SanitizerSink(Box<dyn FnMut(LaunchTape) + Send + Sync>);

impl std::fmt::Debug for SanitizerSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SanitizerSink(..)")
    }
}

/// A simulated GPU: a machine configuration plus device memory.
///
/// The typical flow mirrors a CUDA program: allocate and fill buffers
/// through [`Gpu::mem_mut`], [`Gpu::launch`] one or more kernels, then
/// read results back.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    mem: GpuMem,
    record_traces: bool,
    recorded: Vec<std::sync::Arc<KernelTrace>>,
    sanitizer: Option<SanitizerSink>,
    records: Option<Arc<obs::Records>>,
}

impl Gpu {
    /// Creates a GPU with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`GpuConfig::validate`]). Use [`Gpu::try_new`] to handle the
    /// failure instead.
    pub fn new(cfg: GpuConfig) -> Gpu {
        Gpu::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Gpu::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration fails
    /// [`GpuConfig::validate`].
    pub fn try_new(cfg: GpuConfig) -> Result<Gpu, SimError> {
        cfg.validate()?;
        Ok(Gpu {
            cfg,
            mem: GpuMem::new(),
            record_traces: false,
            recorded: Vec::new(),
            sanitizer: None,
            records: None,
        })
    }

    /// Publishes each subsequent launch's `kernel_stats` record into
    /// `records`. Without a buffer, launches publish nothing.
    pub fn set_records(&mut self, records: Arc<obs::Records>) {
        self.records = Some(records);
    }

    /// Installs a sanitizer sink: every subsequent launch (successful or
    /// aborted) delivers one [`LaunchTape`] — the per-lane access and
    /// barrier-vote record the `sanitize` crate's checkers consume. On an
    /// aborted launch the tape carries the [`SimError`] in
    /// [`LaunchTape::aborted`] along with the events recorded up to the
    /// abort.
    ///
    /// Off by default and free when off: without a sink the executor
    /// records nothing, and with one the captured traces (and therefore
    /// all replayed statistics) are byte-identical anyway. Tapes are
    /// produced during functional capture, which stays single-threaded —
    /// the intra-replay worker count ([`ReplayOptions::sim_threads`])
    /// cannot affect them.
    pub fn set_sanitizer_sink(&mut self, sink: impl FnMut(LaunchTape) + Send + Sync + 'static) {
        self.sanitizer = Some(SanitizerSink(Box::new(sink)));
    }

    /// Captures a kernel's functional trace, delivering a sanitizer tape
    /// to the installed sink (if any) even when the capture aborts.
    fn capture(&mut self, kernel: &dyn Kernel) -> Result<KernelTrace, SimError> {
        match self.sanitizer.as_mut() {
            None => try_trace_kernel(kernel, &mut self.mem, &self.cfg),
            Some(_) => {
                let mut tape = LaunchTape::for_launch(kernel, &self.mem, &self.cfg);
                let res = try_trace_kernel_with(kernel, &mut self.mem, &self.cfg, Some(&mut tape));
                if let Err(e) = &res {
                    tape.aborted = Some(e.clone());
                }
                if let Some(SanitizerSink(sink)) = self.sanitizer.as_mut() {
                    sink(tape);
                }
                res
            }
        }
    }

    /// Turns transparent trace recording on or off. While on, every
    /// successful [`Gpu::launch`] / [`Gpu::try_launch`] stashes its
    /// captured [`KernelTrace`] (behind an `Arc`, in launch order) so a
    /// whole application run can later be re-timed on other
    /// configurations without re-executing it functionally.
    pub fn set_trace_recording(&mut self, on: bool) {
        self.record_traces = on;
    }

    /// Whether launches currently record their traces.
    pub fn trace_recording(&self) -> bool {
        self.record_traces
    }

    /// Takes the traces recorded since recording was enabled (or since
    /// the last call), in launch order, leaving the buffer empty.
    pub fn take_recorded_traces(&mut self) -> Vec<std::sync::Arc<KernelTrace>> {
        std::mem::take(&mut self.recorded)
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Device memory (read access).
    pub fn mem(&self) -> &GpuMem {
        &self.mem
    }

    /// Device memory (for allocation and host↔device copies).
    pub fn mem_mut(&mut self) -> &mut GpuMem {
        &mut self.mem
    }

    /// Executes `kernel` functionally and times it on this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's per-CTA resources exceed the SM's capacity,
    /// or if the kernel itself misbehaves (out-of-bounds access, barrier
    /// divergence). Use [`Gpu::try_launch`] to handle those failures
    /// instead.
    pub fn launch(&mut self, kernel: &dyn Kernel) -> KernelStats {
        self.try_launch(kernel).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Gpu::launch`].
    ///
    /// # Errors
    ///
    /// Returns every failure the simulation core can detect as a typed
    /// [`SimError`]: an empty grid, an out-of-bounds access
    /// ([`SimError::KernelFault`]), barrier divergence, an occupancy
    /// failure ([`SimError::LaunchFailed`]), a watchdog expiry
    /// ([`SimError::Watchdog`]), or a scheduling deadlock. On error,
    /// device memory may hold partial writes from the functional
    /// execution.
    pub fn try_launch(&mut self, kernel: &dyn Kernel) -> Result<KernelStats, SimError> {
        let trace = self.capture(kernel)?;
        let stats = self.time(&[&trace])?.combined;
        if self.record_traces {
            self.recorded.push(std::sync::Arc::new(trace));
        }
        Ok(stats)
    }

    /// Executes several kernels **concurrently** (Fermi-style
    /// simultaneous kernel execution). Functional execution happens in
    /// argument order — so the kernels must not depend on each other's
    /// output — and the timing model then co-schedules their CTAs.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty or any kernel cannot launch. Use
    /// [`Gpu::try_launch_concurrent`] to handle those failures instead.
    pub fn launch_concurrent(&mut self, kernels: &[&dyn Kernel]) -> ConcurrentStats {
        self.try_launch_concurrent(kernels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Gpu::launch_concurrent`].
    ///
    /// # Errors
    ///
    /// As [`Gpu::try_launch`], plus [`SimError::EmptyLaunch`] if
    /// `kernels` is empty.
    pub fn try_launch_concurrent(
        &mut self,
        kernels: &[&dyn Kernel],
    ) -> Result<ConcurrentStats, SimError> {
        let mut traces = Vec::with_capacity(kernels.len());
        for k in kernels {
            traces.push(self.capture(*k)?);
        }
        let refs: Vec<&KernelTrace> = traces.iter().collect();
        self.time(&refs)
    }

    /// Times co-resident traces on this device's configuration and
    /// publishes the combined stats into its records buffer.
    fn time(&self, traces: &[&KernelTrace]) -> Result<ConcurrentStats, SimError> {
        let stats = try_time_traces_concurrent(traces, &self.cfg)?;
        publish(self.records.as_deref(), &stats.combined);
        Ok(stats)
    }
}

/// Result of a concurrent multi-kernel execution
/// ([`time_traces_concurrent`]).
#[derive(Debug, Clone)]
pub struct ConcurrentStats {
    /// Aggregate statistics over all co-resident kernels (its `cycles`
    /// is the makespan).
    pub combined: KernelStats,
    /// Cycle at which each kernel's last CTA retired, in input order.
    pub per_kernel_cycles: Vec<u64>,
}

/// Replays a captured trace on the machine model of `cfg`, producing the
/// full statistics the paper reports.
///
/// The trace must have been captured with the same warp size and segment
/// size as `cfg` (bank-conflict degrees are stored in the trace, so the
/// `model_bank_conflicts` flag and everything downstream of issue — SIMD
/// width, clocks, channels, caches — may differ freely; this is what
/// enables the Figure 4 and Plackett–Burman sweeps to reuse traces).
///
/// # Panics
///
/// Panics on occupancy failure (a CTA that cannot fit on an SM) or on an
/// internal scheduling deadlock, which would indicate a bug. Use
/// [`try_time_trace`] to handle those failures instead.
pub fn time_trace(trace: &KernelTrace, cfg: &GpuConfig) -> KernelStats {
    try_time_trace(trace, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`time_trace`].
///
/// # Errors
///
/// As [`try_time_traces_concurrent`].
pub fn try_time_trace(trace: &KernelTrace, cfg: &GpuConfig) -> Result<KernelStats, SimError> {
    Ok(try_time_traces_concurrent(&[trace], cfg)?.combined)
}

/// Replays a recorded application run — its launches in order, each on
/// a fresh engine, as [`try_time_trace`] would — and merges the
/// per-launch statistics in launch order with [`KernelStats::merge`].
///
/// Launches that share one `Arc` are replayed once and their stats
/// reused, since a replay depends only on the trace and `cfg`. The
/// distinct launches are spread over `min(opts.sim_threads, distinct
/// launches, CPUs)` scoped workers; the result is byte-identical at
/// every width, and each launch's `kernel_stats` record is published
/// into `opts.records` in launch order from the calling thread.
///
/// # Errors
///
/// [`SimError::EmptyLaunch`] if `launches` is empty; otherwise the error
/// of the earliest launch that fails (see [`try_time_traces_concurrent`])
/// — the one a serial left-to-right replay would report.
pub fn try_time_launches(
    launches: &[Arc<KernelTrace>],
    cfg: &GpuConfig,
    opts: &ReplayOptions<'_>,
) -> Result<KernelStats, SimError> {
    // Each launch's index into `distinct`, which lists every distinct
    // trace once, in order of first appearance.
    let mut distinct: Vec<&KernelTrace> = Vec::new();
    let mut first_seen: HashMap<*const KernelTrace, usize> = HashMap::new();
    let slot_of: Vec<usize> = launches
        .iter()
        .map(|l| {
            *first_seen.entry(Arc::as_ptr(l)).or_insert_with(|| {
                distinct.push(l);
                distinct.len() - 1
            })
        })
        .collect();
    let results = replay_each(&distinct, cfg, resolve_sim_threads(opts.sim_threads));
    let mut merged: Option<KernelStats> = None;
    for slot in slot_of {
        // Slots are numbered in launch order, so the first failure met
        // here is the earliest failing launch, and every slot before it
        // was replayed.
        let stats = results[slot]
            .as_ref()
            .expect("every slot before the first failure was replayed")
            .as_ref()
            .map_err(Clone::clone)?;
        publish(opts.records, stats);
        match &mut merged {
            None => merged = Some(stats.clone()),
            Some(m) => m.merge(stats),
        }
    }
    merged.ok_or(SimError::EmptyLaunch)
}

/// Replays each trace alone on `min(width, traces, CPUs)` scoped
/// workers (the calling thread is one of them). Workers claim traces in
/// index order and stop claiming past the lowest index that failed, so
/// every slot up to that failure is filled; later slots may be `None`.
fn replay_each(
    traces: &[&KernelTrace],
    cfg: &GpuConfig,
    width: usize,
) -> Vec<Option<Result<KernelStats, SimError>>> {
    let mut width = width.min(traces.len());
    if width > 1 {
        width = width.min(host_cpus());
    }
    let next = AtomicUsize::new(0);
    // Only a hint: a worker that misses a fresh failure replays one
    // launch whose result is then never read. The results themselves
    // reach this thread through the scope's join.
    let first_err = AtomicUsize::new(usize::MAX);
    let slots: Vec<OnceLock<Result<KernelStats, SimError>>> =
        traces.iter().map(|_| OnceLock::new()).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= traces.len() || i > first_err.load(Ordering::Relaxed) {
            break;
        }
        let r = try_time_trace(traces[i], cfg);
        if r.is_err() {
            first_err.fetch_min(i, Ordering::Relaxed);
        }
        let _ = slots[i].set(r);
    };
    std::thread::scope(|scope| {
        for _ in 1..width {
            scope.spawn(work);
        }
        work();
    });
    slots.into_iter().map(OnceLock::into_inner).collect()
}

/// Executes several captured kernels **concurrently** on one GPU — the
/// paper's "simultaneous kernel execution" future-work item. CTAs from
/// the kernels are interleaved round-robin into the pending queue and
/// placed wherever an SM has the resources (threads, registers, shared
/// memory, CTA slots), so small kernels can co-reside on partially
/// occupied SMs.
///
/// # Panics
///
/// Panics if `traces` is empty, if any kernel cannot fit a single CTA on
/// an empty SM, or on a warp-size mismatch with `cfg`. Use
/// [`try_time_traces_concurrent`] to handle those failures instead.
pub fn time_traces_concurrent(traces: &[&KernelTrace], cfg: &GpuConfig) -> ConcurrentStats {
    try_time_traces_concurrent(traces, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`time_traces_concurrent`].
///
/// Like every free timing function but [`try_time_launches`], it
/// publishes no `kernel_stats` record; a [`Gpu`] publishes its launches'
/// records into the buffer given to [`Gpu::set_records`].
///
/// # Errors
///
/// * [`SimError::EmptyLaunch`] — `traces` is empty.
/// * [`SimError::InvalidConfig`] — `cfg` fails
///   [`GpuConfig::validate`] (traces can be re-timed under arbitrary
///   configurations, so the replay path re-validates).
/// * [`SimError::WarpSizeMismatch`] — a trace was captured with a
///   different warp size than `cfg`.
/// * [`SimError::LaunchFailed`] — a kernel's CTA cannot fit on an empty
///   SM (occupancy failure).
/// * [`SimError::Watchdog`] — the replay exceeded
///   `cfg.watchdog.max_cycles`.
/// * [`SimError::Deadlock`] — every live warp is parked at a barrier
///   that can never release (e.g. a truncated or corrupted trace).
pub fn try_time_traces_concurrent(
    traces: &[&KernelTrace],
    cfg: &GpuConfig,
) -> Result<ConcurrentStats, SimError> {
    if traces.is_empty() {
        return Err(SimError::EmptyLaunch);
    }
    cfg.validate()?;
    for trace in traces {
        if trace.warp_size != cfg.warp_size as usize {
            return Err(SimError::WarpSizeMismatch {
                kernel: trace.name.clone(),
                trace_warp_size: trace.warp_size,
                config_warp_size: cfg.warp_size,
            });
        }
        ctas_per_sm(
            cfg,
            trace.threads_per_block,
            trace.regs_per_thread,
            trace.shared_bytes_per_cta,
        )
        .map_err(|e| SimError::LaunchFailed {
            kernel: trace.name.clone(),
            reason: e,
        })?;
    }
    let _span = obs::span!("simt.replay.{}", traces[0].name);
    let mut engine = Engine::new(traces, cfg);
    engine.run()?;
    // Once per launch, not per issue: with the `simt.replay.*` spans
    // these give replay time per issue, per scan and per epoch.
    let registry = obs::Registry::global();
    let issues = engine.sms.iter().map(|sm| u64::from(sm.seq)).sum();
    let scans = engine.sms.iter().map(|sm| sm.scans).sum();
    registry.add("simt.replay.issues", issues);
    registry.add("simt.replay.sched_scans", scans);
    registry.add("simt.replay.epochs", engine.epochs);
    Ok(engine.into_stats())
}

/// Raw payload of one timeline epoch before rate derivation.
#[derive(Debug, Clone, Copy)]
struct RawSample {
    /// Live (unretired) warps at the epoch.
    live_warps: u32,
    /// Cumulative DRAM channel-busy cycles at the epoch.
    busy_cum: u64,
}

/// The epoch-barrier replay engine (see the module docs).
///
/// All shared state lives here; all SM-local state lives in the
/// [`SmRt`]s. The barrier (`barrier_exchange`) is the only code that
/// touches the L2, the DRAM model, the CTA queue, the live-warp count,
/// or the timeline sampler after construction.
struct Engine<'a> {
    traces: &'a [&'a KernelTrace],
    cfg: &'a GpuConfig,
    /// Per-SM state, indexed by global SM id.
    sms: Vec<SmRt<'a>>,
    dram: Dram,
    l2: Option<Cache>,
    /// Pending (kernel, cta) launches, FIFO. Popped only at barriers, in
    /// the sorted event order — the lockstep sweep's placement order.
    queue: std::collections::VecDeque<(usize, usize)>,
    live_warps: usize,
    /// Highest cycle at which any SM has issued.
    cycle: u64,
    horizon: u64,
    per_kernel_done: Vec<u64>,
    /// Budget-bounded adaptive timeline sampler. Raw cumulative
    /// counters are recorded per epoch; windowed rates (DRAM
    /// utilization) are derived at the end from the *retained* cycle
    /// gaps, so they stay exact under decimation.
    sampler: obs::AdaptiveSampler<RawSample>,
    /// Maximum resident warps across the GPU (occupancy denominator).
    warp_capacity: f64,
    /// The epoch's event log; its buffers are reused across epochs.
    log: EpochLog,
    /// Issue costs by lane count under `cfg`.
    costs: IssueCosts,
    /// Epochs run so far.
    epochs: u64,
    /// Epoch length while the CTA queue is non-empty: also bounded by
    /// the CTA launch overhead, so deferred placements cannot become
    /// issuable inside the epoch that freed their resources.
    epoch_queue: u64,
    /// Epoch length once the queue has drained: bounded only by the
    /// minimum shared-memory (L2/DRAM) response latency.
    epoch_free: u64,
}

impl<'a> Engine<'a> {
    fn new(traces: &'a [&'a KernelTrace], cfg: &'a GpuConfig) -> Engine<'a> {
        // CTAs of all kernels interleave round-robin into one queue.
        let mut queue = std::collections::VecDeque::new();
        let max_ctas = traces.iter().map(|t| t.ctas.len()).max().unwrap_or(0);
        for c in 0..max_ctas {
            for (k, t) in traces.iter().enumerate() {
                if c < t.ctas.len() {
                    queue.push_back((k, c));
                }
            }
        }
        let num_sms = (cfg.num_sms as usize).max(1);
        // The shortest interval after which an effect deferred to the
        // barrier could influence an SM: a shared-memory response (L2
        // hit, or DRAM service + latency without an L2) for resolved
        // loads, and the CTA launch overhead for queue placements. An
        // epoch never outruns either, which is what makes the barrier
        // exchange exact rather than approximate.
        let mem_min = match cfg.l2 {
            Some(_) => cfg.l2_latency as u64,
            None => cfg.segment_service_cycles() + cfg.dram_latency as u64,
        };
        let epoch_free = mem_min.max(1);
        let epoch_queue = epoch_free.min((cfg.cta_launch_overhead as u64).max(1));
        let mut e = Engine {
            traces,
            cfg,
            sms: (0..num_sms).map(|i| SmRt::new(i as u32, cfg)).collect(),
            dram: Dram::new(cfg),
            l2: cfg.l2.map(Cache::new),
            queue,
            live_warps: 0,
            cycle: 0,
            horizon: 0,
            per_kernel_done: vec![0; traces.len()],
            sampler: obs::AdaptiveSampler::new(cfg.timeline_sample_period, cfg.timeline_capacity),
            warp_capacity: (cfg.num_sms as u64
                * (cfg.max_threads_per_sm / cfg.warp_size).max(1) as u64)
                as f64,
            log: EpochLog::default(),
            costs: IssueCosts::new(cfg),
            epochs: 0,
            epoch_queue,
            epoch_free,
        };
        // Initial breadth-first CTA placement, as GPGPU-Sim does: sweep
        // the SMs round after round until the head of the queue no
        // longer fits anywhere.
        loop {
            let mut placed = false;
            for sm in 0..num_sms {
                if let Some(&(k, _)) = e.queue.front() {
                    if e.fits(sm, k) {
                        let (k, c) = e.queue.pop_front().unwrap();
                        e.place_cta(sm, k, c, 0, 0);
                        placed = true;
                    }
                }
            }
            if !placed {
                break;
            }
        }
        e
    }

    /// Whether a CTA of kernel `k` fits on `sm` right now.
    fn fits(&self, sm: usize, k: usize) -> bool {
        let t = self.traces[k];
        let s = &self.sms[sm];
        let threads = t.threads_per_block as u32;
        s.resident_ctas < self.cfg.max_ctas_per_sm as usize
            && s.used_threads + threads <= self.cfg.max_threads_per_sm
            && s.used_regs + threads * t.regs_per_thread <= self.cfg.regs_per_sm
            && s.used_shared + t.shared_bytes_per_cta <= self.cfg.shared_mem_per_sm
    }

    /// Places one CTA on `sm`, its warps first issuable at `at`.
    /// `cycle` is the placement event's cycle (for stall attribution —
    /// always a no-op span, since placement only happens at cycle 0 or
    /// at the cycle of the retiring issue that already settled it).
    fn place_cta(&mut self, sm: usize, kernel: usize, trace_idx: usize, cycle: u64, at: u64) {
        let t = self.traces[kernel];
        let s = &mut self.sms[sm];
        s.attribute_span(cycle);
        s.summary = None;
        let n_warps = t.ctas[trace_idx].warps.len();
        let cta_rt = s.ctas.len();
        let mut warp_ids = Vec::with_capacity(n_warps);
        for w in 0..n_warps {
            let id = s.warp_tab.len();
            let warp = &t.ctas[trace_idx].warps[w];
            s.warp_tab.push(WarpRt {
                cta_rt: cta_rt as u32,
                ops: &warp.ops,
                segs: &warp.segs,
                pc: 0,
                ready_at: at,
                at_barrier: false,
                waiting_mem: false,
                unresolved: false,
                done: false,
                last_issue: 0,
            });
            warp_ids.push(id);
            s.slot_of.push(s.list.len());
            s.list.push(id);
            s.sched.push(at);
        }
        s.ctas.push(CtaRt {
            kernel,
            warps: warp_ids,
            arrived: 0,
            done_warps: 0,
        });
        s.resident_ctas += 1;
        s.used_threads += t.threads_per_block as u32;
        s.used_regs += t.threads_per_block as u32 * t.regs_per_thread;
        s.used_shared += t.shared_bytes_per_cta;
        self.live_warps += n_warps;
    }

    /// The epoch length from the current cycle, per the invariant in the
    /// module docs.
    fn epoch_len(&self) -> u64 {
        if self.queue.is_empty() {
            self.epoch_free
        } else {
            self.epoch_queue
        }
    }

    /// The next cycle at which any warp could issue (the next epoch's
    /// start), or a deadlock error if no warp can ever become ready.
    ///
    /// Also refreshes every SM's cached summary, which `run_epoch` then
    /// reads to jump each SM's idle spans.
    fn global_next_wake(&mut self) -> Result<u64, SimError> {
        let mut next = u64::MAX;
        for sm in &mut self.sms {
            // min over warps of max(ready_at, port_free_at) equals
            // max(min_ready, port_free_at): port_free_at is per-SM.
            let s = sm.summary();
            debug_assert!(
                s.same_state(&fold_summary(&sm.sched)),
                "SM {}: cached digest {s:?} is stale",
                sm.id
            );
            if s.min_ready != u64::MAX {
                debug_assert!(
                    s.min_ready < SCHED_READY_MASK,
                    "unresolved sentinel leaked past a barrier"
                );
                next = next.min(s.min_ready.max(sm.port_free_at));
            }
        }
        if next == u64::MAX {
            return Err(SimError::Deadlock {
                cycle: self.cycle,
                warps_parked: self.live_warps,
            });
        }
        Ok(next)
    }

    /// The epoch/barrier loop.
    fn run(&mut self) -> Result<(), SimError> {
        let max_cycles = self.cfg.watchdog.max_cycles;
        while self.live_warps > 0 {
            let wake = self.global_next_wake()?;
            if let Some(budget) = max_cycles {
                if wake >= budget {
                    return Err(SimError::Watchdog {
                        cycles: wake,
                        warps_stuck: self.live_warps,
                    });
                }
            }
            let mut end = wake.saturating_add(self.epoch_len());
            if let Some(budget) = max_cycles {
                // The watchdog check above guarantees wake < budget, so
                // the clamped window is never empty.
                end = end.min(budget);
            }
            run_epoch(
                &mut self.sms,
                self.cfg,
                &self.costs,
                wake,
                end,
                &mut self.log,
            );
            self.epochs += 1;
            self.barrier_exchange();
        }
        self.horizon = self.horizon.max(self.cycle);
        Ok(())
    }

    /// Resolves one shared-memory access at the epoch barrier: L2 hit,
    /// or DRAM behind the L2 (or DRAM directly without one). Returns the
    /// response cycle; stores call this for its bandwidth/allocation
    /// side effects and ignore the returned time.
    fn resolve_shared(&mut self, seg: u64, cycle: u64) -> u64 {
        match &mut self.l2 {
            Some(l2) => {
                if l2.access(seg) {
                    cycle + self.cfg.l2_latency as u64
                } else {
                    self.dram.access(seg, cycle) + self.cfg.l2_latency as u64
                }
            }
            None => self.dram.access(seg, cycle),
        }
    }

    /// Applies the epoch's deferred events in canonical lockstep order.
    ///
    /// The sort key `(cycle, sm, seq, kind)` reproduces exactly the
    /// order in which a lockstep sweep reaches these effects: it visits
    /// SMs in index order within a cycle, an SM's events within a cycle
    /// follow its issue sequence, and within one issue memory accesses
    /// precede the warp's retirement, which precedes CTA completion.
    /// Order-sensitive shared state — the L2's LRU stacks, DRAM channel
    /// queues, the CTA queue, the timeline sampler — therefore evolves
    /// identically, which is the heart of the byte-identity guarantee.
    fn barrier_exchange(&mut self) {
        self.cycle = self.cycle.max(self.log.last_cycle);
        self.horizon = self.horizon.max(self.log.horizon);
        let mut events = std::mem::take(&mut self.log.events);
        let mut segs = std::mem::take(&mut self.log.segs);
        let key = |e: &EvRec| (e.cycle, e.sm, e.seq, e.kind.rank());
        events.sort_unstable_by_key(key);
        // SMs log SM-major, so the order above comes from the sort
        // alone; a duplicate key would let log order leak into results.
        debug_assert!(
            events.windows(2).all(|p| key(&p[0]) < key(&p[1])),
            "barrier sort keys are not unique"
        );
        for e in &events {
            // Timeline boundaries due at or before this event's cycle
            // record the state *before* any event at that cycle — the
            // same rule as a lockstep sweep's pre-jump sampling.
            while self.sampler.is_due(e.cycle) {
                let raw = RawSample {
                    live_warps: self.live_warps as u32,
                    busy_cum: self.dram.busy_cycles(),
                };
                self.sampler.record_due(raw);
            }
            match e.kind {
                EvKind::Mem {
                    warp,
                    add,
                    wait,
                    segs: (from, to),
                } => {
                    let mut done = 0u64;
                    for &seg in &segs[from as usize..to as usize] {
                        let t = self.resolve_shared(seg, e.cycle);
                        done = done.max(t + add as u64);
                    }
                    if wait {
                        let s = &mut self.sms[e.sm as usize];
                        let w = warp as usize;
                        let resolved = s.warp_tab[w].ready_at.max(done);
                        self.horizon = self.horizon.max(resolved);
                        // A warp that retired on its final load keeps its
                        // DONE word; only its horizon contribution above
                        // matters (and its old slot may have been
                        // compacted away).
                        if !s.warp_tab[w].done {
                            s.resolve(w, resolved);
                        }
                    }
                }
                EvKind::Retire => {
                    self.live_warps -= 1;
                }
                EvKind::CtaDone { cta } => {
                    let sm = e.sm as usize;
                    let s = &mut self.sms[sm];
                    let kernel = s.ctas[cta as usize].kernel;
                    let t = self.traces[kernel];
                    s.resident_ctas -= 1;
                    s.used_threads -= t.threads_per_block as u32;
                    s.used_regs -= t.threads_per_block as u32 * t.regs_per_thread;
                    s.used_shared -= t.shared_bytes_per_cta;
                    self.per_kernel_done[kernel] = self.per_kernel_done[kernel].max(e.cycle);
                    while let Some(&(k, _)) = self.queue.front() {
                        if !self.fits(sm, k) {
                            break;
                        }
                        let (k, c) = self.queue.pop_front().unwrap();
                        let at = e.cycle + self.cfg.cta_launch_overhead as u64;
                        self.place_cta(sm, k, c, e.cycle, at);
                    }
                }
            }
        }
        events.clear();
        segs.clear();
        self.log.events = events;
        self.log.segs = segs;
    }

    fn into_stats(mut self) -> ConcurrentStats {
        // Settle every SM's deferred stall attribution up to the last
        // simulated cycle before closing the books over the drain tail.
        let last = self.cycle;
        for sm in &mut self.sms {
            sm.attribute_span(last);
        }
        // Outstanding stores keep DRAM channels busy past the last
        // warp's retirement; the kernel is not done until they drain.
        self.horizon = self.horizon.max(self.dram.drain_cycle());
        // Close the stall accounting over the drain tail [cycle, horizon):
        // any residual port occupancy is already charged as busy; the
        // remainder is ramp-down with no live warps, i.e. `empty`. Port
        // occupancy scheduled past the horizon never executed inside the
        // measured window, so it is refunded from the busy categories —
        // keeping the invariant that components sum to num_sms * cycles.
        let end = self.horizon;
        for sm in &mut self.sms {
            let pfa = sm.port_free_at;
            let from = last;
            if end > from {
                let busy = pfa.clamp(from, end) - from;
                sm.stall.empty += (end - from) - busy;
            }
            let mut over = pfa.saturating_sub(end);
            let st = &mut sm.stall;
            for cat in [&mut st.issue, &mut st.bank_conflict, &mut st.divergence] {
                let take = (*cat).min(over);
                *cat -= take;
                over -= take;
            }
            debug_assert_eq!(over, 0, "port overshoot exceeds busy accounting");
        }
        while self.sampler.is_due(end.saturating_sub(1)) {
            let raw = RawSample {
                live_warps: self.live_warps as u32,
                busy_cum: self.dram.busy_cycles(),
            };
            self.sampler.record_due(raw);
        }
        // Pin the closing epoch so the ramp-down tail is never lost,
        // however aggressively the sampler backed off.
        if end > 0 {
            self.sampler.record_final(
                end,
                RawSample {
                    live_warps: self.live_warps as u32,
                    busy_cum: self.dram.busy_cycles(),
                },
            );
        }
        let mut stall = StallBreakdown::default();
        for sm in &self.sms {
            stall.merge(&sm.stall);
        }
        debug_assert_eq!(
            stall.total(),
            self.cfg.num_sms as u64 * end,
            "stall components must sum to total SM cycles"
        );
        let warp_capacity = self.warp_capacity;
        let mem_channels = self.cfg.mem_channels as u64;
        let dropped = self.sampler.dropped();
        let decimations = self.sampler.decimations();
        let mut prev = (0u64, 0u64); // (cycle, cumulative busy)
        let samples = std::mem::replace(&mut self.sampler, obs::AdaptiveSampler::new(0, 0))
            .into_samples()
            .into_iter()
            .map(|(cycle, raw)| {
                let window = (mem_channels * (cycle - prev.0)) as f64;
                let dram_util = if window > 0.0 {
                    ((raw.busy_cum.saturating_sub(prev.1)) as f64 / window).min(1.0)
                } else {
                    0.0
                };
                prev = (cycle, raw.busy_cum);
                TimelineSample {
                    cycle,
                    live_warps: raw.live_warps,
                    occupancy: f64::from(raw.live_warps) / warp_capacity,
                    dram_util,
                }
            })
            .collect();
        let timeline = Timeline {
            period: self.cfg.timeline_sample_period,
            capacity: self.cfg.timeline_capacity,
            samples,
            dropped,
            decimations,
        };
        let mut l1_hits = 0;
        let mut l1_misses = 0;
        let mut tex_hits = 0;
        let mut tex_misses = 0;
        for sm in &self.sms {
            if let Some(l1) = &sm.l1 {
                l1_hits += l1.hits();
                l1_misses += l1.misses();
            }
            if let Some(t) = &sm.tex {
                tex_hits += t.hits();
                tex_misses += t.misses();
            }
        }
        let (l2_hits, l2_misses) = match &self.l2 {
            Some(l2) => (l2.hits(), l2.misses()),
            None => (0, 0),
        };
        let name = self
            .traces
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        // Every op issued exactly once, so the instruction counts are the
        // traces' own totals.
        let mut totals = TraceTotals::empty(self.cfg.warp_size as usize);
        for t in self.traces {
            totals.merge(t.totals());
        }
        let combined = KernelStats {
            name,
            config: self.cfg.name.clone(),
            cycles: self.horizon,
            thread_instructions: totals.thread_instructions,
            warp_instructions: totals.warp_instructions,
            mem_mix: totals.mem_mix,
            occupancy: totals.occupancy,
            dram_bytes: self.dram.bytes(),
            dram_busy_cycles: self.dram.busy_cycles(),
            peak_bytes_per_cycle: self.cfg.peak_bytes_per_core_cycle(),
            core_clock_ghz: self.cfg.core_clock_ghz,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            tex_hits,
            tex_misses,
            stall,
            timeline,
            launches: 1,
        };
        ConcurrentStats {
            combined,
            per_kernel_cycles: self.per_kernel_done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{GridShape, PhaseControl, WarpCtx};
    use crate::memory::BufF32;
    use crate::trace::trace_kernel;

    /// Pure-compute kernel: `iters` ALU instructions per thread.
    struct Compute {
        n: usize,
        iters: u32,
    }

    impl Kernel for Compute {
        fn name(&self) -> &str {
            "compute"
        }
        fn shape(&self) -> GridShape {
            GridShape::cover(self.n, 256)
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
            w.alu(self.iters);
            PhaseControl::Done
        }
    }

    /// Streaming kernel: one strided (uncoalesced) load per thread.
    struct Stream {
        buf: BufF32,
        n: usize,
        stride: usize,
    }

    impl Kernel for Stream {
        fn name(&self) -> &str {
            "stream"
        }
        fn shape(&self) -> GridShape {
            GridShape::cover(self.n, 256)
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
            let (buf, n, stride) = (self.buf, self.n, self.stride);
            let x = w.ld_f32(buf, |_, tid| {
                (tid < n).then_some((tid * stride) % (n * stride))
            });
            w.alu(1);
            let _ = x;
            PhaseControl::Done
        }
    }

    fn run(kernel: &dyn Kernel, cfg: &GpuConfig, setup: impl FnOnce(&mut GpuMem)) -> KernelStats {
        let mut mem = GpuMem::new();
        setup(&mut mem);
        let trace = trace_kernel(kernel, &mut mem, cfg);
        time_trace(&trace, cfg)
    }

    #[test]
    fn trace_types_are_send_and_sync() {
        // The parallel study engine shares traces, configs, and stats
        // across a `std::thread::scope` worker pool; all three are plain
        // data and must stay transferable.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KernelTrace>();
        assert_send_sync::<GpuConfig>();
        assert_send_sync::<KernelStats>();
        assert_send_sync::<Gpu>();
    }

    #[test]
    fn recorded_traces_replay_to_identical_stats() {
        let cfg = GpuConfig::gpgpusim_default();
        let mut gpu = Gpu::new(cfg.clone());
        assert!(!gpu.trace_recording());
        gpu.set_trace_recording(true);
        let direct_a = gpu.launch(&Compute { n: 4096, iters: 16 });
        let direct_b = gpu.launch(&Compute { n: 2048, iters: 4 });
        let traces = gpu.take_recorded_traces();
        assert_eq!(traces.len(), 2);
        assert!(gpu.take_recorded_traces().is_empty(), "buffer drained");
        // Replaying the recorded traces under the capture configuration
        // reproduces the launch statistics exactly.
        let replay_a = time_trace(&traces[0], &cfg);
        let replay_b = time_trace(&traces[1], &cfg);
        assert_eq!(replay_a.cycles, direct_a.cycles);
        assert_eq!(replay_a.thread_instructions, direct_a.thread_instructions);
        assert_eq!(replay_b.cycles, direct_b.cycles);
        // Recording off: launches no longer accumulate.
        gpu.set_trace_recording(false);
        let _ = gpu.launch(&Compute { n: 1024, iters: 2 });
        assert!(gpu.take_recorded_traces().is_empty());
    }

    #[test]
    fn compute_kernel_reaches_high_ipc() {
        let cfg = GpuConfig::gpgpusim_default();
        let s = run(
            &Compute {
                n: 28 * 1024,
                iters: 64,
            },
            &cfg,
            |_| {},
        );
        // Plenty of warps, no memory: IPC should approach SMs * warp size.
        assert!(s.ipc() > 0.6 * (28.0 * 32.0), "ipc = {}", s.ipc());
        assert!(s.ipc() <= 28.0 * 32.0 + 1e-9);
    }

    #[test]
    fn more_sms_scale_compute() {
        let k = Compute {
            n: 28 * 1024,
            iters: 64,
        };
        let s8 = run(&k, &GpuConfig::gpgpusim_8sm(), |_| {});
        let s28 = run(&k, &GpuConfig::gpgpusim_default(), |_| {});
        assert!(
            s28.ipc() > 2.5 * s8.ipc(),
            "28-SM IPC {} vs 8-SM IPC {}",
            s28.ipc(),
            s8.ipc()
        );
    }

    #[test]
    fn uncoalesced_stream_is_memory_bound_and_scales_with_channels() {
        let n = 64 * 1024;
        let mk = |cfg: &GpuConfig| {
            let mut mem = GpuMem::new();
            let buf = mem.alloc_f32_zeroed("buf", n * 16);
            let trace = trace_kernel(&Stream { buf, n, stride: 16 }, &mut mem, cfg);
            time_trace(&trace, cfg)
        };
        let base = GpuConfig::gpgpusim_default();
        let s4 = mk(&base.with_mem_channels(4));
        let s8 = mk(&base.with_mem_channels(8));
        // Strided loads saturate DRAM: time should drop markedly with
        // twice the channels (the Figure 4 effect).
        let bw4 = s4.achieved_bandwidth_gbps();
        let bw8 = s8.achieved_bandwidth_gbps();
        assert!(
            bw8 > 1.5 * bw4,
            "bandwidth did not scale: {bw4:.1} -> {bw8:.1} GB/s"
        );
        assert!(s4.bw_utilization() > 0.5, "util {}", s4.bw_utilization());
    }

    #[test]
    fn coalesced_beats_uncoalesced() {
        let n = 64 * 1024;
        let cfg = GpuConfig::gpgpusim_default();
        let mk = |stride: usize| {
            let mut mem = GpuMem::new();
            let buf = mem.alloc_f32_zeroed("buf", n * stride.max(1));
            let trace = trace_kernel(&Stream { buf, n, stride }, &mut mem, &cfg);
            time_trace(&trace, &cfg)
        };
        let unit = mk(1);
        let strided = mk(16);
        assert!(
            strided.cycles > 4 * unit.cycles,
            "strided {} vs unit {}",
            strided.cycles,
            unit.cycles
        );
    }

    #[test]
    fn narrow_simd_issues_slower() {
        let k = Compute {
            n: 8 * 1024,
            iters: 32,
        };
        let wide = run(&k, &GpuConfig::gpgpusim_8sm(), |_| {});
        let mut narrow_cfg = GpuConfig::gpgpusim_8sm();
        narrow_cfg.simd_width = 8;
        narrow_cfg.name = "narrow".into();
        let narrow = run(&k, &narrow_cfg, |_| {});
        assert!(narrow.cycles > 3 * wide.cycles);
    }

    #[test]
    fn stats_instruction_totals_match_trace() {
        let cfg = GpuConfig::gpgpusim_default();
        let mut mem = GpuMem::new();
        let buf = mem.alloc_f32_zeroed("buf", 4096);
        let k = Stream {
            buf,
            n: 4096,
            stride: 1,
        };
        let trace = trace_kernel(&k, &mut mem, &cfg);
        let stats = time_trace(&trace, &cfg);
        assert_eq!(stats.thread_instructions, trace.thread_instructions());
        assert_eq!(stats.warp_instructions, trace.warp_instructions());
        assert_eq!(stats.occupancy.total(), trace.warp_instructions());
    }

    #[test]
    fn l1_reduces_repeat_traffic() {
        // A kernel that reads the same small buffer many times.
        struct Rereader {
            buf: BufF32,
            reps: usize,
        }
        impl Kernel for Rereader {
            fn name(&self) -> &str {
                "rereader"
            }
            fn shape(&self) -> GridShape {
                GridShape::new(15, 256)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
                let (buf, reps) = (self.buf, self.reps);
                for r in 0..reps {
                    let _ = w.ld_f32(buf, move |lane, _| Some((r * 32 + lane) % 2048));
                }
                PhaseControl::Done
            }
        }
        let mk = |cfg: &GpuConfig| {
            let mut mem = GpuMem::new();
            let buf = mem.alloc_f32_zeroed("buf", 2048);
            let trace = trace_kernel(&Rereader { buf, reps: 64 }, &mut mem, cfg);
            time_trace(&trace, cfg)
        };
        let no_l1 = mk(&GpuConfig::gtx280());
        let with_l1 = mk(&GpuConfig::gtx480_l1_bias());
        assert!(with_l1.l1_hits > 0);
        assert!(with_l1.dram_bytes < no_l1.dram_bytes / 2);
    }

    #[test]
    fn concurrent_kernels_overlap() {
        // Two kernels that each fill only a few SMs finish much faster
        // together than back-to-back.
        let cfg = GpuConfig::gpgpusim_default();
        let mk_trace = |mem: &mut GpuMem, n: usize| {
            let buf = mem.alloc_f32_zeroed("buf", n);
            trace_kernel(&Stream { buf, n, stride: 1 }, mem, &cfg)
        };
        let mut mem = GpuMem::new();
        let ta = mk_trace(&mut mem, 2048);
        let tb = mk_trace(&mut mem, 2048);
        let serial = time_trace(&ta, &cfg).cycles + time_trace(&tb, &cfg).cycles;
        let conc = time_traces_concurrent(&[&ta, &tb], &cfg);
        assert!(
            conc.combined.cycles < serial,
            "concurrent {} !< serial {}",
            conc.combined.cycles,
            serial
        );
        assert_eq!(conc.per_kernel_cycles.len(), 2);
        assert!(conc.per_kernel_cycles.iter().all(|&c| c > 0));
        // Work is conserved.
        let each = time_trace(&ta, &cfg).thread_instructions;
        assert_eq!(conc.combined.thread_instructions, 2 * each);
    }

    #[test]
    fn gto_scheduler_runs_and_conserves_work() {
        let mut cfg = GpuConfig::gpgpusim_default();
        let rr = run(
            &Compute {
                n: 8 * 1024,
                iters: 32,
            },
            &cfg,
            |_| {},
        );
        cfg.sched_policy = crate::config::SchedPolicy::GreedyThenOldest;
        cfg.name = "gto".into();
        let gto = run(
            &Compute {
                n: 8 * 1024,
                iters: 32,
            },
            &cfg,
            |_| {},
        );
        assert_eq!(rr.thread_instructions, gto.thread_instructions);
        assert!(gto.cycles > 0);
    }

    #[test]
    fn lane_compaction_speeds_up_divergent_kernels() {
        // A kernel where half the warp is masked off: compaction lets
        // the 16 active lanes issue in one 16-wide slot... with SIMD
        // width 16 the full warp takes 2 cycles but the masked half
        // needs only 1.
        struct HalfMasked {
            iters: u32,
        }
        impl Kernel for HalfMasked {
            fn name(&self) -> &str {
                "half-masked"
            }
            fn shape(&self) -> GridShape {
                GridShape::new(64, 256)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
                let lower: Vec<bool> = (0..w.warp_size()).map(|l| l < 16).collect();
                let iters = self.iters;
                w.if_active(&lower, |w| w.alu(iters));
                PhaseControl::Done
            }
        }
        let mut narrow = GpuConfig::gpgpusim_default();
        narrow.simd_width = 16;
        narrow.name = "narrow".into();
        let base = run(&HalfMasked { iters: 64 }, &narrow, |_| {});
        let mut compact = narrow.clone();
        compact.lane_compaction = true;
        compact.name = "compact".into();
        let fast = run(&HalfMasked { iters: 64 }, &compact, |_| {});
        assert!(
            fast.cycles < base.cycles,
            "compaction {} !< baseline {}",
            fast.cycles,
            base.cycles
        );
    }

    #[test]
    fn stall_breakdown_conserves_cycles() {
        // The invariant: stall components sum to num_sms * cycles,
        // across compute-bound, memory-bound, divergent, and
        // shared-memory-conflict-free kernels and all presets.
        let check = |stats: &KernelStats, cfg: &GpuConfig| {
            assert_eq!(
                stats.stall.total(),
                cfg.num_sms as u64 * stats.cycles,
                "{} on {}: {:?}",
                stats.name,
                cfg.name,
                stats.stall
            );
        };
        for cfg in [
            GpuConfig::gpgpusim_default(),
            GpuConfig::gpgpusim_8sm(),
            GpuConfig::gtx280(),
            GpuConfig::gtx480_l1_bias(),
        ] {
            let s = run(
                &Compute {
                    n: 4 * 1024,
                    iters: 16,
                },
                &cfg,
                |_| {},
            );
            check(&s, &cfg);
        }
        let cfg = GpuConfig::gpgpusim_default();
        let mut mem = GpuMem::new();
        let n = 16 * 1024;
        let buf = mem.alloc_f32_zeroed("buf", n * 16);
        let trace = trace_kernel(&Stream { buf, n, stride: 16 }, &mut mem, &cfg);
        let s = time_trace(&trace, &cfg);
        check(&s, &cfg);
        assert!(
            s.stall.mem_pending > 0,
            "streaming kernel must stall on memory"
        );
    }

    #[test]
    fn divergence_stalls_appear_under_narrow_simd() {
        let k = Compute {
            n: 2 * 1024,
            iters: 16,
        };
        let mut cfg = GpuConfig::gpgpusim_8sm();
        cfg.simd_width = 8;
        cfg.name = "narrow".into();
        let full = run(&k, &cfg, |_| {});
        // Fully populated warps: no divergence waste even when each warp
        // issues over several cycles.
        assert_eq!(full.stall.divergence, 0);
        assert_eq!(full.stall.total(), cfg.num_sms as u64 * full.cycles);
    }

    #[test]
    fn timeline_is_sampled_and_bounded() {
        let mut cfg = GpuConfig::gpgpusim_8sm();
        cfg.timeline_sample_period = 64;
        cfg.timeline_capacity = 8;
        cfg.name = "sampled".into();
        let s = run(
            &Compute {
                n: 8 * 1024,
                iters: 64,
            },
            &cfg,
            |_| {},
        );
        assert!(!s.timeline.samples.is_empty());
        assert!(s.timeline.samples.len() <= 8);
        assert!(s.timeline.dropped > 0, "long run must wrap the ring");
        for w in s.timeline.samples.windows(2) {
            assert!(w[0].cycle < w[1].cycle);
        }
        for sample in &s.timeline.samples {
            assert!(sample.occupancy >= 0.0 && sample.occupancy <= 1.0);
            assert!(sample.dram_util >= 0.0 && sample.dram_util <= 1.0);
        }
        // Sampling can be disabled entirely.
        cfg.timeline_sample_period = 0;
        cfg.name = "unsampled".into();
        let s = run(&Compute { n: 1024, iters: 4 }, &cfg, |_| {});
        assert!(s.timeline.samples.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot launch")]
    fn oversized_cta_panics_at_launch() {
        struct Huge;
        impl Kernel for Huge {
            fn name(&self) -> &str {
                "huge"
            }
            fn shape(&self) -> GridShape {
                GridShape::new(1, 64)
            }
            fn shared_f32_words(&self) -> usize {
                64 * 1024 // 256 kB: exceeds any SM
            }
            fn run_warp(&self, _w: &mut WarpCtx<'_>) -> PhaseControl {
                PhaseControl::Done
            }
        }
        let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
        let _ = gpu.launch(&Huge);
    }

    /// Replays `launches` at a given worker width and returns the full
    /// serialized statistics for byte comparison.
    /// statistics and the published `kernel_stats` records, each
    /// serialized for byte comparison.
    fn launches_at(
        launches: &[Arc<KernelTrace>],
        cfg: &GpuConfig,
        sim_threads: usize,
    ) -> (String, Vec<String>) {
        let records = obs::Records::default();
        records.set_recording(true);
        let opts = ReplayOptions {
            sim_threads,
            records: Some(&records),
        };
        let stats = try_time_launches(launches, cfg, &opts).expect("replay");
        let published = records.drain().0;
        let published = published.iter().map(|r| r.value.to_string()).collect();
        (stats.to_json().to_string(), published)
    }

    #[test]
    fn launch_replay_is_byte_identical_across_sim_threads() {
        // Compute-bound, memory-bound (DRAM-contended) and cached runs,
        // with repeated launches, produce byte-identical statistics —
        // including timelines and stall breakdowns — at every width,
        // and equal the launch-by-launch merge of single replays. Each
        // launch's record is published in launch order at every width.
        let n = 16 * 1024;
        let mut mem = GpuMem::new();
        let buf = mem.alloc_f32_zeroed("buf", n * 16);
        let cfgs = [GpuConfig::gpgpusim_default(), GpuConfig::gtx480_l1_bias()];
        for cfg in &cfgs {
            let tc = Arc::new(trace_kernel(&Compute { n, iters: 32 }, &mut mem, cfg));
            let ts = Arc::new(trace_kernel(&Stream { buf, n, stride: 16 }, &mut mem, cfg));
            let run = vec![Arc::clone(&tc), Arc::clone(&ts), Arc::clone(&tc), ts];
            let singles: Vec<KernelStats> = run.iter().map(|t| time_trace(t, cfg)).collect();
            let mut expect = singles[0].clone();
            for s in &singles[1..] {
                expect.merge(s);
            }
            let expect = expect.to_json().to_string();
            let records: Vec<String> = singles.iter().map(|s| s.to_json().to_string()).collect();
            for threads in [1, 2, 3, 4, 7, 64] {
                assert_eq!(
                    launches_at(&run, cfg, threads),
                    (expect.clone(), records.clone()),
                    "results diverged at sim_threads={threads} on {}",
                    cfg.name
                );
            }
        }
        assert!(matches!(
            try_time_launches(
                &[],
                &GpuConfig::gpgpusim_default(),
                &ReplayOptions::width(1)
            ),
            Err(SimError::EmptyLaunch)
        ));
    }

    #[test]
    fn sim_threads_auto_and_clamping() {
        // auto: resolves to available parallelism
        assert!(resolve_sim_threads(0) >= 1);
        let cfg = GpuConfig::gpgpusim_8sm();
        let mut mem = GpuMem::new();
        let t = Arc::new(trace_kernel(
            &Compute {
                n: 2 * 1024,
                iters: 8,
            },
            &mut mem,
            &cfg,
        ));
        // Clamped to the launch and CPU counts.
        let opts = ReplayOptions::width(9999);
        let s = try_time_launches(&[Arc::clone(&t), t], &cfg, &opts).expect("replay");
        assert!(s.cycles > 0);
        assert_eq!(s.launches, 2);
    }

    #[test]
    fn a_gpu_publishes_its_launches_only_into_its_own_records() {
        let records = Arc::new(obs::Records::default());
        records.set_recording(true);
        let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
        gpu.set_records(Arc::clone(&records));
        let a = gpu.launch(&Compute { n: 1024, iters: 4 });
        let b = gpu.launch(&Compute { n: 2048, iters: 2 });
        // A device without a buffer publishes nowhere.
        let _ = Gpu::new(GpuConfig::gpgpusim_default()).launch(&Compute { n: 1024, iters: 4 });
        let (published, dropped) = records.drain();
        assert_eq!(dropped, 0);
        let published: Vec<String> = published.iter().map(|r| r.value.to_string()).collect();
        let want: Vec<String> = [a, b].iter().map(|s| s.to_json().to_string()).collect();
        assert_eq!(published, want);
    }
}

//! The one-pass profiling driver: runs a workload's logical threads,
//! interleaves their events deterministically, and feeds every
//! configured cache capacity plus the mix/footprint collectors
//! simultaneously.
//!
//! The driver has two sinks for memory references. The **direct** sink
//! feeds a [`Sweep`] of the configured capacities as events are
//! applied, so it stores no trace, like the paper's online Pin tool.
//! The **capture** sink records the line-granular reference stream into
//! a packed trace instead, for the persistent store and the replay in
//! [`crate::trace`], which runs the same [`Sweep`]. Both sinks see the
//! identical interleaved stream, which is what makes replay
//! byte-identical.

use crate::cache::{validate_geometry, CacheStats, Sweep};
use crate::error::TraceError;
use crate::footprint::Footprints;
use crate::mix::InstrMix;
use crate::tracer::{Ev, EventStream, ThreadTracer};

/// Profiling configuration (defaults follow Bienia et al. / the paper:
/// 8 threads, a shared 4-way 64-byte-line cache at eight capacities from
/// 128 kB to 16 MB).
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Logical threads per parallel region.
    pub threads: usize,
    /// Cache capacities (bytes) simulated in one pass.
    pub cache_sizes: Vec<u64>,
    /// Cache associativity.
    pub ways: usize,
    /// Cache line size in bytes.
    pub line: u64,
    /// Round-robin interleaving quantum, in events.
    pub quantum: usize,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            threads: 8,
            cache_sizes: (0..8).map(|i| (128 * 1024u64) << i).collect(),
            ways: 4,
            line: 64,
            quantum: 1000,
        }
    }
}

/// Largest thread count the packed trace word can address (thread ids
/// live in the low byte of each trace word).
pub const MAX_THREADS: usize = 256;

/// A workload that can be profiled by [`profile`].
///
/// `Send + Sync` is a supertrait so workload corpora can be shared
/// across the study engine's capture workers, mirroring
/// `GpuBenchmark` on the simulator side.
pub trait CpuWorkload: Send + Sync {
    /// Workload name.
    fn name(&self) -> &'static str;

    /// Emits the workload's computation through `prof`.
    fn run(&self, prof: &mut Profiler);
}

/// The collected characteristics of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Workload name.
    pub name: String,
    /// Instruction mix.
    pub mix: InstrMix,
    /// Per-capacity cache statistics, ordered as in
    /// [`ProfileConfig::cache_sizes`].
    pub cache_stats: Vec<CacheStats>,
    /// Distinct 64-byte instruction blocks executed (Figure 11).
    pub instr_blocks: usize,
    /// Distinct 4 kB data blocks touched (Figure 12).
    pub data_blocks: usize,
    /// Total events processed.
    pub events: u64,
}

impl Profile {
    /// The cache stats for a given capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity was not simulated.
    pub fn at_capacity(&self, bytes: u64) -> &CacheStats {
        self.cache_stats
            .iter()
            .find(|s| s.capacity == bytes)
            .unwrap_or_else(|| panic!("capacity {bytes} was not simulated"))
    }
}

/// Where the interleaved memory-reference stream goes.
#[derive(Debug)]
enum Sink {
    /// Feed every configured cache capacity, [`LIVE_BLOCK`] packed words
    /// at a time.
    Direct(Sweep),
    /// Keep every packed word for later replay.
    Capture,
}

/// Packed words the direct sink buffers before the sweep takes them:
/// each cache then runs its hot loop over a whole block (32 kB, which
/// stays in the processor's caches), not one reference at a time.
const LIVE_BLOCK: usize = 4096;

/// The instrumentation context a workload runs against.
#[derive(Debug)]
pub struct Profiler {
    cfg: ProfileConfig,
    sink: Sink,
    /// Packed `(lineno << 8) | tid` words: the block not yet fed to the
    /// sweep (direct sink) or the whole trace (capture sink).
    words: Vec<u64>,
    mix: InstrMix,
    footprints: Footprints,
    regions: Vec<(u64, u64)>,
    next_data: u64,
    next_code: u64,
    /// `log2(cfg.line)`: the line of an address is a shift.
    line_shift: u32,
    events: u64,
    stream_bytes: u64,
    /// The first buffer that could not grow. Once set, regions still
    /// run but record nothing, and `finish` returns the error.
    failed: Option<TraceError>,
}

/// Base of the data address space: the data allocator is a bump
/// allocator from here.
const DATA_BASE: u64 = 0;
/// Base of the (synthetic) code address space, disjoint from data.
const CODE_BASE: u64 = 1 << 40;

/// Checks what every sink needs, whatever the cache capacities: a
/// thread count the trace word can hold and a power-of-two line.
fn check_config(cfg: &ProfileConfig) -> Result<(), TraceError> {
    if cfg.threads > MAX_THREADS {
        return Err(TraceError::TooManyThreads {
            threads: cfg.threads,
            max: MAX_THREADS,
        });
    }
    if !cfg.line.is_power_of_two() {
        return Err(TraceError::LineNotPowerOfTwo { line: cfg.line });
    }
    Ok(())
}

impl Profiler {
    /// Creates a direct-mode profiler with the given configuration.
    ///
    /// # Errors
    ///
    /// A [`TraceError`] if the line size is not a power of two, any
    /// configured cache geometry is invalid, or the thread count
    /// exceeds [`MAX_THREADS`].
    pub fn new(cfg: &ProfileConfig) -> Result<Profiler, TraceError> {
        check_config(cfg)?;
        let sweep = Sweep::new(&cfg.cache_sizes, cfg.ways, cfg.line)?;
        // Room for a block and a straddling access's second word, so
        // the direct sink never grows its buffer.
        let words = Vec::with_capacity(LIVE_BLOCK + 1);
        Ok(Profiler::with_sink(cfg, Sink::Direct(sweep), words))
    }

    /// Creates a capture-mode profiler: memory references are recorded
    /// instead of simulated. Validates the same geometries as [`new`]
    /// so a bad configuration fails at capture, not first replay.
    ///
    /// [`new`]: Profiler::new
    pub(crate) fn new_capturing(cfg: &ProfileConfig) -> Result<Profiler, TraceError> {
        check_config(cfg)?;
        for &b in &cfg.cache_sizes {
            validate_geometry(b, cfg.ways, cfg.line)?;
        }
        Ok(Profiler::with_sink(cfg, Sink::Capture, Vec::new()))
    }

    fn with_sink(cfg: &ProfileConfig, sink: Sink, words: Vec<u64>) -> Profiler {
        Profiler {
            sink,
            words,
            cfg: cfg.clone(),
            mix: InstrMix::default(),
            footprints: Footprints::with_bases(DATA_BASE, CODE_BASE),
            regions: Vec::new(),
            next_data: DATA_BASE,
            next_code: CODE_BASE,
            line_shift: cfg.line.trailing_zeros(),
            events: 0,
            stream_bytes: 0,
            failed: None,
        }
    }

    /// Number of logical threads in a parallel region.
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// Reserves `bytes` of data address space; returns the base address.
    /// Allocations are page-aligned so footprints are clean.
    pub fn alloc(&mut self, _name: &str, bytes: u64) -> u64 {
        let base = self.next_data;
        self.next_data += bytes.max(1).div_ceil(4096) * 4096;
        base
    }

    /// Declares a code region of `bytes` of instructions (a function or
    /// loop nest); returns its id for [`ThreadTracer::exec`]. Region
    /// sizes model the relative code sizes of the real applications and
    /// drive the instruction-footprint measurement.
    pub fn code_region(&mut self, _name: &str, bytes: u64) -> u32 {
        let base = self.next_code;
        self.next_code += bytes.max(1).div_ceil(64) * 64;
        self.regions.push((base, bytes));
        (self.regions.len() - 1) as u32
    }

    /// Runs a parallel region: `f` is invoked once per logical thread,
    /// and the buffered event streams are interleaved round-robin with
    /// the configured quantum.
    pub fn parallel(&mut self, f: impl Fn(&mut ThreadTracer)) {
        let mut tracers: Vec<ThreadTracer> =
            (0..self.cfg.threads).map(|tid| self.tracer(tid)).collect();
        for t in &mut tracers {
            f(t);
        }
        self.drain(tracers);
    }

    /// Runs a serial (single-thread) region on logical thread 0.
    pub fn serial(&mut self, f: impl FnOnce(&mut ThreadTracer)) {
        let mut t = self.tracer(0);
        f(&mut t);
        self.drain(vec![t]);
    }

    /// A tracer for `tid`, closed once a buffer has failed to grow:
    /// the workload's own computation still runs, unrecorded.
    fn tracer(&self, tid: usize) -> ThreadTracer {
        let stream = if self.failed.is_some() {
            EventStream::closed()
        } else {
            EventStream::default()
        };
        ThreadTracer::new(tid, stream)
    }

    fn drain(&mut self, tracers: Vec<ThreadTracer>) {
        if self.failed.is_some() {
            return;
        }
        let streams: Vec<(usize, EventStream)> = tracers
            .into_iter()
            .map(|t| (t.tid(), t.into_stream()))
            .collect();
        if let Some((_, s)) = streams.iter().find(|(_, s)| s.is_full()) {
            self.failed = Some(TraceError::BufferGrowth {
                workload: "",
                buffer: "tracer event stream",
                held: s.encoded_bytes(),
            });
            return;
        }
        self.stream_bytes += streams
            .iter()
            .map(|(_, s)| s.encoded_bytes() as u64)
            .sum::<u64>();
        interleave(&streams, self.cfg.quantum, |tid, ev| self.apply(tid, ev));
    }

    fn apply(&mut self, tid: usize, ev: Ev) {
        self.events += 1;
        match ev {
            Ev::Read { addr, size } => {
                self.mix.reads += 1;
                self.footprints.touch_data(addr, size as u64);
                self.access(tid, addr, size);
            }
            Ev::Write { addr, size } => {
                self.mix.writes += 1;
                self.footprints.touch_data(addr, size as u64);
                self.access(tid, addr, size);
            }
            Ev::Alu(n) => self.mix.alu += n as u64,
            Ev::Branch(n) => self.mix.branches += n as u64,
            Ev::Exec(region) => {
                let (base, len) = self.regions[region as usize];
                self.footprints.touch_code(base, len);
            }
        }
    }

    fn access(&mut self, tid: usize, addr: u64, size: u8) {
        let first = addr >> self.line_shift;
        let last = (addr + size.max(1) as u64 - 1) >> self.line_shift;
        let words = &mut self.words;
        if words.capacity() - words.len() < 2 && !grow_words(words, &mut self.failed) {
            return;
        }
        words.push((first << 8) | tid as u64);
        // A straddling access touches the next line too.
        if last != first {
            words.push((last << 8) | tid as u64);
        }
        if let Sink::Direct(sweep) = &mut self.sink {
            if words.len() >= LIVE_BLOCK {
                sweep.access_words(words);
                words.clear();
            }
        }
    }

    /// Finalizes the run into a [`Profile`].
    ///
    /// Aggregate counters are published to the global [`obs::Registry`]
    /// once here (not per-event, keeping the hot path untouched). In
    /// capture mode the returned profile has no cache stats — the
    /// crate-internal `finish_capture` also returns the packed trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::BufferGrowth`] if a tracer stream or the capture
    /// words could not grow during the run.
    pub fn finish(self, name: &str) -> Result<Profile, TraceError> {
        Ok(self.finish_capture(name)?.0)
    }

    /// Finalizes the run, also returning the packed reference trace
    /// (empty in direct mode).
    pub(crate) fn finish_capture(self, name: &str) -> Result<(Profile, Vec<u64>), TraceError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let reg = obs::Registry::global();
        reg.add("tracekit.events", self.events);
        reg.add("tracekit.capture.stream_bytes", self.stream_bytes);
        reg.add("tracekit.reads", self.mix.reads);
        reg.add("tracekit.writes", self.mix.writes);
        reg.add("tracekit.alu", self.mix.alu);
        reg.add("tracekit.branches", self.mix.branches);
        let mut words = self.words;
        let cache_stats = match self.sink {
            Sink::Direct(mut sweep) => {
                sweep.access_words(&words);
                words.clear();
                sweep.finish()
            }
            Sink::Capture => Vec::new(),
        };
        Ok((
            Profile {
                name: name.to_string(),
                mix: self.mix,
                cache_stats,
                instr_blocks: self.footprints.instr_blocks(),
                data_blocks: self.footprints.data_blocks(),
                events: self.events,
            },
            words,
        ))
    }
}

/// Grows the packed words by at least two, amortized. A failure is
/// recorded in `failed`, and once it is set nothing grows again.
#[cold]
fn grow_words(words: &mut Vec<u64>, failed: &mut Option<TraceError>) -> bool {
    if failed.is_none() && words.try_reserve(2).is_err() {
        *failed = Some(TraceError::BufferGrowth {
            workload: "",
            buffer: "capture words",
            held: words.len() * 8,
        });
    }
    failed.is_none()
}

/// Applies the buffered `streams` round-robin: up to `quantum` events
/// of each `(tid, stream)` in turn, until every stream is exhausted.
/// The quantum counts events, so each decoded event is applied alone.
fn interleave(streams: &[(usize, EventStream)], quantum: usize, mut apply: impl FnMut(usize, Ev)) {
    let q = quantum.max(1);
    let mut cursors: Vec<_> = streams.iter().map(|(tid, s)| (*tid, s.events())).collect();
    loop {
        let mut progressed = false;
        for (tid, events) in &mut cursors {
            for _ in 0..q {
                if events.step(|ev| apply(*tid, ev)).is_none() {
                    break;
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
}

/// Profiles `workload` under `cfg` in one pass (the direct path: one
/// [`Sweep`] of every capacity, fed live, with no trace stored).
///
/// # Errors
///
/// A [`TraceError`] if the configuration is invalid (bad line size or
/// cache geometry, too many threads), or if a tracer buffer could not
/// grow.
pub fn profile(workload: &dyn CpuWorkload, cfg: &ProfileConfig) -> Result<Profile, TraceError> {
    let _span = obs::span!("tracekit.profile.{}", workload.name());
    let mut prof = Profiler::new(cfg)?;
    workload.run(&mut prof);
    prof.finish(workload.name())
        .map_err(|e| e.traced(workload.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Strided {
        lines: u64,
        passes: usize,
    }

    impl CpuWorkload for Strided {
        fn name(&self) -> &'static str {
            "strided"
        }
        fn run(&self, prof: &mut Profiler) {
            let data = prof.alloc("data", self.lines * 64);
            let code = prof.code_region("loop", 320);
            let (lines, passes) = (self.lines, self.passes);
            prof.parallel(|t| {
                t.exec(code);
                for _ in 0..passes {
                    for i in 0..lines {
                        t.read(data + i * 64, 4);
                        t.alu(2);
                    }
                }
            });
        }
    }

    fn small_cfg() -> ProfileConfig {
        ProfileConfig {
            threads: 4,
            cache_sizes: vec![4 * 1024, 64 * 1024, 1024 * 1024],
            quantum: 16,
            ..ProfileConfig::default()
        }
    }

    fn must_profile(w: &dyn CpuWorkload, cfg: &ProfileConfig) -> Profile {
        profile(w, cfg).expect("valid test configuration")
    }

    #[test]
    fn mix_counts_all_threads() {
        let p = must_profile(
            &Strided {
                lines: 100,
                passes: 2,
            },
            &small_cfg(),
        );
        assert_eq!(p.mix.reads, 4 * 2 * 100);
        assert_eq!(p.mix.alu, 4 * 2 * 100 * 2);
        assert_eq!(p.mix.writes, 0);
    }

    #[test]
    fn miss_rate_decreases_with_capacity() {
        let p = must_profile(
            &Strided {
                lines: 512, // 32 kB working set
                passes: 4,
            },
            &small_cfg(),
        );
        let rates: Vec<f64> = p
            .cache_stats
            .iter()
            .map(super::super::cache::CacheStats::miss_rate)
            .collect();
        assert!(rates[0] > rates[1], "4k vs 64k: {rates:?}");
        assert!(rates[1] >= rates[2], "64k vs 1M: {rates:?}");
        // At 1 MB only the compulsory misses remain: 512 distinct lines
        // over 4 threads x 4 passes x 512 accesses = 1/16.
        assert!(
            rates[2] <= 0.0625 + 1e-9,
            "only compulsory misses: {rates:?}"
        );
    }

    #[test]
    fn shared_data_is_detected() {
        // All threads read the same lines: lines become shared.
        let p = must_profile(
            &Strided {
                lines: 64,
                passes: 1,
            },
            &small_cfg(),
        );
        let s = p.at_capacity(1024 * 1024);
        assert!(s.shared_line_fraction() > 0.9, "{s:?}");
        assert!(s.shared_access_rate() > 0.5);
    }

    #[test]
    fn footprints_reflect_code_and_data() {
        let p = must_profile(
            &Strided {
                lines: 128, // 8 kB = 2 pages
                passes: 1,
            },
            &small_cfg(),
        );
        assert_eq!(p.instr_blocks, 5); // 320 B = 5 blocks
        assert_eq!(p.data_blocks, 2);
    }

    #[test]
    fn serial_region_uses_thread_zero() {
        struct Serial;
        impl CpuWorkload for Serial {
            fn name(&self) -> &'static str {
                "serial"
            }
            fn run(&self, prof: &mut Profiler) {
                let d = prof.alloc("d", 4096);
                prof.serial(|t| {
                    assert_eq!(t.tid(), 0);
                    t.write(d, 8);
                });
            }
        }
        let p = must_profile(&Serial, &small_cfg());
        assert_eq!(p.mix.writes, 1);
        let s = p.at_capacity(4 * 1024);
        assert_eq!(s.shared_accesses, 0);
    }

    #[test]
    fn determinism() {
        let cfg = small_cfg();
        let w = Strided {
            lines: 300,
            passes: 3,
        };
        let a = must_profile(&w, &cfg);
        let b = must_profile(&w, &cfg);
        assert_eq!(a, b, "profiles are fully deterministic");
    }

    #[test]
    fn bad_geometry_is_reported_not_panicked() {
        let cfg = ProfileConfig {
            cache_sizes: vec![48 * 1024],
            ..small_cfg()
        };
        let w = Strided {
            lines: 8,
            passes: 1,
        };
        assert_eq!(
            profile(&w, &cfg).unwrap_err(),
            crate::TraceError::SetsNotPowerOfTwo { sets: 192 }
        );
    }

    #[test]
    fn too_many_threads_is_reported() {
        let cfg = ProfileConfig {
            threads: 300,
            ..small_cfg()
        };
        let w = Strided {
            lines: 8,
            passes: 1,
        };
        assert_eq!(
            profile(&w, &cfg).unwrap_err(),
            crate::TraceError::TooManyThreads {
                threads: 300,
                max: MAX_THREADS
            }
        );
    }

    #[test]
    fn bad_line_is_reported_without_cache_sizes() {
        // With no capacities to validate, the line is still checked up
        // front, in both the direct and the capture constructor.
        let w = Strided {
            lines: 8,
            passes: 1,
        };
        for line in [0, 48] {
            let cfg = ProfileConfig {
                cache_sizes: vec![],
                line,
                ..small_cfg()
            };
            let want = crate::TraceError::LineNotPowerOfTwo { line };
            assert_eq!(profile(&w, &cfg).unwrap_err(), want);
            assert_eq!(crate::CpuCapture::capture(&w, &cfg).unwrap_err(), want);
        }
    }

    #[test]
    fn a_stream_that_cannot_grow_fails_the_profile() {
        let mut prof = Profiler::new(&small_cfg()).expect("valid config");
        let d = prof.alloc("d", 4096);
        prof.serial(|t| t.read(d, 4));
        // What a failed `try_reserve` leaves: a full stream.
        let full = ThreadTracer::new(0, EventStream::closed());
        prof.drain(vec![full]);
        let ran = std::cell::Cell::new(false);
        prof.serial(|t| {
            ran.set(true);
            t.write(d, 4);
            assert!(t.is_empty(), "nothing is recorded after a failure");
        });
        assert!(ran.get(), "regions still run after a failure");
        assert_eq!(
            prof.finish("full").unwrap_err(),
            crate::TraceError::BufferGrowth {
                workload: "",
                buffer: "tracer event stream",
                held: 0
            }
        );
    }

    /// The round-robin drain over plain `Vec<Ev>` buffers that the
    /// encoded streams replaced: the reference order.
    fn reference_interleave(streams: &[(usize, Vec<Ev>)], quantum: usize) -> Vec<(usize, Ev)> {
        let q = quantum.max(1);
        let mut cursors = vec![0usize; streams.len()];
        let mut out = Vec::new();
        loop {
            let mut progressed = false;
            for (i, (tid, evs)) in streams.iter().enumerate() {
                let start = cursors[i];
                let end = (start + q).min(evs.len());
                out.extend(evs[start..end].iter().map(|&ev| (*tid, ev)));
                if end > start {
                    progressed = true;
                    cursors[i] = end;
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Decoding the encoded streams applies the same `(tid, Ev)`
        /// sequence as the reference drain, for any thread count,
        /// quantum (0 acts as 1) and uneven or empty streams.
        #[test]
        fn interleave_matches_the_reference_drain(
            threads in proptest::collection::vec(
                proptest::collection::vec((0u8..5, 0u64..1 << 20, 0u32..3), 0..60),
                1..10,
            ),
            quantum in 0usize..70,
        ) {
            let plain: Vec<(usize, Vec<Ev>)> = threads
                .iter()
                .enumerate()
                .map(|(tid, draws)| {
                    let evs = draws
                        .iter()
                        .map(|&(kind, addr, n)| match kind {
                            0 => Ev::Read { addr, size: 4 },
                            1 => Ev::Write { addr, size: 8 },
                            2 => Ev::Alu(n),
                            3 => Ev::Branch(n),
                            _ => Ev::Exec(n),
                        })
                        .collect();
                    (tid, evs)
                })
                .collect();
            let encoded: Vec<(usize, EventStream)> = plain
                .iter()
                .map(|(tid, evs)| {
                    let mut s = EventStream::default();
                    evs.iter().for_each(|&ev| s.push(ev));
                    (*tid, s)
                })
                .collect();
            let mut applied = Vec::new();
            interleave(&encoded, quantum, |tid, ev| applied.push((tid, ev)));
            proptest::prop_assert_eq!(applied, reference_interleave(&plain, quantum));
        }
    }

    #[test]
    #[should_panic(expected = "was not simulated")]
    fn unknown_capacity_panics() {
        let p = must_profile(
            &Strided {
                lines: 8,
                passes: 1,
            },
            &small_cfg(),
        );
        let _ = p.at_capacity(999);
    }
}

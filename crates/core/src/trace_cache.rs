//! Thread-safe caches of captured traces — GPU kernel traces and CPU
//! memory traces — shared across experiment jobs.
//!
//! Trace capture (functional execution) is the expensive, replay-config
//! independent half of a simulated launch: a recorded
//! [`KernelTrace`] depends only on the warp size, the
//! shared-memory bank count, and the coalescing segment size — not on
//! SM count, clocks, latencies, channel count, caches, or the scheduler
//! policy. All paper configurations agree on those three parameters
//! except the GTX 480 family (32 banks instead of 16), so one capture
//! per `(benchmark, scale, variant)` serves the 8↔28-SM comparison, the
//! channel sweep, and all twelve Plackett–Burman design points.
//!
//! [`TraceCache`] keys captures by [`TraceKey`] and guarantees
//! exactly-once capture even under concurrent lookups: racing workers
//! block on the first initializer instead of capturing twice.
//!
//! [`CpuTraceCache`] is the Pin-side instance of the same generic
//! [`CaptureCache`]: it caches [`CpuCapture`]s — a workload's
//! interleaved memory-reference trace plus its capacity-independent
//! characteristics — keyed by `(workload, scale, capture fingerprint)`,
//! so the eight shared-cache capacities of the comparison study replay
//! one capture instead of re-running the workload eight times. Both
//! instances restore, validate, quarantine, and persist through the one
//! store-backed path in [`CaptureCache`].

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use datasets::Scale;
use rodinia_gpu::suite::GpuBenchmark;
use simt::{Gpu, GpuConfig, KernelStats, KernelTrace};
use store::TraceStore;
use tracekit::{CpuCapture, CpuWorkload, ProfileConfig};

use crate::error::StudyError;
use crate::once_map::OnceMap;

/// The subset of a [`GpuConfig`] that influences functional trace
/// capture. Two configurations with equal fingerprints produce
/// byte-identical traces for the same workload, so a trace captured
/// under one may be replayed under the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CaptureFingerprint {
    /// Threads per warp (shapes warp decomposition and divergence).
    pub warp_size: u32,
    /// Shared-memory bank count (shapes recorded conflict patterns).
    pub shared_banks: u32,
    /// Coalescing segment size in bytes (shapes recorded segments).
    pub segment_bytes: u32,
}

impl CaptureFingerprint {
    /// Extracts the capture-relevant parameters of `cfg`.
    pub fn of(cfg: &GpuConfig) -> CaptureFingerprint {
        CaptureFingerprint {
            warp_size: cfg.warp_size,
            shared_banks: cfg.shared_banks,
            segment_bytes: cfg.segment_bytes,
        }
    }
}

/// Cache key: one functional execution of one workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Benchmark abbreviation (`BP`, `BFS`, ...) or variant-family name.
    pub benchmark: String,
    /// Input scale.
    pub scale: Scale,
    /// Code variant (`""` for the suite default, `"v1"`/`"v2"` for the
    /// Table III incremental versions).
    pub variant: &'static str,
    /// Capture-relevant configuration parameters.
    pub fingerprint: CaptureFingerprint,
}

impl TraceKey {
    /// The persistent-store key of this capture. Every field that
    /// shapes the recorded trace is spelled into the key, so a store
    /// hit is — by the entry's verified key echo — a capture of exactly
    /// this workload under exactly this fingerprint.
    pub fn store_key(&self) -> String {
        let fp = &self.fingerprint;
        format!(
            "gpu/v1/{}/{:?}/{}/w{}b{}s{}",
            self.benchmark,
            self.scale,
            if self.variant.is_empty() { "-" } else { self.variant },
            fp.warp_size,
            fp.shared_banks,
            fp.segment_bytes,
        )
    }
}

/// Everything one capture pass produced: the per-launch traces in
/// launch order, the stats under the capture configuration, and the
/// host↔device traffic of the functional run.
#[derive(Debug)]
pub struct CapturedRun {
    /// Recorded traces, one per kernel launch, in launch order.
    pub traces: Vec<Arc<KernelTrace>>,
    /// The configuration the capture ran under.
    pub capture_cfg: GpuConfig,
    /// Aggregate stats of the capture run (capture and timing happen in
    /// the same launch, so this equals a direct run under
    /// `capture_cfg`).
    pub baseline: KernelStats,
    /// Host→device bytes moved by the functional run.
    pub h2d_bytes: u64,
    /// Device→host bytes moved by the functional run.
    pub d2h_bytes: u64,
}

impl CapturedRun {
    /// The one constructor, shared by capture and store restore.
    ///
    /// Launches that are byte-identical — same name, same CTA count,
    /// then full equality — come to share one `Arc`, so every replay
    /// ([`simt::try_time_launches`]) times each distinct launch once.
    /// The launch list itself (and so the store payload) is unchanged.
    /// A restore passes no `baseline`; it is then re-timed from the
    /// interned launches under `capture_cfg`.
    fn new(
        traces: Vec<Arc<KernelTrace>>,
        capture_cfg: &GpuConfig,
        baseline: Option<KernelStats>,
        h2d_bytes: u64,
        d2h_bytes: u64,
    ) -> Result<CapturedRun, simt::SimError> {
        let mut distinct: Vec<Arc<KernelTrace>> = Vec::new();
        let traces: Vec<Arc<KernelTrace>> = traces
            .into_iter()
            .map(|t| {
                let twin = distinct
                    .iter()
                    .find(|d| d.name == t.name && d.ctas.len() == t.ctas.len() && **d == t);
                match twin {
                    Some(d) => Arc::clone(d),
                    None => {
                        distinct.push(Arc::clone(&t));
                        t
                    }
                }
            })
            .collect();
        let baseline = match baseline {
            Some(b) => b,
            None => simt::try_time_launches(&traces, capture_cfg)?,
        };
        Ok(CapturedRun {
            traces,
            capture_cfg: capture_cfg.clone(),
            baseline,
            h2d_bytes,
            d2h_bytes,
        })
    }

    /// Re-times every recorded launch under `cfg` and merges the
    /// per-launch stats in launch order — byte-identical to running the
    /// benchmark directly under `cfg`, provided `cfg` shares this
    /// capture's [`CaptureFingerprint`]. Identical launches are timed
    /// once, and distinct ones run in parallel up to
    /// [`simt::set_sim_threads`] workers.
    ///
    /// # Errors
    ///
    /// [`StudyError::TraceReuse`] if `cfg`'s fingerprint differs from
    /// the capture's; [`StudyError::Sim`] if replay itself fails.
    pub fn replay(&self, cfg: &GpuConfig) -> Result<KernelStats, StudyError> {
        let want = CaptureFingerprint::of(cfg);
        let have = CaptureFingerprint::of(&self.capture_cfg);
        if want != have {
            return Err(StudyError::TraceReuse {
                capture: format!("{have:?} ({})", self.capture_cfg.name),
                replay: format!("{want:?} ({})", cfg.name),
            });
        }
        if self.traces.is_empty() {
            return Err(StudyError::TraceReuse {
                capture: self.capture_cfg.name.clone(),
                replay: "no launches were recorded".to_string(),
            });
        }
        Ok(simt::try_time_launches(&self.traces, cfg)?)
    }

    /// Stats under `cfg`: the stored baseline when `cfg` is the capture
    /// configuration in everything but its name (no re-timing needed;
    /// the stats then carry `cfg`'s name), a [`replay`] pass otherwise.
    ///
    /// [`replay`]: CapturedRun::replay
    pub fn stats_for(&self, cfg: &GpuConfig) -> Result<KernelStats, StudyError> {
        let renamed = GpuConfig {
            name: self.capture_cfg.name.clone(),
            ..cfg.clone()
        };
        if renamed == self.capture_cfg {
            let mut stats = self.baseline.clone();
            stats.config.clone_from(&cfg.name);
            Ok(stats)
        } else {
            self.replay(cfg)
        }
    }
}

/// A thread-safe, exactly-once cache of one kind of capture, optionally
/// backed by a persistent [`TraceStore`]. [`TraceCache`] and
/// [`CpuTraceCache`] are its two instances.
///
/// The (possibly long) capture runs outside the map lock, so workers
/// capturing *different* workloads never serialize on each other,
/// while workers racing for the *same* key block on one shared
/// initializer.
#[derive(Debug)]
pub struct CaptureCache<K, V> {
    map: OnceMap<K, V>,
    store: Mutex<Option<Arc<TraceStore>>>,
    captures: AtomicU64,
    restores: AtomicU64,
}

/// The GPU kernel-trace cache, keyed by [`TraceKey`].
pub type TraceCache = CaptureCache<TraceKey, CapturedRun>;

/// The CPU memory-trace cache, keyed by [`CpuTraceKey`].
pub type CpuTraceCache = CaptureCache<CpuTraceKey, CpuCapture>;

/// One kind of capture as the persistent store holds it.
trait Persisted {
    /// The cache key.
    type Key;
    /// The store key of `key`'s entry.
    fn store_key(key: &Self::Key) -> String;
    /// The store payload.
    fn encode(&self) -> Vec<u8>;
}

impl<K, V> Default for CaptureCache<K, V> {
    fn default() -> CaptureCache<K, V> {
        CaptureCache {
            map: OnceMap::default(),
            store: Mutex::new(None),
            captures: AtomicU64::new(0),
            restores: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash, V> CaptureCache<K, V> {
    /// Creates an empty cache.
    pub fn new() -> CaptureCache<K, V> {
        CaptureCache::default()
    }

    /// Attaches a persistent [`TraceStore`]: subsequent captures check
    /// the store first and persist fresh captures back to it. The store
    /// is strictly a second-level cache — a damaged or unwritable store
    /// only costs recaptures, never results.
    pub fn set_store(&self, store: Arc<TraceStore>) {
        *self
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(store);
    }

    fn store(&self) -> Option<Arc<TraceStore>> {
        self.store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Number of cached (or in-flight) captures.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times this cache actually ran a capture (functional
    /// execution) — store restores and in-memory hits are excluded.
    /// Instance-scoped (unlike the global `store.*` registry counters)
    /// so the `repro serve` `/stats` endpoint and the coalescing tests
    /// can assert "zero new captures" without cross-test interference.
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// How many captures this cache restored from the persistent store
    /// instead of re-running (see [`CaptureCache::captures`]).
    pub fn restores(&self) -> u64 {
        self.restores.load(Ordering::Relaxed)
    }

    /// Looks up `key`, running `capture` exactly once on a miss (even
    /// under concurrent lookups of the same key).
    pub fn get_or_capture(
        &self,
        key: K,
        capture: impl FnOnce() -> Result<V, StudyError>,
    ) -> Result<Arc<V>, StudyError> {
        self.map.get_or_init(key, capture)
    }

    /// The one restore-or-capture path. On a miss with a store
    /// attached, a verified entry goes through `restore` — the
    /// side-specific decode-and-validate step. Any `restore` failure
    /// (codec rejection, semantic staleness) quarantines the entry
    /// with its reason exactly like bit rot, because a stale payload
    /// must never reach a results table. Otherwise `capture` runs and
    /// its result is persisted for the next process.
    fn restore_or_capture(
        &self,
        key: K,
        restore: impl FnOnce(&[u8]) -> Result<V, String>,
        capture: impl FnOnce() -> Result<V, StudyError>,
    ) -> Result<Arc<V>, StudyError>
    where
        V: Persisted<Key = K>,
    {
        let persist = self.store().map(|store| (V::store_key(&key), store));
        self.get_or_capture(key, || {
            if let Some((skey, store)) = &persist {
                if let Some(payload) = store.load(skey) {
                    match restore(&payload) {
                        Ok(restored) => {
                            self.restores.fetch_add(1, Ordering::Relaxed);
                            return Ok(restored);
                        }
                        Err(reason) => store.quarantine(skey, &reason),
                    }
                }
            }
            self.captures.fetch_add(1, Ordering::Relaxed);
            let captured = capture()?;
            if let Some((skey, store)) = &persist {
                store.save_or_warn(skey, &captured.encode());
            }
            Ok(captured)
        })
    }
}

impl Persisted for CapturedRun {
    type Key = TraceKey;

    fn store_key(key: &TraceKey) -> String {
        key.store_key()
    }

    fn encode(&self) -> Vec<u8> {
        simt::encode_capture_payload(&self.traces, self.h2d_bytes, self.d2h_bytes)
    }
}

impl TraceCache {
    /// Captures a suite benchmark under `cfg` (variant `""`), reusing a
    /// cached capture with the same fingerprint when available.
    pub fn capture_benchmark(
        &self,
        b: &dyn GpuBenchmark,
        scale: Scale,
        cfg: &GpuConfig,
    ) -> Result<Arc<CapturedRun>, StudyError> {
        self.capture_fn(b.abbrev(), scale, "", cfg, |gpu| b.run_on(gpu))
    }

    /// Captures an arbitrary workload closure under `cfg`, keyed by
    /// `(name, scale, variant)` plus `cfg`'s fingerprint. The closure
    /// runs at most once; it must drive every kernel launch through the
    /// provided [`Gpu`]. With a store attached, a verified persisted
    /// capture short-circuits the closure entirely, and a fresh capture
    /// is persisted for the next process.
    pub fn capture_fn(
        &self,
        name: &str,
        scale: Scale,
        variant: &'static str,
        cfg: &GpuConfig,
        run: impl FnOnce(&mut Gpu) -> KernelStats,
    ) -> Result<Arc<CapturedRun>, StudyError> {
        let key = TraceKey {
            benchmark: name.to_string(),
            scale,
            variant,
            fingerprint: CaptureFingerprint::of(cfg),
        };
        self.restore_or_capture(
            key,
            |payload| restore_gpu_run(payload, cfg),
            || {
                let _span = obs::span!("trace_cache.capture.{name}");
                let mut gpu = Gpu::try_new(cfg.clone())?;
                gpu.set_trace_recording(true);
                let baseline = run(&mut gpu);
                Ok(CapturedRun::new(
                    gpu.take_recorded_traces(),
                    cfg,
                    Some(baseline),
                    gpu.mem().h2d_bytes(),
                    gpu.mem().d2h_bytes(),
                )?)
            },
        )
    }
}

/// Decodes and re-times a persisted GPU capture; `Err` is the
/// quarantine reason.
fn restore_gpu_run(payload: &[u8], cfg: &GpuConfig) -> Result<CapturedRun, String> {
    let (traces, h2d_bytes, d2h_bytes) =
        simt::decode_capture_payload(payload).map_err(|e| format!("payload: {e}"))?;
    if traces.is_empty() {
        return Err("payload records no launches".to_string());
    }
    // The baseline is deliberately not serialized: replay ≡ direct run,
    // so re-timing the decoded traces under the capture configuration
    // reproduces it exactly — and doubles as an end-to-end validity
    // check on the decoded ops.
    let run = CapturedRun::new(traces, cfg, None, h2d_bytes, d2h_bytes)
        .map_err(|e| format!("replay: {e}"))?;
    obs::Registry::global().incr("store.gpu_restored");
    Ok(run)
}

/// The subset of a [`ProfileConfig`] that influences a CPU capture's
/// recorded trace and replay geometry. `cache_sizes` is deliberately
/// absent: capacities are pure replay parameters, which is the whole
/// point of the capture-once pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuCaptureFingerprint {
    /// Logical thread count (shapes the interleaved stream and ids).
    pub threads: usize,
    /// Cache line size in bytes (shapes the line-granular trace words).
    pub line: u64,
    /// Round-robin interleaving quantum (shapes the interleaving).
    pub quantum: usize,
    /// Associativity — it does not shape the recorded words, but it is
    /// baked into the capture's replay geometry, so captures with
    /// different `ways` are not interchangeable.
    pub ways: usize,
}

impl CpuCaptureFingerprint {
    /// Extracts the capture-relevant parameters of `cfg`.
    pub fn of(cfg: &ProfileConfig) -> CpuCaptureFingerprint {
        CpuCaptureFingerprint {
            threads: cfg.threads,
            line: cfg.line,
            quantum: cfg.quantum,
            ways: cfg.ways,
        }
    }
}

/// Cache key: one capture pass of one CPU workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CpuTraceKey {
    /// Workload label (Figure 6 style, e.g. `srad(R)` — unique across
    /// the combined corpus, unlike bare names, which StreamCluster
    /// shares between suites).
    pub workload: String,
    /// Input scale.
    pub scale: Scale,
    /// Capture-relevant configuration parameters.
    pub fingerprint: CpuCaptureFingerprint,
}

impl CpuTraceKey {
    /// The persistent-store key of this capture (see
    /// [`TraceKey::store_key`] for the contract).
    pub fn store_key(&self) -> String {
        let fp = &self.fingerprint;
        format!(
            "cpu/v1/{}/{:?}/t{}l{}q{}w{}",
            self.workload, self.scale, fp.threads, fp.line, fp.quantum, fp.ways,
        )
    }
}

impl Persisted for CpuCapture {
    type Key = CpuTraceKey;

    fn store_key(key: &CpuTraceKey) -> String {
        key.store_key()
    }

    fn encode(&self) -> Vec<u8> {
        tracekit::encode_capture(self)
    }
}

impl CpuTraceCache {
    /// Captures `workload` under `cfg` (once per `(label, scale,
    /// fingerprint)`). With a store attached, a verified persisted
    /// capture short-circuits the run, and a fresh capture is persisted
    /// for the next process.
    pub fn capture_workload(
        &self,
        label: &str,
        workload: &dyn CpuWorkload,
        scale: Scale,
        cfg: &ProfileConfig,
    ) -> Result<Arc<CpuCapture>, StudyError> {
        let fingerprint = CpuCaptureFingerprint::of(cfg);
        let key = CpuTraceKey {
            workload: label.to_string(),
            scale,
            fingerprint,
        };
        self.restore_or_capture(
            key,
            |payload| restore_cpu_capture(payload, &fingerprint),
            || Ok(CpuCapture::capture(workload, cfg)?),
        )
    }
}

/// Decodes a persisted CPU capture and checks its replay geometry;
/// `Err` is the quarantine reason.
fn restore_cpu_capture(payload: &[u8], fp: &CpuCaptureFingerprint) -> Result<CpuCapture, String> {
    let cap = tracekit::decode_capture(payload).map_err(|e| format!("payload: {e}"))?;
    // The key already spells the fingerprint, but the decoded geometry
    // is re-checked so a semantically stale payload behind a valid
    // frame still degrades to recapture instead of a wrong replay.
    if cap.ways() != fp.ways || cap.line() != fp.line {
        return Err("replay geometry differs from the requested fingerprint".to_string());
    }
    obs::Registry::global().incr("store.cpu_restored");
    Ok(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodinia_gpu::suite::all_benchmarks;

    #[test]
    fn cpu_fingerprint_ignores_capacities() {
        let base = CpuCaptureFingerprint::of(&ProfileConfig::default());
        let shrunk = ProfileConfig {
            cache_sizes: vec![4 * 1024],
            ..ProfileConfig::default()
        };
        assert_eq!(CpuCaptureFingerprint::of(&shrunk), base);
        let rethreaded = ProfileConfig {
            threads: 4,
            ..ProfileConfig::default()
        };
        assert_ne!(CpuCaptureFingerprint::of(&rethreaded), base);
    }

    #[test]
    fn cpu_capture_happens_exactly_once_per_label() {
        let cache = CpuTraceCache::new();
        let cfg = ProfileConfig::default();
        let ws = crate::suite::combined_workloads(Scale::Tiny);
        let lw = &ws[0];
        let a = cache
            .capture_workload(&lw.label, lw.workload.as_ref(), Scale::Tiny, &cfg)
            .expect("capture");
        let b = cache
            .capture_workload(&lw.label, lw.workload.as_ref(), Scale::Tiny, &cfg)
            .expect("cache hit");
        assert!(Arc::ptr_eq(&a, &b), "second lookup hit the cache");
        assert_eq!(cache.len(), 1);
        // The cached capture replays to the direct path's stats.
        let direct = tracekit::profile(lw.workload.as_ref(), &cfg).expect("direct");
        let stats = a.replay_all(&cfg.cache_sizes).expect("replay");
        assert_eq!(a.profile_with(stats), direct);
    }

    #[test]
    fn cpu_concurrent_lookups_capture_once() {
        let cache = CpuTraceCache::new();
        let cfg = ProfileConfig::default();
        let captures = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let key = CpuTraceKey {
                        workload: "w".to_string(),
                        scale: Scale::Tiny,
                        fingerprint: CpuCaptureFingerprint::of(&cfg),
                    };
                    let ws = crate::suite::combined_workloads(Scale::Tiny);
                    let r = cache.get_or_capture(key, || {
                        captures.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        CpuCapture::capture(ws[0].workload.as_ref(), &cfg)
                            .map_err(StudyError::from)
                    });
                    assert!(r.is_ok());
                });
            }
        });
        assert_eq!(captures.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn paper_configs_share_the_default_fingerprint_except_fermi() {
        let base = CaptureFingerprint::of(&GpuConfig::gpgpusim_default());
        assert_eq!(CaptureFingerprint::of(&GpuConfig::gpgpusim_8sm()), base);
        assert_eq!(CaptureFingerprint::of(&GpuConfig::gtx280()), base);
        assert_eq!(
            CaptureFingerprint::of(&GpuConfig::gpgpusim_default().with_mem_channels(4)),
            base
        );
        let fermi = CaptureFingerprint::of(&GpuConfig::gtx480_shared_bias());
        assert_ne!(fermi, base);
        assert_eq!(CaptureFingerprint::of(&GpuConfig::gtx480_l1_bias()), fermi);
    }

    #[test]
    fn capture_happens_exactly_once_and_replays_identically() {
        let cache = TraceCache::new();
        let cfg = GpuConfig::gpgpusim_default();
        let benches = all_benchmarks(Scale::Tiny);
        let b = benches[0].as_ref();

        let run1 = cache
            .capture_benchmark(b, Scale::Tiny, &cfg)
            .expect("capture");
        let run2 = cache
            .capture_benchmark(b, Scale::Tiny, &cfg)
            .expect("cache hit");
        assert!(Arc::ptr_eq(&run1, &run2), "second lookup hit the cache");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.captures(), 1, "one functional execution");
        assert_eq!(cache.restores(), 0, "no store attached");

        // Replay under the capture config reproduces the baseline.
        let replayed = run1.replay(&cfg).expect("replay");
        assert_eq!(replayed.cycles, run1.baseline.cycles);
        assert_eq!(
            replayed.thread_instructions,
            run1.baseline.thread_instructions
        );
        // Replay on a different machine (same fingerprint) works too.
        let s8 = run1.replay(&GpuConfig::gpgpusim_8sm()).expect("8-SM replay");
        assert!(s8.cycles > 0);
    }

    /// Distinct launches of a run, by `Arc` identity.
    fn distinct_launches(run: &CapturedRun) -> usize {
        let mut seen: Vec<&Arc<KernelTrace>> = Vec::new();
        for t in &run.traces {
            if !seen.iter().any(|s| Arc::ptr_eq(s, t)) {
                seen.push(t);
            }
        }
        seen.len()
    }

    #[test]
    fn identical_launches_are_interned_and_the_store_payload_is_unchanged() {
        let dir = std::env::temp_dir().join(format!("rodinia-intern-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(TraceStore::open(&dir).expect("open store"));
        let cfg = GpuConfig::gpgpusim_default();
        let benches = all_benchmarks(Scale::Tiny);
        let cold = TraceCache::new();
        cold.set_store(Arc::clone(&store));
        let warm = TraceCache::new();
        warm.set_store(Arc::clone(&store));
        for (abbrev, launches, distinct) in [("CFD", 4, 2), ("KM", 2, 1), ("SRAD", 4, 2)] {
            let b = benches
                .iter()
                .find(|b| b.abbrev() == abbrev)
                .expect("suite benchmark")
                .as_ref();
            let captured = cold.capture_benchmark(b, Scale::Tiny, &cfg).expect("capture");
            assert_eq!(captured.traces.len(), launches, "{abbrev}: launches");
            assert_eq!(distinct_launches(&captured), distinct, "{abbrev}: distinct launches");
            let key = TraceKey {
                benchmark: abbrev.to_string(),
                scale: Scale::Tiny,
                variant: "",
                fingerprint: CaptureFingerprint::of(&cfg),
            };
            let saved = store.load(&key.store_key()).expect("capture persisted");
            let encode = |run: &CapturedRun| {
                simt::encode_capture_payload(&run.traces, run.h2d_bytes, run.d2h_bytes)
            };
            assert_eq!(encode(&captured), saved, "{abbrev}: interning changed the payload");
            // A restore interns the same way, re-times the same
            // baseline, and encodes back to the saved bytes.
            let restored = warm.capture_benchmark(b, Scale::Tiny, &cfg).expect("restore");
            assert_eq!(distinct_launches(&restored), distinct, "{abbrev}: restored");
            assert_eq!(encode(&restored), saved, "{abbrev}: restored payload");
            assert_eq!(
                format!("{:?}", restored.baseline),
                format!("{:?}", captured.baseline),
                "{abbrev}: restored baseline"
            );
        }
        assert_eq!((cold.captures(), warm.restores(), warm.captures()), (3, 3, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_renamed_capture_config_gets_the_baseline_under_its_own_name() {
        let cache = TraceCache::new();
        let cfg = GpuConfig::gpgpusim_default();
        let benches = all_benchmarks(Scale::Tiny);
        let run = cache
            .capture_benchmark(benches[2].as_ref(), Scale::Tiny, &cfg)
            .expect("capture");
        let renamed = GpuConfig {
            name: "renamed".to_string(),
            ..cfg.clone()
        };
        let got = run.stats_for(&renamed).expect("stats");
        assert_eq!(got.config, "renamed");
        // Exactly what re-timing under the renamed config produces.
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", run.replay(&renamed).expect("replay"))
        );
        // Any other difference still re-times.
        let eight = GpuConfig::gpgpusim_8sm();
        assert_eq!(
            format!("{:?}", run.stats_for(&eight).expect("stats")),
            format!("{:?}", run.replay(&eight).expect("replay"))
        );
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_error() {
        let cache = TraceCache::new();
        let cfg = GpuConfig::gpgpusim_default();
        let benches = all_benchmarks(Scale::Tiny);
        let run = cache
            .capture_benchmark(benches[0].as_ref(), Scale::Tiny, &cfg)
            .expect("capture");
        let err = run.replay(&GpuConfig::gtx480_l1_bias()).unwrap_err();
        assert!(matches!(err, StudyError::TraceReuse { .. }), "{err}");
        assert!(err.to_string().contains("fingerprint"));
    }

    #[test]
    fn concurrent_lookups_capture_once() {
        let cache = TraceCache::new();
        let cfg = GpuConfig::gpgpusim_default();
        let captures = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let benches = all_benchmarks(Scale::Tiny);
                    let b = benches[4].as_ref(); // HotSpot: cheap at Tiny
                    let run = cache
                        .capture_fn(b.abbrev(), Scale::Tiny, "", &cfg, |gpu| {
                            captures.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            b.run_on(gpu)
                        })
                        .expect("capture");
                    assert!(run.baseline.cycles > 0);
                });
            }
        });
        assert_eq!(
            captures.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exactly one thread ran the capture closure"
        );
        assert_eq!(cache.len(), 1);
    }
}

//! The parallel study engine: a worker pool with deterministic result
//! ordering, plus the per-session caches (captured traces, the
//! comparison corpus, and finished experiment tables).
//!
//! Every experiment in the study decomposes into independent jobs —
//! one benchmark × one replay configuration — so [`StudySession`] fans
//! them over a [`std::thread::scope`] pool. Determinism is structural,
//! not best-effort: jobs carry their submission index, workers write
//! results into an index-addressed slot vector, and the caller reads
//! the slots back in submission order. The rendered tables are
//! therefore byte-identical for any worker count, including 1 (which
//! bypasses thread spawning entirely).
//!
//! # The two threading layers
//!
//! The session controls two independent pools, and both are pure
//! performance knobs — neither enters a study key or changes a byte of
//! output:
//!
//! * **`jobs`** (this module) parallelizes *across* replay jobs: many
//!   `(benchmark, configuration)` pairs run concurrently, each replay
//!   serial inside.
//! * **`sim_threads`** ([`StudySession::set_sim_threads`]) parallelizes
//!   *inside* one replay: the recorded run's distinct kernel launches
//!   replay on separate workers, and their stats merge in launch order
//!   (see `simt::gpu`). Byte-identity is an invariant of the engine, not
//!   a best-effort property of this knob.
//!
//! Both widths and the `kernel_stats` buffer belong to the session.
//!
//! Wide sweeps want `jobs` (more independent work than cores); a few
//! multi-launch replays want `sim_threads` (few long-running jobs). The
//! two compose — `jobs * sim_threads` threads can be live at once — so
//! oversubscribing both is rarely useful.
//!
//! ```
//! use rodinia_study::engine::StudySession;
//!
//! let session = StudySession::new(2);
//! session.set_sim_threads(4);
//! assert_eq!(session.sim_threads(), 4);
//! // Same tables as jobs=1 / sim_threads=1, sooner; another session
//! // keeps its own width.
//! assert_eq!(StudySession::new(2).sim_threads(), 1);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use datasets::Scale;
use store::TraceStore;

use crate::comparison::ComparisonStudy;
use crate::error::StudyError;
use crate::experiments::{run_comparison, run_gpu, ExperimentId};
use crate::once_map::OnceMap;
use crate::report::Table;
use crate::trace_cache::{CpuTraceCache, ReplaySettings, TraceCache};

/// One run of the study: a worker-pool width and the session caches.
///
/// Every artifact is a pure function of its inputs, so the session
/// computes each one at most once, at three layers:
///
/// * **captures** — each `(benchmark, scale, variant)` is functionally
///   executed at most once per capture fingerprint ([`TraceCache`]),
///   no matter how many experiments or replay configurations consume
///   the trace;
/// * **the comparison corpus** — the 24-workload CPU profile behind
///   Figures 6–12 is built at most once per scale
///   ([`StudySession::corpus`]); each job keeps its workload's profile
///   and no trace (it profiles live without a store, and drops a
///   stored capture after its replay), so the [`CpuTraceCache`] holds
///   only what a caller made resident with `capture_workload`;
/// * **experiment tables** — each `(artifact, scale)` is computed at
///   most once ([`StudySession::tables`]); later requests naming it
///   share the finished tables.
///
/// All three are exactly-once under concurrency: racing callers for one
/// key block on a single initializer. Errors are retained too, since
/// each is deterministic in its key. The memos are bounded by the fixed
/// artifact × scale space, so they need no eviction.
#[derive(Debug)]
pub struct StudySession {
    jobs: AtomicUsize,
    replay: Arc<ReplaySettings>,
    cache: TraceCache,
    cpu_cache: CpuTraceCache,
    corpora: OnceMap<Scale, ComparisonStudy>,
    experiments: OnceMap<(ExperimentId, Scale), Vec<Table>>,
    store: Option<Arc<TraceStore>>,
}

impl Default for StudySession {
    /// A session sized to the machine: one worker per available CPU.
    fn default() -> StudySession {
        StudySession::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }
}

impl StudySession {
    /// Creates a session with `jobs` workers (clamped to at least 1).
    #[must_use = "builds a session without running anything"]
    pub fn new(jobs: usize) -> StudySession {
        let cache = TraceCache::new();
        StudySession {
            jobs: AtomicUsize::new(jobs.max(1)),
            replay: Arc::clone(&cache.replay),
            cache,
            cpu_cache: CpuTraceCache::new(),
            corpora: OnceMap::default(),
            experiments: OnceMap::default(),
            store: None,
        }
    }

    /// A single-worker session: jobs run inline on the caller's thread,
    /// in submission order.
    #[must_use = "builds a session without running anything"]
    pub fn sequential() -> StudySession {
        StudySession::new(1)
    }

    /// The worker-pool width.
    pub fn jobs(&self) -> usize {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Adjusts the worker-pool width for subsequent [`run_indexed`]
    /// calls (clamped to at least 1). Results are byte-identical at any
    /// width, so a long-running session — the `repro serve` daemon —
    /// can apply a per-request `jobs` hint without forking state; a
    /// sweep already in flight keeps the width it started with.
    ///
    /// [`run_indexed`]: StudySession::run_indexed
    pub fn set_jobs(&self, jobs: usize) {
        self.jobs.store(jobs.max(1), Ordering::Relaxed);
    }

    /// Sets the *intra-replay* worker count (`0` = auto, one per CPU)
    /// for this session's subsequent replays (default 1).
    ///
    /// Like [`set_jobs`], a pure wall-clock knob: the launch-parallel
    /// replay is byte-identical at every width, so it is excluded from
    /// study keys and safe to flip between (or even during) requests;
    /// replays already in flight keep the width they started with.
    ///
    /// [`set_jobs`]: StudySession::set_jobs
    pub fn set_sim_threads(&self, n: usize) {
        self.replay.sim_threads.store(n, Ordering::Relaxed);
    }

    /// The configured intra-replay worker count (`0` = auto).
    pub fn sim_threads(&self) -> usize {
        self.replay.sim_threads.load(Ordering::Relaxed)
    }

    /// The buffer every GPU run of this session publishes into.
    pub fn records(&self) -> &Arc<obs::Records> {
        &self.replay.records
    }

    /// The width and record buffer of one replay started now.
    pub fn replay_options(&self) -> simt::ReplayOptions<'_> {
        self.replay.options()
    }

    /// The session's shared GPU kernel-trace cache.
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// The session's shared CPU memory-trace cache.
    pub fn cpu_cache(&self) -> &CpuTraceCache {
        &self.cpu_cache
    }

    /// The comparison corpus at `scale`, profiled on first use and
    /// shared by every later caller in this session.
    ///
    /// # Errors
    ///
    /// The [`StudyError`] of the profiling run, retained for later
    /// callers.
    pub fn corpus(&self, scale: Scale) -> Result<Arc<ComparisonStudy>, StudyError> {
        self.corpora
            .get_or_init(scale, || ComparisonStudy::run(self, scale))
    }

    /// The tables of artifact `id` at `scale`, computed on first use
    /// ([`run_gpu`], or [`run_comparison`] over
    /// [`StudySession::corpus`]) and shared by every later caller in
    /// this session. The tables are identical at any `jobs` or
    /// `sim_threads` width, so neither is part of the key.
    ///
    /// # Errors
    ///
    /// The experiment's [`StudyError`], retained for later callers.
    pub fn tables(&self, id: ExperimentId, scale: Scale) -> Result<Arc<Vec<Table>>, StudyError> {
        self.experiments.get_or_init((id, scale), || {
            if id.needs_corpus() {
                run_comparison(id, &*self.corpus(scale)?)
            } else {
                run_gpu(self, id, scale)
            }
        })
    }

    /// How many `(artifact, scale)` table sets this session computed.
    pub fn experiments_computed(&self) -> u64 {
        self.experiments.computed()
    }

    /// How many [`StudySession::tables`] lookups were answered from the
    /// memo instead of computing.
    pub fn experiments_reused(&self) -> u64 {
        self.experiments.reused()
    }

    /// How many comparison corpora this session profiled (at most one
    /// per scale).
    pub fn corpora_built(&self) -> u64 {
        self.corpora.computed()
    }

    /// Attaches a persistent [`TraceStore`] to this session: both trace
    /// caches check it before capturing and persist fresh captures back
    /// to it, and sweep drivers checkpoint their progress in its
    /// journals. The store is strictly a durability layer — detaching
    /// it (or damaging it) changes wall-clock time, never results.
    pub fn attach_store(&mut self, store: Arc<TraceStore>) {
        self.cache.set_store(Arc::clone(&store));
        self.cpu_cache.set_store(Arc::clone(&store));
        self.store = Some(store);
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<TraceStore>> {
        self.store.as_ref()
    }

    /// Runs `f(0), f(1), ..., f(n-1)` across the worker pool and
    /// returns the results **in index order**.
    ///
    /// Workers claim indices from a shared counter, so scheduling is
    /// nondeterministic — but reassembly is by index, which makes the
    /// output independent of the worker count and of thread timing.
    ///
    /// # Errors
    ///
    /// The lowest-index job error, matching what a sequential
    /// left-to-right run would report first. (Unlike the sequential
    /// path, later jobs may already have started when an early one
    /// fails; their side effects on the trace cache are harmless.)
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, StudyError>
    where
        T: Send,
        F: Fn(usize) -> Result<T, StudyError> + Sync,
    {
        let workers = self.jobs().min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<T, StudyError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
                });
            }
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            let r = slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("scope joined: every claimed index stored a result");
            out.push(r?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for jobs in [1, 2, 4, 7] {
            let session = StudySession::new(jobs);
            let out = session
                .run_indexed(20, |i| Ok(i * i))
                .expect("all jobs succeed");
            assert_eq!(
                out,
                (0..20).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let session = StudySession::new(4);
        let err = session
            .run_indexed(16, |i| {
                if i == 3 || i == 11 {
                    Err(StudyError::TableRow {
                        got: i,
                        expected: 0,
                    })
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            StudyError::TableRow {
                got: 3,
                expected: 0
            }
        );
    }

    #[test]
    fn zero_jobs_clamps_to_one_and_empty_input_is_fine() {
        let session = StudySession::new(0);
        assert_eq!(session.jobs(), 1);
        let out = session.run_indexed(0, |_| Ok(())).expect("empty");
        assert!(out.is_empty());
        assert!(session.cache().is_empty());
    }

    #[test]
    fn default_session_uses_available_parallelism() {
        let session = StudySession::default();
        assert!(session.jobs() >= 1);
    }

    #[test]
    fn jobs_width_is_adjustable_and_clamped() {
        let session = StudySession::new(4);
        session.set_jobs(7);
        assert_eq!(session.jobs(), 7);
        session.set_jobs(0);
        assert_eq!(session.jobs(), 1, "zero clamps to one");
        let out = session.run_indexed(8, Ok).expect("runs");
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}

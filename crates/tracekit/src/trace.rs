//! Captured memory traces, for the persistent store.
//!
//! The direct path ([`crate::profile()`]) feeds every interleaved memory
//! reference to a [`Sweep`] of the cache capacities as it is generated,
//! and stores nothing. A trace is worth keeping only when a later
//! process can reuse it, so this module splits that pass in two:
//!
//! 1. **capture** — run the workload once under a capture-mode
//!    [`Profiler`], recording the line-granular reference stream as
//!    packed `(lineno << 8) | tid` words (mix, footprints and event
//!    counts are finalized here too; they do not depend on capacity);
//! 2. **replay** — feed the packed words to the same [`Sweep`]
//!    ([`CpuCapture::replay_all`]), which simulates only the capacities
//!    whose stats can differ.
//!
//! Because the packed words record exactly the `(tid, lineno)` pairs
//! the direct sink would have fed the sweep — including the second
//! line of a straddling access — the replayed sweep observes the
//! byte-identical access sequence, and [`CacheStats`] come out equal to
//! the direct path's. `tests` below prove it; the study-level
//! determinism is re-proven per workload in
//! `tests/cpu_replay_determinism.rs` at the workspace root.

use crate::cache::{CacheStats, Sweep};
use crate::error::TraceError;
use crate::profile::{CpuWorkload, Profile, ProfileConfig, Profiler};

/// A workload's capture: everything capacity-independent (mix,
/// footprints, event count) plus the packed reference trace.
///
/// Captures are immutable once built; replaying takes `&self`, so one
/// capture can serve many concurrent replays behind an `Arc`.
#[derive(Debug, Clone)]
pub struct CpuCapture {
    base: Profile,
    words: Vec<u64>,
    ways: usize,
    line: u64,
}

impl CpuCapture {
    /// Runs `workload` once in capture mode.
    ///
    /// Emits a `tracekit.capture.{name}` span and bumps the
    /// `tracekit.captures` / `tracekit.capture.words` registry
    /// counters.
    ///
    /// # Errors
    ///
    /// A [`TraceError`] if the configuration is invalid; geometry is
    /// validated here (not at first replay) so misconfiguration
    /// surfaces before any work is done. [`TraceError::BufferGrowth`]
    /// if a tracer stream or the packed words could not grow.
    pub fn capture(
        workload: &dyn CpuWorkload,
        cfg: &ProfileConfig,
    ) -> Result<CpuCapture, TraceError> {
        let _span = obs::span!("tracekit.capture.{}", workload.name());
        let mut prof = Profiler::new_capturing(cfg)?;
        workload.run(&mut prof);
        let (base, words) = prof
            .finish_capture(workload.name())
            .map_err(|e| e.traced(workload.name()))?;
        let reg = obs::Registry::global();
        reg.add("tracekit.captures", 1);
        reg.add("tracekit.capture.words", words.len() as u64);
        Ok(CpuCapture {
            base,
            words,
            ways: cfg.ways,
            line: cfg.line,
        })
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.base.name
    }

    /// Packed trace length in words (one word per line-granular
    /// reference).
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// The raw packed trace: `(lineno << 8) | tid` per reference, in
    /// interleaved stream order (straddling accesses contribute two
    /// consecutive words).
    pub fn packed_words(&self) -> &[u64] {
        &self.words
    }

    /// The capture's capacity-independent base [`Profile`] (its
    /// `cache_stats` is empty; replays fill one in via
    /// [`profile_with`](CpuCapture::profile_with)).
    pub fn base(&self) -> &Profile {
        &self.base
    }

    /// Replay-geometry associativity baked into the capture.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Replay-geometry line size baked into the capture.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Reassembles a capture from its parts — the inverse of reading
    /// [`base`](CpuCapture::base) / [`packed_words`](CpuCapture::packed_words)
    /// / [`ways`](CpuCapture::ways) / [`line`](CpuCapture::line), for
    /// the persistent-store codec in [`crate::serdes`]. A capture
    /// rebuilt from a faithfully stored round trip replays
    /// byte-identically to the original.
    pub fn from_parts(base: Profile, words: Vec<u64>, ways: usize, line: u64) -> CpuCapture {
        CpuCapture {
            base,
            words,
            ways,
            line,
        }
    }

    /// Replays the trace at every capacity in `sizes` through one
    /// [`Sweep`], which simulates only the capacities whose stats can
    /// differ; the stats come back in the order of `sizes`.
    ///
    /// Emits a `tracekit.replay.{name}` span; the sweep adds to the
    /// `tracekit.replays` and `tracekit.replays_skipped` counters.
    ///
    /// # Errors
    ///
    /// The [`TraceError`] of the first capacity in `sizes` that is not a
    /// valid geometry with the captured associativity and line size.
    pub fn replay_all(&self, sizes: &[u64]) -> Result<Vec<CacheStats>, TraceError> {
        let _span = obs::span!("tracekit.replay.{}", self.base.name);
        let mut sweep = Sweep::new(sizes, self.ways, self.line)?;
        sweep.access_words(&self.words);
        Ok(sweep.finish())
    }

    /// Assembles a full [`Profile`] from this capture plus
    /// already-replayed cache stats (in the study's capacity order).
    pub fn profile_with(&self, cache_stats: Vec<CacheStats>) -> Profile {
        Profile {
            cache_stats,
            ..self.base.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SharedCache;
    use crate::profile::profile;
    use crate::tracer::ThreadTracer;

    /// A workload exercising sharing, straddles, and serial regions.
    struct Mixed;

    impl CpuWorkload for Mixed {
        fn name(&self) -> &'static str {
            "mixed"
        }
        fn run(&self, prof: &mut Profiler) {
            let shared = prof.alloc("shared", 64 * 64);
            let private = prof.alloc("private", 4 * 4096);
            let code = prof.code_region("kernel", 400);
            prof.serial(|t: &mut ThreadTracer| {
                t.exec(code);
                // Straddling access: 8 bytes across a line boundary.
                t.write(shared + 60, 8);
            });
            prof.parallel(|t| {
                t.exec(code);
                for i in 0..64u64 {
                    t.read(shared + i * 64, 4);
                    t.update(private + t.tid() as u64 * 4096 + i * 8, 8, 1);
                    t.branch(1);
                }
            });
        }
    }

    fn cfg() -> ProfileConfig {
        ProfileConfig {
            threads: 4,
            cache_sizes: vec![1024, 8 * 1024, 256 * 1024],
            quantum: 7,
            ..ProfileConfig::default()
        }
    }

    #[test]
    fn replay_is_byte_identical_to_direct() {
        let direct = profile(&Mixed, &cfg()).expect("direct profile");
        let cap = CpuCapture::capture(&Mixed, &cfg()).expect("capture");
        let stats = cap.replay_all(&cfg().cache_sizes).expect("replay");
        assert_eq!(direct, cap.profile_with(stats));
    }

    #[test]
    fn capture_is_reusable_across_capacities() {
        let cap = CpuCapture::capture(&Mixed, &cfg()).expect("capture");
        assert!(cap.words() > 0);
        let a = cap.replay_all(&[8 * 1024]).expect("replay");
        let b = cap.replay_all(&[8 * 1024]).expect("replay again");
        assert_eq!(a, b, "replay does not mutate the capture");
        let direct = profile(&Mixed, &cfg()).expect("direct");
        assert_eq!(&a[0], direct.at_capacity(8 * 1024));
    }

    #[test]
    fn trace_words_pack_tid_in_low_byte() {
        let cap = CpuCapture::capture(&Mixed, &cfg()).expect("capture");
        // Every recorded thread id must be one of the configured ones.
        for &w in &cap.words {
            assert!((w & 0xff) < 4, "tid {} out of range", w & 0xff);
        }
    }

    #[test]
    fn capture_validates_geometry_upfront() {
        let bad = ProfileConfig {
            cache_sizes: vec![48 * 1024],
            ..cfg()
        };
        assert_eq!(
            CpuCapture::capture(&Mixed, &bad).unwrap_err(),
            TraceError::SetsNotPowerOfTwo { sets: 192 }
        );
    }

    #[test]
    fn replay_rejects_bad_capacity() {
        let cap = CpuCapture::capture(&Mixed, &cfg()).expect("capture");
        assert!(matches!(
            cap.replay_all(&[8 * 1024, 48 * 1024]),
            Err(TraceError::SetsNotPowerOfTwo { .. })
        ));
    }

    #[test]
    fn a_trace_that_fits_skips_the_larger_replays() {
        // Three passes over 16 lines by 4 threads. With 4 ways and
        // 64-byte lines, 1 and 2 sets evict; 4 sets hold every line.
        let words: Vec<u64> = (0..3u64)
            .flat_map(|pass| (0..16u64).map(move |l| (l << 8) | ((l + pass) % 4)))
            .collect();
        let base = Profile {
            name: "trace-tests.fits".to_string(),
            mix: crate::mix::InstrMix::default(),
            cache_stats: Vec::new(),
            instr_blocks: 0,
            data_blocks: 0,
            events: 0,
        };
        let cap = CpuCapture::from_parts(base, words, 4, 64);
        let sizes: Vec<u64> = (0..8).map(|i| 256u64 << i).collect();
        let mut sweep = Sweep::new(&sizes, 4, 64).expect("valid geometries");
        sweep.access_words(cap.packed_words());
        assert_eq!(sweep.simulated(), 3, "only 1, 2 and 4 sets are simulated");
        let reg = obs::Registry::global();
        let skipped_before = reg.counter("tracekit.replays_skipped");
        let all = sweep.finish();
        assert!(reg.counter("tracekit.replays_skipped") >= skipped_before + 5);
        assert_eq!(all, cap.replay_all(&sizes).expect("replay all"));
        let each: Vec<CacheStats> = sizes
            .iter()
            .map(|&b| {
                let mut c = SharedCache::new(b, 4, 64).expect("geometry");
                for &w in cap.packed_words() {
                    c.access_line((w & 0xff) as usize, w >> 8);
                }
                c.finish()
            })
            .collect();
        assert_eq!(all, each);
        assert_eq!(all[7].misses, 16, "only compulsory misses once it fits");
    }

    #[test]
    fn capture_publishes_counters() {
        let before = obs::Registry::global().counter("tracekit.captures");
        let cap = CpuCapture::capture(&Mixed, &cfg()).expect("capture");
        let _ = cap.replay_all(&[8 * 1024]).expect("replay");
        let reg = obs::Registry::global();
        assert!(reg.counter("tracekit.captures") > before);
        assert!(reg.counter("tracekit.capture.words") >= cap.words() as u64);
        assert!(reg.counter("tracekit.replays") >= 1);
    }
}

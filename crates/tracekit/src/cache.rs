//! The shared-cache simulator of Bienia et al.'s methodology: one cache
//! shared by all (8) cores, 4-way set-associative, 64-byte lines,
//! capacities swept from 128 kB to 16 MB.
//!
//! Besides misses per memory reference (the working-set metric), the
//! simulator tracks sharing: a resident line is *shared* once two or
//! more distinct threads have accessed it during its current residency,
//! and every access to such a line counts toward the shared-access rate.
//!
//! [`SharedCache`] simulates one capacity. Its hot loop is laid out for
//! per-reference work: per-entry state is two words — the line tag,
//! and a packed `stamp << 8 | thread_mask` word — the set index is a
//! mask of the line number, the address-to-line mapping is a shift, and
//! LRU victim selection is a branchless min-fold over the packed
//! stamps.
//!
//! [`Sweep`] simulates a whole list of capacities in one pass over a
//! reference stream, the way the paper's Pin tool does online. It runs
//! only the capacities whose stats can still differ, and it is the one
//! cutoff rule behind both the live profiler ([`crate::Profiler`]) and
//! the replay of a stored capture ([`crate::CpuCapture::replay_all`]).

use crate::error::TraceError;

/// Bits of each packed meta word reserved for the thread mask.
const MASK_BITS: u32 = 8;
/// Mask extracting the thread bits of a packed meta word.
const THREAD_MASK: u64 = (1 << MASK_BITS) - 1;

/// A shared, set-associative, LRU cache with per-line thread masks.
#[derive(Debug, Clone)]
pub struct SharedCache {
    bytes: u64,
    ways: usize,
    line: u64,
    /// `sets - 1`: the set index is `lineno & set_mask`.
    set_mask: u64,
    /// `log2(line)`: the line number is `addr >> line_shift`.
    line_shift: u32,
    /// `sets * ways` entries; tag == u64::MAX is invalid.
    tags: Vec<u64>,
    /// `stamp << 8 | thread_mask`, one word per entry. The clock is
    /// bounded by the access count, so 56 stamp bits never overflow.
    meta: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
    shared_accesses: u64,
    // Residency ("incarnation") accounting for the shared-line fraction.
    finished_incarnations: u64,
    finished_shared: u64,
}

impl SharedCache {
    /// Creates a cache of `bytes` capacity with `ways` associativity and
    /// `line`-byte lines.
    ///
    /// # Errors
    ///
    /// [`TraceError::CacheTooSmall`] if the geometry yields no complete
    /// set, [`TraceError::SetsNotPowerOfTwo`] /
    /// [`TraceError::LineNotPowerOfTwo`] if set count or line size defeat
    /// the mask/shift index mapping.
    pub fn new(bytes: u64, ways: usize, line: u64) -> Result<SharedCache, TraceError> {
        let sets = validate_geometry(bytes, ways, line)?;
        Ok(SharedCache::with_sets(bytes, sets, ways, line))
    }

    /// An empty cache of an already validated geometry.
    fn with_sets(bytes: u64, sets: u64, ways: usize, line: u64) -> SharedCache {
        let entries = sets as usize * ways;
        SharedCache {
            bytes,
            ways,
            line,
            set_mask: sets - 1,
            line_shift: line.trailing_zeros(),
            tags: vec![u64::MAX; entries],
            meta: vec![0; entries],
            clock: 0,
            accesses: 0,
            misses: 0,
            shared_accesses: 0,
            finished_incarnations: 0,
            finished_shared: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes
    }

    /// Line size in bytes.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Simulates one access by `tid` to byte address `addr`.
    pub fn access(&mut self, tid: usize, addr: u64) {
        self.access_line(tid, addr >> self.line_shift);
    }

    /// Simulates one access by `tid` to cache line `lineno` — the hot
    /// entry point of the replay path, where the line number was
    /// computed once at capture time instead of per capacity.
    #[inline]
    pub fn access_line(&mut self, tid: usize, lineno: u64) {
        self.touch::<false>(tid, lineno);
    }

    /// One access. With `STOP`, a miss whose victim is valid returns
    /// `false` before any state changes: [`Sweep`] splits its frontier
    /// there. The check sits in the miss path, after the one tag scan
    /// every access makes.
    #[inline(always)]
    fn touch<const STOP: bool>(&mut self, tid: usize, lineno: u64) -> bool {
        let clock = self.clock + 1;
        let base = (lineno & self.set_mask) as usize * self.ways;
        let tbit = 1u64 << (tid as u32 & (MASK_BITS - 1));
        for e in base..base + self.ways {
            if self.tags[e] == lineno {
                let mask = (self.meta[e] | tbit) & THREAD_MASK;
                self.meta[e] = (clock << MASK_BITS) | mask;
                self.clock = clock;
                self.accesses += 1;
                // mask & (mask - 1) != 0  <=>  >= 2 thread bits set.
                self.shared_accesses += u64::from(mask & (mask - 1) != 0);
                return true;
            }
        }
        // Miss: evict LRU, selected by a branchless min-fold over the
        // packed stamps (the mask bits below the stamp never change the
        // ordering between distinct stamps, and equal stamps cannot
        // occur — the clock is unique per access).
        let mut victim = base;
        let mut best = self.meta[base] >> MASK_BITS;
        for e in base + 1..base + self.ways {
            let stamp = self.meta[e] >> MASK_BITS;
            let better = stamp < best;
            victim = if better { e } else { victim };
            best = if better { stamp } else { best };
        }
        if self.tags[victim] != u64::MAX {
            if STOP {
                return false;
            }
            self.finish_incarnation(victim);
        }
        self.clock = clock;
        self.accesses += 1;
        self.misses += 1;
        self.tags[victim] = lineno;
        self.meta[victim] = (clock << MASK_BITS) | tbit;
        true
    }

    /// Feeds packed `(lineno << 8) | tid` words in order.
    fn feed(&mut self, words: &[u64]) {
        for &w in words {
            self.touch::<false>((w & 0xff) as usize, w >> 8);
        }
    }

    /// Feeds packed words in order up to the first one that would evict
    /// a valid line, which is left unapplied; returns how many were
    /// applied.
    fn feed_until_eviction(&mut self, words: &[u64]) -> usize {
        words
            .iter()
            .position(|&w| !self.touch::<true>((w & 0xff) as usize, w >> 8))
            .unwrap_or(words.len())
    }

    /// This cache as a cache of `sets` sets (more than it has) that had
    /// seen the same accesses. Exact only while this cache has evicted
    /// nothing: it then holds every line it was ever given, with the
    /// stamp and thread mask the larger cache would hold too.
    ///
    /// Each entry keeps its way. The larger set of a line takes lines
    /// from one set of this cache only (both set counts are powers of
    /// two), so no two entries meet in one slot. Way order inside a set
    /// changes no hit, no victim and no stat.
    fn grown_to(&self, sets: u64) -> SharedCache {
        let bytes = sets * self.ways as u64 * self.line;
        let mut big = SharedCache::with_sets(bytes, sets, self.ways, self.line);
        let set_entries = self
            .tags
            .chunks_exact(self.ways)
            .zip(self.meta.chunks_exact(self.ways));
        for (tags, meta) in set_entries {
            for (way, (&tag, &meta)) in tags.iter().zip(meta).enumerate() {
                if tag != u64::MAX {
                    let slot = (tag & big.set_mask) as usize * big.ways + way;
                    big.tags[slot] = tag;
                    big.meta[slot] = meta;
                }
            }
        }
        big.clock = self.clock;
        big.accesses = self.accesses;
        big.misses = self.misses;
        big.shared_accesses = self.shared_accesses;
        big
    }

    fn finish_incarnation(&mut self, e: usize) {
        self.finished_incarnations += 1;
        let mask = self.meta[e] & THREAD_MASK;
        self.finished_shared += u64::from(mask & (mask.wrapping_sub(1)) != 0);
    }

    /// Finalizes and returns the statistics (flushing live residencies).
    pub fn finish(mut self) -> CacheStats {
        for e in 0..self.tags.len() {
            if self.tags[e] != u64::MAX {
                self.finish_incarnation(e);
            }
        }
        CacheStats {
            capacity: self.bytes,
            accesses: self.accesses,
            misses: self.misses,
            shared_accesses: self.shared_accesses,
            incarnations: self.finished_incarnations,
            shared_incarnations: self.finished_shared,
        }
    }
}

/// Checks a cache geometry without allocating it and returns its set
/// count: `bytes / (ways * line)` must yield a positive power-of-two
/// set count and `line` must be a power of two (the hot loop maps
/// addresses to lines with a shift and lines to sets with a mask).
///
/// # Errors
///
/// The same typed errors as [`SharedCache::new`].
pub fn validate_geometry(bytes: u64, ways: usize, line: u64) -> Result<u64, TraceError> {
    if !line.is_power_of_two() {
        return Err(TraceError::LineNotPowerOfTwo { line });
    }
    let denom = ways as u64 * line;
    if denom == 0 || bytes / denom == 0 {
        return Err(TraceError::CacheTooSmall { bytes, ways, line });
    }
    let sets = bytes / denom;
    if !sets.is_power_of_two() {
        return Err(TraceError::SetsNotPowerOfTwo {
            sets: sets as usize,
        });
    }
    Ok(sets)
}

/// Several capacities of one geometry simulated in one pass, running
/// only the capacities whose stats can still differ; the result equals
/// one full [`SharedCache`] run per capacity.
///
/// The sweep simulates capacities in ascending set order up to its
/// *frontier*: the fewest-set capacity that has evicted nothing so far.
/// Every larger capacity reports the frontier's stats under its own
/// `capacity`. That is exact. With a shared associativity and line size
/// and power-of-two set counts, each set of a larger cache receives a
/// subset of the lines of one set of the frontier, so it evicts nothing
/// either. Without evictions each line has one residency, from its first
/// touch on: an access misses exactly when it is the line's first, and
/// a line's thread mask is the set of threads that have touched it. So
/// every counter is the same in both caches.
///
/// Just before the frontier's first eviction, the sweep splits it into
/// the next capacity (re-inserting each resident line and copying the
/// counters), and repeats while the new frontier would evict too. A
/// capacity that has evicted is simulated to the end.
#[derive(Debug)]
pub struct Sweep {
    /// Each requested capacity with the index of its set count in
    /// `rungs`, in request order.
    sizes: Vec<(u64, usize)>,
    /// The distinct set counts requested, ascending.
    rungs: Vec<u64>,
    /// The caches of `rungs[..caches.len()]`. Every one but the last
    /// has evicted.
    caches: Vec<SharedCache>,
    /// Whether the last cache has evicted nothing yet, so it is the
    /// frontier and stands in for every larger capacity.
    frontier: bool,
}

impl Sweep {
    /// A sweep of `sizes` (in any order, repeats allowed), each with
    /// `ways` associativity and `line`-byte lines.
    ///
    /// # Errors
    ///
    /// The [`SharedCache::new`] error of the first invalid capacity in
    /// `sizes`.
    pub fn new(sizes: &[u64], ways: usize, line: u64) -> Result<Sweep, TraceError> {
        let sets = sizes
            .iter()
            .map(|&bytes| validate_geometry(bytes, ways, line))
            .collect::<Result<Vec<u64>, _>>()?;
        let mut rungs = sets.clone();
        rungs.sort_unstable();
        rungs.dedup();
        let sizes = sizes
            .iter()
            .zip(&sets)
            .map(|(&bytes, s)| (bytes, rungs.partition_point(|r| r < s)))
            .collect();
        let caches = rungs
            .first()
            .map(|&s| SharedCache::with_sets(s * ways as u64 * line, s, ways, line))
            .into_iter()
            .collect();
        Ok(Sweep {
            sizes,
            rungs,
            caches,
            frontier: true,
        })
    }

    /// Simulates a run of packed `(lineno << 8) | tid` references at
    /// every capacity, in order. Runs may be of any length: feeding a
    /// trace in pieces gives the same stats as feeding it whole. Each
    /// cache takes the whole run before the next one does, so its hot
    /// loop keeps the cache's state in registers and in the processor's
    /// caches.
    pub fn access_words(&mut self, mut words: &[u64]) {
        while let Some((last, evicted)) = self.caches.split_last_mut() {
            if !self.frontier {
                for c in &mut self.caches {
                    c.feed(words);
                }
                return;
            }
            let taken = last.feed_until_eviction(words);
            let Some(&w) = words.get(taken) else {
                for c in evicted {
                    c.feed(words);
                }
                return;
            };
            for c in evicted {
                c.feed(&words[..=taken]);
            }
            self.split(w);
            words = &words[taken + 1..];
        }
    }

    /// The frontier is about to evict on word `w`: split it into the
    /// next capacity, let it evict, and try `w` on the new frontier,
    /// until one takes it without evicting or no larger capacity is
    /// left.
    #[cold]
    fn split(&mut self, w: u64) {
        let w = std::slice::from_ref(&w);
        while let Some(&sets) = self.rungs.get(self.caches.len()) {
            let Some(frontier) = self.caches.last_mut() else {
                return;
            };
            let grown = frontier.grown_to(sets);
            frontier.feed(w);
            self.caches.push(grown);
            let n = self.caches.len();
            if self.caches[n - 1].feed_until_eviction(w) == 1 {
                return;
            }
        }
        // The largest capacity evicts too: none is left to stand in for.
        self.frontier = false;
        if let Some(largest) = self.caches.last_mut() {
            largest.feed(w);
        }
    }

    /// Capacities simulated so far (the rest share the frontier's stats).
    pub fn simulated(&self) -> usize {
        self.caches.len()
    }

    /// Finalizes the stats of every requested capacity, in request
    /// order, and adds the capacities simulated to `tracekit.replays`
    /// and the others to `tracekit.replays_skipped`.
    pub fn finish(self) -> Vec<CacheStats> {
        let reg = obs::Registry::global();
        reg.add("tracekit.replays", self.caches.len() as u64);
        reg.add(
            "tracekit.replays_skipped",
            (self.sizes.len() - self.caches.len()) as u64,
        );
        let done: Vec<CacheStats> = self.caches.into_iter().map(SharedCache::finish).collect();
        self.sizes
            .iter()
            .map(|&(capacity, rung)| CacheStats {
                capacity,
                ..done[rung.min(done.len() - 1)]
            })
            .collect()
    }
}

/// Final statistics of one cache capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Memory references simulated.
    pub accesses: u64,
    /// Cache misses.
    pub misses: u64,
    /// Accesses that hit a line already touched by ≥ 2 threads.
    pub shared_accesses: u64,
    /// Line residencies (fills) observed.
    pub incarnations: u64,
    /// Residencies touched by ≥ 2 threads.
    pub shared_incarnations: u64,
}

impl CacheStats {
    /// Misses per memory reference — the paper's working-set metric.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of line residencies shared between threads.
    pub fn shared_line_fraction(&self) -> f64 {
        if self.incarnations == 0 {
            0.0
        } else {
            self.shared_incarnations as f64 / self.incarnations as f64
        }
    }

    /// Accesses to shared lines per memory reference.
    pub fn shared_access_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.shared_accesses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(bytes: u64) -> SharedCache {
        SharedCache::new(bytes, 4, 64).expect("valid geometry")
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = cache(8 * 1024);
        c.access(0, 0);
        c.access(0, 0);
        c.access(0, 64);
        let s = c.finish();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses, 2);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sharing_detected_within_residency() {
        let mut c = cache(8 * 1024);
        c.access(0, 0);
        c.access(1, 8); // same line, second thread -> shared access
        c.access(2, 16);
        c.access(0, 4096); // private line
        let s = c.finish();
        assert_eq!(s.shared_accesses, 2);
        assert_eq!(s.incarnations, 2);
        assert_eq!(s.shared_incarnations, 1);
        assert!((s.shared_line_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_resets_sharing() {
        // Direct-mapped-ish: 1 set x 4 ways x 64 B = 256 B cache.
        let mut c = SharedCache::new(256, 4, 64).expect("one-set geometry");
        c.access(0, 0);
        c.access(1, 0); // shared residency
        for i in 1..=4 {
            c.access(0, i * 256 * 64); // 4 conflicting lines evict line 0
        }
        c.access(1, 0); // refill by thread 1 alone
        let s = c.finish();
        assert_eq!(
            s.shared_incarnations, 1,
            "only the first residency was shared"
        );
    }

    #[test]
    fn working_set_capture() {
        // A working set of 512 lines fits an 8-way 64 kB cache but
        // thrashes a 4 kB one.
        let mut small = cache(4 * 1024);
        let mut large = cache(64 * 1024);
        for pass in 0..4 {
            let _ = pass;
            for i in 0..512u64 {
                small.access(0, i * 64);
                large.access(0, i * 64);
            }
        }
        let (s, l) = (small.finish(), large.finish());
        assert!(l.miss_rate() < 0.26, "large cache captures the set");
        assert!(s.miss_rate() > 0.9, "small cache thrashes");
    }

    #[test]
    fn access_line_is_the_access_fast_path() {
        let mut by_addr = cache(8 * 1024);
        let mut by_line = cache(8 * 1024);
        for (tid, addr) in [(0, 0u64), (1, 8), (0, 4096), (2, 64), (1, 4100)] {
            by_addr.access(tid, addr);
            by_line.access_line(tid, addr / 64);
        }
        assert_eq!(by_addr.finish(), by_line.finish());
    }

    #[test]
    fn bad_geometries_are_typed_errors() {
        // 48 kB / (4 x 64 B) = 192 sets: not a power of two.
        assert_eq!(
            SharedCache::new(48 * 1024, 4, 64).unwrap_err(),
            TraceError::SetsNotPowerOfTwo { sets: 192 }
        );
        // Smaller than one set.
        assert_eq!(
            SharedCache::new(64, 4, 64).unwrap_err(),
            TraceError::CacheTooSmall {
                bytes: 64,
                ways: 4,
                line: 64
            }
        );
        // Degenerate ways/line hit the same arm instead of dividing by zero.
        assert!(matches!(
            SharedCache::new(1024, 0, 64),
            Err(TraceError::CacheTooSmall { .. })
        ));
        // Non-power-of-two line defeats the shift mapping.
        assert_eq!(
            SharedCache::new(8 * 1024, 4, 48).unwrap_err(),
            TraceError::LineNotPowerOfTwo { line: 48 }
        );
        assert!(matches!(
            SharedCache::new(8 * 1024, 4, 0),
            Err(TraceError::LineNotPowerOfTwo { .. })
        ));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every access is counted once, misses never exceed accesses,
        /// and a single thread never shares a line.
        #[test]
        fn miss_counts_conserve(addrs in proptest::collection::vec(0u64..1_000_000, 1..500)) {
            let mut c = SharedCache::new(16 * 1024, 4, 64).expect("geometry");
            for &a in &addrs {
                c.access(0, a);
            }
            let s = c.finish();
            prop_assert_eq!(s.accesses, addrs.len() as u64);
            prop_assert!(s.misses <= s.accesses);
            prop_assert!(s.shared_accesses == 0, "single thread never shares");
            prop_assert_eq!(s.shared_incarnations, 0);
        }

        /// With equal ways and line size, doubling the set count never
        /// adds misses. Set `j` of the larger cache receives the lines of
        /// set `j mod sets` of the smaller one whose next index bit
        /// matches, so its LRU stack is the smaller set's stack with the
        /// other lines removed: a line among the `ways` most recent of
        /// the smaller set is among the `ways` most recent of its half.
        #[test]
        fn doubling_sets_never_adds_misses(
            trace in proptest::collection::vec((0usize..8, 0u64..512), 1..400),
            ways in proptest::sample::select(vec![1usize, 2, 4, 8]),
            set_log in 0u32..7,
        ) {
            let bytes = (1u64 << set_log) * ways as u64 * 64;
            let mut small = SharedCache::new(bytes, ways, 64).expect("geometry");
            let mut large = SharedCache::new(2 * bytes, ways, 64).expect("geometry");
            for &(tid, lineno) in &trace {
                small.access_line(tid, lineno);
                large.access_line(tid, lineno);
            }
            let (s, l) = (small.finish(), large.finish());
            prop_assert!(l.misses <= s.misses, "{} sets: {:?} vs {:?}", 1u64 << set_log, s, l);
        }

        /// Distinct lines accessed bounds misses from below (compulsory
        /// misses) and incarnations equal misses.
        #[test]
        fn compulsory_lower_bound(addrs in proptest::collection::vec(0u64..100_000, 1..300)) {
            let mut distinct: Vec<u64> = addrs.iter().map(|a| a / 64).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let mut c = SharedCache::new(1024 * 1024, 4, 64).expect("geometry");
            for &a in &addrs {
                c.access(1, a);
            }
            let s = c.finish();
            prop_assert!(s.misses >= distinct.len() as u64);
            prop_assert_eq!(s.incarnations, s.misses);
        }
    }
}

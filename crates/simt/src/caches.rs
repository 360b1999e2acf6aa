//! Set-associative LRU caches used for the texture cache and the Fermi
//! L1/L2 hierarchy.

use crate::config::CacheGeom;

/// A set-associative cache with true-LRU replacement.
///
/// Tags only — the simulator is trace-driven, so data never lives here.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeom,
    /// `sets - 1`: the set count is a validated power of two.
    set_mask: u64,
    /// `sets x ways` tags; `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    /// Per-way LRU stamps (larger = more recent).
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheGeom::new`] would reject;
    /// [`crate::GpuConfig::validate`] rejects such configurations first.
    pub fn new(geom: CacheGeom) -> Cache {
        if let Some(reason) = geom.problem() {
            panic!("{reason}");
        }
        let entries = (geom.sets() * geom.ways) as usize;
        Cache {
            geom,
            set_mask: u64::from(geom.sets() - 1),
            tags: vec![u64::MAX; entries],
            stamps: vec![0; entries],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The first way index of `addr`'s set, and its tag (the line
    /// number).
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / u64::from(self.geom.line);
        (
            (line & self.set_mask) as usize * self.geom.ways as usize,
            line,
        )
    }

    /// Looks up `addr`, allocating the line on a miss. Returns `true` on a
    /// hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (base, tag) = self.locate(addr);
        let ways = self.geom.ways as usize;
        for w in 0..ways {
            if self.tags[base + w] == tag {
                self.stamps[base + w] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        // Evict the LRU way (invalid ways have stamp 0 and lose ties last,
        // but any stamp-0 way is as good as invalid).
        let mut victim = 0;
        for w in 1..ways {
            if self.stamps[base + w] < self.stamps[base + victim] {
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Looks up `addr` without allocating (used for write-through,
    /// no-write-allocate stores). Returns `true` on a hit and refreshes
    /// LRU state.
    pub fn probe(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (base, tag) = self.locate(addr);
        let ways = self.geom.ways as usize;
        for w in 0..ways {
            if self.tags[base + w] == tag {
                self.stamps[base + w] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when no accesses have occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B = 256 B.
        Cache::new(CacheGeom::new(256, 2, 64))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 256 (two ways).
        c.access(0);
        c.access(256);
        c.access(0); // refresh line 0; line 256 is now LRU
        c.access(512); // evicts 256
        assert!(c.access(0), "line 0 should survive");
        assert!(!c.access(256), "line 256 was evicted");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(64); // set 1
        c.access(128); // set 0
        assert!(c.access(64), "set 1 undisturbed by set 0 traffic");
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.probe(0));
        assert!(!c.access(0), "probe must not have allocated");
        assert!(c.probe(0));
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Replaying any trace twice back-to-back: the second pass over a
        /// working set smaller than the cache is all hits.
        #[test]
        fn small_working_set_fits(lines in proptest::collection::vec(0u64..4, 1..32)) {
            let mut c = Cache::new(CacheGeom::new(256, 2, 64));
            // 4 distinct lines fit a 4-line cache only if set-balanced;
            // restrict to two lines per set: lines 0,1,2,3 map to sets
            // 0,1,0,1 -- exactly two ways each, so they all fit.
            let addrs: Vec<u64> = lines.iter().map(|l| l * 64).collect();
            for &a in &addrs {
                c.access(a);
            }
            for &a in &addrs {
                prop_assert!(c.access(a), "resident line must hit");
            }
        }

        /// hits + misses equals the number of accesses.
        #[test]
        fn conservation(addrs in proptest::collection::vec(0u64..100_000, 1..200)) {
            let mut c = Cache::new(CacheGeom::new(1024, 4, 64));
            for &a in &addrs {
                c.access(a);
            }
            prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
        }
    }
}

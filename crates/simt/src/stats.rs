//! Kernel execution statistics: the metrics the paper reports.

use std::fmt;

use obs::Json;

use crate::isa::MemSpace;

/// Where every SM cycle of a launch went (stall-cycle attribution).
///
/// The replay engine accounts each SM's cycles into exactly one of these
/// six categories, so for a single launch the components sum to
/// `num_sms * cycles` — an invariant the test suite asserts for every
/// Rodinia benchmark. Merged launches preserve the invariant because the
/// components and `cycles` both add under the same configuration.
///
/// Category semantics (see DESIGN.md "Observability" for how each maps
/// to simulator events):
///
/// * `issue` — the issue port was busy issuing warp instructions, or
///   every resident warp was waiting on an in-flight *compute* result
///   (ALU/SFU latency) or a CTA-launch overhead window.
/// * `mem_pending` — idle with at least one warp waiting on an
///   outstanding memory access (global/local load, texture, constant,
///   parameter, or shared).
/// * `bank_conflict` — extra issue-port cycles spent replaying
///   shared-memory accesses serialized by bank conflicts.
/// * `divergence` — issue slots occupied by SIMD lanes masked off by
///   branch divergence (the gap between the fixed warp issue occupancy
///   and what an ideally lane-compacted issue would need).
/// * `barrier` — idle with every live warp parked at a CTA barrier.
/// * `empty` — no live warp resident (ramp-down, DRAM drain, or an SM
///   the grid never filled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Issue-port busy plus compute-latency wait cycles.
    pub issue: u64,
    /// Idle cycles attributable to outstanding memory accesses.
    pub mem_pending: u64,
    /// Shared-memory bank-conflict replay cycles.
    pub bank_conflict: u64,
    /// Issue cycles wasted on divergence-masked lanes.
    pub divergence: u64,
    /// Idle cycles with all live warps at a barrier.
    pub barrier: u64,
    /// Cycles with no live warp on the SM.
    pub empty: u64,
}

impl StallBreakdown {
    /// Sum of all components; equals `num_sms * cycles` for stats
    /// produced by the replay engine.
    pub fn total(&self) -> u64 {
        self.issue
            + self.mem_pending
            + self.bank_conflict
            + self.divergence
            + self.barrier
            + self.empty
    }

    /// Fraction of the total in one component (0 when empty).
    pub fn fraction(&self, component: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            component as f64 / t as f64
        }
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.issue += other.issue;
        self.mem_pending += other.mem_pending;
        self.bank_conflict += other.bank_conflict;
        self.divergence += other.divergence;
        self.barrier += other.barrier;
        self.empty += other.empty;
    }

    /// Serializes the breakdown as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("issue", Json::u64(self.issue)),
            ("mem_pending", Json::u64(self.mem_pending)),
            ("bank_conflict", Json::u64(self.bank_conflict)),
            ("divergence", Json::u64(self.divergence)),
            ("barrier", Json::u64(self.barrier)),
            ("empty", Json::u64(self.empty)),
            ("total", Json::u64(self.total())),
        ])
    }
}

/// One epoch sample of the occupancy/DRAM timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSample {
    /// Core cycle the sample was taken at.
    pub cycle: u64,
    /// Live (unretired) warps across the whole GPU at that cycle.
    pub live_warps: u32,
    /// `live_warps` over the GPU's maximum resident warp count.
    pub occupancy: f64,
    /// DRAM channel-busy cycles accrued since the previous *retained*
    /// sample, over `mem_channels * (cycle gap)` (clamped to 1.0;
    /// accesses are charged when scheduled, so a burst can momentarily
    /// exceed the window). Exact under adaptive decimation because the
    /// window is derived from the retained cycles, not the period.
    pub dram_util: f64,
}

/// An epoch-sampled occupancy / DRAM-utilization timeline with bounded
/// memory.
///
/// Collection is *adaptive* (see `obs::sampler::AdaptiveSampler`):
/// sampling starts at `period` core cycles and, whenever a launch has
/// `capacity` retained samples, every other one is dropped and the
/// period doubles — so short kernels are captured exactly, long
/// kernels keep their whole run visible on an evenly spaced grid, and
/// memory never exceeds `capacity` points. The first and final epochs
/// of a launch are always retained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Initial sampling period in core cycles (0 = sampling disabled);
    /// the effective period after backoff is `period << decimations`.
    pub period: u64,
    /// Sample budget the timeline was collected with.
    pub capacity: usize,
    /// Retained samples, oldest first. Cycles are relative to each
    /// launch's own start; merged stats concatenate launches.
    pub samples: Vec<TimelineSample>,
    /// Samples discarded (by adaptive decimation during collection, or
    /// by re-trimming when merging launches).
    pub dropped: u64,
    /// Times the sampler halved the retained set (each halving doubles
    /// the effective period).
    pub decimations: u32,
}

impl Timeline {
    /// Appends another launch's timeline, re-trimming to this ring's
    /// capacity (oldest samples dropped first).
    pub fn merge(&mut self, other: &Timeline) {
        self.samples.extend(other.samples.iter().copied());
        self.dropped += other.dropped;
        self.decimations = self.decimations.max(other.decimations);
        if self.capacity > 0 && self.samples.len() > self.capacity {
            let excess = self.samples.len() - self.capacity;
            self.samples.drain(..excess);
            self.dropped += excess as u64;
        }
    }

    /// Serializes the timeline as a JSON object.
    pub fn to_json(&self) -> Json {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("cycle", Json::u64(s.cycle)),
                    ("live_warps", Json::u64(s.live_warps as u64)),
                    ("occupancy", Json::Num(s.occupancy)),
                    ("dram_util", Json::Num(s.dram_util)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("period", Json::u64(self.period)),
            ("capacity", Json::u64(self.capacity as u64)),
            ("dropped", Json::u64(self.dropped)),
            ("decimations", Json::u64(u64::from(self.decimations))),
            ("samples", Json::Arr(samples)),
        ])
    }
}

/// Memory-instruction counts by space (the paper's Figure 2 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemMix {
    /// Shared-memory (scratchpad) instructions.
    pub shared: u64,
    /// Texture fetches.
    pub tex: u64,
    /// Constant loads.
    pub constant: u64,
    /// Parameter loads.
    pub param: u64,
    /// Global and local memory instructions.
    pub global_local: u64,
}

impl MemMix {
    /// Total memory instructions.
    pub fn total(&self) -> u64 {
        self.shared + self.tex + self.constant + self.param + self.global_local
    }

    /// Fraction of memory instructions in `space` (0 when there are none).
    pub fn fraction(&self, space: MemSpace) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let n = match space {
            MemSpace::Shared => self.shared,
            MemSpace::Texture => self.tex,
            MemSpace::Constant => self.constant,
            MemSpace::Param => self.param,
            MemSpace::Global | MemSpace::Local => self.global_local,
        };
        n as f64 / t as f64
    }

    /// Adds another mix into this one.
    pub fn merge(&mut self, other: &MemMix) {
        self.shared += other.shared;
        self.tex += other.tex;
        self.constant += other.constant;
        self.param += other.param;
        self.global_local += other.global_local;
    }

    /// Records `n` instructions in `space`.
    pub fn add(&mut self, space: MemSpace, n: u64) {
        match space {
            MemSpace::Shared => self.shared += n,
            MemSpace::Texture => self.tex += n,
            MemSpace::Constant => self.constant += n,
            MemSpace::Param => self.param += n,
            MemSpace::Global | MemSpace::Local => self.global_local += n,
        }
    }
}

/// Histogram of active-lane counts over all issued warp instructions
/// (the paper's Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyHistogram {
    /// `counts[k]` = warp instructions issued with exactly `k` active
    /// lanes; index 0 is unused.
    pub counts: Vec<u64>,
}

impl OccupancyHistogram {
    /// An empty histogram for warps of `warp_size` lanes.
    pub fn new(warp_size: usize) -> OccupancyHistogram {
        OccupancyHistogram {
            counts: vec![0; warp_size + 1],
        }
    }

    /// Records `n` warp instructions with `lanes` active lanes.
    pub fn record(&mut self, lanes: u32, n: u64) {
        let idx = (lanes as usize).min(self.counts.len() - 1);
        self.counts[idx] += n;
    }

    /// Total warp instructions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fractions of warp instructions falling in the paper's four bins
    /// (1–8, 9–16, 17–24, 25–32 active lanes, scaled for other warp
    /// sizes).
    pub fn quartile_fractions(&self) -> [f64; 4] {
        let total = self.total();
        if total == 0 {
            return [0.0; 4];
        }
        let ws = self.counts.len() - 1;
        let q = ws.div_ceil(4);
        let mut out = [0.0; 4];
        for (lanes, &n) in self.counts.iter().enumerate().skip(1) {
            let bin = ((lanes - 1) / q).min(3);
            out[bin] += n as f64;
        }
        for o in &mut out {
            *o /= total as f64;
        }
        out
    }

    /// Average active lanes per issued warp instruction.
    pub fn mean_lanes(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(lanes, &n)| lanes as u64 * n)
            .sum();
        sum as f64 / total as f64
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different warp sizes.
    pub fn merge(&mut self, other: &OccupancyHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "warp size mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// Aggregate statistics of one or more kernel launches under one GPU
/// configuration.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Kernel (or application) name.
    pub name: String,
    /// Configuration name the launch ran under.
    pub config: String,
    /// Total core cycles.
    pub cycles: u64,
    /// Scalar (thread-level) instructions executed.
    pub thread_instructions: u64,
    /// Warp-level instructions issued.
    pub warp_instructions: u64,
    /// Memory-instruction mix by space.
    pub mem_mix: MemMix,
    /// Warp occupancy histogram.
    pub occupancy: OccupancyHistogram,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Channel-busy cycles summed over channels.
    pub dram_busy_cycles: u64,
    /// Peak DRAM bytes per core cycle of the configuration.
    pub peak_bytes_per_cycle: f64,
    /// Core clock of the configuration, in GHz.
    pub core_clock_ghz: f64,
    /// L1 hits/misses (zero when the configuration has no L1).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Texture-cache hits.
    pub tex_hits: u64,
    /// Texture-cache misses.
    pub tex_misses: u64,
    /// Stall-cycle attribution summed over SMs; components sum to
    /// `num_sms * cycles`.
    pub stall: StallBreakdown,
    /// Epoch-sampled occupancy / DRAM-utilization timeline.
    pub timeline: Timeline,
    /// Number of kernel launches aggregated into these stats.
    pub launches: u32,
}

impl KernelStats {
    /// Instructions per cycle (thread-level, the paper's Figure 1 metric).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instructions as f64 / self.cycles as f64
        }
    }

    /// DRAM bandwidth utilization in `[0, 1]` (Table III's "BW
    /// Utilization").
    pub fn bw_utilization(&self) -> f64 {
        if self.cycles == 0
            || self.peak_bytes_per_cycle.is_nan()
            || self.peak_bytes_per_cycle <= 0.0
        {
            0.0
        } else {
            self.dram_bytes as f64 / (self.peak_bytes_per_cycle * self.cycles as f64)
        }
    }

    /// Achieved DRAM bandwidth in GB/s. Reports 0.0 for an empty launch
    /// or a degenerate (zero/non-finite) clock rather than NaN/inf.
    pub fn achieved_bandwidth_gbps(&self) -> f64 {
        if self.cycles == 0 || self.core_clock_ghz.is_nan() || self.core_clock_ghz <= 0.0 {
            0.0
        } else {
            self.dram_bytes as f64 / (self.cycles as f64 / self.core_clock_ghz)
        }
    }

    /// Kernel execution time in microseconds (cycles over the core clock;
    /// the Figure 5 metric). Reports 0.0 for an empty launch or a
    /// degenerate (zero/non-finite) clock rather than NaN/inf.
    pub fn time_us(&self) -> f64 {
        if self.cycles == 0 || self.core_clock_ghz.is_nan() || self.core_clock_ghz <= 0.0 {
            0.0
        } else {
            self.cycles as f64 / (self.core_clock_ghz * 1e3)
        }
    }

    /// SIMD efficiency: mean active lanes per issued warp instruction
    /// over the warp width (1.0 = never diverges or idles lanes).
    pub fn simd_efficiency(&self) -> f64 {
        let ws = (self.occupancy.counts.len() - 1) as f64;
        if ws == 0.0 {
            0.0
        } else {
            self.occupancy.mean_lanes() / ws
        }
    }

    /// Aggregates another launch's statistics (for multi-kernel
    /// applications: iterative BFS, back-propagation's two kernels, and so
    /// on). Cycles add because dependent launches serialize.
    ///
    /// # Panics
    ///
    /// Panics if the stats come from different configurations.
    pub fn merge(&mut self, other: &KernelStats) {
        assert_eq!(self.config, other.config, "cannot merge across configs");
        self.cycles += other.cycles;
        self.thread_instructions += other.thread_instructions;
        self.warp_instructions += other.warp_instructions;
        self.mem_mix.merge(&other.mem_mix);
        self.occupancy.merge(&other.occupancy);
        self.dram_bytes += other.dram_bytes;
        self.dram_busy_cycles += other.dram_busy_cycles;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.tex_hits += other.tex_hits;
        self.tex_misses += other.tex_misses;
        self.stall.merge(&other.stall);
        self.timeline.merge(&other.timeline);
        self.launches += other.launches;
    }

    /// Serializes the full statistics record (including the stall
    /// breakdown and timeline) as a JSON object — the per-kernel entry
    /// of the run manifest.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("cycles", Json::u64(self.cycles)),
            ("thread_instructions", Json::u64(self.thread_instructions)),
            ("warp_instructions", Json::u64(self.warp_instructions)),
            ("ipc", Json::Num(self.ipc())),
            ("time_us", Json::Num(self.time_us())),
            ("simd_efficiency", Json::Num(self.simd_efficiency())),
            (
                "mem_mix",
                Json::obj(vec![
                    ("shared", Json::u64(self.mem_mix.shared)),
                    ("tex", Json::u64(self.mem_mix.tex)),
                    ("constant", Json::u64(self.mem_mix.constant)),
                    ("param", Json::u64(self.mem_mix.param)),
                    ("global_local", Json::u64(self.mem_mix.global_local)),
                ]),
            ),
            (
                "occupancy_counts",
                Json::Arr(
                    self.occupancy
                        .counts
                        .iter()
                        .map(|&c| Json::u64(c))
                        .collect(),
                ),
            ),
            ("dram_bytes", Json::u64(self.dram_bytes)),
            ("dram_busy_cycles", Json::u64(self.dram_busy_cycles)),
            ("bw_utilization", Json::Num(self.bw_utilization())),
            ("l1_hits", Json::u64(self.l1_hits)),
            ("l1_misses", Json::u64(self.l1_misses)),
            ("l2_hits", Json::u64(self.l2_hits)),
            ("l2_misses", Json::u64(self.l2_misses)),
            ("tex_hits", Json::u64(self.tex_hits)),
            ("tex_misses", Json::u64(self.tex_misses)),
            ("stall", self.stall.to_json()),
            ("timeline", self.timeline.to_json()),
            ("launches", Json::u64(self.launches as u64)),
        ])
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {}: {} cycles, IPC {:.1}, BW util {:.1}%",
            self.name,
            self.config,
            self.cycles,
            self.ipc(),
            self.bw_utilization() * 100.0
        )?;
        let m = &self.mem_mix;
        write!(
            f,
            "  mem mix: shared {:.1}% tex {:.1}% const {:.1}% param {:.1}% global/local {:.1}%",
            m.fraction(MemSpace::Shared) * 100.0,
            m.fraction(MemSpace::Texture) * 100.0,
            m.fraction(MemSpace::Constant) * 100.0,
            m.fraction(MemSpace::Param) * 100.0,
            m.fraction(MemSpace::Global) * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_mix_fractions_sum_to_one() {
        let mut m = MemMix::default();
        m.add(MemSpace::Shared, 3);
        m.add(MemSpace::Global, 5);
        m.add(MemSpace::Local, 1);
        m.add(MemSpace::Texture, 1);
        assert_eq!(m.total(), 10);
        assert_eq!(m.global_local, 6);
        let sum: f64 = [
            MemSpace::Shared,
            MemSpace::Texture,
            MemSpace::Constant,
            MemSpace::Param,
            MemSpace::Global,
        ]
        .iter()
        .map(|&s| m.fraction(s))
        .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_quartiles() {
        let mut h = OccupancyHistogram::new(32);
        h.record(1, 10); // bin 0 (1-8)
        h.record(8, 10); // bin 0
        h.record(9, 20); // bin 1 (9-16)
        h.record(32, 60); // bin 3 (25-32)
        let q = h.quartile_fractions();
        assert!((q[0] - 0.2).abs() < 1e-12);
        assert!((q[1] - 0.2).abs() < 1e-12);
        assert_eq!(q[2], 0.0);
        assert!((q[3] - 0.6).abs() < 1e-12);
        assert!((h.mean_lanes() - (10.0 + 80.0 + 180.0 + 1920.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = OccupancyHistogram::new(32);
        assert_eq!(h.quartile_fractions(), [0.0; 4]);
        assert_eq!(h.mean_lanes(), 0.0);
    }

    fn stats(cycles: u64, instrs: u64) -> KernelStats {
        KernelStats {
            name: "k".into(),
            config: "c".into(),
            cycles,
            thread_instructions: instrs,
            warp_instructions: instrs / 32,
            mem_mix: MemMix::default(),
            occupancy: OccupancyHistogram::new(32),
            dram_bytes: 0,
            dram_busy_cycles: 0,
            peak_bytes_per_cycle: 32.0,
            core_clock_ghz: 2.0,
            l1_hits: 0,
            l1_misses: 0,
            l2_hits: 0,
            l2_misses: 0,
            tex_hits: 0,
            tex_misses: 0,
            stall: StallBreakdown::default(),
            timeline: Timeline::default(),
            launches: 1,
        }
    }

    #[test]
    fn ipc_and_time() {
        let s = stats(1000, 50_000);
        assert!((s.ipc() - 50.0).abs() < 1e-12);
        assert!((s.time_us() - 0.5).abs() < 1e-12);
        assert_eq!(s.bw_utilization(), 0.0);
    }

    #[test]
    fn zero_cycle_stats_report_zero_not_nan() {
        // An empty launch (or one aborted by the watchdog before any
        // cycle elapsed) must not poison downstream analysis with
        // NaN/inf.
        let s = stats(0, 0);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.bw_utilization(), 0.0);
        assert_eq!(s.achieved_bandwidth_gbps(), 0.0);
        assert_eq!(s.time_us(), 0.0);
        assert_eq!(s.simd_efficiency(), 0.0);
    }

    #[test]
    fn degenerate_clock_reports_zero_not_nan() {
        let mut s = stats(1000, 1000);
        s.core_clock_ghz = 0.0;
        s.dram_bytes = 4096;
        assert_eq!(s.time_us(), 0.0);
        assert_eq!(s.achieved_bandwidth_gbps(), 0.0);
        s.core_clock_ghz = f64::NAN;
        s.peak_bytes_per_cycle = f64::NAN;
        assert_eq!(s.time_us(), 0.0);
        assert_eq!(s.achieved_bandwidth_gbps(), 0.0);
        assert_eq!(s.bw_utilization(), 0.0);
    }

    #[test]
    fn simd_efficiency_bounds() {
        let mut s = stats(100, 1000);
        assert_eq!(s.simd_efficiency(), 0.0);
        s.occupancy.record(32, 3);
        s.occupancy.record(8, 1);
        let expected = ((32 * 3 + 8) as f64 / 4.0) / 32.0;
        assert!((s.simd_efficiency() - expected).abs() < 1e-12);
        assert!(s.simd_efficiency() <= 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = stats(1000, 10_000);
        let b = stats(500, 20_000);
        a.merge(&b);
        assert_eq!(a.cycles, 1500);
        assert_eq!(a.thread_instructions, 30_000);
        assert_eq!(a.launches, 2);
        assert!((a.ipc() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn stall_breakdown_totals_and_merge() {
        let mut a = StallBreakdown {
            issue: 10,
            mem_pending: 20,
            bank_conflict: 3,
            divergence: 4,
            barrier: 2,
            empty: 1,
        };
        assert_eq!(a.total(), 40);
        assert!((a.fraction(a.mem_pending) - 0.5).abs() < 1e-12);
        a.merge(&a.clone());
        assert_eq!(a.total(), 80);
        assert_eq!(StallBreakdown::default().fraction(0), 0.0);
    }

    #[test]
    fn timeline_merge_respects_capacity() {
        let mk = |cycle| TimelineSample {
            cycle,
            live_warps: 1,
            occupancy: 0.5,
            dram_util: 0.0,
        };
        let mut a = Timeline {
            period: 10,
            capacity: 3,
            samples: vec![mk(10), mk(20)],
            dropped: 0,
            decimations: 0,
        };
        let b = Timeline {
            period: 10,
            capacity: 3,
            samples: vec![mk(10), mk(20)],
            dropped: 1,
            decimations: 2,
        };
        a.merge(&b);
        assert_eq!(a.samples.len(), 3);
        // Oldest sample evicted, its drop counted on top of b's.
        assert_eq!(a.dropped, 2);
        assert_eq!(a.samples[0].cycle, 20);
        assert_eq!(a.decimations, 2, "merge keeps the deepest backoff");
    }

    #[test]
    fn stats_serialize_to_parseable_json() {
        let mut s = stats(1000, 50_000);
        s.stall = StallBreakdown {
            issue: 500,
            mem_pending: 300,
            bank_conflict: 0,
            divergence: 0,
            barrier: 100,
            empty: 100,
        };
        let text = s.to_json().to_string();
        let v = obs::Json::parse(&text).unwrap();
        assert_eq!(v.get("cycles").and_then(obs::Json::as_f64), Some(1000.0));
        assert_eq!(
            v.get("stall")
                .and_then(|st| st.get("total"))
                .and_then(obs::Json::as_f64),
            Some(1000.0)
        );
        assert!(v.get("timeline").and_then(|t| t.get("samples")).is_some());
    }

    #[test]
    #[should_panic(expected = "across configs")]
    fn merge_rejects_mixed_configs() {
        let mut a = stats(1, 1);
        let mut b = stats(1, 1);
        b.config = "other".into();
        a.merge(&b);
    }
}

//! GPU machine-model configuration and the presets used by the paper's
//! experiments (GPGPU-Sim Table II, GTX 280, and the two GTX 480 / Fermi
//! on-chip memory configurations).

use crate::error::SimError;
use crate::isa::MAX_WARP_SIZE;

/// Largest accepted timeline sample budget (2²⁴ samples ≈ 0.5 GiB of
/// retained telemetry — far beyond any sane configuration).
pub const MAX_TIMELINE_CAPACITY: usize = 1 << 24;

/// Largest accepted timeline sampling period in core cycles. The
/// adaptive sampler doubles the period under backoff, so a period that
/// starts near `u64::MAX` would overflow the epoch arithmetic; 2⁴⁸
/// cycles is already orders of magnitude past the watchdog budget.
pub const MAX_TIMELINE_PERIOD: u64 = 1 << 48;

/// Largest accepted cache, in lines (sets × ways). Every replay
/// allocates a tag and a stamp per line, so an absurd but otherwise
/// consistent geometry (gigabytes of 1-byte lines) would abort the
/// process on allocation; 2¹⁶ lines is over five times the largest
/// preset cache (a 768 KB L2 of 64-byte lines holds 12,288).
pub const MAX_CACHE_LINES: u32 = 1 << 16;

/// Warp-scheduler policy (the paper's future-work item on "the impact
/// of hardware thread scheduling mechanisms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Loose round-robin among ready warps (GPGPU-Sim's default).
    #[default]
    RoundRobin,
    /// Greedy-then-oldest: keep issuing from the same warp until it
    /// stalls, then switch to the least-recently-issued ready warp.
    /// Improves cache locality for kernels with intra-warp reuse.
    GreedyThenOldest,
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u32,
}

impl CacheGeom {
    /// A cache of `bytes` capacity with the given associativity and line
    /// size.
    ///
    /// # Panics
    ///
    /// Panics on zero ways or line size, less than one full set, a set
    /// count that is not a power of two, or more than
    /// [`MAX_CACHE_LINES`] lines.
    pub fn new(bytes: u32, ways: u32, line: u32) -> CacheGeom {
        let geom = CacheGeom { bytes, ways, line };
        if let Some(reason) = geom.problem() {
            panic!("{reason}");
        }
        geom
    }

    /// Number of sets. Meaningful only for a valid geometry.
    pub fn sets(&self) -> u32 {
        self.bytes / (self.ways * self.line)
    }

    /// Why this geometry cannot back a cache, if it cannot: zero ways
    /// or line size, less than one full set, a set count that is not a
    /// power of two (the cache indexes sets by masking), or more than
    /// [`MAX_CACHE_LINES`] lines.
    pub(crate) fn problem(&self) -> Option<&'static str> {
        if self.ways == 0 || self.line == 0 {
            return Some("cache ways and line size must be positive");
        }
        let Some(set_bytes) = self
            .ways
            .checked_mul(self.line)
            .filter(|&b| b <= self.bytes)
        else {
            return Some("cache smaller than one set");
        };
        if !(self.bytes / set_bytes).is_power_of_two() {
            return Some("number of cache sets must be a power of two");
        }
        if self.bytes / self.line > MAX_CACHE_LINES {
            return Some("cache holds more than 65536 lines");
        }
        None
    }
}

/// Abort budget for runaway launches.
///
/// Simulated kernels are arbitrary user code: a buggy kernel can loop
/// forever requesting barrier phases, and a malformed trace can make the
/// timing model spin without retiring work. The watchdog bounds both
/// stages so [`crate::Gpu::try_launch`] returns
/// [`SimError::Watchdog`] instead of hanging.
///
/// The defaults are far above anything a legitimate workload in this
/// repository reaches (the largest experiment retires in well under
/// 10⁸ cycles), so they never fire in normal use; tighten them for
/// fault-injection tests or untrusted kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogBudget {
    /// Hard ceiling on simulated core cycles per launch during timing
    /// replay; `None` disables the cycle watchdog.
    pub max_cycles: Option<u64>,
    /// Hard ceiling on barrier-separated phases per CTA during
    /// functional trace capture (a non-terminating kernel returns
    /// [`crate::PhaseControl::Continue`] forever and would otherwise
    /// hang before timing even starts); `None` disables it.
    pub max_phases: Option<u64>,
}

impl Default for WatchdogBudget {
    fn default() -> WatchdogBudget {
        WatchdogBudget {
            max_cycles: Some(10_000_000_000),
            max_phases: Some(1_000_000),
        }
    }
}

/// Full machine-model configuration for [`crate::Gpu`].
///
/// Field defaults mirror the paper's Table II (the GPGPU-Sim configuration)
/// where applicable; use the preset constructors for the exact
/// configurations of each experiment and the builder-style `with_*`
/// methods for parameter sweeps (Figure 4, Plackett–Burman).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable configuration name (appears in reports).
    pub name: String,
    /// Number of streaming multiprocessors (shader cores).
    pub num_sms: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// SIMD pipeline width; a warp issues over `warp_size / simd_width`
    /// cycles.
    pub simd_width: u32,
    /// Core clock in GHz (affects the core/memory clock ratio and the
    /// wall-clock time reported for Figure 5).
    pub core_clock_ghz: f64,
    /// Memory clock in GHz.
    pub mem_clock_ghz: f64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: u32,
    /// Register file size per SM (32-bit registers).
    pub regs_per_sm: u32,
    /// Shared-memory (scratchpad) capacity per SM, in bytes.
    pub shared_mem_per_sm: u32,
    /// Number of shared-memory banks.
    pub shared_banks: u32,
    /// Whether shared-memory bank conflicts serialize accesses.
    pub model_bank_conflicts: bool,
    /// Number of DRAM channels.
    pub mem_channels: u32,
    /// DRAM bus width per channel, in bytes.
    pub dram_bus_bytes: u32,
    /// DRAM transfers per memory clock (2 = DDR).
    pub dram_data_rate: u32,
    /// DRAM access latency in core cycles (row access + controller).
    pub dram_latency: u32,
    /// ALU result latency in core cycles.
    pub alu_latency: u32,
    /// SFU (transcendental) result latency in core cycles.
    pub sfu_latency: u32,
    /// Shared-memory access latency in core cycles.
    pub shared_latency: u32,
    /// Constant-cache hit latency in core cycles.
    pub const_latency: u32,
    /// Parameter-load latency (always a hit) in core cycles.
    pub param_latency: u32,
    /// Coalescing segment size in bytes.
    pub segment_bytes: u32,
    /// Per-SM L1 data cache (Fermi); `None` on pre-Fermi configurations.
    pub l1: Option<CacheGeom>,
    /// Chip-wide L2 cache (Fermi); `None` on pre-Fermi configurations.
    pub l2: Option<CacheGeom>,
    /// Per-SM texture cache.
    pub tex_cache: Option<CacheGeom>,
    /// L1 hit latency in core cycles.
    pub l1_latency: u32,
    /// L2 hit latency in core cycles.
    pub l2_latency: u32,
    /// Texture-cache hit latency in core cycles.
    pub tex_latency: u32,
    /// Cycles between a CTA finishing and its replacement starting.
    pub cta_launch_overhead: u32,
    /// Warp-scheduler policy.
    pub sched_policy: SchedPolicy,
    /// Model ideal SIMD-lane compaction (dynamic-warp-formation style):
    /// a warp instruction with `k` active lanes occupies the pipeline
    /// for `ceil(k / simd_width)` cycles instead of the full
    /// `warp_size / simd_width`. Used by the branch-divergence
    /// sensitivity study; off for all paper configurations.
    pub lane_compaction: bool,
    /// Abort budget for runaway launches (see [`WatchdogBudget`]).
    pub watchdog: WatchdogBudget,
    /// Initial occupancy/DRAM timeline sampling period in core cycles
    /// (see [`crate::stats::Timeline`]); 0 disables sampling. The
    /// sampler is adaptive: short kernels are captured exactly at this
    /// period, and once a launch has produced `timeline_capacity`
    /// samples the period doubles (dropping every other retained
    /// sample), so the whole launch stays visible at bounded memory.
    pub timeline_sample_period: u64,
    /// Target timeline sample budget per launch — the retained series
    /// never exceeds this many points. Must be at least 2 when
    /// sampling is enabled (the first and final epochs are pinned).
    pub timeline_capacity: usize,
}

impl GpuConfig {
    /// The default GPGPU-Sim configuration of the paper's Table II:
    /// 28 SMs, 2 GHz, warp size 32, SIMD width 32, 1024 threads and
    /// 8 CTAs per SM, 16384 registers, 32 kB shared memory with bank
    /// conflicts modeled, 8 memory channels, and **no** L1/L2 caches
    /// (the paper's simulations disable the L2).
    #[must_use = "builds a configuration without applying it"]
    pub fn gpgpusim_default() -> GpuConfig {
        GpuConfig {
            name: "gpgpusim-28sm".to_string(),
            num_sms: 28,
            warp_size: 32,
            simd_width: 32,
            core_clock_ghz: 2.0,
            // GDDR3-class memory clock; with 8 DDR channels of 8 bytes
            // this yields a 256 GB/s-class simulated part.
            mem_clock_ghz: 2.0,
            max_threads_per_sm: 1024,
            max_ctas_per_sm: 8,
            regs_per_sm: 16384,
            shared_mem_per_sm: 32 * 1024,
            shared_banks: 16,
            model_bank_conflicts: true,
            mem_channels: 8,
            dram_bus_bytes: 8,
            dram_data_rate: 2,
            dram_latency: 220,
            alu_latency: 8,
            sfu_latency: 20,
            shared_latency: 24,
            const_latency: 24,
            param_latency: 8,
            segment_bytes: 64,
            l1: None,
            l2: None,
            tex_cache: Some(CacheGeom::new(8 * 1024, 4, 64)),
            l1_latency: 28,
            l2_latency: 120,
            tex_latency: 28,
            cta_launch_overhead: 20,
            sched_policy: SchedPolicy::RoundRobin,
            lane_compaction: false,
            watchdog: WatchdogBudget::default(),
            timeline_sample_period: 4096,
            timeline_capacity: 512,
        }
    }

    /// The 8-shader configuration used for the scalability comparison of
    /// Figure 1.
    #[must_use = "builds a configuration without applying it"]
    pub fn gpgpusim_8sm() -> GpuConfig {
        GpuConfig {
            name: "gpgpusim-8sm".to_string(),
            num_sms: 8,
            ..GpuConfig::gpgpusim_default()
        }
    }

    /// A GTX 280 model: 30 SMs of 8-wide SIMD at 1.3 GHz, 16 kB shared
    /// memory, no L1/L2 (texture and constant caches only).
    #[must_use = "builds a configuration without applying it"]
    pub fn gtx280() -> GpuConfig {
        GpuConfig {
            name: "gtx280".to_string(),
            num_sms: 30,
            simd_width: 8,
            core_clock_ghz: 1.3,
            mem_clock_ghz: 1.1,
            shared_mem_per_sm: 16 * 1024,
            shared_banks: 16,
            mem_channels: 8,
            dram_bus_bytes: 8,
            ..GpuConfig::gpgpusim_default()
        }
    }

    /// A GTX 480 (Fermi) model in its **shared-bias** configuration:
    /// 48 kB shared memory + 16 kB L1 per SM, with a 768 kB unified L2.
    #[must_use = "builds a configuration without applying it"]
    pub fn gtx480_shared_bias() -> GpuConfig {
        GpuConfig {
            name: "gtx480-shared-bias".to_string(),
            num_sms: 15,
            simd_width: 32,
            core_clock_ghz: 1.4,
            mem_clock_ghz: 1.8,
            shared_mem_per_sm: 48 * 1024,
            shared_banks: 32,
            regs_per_sm: 32768,
            mem_channels: 6,
            dram_bus_bytes: 8,
            l1: Some(CacheGeom::new(16 * 1024, 4, 64)),
            l2: Some(CacheGeom::new(768 * 1024, 12, 64)),
            ..GpuConfig::gpgpusim_default()
        }
    }

    /// A GTX 480 (Fermi) model in its **L1-bias** configuration:
    /// 16 kB shared memory + 48 kB L1 per SM, with a 768 kB unified L2.
    #[must_use = "builds a configuration without applying it"]
    pub fn gtx480_l1_bias() -> GpuConfig {
        GpuConfig {
            name: "gtx480-l1-bias".to_string(),
            shared_mem_per_sm: 16 * 1024,
            l1: Some(CacheGeom::new(48 * 1024, 6, 64)),
            ..GpuConfig::gtx480_shared_bias()
        }
    }

    /// Returns a copy with a different number of DRAM channels
    /// (the Figure 4 sweep). A zero channel count is representable but
    /// rejected by [`GpuConfig::validate`] when the configuration is
    /// used.
    #[must_use = "builds a configuration without applying it"]
    pub fn with_mem_channels(&self, channels: u32) -> GpuConfig {
        GpuConfig {
            name: format!("{}-{}ch", self.name, channels),
            mem_channels: channels,
            ..self.clone()
        }
    }

    /// Returns a copy with a different SM count. A zero SM count is
    /// representable but rejected by [`GpuConfig::validate`] when the
    /// configuration is used.
    #[must_use = "builds a configuration without applying it"]
    pub fn with_num_sms(&self, sms: u32) -> GpuConfig {
        GpuConfig {
            name: format!("{}-{}sm", self.name, sms),
            num_sms: sms,
            ..self.clone()
        }
    }

    /// Peak DRAM bandwidth in bytes per *core* cycle, used for the
    /// bandwidth-utilization metric.
    pub fn peak_bytes_per_core_cycle(&self) -> f64 {
        let bytes_per_mem_cycle =
            (self.mem_channels * self.dram_bus_bytes * self.dram_data_rate) as f64;
        bytes_per_mem_cycle * (self.mem_clock_ghz / self.core_clock_ghz)
    }

    /// Core cycles a DRAM channel is busy serving one segment.
    pub fn segment_service_cycles(&self) -> u64 {
        let beat = self.dram_bus_bytes * self.dram_data_rate;
        let mem_cycles = self.segment_bytes.div_ceil(beat);
        let core_cycles = mem_cycles as f64 * (self.core_clock_ghz / self.mem_clock_ghz);
        core_cycles.ceil().max(1.0) as u64
    }

    /// Warp issue occupancy of the SIMD pipeline, in cycles per warp
    /// instruction (for a fully populated warp).
    pub fn issue_cycles(&self) -> u64 {
        self.warp_size.div_ceil(self.simd_width) as u64
    }

    /// Issue occupancy for an instruction with `lanes` active lanes,
    /// honoring [`GpuConfig::lane_compaction`].
    pub fn issue_cycles_for(&self, lanes: u32) -> u64 {
        if self.lane_compaction {
            lanes.max(1).div_ceil(self.simd_width) as u64
        } else {
            self.issue_cycles()
        }
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the first
    /// inconsistency found (e.g. zero SMs, SIMD width exceeding the
    /// warp size, a non-power-of-two shared-memory bank count).
    #[must_use = "the validation verdict must be checked"]
    pub fn validate(&self) -> Result<(), SimError> {
        self.first_problem().map_or(Ok(()), |reason| {
            Err(SimError::InvalidConfig {
                config: self.name.clone(),
                reason,
            })
        })
    }

    fn first_problem(&self) -> Option<String> {
        if self.num_sms == 0 {
            return Some("num_sms must be positive".into());
        }
        if self.warp_size == 0 || self.warp_size as usize > MAX_WARP_SIZE {
            return Some("warp_size must be in 1..=64".into());
        }
        if self.simd_width == 0 || self.simd_width > self.warp_size {
            return Some("simd_width must be in 1..=warp_size".into());
        }
        if self.mem_channels == 0 {
            return Some("mem_channels must be positive".into());
        }
        if self.dram_bus_bytes == 0 || self.dram_data_rate == 0 {
            return Some("DRAM bus width and data rate must be positive".into());
        }
        if self.segment_bytes == 0 || !self.segment_bytes.is_power_of_two() {
            return Some("segment_bytes must be a positive power of two".into());
        }
        if self.shared_banks == 0 || !self.shared_banks.is_power_of_two() {
            return Some("shared_banks must be a positive power of two".into());
        }
        if self.max_threads_per_sm < self.warp_size {
            return Some("an SM must hold at least one warp".into());
        }
        if self.max_ctas_per_sm == 0 {
            return Some("max_ctas_per_sm must be positive".into());
        }
        for (name, geom) in [
            ("l1", self.l1),
            ("l2", self.l2),
            ("tex_cache", self.tex_cache),
        ] {
            if let Some(reason) = geom.as_ref().and_then(CacheGeom::problem) {
                return Some(format!("{name}: {reason}"));
            }
        }
        let clock_ok = |c: f64| c.is_finite() && c > 0.0;
        if !clock_ok(self.core_clock_ghz) || !clock_ok(self.mem_clock_ghz) {
            return Some("clocks must be finite and positive".into());
        }
        if self.timeline_sample_period > 0 {
            // Reject degenerate telemetry geometry up front instead of
            // silently degrading the sampler: a budget below 2 cannot
            // pin both the first and final epoch, an absurd budget is
            // an unbounded-memory footgun, and a period near u64::MAX
            // overflows the epoch arithmetic before the watchdog can
            // possibly fire.
            if self.timeline_capacity < 2 {
                return Some(
                    "timeline_capacity must be at least 2 when sampling is enabled".into(),
                );
            }
            if self.timeline_capacity > MAX_TIMELINE_CAPACITY {
                return Some(format!(
                    "timeline_capacity {} exceeds the telemetry memory bound {}",
                    self.timeline_capacity, MAX_TIMELINE_CAPACITY
                ));
            }
            if self.timeline_sample_period > MAX_TIMELINE_PERIOD {
                return Some(format!(
                    "timeline_sample_period {} is overflow-prone (max {})",
                    self.timeline_sample_period, MAX_TIMELINE_PERIOD
                ));
            }
        }
        None
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::gpgpusim_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        // The values the paper lists in Table II.
        let c = GpuConfig::gpgpusim_default();
        assert_eq!(c.num_sms, 28);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.simd_width, 32);
        assert_eq!(c.max_threads_per_sm, 1024);
        assert_eq!(c.max_ctas_per_sm, 8);
        assert_eq!(c.regs_per_sm, 16384);
        assert_eq!(c.shared_mem_per_sm, 32 * 1024);
        assert!(c.model_bank_conflicts);
        assert_eq!(c.mem_channels, 8);
        assert!((c.core_clock_ghz - 2.0).abs() < 1e-12);
        assert!(c.l1.is_none() && c.l2.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn presets_validate() {
        for c in [
            GpuConfig::gpgpusim_default(),
            GpuConfig::gpgpusim_8sm(),
            GpuConfig::gtx280(),
            GpuConfig::gtx480_shared_bias(),
            GpuConfig::gtx480_l1_bias(),
        ] {
            assert!(c.validate().is_ok(), "{} should validate", c.name);
        }
    }

    #[test]
    fn fermi_bias_configs_trade_shared_for_l1() {
        let sb = GpuConfig::gtx480_shared_bias();
        let lb = GpuConfig::gtx480_l1_bias();
        assert_eq!(sb.shared_mem_per_sm, 48 * 1024);
        assert_eq!(lb.shared_mem_per_sm, 16 * 1024);
        assert_eq!(sb.l1.unwrap().bytes, 16 * 1024);
        assert_eq!(lb.l1.unwrap().bytes, 48 * 1024);
        assert_eq!(sb.l2, lb.l2);
    }

    #[test]
    fn issue_cycles_from_simd_width() {
        let c = GpuConfig::gpgpusim_default();
        assert_eq!(c.issue_cycles(), 1);
        let narrow = GpuConfig { simd_width: 8, ..c };
        assert_eq!(narrow.issue_cycles(), 4);
    }

    #[test]
    fn segment_service_scales_with_bus() {
        let c = GpuConfig::gpgpusim_default();
        // 64 B over an 8 B DDR bus at a 1:1 core:mem ratio = 4 core cycles.
        assert_eq!(c.segment_service_cycles(), 4);
        let wide = GpuConfig {
            dram_bus_bytes: 16,
            ..GpuConfig::gpgpusim_default()
        };
        assert_eq!(wide.segment_service_cycles(), 2);
    }

    #[test]
    fn peak_bandwidth_accounting() {
        let c = GpuConfig::gpgpusim_default();
        // 8 channels * 8 B DDR per mem cycle, at mem:core = 1:1
        // -> 128 B/core cycle.
        assert!((c.peak_bytes_per_core_cycle() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = GpuConfig::gpgpusim_default();
        c.simd_width = 64;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::gpgpusim_default();
        c.mem_channels = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::gpgpusim_default();
        c.segment_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::gpgpusim_default();
        c.shared_banks = 12;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::gpgpusim_default();
        c.core_clock_ghz = f64::NAN;
        assert!(c.validate().is_err());
        let c = GpuConfig::gpgpusim_default().with_num_sms(0);
        assert!(c.validate().is_err());
        let mut c = GpuConfig::gpgpusim_default();
        c.timeline_sample_period = 1024;
        c.timeline_capacity = 0;
        assert!(c.validate().is_err());
        c.timeline_sample_period = 0;
        assert!(c.validate().is_ok(), "capacity unused when sampling is off");
    }

    #[test]
    fn degenerate_timeline_geometry_is_rejected_with_typed_errors() {
        let check = |mutate: fn(&mut GpuConfig), needle: &str| {
            let mut c = GpuConfig::gpgpusim_default();
            mutate(&mut c);
            match c.validate() {
                Err(crate::SimError::InvalidConfig { config, reason }) => {
                    assert_eq!(config, c.name);
                    assert!(reason.contains(needle), "{reason:?} missing {needle:?}");
                }
                other => panic!("expected InvalidConfig({needle}), got {other:?}"),
            }
        };
        // A budget of 1 cannot pin both the first and final epoch.
        check(|c| c.timeline_capacity = 1, "timeline_capacity");
        check(
            |c| c.timeline_capacity = MAX_TIMELINE_CAPACITY + 1,
            "memory bound",
        );
        check(
            |c| c.timeline_sample_period = MAX_TIMELINE_PERIOD + 1,
            "overflow-prone",
        );
        // The same values are fine with sampling disabled.
        let mut c = GpuConfig::gpgpusim_default();
        c.timeline_sample_period = 0;
        c.timeline_capacity = 1;
        assert!(c.validate().is_ok());
        // And the boundary values themselves are accepted.
        let mut c = GpuConfig::gpgpusim_default();
        c.timeline_sample_period = MAX_TIMELINE_PERIOD;
        c.timeline_capacity = 2;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_errors_are_typed() {
        let mut c = GpuConfig::gpgpusim_default();
        c.mem_channels = 0;
        match c.validate() {
            Err(crate::SimError::InvalidConfig { config, reason }) => {
                assert_eq!(config, c.name);
                assert!(reason.contains("mem_channels"));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn cache_geom_sets() {
        let g = CacheGeom::new(8 * 1024, 4, 64);
        assert_eq!(g.sets(), 32);
    }

    #[test]
    fn degenerate_cache_geometry_is_rejected_with_typed_errors() {
        let geom = |bytes, ways, line| Some(CacheGeom { bytes, ways, line });
        let cases = [
            (geom(16 * 1024, 0, 64), "positive"),
            (geom(16 * 1024, 4, 0), "positive"),
            (geom(128, 4, 64), "smaller than one set"),
            (geom(64, 1 << 16, 1 << 16), "smaller than one set"),
            (geom(6144, 4, 64), "power of two"),
            (geom(1 << 31, 1, 1), "more than 65536 lines"),
            (geom(1 << 23, 4, 64), "more than 65536 lines"),
        ];
        for (bad, needle) in cases {
            for (slot, name) in [(0, "l1"), (1, "l2"), (2, "tex_cache")] {
                let mut c = GpuConfig::gtx480_l1_bias();
                *[&mut c.l1, &mut c.l2, &mut c.tex_cache][slot] = bad;
                match c.validate() {
                    Err(crate::SimError::InvalidConfig { reason, .. }) => {
                        assert!(reason.starts_with(name), "{reason:?} names {name}");
                        assert!(reason.contains(needle), "{reason:?} missing {needle:?}");
                    }
                    other => panic!("{name} {bad:?}: expected InvalidConfig, got {other:?}"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_geom_rejects_non_pow2_sets() {
        let _ = CacheGeom::new(48 * 1024, 4, 64);
    }
}

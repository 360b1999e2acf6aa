//! Self-tuning epoch sampler with a fixed sample budget.
//!
//! [`AdaptiveSampler`] replaces a fixed-period ring buffer for
//! timeline-style telemetry. A ring keeps the *last* `capacity`
//! samples, so a long run silently loses its entire ramp-up; a fixed
//! period keeps everything, so memory grows with run length. The
//! adaptive sampler keeps memory bounded **and** the whole run visible:
//!
//! * It starts sampling at `base_period` (exact capture for short
//!   runs — every epoch boundary is retained as long as the run
//!   produces fewer than `budget` samples).
//! * When the retained set would exceed `budget`, it **decimates**:
//!   every other retained sample is dropped (even indices kept, so the
//!   first epoch always survives) and the sampling period doubles.
//!   Repeating this exponential backoff keeps the retained series an
//!   evenly spaced grid over the full run at no more than `budget`
//!   points.
//! * [`AdaptiveSampler::record_final`] pins the closing epoch of the
//!   run, so the last sample is never lost either.
//!
//! The sampler is driven purely by the caller's logical clock (cycle
//! counts), never wall time, so identical runs produce identical
//! sample series — the property every byte-stable manifest in this
//! workspace relies on.
//!
//! The payload type is generic: the simulator records raw cumulative
//! counters and derives windowed rates (e.g. DRAM utilization over the
//! inter-sample gap) after sampling, which stays exact under
//! decimation because the gaps are known from the retained cycles.

/// A budget-bounded, exponentially backing-off epoch sampler.
///
/// Samples are `(cycle, payload)` pairs with strictly increasing
/// cycles. See the [module docs](self) for the retention policy.
#[derive(Debug, Clone)]
pub struct AdaptiveSampler<T> {
    /// Initial sampling period (logical cycles); 0 disables sampling.
    base_period: u64,
    /// Maximum retained samples (at least 2 when enabled: the first
    /// and final epochs are always kept).
    budget: usize,
    /// Current period multiplier; doubles on every decimation.
    stride: u64,
    /// Next cycle at which a periodic sample is due.
    next_due: u64,
    /// Times the retained set was halved.
    decimations: u32,
    /// Samples discarded by decimation.
    dropped: u64,
    samples: Vec<(u64, T)>,
}

impl<T> AdaptiveSampler<T> {
    /// A sampler that starts at `base_period` and retains at most
    /// `budget` samples. `base_period == 0` disables sampling entirely;
    /// otherwise a `budget` below 2 is raised to 2 so the first and
    /// final epochs can both be retained.
    pub fn new(base_period: u64, budget: usize) -> AdaptiveSampler<T> {
        let budget = if base_period == 0 {
            budget
        } else {
            budget.max(2)
        };
        AdaptiveSampler {
            base_period,
            budget,
            stride: 1,
            next_due: base_period.max(1),
            decimations: 0,
            dropped: 0,
            samples: Vec::new(),
        }
    }

    /// Whether this sampler records anything at all.
    pub fn enabled(&self) -> bool {
        self.base_period > 0
    }

    /// The current effective sampling period
    /// (`base_period * 2^decimations`).
    pub fn period(&self) -> u64 {
        self.base_period.saturating_mul(self.stride)
    }

    /// The next cycle at which a periodic sample is due. Meaningless
    /// when disabled.
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Whether a periodic sample is due at or before `cycle`. Callers
    /// loop `while s.is_due(cycle) { s.record_due(payload_at(s.next_due())) }`
    /// so jumped-over epochs each get their own sample.
    pub fn is_due(&self, cycle: u64) -> bool {
        self.enabled() && self.next_due <= cycle
    }

    /// Records the sample due at [`AdaptiveSampler::next_due`] and
    /// schedules the next one one effective period after the last
    /// *retained* sample. If this record overflowed the budget the set
    /// was just halved (possibly discarding this very sample) and the
    /// period doubled — scheduling off the retained tail is what keeps
    /// the series an evenly spaced grid.
    pub fn record_due(&mut self, payload: T) {
        debug_assert!(self.enabled(), "record_due on a disabled sampler");
        let cycle = self.next_due;
        self.push(cycle, payload);
        let last = self.samples.last().map_or(cycle, |&(c, _)| c);
        self.next_due = last.saturating_add(self.period());
    }

    /// Pins the closing epoch of the run at `cycle`. Ignored when
    /// disabled or when `cycle` does not advance past the last retained
    /// sample (cycles must stay strictly increasing). When the budget is
    /// full the last periodic sample — the one closest to the pin — is
    /// evicted to make room, never the head of the series.
    pub fn record_final(&mut self, cycle: u64, payload: T) {
        if !self.enabled() {
            return;
        }
        if self.samples.last().is_some_and(|&(c, _)| c >= cycle) {
            return;
        }
        if self.samples.len() >= self.budget {
            self.samples.pop();
            self.dropped += 1;
        }
        self.samples.push((cycle, payload));
    }

    fn push(&mut self, cycle: u64, payload: T) {
        self.samples.push((cycle, payload));
        if self.samples.len() > self.budget {
            // Halve: keep even indices so the first epoch survives and
            // the kept cycles remain an evenly spaced grid (the sample
            // pushed just above may itself be discarded; the caller
            // reschedules off the retained tail).
            let before = self.samples.len();
            let mut i = 0;
            self.samples.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.dropped += (before - self.samples.len()) as u64;
            self.stride = self.stride.saturating_mul(2);
            self.decimations += 1;
        }
    }

    /// Retained samples so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Times the retained set was halved (the effective period is
    /// `base_period << decimations`).
    pub fn decimations(&self) -> u32 {
        self.decimations
    }

    /// Samples discarded by decimation over the sampler's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sampler, returning the retained `(cycle, payload)`
    /// series, oldest first, cycles strictly increasing.
    pub fn into_samples(self) -> Vec<(u64, T)> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the sampler like the simulator does: jump the clock to
    /// `end`, recording each due epoch, then pin the final epoch.
    fn drive(period: u64, budget: usize, end: u64) -> AdaptiveSampler<u64> {
        let mut s = AdaptiveSampler::new(period, budget);
        while s.is_due(end.saturating_sub(1)) {
            let c = s.next_due();
            s.record_due(c); // payload mirrors the cycle for checking
        }
        s.record_final(end, end);
        s
    }

    #[test]
    fn short_runs_are_captured_exactly() {
        let s = drive(10, 64, 55);
        let cycles: Vec<u64> = s.into_samples().iter().map(|&(c, _)| c).collect();
        // Every epoch boundary below the budget is retained, plus the
        // pinned final epoch.
        assert_eq!(cycles, vec![10, 20, 30, 40, 50, 55]);
    }

    #[test]
    fn budget_is_never_exceeded_and_period_backs_off() {
        let s = drive(10, 8, 100_000);
        assert!(s.len() <= 8, "retained {} > budget", s.len());
        assert!(s.decimations() > 0, "long run must decimate");
        assert_eq!(s.period(), 10 << s.decimations());
        assert!(s.dropped() > 0);
    }

    #[test]
    fn first_and_final_epochs_always_survive() {
        for end in [25_u64, 1_000, 99_999, 1_000_000] {
            let s = drive(10, 8, end);
            let samples = s.into_samples();
            assert_eq!(samples.first().map(|&(c, _)| c), Some(10), "end={end}");
            assert_eq!(samples.last().map(|&(c, _)| c), Some(end), "end={end}");
        }
    }

    #[test]
    fn cycles_are_strictly_increasing_and_payloads_preserved() {
        let samples = drive(7, 16, 123_456).into_samples();
        for w in samples.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(cycle, payload) in &samples {
            assert_eq!(cycle, payload, "payload travels with its cycle");
        }
    }

    #[test]
    fn decimated_grid_is_evenly_spaced() {
        let s = drive(10, 8, 10_000);
        let samples = s.into_samples();
        // All but the pinned final sample sit on a regular grid.
        let grid = &samples[..samples.len() - 1];
        if grid.len() >= 2 {
            let step = grid[1].0 - grid[0].0;
            for w in grid.windows(2) {
                assert_eq!(w[1].0 - w[0].0, step, "irregular grid: {samples:?}");
            }
        }
    }

    #[test]
    fn determinism_same_inputs_same_series() {
        let a = drive(10, 8, 987_654).into_samples();
        let b = drive(10, 8, 987_654).into_samples();
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_sampler_records_nothing() {
        let mut s: AdaptiveSampler<u64> = AdaptiveSampler::new(0, 8);
        assert!(!s.enabled());
        assert!(!s.is_due(u64::MAX));
        s.record_final(100, 100);
        assert!(s.is_empty());
    }

    #[test]
    fn tiny_budget_is_raised_to_two() {
        let s = drive(10, 0, 1_000);
        assert!(!s.is_empty());
        assert!(s.len() <= 2);
        let samples = s.into_samples();
        assert_eq!(samples.last().map(|&(c, _)| c), Some(1_000));
    }

    #[test]
    fn record_final_never_duplicates_a_cycle() {
        let mut s = AdaptiveSampler::new(10, 64);
        while s.is_due(100) {
            let c = s.next_due();
            s.record_due(c);
        }
        let len = s.len();
        assert_eq!(s.into_samples().last().map(|&(c, _)| c), Some(100));
        let mut s = AdaptiveSampler::new(10, 64);
        while s.is_due(100) {
            let c = s.next_due();
            s.record_due(c);
        }
        s.record_final(100, 100); // boundary already sampled at 100
        assert_eq!(s.len(), len);
    }
}

//! Property tests on the adaptive timeline sampler: wraparound-free
//! epoch series, budget bounds, and first/last-epoch retention — both on
//! the sampler in isolation and through the timing engine.

use proptest::prelude::*;
use simt::{time_trace, trace_kernel, GpuConfig, GpuMem, GridShape, Kernel, PhaseControl, WarpCtx};

/// Drives an [`obs::AdaptiveSampler`] exactly like the engine does —
/// record every due epoch up to `end - 1`, then pin the final epoch at
/// `end` — and returns the retained cycle series.
fn drive_sampler(period: u64, budget: usize, end: u64) -> Vec<u64> {
    let mut s: obs::AdaptiveSampler<u64> = obs::AdaptiveSampler::new(period, budget);
    while s.is_due(end.saturating_sub(1)) {
        let c = s.next_due();
        s.record_due(c);
    }
    if end > 0 {
        s.record_final(end, end);
    }
    s.into_samples().into_iter().map(|(c, _)| c).collect()
}

/// The full-resolution reference: every epoch boundary plus the final
/// cycle, with no budget applied.
fn reference_series(period: u64, end: u64) -> Vec<u64> {
    if period == 0 || end == 0 {
        return Vec::new();
    }
    let mut all: Vec<u64> = (1..).map(|k| k * period).take_while(|&c| c < end).collect();
    all.push(end);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However many epochs the run produces beyond the budget, the
    /// retained series is a subset of the full-resolution reference at
    /// identical cycles — decimation never invents or shifts a sample.
    #[test]
    fn retained_series_is_a_subset_of_full_resolution(
        period in 1u64..200,
        budget in 2usize..64,
        end in 1u64..500_000,
    ) {
        let kept = drive_sampler(period, budget, end);
        let reference = reference_series(period, end);
        let mut r = reference.iter();
        for &c in &kept {
            prop_assert!(
                r.any(|&rc| rc == c),
                "retained cycle {c} absent from the reference (period={period}, end={end})"
            );
        }
    }

    /// The retained set never exceeds the budget, no matter how far the
    /// epoch count overshoots it (the wraparound case a ring buffer
    /// would mangle).
    #[test]
    fn budget_bounds_retention(
        period in 1u64..100,
        budget in 2usize..32,
        // Force many times more epochs than the budget holds.
        epochs in 64u64..4096,
    ) {
        let end = period.saturating_mul(epochs) + period / 2;
        let kept = drive_sampler(period, budget, end);
        prop_assert!(kept.len() <= budget, "{} retained > budget {budget}", kept.len());
        prop_assert!(!kept.is_empty());
    }

    /// The first epoch and the final cycle are always retained — the
    /// adaptive sampler never drops the ramp-up head or the ramp-down
    /// tail, which is the whole point of replacing the ring buffer.
    #[test]
    fn first_and_last_epochs_survive(
        period in 1u64..100,
        budget in 2usize..32,
        end in 1u64..1_000_000,
    ) {
        let kept = drive_sampler(period, budget, end);
        let reference = reference_series(period, end);
        prop_assert_eq!(kept.first(), reference.first(), "first epoch lost");
        prop_assert_eq!(kept.last(), Some(&end), "final epoch lost");
    }

    /// Cycles stay strictly increasing and the periodic portion of the
    /// retained series (everything before the pinned final sample) is an
    /// evenly spaced grid.
    #[test]
    fn series_is_sorted_and_evenly_spaced(
        period in 1u64..100,
        budget in 2usize..32,
        end in 1u64..1_000_000,
    ) {
        let kept = drive_sampler(period, budget, end);
        for w in kept.windows(2) {
            prop_assert!(w[0] < w[1], "cycles not strictly increasing: {kept:?}");
        }
        let grid = &kept[..kept.len().saturating_sub(1)];
        if grid.len() >= 2 {
            let step = grid[1] - grid[0];
            for w in grid.windows(2) {
                prop_assert_eq!(w[1] - w[0], step, "irregular grid: {:?}", kept);
            }
        }
    }
}

/// A long-enough streaming kernel to overflow a small sample budget.
struct Streamer {
    buf: simt::BufF32,
    n: usize,
}

impl Kernel for Streamer {
    fn name(&self) -> &str {
        "streamer"
    }
    fn shape(&self) -> GridShape {
        GridShape::cover(self.n, 128)
    }
    fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
        let (buf, n) = (self.buf, self.n);
        let tids = w.tids();
        let in_range: Vec<bool> = tids.iter().map(|&t| t < n).collect();
        w.if_active(&in_range, |w| {
            let _ = w.ld_f32(buf, |_, tid| (tid < n).then_some(tid));
            w.alu(8);
        });
        PhaseControl::Done
    }
}

/// Through the engine: when the epoch count exceeds the budget, the
/// timeline decimates instead of wrapping — the head of the run stays
/// visible, the last sample lands on the final cycle, and the budget
/// holds.
#[test]
fn engine_timeline_decimates_instead_of_wrapping() {
    let mut cfg = GpuConfig::gpgpusim_default();
    cfg.timeline_sample_period = 16;
    cfg.timeline_capacity = 8;
    let n = 1 << 15;
    let mut mem = GpuMem::new();
    let buf = mem.alloc_f32_zeroed("buf", n);
    let trace = trace_kernel(&Streamer { buf, n }, &mut mem, &cfg);
    let stats = time_trace(&trace, &cfg);
    let tl = &stats.timeline;
    assert!(
        tl.samples.len() <= 8,
        "budget exceeded: {}",
        tl.samples.len()
    );
    assert!(tl.decimations > 0, "a long run must back off");
    assert!(
        tl.dropped > 0,
        "decimation must account for dropped samples"
    );
    // Head retained: the very first epoch (one base period in) survives
    // every halving, so the ramp-up stays visible.
    let first = tl.samples.first().expect("non-empty").cycle;
    assert_eq!(first, 16, "first epoch lost");
    // The periodic portion sits on an even grid at the backed-off period.
    let grid = &tl.samples[..tl.samples.len() - 1];
    if grid.len() >= 2 {
        let step = 16u64 << u64::from(tl.decimations);
        for w in grid.windows(2) {
            assert_eq!(w[1].cycle - w[0].cycle, step, "irregular grid");
        }
    }
    // Tail pinned exactly at the end of the run.
    let last = tl.samples.last().expect("non-empty").cycle;
    assert_eq!(last, stats.cycles, "final epoch not pinned");
    for s in &tl.samples {
        assert!(s.occupancy >= 0.0 && s.occupancy <= 1.0);
        assert!(s.dram_util >= 0.0 && s.dram_util <= 1.0);
    }
    // Determinism end to end: identical replay, identical series.
    let again = time_trace(&trace, &cfg);
    assert_eq!(tl.samples, again.timeline.samples);
}

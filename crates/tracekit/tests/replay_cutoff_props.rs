//! Oracle test of the capacity sweep: a [`Sweep`] simulates capacities
//! only up to its frontier (the fewest-set capacity that has evicted
//! nothing) and splits the frontier into the next capacity just before
//! it evicts, yet it must equal one full [`SharedCache`] replay per
//! capacity, field for field. It is checked fed in pieces, as the live
//! profiler feeds it a block at a time, and fed a whole stored trace
//! through [`CpuCapture::replay_all`].
//!
//! Traces draw line numbers from small ranges, spread by a stride, so
//! sets conflict and one access can make several capacities evict at
//! once (a cascade of splits). Capacity lists come in ascending,
//! descending and random order with repeats, from one set up to more
//! sets than there are lines. So the cases cover lists that never stop
//! evicting, traces that never fill even one set, and single-set
//! geometries.

use proptest::prelude::*;
use tracekit::{CacheStats, CpuCapture, InstrMix, Profile, SharedCache, Sweep};

const LINE: u64 = 64;

fn capture(trace: &[(u64, u64)], ways: usize) -> CpuCapture {
    let base = Profile {
        name: "cutoff-prop".to_string(),
        mix: InstrMix::default(),
        cache_stats: Vec::new(),
        instr_blocks: 0,
        data_blocks: 0,
        events: trace.len() as u64,
    };
    let words = trace.iter().map(|&(tid, line)| (line << 8) | tid).collect();
    CpuCapture::from_parts(base, words, ways, LINE)
}

/// The oracle: one cache per capacity, fed the whole trace.
fn full_replays(trace: &[(u64, u64)], sizes: &[u64], ways: usize) -> Vec<CacheStats> {
    sizes
        .iter()
        .map(|&bytes| {
            let mut c = SharedCache::new(bytes, ways, LINE).expect("valid geometry");
            for &(tid, line) in trace {
                c.access_line(tid as usize, line);
            }
            c.finish()
        })
        .collect()
}

/// The sweep fed `piece` words at a time, with the number of
/// capacities it simulated.
fn live(
    trace: &[(u64, u64)],
    sizes: &[u64],
    ways: usize,
    piece: usize,
) -> (Vec<CacheStats>, usize) {
    let words: Vec<u64> = trace.iter().map(|&(tid, line)| (line << 8) | tid).collect();
    let mut sweep = Sweep::new(sizes, ways, LINE).expect("valid geometries");
    for run in words.chunks(piece) {
        sweep.access_words(run);
    }
    let simulated = sweep.simulated();
    (sweep.finish(), simulated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_all_equals_one_full_replay_per_capacity(
        tids in proptest::collection::vec(0u64..8, 0..400),
        picks in proptest::collection::vec(0u64..1 << 20, 400),
        span in proptest::sample::select(vec![3u64, 8, 16, 40, 200]),
        stride in proptest::sample::select(vec![1u64, 8, 64]),
        ways in proptest::sample::select(vec![1usize, 2, 4, 8]),
        set_logs in proptest::collection::vec(0u32..8, 1..9),
        order in 0u8..3,
        piece in 1usize..64,
    ) {
        let trace: Vec<(u64, u64)> = tids
            .iter()
            .zip(&picks)
            .map(|(&tid, &p)| (tid, p % span * stride))
            .collect();
        let mut sizes: Vec<u64> =
            set_logs.iter().map(|&s| (1u64 << s) * ways as u64 * LINE).collect();
        match order {
            0 => sizes.sort_unstable(),
            1 => sizes.sort_unstable_by(|a, b| b.cmp(a)),
            _ => {} // as drawn: a random order, possibly with repeats
        }
        let want = full_replays(&trace, &sizes, ways);
        let (swept, simulated) = live(&trace, &sizes, ways, piece);
        prop_assert_eq!(&swept, &want, "in pieces of {}, sizes {:?}", piece, sizes);
        let replayed = capture(&trace, ways).replay_all(&sizes).expect("valid geometries");
        prop_assert_eq!(&replayed, &want, "from words, sizes {:?}", sizes);
        let mut distinct = sizes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(simulated >= 1 && simulated <= distinct.len());
    }
}

/// One access that makes four capacities evict at once splits the
/// frontier four times in a row: with one way, lines 0 and 8 share a
/// set at 1, 2, 4 and 8 sets and part at 16.
#[test]
fn one_access_cascades_through_every_capacity_that_would_evict() {
    let trace = [(0, 0), (1, 8), (2, 0), (3, 8), (0, 16)];
    let sizes: Vec<u64> = (0..6).map(|s| (1u64 << s) * LINE).collect();
    let (swept, simulated) = live(&trace[..2], &sizes, 1, 1);
    assert_eq!(simulated, 5, "1, 2, 4, 8 and 16 sets");
    assert_eq!(swept, full_replays(&trace[..2], &sizes, 1));
    for piece in [1, 2, 5] {
        let (swept, _) = live(&trace, &sizes, 1, piece);
        assert_eq!(swept, full_replays(&trace, &sizes, 1));
    }
}

/// A trace that never fills a set is simulated at its smallest
/// capacity only, and every other capacity shares those stats.
#[test]
fn a_trace_that_never_evicts_simulates_one_capacity() {
    let trace: Vec<(u64, u64)> = (0..40).map(|i| (i % 3, i % 4)).collect();
    let sizes = [64 * 4 * LINE, 4 * LINE, 4 * LINE, 1024 * 4 * LINE];
    let (swept, simulated) = live(&trace, &sizes, 4, 7);
    assert_eq!(simulated, 1);
    assert_eq!(swept, full_replays(&trace, &sizes, 4));
}

/// A capacity list with an invalid geometry fails with the error of its
/// first invalid capacity, whatever the trace.
#[test]
fn an_invalid_capacity_past_the_cutoff_is_still_an_error() {
    let cap = capture(&[(0, 0), (1, 1)], 4);
    let sizes = [4 * LINE, 8 * LINE, 12 * LINE];
    assert_eq!(
        cap.replay_all(&sizes).unwrap_err(),
        SharedCache::new(12 * LINE, 4, LINE).unwrap_err()
    );
}

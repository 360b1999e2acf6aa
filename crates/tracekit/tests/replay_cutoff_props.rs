//! Oracle test of the replay cutoff: [`CpuCapture::replay_all`] skips
//! every capacity at least as large (in sets) as one that evicted
//! nothing, and must still equal one full [`CpuCapture::replay`] per
//! capacity, field for field.
//!
//! Traces draw line numbers from small ranges so sets conflict, and
//! capacity lists come in ascending, descending and random order, from
//! one set up to more sets than there are lines. So the cases cover
//! lists that never stop evicting, lists that stop at their first
//! capacity, and single-set geometries.

use proptest::prelude::*;
use tracekit::{CacheStats, CpuCapture, InstrMix, Profile};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_all_equals_one_full_replay_per_capacity(
        tids in proptest::collection::vec(0u64..8, 1..400),
        picks in proptest::collection::vec(0u64..1 << 20, 400),
        span in proptest::sample::select(vec![3u64, 8, 16, 40, 200]),
        ways in proptest::sample::select(vec![1usize, 2, 4, 8]),
        set_logs in proptest::collection::vec(0u32..8, 1..9),
        order in 0u8..3,
    ) {
        let trace: Vec<(u64, u64)> =
            tids.iter().zip(&picks).map(|(&tid, &p)| (tid, p % span)).collect();
        let cap = capture(&trace, ways);
        let mut sizes: Vec<u64> =
            set_logs.iter().map(|&s| (1u64 << s) * ways as u64 * LINE).collect();
        match order {
            0 => sizes.sort_unstable(),
            1 => sizes.sort_unstable_by(|a, b| b.cmp(a)),
            _ => {} // as drawn: a random order, possibly with repeats
        }
        let all = cap.replay_all(&sizes).expect("valid geometries");
        let each: Vec<CacheStats> =
            sizes.iter().map(|&b| cap.replay(b).expect("valid geometry")).collect();
        prop_assert_eq!(all, each, "sizes {:?}", sizes);
    }
}

/// A capacity list with an invalid geometry fails with the same error
/// as its first failing full replay, even after the cutoff fires.
#[test]
fn an_invalid_capacity_past_the_cutoff_is_still_an_error() {
    let cap = capture(&[(0, 0), (1, 1)], 4);
    let sizes = [4 * LINE, 8 * LINE, 12 * LINE];
    assert_eq!(
        cap.replay_all(&sizes).unwrap_err(),
        cap.replay(12 * LINE).unwrap_err()
    );
}

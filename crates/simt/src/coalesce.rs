//! Per-warp memory-access coalescing.
//!
//! Global, local, and texture accesses from the active lanes of a warp are
//! merged into aligned memory segments (64 bytes by default, matching both
//! GPGPU-Sim and the paper's cache-line granularity). The number of
//! segments a warp instruction generates is the dominant determinant of
//! its effective memory bandwidth: a fully coalesced row-major access by
//! 32 lanes produces 2 segments of 64 bytes, while a strided or random
//! access can produce one transaction per lane.

/// Coalesces per-lane byte addresses into unique, sorted, aligned segment
/// base addresses, appended to `out` (trace capture coalesces straight
/// into a warp's segment pool). Returns how many segments were appended.
///
/// `seg_bytes` must be a power of two. An access of `width` bytes that
/// straddles a segment boundary touches both segments.
pub fn coalesce(addrs: &[u64], width: u32, seg_bytes: u32, out: &mut Vec<u64>) -> usize {
    debug_assert!(seg_bytes.is_power_of_two());
    let mask = !(seg_bytes as u64 - 1);
    let start = out.len();
    for &a in addrs {
        let first = a & mask;
        let last = (a + width as u64 - 1) & mask;
        out.push(first);
        if last != first {
            out.push(last);
        }
    }
    let tail = &mut out[start..];
    tail.sort_unstable();
    let mut kept = 0;
    for i in 0..tail.len() {
        if kept == 0 || tail[i] != tail[kept - 1] {
            tail[kept] = tail[i];
            kept += 1;
        }
    }
    out.truncate(start + kept);
    kept
}

/// [`coalesce`] into a fresh vector.
#[cfg(test)]
fn coalesced(addrs: &[u64], width: u32, seg_bytes: u32) -> Vec<u64> {
    let mut segs = Vec::new();
    coalesce(addrs, width, seg_bytes, &mut segs);
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_fully_coalesces() {
        // 32 lanes reading consecutive f32s starting at a segment boundary.
        let addrs: Vec<u64> = (0..32).map(|i| 4096 + i * 4).collect();
        let segs = coalesced(&addrs, 4, 64);
        assert_eq!(segs, vec![4096, 4160]);
    }

    #[test]
    fn large_stride_generates_one_segment_per_lane() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 256).collect();
        let segs = coalesced(&addrs, 4, 64);
        assert_eq!(segs.len(), 32);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let addrs = vec![100, 100, 104, 40];
        let segs = coalesced(&addrs, 4, 64);
        assert_eq!(segs, vec![0, 64]);
    }

    #[test]
    fn straddling_access_touches_two_segments() {
        let segs = coalesced(&[62], 4, 64);
        assert_eq!(segs, vec![0, 64]);
    }

    #[test]
    fn empty_access_is_empty() {
        assert!(coalesced(&[], 4, 64).is_empty());
    }

    #[test]
    fn coalescing_into_a_pool_leaves_its_prefix_alone() {
        let mut pool = vec![4096];
        assert_eq!(coalesce(&[100, 40, 104], 4, 64, &mut pool), 2);
        assert_eq!(pool, vec![4096, 0, 64]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// 1 <= segments <= 2 * lanes, segments are aligned and sorted.
        #[test]
        fn coalesce_bounds(addrs in proptest::collection::vec(0u64..1_000_000, 1..64)) {
            let segs = coalesced(&addrs, 4, 64);
            prop_assert!(!segs.is_empty());
            prop_assert!(segs.len() <= 2 * addrs.len());
            for w in segs.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for s in &segs {
                prop_assert_eq!(s % 64, 0);
            }
        }

        /// Every address is covered by some returned segment.
        #[test]
        fn coalesce_covers(addrs in proptest::collection::vec(0u64..1_000_000, 1..64)) {
            let segs = coalesced(&addrs, 4, 64);
            for &a in &addrs {
                prop_assert!(segs.contains(&(a & !63)));
            }
        }
    }
}

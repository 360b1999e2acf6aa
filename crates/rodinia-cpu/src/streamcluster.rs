//! StreamCluster (OpenMP): the shared Rodinia/Parsec workload — online
//! k-median facility opening, gain evaluation parallelized over points.

use datasets::{mining, Scale};
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::util::chunk;

const FACILITY_COST: f32 = 50.0;

/// The OpenMP StreamCluster instance.
#[derive(Debug, Clone)]
pub struct StreamClusterOmp {
    /// Number of points.
    pub n: usize,
    /// Dimensions per point.
    pub dims: usize,
    /// Candidates evaluated.
    pub candidates: usize,
    /// Input seed.
    pub seed: u64,
}

impl StreamClusterOmp {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> StreamClusterOmp {
        StreamClusterOmp {
            n: scale.pick(512, 8192, 65_536),
            dims: scale.pick(16, 32, 256),
            candidates: scale.pick(4, 8, 16),
            seed: 14,
        }
    }

    /// Runs the traced sweep, returning each point's final cost.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<f32> {
        let (n, dims) = (self.n, self.dims);
        let points = mining::clustered_points(n, dims, 8, self.seed);
        let a_pts = prof.alloc("points", (n * dims * 4) as u64);
        let a_cost = prof.alloc("cost", (n * 4) as u64);
        let a_gain = prof.alloc("gain", (n * 4) as u64);
        let code = prof.code_region("sc_pgain", 2600);
        let threads = prof.threads();
        let dist = |a: usize, b: usize| -> f32 {
            (0..dims)
                .map(|d| {
                    let diff = points[a * dims + d] - points[b * dims + d];
                    diff * diff
                })
                .sum()
        };
        let mut cost: Vec<f32> = (0..n).map(|i| dist(i, 0)).collect();
        cost[0] = 0.0;
        for c in 0..self.candidates {
            let cand = (c * 2_654_435_761 + 12_345) % n;
            let gains = RefCell::new(vec![0.0f32; n]);
            let cst = &cost;
            let pts = &points;
            prof.parallel(|t| {
                t.exec(code);
                let mut g = gains.borrow_mut();
                for i in chunk(n, threads, t.tid()) {
                    let mut d = 0.0f32;
                    for dim in 0..dims {
                        t.read(a_pts + (i * dims + dim) as u64 * 4, 4);
                        t.read(a_pts + (cand * dims + dim) as u64 * 4, 4);
                        t.alu(3);
                        let diff = pts[i * dims + dim] - pts[cand * dims + dim];
                        d += diff * diff;
                    }
                    t.read(a_cost + i as u64 * 4, 4);
                    t.alu(2);
                    t.branch(1);
                    g[i] = (cst[i] - d).max(0.0);
                    t.write(a_gain + i as u64 * 4, 4);
                }
            });
            let gains = gains.into_inner();
            // Serial open/close decision (the Parsec code holds a lock).
            prof.serial(|t| {
                let mut total = 0.0f32;
                for i in 0..n {
                    t.read(a_gain + i as u64 * 4, 4);
                    t.alu(1);
                    total += gains[i];
                }
                t.branch(1);
                if total > FACILITY_COST {
                    for i in 0..n {
                        if gains[i] > 0.0 {
                            t.update(a_cost + i as u64 * 4, 4, 1);
                            cost[i] -= gains[i];
                        }
                    }
                }
            });
        }
        cost
    }
}

impl CpuWorkload for StreamClusterOmp {
    fn name(&self) -> &'static str {
        "streamcluster"
    }
    fn run(&self, prof: &mut Profiler) {
        let _ = self.run_traced(prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::{profile, ProfileConfig};

    #[test]
    fn costs_decrease_and_stay_nonnegative() {
        let sc = StreamClusterOmp::new(Scale::Tiny);
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let cost = sc.run_traced(&mut prof);
        assert!(cost.iter().all(|&c| c >= -1e-3));
        assert_eq!(cost.len(), sc.n);
    }

    #[test]
    fn candidate_rows_are_shared() {
        // Every thread streams the candidate point's coordinates.
        let p = profile(
            &StreamClusterOmp::new(Scale::Tiny),
            &ProfileConfig::default(),
        )
        .expect("profile");
        let s = p.at_capacity(16 * 1024 * 1024);
        assert!(s.shared_access_rate() > 0.1, "{s:?}");
    }
}

//! canneal: simulated-annealing placement of a synthetic netlist
//! (Table V: 400,000 elements; Engineering).
//!
//! The defining behavior: random element pairs are evaluated for a swap
//! by walking their nets — pointer-chasing reads scattered across a
//! netlist far larger than the cache. Canneal has one of the highest
//! miss rates in the paper's Figure 10 and a large working set in
//! Figure 8.

use datasets::{mesh, rng_for, Scale};
use rand::Rng;
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

/// The canneal instance.
#[derive(Debug, Clone)]
pub struct Canneal {
    /// Netlist elements.
    pub elements: usize,
    /// Swap evaluations per thread per temperature step.
    pub swaps_per_step: usize,
    /// Temperature steps.
    pub steps: usize,
    /// Input seed.
    pub seed: u64,
}

impl Canneal {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> Canneal {
        Canneal {
            elements: scale.pick(4_096, 131_072, 400_000),
            swaps_per_step: scale.pick(200, 2_000, 7_500),
            steps: scale.pick(2, 4, 8),
            seed: 105,
        }
    }

    fn wire_len(loc: &[(u32, u32)], a: usize, b: u32) -> f32 {
        let (ax, ay) = loc[a];
        let (bx, by) = loc[b as usize];
        (ax as f32 - bx as f32).abs() + (ay as f32 - by as f32).abs()
    }

    /// Total routing cost of a placement (for validation).
    pub fn total_cost(nl: &mesh::Netlist, loc: &[(u32, u32)]) -> f64 {
        (0..loc.len())
            .map(|e| {
                nl.nets[nl.offsets[e] as usize..nl.offsets[e + 1] as usize]
                    .iter()
                    .map(|&o| Self::wire_len(loc, e, o) as f64)
                    .sum::<f64>()
            })
            .sum()
    }

    /// Runs the traced annealing, returning the final placement.
    pub fn run_traced(&self, prof: &mut Profiler) -> (mesh::Netlist, Vec<(u32, u32)>) {
        let nl = mesh::netlist(self.elements, self.seed);
        let n = self.elements;
        // Reverse adjacency: swapping an element also changes the nets
        // that point *to* it, so the swap delta must walk both
        // directions (the original keeps bidirectional net lists).
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for e in 0..n {
            for k in nl.offsets[e] as usize..nl.offsets[e + 1] as usize {
                rev[nl.nets[k] as usize].push(e as u32);
            }
        }
        let a_off = prof.alloc("offsets", ((n + 1) * 4) as u64);
        let a_nets = prof.alloc("nets", (nl.nets.len() * 4) as u64);
        let a_rev = prof.alloc("rev-nets", (nl.nets.len() * 4) as u64);
        let a_loc = prof.alloc("locations", (n * 8) as u64);
        let code = prof.code_region("annealer_thread", 15_000);
        let _threads = prof.threads();
        let locations = RefCell::new(nl.locations.clone());
        let mut temperature = 20.0f32;
        for step in 0..self.steps {
            let nlr = &nl;
            let revr = &rev;
            let temp = temperature;
            let seed = self.seed ^ ((step as u64) << 32);
            prof.parallel(|t| {
                t.exec(code);
                let mut rng = rng_for("canneal-swaps", seed ^ t.tid() as u64);
                for _ in 0..self.swaps_per_step {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    if a == b {
                        continue;
                    }
                    // Evaluate the swap: walk both elements' nets.
                    let mut delta = 0.0f32;
                    let mut loc = locations.borrow_mut();
                    for (e, other) in [(a, b), (b, a)] {
                        t.read(a_off + e as u64 * 4, 4);
                        t.read(a_off + (e + 1) as u64 * 4, 4);
                        let (lo, hi) = (nlr.offsets[e] as usize, nlr.offsets[e + 1] as usize);
                        let outs = &nlr.nets[lo..hi];
                        let ins = &revr[e];
                        for (which, group) in [(a_nets, outs), (a_rev, ins)] {
                            for &o in group {
                                t.read(which + e as u64 * 4, 4);
                                t.read(a_loc + o as u64 * 8, 8);
                                t.alu(8);
                                delta -= Self::wire_len(&loc, e, o);
                                // Cost as if `e` stood at `other`'s spot.
                                let saved = loc[e];
                                loc[e] = loc[other];
                                delta += Self::wire_len(&loc, e, o);
                                loc[e] = saved;
                            }
                        }
                        t.branch(2);
                    }
                    // Metropolis acceptance.
                    t.alu(6);
                    t.branch(1);
                    let accept =
                        delta < 0.0 || rng.random::<f32>() < (-delta / temp.max(1e-3)).exp();
                    if accept {
                        loc.swap(a, b);
                        t.write(a_loc + a as u64 * 8, 8);
                        t.write(a_loc + b as u64 * 8, 8);
                    }
                }
            });
            temperature *= 0.4;
        }
        (nl, locations.into_inner())
    }
}

impl CpuWorkload for Canneal {
    fn name(&self) -> &'static str {
        "canneal"
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
    fn annealing_reduces_routing_cost() {
        let cn = Canneal {
            elements: 2_048,
            swaps_per_step: 3_000,
            steps: 4,
            seed: 9,
        };
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let (nl, placed) = cn.run_traced(&mut prof);
        let before = Canneal::total_cost(&nl, &nl.locations);
        let after = Canneal::total_cost(&nl, &placed);
        assert!(after < before, "cost {before} -> {after}");
    }

    #[test]
    fn random_walks_miss_hard() {
        // A netlist bigger than the small caches with few, scattered
        // swap evaluations: high miss rates at the low capacities.
        let cn = Canneal {
            elements: 65_536,
            swaps_per_step: 1_500,
            steps: 2,
            seed: 11,
        };
        let p = profile(&cn, &ProfileConfig::default()).expect("profile");
        let small = p.at_capacity(128 * 1024).miss_rate();
        let large = p.at_capacity(16 * 1024 * 1024).miss_rate();
        assert!(small > 0.1, "canneal must thrash small caches: {small}");
        assert!(small > large);
    }
}

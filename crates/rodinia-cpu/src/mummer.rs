//! MUMmer (OpenMP): serial Ukkonen suffix-tree construction followed by
//! parallel query alignment.
//!
//! The tree's node tables dwarf every cache configuration and the walks
//! visit them essentially at random — MUMmer is the working-set outlier
//! of the paper's Figures 8 and 10, and (uniquely among the Rodinia
//! workloads) carries a *large instruction footprint* (Figure 11), which
//! the oversized code regions here model.

use datasets::sequence::{self, SuffixTree, SIGMA};
use datasets::Scale;
use std::cell::RefCell;
use tracekit::{CpuWorkload, Profiler};

use crate::util::chunk;

/// The OpenMP MUMmer instance.
#[derive(Debug, Clone)]
pub struct MummerOmp {
    /// Reference length. Larger than the GPU default so the tree exceeds
    /// even the 16 MB cache, as the real genome-scale input does.
    pub ref_len: usize,
    /// Number of query reads.
    pub queries: usize,
    /// Read length.
    pub read_len: usize,
    /// Per-base error probability.
    pub error_rate: f64,
    /// Input seed.
    pub seed: u64,
}

impl MummerOmp {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> MummerOmp {
        MummerOmp {
            ref_len: scale.pick(6_000, 200_000, 1_000_000),
            queries: scale.pick(256, 5_000, 50_000),
            read_len: 25,
            error_rate: 0.12,
            seed: 31,
        }
    }

    /// Runs the traced alignment, returning per-query match lengths.
    pub fn run_traced(&self, prof: &mut Profiler) -> Vec<u32> {
        let reference = sequence::reference(self.ref_len, self.seed);
        let reads = sequence::reads(
            &reference,
            self.queries,
            self.read_len,
            self.error_rate,
            self.seed + 1,
        );
        let tree = SuffixTree::build(&reference);
        let (children, starts, ends, text) = tree.flatten();
        let nn = children.len() / SIGMA;
        let a_children = prof.alloc("children", (children.len() * 4) as u64);
        let a_starts = prof.alloc("starts", (nn * 4) as u64);
        let a_ends = prof.alloc("ends", (nn * 4) as u64);
        let a_text = prof.alloc("text", text.len() as u64);
        let a_reads = prof.alloc("reads", (self.queries * self.read_len) as u64);
        let a_out = prof.alloc("matches", (self.queries * 4) as u64);
        // MUMmer's code size is far larger than the other Rodinia
        // workloads' (the paper's Figure 11 exception).
        let code_build = prof.code_region("ukkonen_build", 24_000);
        let code_match = prof.code_region("mummer_match", 14_000);
        let threads = prof.threads();

        // Serial tree construction: one traced write per node table
        // entry (a coarse but honest model of Ukkonen's pointer churn).
        prof.serial(|t| {
            t.exec(code_build);
            for v in 0..nn {
                t.read(a_text + (v % text.len()) as u64, 1);
                t.alu(9);
                t.branch(2);
                t.write(a_children + (v * SIGMA) as u64 * 4, 4);
                t.write(a_starts + v as u64 * 4, 4);
                t.write(a_ends + v as u64 * 4, 4);
            }
        });

        // Parallel matching.
        let out = RefCell::new(vec![0u32; self.queries]);
        let (ch, st, en, tx, rd) = (&children, &starts, &ends, &text, &reads);
        let rl = self.read_len;
        prof.parallel(|t| {
            t.exec(code_match);
            let mut out = out.borrow_mut();
            for q in chunk(self.queries, threads, t.tid()) {
                let mut node = 0usize;
                let mut on_edge = false;
                let (mut pos, mut end) = (0usize, 0usize);
                let mut matched = 0u32;
                for (i, &b) in rd[q].iter().enumerate() {
                    let c = sequence::base_code(b);
                    t.read(a_reads + (q * rl + i) as u64, 1);
                    t.branch(1);
                    if !on_edge {
                        t.read(a_children + (node * SIGMA + c) as u64 * 4, 4);
                        let child = ch[node * SIGMA + c] as usize;
                        if child == 0 {
                            break;
                        }
                        t.read(a_starts + child as u64 * 4, 4);
                        t.read(a_ends + child as u64 * 4, 4);
                        t.alu(4);
                        matched += 1;
                        let (s, e) = (st[child] as usize, en[child] as usize);
                        if s + 1 == e {
                            node = child;
                        } else {
                            on_edge = true;
                            pos = s + 1;
                            end = e;
                            node = child;
                        }
                    } else {
                        t.read(a_text + pos as u64, 1);
                        t.alu(3);
                        if tx[pos] as usize != c {
                            break;
                        }
                        matched += 1;
                        pos += 1;
                        if pos == end {
                            on_edge = false;
                        }
                    }
                }
                out[q] = matched;
                t.write(a_out + q as u64 * 4, 4);
            }
        });
        out.into_inner()
    }
}

impl CpuWorkload for MummerOmp {
    fn name(&self) -> &'static str {
        "mummergpu"
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
    fn matches_host_tree_walk() {
        let mum = MummerOmp {
            ref_len: 800,
            queries: 64,
            read_len: 20,
            error_rate: 0.1,
            seed: 5,
        };
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let got = mum.run_traced(&mut prof);
        let reference = sequence::reference(mum.ref_len, mum.seed);
        let reads = sequence::reads(
            &reference,
            mum.queries,
            mum.read_len,
            mum.error_rate,
            mum.seed + 1,
        );
        let tree = SuffixTree::build(&reference);
        let want: Vec<u32> = reads.iter().map(|r| tree.match_prefix(r) as u32).collect();
        assert_eq!(want, got);
    }

    #[test]
    fn mummer_has_a_large_working_set() {
        // Even at tiny scale the tree misses hard in small caches.
        let p = profile(&MummerOmp::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        let small = p.at_capacity(128 * 1024).miss_rate();
        let large = p.at_capacity(16 * 1024 * 1024).miss_rate();
        assert!(small > large);
        assert!(small > 0.05, "random tree walks must miss: {small}");
    }

    #[test]
    fn mummer_instruction_footprint_is_large() {
        let p = profile(&MummerOmp::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        // 38 kB of code regions = ~594 blocks of 64 B.
        assert!(p.instr_blocks > 500, "{}", p.instr_blocks);
    }
}

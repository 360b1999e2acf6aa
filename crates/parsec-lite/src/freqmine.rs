//! freqmine: frequent-itemset mining in the FP-growth style
//! (Table V: 990,000 transactions; Data Mining).
//!
//! The stages of the original are preserved: a parallel support-counting
//! scan, serial construction of a prefix tree (FP-tree) over frequent
//! items, and a mining pass that walks the tree's node links — the
//! branchy, pointer-chasing behavior that characterizes freqmine.

use datasets::{mining, Scale};
use std::cell::RefCell;
use std::collections::HashMap;
use tracekit::{CpuWorkload, Profiler};

use crate::catalog::chunk;

/// The freqmine instance.
#[derive(Debug, Clone)]
pub struct Freqmine {
    /// Transaction count.
    pub transactions: usize,
    /// Item-universe size.
    pub items: usize,
    /// Minimum support (absolute count).
    pub min_support: usize,
    /// Input seed.
    pub seed: u64,
}

#[derive(Debug, Clone)]
struct FpNode {
    item: u32,
    count: u32,
    children: HashMap<u32, usize>,
}

impl Freqmine {
    /// Standard instance for a scale.
    pub fn new(scale: Scale) -> Freqmine {
        Freqmine {
            transactions: scale.pick(1_000, 30_000, 990_000),
            items: scale.pick(64, 256, 1_024),
            min_support: scale.pick(20, 300, 10_000),
            seed: 119,
        }
    }

    /// Runs the traced miner; returns `(frequent_single_items,
    /// frequent_pairs)` counts.
    pub fn run_traced(&self, prof: &mut Profiler) -> (usize, usize) {
        let txs = mining::transactions(self.transactions, self.items, 8, self.seed);
        let total_items: usize = txs.iter().map(Vec::len).sum();
        let a_txs = prof.alloc("transactions", (total_items * 4) as u64);
        let a_counts = prof.alloc("supports", (self.items * 4) as u64);
        let a_tree = prof.alloc("fp-tree", (total_items * 24) as u64);
        let code_count = prof.code_region("scan_supports", 7_000);
        let code_build = prof.code_region("fp_tree_build", 13_000);
        let code_mine = prof.code_region("fp_growth", 17_000);
        let threads = prof.threads();

        // Stage 1: parallel support counting with per-thread histograms.
        let partial = RefCell::new(vec![vec![0u32; self.items]; threads]);
        let tr = &txs;
        prof.parallel(|t| {
            t.exec(code_count);
            let mut hist = partial.borrow_mut();
            let mut cursor = 0u64;
            for ti in chunk(tr.len(), threads, t.tid()) {
                for &item in &tr[ti] {
                    t.read(a_txs + cursor * 4, 4);
                    cursor += 1;
                    t.update(a_counts + item as u64 * 4, 4, 1);
                    hist[t.tid()][item as usize] += 1;
                }
                t.branch(1);
            }
        });
        let mut support = vec![0u32; self.items];
        for h in partial.into_inner() {
            for (s, v) in support.iter_mut().zip(h) {
                *s += v;
            }
        }
        let frequent: Vec<u32> = (0..self.items as u32)
            .filter(|&i| support[i as usize] as usize >= self.min_support)
            .collect();

        // Stage 2: serial FP-tree build over frequent items, in
        // support-descending order.
        let mut order: Vec<u32> = frequent.clone();
        order.sort_by_key(|&i| std::cmp::Reverse(support[i as usize]));
        let rank: HashMap<u32, usize> = order.iter().enumerate().map(|(r, &i)| (i, r)).collect();
        let mut nodes = vec![FpNode {
            item: u32::MAX,
            count: 0,
            children: HashMap::new(),
        }];
        prof.serial(|t| {
            t.exec(code_build);
            for tx in tr {
                let mut path: Vec<u32> = tx
                    .iter()
                    .copied()
                    .filter(|i| rank.contains_key(i))
                    .collect();
                path.sort_by_key(|i| rank[i]);
                let mut cur = 0usize;
                for item in path {
                    t.read(a_tree + cur as u64 * 24, 24);
                    t.alu(4);
                    t.branch(1);
                    cur = if let Some(&c) = nodes[cur].children.get(&item) {
                        nodes[c].count += 1;
                        t.write(a_tree + c as u64 * 24, 4);
                        c
                    } else {
                        let id = nodes.len();
                        nodes.push(FpNode {
                            item,
                            count: 1,
                            children: HashMap::new(),
                        });
                        nodes[cur].children.insert(item, id);
                        t.write(a_tree + id as u64 * 24, 24);
                        id
                    };
                }
            }
        });

        // Stage 3: mine frequent pairs by walking the tree in parallel
        // over root branches.
        // Sorted so the mining trace never depends on HashMap iteration
        // order (node ids are insertion-ordered, hence deterministic).
        let mut roots: Vec<usize> = nodes[0].children.values().copied().collect();
        roots.sort_unstable();
        let pair_count = RefCell::new(0usize);
        let nd = &nodes;
        let sup = &support;
        let min_s = self.min_support as u32;
        prof.parallel(|t| {
            t.exec(code_mine);
            let mut local = 0usize;
            for ri in chunk(roots.len(), threads, t.tid()) {
                // DFS accumulating pair supports along root->node paths.
                let mut stack: Vec<(usize, Vec<u32>)> = vec![(roots[ri], Vec::new())];
                while let Some((nid, path)) = stack.pop() {
                    t.read(a_tree + nid as u64 * 24, 24);
                    t.alu(3);
                    t.branch(1);
                    let node = &nd[nid];
                    for &anc in &path {
                        // A (anc, node.item) co-occurrence with this
                        // node's count; approximate support check.
                        t.alu(2);
                        if node.count >= min_s
                            && sup[anc as usize] >= min_s
                            && sup[node.item as usize] >= min_s
                        {
                            local += 1;
                        }
                    }
                    let mut next = path.clone();
                    next.push(node.item);
                    let mut kids: Vec<usize> = node.children.values().copied().collect();
                    kids.sort_unstable();
                    for c in kids {
                        stack.push((c, next.clone()));
                    }
                }
            }
            *pair_count.borrow_mut() += local;
        });
        (frequent.len(), pair_count.into_inner())
    }
}

impl CpuWorkload for Freqmine {
    fn name(&self) -> &'static str {
        "freqmine"
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
    fn embedded_patterns_are_found() {
        let fm = Freqmine {
            transactions: 2_000,
            items: 100,
            min_support: 100,
            seed: 2,
        };
        let mut prof = Profiler::new(&ProfileConfig::default()).expect("profile");
        let (singles, pairs) = fm.run_traced(&mut prof);
        // The generator embeds frequent patterns in 40% of transactions;
        // their items and co-occurrences must surface.
        assert!(singles >= 5, "frequent singles {singles}");
        assert!(pairs > 0, "frequent pair paths {pairs}");
    }

    #[test]
    fn mining_is_branch_heavy() {
        let p = profile(&Freqmine::new(Scale::Tiny), &ProfileConfig::default()).expect("profile");
        let f = p.mix.fractions();
        assert!(f[1] > 0.05, "branch fraction {f:?}");
    }
}

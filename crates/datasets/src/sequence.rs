//! DNA-sequence generators for MUMmer (reference genome + short reads).

use rand::Rng;

use crate::rng_for;

/// The DNA alphabet used throughout.
pub const ALPHABET: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// A uniformly random DNA reference of `len` bases.
pub fn reference(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = rng_for("dna-ref", seed);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..4usize)])
        .collect()
}

/// Short reads sampled from `reference`, each `read_len` bases, with a
/// per-base mutation probability of `error_rate`. This mirrors
/// MUMmerGPU's workload: most reads align exactly to the suffix tree for
/// a long prefix, then diverge at a sequencing error.
pub fn reads(
    reference: &[u8],
    count: usize,
    read_len: usize,
    error_rate: f64,
    seed: u64,
) -> Vec<Vec<u8>> {
    assert!(reference.len() >= read_len, "reference shorter than reads");
    let mut rng = rng_for("dna-reads", seed);
    (0..count)
        .map(|_| {
            let start = rng.random_range(0..=reference.len() - read_len);
            reference[start..start + read_len]
                .iter()
                .map(|&b| {
                    if rng.random::<f64>() < error_rate {
                        ALPHABET[rng.random_range(0..4usize)]
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect()
}

/// Suffix-tree alphabet size (A, C, G, T, sentinel).
pub const SIGMA: usize = 5;

/// Maps a DNA base to its child-table index.
pub fn base_code(b: u8) -> usize {
    match b {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        b'T' => 3,
        _ => 4,
    }
}

/// A suffix tree over a DNA string, built with Ukkonen's online
/// algorithm in O(n).
#[derive(Debug, Clone)]
pub struct SuffixTree {
    /// The text, with a terminal sentinel appended.
    pub text: Vec<u8>,
    nodes: Vec<StNode>,
}

#[derive(Debug, Clone)]
struct StNode {
    /// Edge label is `text[start..end)`; `end == usize::MAX` means "to
    /// the end of the text" (a leaf).
    start: usize,
    end: usize,
    children: [u32; SIGMA],
    suffix_link: u32,
}

impl SuffixTree {
    /// Builds the suffix tree of `text` (a sentinel is appended
    /// internally).
    pub fn build(text: &[u8]) -> SuffixTree {
        let mut t = text.to_vec();
        t.push(b'$');
        let n = t.len();
        let mut nodes = vec![StNode {
            start: 0,
            end: 0,
            children: [0; SIGMA],
            suffix_link: 0,
        }];
        let (mut active_node, mut active_edge, mut active_len) = (0usize, 0usize, 0usize);
        let mut remainder = 0usize;
        for i in 0..n {
            let ci = base_code(t[i]);
            remainder += 1;
            let mut last_new: u32 = 0;
            while remainder > 0 {
                if active_len == 0 {
                    active_edge = i;
                }
                let ae = base_code(t[active_edge]);
                let child = nodes[active_node].children[ae] as usize;
                if child == 0 {
                    // Rule 2: new leaf directly under active_node.
                    let leaf = nodes.len() as u32;
                    nodes.push(StNode {
                        start: i,
                        end: usize::MAX,
                        children: [0; SIGMA],
                        suffix_link: 0,
                    });
                    nodes[active_node].children[ae] = leaf;
                    if last_new != 0 {
                        nodes[last_new as usize].suffix_link = active_node as u32;
                        last_new = 0;
                    }
                } else {
                    let edge_len = nodes[child].end.min(i + 1) - nodes[child].start;
                    if active_len >= edge_len {
                        // Walk down.
                        active_node = child;
                        active_len -= edge_len;
                        active_edge += edge_len;
                        continue;
                    }
                    if t[nodes[child].start + active_len] == t[i] {
                        // Rule 3: suffix already present; end this phase.
                        if last_new != 0 && active_node != 0 {
                            nodes[last_new as usize].suffix_link = active_node as u32;
                        }
                        active_len += 1;
                        break;
                    }
                    // Split the edge.
                    let split = nodes.len() as u32;
                    let child_start = nodes[child].start;
                    nodes.push(StNode {
                        start: child_start,
                        end: child_start + active_len,
                        children: [0; SIGMA],
                        suffix_link: 0,
                    });
                    nodes[active_node].children[ae] = split;
                    let leaf = nodes.len() as u32;
                    nodes.push(StNode {
                        start: i,
                        end: usize::MAX,
                        children: [0; SIGMA],
                        suffix_link: 0,
                    });
                    nodes[split as usize].children[ci] = leaf;
                    nodes[child].start = child_start + active_len;
                    let branch = base_code(t[child_start + active_len]);
                    nodes[split as usize].children[branch] = child as u32;
                    if last_new != 0 {
                        nodes[last_new as usize].suffix_link = split;
                    }
                    last_new = split;
                }
                remainder -= 1;
                if active_node == 0 && active_len > 0 {
                    active_len -= 1;
                    active_edge = i - remainder + 1;
                } else if active_node != 0 {
                    active_node = nodes[active_node].suffix_link as usize;
                }
            }
        }
        SuffixTree { text: t, nodes }
    }

    /// Number of tree nodes (including the root).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Length of the longest prefix of `query` that occurs as a
    /// substring of the text.
    pub fn match_prefix(&self, query: &[u8]) -> usize {
        let n = self.text.len();
        let mut node = 0usize;
        let mut matched = 0usize;
        let mut edge: Option<(usize, usize)> = None; // (node, pos)
        for &q in query {
            match edge {
                None => {
                    let child = self.nodes[node].children[base_code(q)] as usize;
                    if child == 0 {
                        break;
                    }
                    let start = self.nodes[child].start;
                    debug_assert_eq!(self.text[start], q);
                    matched += 1;
                    let end = self.nodes[child].end.min(n);
                    if start + 1 == end {
                        node = child;
                    } else {
                        edge = Some((child, start + 1));
                    }
                }
                Some((en, pos)) => {
                    if self.text[pos] != q {
                        return matched;
                    }
                    matched += 1;
                    let end = self.nodes[en].end.min(n);
                    if pos + 1 == end {
                        node = en;
                        edge = None;
                    } else {
                        edge = Some((en, pos + 1));
                    }
                }
            }
        }
        matched
    }

    /// Flattens the tree for GPU traversal: `(children, starts, ends,
    /// text_codes)`.
    pub fn flatten(&self) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let n = self.text.len();
        let children: Vec<u32> = self
            .nodes
            .iter()
            .flat_map(|nd| nd.children.into_iter())
            .collect();
        let starts: Vec<u32> = self.nodes.iter().map(|nd| nd.start as u32).collect();
        let ends: Vec<u32> = self.nodes.iter().map(|nd| nd.end.min(n) as u32).collect();
        let text: Vec<u32> = self.text.iter().map(|&b| base_code(b) as u32).collect();
        (children, starts, ends, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_dna() {
        let r = reference(1000, 1);
        assert_eq!(r.len(), 1000);
        assert!(r.iter().all(|b| ALPHABET.contains(b)));
    }

    #[test]
    fn reads_mostly_match_reference() {
        let r = reference(5000, 1);
        let rs = reads(&r, 100, 25, 0.02, 2);
        assert_eq!(rs.len(), 100);
        // With 2% error, most reads should appear verbatim in the
        // reference.
        let text = r.as_slice();
        let exact = rs
            .iter()
            .filter(|read| text.windows(25).any(|w| w == read.as_slice()))
            .count();
        assert!(exact > 40, "only {exact} exact reads");
    }

    #[test]
    fn zero_error_reads_are_substrings() {
        let r = reference(2000, 3);
        for read in reads(&r, 50, 20, 0.0, 4) {
            assert!(r.windows(20).any(|w| w == read.as_slice()));
        }
    }

    #[test]
    fn deterministic() {
        let r = reference(100, 9);
        assert_eq!(reads(&r, 5, 10, 0.1, 7), reads(&r, 5, 10, 0.1, 7));
    }
}

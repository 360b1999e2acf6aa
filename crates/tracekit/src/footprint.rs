//! Instruction and data footprints (the paper's Figures 11 and 12):
//! distinct 64-byte instruction blocks and 4 kB data blocks touched over
//! the whole execution.
//!
//! Every memory event of a profiled run lands here, so a touch must be
//! cheap. The profiler's bump allocators hand out data blocks densely
//! from address 0 and code blocks densely from a fixed code base, so
//! each footprint is a bitset over the block numbers from its base
//! ([`Footprints::with_bases`]), grown as blocks are touched. Memory
//! stays bounded for an outlier address: a block below the base, or
//! [`DENSE_BLOCKS`] or more above it, goes to a sparse set instead.

use std::collections::HashSet;

/// Block-granular footprint accumulators.
#[derive(Debug, Clone, Default)]
pub struct Footprints {
    instr_blocks: BlockSet,
    data_blocks: BlockSet,
}

/// Instruction-block granularity (bytes).
pub const INSTR_BLOCK: u64 = 64;
/// Data-block granularity (bytes).
pub const DATA_BLOCK: u64 = 4096;
/// Width of a footprint's dense window, in blocks: at most 128 kB of
/// bits per footprint, covering 4 GB of data or 64 MB of code.
pub const DENSE_BLOCKS: u64 = 1 << 20;

impl Footprints {
    /// Creates empty footprints whose dense windows start at address 0.
    pub fn new() -> Footprints {
        Footprints::default()
    }

    /// Creates empty footprints whose dense windows start at the blocks
    /// holding `data_base` and `code_base`: the first addresses the
    /// data and code allocators hand out.
    pub fn with_bases(data_base: u64, code_base: u64) -> Footprints {
        Footprints {
            instr_blocks: BlockSet::at(code_base / INSTR_BLOCK),
            data_blocks: BlockSet::at(data_base / DATA_BLOCK),
        }
    }

    /// Marks the instruction bytes `[base, base + len)` as executed.
    pub fn touch_code(&mut self, base: u64, len: u64) {
        let first = base / INSTR_BLOCK;
        let last = (base + len.max(1) - 1) / INSTR_BLOCK;
        for b in first..=last {
            self.instr_blocks.insert(b);
        }
    }

    /// Marks the data bytes `[addr, addr + size)` as touched.
    pub fn touch_data(&mut self, addr: u64, size: u64) {
        let first = addr / DATA_BLOCK;
        let last = (addr + size.max(1) - 1) / DATA_BLOCK;
        for b in first..=last {
            self.data_blocks.insert(b);
        }
    }

    /// Number of distinct 64-byte instruction blocks executed.
    pub fn instr_blocks(&self) -> usize {
        self.instr_blocks.len()
    }

    /// Number of distinct 4 kB data blocks touched.
    pub fn data_blocks(&self) -> usize {
        self.data_blocks.len()
    }
}

/// A set of block numbers: a bitset over the [`DENSE_BLOCKS`] blocks
/// from `origin`, and a sparse set for the rest.
#[derive(Debug, Clone, Default)]
struct BlockSet {
    /// Bit `i` of `bits` is block `origin + i`.
    origin: u64,
    bits: Vec<u64>,
    /// Set bits in `bits`.
    dense: usize,
    /// Blocks outside the dense window.
    sparse: HashSet<u64>,
}

impl BlockSet {
    fn at(origin: u64) -> BlockSet {
        BlockSet {
            origin,
            ..BlockSet::default()
        }
    }

    fn insert(&mut self, block: u64) {
        let i = block.wrapping_sub(self.origin);
        if i >= DENSE_BLOCKS {
            self.sparse.insert(block);
            return;
        }
        let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.dense += usize::from(self.bits[word] & bit == 0);
        self.bits[word] |= bit;
    }

    fn len(&self) -> usize {
        self.dense + self.sparse.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_blocks_count_distinct() {
        let mut f = Footprints::new();
        f.touch_code(0, 256); // blocks 0..=3
        f.touch_code(128, 64); // already covered
        f.touch_code(1024, 1); // block 16
        assert_eq!(f.instr_blocks(), 5);
    }

    #[test]
    fn data_blocks_are_4kb() {
        let mut f = Footprints::new();
        f.touch_data(0, 4);
        f.touch_data(4095, 2); // straddles into block 1
        f.touch_data(8192, 1);
        assert_eq!(f.data_blocks(), 3);
    }

    #[test]
    fn outlier_blocks_count_once_and_stay_sparse() {
        let mut f = Footprints::with_bases(5 * DATA_BLOCK, 0);
        f.touch_data(5 * DATA_BLOCK, 1); // the dense window starts here
        f.touch_data(0, 1); // below it
        f.touch_data(u64::MAX - 1, 1); // far above it
        f.touch_data(0, 1);
        f.touch_data(u64::MAX - 1, 1);
        f.touch_data((5 + DENSE_BLOCKS - 1) * DATA_BLOCK, 1); // last dense block
        assert_eq!(f.data_blocks(), 4);
        assert_eq!(f.data_blocks.sparse.len(), 2);
        assert_eq!(f.data_blocks.bits.len() as u64, DENSE_BLOCKS / 64);
    }

    #[test]
    fn empty_is_zero() {
        let f = Footprints::new();
        assert_eq!(f.instr_blocks(), 0);
        assert_eq!(f.data_blocks(), 0);
    }
}

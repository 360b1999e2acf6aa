//! Instruction-mix accounting (the paper's `mix-mt` Pin tool).

/// Counts of retired instructions by category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    /// Arithmetic/logic instructions.
    pub alu: u64,
    /// Branch instructions.
    pub branches: u64,
    /// Memory reads.
    pub reads: u64,
    /// Memory writes.
    pub writes: u64,
}

/// One instruction category of [`InstrMix`], for per-category fraction
/// queries (the sibling of `simt::MemSpace` on the CPU side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixClass {
    /// Arithmetic/logic.
    Alu,
    /// Branches.
    Branch,
    /// Memory reads.
    Read,
    /// Memory writes.
    Write,
}

impl InstrMix {
    /// Total instructions.
    pub fn total(&self) -> u64 {
        self.alu + self.branches + self.reads + self.writes
    }

    /// Fraction of instructions in `class` — 0 when the mix is empty,
    /// mirroring the zero-total guard of `simt::MemMix::fraction` so an
    /// unprofiled workload can never poison downstream feature vectors
    /// with NaN.
    pub fn fraction(&self, class: MixClass) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let n = match class {
            MixClass::Alu => self.alu,
            MixClass::Branch => self.branches,
            MixClass::Read => self.reads,
            MixClass::Write => self.writes,
        };
        n as f64 / t as f64
    }

    /// Fractions `[alu, branch, read, write]` (zeros when empty) — the
    /// feature vector used for the Figure 7 PCA.
    pub fn fractions(&self) -> [f64; 4] {
        [
            self.fraction(MixClass::Alu),
            self.fraction(MixClass::Branch),
            self.fraction(MixClass::Read),
            self.fraction(MixClass::Write),
        ]
    }

    /// Total memory references.
    pub fn memory_refs(&self) -> u64 {
        self.reads + self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let m = InstrMix {
            alu: 50,
            branches: 10,
            reads: 30,
            writes: 10,
        };
        let f = m.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert_eq!(m.memory_refs(), 40);
    }

    #[test]
    fn empty_mix_is_safe() {
        assert_eq!(InstrMix::default().fractions(), [0.0; 4]);
        // Per-category queries share the same zero-total guard.
        for class in [
            MixClass::Alu,
            MixClass::Branch,
            MixClass::Read,
            MixClass::Write,
        ] {
            let f = InstrMix::default().fraction(class);
            assert_eq!(f, 0.0, "{class:?} must guard the zero total");
        }
    }

    #[test]
    fn per_class_fractions_match_vector() {
        let m = InstrMix {
            alu: 50,
            branches: 10,
            reads: 30,
            writes: 10,
        };
        let f = m.fractions();
        assert_eq!(m.fraction(MixClass::Alu), f[0]);
        assert_eq!(m.fraction(MixClass::Branch), f[1]);
        assert_eq!(m.fraction(MixClass::Read), f[2]);
        assert_eq!(m.fraction(MixClass::Write), f[3]);
    }
}

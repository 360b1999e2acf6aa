//! The finding taxonomy: what the checkers and lints report.

use std::fmt;

/// How serious a finding is.
///
/// The split mirrors `compute-sanitizer` vs. profiler advice: dynamic
/// checkers report **errors** — undefined behavior on real hardware
/// (races, divergent barriers, out-of-bounds and uninitialized reads) —
/// while static lints report **warnings** — access shapes that are
/// merely slow (bank conflicts, uncoalesced or redundant global
/// traffic). `repro check` and the CI gate fail only on errors: warnings
/// are legitimate on shipping Rodinia kernels (NW's tiled kernel has the
/// paper's "copious" 16-way bank conflicts by design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Performance advice; does not gate.
    Warning,
    /// Undefined or out-of-contract behavior; gates `repro check`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The class of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingKind {
    /// Conflicting same-word shared-memory accesses from different warps
    /// within one barrier interval (data race).
    SharedRace,
    /// Warps of one CTA disagreeing at a barrier (`__syncthreads`
    /// reached by a strict subset of the CTA's live warps).
    BarrierDivergence,
    /// Global/texture/constant load past an allocation's extent.
    GlobalOutOfBoundsLoad,
    /// Global store past an allocation's extent.
    GlobalOutOfBoundsStore,
    /// Shared-memory access past the CTA's declared scratch.
    SharedOutOfBounds,
    /// Read of an uninitialized global allocation before any kernel
    /// wrote the word.
    GlobalReadBeforeWrite,
    /// Read of a shared-memory word no thread of the CTA has written
    /// (shared memory is uninitialized on real hardware).
    SharedReadBeforeWrite,
    /// Launch abandoned for a reason no tape event captures (watchdog,
    /// empty grid, occupancy failure, ...).
    LaunchFailure,
    /// Lint: shared-memory access pattern with a high bank-conflict
    /// degree (e.g. a power-of-two row stride; padding the row fixes it).
    BankConflict,
    /// Lint: per-warp global access shape coalescing into many more
    /// segments than a dense access would.
    UncoalescedGlobal,
    /// Lint: the same global segments re-fetched many times within one
    /// CTA — a shared-memory staging opportunity.
    RedundantGlobal,
    /// Lint: `HashMap`/`HashSet` iteration feeding rendered output
    /// without an intervening sort (source-scan determinism check).
    UnorderedIteration,
    /// Contract proof: two warps' inferred affine access forms collide on
    /// the same word within one barrier interval for *some* admissible
    /// grid — a race provable for all launches of that shape, with a
    /// concrete witness.
    ContractRace,
    /// Contract proof: an op site's inferred access form exceeds its
    /// allocation's extent at the observed launch geometry.
    ContractOutOfBounds,
    /// Contract caveat: an op site whose access pattern changes *class*
    /// with scale (affine at tiny grids, non-affine at the verification
    /// scale) — tiny-grid evidence cannot be trusted to characterize
    /// it. Like [`FindingKind::NonAffineAccess`], this marks evidence
    /// quality, not a proven violation, so it is a warning.
    ContractScaleVariance,
    /// Contract caveat: an op site whose addresses fit no affine form —
    /// summarized as an interval, with race/bounds proofs for it skipped
    /// (soundness gap, reported so it is visible).
    NonAffineAccess,
}

impl FindingKind {
    /// The severity class of this kind.
    pub fn severity(self) -> Severity {
        match self {
            FindingKind::BankConflict
            | FindingKind::UncoalescedGlobal
            | FindingKind::RedundantGlobal
            | FindingKind::UnorderedIteration
            | FindingKind::ContractScaleVariance
            | FindingKind::NonAffineAccess => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Stable machine-readable name (used in the JSON report).
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::SharedRace => "shared-race",
            FindingKind::BarrierDivergence => "barrier-divergence",
            FindingKind::GlobalOutOfBoundsLoad => "global-oob-load",
            FindingKind::GlobalOutOfBoundsStore => "global-oob-store",
            FindingKind::SharedOutOfBounds => "shared-oob",
            FindingKind::GlobalReadBeforeWrite => "global-read-before-write",
            FindingKind::SharedReadBeforeWrite => "shared-read-before-write",
            FindingKind::LaunchFailure => "launch-failure",
            FindingKind::BankConflict => "lint-bank-conflict",
            FindingKind::UncoalescedGlobal => "lint-uncoalesced-global",
            FindingKind::RedundantGlobal => "lint-redundant-global",
            FindingKind::UnorderedIteration => "lint-unordered-iteration",
            FindingKind::ContractRace => "contract-race",
            FindingKind::ContractOutOfBounds => "contract-oob",
            FindingKind::ContractScaleVariance => "contract-scale-variance",
            FindingKind::NonAffineAccess => "contract-non-affine",
        }
    }

    /// Every kind, in report order.
    pub fn all() -> [FindingKind; 16] {
        [
            FindingKind::SharedRace,
            FindingKind::BarrierDivergence,
            FindingKind::GlobalOutOfBoundsLoad,
            FindingKind::GlobalOutOfBoundsStore,
            FindingKind::SharedOutOfBounds,
            FindingKind::GlobalReadBeforeWrite,
            FindingKind::SharedReadBeforeWrite,
            FindingKind::LaunchFailure,
            FindingKind::BankConflict,
            FindingKind::UncoalescedGlobal,
            FindingKind::RedundantGlobal,
            FindingKind::UnorderedIteration,
            FindingKind::ContractRace,
            FindingKind::ContractOutOfBounds,
            FindingKind::ContractScaleVariance,
            FindingKind::NonAffineAccess,
        ]
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported issue: a kind, where it was seen, and how often.
///
/// Checkers coalesce repeats — one finding per `(kind, kernel, subject)`
/// with `count` occurrences and the first occurrence's detail in
/// `message` — so a race on every element of a tile reads as one line,
/// not ten thousand.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The finding class.
    pub kind: FindingKind,
    /// Kernel (or source file, for determinism lints) the finding is in.
    pub kernel: String,
    /// The buffer / allocation / site the finding concerns.
    pub subject: String,
    /// First-occurrence detail, human-readable.
    pub message: String,
    /// Number of coalesced occurrences.
    pub count: u64,
}

impl Finding {
    /// The severity of this finding (derived from its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {} ({}): {}",
            self.severity(),
            self.kind,
            self.kernel,
            self.subject,
            self.message
        )?;
        if self.count > 1 {
            write!(f, " [x{}]", self.count)?;
        }
        Ok(())
    }
}

/// Returns the number of error-severity findings in `findings`.
pub fn error_count(findings: &[Finding]) -> usize {
    findings
        .iter()
        .filter(|f| f.severity() == Severity::Error)
        .count()
}

/// Returns the number of warning-severity findings in `findings`.
pub fn warning_count(findings: &[Finding]) -> usize {
    findings
        .iter()
        .filter(|f| f.severity() == Severity::Warning)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_split_matches_taxonomy() {
        assert_eq!(FindingKind::SharedRace.severity(), Severity::Error);
        assert_eq!(FindingKind::BankConflict.severity(), Severity::Warning);
        assert_eq!(
            FindingKind::UnorderedIteration.severity(),
            Severity::Warning
        );
        assert_eq!(FindingKind::ContractRace.severity(), Severity::Error);
        assert_eq!(FindingKind::ContractOutOfBounds.severity(), Severity::Error);
        assert_eq!(
            FindingKind::ContractScaleVariance.severity(),
            Severity::Warning
        );
        assert_eq!(FindingKind::NonAffineAccess.severity(), Severity::Warning);
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = FindingKind::all().iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn display_includes_count_suffix_only_when_coalesced() {
        let mut f = Finding {
            kind: FindingKind::SharedRace,
            kernel: "k".into(),
            subject: "shared f32".into(),
            message: "word 3".into(),
            count: 1,
        };
        assert!(!format!("{f}").contains("[x"));
        f.count = 4;
        assert!(format!("{f}").contains("[x4]"));
    }
}

//! Mapping between fault-injection classes and finding kinds.
//!
//! The 19-class [`simt::fault`] harness doubles as the sanitizer's
//! true-positive corpus: for every memory/barrier saboteur the checkers
//! must not just *flag* the launch but classify it as the right kind of
//! bug. [`expected_kind`] is the ground truth, [`classify_findings`] is
//! what the checkers actually conclude from a launch's findings; the
//! corpus test asserts they agree.

use simt::fault::Fault;

use crate::finding::{Finding, FindingKind, Severity};

/// The finding kind the sanitizer must report for a fault class, or
/// `None` for classes outside the dynamic checkers' scope
/// (configuration and replay-plumbing faults fail before or after any
/// kernel runs, so there is no launch to classify).
pub fn expected_kind(fault: Fault) -> Option<FindingKind> {
    match fault {
        Fault::OutOfRangeLoad => Some(FindingKind::GlobalOutOfBoundsLoad),
        Fault::OutOfRangeStore => Some(FindingKind::GlobalOutOfBoundsStore),
        Fault::SharedOutOfRange => Some(FindingKind::SharedOutOfBounds),
        Fault::BarrierDivergence => Some(FindingKind::BarrierDivergence),
        _ => None,
    }
}

/// The kind of the first error-severity finding (findings come in
/// taxonomy order), or `None` when there is none.
pub fn classify_findings(findings: &[Finding]) -> Option<FindingKind> {
    findings
        .iter()
        .find(|f| f.severity() == Severity::Error)
        .map(|f| f.kind)
}

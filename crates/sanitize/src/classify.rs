//! Mapping between fault-injection classes and finding kinds.
//!
//! The 19-class [`simt::fault`] harness doubles as the sanitizer's
//! true-positive corpus: for every memory/barrier saboteur the checkers
//! must not just *flag* the launch but classify it as the right kind of
//! bug. [`expected_kind`] is the ground truth, [`classify_tape`] is what
//! the checkers actually conclude from a tape; the corpus test asserts
//! they agree.

use simt::fault::Fault;
use simt::LaunchTape;

use crate::dynamic::analyze_tape;
use crate::finding::{FindingKind, Severity};

/// The finding kind the sanitizer must report for a fault class, or
/// `None` for classes outside the dynamic checkers' scope
/// (configuration and replay-plumbing faults fail before or after any
/// kernel runs, so there is no tape to classify).
pub fn expected_kind(fault: Fault) -> Option<FindingKind> {
    match fault {
        Fault::OutOfRangeLoad => Some(FindingKind::GlobalOutOfBoundsLoad),
        Fault::OutOfRangeStore => Some(FindingKind::GlobalOutOfBoundsStore),
        Fault::SharedOutOfRange => Some(FindingKind::SharedOutOfBounds),
        Fault::BarrierDivergence => Some(FindingKind::BarrierDivergence),
        _ => None,
    }
}

/// Runs the dynamic checkers on one tape and returns the kind of the
/// most severe finding (ties broken by taxonomy order), or `None` for a
/// clean tape.
pub fn classify_tape(tape: &LaunchTape) -> Option<FindingKind> {
    analyze_tape(tape)
        .iter()
        .find(|f| f.severity() == Severity::Error)
        .map(|f| f.kind)
}

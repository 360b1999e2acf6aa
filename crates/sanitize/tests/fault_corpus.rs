//! The `simt::fault` harness as the sanitizer's true-positive corpus.
//!
//! Every fault class that corrupts memory behavior or barrier structure
//! must stream a launch from which the sanitizer reproduces and
//! *classifies* the fault ([`sanitize::expected_kind`] maps class to
//! finding kind). Classes whose fault lives before any launch
//! (configuration and trace-replay faults) have no expected kind and
//! must produce no misclassification from whatever launches they do
//! make.

use sanitize::{classify_findings, expected_kind, Analyzer, Finding, FindingKind, Severity};
use simt::fault::{inject, inject_sink, Fault};

/// Runs `fault`'s scenario under a fresh [`Analyzer`] and returns the
/// outcome, the number of launches the analyzer saw and its findings.
fn analyze(fault: Fault) -> (Result<String, simt::SimError>, u64, Vec<Finding>) {
    let (outcome, analyzer) = inject_sink(fault, Analyzer::new());
    (outcome, analyzer.launches(), analyzer.finish())
}

#[test]
fn every_memory_and_barrier_fault_is_caught_and_classified() {
    let mut covered = 0;
    for fault in Fault::all() {
        let Some(expected) = expected_kind(fault) else {
            continue;
        };
        covered += 1;
        let (outcome, launches, findings) = analyze(fault);
        assert!(
            outcome.is_err(),
            "{fault:?}: scenario no longer faults; corpus is stale"
        );
        assert_eq!(launches, 1, "{fault:?}: the faulting launch was not taped");
        assert_eq!(
            classify_findings(&findings),
            Some(expected),
            "{fault:?}: sanitizer findings {findings:?}"
        );
    }
    // The corpus covers the four memory/barrier classes; a new Fault
    // variant with dynamic-checker semantics must extend expected_kind.
    assert_eq!(covered, 4, "fault corpus shrank");
}

#[test]
fn config_and_replay_faults_are_never_misclassified() {
    // Faults with no expected kind live outside the kernel's memory or
    // barrier behavior. An aborted launch may faithfully relay its
    // abort as a LaunchFailure, but any memory/barrier classification
    // would be a false positive.
    for fault in Fault::all() {
        if expected_kind(fault).is_some() {
            continue;
        }
        let (_outcome, _, findings) = analyze(fault);
        let misclassified: Vec<_> = findings
            .into_iter()
            .filter(|f| f.severity() == Severity::Error && f.kind != FindingKind::LaunchFailure)
            .collect();
        assert!(
            misclassified.is_empty(),
            "{fault:?}: spurious sanitizer errors {misclassified:?}"
        );
    }
}

#[test]
fn sanitizer_off_by_default_collects_nothing() {
    // A device starts with no sink, and a launch does not install one:
    // the zero-cost disabled path of the tracing contract. Taping does
    // not change a scenario's outcome either.
    use simt::{Gpu, GpuConfig};

    let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
    assert!(gpu.take_tape_sink::<Analyzer>().is_none());
    for fault in [Fault::OutOfRangeLoad, Fault::BarrierDivergence] {
        let (taped, _, _) = analyze(fault);
        assert!(taped.is_err(), "{fault:?}");
        assert_eq!(inject(fault), taped, "{fault:?}");
    }
}

/// A faulting index past `u32::MAX` must tape as out of range rather
/// than wrap into the buffer: `MemAccess::faulted` promises that the
/// last taped word is the out-of-range one.
#[test]
fn an_index_past_u32_max_is_taped_out_of_range() {
    use simt::{BufF32, Gpu, GpuConfig, GridShape, Kernel, PhaseControl, SimError, WarpCtx};

    struct Wide(BufF32);
    impl Kernel for Wide {
        fn name(&self) -> &str {
            "wide"
        }
        fn shape(&self) -> GridShape {
            GridShape::new(1, 32)
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) -> PhaseControl {
            w.ld_f32(self.0, |lane, _| (lane == 0).then_some((1usize << 32) + 1));
            PhaseControl::Done
        }
    }

    let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
    let victim = gpu.mem_mut().alloc_f32("victim", &[0.0; 128]);
    gpu.set_tape_sink(Box::new(Analyzer::new()));
    match gpu.try_launch(&Wide(victim)) {
        Err(SimError::KernelFault { reason, .. }) => {
            assert_eq!(reason, "read out of bounds: victim[4294967297] (len 128)");
        }
        other => panic!("expected a kernel fault, got {other:?}"),
    }
    let analyzer: Analyzer = gpu.take_tape_sink().expect("the analyzer is installed");
    assert_eq!(analyzer.launches(), 1);
    assert_eq!(
        classify_findings(&analyzer.finish()),
        Some(FindingKind::GlobalOutOfBoundsLoad)
    );
}

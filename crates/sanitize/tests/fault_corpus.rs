//! The `simt::fault` harness as the sanitizer's true-positive corpus.
//!
//! Every fault class that corrupts memory behavior or barrier structure
//! must leave a tape from which the sanitizer reproduces and *classifies*
//! the fault ([`sanitize::expected_kind`] maps class to finding kind).
//! Classes whose fault lives before any launch (configuration and
//! trace-replay faults) have no expected kind and must produce no
//! misclassification from whatever tapes they do leave.

use sanitize::{analyze_tape, classify_tape, expected_kind, Analyzer, FindingKind, Severity};
use simt::fault::{inject_sink, inject_with, Fault};

#[test]
fn every_memory_and_barrier_fault_is_caught_and_classified() {
    let mut covered = 0;
    for fault in Fault::all() {
        let Some(expected) = expected_kind(fault) else {
            continue;
        };
        covered += 1;
        let (outcome, tapes) = inject_with(fault, true);
        assert!(
            outcome.is_err(),
            "{fault:?}: scenario no longer faults; corpus is stale"
        );
        assert!(
            !tapes.is_empty(),
            "{fault:?}: faulting launch produced no tape"
        );
        let kinds: Vec<_> = tapes.iter().filter_map(classify_tape).collect();
        assert!(
            kinds.contains(&expected),
            "{fault:?}: expected {expected:?}, sanitizer classified {kinds:?}"
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
        let (_outcome, tapes) = inject_with(fault, true);
        for tape in &tapes {
            let misclassified: Vec<_> = analyze_tape(tape)
                .into_iter()
                .filter(|f| f.severity() == Severity::Error && f.kind != FindingKind::LaunchFailure)
                .collect();
            assert!(
                misclassified.is_empty(),
                "{fault:?}: spurious sanitizer errors {misclassified:?}"
            );
        }
    }
}

#[test]
fn sanitizer_off_by_default_collects_nothing() {
    // `inject_with(_, false)` must not install a sink: the zero-cost
    // disabled path of the tracing contract.
    for fault in [Fault::OutOfRangeLoad, Fault::BarrierDivergence] {
        let (outcome, tapes) = inject_with(fault, false);
        assert!(outcome.is_err());
        assert!(tapes.is_empty(), "{fault:?}: tape without a sink");
    }
}

/// A faulting index past `u32::MAX` must tape as out of range rather
/// than wrap into the buffer: `MemAccess::faulted` promises that the
/// last taped word is the out-of-range one.
#[test]
fn an_index_past_u32_max_is_taped_out_of_range() {
    use std::sync::{Arc, Mutex};

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
    let tapes = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&tapes);
    gpu.set_sanitizer_sink(move |t| sink.lock().unwrap().push(t));
    match gpu.try_launch(&Wide(victim)) {
        Err(SimError::KernelFault { reason, .. }) => {
            assert_eq!(reason, "read out of bounds: victim[4294967297] (len 128)");
        }
        other => panic!("expected a kernel fault, got {other:?}"),
    }
    let tapes = tapes.lock().unwrap();
    let [tape] = tapes.as_slice() else {
        panic!("{} tapes for one launch", tapes.len());
    };
    assert_eq!(
        classify_tape(tape),
        Some(FindingKind::GlobalOutOfBoundsLoad)
    );
}

/// Folding the events as each scenario executes must find exactly what
/// analyzing the scenario's collected tapes finds, for every class —
/// faulting launches, divergent barriers and aborts included.
#[test]
fn streamed_analysis_equals_analysis_of_collected_tapes() {
    for fault in Fault::all() {
        let (_, tapes) = inject_with(fault, true);
        let mut held = Analyzer::new();
        for tape in &tapes {
            held.observe(tape);
        }
        let (_, streamed) = inject_sink(fault, Analyzer::new());
        assert_eq!(streamed.launches(), tapes.len() as u64, "{fault:?}");
        let held = held.finish();
        if let [tape] = tapes.as_slice() {
            assert_eq!(analyze_tape(tape), held, "{fault:?}");
        }
        assert_eq!(streamed.finish(), held, "{fault:?}");
    }
}

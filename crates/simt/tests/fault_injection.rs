//! Exhaustive sweep of the fault-injection harness: every fault class
//! in [`simt::fault::Fault::all`] must produce a typed [`SimError`] (or
//! a documented degraded completion) — never a panic, never a hang.
//!
//! Each test finishes in milliseconds; a regression that reintroduces a
//! panic or an unbounded loop fails loudly here rather than wedging CI.

use simt::fault::{inject, Fault};
use simt::{Gpu, GpuConfig, SimError};

/// Which error variant each fault class is expected to surface as.
fn expected(fault: Fault, got: &SimError) -> bool {
    match fault {
        Fault::ZeroSms
        | Fault::ZeroWarpSize
        | Fault::SimdWiderThanWarp
        | Fault::ZeroDramChannels
        | Fault::NonPow2SegmentBytes
        | Fault::NonPow2SharedBanks
        | Fault::NanCoreClock
        | Fault::DegenerateCacheGeometry
        | Fault::OversizedCacheGeometry => matches!(got, SimError::InvalidConfig { .. }),
        Fault::ZeroSizedGrid => matches!(got, SimError::EmptyGrid { .. }),
        Fault::OutOfRangeLoad | Fault::OutOfRangeStore | Fault::SharedOutOfRange => {
            matches!(got, SimError::KernelFault { .. })
        }
        Fault::SharedOversubscription => matches!(got, SimError::LaunchFailed { .. }),
        Fault::BarrierDivergence => matches!(got, SimError::BarrierDivergence { .. }),
        Fault::NonTerminatingKernel => matches!(got, SimError::Watchdog { .. }),
        Fault::TruncatedTrace => matches!(got, SimError::Deadlock { .. }),
        Fault::WarpSizeMismatchTrace => matches!(got, SimError::WarpSizeMismatch { .. }),
        Fault::EmptyTraceList => matches!(got, SimError::EmptyLaunch),
    }
}

#[test]
fn every_fault_class_yields_its_typed_error() {
    for fault in Fault::all() {
        match inject(fault) {
            Err(e) => assert!(
                expected(fault, &e),
                "fault {fault:?} produced unexpected error {e:?}"
            ),
            Ok(desc) => panic!(
                "fault {fault:?} completed ({desc}); every current class \
                 must yield a typed error"
            ),
        }
    }
}

#[test]
fn fault_errors_render_human_readable_messages() {
    for fault in Fault::all() {
        let e = inject(fault).expect_err("all classes error");
        let msg = e.to_string();
        assert!(
            !msg.is_empty() && !msg.contains("SimError"),
            "fault {fault:?} message should be prose, got {msg:?}"
        );
    }
}

/// Injection must leave the process healthy: a normal launch still
/// works after the whole sweep (no poisoned globals, no leaked state).
#[test]
fn simulator_survives_full_sweep() {
    for fault in Fault::all() {
        let _ = inject(fault);
    }
    let mut gpu = Gpu::new(GpuConfig::gpgpusim_default());
    let data = gpu.mem_mut().alloc_f32("data", &[1.0; 256]);
    struct Doubler {
        data: simt::BufF32,
    }
    impl simt::Kernel for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn shape(&self) -> simt::GridShape {
            simt::GridShape::new(2, 128)
        }
        fn run_warp(&self, w: &mut simt::WarpCtx<'_>) -> simt::PhaseControl {
            let data = self.data;
            let x = w.ld_f32(data, |_, tid| Some(tid));
            w.alu(1);
            w.st_f32(data, |lane, tid| Some((tid, x[lane] * 2.0)));
            simt::PhaseControl::Done
        }
    }
    let stats = gpu
        .try_launch(&Doubler { data })
        .expect("healthy launch after sweep");
    assert!(stats.cycles > 0);
    assert_eq!(gpu.mem().read_f32(data)[0], 2.0);
}

/// The panicking wrappers still panic with the historical message
/// shapes, so downstream `should_panic` expectations keep holding.
#[test]
#[should_panic(expected = "invalid GPU configuration")]
fn panicking_wrapper_preserves_config_message() {
    let mut cfg = GpuConfig::gpgpusim_default();
    cfg.num_sms = 0;
    let _ = Gpu::new(cfg);
}

//! Typed errors for the simulation core.
//!
//! Every fallible entry point of the simulator (`Gpu::try_new`,
//! `Gpu::try_launch`, `try_trace_kernel`, `try_time_trace`,
//! `try_time_traces_concurrent`) reports failures through [`SimError`]
//! instead of panicking, so callers — sweep drivers, the fault-injection
//! harness, long-running experiment batches — can skip a bad
//! configuration or kernel and keep going. The original panicking entry
//! points remain as thin wrappers that format the same error.

use std::error::Error;
use std::fmt;

/// An error raised by the simulation core instead of a panic.
///
/// The `Display` impl produces the exact messages the historical
/// panicking API used, so `#[should_panic(expected = ...)]` tests and
/// log scrapers keep working when errors travel through the panicking
/// wrappers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A machine configuration failed [`crate::GpuConfig::validate`].
    InvalidConfig {
        /// Configuration name (`GpuConfig::name`).
        config: String,
        /// First inconsistency found.
        reason: String,
    },
    /// A kernel's per-CTA resources can never fit on an SM of the
    /// configuration (occupancy failure at launch).
    LaunchFailed {
        /// Kernel name.
        kernel: String,
        /// Which resource overflowed.
        reason: String,
    },
    /// A captured trace is being replayed under a configuration with a
    /// different warp size (traces encode warp-granular operations and
    /// cannot be re-warped).
    WarpSizeMismatch {
        /// Kernel name of the offending trace.
        kernel: String,
        /// Warp size the trace was captured with.
        trace_warp_size: usize,
        /// Warp size of the timing configuration.
        config_warp_size: u32,
    },
    /// A launch was requested with no kernels/traces at all.
    EmptyLaunch,
    /// A kernel declared a grid with zero blocks or zero threads per
    /// block.
    EmptyGrid {
        /// Kernel name.
        kernel: String,
    },
    /// The kernel misbehaved during functional execution — an
    /// out-of-bounds global, texture, constant, or shared access. The
    /// faulting warp's remaining lanes are suppressed and the launch is
    /// abandoned.
    KernelFault {
        /// Kernel name.
        kernel: String,
        /// Description of the faulting access.
        reason: String,
    },
    /// Warps of one CTA returned different [`crate::PhaseControl`]
    /// decisions — barrier divergence, undefined behavior on real
    /// hardware.
    BarrierDivergence {
        /// Kernel name.
        kernel: String,
        /// CTA (block) index.
        block: usize,
        /// Phase in which the disagreement occurred.
        phase: usize,
    },
    /// The launch watchdog expired: the run exceeded its cycle budget
    /// (timing replay) or its barrier-phase budget (functional trace
    /// capture; there `cycles` counts phases) without completing. See
    /// [`crate::config::WatchdogBudget`].
    Watchdog {
        /// Simulated cycles (or captured phases) elapsed when the
        /// budget expired.
        cycles: u64,
        /// Warps still live at expiry.
        warps_stuck: usize,
    },
    /// The scheduler found every live warp parked at a barrier that can
    /// never release — e.g. a truncated trace whose warps disagree on
    /// barrier counts.
    Deadlock {
        /// Cycle at which scheduling wedged.
        cycle: u64,
        /// Warps parked at barriers.
        warps_parked: usize,
    },
    /// A trace that replay cannot walk: one warp's memory ops name more
    /// or fewer segment addresses than its pool holds, or the warp has
    /// more than `u32::MAX` ops or pool addresses (see
    /// [`crate::trace::WarpTrace`]). Capture and the trace codec never
    /// build one; a hand-edited trace can.
    MalformedTrace {
        /// Kernel name.
        kernel: String,
        /// CTA index in the trace.
        cta: usize,
        /// Warp index in the CTA.
        warp: usize,
        /// What is wrong with the warp.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { config, reason } => {
                write!(f, "invalid GPU configuration {config}: {reason}")
            }
            SimError::LaunchFailed { kernel, reason } => {
                write!(f, "kernel {kernel} cannot launch: {reason}")
            }
            SimError::WarpSizeMismatch {
                kernel,
                trace_warp_size,
                config_warp_size,
            } => write!(
                f,
                "trace captured with a different warp size: kernel {kernel} \
                 was traced at warp size {trace_warp_size} but the \
                 configuration uses {config_warp_size}"
            ),
            SimError::EmptyLaunch => write!(f, "no kernels to execute"),
            SimError::EmptyGrid { kernel } => {
                write!(f, "kernel {kernel} declares an empty grid")
            }
            SimError::KernelFault { kernel, reason } => {
                write!(f, "kernel {kernel} faulted: {reason}")
            }
            SimError::BarrierDivergence {
                kernel,
                block,
                phase,
            } => write!(
                f,
                "warps of CTA {block} disagree on phase control in phase \
                 {phase} of kernel {kernel}"
            ),
            SimError::Watchdog {
                cycles,
                warps_stuck,
            } => write!(
                f,
                "watchdog expired after {cycles} cycles with {warps_stuck} \
                 warps still live"
            ),
            SimError::Deadlock {
                cycle,
                warps_parked,
            } => write!(
                f,
                "scheduling deadlock: all live warps parked at barriers \
                 (cycle {cycle}, {warps_parked} parked)"
            ),
            SimError::MalformedTrace {
                kernel,
                cta,
                warp,
                reason,
            } => write!(
                f,
                "malformed trace of kernel {kernel}: warp {warp} of CTA \
                 {cta}: {reason}"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_historical_panic_messages() {
        // The panicking wrappers format these errors verbatim; the
        // substrings below are what pre-existing `should_panic` tests
        // and downstream log scrapers match on.
        let e = SimError::LaunchFailed {
            kernel: "huge".into(),
            reason: "shared memory".into(),
        };
        assert!(e.to_string().contains("cannot launch"));
        let e = SimError::InvalidConfig {
            config: "c".into(),
            reason: "num_sms must be positive".into(),
        };
        assert!(e.to_string().contains("invalid GPU configuration"));
        let e = SimError::Deadlock {
            cycle: 7,
            warps_parked: 2,
        };
        assert!(e.to_string().contains("scheduling deadlock"));
        let e = SimError::BarrierDivergence {
            kernel: "k".into(),
            block: 3,
            phase: 1,
        };
        assert!(e.to_string().contains("disagree on phase control"));
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn Error> = Box::new(SimError::EmptyLaunch);
        assert_eq!(e.to_string(), "no kernels to execute");
    }
}

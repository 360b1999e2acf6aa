//! Typed errors for the instrumentation substrate.
//!
//! Mirrors the layering of `simt::SimError` and
//! `rodinia_study::StudyError`: every fallible `tracekit` entry point
//! — cache construction, profiling, trace capture and replay — returns
//! `Result<_, `[`TraceError`]`>` instead of panicking, so a malformed
//! cache geometry surfaces as a value the study drivers can propagate.

use std::error::Error;
use std::fmt;

/// Everything that can go wrong constructing or replaying the
/// instrumentation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// A cache geometry whose `bytes / (ways * line)` yields no
    /// complete set (including zero `ways` or `line`).
    CacheTooSmall {
        /// Requested capacity in bytes.
        bytes: u64,
        /// Requested associativity.
        ways: usize,
        /// Requested line size in bytes.
        line: u64,
    },
    /// A cache geometry whose set count is not a power of two, so the
    /// line-number-to-set mapping cannot be a mask.
    SetsNotPowerOfTwo {
        /// The set count implied by the geometry.
        sets: usize,
    },
    /// A line size that is not a power of two, so the address-to-line
    /// mapping cannot be a shift.
    LineNotPowerOfTwo {
        /// Requested line size in bytes.
        line: u64,
    },
    /// More logical threads than the packed trace word can address
    /// (thread ids are stored in the low byte of each trace word).
    TooManyThreads {
        /// Configured thread count.
        threads: usize,
        /// Largest supported thread count.
        max: usize,
    },
    /// A buffer that input size drives could not grow: the allocator
    /// refused, so the run stopped recording instead of aborting.
    BufferGrowth {
        /// The workload being traced; empty from [`Profiler::finish`],
        /// which is not told it.
        ///
        /// [`Profiler::finish`]: crate::Profiler::finish
        workload: &'static str,
        /// Which buffer: a tracer event stream or the capture words.
        buffer: &'static str,
        /// Bytes the buffer held when it could not grow.
        held: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::CacheTooSmall { bytes, ways, line } => write!(
                f,
                "cache smaller than one set: {bytes} B / ({ways} ways x {line} B lines)"
            ),
            TraceError::SetsNotPowerOfTwo { sets } => {
                write!(f, "set count must be a power of two, got {sets}")
            }
            TraceError::LineNotPowerOfTwo { line } => {
                write!(f, "line size must be a power of two, got {line}")
            }
            TraceError::TooManyThreads { threads, max } => {
                write!(
                    f,
                    "{threads} logical threads exceed the trace format's {max}"
                )
            }
            TraceError::BufferGrowth {
                workload,
                buffer,
                held,
            } => write!(
                f,
                "out of memory tracing {workload}: the {buffer} could not grow past {held} bytes"
            ),
        }
    }
}

impl Error for TraceError {}

impl TraceError {
    /// Names the workload in a [`TraceError::BufferGrowth`]; other
    /// errors pass through.
    pub(crate) fn traced(self, workload: &'static str) -> TraceError {
        match self {
            TraceError::BufferGrowth { buffer, held, .. } => TraceError::BufferGrowth {
                workload,
                buffer,
                held,
            },
            e => e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_the_historical_panic_text() {
        // PR-1 policy: typed errors keep the old assert messages so log
        // greps and should-panic expectations stay meaningful.
        let e = TraceError::CacheTooSmall {
            bytes: 64,
            ways: 4,
            line: 64,
        };
        assert!(e.to_string().contains("cache smaller than one set"));
        let e = TraceError::SetsNotPowerOfTwo { sets: 192 };
        assert!(e.to_string().contains("power of two"));
        assert!(TraceError::LineNotPowerOfTwo { line: 48 }
            .to_string()
            .contains("power of two"));
        assert!(TraceError::TooManyThreads {
            threads: 300,
            max: 256
        }
        .to_string()
        .contains("256"));
        let e = TraceError::BufferGrowth {
            workload: "",
            buffer: "capture words",
            held: 64,
        };
        let named = e.traced("dedup").to_string();
        assert!(named.contains("out of memory tracing dedup"), "{named}");
    }
}

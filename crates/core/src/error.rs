//! Typed errors for the experiment drivers.
//!
//! [`StudyError`] unifies the two substrate error types — `simt`'s
//! [`SimError`] for simulation faults and `analysis`'s
//! [`AnalysisError`] for statistics faults — with the registry-,
//! trace-cache- and rendering-level failures the drivers themselves
//! can hit. Every driver entry point returns `Result<_, StudyError>`;
//! there are no panicking wrappers.

use analysis::AnalysisError;
use simt::SimError;
use std::error::Error;
use std::fmt;
use tracekit::TraceError;

/// Everything that can go wrong while regenerating a paper artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyError {
    /// The GPU simulator rejected a configuration or launch.
    Sim(SimError),
    /// The statistics pipeline rejected its input.
    Analysis(AnalysisError),
    /// The CPU instrumentation substrate rejected a configuration
    /// (cache geometry, thread count) during capture or replay.
    Trace(TraceError),
    /// An artifact was requested from the wrong registry entry point.
    Registry {
        /// The experiment id, Debug-formatted.
        id: String,
        /// Why the entry point refused (e.g. "needs the comparison
        /// corpus; use run_comparison").
        reason: &'static str,
    },
    /// A table row whose width disagrees with its header.
    TableRow {
        /// Cells in the offending row.
        got: usize,
        /// Columns in the header.
        expected: usize,
    },
    /// A cached trace was replayed under a configuration whose
    /// capture-relevant parameters (warp size, shared banks, segment
    /// bytes) differ from those it was captured with.
    TraceReuse {
        /// Fingerprint (and config name) the trace was captured under.
        capture: String,
        /// Fingerprint (and config name) the replay asked for.
        replay: String,
    },
    /// A manifest or telemetry artifact could not be written.
    ///
    /// Holds the rendered `std::io::Error` message rather than the error
    /// itself so [`StudyError`] stays `Clone + PartialEq`.
    Io {
        /// Path of the artifact that failed.
        path: String,
        /// Rendered I/O error.
        reason: String,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Sim(e) => e.fmt(f),
            StudyError::Analysis(e) => e.fmt(f),
            StudyError::Trace(e) => e.fmt(f),
            StudyError::Registry { id, reason } => write!(f, "{id} {reason}"),
            StudyError::TableRow { got, expected } => write!(
                f,
                "row width mismatch: {got} cells for {expected} columns"
            ),
            StudyError::TraceReuse { capture, replay } => write!(
                f,
                "trace capture fingerprint mismatch: captured under {capture}, replayed under {replay}"
            ),
            StudyError::Io { path, reason } => write!(f, "cannot write {path}: {reason}"),
        }
    }
}

impl Error for StudyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StudyError::Sim(e) => Some(e),
            StudyError::Analysis(e) => Some(e),
            StudyError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for StudyError {
    fn from(e: SimError) -> StudyError {
        StudyError::Sim(e)
    }
}

impl From<AnalysisError> for StudyError {
    fn from(e: AnalysisError) -> StudyError {
        StudyError::Analysis(e)
    }
}

impl From<TraceError> for StudyError {
    fn from(e: TraceError) -> StudyError {
        StudyError::Trace(e)
    }
}

impl From<store::StoreError> for StudyError {
    /// Store failures surface as I/O errors: by the time one reaches a
    /// driver it has already exhausted the store's own retry and
    /// degradation ladder.
    fn from(e: store::StoreError) -> StudyError {
        match e {
            store::StoreError::Unavailable { dir, reason } => StudyError::Io { path: dir, reason },
            store::StoreError::Io { path, reason }
            | store::StoreError::Journal { path, reason } => StudyError::Io { path, reason },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_delegates_and_preserves_substrings() {
        let sim: StudyError = SimError::EmptyLaunch.into();
        assert_eq!(sim.to_string(), SimError::EmptyLaunch.to_string());
        let reg = StudyError::Registry {
            id: "Fig6".to_string(),
            reason: "needs the comparison corpus; use run_comparison",
        };
        assert!(reg.to_string().contains("needs the comparison corpus"));
        let row = StudyError::TableRow {
            got: 1,
            expected: 2,
        };
        assert!(row.to_string().contains("row width mismatch"));
    }

    #[test]
    fn trace_errors_wrap_and_chain() {
        let e: StudyError = TraceError::SetsNotPowerOfTwo { sets: 192 }.into();
        assert!(e.to_string().contains("power of two"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn source_chains_to_the_substrate_error() {
        let e: StudyError = AnalysisError::EmptyInput {
            what: "data matrix",
        }
        .into();
        assert!(std::error::Error::source(&e).is_some());
    }
}

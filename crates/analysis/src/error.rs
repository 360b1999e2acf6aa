//! Typed errors for the statistics pipeline.
//!
//! Mirrors `simt::SimError` on the analysis side: every malformed input
//! that used to `assert!` or index-panic in a hot path now surfaces as a
//! variant of [`AnalysisError`] through the `try_*` entry points, while
//! the original panicking functions remain as thin wrappers whose
//! messages preserve the historical panic text (so
//! `#[should_panic(expected = ...)]` tests and log scrapers keep
//! working).

use std::error::Error;
use std::fmt;

/// Everything that can go wrong while crunching a feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The input had no rows at all.
    EmptyInput {
        /// What was empty ("data matrix", "distance matrix", "PB design").
        what: &'static str,
    },
    /// Rows of a feature matrix disagree on width.
    RaggedMatrix {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// The width established by row 0.
        expected: usize,
    },
    /// A NaN or infinity where a finite number is required.
    NonFinite {
        /// Which structure held the value.
        what: &'static str,
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// An operation needs more observations than were supplied.
    TooFewObservations {
        /// The operation.
        what: &'static str,
        /// How many rows arrived.
        got: usize,
        /// The minimum that makes the operation meaningful.
        need: usize,
    },
    /// A distance matrix whose rows are not all `n` long.
    NotSquare {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// The number of rows (and therefore required row length).
        n: usize,
    },
    /// A flat-cluster cut with `k` outside `1..=n_leaves`.
    InvalidK {
        /// Requested cluster count.
        k: usize,
        /// Number of leaves in the tree.
        n_leaves: usize,
    },
    /// A Plackett–Burman design whose run count disagrees with the
    /// response vector.
    DesignMismatch {
        /// Rows in the design matrix.
        runs: usize,
        /// Entries in the response vector.
        responses: usize,
    },
    /// More factors than the design can screen.
    TooManyFactors {
        /// Requested factor count.
        factors: usize,
        /// The design's capacity.
        max: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::EmptyInput { what } => {
                write!(f, "empty {what}: nothing to analyze")
            }
            AnalysisError::RaggedMatrix { row, len, expected } => write!(
                f,
                "ragged feature matrix: row {row} has {len} values, expected {expected}"
            ),
            AnalysisError::NonFinite { what, row, col } => {
                write!(f, "non-finite value in {what} at row {row}, column {col}")
            }
            AnalysisError::TooFewObservations { what, got, need } => {
                write!(f, "{what} needs at least {need} observations, got {got}")
            }
            AnalysisError::NotSquare { row, len, n } => write!(
                f,
                "distance matrix must be square: row {row} has {len} entries for {n} items"
            ),
            AnalysisError::InvalidK { k, n_leaves } => {
                write!(f, "k out of range: k = {k} with {n_leaves} leaves")
            }
            AnalysisError::DesignMismatch { runs, responses } => write!(
                f,
                "one response per run: design has {runs} runs but {responses} responses"
            ),
            AnalysisError::TooManyFactors { factors, max } => {
                write!(f, "design supports up to {max} factors, got {factors}")
            }
        }
    }
}

impl Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The panicking wrappers format these errors with `panic!("{e}")`,
    /// so each Display string must contain the historical assert text
    /// downstream tests match on.
    #[test]
    fn display_preserves_historical_panic_messages() {
        let cases: Vec<(AnalysisError, &str)> = vec![
            (
                AnalysisError::EmptyInput {
                    what: "data matrix",
                },
                "empty data matrix",
            ),
            (
                AnalysisError::RaggedMatrix {
                    row: 2,
                    len: 3,
                    expected: 4,
                },
                "ragged feature matrix",
            ),
            (
                AnalysisError::NotSquare {
                    row: 1,
                    len: 2,
                    n: 3,
                },
                "distance matrix must be square",
            ),
            (
                AnalysisError::InvalidK { k: 0, n_leaves: 5 },
                "k out of range",
            ),
            (
                AnalysisError::DesignMismatch {
                    runs: 12,
                    responses: 2,
                },
                "one response per run",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "{err:?} renders {msg:?}, missing {needle:?}"
            );
        }
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn Error> = Box::new(AnalysisError::EmptyInput {
            what: "data matrix",
        });
        assert!(!e.to_string().is_empty());
    }
}

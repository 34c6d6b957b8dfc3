//! Error type for numeric routines.

use std::error::Error;
use std::fmt;

/// Error returned by numeric routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// The input slice was empty where at least one element is required.
    Empty {
        /// Name of the routine that failed.
        routine: &'static str,
    },
    /// The input slices had mismatched lengths.
    LengthMismatch {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// Too few points for the requested operation (e.g. regression through
    /// fewer than two points).
    TooFewPoints {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of points supplied.
        got: usize,
        /// Minimum number of points required.
        need: usize,
    },
    /// An input value was invalid (non-finite, non-positive where a log is
    /// taken, …).
    InvalidInput {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Explanation of what was wrong.
        reason: &'static str,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::Empty { routine } => write!(f, "{routine}: input is empty"),
            NumericError::LengthMismatch {
                routine,
                left,
                right,
            } => write!(f, "{routine}: input lengths differ ({left} vs {right})"),
            NumericError::TooFewPoints { routine, got, need } => {
                write!(f, "{routine}: needs at least {need} points, got {got}")
            }
            NumericError::InvalidInput { routine, reason } => {
                write!(f, "{routine}: invalid input ({reason})")
            }
            NumericError::NoConvergence {
                routine,
                iterations,
            } => write!(f, "{routine}: no convergence after {iterations} iterations"),
        }
    }
}

impl Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_routine() {
        let e = NumericError::Empty { routine: "mean" };
        assert!(e.to_string().contains("mean"));
        let e = NumericError::NoConvergence {
            routine: "golden_section_min",
            iterations: 10,
        };
        assert!(e.to_string().contains("golden_section_min"));
    }
}

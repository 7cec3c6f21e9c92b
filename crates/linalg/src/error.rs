//! Error type shared by all fallible linear-algebra routines.

use std::fmt;

/// Errors produced by `mtrl-linalg` operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Actual shape of the offending matrix.
        shape: (usize, usize),
    },
    /// Inversion hit a (numerically) singular pivot.
    Singular {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Index of the pivot at which singularity was detected.
        pivot: usize,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Human-readable name of the routine.
        op: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// Invalid argument (e.g. empty input where non-empty is required).
    InvalidArgument(String),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: shape mismatch {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { op, shape } => {
                write!(
                    f,
                    "{op}: matrix must be square, got {}x{}",
                    shape.0, shape.1
                )
            }
            LinalgError::Singular { op, pivot } => {
                write!(f, "{op}: singular matrix (pivot {pivot})")
            }
            LinalgError::NoConvergence { op, iterations } => {
                write!(f, "{op}: no convergence after {iterations} iterations")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(e.to_string(), "matmul: shape mismatch 2x3 vs 4x5");
    }

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular {
            op: "inverse",
            pivot: 3,
        };
        assert!(e.to_string().contains("singular"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(LinalgError::InvalidArgument("x".into()));
        assert!(e.to_string().contains("invalid argument"));
    }
}

//! Error types for the matrix-exponential and Krylov-subspace kernels.

use std::error::Error;
use std::fmt;

use exi_sparse::SparseError;

/// Errors produced by matrix function evaluation and Krylov subspace methods.
#[derive(Debug, Clone, PartialEq)]
pub enum KrylovError {
    /// An underlying sparse linear algebra operation failed (factorization,
    /// solve, dimension checks).
    Sparse(SparseError),
    /// The Arnoldi process did not reach the requested residual tolerance
    /// within the allowed subspace dimension.
    NotConverged {
        /// Maximum subspace dimension that was tried.
        max_dimension: usize,
        /// Residual norm at the last iteration.
        residual: f64,
        /// Requested tolerance.
        tolerance: f64,
    },
    /// The requested phi-function order is not supported.
    UnsupportedPhiOrder {
        /// Requested order.
        order: usize,
        /// Largest supported order.
        max_order: usize,
    },
    /// The supplied vector length does not match the operator dimension.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        found: usize,
    },
    /// The starting vector of a Krylov process is (numerically) zero.
    ZeroStartVector,
    /// The Arnoldi process produced a non-finite basis vector — the operator
    /// application overflowed (typically a solve against a nearly singular
    /// matrix). Surfaced as an error instead of letting NaN poison the
    /// Hessenberg matrix and panic downstream dense kernels.
    Breakdown {
        /// Subspace dimension reached when the breakdown was detected.
        dimension: usize,
    },
    /// A dense matrix function was asked for a matrix whose 1-norm is not
    /// finite (an infinite entry, or a column sum that overflows). Its
    /// exponential is not computable, and scaling-and-squaring would never
    /// finish trying.
    NonFiniteMatrix {
        /// The offending 1-norm (`inf` or `NaN`).
        norm: f64,
    },
}

impl fmt::Display for KrylovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KrylovError::Sparse(e) => write!(f, "sparse kernel error: {e}"),
            KrylovError::NotConverged { max_dimension, residual, tolerance } => write!(
                f,
                "krylov process not converged: residual {residual:.3e} > tol {tolerance:.3e} at m = {max_dimension}"
            ),
            KrylovError::UnsupportedPhiOrder { order, max_order } => {
                write!(f, "phi order {order} unsupported (max {max_order})")
            }
            KrylovError::DimensionMismatch { expected, found } => {
                write!(f, "vector length {found} does not match operator dimension {expected}")
            }
            KrylovError::ZeroStartVector => write!(f, "krylov start vector is zero"),
            KrylovError::Breakdown { dimension } => write!(
                f,
                "krylov basis became non-finite at dimension {dimension} (operator overflow)"
            ),
            KrylovError::NonFiniteMatrix { norm } => {
                write!(f, "dense matrix function of a matrix with non-finite 1-norm ({norm})")
            }
        }
    }
}

impl Error for KrylovError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KrylovError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for KrylovError {
    fn from(e: SparseError) -> Self {
        KrylovError::Sparse(e)
    }
}

/// Result alias for this crate.
pub type KrylovResult<T> = Result<T, KrylovError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = KrylovError::from(SparseError::Singular {
            column: 1,
            unknown: None,
        });
        assert!(e.to_string().contains("singular"));
        assert!(std::error::Error::source(&e).is_some());
        let e = KrylovError::NotConverged {
            max_dimension: 10,
            residual: 1.0,
            tolerance: 1e-7,
        };
        assert!(e.to_string().contains("not converged"));
        assert!(std::error::Error::source(&e).is_none());
        let e = KrylovError::ZeroStartVector;
        assert!(e.to_string().contains("zero"));
        let e = KrylovError::Breakdown { dimension: 4 };
        assert!(e.to_string().contains("non-finite"), "{e}");
        let e = KrylovError::NonFiniteMatrix {
            norm: f64::INFINITY,
        };
        assert!(e.to_string().contains("non-finite 1-norm (inf)"), "{e}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KrylovError>();
    }
}

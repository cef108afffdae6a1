//! The φ-functions of exponential integrators.
//!
//! The exponential Rosenbrock–Euler method (paper Eq. 8–9) is written in
//! terms of
//!
//! ```text
//! φ0(z) = e^z,   φ1(z) = (e^z - 1)/z,   φ2(z) = (e^z - 1 - z)/z²
//! ```
//!
//! generalized to matrix arguments. For a dense matrix `A` the whole family
//! `φ0..φp` is obtained from a single exponential of the augmented matrix
//!
//! ```text
//!        ┌ A  I  0 ┐                      ┌ e^A  φ1(A)  φ2(A) ┐
//!  W  =  │ 0  0  I │   with   exp(W)  =   │  0     I      I   │   (p = 2)
//!        └ 0  0  0 ┘                      └  0     0      I   ┘
//! ```
//!
//! whose first block row contains every φ-matrix (Sidje's augmented-matrix
//! trick). This keeps the small dense kernel to a single, well-tested code
//! path. The functions here are the full-matrix API; the Krylov front-ends
//! and [`crate::KrylovDecomposition`] only ever need the one column
//! `φ_p(A)·e₁` and read it off the `(n+p)`-square compression of `W`
//! instead (see the `decomposition` module).

use exi_sparse::DenseMatrix;

use crate::error::{KrylovError, KrylovResult};
use crate::expm::expm;

/// Largest φ order supported by [`phi_matrices`].
pub const MAX_PHI_ORDER: usize = 4;

/// Computes the matrices `[φ0(A), φ1(A), …, φ_order(A)]`.
///
/// # Errors
///
/// * [`KrylovError::UnsupportedPhiOrder`] if `order > MAX_PHI_ORDER`.
/// * Errors from [`expm`] if `a` is not square.
///
/// # Examples
///
/// ```
/// use exi_sparse::DenseMatrix;
/// use exi_krylov::phi_matrices;
///
/// # fn main() -> Result<(), exi_krylov::KrylovError> {
/// let a = DenseMatrix::from_rows(&[&[0.0]]);
/// let phis = phi_matrices(&a, 2)?;
/// // phi1(0) = 1, phi2(0) = 1/2
/// assert!((phis[1].get(0, 0) - 1.0).abs() < 1e-12);
/// assert!((phis[2].get(0, 0) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn phi_matrices(a: &DenseMatrix, order: usize) -> KrylovResult<Vec<DenseMatrix>> {
    if order > MAX_PHI_ORDER {
        return Err(KrylovError::UnsupportedPhiOrder {
            order,
            max_order: MAX_PHI_ORDER,
        });
    }
    if a.rows() != a.cols() {
        return Err(KrylovError::Sparse(exi_sparse::SparseError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        }));
    }
    let n = a.rows();
    if order == 0 {
        return Ok(vec![expm(a)?]);
    }
    let p = order;
    let dim = n + p * n;
    // Augmented matrix W.
    let mut w = DenseMatrix::zeros(dim, dim);
    for i in 0..n {
        for j in 0..n {
            let v = a.get(i, j);
            if v != 0.0 {
                w.set(i, j, v);
            }
        }
    }
    // Identity super-diagonal blocks.
    for block in 0..p {
        let row0 = block * n;
        let col0 = (block + 1) * n;
        for i in 0..n {
            w.set(row0 + i, col0 + i, 1.0);
        }
    }
    let e = expm(&w)?;
    let mut out = Vec::with_capacity(order + 1);
    // φ0 is the (0,0) block.
    let mut phi0 = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            phi0.set(i, j, e.get(i, j));
        }
    }
    out.push(phi0);
    // φk is the (0,k) block.
    for k in 1..=order {
        let col0 = k * n;
        let mut phik = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                phik.set(i, j, e.get(i, col0 + j));
            }
        }
        out.push(phik);
    }
    Ok(out)
}

/// Scalar φ-functions, used by tests and by step-size heuristics.
///
/// Numerically stable near `z = 0` via Taylor expansion.
pub fn phi_scalar(order: usize, z: f64) -> f64 {
    match order {
        0 => z.exp(),
        1 => {
            if z.abs() < 1e-5 {
                1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
            } else {
                (z.exp() - 1.0) / z
            }
        }
        2 => {
            if z.abs() < 1e-4 {
                0.5 + z / 6.0 + z * z / 24.0 + z * z * z / 120.0
            } else {
                (z.exp() - 1.0 - z) / (z * z)
            }
        }
        _ => {
            // Recursive definition: phi_{k}(z) = (phi_{k-1}(z) - 1/(k-1)!) / z.
            let mut fact = 1.0;
            for i in 1..order {
                fact *= i as f64;
            }
            if z.abs() < 1e-3 {
                // Taylor: phi_k(z) = sum_{j>=0} z^j / (j+k)!
                let mut sum = 0.0;
                let mut denom = {
                    let mut f = 1.0;
                    for i in 1..=order {
                        f *= i as f64;
                    }
                    f
                };
                let mut zj = 1.0;
                for j in 0..8 {
                    sum += zj / denom;
                    zj *= z;
                    denom *= (j + order + 1) as f64;
                }
                sum
            } else {
                (phi_scalar(order - 1, z) - 1.0 / fact) / z
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the formulas under test
mod tests {
    use super::*;

    #[test]
    fn scalar_phi_values() {
        assert!((phi_scalar(0, 1.0) - 1.0_f64.exp()).abs() < 1e-14);
        assert!((phi_scalar(1, 1.0) - (1.0_f64.exp() - 1.0)).abs() < 1e-14);
        assert!((phi_scalar(2, 1.0) - (1.0_f64.exp() - 2.0)).abs() < 1e-14);
        // Limits at zero.
        assert!((phi_scalar(1, 0.0) - 1.0).abs() < 1e-12);
        assert!((phi_scalar(2, 0.0) - 0.5).abs() < 1e-12);
        assert!((phi_scalar(3, 0.0) - 1.0 / 6.0).abs() < 1e-10);
    }

    #[test]
    fn phi_matrices_of_scalar_match_scalar_phi() {
        for &z in &[0.0, 0.3, -2.0, 5.0, -40.0] {
            let a = DenseMatrix::from_rows(&[&[z]]);
            let phis = phi_matrices(&a, 2).unwrap();
            for k in 0..=2 {
                let expected = phi_scalar(k, z);
                let got = phis[k].get(0, 0);
                let scale = expected.abs().max(1.0);
                assert!(
                    (got - expected).abs() / scale < 1e-10,
                    "phi_{k}({z}): got {got}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn phi_identity_relation_holds_for_matrices() {
        // z*phi1(z) = e^z - 1  =>  A*phi1(A) = e^A - I.
        let a = DenseMatrix::from_rows(&[&[-1.0, 0.3], &[0.2, -2.0]]);
        let phis = phi_matrices(&a, 2).unwrap();
        let lhs = a.matmul(&phis[1]);
        let rhs = phis[0].sub(&DenseMatrix::identity(2));
        for i in 0..2 {
            for j in 0..2 {
                assert!((lhs.get(i, j) - rhs.get(i, j)).abs() < 1e-12);
            }
        }
        // A^2*phi2(A) = e^A - I - A.
        let lhs2 = a.matmul(&a).matmul(&phis[2]);
        let rhs2 = phis[0].sub(&DenseMatrix::identity(2)).sub(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!((lhs2.get(i, j) - rhs2.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unsupported_order_rejected() {
        let a = DenseMatrix::identity(2);
        assert!(matches!(
            phi_matrices(&a, MAX_PHI_ORDER + 1),
            Err(KrylovError::UnsupportedPhiOrder { .. })
        ));
    }

    #[test]
    fn order_zero_is_plain_exponential() {
        let a = DenseMatrix::from_rows(&[&[0.7]]);
        let phis = phi_matrices(&a, 0).unwrap();
        assert_eq!(phis.len(), 1);
        assert!((phis[0].get(0, 0) - 0.7_f64.exp()).abs() < 1e-13);
    }
}

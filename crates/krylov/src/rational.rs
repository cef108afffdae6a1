//! MEVP via a rational (shift-and-invert) Krylov subspace.
//!
//! The paper cites the rational Krylov subspace of the MATEX power-grid work
//! as the fastest-converging option, at the price of factorizing the shifted
//! matrix `C + γG` whenever the shift changes. It is included here as an
//! ablation baseline so the benchmark suite can reproduce the convergence
//! comparison that motivates choosing the invert subspace for general
//! nonlinear circuits.

use exi_sparse::{vector, CsrMatrix, SparseLu};

use crate::arnoldi::drive;
use crate::decomposition::ProjectionKind;
use crate::error::{KrylovError, KrylovResult};
use crate::mevp::{MevpOptions, MevpOutcome, MevpWorkspace};
use crate::operator::ShiftInvertOperator;

/// Computes `e^{hJ}·v` with a shift-and-invert Krylov subspace built on
/// `(C + γG)⁻¹C`. The factorization of `C + γG` is performed internally.
///
/// Convergence is declared when two successively tested approximations
/// (from dimension `options.min_dimension` on) differ by less than
/// `options.tolerance` relative to `‖v‖`. Because the Arnoldi basis is
/// orthonormal, that difference is evaluated in the small coefficient space
/// (`‖y_m − y_{m−1}‖₂ = ‖V_m y_m − V_{m−1} y_{m−1}‖₂`) — the large basis is
/// never touched during the iteration.
///
/// # Errors
///
/// * [`KrylovError::ZeroStartVector`] if `v` is zero.
/// * [`KrylovError::NotConverged`] if the tolerance is not met within
///   `options.max_dimension`.
/// * Sparse kernel errors from the factorization of `C + γG` (for example
///   when both `C` and `G` rows are zero).
///
/// # Examples
///
/// ```
/// use exi_sparse::TripletMatrix;
/// use exi_krylov::{mevp_rational_krylov, MevpOptions};
///
/// # fn main() -> Result<(), exi_krylov::KrylovError> {
/// let mut c = TripletMatrix::new(2, 2);
/// c.push(0, 0, 1.0);
/// c.push(1, 1, 1.0);
/// let c = c.to_csr();
/// let mut g = TripletMatrix::new(2, 2);
/// g.push(0, 0, 2.0);
/// g.push(1, 1, 4.0);
/// let g = g.to_csr();
/// let h = 0.1;
/// let out = mevp_rational_krylov(&c, &g, h / 2.0, &[1.0, 1.0], h, &MevpOptions::default())?;
/// assert!((out.mevp[0] - (-0.2f64).exp()).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn mevp_rational_krylov(
    c: &CsrMatrix,
    g: &CsrMatrix,
    gamma: f64,
    v: &[f64],
    h: f64,
    options: &MevpOptions,
) -> KrylovResult<MevpOutcome> {
    if v.len() != c.rows() {
        return Err(KrylovError::DimensionMismatch {
            expected: c.rows(),
            found: v.len(),
        });
    }
    let shifted = CsrMatrix::linear_combination(1.0, c, gamma, g).map_err(KrylovError::Sparse)?;
    let shifted_lu = SparseLu::factorize(&shifted)?;
    let op = ShiftInvertOperator::new(c, &shifted_lu);
    let kind = ProjectionKind::ShiftInvert { gamma };

    let vnorm = vector::norm2(v);
    let mut previous: Vec<f64> = Vec::new();
    let mut ws = MevpWorkspace::new();
    drive(&op, kind, v, h, options, &mut ws, |process, ws| {
        let m = process.dimension();
        let current = ws.dense.column(m).iter().map(|phi| process.beta() * phi);
        // ‖y_m − y_prev‖₂ over the shared leading coefficients; the new
        // trailing coefficients count in full.
        let estimated = (!previous.is_empty()).then(|| {
            let mut diff2 = 0.0f64;
            for (i, yi) in current.clone().enumerate() {
                let prev_i = previous.get(i).copied().unwrap_or(0.0);
                diff2 += (yi - prev_i) * (yi - prev_i);
            }
            diff2.sqrt() / vnorm.max(f64::MIN_POSITIVE)
        });
        previous.clear();
        previous.extend(current);
        estimated
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exi_sparse::TripletMatrix;

    fn diag(vals: &[f64]) -> CsrMatrix {
        let mut t = TripletMatrix::new(vals.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            t.push(i, i, v);
        }
        t.to_csr()
    }

    fn tridiag(n: usize, d: f64, off: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, d);
            if i + 1 < n {
                t.push(i, i + 1, off);
                t.push(i + 1, i, off);
            }
        }
        t.to_csr()
    }

    #[test]
    fn matches_diagonal_exponential() {
        let c = diag(&[1.0, 1.0, 2.0]);
        let g = diag(&[1.0, 3.0, 1.0]);
        let v = vec![1.0, -1.0, 2.0];
        let h = 0.2;
        let out = mevp_rational_krylov(&c, &g, h / 2.0, &v, h, &MevpOptions::default()).unwrap();
        let lambdas = [-1.0, -3.0, -0.5];
        for i in 0..3 {
            let expected = v[i] * (h * lambdas[i]).exp();
            assert!((out.mevp[i] - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn agrees_with_invert_krylov() {
        let n = 25;
        let c = tridiag(n, 3.0, 0.4);
        let g = tridiag(n, 2.0, -0.7);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v: Vec<f64> = (0..n).map(|i| ((i % 4) as f64) - 1.5).collect();
        let h = 0.05;
        let opts = MevpOptions {
            tolerance: 1e-9,
            ..MevpOptions::default()
        };
        let rat = mevp_rational_krylov(&c, &g, h / 2.0, &v, h, &opts).unwrap();
        let inv = crate::invert::mevp_invert_krylov(&c, &g, &g_lu, &v, h, &opts).unwrap();
        assert!(vector::max_abs_diff(&rat.mevp, &inv.mevp) < 1e-6);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let c = diag(&[1.0, 1.0]);
        let g = diag(&[1.0, 1.0]);
        assert!(matches!(
            mevp_rational_krylov(&c, &g, 0.1, &[1.0], 0.1, &MevpOptions::default()),
            Err(KrylovError::DimensionMismatch { .. })
        ));
    }
}

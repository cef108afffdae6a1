//! Dense matrix exponential via Padé approximation with scaling and squaring.
//!
//! The Krylov methods reduce the large sparse problem `e^{hJ} v` to the
//! exponential of a small (typically `m ≤ 60`) dense matrix. That small
//! exponential is computed here with the degree-13 Padé approximant and
//! scaling-and-squaring (Higham's method, the same algorithm behind MATLAB's
//! `expm` which the paper's reference implementation relies on).
//!
//! There is one kernel, `expm_in`: six matrix products, one LU
//! elimination with all right-hand sides carried through it, and the
//! squarings — `O(n³)`, every temporary drawn from a `PadeScratch` that
//! grows to the largest dimension it has seen. [`expm`] is the allocating
//! convenience over it.

use exi_sparse::dense::{matmul_into, norm_one, DenseLu};
use exi_sparse::DenseMatrix;

use crate::error::{KrylovError, KrylovResult};

/// Coefficients of the degree-13 Padé approximant to the exponential.
const PADE13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

/// Threshold on the 1-norm below which the degree-13 approximant is accurate
/// without scaling (Higham 2005).
const THETA13: f64 = 5.371920351148152;

/// Makes `buf` at least `len` long (new entries default-initialized, old
/// contents unspecified).
pub(crate) fn grow<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

/// Reusable temporaries of the Padé kernel: the scaled matrix, its even
/// powers, the `U`/`V` polynomials, LU storage and the squaring ping-pong.
#[derive(Debug, Default)]
pub(crate) struct PadeScratch {
    buffers: [Vec<f64>; 7],
    pivots: Vec<usize>,
}

/// `out = c2·a2 + c4·a4 + c6·a6`, summed from the highest power down.
fn even_combination(c: [f64; 3], a2: &[f64], a4: &[f64], a6: &[f64], out: &mut [f64]) {
    for (((o, &x2), &x4), &x6) in out.iter_mut().zip(a2).zip(a4).zip(a6) {
        *o = c[2] * x6 + c[1] * x4 + c[0] * x2;
    }
}

/// `acc += c6·a6 + c4·a4 + c2·a2 + c0·I`, added one term at a time in that
/// order.
fn add_low_terms(c: [f64; 4], a2: &[f64], a4: &[f64], a6: &[f64], n: usize, acc: &mut [f64]) {
    for (((o, &x2), &x4), &x6) in acc.iter_mut().zip(a2).zip(a4).zip(a6) {
        // The identity term adds an explicit zero off the diagonal.
        *o = *o + c[3] * x6 + c[2] * x4 + c[1] * x2 + 0.0;
    }
    for i in 0..n {
        acc[i * n + i] += c[0];
    }
}

/// Computes `e^A` for the row-major `n × n` matrix `a`, returning a view of
/// the result inside `scratch`.
///
/// # Errors
///
/// [`KrylovError::NonFiniteMatrix`] if the 1-norm of `a` is not finite, and a
/// wrapped `Singular` error if the Padé denominator cannot be eliminated
/// (only when the arithmetic overflowed on the way).
pub(crate) fn expm_in<'s>(
    a: &[f64],
    n: usize,
    scratch: &'s mut PadeScratch,
) -> KrylovResult<&'s [f64]> {
    let len = n * n;
    assert_eq!(a.len(), len, "expm: matrix is not n x n");
    let norm = norm_one(a, n);
    if !norm.is_finite() {
        // An infinite norm would ask for 2³² squarings.
        return Err(KrylovError::NonFiniteMatrix { norm });
    }
    // Number of halvings so that the scaled norm falls below theta_13.
    let squarings = if norm > THETA13 {
        (norm / THETA13).log2().ceil().max(0.0) as u32
    } else {
        0
    };
    let scale = 0.5_f64.powi(squarings as i32);

    let PadeScratch { buffers, pivots } = scratch;
    for buffer in buffers.iter_mut() {
        grow(buffer, len);
    }
    grow(pivots, n);
    let [a1, a2, a4, a6, t, p, u] = buffers;
    let (a1, a2, a4, a6) = (
        &mut a1[..len],
        &mut a2[..len],
        &mut a4[..len],
        &mut a6[..len],
    );
    let (t, mut p, mut u) = (&mut t[..len], &mut p[..len], &mut u[..len]);

    for (scaled, &x) in a1.iter_mut().zip(a) {
        *scaled = scale * x;
    }
    matmul_into(a1, a1, n, a2);
    matmul_into(a2, a2, n, a4);
    matmul_into(a4, a2, n, a6);

    // U = A * (A6*(b13*A6 + b11*A4 + b9*A2) + b7*A6 + b5*A4 + b3*A2 + b1*I)
    even_combination([PADE13[9], PADE13[11], PADE13[13]], a2, a4, a6, t);
    matmul_into(a6, t, n, p);
    add_low_terms(
        [PADE13[1], PADE13[3], PADE13[5], PADE13[7]],
        a2,
        a4,
        a6,
        n,
        p,
    );
    matmul_into(a1, p, n, u);
    // V = A6*(b12*A6 + b10*A4 + b8*A2) + b6*A6 + b4*A4 + b2*A2 + b0*I
    even_combination([PADE13[8], PADE13[10], PADE13[12]], a2, a4, a6, t);
    matmul_into(a6, t, n, p);
    add_low_terms(
        [PADE13[0], PADE13[2], PADE13[4], PADE13[6]],
        a2,
        a4,
        a6,
        n,
        p,
    );

    // Solve (V - U) X = (V + U), every column through one elimination.
    for ((denominator, numerator), &v) in t.iter_mut().zip(u.iter_mut()).zip(p.iter()) {
        *denominator = v - *numerator;
        *numerator += v;
    }
    DenseLu::factor_in(n, t, &mut pivots[..n])?.solve_in_place(u, n);
    // Undo the scaling by repeated squaring.
    for _ in 0..squarings {
        matmul_into(u, u, n, p);
        std::mem::swap(&mut u, &mut p);
    }
    Ok(u)
}

/// Computes the matrix exponential `e^A` of a square dense matrix.
///
/// # Errors
///
/// Returns [`KrylovError::Sparse`] wrapping a `NotSquare` error if `a` is not
/// square, [`KrylovError::NonFiniteMatrix`] if its 1-norm is not finite, or a
/// `Singular` error if the Padé denominator cannot be inverted (which does
/// not happen unless the arithmetic overflows).
///
/// # Examples
///
/// ```
/// use exi_sparse::DenseMatrix;
/// use exi_krylov::expm;
///
/// # fn main() -> Result<(), exi_krylov::KrylovError> {
/// // exp of a diagonal matrix is the element-wise exp of the diagonal.
/// let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, -2.0]]);
/// let e = expm(&a)?;
/// assert!((e.get(0, 0) - 1.0_f64.exp()).abs() < 1e-12);
/// assert!((e.get(1, 1) - (-2.0_f64).exp()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn expm(a: &DenseMatrix) -> KrylovResult<DenseMatrix> {
    if a.rows() != a.cols() {
        return Err(KrylovError::Sparse(exi_sparse::SparseError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        }));
    }
    let n = a.rows();
    let mut scratch = PadeScratch::default();
    let e = expm_in(a.as_slice(), n, &mut scratch)?;
    Ok(DenseMatrix::from_vec(n, n, e.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
        let mut best = 0.0_f64;
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                best = best.max((a.get(i, j) - b.get(i, j)).abs());
            }
        }
        best
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let z = DenseMatrix::zeros(4, 4);
        let e = expm(&z).unwrap();
        assert!(max_abs_diff(&e, &DenseMatrix::identity(4)) < 1e-14);
    }

    #[test]
    fn exp_of_diagonal() {
        let a = DenseMatrix::from_rows(&[&[0.5, 0.0], &[0.0, -3.0]]);
        let e = expm(&a).unwrap();
        assert!((e.get(0, 0) - 0.5_f64.exp()).abs() < 1e-13);
        assert!((e.get(1, 1) - (-3.0_f64).exp()).abs() < 1e-13);
        assert!(e.get(0, 1).abs() < 1e-14);
    }

    #[test]
    fn exp_of_nilpotent_matches_series() {
        // N = [[0,1],[0,0]] so exp(N) = I + N exactly.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let e = expm(&a).unwrap();
        let expected = DenseMatrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        assert!(max_abs_diff(&e, &expected) < 1e-14);
    }

    #[test]
    fn exp_of_rotation_generator() {
        // A = [[0, -t],[t, 0]] gives a rotation matrix.
        let t = 0.7;
        let a = DenseMatrix::from_rows(&[&[0.0, -t], &[t, 0.0]]);
        let e = expm(&a).unwrap();
        assert!((e.get(0, 0) - t.cos()).abs() < 1e-13);
        assert!((e.get(1, 0) - t.sin()).abs() < 1e-13);
        assert!((e.get(0, 1) + t.sin()).abs() < 1e-13);
    }

    #[test]
    fn scaling_and_squaring_handles_large_norm() {
        // Large stable eigenvalue: e^{-50} ~ 2e-22.
        let a = DenseMatrix::from_rows(&[&[-50.0, 10.0], &[0.0, -30.0]]);
        let e = expm(&a).unwrap();
        assert!((e.get(0, 0) - (-50.0_f64).exp()).abs() < 1e-20);
        assert!((e.get(1, 1) - (-30.0_f64).exp()).abs() < 1e-18);
        // Upper-triangular structure preserved.
        assert!(e.get(1, 0).abs() < 1e-20);
    }

    #[test]
    fn exp_additivity_for_commuting_matrices() {
        // exp(A) * exp(A) = exp(2A).
        let a = DenseMatrix::from_rows(&[&[0.2, 0.1, 0.0], &[0.0, -0.3, 0.4], &[0.1, 0.0, 0.1]]);
        let e1 = expm(&a).unwrap();
        let e2 = expm(&a.scale(2.0)).unwrap();
        let prod = e1.matmul(&e1);
        assert!(max_abs_diff(&prod, &e2) < 1e-12);
    }

    #[test]
    fn non_finite_input_is_an_error_in_bounded_time() {
        // An infinite entry used to ask for 2³² squarings (a hang); a NaN
        // entry used to sail through the singularity test of the Padé solve.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let inf = DenseMatrix::from_rows(&[&[f64::INFINITY, 0.0], &[0.0, -1.0]]);
            let nan = DenseMatrix::from_rows(&[&[f64::NAN, 0.0], &[0.0, -1.0]]);
            let overflow = DenseMatrix::from_rows(&[&[f64::MAX, 0.0], &[f64::MAX, -1.0]]);
            let _ = tx.send((expm(&inf), expm(&nan), expm(&overflow)));
        });
        let (inf, nan, overflow) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("expm on non-finite input must return, not spin");
        assert!(matches!(inf, Err(KrylovError::NonFiniteMatrix { norm }) if norm.is_infinite()));
        assert!(matches!(overflow, Err(KrylovError::NonFiniteMatrix { .. })));
        assert!(matches!(
            nan,
            Err(KrylovError::Sparse(
                exi_sparse::SparseError::Singular { .. }
            ))
        ));
    }

    #[test]
    fn scratch_stops_allocating_at_the_largest_dimension_seen() {
        let mut scratch = PadeScratch::default();
        let big = DenseMatrix::identity(6).scale(-2.0);
        let small = DenseMatrix::identity(3).scale(-9.0);
        let capacities = |s: &PadeScratch| s.buffers.each_ref().map(Vec::capacity);
        expm_in(big.as_slice(), 6, &mut scratch).unwrap();
        let grown = capacities(&scratch);
        assert!(grown.iter().all(|&c| c >= 36));
        let e = expm_in(small.as_slice(), 3, &mut scratch).unwrap().to_vec();
        expm_in(big.as_slice(), 6, &mut scratch).unwrap();
        assert_eq!(capacities(&scratch), grown);
        // A reused scratch computes what a fresh one does.
        assert_eq!(e, expm(&small).unwrap().as_slice());
    }

    #[test]
    fn non_square_rejected_and_empty_ok() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(expm(&a).is_err());
        let empty = DenseMatrix::zeros(0, 0);
        assert_eq!(expm(&empty).unwrap().rows(), 0);
    }
}

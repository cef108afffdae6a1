//! Property-based tests for the matrix exponential and Krylov MEVP kernels.

// Entry-wise comparisons against references index several vectors with one
// counter; iterator chains would obscure the formulas under test.
#![allow(clippy::needless_range_loop)]

use exi_krylov::{expm, mevp_invert_krylov, phi_matrices, phi_scalar, MevpOptions};
use exi_sparse::{DenseMatrix, SparseLu, TripletMatrix};
use proptest::prelude::*;

/// Strategy: small stable dense matrices (diagonally dominant with negative
/// diagonal), for which the exponential is well behaved.
fn stable_dense(max_n: usize) -> impl Strategy<Value = DenseMatrix> {
    (1usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec(-0.5f64..0.5f64, n * n).prop_map(move |vals| {
            let mut m = DenseMatrix::from_vec(n, n, vals);
            for i in 0..n {
                let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| m.get(i, j).abs()).sum();
                m.set(i, i, -(row_sum + 0.5));
            }
            m
        })
    })
}

/// Strategy: a stable RC-like sparse pair (C diagonal positive, G tridiagonal
/// diagonally dominant) and a start vector.
fn rc_pair(max_n: usize) -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>, Vec<f64>)> {
    (2usize..max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0.1f64..2.0, n),
            proptest::collection::vec(0.1f64..1.0, n - 1),
            proptest::collection::vec(-1.0f64..1.0, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// exp(A)·exp(−A) = I for stable matrices.
    #[test]
    fn expm_inverse_identity(a in stable_dense(6)) {
        let e_pos = expm(&a).expect("expm");
        let e_neg = expm(&a.scale(-1.0)).expect("expm");
        let prod = e_pos.matmul(&e_neg);
        let n = a.rows();
        for i in 0..n {
            for j in 0..n {
                let expected = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod.get(i, j) - expected).abs() < 1e-8);
            }
        }
    }

    /// The φ recurrence  z·φ_{k+1}(z) = φ_k(z) − 1/k!  holds for matrices:
    /// A·φ₁(A) = e^A − I and A·φ₂(A) = φ₁(A) − I.
    #[test]
    fn phi_recurrence_holds(a in stable_dense(5)) {
        let phis = phi_matrices(&a, 2).expect("phi");
        let n = a.rows();
        let ident = DenseMatrix::identity(n);
        let lhs1 = a.matmul(&phis[1]);
        let rhs1 = phis[0].sub(&ident);
        let lhs2 = a.matmul(&phis[2]);
        let rhs2 = phis[1].sub(&ident);
        for i in 0..n {
            for j in 0..n {
                prop_assert!((lhs1.get(i, j) - rhs1.get(i, j)).abs() < 1e-9);
                prop_assert!((lhs2.get(i, j) - rhs2.get(i, j)).abs() < 1e-9);
            }
        }
    }

    /// Scalar φ functions agree with their 1×1 matrix counterparts.
    #[test]
    fn scalar_phi_matches_matrix_phi(z in -20.0f64..3.0) {
        let a = DenseMatrix::from_rows(&[&[z]]);
        let phis = phi_matrices(&a, 2).expect("phi");
        for k in 0..=2usize {
            let expected = phi_scalar(k, z);
            let got = phis[k].get(0, 0);
            let scale = expected.abs().max(1.0);
            prop_assert!(((got - expected) / scale).abs() < 1e-8);
        }
    }

    /// The invert-Krylov MEVP matches the exact diagonal solution on RC pairs
    /// where C is diagonal and G is SPD tridiagonal, for any step size.
    #[test]
    fn invert_krylov_matches_dense_reference((n, cdiag, goff, v) in rc_pair(8), h in 1e-3f64..1.0) {
        // Build C (diagonal) and G (tridiagonal, diagonally dominant).
        let mut ct = TripletMatrix::new(n, n);
        let mut gt = TripletMatrix::new(n, n);
        for i in 0..n {
            ct.push(i, i, cdiag[i]);
            let mut diag = 1.0;
            if i > 0 {
                gt.push(i, i - 1, -goff[i - 1]);
                diag += goff[i - 1];
            }
            if i + 1 < n {
                gt.push(i, i + 1, -goff[i]);
                diag += goff[i];
            }
            gt.push(i, i, diag);
        }
        let c = ct.to_csr();
        let g = gt.to_csr();
        // Dense reference: e^{-h C^{-1} G} v via expm.
        let mut j_dense = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for k in 0..n {
                j_dense.set(i, k, -g.get(i, k) / cdiag[i] * h);
            }
        }
        let reference = expm(&j_dense).expect("dense expm").matvec(&v);
        let g_lu = SparseLu::factorize(&g).expect("lu");
        let opts = MevpOptions { tolerance: 1e-10, ..MevpOptions::default() };
        prop_assume!(v.iter().any(|x| x.abs() > 1e-6));
        let out = mevp_invert_krylov(&c, &g, &g_lu, &v, h, &opts).expect("mevp");
        for i in 0..n {
            prop_assert!((out.mevp[i] - reference[i]).abs() < 1e-6,
                "entry {i}: {} vs {}", out.mevp[i], reference[i]);
        }
    }

    /// Scaling invariance: evaluating the same decomposition at h and h/2 is
    /// consistent with building a fresh subspace at h/2.
    #[test]
    fn decomposition_rescaling_is_consistent((n, cdiag, goff, v) in rc_pair(8), h in 1e-2f64..1.0) {
        let mut ct = TripletMatrix::new(n, n);
        let mut gt = TripletMatrix::new(n, n);
        for i in 0..n {
            ct.push(i, i, cdiag[i]);
            let mut diag = 1.0;
            if i > 0 { gt.push(i, i - 1, -goff[i - 1]); diag += goff[i - 1]; }
            if i + 1 < n { gt.push(i, i + 1, -goff[i]); diag += goff[i]; }
            gt.push(i, i, diag);
        }
        let c = ct.to_csr();
        let g = gt.to_csr();
        let g_lu = SparseLu::factorize(&g).expect("lu");
        prop_assume!(v.iter().any(|x| x.abs() > 1e-6));
        let opts = MevpOptions { tolerance: 1e-10, ..MevpOptions::default() };
        let full = mevp_invert_krylov(&c, &g, &g_lu, &v, h, &opts).expect("mevp at h");
        let mut rescaled = vec![0.0; n];
        full.decomposition.eval_expv_into(h / 2.0, &mut rescaled).expect("rescale");
        let fresh = mevp_invert_krylov(&c, &g, &g_lu, &v, h / 2.0, &opts).expect("mevp at h/2");
        for i in 0..n {
            prop_assert!((rescaled[i] - fresh.mevp[i]).abs() < 1e-6);
        }
    }
}

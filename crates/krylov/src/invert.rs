//! MEVP via the **invert Krylov subspace** (paper Sec. IV, Algorithm 1).
//!
//! The subspace `K_m(J⁻¹, v) = span{v, (-G⁻¹C)v, (-G⁻¹C)²v, …}` is built by
//! repeatedly solving with `G` — the conductance matrix, which in post-layout
//! circuits is far sparser and cheaper to factorize than `C` or `C/h + G`.
//! Convergence of the matrix exponential approximation is monitored with the
//! KCL/KVL residual of paper Eq. (22), in amperes — or, where the product only
//! feeds a comparison with a tolerance on the state, with the same residual
//! mapped back through `G⁻¹`, in the unknowns' own units.

use exi_sparse::{vector, CsrMatrix, SparseLu};

use crate::arnoldi::{drive, ArnoldiProcess, Estimate};
use crate::decomposition::{KrylovDecomposition, ProjectionKind};
use crate::error::KrylovResult;
use crate::mevp::{MevpOptions, MevpOutcome, MevpWorkspace};
use crate::operator::InverseJacobianOperator;

/// Computes `e^{hJ}·v` with the invert Krylov subspace (Algorithm 1,
/// `MEVP_IKS`), where `J = -C⁻¹G` but only `G` is factorized.
///
/// The returned [`MevpOutcome::decomposition`] can be re-evaluated at other
/// step sizes and for φ₁/φ₂ without touching the large matrices again —
/// that is what makes step-size rejection cheap in the ER engine.
///
/// # Errors
///
/// * [`crate::KrylovError::ZeroStartVector`] if `v` is zero.
/// * [`crate::KrylovError::NotConverged`] if the Eq. (22) residual does not fall
///   below `options.tolerance` within `options.max_dimension`.
/// * Sparse kernel errors propagated from the `G` solves.
///
/// # Examples
///
/// ```
/// use exi_sparse::{SparseLu, TripletMatrix};
/// use exi_krylov::{mevp_invert_krylov, MevpOptions};
///
/// # fn main() -> Result<(), exi_krylov::KrylovError> {
/// // C = diag(1, 2), G = diag(1, 1): J = -C^{-1}G = diag(-1, -0.5).
/// let mut c = TripletMatrix::new(2, 2);
/// c.push(0, 0, 1.0);
/// c.push(1, 1, 2.0);
/// let c = c.to_csr();
/// let mut g = TripletMatrix::new(2, 2);
/// g.push(0, 0, 1.0);
/// g.push(1, 1, 1.0);
/// let g = g.to_csr();
/// let g_lu = SparseLu::factorize(&g)?;
/// let out = mevp_invert_krylov(&c, &g, &g_lu, &[1.0, 1.0], 0.3, &MevpOptions::default())?;
/// assert!((out.mevp[0] - (-0.3f64).exp()).abs() < 1e-7);
/// assert!((out.mevp[1] - (-0.15f64).exp()).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
pub fn mevp_invert_krylov(
    c: &CsrMatrix,
    g: &CsrMatrix,
    g_lu: &SparseLu,
    v: &[f64],
    h: f64,
    options: &MevpOptions,
) -> KrylovResult<MevpOutcome> {
    mevp_invert_krylov_with(c, g, g_lu, v, h, options, &mut MevpWorkspace::new())
}

/// As [`mevp_invert_krylov`], drawing all scratch storage from `ws` — the
/// allocation-free variant the transient engines run in their hot loop.
/// Recycle the returned decomposition with [`MevpWorkspace::recycle`] once it
/// is no longer needed.
///
/// # Errors
///
/// Same as [`mevp_invert_krylov`].
pub fn mevp_invert_krylov_with(
    c: &CsrMatrix,
    g: &CsrMatrix,
    g_lu: &SparseLu,
    v: &[f64],
    h: f64,
    options: &MevpOptions,
    ws: &mut MevpWorkspace,
) -> KrylovResult<MevpOutcome> {
    build(c, Some(g), g_lu, v, h, options, ws)
}

/// As [`mevp_invert_krylov_with`], but the build stops once the Eq. (22)
/// residual *mapped back through `G`* meets `options.tolerance`: the test is
/// in the unknowns' own units (volts, amperes on branch rows) instead of the
/// KCL/KVL residual's amperes.
///
/// The residual of the invert-Krylov iterate is
/// `r_m = −β·h_{m+1,m}·(e_mᵀ S e^{hS} e₁)·G·v_{m+1}`, so
/// `G⁻¹r_m` is that scalar times the unit vector `v_{m+1}`:
/// `‖G⁻¹r_m‖₂` is [`KrylovDecomposition::residual_scalar`] exactly, and the
/// test costs no product with `G`. It is the quasi-static error of the
/// product — the state offset whose conductance currents would balance the
/// residual — and the unit to hold a product to when all it feeds is a
/// comparison with a tolerance on the state.
///
/// # Errors
///
/// Same as [`mevp_invert_krylov`], with the tolerance read in state units.
pub fn mevp_invert_krylov_state_residual_with(
    c: &CsrMatrix,
    g_lu: &SparseLu,
    v: &[f64],
    h: f64,
    options: &MevpOptions,
    ws: &mut MevpWorkspace,
) -> KrylovResult<MevpOutcome> {
    build(c, None, g_lu, v, h, options, ws)
}

/// Both front-ends: one invert-Krylov build, stopping on the Eq. (22)
/// residual with [`residual_factor`].
fn build(
    c: &CsrMatrix,
    g: Option<&CsrMatrix>,
    g_lu: &SparseLu,
    v: &[f64],
    h: f64,
    options: &MevpOptions,
    ws: &mut MevpWorkspace,
) -> KrylovResult<MevpOutcome> {
    let op = InverseJacobianOperator::new(c, g_lu);
    let factor = Estimate::Residual(&mut |process, ws| residual_factor(process, g, ws));
    drive(&op, KIND, v, h, options, ws, factor)
}

const KIND: ProjectionKind = ProjectionKind::Inverse;

/// The circuit-matrix factor of paper Eq. (22) for the dimension [`drive`]
/// is testing, which [`drive`] multiplies by the residual scalar
/// `β · |h_{m+1,m}| · |e_mᵀ H_m⁻¹ e^{h H_m⁻¹} e₁|`. With the circuit's `g`,
/// `‖G·v_{m+1}‖`, so the residual is the KCL/KVL residual `‖r_m(h)‖` in
/// amperes; without, 1, so it is the scalar part, which is `‖G⁻¹r_m(h)‖₂`
/// (`‖v_{m+1}‖ = 1`).
fn residual_factor(process: &ArnoldiProcess, g: Option<&CsrMatrix>, ws: &mut MevpWorkspace) -> f64 {
    match g {
        Some(g) => gv_norm(process.next_vector(), g, ws),
        None => 1.0,
    }
}

/// `‖G·v_{m+1}‖`, the circuit-matrix factor of Eq. (22); zero when the
/// subspace is invariant and there is no `v_{m+1}`.
fn gv_norm(next_vector: Option<&[f64]>, g: &CsrMatrix, ws: &mut MevpWorkspace) -> f64 {
    match next_vector {
        Some(vm1) => {
            let gv = ws.scratch_slice(g.rows());
            g.mul_vec_into(vm1, gv);
            vector::norm2(gv)
        }
        None => 0.0,
    }
}

/// Re-tests an invert-Krylov `decomposition` that is already built: the
/// Eq. (22) residual of `e^{hJ}·v` at a step size `h` other than the one its
/// build converged for — one small exponential and one product with `G`,
/// against the `m` solves with `G` of a new subspace. The residual is linear
/// in the start vector, so the residual for `s·v` is `s` times the result.
///
/// This is the test the build itself ran at every dimension (same formula,
/// counted in [`MevpWorkspace::residual_tests`] like those), so a
/// decomposition that passes it at `h` is as good as one built for `h`. An
/// invariant subspace (happy breakdown) is exact at every step size: `0`.
///
/// # Errors
///
/// Dense-kernel errors from the small exponential.
pub fn invert_krylov_residual(
    decomposition: &KrylovDecomposition,
    g: &CsrMatrix,
    h: f64,
    ws: &mut MevpWorkspace,
) -> KrylovResult<f64> {
    let Some(next_vector) = decomposition.next_basis_vector() else {
        return Ok(0.0);
    };
    ws.residual_tests += 1;
    let scalar = decomposition.residual_scalar_in(h, ws)?;
    Ok(scalar * gv_norm(Some(next_vector), g, ws))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::DenseArena;
    use crate::error::KrylovError;
    use crate::operator::{KrylovOperator, OperatorWorkspace};
    use exi_sparse::{SparseResult, TripletMatrix};
    use proptest::prelude::*;

    /// An operator priced so high that a convergence test can always pay:
    /// the build under it tests every dimension, as every build used to.
    struct EveryDimension<O>(O);

    impl<O: KrylovOperator> KrylovOperator for EveryDimension<O> {
        fn dim(&self) -> usize {
            self.0.dim()
        }

        fn nnz(&self) -> usize {
            usize::MAX
        }

        fn apply_into(
            &self,
            v: &[f64],
            out: &mut [f64],
            ws: &mut OperatorWorkspace,
        ) -> SparseResult<()> {
            self.0.apply_into(v, out, ws)
        }
    }

    /// The residual an exact test computes, from the column [`drive`] has
    /// just left in `ws`.
    fn exact_residual(
        process: &ArnoldiProcess,
        g: Option<&CsrMatrix>,
        ws: &mut MevpWorkspace,
    ) -> f64 {
        process.residual_scalar(KIND, ws) * residual_factor(process, g, ws)
    }

    fn diag(vals: &[f64]) -> CsrMatrix {
        let mut t = TripletMatrix::new(vals.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            t.push(i, i, v);
        }
        t.to_csr()
    }

    fn tridiag(n: usize, diag_v: f64, off: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, diag_v);
            if i + 1 < n {
                t.push(i, i + 1, off);
                t.push(i + 1, i, off);
            }
        }
        t.to_csr()
    }

    #[test]
    fn matches_diagonal_exponential() {
        let c = diag(&[1.0, 2.0, 4.0]);
        let g = diag(&[1.0, 1.0, 1.0]);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v = vec![1.0, -2.0, 0.5];
        let h = 0.4;
        let out = mevp_invert_krylov(&c, &g, &g_lu, &v, h, &MevpOptions::default()).unwrap();
        let lambdas = [-1.0, -0.5, -0.25];
        for i in 0..3 {
            let expected = v[i] * (h * lambdas[i]).exp();
            assert!(
                (out.mevp[i] - expected).abs() < 1e-6,
                "{} vs {expected}",
                out.mevp[i]
            );
        }
    }

    #[test]
    fn agrees_with_standard_krylov_on_nonsingular_c() {
        let n = 30;
        let c = tridiag(n, 2.0, 0.3);
        let g = tridiag(n, 1.5, -0.5);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let c_lu = SparseLu::factorize(&c).unwrap();
        let v: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let h = 0.1;
        let opts = MevpOptions {
            tolerance: 1e-9,
            ..MevpOptions::default()
        };
        let inv = mevp_invert_krylov(&c, &g, &g_lu, &v, h, &opts).unwrap();
        let std = crate::arnoldi::mevp_standard_krylov(&g, &c_lu, &v, h, &opts).unwrap();
        assert!(vector::max_abs_diff(&inv.mevp, &std.mevp) < 1e-6);
    }

    #[test]
    fn works_with_singular_c() {
        // Singular C (a zero row) would break the standard Krylov method,
        // which needs C⁻¹; the invert method only needs G⁻¹.
        let n = 4;
        let mut ct = TripletMatrix::new(n, n);
        ct.push(0, 0, 1.0);
        ct.push(1, 1, 2.0);
        // rows 2 and 3 have no capacitance at all.
        let c = ct.to_csr();
        let g = tridiag(n, 3.0, -1.0);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v = vec![1.0, 1.0, 1.0, 1.0];
        let out = mevp_invert_krylov(&c, &g, &g_lu, &v, 1e-2, &MevpOptions::default()).unwrap();
        assert_eq!(out.mevp.len(), n);
        assert!(out.mevp.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn stiff_system_needs_fewer_dimensions_than_standard() {
        // Stiff C: capacitances spanning 6 orders of magnitude. The invert
        // subspace captures the slow (dominant) modes quickly.
        let n = 40;
        let cvals: Vec<f64> = (0..n)
            .map(|i| 10f64.powi(-((i % 7) as i32)) * 1e-12)
            .collect();
        let c = diag(&cvals);
        let g = tridiag(n, 1e-3, -2e-4);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v = vec![1.0; n];
        let h = 1e-10;
        let opts = MevpOptions {
            tolerance: 1e-6,
            max_dimension: 60,
            ..MevpOptions::default()
        };
        let inv = mevp_invert_krylov(&c, &g, &g_lu, &v, h, &opts).unwrap();
        assert!(
            inv.dimension < 40,
            "invert krylov dimension {}",
            inv.dimension
        );
        assert!(inv.mevp.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn decomposition_is_reusable_across_step_sizes() {
        let c = diag(&[1.0, 3.0]);
        let g = diag(&[2.0, 2.0]);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v = vec![1.0, 1.0];
        let out = mevp_invert_krylov(&c, &g, &g_lu, &v, 0.2, &MevpOptions::default()).unwrap();
        let mut ws = MevpWorkspace::new();
        // Halve the step: same decomposition, new evaluation.
        let mut half = vec![0.0; 2];
        out.decomposition
            .eval_expv_in(0.1, &mut half, &mut ws)
            .unwrap();
        assert!((half[0] - (-0.2_f64).exp()).abs() < 1e-7);
        assert!((half[1] - (-2.0 / 3.0 * 0.1_f64).exp()).abs() < 1e-7);
        // phi1 evaluation from the same subspace.
        let mut p1 = vec![0.0; 2];
        out.decomposition
            .eval_phi_in(1, 0.2, &mut p1, &mut ws)
            .unwrap();
        let expected0 = ((-0.4_f64).exp() - 1.0) / (-0.4);
        assert!((p1[0] - expected0).abs() < 1e-7);
    }

    #[test]
    fn zero_vector_and_dimension_mismatch_rejected() {
        let c = diag(&[1.0, 1.0]);
        let g = diag(&[1.0, 1.0]);
        let g_lu = SparseLu::factorize(&g).unwrap();
        assert!(matches!(
            mevp_invert_krylov(&c, &g, &g_lu, &[0.0, 0.0], 0.1, &MevpOptions::default()),
            Err(KrylovError::ZeroStartVector)
        ));
        assert!(matches!(
            mevp_invert_krylov(&c, &g, &g_lu, &[1.0], 0.1, &MevpOptions::default()),
            Err(KrylovError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn workspace_variant_matches_allocating_variant() {
        let n = 20;
        let c = tridiag(n, 2.0, 0.4);
        let g = tridiag(n, 1.0, -0.3);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v: Vec<f64> = (0..n).map(|i| ((i % 3) as f64) - 1.0).collect();
        let opts = MevpOptions::default();
        let plain = mevp_invert_krylov(&c, &g, &g_lu, &v, 0.05, &opts).unwrap();
        let mut ws = MevpWorkspace::new();
        let with_ws = mevp_invert_krylov_with(&c, &g, &g_lu, &v, 0.05, &opts, &mut ws).unwrap();
        assert_eq!(plain.mevp, with_ws.mevp);
        assert_eq!(plain.dimension, with_ws.dimension);
    }

    #[test]
    fn the_eager_product_costs_no_exponential_beyond_the_tests() {
        // The converging test and the eager product are functions of the
        // same (H_m, h): one exponential serves both. Short vectors, so no
        // test past the first few can pay: the screen skips the ones that
        // cannot pass, and they cost no exponential at all.
        let n = 30;
        let c = tridiag(n, 2.0, 0.4);
        let g = tridiag(n, 1.0, -0.3);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v: Vec<f64> = (0..n).map(|i| ((i % 3) as f64) - 1.0).collect();
        let mut ws = MevpWorkspace::new();
        let out =
            mevp_invert_krylov_with(&c, &g, &g_lu, &v, 0.05, &MevpOptions::default(), &mut ws)
                .unwrap();
        assert!(out.dimension > 3 && out.residual > 0.0, "a tested build");
        assert!(ws.residual_tests() > 3);
        // Measured: 3 exponentials for 14 tests.
        assert!(ws.small_dense_exponentials() < ws.residual_tests());
        // ... and it is the product a re-evaluation of the decomposition gives.
        let mut again = vec![0.0; n];
        out.decomposition.eval_expv_into(0.05, &mut again).unwrap();
        assert_eq!(out.mevp, again);
    }

    #[test]
    fn a_build_whose_every_test_can_pay_computes_one_exponential_per_test() {
        // The build of the test above, priced so that every test pays: none
        // is screened, each computes its exponential, and the converging
        // one's serves the product.
        let n = 30;
        let c = tridiag(n, 2.0, 0.4);
        let g = tridiag(n, 1.0, -0.3);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v: Vec<f64> = (0..n).map(|i| ((i % 3) as f64) - 1.0).collect();
        let op = EveryDimension(InverseJacobianOperator::new(&c, &g_lu));
        let mut ws = MevpWorkspace::new();
        let factor = Estimate::Residual(&mut |process, ws| residual_factor(process, Some(&g), ws));
        let out = drive(
            &op,
            KIND,
            &v,
            0.05,
            &MevpOptions::default(),
            &mut ws,
            factor,
        )
        .unwrap();
        assert!(out.dimension > 3 && out.residual > 0.0, "a tested build");
        assert_eq!(ws.residual_tests(), out.dimension - 1);
        assert_eq!(ws.small_dense_exponentials(), ws.residual_tests());
    }

    #[test]
    fn a_retest_is_the_test_the_build_ran() {
        // The stiff system of the test above, converged to 1e-6 at h = 1e-10.
        let n = 40;
        let cvals: Vec<f64> = (0..n)
            .map(|i| 10f64.powi(-((i % 7) as i32)) * 1e-12)
            .collect();
        let c = diag(&cvals);
        let g = tridiag(n, 1e-3, -2e-4);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let opts = MevpOptions {
            tolerance: 1e-6,
            max_dimension: 60,
            ..MevpOptions::default()
        };
        let mut ws = MevpWorkspace::new();
        let out =
            mevp_invert_krylov_with(&c, &g, &g_lu, &vec![1.0; n], 1e-10, &opts, &mut ws).unwrap();
        assert!(out.dimension < n && out.residual > 0.0, "a tested build");
        let (tests, exponentials) = (ws.residual_tests(), ws.small_dense_exponentials());
        // At the build's own step size: the converging test, bit for bit.
        let again = invert_krylov_residual(&out.decomposition, &g, 1e-10, &mut ws).unwrap();
        assert_eq!(again.to_bits(), out.residual.to_bits());
        assert_eq!(
            (ws.residual_tests(), ws.small_dense_exponentials()),
            (tests + 1, exponentials + 1)
        );
        // The same basis at other step sizes: a different residual, nothing
        // of size n recomputed but the one product with G.
        let allocations = ws.allocations();
        let other = invert_krylov_residual(&out.decomposition, &g, 3e-10, &mut ws).unwrap();
        assert!(other.is_finite() && other.to_bits() != again.to_bits());
        assert_eq!(ws.allocations(), allocations);
        // An invariant subspace is exact at every step size, and costs nothing.
        let eigen = diag(&[2.0, 2.0]);
        let eigen_lu = SparseLu::factorize(&eigen).unwrap();
        let exact = mevp_invert_krylov(
            &diag(&[1.0, 1.0]),
            &eigen,
            &eigen_lu,
            &[1.0, 1.0],
            0.1,
            &MevpOptions::default(),
        )
        .unwrap();
        let tests = ws.residual_tests();
        let residual = invert_krylov_residual(&exact.decomposition, &eigen, 7.0, &mut ws).unwrap();
        assert_eq!((residual, ws.residual_tests()), (0.0, tests));
    }

    #[test]
    fn breakdown_still_yields_the_product() {
        // Happy breakdown concludes without a test; the product is then
        // computed on its own.
        let c = diag(&[1.0, 1.0]);
        let g = diag(&[2.0, 2.0]);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let mut ws = MevpWorkspace::new();
        let out = mevp_invert_krylov_with(
            &c,
            &g,
            &g_lu,
            &[1.0, 1.0],
            0.1,
            &MevpOptions::default(),
            &mut ws,
        )
        .unwrap();
        assert_eq!((out.dimension, out.residual), (1, 0.0));
        assert_eq!((ws.residual_tests(), ws.small_dense_exponentials()), (0, 1));
        assert!((out.mevp[0] - (-0.2_f64).exp()).abs() < 1e-12);
    }

    /// An RC ladder of `n = g_line.len()` nodes: `g_line[i]` joins nodes `i`
    /// and `i + 1` (the last one joins node `n − 1` to ground), `g_leak[i]`
    /// and `c_ground[i]` tie node `i` to ground, `c_couple[i]` couples nodes
    /// `i` and `i + 1`. `C` and `G` symmetric positive definite.
    fn rc_pencil(
        g_line: &[f64],
        g_leak: &[f64],
        c_ground: &[f64],
        c_couple: &[f64],
    ) -> (CsrMatrix, CsrMatrix) {
        let n = g_line.len();
        let mut g = TripletMatrix::new(n, n);
        let mut c = TripletMatrix::new(n, n);
        for i in 0..n {
            g.push(i, i, g_line[i] + g_leak[i]);
            c.push(i, i, c_ground[i]);
            if i + 1 < n {
                g.push(i + 1, i + 1, g_line[i]);
                g.push(i, i + 1, -g_line[i]);
                g.push(i + 1, i, -g_line[i]);
                c.push(i, i, c_couple[i]);
                c.push(i + 1, i + 1, c_couple[i]);
                c.push(i, i + 1, -c_couple[i]);
                c.push(i + 1, i, -c_couple[i]);
            }
        }
        (c.to_csr(), g.to_csr())
    }

    /// A random [`rc_pencil`] of 40 nodes (line conductances of 0.1–1 mS,
    /// leaks of 1–10 µS, 10–100 fF to ground, 1–10 fF of coupling), a start
    /// vector in volts and a step of 1–300 ps.
    fn random_rc_pencil() -> impl Strategy<Value = (CsrMatrix, CsrMatrix, Vec<f64>, f64)> {
        use proptest::collection::vec;
        const N: usize = 40;
        (
            (vec(-4.0f64..-3.0, N), vec(-6.0f64..-5.0, N)),
            (vec(-14.0f64..-13.0, N), vec(-15.0f64..-14.0, N)),
            vec(-1.0f64..1.0, N),
            -12.0f64..-9.5,
        )
            .prop_map(|((g_line, g_leak), (c_ground, c_couple), v, h)| {
                let pow = |e: Vec<f64>| e.into_iter().map(|e| 10f64.powf(e)).collect::<Vec<_>>();
                let (c, g) = rc_pencil(&pow(g_line), &pow(g_leak), &pow(c_ground), &pow(c_couple));
                (c, g, v, 10f64.powf(h))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The screen reads Eq. (22)'s `e_mᵀ S e^{hS} e₁` — sign included,
        /// so the contour's orientation is checked too — to 10 % at every
        /// dimension a build to a tolerance in volts tests: the Hessenbergs
        /// of invert-Krylov builds of random RC ladders, which the exact
        /// test exponentiates at its first shift. Measured over 400 cases:
        /// 0.958–1.040.
        #[test]
        fn the_screen_reads_the_eq22_scalar_of_rc_builds(
            (c, g, v, h) in random_rc_pencil(),
            tolerance in (3i32..8).prop_map(|decades| 10f64.powi(-decades)),
        ) {
            let g_lu = SparseLu::factorize(&g).unwrap();
            let options = MevpOptions {
                tolerance,
                max_dimension: 30,
                allow_unconverged: true,
                ..MevpOptions::default()
            };
            let out = mevp_invert_krylov_state_residual_with(&c, &g_lu, &v, h, &options, &mut MevpWorkspace::new())
                .unwrap();
            let hess = out.decomposition.hessenberg();
            let (mut exact, mut screen) = (DenseArena::default(), DenseArena::default());
            for m in 1..=out.dimension {
                exact.phi_column(KIND, hess, m, 0, h).unwrap();
                let expected = exact.last_entry(KIND, m);
                let screened = screen.screen(KIND, hess, m, h).expect("a finite screen");
                let ratio = screened / expected;
                prop_assert!((0.9..=1.1).contains(&ratio), "m = {m}: {screened:e} vs {expected:e}");
            }
        }

        /// `‖G⁻¹r_m‖₂ = residual_scalar`: the Eq. (22) residual mapped back
        /// through `G` is the scalar part of Eq. (22), in the unknowns' units.
        /// First as the formula states it — the scalar times `G·v_{m+1}`,
        /// solved with `G`: equal to rounding. Then from the definition
        /// `r_m = C·x_m′ + G·x_m` of the residual of `C·x′ = −G·x` at
        /// `x_m = V_m·y`, `y = β·e^{hS}·e₁`: `G⁻¹r_m` is the scalar along
        /// `v_{m+1}`, plus the stabilizing shift's own term in the span of
        /// `V_m`, to the rounding of forming `r_m`.
        #[test]
        fn the_state_residual_is_the_kcl_residual_solved_with_g(
            (c, g, v, h) in random_rc_pencil(),
        ) {
            let g_lu = SparseLu::factorize(&g).unwrap();
            let options = MevpOptions { tolerance: 1e-6, ..MevpOptions::default() };
            let mut ws = MevpWorkspace::new();
            let out = mevp_invert_krylov_state_residual_with(&c, &g_lu, &v, h, &options, &mut ws)
                .unwrap();
            let dec = &out.decomposition;
            let next = dec.next_basis_vector().expect("a tested build, not a breakdown");
            let scalar = dec.residual_scalar(h).unwrap();
            prop_assert_eq!(scalar.to_bits(), out.residual.to_bits());
            prop_assert!(scalar > 0.0 && scalar <= options.tolerance);

            // As the formula states it.
            let r_m: Vec<f64> = g.mul_vec(next).iter().map(|gv| scalar * gv).collect();
            let y = g_lu.solve(&r_m).unwrap();
            let y_norm = vector::norm2(&y);
            prop_assert!((y_norm - scalar).abs() <= 1e-12 * scalar, "{y_norm} vs {scalar}");

            // From the residual's definition: `x_m = V_m·y` with
            // `y = β·φ₀(hS)·e₁`, whose column the evaluation leaves in `ws`.
            let mut x_m = vec![0.0; v.len()];
            dec.eval_expv_in(h, &mut x_m, &mut ws).unwrap();
            let s = dec.projected_jacobian().unwrap();
            let mut dx_m = vec![0.0; v.len()];
            let column = ws.dense.column(dec.dimension());
            dec.lift_scaled_into(vector::norm2(&v), &s.matvec(column), &mut dx_m);
            let r_m: Vec<f64> = c
                .mul_vec(&dx_m)
                .iter()
                .zip(g.mul_vec(&x_m))
                .map(|(c_dx, g_x)| c_dx + g_x)
                .collect();
            let y = g_lu.solve(&r_m).unwrap();
            // Measured: within 1.1e-13 V of the prediction where x_m is O(1 V),
            // against residuals of 1e-9 to 4e-7 V.
            let rounding = 1e-12 * vector::norm_inf(&x_m);
            let along = vector::dot(&y, next);
            prop_assert!(
                (along.abs() - scalar).abs() <= 1e-6 * scalar + rounding,
                "component along v_(m+1): {along} vs {scalar}"
            );
            // `S = (H_m − δ·I)⁻¹` makes `H_m·S = I + δ·S`, which leaves
            // `−δ·V_m·S·y = −δ·x_m′` besides Eq. (22)'s term; `δ = 1e-12·‖H_m‖`,
            // and `‖S⁻¹‖ = ‖H_m − δ·I‖` is `‖H_m‖` to twelve digits.
            let delta = 1e-12 * s.inverse().unwrap().norm_inf();
            let predicted: Vec<f64> = dx_m
                .iter()
                .zip(next)
                .map(|(dx, v)| along * v - delta * dx)
                .collect();
            let off = vector::max_abs_diff(&y, &predicted);
            prop_assert!(off <= 1e-6 * scalar + rounding, "{off} vs {scalar}");
        }

        /// The state-residual front-end stops at the first dimension the
        /// schedule tests whose `residual_scalar` meets the tolerance, with
        /// that residual, bit for bit.
        #[test]
        fn the_state_residual_build_stops_at_the_first_tested_dimension_that_meets_it(
            (c, g, v, h) in random_rc_pencil(),
            tolerance in (3i32..8).prop_map(|decades| 10f64.powi(-decades)),
        ) {
            let g_lu = SparseLu::factorize(&g).unwrap();
            let options = MevpOptions {
                tolerance,
                max_dimension: 30,
                allow_unconverged: true,
                ..MevpOptions::default()
            };
            // Every dimension the schedule tests, and its exact residual:
            // the schedule does not depend on the residuals, so an
            // unmeetable tolerance runs it to the end, and an estimate read
            // off the column is never screened. The build under test screens
            // its tests: it must stop where the exact tests do.
            let mut tested = Vec::new();
            let unmeetable = MevpOptions { tolerance: -1.0, allow_unconverged: true, ..options.clone() };
            let op = InverseJacobianOperator::new(&c, &g_lu);
            let every = drive(&op, KIND, &v, h, &unmeetable, &mut MevpWorkspace::new(), Estimate::Column(&mut |process, ws| {
                let residual = exact_residual(process, None, ws);
                tested.push((process.dimension(), residual));
                Some(residual)
            }))
            .unwrap();
            let out = mevp_invert_krylov_state_residual_with(&c, &g_lu, &v, h, &options, &mut MevpWorkspace::new())
                .unwrap();
            match tested.iter().find(|(_, residual)| *residual <= tolerance) {
                Some(&(j, residual)) => {
                    prop_assert_eq!(out.dimension, j);
                    prop_assert_eq!(out.residual.to_bits(), residual.to_bits());
                }
                // Never met: the build ran to a breakdown or to the cap.
                None => prop_assert_eq!(out.dimension, every.dimension),
            }
        }

        /// The cost-gated schedule against testing every dimension, on short
        /// stiff problems (cheap iterations, high `m`: the gate is open). The
        /// scheduled build converges whenever the every-dimension build
        /// does, to the same tolerance, no earlier, and at most one stride
        /// past the dimension at which the residual has settled below the
        /// tolerance (which is where it first gets there, when it falls
        /// monotonically).
        #[test]
        fn scheduled_build_converges_within_one_stride_of_testing_every_dimension(
            decades in 3.0f64..6.0,
            coupling in 0.3f64..0.49,
            h in 1e-13f64..2e-11,
            seed in 0usize..1000,
        ) {
            const STRIDE: f64 = 0.15;
            let n = 140;
            let cvals: Vec<f64> = (0..n)
                .map(|i| 1e-12 * 10f64.powf(-decades * (((i * 7 + seed) % 11) as f64) / 10.0))
                .collect();
            let c = diag(&cvals);
            let g = tridiag(n, 1e-3, -coupling * 1e-3);
            let g_lu = SparseLu::factorize(&g).unwrap();
            let v: Vec<f64> = (0..n).map(|i| 1.0 + (((i + seed) % 5) as f64) / 4.0).collect();
            let options = MevpOptions {
                tolerance: 1e-7,
                max_dimension: 60,
                ..MevpOptions::default()
            };
            // The residual at every dimension: an operator priced so that a
            // test always pays, and a tolerance that is never met.
            let mut residuals = vec![f64::INFINITY; options.max_dimension + 1];
            let unmeetable = MevpOptions { tolerance: -1.0, allow_unconverged: true, ..options.clone() };
            let op = EveryDimension(InverseJacobianOperator::new(&c, &g_lu));
            drive(&op, KIND, &v, h, &unmeetable, &mut MevpWorkspace::new(), Estimate::Column(&mut |process, ws| {
                let residual = exact_residual(process, Some(&g), ws);
                residuals[process.dimension()] = residual;
                Some(residual)
            }))
            .unwrap();
            let met = |j: usize| residuals[j] <= options.tolerance;
            let Some(m_every) = (2..=options.max_dimension).find(|&j| met(j)) else {
                return;
            };
            let one_stride_past = |j: usize| ((1.0 + STRIDE) * j as f64) as usize + 1;
            let m_settled = (m_every..=options.max_dimension)
                .find(|&j| (j..=one_stride_past(j).min(options.max_dimension)).all(met));

            let mut ws = MevpWorkspace::new();
            let scheduled = mevp_invert_krylov_with(&c, &g, &g_lu, &v, h, &options, &mut ws)
                .expect("converges whenever testing every dimension does");
            let m = scheduled.dimension;
            prop_assert!(m_every <= m, "{m} < {m_every}");
            // The same H_m, the same test: skipping tests moves no bit of
            // the ones that are run.
            prop_assert_eq!(scheduled.residual.to_bits(), residuals[m].to_bits());
            prop_assert!(scheduled.residual <= options.tolerance);
            if let Some(m_settled) = m_settled {
                prop_assert!(m <= one_stride_past(m_settled), "{m} overshoots {m_settled}");
            }
            prop_assert!(ws.residual_tests() < m);
            if m >= 20 {
                prop_assert!(ws.residual_tests() + 3 < m, "{} tests to reach {m}", ws.residual_tests());
            }
        }
    }
}

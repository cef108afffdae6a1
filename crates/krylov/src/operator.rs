//! Operators whose Krylov subspaces approximate the matrix exponential.
//!
//! All methods in this crate build a subspace `span{v, Av, A²v, …}` for some
//! operator `A` derived from the linearized circuit matrices `C` (capacitance)
//! and `G` (conductance):
//!
//! * **Standard Krylov** uses `A = J = -C⁻¹G` and therefore must factorize
//!   `C` — problematic when `C` is singular or densely coupled (paper
//!   Sec. II-B).
//! * **Invert Krylov** uses `A = J⁻¹ = -G⁻¹C` and only ever factorizes `G`
//!   (paper Sec. IV-A, the method this framework is built on).
//! * **Rational (shift-and-invert) Krylov** uses `A = (I - γJ)⁻¹ = (C + γG)⁻¹C`
//!   (referenced baseline from MATEX, used here for ablations).
//!
//! Every operator application is one sparse matrix–vector product followed by
//! one pair of triangular solves — the innermost loop of the whole simulator.
//! [`KrylovOperator::apply_into`] therefore writes into caller-provided
//! buffers and draws its scratch space from an [`OperatorWorkspace`], so a
//! transient run performs no per-application allocation.

use exi_sparse::{CsrMatrix, LuWorkspace, SparseLu, SparseResult};

/// Reusable scratch buffers for [`KrylovOperator::apply_into`].
///
/// One workspace serves any number of operators (and dimensions); buffers
/// grow to the largest dimension seen and are reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct OperatorWorkspace {
    tmp: Vec<f64>,
    lu: LuWorkspace,
}

impl OperatorWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        OperatorWorkspace::default()
    }

    /// Splits the workspace into an intermediate-product slice of length `n`
    /// and the triangular-solve workspace.
    fn parts(&mut self, n: usize) -> (&mut [f64], &mut LuWorkspace) {
        if self.tmp.len() < n {
            self.tmp.resize(n, 0.0);
        }
        (&mut self.tmp[..n], &mut self.lu)
    }
}

/// An operator that generates a Krylov subspace by repeated application.
pub trait KrylovOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Applies the operator to `v`, writing the result into `out` and using
    /// `ws` for scratch space. Allocation-free once the workspace has grown
    /// to the operator dimension.
    ///
    /// # Errors
    ///
    /// Returns a sparse-kernel error if an internal triangular solve fails.
    fn apply_into(
        &self,
        v: &[f64],
        out: &mut [f64],
        ws: &mut OperatorWorkspace,
    ) -> SparseResult<()>;

    /// Stored matrix and factor entries one application reads — the sparse
    /// work of an Arnoldi iteration in the cost model of the convergence-test
    /// schedule (see `arnoldi::test_can_pay`). The provided value is that of
    /// an operator applied as a dense matrix.
    fn nnz(&self) -> usize {
        self.dim().saturating_mul(self.dim())
    }

    /// Applies the operator to `v`, allocating the result (convenience
    /// wrapper over [`KrylovOperator::apply_into`]).
    ///
    /// # Errors
    ///
    /// Same as [`KrylovOperator::apply_into`].
    fn apply(&self, v: &[f64]) -> SparseResult<Vec<f64>> {
        let mut out = vec![0.0; self.dim()];
        self.apply_into(v, &mut out, &mut OperatorWorkspace::new())?;
        Ok(out)
    }
}

/// The circuit Jacobian `J = -C⁻¹ G` (standard Krylov subspace).
#[derive(Debug)]
pub(crate) struct JacobianOperator<'a> {
    g: &'a CsrMatrix,
    c_lu: &'a SparseLu,
}

impl<'a> JacobianOperator<'a> {
    /// Creates the operator from `G` and a factorization of `C`.
    pub(crate) fn new(g: &'a CsrMatrix, c_lu: &'a SparseLu) -> Self {
        JacobianOperator { g, c_lu }
    }
}

impl KrylovOperator for JacobianOperator<'_> {
    fn dim(&self) -> usize {
        self.g.rows()
    }

    fn nnz(&self) -> usize {
        self.g.nnz() + self.c_lu.fill()
    }

    fn apply_into(
        &self,
        v: &[f64],
        out: &mut [f64],
        ws: &mut OperatorWorkspace,
    ) -> SparseResult<()> {
        let (tmp, lu_ws) = ws.parts(self.g.rows());
        self.g.mul_vec_into(v, tmp);
        self.c_lu.solve_into(tmp, out, lu_ws)?;
        for xi in out.iter_mut() {
            *xi = -*xi;
        }
        Ok(())
    }
}

/// The inverse Jacobian `J⁻¹ = -G⁻¹ C` (invert Krylov subspace, paper Eq. 18).
#[derive(Debug)]
pub struct InverseJacobianOperator<'a> {
    c: &'a CsrMatrix,
    g_lu: &'a SparseLu,
}

impl<'a> InverseJacobianOperator<'a> {
    /// Creates the operator from `C` and a factorization of `G`.
    pub fn new(c: &'a CsrMatrix, g_lu: &'a SparseLu) -> Self {
        InverseJacobianOperator { c, g_lu }
    }
}

impl KrylovOperator for InverseJacobianOperator<'_> {
    fn dim(&self) -> usize {
        self.c.rows()
    }

    fn nnz(&self) -> usize {
        self.c.nnz() + self.g_lu.fill()
    }

    fn apply_into(
        &self,
        v: &[f64],
        out: &mut [f64],
        ws: &mut OperatorWorkspace,
    ) -> SparseResult<()> {
        let (tmp, lu_ws) = ws.parts(self.c.rows());
        self.c.mul_vec_into(v, tmp);
        self.g_lu.solve_into(tmp, out, lu_ws)?;
        for xi in out.iter_mut() {
            *xi = -*xi;
        }
        Ok(())
    }
}

/// The shift-and-invert operator `(I - γJ)⁻¹ = (C + γG)⁻¹ C`.
#[derive(Debug)]
pub(crate) struct ShiftInvertOperator<'a> {
    c: &'a CsrMatrix,
    shifted_lu: &'a SparseLu,
}

impl<'a> ShiftInvertOperator<'a> {
    /// Creates the operator from `C` and a factorization of `C + γG`.
    pub(crate) fn new(c: &'a CsrMatrix, shifted_lu: &'a SparseLu) -> Self {
        ShiftInvertOperator { c, shifted_lu }
    }
}

impl KrylovOperator for ShiftInvertOperator<'_> {
    fn dim(&self) -> usize {
        self.c.rows()
    }

    fn nnz(&self) -> usize {
        self.c.nnz() + self.shifted_lu.fill()
    }

    fn apply_into(
        &self,
        v: &[f64],
        out: &mut [f64],
        ws: &mut OperatorWorkspace,
    ) -> SparseResult<()> {
        let (tmp, lu_ws) = ws.parts(self.c.rows());
        self.c.mul_vec_into(v, tmp);
        self.shifted_lu.solve_into(tmp, out, lu_ws)
    }
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

    #[test]
    fn jacobian_operator_applies_minus_cinv_g() {
        let c = diag(&[2.0, 4.0]);
        let g = diag(&[1.0, 2.0]);
        let c_lu = SparseLu::factorize(&c).unwrap();
        let op = JacobianOperator::new(&g, &c_lu);
        assert_eq!(op.dim(), 2);
        let y = op.apply(&[1.0, 1.0]).unwrap();
        assert!((y[0] + 0.5).abs() < 1e-14);
        assert!((y[1] + 0.5).abs() < 1e-14);
    }

    #[test]
    fn inverse_jacobian_operator_applies_minus_ginv_c() {
        let c = diag(&[2.0, 4.0]);
        let g = diag(&[1.0, 2.0]);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let op = InverseJacobianOperator::new(&c, &g_lu);
        let y = op.apply(&[1.0, 1.0]).unwrap();
        assert!((y[0] + 2.0).abs() < 1e-14);
        assert!((y[1] + 2.0).abs() < 1e-14);
    }

    #[test]
    fn shift_invert_operator_matches_formula() {
        let c = diag(&[1.0, 1.0]);
        let g = diag(&[2.0, 4.0]);
        let gamma = 0.5;
        let shifted = CsrMatrix::linear_combination(1.0, &c, gamma, &g).unwrap();
        let lu = SparseLu::factorize(&shifted).unwrap();
        let op = ShiftInvertOperator::new(&c, &lu);
        let y = op.apply(&[1.0, 1.0]).unwrap();
        // (1 + 0.5*2)^-1 = 0.5 ; (1 + 0.5*4)^-1 = 1/3
        assert!((y[0] - 0.5).abs() < 1e-14);
        assert!((y[1] - 1.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn apply_into_reuses_workspace_and_matches_apply() {
        let c = diag(&[2.0, 3.0, 5.0]);
        let g = diag(&[1.0, 2.0, 4.0]);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let op = InverseJacobianOperator::new(&c, &g_lu);
        let mut ws = OperatorWorkspace::new();
        let mut out = vec![0.0; 3];
        for trial in 0..3 {
            let v = vec![1.0 + trial as f64, -1.0, 0.5];
            op.apply_into(&v, &mut out, &mut ws).unwrap();
            assert_eq!(out, op.apply(&v).unwrap(), "trial {trial}");
        }
    }
}

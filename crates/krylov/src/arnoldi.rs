//! The Arnoldi process and the standard-Krylov MEVP front-end.
//!
//! The Arnoldi iteration is shared by all three subspace flavours; only the
//! operator being applied and the convergence test differ. The standard
//! Krylov front-end in this module corresponds to the prior-work formulation
//! (paper Eq. 5–6) that requires a factorization of `C`; it exists both as a
//! baseline for the ablation benchmarks and to demonstrate the convergence
//! problem the invert Krylov method solves.
//!
//! The process draws its basis vectors and Hessenberg storage from a
//! [`MevpWorkspace`] arena and applies operators through
//! [`KrylovOperator::apply_into`], so building a subspace in a transient
//! engine's steady state performs no circuit-sized heap allocation.
//! Convergence tests run on the small Hessenberg matrix alone — the basis is
//! never cloned.
//!
//! All three front-ends share one drive loop, `drive`: step, breakdown,
//! minimum dimension, convergence test, tolerance, finalisation. A front-end
//! supplies only its operator and its residual's circuit-matrix factor. The
//! loop computes the one small exponential a test needs — the column
//! `φ₀(hS)·e₁` — only when a cheap screen says the test can pass, and,
//! because the converging test and the eagerly returned product
//! [`MevpOutcome::mevp`] are functions of the same `(H_m, h)`, hands the
//! column of the final test straight to the product.

use exi_sparse::{vector, CsrMatrix, DenseMatrix, SparseLu};

#[cfg(debug_assertions)]
use crate::decomposition::DenseArena;
use crate::decomposition::{KrylovDecomposition, ProjectionKind};
use crate::error::{KrylovError, KrylovResult};
use crate::mevp::{MevpOptions, MevpOutcome, MevpWorkspace};
use crate::operator::{JacobianOperator, KrylovOperator};

/// Subdiagonal magnitude below which the Arnoldi process is declared to have
/// found an invariant subspace ("happy breakdown").
const BREAKDOWN_TOLERANCE: f64 = 1e-14;

/// Norm-ratio trigger for the re-orthogonalization pass (DGKS criterion):
/// the second Gram–Schmidt sweep runs only when the first sweep shrank the
/// vector below this fraction of its **pre-orthogonalization** norm — i.e.
/// when cancellation may actually have eaten significant digits. (The
/// previous guard `correction.abs() > 0.0` was effectively always true, so
/// every absorb paid a full second sweep even when it contributed nothing.)
const REORTH_NORM_RATIO: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Modelled cost of one convergence test at dimension `j`, `TEST_COST·j³`,
/// in the multiply–adds of the sparse work it competes with: an inverse, six
/// Padé products, one elimination and the squarings on a `j × j` matrix.
/// Fixed by measurement (docs/PERFORMANCE.md, "Small dense layer").
const TEST_COST: usize = 26;

/// Once a test costs more than one more iteration, a failed test at
/// dimension `j` schedules the next at `j + max(1, ⌊TEST_STRIDE·j⌋)`: the
/// subspace then overshoots the converging dimension by at most that
/// fraction, and the number of expensive tests grows with `log m`, not `m`.
/// Fixed by measurement, like [`TEST_COST`].
const TEST_STRIDE: f64 = 0.15;

/// A test that cannot pay runs its exponential only when the screened
/// residual is at most `SCREEN_MARGIN` times the tolerance. The screen reads
/// the exact residual to 0.3 % on the benchmark circuits, so at 2 no test
/// that passes is skipped, and every skip is one the exact test would fail
/// (debug builds check each one). Fixed by measurement, like [`TEST_COST`].
const SCREEN_MARGIN: f64 = 2.0;

/// Whether a convergence test at dimension `j` costs no more than the
/// Arnoldi iteration it might save: one operator application (`2·nnz`) plus
/// orthogonalisation against `j` vectors of length `n` (`4·n·j`). A pure
/// function of `(n, nnz, j)` — no timing, no state — so the dimensions
/// tested, and with them every bit of the result, depend on the problem
/// alone.
fn test_can_pay(n: usize, nnz: usize, j: usize) -> bool {
    let test = TEST_COST.saturating_mul(j.saturating_pow(3));
    let iteration = nnz
        .saturating_mul(2)
        .saturating_add(n.saturating_mul(4 * j));
    test <= iteration
}

/// Incremental Arnoldi factorization with classical Gram–Schmidt
/// orthogonalization and the DGKS correction (Daniel, Gragg, Kaufman &
/// Stewart 1976): one guarded second pass, "twice is enough" (Giraud, Langou
/// & Rozložník 2005). Each pass is two blocked kernels over `w`: all
/// coefficients, then one combined update.
#[derive(Debug)]
pub(crate) struct ArnoldiProcess {
    basis: Vec<Vec<f64>>,
    hess: DenseMatrix,
    beta: f64,
    m: usize,
    max_m: usize,
    breakdown: bool,
    /// Candidate vector being orthogonalized (`A·v_m` before `absorb`).
    w: Vec<f64>,
}

impl ArnoldiProcess {
    /// Starts the process from vector `v` with a private workspace
    /// (convenience for tests; hot paths use [`ArnoldiProcess::new_in`]).
    #[cfg(test)]
    pub(crate) fn new(v: &[f64], max_m: usize) -> KrylovResult<Self> {
        Self::new_in(v, max_m, &mut MevpWorkspace::new())
    }

    /// Starts the process from vector `v`, drawing storage from `ws`.
    pub(crate) fn new_in(v: &[f64], max_m: usize, ws: &mut MevpWorkspace) -> KrylovResult<Self> {
        if max_m == 0 {
            // A zero-dimensional subspace can represent nothing; erroring here
            // keeps the front-ends from finalizing an empty decomposition
            // (whose constructor would panic on its invariants).
            return Err(KrylovError::NotConverged {
                max_dimension: 0,
                residual: f64::NAN,
                tolerance: 0.0,
            });
        }
        let beta = vector::norm2(v);
        if beta == 0.0 || !beta.is_finite() {
            return Err(KrylovError::ZeroStartVector);
        }
        let mut v1 = ws.take_vec(v.len());
        for (out, x) in v1.iter_mut().zip(v.iter()) {
            *out = x / beta;
        }
        let mut basis = ws.take_spine(max_m + 1);
        basis.push(v1);
        if ws.coefficients.len() < max_m {
            ws.coefficients.resize(max_m, 0.0);
        }
        Ok(ArnoldiProcess {
            basis,
            hess: ws.take_hess(max_m + 1, max_m),
            beta,
            m: 0,
            max_m,
            breakdown: false,
            w: ws.take_vec(v.len()),
        })
    }

    /// The most recent basis vector (the one the operator is applied to for
    /// the next step; engines go through [`ArnoldiProcess::step`]).
    #[cfg(test)]
    pub(crate) fn last_vector(&self) -> &[f64] {
        &self.basis[self.m]
    }

    /// The tentative `(m+1)`-th basis vector, available after a non-breakdown
    /// step (used by the invert-Krylov residual of Eq. 22).
    pub(crate) fn next_vector(&self) -> Option<&[f64]> {
        if self.breakdown {
            None
        } else if self.basis.len() > self.m {
            Some(&self.basis[self.m])
        } else {
            None
        }
    }

    /// Current subspace dimension.
    pub(crate) fn dimension(&self) -> usize {
        self.m
    }

    /// Whether a happy breakdown occurred (subspace is invariant and exact).
    pub(crate) fn breakdown(&self) -> bool {
        self.breakdown
    }

    /// Applies `op` to the newest basis vector and absorbs the result —
    /// one full Arnoldi step without any allocation. Returns `h_{j+1,j}`.
    pub(crate) fn step<O: KrylovOperator>(
        &mut self,
        op: &O,
        ws: &mut MevpWorkspace,
    ) -> KrylovResult<f64> {
        if self.breakdown {
            // The subspace is invariant and exact; there is no vector to
            // expand with (the basis holds only `m` vectors). A further step
            // is a harmless no-op rather than an out-of-bounds panic.
            return Ok(0.0);
        }
        if self.m >= self.max_m {
            return Err(KrylovError::NotConverged {
                max_dimension: self.max_m,
                residual: f64::NAN,
                tolerance: 0.0,
            });
        }
        op.apply_into(&self.basis[self.m], &mut self.w, &mut ws.op)?;
        self.absorb_candidate(ws)
    }

    /// Absorbs an externally computed `w = A·v_j` (test helper; engines use
    /// [`ArnoldiProcess::step`]).
    #[cfg(test)]
    pub(crate) fn absorb(&mut self, w: Vec<f64>) -> KrylovResult<f64> {
        if self.breakdown {
            return Ok(0.0);
        }
        if self.m >= self.max_m {
            return Err(KrylovError::NotConverged {
                max_dimension: self.max_m,
                residual: f64::NAN,
                tolerance: 0.0,
            });
        }
        self.w.copy_from_slice(&w);
        let mut ws = MevpWorkspace::new();
        ws.coefficients.resize(self.max_m, 0.0);
        self.absorb_candidate(&mut ws)
    }

    /// Orthogonalizes `self.w` against the basis and appends a new column to
    /// the Hessenberg matrix. Returns the subdiagonal entry `h_{j+1,j}`.
    fn absorb_candidate(&mut self, ws: &mut MevpWorkspace) -> KrylovResult<f64> {
        let j = self.m;
        let basis = &self.basis[..=j];
        let coefficients = &mut ws.coefficients[..=j];
        let pre_norm = vector::norm2(&self.w);
        // Classical Gram–Schmidt: every coefficient against the same `w`,
        // then one combined update.
        vector::dots_against(basis, &self.w, coefficients);
        vector::sub_combination(basis, coefficients, &mut self.w);
        for (i, &hij) in coefficients.iter().enumerate() {
            self.hess.add_to(i, j, hij);
        }
        // One guarded re-orthogonalization pass (DGKS): only when the first
        // sweep cancelled most of the vector can round-off have contaminated
        // the remainder; otherwise the second sweep contributes nothing and
        // is skipped.
        let mut hnext = vector::norm2(&self.w);
        if hnext < REORTH_NORM_RATIO * pre_norm {
            vector::dots_against(basis, &self.w, coefficients);
            vector::sub_combination(basis, coefficients, &mut self.w);
            for (i, &correction) in coefficients.iter().enumerate() {
                self.hess.add_to(i, j, correction);
            }
            hnext = vector::norm2(&self.w);
        }
        self.m += 1;
        if !hnext.is_finite() {
            // The operator application overflowed: report it instead of
            // normalizing by NaN and poisoning every later basis vector.
            return Err(KrylovError::Breakdown { dimension: self.m });
        }
        if hnext <= BREAKDOWN_TOLERANCE {
            self.breakdown = true;
            return Ok(0.0);
        }
        self.hess.set(j + 1, j, hnext);
        let mut v_next = ws.take_vec(self.w.len());
        std::mem::swap(&mut v_next, &mut self.w);
        vector::scale(1.0 / hnext, &mut v_next);
        self.basis.push(v_next);
        Ok(hnext)
    }

    /// Norm of the start vector.
    pub(crate) fn beta(&self) -> f64 {
        self.beta
    }

    /// Computes `φ₀(h·S)·e₁` of the current iterate into `ws.dense` (with
    /// `S` next to it), from the small Hessenberg matrix alone.
    fn expv_column(
        &self,
        kind: ProjectionKind,
        h: f64,
        ws: &mut MevpWorkspace,
    ) -> KrylovResult<()> {
        ws.dense.phi_column(kind, &self.hess, self.m, 0, h)
    }

    /// Residual estimate of the current iterate from the column
    /// [`drive`] just computed for it (no basis access, nothing cloned).
    pub(crate) fn residual_scalar(&self, kind: ProjectionKind, ws: &MevpWorkspace) -> f64 {
        let h_next = self.hess.get(self.m, self.m - 1);
        ws.dense.residual_scalar(kind, self.m, h_next, self.beta)
    }

    /// [`ArnoldiProcess::residual_scalar`] of the current iterate, screened:
    /// from `H_m` alone, without an exponential (`DenseArena::screen`).
    fn screened_residual_scalar(
        &self,
        kind: ProjectionKind,
        h: f64,
        ws: &mut MevpWorkspace,
    ) -> Option<f64> {
        ws.dense
            .screened_residual_scalar(kind, &self.hess, self.m, h, self.beta)
    }

    /// Whether the exact convergence test of the current iterate would pass
    /// — or end the build with an error — computed in `check`, an arena of
    /// its own, so that no counter and no column of the build's arena
    /// moves. What debug builds check after every test the screen skipped.
    #[cfg(debug_assertions)]
    fn exact_test_concludes(
        &self,
        kind: ProjectionKind,
        h: f64,
        factor: f64,
        tolerance: f64,
        check: &mut DenseArena,
    ) -> bool {
        match check.phi_column(kind, &self.hess, self.m, 0, h) {
            Ok(()) => {
                let h_next = self.hess.get(self.m, self.m - 1);
                check.residual_scalar(kind, self.m, h_next, self.beta) * factor <= tolerance
            }
            Err(KrylovError::Sparse(_)) => false,
            Err(_) => true,
        }
    }

    /// Finalizes into a [`KrylovDecomposition`] of the given kind, returning
    /// the scratch storage to `ws` for the next subspace build.
    pub(crate) fn into_decomposition_in(
        self,
        kind: ProjectionKind,
        ws: &mut MevpWorkspace,
    ) -> KrylovDecomposition {
        let m = self.m;
        let rows = if self.breakdown { m } else { m + 1 };
        let mut hess_small = ws.trimmed.pop().unwrap_or_default();
        self.hess.submatrix_into(rows, m, &mut hess_small);
        ws.recycle_vec(self.w);
        ws.hess = Some(self.hess);
        KrylovDecomposition::new(kind, self.basis, hess_small, self.beta, m)
    }

    /// Finalizes into a [`KrylovDecomposition`] (test helper).
    #[cfg(test)]
    pub(crate) fn into_decomposition(self, kind: ProjectionKind) -> KrylovDecomposition {
        let mut ws = MevpWorkspace::new();
        self.into_decomposition_in(kind, &mut ws)
    }
}

/// Computes `e^{hJ}·v` with the **standard** Krylov subspace `K_m(J, v)`,
/// `J = -C⁻¹G` (paper Eq. 5–6). Requires a factorization of `C`.
///
/// # Errors
///
/// * [`KrylovError::ZeroStartVector`] if `v` is zero.
/// * [`KrylovError::NotConverged`] if the residual tolerance is not met within
///   `options.max_dimension`.
/// * Sparse kernel errors from the `C` solves.
///
/// # Examples
///
/// ```
/// use exi_sparse::{SparseLu, TripletMatrix};
/// use exi_krylov::{mevp_standard_krylov, MevpOptions};
///
/// # fn main() -> Result<(), exi_krylov::KrylovError> {
/// // A 2x2 RC system: C = I, G = diag(1, 2), so e^{hJ} = diag(e^-h, e^-2h).
/// let mut c = TripletMatrix::new(2, 2);
/// c.push(0, 0, 1.0);
/// c.push(1, 1, 1.0);
/// let c = c.to_csr();
/// let mut g = TripletMatrix::new(2, 2);
/// g.push(0, 0, 1.0);
/// g.push(1, 1, 2.0);
/// let g = g.to_csr();
/// let c_lu = SparseLu::factorize(&c)?;
/// let out = mevp_standard_krylov(&g, &c_lu, &[1.0, 1.0], 0.1, &MevpOptions::default())?;
/// assert!((out.mevp[0] - (-0.1f64).exp()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn mevp_standard_krylov(
    g: &CsrMatrix,
    c_lu: &SparseLu,
    v: &[f64],
    h: f64,
    options: &MevpOptions,
) -> KrylovResult<MevpOutcome> {
    let op = JacobianOperator::new(g, c_lu);
    // Saad's posterior estimate: beta * h_{m+1,m} * |e_mᵀ e^{hH_m} e₁|.
    drive(
        &op,
        ProjectionKind::Direct,
        v,
        h,
        options,
        &mut MevpWorkspace::new(),
        Estimate::Residual(&mut |_, _| 1.0),
    )
}

/// How a front-end turns a convergence test into the residual [`drive`]
/// compares with the tolerance.
pub(crate) enum Estimate<'a> {
    /// The residual scalar `β·|h_{m+1,m}|·|e_mᵀ ⋯ e₁|` times the closure's
    /// circuit-matrix factor (`‖G·v_{m+1}‖` for Eq. (22) in amperes, or 1).
    /// The closure runs before the test's exponential, so a test that
    /// cannot pay is screened.
    Residual(&'a mut dyn FnMut(&ArnoldiProcess, &mut MevpWorkspace) -> f64),
    /// Any estimate read off the tested column in `ws.dense` (`None`: no
    /// estimate yet). Every scheduled test computes its exponential.
    Column(&'a mut dyn FnMut(&ArnoldiProcess, &mut MevpWorkspace) -> Option<f64>),
}

/// The one Arnoldi drive loop behind every MEVP front-end: expands
/// `K_m(op, v)` until the residual `estimate` gives meets
/// `options.tolerance` (or the subspace breaks down or fills up), then
/// finalises the decomposition and the eager product `e^{hJ}·v`.
///
/// A convergence test computes the column `φ₀(hS)·e₁` of the process's
/// current `H_m` — one small exponential — and its residual from it. A test
/// whose small problem is too ill-conditioned to eliminate is skipped and
/// the subspace keeps growing.
///
/// Which dimensions are tested: every one (from `options.min_dimension`)
/// while [`test_can_pay`]; past that, after a failed test at `j` the next is
/// at `j + max(1, ⌊TEST_STRIDE·j⌋)`. `options.max_dimension` and a breakdown
/// always conclude. A scheduled [`Estimate::Residual`] test that cannot pay
/// is screened first, and runs only when the screened residual is within
/// [`SCREEN_MARGIN`] of the tolerance; a skipped test still counts in
/// `ws.residual_tests`. The test at `options.max_dimension` is never
/// screened: the product needs its column anyway.
pub(crate) fn drive<O: KrylovOperator>(
    op: &O,
    kind: ProjectionKind,
    v: &[f64],
    h: f64,
    options: &MevpOptions,
    ws: &mut MevpWorkspace,
    mut estimate: Estimate<'_>,
) -> KrylovResult<MevpOutcome> {
    if v.len() != op.dim() {
        return Err(KrylovError::DimensionMismatch {
            expected: op.dim(),
            found: v.len(),
        });
    }
    let mut process = ArnoldiProcess::new_in(v, options.max_dimension, ws)?;
    let (n, nnz) = (op.dim(), op.nnz());
    let mut residual = f64::INFINITY;
    // Dimension whose φ₀ column is the one in `ws.dense` (0: none).
    let mut column_of = 0;
    // First dimension at which a test that cannot pay is due anyway.
    let mut next_test = 0;
    while process.dimension() < options.max_dimension {
        process.step(op, ws)?;
        if process.breakdown() {
            residual = 0.0;
            break;
        }
        let j = process.dimension();
        if j < options.min_dimension {
            continue;
        }
        if j < next_test.min(options.max_dimension) && !test_can_pay(n, nnz, j) {
            continue;
        }
        next_test = j + ((TEST_STRIDE * j as f64) as usize).max(1);
        ws.residual_tests += 1;
        let factor = match &mut estimate {
            Estimate::Residual(factor) => Some(factor(&process, ws)),
            Estimate::Column(_) => None,
        };
        if let Some(factor) = factor {
            if j < options.max_dimension && !test_can_pay(n, nnz, j) {
                let screened = process.screened_residual_scalar(kind, h, ws);
                if screened.is_some_and(|s| s * factor > SCREEN_MARGIN * options.tolerance) {
                    #[cfg(debug_assertions)]
                    assert!(
                        !process.exact_test_concludes(
                            kind,
                            h,
                            factor,
                            options.tolerance,
                            &mut ws.check
                        ),
                        "the screen skipped a test that concludes the build at m = {j}"
                    );
                    continue;
                }
            }
        }
        match process.expv_column(kind, h, ws) {
            Ok(()) => column_of = j,
            // An ill-conditioned small Hessenberg early in the iteration is
            // not fatal; keep expanding the subspace.
            Err(KrylovError::Sparse(_)) => continue,
            Err(e) => return Err(e),
        }
        let estimated = match &mut estimate {
            Estimate::Residual(_) => factor.map(|f| process.residual_scalar(kind, ws) * f),
            Estimate::Column(column) => column(&process, ws),
        };
        if let Some(estimated) = estimated {
            residual = estimated;
        }
        if residual <= options.tolerance {
            break;
        }
    }
    if residual > options.tolerance && !options.allow_unconverged {
        return Err(KrylovError::NotConverged {
            max_dimension: process.dimension(),
            residual,
            tolerance: options.tolerance,
        });
    }
    let dimension = process.dimension();
    // The product is a function of the same (H_m, h) as the last test: when
    // that test ran at the final dimension its column is the product's.
    if column_of != dimension {
        process.expv_column(kind, h, ws)?;
    }
    let beta = process.beta();
    let decomposition = process.into_decomposition_in(kind, ws);
    let mut mevp = ws.take_vec(v.len());
    decomposition.lift_scaled_into(beta, ws.dense.column(dimension), &mut mevp);
    Ok(MevpOutcome {
        mevp,
        decomposition,
        residual,
        dimension,
    })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the formulas under test
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
    fn zero_start_vector_is_rejected() {
        assert!(matches!(
            ArnoldiProcess::new(&[0.0, 0.0], 5),
            Err(KrylovError::ZeroStartVector)
        ));
    }

    #[test]
    fn arnoldi_basis_is_orthonormal() {
        // Operator: a fixed dense-ish sparse matrix applied repeatedly.
        let a = {
            let mut t = TripletMatrix::new(4, 4);
            let vals = [
                [2.0, -1.0, 0.0, 0.5],
                [-1.0, 3.0, -1.0, 0.0],
                [0.0, -1.0, 2.5, -1.0],
                [0.5, 0.0, -1.0, 4.0],
            ];
            for i in 0..4 {
                for j in 0..4 {
                    t.push(i, j, vals[i][j]);
                }
            }
            t.to_csr()
        };
        let v = vec![1.0, 0.0, -2.0, 1.0];
        let mut p = ArnoldiProcess::new(&v, 4).unwrap();
        for _ in 0..4 {
            if p.breakdown() {
                break;
            }
            let w = a.mul_vec(p.last_vector());
            p.absorb(w).unwrap();
        }
        let d = p.into_decomposition(ProjectionKind::Direct);
        let basis = d.basis();
        for i in 0..basis.len() {
            for j in 0..basis.len() {
                let dot = vector::dot(&basis[i], &basis[j]);
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-10, "({i},{j}) -> {dot}");
            }
        }
    }

    /// Classical Gram–Schmidt alone loses orthogonality as fast as the
    /// subspace converges (without the DGKS pass this reads 1.0); with it the
    /// basis stays orthonormal to round-off (6.7e-16). A stiff 514-node RC
    /// ladder — capacitances over six decades, so the invert-Krylov subspace
    /// locks onto its slow modes early — built to 120 dimensions with a
    /// tolerance no residual meets.
    #[test]
    fn a_long_stiff_invert_krylov_basis_stays_orthonormal() {
        let n = 514;
        let capacitances: Vec<f64> = (0..n).map(|i| 10f64.powi(-((i % 7) as i32))).collect();
        let c = diag(&capacitances);
        let mut g = TripletMatrix::new(n, n);
        for i in 0..n {
            g.push(i, i, 1.0);
            if i + 1 < n {
                g.push(i, i + 1, -0.45);
                g.push(i + 1, i, -0.45);
            }
        }
        let g = g.to_csr();
        let g_lu = SparseLu::factorize(&g).unwrap();
        let v: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 11) as f64 / 11.0).collect();
        let opts = MevpOptions {
            tolerance: 0.0,
            max_dimension: 120,
            allow_unconverged: true,
            ..MevpOptions::default()
        };
        let out = crate::invert::mevp_invert_krylov(&c, &g, &g_lu, &v, 1.0, &opts).unwrap();
        let basis = out.decomposition.basis();
        assert!(out.dimension >= 100, "dimension {}", out.dimension);
        let mut worst = 0.0f64;
        for (i, vi) in basis.iter().enumerate() {
            for (j, vj) in basis.iter().enumerate() {
                let identity = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((vector::dot(vi, vj) - identity).abs());
            }
        }
        assert!(worst <= 1e-13, "max |VᵀV − I| = {worst:e}");
    }

    #[test]
    fn workspace_recycling_reuses_basis_storage() {
        let c = diag(&[1.0, 2.0, 3.0, 4.0]);
        let g = diag(&[1.0, 1.0, 1.0, 1.0]);
        let g_lu = SparseLu::factorize(&g).unwrap();
        let mut ws = MevpWorkspace::new();
        let v = vec![1.0, -0.5, 2.0, 0.25];
        let opts = MevpOptions::default();
        let first =
            crate::invert::mevp_invert_krylov_with(&c, &g, &g_lu, &v, 0.1, &opts, &mut ws).unwrap();
        let after_first = ws.allocations();
        let first_mevp = first.mevp.clone();
        ws.recycle_vec(first.mevp);
        ws.recycle(first.decomposition);
        let second =
            crate::invert::mevp_invert_krylov_with(&c, &g, &g_lu, &v, 0.1, &opts, &mut ws).unwrap();
        // The second build ran entirely from the pool.
        assert_eq!(ws.allocations(), after_first);
        // And produced the same result.
        assert_eq!(first_mevp, second.mevp);
    }

    #[test]
    fn standard_krylov_matches_diagonal_exponential() {
        let c = diag(&[1.0, 1.0, 1.0]);
        let g = diag(&[1.0, 5.0, 10.0]);
        let c_lu = SparseLu::factorize(&c).unwrap();
        let v = vec![1.0, 2.0, -1.0];
        let h = 0.05;
        let out = mevp_standard_krylov(&g, &c_lu, &v, h, &MevpOptions::default()).unwrap();
        for (i, &gi) in [1.0, 5.0, 10.0].iter().enumerate() {
            let expected = v[i] * (-h * gi).exp();
            assert!(
                (out.mevp[i] - expected).abs() < 1e-6,
                "{} vs {}",
                out.mevp[i],
                expected
            );
        }
        assert!(out.dimension <= 3);
    }

    #[test]
    fn breakdown_gives_exact_result() {
        // v is an eigenvector of J: subspace dimension 1 suffices.
        let c = diag(&[1.0, 1.0]);
        let g = diag(&[3.0, 3.0]);
        let c_lu = SparseLu::factorize(&c).unwrap();
        let out =
            mevp_standard_krylov(&g, &c_lu, &[1.0, 1.0], 0.2, &MevpOptions::default()).unwrap();
        assert_eq!(out.dimension, 1);
        assert!((out.mevp[0] - (-0.6_f64).exp()).abs() < 1e-12);
        assert_eq!(out.residual, 0.0);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let c = diag(&[1.0, 1.0]);
        let g = diag(&[1.0, 1.0]);
        let c_lu = SparseLu::factorize(&c).unwrap();
        assert!(matches!(
            mevp_standard_krylov(&g, &c_lu, &[1.0], 0.1, &MevpOptions::default()),
            Err(KrylovError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn not_converged_when_dimension_capped() {
        // A stiff system with widely spread eigenvalues and a tiny cap.
        let n = 20;
        let c = diag(&vec![1.0; n]);
        let gvals: Vec<f64> = (0..n).map(|i| 10f64.powi((i % 7) as i32)).collect();
        let g = diag(&gvals);
        let c_lu = SparseLu::factorize(&c).unwrap();
        let v = vec![1.0; n];
        let opts = MevpOptions {
            max_dimension: 3,
            tolerance: 1e-12,
            ..MevpOptions::default()
        };
        let r = mevp_standard_krylov(&g, &c_lu, &v, 1e-3, &opts);
        assert!(matches!(r, Err(KrylovError::NotConverged { .. })));
    }
}

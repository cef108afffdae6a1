//! Krylov decompositions and their (re-)evaluation.
//!
//! A run of the Arnoldi process produces an orthonormal basis `V_{m+1}` and an
//! upper-Hessenberg matrix `H̄_m` of size `(m+1) × m`. The approximation of
//! `φ_k(hJ)·v` only involves the small matrix, so once the decomposition has
//! been built it can be re-evaluated for *any* step size `h` at negligible
//! cost — this is the "scaling-invariance" the paper exploits to adjust the
//! step size without new LU factorizations or new Krylov bases
//! (Sec. III/IV, Algorithm 2 line 9).
//!
//! All computations that involve only the small Hessenberg matrix (stable φ
//! evaluation, residual estimates) run inside a `DenseArena` — the
//! small-dense half of a [`MevpWorkspace`] — over `(kind, H_m)`, so the
//! in-progress Arnoldi iteration runs its convergence test without
//! materializing a decomposition and, in steady state, without allocating.
//! The rule of this layer: **every small exponential is computed once, in
//! `O(m³)`, at the smallest size that yields what is read** — which is one
//! column, `φ_p(hS)·e₁`, of one `(m+p) × (m+p)` exponential — **and only
//! when it can pass**: a convergence test that cannot pay is screened first
//! by `DenseArena::screen`, the Eq. (22) scalar as a contour integral in
//! `O(m²)`.

use std::sync::OnceLock;

use exi_sparse::dense::{norm_inf, DenseLu};
use exi_sparse::DenseMatrix;

use crate::error::{KrylovError, KrylovResult};
use crate::expm::{expm_in, grow, PadeScratch};
use crate::mevp::MevpWorkspace;
use crate::phi::MAX_PHI_ORDER;

/// How the small Hessenberg matrix relates to the circuit Jacobian `J`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ProjectionKind {
    /// Standard Krylov subspace: `H_m ≈ V_mᵀ J V_m`.
    Direct,
    /// Invert Krylov subspace: `H_m ≈ V_mᵀ J⁻¹ V_m`, so `J ≈ V_m H_m⁻¹ V_mᵀ`.
    Inverse,
    /// Shift-and-invert subspace with shift `gamma`:
    /// `H_m ≈ V_mᵀ (I − γJ)⁻¹ V_m`, so `J ≈ V_m (I − H_m⁻¹)/γ V_mᵀ`.
    ShiftInvert {
        /// The shift `γ` used when building the subspace.
        gamma: f64,
    },
}

/// Writes `(hm − delta·I)⁻¹` into `inverse`, escalating the shift if the
/// matrix is exactly singular even after shifting. `shifted` and `pivots`
/// are elimination scratch.
fn shifted_inverse(
    hm: &[f64],
    m: usize,
    delta: f64,
    shifted: &mut [f64],
    pivots: &mut [usize],
    inverse: &mut [f64],
) -> KrylovResult<()> {
    let shift_by = |delta: f64, shifted: &mut [f64]| {
        shifted.copy_from_slice(hm);
        for i in 0..m {
            shifted[i * m + i] -= delta;
        }
    };
    shift_by(delta, shifted);
    if let Ok(lu) = DenseLu::factor_in(m, shifted, pivots) {
        lu.inverse_into(inverse);
        return Ok(());
    }
    let bigger = (1e4 * delta).max(1e-8 * norm_inf(hm, m).max(f64::MIN_POSITIVE));
    shift_by(bigger, shifted);
    DenseLu::factor_in(m, shifted, pivots)?.inverse_into(inverse);
    Ok(())
}

/// Quadrature nodes of the contour screen: the trapezoid rule on Trefethen,
/// Weideman & Schmelzer's parabola `z(θ) = N(0.1309 − 0.1194θ² + 0.25iθ)`
/// (BIT 2006), whose error for `e^z` on the negative real axis falls like
/// `2.85^{−N}`. Fixed by measurement (docs/PERFORMANCE.md, "Small dense
/// layer"): on the benchmark circuits 16 nodes read the Eq. (22) scalar to
/// 0.3 %, 12 to 20 % and 8 to a factor of 12.
pub(crate) const SCREEN_NODES: usize = 16;

/// Nodes the screen evaluates: `H_m` is real, so the nodes below the real
/// axis contribute the conjugates of those above.
const SCREEN_LANES: usize = SCREEN_NODES / 2;

/// Per node above the real axis, `θ_k = (2k−1)π/N`: `1/z_k` and the weight
/// `e^{z_k}·z′(θ_k)/z_k`, as `[re, im, re, im]`. They depend on neither `h`
/// nor `m`, so they are computed once per process.
fn screen_nodes() -> &'static [[f64; 4]; SCREEN_LANES] {
    static NODES: OnceLock<[[f64; 4]; SCREEN_LANES]> = OnceLock::new();
    NODES.get_or_init(|| {
        let n = SCREEN_NODES as f64;
        std::array::from_fn(|k| {
            let theta = (2 * k + 1) as f64 * std::f64::consts::PI / n;
            let z = (n * (0.1309 - 0.1194 * theta * theta), n * 0.25 * theta);
            let dz = (-n * 2.0 * 0.1194 * theta, n * 0.25);
            let exp_z = (z.0.exp() * z.1.cos(), z.0.exp() * z.1.sin());
            let inv_z = complex_div((1.0, 0.0), z);
            let weight = complex_mul(complex_mul(exp_z, dz), inv_z);
            [inv_z.0, inv_z.1, weight.0, weight.1]
        })
    })
}

fn complex_mul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

fn complex_div(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let d = b.0 * b.0 + b.1 * b.1;
    ((a.0 * b.0 + a.1 * b.1) / d, (a.1 * b.0 - a.0 * b.1) / d)
}

/// The small-dense scratch of one [`MevpWorkspace`]: `H_m`, the stabilised
/// projected Jacobian `S`, the augmented matrix whose exponential is taken,
/// the Padé temporaries and the one φ column that is read. Buffers grow to
/// the largest dimension seen; [`DenseArena::allocations`] counts the
/// growths and [`DenseArena::exponentials`] the exponentials computed.
#[derive(Debug, Default)]
pub(crate) struct DenseArena {
    pade: PadeScratch,
    /// `H_m`, row-major `m × m`: what every evaluation starts from.
    hm: Vec<f64>,
    /// `H_m − δI`, eliminated in place.
    shifted: Vec<f64>,
    pivots: Vec<usize>,
    /// `S` of the last evaluation, row-major `m × m`.
    s: Vec<f64>,
    /// The `(m+p) × (m+p)` matrix `[[hS, e₁, 0], [0, 0, I], [0, 0, 0]]`.
    augmented: Vec<f64>,
    /// `φ_p(hS)·e₁` of the last evaluation (length `m`).
    column: Vec<f64>,
    /// The screen's carried elimination row, one lane per node (real and
    /// imaginary parts, length `m`).
    lanes_re: Vec<[f64; SCREEN_LANES]>,
    lanes_im: Vec<[f64; SCREEN_LANES]>,
    allocations: usize,
    exponentials: usize,
}

impl DenseArena {
    /// Times a buffer of this arena had to grow (heap allocations).
    pub(crate) fn allocations(&self) -> usize {
        self.allocations + self.pade.allocations
    }

    /// Small dense exponentials computed through this arena.
    pub(crate) fn exponentials(&self) -> usize {
        self.exponentials
    }

    /// `φ_p(hS)·e₁` as left by the last successful [`DenseArena::phi_column`].
    pub(crate) fn column(&self, m: usize) -> &[f64] {
        &self.column[..m]
    }

    /// Loads `H_m`, the leading `m × m` block of `hess`.
    fn load_hm(&mut self, hess: &DenseMatrix, m: usize) {
        grow(&mut self.hm, m * m, &mut self.allocations);
        for (i, row) in self.hm[..m * m].chunks_exact_mut(m).enumerate() {
            row.copy_from_slice(&hess.row(i)[..m]);
        }
    }

    /// The small matrix `S` such that `h·J` is approximated by `h·S` in the
    /// projected space, with an explicit stabilizing shift `delta` applied
    /// before inverting the loaded `H_m` (inverse and shift-invert kinds
    /// only). Left in `self.s`.
    fn project_jacobian(&mut self, kind: ProjectionKind, m: usize, delta: f64) -> KrylovResult<()> {
        let len = m * m;
        grow(&mut self.s, len, &mut self.allocations);
        let (hm, s) = (&self.hm[..len], &mut self.s[..len]);
        let gamma = match kind {
            ProjectionKind::Direct => {
                s.copy_from_slice(hm);
                return Ok(());
            }
            ProjectionKind::Inverse => None,
            ProjectionKind::ShiftInvert { gamma } => Some(gamma),
        };
        grow(&mut self.shifted, len, &mut self.allocations);
        grow(&mut self.pivots, m, &mut self.allocations);
        shifted_inverse(
            hm,
            m,
            delta,
            &mut self.shifted[..len],
            &mut self.pivots[..m],
            s,
        )?;
        if let Some(gamma) = gamma {
            for (i, row) in s.chunks_exact_mut(m).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    let identity = if i == j { 1.0 } else { 0.0 };
                    *v = 1.0 / gamma * (identity - *v);
                }
            }
        }
        Ok(())
    }

    /// Computes the column `φ_order(h·S)·e₁` for `H_m`, the leading `m × m`
    /// block of `hess`, with an adaptive stabilizing shift, leaving it in
    /// [`DenseArena::column`] and `S` in `self.s`.
    ///
    /// The column is read off `exp` of the `(m+p) × (m+p)` augmented matrix
    /// (Al-Mohy & Higham 2011, Thm 2.1) — the compression of the
    /// `(p+1)m`-square block matrix behind [`crate::phi_matrices`] onto the
    /// only columns that are read. Both have the same 1-norm, hence the
    /// same scaling, and every term the compression drops multiplies an
    /// exact zero, so the column agrees with the block matrix's bit for bit
    /// (up to the sign of zero).
    ///
    /// The projection of `J⁻¹` onto the Krylov subspace is not normal; its
    /// field of values can poke into the right half-plane even though the
    /// circuit itself is stable, and a (near-)singular `C` adds eigenvalues
    /// that are pure rounding noise around zero. Inverting such a Hessenberg
    /// matrix can manufacture enormous *positive* rates whose exponential
    /// overflows. Physically all of those modes are "infinitely fast decay",
    /// so when the evaluation fails or produces non-finite values the shift
    /// `δ` is escalated towards a few per mille of the step size `h` — which
    /// pins those modes to a very fast stable decay while perturbing the
    /// modes that matter (|λ| ≳ h) by well under the integrator's error
    /// budget.
    pub(crate) fn phi_column(
        &mut self,
        kind: ProjectionKind,
        hess: &DenseMatrix,
        m: usize,
        order: usize,
        h: f64,
    ) -> KrylovResult<()> {
        if order > MAX_PHI_ORDER {
            return Err(KrylovError::UnsupportedPhiOrder {
                order,
                max_order: MAX_PHI_ORDER,
            });
        }
        self.load_hm(hess, m);
        let base = 1e-12 * norm_inf(&self.hm[..m * m], m).max(f64::MIN_POSITIVE);
        let shifts: [f64; 4] = [
            base,
            (2e-3 * h.abs()).max(base),
            (2e-2 * h.abs()).max(base),
            (2e-1 * h.abs()).max(base),
        ];
        let dim = m + order;
        // The column of the exponential that holds φ_order(hS)·e₁.
        let read = if order == 0 { 0 } else { dim - 1 };
        let mut last_err = None;
        for (attempt, &delta) in shifts.iter().enumerate() {
            if let Err(e) = self.project_jacobian(kind, m, delta) {
                last_err = Some(e);
                continue;
            }
            if matches!(kind, ProjectionKind::Direct) && attempt > 0 {
                // The direct kind never benefits from shifting; fail fast.
                break;
            }
            grow(&mut self.augmented, dim * dim, &mut self.allocations);
            let w = &mut self.augmented[..dim * dim];
            if order > 0 {
                w.fill(0.0);
                w[m] = 1.0;
                for k in m..dim - 1 {
                    w[k * dim + k + 1] = 1.0;
                }
            }
            for (w_row, s_row) in w.chunks_exact_mut(dim).zip(self.s[..m * m].chunks_exact(m)) {
                for (w_ij, &s_ij) in w_row.iter_mut().zip(s_row) {
                    let v = h * s_ij;
                    // The block-matrix form stores only nonzeros.
                    *w_ij = if order > 0 && v == 0.0 { 0.0 } else { v };
                }
            }
            self.exponentials += 1;
            match expm_in(w, dim, &mut self.pade) {
                Ok(e) => {
                    // A stable circuit propagator has φ norms of order one;
                    // astronomically large (or non-finite) values mean an
                    // unphysical positive rate slipped through — escalate.
                    // Judged on everything produced: φ₀(hS) in full and the
                    // first column of each higher φ.
                    let well_behaved = e[..m * dim].chunks_exact(dim).all(|row| {
                        let (phi0, columns) = row.split_at(m);
                        row.iter().all(|v| v.is_finite())
                            && phi0.iter().map(|v| v.abs()).sum::<f64>() < 1e8
                            && columns.iter().all(|v| v.abs() < 1e8)
                    });
                    if well_behaved {
                        grow(&mut self.column, m, &mut self.allocations);
                        for (c, row) in self.column[..m].iter_mut().zip(e.chunks_exact(dim)) {
                            *c = row[read];
                        }
                        return Ok(());
                    }
                }
                Err(e) => last_err = Some(e),
            }
            if matches!(kind, ProjectionKind::Direct) {
                break;
            }
        }
        Err(last_err.unwrap_or(KrylovError::NotConverged {
            max_dimension: m,
            residual: f64::INFINITY,
            tolerance: 0.0,
        }))
    }

    /// Scalar part of the matrix-exponential residual estimate, from the
    /// order-0 column and `S` a [`DenseArena::phi_column`] call just left
    /// behind, the subdiagonal element `h_next` and the start-vector norm
    /// `beta`. See [`KrylovDecomposition::residual_scalar`].
    pub(crate) fn residual_scalar(
        &self,
        kind: ProjectionKind,
        m: usize,
        h_next: f64,
        beta: f64,
    ) -> f64 {
        beta * h_next.abs() * self.last_entry(kind, m).abs()
    }

    /// [`DenseArena::residual_scalar`], screened: from `H_m`, the leading
    /// `m × m` block of `hess`, alone, without an exponential
    /// ([`DenseArena::screen`]).
    pub(crate) fn screened_residual_scalar(
        &mut self,
        kind: ProjectionKind,
        hess: &DenseMatrix,
        m: usize,
        h: f64,
        beta: f64,
    ) -> Option<f64> {
        let h_next = hess.get(m, m - 1);
        Some(beta * h_next.abs() * self.screen(kind, hess, m, h)?.abs())
    }

    /// The signed entry the residual estimate scales: `e_mᵀ φ₀(hS) e₁`, or
    /// for the inverse kinds Eq. (22)'s `e_mᵀ S e^{hS} e₁` — note the extra
    /// `S`, which plays the role of `H_m⁻¹`.
    pub(crate) fn last_entry(&self, kind: ProjectionKind, m: usize) -> f64 {
        let column = self.column(m);
        match kind {
            ProjectionKind::Direct => column[m - 1],
            ProjectionKind::Inverse | ProjectionKind::ShiftInvert { .. } => self.s
                [(m - 1) * m..m * m]
                .iter()
                .zip(column)
                .map(|(a, b)| a * b)
                .sum(),
        }
    }

    /// The screen: Eq. (22)'s `e_mᵀ S e^{hS} e₁` for `H_m`, the leading
    /// `m × m` block of `hess`, and `S = K⁻¹`, `K = H_m − δI` at
    /// [`DenseArena::phi_column`]'s first shift — in `O(m²)`, with no
    /// inverse and no exponential. `None` for the direct and shift-invert
    /// kinds, and when the value is not finite.
    ///
    /// `S·e^{hS} = (1/2πi)∮ e^z (zK − hI)⁻¹ dz` on a contour around the
    /// spectrum of `hS`, which a stable projection puts on the left, so
    /// `e_mᵀ S e^{hS} e₁` is the integral of `e^z·F(z)`,
    /// `F(z) = z⁻¹·[(K − (h/z)I)⁻¹ e₁]_m`, taken by the trapezoid rule on
    /// [`SCREEN_NODES`] nodes. At each node `K − (h/z)I` is upper
    /// Hessenberg: one elimination with adjacent-row pivoting reaches its
    /// last pivot carrying two rows, and the last unknown is the carried
    /// right-hand side over that pivot — no back substitution. The nodes
    /// run side by side in lanes.
    ///
    /// Unlike the exponential it does not escalate the shift, so it answers
    /// for the test's first rung only; the drive loop uses it to decide
    /// whether that test is worth running.
    pub(crate) fn screen(
        &mut self,
        kind: ProjectionKind,
        hess: &DenseMatrix,
        m: usize,
        h: f64,
    ) -> Option<f64> {
        if kind != ProjectionKind::Inverse {
            return None;
        }
        self.load_hm(hess, m);
        grow(&mut self.lanes_re, m, &mut self.allocations);
        grow(&mut self.lanes_im, m, &mut self.allocations);
        let hm = &self.hm[..m * m];
        let delta = 1e-12 * norm_inf(hm, m).max(f64::MIN_POSITIVE);
        let nodes = screen_nodes();
        // Each node's system is `H_m − σI`, `σ = δ + h/z`.
        let sigma_re: [f64; SCREEN_LANES] = std::array::from_fn(|k| delta + h * nodes[k][0]);
        let sigma_im: [f64; SCREEN_LANES] = std::array::from_fn(|k| h * nodes[k][1]);
        let (re, im) = (&mut self.lanes_re[..m], &mut self.lanes_im[..m]);
        // The carried row starts as the first row of `H_m − σI`, with the
        // first entry of `e₁` as its right-hand side.
        for ((lane_re, lane_im), &h0j) in re.iter_mut().zip(im.iter_mut()).zip(&hm[..m]) {
            *lane_re = [h0j; SCREEN_LANES];
            *lane_im = [0.0; SCREEN_LANES];
        }
        for k in 0..SCREEN_LANES {
            re[0][k] -= sigma_re[k];
            im[0][k] = -sigma_im[k];
        }
        let mut rhs_re = [1.0; SCREEN_LANES];
        let mut rhs_im = [0.0; SCREEN_LANES];
        for i in 0..m - 1 {
            let below = &hm[(i + 1) * m..(i + 2) * m];
            let sub = below[i];
            // The next carried row is `a·(row i+1) + b·(carried row)`, which
            // eliminates column `i` with the larger of the two as pivot.
            let mut a = ([0.0; SCREEN_LANES], [0.0; SCREEN_LANES]);
            let mut b = ([0.0; SCREEN_LANES], [0.0; SCREEN_LANES]);
            for k in 0..SCREEN_LANES {
                let (p_re, p_im) = (re[i][k], im[i][k]);
                let pivot2 = p_re * p_re + p_im * p_im;
                if sub * sub > pivot2 {
                    // Row i+1 pivots: carried − (p/sub)·row.
                    (a.0[k], a.1[k]) = (-p_re / sub, -p_im / sub);
                    (b.0[k], b.1[k]) = (1.0, 0.0);
                } else {
                    // The carried row pivots: row − (sub/p)·carried.
                    (a.0[k], a.1[k]) = (1.0, 0.0);
                    (b.0[k], b.1[k]) = (-sub * p_re / pivot2, sub * p_im / pivot2);
                }
            }
            for ((lane_re, lane_im), &hij) in re[i + 1..]
                .iter_mut()
                .zip(im[i + 1..].iter_mut())
                .zip(&below[i + 1..])
            {
                for k in 0..SCREEN_LANES {
                    let (r_re, r_im) = (lane_re[k], lane_im[k]);
                    lane_re[k] = a.0[k] * hij + b.0[k] * r_re - b.1[k] * r_im;
                    lane_im[k] = a.1[k] * hij + b.0[k] * r_im + b.1[k] * r_re;
                }
            }
            // Row i+1's diagonal carries `−σ`; its right-hand side is zero.
            for k in 0..SCREEN_LANES {
                re[i + 1][k] -= a.0[k] * sigma_re[k] - a.1[k] * sigma_im[k];
                im[i + 1][k] -= a.0[k] * sigma_im[k] + a.1[k] * sigma_re[k];
                (rhs_re[k], rhs_im[k]) = complex_mul((b.0[k], b.1[k]), (rhs_re[k], rhs_im[k]));
            }
        }
        // `(2/N)·Im Σ e^{z_k}·F(z_k)·z′_k` over the nodes above the axis.
        let mut sum = 0.0;
        for (k, node) in nodes.iter().enumerate() {
            let x = complex_div((rhs_re[k], rhs_im[k]), (re[m - 1][k], im[m - 1][k]));
            sum += node[2] * x.1 + node[3] * x.0;
        }
        let value = 2.0 / SCREEN_NODES as f64 * sum;
        value.is_finite().then_some(value)
    }
}

/// An Arnoldi decomposition together with enough information to evaluate
/// `φ_k(hJ)·v` for arbitrary `h` and `k`.
#[derive(Debug, Clone)]
pub struct KrylovDecomposition {
    kind: ProjectionKind,
    /// `m + 1` orthonormal basis vectors, each of length `n`.
    basis: Vec<Vec<f64>>,
    /// `(m+1) × m` Hessenberg matrix.
    hess: DenseMatrix,
    /// Norm of the start vector.
    beta: f64,
    /// Subspace dimension.
    m: usize,
}

impl KrylovDecomposition {
    /// Assembles a decomposition from raw Arnoldi output.
    ///
    /// # Panics
    ///
    /// Panics if the basis does not contain `m` or `m + 1` vectors or the
    /// Hessenberg matrix is smaller than `(m+1) × m` (except for the
    /// happy-breakdown case where exactly `m` vectors exist).
    pub(crate) fn new(
        kind: ProjectionKind,
        basis: Vec<Vec<f64>>,
        hess: DenseMatrix,
        beta: f64,
        m: usize,
    ) -> Self {
        assert!(m >= 1, "empty krylov decomposition");
        assert!(
            basis.len() == m || basis.len() == m + 1,
            "basis size mismatch"
        );
        assert!(
            hess.rows() >= m && hess.cols() >= m,
            "hessenberg size mismatch"
        );
        KrylovDecomposition {
            kind,
            basis,
            hess,
            beta,
            m,
        }
    }

    /// Subspace dimension `m`.
    pub fn dimension(&self) -> usize {
        self.m
    }

    /// The orthonormal basis vectors (length `n` each).
    #[cfg(test)]
    pub(crate) fn basis(&self) -> &[Vec<f64>] {
        &self.basis
    }

    /// The `(m+1) × m` Hessenberg matrix (`m × m` after a breakdown).
    #[cfg(test)]
    pub(crate) fn hessenberg(&self) -> &DenseMatrix {
        &self.hess
    }

    /// Consumes the decomposition, handing back its basis vectors so a
    /// workspace (see `MevpWorkspace::recycle`) can reuse their storage.
    pub(crate) fn into_basis(self) -> Vec<Vec<f64>> {
        self.basis
    }

    /// The subdiagonal element `h_{m+1,m}` (zero on happy breakdown).
    fn h_next(&self) -> f64 {
        if self.hess.rows() > self.m {
            self.hess.get(self.m, self.m - 1)
        } else {
            0.0
        }
    }

    /// The `(m+1)`-th basis vector if it exists (it does not on happy breakdown).
    pub(crate) fn next_basis_vector(&self) -> Option<&[f64]> {
        if self.basis.len() > self.m {
            Some(&self.basis[self.m])
        } else {
            None
        }
    }

    /// The small matrix `S` such that `h·J` is approximated by `h·S` in the
    /// projected space.
    ///
    /// For the inverse and shift-invert kinds the Hessenberg matrix is
    /// regularized with a tiny stabilizing shift (`-δ·I`, `δ = 1e-12·‖H_m‖`)
    /// before inversion. A singular `C` makes `J⁻¹` singular; its (near-)zero
    /// eigenvalues correspond to algebraic constraints whose dynamics decay
    /// instantly, and the shift maps them onto very fast *stable* modes
    /// instead of letting rounding noise flip them into unstable ones. This
    /// is what lets the invert Krylov method skip the regularization step the
    /// paper criticizes in earlier work.
    ///
    /// # Errors
    ///
    /// Returns an error if the (regularized) Hessenberg matrix still cannot
    /// be inverted.
    pub fn projected_jacobian(&self) -> KrylovResult<DenseMatrix> {
        let m = self.m;
        let mut arena = DenseArena::default();
        arena.load_hm(&self.hess, m);
        let delta = 1e-12 * norm_inf(&arena.hm, m).max(f64::MIN_POSITIVE);
        arena.project_jacobian(self.kind, m, delta)?;
        arena.s.truncate(m * m);
        Ok(DenseMatrix::from_vec(m, m, arena.s))
    }

    /// Evaluates `φ_order(h·J)·v ≈ β · V_m · φ_order(h·S) · e₁` into `out`
    /// (length `n`), drawing the small dense scratch from `ws`.
    ///
    /// Changing `h` re-uses the same basis: only an `m × m` dense computation
    /// is performed (the scaling-invariance property).
    ///
    /// # Errors
    ///
    /// Propagates dense-kernel errors and unsupported φ orders; returns a
    /// dimension error if `out` has the wrong length.
    pub fn eval_phi_in(
        &self,
        order: usize,
        h: f64,
        out: &mut [f64],
        ws: &mut MevpWorkspace,
    ) -> KrylovResult<()> {
        if out.len() != self.basis[0].len() {
            return Err(KrylovError::DimensionMismatch {
                expected: self.basis[0].len(),
                found: out.len(),
            });
        }
        ws.dense
            .phi_column(self.kind, &self.hess, self.m, order, h)?;
        self.lift_scaled_into(self.beta, ws.dense.column(self.m), out);
        Ok(())
    }

    /// Evaluates `e^{hJ}·v` (φ of order zero) into `out`, with a throwaway
    /// workspace.
    ///
    /// # Errors
    ///
    /// Same as [`KrylovDecomposition::eval_phi_in`].
    pub fn eval_expv_into(&self, h: f64, out: &mut [f64]) -> KrylovResult<()> {
        self.eval_phi_in(0, h, out, &mut MevpWorkspace::new())
    }

    /// As [`KrylovDecomposition::eval_expv_into`], drawing the small dense
    /// scratch from `ws`.
    ///
    /// # Errors
    ///
    /// Same as [`KrylovDecomposition::eval_phi_in`].
    pub fn eval_expv_in(
        &self,
        h: f64,
        out: &mut [f64],
        ws: &mut MevpWorkspace,
    ) -> KrylovResult<()> {
        self.eval_phi_in(0, h, out, ws)
    }

    /// `out = V_m·(scale·y)`: lifts a small-space vector back to the full
    /// space with the start-vector norm folded in, so a φ column needs no
    /// coefficient vector of its own.
    pub(crate) fn lift_scaled_into(&self, scale: f64, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.m, "lift: coefficient length mismatch");
        assert_eq!(
            out.len(),
            self.basis[0].len(),
            "lift: output length mismatch"
        );
        out.fill(0.0);
        for (yj, basis_j) in y.iter().zip(&self.basis) {
            let yj = scale * yj;
            if yj == 0.0 {
                continue;
            }
            for (o, b) in out.iter_mut().zip(basis_j.iter()) {
                *o += yj * b;
            }
        }
    }

    /// Residual norm of the matrix-exponential approximation at step size `h`.
    ///
    /// For the invert Krylov subspace this is the KCL/KVL residual of paper
    /// Eq. (22) up to the factor `‖G·v_{m+1}‖` which depends on the circuit
    /// matrices; this method returns the *scalar* part
    /// `β · |h_{m+1,m}| · |e_mᵀ · S_h-dependent term|`, and callers multiply by
    /// the norm they need. For the standard subspace it is Saad's classical
    /// posterior estimate.
    ///
    /// # Errors
    ///
    /// Propagates dense-kernel errors.
    pub fn residual_scalar(&self, h: f64) -> KrylovResult<f64> {
        self.residual_scalar_in(h, &mut MevpWorkspace::new())
    }

    /// As [`KrylovDecomposition::residual_scalar`], drawing the small dense
    /// scratch from `ws`.
    ///
    /// # Errors
    ///
    /// Propagates dense-kernel errors.
    pub fn residual_scalar_in(&self, h: f64, ws: &mut MevpWorkspace) -> KrylovResult<f64> {
        let hnext = self.h_next();
        if hnext == 0.0 {
            return Ok(0.0);
        }
        ws.dense.phi_column(self.kind, &self.hess, self.m, 0, h)?;
        Ok(ws
            .dense
            .residual_scalar(self.kind, self.m, hnext, self.beta))
    }

    /// The screen of [`KrylovDecomposition::residual_scalar_in`]: the same
    /// scalar from a contour integral in `O(m²)`, with no exponential —
    /// what a build runs before a convergence test that cannot pay. `None`
    /// where there is no screen (the standard and rational subspaces) or its
    /// value is not finite.
    pub fn screened_residual_scalar_in(&self, h: f64, ws: &mut MevpWorkspace) -> Option<f64> {
        if self.h_next() == 0.0 {
            return Some(0.0);
        }
        ws.dense
            .screened_residual_scalar(self.kind, &self.hess, self.m, h, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a trivially exact decomposition for a 1x1 "matrix" J = [j].
    fn scalar_decomposition(kind: ProjectionKind, j: f64) -> KrylovDecomposition {
        let hess = match kind {
            ProjectionKind::Direct => DenseMatrix::from_rows(&[&[j]]),
            ProjectionKind::Inverse => DenseMatrix::from_rows(&[&[1.0 / j]]),
            ProjectionKind::ShiftInvert { gamma } => {
                DenseMatrix::from_rows(&[&[1.0 / (1.0 - gamma * j)]])
            }
        };
        KrylovDecomposition::new(kind, vec![vec![1.0]], hess, 2.0, 1)
    }

    /// `φ_order(h·J)·v` evaluated through a fresh workspace.
    fn phi(d: &KrylovDecomposition, order: usize, h: f64) -> KrylovResult<Vec<f64>> {
        let mut out = vec![0.0; d.basis[0].len()];
        d.eval_phi_in(order, h, &mut out, &mut MevpWorkspace::new())?;
        Ok(out)
    }

    #[test]
    fn scalar_exponential_all_kinds() {
        let j = -3.0;
        let h = 0.25;
        for kind in [
            ProjectionKind::Direct,
            ProjectionKind::Inverse,
            ProjectionKind::ShiftInvert { gamma: 0.1 },
        ] {
            let d = scalar_decomposition(kind, j);
            let v = phi(&d, 0, h).unwrap();
            assert!(
                (v[0] - 2.0 * (h * j).exp()).abs() < 1e-9,
                "kind {kind:?}: {} vs {}",
                v[0],
                2.0 * (h * j).exp()
            );
        }
    }

    #[test]
    fn scalar_phi1_matches_formula() {
        let j = -2.0;
        let h = 0.5;
        let d = scalar_decomposition(ProjectionKind::Inverse, j);
        let v = phi(&d, 1, h).unwrap();
        let expected = 2.0 * ((h * j).exp() - 1.0) / (h * j);
        assert!((v[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn happy_breakdown_residual_is_zero() {
        let d = scalar_decomposition(ProjectionKind::Direct, -1.0);
        assert_eq!(d.h_next(), 0.0);
        assert_eq!(d.residual_scalar(1.0).unwrap(), 0.0);
        assert!(d.next_basis_vector().is_none());
    }

    #[test]
    fn accessors() {
        let d = scalar_decomposition(ProjectionKind::Inverse, -4.0);
        assert_eq!(d.dimension(), 1);
        assert_eq!(d.beta, 2.0);
        assert_eq!(d.kind, ProjectionKind::Inverse);
        assert_eq!(d.hess.get(0, 0), -0.25);
        assert_eq!(d.basis().len(), 1);
    }

    #[test]
    fn rescaling_h_changes_only_the_small_problem() {
        let d = scalar_decomposition(ProjectionKind::Inverse, -1.5);
        let a = phi(&d, 0, 0.1).unwrap()[0];
        let b = phi(&d, 0, 0.2).unwrap()[0];
        assert!((a - 2.0 * (-0.15_f64).exp()).abs() < 1e-9);
        assert!((b - 2.0 * (-0.3_f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let d = scalar_decomposition(ProjectionKind::Inverse, -2.5);
        let mut buf = vec![42.0; 1];
        d.eval_expv_into(0.3, &mut buf).unwrap();
        assert_eq!(buf, phi(&d, 0, 0.3).unwrap());
        // Wrong output length is rejected.
        let mut bad = vec![0.0; 2];
        assert!(d.eval_expv_into(0.3, &mut bad).is_err());
        assert!(d
            .eval_phi_in(1, 0.3, &mut bad, &mut MevpWorkspace::new())
            .is_err());
    }

    #[test]
    fn overflowing_small_problem_escalates_the_shift_instead_of_hanging() {
        // H_m = [1e-200] inverts to a rate of 1e200; times h = 1e200 that is
        // an infinite matrix, whose exponential used to spin for 2³²
        // squarings. The first rung of the ladder must fail fast and the
        // second pin the mode to a fast stable decay.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let d = KrylovDecomposition::new(
                ProjectionKind::Inverse,
                vec![vec![1.0]],
                DenseMatrix::from_rows(&[&[1e-200]]),
                1.0,
                1,
            );
            let _ = tx.send(phi(&d, 0, 1e200));
        });
        let v = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the evaluation must return, not spin")
            .expect("a later rung of the ladder succeeds");
        assert!(v[0].is_finite() && v[0].abs() < 1.0, "{v:?}");
    }

    #[test]
    fn workspace_forms_match_the_allocating_forms_and_stop_allocating() {
        let hess = DenseMatrix::from_rows(&[&[-0.5, 0.2], &[0.1, -0.25], &[0.0, 0.05]]);
        let basis = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let d = KrylovDecomposition::new(ProjectionKind::Inverse, basis, hess, 1.5, 2);
        let mut ws = MevpWorkspace::new();
        let mut out = vec![0.0; 3];
        for _ in 0..2 {
            d.eval_phi_in(2, 0.3, &mut out, &mut ws).unwrap();
            assert_eq!(out, phi(&d, 2, 0.3).unwrap());
            d.eval_expv_in(0.3, &mut out, &mut ws).unwrap();
            assert_eq!(out, phi(&d, 0, 0.3).unwrap());
            assert_eq!(
                d.residual_scalar_in(0.3, &mut ws).unwrap(),
                d.residual_scalar(0.3).unwrap()
            );
        }
        assert_eq!(ws.small_dense_exponentials(), 6);
        let grown = ws.dense_allocations();
        d.eval_phi_in(2, 0.7, &mut out, &mut ws).unwrap();
        assert_eq!(ws.dense_allocations(), grown);
        let s = d.projected_jacobian().unwrap();
        assert_eq!((s.rows(), s.cols()), (2, 2));
    }

    /// The screen against `e_mᵀ S e^{hS} e₁` by hand, on the diagonal
    /// system `C = diag(1, 0)`, `G = I`: `J⁻¹ = −G⁻¹C = diag(−1, 0)` is
    /// singular, and from `v = (1, 1)` the invert-Krylov Hessenberg is
    /// `H_1 = [−½]` and `H_2 = [[−½, ½], [½, −½]]`, similar to `J⁻¹`. Only
    /// the stabilizing shift `δ = 1e-12·‖H_m‖∞` keeps `S = (H_m − δI)⁻¹`
    /// finite: at `h` near `δ` the mode it makes decays at a rate `h/δ` of
    /// order one and dominates the value.
    #[test]
    fn the_screen_is_the_eq22_scalar_by_hand_on_a_diagonal_system() {
        let hess = DenseMatrix::from_rows(&[&[-0.5, 0.5], &[0.5, -0.5]]);
        let g = |h: f64, x: f64| x * (h * x).exp();
        for h in [1e-12, 4e-12, 0.3, 3.0] {
            // m = 1: S = 1/(−½ − δ) with δ = ½·1e-12, a scalar.
            let s = 1.0 / (-0.5 - 0.5e-12);
            // m = 2: S's eigenvalues are 1/(−δ) and 1/(−1 − δ), and the
            // (2, 1) entry of any function f of a 2 × 2 matrix is
            // S₂₁·(f(μ₁) − f(μ₂))/(μ₁ − μ₂).
            let delta = 1e-12;
            let s21 = -0.5 / (delta * (1.0 + delta));
            let (mu1, mu2) = (-1.0 / delta, -1.0 / (1.0 + delta));
            let by_hand = [g(h, s), s21 * (g(h, mu1) - g(h, mu2)) / (mu1 - mu2)];
            let mut arena = DenseArena::default();
            for (m, expected) in [1, 2].into_iter().zip(by_hand) {
                let screened = arena.screen(ProjectionKind::Inverse, &hess, m, h).unwrap();
                // Measured: within 9e-5, the quadrature's error.
                let err = (screened - expected).abs() / expected.abs();
                assert!(
                    err < 1e-3,
                    "h = {h:e}, m = {m}: {screened:e} vs {expected:e}"
                );
            }
        }
    }

    #[test]
    fn into_basis_returns_vectors() {
        let d = scalar_decomposition(ProjectionKind::Direct, -1.0);
        let basis = d.into_basis();
        assert_eq!(basis, vec![vec![1.0]]);
    }

    /// Upper-Hessenberg `m × m` matrices with decay rates spread over
    /// `decades` decades (stiff), as row-major data.
    fn stiff_hessenberg(max_m: usize) -> impl Strategy<Value = (usize, Vec<f64>)> {
        (2usize..max_m).prop_flat_map(|m| {
            (
                proptest::collection::vec(-1.0f64..1.0, m * m),
                proptest::collection::vec(0.0f64..6.0, m),
            )
                .prop_map(move |(mut a, decades)| {
                    for i in 0..m {
                        for j in 0..m {
                            if i > j + 1 {
                                a[i * m + j] = 0.0;
                            }
                        }
                        a[i * m + i] = -(1.0 + a[i * m + i].abs()) * 10f64.powf(decades[i]);
                    }
                    (m, a)
                })
        })
    }

    /// Bit-equal, or both zero (the compression may flip the sign of a zero).
    fn same_bits_up_to_zero_sign(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The one column that is read, taken off the `(m+p)`-square
        /// augmented exponential, is the first column of the full φ matrix
        /// the `(p+1)m`-square block exponential yields — bit for bit.
        #[test]
        fn phi_column_is_the_first_column_of_the_full_phi_matrix(
            (m, a) in stiff_hessenberg(9),
            h in 1e-3f64..2.0,
            inverse in 0usize..2,
        ) {
            let hm = DenseMatrix::from_vec(m, m, a);
            let kind = if inverse == 1 { ProjectionKind::Inverse } else { ProjectionKind::Direct };
            // What the first rung of the shift ladder exponentiates.
            let s = match kind {
                ProjectionKind::Direct => hm.clone(),
                _ => {
                    let delta = 1e-12 * hm.norm_inf().max(f64::MIN_POSITIVE);
                    hm.sub(&DenseMatrix::identity(m).scale(delta)).inverse().expect("stiff, not singular")
                }
            };
            let mut arena = DenseArena::default();
            for order in 0..=2 {
                let full = crate::phi::phi_matrices(&s.scale(h), order).expect("phi matrices");
                arena.phi_column(kind, &hm, m, order, h).expect("phi column");
                for (i, &got) in arena.column(m).iter().enumerate() {
                    let expected = full[order].get(i, 0);
                    prop_assert!(
                        same_bits_up_to_zero_sign(got, expected),
                        "order {order}, row {i}: {got:e} vs {expected:e}"
                    );
                }
            }
        }
    }
}

//! Options, outcome types and the reusable workspace shared by the MEVP
//! (matrix exponential and vector product) front-ends.

use exi_sparse::DenseMatrix;

use crate::decomposition::{DenseArena, KrylovDecomposition};
use crate::operator::OperatorWorkspace;

/// Options controlling a Krylov MEVP computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MevpOptions {
    /// Residual tolerance ε used as the Arnoldi termination criterion
    /// (paper Algorithm 1 line 10; the experiments use `1e-7`).
    pub tolerance: f64,
    /// Hard cap on the subspace dimension.
    pub max_dimension: usize,
    /// Minimum dimension to build before testing convergence.
    pub min_dimension: usize,
    /// When `true`, hitting `max_dimension` without meeting the tolerance
    /// returns the best-effort approximation (with the achieved residual in
    /// the outcome) instead of an error. The transient engines enable this so
    /// a single hard Krylov step degrades accuracy instead of aborting a run.
    pub allow_unconverged: bool,
}

impl Default for MevpOptions {
    fn default() -> Self {
        MevpOptions {
            tolerance: 1e-7,
            max_dimension: 120,
            min_dimension: 2,
            allow_unconverged: false,
        }
    }
}

/// Result of a converged MEVP computation.
#[derive(Debug, Clone)]
pub struct MevpOutcome {
    /// The approximation of `e^{hJ}·v`.
    pub mevp: Vec<f64>,
    /// The Krylov decomposition, reusable for other step sizes and φ orders.
    pub decomposition: KrylovDecomposition,
    /// Residual norm at termination.
    pub residual: f64,
    /// Subspace dimension used.
    pub dimension: usize,
}

/// Reusable arena for Krylov subspace construction.
///
/// Building an Arnoldi basis allocates one length-`n` vector per subspace
/// dimension plus the Hessenberg matrix and operator scratch buffers. In a
/// transient run the same sizes recur thousands of times, so the workspace
/// keeps a pool of retired basis vectors (see [`MevpWorkspace::recycle`]) and
/// hands them back out on the next build. In steady state a subspace build
/// performs **no** heap allocation proportional to the circuit size.
///
/// The workspace also owns the small-dense arena every `O(m²)` temporary
/// under the Arnoldi loop is drawn from (the `H_m` copy, the projected
/// Jacobian, the augmented matrix, the Padé temporaries, LU storage and the
/// convergence-test screen's lanes). It grows to the largest subspace
/// dimension seen and then stops allocating too. The counters of
/// the layer — convergence tests scheduled and small exponentials computed —
/// live here as well, per workspace, so concurrent sessions never share a
/// cache line over them.
///
/// # Examples
///
/// ```
/// use exi_sparse::{SparseLu, TripletMatrix};
/// use exi_krylov::{mevp_invert_krylov_with, MevpOptions, MevpWorkspace};
///
/// # fn main() -> Result<(), exi_krylov::KrylovError> {
/// let mut c = TripletMatrix::new(2, 2);
/// c.push(0, 0, 1.0);
/// c.push(1, 1, 2.0);
/// let c = c.to_csr();
/// let mut g = TripletMatrix::new(2, 2);
/// g.push(0, 0, 1.0);
/// g.push(1, 1, 1.0);
/// let g = g.to_csr();
/// let g_lu = SparseLu::factorize(&g)?;
/// let mut ws = MevpWorkspace::new();
/// let out = mevp_invert_krylov_with(&c, &g, &g_lu, &[1.0, 1.0], 0.1, &MevpOptions::default(), &mut ws)?;
/// // Returning the decomposition's vectors lets the next build reuse them.
/// ws.recycle(out.decomposition);
/// let _ = mevp_invert_krylov_with(&c, &g, &g_lu, &[2.0, 1.0], 0.1, &MevpOptions::default(), &mut ws)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct MevpWorkspace {
    /// Retired basis vectors, ready for reuse.
    pool: Vec<Vec<f64>>,
    /// Retired (empty) basis spines.
    spines: Vec<Vec<Vec<f64>>>,
    /// The trimmed Hessenberg matrices of retired decompositions, any shape
    /// ([`DenseMatrix::submatrix_into`] reshapes them).
    pub(crate) trimmed: Vec<DenseMatrix>,
    /// Retired Hessenberg storage of the Arnoldi process.
    pub(crate) hess: Option<DenseMatrix>,
    /// Scratch for operator applications inside the Arnoldi loop.
    pub(crate) op: OperatorWorkspace,
    /// Scratch for residual-norm products (`G·v_{m+1}`).
    scratch: Vec<f64>,
    /// One Gram–Schmidt pass's coefficients, `max_dimension` long.
    pub(crate) coefficients: Vec<f64>,
    /// Number of fresh heap allocations the pool could not serve.
    allocations: usize,
    /// Everything `O(m²)` under the Arnoldi loop.
    pub(crate) dense: DenseArena,
    /// Where debug builds re-run a screened convergence test exactly, so
    /// that the check moves nothing in `dense`.
    #[cfg(debug_assertions)]
    pub(crate) check: DenseArena,
    /// Convergence tests the Arnoldi drive loop has scheduled.
    pub(crate) residual_tests: usize,
}

impl MevpWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        MevpWorkspace::default()
    }

    /// Returns a decomposition's basis vectors, its basis spine and its
    /// Hessenberg matrix to the workspace so subsequent subspace builds can
    /// reuse their storage.
    pub fn recycle(&mut self, decomposition: KrylovDecomposition) {
        let (mut basis, hess) = decomposition.into_parts();
        self.pool.append(&mut basis);
        self.spines.push(basis);
        self.trimmed.push(hess);
    }

    /// Number of fresh length-`n` vector allocations performed because the
    /// pool was empty. In an engine's steady state this stops growing; it is
    /// surfaced in the run statistics as the hot-loop allocation counter.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Number of small dense matrix exponentials computed through this
    /// workspace (convergence tests, φ evaluations and stabilizing-shift
    /// retries alike).
    pub fn small_dense_exponentials(&self) -> usize {
        self.dense.exponentials()
    }

    /// Number of convergence tests the Arnoldi drive loop has scheduled
    /// through this workspace, the ones its screen skipped without an
    /// exponential included.
    pub fn residual_tests(&self) -> usize {
        self.residual_tests
    }

    /// Takes a zeroed length-`n` vector from the pool (or allocates one).
    pub(crate) fn take_vec(&mut self, n: usize) -> Vec<f64> {
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(n, 0.0);
                v
            }
            None => {
                self.allocations += 1;
                vec![0.0; n]
            }
        }
    }

    /// Returns a single retired vector (for example [`MevpOutcome::mevp`]
    /// once it has been consumed) to the pool directly.
    pub fn recycle_vec(&mut self, v: Vec<f64>) {
        self.pool.push(v);
    }

    /// Takes the pooled Hessenberg storage if it has the requested shape.
    pub(crate) fn take_hess(&mut self, rows: usize, cols: usize) -> DenseMatrix {
        match self.hess.take() {
            Some(mut h) if h.rows() == rows && h.cols() == cols => {
                h.fill(0.0);
                h
            }
            _ => {
                self.allocations += 1;
                DenseMatrix::zeros(rows, cols)
            }
        }
    }

    /// An empty basis spine with room for `capacity` vectors.
    pub(crate) fn take_spine(&mut self, capacity: usize) -> Vec<Vec<f64>> {
        let mut spine = self.spines.pop().unwrap_or_default();
        spine.reserve(capacity);
        spine
    }

    /// A scratch slice of length `n` with unspecified contents.
    pub(crate) fn scratch_slice(&mut self, n: usize) -> &mut [f64] {
        if self.scratch.len() < n {
            self.scratch.resize(n, 0.0);
        }
        &mut self.scratch[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let o = MevpOptions::default();
        assert_eq!(o.tolerance, 1e-7);
        assert!(o.max_dimension >= 100);
    }

    #[test]
    fn workspace_pool_reuses_vectors() {
        let mut ws = MevpWorkspace::new();
        let a = ws.take_vec(8);
        assert_eq!(ws.allocations(), 1);
        ws.recycle_vec(a);
        assert_eq!(ws.pool.len(), 1);
        let b = ws.take_vec(4);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|&x| x == 0.0));
        // Served from the pool: no new allocation counted.
        assert_eq!(ws.allocations(), 1);
    }

    #[test]
    fn workspace_hess_reuse_requires_matching_shape() {
        let mut ws = MevpWorkspace::new();
        let h = ws.take_hess(5, 4);
        ws.hess = Some(h);
        let h2 = ws.take_hess(5, 4);
        assert_eq!(ws.allocations(), 1);
        ws.hess = Some(h2);
        let _h3 = ws.take_hess(6, 5);
        assert_eq!(ws.allocations(), 2);
    }
}

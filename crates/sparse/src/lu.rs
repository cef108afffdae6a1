//! Sparse LU factorization (left-looking Gilbert–Peierls with partial
//! pivoting) with a cached **symbolic analysis** and cheap numeric
//! **refactorization**.
//!
//! This is the direct solver the whole simulator is built on. The exponential
//! Rosenbrock–Euler engine factorizes only the conductance matrix `G` (once
//! per distinct `G`: once per accepted step on a nonlinear circuit, once per
//! run on a linear one), while the backward-Euler/Newton–Raphson baseline
//! must factorize `C/h + G` at every Newton iteration and whenever the step
//! size changes — exactly the cost asymmetry the paper exploits.
//!
//! The implementation follows the classic algorithm of Gilbert & Peierls
//! (also used by CSparse/KLU): for each column, a depth-first search over the
//! pattern of the already-computed `L` determines the nonzero pattern of the
//! new column in topological order, after which a sparse triangular solve
//! fills in the numerical values. Row pivoting is threshold partial pivoting
//! with a preference for the diagonal to preserve the fill-reducing column
//! ordering.
//!
//! Because the sparsity pattern of a circuit's matrices is fixed for an
//! entire transient run while only the values change, the expensive parts of
//! a factorization — the fill-reducing ordering, the pivot order and the
//! per-column reachability DFS — are computed **once** and cached in a
//! [`SymbolicLu`]. Subsequent factorizations of matrices with the identical
//! pattern go through [`SparseLu::refactorize_with`], which replays the recorded
//! elimination in the recorded order: no ordering, no DFS, no allocation, and
//! bit-for-bit the same result as a fresh factorization when the values are
//! unchanged (KLU-style "refactor").
//!
//! The replay redoes only what moved. In the left-looking elimination, factor
//! column `j` (pivot order) reads nothing but `A[:, q(j)]` and the `L`
//! columns its `U` pattern lists, all to the left of `j`. A factor remembers
//! the values it was computed from, so one forward pass finds the *dirty*
//! columns — an entry of `A[:, q(j)]` changed in any bit, or a column its
//! `U` pattern lists is dirty — and only those are recomputed. A clean
//! column keeps its `L`, `U` and pivot, which a replay would rewrite with the
//! same bits; a matrix with no changed value costs one compare pass. On a
//! circuit Jacobian the dirty set is the nonlinear devices' columns and
//! their descendants in the elimination, not the whole matrix.

use std::sync::Arc;

use crate::csr::{CsrMatrix, Pattern};
use crate::error::{SparseError, SparseResult};
use crate::ordering::{compute_ordering, OrderingMethod};
use crate::permutation::Permutation;

/// Options controlling the sparse LU factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct LuOptions {
    /// Fill-reducing column ordering applied before factorization.
    pub ordering: OrderingMethod,
    /// Threshold for diagonal-preferring partial pivoting in `(0, 1]`.
    ///
    /// The diagonal entry is accepted as pivot if its magnitude is at least
    /// `pivot_tolerance` times the largest eligible entry in the column;
    /// otherwise the largest entry is used.
    pub pivot_tolerance: f64,
    /// Absolute magnitude below which a pivot is considered numerically zero.
    pub zero_pivot_threshold: f64,
    /// Optional upper bound on `nnz(L) + nnz(U)`.
    ///
    /// The benchmark harness uses this to emulate the out-of-memory failures
    /// the paper reports for the BENR baseline on densely coupled circuits.
    pub fill_budget: Option<usize>,
}

impl Default for LuOptions {
    fn default() -> Self {
        LuOptions {
            ordering: OrderingMethod::default(),
            pivot_tolerance: 0.1,
            zero_pivot_threshold: 1e-13,
            fill_budget: None,
        }
    }
}

/// Bound on `max |L|` above which a pivot-order-preserving refactorization is
/// rejected as numerically unstable (the caller should re-pivot with a fresh
/// [`SparseLu::factorize_with`]). Fresh factorizations bound this by
/// `1 / pivot_tolerance`; drifting values can erode that guarantee.
const REFACTOR_GROWTH_LIMIT: f64 = 1e10;

/// Reusable scratch memory for [`SparseLu::solve_into`] and
/// [`SparseLu::refactorize_with`].
///
/// Keeping one workspace alive across a hot loop removes every per-call
/// allocation from triangular solves and refactorizations. A workspace may be
/// shared between factors of different dimensions; it grows to the largest
/// dimension seen.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    scratch: Vec<f64>,
}

impl LuWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        LuWorkspace::default()
    }

    /// A scratch slice of length `n` with unspecified contents.
    fn slice(&mut self, n: usize) -> &mut [f64] {
        if self.scratch.len() < n {
            self.scratch.resize(n, 0.0);
        }
        &mut self.scratch[..n]
    }

    /// A zero-initialized scratch slice of length `n`.
    fn zeroed(&mut self, n: usize) -> &mut [f64] {
        let s = self.slice(n);
        s.fill(0.0);
        s
    }
}

/// The symbolic part of a sparse LU factorization: everything that depends
/// only on the sparsity **pattern** of the matrix (plus the pivot order the
/// first factorization chose), not on its values.
///
/// Computed once per factor and replayed by every refactorization of it:
///
/// * the fill-reducing column ordering `Q` and the row pivot order `P`,
/// * the structural patterns of `L` and `U` in elimination order (the
///   per-column reachability sets of the Gilbert–Peierls DFS),
/// * a scatter map from the input matrix's CSR value array to pivot-position
///   workspace indices, so a refactorization never converts to CSC.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// Column ordering: position `k` factors original column `q.unmap(k)`.
    q: Permutation,
    /// `pinv[original_row]` = pivot position of that row.
    pinv: Vec<usize>,
    /// CSR pattern of the analyzed matrix, shared with it: a refactorization
    /// of a matrix holding the same handle validates it by pointer.
    a_pattern: Arc<Pattern>,
    /// Scatter map, per factor column: workspace positions and CSR value
    /// indices of the input matrix entries of that column.
    acol_ptr: Vec<usize>,
    acol_pos: Vec<usize>,
    acol_src: Vec<usize>,
    /// Pattern of `L` (strictly below the diagonal), row indices in pivot
    /// positions, stored per column in elimination (topological) order.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    /// Pattern of `U` (strictly above the diagonal), row indices in pivot
    /// positions, stored per column in elimination order. Iterating a column
    /// of this pattern visits the update sources of the left-looking solve in
    /// exactly the order the first factorization applied them.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
}

impl SymbolicLu {
    /// Dimension of the analyzed matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Structural nonzeros in `L` (including the implicit unit diagonal).
    pub fn nnz_l(&self) -> usize {
        self.l_rows.len() + self.n
    }

    /// Structural nonzeros in `U` (including the diagonal).
    pub fn nnz_u(&self) -> usize {
        self.u_rows.len() + self.n
    }

    /// Total structural factor fill `nnz(L) + nnz(U)`.
    pub fn fill(&self) -> usize {
        self.nnz_l() + self.nnz_u()
    }

    /// Whether `a` has exactly the sparsity pattern this analysis was
    /// computed for. A matrix sharing the analyzed matrix's pattern handle
    /// (a clone of it, or restored from one) answers by pointer; any other
    /// compares `indptr` and `indices`.
    pub fn matches_pattern(&self, a: &CsrMatrix) -> bool {
        a.rows() == self.n
            && a.cols() == self.n
            && (Arc::ptr_eq(a.pattern(), &self.a_pattern) || **a.pattern() == *self.a_pattern)
    }
}

/// A computed sparse LU factorization `P·A·Q = L·U`.
///
/// `P` is the row permutation chosen by partial pivoting, `Q` the
/// fill-reducing column ordering, `L` unit lower triangular and `U` upper
/// triangular. The symbolic analysis is cached, so factorizing a sequence of
/// matrices with the same pattern costs one full factorization plus cheap
/// numeric [`SparseLu::refactorize_with`] calls.
///
/// # Examples
///
/// ```
/// use exi_sparse::{SparseLu, TripletMatrix};
///
/// # fn main() -> Result<(), exi_sparse::SparseError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 4.0);
/// t.push(0, 1, 1.0);
/// t.push(1, 0, 1.0);
/// t.push(1, 1, 3.0);
/// let a = t.to_csr();
/// let lu = SparseLu::factorize(&a)?;
/// let x = lu.solve(&[1.0, 2.0])?;
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    symbolic: SymbolicLu,
    l_vals: Vec<f64>,
    u_vals: Vec<f64>,
    /// Diagonal of `U` in pivot positions.
    u_diag: Vec<f64>,
    /// Smallest pivot magnitude a refactorization accepts.
    pivot_floor: f64,
    /// The values of the matrix the numeric factors were computed from, in
    /// its CSR order; empty while they are not known to be current (a
    /// refactorization failed).
    a_vals: Vec<f64>,
    /// Per factor column (pivot order): recomputed by the refactorization
    /// under way. Sized with the factor, so a refactorization allocates
    /// nothing.
    dirty: Vec<bool>,
}

impl SparseLu {
    /// Factorizes `a` with default [`LuOptions`].
    ///
    /// # Errors
    ///
    /// See [`SparseLu::factorize_with`].
    pub fn factorize(a: &CsrMatrix) -> SparseResult<Self> {
        Self::factorize_with(a, &LuOptions::default())
    }

    /// Factorizes `a` with explicit options, performing the full symbolic
    /// analysis (ordering, pivoting, reachability) plus the numeric
    /// factorization: [`compute_ordering`] followed by
    /// [`SparseLu::factorize_ordered`].
    ///
    /// # Errors
    ///
    /// * [`SparseError::NotSquare`] if `a` is not square.
    /// * [`SparseError::Singular`] if no acceptable pivot exists for a column.
    /// * [`SparseError::FillBudgetExceeded`] if the configured fill budget is hit.
    pub fn factorize_with(a: &CsrMatrix, options: &LuOptions) -> SparseResult<Self> {
        Self::factorize_ordered(a, compute_ordering(a, options.ordering), options)
    }

    /// Factorizes `a` under a precomputed fill-reducing column ordering `q`
    /// (`options.ordering` is not consulted): the pivoting, reachability and
    /// numeric work of [`SparseLu::factorize_with`] without the ordering.
    ///
    /// An ordering depends on the sparsity pattern alone, so one computed for
    /// any matrix with `a`'s pattern yields the factor `factorize_with` would
    /// — bit for bit — while the row pivots are still chosen from `a`'s own
    /// values.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::factorize_with`], plus
    /// [`SparseError::DimensionMismatch`] if `q` does not permute `a`'s
    /// columns.
    pub fn factorize_ordered(
        a: &CsrMatrix,
        q: Permutation,
        options: &LuOptions,
    ) -> SparseResult<Self> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if q.len() != n {
            return Err(SparseError::DimensionMismatch {
                op: "lu column ordering",
                expected: n,
                found: q.len(),
            });
        }

        // Column-wise access to `a` that remembers, for every entry, its
        // index into `a.values()` — this becomes the refactorization scatter
        // map once the pivot order is known.
        let (csc_ptr, csc_rows, csc_src) = csc_pattern_with_sources(a);
        let a_vals = a.values();

        // L columns with ORIGINAL row indices during factorization; remapped
        // to pivot positions at the end.
        let mut l_colptr = vec![0usize; n + 1];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_colptr = vec![0usize; n + 1];
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut u_diag = vec![0.0f64; n];
        let mut pinv = vec![usize::MAX; n];

        // Dense workspaces indexed by original row.
        let mut x = vec![0.0f64; n];
        let mut marked = vec![usize::MAX; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::with_capacity(n);

        for jj in 0..n {
            let j_orig = q.unmap(jj);
            let b_rows = &csc_rows[csc_ptr[j_orig]..csc_ptr[j_orig + 1]];
            let b_srcs = &csc_src[csc_ptr[j_orig]..csc_ptr[j_orig + 1]];

            // --- Symbolic: pattern of x = L^{-1} * A[:, j] via DFS (reach). ---
            topo.clear();
            for &r in b_rows {
                if marked[r] == jj {
                    continue;
                }
                // Iterative DFS from r through the columns of L.
                dfs_stack.push((r, 0));
                marked[r] = jj;
                while let Some(&(node, child_idx)) = dfs_stack.last() {
                    let k = pinv[node];
                    let children: &[usize] = if k == usize::MAX {
                        &[]
                    } else {
                        &l_rows[l_colptr[k]..l_colptr[k + 1]]
                    };
                    let mut next_child = None;
                    let mut ci = child_idx;
                    while ci < children.len() {
                        let c = children[ci];
                        ci += 1;
                        if marked[c] != jj {
                            next_child = Some(c);
                            break;
                        }
                    }
                    dfs_stack.last_mut().expect("stack non-empty").1 = ci;
                    match next_child {
                        Some(c) => {
                            marked[c] = jj;
                            dfs_stack.push((c, 0));
                        }
                        None => {
                            dfs_stack.pop();
                            topo.push(node);
                        }
                    }
                }
            }
            // `topo` is in post-order; reverse gives a topological order for
            // elimination (dependencies first).
            topo.reverse();

            // --- Numeric: sparse lower-triangular solve. ---
            // The workspace `x` is zero outside the previous pattern (it is
            // cleared when columns are stored), so only the right-hand side
            // needs to be scattered.
            for (&r, &src) in b_rows.iter().zip(b_srcs.iter()) {
                x[r] = a_vals[src];
            }
            for &r in topo.iter() {
                let k = pinv[r];
                if k == usize::MAX {
                    continue;
                }
                let xr = x[r];
                if xr == 0.0 {
                    continue;
                }
                for idx in l_colptr[k]..l_colptr[k + 1] {
                    x[l_rows[idx]] -= l_vals[idx] * xr;
                }
            }

            // --- Pivot selection among non-pivotal rows in the pattern. ---
            let mut max_val = 0.0f64;
            let mut max_row = usize::MAX;
            let mut diag_val = 0.0f64;
            let mut diag_ok = false;
            for &r in topo.iter() {
                if pinv[r] != usize::MAX {
                    continue;
                }
                let v = x[r].abs();
                if v > max_val {
                    max_val = v;
                    max_row = r;
                }
                if r == j_orig {
                    diag_val = v;
                    diag_ok = true;
                }
            }
            if max_row == usize::MAX || max_val < options.zero_pivot_threshold {
                return Err(SparseError::Singular {
                    column: jj,
                    unknown: Some(j_orig),
                });
            }
            let pivot_row = if diag_ok && diag_val >= options.pivot_tolerance * max_val {
                j_orig
            } else {
                max_row
            };
            let pivot_val = x[pivot_row];
            pinv[pivot_row] = jj;
            u_diag[jj] = pivot_val;

            // --- Store U column jj (pivotal rows) and L column jj (others). ---
            // Structural zeros are kept: the stored pattern must be the pure
            // symbolic reach so that a later refactorization with different
            // values remains correct.
            for &r in topo.iter() {
                let val = x[r];
                x[r] = 0.0; // clear workspace for the next column
                if r == pivot_row {
                    continue;
                }
                let k = pinv[r];
                if k != usize::MAX && k != jj {
                    u_rows.push(k);
                    u_vals.push(val);
                } else if k == usize::MAX {
                    l_rows.push(r);
                    l_vals.push(val / pivot_val);
                }
            }
            u_colptr[jj + 1] = u_rows.len();
            l_colptr[jj + 1] = l_rows.len();

            if let Some(budget) = options.fill_budget {
                let fill = l_rows.len() + u_rows.len() + n;
                if fill > budget {
                    return Err(SparseError::FillBudgetExceeded {
                        reached: fill,
                        budget,
                    });
                }
            }
        }

        // Remap L row indices from original rows to pivot positions.
        for r in l_rows.iter_mut() {
            *r = pinv[*r];
        }

        // Freeze the refactorization scatter map now that the full pivot
        // order is known: factor column jj reads the entries of original
        // column q.unmap(jj), targeting pivot-position workspace slots.
        let mut acol_ptr = vec![0usize; n + 1];
        let mut acol_pos = Vec::with_capacity(a.nnz());
        let mut acol_src = Vec::with_capacity(a.nnz());
        for jj in 0..n {
            let j_orig = q.unmap(jj);
            for t in csc_ptr[j_orig]..csc_ptr[j_orig + 1] {
                acol_pos.push(pinv[csc_rows[t]]);
                acol_src.push(csc_src[t]);
            }
            acol_ptr[jj + 1] = acol_pos.len();
        }

        let symbolic = SymbolicLu {
            n,
            q,
            pinv,
            a_pattern: Arc::clone(a.pattern()),
            acol_ptr,
            acol_pos,
            acol_src,
            l_colptr,
            l_rows,
            u_colptr,
            u_rows,
        };

        Ok(SparseLu {
            symbolic,
            l_vals,
            u_vals,
            u_diag,
            pivot_floor: options.pivot_tolerance * options.zero_pivot_threshold,
            a_vals: a_vals.to_vec(),
            dirty: vec![false; n],
        })
    }

    /// Recomputes the numeric factorization for a matrix `a` with the **same
    /// sparsity pattern** as the one this factor was built from, reusing the
    /// cached symbolic analysis (ordering, pivot order, factor patterns), and
    /// returns how many factor columns it recomputed.
    ///
    /// This skips the fill-reducing ordering, the CSC conversion and the
    /// per-column reachability DFS and performs no allocation; only the
    /// floating-point elimination is replayed — in exactly the operation
    /// order of the first factorization, so refactorizing with unchanged
    /// values reproduces the factors bit for bit.
    ///
    /// Only the columns that would come out different are replayed (see the
    /// module docs): those whose entries of `a` differ, in any bit (`-0.0`
    /// from `+0.0` included), from the values the factor was last computed
    /// from, and those that read the `L` column of one that is recomputed.
    /// The others keep their values, which a replay would reproduce bit for
    /// bit. So the result equals a full replay, and `Ok(0)` means the factor
    /// already was the factorization of exactly `a`. After a failed
    /// refactorization every column is recomputed.
    ///
    /// # Errors
    ///
    /// * [`SparseError::PatternMismatch`] if `a` does not have the analyzed
    ///   pattern (the caller should fall back to
    ///   [`SparseLu::factorize_with`]). Nothing is touched.
    /// * [`SparseError::Singular`] if a frozen pivot became numerically zero.
    /// * [`SparseError::UnstableRefactorization`] if element growth shows the
    ///   frozen pivot order is no longer viable and fresh pivoting is needed.
    ///
    /// On the last two errors the numeric contents of the factor are
    /// unspecified; the factor must be rebuilt before further solves.
    ///
    /// # Examples
    ///
    /// ```
    /// use exi_sparse::{LuWorkspace, SparseLu, TripletMatrix};
    ///
    /// # fn main() -> Result<(), exi_sparse::SparseError> {
    /// let mut t = TripletMatrix::new(2, 2);
    /// t.push(0, 0, 4.0);
    /// t.push(1, 1, 3.0);
    /// let a = t.to_csr();
    /// let mut lu = SparseLu::factorize(&a)?;
    ///
    /// // Same pattern, new values: numeric-only refactorization.
    /// let mut t = TripletMatrix::new(2, 2);
    /// t.push(0, 0, 8.0);
    /// t.push(1, 1, 6.0);
    /// let mut ws = LuWorkspace::new();
    /// assert_eq!(lu.refactorize_with(&t.to_csr(), &mut ws)?, 2);
    /// let x = lu.solve(&[8.0, 6.0])?;
    /// assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
    ///
    /// // Only the second column changes: the first keeps its values.
    /// let mut t = TripletMatrix::new(2, 2);
    /// t.push(0, 0, 8.0);
    /// t.push(1, 1, 5.0);
    /// assert_eq!(lu.refactorize_with(&t.to_csr(), &mut ws)?, 1);
    /// assert_eq!(lu.refactorize_with(&t.to_csr(), &mut ws)?, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn refactorize_with(&mut self, a: &CsrMatrix, ws: &mut LuWorkspace) -> SparseResult<usize> {
        self.refactorize_changed(a, None, ws)
    }

    /// [`SparseLu::refactorize_with`], told where `a`'s values may have
    /// changed: `None` compares every value with the factor's, `Some(list)`
    /// only the value positions (indices into `a.values()`) listed. The
    /// caller vouches that every value not listed equals, bit for bit, the
    /// one the factor was last computed from; debug builds check it with a
    /// compare of every value. The result, the recomputed-column count
    /// included, is that of `refactorize_with`. After a failed
    /// refactorization the list is not consulted: every column is
    /// recomputed.
    ///
    /// This is how a Newton iteration that rewrote only its devices' cells
    /// refreshes the factor of its Jacobian: it compares those cells, not
    /// the whole matrix.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::refactorize_with`].
    ///
    /// # Panics
    ///
    /// Panics if a listed position is not below `a.nnz()`.
    pub fn refactorize_changed(
        &mut self,
        a: &CsrMatrix,
        changed: Option<&[usize]>,
        ws: &mut LuWorkspace,
    ) -> SparseResult<usize> {
        let s = &self.symbolic;
        if !s.matches_pattern(a) {
            return Err(SparseError::PatternMismatch {
                expected_nnz: s.a_pattern.indices.len(),
                found_nnz: a.nnz(),
            });
        }
        // One pass over the candidate values marks the columns whose entries
        // changed and records the new values. Unknown previous values (a
        // failed refactorization cleared them) mark every column.
        let mut first = 0;
        if self.a_vals.is_empty() {
            self.dirty.fill(true);
            self.a_vals.extend_from_slice(a.values());
        } else {
            self.dirty.fill(false);
            first = s.n;
            let (values, columns) = (a.values(), &s.a_pattern.indices);
            let dirty = &mut self.dirty;
            let mut compare = |kept: &mut f64, v: f64, col: usize| {
                if kept.to_bits() != v.to_bits() {
                    *kept = v;
                    let jj = s.q.map(col);
                    dirty[jj] = true;
                    first = first.min(jj);
                }
            };
            match changed {
                None => {
                    for ((kept, &v), &col) in self.a_vals.iter_mut().zip(values).zip(columns) {
                        compare(kept, v, col);
                    }
                }
                Some(list) => {
                    for &k in list {
                        compare(&mut self.a_vals[k], values[k], columns[k]);
                    }
                }
            }
            debug_assert!(
                self.a_vals
                    .iter()
                    .zip(values)
                    .all(|(kept, v)| kept.to_bits() == v.to_bits()),
                "a value outside the listed positions changed"
            );
            if first == s.n {
                return Ok(0);
            }
        }
        let recomputed = self.replay_dirty_columns(first, ws);
        if recomputed.is_err() {
            // The factors are in flux: they must not pass for the factor of
            // any matrix.
            self.a_vals.clear();
        }
        recomputed
    }

    /// The elimination replay behind [`SparseLu::refactorize_with`], over
    /// the columns marked dirty plus every column that reads a recomputed
    /// one, on the values in `a_vals`. No column left of `first` is dirty.
    fn replay_dirty_columns(&mut self, first: usize, ws: &mut LuWorkspace) -> SparseResult<usize> {
        let SparseLu {
            symbolic: s,
            l_vals,
            u_vals,
            u_diag,
            pivot_floor,
            a_vals,
            dirty,
        } = self;
        let x = ws.zeroed(s.n);
        let mut recomputed = 0;
        for jj in first..s.n {
            let u_range = s.u_colptr[jj]..s.u_colptr[jj + 1];
            // Column jj reads A[:, q(jj)] and the L columns its U pattern
            // lists, all left of jj: one forward pass settles dirtiness.
            if !dirty[jj] && !s.u_rows[u_range.clone()].iter().any(|&p| dirty[p]) {
                continue;
            }
            dirty[jj] = true;
            recomputed += 1;
            // Scatter A[:, q(jj)] into pivot-position slots.
            for t in s.acol_ptr[jj]..s.acol_ptr[jj + 1] {
                x[s.acol_pos[t]] = a_vals[s.acol_src[t]];
            }
            // Replay the left-looking update in the recorded elimination
            // order: the U pattern of this column lists the update sources
            // exactly as the first factorization visited them.
            for t in u_range.clone() {
                let p = s.u_rows[t];
                let xp = x[p];
                if xp == 0.0 {
                    continue;
                }
                for idx in s.l_colptr[p]..s.l_colptr[p + 1] {
                    x[s.l_rows[idx]] -= l_vals[idx] * xp;
                }
            }
            // Frozen pivot.
            let pivot = x[jj];
            if !pivot.is_finite() || pivot.abs() < *pivot_floor {
                return Err(SparseError::Singular {
                    column: jj,
                    unknown: Some(s.q.unmap(jj)),
                });
            }
            u_diag[jj] = pivot;
            // Gather the column back out (and clear the workspace slots).
            // U carries the matrix's own scale, so it is only checked for
            // finiteness; L is dimensionless and additionally bounded by the
            // growth limit. NaN must be caught explicitly (a plain
            // `growth.max(..)` accumulator would swallow it).
            for (&p, uv) in s.u_rows[u_range.clone()].iter().zip(&mut u_vals[u_range]) {
                if !x[p].is_finite() {
                    return Err(SparseError::UnstableRefactorization {
                        growth: f64::INFINITY,
                    });
                }
                *uv = x[p];
                x[p] = 0.0;
            }
            x[jj] = 0.0;
            let l_range = s.l_colptr[jj]..s.l_colptr[jj + 1];
            for (&p, lv) in s.l_rows[l_range.clone()].iter().zip(&mut l_vals[l_range]) {
                let value = x[p] / pivot;
                let magnitude = value.abs();
                if magnitude > REFACTOR_GROWTH_LIMIT || magnitude.is_nan() {
                    return Err(SparseError::UnstableRefactorization { growth: magnitude });
                }
                *lv = value;
                x[p] = 0.0;
            }
        }
        Ok(recomputed)
    }

    /// The cached symbolic analysis backing this factorization.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.symbolic
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.symbolic.n
    }

    /// Number of nonzeros in `L` (including the implicit unit diagonal).
    pub fn nnz_l(&self) -> usize {
        self.symbolic.nnz_l()
    }

    /// Number of nonzeros in `U` (including the diagonal).
    pub fn nnz_u(&self) -> usize {
        self.symbolic.nnz_u()
    }

    /// Total factor fill `nnz(L) + nnz(U)`.
    pub fn fill(&self) -> usize {
        self.symbolic.fill()
    }

    /// Solves `A x = b` using the computed factorization.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve(&self, b: &[f64]) -> SparseResult<Vec<f64>> {
        let mut out = vec![0.0f64; self.symbolic.n];
        let mut ws = LuWorkspace::new();
        self.solve_into(b, &mut out, &mut ws)?;
        Ok(out)
    }

    /// Solves `A x = b` into a caller-provided output buffer, using `ws` for
    /// scratch space — the allocation-free variant of [`SparseLu::solve`] for
    /// hot loops.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.len()` or `out.len()`
    /// differ from the matrix dimension.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], ws: &mut LuWorkspace) -> SparseResult<()> {
        let s = &self.symbolic;
        if b.len() != s.n {
            return Err(SparseError::DimensionMismatch {
                op: "lu solve rhs",
                expected: s.n,
                found: b.len(),
            });
        }
        if out.len() != s.n {
            return Err(SparseError::DimensionMismatch {
                op: "lu solve output",
                expected: s.n,
                found: out.len(),
            });
        }
        let z = ws.slice(s.n);
        // Apply the row permutation: z = P b.
        for (r, &br) in b.iter().enumerate() {
            z[s.pinv[r]] = br;
        }
        // Forward solve with unit lower triangular L (column oriented).
        for j in 0..s.n {
            let xj = z[j];
            if xj == 0.0 {
                continue;
            }
            for idx in s.l_colptr[j]..s.l_colptr[j + 1] {
                z[s.l_rows[idx]] -= self.l_vals[idx] * xj;
            }
        }
        // Backward solve with U (column oriented).
        for j in (0..s.n).rev() {
            z[j] /= self.u_diag[j];
            let xj = z[j];
            if xj == 0.0 {
                continue;
            }
            for idx in s.u_colptr[j]..s.u_colptr[j + 1] {
                z[s.u_rows[idx]] -= self.u_vals[idx] * xj;
            }
        }
        // Undo the column ordering: x[q(k)] = z[k].
        for k in 0..s.n {
            out[s.q.unmap(k)] = z[k];
        }
        Ok(())
    }
}

/// Column-wise view of a CSR pattern: for every column, the original row
/// indices and the positions of the entries inside `a.values()`.
fn csc_pattern_with_sources(a: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n_cols = a.cols();
    let mut colptr = vec![0usize; n_cols + 1];
    for &c in a.indices() {
        colptr[c + 1] += 1;
    }
    for j in 0..n_cols {
        colptr[j + 1] += colptr[j];
    }
    let mut rows = vec![0usize; a.nnz()];
    let mut src = vec![0usize; a.nnz()];
    let mut next = colptr.clone();
    for i in 0..a.rows() {
        let (cols, _) = a.row(i);
        let base = a.indptr()[i];
        for (offset, &c) in cols.iter().enumerate() {
            let pos = next[c];
            rows[pos] = i;
            src[pos] = base + offset;
            next[c] += 1;
        }
    }
    (colptr, rows, src)
}

/// Reports the factor fill of a matrix under a given ordering without keeping
/// the factors (used by the Fig. 1 reproduction).
///
/// Returns `(nnz_l, nnz_u)`.
///
/// # Errors
///
/// Propagates factorization errors from [`SparseLu`].
pub fn factor_fill(a: &CsrMatrix, ordering: OrderingMethod) -> SparseResult<(usize, usize)> {
    let lu = SparseLu::factorize_with(
        a,
        &LuOptions {
            ordering,
            ..LuOptions::default()
        },
    )?;
    Ok((lu.nnz_l(), lu.nnz_u()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vector, TripletMatrix};

    fn dense_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x);
        vector::max_abs_diff(&ax, b)
    }

    fn tridiag(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.5);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    fn tridiag_scaled(n: usize, d: f64, off: f64) -> CsrMatrix {
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
    fn solves_small_dense_system() {
        let mut t = TripletMatrix::new(3, 3);
        let rows = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]];
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                t.push(i, j, v);
            }
        }
        let a = t.to_csr();
        let b = vec![1.0, 2.0, 3.0];
        let lu = SparseLu::factorize(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(dense_residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solves_tridiagonal_systems_of_various_sizes() {
        for n in [1usize, 2, 3, 10, 50, 200] {
            let a = tridiag(n);
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
            let x = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
            assert!(dense_residual(&a, &x, &b) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn all_orderings_give_same_solution() {
        let a = tridiag(30);
        let b: Vec<f64> = (0..30).map(|i| i as f64 * 0.1 - 1.0).collect();
        let mut solutions = Vec::new();
        for ordering in [
            OrderingMethod::Natural,
            OrderingMethod::Rcm,
            OrderingMethod::MinDegree,
        ] {
            let lu = SparseLu::factorize_with(
                &a,
                &LuOptions {
                    ordering,
                    ..LuOptions::default()
                },
            )
            .unwrap();
            solutions.push(lu.solve(&b).unwrap());
        }
        for s in &solutions[1..] {
            assert!(vector::max_abs_diff(&solutions[0], s) < 1e-10);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] requires row pivoting.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csr();
        let x = SparseLu::factorize(&a).unwrap().solve(&[3.0, 5.0]).unwrap();
        assert!((x[1] - 3.0).abs() < 1e-14);
        assert!((x[0] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        // Column 1 is entirely zero.
        let a = t.to_csr();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn numerically_singular_matrix_is_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        let a = t.to_csr();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn fill_budget_is_enforced() {
        let a = tridiag(100);
        let opts = LuOptions {
            fill_budget: Some(50),
            ..LuOptions::default()
        };
        assert!(matches!(
            SparseLu::factorize_with(&a, &opts),
            Err(SparseError::FillBudgetExceeded { .. })
        ));
        let opts = LuOptions {
            fill_budget: Some(10_000),
            ..LuOptions::default()
        };
        assert!(SparseLu::factorize_with(&a, &opts).is_ok());
    }

    #[test]
    fn non_square_is_rejected() {
        let a = CsrMatrix::zeros(2, 3);
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn fill_counts_are_consistent() {
        let a = tridiag(20);
        let lu = SparseLu::factorize(&a).unwrap();
        assert!(lu.nnz_l() >= 20);
        assert!(lu.nnz_u() >= 20);
        assert_eq!(lu.fill(), lu.nnz_l() + lu.nnz_u());
        assert_eq!(lu.fill(), lu.symbolic().fill());
        let (l, u) = factor_fill(&a, OrderingMethod::Rcm).unwrap();
        assert_eq!((l, u), (lu.nnz_l(), lu.nnz_u()));
    }

    #[test]
    fn wrong_rhs_length_is_rejected() {
        let a = tridiag(4);
        let lu = SparseLu::factorize(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
        let mut out = vec![0.0; 3];
        let mut ws = LuWorkspace::new();
        assert!(lu.solve_into(&[1.0; 4], &mut out, &mut ws).is_err());
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = tridiag(25);
        let lu = SparseLu::factorize(&a).unwrap();
        let b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).cos()).collect();
        let x1 = lu.solve(&b).unwrap();
        let mut x2 = vec![0.0; 25];
        let mut ws = LuWorkspace::new();
        lu.solve_into(&b, &mut x2, &mut ws).unwrap();
        assert_eq!(x1, x2);
        // Reusing the workspace must not corrupt later solves.
        let mut x3 = vec![0.0; 25];
        lu.solve_into(&b, &mut x3, &mut ws).unwrap();
        assert_eq!(x1, x3);
    }

    #[test]
    fn random_sparse_spd_like_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..5 {
            let n = 40 + trial * 13;
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                t.push(i, i, 10.0 + rng.gen::<f64>());
            }
            for _ in 0..(3 * n) {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                if i != j {
                    let v = rng.gen_range(-1.0..1.0);
                    t.push(i, j, v);
                }
            }
            let a = t.to_csr();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
            assert!(dense_residual(&a, &x, &b) < 1e-9, "trial {trial}");
        }
    }

    /// `a` with the value at `(i, j)` replaced by `v` (the entry must exist).
    fn with_entry(a: &CsrMatrix, i: usize, j: usize, v: f64) -> CsrMatrix {
        let (cols, _) = a.row(i);
        let k = a.indptr()[i] + cols.iter().position(|&c| c == j).expect("stored entry");
        let mut vals = a.values().to_vec();
        vals[k] = v;
        CsrMatrix::try_from_raw(
            a.rows(),
            a.cols(),
            a.indptr().to_vec(),
            a.indices().to_vec(),
            vals,
        )
        .unwrap()
    }

    #[test]
    fn refactorize_same_values_is_bit_identical() {
        let a = tridiag(60);
        let fresh = SparseLu::factorize(&a).unwrap();
        let mut refac = fresh.clone();
        let mut ws = LuWorkspace::new();
        // Through a matrix that differs in every column, so the way back is
        // a full replay rather than a compare.
        assert_eq!(refac.refactorize_with(&a.scaled(2.0), &mut ws).unwrap(), 60);
        assert_eq!(refac.refactorize_with(&a, &mut ws).unwrap(), 60);
        assert_eq!(fresh.l_vals, refac.l_vals);
        assert_eq!(fresh.u_vals, refac.u_vals);
        assert_eq!(fresh.u_diag, refac.u_diag);
    }

    #[test]
    fn refactorize_recomputes_the_changed_columns_and_the_columns_they_reach() {
        let natural = LuOptions {
            ordering: OrderingMethod::Natural,
            ..LuOptions::default()
        };
        let a = tridiag(40);
        let mut lu = SparseLu::factorize_with(&a, &natural).unwrap();
        let mut ws = LuWorkspace::new();
        assert_eq!(lu.refactorize_with(&a, &mut ws).unwrap(), 0);
        // Column k of a tridiagonal factor reads L column k - 1 only, so a
        // change at (30, 30) reaches columns 30..40 and nothing before.
        let moved = with_entry(&a, 30, 30, 3.0);
        assert_eq!(lu.refactorize_with(&moved, &mut ws).unwrap(), 10);
        let mut full = SparseLu::factorize_with(&a, &natural).unwrap();
        assert_eq!(
            full.refactorize_with(&moved.scaled(4.0), &mut ws).unwrap(),
            40
        );
        assert_eq!(full.refactorize_with(&moved, &mut ws).unwrap(), 40);
        assert_eq!(lu.l_vals, full.l_vals);
        assert_eq!(lu.u_vals, full.u_vals);
        assert_eq!(lu.u_diag, full.u_diag);
        assert_eq!(lu.refactorize_with(&moved, &mut ws).unwrap(), 0);
        // A pattern mismatch is refused before anything is touched ...
        assert!(lu.refactorize_with(&tridiag(41), &mut ws).is_err());
        assert_eq!(lu.refactorize_with(&moved, &mut ws).unwrap(), 0);
        // ... a failed elimination leaves no value to compare against.
        let singular = tridiag_scaled(40, 1e-30, 1e-30);
        assert!(lu.refactorize_with(&singular, &mut ws).is_err());
        assert_eq!(lu.refactorize_with(&moved, &mut ws).unwrap(), 40);
        assert_eq!(lu.u_diag, full.u_diag);
    }

    #[test]
    fn listed_refactorization_recomputes_every_column_after_a_failure() {
        let natural = LuOptions {
            ordering: OrderingMethod::Natural,
            ..LuOptions::default()
        };
        let a = tridiag(12);
        let mut ws = LuWorkspace::new();
        // (5, 4) is in `L`: a huge value there is element growth.
        let k = a.indptr()[5];
        assert_eq!(a.indices()[k], 4);
        let grown = with_entry(&a, 5, 4, 1e300);
        let diagonal = a.indptr()[5] + 1;
        let lost = with_entry(&a, 5, 5, f64::NAN);
        for (bad, at) in [(grown, k), (lost, diagonal)] {
            let mut lu = SparseLu::factorize_with(&a, &natural).unwrap();
            assert_eq!(lu.refactorize_changed(&a, Some(&[]), &mut ws).unwrap(), 0);
            let failed = lu.refactorize_changed(&bad, Some(&[at]), &mut ws);
            assert!(
                matches!(
                    failed,
                    Err(SparseError::UnstableRefactorization { .. } | SparseError::Singular { .. })
                ),
                "{failed:?}"
            );
            // The kept values are gone: every column, whatever the list.
            assert_eq!(
                lu.refactorize_changed(&a, Some(&[at]), &mut ws).unwrap(),
                12
            );
            assert_eq!(lu.refactorize_changed(&a, Some(&[at]), &mut ws).unwrap(), 0);
        }
        let mut lu = SparseLu::factorize_with(&a, &natural).unwrap();
        assert!(matches!(
            lu.refactorize_changed(&with_entry(&a, 5, 4, 1e300), Some(&[k]), &mut ws),
            Err(SparseError::UnstableRefactorization { .. })
        ));
        assert!(matches!(
            lu.refactorize_changed(&with_entry(&a, 5, 5, f64::NAN), None, &mut ws),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn refactorize_new_values_matches_fresh_factorization() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50;
        // A random diagonally dominant pattern shared by two value sets.
        let mut entries: Vec<(usize, usize)> = Vec::new();
        for _ in 0..(3 * n) {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                entries.push((i, j));
            }
        }
        let build = |rng: &mut StdRng| {
            let mut t = TripletMatrix::new(n, n);
            for &(i, j) in &entries {
                t.push(i, j, rng.gen_range(-1.0..1.0));
            }
            for i in 0..n {
                t.push(i, i, 8.0 + rng.gen::<f64>());
            }
            t.to_csr()
        };
        let a0 = build(&mut rng);
        let a1 = build(&mut rng);
        assert_eq!(
            a0.indices(),
            a1.indices(),
            "patterns must agree for this test"
        );

        let mut lu = SparseLu::factorize(&a0).unwrap();
        let mut ws = LuWorkspace::new();
        lu.refactorize_with(&a1, &mut ws).unwrap();
        let fresh = SparseLu::factorize(&a1).unwrap();

        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let x_refac = lu.solve(&b).unwrap();
        let x_fresh = fresh.solve(&b).unwrap();
        assert!(vector::max_abs_diff(&x_refac, &x_fresh) < 1e-12);
        assert!(dense_residual(&a1, &x_refac, &b) < 1e-9);
    }

    #[test]
    fn refactorize_rejects_different_pattern() {
        let a = tridiag(10);
        let mut lu = SparseLu::factorize(&a).unwrap();
        let mut ws = LuWorkspace::new();
        let b = tridiag(12);
        assert!(matches!(
            lu.refactorize_with(&b, &mut ws),
            Err(SparseError::PatternMismatch { .. })
        ));
        // Same size, different pattern.
        let mut t = TripletMatrix::new(10, 10);
        for i in 0..10 {
            t.push(i, i, 1.0);
        }
        assert!(matches!(
            lu.refactorize_with(&t.to_csr(), &mut ws),
            Err(SparseError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn refactorize_detects_vanished_pivot() {
        let a = tridiag_scaled(8, 3.0, -1.0);
        let mut lu = SparseLu::factorize(&a).unwrap();
        // Same pattern, but numerically singular values (rank-deficient:
        // every row sums the same entries so columns collapse).
        let bad = tridiag_scaled(8, 1e-30, 1e-30);
        assert!(lu.refactorize_with(&bad, &mut LuWorkspace::new()).is_err());
    }

    #[test]
    fn refactorize_rejects_non_finite_values() {
        // A NaN (or Inf) sneaking into the new values must surface as an
        // error, never as a silently poisoned factor that later solves
        // propagate into the state vector.
        let a = tridiag(8);
        for bad_value in [f64::NAN, f64::INFINITY] {
            let mut vals = a.values().to_vec();
            vals[3] = bad_value;
            let bad = CsrMatrix::try_from_raw(
                a.rows(),
                a.cols(),
                a.indptr().to_vec(),
                a.indices().to_vec(),
                vals,
            )
            .unwrap();
            let mut lu = SparseLu::factorize(&a).unwrap();
            assert!(
                lu.refactorize_with(&bad, &mut LuWorkspace::new()).is_err(),
                "refactorize must reject {bad_value} in the values"
            );
        }
    }

    /// `[[d, 0, 1], [0, 2, 1], [1, 1, 0]]`: column 0's diagonal `d` passes
    /// the threshold test against the `1` below it only when `d >= 0.1`.
    fn pivot_choice(d: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, d),
            (0, 2, 1.0),
            (1, 1, 2.0),
            (1, 2, 1.0),
            (2, 0, 1.0),
            (2, 1, 1.0),
        ] {
            t.push(i, j, v);
        }
        t.to_csr()
    }

    #[test]
    fn factorize_ordered_pivots_its_own_values_under_a_shared_ordering() {
        let natural = LuOptions {
            ordering: OrderingMethod::Natural,
            ..LuOptions::default()
        };
        for ordering in [
            OrderingMethod::Natural,
            OrderingMethod::Rcm,
            OrderingMethod::MinDegree,
        ] {
            // One ordering, computed from the first matrix, serves both.
            let q = compute_ordering(&pivot_choice(1.0), ordering);
            for d in [1.0, 1e-3] {
                let a = pivot_choice(d);
                let options = LuOptions {
                    ordering,
                    ..LuOptions::default()
                };
                let fresh = SparseLu::factorize_with(&a, &options).unwrap();
                let ordered = SparseLu::factorize_ordered(&a, q.clone(), &options).unwrap();
                assert_eq!(fresh.symbolic.pinv, ordered.symbolic.pinv);
                assert_eq!(fresh.l_vals, ordered.l_vals);
                assert_eq!(fresh.u_vals, ordered.u_vals);
                assert_eq!(fresh.u_diag, ordered.u_diag);
            }
        }
        // The two value sets really do pivot differently.
        let diag = SparseLu::factorize_with(&pivot_choice(1.0), &natural).unwrap();
        let off = SparseLu::factorize_with(&pivot_choice(1e-3), &natural).unwrap();
        assert_ne!(diag.symbolic.pinv, off.symbolic.pinv);
    }

    #[test]
    fn factorize_ordered_rejects_a_foreign_ordering_and_the_fill_budget() {
        let a = tridiag(12);
        assert!(matches!(
            SparseLu::factorize_ordered(&a, Permutation::identity(13), &LuOptions::default()),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let tight = LuOptions {
            fill_budget: Some(4),
            ..LuOptions::default()
        };
        assert!(matches!(
            SparseLu::factorize_ordered(&a, Permutation::identity(12), &tight),
            Err(SparseError::FillBudgetExceeded { .. })
        ));
    }

    #[test]
    fn lu_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SymbolicLu>();
        assert_send_sync::<SparseLu>();
        assert_send_sync::<LuWorkspace>();
        assert_send_sync::<CsrMatrix>();
    }

    #[test]
    fn refactorize_after_scaling_matches_exactly() {
        // Scaling the whole matrix by a power of two scales the factors
        // exactly; this exercises the replay arithmetic deterministically.
        let a = tridiag(30);
        let scaled = a.scaled(4.0);
        let mut lu = SparseLu::factorize(&a).unwrap();
        lu.refactorize_with(&scaled, &mut LuWorkspace::new())
            .unwrap();
        let fresh = SparseLu::factorize(&scaled).unwrap();
        assert_eq!(lu.u_diag, fresh.u_diag);
        assert_eq!(lu.l_vals, fresh.l_vals);
        assert_eq!(lu.u_vals, fresh.u_vals);
    }
}

//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the working format of the simulator: MNA matrices `G` and `C` are
//! assembled into CSR, matrix-vector products (the inner loop of Krylov
//! subspace construction) iterate rows contiguously, and linear combinations
//! such as `C/h + G` (needed by the backward-Euler baseline) are computed by
//! merging rows.

use std::sync::Arc;

use crate::error::{SparseError, SparseResult};

/// The structure of a CSR matrix: row pointers and sorted, unique column
/// indices per row. Immutable once built and shared behind an [`Arc`] by
/// every matrix (and every [`crate::SymbolicLu`]) that has it.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Pattern {
    pub(crate) indptr: Vec<usize>,
    pub(crate) indices: Vec<usize>,
}

/// An immutable sparse matrix in compressed sparse row format.
///
/// Column indices within each row are sorted and unique. The structure
/// (`indptr`/`indices`) lives behind one shared, immutable handle: cloning a
/// matrix — or [`Clone::clone_from`] into one — copies its values and shares
/// its pattern, and code that knows two matrices share a pattern compares the
/// handles, not the arrays (see [`crate::SymbolicLu::matches_pattern`]).
///
/// # Examples
///
/// ```
/// use exi_sparse::{CsrMatrix, TripletMatrix};
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(0, 1, -1.0);
/// t.push(1, 1, 3.0);
/// let a: CsrMatrix = t.to_csr();
/// assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![1.0, 3.0]);
/// ```
#[derive(Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    pattern: Arc<Pattern>,
    values: Vec<f64>,
}

impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            pattern: Arc::clone(&self.pattern),
            values: self.values.clone(),
        }
    }

    /// Shares `source`'s pattern and copies its values into `self`'s value
    /// buffer, which allocates only when that buffer is too small.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        if !Arc::ptr_eq(&self.pattern, &source.pattern) {
            self.pattern = Arc::clone(&source.pattern);
        }
        self.values.clone_from(&source.values);
    }
}

impl CsrMatrix {
    /// Creates an empty (all-zero) `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_parts_unchecked(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_parts_unchecked(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// Builds a CSR matrix from raw triplets, summing duplicates and dropping
    /// entries that sum to exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if any triplet index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        // Count entries per row (including duplicates first).
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) out of bounds");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        // Bucket triplets by row.
        let mut col_buf = vec![0usize; triplets.len()];
        let mut val_buf = vec![0.0f64; triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let pos = next[r];
            col_buf[pos] = c;
            val_buf[pos] = v;
            next[r] += 1;
        }
        // Sort each row by column and accumulate duplicates.
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for r in 0..rows {
            let start = counts[r];
            let end = counts[r + 1];
            let mut row: Vec<(usize, f64)> =
                (start..end).map(|k| (col_buf[k], val_buf[k])).collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let col = row[i].0;
                let mut sum = 0.0;
                while i < row.len() && row[i].0 == col {
                    sum += row[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    indices.push(col);
                    values.push(sum);
                }
            }
            indptr[r + 1] = indices.len();
        }
        Self::from_parts_unchecked(rows, cols, indptr, indices, values)
    }

    /// Builds a CSR matrix directly from its raw components.
    ///
    /// # Errors
    ///
    /// Returns an error if the structure is inconsistent (wrong `indptr`
    /// length, unsorted or out-of-range column indices, value/index length
    /// mismatch).
    pub fn try_from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> SparseResult<Self> {
        if indptr.len() != rows + 1 {
            return Err(SparseError::DimensionMismatch {
                op: "csr indptr length",
                expected: rows + 1,
                found: indptr.len(),
            });
        }
        if indices.len() != values.len() {
            return Err(SparseError::DimensionMismatch {
                op: "csr indices/values length",
                expected: indices.len(),
                found: values.len(),
            });
        }
        if *indptr.last().unwrap_or(&0) != indices.len() {
            return Err(SparseError::DimensionMismatch {
                op: "csr indptr terminator",
                expected: indices.len(),
                found: *indptr.last().unwrap_or(&0),
            });
        }
        for r in 0..rows {
            if indptr[r] > indptr[r + 1] {
                return Err(SparseError::DimensionMismatch {
                    op: "csr indptr monotonicity",
                    expected: indptr[r],
                    found: indptr[r + 1],
                });
            }
            let mut prev: Option<usize> = None;
            for &c in &indices[indptr[r]..indptr[r + 1]] {
                if c >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        rows,
                        cols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::DimensionMismatch {
                            op: "csr sorted columns",
                            expected: p + 1,
                            found: c,
                        });
                    }
                }
                prev = Some(c);
            }
        }
        Ok(Self::from_parts_unchecked(
            rows, cols, indptr, indices, values,
        ))
    }

    /// Builds a CSR matrix from raw components the caller built valid: the
    /// CSR invariants checked by [`CsrMatrix::try_from_raw`] are only
    /// `debug_assert`ed. The vectors move into the matrix (the structure
    /// into a fresh shared pattern); nothing is copied.
    fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indices.len(), values.len(), "csr indices/values length");
        let pattern = Pattern { indptr, indices };
        debug_assert_valid(&pattern, rows, cols);
        CsrMatrix {
            rows,
            cols,
            pattern: Arc::new(pattern),
            values,
        }
    }

    /// The shared structure handle.
    pub(crate) fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// Capacity of the value buffer: how many values the matrix can take
    /// on (through [`Clone::clone_from`], say) without allocating.
    pub fn value_capacity(&self) -> usize {
        self.values.capacity()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`rows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.pattern.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[usize] {
        &self.pattern.indices
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the value array.
    ///
    /// The sparsity structure (`indptr`/`indices`) is immutable; rewriting
    /// values in place is exactly what the pattern-locked stamping path does
    /// per evaluation.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Returns the stored columns and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.rows, "row index out of bounds");
        let p = &*self.pattern;
        let (s, e) = (p.indptr[i], p.indptr[i + 1]);
        (&p.indices[s..e], &self.values[s..e])
    }

    /// Returns the value at `(i, j)`, or `0.0` if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i >= self.rows || j >= self.cols {
            return 0.0;
        }
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix - dense vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Sparse matrix - dense vector product written into a caller-provided
    /// buffer (`y = A x`), avoiding an allocation in hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec: x dimension mismatch");
        assert_eq!(y.len(), self.rows, "mul_vec: y dimension mismatch");
        let p = &*self.pattern;
        for (i, yi) in y.iter_mut().enumerate() {
            let s = p.indptr[i];
            let e = p.indptr[i + 1];
            let mut acc = 0.0;
            for k in s..e {
                acc += self.values[k] * x[p.indices[k]];
            }
            *yi = acc;
        }
    }

    /// Returns `alpha * self` as a new matrix.
    pub fn scaled(&self, alpha: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in out.values.iter_mut() {
            *v *= alpha;
        }
        out
    }

    /// Computes the linear combination `alpha * A + beta * B`.
    ///
    /// This is the backward-Euler baseline's `C/h + G` (the implicit engines
    /// refill it through a [`CombinationMap`], which reproduces these values
    /// bit for bit). The result's pattern is the
    /// **structural union** of the operands' patterns whatever the weights
    /// and values are — a cell that evaluates to `0.0` is stored as an
    /// explicit zero — so the pattern of `C/h + θ·G` depends on neither the
    /// state nor the step size, and one symbolic LU analysis serves every
    /// Newton iteration at every `h`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the shapes differ.
    pub fn linear_combination(
        alpha: f64,
        a: &CsrMatrix,
        beta: f64,
        b: &CsrMatrix,
    ) -> SparseResult<CsrMatrix> {
        let mut out = CsrMatrix::zeros(0, 0);
        Self::linear_combination_into(alpha, a, beta, b, &mut out)?;
        Ok(out)
    }

    /// As [`CsrMatrix::linear_combination`], rebuilding the result inside
    /// `out`'s existing buffers. `out`'s previous contents are discarded; its
    /// buffer capacity is reused when nothing else shares its pattern (a
    /// shared pattern is left to its other holders and a new one is built),
    /// so a steady-state caller that owns its output allocates nothing. The
    /// merge is the same row walk as the allocating form, producing
    /// bit-identical values. A caller that combines the same two patterns
    /// over and over should build a [`CombinationMap`] once instead and only
    /// refill values.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the shapes differ (and
    /// leaves `out` empty).
    pub fn linear_combination_into(
        alpha: f64,
        a: &CsrMatrix,
        beta: f64,
        b: &CsrMatrix,
        out: &mut CsrMatrix,
    ) -> SparseResult<()> {
        if let Err(e) = check_same_shape(a, b) {
            *out = CsrMatrix::zeros(0, 0);
            return Err(e);
        }
        if Arc::get_mut(&mut out.pattern).is_none() {
            out.pattern = Arc::default();
        }
        let Pattern { indptr, indices } =
            Arc::get_mut(&mut out.pattern).expect("a fresh handle is unique");
        let (rows, values) = (a.rows, &mut out.values);
        indptr.clear();
        indptr.resize(rows + 1, 0);
        indices.clear();
        indices.reserve(a.nnz() + b.nnz());
        values.clear();
        values.reserve(a.nnz() + b.nnz());
        for i in 0..rows {
            merge_row(a, b, i, |col, cell| {
                indices.push(col);
                values.push(match cell {
                    UnionCell::A(p) => alpha * a.values[p],
                    UnionCell::B(q) => beta * b.values[q],
                    UnionCell::Both(p, q) => alpha * a.values[p] + beta * b.values[q],
                });
            });
            indptr[i + 1] = indices.len();
        }
        out.rows = rows;
        out.cols = a.cols;
        debug_assert_valid(&out.pattern, rows, a.cols);
        Ok(())
    }

    /// Returns the main diagonal as a dense vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        let mut best = 0.0_f64;
        for i in 0..self.rows {
            let (_, vals) = self.row(i);
            let s: f64 = vals.iter().map(|v| v.abs()).sum();
            best = best.max(s);
        }
        best
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let p = &*self.pattern;
        (0..self.rows).flat_map(move |i| {
            (p.indptr[i]..p.indptr[i + 1]).map(move |k| (i, p.indices[k], self.values[k]))
        })
    }
}

/// `debug_assert`s the CSR invariants [`CsrMatrix::try_from_raw`] checks.
fn debug_assert_valid(pattern: &Pattern, rows: usize, cols: usize) {
    if !cfg!(debug_assertions) {
        return;
    }
    let Pattern { indptr, indices } = pattern;
    assert_eq!(indptr.len(), rows + 1, "csr indptr length");
    assert_eq!(
        indptr.last().copied().unwrap_or(0),
        indices.len(),
        "csr indptr terminator"
    );
    for r in 0..rows {
        assert!(indptr[r] <= indptr[r + 1], "csr indptr monotonicity");
        let row = &indices[indptr[r]..indptr[r + 1]];
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "csr columns sorted and unique in row {r}"
        );
        assert!(row.iter().all(|&c| c < cols), "csr column range in row {r}");
    }
}

fn check_same_shape(a: &CsrMatrix, b: &CsrMatrix) -> SparseResult<()> {
    if a.rows != b.rows || a.cols != b.cols {
        return Err(SparseError::DimensionMismatch {
            op: "linear_combination shape",
            expected: a.rows,
            found: b.rows,
        });
    }
    Ok(())
}

/// Where a cell of the structural union of two patterns comes from: the
/// value position(s) of the operand(s) that store it.
enum UnionCell {
    A(usize),
    B(usize),
    Both(usize, usize),
}

/// Walks row `i` of the structural union of `a`'s and `b`'s patterns in
/// column order, handing `cell` each column and where it comes from. The
/// one row merge behind both [`CsrMatrix::linear_combination_into`] and
/// [`CombinationMap::new`].
#[inline(always)]
fn merge_row(a: &CsrMatrix, b: &CsrMatrix, i: usize, mut cell: impl FnMut(usize, UnionCell)) {
    let (a, b) = (&*a.pattern, &*b.pattern);
    let (mut p, a_end) = (a.indptr[i], a.indptr[i + 1]);
    let (mut q, b_end) = (b.indptr[i], b.indptr[i + 1]);
    while p < a_end || q < b_end {
        if q >= b_end || (p < a_end && a.indices[p] < b.indices[q]) {
            cell(a.indices[p], UnionCell::A(p));
            p += 1;
        } else if p >= a_end || b.indices[q] < a.indices[p] {
            cell(b.indices[q], UnionCell::B(q));
            q += 1;
        } else {
            cell(a.indices[p], UnionCell::Both(p, q));
            p += 1;
            q += 1;
        }
    }
}

/// A precomputed merge of two fixed operand patterns that owns the matrix
/// it fills: `alpha * A + beta * B` on the structural union, refilled without
/// walking a row, and — when the caller says only some listed values of `B`
/// moved — refilled only where they are read.
///
/// [`CombinationMap::new`] runs the row merge of
/// [`CsrMatrix::linear_combination`] once and records, per union cell, the
/// operand value positions it reads, split into three flat lists (cells in
/// both operands, in `A` only, in `B` only) so the refill loops carry no
/// branch, plus the same lists restricted to the cells that read one of the
/// given *moving* positions of `B`. [`CombinationMap::fill`] gives every cell
/// it writes the merge's own expression — `alpha·a`, `beta·b` or
/// `alpha·a + beta·b` — so its values are bit-identical to
/// [`CsrMatrix::linear_combination`]'s. This is how the implicit engines form
/// `C/h + θ·G` at every Newton iteration: the plan fixes both patterns, so
/// the union is walked once per run, and between two iterations at one step
/// size only the cells the nonlinear devices write change.
///
/// # Examples
///
/// ```
/// use exi_sparse::{CombinationMap, CsrMatrix};
///
/// let c = CsrMatrix::identity(2);
/// let mut g = CsrMatrix::try_from_raw(2, 2, vec![0, 1, 2], vec![1, 1], vec![3.0, 4.0]).unwrap();
/// // Only G's second value moves between fills.
/// let mut map = CombinationMap::new(&c, &g, &[1]).unwrap();
/// let (jac, written) = map.fill(2.0, &c, 0.5, &g, true).unwrap();
/// assert_eq!(written, None); // the first fill writes every cell
/// assert_eq!(jac, &CsrMatrix::linear_combination(2.0, &c, 0.5, &g).unwrap());
/// g.values_mut()[1] = 5.0;
/// let (jac, written) = map.fill(2.0, &c, 0.5, &g, true).unwrap();
/// assert_eq!(written, Some(&[2][..])); // the cell (1, 1) alone
/// assert_eq!(jac, &CsrMatrix::linear_combination(2.0, &c, 0.5, &g).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct CombinationMap {
    /// `[out, a, b]` value positions of each cell stored in both operands.
    both: Vec<[u32; 3]>,
    /// `[out, a]` value positions of each cell stored only in `A`.
    a_only: Vec<[u32; 2]>,
    /// `[out, b]` value positions of each cell stored only in `B`.
    b_only: Vec<[u32; 2]>,
    /// The entries of `both` and `b_only` whose `b` position is moving.
    moving_both: Vec<[u32; 3]>,
    moving_b_only: Vec<[u32; 2]>,
    /// Their `out` positions, ascending: what a partial fill reports.
    moving_out: Vec<usize>,
    a_nnz: usize,
    b_nnz: usize,
    /// The combination on the union pattern, as last filled.
    out: CsrMatrix,
    /// The bits of `(alpha, beta)` at the last full fill, while every fill
    /// since was told that only listed values moved.
    weights: Option<(u64, u64)>,
}

impl CombinationMap {
    /// Walks the structural union of `a`'s and `b`'s patterns once and
    /// returns the map, holding the union pattern with all values `0.0`.
    /// `moving` lists the value positions of `b` that may change between
    /// two fills which leave everything else alone (for the implicit
    /// engines, the cells of `G` the plan's nonlinear devices write), in any
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the shapes differ, the
    /// operands hold more than `u32::MAX` entries together, or a moving
    /// position is not one of `b`'s.
    pub fn new(a: &CsrMatrix, b: &CsrMatrix, moving: &[usize]) -> SparseResult<CombinationMap> {
        check_same_shape(a, b)?;
        let total = a.nnz() + b.nnz();
        if u32::try_from(total).is_err() {
            return Err(SparseError::DimensionMismatch {
                op: "combination map index width",
                expected: u32::MAX as usize,
                found: total,
            });
        }
        let mut listed = vec![false; b.nnz()];
        for &q in moving {
            match listed.get_mut(q) {
                Some(slot) => *slot = true,
                None => {
                    return Err(SparseError::DimensionMismatch {
                        op: "combination map moving position",
                        expected: b.nnz(),
                        found: q,
                    })
                }
            }
        }
        let mut map = CombinationMap {
            both: Vec::new(),
            a_only: Vec::new(),
            b_only: Vec::new(),
            moving_both: Vec::new(),
            moving_b_only: Vec::new(),
            moving_out: Vec::new(),
            a_nnz: a.nnz(),
            b_nnz: b.nnz(),
            out: CsrMatrix::zeros(0, 0),
            weights: None,
        };
        let mut indptr = vec![0usize; a.rows + 1];
        let mut indices = Vec::with_capacity(total);
        for i in 0..a.rows {
            merge_row(a, b, i, |col, cell| {
                // Every position is below `total`, checked to fit in a u32.
                let out = indices.len() as u32;
                match cell {
                    UnionCell::A(p) => map.a_only.push([out, p as u32]),
                    UnionCell::B(q) => {
                        map.b_only.push([out, q as u32]);
                        if listed[q] {
                            map.moving_b_only.push([out, q as u32]);
                            map.moving_out.push(indices.len());
                        }
                    }
                    UnionCell::Both(p, q) => {
                        map.both.push([out, p as u32, q as u32]);
                        if listed[q] {
                            map.moving_both.push([out, p as u32, q as u32]);
                            map.moving_out.push(indices.len());
                        }
                    }
                }
                indices.push(col);
            });
            indptr[i + 1] = indices.len();
        }
        let values = vec![0.0; indices.len()];
        map.out = CsrMatrix::from_parts_unchecked(a.rows, a.cols, indptr, indices, values);
        Ok(map)
    }

    /// The combination as last filled (all `0.0` before the first fill).
    pub fn matrix(&self) -> &CsrMatrix {
        &self.out
    }

    /// Refills the map's matrix with `alpha * a + beta * b`, bit for bit what
    /// [`CsrMatrix::linear_combination`] computes, and returns it with the
    /// value positions this fill wrote: `None` for every cell, or the cells
    /// that read a moving position of `b` (ascending). Touches no structure
    /// and allocates nothing.
    ///
    /// `only_listed_moved` is the caller's word that, since the map's last
    /// fill, every value of `a` and every value of `b` at a position not
    /// listed as moving kept its bits. With it, and with `alpha` and `beta`
    /// bit-equal to those of the last fill that wrote every cell, only the
    /// moving cells are rewritten; the others already hold these values.
    /// Otherwise every cell is rewritten — and without it, the next fill
    /// rewrites every cell too. Debug builds check every cell after a
    /// partial fill.
    ///
    /// `a` and `b` must have the patterns the map was built from; only their
    /// entry counts are checked, so other patterns of the same sizes get
    /// wrong values, never out-of-bounds access.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::PatternMismatch`] if an entry count differs
    /// from the map's.
    pub fn fill(
        &mut self,
        alpha: f64,
        a: &CsrMatrix,
        beta: f64,
        b: &CsrMatrix,
        only_listed_moved: bool,
    ) -> SparseResult<(&CsrMatrix, Option<&[usize]>)> {
        for (expected_nnz, found_nnz) in [(self.a_nnz, a.nnz()), (self.b_nnz, b.nnz())] {
            if expected_nnz != found_nnz {
                return Err(SparseError::PatternMismatch {
                    expected_nnz,
                    found_nnz,
                });
            }
        }
        let weights = (alpha.to_bits(), beta.to_bits());
        let (av, bv, ov) = (&a.values, &b.values, &mut self.out.values);
        if only_listed_moved && self.weights == Some(weights) {
            fill_both(&self.moving_both, alpha, av, beta, bv, ov);
            fill_one(&self.moving_b_only, beta, bv, ov);
            debug_assert!(
                self.holds(alpha, a, beta, b),
                "a cell outside the moving ones changed since the last fill"
            );
            return Ok((&self.out, Some(&self.moving_out)));
        }
        fill_both(&self.both, alpha, av, beta, bv, ov);
        fill_one(&self.a_only, alpha, av, ov);
        fill_one(&self.b_only, beta, bv, ov);
        self.weights = only_listed_moved.then_some(weights);
        Ok((&self.out, None))
    }

    /// Whether every cell holds, bit for bit, what a full fill would write.
    fn holds(&self, alpha: f64, a: &CsrMatrix, beta: f64, b: &CsrMatrix) -> bool {
        let (av, bv, ov) = (&a.values, &b.values, &self.out.values);
        let same = |o: u32, v: f64| ov[o as usize].to_bits() == v.to_bits();
        self.both
            .iter()
            .all(|&[o, p, q]| same(o, alpha * av[p as usize] + beta * bv[q as usize]))
            && self
                .a_only
                .iter()
                .all(|&[o, p]| same(o, alpha * av[p as usize]))
            && self
                .b_only
                .iter()
                .all(|&[o, q]| same(o, beta * bv[q as usize]))
    }
}

/// `out = alpha·a + beta·b` at each `[out, a, b]` position triple.
#[inline]
fn fill_both(cells: &[[u32; 3]], alpha: f64, av: &[f64], beta: f64, bv: &[f64], ov: &mut [f64]) {
    for &[o, p, q] in cells {
        ov[o as usize] = alpha * av[p as usize] + beta * bv[q as usize];
    }
}

/// `out = weight·v` at each `[out, v]` position pair.
#[inline]
fn fill_one(cells: &[[u32; 2]], weight: f64, v: &[f64], ov: &mut [f64]) {
    for &[o, p] in cells {
        ov[o as usize] = weight * v[p as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn sample() -> CsrMatrix {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 4.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, 5.0);
        t.push(2, 0, 2.0);
        t.push(2, 2, 3.0);
        t.to_csr()
    }

    #[test]
    fn structure_and_access() {
        let a = sample();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 2), 1.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.diagonal(), vec![4.0, 5.0, 3.0]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.mul_vec(&x);
        let yd: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a.get(i, j) * x[j]).sum())
            .collect();
        assert_eq!(y, yd);
    }

    #[test]
    fn linear_combination_forms_c_over_h_plus_g() {
        let g = sample();
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 2, 2.0);
        let c = t.to_csr();
        let h = 0.5;
        let m = CsrMatrix::linear_combination(1.0 / h, &c, 1.0, &g).unwrap();
        assert_eq!(m.get(0, 0), 4.0 + 2.0);
        assert_eq!(m.get(1, 2), 4.0);
        assert_eq!(m.get(1, 1), 5.0);
        // The pattern is the structural union at any weights: cells that
        // cancel to 0.0 stay, as explicit zeros.
        let cancelled = CsrMatrix::linear_combination(1.0, &m, -1.0, &m).unwrap();
        assert_eq!(cancelled.indptr(), m.indptr());
        assert_eq!(cancelled.indices(), m.indices());
        assert!(cancelled.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn linear_combination_shape_mismatch() {
        let a = CsrMatrix::zeros(2, 2);
        let b = CsrMatrix::zeros(3, 3);
        assert!(CsrMatrix::linear_combination(1.0, &a, 1.0, &b).is_err());
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.mul_vec(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
        let z = CsrMatrix::zeros(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.mul_vec(&[1.0; 5]), vec![0.0, 0.0]);
    }

    #[test]
    fn try_from_raw_validates() {
        // Valid.
        let ok = CsrMatrix::try_from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(ok.is_ok());
        // Bad indptr length.
        assert!(CsrMatrix::try_from_raw(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Unsorted columns.
        assert!(CsrMatrix::try_from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Column out of range.
        assert!(CsrMatrix::try_from_raw(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = sample();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), 5);
        assert!(entries.contains(&(2, 2, 3.0)));
    }

    #[test]
    fn norm_inf_is_max_row_sum() {
        let a = sample();
        assert_eq!(a.norm_inf(), 5.0);
    }

    #[test]
    fn clones_share_the_pattern_and_clone_from_reuses_the_value_buffer() {
        let a = sample();
        let b = a.clone();
        assert_eq!(b, a);
        assert!(Arc::ptr_eq(b.pattern(), a.pattern()));
        // Into a matrix of another pattern with room for the values: the
        // pattern handle is replaced, the value buffer kept.
        let mut out = CsrMatrix::identity(6);
        let (values_at, capacity) = (out.values().as_ptr(), out.value_capacity());
        out.clone_from(&a);
        assert_eq!(out, a);
        assert!(Arc::ptr_eq(out.pattern(), a.pattern()));
        assert_eq!(out.values().as_ptr(), values_at);
        assert_eq!(out.value_capacity(), capacity);
        // Rewriting the copy's values leaves the original alone.
        out.values_mut()[0] = -1.0;
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(out.get(0, 0), -1.0);
    }

    #[test]
    fn values_mut_rewrites_in_place() {
        let mut a = sample();
        for v in a.values_mut() {
            *v *= 2.0;
        }
        assert_eq!(a.get(0, 0), 8.0);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn linear_combination_into_matches_allocating_form_bitwise() {
        let g = sample();
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.5);
        t.push(1, 2, 2.0);
        t.push(2, 1, -4.0);
        let c = t.to_csr();
        let fresh = CsrMatrix::linear_combination(1.0 / 0.3, &c, 0.5, &g).unwrap();
        // Seed the reusable buffer with unrelated garbage structure.
        let mut out = sample();
        CsrMatrix::linear_combination_into(1.0 / 0.3, &c, 0.5, &g, &mut out).unwrap();
        assert_eq!(out.indptr(), fresh.indptr());
        assert_eq!(out.indices(), fresh.indices());
        for (a, b) in out.values().iter().zip(fresh.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Shape mismatch errors and empties the output.
        let bad = CsrMatrix::zeros(2, 2);
        assert!(CsrMatrix::linear_combination_into(1.0, &bad, 1.0, &g, &mut out).is_err());
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn linear_combination_into_allocates_nothing_once_warm() {
        let g = sample();
        let c = CsrMatrix::identity(3);
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 1, 1.0);
        t.push(1, 0, 3.0);
        t.push(2, 1, 2.0);
        let other = t.to_csr();
        let merged =
            |alpha, a: &CsrMatrix| CsrMatrix::linear_combination(alpha, a, 0.5, &g).unwrap();
        let mut out = CsrMatrix::zeros(0, 0);
        CsrMatrix::linear_combination_into(3.0, &other, 0.5, &g, &mut out).unwrap();
        let buffers = |m: &CsrMatrix| (m.indices().as_ptr(), m.values().as_ptr());
        let warm = buffers(&out);
        // Owning its pattern alone, `out` is rebuilt in its own buffers —
        // for another (smaller) union as for the same one.
        CsrMatrix::linear_combination_into(2.0, &c, 0.5, &g, &mut out).unwrap();
        assert_eq!(out, merged(2.0, &c));
        assert_eq!(buffers(&out), warm);
        CsrMatrix::linear_combination_into(3.0, &other, 0.5, &g, &mut out).unwrap();
        assert_eq!(out, merged(3.0, &other));
        assert_eq!(buffers(&out), warm);
        // Shared: a new pattern; the other holder keeps its own.
        let holder = out.clone();
        CsrMatrix::linear_combination_into(2.0, &c, 0.5, &g, &mut out).unwrap();
        assert_eq!(out, merged(2.0, &c));
        assert!(!Arc::ptr_eq(out.pattern(), holder.pattern()));
        assert_eq!(holder, merged(3.0, &other));
    }

    #[test]
    fn combination_map_checks_shapes_and_entry_counts() {
        let g = sample();
        let c = CsrMatrix::identity(3);
        assert!(CombinationMap::new(&CsrMatrix::zeros(2, 2), &g, &[]).is_err());
        assert!(CombinationMap::new(&c, &g, &[g.nnz()]).is_err());
        let mut map = CombinationMap::new(&c, &g, &[]).unwrap();
        let merged = CsrMatrix::linear_combination(1.0, &c, 1.0, &g).unwrap();
        let jac = map.matrix();
        assert_eq!(jac.indptr(), merged.indptr());
        assert_eq!(jac.indices(), merged.indices());
        assert!(jac.values().iter().all(|&v| v == 0.0));
        // An operand with another entry count is refused, nothing written.
        assert!(matches!(
            map.fill(1.0, &g, 1.0, &g, true),
            Err(SparseError::PatternMismatch { .. })
        ));
        assert!(map.fill(1.0, &c, 1.0, &c, true).is_err());
        assert!(map.matrix().values().iter().all(|&v| v == 0.0));
        let (jac, written) = map.fill(2.0, &c, 1.0, &g, true).unwrap();
        assert_eq!(jac.get(1, 1), 2.0 + 5.0);
        assert_eq!(written, None);
    }

    #[test]
    fn combination_map_rewrites_the_moving_cells_while_the_weights_hold() {
        let c = sample();
        let mut t = TripletMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 1, 3.0),
            (2, 1, 4.0),
            (2, 2, 5.0),
        ] {
            t.push(i, j, v);
        }
        let mut g = t.to_csr();
        // G's values 1 = (0, 1) and 3 = (2, 1) move: union cells 1 and 5,
        // both in `G` only.
        let mut map = CombinationMap::new(&c, &g, &[3, 1]).unwrap();
        let fill = |map: &mut CombinationMap, alpha: f64, g: &CsrMatrix, kept: bool| {
            let (jac, written) = map.fill(alpha, &c, 0.5, g, kept).unwrap();
            assert_eq!(
                jac,
                &CsrMatrix::linear_combination(alpha, &c, 0.5, g).unwrap()
            );
            written.map(<[usize]>::to_vec)
        };
        assert_eq!(fill(&mut map, 2.0, &g, true), None);
        g.values_mut()[1] = -7.0;
        g.values_mut()[3] = -0.0;
        assert_eq!(fill(&mut map, 2.0, &g, true), Some(vec![1, 5]));
        // Other weights: every cell, then the moving ones again.
        assert_eq!(fill(&mut map, 4.0, &g, true), None);
        assert_eq!(fill(&mut map, 4.0, &g, true), Some(vec![1, 5]));
        // An unlisted value moved: the caller says so, and both this fill and
        // the next write every cell.
        g.values_mut()[4] = 9.0;
        assert_eq!(fill(&mut map, 4.0, &g, false), None);
        g.values_mut()[4] = 5.0;
        assert_eq!(fill(&mut map, 4.0, &g, true), None);
        assert_eq!(fill(&mut map, 4.0, &g, true), Some(vec![1, 5]));
    }
}

//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the working format of the simulator: MNA matrices `G` and `C` are
//! assembled into CSR, matrix-vector products (the inner loop of Krylov
//! subspace construction) iterate rows contiguously, and linear combinations
//! such as `C/h + G` (needed by the backward-Euler baseline) are computed by
//! merging rows.

use crate::error::{SparseError, SparseResult};

/// An immutable sparse matrix in compressed sparse row format.
///
/// Column indices within each row are sorted and unique.
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
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty (all-zero) `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let indptr = (0..=n).collect();
        let indices = (0..n).collect();
        let values = vec![1.0; n];
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            values,
        }
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
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
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
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix directly from its raw components without
    /// validating them.
    ///
    /// This is the reassembly half of the allocation-free stamping path: a
    /// caller that obtained buffers via [`CsrMatrix::take_parts`] refills
    /// them and hands them back here, so the steady-state hot loop performs
    /// no allocation and no structural re-validation. The caller must uphold
    /// the CSR invariants checked by [`CsrMatrix::try_from_raw`] (correct
    /// `indptr` length and terminator, sorted unique in-range column indices
    /// per row); they are `debug_assert`ed, and a violating matrix makes
    /// later queries return wrong results or panic.
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1, "csr indptr length");
        debug_assert_eq!(indices.len(), values.len(), "csr indices/values length");
        debug_assert_eq!(
            *indptr.last().unwrap_or(&0),
            indices.len(),
            "csr indptr terminator"
        );
        #[cfg(debug_assertions)]
        {
            for r in 0..rows {
                debug_assert!(indptr[r] <= indptr[r + 1], "csr indptr monotonicity");
                let row = &indices[indptr[r]..indptr[r + 1]];
                debug_assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "csr columns sorted and unique in row {r}"
                );
                debug_assert!(row.iter().all(|&c| c < cols), "csr column range in row {r}");
            }
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Takes the raw `(indptr, indices, values)` buffers out of the matrix
    /// (previous contents included — clear before refilling), leaving it
    /// **dismantled**: a `0 × 0` placeholder whose `indptr` is empty rather
    /// than the canonical `[0]`. The dismantled state answers size queries
    /// (`rows`/`cols`/`nnz`) and compares unequal to any real matrix, but
    /// must not be used for element access; callers are expected to
    /// overwrite it via [`CsrMatrix::from_parts_unchecked`] right away.
    /// Deliberately no allocation happens on either side of the round trip —
    /// this is the storage-recycling half of the stamping-plan hot path, and
    /// the buffers keep their capacity.
    pub fn take_parts(&mut self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        self.rows = 0;
        self.cols = 0;
        (
            std::mem::take(&mut self.indptr),
            std::mem::take(&mut self.indices),
            std::mem::take(&mut self.values),
        )
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
        &self.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[usize] {
        &self.indices
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
        let s = self.indptr[i];
        let e = self.indptr[i + 1];
        (&self.indices[s..e], &self.values[s..e])
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
        for (i, yi) in y.iter_mut().enumerate() {
            let s = self.indptr[i];
            let e = self.indptr[i + 1];
            let mut acc = 0.0;
            for k in s..e {
                acc += self.values[k] * x[self.indices[k]];
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
    /// buffer capacity is reused, so a steady-state caller allocates nothing.
    /// The merge is the same row walk as the allocating form, producing
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
        let (mut indptr, mut indices, mut values) = out.take_parts();
        check_same_shape(a, b)?;
        let rows = a.rows;
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
        *out = CsrMatrix::from_parts_unchecked(rows, a.cols, indptr, indices, values);
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
        (0..self.rows).flat_map(move |i| {
            let s = self.indptr[i];
            let e = self.indptr[i + 1];
            (s..e).map(move |k| (i, self.indices[k], self.values[k]))
        })
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

/// A precomputed merge of two fixed operand patterns: refills the values of
/// `alpha * A + beta * B` on the structural union without walking a row.
///
/// [`CombinationMap::new`] runs the row merge of
/// [`CsrMatrix::linear_combination`] once and records, per union cell, the
/// operand value positions it reads, split into three flat lists (cells in
/// both operands, in `A` only, in `B` only) so the refill loops carry no
/// branch. [`CombinationMap::fill`] then gives every cell the merge's own
/// expression — `alpha·a`, `beta·b` or `alpha·a + beta·b` — so its values are
/// bit-identical to [`CsrMatrix::linear_combination`]'s. This is how the
/// implicit engines form `C/h + θ·G` at every Newton iteration: the plan
/// fixes both patterns, so the union is walked once per run.
///
/// # Examples
///
/// ```
/// use exi_sparse::{CombinationMap, CsrMatrix};
///
/// let c = CsrMatrix::identity(2);
/// let g = CsrMatrix::try_from_raw(2, 2, vec![0, 1, 2], vec![1, 1], vec![3.0, 4.0]).unwrap();
/// let (map, mut jac) = CombinationMap::new(&c, &g).unwrap();
/// map.fill(2.0, &c, 0.5, &g, &mut jac).unwrap();
/// assert_eq!(jac, CsrMatrix::linear_combination(2.0, &c, 0.5, &g).unwrap());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CombinationMap {
    /// `[out, a, b]` value positions of each cell stored in both operands.
    both: Vec<[u32; 3]>,
    /// `[out, a]` value positions of each cell stored only in `A`.
    a_only: Vec<[u32; 2]>,
    /// `[out, b]` value positions of each cell stored only in `B`.
    b_only: Vec<[u32; 2]>,
    a_nnz: usize,
    b_nnz: usize,
    out_nnz: usize,
}

impl CombinationMap {
    /// Walks the structural union of `a`'s and `b`'s patterns once and
    /// returns the map together with the union pattern (all values `0.0`),
    /// the matrix [`CombinationMap::fill`] refills.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the shapes differ or the
    /// operands hold more than `u32::MAX` entries together.
    pub fn new(a: &CsrMatrix, b: &CsrMatrix) -> SparseResult<(CombinationMap, CsrMatrix)> {
        check_same_shape(a, b)?;
        let total = a.nnz() + b.nnz();
        if u32::try_from(total).is_err() {
            return Err(SparseError::DimensionMismatch {
                op: "combination map index width",
                expected: u32::MAX as usize,
                found: total,
            });
        }
        let mut map = CombinationMap {
            a_nnz: a.nnz(),
            b_nnz: b.nnz(),
            ..CombinationMap::default()
        };
        let mut indptr = vec![0usize; a.rows + 1];
        let mut indices = Vec::with_capacity(total);
        for i in 0..a.rows {
            merge_row(a, b, i, |col, cell| {
                // Every position is below `total`, checked to fit in a u32.
                let out = indices.len() as u32;
                match cell {
                    UnionCell::A(p) => map.a_only.push([out, p as u32]),
                    UnionCell::B(q) => map.b_only.push([out, q as u32]),
                    UnionCell::Both(p, q) => map.both.push([out, p as u32, q as u32]),
                }
                indices.push(col);
            });
            indptr[i + 1] = indices.len();
        }
        map.out_nnz = indices.len();
        let values = vec![0.0; indices.len()];
        let pattern = CsrMatrix::from_parts_unchecked(a.rows, a.cols, indptr, indices, values);
        Ok((map, pattern))
    }

    /// Rewrites `out`'s values with `alpha * a + beta * b`, bit for bit what
    /// [`CsrMatrix::linear_combination`] computes. Touches no structure and
    /// allocates nothing.
    ///
    /// `a`, `b` and `out` must have the patterns the map was built from (and
    /// returned); only their entry counts are checked, so other patterns of
    /// the same sizes get wrong values, never out-of-bounds access.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::PatternMismatch`] if an entry count differs
    /// from the map's.
    pub fn fill(
        &self,
        alpha: f64,
        a: &CsrMatrix,
        beta: f64,
        b: &CsrMatrix,
        out: &mut CsrMatrix,
    ) -> SparseResult<()> {
        for (expected_nnz, found_nnz) in [
            (self.a_nnz, a.nnz()),
            (self.b_nnz, b.nnz()),
            (self.out_nnz, out.nnz()),
        ] {
            if expected_nnz != found_nnz {
                return Err(SparseError::PatternMismatch {
                    expected_nnz,
                    found_nnz,
                });
            }
        }
        let (av, bv, ov) = (&a.values, &b.values, &mut out.values);
        for &[o, p, q] in &self.both {
            ov[o as usize] = alpha * av[p as usize] + beta * bv[q as usize];
        }
        for &[o, p] in &self.a_only {
            ov[o as usize] = alpha * av[p as usize];
        }
        for &[o, q] in &self.b_only {
            ov[o as usize] = beta * bv[q as usize];
        }
        Ok(())
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
    fn take_parts_round_trips_and_reuses_buffers() {
        let mut a = sample();
        let (expected_ip, expected_ix, expected_v) = (
            a.indptr().to_vec(),
            a.indices().to_vec(),
            a.values().to_vec(),
        );
        let (ip, ix, v) = a.take_parts();
        // The emptied matrix is a valid 0x0.
        assert_eq!(a.rows(), 0);
        assert_eq!(a.nnz(), 0);
        assert_eq!(ip, expected_ip);
        let cap = ix.capacity();
        let b = CsrMatrix::from_parts_unchecked(3, 3, ip, ix, v);
        assert_eq!(b, sample());
        assert_eq!(b.indices().to_vec(), expected_ix);
        assert_eq!(b.values().to_vec(), expected_v);
        assert!(b.indices.capacity() >= cap);
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
    fn combination_map_checks_shapes_and_entry_counts() {
        let g = sample();
        let c = CsrMatrix::identity(3);
        assert!(CombinationMap::new(&CsrMatrix::zeros(2, 2), &g).is_err());
        let (map, mut jac) = CombinationMap::new(&c, &g).unwrap();
        let merged = CsrMatrix::linear_combination(1.0, &c, 1.0, &g).unwrap();
        assert_eq!(jac.indptr(), merged.indptr());
        assert_eq!(jac.indices(), merged.indices());
        assert!(jac.values().iter().all(|&v| v == 0.0));
        // An operand or output with another entry count is refused, untouched.
        assert!(matches!(
            map.fill(1.0, &g, 1.0, &g, &mut jac),
            Err(SparseError::PatternMismatch { .. })
        ));
        let mut short = c.clone();
        assert!(map.fill(1.0, &c, 1.0, &g, &mut short).is_err());
        assert_eq!(short, c);
        map.fill(2.0, &c, 1.0, &g, &mut jac).unwrap();
        assert_eq!(jac.get(1, 1), 2.0 + 5.0);
    }
}

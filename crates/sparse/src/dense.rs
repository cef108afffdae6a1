//! Small dense matrices.
//!
//! The Krylov-subspace kernels project the large sparse problem onto an
//! `m x m` upper-Hessenberg matrix with `m` typically below 100. All dense
//! work (matrix exponential, phi functions, small solves) happens on
//! [`DenseMatrix`], a plain row-major `Vec<f64>` container. This is not meant
//! to compete with a BLAS; it is deliberately simple, allocation-friendly and
//! easy to audit.

use crate::error::{SparseError, SparseResult};

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use exi_sparse::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = DenseMatrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        DenseMatrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: wrong data length");
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "dense get out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "dense set out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to the entry at `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "dense add_to out of bounds");
        self.data[i * self.cols + j] += v;
    }

    /// Returns a view of row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "dense row out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Sets every entry to `v` (used to recycle scratch matrices in hot loops).
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Overwrites `out` with the top-left `r x c` sub-matrix, reusing its
    /// storage. That storage grows to the size of `self` at once, so
    /// extracting any block of a matrix this size into `out` again does not
    /// allocate.
    ///
    /// Used to extract `H̄_m` from the Arnoldi Hessenberg matrix.
    ///
    /// # Panics
    ///
    /// Panics if `r > rows` or `c > cols`.
    pub fn submatrix_into(&self, r: usize, c: usize, out: &mut DenseMatrix) {
        assert!(r <= self.rows && c <= self.cols, "submatrix out of bounds");
        out.data.clear();
        out.data.reserve(self.data.len());
        for i in 0..r {
            out.data.extend_from_slice(&self.row(i)[..c]);
        }
        (out.rows, out.cols) = (r, c);
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        matmul_into(&self.data, &other.data, other.cols, &mut out.data);
        out
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Returns `self + other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add: shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "sub: shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns `alpha * self`.
    pub fn scale(&self, alpha: f64) -> DenseMatrix {
        let data = self.data.iter().map(|a| alpha * a).collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// One-norm (maximum absolute column sum).
    pub fn norm_one(&self) -> f64 {
        norm_one(&self.data, self.cols)
    }

    /// Infinity-norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        norm_inf(&self.data, self.cols)
    }

    /// Solves the dense linear system `self * x = b` with partial pivoting.
    ///
    /// Intended for the small projected systems produced by the Krylov
    /// kernels (`m` up to a few hundred).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] if the matrix is not square,
    /// [`SparseError::DimensionMismatch`] if `b` has the wrong length, and
    /// [`SparseError::Singular`] if a pivot collapses below `1e-300`.
    pub fn solve(&self, b: &[f64]) -> SparseResult<Vec<f64>> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(SparseError::DimensionMismatch {
                op: "dense solve rhs",
                expected: self.rows,
                found: b.len(),
            });
        }
        let mut lu = self.data.clone();
        let mut pivots = vec![0; self.rows];
        let factors = DenseLu::factor_in(self.rows, &mut lu, &mut pivots)?;
        let mut x = b.to_vec();
        factors.solve_in_place(&mut x, 1);
        Ok(x)
    }

    /// Computes the inverse of the matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DenseMatrix::solve`].
    pub fn inverse(&self) -> SparseResult<DenseMatrix> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut lu = self.data.clone();
        let mut pivots = vec![0; self.rows];
        let factors = DenseLu::factor_in(self.rows, &mut lu, &mut pivots)?;
        let mut inv = DenseMatrix::zeros(self.rows, self.rows);
        factors.inverse_into(&mut inv.data);
        Ok(inv)
    }
}

/// One-norm (maximum absolute column sum) of a row-major matrix with `cols`
/// columns.
pub fn norm_one(a: &[f64], cols: usize) -> f64 {
    let mut best = 0.0_f64;
    for j in 0..cols {
        let mut sum = 0.0;
        for row in a.chunks_exact(cols) {
            sum += row[j].abs();
        }
        best = best.max(sum);
    }
    best
}

/// Infinity-norm (maximum absolute row sum) of a row-major matrix with
/// `cols` columns.
pub fn norm_inf(a: &[f64], cols: usize) -> f64 {
    if cols == 0 {
        return 0.0;
    }
    let mut best = 0.0_f64;
    for row in a.chunks_exact(cols) {
        let sum: f64 = row.iter().map(|v| v.abs()).sum();
        best = best.max(sum);
    }
    best
}

/// Row-major product `out = a · b`, where `b` (and `out`) have `cols`
/// columns; the shapes of `a` and `b` follow from the slice lengths.
///
/// Each `out[i][j]` accumulates its terms in increasing inner index, and a
/// zero `a[i][k]` contributes nothing (not even a signed zero) — the
/// summation order every bit-compared caller relies on. Four inner indices
/// are taken per pass over an output row, `((o + a₀b₀) + a₁b₁) + …` in that
/// same order, so the row is loaded and stored once per four terms; a group
/// holding a zero `a[i][k]` goes term by term.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent.
pub fn matmul_into(a: &[f64], b: &[f64], cols: usize, out: &mut [f64]) {
    out.fill(0.0);
    if cols == 0 || b.is_empty() {
        return;
    }
    let inner = b.len() / cols;
    assert_eq!(b.len(), inner * cols, "matmul_into: ragged right factor");
    assert_eq!(
        a.len() * cols,
        out.len() * inner,
        "matmul_into: shape mismatch"
    );
    let term_by_term = |a_ks: &[f64], b_rows: &[f64], out_row: &mut [f64]| {
        for (&aik, b_row) in a_ks.iter().zip(b_rows.chunks_exact(cols)) {
            if aik == 0.0 {
                continue;
            }
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aik * bkj;
            }
        }
    };
    for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        let mut a_groups = a_row.chunks_exact(4);
        let mut b_groups = b.chunks_exact(4 * cols);
        for (a_ks, b_rows) in a_groups.by_ref().zip(b_groups.by_ref()) {
            let &[a0, a1, a2, a3] = a_ks else {
                unreachable!("chunks_exact(4)")
            };
            if a0 == 0.0 || a1 == 0.0 || a2 == 0.0 || a3 == 0.0 {
                term_by_term(a_ks, b_rows, out_row);
                continue;
            }
            let (b0, rest) = b_rows.split_at(cols);
            let (b1, rest) = rest.split_at(cols);
            let (b2, b3) = rest.split_at(cols);
            let b_columns = b0.iter().zip(b1).zip(b2).zip(b3);
            for (o, (((&x0, &x1), &x2), &x3)) in out_row.iter_mut().zip(b_columns) {
                *o = (((*o + a0 * x0) + a1 * x1) + a2 * x2) + a3 * x3;
            }
        }
        term_by_term(a_groups.remainder(), b_groups.remainder(), out_row);
    }
}

/// Partial-pivoting LU factors of a small square matrix, over borrowed
/// storage — the one elimination loop behind [`DenseMatrix::solve`],
/// [`DenseMatrix::inverse`] and the Padé solve of the matrix exponential.
///
/// Factoring once and substituting per right-hand side performs, for each
/// right-hand side, exactly the arithmetic a from-scratch elimination of the
/// augmented system would: same pivots, same multipliers, same order.
///
/// # Examples
///
/// ```
/// use exi_sparse::dense::DenseLu;
///
/// # fn main() -> Result<(), exi_sparse::SparseError> {
/// let mut a = [2.0, 1.0, 1.0, 3.0];
/// let mut pivots = [0; 2];
/// let lu = DenseLu::factor_in(2, &mut a, &mut pivots)?;
/// let mut x = [3.0, 5.0];
/// lu.solve_in_place(&mut x, 1);
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DenseLu<'a> {
    n: usize,
    /// Row-major: `U` on and above the diagonal; below it each elimination
    /// multiplier, in the row position it had when it was computed.
    lu: &'a [f64],
    /// `pivots[k]` is the row exchanged with row `k` at step `k`.
    pivots: &'a [usize],
}

impl<'a> DenseLu<'a> {
    /// Factors the row-major `n × n` matrix held in `lu` in place, recording
    /// the row exchanges in `pivots`.
    ///
    /// # Errors
    ///
    /// [`SparseError::Singular`] if a pivot is below `1e-300` or not a number.
    ///
    /// # Panics
    ///
    /// Panics if `lu.len() != n * n` or `pivots.len() != n`.
    pub fn factor_in(
        n: usize,
        lu: &'a mut [f64],
        pivots: &'a mut [usize],
    ) -> SparseResult<DenseLu<'a>> {
        assert_eq!(lu.len(), n * n, "dense lu: storage is not n x n");
        assert_eq!(pivots.len(), n, "dense lu: pivot storage is not n");
        for k in 0..n {
            // Partial pivoting: the largest entry in column k at or below row k.
            let mut piv = k;
            let mut piv_val = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > piv_val {
                    piv = i;
                    piv_val = v;
                }
            }
            if piv_val < 1e-300 || piv_val.is_nan() {
                return Err(SparseError::Singular {
                    column: k,
                    unknown: None,
                });
            }
            pivots[k] = piv;
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let row_k = &mut upper[k * n..];
            if piv != k {
                let start = (piv - k - 1) * n;
                row_k[k..].swap_with_slice(&mut lower[start + k..start + n]);
            }
            let akk = row_k[k];
            for row_i in lower.chunks_exact_mut(n) {
                let factor = row_i[k] / akk;
                row_i[k] = factor;
                if factor == 0.0 {
                    continue;
                }
                for (a, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *a -= factor * u;
                }
            }
        }
        Ok(DenseLu { n, lu, pivots })
    }

    /// Solves `A·X = B` in place for the `n × cols` row-major right-hand
    /// sides in `x`. Each column is carried through the same operations, in
    /// the same order, as if it were solved alone.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n * cols`.
    pub fn solve_in_place(&self, x: &mut [f64], cols: usize) {
        let n = self.n;
        assert_eq!(x.len(), n * cols, "dense lu: right-hand side shape");
        if cols == 0 {
            return;
        }
        for k in 0..n {
            let (upper, lower) = x.split_at_mut((k + 1) * cols);
            let x_k = &mut upper[k * cols..];
            let piv = self.pivots[k];
            if piv != k {
                let start = (piv - k - 1) * cols;
                x_k.swap_with_slice(&mut lower[start..start + cols]);
            }
            for (i, x_i) in lower.chunks_exact_mut(cols).enumerate() {
                let factor = self.lu[(k + 1 + i) * n + k];
                if factor == 0.0 {
                    continue;
                }
                for (xi, &xk) in x_i.iter_mut().zip(x_k.iter()) {
                    *xi -= factor * xk;
                }
            }
        }
        for k in (0..n).rev() {
            let (upper, lower) = x.split_at_mut((k + 1) * cols);
            let x_k = &mut upper[k * cols..];
            let u_row = &self.lu[k * n..(k + 1) * n];
            for (&u, x_j) in u_row[k + 1..].iter().zip(lower.chunks_exact(cols)) {
                for (xk, &xj) in x_k.iter_mut().zip(x_j) {
                    *xk -= u * xj;
                }
            }
            let diag = u_row[k];
            for xk in x_k.iter_mut() {
                *xk /= diag;
            }
        }
    }

    /// Writes `A⁻¹` (row-major, `n × n`) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n * n`.
    pub fn inverse_into(&self, out: &mut [f64]) {
        out.fill(0.0);
        for i in 0..self.n {
            out[i * self.n + i] = 1.0;
        }
        self.solve_in_place(out, self.n);
    }
}

impl Default for DenseMatrix {
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(0, 2), 0.0);
    }

    #[test]
    fn matmul_matvec_transpose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(1, 1), 50.0);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(a.norm_one(), 6.0);
        assert_eq!(a.norm_inf(), 7.0);
    }

    #[test]
    fn solve_small_system() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        // Solution of [[2,1],[1,3]] x = [3,5] is [0.8, 1.4]
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = DenseMatrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        let i = DenseMatrix::identity(2);
        for r in 0..2 {
            for c in 0..2 {
                assert!((prod.get(r, c) - i.get(r, c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn nan_pivot_is_singular_not_silently_propagated() {
        let a = DenseMatrix::from_rows(&[&[f64::NAN, 1.0], &[1.0, 1.0]]);
        assert!(matches!(
            a.solve(&[1.0, 1.0]),
            Err(SparseError::Singular { column: 0, .. })
        ));
        assert!(a.inverse().is_err());
    }

    #[test]
    fn lu_carries_every_right_hand_side_through_one_elimination() {
        // Needs pivoting in the first column.
        let a = [1e-3, 2.0, -1.0, 4.0, 1.0, 0.5, -2.0, 0.0, 3.0];
        let rhs = [[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]];
        let (mut lu, mut pivots) = (a, [0; 3]);
        let factors = DenseLu::factor_in(3, &mut lu, &mut pivots).unwrap();
        // Row-major 3 x 2 block of both right-hand sides.
        let mut block = [0.0; 6];
        for (c, b) in rhs.iter().enumerate() {
            for (r, v) in b.iter().enumerate() {
                block[r * 2 + c] = *v;
            }
        }
        factors.solve_in_place(&mut block, 2);
        let dense = DenseMatrix::from_vec(3, 3, a.to_vec());
        for (c, b) in rhs.iter().enumerate() {
            let alone = dense.solve(b).unwrap();
            for r in 0..3 {
                assert_eq!(alone[r].to_bits(), block[r * 2 + c].to_bits());
            }
            let back = dense.matvec(&alone);
            for r in 0..3 {
                assert!((back[r] - b[r]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matmul_into_handles_rectangular_and_empty_shapes() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2 x 3
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]; // 3 x 2
        let mut out = [9.0; 4];
        matmul_into(&a, &b, 2, &mut out);
        assert_eq!(out, [4.0, 5.0, 10.0, 11.0]);
        matmul_into(&[], &[], 0, &mut []);
    }

    #[test]
    fn submatrix_extracts_leading_block() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let mut s = DenseMatrix::identity(4);
        a.submatrix_into(2, 2, &mut s);
        assert_eq!(s, DenseMatrix::from_rows(&[&[1.0, 2.0], &[4.0, 5.0]]));
    }

    #[test]
    fn non_square_solve_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[0.0, 0.0]),
            Err(SparseError::NotSquare { .. })
        ));
    }
}

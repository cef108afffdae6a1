//! Small helpers for dense vectors represented as `&[f64]` / `Vec<f64>`.
//!
//! The simulator manipulates state vectors (nodal voltages and branch
//! currents) as plain `Vec<f64>`. These free functions provide the handful of
//! BLAS-1 style operations the integrators need, with explicit names rather
//! than operator overloading so call sites in the numerical code read like the
//! formulas in the paper.

/// Partial sums a [`dot`] keeps: element `k` goes to lane `k mod LANES`.
const LANES: usize = 4;

/// Euclidean (2-) norm of a vector: `dot(v, v).sqrt()`, so in [`dot`]'s
/// summation order, bit for bit.
///
/// # Examples
///
/// ```
/// let v = [3.0, 4.0];
/// assert_eq!(exi_sparse::vector::norm2(&v), 5.0);
/// ```
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Infinity norm (maximum absolute entry) of a vector; `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// let v = [1.0, -7.0, 2.0];
/// assert_eq!(exi_sparse::vector::norm_inf(&v), 7.0);
/// ```
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
}

/// Dot product of two vectors, in one fixed summation order: four lanes
/// `l₀ … l₃`, each starting at `+0.0`; the product `a[k]·b[k]` is added to
/// lane `k mod 4` in increasing `k`; the result is `(l₀ + l₁) + (l₂ + l₃)`.
/// [`norm2`] and [`dots_against`] reproduce it bit for bit.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(exi_sparse::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let [d] = dots_block(a, [b]);
    d
}

/// `out[i] = dot(w, basis[i])` for every `i`, bit for bit, four basis
/// vectors per pass over `w`.
///
/// # Panics
///
/// Panics if `out` and `basis` differ in length, or a basis vector and `w`
/// do.
///
/// # Examples
///
/// ```
/// use exi_sparse::vector;
/// let basis = [vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
/// let mut out = [0.0; 3];
/// vector::dots_against(&basis, &[3.0, 4.0], &mut out);
/// assert_eq!(out, [3.0, 4.0, 7.0]);
/// ```
pub fn dots_against(basis: &[Vec<f64>], w: &[f64], out: &mut [f64]) {
    assert_eq!(
        basis.len(),
        out.len(),
        "dots_against: coefficient count mismatch"
    );
    for v in basis {
        assert_eq!(v.len(), w.len(), "dots_against: length mismatch");
    }
    let mut groups = basis.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (group, out) in groups.by_ref().zip(outs.by_ref()) {
        let [a, b, c, d] = group else {
            unreachable!("chunks_exact(4)")
        };
        out.copy_from_slice(&dots_block(w, [a, b, c, d]));
    }
    let out = outs.into_remainder();
    match groups.remainder() {
        [] => {}
        [a] => out.copy_from_slice(&dots_block(w, [a])),
        [a, b] => out.copy_from_slice(&dots_block(w, [a, b])),
        [a, b, c] => out.copy_from_slice(&dots_block(w, [a, b, c])),
        _ => unreachable!("chunks_exact(4) remainder"),
    }
}

/// `B` dot products `w·vᵢ` in one pass over `w`, each in [`dot`]'s lane
/// order. Lengths are the caller's to check.
fn dots_block<const B: usize>(w: &[f64], vs: [&[f64]; B]) -> [f64; B] {
    let body = w.len() - w.len() % LANES;
    let vs = vs.map(|v| &v[..w.len()]);
    let mut lanes = [[0.0; LANES]; B];
    for (k, wk) in w[..body].chunks_exact(LANES).enumerate() {
        let &[w0, w1, w2, w3] = wk else {
            unreachable!("chunks_exact(LANES)")
        };
        for (acc, v) in lanes.iter_mut().zip(&vs) {
            let &[x0, x1, x2, x3] = &v[k * LANES..k * LANES + LANES] else {
                unreachable!("a LANES-long range")
            };
            acc[0] += w0 * x0;
            acc[1] += w1 * x1;
            acc[2] += w2 * x2;
            acc[3] += w3 * x3;
        }
    }
    for (acc, v) in lanes.iter_mut().zip(&vs) {
        for ((lane, &wk), &x) in acc.iter_mut().zip(&w[body..]).zip(&v[body..]) {
            *lane += wk * x;
        }
    }
    lanes.map(|[l0, l1, l2, l3]| (l0 + l1) + (l2 + l3))
}

/// In-place `w -= Σᵢ c[i]·basis[i]`, bit for bit the loop
/// `axpy(-c[i], &basis[i], w)` over `i` in increasing order that skips every
/// `c[i] == 0.0`: each `w[k]` takes its terms in the same order, four
/// nonzero coefficients per pass over `w`.
///
/// # Panics
///
/// Panics if `c` and `basis` differ in length, or a basis vector with a
/// nonzero coefficient and `w` do.
///
/// # Examples
///
/// ```
/// use exi_sparse::vector;
/// let basis = [vec![1.0, 0.0], vec![0.0, 1.0]];
/// let mut w = [3.0, 4.0];
/// vector::sub_combination(&basis, &[3.0, 4.0], &mut w);
/// assert_eq!(w, [0.0, 0.0]);
/// ```
pub fn sub_combination(basis: &[Vec<f64>], c: &[f64], w: &mut [f64]) {
    assert_eq!(
        basis.len(),
        c.len(),
        "sub_combination: coefficient count mismatch"
    );
    let mut group: [(f64, &[f64]); 4] = [(0.0, &[]); 4];
    let mut len = 0;
    for (v, &ci) in basis.iter().zip(c) {
        if ci == 0.0 {
            continue;
        }
        assert_eq!(v.len(), w.len(), "sub_combination: length mismatch");
        group[len] = (-ci, v);
        len += 1;
        if len == 4 {
            add_block(group, w);
            len = 0;
        }
    }
    match group[..len] {
        [] => {}
        [a] => add_block([a], w),
        [a, b] => add_block([a, b], w),
        [a, b, c] => add_block([a, b, c], w),
        _ => unreachable!("a group holds at most four"),
    }
}

/// `w[k] = ((w[k] + a₀·x₀[k]) + a₁·x₁[k]) + …` for every `k`: `B` axpys in
/// one pass over `w`. Lengths are the caller's to check.
fn add_block<const B: usize>(terms: [(f64, &[f64]); B], w: &mut [f64]) {
    let terms = terms.map(|(a, x)| (a, &x[..w.len()]));
    for (k, y) in w.iter_mut().enumerate() {
        let mut acc = *y;
        for &(a, x) in &terms {
            acc += a * x[k];
        }
        *y = acc;
    }
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Element-wise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Maximum absolute difference between two vectors (`||a - b||_inf`).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b.iter())
        .fold(0.0_f64, |acc, (x, y)| acc.max((x - y).abs()))
}

/// Root-mean-square difference between two vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths or are empty.
pub fn rms_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rms_diff: length mismatch");
    assert!(!a.is_empty(), "rms_diff: empty vectors");
    let s: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
    (s / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[1.0, -7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn dot_and_axpy() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![1.0, 1.0, 1.0];
        assert_eq!(dot(&x, &y), 6.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn elementwise() {
        let a = vec![1.0, 2.0];
        let b = vec![0.5, 4.0];
        assert_eq!(sub(&a, &b), vec![0.5, -2.0]);
        assert_eq!(add(&a, &b), vec![1.5, 6.0]);
        assert_eq!(max_abs_diff(&a, &b), 2.0);
        assert!((rms_diff(&a, &b) - ((0.25 + 4.0) / 2.0_f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}

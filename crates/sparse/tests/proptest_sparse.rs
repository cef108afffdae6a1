//! Property-based tests for the sparse linear algebra substrate.

use exi_sparse::dense::matmul_into;
use exi_sparse::ordering::compute_ordering;
use exi_sparse::{
    vector, CombinationMap, CsrMatrix, DenseLu, DenseMatrix, LuOptions, LuWorkspace,
    OrderingMethod, SparseLu, TripletMatrix,
};
use proptest::prelude::*;

/// The dense solve as it stood before [`DenseLu`]: the augmented system
/// `[A | b]` eliminated from scratch for one right-hand side. Kept verbatim
/// as the reference the factored solve must reproduce bit for bit.
fn eliminate_augmented(a: &[f64], n: usize, b: &[f64]) -> Option<Vec<f64>> {
    let mut a = a.to_vec();
    let mut x = b.to_vec();
    for k in 0..n {
        let mut piv = k;
        let mut piv_val = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > piv_val {
                piv = i;
                piv_val = v;
            }
        }
        if piv_val < 1e-300 {
            return None;
        }
        if piv != k {
            for j in 0..n {
                a.swap(k * n + j, piv * n + j);
            }
            x.swap(k, piv);
        }
        let akk = a[k * n + k];
        for i in (k + 1)..n {
            let factor = a[i * n + k] / akk;
            if factor == 0.0 {
                continue;
            }
            for j in k..n {
                a[i * n + j] -= factor * a[k * n + j];
            }
            x[i] -= factor * x[k];
        }
    }
    for k in (0..n).rev() {
        let mut s = x[k];
        for j in (k + 1)..n {
            s -= a[k * n + j] * x[j];
        }
        x[k] = s / a[k * n + k];
    }
    Some(x)
}

/// Strategy: a dense `n × n` matrix with `n` right-hand sides. Rows are
/// scaled over up to twelve decades and some entries are exact zeros, so the
/// draw covers well- and ill-conditioned systems, pivoting and the
/// zero-multiplier skip.
fn dense_system(max_n: usize) -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    (1usize..max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0f64..1.0, n * n),
            proptest::collection::vec(-12i32..1, n),
            proptest::collection::vec(0usize..4, n * n),
            proptest::collection::vec(-10.0f64..10.0, n * n),
        )
            .prop_map(move |(mut a, decades, zeros, rhs)| {
                for (i, row) in a.chunks_mut(n).enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v *= 10f64.powi(decades[i]);
                        if zeros[i * n + j] == 0 && i != j {
                            *v = 0.0;
                        }
                    }
                }
                (n, a, rhs)
            })
    })
}

/// `matmul_into` as it stood before it took four inner indices per pass: one
/// `a[i][k]` at a time over the output row. Kept verbatim as the reference
/// the blocked loop must reproduce bit for bit.
fn matmul_term_by_term(a: &[f64], b: &[f64], cols: usize, out: &mut [f64]) {
    out.fill(0.0);
    if cols == 0 || b.is_empty() {
        return;
    }
    let inner = b.len() / cols;
    for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(cols)) {
            if aik == 0.0 {
                continue;
            }
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aik * bkj;
            }
        }
    }
}

/// Strategy: `len` entries spread over twelve decades with a share of
/// `0.0` and `-0.0`, and of `±∞` and NaN if `non_finite`.
fn special_entries(len: usize, non_finite: bool) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((-1.0f64..1.0, -6i32..7, 0usize..24), len).prop_map(move |draws| {
        draws
            .into_iter()
            .map(|(v, decade, special)| match special {
                0 | 1 => 0.0,
                2 => -0.0,
                3 if non_finite => f64::INFINITY,
                4 if non_finite => f64::NEG_INFINITY,
                5 if non_finite => f64::NAN,
                _ => v * 10f64.powi(decade),
            })
            .collect::<Vec<f64>>()
    })
}

/// Strategy: a `rows × inner` and an `inner × cols` matrix, all three
/// dimensions free (so not multiples of four, and `inner < 4`), entries from
/// [`special_entries`].
fn matmul_operands(max_dim: usize) -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    (1usize..max_dim, 1usize..max_dim, 1usize..max_dim).prop_flat_map(move |(rows, inner, cols)| {
        (
            Just(cols),
            special_entries(rows * inner, true),
            special_entries(inner * cols, true),
        )
    })
}

/// [`vector::dot`]'s documented order, written out: product `k` into lane
/// `k mod 4`, lanes from `+0.0`, then `(l₀ + l₁) + (l₂ + l₃)`.
fn dot_in_lane_order(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        lanes[k % 4] += x * y;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Strategy: a vector length, half the draws in `0..=9` (every tail a lane
/// split can leave, and the empty vector), half in `10..300`.
fn kernel_length() -> impl Strategy<Value = usize> {
    (0usize..2, 0usize..10, 10usize..300).prop_map(|(pick, short, long)| match pick {
        0 => short,
        _ => long,
    })
}

/// Strategy: `count` vectors and one more, all of one [`kernel_length`],
/// entries from [`special_entries`].
fn kernel_vectors(
    count: std::ops::Range<usize>,
    non_finite: bool,
) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (count, kernel_length()).prop_flat_map(move |(count, len)| {
        (
            proptest::collection::vec(special_entries(len, non_finite), count),
            special_entries(len, non_finite),
        )
    })
}

/// Bitwise equality, a NaN matching any NaN (its payload is the hardware's
/// choice, not the loop's).
fn same_bits(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// Strategy: a random diagonally dominant sparse matrix (always factorizable)
/// together with a right-hand side.
fn dominant_system(max_n: usize) -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (2usize..max_n).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0f64), 0..(4 * n));
        let rhs = proptest::collection::vec(-10.0f64..10.0f64, n);
        (entries, rhs).prop_map(move |(entries, rhs)| {
            let mut t = TripletMatrix::new(n, n);
            let mut row_sum = vec![0.0f64; n];
            for (i, j, v) in entries {
                if i != j {
                    t.push(i, j, v);
                    row_sum[i] += v.abs();
                }
            }
            for (i, s) in row_sum.iter().enumerate() {
                t.push(i, i, s + 1.0);
            }
            (t.to_csr(), rhs)
        })
    })
}

/// Strategy: the entries of a square pattern the orderings must cope with —
/// `n` from 0 up, no diagonal required, unsymmetric, possibly split into
/// disconnected blocks of `n / blocks` nodes (plus isolated leftovers), and
/// possibly with one hub whose row (`hub_kind` 1), column (2) or both (3) are
/// full, like a supply net — dense enough at the larger `n` to be set aside by
/// the minimum-degree ordering. Values are nonzero and otherwise arbitrary.
fn ordering_pattern(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (
        0usize..max_n,
        proptest::collection::vec((0usize..max_n, 0usize..max_n, 0.5f64..2.0), 0..(3 * max_n)),
        1usize..4,
        0usize..8,
        0usize..max_n,
    )
        .prop_map(|(n, raw, blocks, hub_kind, hub)| {
            let mut entries = Vec::new();
            if n == 0 {
                return (n, entries);
            }
            let block = n.div_ceil(blocks);
            for (i, j, v) in raw {
                let i = i % n;
                let j = (i / block) * block + j % block;
                if j < n {
                    entries.push((i, j, v));
                }
            }
            let hub = hub % n;
            for k in 0..n {
                if matches!(hub_kind, 1 | 3) {
                    entries.push((hub, k, 1.0));
                }
                if matches!(hub_kind, 2 | 3) {
                    entries.push((k, hub, 1.0));
                }
            }
            (n, entries)
        })
}

/// Strategy: two `rows × cols` operands of a linear combination, kept as
/// drawn (explicit `0.0` and `-0.0` cells included, which
/// [`TripletMatrix::to_csr`] would drop). Each row is drawn as one of: the
/// same columns in both, disjoint columns, empty in `A`, empty in `B`, empty
/// in both, or unrelated columns. Stored values spread over 24 decades.
fn combination_operands(max_dim: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    let value =
        (0usize..10, -1.0f64..1.0, -12i32..13).prop_map(|(special, v, decade)| match special {
            0 => 0.0,
            1 => -0.0,
            _ => v * 10f64.powi(decade),
        });
    (0usize..max_dim, 1usize..max_dim).prop_flat_map(move |(rows, cols)| {
        let cell = (0usize..4, value.clone(), value.clone());
        let row = (0usize..6, proptest::collection::vec(cell, cols));
        proptest::collection::vec(row, rows).prop_map(move |drawn| {
            let mut a = (vec![0usize], Vec::new(), Vec::new());
            let mut b = (vec![0usize], Vec::new(), Vec::new());
            for (kind, cells) in drawn {
                for (col, (presence, va, vb)) in cells.into_iter().enumerate() {
                    let in_a = presence & 1 == 1;
                    let (in_a, in_b) = match kind {
                        0 => (in_a, in_a),
                        1 => (in_a, !in_a),
                        2 => (false, presence & 2 == 2),
                        3 => (in_a, false),
                        4 => (false, false),
                        _ => (in_a, presence & 2 == 2),
                    };
                    if in_a {
                        a.1.push(col);
                        a.2.push(va);
                    }
                    if in_b {
                        b.1.push(col);
                        b.2.push(vb);
                    }
                }
                a.0.push(a.1.len());
                b.0.push(b.1.len());
            }
            let build = |(indptr, indices, values)| {
                CsrMatrix::try_from_raw(rows, cols, indptr, indices, values).expect("valid CSR")
            };
            (build(a), build(b))
        })
    })
}

/// Strategy: a combination weight `±10^e`, `e` uniform in `[-15, 15)`.
fn combination_weight() -> impl Strategy<Value = f64> {
    (0usize..2, -15.0f64..15.0)
        .prop_map(|(sign, e)| if sign == 0 { 1.0 } else { -1.0 } * 10f64.powf(e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every ordering is a permutation of `0..n`, the same one each time it
    /// is asked, and a function of the pattern alone: other values on the
    /// same entries do not move it.
    #[test]
    fn orderings_are_deterministic_permutations_of_the_pattern((n, entries) in ordering_pattern(160)) {
        let build = |revalue: &dyn Fn(usize, f64) -> f64| {
            let mut t = TripletMatrix::new(n, n);
            for (k, &(i, j, v)) in entries.iter().enumerate() {
                t.push(i, j, revalue(k, v));
            }
            t.to_csr()
        };
        let a = build(&|_, v| v);
        let revalued = build(&|k, v| v * (1.0 + k as f64));
        prop_assert_eq!(a.indices(), revalued.indices());
        for method in [OrderingMethod::Natural, OrderingMethod::Rcm, OrderingMethod::MinDegree] {
            let p = compute_ordering(&a, method);
            let mut sorted = p.order().to_vec();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            prop_assert_eq!(&p, &compute_ordering(&a, method));
            prop_assert_eq!(&p, &compute_ordering(&revalued, method));
        }
    }

    /// One elimination, all right-hand sides: `DenseLu` (and `solve` /
    /// `inverse` built on it) reproduce the from-scratch elimination of each
    /// augmented system bit for bit, column by column.
    #[test]
    fn dense_lu_matches_per_column_elimination_bitwise((n, a, rhs) in dense_system(12)) {
        let column = |block: &[f64], c: usize| -> Vec<u64> {
            (0..n).map(|r| block[r * n + c].to_bits()).collect()
        };
        let (mut lu, mut pivots) = (a.clone(), vec![0; n]);
        let factors = DenseLu::factor_in(n, &mut lu, &mut pivots);
        let unit = |c: usize| -> Vec<f64> { (0..n).map(|r| f64::from(u8::from(r == c))).collect() };
        let dense = DenseMatrix::from_vec(n, n, a.clone());
        let Ok(factors) = factors else {
            prop_assert!(eliminate_augmented(&a, n, &unit(0)).is_none());
            prop_assert!(dense.inverse().is_err());
            return;
        };
        let mut solved = rhs.clone();
        factors.solve_in_place(&mut solved, n);
        let inverse = dense.inverse().expect("factored, so invertible");
        for c in 0..n {
            let b: Vec<f64> = (0..n).map(|r| rhs[r * n + c]).collect();
            let reference = eliminate_augmented(&a, n, &b).expect("factored, so solvable");
            let reference: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&column(&solved, c), &reference);
            let alone: Vec<u64> = dense.solve(&b).expect("solve").iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&alone, &reference);
            let unit_reference: Vec<u64> = eliminate_augmented(&a, n, &unit(c))
                .expect("factored, so solvable")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&column(inverse.as_slice(), c), &unit_reference);
        }
    }

    /// Four inner indices per pass or one: the same sums in the same order,
    /// so the same bits — through zeros that must contribute nothing, signed
    /// zeros and non-finite entries (a NaN is a NaN; its payload is the
    /// hardware's choice, not the loop's).
    #[test]
    fn blocked_matmul_matches_the_term_by_term_loop_bitwise((cols, a, b) in matmul_operands(14)) {
        let rows = a.len() / (b.len() / cols);
        let (mut blocked, mut reference) = (vec![1.0; rows * cols], vec![2.0; rows * cols]);
        matmul_into(&a, &b, cols, &mut blocked);
        matmul_term_by_term(&a, &b, cols, &mut reference);
        for (got, want) in blocked.iter().zip(&reference) {
            prop_assert!(same_bits(*got, *want), "{got:e} vs {want:e}");
        }
    }

    /// `dot` sums in its documented lane order, and `norm2` is its square
    /// root — bit for bit, at every length a lane split can leave.
    #[test]
    fn dot_and_norm2_follow_the_documented_lane_order((vectors, w) in kernel_vectors(1..2, false)) {
        let v = &vectors[0];
        let got = vector::dot(&w, v);
        prop_assert!(same_bits(got, dot_in_lane_order(&w, v)), "{got:e}");
        let norm = vector::norm2(v);
        prop_assert!(same_bits(norm, vector::dot(v, v).sqrt()), "{norm:e}");
        prop_assert!(same_bits(norm, dot_in_lane_order(v, v).sqrt()), "{norm:e}");
    }

    /// Four basis vectors per pass over `w` or one: `dots_against` writes
    /// each `dot(w, basis[i])` bit for bit, at every group remainder.
    #[test]
    fn dots_against_matches_dot_per_vector_bitwise((basis, w) in kernel_vectors(1..10, false)) {
        let mut out = vec![7.0; basis.len()];
        vector::dots_against(&basis, &w, &mut out);
        for (v, got) in basis.iter().zip(&out) {
            let want = vector::dot(&w, v);
            prop_assert!(same_bits(*got, want), "{got:e} vs {want:e}");
        }
    }

    /// One combined update or one `axpy` per nonzero coefficient in index
    /// order: the same bits, through coefficients that are `0.0` or `-0.0`
    /// (skipped), `±∞` or NaN, and entries of every kind.
    #[test]
    fn sub_combination_matches_the_axpy_loop_bitwise(
        (basis, w) in kernel_vectors(0..10, true),
        coefficients in special_entries(9, true),
    ) {
        let c = &coefficients[..basis.len()];
        let mut combined = w.clone();
        vector::sub_combination(&basis, c, &mut combined);
        let mut reference = w;
        for (v, &ci) in basis.iter().zip(c) {
            if ci != 0.0 {
                vector::axpy(-ci, v, &mut reference);
            }
        }
        for (got, want) in combined.iter().zip(&reference) {
            prop_assert!(same_bits(*got, *want), "{got:e} vs {want:e}");
        }
    }

    /// LU-based solves reproduce the right-hand side: ‖Ax − b‖ small.
    #[test]
    fn lu_solve_has_small_residual((a, b) in dominant_system(40)) {
        let lu = SparseLu::factorize(&a).expect("dominant matrix factorizes");
        let x = lu.solve(&b).expect("solve");
        let r = vector::max_abs_diff(&a.mul_vec(&x), &b);
        prop_assert!(r < 1e-8, "residual {r}");
    }

    /// All fill-reducing orderings give the same solution.
    #[test]
    fn orderings_are_equivalent((a, b) in dominant_system(30)) {
        let mut solutions = Vec::new();
        for ordering in [OrderingMethod::Natural, OrderingMethod::Rcm, OrderingMethod::MinDegree] {
            let lu = SparseLu::factorize_with(&a, &LuOptions { ordering, ..LuOptions::default() })
                .expect("factorize");
            solutions.push(lu.solve(&b).expect("solve"));
        }
        for s in &solutions[1..] {
            prop_assert!(vector::max_abs_diff(&solutions[0], s) < 1e-7);
        }
    }

    /// A [`CombinationMap`] built once refills `αA + βB` on the merged
    /// pattern bit for bit as the row merge computes it, at any weights and
    /// for every refill through the same map: a fill at new weights writes
    /// every cell, and a fill at the same weights after edits confined to
    /// the moving positions of `B` writes exactly their cells.
    #[test]
    fn combination_map_fill_matches_linear_combination_bitwise(
        (a, b) in combination_operands(12),
        weights in proptest::collection::vec((combination_weight(), combination_weight()), 3),
        moving in proptest::collection::vec(0usize..1000, 0..8),
        edits in proptest::collection::vec((0usize..1000, -1.0f64..1.0), 0..6),
    ) {
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let listed: Vec<usize> = if b.nnz() == 0 {
            Vec::new()
        } else {
            moving.iter().map(|k| k % b.nnz()).collect()
        };
        let mut distinct = listed.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut map = CombinationMap::new(&a, &b, &listed).expect("same shape");
        let mut b = b;
        for (alpha, beta) in weights {
            for again in [false, true] {
                if again && !listed.is_empty() {
                    for &(k, v) in &edits {
                        b.values_mut()[listed[k % listed.len()]] = v;
                    }
                }
                let (filled, written) = map.fill(alpha, &a, beta, &b, true).expect("the map's patterns");
                let merged = CsrMatrix::linear_combination(alpha, &a, beta, &b).expect("same shape");
                prop_assert_eq!(filled.indptr(), merged.indptr());
                prop_assert_eq!(filled.indices(), merged.indices());
                prop_assert_eq!(bits(filled), bits(&merged));
                if again {
                    prop_assert_eq!(written.map(<[usize]>::len), Some(distinct.len()));
                }
            }
        }
    }

    /// Linear combination is consistent with dense arithmetic on the vector level:
    /// (αA + βA)x = (α+β)·Ax.
    #[test]
    fn linear_combination_matches_axpy((a, b) in dominant_system(30), alpha in -2.0f64..2.0, beta in -2.0f64..2.0) {
        let combo = CsrMatrix::linear_combination(alpha, &a, beta, &a).expect("combine");
        let lhs = combo.mul_vec(&b);
        let mut rhs = a.mul_vec(&b);
        vector::scale(alpha + beta, &mut rhs);
        prop_assert!(vector::max_abs_diff(&lhs, &rhs) < 1e-9);
    }

    /// Numeric refactorization on perturbed values matches a fresh
    /// factorization of the perturbed matrix: identical pivot order is still
    /// numerically viable for small perturbations, so the solves must agree
    /// to near machine precision.
    #[test]
    fn refactorize_matches_fresh_factorization(
        (a, b) in dominant_system(40),
        scale in 0.5f64..2.0,
        wobble in -0.25f64..0.25,
    ) {
        // Perturb every value (pattern untouched): a blend of global scaling
        // and an index-dependent wobble that keeps diagonal dominance.
        let perturbed_vals: Vec<f64> = a
            .values()
            .iter()
            .enumerate()
            .map(|(k, &v)| v * scale * (1.0 + wobble * (((k % 7) as f64 - 3.0) / 10.0)))
            .collect();
        let perturbed = CsrMatrix::try_from_raw(
            a.rows(),
            a.cols(),
            a.indptr().to_vec(),
            a.indices().to_vec(),
            perturbed_vals,
        )
        .expect("pattern is unchanged");

        let mut lu = SparseLu::factorize(&a).expect("pilot factorization");
        let mut ws = LuWorkspace::new();
        lu.refactorize_with(&perturbed, &mut ws).expect("refactorize");
        let fresh = SparseLu::factorize(&perturbed).expect("fresh factorization");

        let x_refac = lu.solve(&b).expect("solve via refactorization");
        let x_fresh = fresh.solve(&b).expect("solve via fresh factors");
        let diff = vector::max_abs_diff(&x_refac, &x_fresh);
        prop_assert!(diff < 1e-12, "refactorized vs fresh solve differ by {diff}");
        let residual = vector::max_abs_diff(&perturbed.mul_vec(&x_refac), &b);
        prop_assert!(residual < 1e-8, "residual {residual}");
    }

    /// Refactorizing with *unchanged* values reproduces the original solve
    /// bit for bit (same elimination, same operation order). The way back
    /// from a matrix that differs in every column is a full replay, not a
    /// compare.
    #[test]
    fn refactorize_same_values_is_exact((a, b) in dominant_system(30)) {
        let fresh = SparseLu::factorize(&a).expect("factorize");
        let mut refac = fresh.clone();
        let mut ws = LuWorkspace::new();
        let n = a.rows();
        prop_assert_eq!(refac.refactorize_with(&a.scaled(2.0), &mut ws).expect("refactorize"), n);
        prop_assert_eq!(refac.refactorize_with(&a, &mut ws).expect("refactorize"), n);
        let x_fresh = fresh.solve(&b).expect("solve fresh");
        let x_refac = refac.solve(&b).expect("solve refac");
        prop_assert_eq!(x_fresh, x_refac);
    }

    /// A refactorization recomputes only the columns its changed values
    /// reach, and the factor it leaves is, bit for bit, the one a replay of
    /// every column leaves: `L`, `U` and the diagonal (compared through the
    /// factor's `Debug` form, which prints every float round-trip exactly)
    /// and every unit-vector solve. A value that differs in any bit — the
    /// sign of a zero included — is a change; a call with no change
    /// recomputes nothing; the call after a failed refactorization
    /// recomputes everything.
    #[test]
    fn partial_refactorization_matches_a_full_replay_bitwise(
        (a, b) in dominant_system(30),
        edits in proptest::collection::vec((0usize..1000, 0.5f64..1.0), 0..6),
        zeroed in 0usize..1000,
    ) {
        let n = a.rows();
        let row_of = |k: usize| (0..n).find(|&i| a.indptr()[i + 1] > k).expect("entry in a row");
        let with_values = |m: &CsrMatrix, set: &[(usize, f64)]| {
            let mut vals = m.values().to_vec();
            for &(k, v) in set {
                vals[k] = v;
            }
            CsrMatrix::try_from_raw(m.rows(), m.cols(), m.indptr().to_vec(), m.indices().to_vec(), vals)
                .expect("pattern is unchanged")
        };
        // An off-diagonal entry, if any, holds +0.0 in the first matrix and
        // -0.0 in the second.
        let z = zeroed % a.nnz();
        let signed_zero = a.indices()[z] != row_of(z);
        let a0 = if signed_zero { with_values(&a, &[(z, 0.0)]) } else { a.clone() };
        // The edits keep diagonal dominance: off-diagonals shrink, diagonals grow.
        let mut set: Vec<(usize, f64)> = edits
            .iter()
            .map(|&(k, s)| {
                let k = k % a.nnz();
                let v = a0.values()[k];
                (k, if a.indices()[k] == row_of(k) { v / s } else { v * s })
            })
            .collect();
        if signed_zero {
            set.push((z, -0.0));
        }
        let a1 = with_values(&a0, &set);
        let changed = a0.values().iter().zip(a1.values()).any(|(p, q)| p.to_bits() != q.to_bits());

        let mut ws = LuWorkspace::new();
        let mut partial = SparseLu::factorize(&a0).expect("factorize");
        let recomputed = partial.refactorize_with(&a1, &mut ws).expect("refactorize");
        prop_assert_eq!(recomputed > 0, changed);
        prop_assert!(recomputed <= n);
        if signed_zero {
            let mut of_plus = SparseLu::factorize(&a0).expect("factorize");
            let only_the_sign = with_values(&a0, &[(z, -0.0)]);
            prop_assert!(of_plus.refactorize_with(&only_the_sign, &mut ws).expect("refactorize") > 0);
        }
        let mut full = SparseLu::factorize(&a0).expect("factorize");
        prop_assert_eq!(full.refactorize_with(&a1.scaled(2.0), &mut ws).expect("refactorize"), n);
        prop_assert_eq!(full.refactorize_with(&a1, &mut ws).expect("refactorize"), n);
        // A call with no change recomputes nothing (and leaves both with the
        // same per-column bookkeeping, so `Debug` compares values only).
        prop_assert_eq!(partial.refactorize_with(&a1, &mut ws).expect("refactorize"), 0);
        prop_assert_eq!(full.refactorize_with(&a1, &mut ws).expect("refactorize"), 0);
        let same_factor = |p: &SparseLu, f: &SparseLu| {
            prop_assert_eq!(format!("{p:?}"), format!("{f:?}"));
            let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            for c in 0..n {
                let unit: Vec<f64> = (0..n).map(|r| f64::from(u8::from(r == c))).collect();
                prop_assert_eq!(bits(p.solve(&unit).unwrap()), bits(f.solve(&unit).unwrap()));
            }
            prop_assert_eq!(bits(p.solve(&b).unwrap()), bits(f.solve(&b).unwrap()));
        };
        same_factor(&partial, &full);

        // A refactorization that fails leaves no values to compare against:
        // the next one recomputes every column.
        let mut broken = partial.clone();
        prop_assert!(matches!(
            broken.refactorize_with(&a1.scaled(1e-300), &mut ws),
            Err(exi_sparse::SparseError::Singular { .. })
        ));
        prop_assert_eq!(broken.refactorize_with(&a1, &mut ws).expect("refactorize"), n);
        prop_assert_eq!(broken.refactorize_with(&a1, &mut ws).expect("refactorize"), 0);
        same_factor(&broken, &full);
        let mut unstable = partial.clone();
        let overflowing = with_values(&a1, &[(row_of(0), f64::INFINITY)]);
        prop_assert!(unstable.refactorize_with(&overflowing, &mut ws).is_err());
        prop_assert_eq!(unstable.refactorize_with(&a1, &mut ws).expect("refactorize"), n);
    }

    /// A refactorization told which values may have changed — random edits
    /// confined to a position list, one of them a `+0.0 → −0.0` swap —
    /// recomputes the same columns as one that compares every value, and
    /// leaves the factor a replay of every column leaves, bit for bit. A
    /// call with no change recomputes nothing, and the call after a failed
    /// refactorization recomputes every column whatever the list.
    #[test]
    fn listed_refactorization_matches_the_every_value_compare_bitwise(
        (a, _) in dominant_system(30),
        positions in proptest::collection::vec(0usize..1000, 1..8),
        edits in proptest::collection::vec((0usize..1000, 0.5f64..1.0), 0..6),
        zeroed in 0usize..1000,
    ) {
        let n = a.rows();
        let row_of = |k: usize| (0..n).find(|&i| a.indptr()[i + 1] > k).expect("entry in a row");
        let with_values = |m: &CsrMatrix, set: &[(usize, f64)]| {
            let mut vals = m.values().to_vec();
            for &(k, v) in set {
                vals[k] = v;
            }
            CsrMatrix::try_from_raw(m.rows(), m.cols(), m.indptr().to_vec(), m.indices().to_vec(), vals)
                .expect("pattern is unchanged")
        };
        let mut list: Vec<usize> = positions.iter().map(|k| k % a.nnz()).collect();
        // An off-diagonal entry, if any, holds +0.0 before and -0.0 after.
        let z = zeroed % a.nnz();
        let signed_zero = a.indices()[z] != row_of(z);
        let a0 = if signed_zero { with_values(&a, &[(z, 0.0)]) } else { a.clone() };
        // The edits keep diagonal dominance: off-diagonals shrink, diagonals grow.
        let mut set: Vec<(usize, f64)> = edits
            .iter()
            .map(|&(e, s)| {
                let k = list[e % list.len()];
                let v = a0.values()[k];
                (k, if a.indices()[k] == row_of(k) { v / s } else { v * s })
            })
            .collect();
        if signed_zero {
            list.push(z);
            set.push((z, -0.0));
        }
        let a1 = with_values(&a0, &set);

        let mut ws = LuWorkspace::new();
        let mut listed = SparseLu::factorize(&a0).expect("factorize");
        let mut every = listed.clone();
        let recomputed = listed.refactorize_changed(&a1, Some(&list), &mut ws).expect("refactorize");
        prop_assert_eq!(recomputed, every.refactorize_with(&a1, &mut ws).expect("refactorize"));
        if signed_zero {
            let mut of_plus = SparseLu::factorize(&a0).expect("factorize");
            let only_the_sign = with_values(&a0, &[(z, -0.0)]);
            prop_assert!(of_plus.refactorize_changed(&only_the_sign, Some(&[z]), &mut ws).expect("refactorize") > 0);
        }
        // Against a replay of every column.
        let mut full = SparseLu::factorize(&a0).expect("factorize");
        prop_assert_eq!(full.refactorize_with(&a1.scaled(2.0), &mut ws).expect("refactorize"), n);
        prop_assert_eq!(full.refactorize_with(&a1, &mut ws).expect("refactorize"), n);
        // No change: nothing recomputed, listed or not (which also leaves
        // every factor with the same per-column bookkeeping, so `Debug`
        // compares values only).
        prop_assert_eq!(listed.refactorize_changed(&a1, Some(&[]), &mut ws).expect("refactorize"), 0);
        prop_assert_eq!(listed.refactorize_changed(&a1, Some(&list), &mut ws).expect("refactorize"), 0);
        prop_assert_eq!(every.refactorize_with(&a1, &mut ws).expect("refactorize"), 0);
        prop_assert_eq!(full.refactorize_with(&a1, &mut ws).expect("refactorize"), 0);
        prop_assert_eq!(format!("{listed:?}"), format!("{full:?}"));
        prop_assert_eq!(format!("{every:?}"), format!("{full:?}"));
        // After a failure the list is not consulted.
        let mut broken = listed.clone();
        prop_assert!(matches!(
            broken.refactorize_changed(&a1.scaled(1e-300), None, &mut ws),
            Err(exi_sparse::SparseError::Singular { .. })
        ));
        prop_assert_eq!(broken.refactorize_changed(&a1, Some(&list), &mut ws).expect("refactorize"), n);
        prop_assert_eq!(broken.refactorize_changed(&a1, Some(&list), &mut ws).expect("refactorize"), 0);
        prop_assert_eq!(format!("{broken:?}"), format!("{full:?}"));
        let mut infinite = listed.clone();
        let first = 0; // row 0's first entry
        let overflowing = with_values(&a1, &[(first, f64::INFINITY)]);
        prop_assert!(infinite.refactorize_changed(&overflowing, Some(&[first]), &mut ws).is_err());
        prop_assert_eq!(infinite.refactorize_changed(&a1, Some(&[first]), &mut ws).expect("refactorize"), n);
        prop_assert_eq!(infinite.refactorize_changed(&a1, Some(&[first]), &mut ws).expect("refactorize"), 0);
        prop_assert_eq!(format!("{infinite:?}"), format!("{full:?}"));
    }

    /// Triplet accumulation order does not matter.
    #[test]
    fn triplet_order_is_irrelevant(mut entries in proptest::collection::vec((0usize..10, 0usize..10, -5.0f64..5.0), 1..60)) {
        let build = |list: &[(usize, usize, f64)]| {
            let mut t = TripletMatrix::new(10, 10);
            for &(i, j, v) in list {
                t.push(i, j, v);
            }
            t.to_csr()
        };
        let a = build(&entries);
        entries.reverse();
        let b = build(&entries);
        // Compare entry-wise with a tolerance (summation order may differ).
        for i in 0..10 {
            for j in 0..10 {
                prop_assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-12);
            }
        }
    }
}

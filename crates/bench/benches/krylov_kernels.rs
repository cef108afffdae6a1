//! Criterion bench for the MEVP kernels and the symbolic-reuse LU path.
//!
//! Seven groups. A refactorization with the values the factor already holds
//! is only a compare, so every timed replay alternates between a matrix and
//! its double, which differ in every column — except where the point is what
//! changed.
//!
//! * `lu_refactorize` — the headline comparison for the symbolic/numeric
//!   split: a full `factorize_with` (ordering + pivoting + reachability DFS +
//!   numeric elimination) vs a numeric-only `refactorize_with` of the
//!   power-grid conductance matrix. The refactorization must be ≥2× faster;
//!   the measured ratio is printed alongside the timings.
//! * `partial_refactorize` — what a BENR Newton iteration on tc2 refactorizes:
//!   `C/h + G` where only the MOSFET cells changed, against a replay of every
//!   column; the changed columns found by comparing every value, and by
//!   comparing only the cells that read the plan's nonlinear cells of `G` (as
//!   the engine does); the share of columns recomputed is printed.
//! * `krylov_mevp` — ablation A: invert vs standard vs rational Krylov
//!   subspaces on the same matrices, plus the workspace-reusing invert
//!   variant the ER engine actually runs.
//! * `small_dense` — what sits under the Arnoldi loop, at `m = 16/32/64` on
//!   Hessenberg matrices captured from the tc6 analogue mid-transient: one
//!   Eq. (22) residual test, the `O(m²)` screen of the same residual (which
//!   must agree with it within 1 %), one φ₁ column, one plain `expm` and one
//!   of the `m × m` products `expm` is made of.
//! * `reuse` — what an ER step on a linear circuit no longer redoes, on the
//!   100×100 RC mesh (exibench's `er_large_mesh`): replaying the elimination
//!   of `G` vs refactorizing an unchanged `G` (a compare), and a fresh `w₂`
//!   (one solve, one subspace of m ≈ 26) vs re-testing and re-evaluating the
//!   kept one at the next step size.
//! * `orthogonalize` — one Arnoldi absorb's Gram–Schmidt with its DGKS
//!   pass, classical on the blocked `vector` kernels (what the Arnoldi
//!   process runs) against modified, at n = 514 and 10 002 and j = 8/16/32.
//! * `ordering` — what the fill-reducing ordering costs and buys, `Rcm`
//!   against `MinDegree`: ordering time, first factorization,
//!   refactorization and one solve of `G` on the two circuits at the ends of
//!   the size range — 16 uncoupled driven lines (n = 514, exibench's
//!   `*_sparse_drivers`), where the ordering must not cost solve speed, and
//!   the 100×100 RC mesh (n = 10 002), where it decides the factor's size.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use exi_krylov::{
    expm, invert_krylov_residual, mevp_invert_krylov, mevp_invert_krylov_with,
    mevp_rational_krylov, mevp_standard_krylov, MevpOptions, MevpWorkspace,
};
use exi_netlist::generators::{
    coupled_lines, power_grid, rc_mesh, CoupledLinesSpec, PowerGridSpec, RcMeshSpec,
};
use exi_netlist::Circuit;
use exi_sim::{Method, Simulator};
use exi_sparse::dense::matmul_into;
use exi_sparse::ordering::compute_ordering;
use exi_sparse::{
    vector, CombinationMap, CsrMatrix, LuOptions, LuWorkspace, OrderingMethod, SparseLu,
};

/// The conductance matrix of a laptop-scale power-distribution mesh — the
/// workload whose per-step `G` factorization dominates the ER engine.
fn power_grid_conductance() -> CsrMatrix {
    let spec = PowerGridSpec {
        rows: 40,
        cols: 40,
        num_sinks: 60,
        ..PowerGridSpec::default()
    };
    conductance(&power_grid(&spec).expect("power grid circuit"))
}

/// `G` at the zero state, the matrix every ER run factorizes first.
fn conductance(circuit: &Circuit) -> CsrMatrix {
    circuit
        .compile_plan()
        .and_then(|plan| plan.evaluate(&vec![0.0; circuit.num_unknowns()]))
        .expect("evaluation")
        .g
}

/// Two value sets on one pattern, refactorized in turn.
struct Alternating<'m> {
    values: [&'m CsrMatrix; 2],
    turn: usize,
}

impl<'m> Alternating<'m> {
    fn new(values: [&'m CsrMatrix; 2]) -> Self {
        Alternating { values, turn: 0 }
    }

    /// Refactorizes `lu` with the other value set than last time; returns
    /// the number of columns recomputed.
    fn refactorize(&mut self, lu: &mut SparseLu, ws: &mut LuWorkspace) -> usize {
        self.refactorize_changed(lu, None, ws)
    }

    /// As `refactorize`, comparing only the `changed` value positions when
    /// given (the two value sets must differ nowhere else).
    fn refactorize_changed(
        &mut self,
        lu: &mut SparseLu,
        changed: Option<&[usize]>,
        ws: &mut LuWorkspace,
    ) -> usize {
        self.turn ^= 1;
        lu.refactorize_changed(self.values[self.turn], changed, ws)
            .expect("refactorization")
    }
}

fn bench_lu_refactorize(c: &mut Criterion) {
    let g = power_grid_conductance();
    let g2 = g.scaled(2.0);
    let options = LuOptions::default();
    let mut refac = SparseLu::factorize_with(&g, &options).expect("pilot LU of G");
    let mut ws = LuWorkspace::new();

    let mut group = c.benchmark_group("lu_refactorize");
    group.sample_size(10);
    group.bench_function("factorize_full", |b| {
        b.iter(|| SparseLu::factorize_with(&g, &options).expect("full factorization"))
    });
    let mut replay = Alternating::new([&g, &g2]);
    group.bench_function("refactorize_numeric", |b| {
        b.iter(|| replay.refactorize(&mut refac, &mut ws))
    });
    group.finish();

    // Direct head-to-head ratio on identical work, for the acceptance check.
    let reps = 20;
    let start = Instant::now();
    for _ in 0..reps {
        criterion::black_box(SparseLu::factorize_with(&g, &options).expect("full"));
    }
    let full = start.elapsed().as_secs_f64() / reps as f64;
    let start = Instant::now();
    for _ in 0..reps {
        assert_eq!(replay.refactorize(&mut refac, &mut ws), g.rows());
    }
    let numeric = start.elapsed().as_secs_f64() / reps as f64;
    println!(
        "lu_refactorize: full {:.3} ms vs numeric-only {:.3} ms -> {:.1}x speedup (n = {}, nnz = {})",
        full * 1e3,
        numeric * 1e3,
        full / numeric,
        g.rows(),
        g.nnz()
    );
}

/// What a BENR Newton iteration refactorizes on tc2 (16 MOSFET-driven
/// lines, n = 514): `C/h + G` at a mid-switching state, then at that state
/// nudged by 0.1 %, so that only the MOSFET cells differ — against a replay
/// of every column. The engine's Jacobian fill reports the cells it wrote
/// (those that read a nonlinear cell of `G`); `mosfet_cells_listed` compares
/// only those.
fn bench_partial_refactorize(c: &mut Criterion) {
    let case = &exi_bench::table1_cases(1.0)[1];
    assert_eq!(case.name, "tc2");
    let circuit = case.build().expect("tc2 circuit");
    let x = Simulator::new(&circuit)
        .transient(
            Method::ExponentialRosenbrock,
            &exi_bench::runner::table1_options(0.15e-9, None),
            &[],
        )
        .expect("tc2 transient to mid-switching")
        .final_state;
    let nudged: Vec<f64> = x.iter().map(|v| v * (1.0 + 1e-3)).collect();
    let plan = circuit.compile_plan().expect("plan");
    let h = 1e-13;
    let jacobian = |x: &[f64]| {
        let eval = plan.evaluate(x).expect("evaluation");
        CsrMatrix::linear_combination(1.0 / h, &eval.c, 1.0, &eval.g).expect("C/h + G")
    };
    let (at, near) = (jacobian(&x), jacobian(&nudged));
    let far = at.scaled(2.0);
    let cells = at
        .values()
        .iter()
        .zip(near.values())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    let mut lu = SparseLu::factorize(&at).expect("LU of C/h + G");
    let mut ws = LuWorkspace::new();
    // The positions the engine's partial fill reports between the two states.
    let (eval_at, eval_near) = (
        plan.evaluate(&x).expect("x"),
        plan.evaluate(&nudged).expect("x'"),
    );
    let mut map = CombinationMap::new(&eval_at.c, &eval_at.g, plan.nonlinear_cells()).expect("map");
    map.fill(1.0 / h, &eval_at.c, 1.0, &eval_at.g, true)
        .expect("fill at x");
    let (filled, listed) = map
        .fill(1.0 / h, &eval_near.c, 1.0, &eval_near.g, true)
        .expect("fill at x'");
    assert_eq!(filled, &near);
    let listed = listed.expect("a partial fill").to_vec();

    let mut group = c.benchmark_group("partial_refactorize");
    group.sample_size(20);
    let mut full = Alternating::new([&at, &far]);
    group.bench_function("tc2/every_column", |b| {
        b.iter(|| full.refactorize(&mut lu, &mut ws))
    });
    lu.refactorize_with(&at, &mut ws).expect("back to C/h + G");
    let mut partial = Alternating::new([&at, &near]);
    let columns = partial.refactorize(&mut lu, &mut ws);
    group.bench_function("tc2/mosfet_cells", |b| {
        b.iter(|| partial.refactorize(&mut lu, &mut ws))
    });
    assert_eq!(
        partial.refactorize_changed(&mut lu, Some(&listed), &mut ws),
        columns
    );
    group.bench_function("tc2/mosfet_cells_listed", |b| {
        b.iter(|| partial.refactorize_changed(&mut lu, Some(&listed), &mut ws))
    });
    group.finish();
    println!(
        "partial_refactorize/tc2: {cells} of {} cells changed, {} compared when listed; \
         {columns} of {} columns ({:.1} %) recomputed",
        at.nnz(),
        listed.len(),
        at.rows(),
        100.0 * columns as f64 / at.rows() as f64
    );
}

fn bench_mevp_kernels(c: &mut Criterion) {
    let circuit = exi_bench::fig1_circuit(0.4).expect("circuit");
    let n = circuit.num_unknowns();
    let x = vec![0.0; n];
    let eval = circuit
        .compile_plan()
        .and_then(|plan| plan.evaluate(&x))
        .expect("evaluation");
    let g_lu = SparseLu::factorize(&eval.g).expect("LU of G");
    let c_lu = SparseLu::factorize(&eval.c).ok();
    let v: Vec<f64> = (0..n).map(|i| ((i % 5) as f64 - 2.0) / 2.0).collect();
    let h = 2e-11;
    let options = MevpOptions {
        tolerance: 1e-7,
        max_dimension: 200,
        allow_unconverged: true,
        ..MevpOptions::default()
    };

    let mut group = c.benchmark_group("krylov_mevp");
    group.sample_size(10);
    group.bench_function("invert", |b| {
        b.iter(|| mevp_invert_krylov(&eval.c, &eval.g, &g_lu, &v, h, &options).expect("invert"))
    });
    let mut ws = MevpWorkspace::new();
    group.bench_function("invert_with_workspace", |b| {
        b.iter(|| {
            let out = mevp_invert_krylov_with(&eval.c, &eval.g, &g_lu, &v, h, &options, &mut ws)
                .expect("invert with workspace");
            let dimension = out.dimension;
            ws.recycle_vec(out.mevp);
            ws.recycle(out.decomposition);
            dimension
        })
    });
    group.bench_function("rational", |b| {
        b.iter(|| {
            mevp_rational_krylov(&eval.c, &eval.g, h / 2.0, &v, h, &options).expect("rational")
        })
    });
    if let Some(c_lu) = &c_lu {
        group.bench_function("standard", |b| {
            b.iter(|| {
                mevp_standard_krylov(&eval.g, c_lu, &v, h, &options)
                    .map(|o| o.dimension)
                    .unwrap_or(0)
            })
        });
    }
    group.finish();
}

/// The small dense layer on its own: the per-test, per-evaluation kernels of
/// the ER hot loop at three subspace dimensions. The Hessenberg matrices are
/// real ones — the tc6 analogue is run to the middle of its switching
/// window and the `w₁` subspace of the next step is built to exactly `m`
/// dimensions (a tolerance that is never met).
fn bench_small_dense(c: &mut Criterion) {
    let case = &exi_bench::table1_cases(1.0)[5];
    assert_eq!(case.name, "tc6");
    let circuit = case.build().expect("tc6 circuit");
    let t = 0.15e-9;
    let x = Simulator::new(&circuit)
        .transient(
            Method::ExponentialRosenbrock,
            &exi_bench::runner::table1_options(t, None),
            &[],
        )
        .expect("tc6 transient to mid-switching")
        .final_state;
    let plan = circuit.compile_plan().expect("plan");
    let eval = plan.evaluate(&x).expect("evaluation");
    let g_lu = SparseLu::factorize(&eval.g).expect("LU of G");
    // w1 = G⁻¹ (f(x) − B·u(t)), the start vector of the step's first subspace.
    let mut u = vec![0.0; plan.input_dim()];
    circuit.input_vector_into(t, &mut u);
    let bu = plan.input_matrix().mul_vec(&u);
    let rhs: Vec<f64> = eval.f.iter().zip(&bu).map(|(f, b)| f - b).collect();
    let w1 = g_lu.solve(&rhs).expect("w1");
    let h = 2e-11;

    let mut group = c.benchmark_group("small_dense");
    group.sample_size(20);
    let mut ws = MevpWorkspace::new();
    let mut out = vec![0.0; w1.len()];
    for m in [16, 32, 64] {
        let never_met = MevpOptions {
            tolerance: -1.0,
            max_dimension: m,
            min_dimension: m,
            allow_unconverged: true,
        };
        let built = mevp_invert_krylov_with(&eval.c, &eval.g, &g_lu, &w1, h, &never_met, &mut ws)
            .expect("subspace of exactly m dimensions")
            .decomposition;
        assert_eq!(built.dimension(), m);
        group.bench_function(format!("residual_test/m{m}"), |b| {
            b.iter(|| built.residual_scalar_in(h, &mut ws).expect("residual"))
        });
        // The test's screen, on the same Hessenberg: the same residual
        // without an exponential. It agrees within 1 % wherever a build
        // could stop; at m = 64 the residual (2.6e-20) is below the
        // quadrature's floor, and only both being that small is checked.
        let exact = built.residual_scalar_in(h, &mut ws).expect("residual");
        let screened = built
            .screened_residual_scalar_in(h, &mut ws)
            .expect("a screen of an invert-Krylov subspace");
        println!("small_dense/m{m}: residual {exact:.4e}, screened {screened:.4e}");
        assert!(
            (screened / exact - 1.0).abs() <= 0.01 || exact.max(screened) < 1e-15,
            "m = {m}: the screen reads {screened:e} for {exact:e}"
        );
        group.bench_function(format!("screen/m{m}"), |b| {
            b.iter(|| built.screened_residual_scalar_in(h, &mut ws))
        });
        group.bench_function(format!("phi1_column/m{m}"), |b| {
            b.iter(|| built.eval_phi_in(1, h, &mut out, &mut ws).expect("phi1"))
        });
        let hs = built.projected_jacobian().expect("S").scale(h);
        group.bench_function(format!("expm/m{m}"), |b| {
            b.iter(|| expm(&hs).expect("expm"))
        });
        let mut product = vec![0.0; m * m];
        group.bench_function(format!("matmul/m{m}"), |b| {
            b.iter(|| matmul_into(hs.as_slice(), hs.as_slice(), m, &mut product))
        });
    }
    group.finish();
}

/// The two things an ER step on a linear circuit used to redo, each next to
/// what it does instead — on the mesh where they were the run's whole cost.
fn bench_reuse(c: &mut Criterion) {
    let circuit = rc_mesh(&RcMeshSpec {
        rows: 100,
        cols: 100,
        ..RcMeshSpec::default()
    })
    .expect("rc mesh");
    let plan = circuit.compile_plan().expect("plan");
    let eval = plan
        .evaluate(&vec![0.0; circuit.num_unknowns()])
        .expect("evaluation");
    let mut g_lu = SparseLu::factorize(&eval.g).expect("LU of G");
    let mut lu_ws = LuWorkspace::new();

    let g2 = eval.g.scaled(2.0);
    let mut group = c.benchmark_group("reuse");
    group.sample_size(10);
    let mut replay = Alternating::new([&eval.g, &g2]);
    group.bench_function("g_refactorize", |b| {
        b.iter(|| replay.refactorize(&mut g_lu, &mut lu_ws))
    });
    g_lu.refactorize_with(&eval.g, &mut lu_ws).expect("replay");
    group.bench_function("g_unchanged", |b| {
        b.iter(|| g_lu.refactorize_with(&eval.g, &mut lu_ws).expect("compare"))
    });
    assert_eq!(
        g_lu.refactorize_with(&eval.g, &mut lu_ws).expect("compare"),
        0
    );

    // w₂ = −G⁻¹B·(u(t+h) − u(t)) for a step on the input ramp, as the engine
    // forms it, and its subspace at the engine's tolerance.
    let (t, h) = (3e-12, 2e-12);
    let (mut u0, mut u1) = (vec![0.0; plan.input_dim()], vec![0.0; plan.input_dim()]);
    circuit.input_vector_into(t, &mut u0);
    circuit.input_vector_into(t + h, &mut u1);
    let du: Vec<f64> = u1.iter().zip(&u0).map(|(a, b)| a - b).collect();
    let bdu = plan.input_matrix().mul_vec(&du);
    let options = MevpOptions {
        tolerance: 1e-7,
        allow_unconverged: true,
        ..MevpOptions::default()
    };
    let mut ws = MevpWorkspace::new();
    let mut w2 = vec![0.0; bdu.len()];
    let mut build = |ws: &mut MevpWorkspace, w2: &mut Vec<f64>| {
        g_lu.solve_into(&bdu, w2, &mut lu_ws).expect("solve");
        vector::scale(-1.0, w2);
        mevp_invert_krylov_with(&eval.c, &eval.g, &g_lu, w2, h, &options, ws).expect("subspace")
    };
    let kept = build(&mut ws, &mut w2);
    group.bench_function(format!("w2_fresh_build/m{}", kept.dimension), |b| {
        b.iter(|| {
            let out = build(&mut ws, &mut w2);
            ws.recycle_vec(out.mevp);
            ws.recycle(out.decomposition);
        })
    });
    let mut out = vec![0.0; w2.len()];
    group.bench_function(format!("w2_kept_retest/m{}", kept.dimension), |b| {
        b.iter(|| {
            let residual = invert_krylov_residual(&kept.decomposition, &eval.g, 2.0 * h, &mut ws)
                .expect("re-test");
            kept.decomposition
                .eval_phi_in(1, 2.0 * h, &mut out, &mut ws)
                .expect("phi1");
            residual
        })
    });
    group.finish();
}

/// The dot product with one running sum, in element order.
fn serial_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One Arnoldi absorb's orthogonalisation, DGKS pass included (it runs in
/// about 96 % of the absorbs of exibench's `er_sparse_drivers`): classical
/// Gram–Schmidt as `ArnoldiProcess` runs it — per pass one `dots_against`
/// and one `sub_combination`, plus three `norm2` — next to modified
/// Gram–Schmidt with a serial dot then an `axpy` per basis vector, as the
/// process ran it before the blocked kernels. At n = 514 (16 driven
/// lines) and n = 10 002 (the 100×100 mesh), against j + 1 = 9/17/33 basis
/// vectors. Timings depend on `n` and `j` alone, so the vectors are a fixed
/// pattern with no zero coefficient, and `w` is reset before every absorb.
fn bench_orthogonalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("orthogonalize");
    group.sample_size(20);
    let entry = |i: usize, k: usize| ((7 * i + 13 * k) % 17) as f64 / 17.0 - 0.45;
    for n in [514, 10_002] {
        let basis: Vec<Vec<f64>> = (0..=32)
            .map(|i| (0..n).map(|k| entry(i, k)).collect())
            .collect();
        let w0: Vec<f64> = (0..n).map(|k| entry(33, k)).collect();
        let mut w = w0.clone();
        let mut coefficients = [0.0; 33];
        for j in [8, 16, 32] {
            let basis = &basis[..=j];
            let coefficients = &mut coefficients[..=j];
            group.bench_function(format!("n{n}/j{j}/classical"), |b| {
                b.iter(|| {
                    w.copy_from_slice(&w0);
                    let pre_norm = vector::norm2(&w);
                    vector::dots_against(basis, &w, coefficients);
                    vector::sub_combination(basis, coefficients, &mut w);
                    let first = vector::norm2(&w);
                    vector::dots_against(basis, &w, coefficients);
                    vector::sub_combination(basis, coefficients, &mut w);
                    (pre_norm, first, vector::norm2(&w))
                })
            });
            group.bench_function(format!("n{n}/j{j}/modified"), |b| {
                b.iter(|| {
                    w.copy_from_slice(&w0);
                    let pre_norm = serial_dot(&w, &w).sqrt();
                    let mut norms = [0.0; 2];
                    for norm in &mut norms {
                        for v in basis {
                            let hij = serial_dot(&w, v);
                            vector::axpy(-hij, v, &mut w);
                        }
                        *norm = serial_dot(&w, &w).sqrt();
                    }
                    (pre_norm, norms)
                })
            });
        }
    }
    group.finish();
}

fn bench_ordering(c: &mut Criterion) {
    let lines = coupled_lines(&CoupledLinesSpec {
        lines: 16,
        segments: 30,
        coupling_capacitance: 0.0,
        random_couplings: 0,
        mosfet_drivers: true,
        ..CoupledLinesSpec::default()
    })
    .expect("coupled lines");
    let mesh = rc_mesh(&RcMeshSpec {
        rows: 100,
        cols: 100,
        ..RcMeshSpec::default()
    })
    .expect("rc mesh");

    let mut group = c.benchmark_group("ordering");
    group.sample_size(10);
    for (name, circuit) in [("lines16x30", &lines), ("mesh100x100", &mesh)] {
        let g = conductance(circuit);
        let g2 = g.scaled(2.0);
        let n = g.rows();
        let rhs: Vec<f64> = (0..n).map(|i| ((i % 9) as f64 - 4.0) / 4.0).collect();
        for ordering in [OrderingMethod::Rcm, OrderingMethod::MinDegree] {
            let options = LuOptions {
                ordering,
                ..LuOptions::default()
            };
            let mut lu = SparseLu::factorize_with(&g, &options).expect("LU of G");
            let mut ws = LuWorkspace::new();
            let mut x = vec![0.0; n];
            let id = |what: &str| format!("{name}/{ordering:?}/{what}");
            group.bench_function(id("order"), |b| b.iter(|| compute_ordering(&g, ordering)));
            group.bench_function(id("factorize"), |b| {
                b.iter(|| SparseLu::factorize_with(&g, &options).expect("factorization"))
            });
            let mut replay = Alternating::new([&g, &g2]);
            group.bench_function(id("refactorize"), |b| {
                b.iter(|| replay.refactorize(&mut lu, &mut ws))
            });
            group.bench_function(id("solve"), |b| {
                b.iter(|| lu.solve_into(&rhs, &mut x, &mut ws).expect("solve"))
            });
            println!(
                "ordering/{name}/{ordering:?}: n = {n}, nnz(G) = {}, nnz(L+U) = {}",
                g.nnz(),
                lu.nnz_l() + lu.nnz_u()
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lu_refactorize,
    bench_partial_refactorize,
    bench_mevp_kernels,
    bench_small_dense,
    bench_reuse,
    bench_orthogonalize,
    bench_ordering
);
criterion_main!(benches);

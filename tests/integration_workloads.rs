//! Integration tests over the synthetic benchmark workloads: the Table-I
//! analogue circuits and the structural claims behind Fig. 1.

use exi_netlist::generators::{
    coupled_lines, power_grid, rc_mesh, CoupledLinesSpec, PowerGridSpec, RcMeshSpec,
};
use exi_sim::{Method, SimError, Simulator, TransientOptions};
use exi_sparse::{factor_fill, CsrMatrix, OrderingMethod, SparseError};

fn quick_options(t_stop: f64) -> TransientOptions {
    TransientOptions {
        t_stop,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 2e-3,
        ..TransientOptions::default()
    }
}

/// Fig. 1 structural claim: on a densely coupled circuit, the LU factors of
/// `C/h + G` carry far more fill than the LU factors of `G`.
#[test]
fn benr_matrix_fill_exceeds_g_fill_on_coupled_circuits() {
    let ckt = coupled_lines(&CoupledLinesSpec {
        lines: 6,
        segments: 15,
        random_couplings: 800,
        mosfet_drivers: false,
        ..CoupledLinesSpec::default()
    })
    .unwrap();
    let x = vec![0.0; ckt.num_unknowns()];
    let eval = ckt.compile_plan().unwrap().evaluate(&x).unwrap();
    let benr_matrix = CsrMatrix::linear_combination(1e12, &eval.c, 1.0, &eval.g).unwrap();
    let (gl, gu) = factor_fill(&eval.g, OrderingMethod::Rcm).unwrap();
    let (bl, bu) = factor_fill(&benr_matrix, OrderingMethod::Rcm).unwrap();
    assert!(
        bl + bu > (gl + gu) * 3 / 2,
        "expected C/h+G fill ({}) to clearly exceed G fill ({})",
        bl + bu,
        gl + gu
    );
    // And nnz(C) itself exceeds nnz(G) in this post-layout-style structure.
    assert!(eval.c.nnz() > eval.g.nnz());
}

/// Table-I capability claim: with a bounded factor fill (the memory-budget
/// analogue) BENR fails on a densely coupled circuit while ER completes.
#[test]
fn er_completes_where_budgeted_benr_cannot() {
    let ckt = coupled_lines(&CoupledLinesSpec {
        lines: 6,
        segments: 12,
        random_couplings: 700,
        mosfet_drivers: true,
        ..CoupledLinesSpec::default()
    })
    .unwrap();
    let n = ckt.num_unknowns();
    let mut options = quick_options(4e-10);
    options.fill_budget = Some(12 * n);
    let benr = Simulator::new(&ckt).transient(Method::BackwardEuler, &options, &[]);
    assert!(
        matches!(
            benr,
            Err(SimError::Sparse(SparseError::FillBudgetExceeded { .. }))
        ),
        "budgeted BENR should fail on the coupled case, got {benr:?}"
    );
    // ER with the same budget succeeds because it only factorizes G.
    let er = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &options, &[])
        .unwrap();
    assert!(er.stats.accepted_steps > 5);
    assert!(er.final_state.iter().all(|v| v.is_finite()));
}

/// A power-grid workload runs with both methods and keeps the rail voltage
/// physical (between 0 and vdd plus a small overshoot margin).
#[test]
fn power_grid_transient_is_physical() {
    let spec = PowerGridSpec {
        rows: 6,
        cols: 6,
        num_sinks: 6,
        ..PowerGridSpec::default()
    };
    let ckt = power_grid(&spec).unwrap();
    let observed = "g_3_3";
    let mut sim = Simulator::new(&ckt);
    for method in [Method::BackwardEuler, Method::ExponentialRosenbrock] {
        let result = sim
            .transient(method, &quick_options(2e-9), &[observed])
            .unwrap();
        let p = result.probe_index(observed).unwrap();
        for (t, v) in result.waveform(p) {
            assert!(
                v > 0.5 * spec.vdd && v < 1.2 * spec.vdd,
                "{method} at t = {t:.2e}: unphysical rail voltage {v}"
            );
        }
    }
}

/// Symbolic-reuse claim: over a whole power-grid transient the ER engine
/// performs exactly one symbolic LU analysis (seeded by the DC solve); every
/// later factorization of `G` is a numeric-only refactorization.
#[test]
fn er_power_grid_run_reuses_a_single_symbolic_analysis() {
    let spec = PowerGridSpec {
        rows: 8,
        cols: 8,
        num_sinks: 8,
        ..PowerGridSpec::default()
    };
    let ckt = power_grid(&spec).unwrap();
    let result = Simulator::new(&ckt)
        .transient(
            Method::ExponentialRosenbrock,
            &quick_options(2e-9),
            &["g_4_4"],
        )
        .unwrap();
    let s = &result.stats;
    assert!(s.accepted_steps > 5);
    assert_eq!(s.symbolic_analyses, 1, "{s:?}");
    assert_eq!(s.lu_refactorizations, s.lu_factorizations - 1, "{s:?}");
    assert!(s.lu_refactorizations >= s.accepted_steps, "{s:?}");
    // The Krylov workspace reaches a steady state: the number of fresh
    // circuit-sized allocations is bounded by the deepest subspace plus the
    // handful of vectors alive at once — not by the number of steps.
    assert!(
        s.krylov_workspace_allocations < 4 * (s.peak_krylov_dimension + 4),
        "{s:?}"
    );
    // Waveform is still the physical one (cross-check against BENR).
    let benr = Simulator::new(&ckt)
        .transient(Method::BackwardEuler, &quick_options(2e-9), &["g_4_4"])
        .unwrap();
    let p = result.probe_index("g_4_4").unwrap();
    let err = result.rms_error_vs(&benr, p);
    assert!(err < 1e-3, "ER vs BENR rms error {err}");
}

/// The convergence-test schedule, gate open: on the densely coupled MOSFET
/// case (short vectors, Krylov dimension near 30 — exibench's
/// `er_dense_coupling` circuit) a test costs more than an Arnoldi iteration
/// from dimension ~10 on, so tests thin out geometrically. Counts only: at
/// most three tests per four dimensions built (testing every dimension is
/// 0.96), and a dense arena that a second run of the session finds grown.
#[test]
fn dense_coupling_tests_convergence_on_a_schedule_and_stops_allocating() {
    let ckt = coupled_lines(&CoupledLinesSpec {
        lines: 10,
        segments: 20,
        coupling_capacitance: 2e-15,
        random_couplings: 1500,
        mosfet_drivers: true,
        seed: 106,
        ..CoupledLinesSpec::default()
    })
    .unwrap();
    let options = TransientOptions {
        h_min: 1e-16,
        krylov_tolerance: 1e-7,
        ..quick_options(0.15e-9)
    };
    let mut sim = Simulator::new(&ckt);
    let first = sim
        .transient(Method::ExponentialRosenbrock, &options, &[])
        .unwrap()
        .stats;
    assert!(first.avg_krylov_dimension() >= 25.0, "{first:?}");
    assert!(
        4 * first.krylov_residual_tests <= 3 * first.krylov_dimension_total,
        "{first:?}"
    );
    assert!(first.small_dense_exponentials >= first.krylov_residual_tests);
    assert!(first.dense_workspace_allocations > 0);
    // A prefix of the same run meets no dimension the first one did not.
    let prefix = TransientOptions {
        t_stop: 0.135e-9,
        ..options
    };
    let second = sim
        .transient(Method::ExponentialRosenbrock, &prefix, &[])
        .unwrap()
        .stats;
    assert!(second.krylov_residual_tests > 0, "{second:?}");
    assert_eq!(second.dense_workspace_allocations, 0, "{second:?}");
    assert_eq!(second.krylov_workspace_allocations, 0, "{second:?}");
}

/// The convergence-test schedule, gate shut: on a mesh with long vectors a
/// test never costs more than the iteration it might save, so every
/// dimension from 2 up is tested — one test per dimension built, less the
/// untested first of each subspace.
#[test]
fn long_vector_mesh_tests_every_dimension() {
    let ckt = rc_mesh(&RcMeshSpec {
        rows: 40,
        cols: 40,
        ..RcMeshSpec::default()
    })
    .unwrap();
    let options = TransientOptions {
        error_budget: 1e-3,
        ..quick_options(1.5e-10)
    };
    let s = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &options, &[])
        .unwrap()
        .stats;
    assert!(
        s.krylov_subspaces > 10 && s.peak_krylov_dimension > 10,
        "{s:?}"
    );
    assert_eq!(
        s.krylov_residual_tests,
        s.krylov_dimension_total - s.krylov_subspaces,
        "{s:?}"
    );
}

/// Determinism: the same seeded workload produces the same simulation result.
#[test]
fn seeded_workloads_are_reproducible() {
    let spec = CoupledLinesSpec {
        lines: 4,
        segments: 8,
        random_couplings: 50,
        ..CoupledLinesSpec::default()
    };
    let run = || {
        let ckt = coupled_lines(&spec).unwrap();
        let node = "l0_7";
        let r = Simulator::new(&ckt)
            .transient(
                Method::ExponentialRosenbrock,
                &quick_options(3e-10),
                &[node],
            )
            .unwrap();
        r.final_state
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() < 1e-12);
    }
}

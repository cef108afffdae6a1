//! Integration tests over the synthetic benchmark workloads: the Table-I
//! analogue circuits and the structural claims behind Fig. 1.

use exi_netlist::generators::{
    coupled_lines, power_grid, rc_ladder, rc_mesh, CoupledLinesSpec, PowerGridSpec, RcLadderSpec,
    RcMeshSpec,
};
use exi_sim::{Engine, Method, NullObserver, SimError, Simulator, StepOutcome, TransientOptions};
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
    let (gl, gu) = factor_fill(&eval.g, OrderingMethod::default()).unwrap();
    let (bl, bu) = factor_fill(&benr_matrix, OrderingMethod::default()).unwrap();
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
/// performs exactly one symbolic LU analysis (seeded by the DC solve) — and,
/// the grid being linear, no numeric factorization after it either: `G` never
/// changes, so the DC factor answers every step.
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
    assert!(s.lu_refactorizations <= s.newton_iterations, "{s:?}");
    // Every step that linearizes — that does not carry on with the kept
    // subspace — finds G unchanged, as does every DC iteration but the first.
    let linearizations = s.accepted_steps - s.krylov_subspace_reuses;
    assert_eq!(
        s.lu_reuses,
        linearizations + s.newton_iterations - s.lu_factorizations,
        "{s:?}"
    );
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
/// 0.96), a vector pool that a second run of the session finds stocked, the
/// folded step's budget of subspaces, and exponentials for fewer than two
/// in three tests: the tests that cannot pay are screened, and most of them
/// cannot pass.
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
    // Measured 19.8: the step's subspaces near 30, the estimator's, built to
    // a tenth of the error budget in volts, about half that.
    assert!(first.avg_krylov_dimension() >= 19.5, "{first:?}");
    assert!(
        4 * first.krylov_residual_tests <= 3 * first.krylov_dimension_total,
        "{first:?}"
    );
    // One subspace per step (the input term rides in the exponential's start
    // vector) and one per attempt's estimator.
    let attempts = first.accepted_steps + first.rejected_steps;
    assert!(first.krylov_subspaces <= 2 * attempts, "{first:?}");
    // Every test computed its exponential before the screen: 747 for 735
    // tests. Measured with it: 396, every count but the exponentials
    // unchanged.
    assert!(
        5 * first.small_dense_exponentials <= 3 * first.krylov_residual_tests,
        "{first:?}"
    );
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
    assert_eq!(second.krylov_workspace_allocations, 0, "{second:?}");
}

/// The convergence-test schedule, gate shut: on a mesh with long vectors a
/// test never costs more than the iteration it might save, so every
/// dimension from 2 up is tested — one test per dimension built, less the
/// untested first of each subspace. On top of those, one re-test per step
/// that asked the kept subspace to serve a later time.
#[test]
fn long_vector_mesh_tests_every_dimension() {
    let s = Simulator::new(&mesh_40())
        .transient(Method::ExponentialRosenbrock, &mesh_options(), &[])
        .unwrap()
        .stats;
    assert!(
        s.krylov_subspaces >= MESH_SEGMENTS && s.peak_krylov_dimension > 10,
        "{s:?}"
    );
    let while_building = s.krylov_dimension_total - s.krylov_subspaces;
    assert!(
        s.krylov_residual_tests >= while_building + s.krylov_subspace_reuses
            && s.krylov_residual_tests <= while_building + s.accepted_steps,
        "{s:?}"
    );
}

fn mesh_40() -> exi_netlist::Circuit {
    rc_mesh(&RcMeshSpec {
        rows: 40,
        cols: 40,
        ..RcMeshSpec::default()
    })
    .unwrap()
}

/// The ramp of the mesh's one source ends at 100 ps: two input segments.
const MESH_SEGMENTS: usize = 2;

fn mesh_options() -> TransientOptions {
    TransientOptions {
        error_budget: 1e-3,
        ..quick_options(1.5e-10)
    }
}

/// What an ER step redoes on a linear circuit: nothing that did not change.
/// No factorization after the DC solve (`G` is a constant), and per *input
/// segment* — not per step — at most two linearizations, each with its
/// `w₁`, `w₂` and `w₂′` solves and one subspace (the one built at `h_init`
/// and the one that then carries the segment); every other step only
/// re-tests the kept subspace. No estimator work at all. A second run of
/// the session finds the vector pool warm.
#[test]
fn linear_mesh_steps_redo_nothing_that_did_not_change() {
    let ckt = mesh_40();
    let options = mesh_options();
    for method in [
        Method::ExponentialRosenbrock,
        Method::ExponentialRosenbrockCorrected,
    ] {
        let mut sim = Simulator::new(&ckt);
        sim.dc().unwrap();
        let first = sim.transient(method, &options, &[]).unwrap().stats;
        assert!(first.accepted_steps >= 10, "{first:?}");
        assert_eq!(
            (first.symbolic_analyses, first.lu_refactorizations),
            (0, 0),
            "{first:?}"
        );
        assert_eq!(first.lu_reuses, first.device_evaluations, "{first:?}");
        assert_eq!(
            first.device_evaluations + first.krylov_subspace_reuses,
            first.accepted_steps,
            "{first:?}"
        );
        assert_eq!(first.rejected_steps, 0);
        assert_eq!(first.krylov_subspaces, first.device_evaluations);
        assert!(first.krylov_subspaces <= 2 * MESH_SEGMENTS, "{first:?}");
        assert!(
            first.linear_solves <= 3 * first.device_evaluations,
            "{first:?}"
        );
        assert!(
            first.krylov_subspace_reuses >= first.accepted_steps / 2,
            "{first:?}"
        );
        let second = sim.transient(method, &options, &[]).unwrap().stats;
        assert_eq!(second.krylov_subspaces, first.krylov_subspaces);
        assert_eq!(second.krylov_workspace_allocations, 0, "{second:?}");
    }
}

/// BENR on a linear circuit at a fixed step: `C/h + θG` has one value set per
/// distinct `h`, so it is factorized once per distinct `h` — the nominal
/// step, plus the clamped ones that land on a breakpoint or on `t_stop`.
#[test]
fn fixed_step_benr_factorizes_once_per_distinct_step_size() {
    let ckt = rc_ladder(&RcLadderSpec {
        segments: 6,
        ..RcLadderSpec::default()
    })
    .unwrap();
    let options = TransientOptions {
        t_stop: 4e-10,
        h_init: 1e-12,
        h_max: 1e-12,
        error_budget: 1.0, // the LTE control never rejects: h stays fixed
        ..TransientOptions::default()
    };
    let mut sim = Simulator::new(&ckt);
    sim.dc().unwrap();
    let mut stepper = sim.stepper(Method::BackwardEuler, &options).unwrap();
    let mut step_sizes = std::collections::BTreeSet::new();
    while let StepOutcome::Advanced { h, .. } = stepper.advance(&mut NullObserver).unwrap() {
        step_sizes.insert(h.to_bits());
    }
    let s = stepper.finish(&mut NullObserver);
    assert_eq!(s.rejected_steps, 0, "{s:?}");
    assert!(s.accepted_steps >= 300, "{s:?}");
    assert!(step_sizes.len() <= 3, "{step_sizes:?}");
    assert!(s.lu_factorizations <= 1 + step_sizes.len(), "{s:?}");
    assert_eq!(
        s.lu_factorizations + s.lu_reuses,
        s.newton_iterations,
        "{s:?}"
    );
    assert!(s.lu_reuses > s.accepted_steps, "{s:?}");
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

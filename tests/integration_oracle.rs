//! Oracle tests: answers that do not come from this code base.
//!
//! The golden fixtures and the differential suites prove the simulator agrees
//! with *itself* (across runs, worker counts, the wire). These tests
//! are the licence for a change that legitimately moves bits: closed-form
//! step responses, the textbook convergence orders of the implicit methods,
//! and the structural invariant of the stamping plan. The plan's values are
//! checked against calculus in `proptest_plan.rs`.

use exi_netlist::generators::{
    coupled_lines, inverter_chain, power_grid, rc_ladder, CoupledLinesSpec, InverterChainSpec,
    PowerGridSpec, RcLadderSpec,
};
use exi_netlist::{Circuit, DiodeModel, Waveform};
use exi_sim::{
    Engine, Method, Probe, RecordingObserver, RunStats, Simulator, TransientOptions,
    TransientResult,
};

/// The response of `ckt` (DC sources) released at `t = 0` from the state
/// `x0` instead of its operating point — a true step response, with no input
/// ramp to approximate the step.
fn step_response(
    ckt: &Circuit,
    method: Method,
    options: &TransientOptions,
    x0: &[f64],
) -> (TransientResult, RunStats) {
    let probe = Probe::new("out", ckt.unknown_of("out").unwrap());
    let mut observer = RecordingObserver::new(vec![probe], false);
    let mut sim = Simulator::new(ckt);
    let mut stepper = sim.stepper(method, options).unwrap();
    stepper.init(0.0, x0, &mut observer).unwrap();
    let stats = stepper.run_to_end(&mut observer).unwrap();
    (observer.into_result(), stats)
}

/// Largest error of the recorded waveform against `exact`, at the accepted
/// points themselves (no interpolation error mixed in).
fn max_error(result: &TransientResult, exact: impl Fn(f64) -> f64) -> f64 {
    result
        .waveform(0)
        .into_iter()
        .map(|(t, v)| (v - exact(t)).abs())
        .fold(0.0, f64::max)
}

const R: f64 = 1e3;
const C: f64 = 1e-12;
const TAU: f64 = R * C;

/// `1 V — R — out — C — gnd`, with the consistent initial state of an
/// uncharged capacitor: `v(out) = 1 − e^{−t/RC}`.
fn rc_step() -> (Circuit, Vec<f64>) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    let gnd = ckt.node("0");
    ckt.add_voltage_source("V1", vin, gnd, Waveform::Dc(1.0))
        .unwrap();
    ckt.add_resistor("R1", vin, out, R).unwrap();
    ckt.add_capacitor("C1", out, gnd, C).unwrap();
    let mut x0 = vec![0.0; ckt.num_unknowns()];
    x0[ckt.unknown_of("in").unwrap()] = 1.0;
    x0[ckt.num_nodes()] = -1.0 / R; // the source branch carries the charging current
    (ckt, x0)
}

fn rc_exact(t: f64) -> f64 {
    1.0 - (-t / TAU).exp()
}

const RS: f64 = 20.0;
const L: f64 = 1e-9;

/// `1 V — R — L — out — C — gnd`, underdamped, released with no current and
/// an uncharged capacitor:
/// `v(out) = 1 − e^{−αt}(cos ω_d t + (α/ω_d) sin ω_d t)`.
fn rlc_step() -> (Circuit, Vec<f64>) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    let out = ckt.node("out");
    let gnd = ckt.node("0");
    ckt.add_voltage_source("V1", vin, gnd, Waveform::Dc(1.0))
        .unwrap();
    ckt.add_resistor("R1", vin, mid, RS).unwrap();
    ckt.add_inductor("L1", mid, out, L).unwrap();
    ckt.add_capacitor("C1", out, gnd, C).unwrap();
    // No current flows yet, so there is no drop across the resistor.
    let mut x0 = vec![0.0; ckt.num_unknowns()];
    x0[ckt.unknown_of("in").unwrap()] = 1.0;
    x0[ckt.unknown_of("mid").unwrap()] = 1.0;
    (ckt, x0)
}

fn rlc_exact(t: f64) -> f64 {
    let alpha = RS / (2.0 * L);
    let omega_d = (1.0 / (L * C) - alpha * alpha).sqrt();
    1.0 - (-alpha * t).exp() * ((omega_d * t).cos() + alpha / omega_d * (omega_d * t).sin())
}

/// ER and ER-C are exact on linear circuits up to the Krylov tolerance, at
/// any step size; BE and TR stay within their accumulated local error
/// budget.
#[test]
fn closed_form_step_responses_for_all_methods() {
    type Case = (&'static str, (Circuit, Vec<f64>), fn(f64) -> f64, f64);
    let cases: [Case; 2] = [
        ("rc", rc_step(), rc_exact, 5.0 * TAU),
        ("rlc", rlc_step(), rlc_exact, 5e-10),
    ];
    for (name, (ckt, x0), exact, t_stop) in cases {
        let options = TransientOptions {
            t_stop,
            h_init: t_stop / 1e3,
            h_max: t_stop / 20.0,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        for method in Method::all() {
            let (result, stats) = step_response(&ckt, method, &options, &x0);
            let err = max_error(&result, exact);
            let bound = match method {
                Method::ExponentialRosenbrock | Method::ExponentialRosenbrockCorrected => {
                    // Exactness is what lets ER stride: it reaches h_max.
                    assert!(stats.accepted_steps < 40, "{name} {method}: {stats:?}");
                    10.0 * options.krylov_tolerance
                }
                // The budget bounds each step's local error; on these
                // dissipative circuits the global error is at most their sum.
                Method::BackwardEuler | Method::Trapezoidal => {
                    stats.accepted_steps as f64 * options.error_budget
                }
            };
            assert!(err < bound, "{name} {method}: max error {err:e}");
            assert!(
                result.len() > 10,
                "{name} {method}: {} points",
                result.len()
            );
        }
    }
}

/// A uniform RC ladder of `LADDER` nodes — `r` between neighbours and from
/// either end node to ground, `c` at every node — driven at node 1 by a
/// voltage ramp `u(t) = t/T` (then 1) applied through `r`. Its matrix is the
/// discrete Laplacian, whose modes are textbook: `λ_k = 2(1 − cos θ_k)/(rc)`,
/// `v_k[j] = √(2/(N+1))·sin(jθ_k)`, `θ_k = kπ/(N+1)`; each mode answers the
/// ramp like a single RC does. `r` is 1 Ω so that the residual the Krylov
/// tolerance bounds (Eq. 22 — a KCL residual, in amperes) reads in volts.
const LADDER: usize = 24;
const LADDER_R: f64 = 1.0;
const LADDER_C: f64 = 1e-11;

/// The two forms of the ladder's drive; one closed form answers both.
#[derive(Debug, Clone, Copy)]
enum LadderDrive {
    /// The current `u(t)/r` into node 1, `r` from node 1 to ground: `C` stays
    /// nonsingular.
    Norton,
    /// The voltage source itself, behind `r`: its node and its branch current
    /// are algebraic unknowns, `C` is singular.
    Voltage,
}

/// With `cut_off_diode`, a reverse-biased diode (no junction capacitance,
/// 1e-14 A of leakage) hangs on the middle node: it leaves the closed form
/// alone and gives the plan a nonlinear stamp, so ER linearizes every step.
fn ladder_ramp(ramp: f64, drive: LadderDrive, cut_off_diode: bool) -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = ckt.node("0");
    let nodes: Vec<_> = (1..=LADDER).map(|j| ckt.node(&format!("n{j}"))).collect();
    match drive {
        LadderDrive::Norton => {
            let current = Waveform::Pwl(vec![(0.0, 0.0), (ramp, 1.0 / LADDER_R)]);
            ckt.add_current_source("I1", gnd, nodes[0], current)
                .unwrap();
            ckt.add_resistor("Rin", nodes[0], gnd, LADDER_R).unwrap();
        }
        LadderDrive::Voltage => {
            let vin = ckt.node("in");
            let voltage = Waveform::Pwl(vec![(0.0, 0.0), (ramp, 1.0)]);
            ckt.add_voltage_source("V1", vin, gnd, voltage).unwrap();
            ckt.add_resistor("Rin", vin, nodes[0], LADDER_R).unwrap();
        }
    }
    ckt.add_resistor("Rend", nodes[LADDER - 1], gnd, LADDER_R)
        .unwrap();
    for (j, &n) in nodes.iter().enumerate() {
        ckt.add_capacitor(&format!("C{j}"), n, gnd, LADDER_C)
            .unwrap();
        if j > 0 {
            ckt.add_resistor(&format!("R{j}"), nodes[j - 1], n, LADDER_R)
                .unwrap();
        }
    }
    if cut_off_diode {
        let model = DiodeModel {
            junction_capacitance: 0.0,
            ..DiodeModel::default()
        };
        ckt.add_diode("D1", gnd, nodes[LADDER / 2 - 1], model)
            .unwrap();
    }
    ckt
}

/// `v(n_node)` at time `t`, mode by mode.
fn ladder_ramp_exact(ramp: f64, node: usize, t: f64) -> f64 {
    let big_n = (LADDER + 1) as f64;
    (1..=LADDER)
        .map(|k| {
            let theta = k as f64 * std::f64::consts::PI / big_n;
            let lambda = 2.0 * (1.0 - theta.cos()) / (LADDER_R * LADDER_C);
            let shape = |j: usize| (2.0 / big_n).sqrt() * (j as f64 * theta).sin();
            // y' = −λy + b·u(t), y(0) = 0.
            let b = shape(1) / (LADDER_R * LADDER_C);
            let on_ramp = |t: f64| b / (lambda * ramp) * (t - (1.0 - (-lambda * t).exp()) / lambda);
            let y = if t <= ramp {
                on_ramp(t)
            } else {
                b / lambda + (on_ramp(ramp) - b / lambda) * (-lambda * (t - ramp)).exp()
            };
            shape(node) * y
        })
        .sum()
}

fn ladder_ramp_options(ramp: f64) -> TransientOptions {
    TransientOptions {
        t_stop: 2.0 * ramp,
        h_init: ramp / 256.0,
        h_max: ramp / 8.0,
        error_budget: 1e-3,
        ..TransientOptions::default()
    }
}

/// The step responses above never move an input, so their `w₂` is zero. On a
/// ramp the input term carries the answer — and on a linear circuit ER keeps
/// one subspace, of the start vector `v₀ = w₁ + w₂′` folded at the ramp's
/// first step, for the whole ramp: each later step re-tests it at `τ + h`,
/// `τ` the time since that step, and reads `E(τ + h) = e^{(τ+h)J}·v₀` off it.
/// The closed form is what licenses that: ER and ER-C within the same 10×
/// Krylov tolerance as above, under both drives, with at least eight steps of
/// the ramp served by the kept subspace. At eight times as many steps per
/// ramp the bound is the same: the steps' errors telescope instead of adding
/// up. (Reading the kept subspace at `h` instead of `τ + h` fails it.)
#[test]
fn closed_form_ramp_response_with_a_kept_input_subspace() {
    let ramp = 1e-9;
    let (node, probe) = (LADDER / 2, format!("n{}", LADDER / 2));
    for drive in [LadderDrive::Norton, LadderDrive::Voltage] {
        let ckt = ladder_ramp(ramp, drive, false);
        for steps_per_ramp in [8.0, 64.0] {
            let options = TransientOptions {
                h_max: ramp / steps_per_ramp,
                ..ladder_ramp_options(ramp)
            };
            assert!(ladder_ramp_exact(ramp, node, options.t_stop) > 0.3);
            for method in [
                Method::ExponentialRosenbrock,
                Method::ExponentialRosenbrockCorrected,
            ] {
                let result = Simulator::new(&ckt)
                    .transient(method, &options, &[&probe])
                    .unwrap();
                let stats = &result.stats;
                let case = format!("{drive:?} h_max = ramp/{steps_per_ramp} {method}");
                let on_ramp = |t: &&f64| **t > 0.0 && **t <= ramp * (1.0 + 1e-9);
                let steps_on_ramp = result.times.iter().filter(on_ramp).count();
                assert!(steps_on_ramp >= 10, "{case}: {steps_on_ramp} steps");
                assert!(stats.krylov_subspace_reuses >= 8, "{case}: {stats:?}");
                // The subspaces are genuinely truncated: the re-test has work
                // to do.
                assert!(stats.peak_krylov_dimension < LADDER, "{case}: {stats:?}");
                let err = max_error(&result, |t| ladder_ramp_exact(ramp, node, t));
                assert!(
                    err < 10.0 * options.krylov_tolerance,
                    "{case}: max error {err:e}"
                );
            }
        }
    }
}

/// Every circuit above is linear and keeps `w₂`'s own subspace. One diode —
/// cut off, so the closed form stands — gives the plan a nonlinear stamp and
/// sends the same ramp through the step every nonlinear circuit takes: the
/// input term folded into the start vector of the step's one exponential,
/// `v = w₁ − G⁻¹C·w₂/h`. Same 10× Krylov tolerance, under both drives: the
/// voltage source puts a component of `w₂` in `null(C)`, which a φ₁
/// evaluation on `w₂` itself resolved to 1e-5 only.
#[test]
fn closed_form_ramp_response_with_the_input_term_folded_into_the_exponential() {
    let ramp = 1e-9;
    let (node, probe) = (LADDER / 2, format!("n{}", LADDER / 2));
    let options = ladder_ramp_options(ramp);
    for drive in [LadderDrive::Norton, LadderDrive::Voltage] {
        let ckt = ladder_ramp(ramp, drive, true);
        for method in [
            Method::ExponentialRosenbrock,
            Method::ExponentialRosenbrockCorrected,
        ] {
            let result = Simulator::new(&ckt)
                .transient(method, &options, &[&probe])
                .unwrap();
            let stats = &result.stats;
            let attempts = stats.accepted_steps + stats.rejected_steps;
            assert!(stats.accepted_steps >= 20, "{drive:?} {method}: {stats:?}");
            // Linearized every step, and no subspace beyond the step's own
            // and the estimator's.
            assert!(stats.device_evaluations > attempts, "{drive:?} {method}");
            assert_eq!(stats.krylov_subspace_reuses, 0, "{drive:?} {method}");
            assert!(
                stats.krylov_subspaces <= stats.accepted_steps + attempts,
                "{drive:?} {method}: {stats:?}"
            );
            let err = max_error(&result, |t| ladder_ramp_exact(ramp, node, t));
            assert!(
                err < 10.0 * options.krylov_tolerance,
                "{drive:?} {method}: max error {err:e}"
            );
        }
    }
}

/// Fixed-step global error against the closed form: halving `h` halves BE's
/// error and quarters TR's.
#[test]
fn implicit_methods_converge_at_their_textbook_order() {
    let (ckt, x0) = rc_step();
    for (method, order) in [(Method::BackwardEuler, 1.0), (Method::Trapezoidal, 2.0)] {
        let errors: Vec<f64> = [20.0, 40.0, 80.0]
            .into_iter()
            .map(|steps| {
                let h = TAU / steps;
                let options = TransientOptions {
                    t_stop: TAU,
                    h_init: h,
                    h_max: h,
                    error_budget: 1.0, // the LTE control never rejects: h stays fixed
                    ..TransientOptions::default()
                };
                let (result, stats) = step_response(&ckt, method, &options, &x0);
                assert_eq!(stats.rejected_steps, 0);
                (result.samples.last().unwrap()[0] - rc_exact(*result.times.last().unwrap())).abs()
            })
            .collect();
        for pair in errors.windows(2) {
            let slope = (pair[0] / pair[1]).log2();
            assert!(
                (slope - order).abs() < 0.1,
                "{method}: error {:e} -> {:e} is order {slope:.3}, expected {order}",
                pair[0],
                pair[1]
            );
        }
    }
}

/// The structural invariant of the stamping plan on the four generators: the
/// patterns of `G` and `C` are the same at every state and every constant
/// cell keeps its compiled bits. A cell only nonlinear slots write (no
/// compiled constant) exists exactly when the circuit has nonlinear devices,
/// and reads an exact zero when no device stamps into it (x = 0, every
/// MOSFET in cut-off); every other cell holds a nonzero constant.
#[test]
fn plan_pattern_is_fixed_and_unstamped_slots_are_explicit_zeros() {
    let generators: [(&str, Circuit); 4] = [
        (
            "rc_ladder",
            rc_ladder(&RcLadderSpec {
                segments: 6,
                ..RcLadderSpec::default()
            })
            .unwrap(),
        ),
        (
            "inverter_chain",
            inverter_chain(&InverterChainSpec {
                stages: 3,
                ..InverterChainSpec::default()
            })
            .unwrap(),
        ),
        (
            "power_grid",
            power_grid(&PowerGridSpec {
                rows: 4,
                cols: 4,
                num_sinks: 3,
                ..PowerGridSpec::default()
            })
            .unwrap(),
        ),
        (
            "coupled_lines",
            coupled_lines(&CoupledLinesSpec {
                lines: 3,
                segments: 4,
                random_couplings: 5,
                ..CoupledLinesSpec::default()
            })
            .unwrap(),
        ),
    ];
    for (name, ckt) in generators {
        let plan = ckt.compile_plan().unwrap();
        let n = ckt.num_unknowns();
        let nonlinear = ckt.num_nonlinear_devices() > 0;
        assert_eq!(plan.nonlinear_stamp_count() > 0, nonlinear, "{name}");
        let constants = plan.new_evaluation();
        let is_slot = |k: usize| plan.nonlinear_cells().binary_search(&k).is_ok();
        let slot_only: Vec<usize> = (0..constants.g.nnz())
            .filter(|&k| is_slot(k) && constants.g.values()[k] == 0.0)
            .collect();
        assert_eq!(!slot_only.is_empty(), nonlinear, "{name}: {slot_only:?}");
        assert!(
            (0..constants.g.nnz()).all(|k| is_slot(k) || constants.g.values()[k] != 0.0),
            "{name}: a constant cell holds 0.0"
        );
        let mut ws = plan.new_workspace();
        let mut ev = plan.new_evaluation();
        // x = 0 (every MOSFET in cut-off), then states scattered across the
        // cut-off / triode / saturation boundaries.
        let mut lcg = 0x9e37_79b9_7f4a_7c15_u64;
        let mut states = vec![vec![0.0; n]];
        for _ in 0..8 {
            states.push(
                (0..n)
                    .map(|_| {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (lcg >> 11) as f64 / (1u64 << 53) as f64 * 3.0 - 1.5
                    })
                    .collect(),
            );
        }
        for (s, x) in states.iter().enumerate() {
            plan.evaluate_into(x, &mut ws, &mut ev).unwrap();
            for (m, fixed) in [(&ev.g, &constants.g), (&ev.c, &constants.c)] {
                assert_eq!(m.indptr(), fixed.indptr(), "{name}: pattern moved");
                assert_eq!(m.indices(), fixed.indices(), "{name}: pattern moved");
            }
            for k in (0..ev.g.nnz()).filter(|&k| !is_slot(k)) {
                let (v, c) = (ev.g.values()[k], constants.g.values()[k]);
                assert_eq!(v.to_bits(), c.to_bits(), "{name}: constant cell {k}");
            }
            if s == 0 {
                assert!(slot_only.iter().all(|&k| ev.g.values()[k] == 0.0), "{name}");
            }
        }
        assert_eq!(ws.allocations(), 0, "{name}");
    }
}

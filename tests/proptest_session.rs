//! Property-based tests for the `Simulator` session API: on any randomly
//! generated fixed-topology circuit, consecutive runs share exactly one
//! symbolic LU analysis and cache reuse never changes the waveform.

use exi_netlist::{Circuit, Waveform};
use exi_sim::{Engine, Method, RecordingObserver, Simulator, TransientOptions};
use proptest::prelude::*;

/// Builds an RC ladder `in -R- n1 -R- … -R- out` with a capacitor to ground
/// at every internal node, driven by a PWL ramp of duration `ramp`.
fn rc_ladder(resistors: &[f64], caps: &[f64], ramp: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = ckt.node("0");
    let vin = ckt.node("in");
    ckt.add_voltage_source("V1", vin, gnd, Waveform::Pwl(vec![(0.0, 0.0), (ramp, 1.0)]))
        .unwrap();
    let mut prev = vin;
    for (k, (&r, &c)) in resistors.iter().zip(caps.iter()).enumerate() {
        let name = if k + 1 == resistors.len() {
            "out".to_string()
        } else {
            format!("n{k}")
        };
        let node = ckt.node(&name);
        ckt.add_resistor(&format!("R{k}"), prev, node, r).unwrap();
        ckt.add_capacitor(&format!("C{k}"), node, gnd, c).unwrap();
        prev = node;
    }
    ckt
}

/// Strategy: ladder length plus per-segment resistor and capacitor values.
fn ladder_values() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (2usize..6).prop_flat_map(|n| {
        (
            proptest::collection::vec(100.0f64..10_000.0, n),
            proptest::collection::vec(1e-13f64..1e-12, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite acceptance property: `Simulator::transient` run twice on the
    /// same topology reports exactly one symbolic analysis for the whole
    /// session, and the cached second run reproduces the first bit-for-bit.
    #[test]
    fn two_session_runs_share_one_symbolic_analysis((rs, cs) in ladder_values()) {
        let ckt = rc_ladder(&rs, &cs, 1e-11);
        let options = TransientOptions {
            t_stop: 1e-9,
            h_init: 1e-12,
            h_max: 5e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let mut sim = Simulator::new(&ckt);
        let first = sim
            .transient(Method::ExponentialRosenbrock, &options, &["out"])
            .unwrap();
        let second = sim
            .transient(Method::ExponentialRosenbrock, &options, &["out"])
            .unwrap();
        // One symbolic analysis for the whole session: the first run pays it
        // (seeded by the DC solve), the second reuses it.
        prop_assert_eq!(first.stats.symbolic_analyses, 1);
        prop_assert_eq!(second.stats.symbolic_analyses, 0);
        prop_assert_eq!(sim.session_stats().symbolic_analyses, 1);
        // ... and, the ladder being linear, factorizes nothing at all: the
        // factor the first run left behind is the factor of the G of every
        // step that linearizes.
        prop_assert_eq!(second.stats.lu_factorizations, 0);
        prop_assert_eq!(second.stats.lu_reuses, second.stats.device_evaluations);
        // Cache reuse is invisible in the numbers.
        prop_assert_eq!(&first.times, &second.times);
        prop_assert_eq!(&first.samples, &second.samples);
        prop_assert_eq!(&first.final_state, &second.final_state);
    }

    /// Pausing anywhere — the middle of the input ramp included, where the
    /// stepper is holding the `w₂` subspace it keeps from step to step on a
    /// linear circuit — and resuming is invisible: same points, same bits,
    /// same work, for ER and ER-C.
    #[test]
    fn pause_and_resume_is_bit_identical_on_linear_ladders(
        (rs, cs) in ladder_values(),
        ramp in 2e-11f64..3e-10,
        pause_at in 0.05f64..0.95,
        corrected in 0usize..2,
    ) {
        // A slow ramp: several steps share one input segment.
        let ckt = rc_ladder(&rs, &cs, ramp);
        let method = if corrected == 1 {
            Method::ExponentialRosenbrockCorrected
        } else {
            Method::ExponentialRosenbrock
        };
        let options = TransientOptions {
            t_stop: 4e-10,
            h_init: 1e-12,
            h_max: 5e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let mut whole = RecordingObserver::new(Vec::new(), true);
        let whole_stats = Simulator::new(&ckt)
            .transient_observed(method, &options, &mut whole)
            .unwrap();
        prop_assert!(whole_stats.krylov_subspace_reuses > 0, "{:?}", whole_stats);

        let mut parts = RecordingObserver::new(Vec::new(), true);
        let mut sim = Simulator::new(&ckt);
        let mut stepper = sim.stepper(method, &options).unwrap();
        stepper.run_until(pause_at * options.t_stop, &mut parts).unwrap();
        let mut stats = stepper.run_to_end(&mut parts).unwrap();
        let (whole, parts) = (whole.into_result(), parts.into_result());
        prop_assert_eq!(&whole.times, &parts.times);
        prop_assert_eq!(&whole.full_states, &parts.full_states);
        prop_assert_eq!(&whole.final_state, &parts.final_state);
        stats.resumed_runs = 0;
        stats.runtime = whole_stats.runtime;
        prop_assert_eq!(stats, whole_stats);
    }

    /// The implicit baseline amortizes the same way: its `C/h + G` symbolic
    /// analysis survives across runs, so a second BENR run adds none.
    #[test]
    fn benr_session_runs_reuse_the_jacobian_analysis((rs, cs) in ladder_values()) {
        let ckt = rc_ladder(&rs, &cs, 1e-11);
        let options = TransientOptions {
            t_stop: 4e-10,
            h_init: 1e-12,
            h_max: 5e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let mut sim = Simulator::new(&ckt);
        let first = sim
            .transient(Method::BackwardEuler, &options, &["out"])
            .unwrap();
        let second = sim
            .transient(Method::BackwardEuler, &options, &["out"])
            .unwrap();
        // First run: one analysis of G (DC) plus one of C/h + G.
        prop_assert!(first.stats.symbolic_analyses <= 2);
        prop_assert_eq!(second.stats.symbolic_analyses, 0);
        prop_assert_eq!(&first.times, &second.times);
        prop_assert_eq!(&first.samples, &second.samples);
    }
}

//! Integration tests for the `Simulator` session API: pause/resume
//! bit-identity, cross-run cache reuse, streaming observers and interleaved
//! co-simulation.

use exi_netlist::generators::{
    inverter_chain, power_grid, rc_mesh, InverterChainSpec, PowerGridSpec, RcMeshSpec,
};
use exi_netlist::{Circuit, Waveform};
use exi_sim::{
    Engine, Method, NullObserver, Probe, RecordingObserver, RunStats, Simulator, StepOutcome,
    StreamingObserver, TransientOptions,
};

fn grid_circuit() -> Circuit {
    power_grid(&PowerGridSpec {
        rows: 8,
        cols: 8,
        num_sinks: 8,
        ..PowerGridSpec::default()
    })
    .unwrap()
}

fn grid_options() -> TransientOptions {
    TransientOptions {
        t_stop: 2e-9,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 2e-3,
        ..TransientOptions::default()
    }
}

/// Acceptance bar: a paused-then-resumed ER run is bit-identical to an
/// uninterrupted one — every accepted time point, every sample and the final
/// state.
#[test]
fn paused_and_resumed_er_run_is_bit_identical() {
    let ckt = grid_circuit();
    let options = grid_options();

    let uninterrupted = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &options, &["g_4_4"])
        .unwrap();

    let mut sim = Simulator::new(&ckt);
    let probes = vec![Probe::new("g_4_4", ckt.unknown_of("g_4_4").unwrap())];
    let mut observer = RecordingObserver::new(probes, false);
    let stats = {
        let mut stepper = sim
            .stepper(Method::ExponentialRosenbrock, &options)
            .unwrap();
        stepper.start(&mut observer).unwrap();
        // Pause twice along the way; inspect the stepper at each pause point.
        for t_pause in [0.4e-9, 1.2e-9] {
            let outcome = stepper.run_until(t_pause, &mut observer).unwrap();
            assert!(
                matches!(outcome, StepOutcome::Paused { .. }),
                "expected a pause at {t_pause:e}, got {outcome:?}"
            );
            assert!(stepper.time() >= t_pause * (1.0 - 1e-9));
            assert!(stepper.state().iter().all(|v| v.is_finite()));
            assert!(!stepper.is_finished());
        }
        // Final resume through run_to_end — it counts as a resume too.
        stepper.run_to_end(&mut observer).unwrap()
    };
    let resumed = observer.into_result();

    assert_eq!(stats.resumed_runs, 2, "{stats:?}");
    assert_eq!(uninterrupted.times, resumed.times);
    assert_eq!(uninterrupted.samples, resumed.samples);
    assert_eq!(uninterrupted.final_state, resumed.final_state);
    // The callbacks were counted: one on_dc + one per accepted/rejected step
    // + one on_finish.
    assert_eq!(
        stats.observer_callbacks,
        2 + stats.accepted_steps + stats.rejected_steps,
        "{stats:?}"
    );
}

/// Runs `method` uninterrupted and again with a pause at each of `pauses`
/// (all before `ramp_end`, inside one linear piece of the input), asserts the
/// resumed run is the uninterrupted one — bit for bit, counter for counter —
/// and returns the counters.
fn paused_mid_ramp_matches_uninterrupted(
    ckt: &Circuit,
    options: &TransientOptions,
    probe: &str,
    method: Method,
    pauses: [f64; 2],
    ramp_end: f64,
) -> RunStats {
    let uninterrupted = Simulator::new(ckt)
        .transient(method, options, &[probe])
        .unwrap();

    let mut sim = Simulator::new(ckt);
    let probes = vec![Probe::new(probe, ckt.unknown_of(probe).unwrap())];
    let mut observer = RecordingObserver::new(probes, false);
    let mut stepper = sim.stepper(method, options).unwrap();
    for t_pause in pauses {
        let outcome = stepper.run_until(t_pause, &mut observer).unwrap();
        assert!(matches!(outcome, StepOutcome::Paused { .. }), "{outcome:?}");
        assert!(stepper.time() < ramp_end);
    }
    let mut stats = stepper.run_to_end(&mut observer).unwrap();
    let resumed = observer.into_result();
    assert_eq!(uninterrupted.times, resumed.times, "{method}");
    assert_eq!(uninterrupted.samples, resumed.samples, "{method}");
    assert_eq!(uninterrupted.final_state, resumed.final_state, "{method}");
    assert_eq!(stats.resumed_runs, 2);
    stats.resumed_runs = 0;
    stats.runtime = uninterrupted.stats.runtime;
    assert_eq!(stats, uninterrupted.stats, "{method}");
    uninterrupted.stats
}

/// The same bar with the kept input subspace in play: on a linear mesh the
/// `w₂` subspace outlives the step that built it, so a pause in the middle of
/// the input ramp parks a stepper that is holding one. It is engine state
/// like `x` and `h`: the resumed run is the uninterrupted run, bit for bit
/// and counter for counter, for ER and ER-C.
#[test]
fn pause_in_mid_segment_keeps_the_input_subspace_and_every_bit() {
    let ckt = rc_mesh(&RcMeshSpec::default()).unwrap();
    let options = TransientOptions {
        t_stop: 1.5e-10,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 1e-3,
        ..TransientOptions::default()
    };
    for method in [
        Method::ExponentialRosenbrock,
        Method::ExponentialRosenbrockCorrected,
    ] {
        // Both pauses fall inside the 100 ps ramp, between steps that share
        // one subspace.
        let stats = paused_mid_ramp_matches_uninterrupted(
            &ckt,
            &options,
            "m_15_15",
            method,
            [2e-11, 6e-11],
            1e-10,
        );
        assert!(stats.krylov_subspace_reuses >= 4, "{method}: {stats:?}");
    }
}

/// And with the input term folded into the step's exponential: on a nonlinear
/// circuit every step of the ramp rebuilds `w₂`, `v` and the subspace of `v`
/// from the state alone, so a stepper parked in mid-ramp carries nothing a
/// resume could lose.
#[test]
fn pause_in_mid_ramp_of_a_folded_input_term_keeps_every_bit() {
    let ckt = inverter_chain(&InverterChainSpec {
        stages: 3,
        input: Waveform::single_pulse(0.0, 1.0, 2e-11, 1e-10, 1e-10, 1e-10),
        ..InverterChainSpec::default()
    })
    .unwrap();
    let options = TransientOptions {
        t_stop: 2.5e-10,
        h_init: 1e-12,
        h_max: 1e-11,
        error_budget: 5e-3,
        ..TransientOptions::default()
    };
    for method in [
        Method::ExponentialRosenbrock,
        Method::ExponentialRosenbrockCorrected,
    ] {
        // Both pauses fall inside the rising ramp, 20 ps to 120 ps.
        let stats = paused_mid_ramp_matches_uninterrupted(
            &ckt,
            &options,
            "s3",
            method,
            [5e-11, 9e-11],
            1.2e-10,
        );
        assert_eq!(stats.krylov_subspace_reuses, 0, "{method}: {stats:?}");
        // One subspace per step, one per attempt's estimator.
        assert!(
            stats.krylov_subspaces <= 2 * (stats.accepted_steps + stats.rejected_steps),
            "{method}: {stats:?}"
        );
    }
}

/// Cross-run reuse: two consecutive transient runs on an unchanged topology
/// perform exactly one symbolic analysis in total, and produce bit-identical
/// waveforms.
#[test]
fn consecutive_runs_share_one_symbolic_analysis() {
    let ckt = grid_circuit();
    let options = grid_options();
    let mut sim = Simulator::new(&ckt);
    let first = sim
        .transient(Method::ExponentialRosenbrock, &options, &["g_4_4"])
        .unwrap();
    let second = sim
        .transient(Method::ExponentialRosenbrock, &options, &["g_4_4"])
        .unwrap();
    // Per-run: the first run pays the single symbolic analysis (seeded by the
    // DC solve), the second reuses it outright.
    assert_eq!(first.stats.symbolic_analyses, 1, "{:?}", first.stats);
    assert_eq!(second.stats.symbolic_analyses, 0, "{:?}", second.stats);
    // The second run skipped the DC solve entirely.
    assert_eq!(second.stats.newton_iterations, 0, "{:?}", second.stats);
    // Session totals: exactly one symbolic analysis over both runs.
    assert_eq!(sim.session_stats().symbolic_analyses, 1);
    assert_eq!(sim.completed_runs(), 2);
    // Determinism: cache reuse does not change the waveform.
    assert_eq!(first.times, second.times);
    assert_eq!(first.samples, second.samples);
    assert_eq!(first.final_state, second.final_state);
}

/// Calling `dc()` before any transient still counts the DC solve's symbolic
/// analysis into the session totals exactly once.
#[test]
fn dc_first_session_still_counts_the_symbolic_analysis() {
    let ckt = grid_circuit();
    let mut sim = Simulator::new(&ckt);
    let dc = sim.dc().unwrap();
    assert!(dc.state.iter().all(|v| v.is_finite()));
    assert_eq!(sim.session_stats().symbolic_analyses, 1);
    sim.transient(Method::ExponentialRosenbrock, &grid_options(), &[])
        .unwrap();
    // The transient reused the cached DC solution and its symbolic analysis.
    assert_eq!(sim.session_stats().symbolic_analyses, 1);
    assert_eq!(sim.completed_runs(), 1);
}

/// A run that errors out mid-way still enters the session totals (its cache
/// mutations persist), but does not count as completed.
#[test]
fn failed_run_still_enters_session_totals() {
    let ckt = inverter_chain(&InverterChainSpec {
        stages: 1,
        ..InverterChainSpec::default()
    })
    .unwrap();
    let options = TransientOptions {
        t_stop: 1e-9,
        h_init: 1e-12,
        h_min: 1e-12,
        // Impossible error budget forces endless rejections.
        error_budget: 1e-30,
        ..TransientOptions::default()
    };
    let mut sim = Simulator::new(&ckt);
    let err = sim
        .transient(Method::ExponentialRosenbrock, &options, &[])
        .unwrap_err();
    assert!(matches!(err, exi_sim::SimError::StepSizeUnderflow { .. }));
    assert_eq!(sim.completed_runs(), 0);
    // The DC solve and the aborted run's factorizations are all accounted.
    let totals = sim.session_stats();
    assert!(totals.symbolic_analyses >= 1, "{totals:?}");
    assert!(totals.lu_factorizations >= 1, "{totals:?}");
    assert!(totals.rejected_steps > 0, "{totals:?}");
}

/// Requesting a different fill-reducing ordering drops the caches, so an
/// ordering sweep actually measures each ordering instead of silently
/// refactorizing with the first one.
#[test]
fn ordering_change_triggers_a_fresh_symbolic_analysis() {
    let ckt = grid_circuit();
    let mut sim = Simulator::new(&ckt);
    let rcm = TransientOptions {
        ordering: exi_sparse::OrderingMethod::Rcm,
        ..grid_options()
    };
    let mindeg = TransientOptions {
        ordering: exi_sparse::OrderingMethod::MinDegree,
        ..grid_options()
    };
    let first = sim
        .transient(Method::ExponentialRosenbrock, &rcm, &["g_4_4"])
        .unwrap();
    let second = sim
        .transient(Method::ExponentialRosenbrock, &mindeg, &["g_4_4"])
        .unwrap();
    let third = sim
        .transient(Method::ExponentialRosenbrock, &mindeg, &["g_4_4"])
        .unwrap();
    // The ordering change invalidates the caches: the second run pays for its
    // own symbolic analysis (and DC solve); the third reuses the second's.
    assert_eq!(first.stats.symbolic_analyses, 1, "{:?}", first.stats);
    assert_eq!(second.stats.symbolic_analyses, 1, "{:?}", second.stats);
    assert!(second.stats.newton_iterations > 0, "{:?}", second.stats);
    assert_eq!(third.stats.symbolic_analyses, 0, "{:?}", third.stats);
    assert_eq!(sim.session_stats().symbolic_analyses, 2);
    // The min-degree run matches a throwaway session with the same ordering.
    let solo = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &mindeg, &["g_4_4"])
        .unwrap();
    assert_eq!(solo.times, second.times);
    assert_eq!(solo.samples, second.samples);
}

/// Counts the `on_dc` events of a run and keeps the last starting point.
#[derive(Default)]
struct DcEvents {
    count: usize,
    x0: Vec<f64>,
}

impl exi_sim::Observer for DcEvents {
    fn on_dc(&mut self, _t0: f64, x0: &[f64]) {
        self.count += 1;
        self.x0 = x0.to_vec();
    }
}

/// `Engine::init` rejects an `x0` of the wrong length on every engine, and
/// leaves the session stepper's lazy start in place: the next advance still
/// starts at the DC operating point, announcing it once.
#[test]
fn a_short_initial_state_is_rejected_and_the_dc_start_survives() {
    let ckt = grid_circuit();
    let options = grid_options();
    let dc = Simulator::new(&ckt).dc().unwrap().state;
    for method in Method::all() {
        let mut sim = Simulator::new(&ckt);
        let mut stepper = sim.stepper(method, &options).unwrap();
        let mut events = DcEvents::default();
        let err = stepper
            .init(0.0, &dc[1..], &mut events)
            .expect_err("a short x0");
        assert!(
            matches!(&err, exi_sim::SimError::InvalidOptions { message }
                if message.contains(&format!("{} entries", dc.len() - 1))),
            "{method}: {err}"
        );
        assert_eq!(events.count, 0, "{method}");
        let outcome = stepper.advance(&mut events).unwrap();
        assert!(matches!(outcome, StepOutcome::Advanced { .. }), "{method}");
        assert_eq!(events.count, 1, "{method}");
        assert_eq!(events.x0, dc, "{method}");
    }
}

/// A method sweep on one session shares the DC solution and workspaces; the
/// results match per-method throwaway sessions bit-for-bit.
#[test]
fn sweep_matches_individual_sessions() {
    let ckt = inverter_chain(&InverterChainSpec {
        stages: 2,
        ..InverterChainSpec::default()
    })
    .unwrap();
    let options = TransientOptions {
        t_stop: 2e-10,
        h_init: 2e-12,
        h_max: 1e-11,
        error_budget: 1e-2,
        ..TransientOptions::default()
    };
    let mut sim = Simulator::new(&ckt);
    let swept: Vec<_> = Method::all()
        .into_iter()
        .map(|method| sim.transient(method, &options, &["s2"]).unwrap())
        .collect();
    assert_eq!(swept.len(), 4);
    assert_eq!(sim.completed_runs(), 4);
    for (method, result) in Method::all().into_iter().zip(&swept) {
        let solo = Simulator::new(&ckt)
            .transient(method, &options, &["s2"])
            .unwrap();
        assert_eq!(solo.times, result.times, "{method}");
        assert_eq!(solo.samples, result.samples, "{method}");
    }
}

/// The streaming observer keeps a bounded, decimated waveform of an
/// arbitrarily long run, and the null observer records nothing while the
/// solver statistics stay identical.
#[test]
fn streaming_and_null_observers() {
    let ckt = grid_circuit();
    let options = grid_options();
    let mut sim = Simulator::new(&ckt);

    let full = sim
        .transient(Method::ExponentialRosenbrock, &options, &["g_4_4"])
        .unwrap();

    let probes = vec![Probe::new("g_4_4", ckt.unknown_of("g_4_4").unwrap())];
    let capacity = 16;
    let mut streaming = StreamingObserver::new(probes, capacity);
    let streamed_stats = sim
        .transient_observed(Method::ExponentialRosenbrock, &options, &mut streaming)
        .unwrap();
    assert!(streaming.len() <= capacity);
    assert_eq!(streaming.observed(), full.len());
    // Every retained point is an exact sample of the full waveform.
    let p = full.probe_index("g_4_4").unwrap();
    let wf = streaming.waveform(0);
    assert!(!wf.is_empty());
    for &(t, v) in &wf {
        let k = full.times.iter().position(|&ft| ft == t).unwrap();
        assert_eq!(full.samples[k][p], v);
    }

    let null_stats = sim
        .transient_observed(Method::ExponentialRosenbrock, &options, &mut NullObserver)
        .unwrap();
    // Identical solver work, independent of the observer.
    assert_eq!(streamed_stats.accepted_steps, null_stats.accepted_steps);
    assert_eq!(streamed_stats.linear_solves, null_stats.linear_solves);
    assert_eq!(
        streamed_stats.observer_callbacks,
        null_stats.observer_callbacks
    );
}

/// Interleaved co-simulation: two circuits advance in lockstep through their
/// own sessions, and each produces the same waveform as a dedicated
/// uninterrupted run.
#[test]
fn interleaved_co_simulation_matches_solo_runs() {
    let ckt_a = grid_circuit();
    let ckt_b = inverter_chain(&InverterChainSpec {
        stages: 2,
        ..InverterChainSpec::default()
    })
    .unwrap();
    let options_a = grid_options();
    let options_b = TransientOptions {
        t_stop: 2e-10,
        h_init: 2e-12,
        h_max: 1e-11,
        error_budget: 1e-2,
        ..TransientOptions::default()
    };

    let solo_a = Simulator::new(&ckt_a)
        .transient(Method::ExponentialRosenbrock, &options_a, &[])
        .unwrap();
    let solo_b = Simulator::new(&ckt_b)
        .transient(Method::BackwardEuler, &options_b, &[])
        .unwrap();

    let mut sim_a = Simulator::new(&ckt_a);
    let mut sim_b = Simulator::new(&ckt_b);
    let mut obs_a = RecordingObserver::new(Vec::new(), false);
    let mut obs_b = RecordingObserver::new(Vec::new(), false);
    let mut stepper_a = sim_a
        .stepper(Method::ExponentialRosenbrock, &options_a)
        .unwrap();
    let mut stepper_b = sim_b.stepper(Method::BackwardEuler, &options_b).unwrap();
    // Round-robin: one accepted step of each circuit per iteration (the
    // steppers auto-initialize on the first advance).
    loop {
        let a = stepper_a.advance(&mut obs_a).unwrap();
        let b = stepper_b.advance(&mut obs_b).unwrap();
        if a == StepOutcome::Finished && b == StepOutcome::Finished {
            break;
        }
    }
    stepper_a.finish(&mut obs_a);
    stepper_b.finish(&mut obs_b);

    let co_a = obs_a.into_result();
    let co_b = obs_b.into_result();
    assert_eq!(solo_a.times, co_a.times);
    assert_eq!(solo_a.final_state, co_a.final_state);
    assert_eq!(solo_b.times, co_b.times);
    assert_eq!(solo_b.final_state, co_b.final_state);
}

/// A breakpoint closer than `h_min` counts as reached: a step that starts
/// 6e-19 s before a PWL corner (far inside `h_min` = 1e-16, far outside the
/// breakpoint guard of `1e-12·t_stop`) clamps against the next breakpoint
/// instead of failing with `StepSizeUnderflow`, on every engine, and the
/// step across the corner sees the segment after it. The first step starts
/// inside the held segment, so ER carries a kept input term of the hold up
/// to the sliver; the state after the crossing step is checked against the
/// RC's closed-form ramp response.
#[test]
fn a_breakpoint_sliver_does_not_fail_the_step() {
    let (corner, slope, tau) = (1e-10, 5e9, 1e-10);
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    let gnd = ckt.node("0");
    ckt.add_voltage_source(
        "Vin",
        vin,
        gnd,
        Waveform::Pwl(vec![(0.0, 0.0), (corner, 0.0), (3e-10, 1.0)]),
    )
    .unwrap();
    ckt.add_resistor("R1", vin, out, 1e3).unwrap();
    ckt.add_capacitor("C1", out, gnd, 1e-13).unwrap();
    let (i_in, i_out) = (
        ckt.unknown_of("in").unwrap(),
        ckt.unknown_of("out").unwrap(),
    );
    let h_first = 1e-11;
    let options = TransientOptions {
        t_stop: 5e-10,
        h_init: h_first,
        h_max: 2e-11,
        h_min: 1e-16,
        error_budget: 1e-3,
        ..TransientOptions::default()
    };
    let sliver = corner - 6e-19;
    assert!(corner - sliver > 1e-12 * options.t_stop);
    let x0 = Simulator::new(&ckt).dc().unwrap().state;
    for method in Method::all() {
        let mut sim = Simulator::new(&ckt);
        let mut stepper = sim.stepper(method, &options).unwrap();
        stepper
            .init(sliver - h_first, &x0, &mut NullObserver)
            .unwrap();
        stepper.advance(&mut NullObserver).unwrap();
        assert_eq!(stepper.time(), sliver, "{method}");
        let (t, h) = match stepper.advance(&mut NullObserver) {
            Ok(StepOutcome::Advanced { t, h }) => (t, h),
            other => panic!("{method}: {other:?}"),
        };
        assert!(t > corner, "{method}: t = {t:e}");
        assert!(h >= options.h_min, "{method}: h = {h:e}");
        let x = stepper.state();
        let ramp = t - corner;
        assert!(
            (x[i_in] - slope * ramp).abs() <= 1e-9,
            "{method}: v(in) = {:e}",
            x[i_in]
        );
        if matches!(
            method,
            Method::ExponentialRosenbrock | Method::ExponentialRosenbrockCorrected
        ) {
            // Linear circuit: no estimator, the only error is Krylov's. A
            // step that kept the hold's input term would leave v(out) at 0.
            let exact = slope * (ramp - tau * (1.0 - (-ramp / tau).exp()));
            assert!(exact > 1e-3);
            let rel = (x[i_out] - exact).abs() / exact;
            assert!(
                rel <= options.error_budget,
                "{method}: v(out) = {:e} against {exact:e}",
                x[i_out]
            );
        }
    }
}

/// A run whose steps end less than `h_min` short of `t_stop` has reached
/// it. Started 6e-19 s before a PWL corner, TRNR's steps sum to 5.7e-19 s
/// short of `t_stop` (far inside `h_min` = 1e-16, far outside the
/// `1e-12·t_stop` guard): the run finishes there, on every engine, instead
/// of failing with a last step below `h_min`.
#[test]
fn a_run_that_ends_a_hair_short_of_t_stop_finishes() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    let gnd = ckt.node("0");
    ckt.add_voltage_source(
        "Vin",
        vin,
        gnd,
        Waveform::Pwl(vec![(0.0, 0.0), (1e-10, 1.0), (3e-10, 0.5)]),
    )
    .unwrap();
    ckt.add_resistor("R1", vin, out, 1e3).unwrap();
    ckt.add_capacitor("C1", out, gnd, 1e-13).unwrap();
    let options = TransientOptions {
        t_stop: 5e-10,
        h_max: 2e-11,
        h_min: 1e-16,
        ..TransientOptions::default()
    };
    let x0 = Simulator::new(&ckt).dc().unwrap().state;
    for method in Method::all() {
        let mut sim = Simulator::new(&ckt);
        let mut stepper = sim.stepper(method, &options).unwrap();
        stepper.init(1e-10 - 6e-19, &x0, &mut NullObserver).unwrap();
        let stats = stepper
            .run_to_end(&mut NullObserver)
            .unwrap_or_else(|e| panic!("{method}: {e}"));
        assert!(stats.accepted_steps > 0, "{method}");
        assert!(stepper.is_finished(), "{method}");
        let short = options.t_stop - stepper.time();
        assert!(short < options.h_min, "{method}: {short:e} short of t_stop");
    }
}

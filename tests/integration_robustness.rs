//! Robustness regression suite (PR 6).
//!
//! Pathological circuits and decks must fail with *named*, non-panicking
//! diagnostics; cancellable batch jobs must stop at a step boundary with a
//! bit-exact partial prefix; a panicking `BatchObserver` must not take the
//! batch down with it; and a failed transient run must surface its own
//! error, never another method's waveform.

use std::time::Duration;

use exi_netlist::generators::{inverter_chain, rc_ladder, InverterChainSpec, RcLadderSpec};
use exi_netlist::{parse_deck, Circuit, NetlistError, Waveform};
use exi_sim::{
    BatchJob, BatchObserver, BatchPlan, BatchRunner, CancelReason, CancelToken, Engine, JobError,
    JobOutcome, JobOutput, Method, RecordingObserver, SimError, Simulator, StepOutcome,
    TransientOptions,
};

fn short_options() -> TransientOptions {
    TransientOptions {
        t_stop: 2e-10,
        h_init: 1e-12,
        h_max: 1e-11,
        error_budget: 1e-3,
        ..TransientOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Pathological circuits: named diagnostics, never a panic.
// ---------------------------------------------------------------------------

/// A node reachable only through a capacitor has an all-zero row in `G`;
/// both the DC solve and a transient run must name that node, not a
/// factorization column.
#[test]
fn floating_node_is_attributed_to_its_node_name() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    let gnd = ckt.node("0");
    let float = ckt.node("float");
    ckt.add_voltage_source("V1", vin, gnd, Waveform::Dc(1.0))
        .unwrap();
    ckt.add_resistor("R1", vin, out, 1e3).unwrap();
    ckt.add_capacitor("C1", out, gnd, 1e-12).unwrap();
    ckt.add_capacitor("Cf", float, gnd, 1e-12).unwrap();

    let err = Simulator::new(&ckt).dc().unwrap_err();
    assert!(
        matches!(err, SimError::SingularSystem { .. }),
        "expected SingularSystem, got {err:?}"
    );
    assert!(err.to_string().contains("node 'float'"), "{err}");

    let err = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &short_options(), &["out"])
        .unwrap_err();
    assert!(err.to_string().contains("node 'float'"), "{err}");
}

/// Two ideal voltage sources fighting over the same node pair make the MNA
/// system rank-deficient; the error must point at a branch current, not
/// panic inside the factorization.
#[test]
fn voltage_source_loop_is_reported_as_singular() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let gnd = ckt.node("0");
    ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(1.0))
        .unwrap();
    ckt.add_voltage_source("V2", a, gnd, Waveform::Dc(2.0))
        .unwrap();
    ckt.add_resistor("R1", a, gnd, 1e3).unwrap();

    let err = Simulator::new(&ckt).dc().unwrap_err();
    assert!(
        matches!(err, SimError::SingularSystem { .. }),
        "expected SingularSystem, got {err:?}"
    );
    assert!(err.to_string().contains("branch current of 'V"), "{err}");
}

/// Nonsense element values are rejected at construction, naming the device
/// and the parameter — long before any solver can trip over them.
#[test]
fn invalid_parameters_name_the_device() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let gnd = ckt.node("0");
    for (value, what) in [(0.0, "zero"), (-1e3, "negative"), (f64::NAN, "NaN")] {
        let err = ckt.add_resistor("Rbad", a, gnd, value).unwrap_err();
        assert!(
            matches!(err, NetlistError::InvalidParameter { .. }),
            "{what} resistance: got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("Rbad"), "{what} resistance: {msg}");
        assert!(msg.contains("resistance"), "{what} resistance: {msg}");
    }
    let err = ckt.add_capacitor("Cbad", a, gnd, f64::NAN).unwrap_err();
    assert!(err.to_string().contains("Cbad"), "{err}");
}

/// Pathological decks end in a named error — never a panic, never a bogus
/// waveform. Construction-time defects fail in the parser; topological
/// defects parse fine and fail in the solver with circuit-level names.
#[test]
fn pathological_decks_yield_named_errors() {
    // Defective at parse/construction time.
    let parse_cases: &[(&str, &str, &str)] = &[
        ("zero resistance", "V1 in 0 DC 1\nR1 in 0 0\n.end\n", "R1"),
        (
            "negative capacitance",
            "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 -1p\n.end\n",
            "C1",
        ),
    ];
    for (what, text, needle) in parse_cases {
        let err = parse_deck(text).expect_err(what);
        assert!(err.to_string().contains(needle), "{what}: {err}");
    }

    // Parse fine, fail in the solver with a named unknown.
    let solver_cases: &[(&str, &str, &str)] = &[
        (
            "floating node",
            "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\nCf float 0 1p\n.end\n",
            "node 'float'",
        ),
        (
            "voltage source loop",
            "V1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n.end\n",
            "branch current of 'V",
        ),
    ];
    for (what, text, needle) in solver_cases {
        let deck = parse_deck(text).expect(what);
        let err = Simulator::new(&deck.circuit)
            .transient(Method::ExponentialRosenbrock, &short_options(), &[])
            .expect_err(what);
        assert!(err.to_string().contains(needle), "{what}: {err}");
    }
}

// ---------------------------------------------------------------------------
// Cancellation: deterministic step boundaries, bit-exact partial prefixes.
// ---------------------------------------------------------------------------

fn ladder_circuit() -> Circuit {
    rc_ladder(&RcLadderSpec {
        segments: 4,
        ..RcLadderSpec::default()
    })
    .expect("ladder builds")
}

/// A token cancelled before the batch even starts stops the job right after
/// the DC point: `Cancelled { reason: Token, at_time: 0.0 }` with a partial
/// waveform holding exactly the DC sample.
#[test]
fn precancelled_token_stops_at_the_dc_point() {
    let token = CancelToken::new();
    token.cancel();
    let mut plan = BatchPlan::new();
    plan.push(
        BatchJob::new(
            "precancelled",
            ladder_circuit(),
            Method::ExponentialRosenbrock,
            short_options(),
        )
        .probe("n2")
        .cancel_token(token),
    );
    let result = BatchRunner::new().worker_threads(1).run(&plan);
    assert_eq!(result.succeeded(), 0);
    assert_eq!(result.cancelled(), 1);
    assert_eq!(result.failed(), 1, "cancelled counts as not-completed");
    let outcome = &result.jobs[0];
    assert!(outcome.is_cancelled());
    match outcome.error() {
        Some(JobError::Cancelled {
            reason: CancelReason::Token,
            at_time,
            partial: Some(JobOutput::Recorded(r)),
        }) => {
            assert_eq!(*at_time, 0.0);
            assert_eq!(r.times, vec![0.0], "partial is exactly the DC sample");
        }
        other => panic!("expected token cancellation with a partial, got {other:?}"),
    }
}

/// The deadline contract: a job over budget stops at the next step
/// boundary, reports the simulation time it reached, and its partial
/// waveform is a bit-exact prefix of the uncancelled run — reproduced here
/// by manually driving a fresh stepper the same number of accepted steps.
#[test]
fn deadline_cancellation_is_a_bit_exact_prefix() {
    // A run that cannot finish inside the deadline: ~10^8 bounded steps.
    let options = TransientOptions {
        t_stop: 1e-3,
        h_init: 1e-12,
        h_max: 1e-11,
        error_budget: 1e-3,
        ..TransientOptions::default()
    };
    let mut plan = BatchPlan::new();
    plan.push(
        BatchJob::new(
            "over-budget",
            ladder_circuit(),
            Method::ExponentialRosenbrock,
            options.clone(),
        )
        .probe("n2")
        .probe("n4")
        .deadline(Duration::from_millis(100)),
    );
    let result = BatchRunner::new().worker_threads(1).run(&plan);
    assert_eq!(result.cancelled(), 1);
    let outcome = &result.jobs[0];
    let (at_time, partial) = match outcome.error() {
        Some(JobError::Cancelled {
            reason: CancelReason::Deadline,
            at_time,
            partial: Some(JobOutput::Recorded(r)),
        }) => (*at_time, r),
        other => panic!("expected deadline cancellation with a partial, got {other:?}"),
    };
    assert!(at_time > 0.0, "the job did real work before the deadline");
    assert!(partial.times.len() > 1, "partial holds accepted steps");
    assert_eq!(*partial.times.last().unwrap(), at_time);
    // Cancelled partial work still shows up in the job's statistics.
    assert!(outcome.stats.accepted_steps > 0);
    assert_eq!(outcome.stats.accepted_steps + 1, partial.times.len());

    // Reference: a fresh session stepped exactly as many accepted steps.
    let circuit = ladder_circuit();
    let mut sim = Simulator::new(&circuit);
    let mut observer = RecordingObserver::new(
        exi_sim::resolve_probes(&circuit, &["n2", "n4"]).unwrap(),
        false,
    );
    let mut stepper = sim
        .stepper(Method::ExponentialRosenbrock, &options)
        .unwrap();
    for _ in 1..partial.times.len() {
        let outcome = stepper.advance(&mut observer).expect("reference advances");
        assert_ne!(
            outcome,
            StepOutcome::Finished,
            "reference finished before the prefix ended"
        );
    }
    stepper.finish(&mut observer);
    let reference = observer.into_result();
    assert_eq!(partial.times, reference.times, "bit-exact prefix times");
    assert_eq!(
        partial.samples, reference.samples,
        "bit-exact prefix samples"
    );
    assert_eq!(partial.final_state, reference.final_state);
}

// ---------------------------------------------------------------------------
// Worker/observer panic isolation.
// ---------------------------------------------------------------------------

struct PanicOnIndex(usize);

impl BatchObserver for PanicOnIndex {
    fn on_job_started(&self, index: usize, _label: &str) {
        if index == self.0 {
            panic!("deliberate BatchObserver panic for job {index}");
        }
    }
    fn on_job_finished(&self, _index: usize, _outcome: &JobOutcome) {}
}

/// A panicking `BatchObserver` callback kills its worker thread (observer
/// callbacks run outside the per-job shield by design), but the batch
/// itself survives: workers report each outcome as it completes, so the
/// dead worker's already-finished jobs keep their results, every slot it
/// never reported is backfilled as `Panicked`, and `run_observed` returns
/// normally.
#[test]
fn batch_observer_panics_leave_the_batch_standing() {
    let mut plan = BatchPlan::new();
    for k in 0..4 {
        plan.push(
            BatchJob::new(
                format!("obs{k}"),
                ladder_circuit(),
                Method::ExponentialRosenbrock,
                short_options(),
            )
            .probe("n2"),
        );
    }
    // One worker runs all four jobs in submission order; it completes and
    // reports job 0, then dies starting job 1 — taking jobs 1..3 with it.
    let result = BatchRunner::new()
        .worker_threads(1)
        .run_observed(&plan, &PanicOnIndex(1));
    assert_eq!(result.len(), 4);
    assert!(
        result.jobs[0].is_ok(),
        "job 0 was reported before the worker died"
    );
    for k in 1..4 {
        let err = result.jobs[k].error().expect("lost to the dead worker");
        assert!(
            matches!(err, JobError::Panicked { .. }),
            "job {k}: got {err:?}"
        );
        assert!(err.to_string().contains("worker thread"), "job {k}: {err}");
    }
    assert_eq!(result.succeeded(), 1);
    assert_eq!(result.cancelled(), 0);
    assert_eq!(result.failed(), 3);
}

// ---------------------------------------------------------------------------
// Transient failures, attributed.
// ---------------------------------------------------------------------------

fn stiff_chain() -> Circuit {
    inverter_chain(&InverterChainSpec {
        stages: 2,
        ..InverterChainSpec::default()
    })
    .expect("chain builds")
}

/// Options ER cannot satisfy: a fixed step with an unreachable error
/// budget. ER rejects the nonlinear error estimate and underflows the step
/// floor.
fn impossible_for_er() -> TransientOptions {
    TransientOptions {
        t_stop: 5e-11,
        h_init: 2e-11,
        h_min: 2e-11,
        h_max: 2e-11,
        error_budget: 1e-30,
        ..TransientOptions::default()
    }
}

/// A step-control failure surfaces as itself: ER is never swapped for
/// another method.
#[test]
fn er_underflow_surfaces_as_step_size_underflow() {
    let circuit = stiff_chain();
    let mut sim = Simulator::new(&circuit);
    let err = sim
        .transient(Method::ExponentialRosenbrock, &impossible_for_er(), &["s1"])
        .unwrap_err();
    assert!(
        matches!(err, SimError::StepSizeUnderflow { .. }),
        "got {err:?}"
    );
}

/// An unreachable Newton tolerance fails TRNR's first step with the Newton
/// error, not a generic one.
#[test]
fn unreachable_newton_tolerance_surfaces_newton_did_not_converge() {
    let circuit = stiff_chain();
    let options = TransientOptions {
        newton_tolerance: 0.0, // no finite residual can satisfy this
        newton_max_iterations: 2,
        ..short_options()
    };
    let err = Simulator::new(&circuit)
        .transient(Method::Trapezoidal, &options, &["s1"])
        .unwrap_err();
    assert!(
        matches!(err, SimError::NewtonDidNotConverge { .. }),
        "got {err:?}"
    );
}

//! Fault-injection acceptance tests (feature `fault-injection`).
//!
//! The ISSUE's acceptance scenario: a batch of 8 jobs with 2 fault-injected
//! members — one deliberate panic, one genuinely singular system — must
//! complete the other 6 bit-identically to an uninjected batch, with the
//! failures attributed to the injected faults (panic message / named
//! circuit node). Plus: an injected NaN fails the run with `NonFinite`
//! after its steps streamed live, and a Krylov breakdown surfaces as a
//! typed error.
//!
//! Labels are unique per test, and each test arms its faults through a
//! scoped [`fault::FaultGuard`]: the armed-fault map is process-global and
//! tests run concurrently, so a guard that disarms only its own labels on
//! drop (never `fault::clear_all`) keeps them independent.

use exi_netlist::generators::{rc_ladder, RcLadderSpec};
use exi_netlist::Circuit;
use exi_sim::{
    fault, BatchJob, BatchPlan, BatchRunner, JobError, Method, Observer, RunStats, SimError,
    Simulator, TransientOptions,
};

fn ladder() -> Circuit {
    rc_ladder(&RcLadderSpec {
        segments: 4,
        ..RcLadderSpec::default()
    })
    .expect("ladder builds")
}

fn options() -> TransientOptions {
    TransientOptions {
        t_stop: 5e-10,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 1e-3,
        ..TransientOptions::default()
    }
}

type Wave = (Vec<f64>, Vec<Vec<f64>>, Vec<f64>);

fn recorded_wave(outcome: &exi_sim::JobOutcome) -> Wave {
    let r = outcome.recorded().expect("recorded output");
    (r.times.clone(), r.samples.clone(), r.final_state.clone())
}

fn plan_with_labels(prefix: &str, jobs: usize) -> BatchPlan {
    let mut plan = BatchPlan::new();
    for k in 0..jobs {
        plan.push(
            BatchJob::new(
                format!("{prefix}{k}"),
                ladder(),
                Method::ExponentialRosenbrock,
                options(),
            )
            .probe("n2")
            .probe("n4"),
        );
    }
    plan
}

/// The acceptance scenario, at 1 and at 8 worker threads: jobs 3 (panic at
/// accepted step 3) and 5 (row/col of unknown 2 — node `n2` — zeroed at the
/// first device evaluation) fail with attributed diagnostics; the other 6
/// jobs are bit-identical to a batch with no faults armed.
#[test]
fn injected_panic_and_singularity_leave_six_jobs_bit_identical() {
    // A reference batch whose labels have no faults armed.
    let clean = BatchRunner::new()
        .worker_threads(2)
        .run(&plan_with_labels("iso-clean-", 8));
    assert!(clean.all_ok(), "{:?}", clean.stats);
    let clean_waves: Vec<Wave> = clean.jobs.iter().map(recorded_wave).collect();

    let _faults = fault::FaultGuard::arm(
        "iso-3",
        fault::FaultSpec {
            panic_at_step: Some(3),
            ..fault::FaultSpec::default()
        },
    )
    .also(
        "iso-5",
        fault::FaultSpec {
            // First DC evaluation: G loses row+col 2, i.e. node 'n2'.
            singular_unknown: Some((1, 2)),
            ..fault::FaultSpec::default()
        },
    );

    for threads in [1usize, 8] {
        let result = BatchRunner::new()
            .worker_threads(threads)
            .run(&plan_with_labels("iso-", 8));
        assert_eq!(result.len(), 8);
        assert_eq!(result.succeeded(), 6, "threads={threads}");
        assert_eq!(result.failed(), 2, "threads={threads}");
        assert_eq!(result.cancelled(), 0, "threads={threads}");

        // The panicking job is contained and names the injected panic.
        let panicked = result.jobs[3].error().expect("job 3 panics");
        assert!(
            matches!(panicked, JobError::Panicked { .. }),
            "threads={threads}: {panicked:?}"
        );
        assert!(
            panicked.to_string().contains("fault injection"),
            "threads={threads}: {panicked}"
        );

        // The singular job names the corrupted circuit node.
        let singular = result.jobs[5].error().expect("job 5 is singular");
        match singular {
            JobError::Sim(SimError::SingularSystem { label, .. }) => {
                assert_eq!(label.as_deref(), Some("node 'n2'"), "threads={threads}");
            }
            other => panic!("threads={threads}: expected SingularSystem, got {other:?}"),
        }
        assert!(
            singular.to_string().contains("node 'n2'"),
            "threads={threads}: {singular}"
        );

        // The six untouched jobs match the clean batch bit for bit.
        for k in [0usize, 1, 2, 4, 6, 7] {
            assert_eq!(
                recorded_wave(&result.jobs[k]),
                clean_waves[k],
                "threads={threads}, job {k}"
            );
        }
    }
}

/// One observer event, in the order it arrived.
#[derive(Debug, PartialEq)]
enum Event {
    Dc,
    Accepted,
    Rejected,
    Finish {
        accepted_steps: usize,
        rejected_steps: usize,
    },
}

#[derive(Default)]
struct EventLog(Vec<Event>);

impl Observer for EventLog {
    fn on_dc(&mut self, _t0: f64, _x0: &[f64]) {
        self.0.push(Event::Dc);
    }
    fn on_step_accepted(&mut self, _t: f64, _x: &[f64]) {
        self.0.push(Event::Accepted);
    }
    fn on_step_rejected(&mut self, _t: f64, _h: f64) {
        self.0.push(Event::Rejected);
    }
    fn on_finish(&mut self, _final_state: &[f64], stats: &RunStats) {
        self.0.push(Event::Finish {
            accepted_steps: stats.accepted_steps,
            rejected_steps: stats.rejected_steps,
        });
    }
}

/// A NaN stamped mid-transient fails the run with `NonFinite` at the stamp
/// boundary. What the observer of the failed run receives is the contract:
/// the DC point and every accepted and rejected step live, then exactly one
/// `on_finish` carrying the partial counters, which the session absorbs.
#[test]
fn nan_injection_fails_the_run_after_streaming_its_steps_live() {
    let _faults = fault::FaultGuard::arm(
        "nan-solo",
        fault::FaultSpec {
            // Device evaluation 3 is mid-transient for these options: the DC
            // solve makes the first, and ER evaluates the linear ladder only
            // where an input segment starts — the ramp at 0, the flat top at
            // 10 ps — not at every step.
            nan_f: Some((3, 1)),
            ..fault::FaultSpec::default()
        },
    );
    fault::install("nan-solo");
    let circuit = ladder();
    let mut sim = Simulator::new(&circuit);
    let mut log = EventLog::default();
    let err = sim
        .transient_observed(Method::ExponentialRosenbrock, &options(), &mut log)
        .unwrap_err();
    assert!(
        matches!(err, SimError::NonFinite { time, .. } if time > 0.0),
        "got {err:?}"
    );

    let events = &log.0;
    let accepted = events.iter().filter(|e| **e == Event::Accepted).count();
    let rejected = events.iter().filter(|e| **e == Event::Rejected).count();
    assert!(
        accepted > 0,
        "the NaN lands after accepted steps: {events:?}"
    );
    assert_eq!(events.first(), Some(&Event::Dc), "{events:?}");
    assert_eq!(events.iter().filter(|e| **e == Event::Dc).count(), 1);
    let finishes: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::Finish { .. }))
        .collect();
    assert_eq!(
        finishes,
        [&Event::Finish {
            accepted_steps: accepted,
            rejected_steps: rejected,
        }]
    );
    assert!(matches!(events.last(), Some(Event::Finish { .. })));

    let session = sim.session_stats();
    assert_eq!(session.accepted_steps, accepted);
    assert_eq!(session.rejected_steps, rejected);
    assert_eq!(sim.completed_runs(), 0);
}

/// An injected Krylov basis breakdown surfaces as a typed kernel error.
#[test]
fn krylov_breakdown_is_typed() {
    let _faults = fault::FaultGuard::arm(
        "kry-solo",
        fault::FaultSpec {
            krylov_breakdown: Some(2),
            ..fault::FaultSpec::default()
        },
    );
    fault::install("kry-solo");
    let circuit = ladder();
    let err = Simulator::new(&circuit)
        .transient(Method::ExponentialRosenbrock, &options(), &["n2"])
        .unwrap_err();
    assert!(matches!(err, SimError::Krylov(_)), "got {err:?}");
}

/// Arming a label affects only jobs carrying that label — a batch whose
/// labels never match runs clean even with faults armed process-wide.
#[test]
fn unmatched_labels_are_unaffected_by_armed_faults() {
    let _faults = fault::FaultGuard::arm(
        "never-installed",
        fault::FaultSpec {
            panic_at_step: Some(1),
            ..fault::FaultSpec::default()
        },
    );
    let result = BatchRunner::new()
        .worker_threads(2)
        .run(&plan_with_labels("unmatched-", 3));
    assert!(result.all_ok(), "{:?}", result.stats);
}

//! Integration tests for the parallel batch-sweep subsystem: same-topology
//! power-grid fleets (one plan, one `G` ordering, bit-identical to
//! sequential execution at any thread count), value corners that pivot
//! differently, per-job error isolation, mixed-method plan sharing,
//! `StreamingObserver` decimation under batch use, and a warmed plan cache
//! across batches.

use std::time::Duration;

use exi_netlist::generators::{
    inverter_chain, power_grid, rc_ladder, InverterChainSpec, PowerGridSpec, RcLadderSpec,
};
use exi_netlist::Circuit;
use exi_sim::{
    BatchJob, BatchPlan, BatchProgress, BatchRunner, CancelToken, JobError, JobOutcome, JobSink,
    Method, PlanCache, RunStats, SimError, Simulator, TransientOptions,
};

fn grid_circuit() -> Circuit {
    power_grid(&PowerGridSpec::default()).expect("power grid builds")
}

fn grid_options(k: usize) -> TransientOptions {
    // Eight distinct corners of the step-control options; the topology (and
    // hence every matrix pattern and the DC start) is shared.
    TransientOptions {
        t_stop: 4e-10 + k as f64 * 5e-11,
        h_init: 1e-12,
        h_max: 1e-11 + k as f64 * 2e-12,
        error_budget: 1e-3 / (1.0 + k as f64 * 0.3),
        ..TransientOptions::default()
    }
}

fn grid_plan(jobs: usize) -> BatchPlan {
    let mut plan = BatchPlan::new();
    for k in 0..jobs {
        plan.push(
            BatchJob::new(
                format!("corner{k}"),
                grid_circuit(),
                Method::ExponentialRosenbrock,
                grid_options(k),
            )
            .probe("g_3_3")
            .probe("g_7_7"),
        );
    }
    plan
}

/// `(times, samples, final_state)` of one recorded job.
type Waveform = (Vec<f64>, Vec<Vec<f64>>, Vec<f64>);

/// The waveform of every recorded job, for bit-level comparison.
fn waveforms(result: &exi_sim::BatchResult) -> Vec<Waveform> {
    result
        .jobs
        .iter()
        .map(|j| {
            let r = j.recorded().expect("recorded output");
            (r.times.clone(), r.samples.clone(), r.final_state.clone())
        })
        .collect()
}

/// Zeroes the fields that legitimately vary between equivalent batch
/// executions (wall-clock time, lock-wait time and configured concurrency).
fn normalized(stats: &RunStats) -> RunStats {
    RunStats {
        runtime: std::time::Duration::ZERO,
        cache_wait: std::time::Duration::ZERO,
        worker_threads: 0,
        ..stats.clone()
    }
}

/// Eight same-topology corners: one plan and one `G` ordering for the whole
/// fleet, each job its own `G` analysis, and every job bit-identical to its
/// isolated run at 1, 2 and 8 workers.
#[test]
fn power_grid_sweep_is_bit_identical_at_any_thread_count_with_one_symbolic_analysis() {
    const JOBS: usize = 8;
    // Sequential reference: a fresh, unshared session per job.
    let reference: Vec<_> = (0..JOBS)
        .map(|k| {
            let circuit = grid_circuit();
            let r = Simulator::new(&circuit)
                .transient(
                    Method::ExponentialRosenbrock,
                    &grid_options(k),
                    &["g_3_3", "g_7_7"],
                )
                .expect("sequential run");
            (r.times, r.samples, r.final_state)
        })
        .collect();

    let mut merged_stats = Vec::new();
    let mut batch_waveforms = Vec::new();
    for threads in [1, 2, 8] {
        let plan = grid_plan(JOBS);
        let result = BatchRunner::new().worker_threads(threads).run(&plan);
        assert!(result.all_ok(), "threads={threads}: {:?}", result.failed());
        assert_eq!(result.stats.batch_jobs, JOBS);
        assert_eq!(result.stats.worker_threads, threads);
        // One plan, one `G` ordering: every job after the first found it
        // computed, and each job analyzed its own `G` exactly once.
        assert_eq!(result.stats.plan_compilations, 1);
        assert_eq!(
            result.stats.symbolic_analyses, JOBS,
            "threads={threads}: {:?}",
            result.stats
        );
        assert_eq!(result.stats.shared_symbolic_hits, JOBS - 1);
        assert_eq!(
            result.stats.lu_factorizations,
            result.stats.symbolic_analyses + result.stats.lu_refactorizations
        );
        batch_waveforms.push(waveforms(&result));
        merged_stats.push(normalized(&result.stats));
    }

    // Bit-identical across thread counts…
    assert_eq!(batch_waveforms[0], batch_waveforms[1]);
    assert_eq!(batch_waveforms[0], batch_waveforms[2]);
    assert_eq!(merged_stats[0], merged_stats[1]);
    assert_eq!(merged_stats[0], merged_stats[2]);
    // …and bit-identical to isolated sequential sessions.
    assert_eq!(batch_waveforms[0], reference);
}

/// Mixed methods on one topology: one plan and one `G` ordering serve every
/// job; each job analyzes its own `G`, and each implicit job its own
/// `C/h + θG` under an ordering of its own.
#[test]
fn mixed_method_batch_shares_both_pattern_analyses() {
    let options = TransientOptions {
        t_stop: 3e-10,
        h_init: 1e-12,
        h_max: 1e-11,
        error_budget: 1e-3,
        ..TransientOptions::default()
    };
    let mut plan = BatchPlan::new();
    for (k, method) in [
        Method::ExponentialRosenbrock,
        Method::BackwardEuler,
        Method::BackwardEuler,
        Method::Trapezoidal,
        Method::ExponentialRosenbrockCorrected,
    ]
    .into_iter()
    .enumerate()
    {
        plan.push(
            BatchJob::new(
                format!("{k}-{method}"),
                grid_circuit(),
                method,
                options.clone(),
            )
            .probe("g_3_3"),
        );
    }
    for threads in [1, 4] {
        let result = BatchRunner::new().worker_threads(threads).run(&plan);
        assert!(result.all_ok());
        // Every job seeds its G slot once (5) and every implicit job its
        // Jacobian slot once (3).
        assert_eq!(
            result.stats.symbolic_analyses,
            5 + 3,
            "threads={threads}: {:?}",
            result.stats
        );
        // Only `G`'s ordering lives in the plan: the four jobs after the
        // first found it computed.
        assert_eq!(result.stats.plan_compilations, 1);
        assert_eq!(result.stats.shared_symbolic_hits, 4);
    }
}

/// A floating source `V1` between `p` and `q` whose branch row competes with
/// `q`'s diagonal `1/rq` for the pivot of `q`'s column (the first one the
/// ordering eliminates): at `rq = 1 Ω` the diagonal passes the threshold
/// test against the branch row's `-1`, at `rq = 1 kΩ` the branch row wins.
/// Every corner has the same `G` pattern, so RC-mesh-style diagonal pivots
/// cannot hide a pivot order borrowed from another corner.
fn floating_source_circuit(rq: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = ckt.node("0");
    let p = ckt.node("p");
    let q = ckt.node("q");
    let out = ckt.node("out");
    ckt.add_voltage_source(
        "V1",
        p,
        q,
        exi_netlist::Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]),
    )
    .expect("source");
    ckt.add_resistor("Rp", p, gnd, 1e3).expect("Rp");
    ckt.add_resistor("Rq", q, gnd, rq).expect("Rq");
    ckt.add_resistor("R1", p, out, 1e3).expect("R1");
    ckt.add_capacitor("C1", out, gnd, 1e-13).expect("C1");
    ckt
}

/// Corners whose `G` values differ — and with them the pivot rows a fresh
/// factorization picks — are each bit-identical to their isolated run, at
/// 1, 2 and 8 workers, for ER and for BE.
#[test]
fn value_corners_pivot_their_own_matrices_at_any_thread_count() {
    let options = TransientOptions {
        t_stop: 3e-10,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 1e-3,
        ..TransientOptions::default()
    };
    let corners = [1.0, 1e3, 3.0, 300.0, 1e4];
    let mut plan = BatchPlan::new();
    let mut reference = Vec::new();
    for method in [Method::ExponentialRosenbrock, Method::BackwardEuler] {
        for rq in corners {
            let circuit = floating_source_circuit(rq);
            let r = Simulator::new(&circuit)
                .transient(method, &options, &["p", "q", "out"])
                .expect("isolated run");
            reference.push((r.times, r.samples, r.final_state));
            plan.push(
                BatchJob::new(format!("{method}-rq{rq}"), circuit, method, options.clone())
                    .probe("p")
                    .probe("q")
                    .probe("out"),
            );
        }
    }
    for threads in [1, 2, 8] {
        let result = BatchRunner::new().worker_threads(threads).run(&plan);
        assert!(result.all_ok(), "threads={threads}");
        let differing: Vec<&str> = waveforms(&result)
            .iter()
            .zip(&reference)
            .zip(plan.jobs())
            .filter(|((wave, isolated), _)| wave != isolated)
            .map(|(_, job)| job.label.as_str())
            .collect();
        assert!(
            differing.is_empty(),
            "threads={threads}: not bit-identical to their isolated runs: {differing:?}"
        );
    }
}

/// One failing job must leave the other jobs' results and the merged
/// counters intact — and its own partial statistics still count.
#[test]
fn job_failures_are_isolated_and_reported_with_context() {
    let good_options = grid_options(0);
    let mut plan = BatchPlan::new();
    plan.push(
        BatchJob::new(
            "good",
            grid_circuit(),
            Method::ExponentialRosenbrock,
            good_options.clone(),
        )
        .probe("g_3_3"),
    );
    // An unreachable Newton tolerance: the DC solve (which uses its own
    // tolerance) succeeds, then every transient step fails to converge and
    // the step control collapses — a mid-run failure with real partial work.
    plan.push(BatchJob::new(
        "newton-death",
        grid_circuit(),
        Method::BackwardEuler,
        TransientOptions {
            newton_tolerance: 0.0,
            newton_max_iterations: 2,
            ..good_options.clone()
        },
    ));
    plan.push(
        BatchJob::new(
            "also-good",
            grid_circuit(),
            Method::ExponentialRosenbrock,
            good_options,
        )
        .probe("g_3_3"),
    );
    let result = BatchRunner::new().worker_threads(2).run(&plan);
    assert_eq!(result.len(), 3);
    assert_eq!(result.failed(), 1);
    assert!(result.jobs[0].is_ok());
    assert!(!result.jobs[1].is_ok());
    assert!(result.jobs[2].is_ok());
    assert_eq!(result.jobs[1].label, "newton-death");
    // The failed job did real work before dying; its counters are merged.
    assert!(result.jobs[1].stats.lu_factorizations > 0);
    assert_eq!(result.stats.batch_jobs, 3);
    // The two successful runs are identical (same circuit, same options).
    let a = result.jobs[0].recorded().unwrap();
    let b = result.jobs[2].recorded().unwrap();
    assert_eq!(a.times, b.times);
    assert_eq!(a.samples, b.samples);
}

/// StreamingObserver decimation under batch use: a streaming job retains a
/// bounded, stride-doubled subset of exactly the points an equivalent
/// recording job accepts.
#[test]
fn streaming_jobs_decimate_the_same_accepted_points() {
    let circuit = rc_ladder(&RcLadderSpec {
        segments: 6,
        ..RcLadderSpec::default()
    })
    .expect("ladder builds");
    // A long run (small h_max) so the 16-point buffer decimates repeatedly.
    let options = TransientOptions {
        t_stop: 2e-9,
        h_init: 1e-12,
        h_max: 4e-12,
        error_budget: 1e-3,
        ..TransientOptions::default()
    };
    let mut plan = BatchPlan::new();
    plan.push(
        BatchJob::new(
            "recorded",
            circuit.clone(),
            Method::ExponentialRosenbrock,
            options.clone(),
        )
        .probe("n6"),
    );
    plan.push(
        BatchJob::new("streamed", circuit, Method::ExponentialRosenbrock, options)
            .probe("n6")
            .streaming(16),
    );
    let result = BatchRunner::new().worker_threads(2).run(&plan);
    assert!(result.all_ok());
    let recorded = result.jobs[0].recorded().expect("recorded waveform");
    let streamed = result.jobs[1].streamed().expect("streamed waveform");
    assert!(
        recorded.len() > 64,
        "want a long run, got {} points",
        recorded.len()
    );
    // Bounded memory, repeated stride doubling.
    assert!(streamed.len() < 16);
    assert!(streamed.stride >= 8, "stride {}", streamed.stride);
    assert!(streamed.stride.is_power_of_two());
    assert_eq!(streamed.observed, recorded.len());
    // The retained points are exactly the recorded points on the stride grid
    // (both jobs are bit-identical runs of the same circuit).
    for (k, (&t, row)) in streamed
        .times
        .iter()
        .zip(streamed.values.chunks(streamed.probes.len()))
        .enumerate()
    {
        let source = k * streamed.stride;
        assert_eq!(t, recorded.times[source], "retained point {k}");
        assert_eq!(row[0], recorded.samples[source][0], "retained point {k}");
    }
}

/// The progress hook sees every job exactly once, from worker threads.
#[test]
fn batch_progress_hook_reports_all_jobs() {
    let plan = grid_plan(5);
    let progress = BatchProgress::new();
    let result = BatchRunner::new()
        .worker_threads(3)
        .run_observed(&plan, &progress);
    assert!(result.all_ok());
    assert_eq!(progress.started(), 5);
    assert_eq!(progress.finished(), 5);
    assert_eq!(progress.failed(), 0);
}

/// A warmed plan cache serves BE jobs without a single compile at 1, 2 and 8
/// workers — every `G` ordering found computed — while each job still
/// analyzes its own matrices and matches its isolated run.
#[test]
fn warmed_be_batches_never_wait_on_the_shared_cache() {
    let options = TransientOptions {
        t_stop: 5e-10,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 1e-3,
        ..TransientOptions::default()
    };
    let mut plan = BatchPlan::new();
    // Supply corners: `vdd` only enters the pad sources' waveforms.
    for i in 0..8 {
        let grid = power_grid(&PowerGridSpec {
            rows: 3,
            cols: 3,
            num_sinks: 2,
            vdd: 1.0 + 0.05 * i as f64,
            ..PowerGridSpec::default()
        })
        .expect("power grid builds");
        plan.push(
            BatchJob::new(
                format!("vdd{i}"),
                grid,
                Method::BackwardEuler,
                options.clone(),
            )
            .probe("g_1_1"),
        );
    }
    // Input-offset corners of one RC ladder.
    for i in 0..8 {
        let offset = 0.05 * i as f64;
        let ladder = rc_ladder(&RcLadderSpec {
            segments: 4,
            resistance: 200.0,
            capacitance: 2e-13,
            input: exi_netlist::Waveform::single_pulse(
                offset,
                offset + 1.0,
                0.0,
                1e-11,
                1e-11,
                1e-8,
            ),
        })
        .expect("ladder builds");
        plan.push(
            BatchJob::new(
                format!("offset{i}"),
                ladder,
                Method::BackwardEuler,
                options.clone(),
            )
            .probe("n2"),
        );
    }

    let plans = std::sync::Arc::new(PlanCache::new());
    let runner = |threads: usize| {
        BatchRunner::new()
            .worker_threads(threads)
            .shared_plan_cache(std::sync::Arc::clone(&plans))
    };
    let warm_up = runner(2).run(&plan);
    assert!(warm_up.all_ok(), "warm-up");
    assert_eq!(warm_up.stats.plan_compilations, 2);

    let jobs = plan.len();
    let mut per_thread = Vec::new();
    for threads in [1, 2, 8] {
        let result = runner(threads).run(&plan);
        assert!(result.all_ok(), "threads={threads}");
        assert_eq!(result.stats.plan_compilations, 0, "threads={threads}");
        assert_eq!(result.stats.shared_plan_hits, jobs, "threads={threads}");
        // One `G` and one Jacobian analysis per job; every `G` ordering
        // came from the warm plans.
        assert_eq!(result.stats.symbolic_analyses, 2 * jobs);
        assert_eq!(result.stats.shared_symbolic_hits, jobs);
        per_thread.push(waveforms(&result));
    }
    assert_eq!(per_thread[0], per_thread[1]);
    assert_eq!(per_thread[0], per_thread[2]);
    assert_eq!(per_thread[0], waveforms(&warm_up));
}

/// Runs one job alone on a fresh runner (its own plan cache), so its
/// statistics compare with a solo session's.
fn run_alone(job: BatchJob) -> JobOutcome {
    let mut plan = BatchPlan::new();
    plan.push(job);
    let mut result = BatchRunner::new().worker_threads(1).run(&plan);
    result.jobs.pop().expect("one outcome")
}

/// A stop that never fires moves no bit: a job with an unfired token and a
/// deadline an hour away, the same job without either, and a solo
/// `Simulator::transient` agree on every waveform bit and every counter, for
/// every method and both sinks, on the golden inverter chain.
#[test]
fn a_stop_that_never_fires_is_bit_identical() {
    let circuit = inverter_chain(&InverterChainSpec {
        stages: 2,
        ..InverterChainSpec::default()
    })
    .expect("inverter_chain builds");
    let options = TransientOptions {
        t_stop: 3e-10,
        h_init: 1e-12,
        h_max: 5e-12,
        error_budget: 5e-3,
        ..TransientOptions::default()
    };
    let probes = ["s1", "s2"];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for method in Method::all() {
        let solo = Simulator::new(&circuit)
            .transient(method, &options, &probes)
            .expect("solo run");
        for sink in [JobSink::Record, JobSink::Stream { capacity: 64 }] {
            let job = |label: &str| {
                let mut job = BatchJob::new(label, circuit.clone(), method, options.clone());
                job.probes = probes.iter().map(|p| p.to_string()).collect();
                job.sink = sink;
                job
            };
            let plain = run_alone(job("plain"));
            let armed = run_alone(
                job("armed")
                    .cancel_token(CancelToken::new())
                    .deadline(Duration::from_secs(3600)),
            );
            for outcome in [&plain, &armed] {
                let what = format!("{method} {sink:?} {}", outcome.label);
                assert_eq!(
                    normalized(&outcome.stats),
                    normalized(&solo.stats),
                    "{what}"
                );
                match sink {
                    JobSink::Record => {
                        let r = outcome.recorded().expect("recorded output");
                        assert_eq!(bits(&r.times), bits(&solo.times), "{what}");
                        assert_eq!(r.samples.len(), solo.samples.len(), "{what}");
                        for (a, b) in r.samples.iter().zip(&solo.samples) {
                            assert_eq!(bits(a), bits(b), "{what}");
                        }
                        assert_eq!(bits(&r.final_state), bits(&solo.final_state), "{what}");
                        assert_eq!(normalized(&r.stats), normalized(&solo.stats), "{what}");
                    }
                    JobSink::Stream { .. } => {
                        // The retained points are the solo run's points on
                        // the final stride grid.
                        let w = outcome.streamed().expect("streamed output");
                        assert_eq!(w.observed, solo.times.len(), "{what}");
                        assert_eq!(w.len(), solo.times.len().div_ceil(w.stride), "{what}");
                        for (k, (&t, row)) in w.times.iter().zip(w.values.chunks(2)).enumerate() {
                            let source = k * w.stride;
                            assert_eq!(t.to_bits(), solo.times[source].to_bits(), "{what}");
                            assert_eq!(bits(row), bits(&solo.samples[source]), "{what}");
                        }
                    }
                }
            }
        }
    }
}

/// Invalid options are reported before an unknown probe, whatever the sink
/// and whether or not the job carries a token — the precedence of
/// `Simulator::transient`.
#[test]
fn invalid_options_are_reported_before_an_unknown_probe_on_every_job_path() {
    let invalid = TransientOptions {
        h_init: 1.0,
        ..grid_options(0)
    };
    for sink in [JobSink::Record, JobSink::Stream { capacity: 16 }] {
        for token in [None, Some(CancelToken::new())] {
            let mut job = BatchJob::new(
                "both-wrong",
                grid_circuit(),
                Method::ExponentialRosenbrock,
                invalid.clone(),
            )
            .probe("nope");
            job.sink = sink;
            job.cancel = token.clone();
            let outcome = run_alone(job);
            assert!(
                matches!(
                    outcome.error(),
                    Some(JobError::Sim(SimError::InvalidOptions { .. }))
                ),
                "{sink:?}, token {}: {:?}",
                token.is_some(),
                outcome.error()
            );
        }
    }
}

//! Integration tests for the parallel batch-sweep subsystem: the ISSUE's
//! acceptance criterion (≥ 8 same-topology power-grid jobs, exactly one
//! symbolic analysis, bit-identical to sequential execution at any thread
//! count), per-job error isolation, mixed-method pattern sharing,
//! `StreamingObserver` decimation under batch use, and warmed shared caches
//! across batches.

use exi_netlist::generators::{power_grid, rc_ladder, PowerGridSpec, RcLadderSpec};
use exi_netlist::Circuit;
use exi_sim::{
    BatchJob, BatchPlan, BatchProgress, BatchRunner, Method, PlanCache, RunStats, Simulator,
    TransientOptions,
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
/// `shared_symbolic_wait_events` is deliberately *not* normalized: with
/// every pattern pre-published before workers start, no job ever blocks on
/// an in-flight cache slot, at any thread count.
fn normalized(stats: &RunStats) -> RunStats {
    RunStats {
        runtime: std::time::Duration::ZERO,
        cache_wait: std::time::Duration::ZERO,
        worker_threads: 0,
        ..stats.clone()
    }
}

/// The ISSUE acceptance criterion, end to end.
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
        // Exactly one symbolic analysis for the whole fleet — performed up
        // front by the runner — so every job derived its factors from the
        // shared cache, and none ever blocked on an in-flight slot.
        assert_eq!(
            result.stats.symbolic_analyses, 1,
            "threads={threads}: {:?}",
            result.stats
        );
        assert_eq!(result.stats.shared_symbolic_hits, JOBS);
        assert_eq!(result.stats.shared_symbolic_wait_events, 0);
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

/// Mixed methods on one topology: the `G` pattern and the implicit
/// `C/h + θG` pattern are each analyzed exactly once, no matter how many
/// jobs use them.
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
        let runner = BatchRunner::new().worker_threads(threads);
        let result = runner.run(&plan);
        assert!(result.all_ok());
        // On the power grid every capacitor sits at a node that also carries
        // conductance, so the implicit Jacobian C/h + θG has *exactly* the
        // pattern of G — the pattern-keyed cache legitimately serves both
        // matrix roles (and BE vs TR: θ scales values, not the pattern) from
        // one analysis. The invariant is "one symbolic analysis per distinct
        // pattern", measured directly against the cache:
        assert_eq!(
            result.stats.symbolic_analyses,
            runner.cache().patterns(),
            "threads={threads}: {:?}",
            result.stats
        );
        assert_eq!(result.stats.symbolic_analyses, 1);
        // Seeding events: every job seeds its G slot once (5) and every
        // implicit job additionally seeds its Jacobian slot once (3); the
        // single analysis was pre-published by the runner, so all eight
        // seedings were shared-cache hits.
        assert_eq!(result.stats.shared_symbolic_hits, 5 + 3);
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

/// A pattern group whose first (pilot) job fails must promote the next
/// candidate deterministically: output stays bit-identical at every thread
/// count and the fleet still performs exactly one symbolic analysis.
#[test]
fn failed_pilot_promotes_the_next_candidate_deterministically() {
    let build_plan = || {
        let mut plan = BatchPlan::new();
        // The group's lowest-index job fails option validation before doing
        // any factorization — it must not wedge or randomize the group.
        plan.push(BatchJob::new(
            "doomed-pilot",
            grid_circuit(),
            Method::ExponentialRosenbrock,
            TransientOptions {
                h_init: 1.0, // > t_stop: rejected by validate()
                ..grid_options(0)
            },
        ));
        for k in 1..5 {
            plan.push(
                BatchJob::new(
                    format!("corner{k}"),
                    grid_circuit(),
                    Method::ExponentialRosenbrock,
                    grid_options(k),
                )
                .probe("g_3_3"),
            );
        }
        plan
    };
    let mut per_thread = Vec::new();
    for threads in [1, 4] {
        let result = BatchRunner::new()
            .worker_threads(threads)
            .run(&build_plan());
        assert_eq!(result.failed(), 1);
        assert!(!result.jobs[0].is_ok());
        // The runner pre-published the group's analysis before any job ran
        // (fingerprinting does not depend on the doomed job's options), so
        // the failure costs nothing: jobs 1..4 all shared the analysis.
        assert_eq!(
            result.stats.symbolic_analyses, 1,
            "threads={threads}: {:?}",
            result.stats
        );
        assert_eq!(result.stats.shared_symbolic_hits, 4);
        let waves: Vec<Waveform> = result.jobs[1..]
            .iter()
            .map(|j| {
                let r = j.recorded().expect("recorded output");
                (r.times.clone(), r.samples.clone(), r.final_state.clone())
            })
            .collect();
        per_thread.push(waves);
    }
    assert_eq!(per_thread[0], per_thread[1]);
    // And identical to isolated sequential sessions.
    for (k, wave) in per_thread[0].iter().enumerate() {
        let circuit = grid_circuit();
        let r = Simulator::new(&circuit)
            .transient(
                Method::ExponentialRosenbrock,
                &grid_options(k + 1),
                &["g_3_3"],
            )
            .expect("sequential run");
        assert_eq!(&(r.times, r.samples, r.final_state), wave, "job {}", k + 1);
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

/// Sharing one cache across several batches keeps amortizing: a second batch
/// on the same topology performs zero symbolic analyses.
#[test]
fn shared_cache_survives_across_batches() {
    let cache = std::sync::Arc::new(exi_sparse::SymbolicCache::new());
    let first = BatchRunner::new()
        .worker_threads(2)
        .shared_cache(std::sync::Arc::clone(&cache))
        .run(&grid_plan(3));
    assert_eq!(first.stats.symbolic_analyses, 1);
    let second = BatchRunner::new()
        .worker_threads(2)
        .shared_cache(cache)
        .run(&grid_plan(3));
    assert_eq!(second.stats.symbolic_analyses, 0, "{:?}", second.stats);
    assert_eq!(second.stats.shared_symbolic_hits, 3);
    // On a fully warmed cache no job may ever block on an in-flight slot:
    // warm lookups are pure reads, never condvar waits.
    assert_eq!(second.stats.shared_symbolic_wait_events, 0);
}

/// Warmed symbolic *and* plan caches serve BE jobs — whose implicit-Jacobian
/// pattern goes through pilot election, not pre-publication — without a
/// single analysis, compile or wait at 1, 2 and 8 workers.
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

    let cache = std::sync::Arc::new(exi_sparse::SymbolicCache::new());
    let plans = std::sync::Arc::new(PlanCache::new());
    let runner = |threads: usize| {
        BatchRunner::new()
            .worker_threads(threads)
            .shared_cache(std::sync::Arc::clone(&cache))
            .shared_plan_cache(std::sync::Arc::clone(&plans))
    };
    assert!(runner(2).run(&plan).all_ok(), "warm-up");

    let mut per_thread = Vec::new();
    for threads in [1, 2, 8] {
        let result = runner(threads).run(&plan);
        assert!(result.all_ok(), "threads={threads}");
        assert_eq!(result.stats.symbolic_analyses, 0, "threads={threads}");
        assert_eq!(result.stats.plan_compilations, 0, "threads={threads}");
        assert_eq!(
            result.stats.shared_symbolic_wait_events, 0,
            "threads={threads}"
        );
        per_thread.push(waveforms(&result));
    }
    assert_eq!(per_thread[0], per_thread[1]);
    assert_eq!(per_thread[0], per_thread[2]);
}

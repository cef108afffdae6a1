//! Batch-sweep throughput harness: a Monte-Carlo corner sweep of one
//! power-grid topology through the [`exi_sim::BatchRunner`], at one worker
//! thread and at full parallelism.
//!
//! Reports the fleet-level amortization (one plan and one `G` ordering for
//! the whole sweep, counted as `shared_symbolic_hits` by every job after the
//! first) and the parallel speedup, and writes the machine-readable **`BENCH_sweep.json`** so
//! successive revisions have a sweep-throughput trajectory to regress
//! against (the batch analogue of `BENCH_table1.json`).
//!
//! Besides the Monte-Carlo corner sweep, the harness runs a **batch-scaling
//! curve**: fleets of same-pattern RC-mesh jobs from ~1.6·10³ up to 10⁴
//! unknowns, each at 1 and 2 worker threads (plus full hardware parallelism
//! when the host offers more). The curve lands in the JSON as `scaling`, and
//! `scaling_gate` distills the one number CI regresses on — the 2-worker
//! speedup at the largest grid, alongside the host parallelism so
//! single-core runners can be recognised and skipped.
//!
//! Usage: `cargo run --release -p exi-bench --bin sweep [jobs] [threads]`
//! (`jobs` defaults to 12, `threads` to the hardware parallelism)

use exi_bench::arg_or_exit;
use exi_netlist::generators::{power_grid, rc_mesh, PowerGridSpec, RcMeshSpec};
use exi_sim::{BatchPlan, BatchResult, BatchRunner, Method, TransientOptions};

/// File the machine-readable results are written to (working directory).
const JSON_OUTPUT: &str = "BENCH_sweep.json";

fn sweep_plan(jobs: usize) -> BatchPlan {
    let mut plan = BatchPlan::new();
    for k in 0..jobs {
        // Monte-Carlo corners: same 24x24 grid `G` pattern, varied sink load
        // and placement — each corner compiles its own plan and pivots its
        // own matrices.
        let spec = PowerGridSpec {
            rows: 24,
            cols: 24,
            num_sinks: 48,
            sink_current: 4e-3 + 0.5e-3 * (k % 4) as f64,
            seed: 100 + k as u64,
            ..PowerGridSpec::default()
        };
        let circuit = power_grid(&spec).expect("power grid builds");
        let options = TransientOptions {
            t_stop: 4e-9,
            h_init: 1e-12,
            h_max: 2e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        plan.push(
            exi_sim::BatchJob::new(
                format!(
                    "mc{k} isink={:.1}mA seed={}",
                    spec.sink_current * 1e3,
                    spec.seed
                ),
                circuit,
                Method::ExponentialRosenbrock,
                options,
            )
            .probe("g_5_5"),
        );
    }
    plan
}

fn jobs_json(result: &BatchResult) -> String {
    let rows: Vec<String> = result
        .jobs
        .iter()
        .map(|j| match &j.result {
            Ok(_) => format!(
                "    {{\"label\":\"{}\",\"status\":\"ok\",{},\"active_solver_s\":{:.6}}}",
                j.label,
                j.stats.json_fields(),
                j.stats.active_solver_seconds()
            ),
            Err(e) => format!(
                "    {{\"label\":\"{}\",\"status\":\"failed\",\"error\":\"{}\"}}",
                j.label,
                e.to_string().replace('"', "'")
            ),
        })
        .collect();
    rows.join(",\n")
}

fn merged_json(result: &BatchResult) -> String {
    let s = &result.stats;
    // Per-worker attribution of the active solver time: an uneven schedule
    // (the 0.97x scaling regression, ROADMAP item 1) shows up here as one
    // worker's entry dwarfing the rest. Plan-cache wait time is reported
    // separately so lock contention can never masquerade as solver work.
    let per_worker: Vec<String> = result
        .worker_active()
        .iter()
        .map(|t| format!("{t:.6}"))
        .collect();
    let per_worker_wait: Vec<String> = result
        .worker_cache_wait()
        .iter()
        .map(|t| format!("{t:.6}"))
        .collect();
    format!(
        concat!(
            "{{{},\"active_solver_s\":{:.6},",
            "\"active_solver_s_per_worker\":[{}],\"cache_wait_s_per_worker\":[{}],",
            "\"wall_s\":{:.6}}}"
        ),
        s.json_fields(),
        s.active_solver_seconds(),
        per_worker.join(","),
        per_worker_wait.join(","),
        result.wall_time.as_secs_f64(),
    )
}

/// Same-pattern RC-mesh fleet for the scaling curve: one topology, distinct
/// step-control corners, so the whole fleet shares one plan and one `G`
/// ordering — the regime the 2-worker gate is defined over. Mirrors the
/// `integration_scaling` regression test.
fn scaling_plan(rows: usize, cols: usize, jobs: usize) -> BatchPlan {
    let mut plan = BatchPlan::new();
    for k in 0..jobs {
        let circuit = rc_mesh(&RcMeshSpec {
            rows,
            cols,
            ..RcMeshSpec::default()
        })
        .expect("mesh builds");
        let options = TransientOptions {
            t_stop: 3e-10 + k as f64 * 2e-11,
            h_init: 1e-12,
            h_max: 2e-11,
            error_budget: 1e-3 / (1.0 + k as f64 * 0.2),
            ..TransientOptions::default()
        };
        plan.push(
            exi_sim::BatchJob::new(
                format!("mesh{rows}x{cols} corner{k}"),
                circuit,
                Method::ExponentialRosenbrock,
                options,
            )
            .probe(format!("m_{}_{}", rows - 1, cols - 1)),
        );
    }
    plan
}

/// One grid size of the scaling curve: the fleet at each worker count, with
/// the 1-worker wall time as the speedup denominator. Returns the JSON
/// object for this grid and the measured 2-worker speedup.
fn scaling_grid(rows: usize, cols: usize, jobs: usize, worker_counts: &[usize]) -> (String, f64) {
    let unknowns = scaling_plan(rows, cols, 1).jobs()[0].circuit.num_unknowns();
    // Warm-up run: absorb one-time costs (allocator growth, page faults) so
    // the timed points compare schedules, not process start-up.
    let warmup = BatchRunner::new()
        .worker_threads(1)
        .run(&scaling_plan(rows, cols, 1));
    assert!(warmup.all_ok(), "scaling warm-up failed on {rows}x{cols}");

    let mut wall_1 = f64::NAN;
    let mut speedup_2 = f64::NAN;
    let mut points = Vec::new();
    for &workers in worker_counts {
        let result = BatchRunner::new()
            .worker_threads(workers)
            .run(&scaling_plan(rows, cols, jobs));
        assert!(result.all_ok(), "scaling run failed on {rows}x{cols}");
        let wall = result.wall_time.as_secs_f64();
        if workers == 1 {
            wall_1 = wall;
        }
        let speedup = wall_1 / wall.max(1e-9);
        if workers == 2 {
            speedup_2 = speedup;
        }
        println!(
            "  {rows}x{cols} ({unknowns} unknowns), {workers} worker(s): wall {wall:.3} s | \
             speedup {speedup:.2}x"
        );
        points.push(format!(
            concat!(
                "      {{\"worker_threads\":{},\"wall_s\":{:.6},\"speedup\":{:.3},",
                "\"throughput_jobs_per_s\":{:.3},\"active_solver_s\":{:.6},",
                "\"cache_wait_s\":{:.6}}}"
            ),
            workers,
            wall,
            speedup,
            jobs as f64 / wall.max(1e-9),
            result.stats.active_solver_seconds(),
            result.stats.cache_wait_seconds(),
        ));
    }
    let json = format!(
        concat!("    {{\"grid\":\"{}x{}\",\"unknowns\":{},\"jobs\":{},\"points\":[\n{}\n    ]}}"),
        rows,
        cols,
        unknowns,
        jobs,
        points.join(",\n"),
    );
    (json, speedup_2)
}

fn main() {
    const USAGE: &str = "sweep [jobs] [threads]";
    let jobs: usize = arg_or_exit(std::env::args().nth(1).as_deref(), 12, USAGE);
    let threads: usize = arg_or_exit(std::env::args().nth(2).as_deref(), 0, USAGE);

    let runner = BatchRunner::new().worker_threads(threads);
    let threads = runner.effective_worker_threads();
    println!("batch sweep: {jobs} Monte-Carlo corners, 24x24 power grid, ER\n");

    // Baseline: the identical plan at one worker.
    let baseline = BatchRunner::new().worker_threads(1).run(&sweep_plan(jobs));
    let parallel = runner.run(&sweep_plan(jobs));
    for (tag, result) in [("1 thread", &baseline), ("parallel", &parallel)] {
        let s = &result.stats;
        println!(
            "{tag:>9} ({} workers): wall {:.3} s | {} steps | {} LU ({} symbolic, {} on a shared ordering) | {} failed",
            s.worker_threads,
            result.wall_time.as_secs_f64(),
            s.accepted_steps,
            s.lu_factorizations,
            s.symbolic_analyses,
            s.shared_symbolic_hits,
            result.failed(),
        );
    }
    let speedup = baseline.wall_time.as_secs_f64() / parallel.wall_time.as_secs_f64().max(1e-9);
    let throughput = jobs as f64 / parallel.wall_time.as_secs_f64().max(1e-9);
    println!("\nspeedup: {speedup:.2}x | throughput: {throughput:.1} jobs/s");
    println!(
        "fleet amortization: {} symbolic analyses for {} jobs ({} on a shared G ordering)",
        parallel.stats.symbolic_analyses, jobs, parallel.stats.shared_symbolic_hits
    );

    // Batch-scaling curve: same-pattern RC-mesh fleets at increasing size,
    // each at 1 and 2 workers (plus full hardware parallelism when the host
    // has more). The largest grid clears the ISSUE's 10^4-unknown floor and
    // its 2-worker speedup becomes the `scaling_gate` number CI regresses on.
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut worker_counts = vec![1usize, 2];
    if host_parallelism > 2 {
        worker_counts.push(host_parallelism);
    }
    const SCALING_JOBS: usize = 8;
    println!("\nbatch scaling: {SCALING_JOBS} same-pattern RC-mesh corners per point");
    let mut scaling_rows = Vec::new();
    let mut gate_speedup = f64::NAN;
    let mut gate_unknowns = 0usize;
    for (rows, cols) in [(40usize, 40usize), (100, 100)] {
        let (json, speedup_2) = scaling_grid(rows, cols, SCALING_JOBS, &worker_counts);
        scaling_rows.push(json);
        gate_speedup = speedup_2;
        gate_unknowns = rows * cols + 2;
    }
    println!(
        "scaling gate: {gate_speedup:.2}x at {gate_unknowns} unknowns \
         (host parallelism {host_parallelism})"
    );

    let json = format!(
        concat!(
            "{{\n  \"jobs\": {},\n  \"worker_threads\": {},\n",
            "  \"wall_s\": {:.6},\n  \"baseline_wall_s\": {:.6},\n",
            "  \"speedup\": {:.3},\n  \"throughput_jobs_per_s\": {:.3},\n",
            "  \"merged\": {},\n  \"baseline_merged\": {},\n",
            "  \"jobs_detail\": [\n{}\n  ],\n",
            "  \"scaling\": [\n{}\n  ],\n",
            "  \"scaling_gate\": {{\"unknowns\": {}, \"speedup_2_workers\": {:.3}, ",
            "\"host_parallelism\": {}}}\n}}\n"
        ),
        jobs,
        threads,
        parallel.wall_time.as_secs_f64(),
        baseline.wall_time.as_secs_f64(),
        speedup,
        throughput,
        merged_json(&parallel),
        merged_json(&baseline),
        jobs_json(&parallel),
        scaling_rows.join(",\n"),
        gate_unknowns,
        gate_speedup,
        host_parallelism,
    );
    match std::fs::write(JSON_OUTPUT, &json) {
        Ok(()) => println!("\nmachine-readable results written to {JSON_OUTPUT}"),
        Err(e) => eprintln!("could not write {JSON_OUTPUT}: {e}"),
    }
}

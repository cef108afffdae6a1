//! Monte-Carlo corner sweep of a power-distribution grid through the batch
//! subsystem.
//!
//! Eighteen corners of the same 12×12 grid (supply voltage ±10 %, sink
//! current ±50 %, randomized sink placement) run concurrently over a worker
//! pool. Corners that differ only in source waveforms share one compiled
//! plan and its `G` ordering — the batch-level extension of the paper's
//! per-run amortization — while each corner pivots its own matrices and
//! reports its own worst IR drop.
//!
//! Run with: `cargo run --release -p exi-sim --example corner_sweep`

use exi_netlist::generators::{power_grid, PowerGridSpec};
use exi_sim::{BatchJob, BatchPlan, BatchProgress, BatchRunner, Method, TransientOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut plan = BatchPlan::new();
    let mut corner = 0usize;
    for vdd_scale in [0.9, 1.0, 1.1] {
        for sink_scale in [0.5, 1.0, 1.5] {
            for seed in [7, 8] {
                let spec = PowerGridSpec {
                    rows: 12,
                    cols: 12,
                    vdd: 1.0 * vdd_scale,
                    sink_current: 5e-3 * sink_scale,
                    num_sinks: 24,
                    seed,
                    ..PowerGridSpec::default()
                };
                let circuit = power_grid(&spec)?;
                let options = TransientOptions {
                    t_stop: 2e-9,
                    h_init: 1e-12,
                    h_max: 2e-11,
                    error_budget: 1e-3,
                    ..TransientOptions::default()
                };
                plan.push(
                    BatchJob::new(
                        format!(
                            "vdd={:.2} isink={:.1}mA seed={seed}",
                            spec.vdd,
                            spec.sink_current * 1e3
                        ),
                        circuit,
                        Method::ExponentialRosenbrock,
                        options,
                    )
                    .probe("g_5_5")
                    .probe("g_6_6"),
                );
                corner += 1;
            }
        }
    }
    println!("corner sweep: {corner} jobs on one 12x12 grid topology\n");

    let progress = BatchProgress::new();
    let runner = BatchRunner::new();
    let threads = runner.effective_worker_threads();
    let result = runner.run_observed(&plan, &progress);

    println!(
        "{:<32} {:>8} {:>12} {:>12}",
        "corner", "steps", "v(g_5_5)", "droop"
    );
    for (job, outcome) in plan.jobs().iter().zip(result.jobs.iter()) {
        match outcome.recorded() {
            Some(waveform) => {
                let p = waveform.probe_index("g_5_5").expect("probe recorded");
                let vdd_nominal = waveform.samples[0][p];
                let v_min = waveform
                    .samples
                    .iter()
                    .map(|row| row[p])
                    .fold(f64::INFINITY, f64::min);
                println!(
                    "{:<32} {:>8} {:>11.4}V {:>11.2}mV",
                    job.label,
                    waveform.stats.accepted_steps,
                    v_min,
                    (vdd_nominal - v_min) * 1e3
                );
            }
            None => println!(
                "{:<32} failed: {}",
                job.label,
                outcome
                    .result
                    .as_ref()
                    .err()
                    .map_or_else(|| "unknown".to_string(), std::string::ToString::to_string)
            ),
        }
    }

    let stats = &result.stats;
    println!(
        "\nbatch totals ({} workers, {} finished):",
        threads,
        progress.finished()
    );
    println!(
        "  wall time           : {:.3} s",
        result.wall_time.as_secs_f64()
    );
    println!(
        "  active solver time  : {:.3} s (sum over workers)",
        stats.runtime_seconds()
    );
    println!("  accepted steps      : {}", stats.accepted_steps);
    println!("  LU factorizations   : {}", stats.lu_factorizations);
    println!(
        "  symbolic analyses   : {}  <- one per corner",
        stats.symbolic_analyses
    );
    println!(
        "  plan compilations   : {}  <- one per sink placement",
        stats.plan_compilations
    );
    println!("  shared G orderings  : {}", stats.shared_symbolic_hits);
    println!(
        "  throughput          : {:.1} jobs/s",
        stats.batch_jobs as f64 / result.wall_time.as_secs_f64().max(1e-9)
    );
    Ok(())
}

//! Batch-parallelism scaling regression tests at the ISSUE's 10⁴-unknown
//! floor: two workers must genuinely beat one on same-pattern job fleets,
//! and the output must stay bit-identical to sequential execution at every
//! worker count.
//!
//! These tests factorize 10 000-unknown meshes repeatedly and are `#[ignore]`
//! by default; CI's batch job runs them with `--release -- --ignored` on a
//! multi-core runner. On a single-core host the speedup test skips itself
//! (wall-clock parallel speedup is unmeasurable there) while the bit-identity
//! test still runs to completion.

use std::time::Instant;

use exi_netlist::generators::{rc_mesh, RcMeshSpec};
use exi_sim::{BatchJob, BatchPlan, BatchRunner, Method, Simulator, TransientOptions};

/// ≥ 10⁴ unknowns: a 100 × 100 RC mesh has 10 000 mesh nodes plus the
/// driver node and one source branch current.
fn mesh_circuit() -> exi_netlist::Circuit {
    rc_mesh(&RcMeshSpec {
        rows: 100,
        cols: 100,
        ..RcMeshSpec::default()
    })
    .expect("mesh builds")
}

fn mesh_options(k: usize) -> TransientOptions {
    // Distinct step-control corners on one topology, so the whole fleet
    // shares one plan and one `G` ordering.
    TransientOptions {
        t_stop: 3e-10 + k as f64 * 2e-11,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 1e-3 / (1.0 + k as f64 * 0.2),
        ..TransientOptions::default()
    }
}

fn mesh_plan(jobs: usize) -> BatchPlan {
    let mut plan = BatchPlan::new();
    for k in 0..jobs {
        plan.push(
            BatchJob::new(
                format!("corner{k}"),
                mesh_circuit(),
                Method::ExponentialRosenbrock,
                mesh_options(k),
            )
            .probe("m_99_99"),
        );
    }
    plan
}

/// 8 same-pattern jobs at 10⁴+ unknowns must run ≥ 1.3× faster on 2 workers
/// than on 1. Every job pivots its own `G`, so no job waits on another's
/// analysis and nothing on the step hot path takes a shared lock.
#[test]
#[ignore = "wall-clock benchmark; run explicitly (CI batch job) on a multi-core host"]
fn two_workers_beat_one_at_ten_thousand_unknowns() {
    const JOBS: usize = 8;
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if host_parallelism < 2 {
        eprintln!(
            "skipping speedup assertion: host offers {host_parallelism} hardware thread(s); \
             parallel wall-clock speedup is unmeasurable here"
        );
        return;
    }

    let n = mesh_circuit().num_unknowns();
    assert!(n >= 10_000, "mesh too small: {n} unknowns");

    // Warm-up run so one-time costs (allocator growth, page faults) don't
    // pollute the timed comparison.
    let warmup = BatchRunner::new().worker_threads(1).run(&mesh_plan(1));
    assert!(warmup.all_ok());

    let started = Instant::now();
    let sequential = BatchRunner::new().worker_threads(1).run(&mesh_plan(JOBS));
    let wall_1 = started.elapsed().as_secs_f64();
    assert!(sequential.all_ok());

    let started = Instant::now();
    let parallel = BatchRunner::new().worker_threads(2).run(&mesh_plan(JOBS));
    let wall_2 = started.elapsed().as_secs_f64();
    assert!(parallel.all_ok());

    // One `G` analysis per job under one shared ordering — at both worker
    // counts.
    for result in [&sequential, &parallel] {
        assert_eq!(result.stats.symbolic_analyses, JOBS, "{:?}", result.stats);
        assert_eq!(result.stats.shared_symbolic_hits, JOBS - 1);
    }

    let speedup = wall_1 / wall_2;
    assert!(
        speedup >= 1.3,
        "2 workers must beat 1 by >= 1.3x at {n} unknowns: \
         wall_1 = {wall_1:.3}s, wall_2 = {wall_2:.3}s, speedup = {speedup:.2}x"
    );
}

/// Bit-identity at the 10⁴-unknown scale: batch output must match isolated
/// sequential sessions exactly and be invariant across 1, 2 and 8 workers.
#[test]
#[ignore = "factorizes a 10^4-unknown mesh repeatedly; run explicitly (CI batch job)"]
fn batch_is_bit_identical_across_worker_counts_at_ten_thousand_unknowns() {
    const JOBS: usize = 3;
    let reference: Vec<_> = (0..JOBS)
        .map(|k| {
            let circuit = mesh_circuit();
            let r = Simulator::new(&circuit)
                .transient(
                    Method::ExponentialRosenbrock,
                    &mesh_options(k),
                    &["m_99_99"],
                )
                .expect("sequential run");
            (r.times, r.samples, r.final_state)
        })
        .collect();
    let mut per_thread = Vec::new();
    for threads in [1usize, 2, 8] {
        let result = BatchRunner::new()
            .worker_threads(threads)
            .run(&mesh_plan(JOBS));
        assert!(result.all_ok(), "threads={threads}");
        let waves: Vec<_> = result
            .jobs
            .iter()
            .map(|j| {
                let r = j.recorded().expect("recorded output");
                (r.times.clone(), r.samples.clone(), r.final_state.clone())
            })
            .collect();
        per_thread.push(waves);
    }
    assert_eq!(per_thread[0], per_thread[1]);
    assert_eq!(per_thread[0], per_thread[2]);
    assert_eq!(per_thread[0], reference);
}

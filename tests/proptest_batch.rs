//! Property-based determinism tests for the batch subsystem: on randomly
//! generated fixed-topology circuits and per-job option corners, a
//! [`BatchRunner`] reproduces isolated sequential [`Simulator`] runs **bit
//! for bit**, is invariant across worker-thread counts, and computes one `G`
//! ordering per distinct plan.

use exi_netlist::{Circuit, Waveform};
use exi_sim::{BatchJob, BatchPlan, BatchRunner, Method, RunStats, Simulator, TransientOptions};
use proptest::prelude::*;

/// Builds an RC ladder `in -R- n1 -R- … -R- out` with a capacitor to ground
/// at every internal node, driven by a fast PWL ramp.
fn rc_ladder(resistors: &[f64], caps: &[f64]) -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = ckt.node("0");
    let vin = ckt.node("in");
    ckt.add_voltage_source(
        "V1",
        vin,
        gnd,
        Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]),
    )
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

/// Two ladder topologies with **distinct** lengths (hence distinct matrix
/// patterns) plus per-job option corners. Same-pattern jobs share identical
/// circuits, so they also share one compiled plan and its `G` ordering;
/// corners whose values differ are `tests/integration_batch.rs`'s.
#[allow(clippy::type_complexity)]
fn sweep_inputs() -> impl Strategy<
    Value = (
        (Vec<f64>, Vec<f64>),
        (Vec<f64>, Vec<f64>),
        Vec<(f64, f64)>, // (t_stop scale, error budget) corners
    ),
> {
    (2usize..5, 1usize..4).prop_flat_map(|(n1, delta)| {
        let n2 = n1 + delta;
        (
            (
                proptest::collection::vec(100.0f64..10_000.0, n1),
                proptest::collection::vec(1e-13f64..1e-12, n1),
            ),
            (
                proptest::collection::vec(100.0f64..10_000.0, n2),
                proptest::collection::vec(1e-13f64..1e-12, n2),
            ),
            proptest::collection::vec((0.5f64..2.0, 1e-4f64..1e-2), 2..4),
        )
    })
}

fn job_options(t_scale: f64, budget: f64) -> TransientOptions {
    TransientOptions {
        t_stop: 6e-10 * t_scale,
        h_init: 1e-12,
        h_max: 5e-11,
        error_budget: budget,
        ..TransientOptions::default()
    }
}

/// The methods assigned round-robin to the option corners of topology A.
/// `BackwardEuler` exercises the second (implicit-Jacobian) matrix role.
const METHODS: [Method; 3] = [
    Method::ExponentialRosenbrock,
    Method::ExponentialRosenbrockCorrected,
    Method::BackwardEuler,
];

fn build_plan(
    ladder_a: &Circuit,
    ladder_b: &Circuit,
    corners: &[(f64, f64)],
) -> (BatchPlan, Vec<(Method, TransientOptions)>) {
    let mut plan = BatchPlan::new();
    let mut specs = Vec::new();
    for (k, &(t_scale, budget)) in corners.iter().enumerate() {
        let method = METHODS[k % METHODS.len()];
        let options = job_options(t_scale, budget);
        plan.push(
            BatchJob::new(format!("a{k}"), ladder_a.clone(), method, options.clone()).probe("out"),
        );
        specs.push((method, options));
    }
    // Topology B: a single ER job — a second distinct pattern in the fleet.
    let b_options = job_options(1.0, 1e-3);
    plan.push(
        BatchJob::new(
            "b0",
            ladder_b.clone(),
            Method::ExponentialRosenbrock,
            b_options.clone(),
        )
        .probe("out"),
    );
    specs.push((Method::ExponentialRosenbrock, b_options));
    (plan, specs)
}

fn strip_timing(stats: &RunStats) -> RunStats {
    RunStats {
        runtime: std::time::Duration::ZERO,
        cache_wait: std::time::Duration::ZERO,
        worker_threads: 0,
        ..stats.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batch output is bit-identical to isolated sequential `Simulator` runs
    /// and invariant across worker-thread counts (1, 2, 8); each plan's `G`
    /// ordering is computed once, and every job analyzes its own matrices.
    #[test]
    fn batch_matches_sequential_bit_for_bit_at_any_thread_count(
        (ladder1, ladder2, corners) in sweep_inputs()
    ) {
        let ladder_a = rc_ladder(&ladder1.0, &ladder1.1);
        let ladder_b = rc_ladder(&ladder2.0, &ladder2.1);
        let (plan, specs) = build_plan(&ladder_a, &ladder_b, &corners);

        // Isolated sequential reference, one fresh unshared session per job.
        let circuits: Vec<&Circuit> = corners
            .iter()
            .map(|_| &ladder_a)
            .chain(std::iter::once(&ladder_b))
            .collect();
        let reference: Vec<_> = circuits
            .iter()
            .zip(specs.iter())
            .map(|(ckt, (method, options))| {
                let r = Simulator::new(ckt)
                    .transient(*method, options, &["out"])
                    .expect("sequential run");
                (r.times, r.samples, r.final_state)
            })
            .collect();

        let mut per_thread_waves = Vec::new();
        let mut per_thread_stats = Vec::new();
        for threads in [1usize, 2, 8] {
            let result = BatchRunner::new().worker_threads(threads).run(&plan);
            prop_assert!(result.all_ok());
            prop_assert_eq!(result.stats.batch_jobs, plan.len());
            let waves: Vec<_> = result
                .jobs
                .iter()
                .map(|j| {
                    let r = j.recorded().expect("recorded output");
                    (r.times.clone(), r.samples.clone(), r.final_state.clone())
                })
                .collect();
            per_thread_waves.push(waves);
            per_thread_stats.push(strip_timing(&result.stats));
        }

        // Invariant across worker-thread counts…
        prop_assert_eq!(&per_thread_waves[0], &per_thread_waves[1]);
        prop_assert_eq!(&per_thread_waves[0], &per_thread_waves[2]);
        prop_assert_eq!(&per_thread_stats[0], &per_thread_stats[1]);
        prop_assert_eq!(&per_thread_stats[0], &per_thread_stats[2]);
        // …and bit-identical to the isolated sequential runs.
        prop_assert_eq!(&per_thread_waves[0], &reference);

        // One analysis per job and matrix role: every job factorizes its own
        // `G` (topology A's `corners.len()` jobs plus topology B's one), and
        // each BackwardEuler job its own Jacobian as well.
        let jac_users = corners.iter().enumerate()
            .filter(|(k, _)| METHODS[k % METHODS.len()] == Method::BackwardEuler)
            .count();
        prop_assert_eq!(
            per_thread_stats[0].symbolic_analyses,
            corners.len() + 1 + jac_users,
            "{:?}", per_thread_stats[0]
        );
        // Topology A's jobs share one plan: all but the first found its `G`
        // ordering already computed. Topology B's lone job computed its own.
        prop_assert_eq!(
            per_thread_stats[0].shared_symbolic_hits,
            corners.len() - 1,
            "{:?}", per_thread_stats[0]
        );
    }
}

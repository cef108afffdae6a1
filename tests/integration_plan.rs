//! Integration tests for the stamping-plan hot path: exactly one plan
//! compilation per topology, a zero-allocation steady state, and
//! restamped-entry counts that scale with the nonlinear device count only.

use std::sync::Arc;

use exi_netlist::generators::{inverter_chain, power_grid, InverterChainSpec, PowerGridSpec};
use exi_sim::{BatchJob, BatchPlan, BatchRunner, Method, PlanCache, Simulator, TransientOptions};

fn options() -> TransientOptions {
    TransientOptions {
        t_stop: 5e-10,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 1e-3,
        ..TransientOptions::default()
    }
}

/// Acceptance criterion: a power-grid transient (linear-dominated workload)
/// compiles exactly one plan and — having no nonlinear devices — restamps
/// nothing: every per-step matrix restore is a flat baseline copy. (That a
/// warm run allocates nothing is `alloc_contract`'s to check.)
#[test]
fn power_grid_transient_compiles_one_plan_and_restamps_nothing() {
    let spec = PowerGridSpec {
        rows: 10,
        cols: 10,
        num_sinks: 12,
        ..PowerGridSpec::default()
    };
    let circuit = power_grid(&spec).unwrap();
    let plan = circuit.compile_plan().unwrap();
    assert_eq!(plan.nonlinear_stamp_count(), 0);

    let mut sim = Simulator::new(&circuit);
    let first = sim
        .transient(Method::ExponentialRosenbrock, &options(), &["g_5_5"])
        .unwrap();
    assert!(first.stats.accepted_steps > 5);
    // The DC solve's evaluations, plus one per step that did not carry on
    // with the kept subspace.
    let linearizations = first.stats.accepted_steps - first.stats.krylov_subspace_reuses;
    assert!(first.stats.device_evaluations > linearizations);
    // One topology analysis for the whole run...
    assert_eq!(first.stats.plan_compilations, 1, "{:?}", first.stats);
    // ...and zero nonlinear restamps (the grid is linear).
    assert_eq!(first.stats.restamped_entries, 0);

    // A second run (different method, same session) reuses the plan.
    let second = sim
        .transient(Method::BackwardEuler, &options(), &["g_5_5"])
        .unwrap();
    assert_eq!(second.stats.plan_compilations, 0, "{:?}", second.stats);
    assert_eq!(sim.session_stats().plan_compilations, 1);
}

/// On a nonlinear workload the per-evaluation restamp cost is exactly the
/// nonlinear stamp count — the linear baseline (wires, loads, supplies) is
/// never re-stamped.
#[test]
fn restamped_entries_scale_with_nonlinear_stamps_only() {
    let spec = InverterChainSpec {
        stages: 3,
        ..InverterChainSpec::default()
    };
    let circuit = inverter_chain(&spec).unwrap();
    let plan = circuit.compile_plan().unwrap();
    let nl = plan.nonlinear_stamp_count();
    // 3 stages × (NMOS with grounded source: 2 live cells, PMOS with vdd
    // source: 6 live cells).
    assert_eq!(nl, 3 * (2 + 6));

    let opts = TransientOptions {
        t_stop: 2e-10,
        h_init: 1e-12,
        h_max: 5e-12,
        error_budget: 5e-3,
        ..TransientOptions::default()
    };
    for method in [Method::ExponentialRosenbrock, Method::BackwardEuler] {
        let run = Simulator::new(&circuit)
            .transient(method, &opts, &["s3"])
            .unwrap();
        assert_eq!(
            run.stats.restamped_entries,
            run.stats.device_evaluations * nl,
            "{method:?}: {:?}",
            run.stats
        );
    }
}

/// A same-structure batch shares one compiled plan fleet-wide: the merged
/// statistics report a single compilation plus one cache hit per session.
#[test]
fn batch_jobs_share_one_plan_compilation() {
    let mut plan = BatchPlan::new();
    for k in 0..6 {
        // One fixed grid structure; only the error budget varies (a sink
        // seed would move the sinks and change the device structure).
        let spec = PowerGridSpec {
            rows: 6,
            cols: 6,
            num_sinks: 4,
            ..PowerGridSpec::default()
        };
        let circuit = power_grid(&spec).unwrap();
        let opts = TransientOptions {
            error_budget: 1e-3 / (k + 1) as f64,
            ..options()
        };
        plan.push(
            BatchJob::new(
                format!("budget{k}"),
                circuit,
                Method::ExponentialRosenbrock,
                opts,
            )
            .probe("g_3_3"),
        );
    }
    let shared_plans = Arc::new(PlanCache::new());
    let runner = BatchRunner::new()
        .worker_threads(3)
        .shared_plan_cache(Arc::clone(&shared_plans));
    let result = runner.run(&plan);
    assert!(result.all_ok());
    assert_eq!(result.stats.batch_jobs, 6);
    // One distinct structure -> one compile (by whichever session asked
    // first), every other session served from the pool.
    assert_eq!(result.stats.plan_compilations, 1, "{:?}", result.stats);
    assert_eq!(result.stats.shared_plan_hits, 5);
    assert_eq!(shared_plans.len(), 1);
    let stats = shared_plans.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.capacity, None);
    assert_eq!(stats.evictions, 0);
    // Exactly one compile; every other session's access was a warm hit.
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 5, "{stats:?}");
}

/// A capacity-bounded plan cache evicts its least-recently-used structure
/// and accounts every hit, miss, and eviction — residency guarantees for a
/// long-lived server process.
#[test]
fn bounded_plan_cache_evicts_lru_and_counts() {
    let circuits: Vec<_> = (2..5)
        .map(|stages| {
            inverter_chain(&InverterChainSpec {
                stages,
                ..InverterChainSpec::default()
            })
            .unwrap()
        })
        .collect();
    let (a, b, c) = (&circuits[0], &circuits[1], &circuits[2]);

    let cache = PlanCache::with_capacity(2);
    assert_eq!(cache.capacity(), Some(2));
    assert!(cache.get_or_compile(a).unwrap().1);
    assert!(cache.get_or_compile(b).unwrap().1);
    // Touch `a` so `b` becomes the least recently used...
    assert!(!cache.get_or_compile(a).unwrap().1);
    // ...then admit `c`, which must evict `b`.
    assert!(cache.get_or_compile(c).unwrap().1);
    assert_eq!(cache.len(), 2);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
    // `b` was evicted, so it recompiles (displacing `a`, now the LRU),
    // while `c` is still resident.
    assert!(cache.get_or_compile(b).unwrap().1);
    assert!(!cache.get_or_compile(c).unwrap().1);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 4, 2));
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.capacity, Some(2));
    assert!((stats.hit_rate() - 2.0 / 6.0).abs() < 1e-15);
}

/// A zero capacity is clamped to one entry: the cache still functions as a
/// single-slot plan holder instead of thrashing on every request.
#[test]
fn plan_cache_capacity_floor_is_one() {
    let cache = PlanCache::with_capacity(0);
    assert_eq!(cache.capacity(), Some(1));
    let spec = InverterChainSpec {
        stages: 2,
        ..InverterChainSpec::default()
    };
    let circuit = inverter_chain(&spec).unwrap();
    assert!(cache.get_or_compile(&circuit).unwrap().1);
    assert!(!cache.get_or_compile(&circuit).unwrap().1);
    assert_eq!(cache.len(), 1);
}

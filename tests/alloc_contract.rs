//! The zero-allocation contract (docs/ARCHITECTURE.md, contract 2), judged
//! by the allocator itself: once a session has run a transient, a second,
//! identical run makes no heap allocation in any `advance()` — nor in an
//! explicit `start()` — whatever the method.
//!
//! A counting `#[global_allocator]` counts `alloc`, `alloc_zeroed` and
//! `realloc` on the thread that armed it, so the harness's other test
//! threads do not disturb a count. Creating the stepper and finishing the
//! run are outside the contract: they happen once per run, not per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exi_netlist::generators::{
    coupled_lines, inverter_chain, power_grid, rc_ladder, CoupledLinesSpec, InverterChainSpec,
    PowerGridSpec, RcLadderSpec,
};
use exi_netlist::Circuit;
use exi_sim::{Engine, Method, NullObserver, Simulator, StepOutcome, TransientOptions};

/// The system allocator, counting what the current thread asks of it while
/// armed.
struct CountingAllocator;

thread_local! {
    /// `Some(count)` while armed.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ALLOCATIONS.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the count touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `f()` with the heap allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let result = f();
    let count = ALLOCATIONS.with(|count| count.take());
    (result, count.expect("armed"))
}

/// How the measured run places its stepper at the DC point.
#[derive(Debug, Clone, Copy)]
enum Start {
    /// The first `advance()` starts it.
    InAdvance,
    /// `start()` does, before the first `advance()`.
    Explicit,
}

/// The four golden circuits (`integration_golden`'s specs) and
/// `integration_workloads`' densely coupled MOSFET lines, with the options
/// each runs `method` with. BE and TR run the dense lines for their first
/// 20 ps only: the fill of `C/h + G` there makes a whole run cost seconds
/// even in release.
fn circuits(method: Method) -> Vec<(&'static str, Circuit, TransientOptions)> {
    let dense_stop = match method {
        Method::BackwardEuler | Method::Trapezoidal => 0.02e-9,
        _ => 0.15e-9,
    };
    let options = |t_stop, h_max, error_budget| TransientOptions {
        t_stop,
        h_init: 1e-12,
        h_max,
        error_budget,
        ..TransientOptions::default()
    };
    vec![
        (
            "rc_ladder",
            rc_ladder(&RcLadderSpec {
                segments: 4,
                resistance: 200.0,
                capacitance: 2e-13,
                ..RcLadderSpec::default()
            })
            .unwrap(),
            options(5e-10, 2e-11, 1e-3),
        ),
        (
            "inverter_chain",
            inverter_chain(&InverterChainSpec {
                stages: 2,
                ..InverterChainSpec::default()
            })
            .unwrap(),
            options(3e-10, 5e-12, 5e-3),
        ),
        (
            "power_grid",
            power_grid(&PowerGridSpec {
                rows: 3,
                cols: 3,
                num_sinks: 2,
                ..PowerGridSpec::default()
            })
            .unwrap(),
            options(5e-10, 2e-11, 1e-3),
        ),
        (
            "coupled_lines",
            coupled_lines(&CoupledLinesSpec {
                lines: 2,
                segments: 4,
                random_couplings: 3,
                ..CoupledLinesSpec::default()
            })
            .unwrap(),
            options(2e-10, 1e-11, 1e-2),
        ),
        (
            "dense_coupling",
            coupled_lines(&CoupledLinesSpec {
                lines: 10,
                segments: 20,
                coupling_capacitance: 2e-15,
                random_couplings: 1500,
                mosfet_drivers: true,
                seed: 106,
                ..CoupledLinesSpec::default()
            })
            .unwrap(),
            TransientOptions {
                h_min: 1e-16,
                krylov_tolerance: 1e-7,
                ..options(dense_stop, 2e-11, 2e-3)
            },
        ),
    ]
}

/// The heap allocations of a warm run of `method`: every `advance()`, and
/// `start()` where it is explicit.
fn run_allocations(
    sim: &mut Simulator<'_>,
    method: Method,
    options: &TransientOptions,
    start: Start,
) -> usize {
    let mut observer = NullObserver;
    let mut stepper = sim.stepper(method, options).unwrap();
    let mut total = 0;
    if let Start::Explicit = start {
        let (started, n) = counted(|| stepper.start(&mut observer));
        started.unwrap();
        total += n;
    }
    loop {
        let (outcome, n) = counted(|| stepper.advance(&mut observer));
        total += n;
        if let StepOutcome::Finished = outcome.unwrap() {
            break;
        }
    }
    assert!(stepper.stats().accepted_steps > 0);
    stepper.finish(&mut observer);
    total
}

/// Every circuit: a session runs `method` once to warm up, then twice more,
/// identically, once per way to start. The nonzero counts, named.
fn allocating_runs(method: Method) -> Vec<String> {
    let mut found = Vec::new();
    for (name, circuit, options) in circuits(method) {
        let mut sim = Simulator::new(&circuit);
        sim.transient_observed(method, &options, &mut NullObserver)
            .unwrap();
        for start in [Start::InAdvance, Start::Explicit] {
            let n = run_allocations(&mut sim, method, &options, start);
            if n > 0 {
                found.push(format!("{name} ({start:?}): {n}"));
            }
        }
    }
    found
}

#[test]
fn backward_euler_allocates_nothing_once_warm() {
    assert_eq!(allocating_runs(Method::BackwardEuler), Vec::<String>::new());
}

#[test]
fn trapezoidal_allocates_nothing_once_warm() {
    assert_eq!(allocating_runs(Method::Trapezoidal), Vec::<String>::new());
}

#[test]
fn er_allocates_nothing_once_warm() {
    assert_eq!(
        allocating_runs(Method::ExponentialRosenbrock),
        Vec::<String>::new()
    );
}

#[test]
fn er_c_allocates_nothing_once_warm() {
    assert_eq!(
        allocating_runs(Method::ExponentialRosenbrockCorrected),
        Vec::<String>::new()
    );
}

/// The counter itself: it sees an allocation made while armed, and not the
/// allocations of another thread.
#[test]
fn the_counter_sees_this_threads_allocations_only() {
    let (v, n) = counted(|| vec![1.0f64; 8]);
    assert_eq!((v.len(), n), (8, 1));
    let (_, n) = counted(|| {
        std::thread::spawn(|| (0..1000).map(Box::new).collect::<Vec<_>>())
            .join()
            .unwrap()
    });
    // Spawning the thread allocates here; its thousand boxes do not count.
    assert!(n > 0 && n < 1000, "{n}");
    assert_eq!(counted(|| ()).1, 0);
}

//! Criterion bench for the MNA assembly layer: one-time stamping-plan
//! compilation vs per-evaluation restamping.
//!
//! The `assembly` group covers the two workload shapes the plan was built
//! for:
//!
//! * `power_grid` — linear-dominated (the plan restores the values by flat
//!   copies and shares its patterns),
//! * `coupled_mosfets` — nonlinear drivers on long RC lines (only the
//!   drivers' cells are scatter-added per evaluation).
//!
//! After each subgroup it prints the restamp time in microseconds with the
//! size of `G` and the nonlinear slots, and asserts that steady-state
//! restamps allocate nothing; the plan-compile timing shows how many
//! evaluations amortize one compilation.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use exi_netlist::generators::{coupled_lines, power_grid, CoupledLinesSpec, PowerGridSpec};
use exi_netlist::Circuit;

fn grid_circuit() -> Circuit {
    power_grid(&PowerGridSpec {
        rows: 40,
        cols: 40,
        num_sinks: 60,
        ..PowerGridSpec::default()
    })
    .expect("power grid circuit")
}

fn mosfet_lines_circuit() -> Circuit {
    coupled_lines(&CoupledLinesSpec {
        lines: 16,
        segments: 30,
        random_couplings: 200,
        mosfet_drivers: true,
        ..CoupledLinesSpec::default()
    })
    .expect("coupled lines circuit")
}

fn bench_case(c: &mut Criterion, tag: &str, circuit: &Circuit) {
    let n = circuit.num_unknowns();
    let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.5 * ((i % 7) as f64 / 7.0)).collect();
    let plan = circuit.compile_plan().expect("plan compiles");
    let mut ws = plan.new_workspace();
    let mut ev = plan.new_evaluation();

    let mut group = c.benchmark_group(format!("assembly/{tag}"));
    group.sample_size(10);
    group.bench_function("plan_compile", |b| {
        b.iter(|| criterion::black_box(circuit.compile_plan().expect("plan compiles")))
    });
    group.bench_function("plan_restamp", |b| {
        b.iter(|| plan.evaluate_into(&x, &mut ws, &mut ev).expect("restamp"))
    });
    group.finish();

    let reps = 50;
    let start = Instant::now();
    for _ in 0..reps {
        plan.evaluate_into(&x, &mut ws, &mut ev).expect("restamp");
    }
    let restamp = start.elapsed().as_secs_f64() / reps as f64;
    println!(
        "assembly/{tag}: plan restamp {:.3} us (n = {n}, nnz(G) = {}, \
         nonlinear stamps = {} on {} cells, assembly allocations = {})",
        restamp * 1e6,
        ev.g.nnz(),
        plan.nonlinear_stamp_count(),
        plan.nonlinear_cells().len(),
        ws.allocations(),
    );
    assert_eq!(
        ws.allocations(),
        0,
        "steady-state restamps must not allocate"
    );
}

fn bench_assembly(c: &mut Criterion) {
    bench_case(c, "power_grid", &grid_circuit());
    bench_case(c, "coupled_mosfets", &mosfet_lines_circuit());
}

criterion_group!(benches, bench_assembly);
criterion_main!(benches);

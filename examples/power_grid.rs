//! Domain example: power-distribution-network transient analysis — the
//! application domain of the invert/rational Krylov MEVP work the paper
//! builds on (MATEX). Reports the worst IR-drop seen at the observed grid
//! node for BENR and ER.
//!
//! Run with: `cargo run --release -p exi-sim --example power_grid`

use exi_netlist::generators::{power_grid, PowerGridSpec};
use exi_sim::{Method, SimError, Simulator, TransientOptions};

fn main() -> Result<(), SimError> {
    let spec = PowerGridSpec {
        rows: 10,
        cols: 10,
        num_sinks: 12,
        ..PowerGridSpec::default()
    };
    let circuit = power_grid(&spec)?;
    // Observe the grid node farthest from all four supply pads.
    let observed = format!("g_{}_{}", spec.rows / 2, spec.cols / 2);
    let probes = [observed.as_str()];
    let options = TransientOptions {
        t_stop: 4e-9,
        h_init: 2e-12,
        h_max: 5e-11,
        error_budget: 1e-4,
        ..TransientOptions::default()
    };

    println!(
        "power grid: {} x {} mesh, {} unknowns, {} current sinks",
        spec.rows,
        spec.cols,
        circuit.num_unknowns(),
        spec.num_sinks
    );
    // One session runs both methods: the DC solve happens once and the ER
    // engine reuses its symbolic LU analysis.
    let mut sim = Simulator::new(&circuit);
    for method in [Method::BackwardEuler, Method::ExponentialRosenbrock] {
        let result = sim.transient(method, &options, &probes)?;
        let p = result.probe_index(&observed).expect("probe");
        let worst = result
            .waveform(p)
            .into_iter()
            .fold(spec.vdd, |acc, (_, v)| acc.min(v));
        println!(
            "{:<5}: {} steps, {} LU factorizations ({} symbolic, {} numeric-only; {} more requests met an unchanged matrix), worst voltage at {} = {:.4} V (IR drop {:.1} mV)",
            method.label(),
            result.stats.accepted_steps,
            result.stats.lu_factorizations,
            result.stats.symbolic_analyses,
            result.stats.lu_refactorizations,
            result.stats.lu_reuses,
            observed,
            worst,
            (spec.vdd - worst) * 1e3
        );
    }
    println!(
        "session: {} runs, {} symbolic LU analyses total, {:.1}% of factorizations numeric-only",
        sim.completed_runs(),
        sim.session_stats().symbolic_analyses,
        100.0 * sim.session_stats().refactorization_ratio(),
    );
    Ok(())
}

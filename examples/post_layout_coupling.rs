//! Domain example: post-layout coupled interconnect — the workload class the
//! paper's Table I is about. Sweeps the parasitic coupling density and shows
//! how the BENR factor fill grows with nnz(C) while the ER factor fill (only
//! `G`) stays flat, together with the resulting runtimes.
//!
//! Run with: `cargo run --release -p exi-sim --example post_layout_coupling`

use exi_netlist::generators::{coupled_lines, CoupledLinesSpec};
use exi_sim::{Method, SimError, Simulator, TransientOptions};
use exi_sparse::{factor_fill, CsrMatrix, OrderingMethod};

fn main() -> Result<(), SimError> {
    println!("coupling sweep on an 8-line, 20-segment interconnect bundle");
    println!("extra_couplings  nnz(C)  nnz(G)  fill(C/h+G)  fill(G)  BENR RT(s)  ER RT(s)");
    for extra in [0usize, 200, 800, 2000] {
        let spec = CoupledLinesSpec {
            lines: 8,
            segments: 20,
            random_couplings: extra,
            mosfet_drivers: true,
            ..CoupledLinesSpec::default()
        };
        let circuit = coupled_lines(&spec)?;
        let n = circuit.num_unknowns();
        let x = vec![0.0; n];
        let eval = circuit.compile_plan()?.evaluate(&x)?;
        let h = 1e-12;
        let benr_matrix = CsrMatrix::linear_combination(1.0 / h, &eval.c, 1.0, &eval.g)?;
        let benr_fill = factor_fill(&benr_matrix, OrderingMethod::default()).map(|(l, u)| l + u);
        let g_fill = factor_fill(&eval.g, OrderingMethod::default()).map(|(l, u)| l + u)?;

        let options = TransientOptions {
            t_stop: 1e-9,
            h_init: 1e-12,
            h_max: 2e-11,
            error_budget: 2e-3,
            ..TransientOptions::default()
        };
        // Both methods share one session per sweep point (one DC solve).
        let mut sim = Simulator::new(&circuit);
        let benr = sim.transient(Method::BackwardEuler, &options, &[])?;
        let er = sim.transient(Method::ExponentialRosenbrock, &options, &[])?;
        println!(
            "{:<15}  {:<6}  {:<6}  {:<11}  {:<7}  {:<10.2}  {:<8.2}",
            extra,
            eval.c.nnz(),
            eval.g.nnz(),
            benr_fill
                .map(|f| f.to_string())
                .unwrap_or_else(|_| "-".into()),
            g_fill,
            benr.stats.runtime_seconds(),
            er.stats.runtime_seconds(),
        );
    }
    println!();
    println!("Expected shape: nnz(C) and fill(C/h+G) grow with the coupling density while");
    println!("fill(G) stays constant; the BENR runtime grows accordingly and ER's does not.");
    Ok(())
}

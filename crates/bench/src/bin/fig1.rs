//! Fig. 1 reproduction: nonzero structure of the post-layout matrices and of
//! their LU factors.
//!
//! The paper visualizes, for the FreeCPU post-extraction netlist, how much
//! denser the capacitance matrix `C` and the backward-Euler matrix `C/h + G`
//! are than the conductance matrix `G`, and how the LU factors amplify the
//! difference. This binary prints the same quantities (nnz instead of spy
//! plots) for the synthetic post-layout structure.
//!
//! Usage: `cargo run --release -p exi-bench --bin fig1 [scale]`

use exi_bench::{arg_or_exit, fig1_circuit, TextTable};
use exi_sparse::{factor_fill, CsrMatrix, OrderingMethod};

fn main() {
    let scale: f64 = arg_or_exit(std::env::args().nth(1).as_deref(), 1.0, "fig1 [scale]");
    let circuit = fig1_circuit(scale).expect("fig1 circuit generation");
    let n = circuit.num_unknowns();
    let x = vec![0.0; n];
    let eval = circuit
        .compile_plan()
        .and_then(|plan| plan.evaluate(&x))
        .expect("circuit evaluation");
    let h = 1e-12;
    let benr_matrix =
        CsrMatrix::linear_combination(1.0 / h, &eval.c, 1.0, &eval.g).expect("C/h + G assembly");

    println!("Fig. 1 reproduction: matrix and LU-factor fill of a post-layout structure");
    println!(
        "circuit: {} unknowns, {} devices\n",
        n,
        circuit.num_devices()
    );

    // The simulator's ordering first, RCM beside it: the gap between
    // LU(C/h + G) and LU(G) is not an artefact of either.
    let orderings = [OrderingMethod::default(), OrderingMethod::Rcm];
    let mut table = TextTable::new(vec![
        "matrix",
        "nnz",
        "nnz(L+U)",
        "fill vs G",
        "nnz(L+U), rcm",
        "fill vs G, rcm",
    ]);
    let g_fill = orderings.map(|ordering| {
        let (l, u) = factor_fill(&eval.g, ordering).expect("LU of G");
        l + u
    });
    let mut report = |label: &str, m: &CsrMatrix| {
        let mut row = vec![label.to_string(), m.nnz().to_string()];
        for (ordering, g_fill) in orderings.into_iter().zip(g_fill) {
            row.extend(match factor_fill(m, ordering) {
                Ok((l, u)) => [
                    (l + u).to_string(),
                    format!("{:.2}x", (l + u) as f64 / g_fill as f64),
                ],
                Err(e) => ["-".to_string(), format!("({e})")],
            });
        }
        table.add_row(row);
    };
    report("C (capacitance)", &eval.c);
    report("G (conductance)", &eval.g);
    report("C/h + G (BENR)", &benr_matrix);
    print!("{table}");
    println!();
    println!("Paper's qualitative claim to check: nnz(C) and nnz(LU(C/h+G)) are much larger than");
    println!("nnz(G) and nnz(LU(G)); only the latter is factorized by the ER/ER-C framework.");
}

//! Ablation A: convergence of the invert, standard and rational Krylov
//! subspaces for the MEVP on a stiff post-layout-style circuit (DESIGN.md
//! ablation A; motivates Sec. IV of the paper).
//!
//! For a sweep of step sizes `h` the table reports the subspace dimension
//! each method needs to reach the same tolerance, and the resulting error
//! against a reference computed with a much tighter tolerance.
//!
//! Usage: `cargo run --release -p exi-bench --bin krylov_ablation [scale]`

use exi_bench::{arg_or_exit, TextTable};
use exi_krylov::{mevp_invert_krylov, mevp_rational_krylov, mevp_standard_krylov, MevpOptions};
use exi_sparse::{vector, SparseLu};

fn main() {
    let scale: f64 = arg_or_exit(
        std::env::args().nth(1).as_deref(),
        1.0,
        "krylov_ablation [scale]",
    );
    let circuit = exi_bench::fig1_circuit(scale.min(0.6)).expect("ablation circuit");
    let n = circuit.num_unknowns();
    let x = vec![0.0; n];
    let eval = circuit
        .compile_plan()
        .and_then(|plan| plan.evaluate(&x))
        .expect("evaluation");
    // Make C non-singular for the *standard* Krylov baseline by keeping only
    // rows that already have capacitance; the invert method does not need this.
    let g_lu = SparseLu::factorize(&eval.g).expect("LU of G");
    let c_lu = SparseLu::factorize(&eval.c);

    let v: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) / 3.0).collect();
    let options = MevpOptions {
        tolerance: 1e-7,
        max_dimension: 200,
        ..MevpOptions::default()
    };
    let tight = MevpOptions {
        tolerance: 1e-11,
        max_dimension: 400,
        ..MevpOptions::default()
    };

    println!("Ablation A: Krylov subspace flavours for the MEVP ({n} unknowns)");
    println!("tolerance = {:.0e}\n", options.tolerance);
    let mut table = TextTable::new(vec![
        "h (s)",
        "invert m",
        "invert err",
        "rational m",
        "rational err",
        "standard m",
        "standard err",
    ]);

    for h in [1e-12, 5e-12, 2e-11, 1e-10] {
        // Reference with a very tight tolerance (invert flavour).
        let reference =
            mevp_invert_krylov(&eval.c, &eval.g, &g_lu, &v, h, &tight).expect("reference MEVP");
        let err_vs_ref = |got: &[f64]| vector::max_abs_diff(got, &reference.mevp);

        let invert = mevp_invert_krylov(&eval.c, &eval.g, &g_lu, &v, h, &options);
        let rational = mevp_rational_krylov(&eval.c, &eval.g, h / 2.0, &v, h, &options);
        let standard = match &c_lu {
            Ok(lu) => mevp_standard_krylov(&eval.g, lu, &v, h, &options).map_err(|e| e.to_string()),
            Err(_) => Err("C is singular".to_string()),
        };

        let fmt = |m: usize, err: f64| (m.to_string(), format!("{err:.2e}"));
        let (im, ie) = invert
            .as_ref()
            .map(|o| fmt(o.dimension, err_vs_ref(&o.mevp)))
            .unwrap_or(("-".into(), "failed".into()));
        let (rm, re) = rational
            .as_ref()
            .map(|o| fmt(o.dimension, err_vs_ref(&o.mevp)))
            .unwrap_or(("-".into(), "failed".into()));
        let (sm, se) = standard
            .as_ref()
            .map(|o| fmt(o.dimension, err_vs_ref(&o.mevp)))
            .unwrap_or_else(|e| ("-".into(), e.clone()));
        table.add_row(vec![format!("{h:.0e}"), im, ie, rm, re, sm, se]);
    }
    print!("{table}");
    println!();
    println!("Expected shape (paper Sec. IV): the rational subspace converges in the fewest");
    println!("dimensions, the invert subspace is a close second with a much cheaper basis");
    println!("(only G factorized), and the standard subspace needs the largest dimension and");
    println!("breaks down entirely when C is singular.");
}

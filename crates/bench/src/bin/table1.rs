//! Table I reproduction: runtime, step counts and capability of BENR vs
//! ER/ER-C on the eight Table-I analogue circuits.
//!
//! The BENR baseline is given a factor-fill budget (a stand-in for the
//! paper's 32 GB memory limit); on the densely coupled cases its LU of
//! `C/h + G` exceeds the budget and the row reports "Out of Memory", while
//! ER/ER-C — which only factorize `G` — complete.
//!
//! Besides the human-readable table, the binary writes
//! `BENCH_table1.json` (per-case unknown counts, nonzeros, and per method
//! every `RunStats` field under its own name plus the Table-I averages,
//! and the host's parallelism) so successive revisions have a
//! machine-readable performance trajectory to regress against. The
//! committed copy is the scale-1.0 run; CI gates on its ratios and counts,
//! never on absolute seconds.
//!
//! Usage: `cargo run --release -p exi-bench --bin table1 [scale]`
//! (`scale` defaults to 1.0; use e.g. 0.5 for a quicker run)

use exi_bench::{arg_or_exit, run_case, table1_cases, CaseOutcome, TextTable};
use exi_sim::Method;

/// Fill budget handed to the BENR baseline, in nonzeros per unknown. The
/// ER methods get no budget: they only factorize the much sparser `G`.
const BENR_FILL_PER_UNKNOWN: usize = 18;

/// File the machine-readable results are written to (in the working
/// directory).
const JSON_OUTPUT: &str = "BENCH_table1.json";

fn outcome_cells(
    outcome: &CaseOutcome,
    baseline_runtime: Option<f64>,
) -> (String, String, String, String) {
    match outcome {
        CaseOutcome::Completed(stats) => {
            let avg_krylov = stats.avg_krylov_dimension();
            let detail = if avg_krylov > 0.0 {
                format!("{avg_krylov:.1}")
            } else {
                format!("{:.1}", stats.avg_newton_iterations())
            };
            let runtime = stats.runtime_seconds();
            let speedup = match baseline_runtime {
                Some(base) if runtime > 0.0 => format!("{:.1}x", base / runtime),
                _ => "NA".to_string(),
            };
            (
                stats.accepted_steps.to_string(),
                detail,
                format!("{runtime:.2}"),
                speedup,
            )
        }
        CaseOutcome::OutOfMemory => ("-".into(), "-".into(), "Out of Memory".into(), "NA".into()),
        CaseOutcome::Failed(msg) => (
            "-".into(),
            "-".into(),
            format!("failed: {msg}"),
            "NA".into(),
        ),
    }
}

fn main() {
    let scale: f64 = arg_or_exit(std::env::args().nth(1).as_deref(), 1.0, "table1 [scale]");
    let cases = table1_cases(scale);

    println!("Table I reproduction (scale = {scale}): BENR vs ER vs ER-C");
    println!(
        "BENR fill budget: {} nonzeros per unknown (memory-limit analogue); ER/ER-C unlimited\n",
        BENR_FILL_PER_UNKNOWN
    );

    let mut table = TextTable::new(vec![
        "case",
        "#N",
        "#Dev",
        "nnzC",
        "nnzG", // specification
        "BE #step",
        "BE #NRa",
        "BE RT(s)", // BENR
        "ER #step",
        "ER #ma",
        "ER RT(s)",
        "ER SP", // ER
        "ERC #step",
        "ERC #ma",
        "ERC RT(s)",
        "ERC SP", // ER-C
    ]);

    let mut json_cases: Vec<String> = Vec::new();

    for case in &cases {
        let circuit = case.build().expect("case circuit");
        let n = circuit.num_unknowns();
        let x = vec![0.0; n];
        let plan = circuit.compile_plan().expect("case plan");
        let eval = plan.evaluate(&x).expect("case evaluation");
        // Per-case device-evaluation cost through the stamping plan: the
        // steady-state restamp the engines pay per step / Newton iteration.
        let mut ws = plan.new_workspace();
        let mut scratch_eval = plan.new_evaluation();
        let evaluate_restamp_s = {
            let reps = 50;
            let start = std::time::Instant::now();
            for _ in 0..reps {
                plan.evaluate_into(&x, &mut ws, &mut scratch_eval)
                    .expect("restamp");
            }
            start.elapsed().as_secs_f64() / reps as f64
        };
        let budget = Some(BENR_FILL_PER_UNKNOWN * n);

        let benr = run_case(case, Method::BackwardEuler, budget);
        let er = run_case(case, Method::ExponentialRosenbrock, None);
        let erc = run_case(case, Method::ExponentialRosenbrockCorrected, None);

        let benr_rt = benr.runtime();
        let (be_steps, be_nr, be_rt, _) = outcome_cells(&benr, None);
        let (er_steps, er_m, er_rt, er_sp) = outcome_cells(&er, benr_rt);
        let (erc_steps, erc_m, erc_rt, erc_sp) = outcome_cells(&erc, benr_rt);

        json_cases.push(format!(
            concat!(
                "    {{\"name\":\"{}\",\"mirrors\":\"{}\",\"unknowns\":{},",
                "\"nonlinear_devices\":{},\"nnz_c\":{},\"nnz_g\":{},",
                "\"nonlinear_stamps\":{},\"evaluate_restamp_us\":{:.3},\"methods\":{{",
                "\"BENR\":{},\"ER\":{},\"ER-C\":{}}}}}"
            ),
            case.name,
            case.mirrors,
            n,
            circuit.num_nonlinear_devices(),
            eval.c.nnz(),
            eval.g.nnz(),
            plan.nonlinear_stamp_count(),
            evaluate_restamp_s * 1e6,
            benr.to_json(),
            er.to_json(),
            erc.to_json(),
        ));

        table.add_row(vec![
            case.name.to_string(),
            n.to_string(),
            circuit.num_nonlinear_devices().to_string(),
            eval.c.nnz().to_string(),
            eval.g.nnz().to_string(),
            be_steps,
            be_nr,
            be_rt,
            er_steps,
            er_m,
            er_rt,
            er_sp,
            erc_steps,
            erc_m,
            erc_rt,
            erc_sp,
        ]);
        eprintln!("finished {}", case.name);
    }

    print!("{table}");
    println!();
    println!("Expected shape (paper Table I): modest ER/ER-C speedups on the sparsely coupled");
    println!("cases (tc1-tc3), growing speedups as nnz(C) rises (tc4-tc5), and 'Out of Memory'");
    println!("for BENR on the densely coupled cases (tc6-tc8) which ER/ER-C still complete.");

    // Runtimes are single-threaded, but recorded with the host they were
    // measured on, like every committed BENCH_*.json.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let json = format!(
        "{{\n  \"scale\": {scale},\n  \"host_parallelism\": {host_parallelism},\n  \"benr_fill_per_unknown\": {BENR_FILL_PER_UNKNOWN},\n  \"cases\": [\n{}\n  ]\n}}\n",
        json_cases.join(",\n")
    );
    match std::fs::write(JSON_OUTPUT, &json) {
        Ok(()) => println!("\nmachine-readable results written to {JSON_OUTPUT}"),
        Err(e) => eprintln!("could not write {JSON_OUTPUT}: {e}"),
    }
}

//! # exi-bench
//!
//! Benchmark harness regenerating the tables and figures of the DAC'15
//! exponential-integrator paper with the `exi-sim` workspace.
//!
//! * [`cases`] — the eight Table-I analogue circuits (`tc1`–`tc8`) plus the
//!   Fig. 1 post-layout structure and the Fig. 2 inverter chain, all scaled to
//!   laptop size (see DESIGN.md for the substitution rationale).
//! * [`table`] — plain-text table formatting shared by the harness binaries.
//! * [`runner`] — runs one circuit with one method and collects the Table-I
//!   row counters.
//!
//! The binaries `fig1`, `fig2`, `table1` and `krylov_ablation` print the
//! corresponding artifact; `sweep` runs a Monte-Carlo batch sweep through
//! `exi_sim::BatchRunner` and writes `BENCH_sweep.json` (fleet-level
//! symbolic-reuse counters plus parallel speedup). Each binary reads its
//! optional positional arguments through [`arg_or_exit`], so a mistyped one
//! stops the run instead of falling back to the default. The Criterion
//! benches under `benches/` time the same kernels on reduced sizes.

pub mod cases;
pub mod runner;
pub mod table;

pub use cases::{fig1_circuit, fig2_circuit, table1_cases, CaseSpec};
pub use runner::{run_case, run_circuit, run_circuit_in, CaseOutcome};
pub use table::TextTable;

use std::str::FromStr;

/// An optional positional argument of a harness binary: `default` when it is
/// absent, an error naming it when it does not parse as a `T`.
pub fn parse_arg<T: FromStr>(arg: Option<&str>, default: T) -> Result<T, String> {
    match arg {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("invalid argument '{text}'")),
    }
}

/// [`parse_arg`] for a binary's `main`: an argument that does not parse
/// prints the error and the `usage` line to stderr and exits with code 2,
/// before any work starts or any output file is written.
pub fn arg_or_exit<T: FromStr>(arg: Option<&str>, default: T, usage: &str) -> T {
    parse_arg(arg, default).unwrap_or_else(|error| {
        eprintln!("{error}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_arg_defaults_when_absent_and_rejects_what_does_not_parse() {
        assert_eq!(parse_arg(None, 1.0), Ok(1.0));
        assert_eq!(parse_arg(Some("0.25"), 1.0), Ok(0.25));
        assert_eq!(parse_arg(Some("8"), 12usize), Ok(8));
        assert_eq!(
            parse_arg(Some("nonsense"), 1.0f64),
            Err("invalid argument 'nonsense'".to_string())
        );
        assert!(parse_arg(Some("-1"), 0usize).is_err());
        assert!(parse_arg(Some(""), 6usize).is_err());
    }
}

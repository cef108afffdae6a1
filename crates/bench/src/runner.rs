//! Runs one benchmark case with one method and collects Table-I row data.

use exi_netlist::Circuit;
use exi_sim::{Method, RunStats, SimError, Simulator, TransientOptions};
use exi_sparse::SparseError;

use crate::cases::CaseSpec;

/// Result of running one (case, method) pair.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// The run completed with these statistics.
    Completed(Box<RunStats>),
    /// The run hit the configured fill (memory) budget — the analogue of the
    /// paper's "Out of Memory" entries.
    OutOfMemory,
    /// The run failed for another reason.
    Failed(String),
}

impl CaseOutcome {
    /// Runtime in seconds if the run completed.
    pub fn runtime(&self) -> Option<f64> {
        match self {
            CaseOutcome::Completed(stats) => Some(stats.runtime_seconds()),
            _ => None,
        }
    }

    /// `true` if the run completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, CaseOutcome::Completed(_))
    }

    /// Serializes the outcome as a JSON object (used by the `table1` binary
    /// to emit the machine-readable `BENCH_table1.json`): a completed run
    /// carries every [`RunStats`] field under its own name, plus the Table-I
    /// averages `#NRa` and `#m_a`.
    pub fn to_json(&self) -> String {
        match self {
            CaseOutcome::Completed(stats) => format!(
                "{{\"status\":\"completed\",\"avg_newton\":{:.3},\"avg_krylov\":{:.3},{}}}",
                stats.avg_newton_iterations(),
                stats.avg_krylov_dimension(),
                stats.json_fields()
            ),
            CaseOutcome::OutOfMemory => "{\"status\":\"out_of_memory\"}".to_string(),
            CaseOutcome::Failed(msg) => {
                format!(
                    "{{\"status\":\"failed\",\"error\":\"{}\"}}",
                    msg.replace('"', "'")
                )
            }
        }
    }
}

/// Default transient options used by the Table-I harness.
pub fn table1_options(t_stop: f64, fill_budget: Option<usize>) -> TransientOptions {
    TransientOptions {
        t_stop,
        h_init: 1e-12,
        h_max: 2e-11,
        h_min: 1e-16,
        error_budget: 2e-3,
        krylov_tolerance: 1e-7,
        fill_budget,
        ..TransientOptions::default()
    }
}

/// Runs `method` on `case` and converts the result into a table row entry.
pub fn run_case(case: &CaseSpec, method: Method, fill_budget: Option<usize>) -> CaseOutcome {
    let circuit = match case.build() {
        Ok(c) => c,
        Err(e) => return CaseOutcome::Failed(e.to_string()),
    };
    run_circuit(
        &circuit,
        method,
        &table1_options(case.t_stop, fill_budget),
        &[],
    )
}

/// Runs `method` on an already-built circuit (throwaway [`Simulator`]
/// session; use [`run_circuit_in`] to share caches across runs).
pub fn run_circuit(
    circuit: &Circuit,
    method: Method,
    options: &TransientOptions,
    probes: &[&str],
) -> CaseOutcome {
    run_circuit_in(&mut Simulator::new(circuit), method, options, probes)
}

/// Runs `method` inside an existing [`Simulator`] session, reusing its LU
/// caches, Krylov workspaces and DC solution.
pub fn run_circuit_in(
    simulator: &mut Simulator<'_>,
    method: Method,
    options: &TransientOptions,
    probes: &[&str],
) -> CaseOutcome {
    match simulator.transient(method, options, probes) {
        Ok(result) => CaseOutcome::Completed(Box::new(result.stats)),
        Err(SimError::Sparse(SparseError::FillBudgetExceeded { .. })) => CaseOutcome::OutOfMemory,
        Err(e) => CaseOutcome::Failed(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::table1_cases;

    #[test]
    fn small_case_runs_with_er_and_benr() {
        let cases = table1_cases(0.2);
        let case = &cases[0];
        let er = run_case(case, Method::ExponentialRosenbrock, None);
        assert!(er.is_completed(), "{er:?}");
        let benr = run_case(case, Method::BackwardEuler, None);
        assert!(benr.is_completed(), "{benr:?}");
        if let (CaseOutcome::Completed(er), CaseOutcome::Completed(benr)) = (&er, &benr) {
            assert!(er.avg_krylov_dimension() > 0.0);
            assert!(benr.avg_newton_iterations() >= 1.0);
            // The symbolic-reuse path carries the run.
            assert!(er.symbolic_analyses < er.lu_factorizations / 2);
            assert_eq!(
                er.lu_factorizations,
                er.symbolic_analyses + er.lu_refactorizations
            );
        }
    }

    #[test]
    fn shared_session_reuses_symbolic_analysis_across_methods() {
        // tc3 is linear (no MOSFET drivers): the conductance pattern is fixed
        // for the whole session, so the reuse guarantee is exact.
        let cases = table1_cases(0.2);
        let circuit = cases[2].build().unwrap();
        let options = table1_options(cases[2].t_stop, None);
        let mut sim = Simulator::new(&circuit);
        let first = run_circuit_in(&mut sim, Method::ExponentialRosenbrock, &options, &[]);
        let second = run_circuit_in(&mut sim, Method::ExponentialRosenbrock, &options, &[]);
        assert!(first.is_completed() && second.is_completed());
        if let CaseOutcome::Completed(stats) = &second {
            // The second run reuses the session's cached symbolic analysis —
            // and, tc3 being linear, the numeric factor as it stands at every
            // step that linearizes.
            assert_eq!(stats.symbolic_analyses, 0, "{second:?}");
            assert_eq!(
                (stats.lu_factorizations, stats.lu_reuses),
                (0, stats.device_evaluations),
                "{second:?}"
            );
        }
        assert_eq!(sim.session_stats().symbolic_analyses, 1);
        assert_eq!(sim.completed_runs(), 2);
    }

    #[test]
    fn fill_budget_produces_out_of_memory_outcome() {
        let cases = table1_cases(0.2);
        let case = &cases[7];
        let outcome = run_case(case, Method::BackwardEuler, Some(64));
        assert!(matches!(outcome, CaseOutcome::OutOfMemory), "{outcome:?}");
        assert!(outcome.runtime().is_none());
    }

    #[test]
    fn outcomes_serialize_to_json() {
        let done = CaseOutcome::Completed(Box::new(RunStats {
            accepted_steps: 10,
            rejected_steps: 3,
            newton_iterations: 20,
            lu_reuses: 9,
            runtime: std::time::Duration::from_millis(250),
            ..RunStats::default()
        }));
        let json = done.to_json();
        assert!(json
            .starts_with("{\"status\":\"completed\",\"avg_newton\":2.000,\"avg_krylov\":0.000,"));
        assert!(json.contains("\"accepted_steps\":10,\"rejected_steps\":3,"));
        assert!(json.contains("\"lu_reuses\":9"));
        assert!(json.contains("\"runtime_s\":0.250000"));
        assert!(json.ends_with('}'));
        assert_eq!(done.runtime(), Some(0.25));
        assert_eq!(
            CaseOutcome::OutOfMemory.to_json(),
            "{\"status\":\"out_of_memory\"}"
        );
        assert!(CaseOutcome::Failed("a \"b\"".into())
            .to_json()
            .contains("a 'b'"));
    }
}

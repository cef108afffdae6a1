//! Runs one benchmark case with one method and collects Table-I row data.

use exi_netlist::Circuit;
use exi_sim::{Method, SimError, Simulator, TransientOptions};
use exi_sparse::SparseError;

use crate::cases::CaseSpec;

/// Result of running one (case, method) pair.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// The run completed.
    Completed {
        /// Accepted steps (`#step`).
        steps: usize,
        /// Attempts the step control rejected (each one retried at a smaller
        /// step from the same point).
        rejected_steps: usize,
        /// Average Newton iterations per step (`#NRa`, implicit methods only).
        avg_newton: f64,
        /// Average Krylov dimension (`#m_a`, exponential methods only).
        avg_krylov: f64,
        /// Number of LU factorizations (fresh + numeric-only).
        lu_count: usize,
        /// Number of full symbolic analyses among them.
        symbolic_analyses: usize,
        /// Number of numeric-only refactorizations among them.
        lu_refactorizations: usize,
        /// Factor requests answered by the factor already held (unchanged
        /// matrix values); not factorizations.
        lu_reuses: usize,
        /// Number of full device evaluations performed.
        device_evaluations: usize,
        /// Number of stamping-plan compilations (one per topology).
        plan_compilations: usize,
        /// Total nonlinear matrix entries rewritten across all evaluations.
        restamped_entries: usize,
        /// ER steps whose input term came from a kept `w₂` subspace.
        krylov_subspace_reuses: usize,
        /// Krylov convergence tests run (exponential methods only).
        krylov_residual_tests: usize,
        /// Small dense matrix exponentials computed.
        small_dense_exponentials: usize,
        /// Growths of the small-dense arena under the Arnoldi loop.
        dense_workspace_allocations: usize,
        /// Wall-clock runtime in seconds.
        runtime: f64,
    },
    /// The run hit the configured fill (memory) budget — the analogue of the
    /// paper's "Out of Memory" entries.
    OutOfMemory,
    /// The run failed for another reason.
    Failed(String),
}

impl CaseOutcome {
    /// Runtime if the run completed.
    pub fn runtime(&self) -> Option<f64> {
        match self {
            CaseOutcome::Completed { runtime, .. } => Some(*runtime),
            _ => None,
        }
    }

    /// `true` if the run completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, CaseOutcome::Completed { .. })
    }

    /// Serializes the outcome as a JSON object (used by the `table1` binary
    /// to emit the machine-readable `BENCH_table1.json`).
    pub fn to_json(&self) -> String {
        match self {
            CaseOutcome::Completed {
                steps,
                rejected_steps,
                avg_newton,
                avg_krylov,
                lu_count,
                symbolic_analyses,
                lu_refactorizations,
                lu_reuses,
                device_evaluations,
                plan_compilations,
                restamped_entries,
                krylov_subspace_reuses,
                krylov_residual_tests,
                small_dense_exponentials,
                dense_workspace_allocations,
                runtime,
            } => format!(
                concat!(
                    "{{\"status\":\"completed\",\"steps\":{},\"rejected_steps\":{},",
                    "\"avg_newton\":{:.3},",
                    "\"avg_krylov\":{:.3},\"lu_factorizations\":{},\"symbolic_analyses\":{},",
                    "\"lu_refactorizations\":{},\"lu_reuses\":{},\"device_evaluations\":{},",
                    "\"plan_compilations\":{},\"restamped_entries\":{},",
                    "\"krylov_subspace_reuses\":{},",
                    "\"krylov_residual_tests\":{},\"small_dense_exponentials\":{},",
                    "\"dense_workspace_allocations\":{},\"runtime_s\":{:.6}}}"
                ),
                steps,
                rejected_steps,
                avg_newton,
                avg_krylov,
                lu_count,
                symbolic_analyses,
                lu_refactorizations,
                lu_reuses,
                device_evaluations,
                plan_compilations,
                restamped_entries,
                krylov_subspace_reuses,
                krylov_residual_tests,
                small_dense_exponentials,
                dense_workspace_allocations,
                runtime
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
        Ok(result) => CaseOutcome::Completed {
            steps: result.stats.accepted_steps,
            rejected_steps: result.stats.rejected_steps,
            avg_newton: result.stats.avg_newton_iterations(),
            avg_krylov: result.stats.avg_krylov_dimension(),
            lu_count: result.stats.lu_factorizations,
            symbolic_analyses: result.stats.symbolic_analyses,
            lu_refactorizations: result.stats.lu_refactorizations,
            lu_reuses: result.stats.lu_reuses,
            device_evaluations: result.stats.device_evaluations,
            plan_compilations: result.stats.plan_compilations,
            restamped_entries: result.stats.restamped_entries,
            krylov_subspace_reuses: result.stats.krylov_subspace_reuses,
            krylov_residual_tests: result.stats.krylov_residual_tests,
            small_dense_exponentials: result.stats.small_dense_exponentials,
            dense_workspace_allocations: result.stats.dense_workspace_allocations,
            runtime: result.stats.runtime_seconds(),
        },
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
        if let (
            CaseOutcome::Completed {
                avg_krylov,
                symbolic_analyses,
                lu_refactorizations,
                lu_count,
                ..
            },
            CaseOutcome::Completed { avg_newton, .. },
        ) = (&er, &benr)
        {
            assert!(*avg_krylov > 0.0);
            assert!(*avg_newton >= 1.0);
            // The symbolic-reuse path carries the run.
            assert!(*symbolic_analyses < *lu_count / 2);
            assert_eq!(*lu_count, symbolic_analyses + lu_refactorizations);
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
        if let CaseOutcome::Completed {
            steps,
            lu_count,
            symbolic_analyses,
            lu_reuses,
            ..
        } = &second
        {
            // The second run reuses the session's cached symbolic analysis —
            // and, tc3 being linear, the numeric factor as it stands.
            assert_eq!(*symbolic_analyses, 0, "{second:?}");
            assert_eq!((*lu_count, *lu_reuses), (0, *steps), "{second:?}");
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
        let done = CaseOutcome::Completed {
            steps: 10,
            rejected_steps: 3,
            avg_newton: 2.0,
            avg_krylov: 0.0,
            lu_count: 12,
            symbolic_analyses: 1,
            lu_refactorizations: 11,
            lu_reuses: 9,
            device_evaluations: 31,
            plan_compilations: 1,
            restamped_entries: 62,
            krylov_subspace_reuses: 8,
            krylov_residual_tests: 40,
            small_dense_exponentials: 45,
            dense_workspace_allocations: 7,
            runtime: 0.25,
        };
        let json = done.to_json();
        assert!(json.contains("\"status\":\"completed\""));
        assert!(json.contains("\"steps\":10,\"rejected_steps\":3,"));
        assert!(json.contains("\"lu_refactorizations\":11"));
        assert!(json.contains("\"lu_reuses\":9"));
        assert!(json.contains("\"krylov_subspace_reuses\":8"));
        assert!(json.contains("\"plan_compilations\":1"));
        assert!(json.contains("\"restamped_entries\":62"));
        assert!(json.contains("\"krylov_residual_tests\":40"));
        assert!(json.contains("\"small_dense_exponentials\":45"));
        assert!(json.contains("\"dense_workspace_allocations\":7"));
        assert_eq!(
            CaseOutcome::OutOfMemory.to_json(),
            "{\"status\":\"out_of_memory\"}"
        );
        assert!(CaseOutcome::Failed("a \"b\"".into())
            .to_json()
            .contains("a 'b'"));
    }
}

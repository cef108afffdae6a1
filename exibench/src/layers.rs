//! The outside-in layer probes of the traced run.
//!
//! At every ⌈steps/64⌉-th accepted-step boundary, between two `advance()`
//! calls, the public kernels the engines call are timed on benchmark-owned
//! copies (plan workspace, factor, Krylov arena), so the engine's own caches
//! are never touched. Probing inside the run rather than after it keeps
//! each sample next to the steps it stands for: the host's speed drifts by
//! tens of percent over seconds, and shares of the run's wall time only
//! mean something when both were measured in the same stretch. A layer's time in the run
//! is then estimated as the cost of one probed call — the median over the
//! probed boundaries of the fastest of three calls at each — times the number of
//! calls the run itself counted in its `RunStats`.

use std::time::Instant;

use exi_krylov::{
    mevp_invert_krylov_with, InverseJacobianOperator, KrylovOperator, MevpOptions, MevpWorkspace,
    OperatorWorkspace,
};
use exi_netlist::{Circuit, EvalPlan, EvalWorkspace, Evaluation};
use exi_sim::{Method, RunStats, TransientOptions};
use exi_sparse::{vector, CsrMatrix, LuOptions, LuWorkspace, SparseLu};

use crate::report::Outcome;
use crate::stats::{estimate_total, median, percentile, ratio};

/// Seconds per probed call, one entry per probed step boundary.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub restamp: Vec<f64>,
    /// Full factorizations (symbolic analysis + numeric).
    pub factorize: Vec<f64>,
    pub refactorize: Vec<f64>,
    /// Forming `C/h + θ·G` (implicit methods only).
    pub combine: Vec<f64>,
    pub solve: Vec<f64>,
    pub spmv: Vec<f64>,
    pub operator_apply: Vec<f64>,
    pub mevp: Vec<f64>,
    pub small_dense: Vec<f64>,
    pub phi_eval: Vec<f64>,
    pub non_operator_share: Vec<f64>,
    /// `nnz(L) + nnz(U)` of the last factor.
    pub factor_nnz: usize,
    /// Boundaries whose matrix pattern differed from the previous one's, so
    /// the refactorization fell back to a full factorization.
    pub pattern_changes: usize,
}

/// Calls timed per kernel and boundary; the fastest one is the sample, for
/// the reason `wall_s` is built from fastest observations (see
/// [`crate::stats::steady_wall`]).
const CALLS_PER_PROBE: usize = 3;

/// Calls `call` [`CALLS_PER_PROBE`] times, records the fastest and returns
/// the last result.
fn time<T>(samples: &mut Vec<f64>, mut call: impl FnMut() -> T) -> T {
    let mut fastest = f64::INFINITY;
    let mut value = None;
    for _ in 0..CALLS_PER_PROBE {
        let at = Instant::now();
        value = Some(std::hint::black_box(call()));
        fastest = fastest.min(at.elapsed().as_secs_f64());
    }
    samples.push(fastest);
    value.expect("at least one call")
}

/// Benchmark-owned copies of everything the probed kernels need, plus the
/// samples collected so far.
pub struct Prober<'a> {
    circuit: &'a Circuit,
    plan: &'a EvalPlan,
    exponential: bool,
    theta: f64,
    lu_options: LuOptions,
    mevp_options: MevpOptions,
    eval_ws: EvalWorkspace,
    eval: Evaluation,
    jacobian: CsrMatrix,
    lu: Option<SparseLu>,
    lu_ws: LuWorkspace,
    op_ws: OperatorWorkspace,
    mevp_ws: MevpWorkspace,
    u: Vec<f64>,
    bu: Vec<f64>,
    rhs: Vec<f64>,
    w1: Vec<f64>,
    tmp: Vec<f64>,
    pub samples: LayerSamples,
    /// Time spent probing, to be taken out of the run's wall time.
    pub seconds: f64,
}

impl<'a> Prober<'a> {
    pub fn new(
        circuit: &'a Circuit,
        plan: &'a EvalPlan,
        method: Method,
        options: &TransientOptions,
    ) -> Self {
        let n = plan.num_unknowns();
        Prober {
            circuit,
            plan,
            exponential: matches!(
                method,
                Method::ExponentialRosenbrock | Method::ExponentialRosenbrockCorrected
            ),
            theta: if method == Method::Trapezoidal {
                0.5
            } else {
                1.0
            },
            lu_options: LuOptions {
                ordering: options.ordering,
                fill_budget: options.fill_budget,
                ..LuOptions::default()
            },
            mevp_options: MevpOptions {
                tolerance: options.krylov_tolerance,
                max_dimension: options.krylov_max_dimension,
                min_dimension: 2,
                allow_unconverged: true,
            },
            eval_ws: plan.new_workspace(),
            eval: plan.new_evaluation(),
            jacobian: CsrMatrix::zeros(0, 0),
            lu: None,
            lu_ws: LuWorkspace::new(),
            op_ws: OperatorWorkspace::new(),
            mevp_ws: MevpWorkspace::new(),
            u: vec![0.0; plan.input_dim()],
            bu: vec![0.0; n],
            rhs: vec![0.0; n],
            w1: vec![0.0; n],
            tmp: vec![0.0; n],
            samples: LayerSamples::default(),
            seconds: 0.0,
        }
    }

    /// Times the layer calls at the step boundary `(t, x)` reached by an
    /// accepted step of size `h`.
    pub fn probe(&mut self, t: f64, h: f64, x: &[f64]) -> Result<(), String> {
        let started = Instant::now();
        let result = self.probe_kernels(t, h, x);
        self.seconds += started.elapsed().as_secs_f64();
        result
    }

    fn probe_kernels(&mut self, t: f64, h: f64, x: &[f64]) -> Result<(), String> {
        let Prober {
            circuit,
            plan,
            samples,
            eval_ws,
            eval,
            jacobian,
            lu,
            lu_ws,
            op_ws,
            mevp_ws,
            u,
            bu,
            rhs,
            w1,
            tmp,
            ..
        } = self;
        time(&mut samples.restamp, || {
            plan.evaluate_into(x, eval_ws, eval)
        })
        .map_err(|e| e.to_string())?;
        // The matrix the method factorizes: G for the exponential methods,
        // C/h + θ·G for the implicit ones.
        let matrix = if self.exponential {
            &eval.g
        } else {
            time(&mut samples.combine, || {
                CsrMatrix::linear_combination_into(1.0 / h, &eval.c, self.theta, &eval.g, jacobian)
            })
            .map_err(|e| e.to_string())?;
            &*jacobian
        };
        let reusable = lu
            .as_ref()
            .is_some_and(|f| f.symbolic().matches_pattern(matrix));
        if !reusable {
            if lu.is_some() {
                samples.pattern_changes += 1;
            }
            *lu = Some(
                time(&mut samples.factorize, || {
                    SparseLu::factorize_with(matrix, &self.lu_options)
                })
                .map_err(|e| e.to_string())?,
            );
        }
        let factor = lu.as_mut().expect("factor exists");
        time(&mut samples.refactorize, || {
            factor.refactorize_with(matrix, lu_ws)
        })
        .map_err(|e| e.to_string())?;
        samples.factor_nnz = factor.fill();

        // w1 = G⁻¹(f(x) − B·u(t)), the vector the ER step builds its first
        // subspace on; for the implicit methods it is just a right-hand side.
        circuit.input_vector_into(t, u);
        plan.input_matrix().mul_vec_into(u, bu);
        for i in 0..rhs.len() {
            rhs[i] = eval.f[i] - bu[i];
        }
        time(&mut samples.solve, || factor.solve_into(rhs, w1, lu_ws))
            .map_err(|e| e.to_string())?;
        time(&mut samples.spmv, || eval.c.mul_vec_into(w1, tmp));
        if !self.exponential || vector::norm2(w1) < 1e-300 {
            return Ok(());
        }
        let operator = InverseJacobianOperator::new(&eval.c, factor);
        time(&mut samples.operator_apply, || {
            operator.apply_into(w1, tmp, op_ws)
        })
        .map_err(|e| e.to_string())?;
        let apply_s = *samples.operator_apply.last().expect("just pushed");
        // As in the engine, each build draws its basis from the arena the
        // previous one was recycled into.
        let mut mevp_s = f64::INFINITY;
        let mut kept = None;
        for _ in 0..CALLS_PER_PROBE {
            if let Some(previous) = kept.take() {
                mevp_ws.recycle(previous);
            }
            let at = Instant::now();
            let outcome = mevp_invert_krylov_with(
                &eval.c,
                &eval.g,
                factor,
                w1,
                h,
                &self.mevp_options,
                mevp_ws,
            )
            .map_err(|e| e.to_string())?;
            mevp_s = mevp_s.min(at.elapsed().as_secs_f64());
            mevp_ws.recycle_vec(outcome.mevp);
            kept = Some(outcome.decomposition);
        }
        let built = kept.expect("at least one build");
        samples.mevp.push(mevp_s);
        samples
            .non_operator_share
            .push(1.0 - ratio(built.dimension() as f64 * apply_s, mevp_s));
        // An ill-conditioned small problem is a property of this boundary,
        // not a benchmark failure: skip the sample.
        let mut small = Vec::new();
        if time(&mut small, || built.residual_scalar(h)).is_ok() {
            samples.small_dense.extend(small);
        }
        let mut phi = Vec::new();
        if time(&mut phi, || built.eval_expv_into(h, tmp)).is_ok() {
            samples.phi_eval.extend(phi);
        }
        mevp_ws.recycle(built);
        Ok(())
    }
}

/// The `sim.*` counters of a run and the distribution of its step times.
pub fn report_steps(stats: &RunStats, step_seconds: &[f64], outcome: &mut Outcome) {
    outcome.set("sim.accepted_steps", stats.accepted_steps as f64);
    outcome.set("sim.rejected_steps", stats.rejected_steps as f64);
    outcome.set(
        "sim.reject_ratio",
        ratio(stats.rejected_steps as f64, stats.total_attempts() as f64),
    );
    outcome.set("sim.newton_per_step", stats.avg_newton_iterations());
    outcome.set("sim.observer_callbacks", stats.observer_callbacks as f64);
    let step_us: Vec<f64> = step_seconds.iter().map(|s| s * 1e6).collect();
    outcome.set("sim.step_us_p50", median(&step_us));
    outcome.set("sim.step_us_p95", percentile(&step_us, 95.0));
}

/// Turns probed per-call costs and the run's own counters into the
/// per-layer metrics. Shares are over `wall_s`.
pub fn report(
    samples: &LayerSamples,
    stats: &RunStats,
    wall_s: f64,
    observer_s: f64,
    outcome: &mut Outcome,
) {
    let us = |v: &[f64]| median(v) * 1e6;
    let restamp_s = estimate_total(&samples.restamp, stats.device_evaluations);
    let symbolic_s = estimate_total(&samples.factorize, stats.symbolic_analyses);
    let refactorize_s = estimate_total(&samples.refactorize, stats.lu_refactorizations);
    let solve_s = estimate_total(&samples.solve, stats.linear_solves);
    // One Jacobian is formed per Newton iteration.
    let combine_s = estimate_total(&samples.combine, stats.newton_iterations);
    // Only the `w1` subspace of a step is probed, the largest of its three.
    let mevp_s = estimate_total(&samples.mevp, stats.krylov_subspaces);
    // One φ/expm evaluation per subspace built, plus the two retained
    // subspaces re-evaluated after every rejection.
    // (No samples, so zero, for the implicit methods.)
    let phi_s = estimate_total(
        &samples.phi_eval,
        stats.krylov_subspaces + 2 * stats.rejected_steps,
    );

    outcome.set("netlist.restamp_us", us(&samples.restamp));
    outcome.set("netlist.restamp_calls", stats.device_evaluations as f64);
    outcome.set("netlist.restamped_entries", stats.restamped_entries as f64);
    outcome.set("netlist.restamp_share", ratio(restamp_s, wall_s));
    outcome.set("sparse.symbolic_s", symbolic_s);
    outcome.set("sparse.symbolic_calls", stats.symbolic_analyses as f64);
    outcome.set("sparse.refactor_reuse_ratio", stats.refactorization_ratio());
    outcome.set("sparse.refactorize_us", us(&samples.refactorize));
    outcome.set("sparse.refactorize_calls", stats.lu_refactorizations as f64);
    outcome.set("sparse.refactorize_share", ratio(refactorize_s, wall_s));
    outcome.set("sparse.combine_us", us(&samples.combine));
    outcome.set("sparse.solve_us", us(&samples.solve));
    outcome.set("sparse.solve_calls", stats.linear_solves as f64);
    outcome.set("sparse.solve_share", ratio(solve_s, wall_s));
    outcome.set("sparse.spmv_us", us(&samples.spmv));
    outcome.set("sparse.factor_nnz", samples.factor_nnz as f64);
    // Computed, not measured: one 8-byte value and one 4-byte index per
    // stored factor entry, read once per solve.
    outcome.set(
        "sparse.solve_gb_per_s_computed",
        ratio(
            samples.factor_nnz as f64 * 12.0 * 1e-9,
            median(&samples.solve),
        ),
    );
    outcome.set("krylov.mevp_us", us(&samples.mevp));
    outcome.set("krylov.subspaces", stats.krylov_subspaces as f64);
    outcome.set("krylov.avg_m", stats.avg_krylov_dimension());
    outcome.set("krylov.peak_m", stats.peak_krylov_dimension as f64);
    outcome.set("krylov.operator_apply_us", us(&samples.operator_apply));
    outcome.set("krylov.small_dense_us", us(&samples.small_dense));
    outcome.set("krylov.phi_eval_us", us(&samples.phi_eval));
    outcome.set(
        "krylov.non_operator_share",
        median(&samples.non_operator_share),
    );
    outcome.set("krylov.mevp_share", ratio(mevp_s, wall_s));
    outcome.set(
        "krylov.workspace_allocations",
        stats.krylov_workspace_allocations as f64,
    );
    outcome.set(
        "trace.coverage",
        ratio(
            restamp_s
                + symbolic_s
                + refactorize_s
                + combine_s
                + solve_s
                + mevp_s
                + phi_s
                + observer_s,
            wall_s,
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use exi_netlist::generators::{rc_mesh, RcMeshSpec};

    #[test]
    fn probes_every_kernel_on_a_linear_mesh() {
        let circuit = rc_mesh(&RcMeshSpec {
            rows: 6,
            cols: 6,
            ..RcMeshSpec::default()
        })
        .unwrap();
        let plan = EvalPlan::compile(&circuit).unwrap();
        let n = plan.num_unknowns();
        let x: Vec<f64> = (0..n).map(|i| 0.01 * (i % 7) as f64).collect();
        let options = TransientOptions::default();
        let probe_three = |method| {
            let mut prober = Prober::new(&circuit, &plan, method, &options);
            for k in 1..=3 {
                prober.probe(k as f64 * 1e-11, 1e-11, &x).unwrap();
            }
            assert!(prober.seconds > 0.0);
            prober.samples
        };
        let er = probe_three(Method::ExponentialRosenbrock);
        assert_eq!(er.factorize.len(), 1, "one pattern, one full factorization");
        assert_eq!(er.refactorize.len(), 3);
        assert_eq!(er.pattern_changes, 0);
        assert_eq!(er.mevp.len(), 3);
        assert_eq!(er.solve.len(), 3);
        assert!(er.factor_nnz >= n);
        assert!(er.non_operator_share.iter().all(|s| *s < 1.0));
        assert!(er.combine.is_empty());

        let be = probe_three(Method::BackwardEuler);
        assert!(be.mevp.is_empty() && be.operator_apply.is_empty());
        assert_eq!(be.refactorize.len(), 3);
        assert_eq!(be.combine.len(), 3);

        let stats = RunStats {
            device_evaluations: 10,
            linear_solves: 20,
            lu_refactorizations: 5,
            lu_factorizations: 6,
            symbolic_analyses: 1,
            krylov_subspaces: 4,
            krylov_dimension_total: 40,
            ..RunStats::default()
        };
        let mut outcome = Outcome::default();
        report(&er, &stats, 1.0, 0.0, &mut outcome);
        assert_eq!(outcome.get("sparse.solve_calls"), Some(20.0));
        assert!(outcome.get("trace.coverage").unwrap() > 0.0);
        let mut implicit = Outcome::default();
        report(&be, &RunStats::default(), 1.0, 0.0, &mut implicit);
        assert_eq!(implicit.get("krylov.mevp_us"), Some(0.0));
        assert_eq!(implicit.get("krylov.subspaces"), Some(0.0));
    }
}

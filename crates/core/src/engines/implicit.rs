//! Low-order implicit integration: backward Euler and trapezoidal rule with
//! Newton–Raphson iterations (the paper's BENR baseline, Sec. II-A).
//!
//! Every Newton iteration assembles and LU-factorizes the combined matrix
//! `C(x)/h + θ·G(x)` — the operation whose cost (and factor fill, Fig. 1)
//! the exponential framework avoids. The *sparsity pattern* of that matrix is
//! nevertheless fixed — the structural union of the plan's `C` and `G`
//! patterns, whatever `x` and `h` are — so the stepper walks that union once,
//! when it is built ([`CombinationMap`]), and every iteration only rewrites
//! values: at a step size the previous iteration already used, only the
//! cells that read the plan's nonlinear cells of `G`
//! ([`EvalPlan::nonlinear_cells`](exi_netlist::EvalPlan::nonlinear_cells)),
//! since `C` and the rest of `G` are compile-time constants. The baseline
//! also benefits from the cached symbolic analysis: after the first Newton
//! iteration the factorizations run through the numeric-only
//! refactorization path, which compares the cells the fill rewrote and
//! recomputes only the factor columns the changed ones reach. The remaining
//! per-iteration cost asymmetry against ER is the *numeric* elimination on
//! the much denser factors, which is exactly the paper's argument. Each
//! attempt's first Newton iterate is the step's start state, so that
//! iteration reads the device evaluation the step already made there.
//!
//! The engine is exposed as the [`ImplicitStepper`], the attempts of one
//! step; the engines' shared step loop drives it, one accepted step per
//! [`Engine::advance`](crate::Engine::advance) call.

use exi_netlist::Evaluation;
use exi_sparse::{vector, CombinationMap};

use crate::engines::{refresh_lu, Attempt, Run, Stepper};
use crate::error::SimResult;

/// Implicit one-step discretization parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImplicitScheme {
    /// Backward Euler (θ = 1), paper's BENR baseline.
    BackwardEuler,
    /// Trapezoidal rule (θ = ½).
    Trapezoidal,
}

impl ImplicitScheme {
    fn theta(self) -> f64 {
        match self {
            ImplicitScheme::BackwardEuler => 1.0,
            ImplicitScheme::Trapezoidal => 0.5,
        }
    }
}

/// The attempts of an implicit (BE or TR) step: Newton–Raphson iterations,
/// then the local truncation error of a forward-Euler predictor.
///
/// Created by [`Simulator::stepper`](crate::Simulator::stepper) with
/// [`Method::BackwardEuler`](crate::Method::BackwardEuler) or
/// [`Method::Trapezoidal`](crate::Method::Trapezoidal). All hot-loop state
/// lives in the stepper, so a paused one resumes bit-identically.
#[derive(Debug)]
pub struct ImplicitStepper {
    theta: f64,
    // Circuit-sized scratch buffers, allocated once per stepper.
    eval_k: Evaluation,
    /// A fault hook edited `eval_k`, maybe in cells no device writes: the
    /// fills that read it, and the fill after each, rewrite every cell.
    eval_k_edited: bool,
    eval_i: Evaluation,
    /// The implicit Jacobian `C/h + θ·G` and where each of its cells reads
    /// its `C` and `G` values. Its pattern, the union of the plan's fixed `C`
    /// and `G` patterns, is built once; each Newton iteration only refills
    /// values, all of them or just the nonlinear devices' cells.
    jac_map: CombinationMap,
    u_k: Vec<f64>,
    u_next: Vec<f64>,
    bu_k: Vec<f64>,
    bu_next: Vec<f64>,
    xi: Vec<f64>,
    residual: Vec<f64>,
    delta: Vec<f64>,
    /// Previous derivative estimate used by the forward-Euler predictor for
    /// local-truncation-error control.
    prev_derivative: Option<Vec<f64>>,
}

impl ImplicitStepper {
    pub(crate) fn new(run: &Run<'_>, scheme: ImplicitScheme) -> SimResult<Self> {
        let n = run.x.len();
        let input_dim = run.plan.input_matrix().cols();
        let eval_k = run.plan.new_evaluation();
        let jac_map = CombinationMap::new(&eval_k.c, &eval_k.g, run.plan.nonlinear_cells())?;
        Ok(ImplicitStepper {
            theta: scheme.theta(),
            eval_k,
            eval_k_edited: false,
            eval_i: run.plan.new_evaluation(),
            jac_map,
            u_k: vec![0.0; input_dim],
            u_next: vec![0.0; input_dim],
            bu_k: vec![0.0; n],
            bu_next: vec![0.0; n],
            xi: vec![0.0; n],
            residual: vec![0.0; n],
            delta: vec![0.0; n],
            prev_derivative: None,
        })
    }

    /// The forward-Euler predictor's local truncation error estimate for the
    /// step of size `h` from `x` to `xi`; zero before the first accepted step.
    fn lte(&self, x: &[f64], h: f64) -> f64 {
        let Some(dxdt) = &self.prev_derivative else {
            return 0.0;
        };
        let mut err = 0.0_f64;
        for (i, d) in dxdt.iter().enumerate() {
            let predicted = x[i] + h * d;
            err = err.max((self.xi[i] - predicted).abs());
        }
        err * 0.5
    }
}

impl Stepper for ImplicitStepper {
    fn reset(&mut self, _run: &mut Run<'_>) {
        self.prev_derivative = None;
    }

    fn start_step(&mut self, run: &mut Run<'_>, _h: f64) -> SimResult<()> {
        run.stats.restamped_entries +=
            run.plan
                .evaluate_into(&run.x, &mut run.caches.eval_ws, &mut self.eval_k)?;
        run.stats.device_evaluations += 1;
        #[cfg(feature = "fault-injection")]
        {
            self.eval_k_edited = crate::fault::on_device_eval(&mut self.eval_k);
        }
        run.circuit.input_vector_into(run.t, &mut self.u_k);
        run.plan
            .input_matrix()
            .mul_vec_into(&self.u_k, &mut self.bu_k);
        Ok(())
    }

    /// Newton–Raphson on the θ-method's residual at step size `h`, from
    /// `x_k`; converged, the predictor's LTE.
    fn attempt(&mut self, run: &mut Run<'_>, h: f64, _retry: bool) -> SimResult<Attempt> {
        let theta = self.theta;
        let (plan, caches) = (&*run.plan, &mut *run.caches);
        run.circuit.input_vector_into(run.t + h, &mut self.u_next);
        plan.input_matrix()
            .mul_vec_into(&self.u_next, &mut self.bu_next);
        self.xi.copy_from_slice(&run.x);
        let mut iterations = 0usize;
        while iterations < run.options.newton_max_iterations {
            iterations += 1;
            // The first iterate is `x` itself, bit for bit, and `eval_k`
            // was evaluated there; later iterates are evaluated afresh.
            if iterations > 1 {
                run.stats.restamped_entries +=
                    plan.evaluate_into(&self.xi, &mut caches.eval_ws, &mut self.eval_i)?;
                run.stats.device_evaluations += 1;
            }
            let ek = &self.eval_k;
            let ev = if iterations == 1 { ek } else { &self.eval_i };
            // Residual T(x) of Eq. (2) generalized to the θ-method.
            for (r, ((((q, qk), f), fk), (bn, bk))) in self.residual.iter_mut().zip(
                ev.q.iter()
                    .zip(&ek.q)
                    .zip(&ev.f)
                    .zip(&ek.f)
                    .zip(self.bu_next.iter().zip(&self.bu_k)),
            ) {
                *r = (q - qk) / h + theta * (f - bn) + (1.0 - theta) * (fk - bk);
            }
            // Jacobian C/h + θ·G — this is the matrix whose LU dominates
            // BENR's cost on densely coupled circuits. Only its values
            // are rewritten, through the map built with its pattern
            // (bit-identical to `CsrMatrix::linear_combination`): at the
            // last fill's `h`, only the cells of the nonlinear devices,
            // and the refactorization compares only those.
            let only_devices_moved = !(iterations == 1 && self.eval_k_edited);
            let (jac, changed) =
                self.jac_map
                    .fill(1.0 / h, &ev.c, theta, &ev.g, only_devices_moved)?;
            #[cfg(test)]
            tests::audit_fill(run.t, h, theta, ev, jac, changed);
            let lu = refresh_lu(
                &mut caches.jac_lu,
                None,
                jac,
                changed,
                &run.lu_options,
                &mut caches.lu_ws,
                &mut run.stats,
            )?;
            lu.solve_into(&self.residual, &mut self.delta, &mut caches.lu_ws)?;
            run.stats.linear_solves += 1;
            vector::scale(-1.0, &mut self.delta);
            let update = vector::norm_inf(&self.delta);
            vector::axpy(1.0, &self.delta, &mut self.xi);
            run.stats.newton_iterations += 1;
            if !update.is_finite() {
                break;
            }
            if update < run.options.newton_tolerance {
                let lte = self.lte(&run.x, h);
                return Ok(Attempt::Converged { iterations, lte });
            }
        }
        Ok(Attempt::NewtonFailed)
    }

    fn commit(&mut self, x: &mut Vec<f64>, h: f64) {
        let mut derivative = self
            .prev_derivative
            .take()
            .unwrap_or_else(|| vec![0.0; x.len()]);
        for (d, (xi, x)) in derivative.iter_mut().zip(self.xi.iter().zip(x.iter())) {
            *d = (xi - x) / h;
        }
        self.prev_derivative = Some(derivative);
        std::mem::swap(x, &mut self.xi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{Engine, StepLoop};
    use crate::error::SimError;
    use crate::options::TransientOptions;
    use crate::output::TransientResult;
    use crate::session::{SessionCaches, Simulator};
    use crate::stats::RunStats;
    use crate::transient::Method;
    use exi_netlist::{generators, Circuit, EvalPlan, Waveform};
    use exi_sparse::CsrMatrix;
    use std::cell::RefCell;
    use std::sync::Arc;

    fn run_scheme(
        ckt: &Circuit,
        scheme: ImplicitScheme,
        options: &TransientOptions,
        probes: &[&str],
    ) -> SimResult<TransientResult> {
        let method = match scheme {
            ImplicitScheme::BackwardEuler => Method::BackwardEuler,
            ImplicitScheme::Trapezoidal => Method::Trapezoidal,
        };
        Simulator::new(ckt).transient(method, options, probes)
    }

    #[test]
    fn backward_euler_matches_rc_analytic_solution() {
        let (r, c, v) = (1e3, 1e-12, 1.0);
        let tau = r * c;
        let options = TransientOptions {
            t_stop: 5.0 * tau,
            h_init: tau / 200.0,
            h_max: tau / 100.0,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        // Use a fast PWL ramp so the interesting charging happens after t = 0
        // (a DC source would already be charged at the operating point).
        let mut ckt2 = Circuit::new();
        let vin = ckt2.node("in");
        let out = ckt2.node("out");
        let gnd = ckt2.node("0");
        ckt2.add_voltage_source(
            "V1",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (tau * 1e-3, v)]),
        )
        .unwrap();
        ckt2.add_resistor("R1", vin, out, r).unwrap();
        ckt2.add_capacitor("C1", out, gnd, c).unwrap();
        let result = run_scheme(&ckt2, ImplicitScheme::BackwardEuler, &options, &["out"]).unwrap();
        let p = result.probe_index("out").unwrap();
        let t_check = 2.0 * tau;
        let expected = v * (1.0 - (-(t_check - tau * 1e-3) / tau).exp());
        let got = result.sample_at(p, t_check);
        assert!(
            (got - expected).abs() < 0.02,
            "got {got}, expected {expected}"
        );
        let s = &result.stats;
        assert!(s.accepted_steps > 100);
        // Every Newton iteration asks for a factor of C/h + G ...
        assert!(s.lu_factorizations + s.lu_reuses >= s.accepted_steps);
        // The Jacobian pattern is fixed: one symbolic analysis for the DC
        // solve, one for the transient Jacobian, everything else numeric —
        // and on this linear circuit the values are fixed too while h is, so
        // most steps (the controller sits at h_max) factorize nothing.
        assert!(s.symbolic_analyses <= 2, "{s:?}");
        assert!(s.lu_reuses > s.accepted_steps / 2, "{s:?}");
        assert_eq!(
            s.lu_factorizations,
            s.symbolic_analyses + s.lu_refactorizations
        );
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_backward_euler_at_equal_steps() {
        let (r, c, v) = (1e3, 1e-12, 1.0);
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "V1",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (tau * 1e-3, v)]),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, gnd, c).unwrap();
        let options = TransientOptions {
            t_stop: 3.0 * tau,
            h_init: tau / 20.0,
            h_max: tau / 20.0,
            error_budget: 1.0, // effectively disable LTE rejection for this comparison
            ..TransientOptions::default()
        };
        let be = run_scheme(&ckt, ImplicitScheme::BackwardEuler, &options, &["out"]).unwrap();
        let tr = run_scheme(&ckt, ImplicitScheme::Trapezoidal, &options, &["out"]).unwrap();
        let exact = |t: f64| v * (1.0 - (-(t - tau * 1e-3) / tau).exp());
        let p = be.probe_index("out").unwrap();
        let t_check = tau;
        let be_err = (be.sample_at(p, t_check) - exact(t_check)).abs();
        let tr_err = (tr.sample_at(p, t_check) - exact(t_check)).abs();
        assert!(tr_err < be_err, "tr {tr_err} should beat be {be_err}");
    }

    #[test]
    fn benr_counts_multiple_newton_iterations_on_nonlinear_circuits() {
        let spec = generators::InverterChainSpec {
            stages: 2,
            ..generators::InverterChainSpec::default()
        };
        let ckt = generators::inverter_chain(&spec).unwrap();
        let options = TransientOptions {
            t_stop: 2e-10,
            h_init: 2e-12,
            h_max: 1e-11,
            error_budget: 1e-2,
            ..TransientOptions::default()
        };
        let result =
            run_scheme(&ckt, ImplicitScheme::BackwardEuler, &options, &["s1", "s2"]).unwrap();
        assert!(result.stats.accepted_steps > 10);
        assert!(result.stats.avg_newton_iterations() >= 1.0);
        // Output of the first inverter should stay within the rails.
        let p = result.probe_index("s1").unwrap();
        for (_, value) in result.waveform(p) {
            assert!(value > -0.3 && value < 1.3, "s1 = {value}");
        }
    }

    /// A three-stage MOSFET inverter chain.
    fn mosfet_chain() -> Circuit {
        let spec = generators::InverterChainSpec {
            stages: 3,
            ..generators::InverterChainSpec::default()
        };
        generators::inverter_chain(&spec).unwrap()
    }

    fn chain_options() -> TransientOptions {
        TransientOptions {
            t_stop: 2e-10,
            h_init: 1e-12,
            h_max: 1e-11,
            error_budget: 1e-2,
            ..TransientOptions::default()
        }
    }

    /// One Jacobian fill, as [`audit_fill`] saw it.
    #[derive(Debug, Clone, Copy)]
    struct Fill {
        /// Start of the step attempt.
        t: f64,
        h: f64,
        /// Cells a partial fill wrote; `None` for a fill of every cell.
        written: Option<usize>,
    }

    thread_local! {
        /// Every fill on this thread, while armed.
        static FILLS: RefCell<Option<Vec<Fill>>> = const { RefCell::new(None) };
    }

    /// When [`audited_fills`] has armed this thread: checks that the fill
    /// left `jac` equal, pattern and value bits, to
    /// `CsrMatrix::linear_combination` of the evaluation it read, and
    /// records it.
    pub(super) fn audit_fill(
        t: f64,
        h: f64,
        theta: f64,
        ev: &Evaluation,
        jac: &CsrMatrix,
        changed: Option<&[usize]>,
    ) {
        FILLS.with(|fills| {
            if let Some(fills) = fills.borrow_mut().as_mut() {
                let merged = CsrMatrix::linear_combination(1.0 / h, &ev.c, theta, &ev.g).unwrap();
                let bits =
                    |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(jac.indptr(), merged.indptr(), "fill {}", fills.len());
                assert_eq!(jac.indices(), merged.indices(), "fill {}", fills.len());
                assert_eq!(
                    bits(jac),
                    bits(&merged),
                    "fill {} at h = {h:e}",
                    fills.len()
                );
                fills.push(Fill {
                    t,
                    h,
                    written: changed.map(<[usize]>::len),
                });
            }
        });
    }

    /// Runs `scheme` on `ckt` from its DC operating point with every
    /// Jacobian fill audited: the transient's own stats and the fills, in
    /// order.
    fn audited_fills(
        ckt: &Circuit,
        scheme: ImplicitScheme,
        options: &TransientOptions,
    ) -> (RunStats, Vec<Fill>) {
        audited_fills_after(ckt, scheme, options, || {})
    }

    /// [`audited_fills`], calling `before` between the DC solve and the
    /// transient.
    fn audited_fills_after(
        ckt: &Circuit,
        scheme: ImplicitScheme,
        options: &TransientOptions,
        before: impl FnOnce(),
    ) -> (RunStats, Vec<Fill>) {
        let x0 = crate::Simulator::new(ckt).dc().unwrap().state;
        let mut caches = SessionCaches {
            plan: Some(Arc::new(EvalPlan::compile(ckt).unwrap())),
            ..SessionCaches::default()
        };
        let mut stepper = StepLoop::new(ckt, &mut caches, options, RunStats::new(), |run| {
            ImplicitStepper::new(run, scheme)
        })
        .unwrap();
        stepper.init(0.0, &x0, &mut crate::NullObserver).unwrap();
        before();
        FILLS.with(|fills| *fills.borrow_mut() = Some(Vec::new()));
        let stats = stepper.run_to_end(&mut crate::NullObserver);
        let fills = FILLS.with(|fills| fills.borrow_mut().take()).unwrap();
        (stats.unwrap(), fills)
    }

    #[test]
    fn jacobian_fill_matches_linear_combination_bitwise() {
        let ckt = mosfet_chain();
        let cells = EvalPlan::compile(&ckt).unwrap().nonlinear_cells().len();
        for scheme in [ImplicitScheme::BackwardEuler, ImplicitScheme::Trapezoidal] {
            // The audit compares every fill, partial or full, with the merge.
            let (s, fills) = audited_fills(&ckt, scheme, &chain_options());
            assert_eq!(fills.len(), s.newton_iterations, "{scheme:?}");
            let partial: Vec<usize> = fills.iter().filter_map(|f| f.written).collect();
            assert!(
                partial.len() > fills.len() / 2,
                "{scheme:?}: {} of {} fills partial",
                partial.len(),
                fills.len()
            );
            // A partial fill writes exactly the nonlinear devices' cells.
            assert!(
                partial.iter().all(|&w| w == cells),
                "{scheme:?}: {partial:?}"
            );
            let mut step_sizes: Vec<u64> = fills.iter().map(|f| f.h.to_bits()).collect();
            step_sizes.sort_unstable();
            step_sizes.dedup();
            assert!(s.accepted_steps > 10, "{scheme:?}: {s:?}");
            assert!(step_sizes.len() >= 3, "{scheme:?}: {step_sizes:?}");
        }
    }

    #[test]
    fn every_change_of_the_step_size_refills_every_cell() {
        let ckt = mosfet_chain();
        let options = chain_options();
        let breakpoints = ckt.breakpoints(options.t_stop);
        let at_breakpoint = |f: &Fill| {
            breakpoints
                .iter()
                .any(|&bp| (f.t + f.h - bp).abs() <= 1e-9 * f.h)
        };
        for scheme in [ImplicitScheme::BackwardEuler, ImplicitScheme::Trapezoidal] {
            let (s, fills) = audited_fills(&ckt, scheme, &options);
            assert!(fills[0].written.is_none(), "{scheme:?}: the first fill");
            let (mut rejection, mut growth, mut clamp) = (0, 0, 0);
            for pair in fills.windows(2) {
                let (before, fill) = (pair[0], pair[1]);
                if fill.h.to_bits() == before.h.to_bits() {
                    assert!(
                        fill.written.is_some(),
                        "{scheme:?}: {fill:?} after {before:?}"
                    );
                    continue;
                }
                assert!(
                    fill.written.is_none(),
                    "{scheme:?}: {fill:?} after {before:?}"
                );
                if fill.t == before.t {
                    rejection += 1;
                } else if at_breakpoint(&fill) && fill.h < before.h {
                    clamp += 1;
                } else if fill.h > before.h {
                    growth += 1;
                }
            }
            assert!(s.rejected_steps > 0, "{scheme:?}: {s:?}");
            assert!(rejection > 0, "{scheme:?}: no retry at a shrunk h");
            assert!(growth > 0, "{scheme:?}: no step grew");
            assert!(clamp > 0, "{scheme:?}: no step was clamped to a breakpoint");
        }
    }

    /// A fault hook that zeroes a row and column of a step's `eval_k.g`
    /// edits cells no device writes: the fill that reads it, and the one
    /// after, write every cell (so `refresh_lu` compares every value), where
    /// a clean run wrote only the devices' cells. The audit checks each fill
    /// against the merge of what it read.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_fault_edited_evaluation_is_filled_and_compared_in_full() {
        use crate::fault::{install, FaultGuard, FaultSpec};
        let ckt = mosfet_chain();
        let options = chain_options();
        let (_, clean) = audited_fills(&ckt, ImplicitScheme::BackwardEuler, &options);
        // The step whose first fill, and the fill after it, were partial:
        // its `eval_k` is device evaluation `step` of the transient.
        let (mut step, mut at) = (0, None);
        for (i, pair) in clean.windows(2).enumerate() {
            if i == 0 || clean[i - 1].t != pair[0].t {
                step += 1;
                if pair[0].written.is_some() && pair[1].written.is_some() && step > 3 {
                    at = Some(i);
                    break;
                }
            }
        }
        let at = at.expect("a step at an unchanged h");
        let unknown = ckt.find_node("s2").and_then(|n| n.unknown()).unwrap();
        let label = "implicit-fill-fault-edited-evaluation";
        let _guard = FaultGuard::arm(
            label,
            FaultSpec {
                singular_unknown: Some((step, unknown)),
                ..FaultSpec::default()
            },
        );
        let (_, faulted) =
            audited_fills_after(&ckt, ImplicitScheme::BackwardEuler, &options, || {
                assert!(install(label));
            });
        let key = |f: &Fill| (f.t.to_bits(), f.h.to_bits(), f.written);
        let same: Vec<_> = clean[..at].iter().map(key).collect();
        assert_eq!(faulted[..at].iter().map(key).collect::<Vec<_>>(), same);
        assert_eq!(faulted[at].t, clean[at].t);
        assert_eq!((faulted[at].written, faulted[at + 1].written), (None, None));
    }

    /// `benr_sparse_drivers`' circuit (exibench; Table I's tc2 analogue):
    /// 16 lines of 30 segments, each driven by an inverter.
    fn sparse_drivers() -> Circuit {
        generators::coupled_lines(&generators::CoupledLinesSpec {
            lines: 16,
            segments: 30,
            coupling_capacitance: 0.0,
            random_couplings: 0,
            mosfet_drivers: true,
            ..generators::CoupledLinesSpec::default()
        })
        .unwrap()
    }

    #[test]
    fn a_partial_fill_writes_the_plans_nonlinear_cells_on_the_sparse_drivers() {
        let ckt = sparse_drivers();
        let plan = EvalPlan::compile(&ckt).unwrap();
        assert_eq!(ckt.num_unknowns(), 514);
        assert_eq!(plan.nonlinear_stamp_count(), 128);
        assert_eq!(plan.nonlinear_cells().len(), 81);
        let eval = plan.new_evaluation();
        let map = CombinationMap::new(&eval.c, &eval.g, plan.nonlinear_cells()).unwrap();
        assert_eq!((eval.g.nnz(), map.matrix().nnz()), (1507, 1555));
        // Past the first driver's switching, so that steps take several
        // Newton iterations.
        let options = TransientOptions {
            t_stop: 1.4e-10,
            h_init: 1e-12,
            h_max: 5e-12,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let (s, fills) = audited_fills(&ckt, ImplicitScheme::BackwardEuler, &options);
        let partial: Vec<usize> = fills.iter().filter_map(|f| f.written).collect();
        assert!(partial.len() > s.accepted_steps, "{s:?}");
        assert!(partial.iter().all(|&w| w == 81), "{partial:?}");
    }

    #[test]
    fn newton_iteration_one_reads_the_evaluation_at_the_step_start() {
        let ckt = mosfet_chain();
        for scheme in [ImplicitScheme::BackwardEuler, ImplicitScheme::Trapezoidal] {
            let (s, _) = audited_fills(&ckt, scheme, &chain_options());
            // One evaluation at each step's start, then one per Newton
            // iteration after the first of every attempt, retried ones too.
            assert_eq!(
                s.device_evaluations,
                s.newton_iterations - s.rejected_steps,
                "{scheme:?}: {s:?}"
            );
            assert!(s.rejected_steps > 0, "{scheme:?}: {s:?}");
        }
    }

    #[test]
    fn benr_fills_its_jacobian_without_allocating_or_reanalyzing() {
        let result = run_scheme(
            &mosfet_chain(),
            ImplicitScheme::BackwardEuler,
            &chain_options(),
            &[],
        )
        .unwrap();
        let s = &result.stats;
        assert_eq!(s.assembly_workspace_allocations, 0, "{s:?}");
        // One analysis for the DC solve's G, one for C/h + G.
        assert_eq!(s.symbolic_analyses, 2, "{s:?}");
        assert!(s.newton_iterations > s.accepted_steps, "{s:?}");
    }

    #[test]
    fn fill_budget_failure_is_reported() {
        let spec = generators::CoupledLinesSpec {
            lines: 4,
            segments: 8,
            random_couplings: 60,
            mosfet_drivers: false,
            ..generators::CoupledLinesSpec::default()
        };
        let ckt = generators::coupled_lines(&spec).unwrap();
        let options = TransientOptions {
            t_stop: 1e-10,
            h_init: 1e-12,
            fill_budget: Some(10),
            ..TransientOptions::default()
        };
        let err = run_scheme(&ckt, ImplicitScheme::BackwardEuler, &options, &[]).unwrap_err();
        assert!(matches!(
            err,
            SimError::Sparse(exi_sparse::SparseError::FillBudgetExceeded { .. })
        ));
    }
}

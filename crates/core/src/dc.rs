//! DC operating-point analysis.
//!
//! Both the BENR baseline and the ER engines start a transient run from the
//! operating point `x(0)` that solves the static system `f(x) = B·u(0)`
//! (Algorithm 2 line 2). A damped Newton–Raphson iteration is used; when the
//! plain iteration struggles, a Levenberg-style diagonal damping term is added
//! to the Jacobian, which plays the practical role of SPICE's gmin stepping.
//!
//! The Jacobian is one of two matrix roles, each with a pattern fixed by the
//! circuit: the plain `G` and, while the damping term is on, `G + σI`. Each
//! has its own factor slot, so after a role's first iteration its LU
//! factorizations run through the cached-symbolic refactorization path. When
//! driven by a [`crate::Simulator`] session the `G` slot is the session's
//! conductance-matrix cache, so the DC factor seeds every later transient
//! run — the transient steps never pay for a second symbolic analysis of `G`.

use exi_netlist::{Circuit, EvalPlan, EvalWorkspace};
use exi_sparse::{vector, CsrMatrix, LuOptions, LuWorkspace, SparseLu};

use crate::engines::refresh_lu;
use crate::error::{SimError, SimResult};
use crate::options::DcOptions;
use crate::stats::RunStats;

/// Outcome of a DC operating-point analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    /// The operating-point state vector.
    pub state: Vec<f64>,
    /// Newton iterations spent.
    pub iterations: usize,
    /// Infinity norm of the final KCL residual `f(x) − B·u(0)`.
    pub residual: f64,
}

/// Computes the DC operating point of `circuit` at `t = 0`.
///
/// # Errors
///
/// * [`SimError::Netlist`] / [`SimError::Sparse`] for evaluation or
///   factorization failures.
/// * [`SimError::NewtonDidNotConverge`] if the iteration does not converge
///   within `options.max_iterations`.
///
/// # Examples
///
/// ```
/// use exi_netlist::{Circuit, Waveform};
/// use exi_sim::{dc_operating_point, DcOptions};
///
/// # fn main() -> Result<(), exi_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// let gnd = ckt.node("0");
/// ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(2.0))?;
/// ckt.add_resistor("R1", a, b, 1e3)?;
/// ckt.add_resistor("R2", b, gnd, 1e3)?;
/// let dc = dc_operating_point(&ckt, &DcOptions::default())?;
/// assert!((dc.state[1] - 1.0).abs() < 1e-9); // resistive divider
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(circuit: &Circuit, options: &DcOptions) -> SimResult<DcSolution> {
    let mut stats = RunStats::new();
    let mut lu_ws = LuWorkspace::new();
    let plan = circuit.compile_plan()?;
    stats.plan_compilations += 1;
    let mut eval_ws = plan.new_workspace();
    dc_operating_point_internal(
        circuit,
        &plan,
        options,
        &mut stats,
        &mut None,
        &mut None,
        &mut lu_ws,
        &mut eval_ws,
    )
}

/// As [`dc_operating_point`], additionally accounting every device
/// evaluation, Newton iteration and (re)factorization into `stats` and
/// running the Jacobian factorizations through a caller-owned LU cache and
/// workspace — the [`crate::Simulator`] session passes its conductance-matrix
/// cache here, so the symbolic analysis the DC solve performs is reused by
/// every later transient step (and every later run); its ordering comes
/// from the plan ([`EvalPlan::g_ordering`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn dc_operating_point_internal(
    circuit: &Circuit,
    plan: &EvalPlan,
    options: &DcOptions,
    stats: &mut RunStats,
    g_lu: &mut Option<SparseLu>,
    damped_lu: &mut Option<SparseLu>,
    lu_ws: &mut LuWorkspace,
    eval_ws: &mut EvalWorkspace,
) -> SimResult<DcSolution> {
    let n = circuit.num_unknowns();
    let b = plan.input_matrix();
    let u0 = circuit.input_vector(0.0);
    let bu = b.mul_vec(&u0);
    let mut x = vec![0.0; n];
    let mut damping = 0.0;
    let mut previous_residual = f64::INFINITY;

    let lu_options = LuOptions {
        ordering: options.ordering,
        ..LuOptions::default()
    };
    let mut rhs = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut ev = plan.new_evaluation();

    for iter in 1..=options.max_iterations {
        stats.restamped_entries += plan.evaluate_into(&x, eval_ws, &mut ev)?;
        stats.device_evaluations += 1;
        #[cfg(feature = "fault-injection")]
        crate::fault::on_device_eval(&mut ev);
        for i in 0..n {
            rhs[i] = bu[i] - ev.f[i];
        }
        let residual_norm = vector::norm_inf(&rhs);
        // Adaptive Levenberg damping: engage when the residual grows or the
        // iteration produced non-finite values.
        if !residual_norm.is_finite() || residual_norm > 10.0 * previous_residual {
            damping = if damping == 0.0 {
                options.fallback_damping
            } else {
                damping * 10.0
            };
        }
        previous_residual = residual_norm.min(previous_residual);

        // The cold Levenberg fallback allocates its damped Jacobian; the
        // common path factorizes the restamped `G` directly.
        let damped;
        let (slot, jac, g_plan) = if damping > 0.0 {
            let scaled_identity = CsrMatrix::identity(n).scaled(damping);
            damped = CsrMatrix::linear_combination(1.0, &ev.g, 1.0, &scaled_identity)?;
            (&mut *damped_lu, &damped, None)
        } else {
            (&mut *g_lu, &ev.g, Some(plan))
        };
        let lu = refresh_lu(slot, g_plan, jac, None, &lu_options, lu_ws, stats)?;
        lu.solve_into(&rhs, &mut delta, lu_ws)?;
        stats.linear_solves += 1;
        // Simple voltage limiting keeps exponential devices in range.
        for d in delta.iter_mut() {
            if d.abs() > options.max_update {
                *d = options.max_update * d.signum();
            }
            if !d.is_finite() {
                *d = 0.0;
            }
        }
        let update_norm = vector::norm_inf(&delta);
        vector::axpy(1.0, &delta, &mut x);
        stats.newton_iterations += 1;
        if update_norm < options.tolerance && residual_norm.is_finite() {
            // Recompute the residual at the converged point for reporting.
            stats.restamped_entries += plan.evaluate_into(&x, eval_ws, &mut ev)?;
            stats.device_evaluations += 1;
            let final_residual = vector::norm_inf(&vector::sub(&bu, &ev.f));
            return Ok(DcSolution {
                state: x,
                iterations: iter,
                residual: final_residual,
            });
        }
    }
    Err(SimError::NewtonDidNotConverge {
        time: 0.0,
        step: 0.0,
        iterations: options.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exi_netlist::{DiodeModel, MosfetModel, Waveform};

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(3.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 2e3).unwrap();
        ckt.add_resistor("R2", b, gnd, 1e3).unwrap();
        let dc = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((dc.state[0] - 3.0).abs() < 1e-9);
        assert!((dc.state[1] - 1.0).abs() < 1e-9);
        // Source branch current = -(3/3k) (current flows out of the source).
        assert!((dc.state[2] + 1e-3).abs() < 1e-9);
        assert!(dc.residual < 1e-9);
    }

    #[test]
    fn diode_forward_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, d, 1e3).unwrap();
        ckt.add_diode("D1", d, gnd, DiodeModel::default()).unwrap();
        let dc = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let vd = dc.state[1];
        // Forward drop of a silicon-like diode at ~1 mA.
        assert!(vd > 0.5 && vd < 0.8, "vd = {vd}");
        assert!(dc.residual < 1e-9);
    }

    #[test]
    fn cmos_inverter_output_levels() {
        // Input low -> output close to vdd; input high -> output close to 0.
        for (vin, expect_high) in [(0.0, true), (1.0, false)] {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let inp = ckt.node("in");
            let out = ckt.node("out");
            let gnd = ckt.node("0");
            ckt.add_voltage_source("Vdd", vdd, gnd, Waveform::Dc(1.0))
                .unwrap();
            ckt.add_voltage_source("Vin", inp, gnd, Waveform::Dc(vin))
                .unwrap();
            ckt.add_mosfet("MN", out, inp, gnd, MosfetModel::nmos())
                .unwrap();
            ckt.add_mosfet("MP", out, inp, vdd, MosfetModel::pmos())
                .unwrap();
            ckt.add_resistor("Rload", out, gnd, 1e8).unwrap();
            let dc = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            let vout = dc.state[ckt.unknown_of("out").unwrap()];
            if expect_high {
                assert!(vout > 0.9, "vin = {vin}: vout = {vout}");
            } else {
                assert!(vout < 0.1, "vin = {vin}: vout = {vout}");
            }
        }
    }

    #[test]
    fn newton_iterations_reuse_the_symbolic_analysis() {
        // A nonlinear circuit needs several Newton iterations whose Jacobian
        // values change but whose pattern does not: exactly one symbolic
        // analysis, all later iterations numeric-only.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, d, 1e3).unwrap();
        ckt.add_diode("D1", d, gnd, DiodeModel::default()).unwrap();
        let mut stats = RunStats::new();
        let mut lu = None;
        let mut ws = LuWorkspace::new();
        let plan = ckt.compile_plan().unwrap();
        let mut eval_ws = plan.new_workspace();
        let dc = dc_operating_point_internal(
            &ckt,
            &plan,
            &DcOptions::default(),
            &mut stats,
            &mut lu,
            &mut None,
            &mut ws,
            &mut eval_ws,
        )
        .unwrap();
        assert!(dc.iterations > 1);
        // At most one extra symbolic analysis — for the damped Jacobian's
        // own pattern, should the Levenberg damping kick in; all other
        // iterations run numeric-only.
        assert!(stats.symbolic_analyses <= 2, "{stats:?}");
        assert_eq!(
            stats.lu_refactorizations,
            stats.lu_factorizations - stats.symbolic_analyses
        );
        assert!(
            stats.lu_refactorizations > stats.symbolic_analyses,
            "{stats:?}"
        );
        assert!(lu.is_some());
    }

    #[test]
    fn fails_gracefully_when_not_converging() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, gnd, 1e3).unwrap();
        // Absurd iteration limit forces the failure path.
        let opts = DcOptions {
            max_iterations: 1,
            tolerance: 1e-30,
            ..DcOptions::default()
        };
        assert!(matches!(
            dc_operating_point(&ckt, &opts),
            Err(SimError::NewtonDidNotConverge { .. })
        ));
    }
}

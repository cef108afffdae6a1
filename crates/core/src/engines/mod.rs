//! Transient integration engines.
//!
//! * [`implicit`] — the low-order implicit baselines: backward Euler with
//!   Newton–Raphson (BENR, the paper's comparison method) and the trapezoidal
//!   rule.
//! * [`er`] — the paper's contribution: exponential Rosenbrock–Euler (ER) and
//!   its corrected variant (ER-C), with invert-Krylov MEVP evaluation and
//!   LU-free step-size control (Algorithm 2).
//!
//! Each engine supplies only the attempts of one step; one step loop (the
//! crate-private `StepLoop`) runs the adaptive skeleton around them — the
//! clamp, rejections, acceptance, growth — and exposes every engine through
//! the same incremental [`Engine`] interface: a stepper is initialized at
//! `(t0, x0)`, advanced one accepted step at a time, can be queried (and
//! paused) between steps, and is finalized into a [`RunStats`]. Simulation
//! events stream to an [`Observer`]. The [`Simulator`](crate::Simulator)
//! session object owns the reusable caches the steppers borrow.

pub mod er;
pub mod implicit;
mod step_loop;

pub(crate) use step_loop::{Attempt, Run, StepLoop, Stepper};

use exi_netlist::{Circuit, EvalPlan};
use exi_sparse::{CsrMatrix, LuOptions, LuWorkspace, SparseError, SparseLu};

use crate::error::{SimError, SimResult};
use crate::observer::Observer;
use crate::output::Probe;
use crate::stats::RunStats;

/// Relative tolerance used when deciding that the simulation reached `t_stop`
/// or a breakpoint.
pub(crate) const TIME_EPSILON: f64 = 1e-12;

/// Outcome of advancing (or driving) a stepper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// One step was accepted; the simulation advanced to time `t` with
    /// accepted step size `h`.
    Advanced {
        /// New simulation time.
        t: f64,
        /// Size of the accepted step.
        h: f64,
    },
    /// The stepper paused before `t_stop` (only produced by
    /// [`Engine::run_until`]); it can be queried and resumed.
    Paused {
        /// Simulation time at the pause point.
        t: f64,
    },
    /// The stepper reached `t_stop`; further calls are no-ops.
    Finished,
}

/// Incremental time-integration interface shared by every engine (BENR, TRNR,
/// ER and ER-C).
///
/// A stepper is created by [`crate::Simulator::stepper`] with all reusable
/// caches wired up, then driven through this trait:
///
/// 1. [`Engine::init`] places the stepper at `(t0, x0)` — steppers obtained
///    from a [`crate::Simulator`] also auto-initialize at the DC operating
///    point on the first [`Engine::advance`];
/// 2. [`Engine::advance`] performs exactly one accepted step (with its
///    internal rejection/retry loop) and reports it to the observer;
/// 3. [`Engine::state`] / [`Engine::time`] / [`Engine::stats`] can be queried
///    at any step boundary — a paused stepper holds all its hot-loop state
///    and resumes bit-identically;
/// 4. [`Engine::finish`] finalizes the counters and emits
///    [`Observer::on_finish`].
pub trait Engine {
    /// Initializes (or re-initializes, e.g. from a checkpoint) the stepper at
    /// time `t0` with state `x0`, emitting [`Observer::on_dc`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOptions`] when `x0` does not hold one entry per
    /// circuit unknown; the stepper is then left as it was.
    fn init(&mut self, t0: f64, x0: &[f64], observer: &mut dyn Observer) -> SimResult<()>;

    /// Advances the simulation by one accepted step, or returns
    /// [`StepOutcome::Finished`] when `t_stop` has been reached.
    ///
    /// # Errors
    ///
    /// Step-size underflow, Newton non-convergence and kernel failures, as
    /// documented on the concrete engines.
    fn advance(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome>;

    /// The current state vector (valid at any step boundary).
    fn state(&self) -> &[f64];

    /// The current simulation time.
    fn time(&self) -> f64;

    /// The statistics accumulated so far.
    fn stats(&self) -> &RunStats;

    /// Mutable access to the statistics (used by the provided driver methods
    /// to account pauses and resumes).
    fn stats_mut(&mut self) -> &mut RunStats;

    /// Returns `true` once the stepper has reached `t_stop`.
    fn is_finished(&self) -> bool;

    /// Finalizes the run: fixes up the final counters (runtime, workspace
    /// allocations), emits [`Observer::on_finish`] once, and returns the
    /// statistics. Idempotent — later calls return the same statistics
    /// without re-emitting the event.
    fn finish(&mut self, observer: &mut dyn Observer) -> RunStats;

    /// Drives the stepper until the simulation time reaches `t_pause` (or
    /// `t_stop`, whichever comes first). Returns [`StepOutcome::Paused`] when
    /// stopped short of `t_stop`.
    ///
    /// Calling `run_until` again on a stepper that already advanced counts as
    /// a resume ([`RunStats::resumed_runs`]); the continuation is
    /// bit-identical to an uninterrupted run because all hot-loop state is
    /// retained across the pause.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::advance`] errors.
    fn run_until(&mut self, t_pause: f64, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        // Count a resume only when this call will actually advance the
        // stepper — a no-op poll (t_pause already reached) is not a resume.
        if self.stats().accepted_steps > 0
            && !self.is_finished()
            && self.time() < t_pause * (1.0 - TIME_EPSILON)
        {
            self.stats_mut().resumed_runs += 1;
        }
        while !self.is_finished() && self.time() < t_pause * (1.0 - TIME_EPSILON) {
            if let StepOutcome::Finished = self.advance(observer)? {
                return Ok(StepOutcome::Finished);
            }
        }
        if self.is_finished() {
            Ok(StepOutcome::Finished)
        } else {
            Ok(StepOutcome::Paused { t: self.time() })
        }
    }

    /// Drives the stepper to `t_stop` and finalizes it.
    ///
    /// Like [`Engine::run_until`], continuing a stepper that already advanced
    /// (and has not finished) counts as a resume.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::advance`] errors.
    fn run_to_end(&mut self, observer: &mut dyn Observer) -> SimResult<RunStats> {
        if self.stats().accepted_steps > 0 && !self.is_finished() {
            self.stats_mut().resumed_runs += 1;
        }
        while !matches!(self.advance(observer)?, StepOutcome::Finished) {}
        Ok(self.finish(observer))
    }
}

/// Resolves probe names to [`Probe`]s over the circuit's unknown indices —
/// what [`crate::Simulator::transient`] does with its `probe_names` argument,
/// exposed for front-ends driving an [`crate::Observer`] directly.
///
/// # Errors
///
/// Returns a netlist error if a probe name does not exist (ground probes are
/// silently skipped, their value is identically zero).
pub fn resolve_probes(circuit: &Circuit, names: &[&str]) -> SimResult<Vec<Probe>> {
    let mut probes = Vec::with_capacity(names.len());
    for name in names {
        match circuit.find_node(name) {
            Some(node) => {
                if let Some(idx) = node.unknown() {
                    probes.push(Probe::new(*name, idx));
                }
            }
            None => {
                return Err(SimError::Netlist(exi_netlist::NetlistError::UnknownNode {
                    name: (*name).to_string(),
                }))
            }
        }
    }
    Ok(probes)
}

/// Slack within which a time counts as having reached a breakpoint.
fn breakpoint_guard(t_stop: f64) -> f64 {
    TIME_EPSILON * t_stop.max(1e-30)
}

/// Index of the breakpoint interval a step starting at `t` lies in: the
/// number of (sorted) breakpoints at or before `t`. [`clamp_step`] keeps a
/// step from crossing `breakpoints[index]`, so two steps with the same index
/// see every source on one and the same linear piece — unless one of them
/// crosses a breakpoint sliver ([`crosses_breakpoint`]).
pub(crate) fn breakpoint_interval(t: f64, t_stop: f64, breakpoints: &[f64]) -> usize {
    let guard = breakpoint_guard(t_stop);
    breakpoints.partition_point(|&bp| bp <= t + guard)
}

/// Whether a step of `h` from `t` runs past `breakpoints[interval]`, the
/// breakpoint that closes the step's [`breakpoint_interval`]: only a step
/// clamped across a breakpoint less than `h_min` ahead does
/// (`StepLoop::clamp_past_sliver`); [`clamp_step`] never lets one.
pub(crate) fn crosses_breakpoint(
    t: f64,
    h: f64,
    t_stop: f64,
    breakpoints: &[f64],
    interval: usize,
) -> bool {
    breakpoints
        .get(interval)
        .is_some_and(|&bp| bp < t + h - breakpoint_guard(t_stop))
}

/// Computes the largest step that may be taken from `t` without overshooting
/// `t_stop` or stepping across the next waveform breakpoint.
pub(crate) fn clamp_step(t: f64, h: f64, t_stop: f64, breakpoints: &[f64]) -> f64 {
    let mut h = h.min(t_stop - t);
    if let Some(&bp) = breakpoints.get(breakpoint_interval(t, t_stop, breakpoints)) {
        if bp < t + h - breakpoint_guard(t_stop) {
            h = bp - t;
        }
    }
    h.max(0.0)
}

/// Returns `true` when the simulation time has reached the stop time.
pub(crate) fn reached_end(t: f64, t_stop: f64) -> bool {
    t >= t_stop * (1.0 - TIME_EPSILON)
}

/// Obtains an LU factorization of `a` in `slot` — the caller's cache for
/// this **matrix role** (`G`, the DC solve's damped `G + σI`, or the implicit
/// Jacobian `C/h + θG`).
///
/// A role's sparsity pattern is fixed when the evaluation plan is compiled
/// (see [`exi_netlist::plan`]), so one plain slot per role is the whole
/// cache:
///
/// 1. **In-place refactorization** of the slot's factor — the step hot path:
///    no hashing, no locks, no allocation. It recomputes only the factor
///    columns that `a`'s changed values reach
///    ([`SparseLu::refactorize_changed`]), comparing every value (`changed`
///    is `None`) or only the listed positions of a matrix whose caller knows
///    nothing else moved since the slot's factor last saw it (the implicit
///    Jacobian's nonlinear cells, as [`exi_sparse::CombinationMap::fill`]
///    reports them). One that recomputes nothing found `a` value for value
///    the matrix the factor was computed from and counts as a
///    [`RunStats::lu_reuses`]; on a linear circuit that is every ER step
///    after the DC solve, and every implicit step that keeps its `h`.
/// 2. Otherwise — the slot is empty, or the frozen pivot order is no longer
///    viable for `a`'s values (vanished pivot, excessive element growth) — a
///    **fresh** factorization that pivots on `a`'s own values. For the `G`
///    role the caller passes the plan (`g_plan`), whose `G` ordering every
///    session holding the plan shares ([`EvalPlan::g_ordering`]); a fresh
///    factorization that found it already computed counts a
///    [`RunStats::shared_symbolic_hits`]. The other roles compute their own.
///
/// Counts every path into `stats` so runs expose how much symbolic work they
/// actually reused.
pub(crate) fn refresh_lu<'s>(
    slot: &'s mut Option<SparseLu>,
    g_plan: Option<&EvalPlan>,
    a: &CsrMatrix,
    changed: Option<&[usize]>,
    options: &LuOptions,
    ws: &mut LuWorkspace,
    stats: &mut RunStats,
) -> SimResult<&'s SparseLu> {
    let recomputed = slot
        .as_mut()
        .map(|lu| lu.refactorize_changed(a, changed, ws));
    if let Some(Ok(columns)) = recomputed {
        let lu = slot.as_ref().expect("refactorized above");
        check_fill_budget(lu, options)?;
        if columns == 0 {
            stats.lu_reuses += 1;
            return Ok(lu);
        }
        stats.lu_refactorizations += 1;
    } else {
        // A rejected refactorization leaves the factor's values unspecified:
        // it must not survive an error return below.
        *slot = None;
        *slot = Some(match g_plan {
            Some(plan) => {
                let (q, computed) = plan.g_ordering(options.ordering);
                if !computed {
                    stats.shared_symbolic_hits += 1;
                }
                SparseLu::factorize_ordered(a, q.clone(), options)?
            }
            None => SparseLu::factorize_with(a, options)?,
        });
        stats.symbolic_analyses += 1;
    }
    stats.lu_factorizations += 1;
    Ok(slot.as_ref().expect("slot filled on both paths above"))
}

/// Rejects a factor whose fill exceeds the configured budget. A new factor
/// is held to the budget by its constructor; one that was already in the
/// slot may predate the budget (seeded by the DC solve, which runs without
/// one, or by an earlier run under another budget).
fn check_fill_budget(lu: &SparseLu, options: &LuOptions) -> SimResult<()> {
    if let Some(budget) = options.fill_budget {
        if lu.fill() > budget {
            return Err(SimError::Sparse(SparseError::FillBudgetExceeded {
                reached: lu.fill(),
                budget,
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exi_netlist::Waveform;

    #[test]
    fn clamp_step_respects_stop_time_and_breakpoints() {
        let bps = vec![1.0, 2.0, 3.0];
        // Far from any breakpoint.
        assert_eq!(clamp_step(0.0, 0.5, 10.0, &bps), 0.5);
        // Would cross the breakpoint at 1.0.
        assert_eq!(clamp_step(0.8, 0.5, 10.0, &bps), 1.0 - 0.8);
        // Sitting exactly on a breakpoint: the next one limits the step.
        let h = clamp_step(1.0, 5.0, 10.0, &bps);
        assert!((h - 1.0).abs() < 1e-9);
        // Near the end of the interval.
        assert!((clamp_step(9.9, 1.0, 10.0, &[]) - 0.1).abs() < 1e-12);
        // A step clamped to a breakpoint ends its interval; the next step
        // starts the following one, even from a hair short of the breakpoint.
        assert_eq!(breakpoint_interval(0.0, 10.0, &bps), 0);
        assert_eq!(breakpoint_interval(0.8, 10.0, &bps), 0);
        assert_eq!(breakpoint_interval(0.8 + (1.0 - 0.8), 10.0, &bps), 1);
        assert_eq!(breakpoint_interval(1.0 - 1e-13, 10.0, &bps), 1);
        assert_eq!(breakpoint_interval(2.5, 10.0, &bps), 2);
        assert_eq!(breakpoint_interval(3.5, 10.0, &bps), 3);
    }

    #[test]
    fn reached_end_is_tolerant() {
        assert!(reached_end(1.0, 1.0));
        assert!(reached_end(1.0 - 1e-15, 1.0));
        assert!(!reached_end(0.5, 1.0));
    }

    #[test]
    fn probes_resolve_and_reject_unknown_names() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, gnd, 1.0).unwrap();
        let probes = resolve_probes(&ckt, &["a", "0"]).unwrap();
        assert_eq!(probes.len(), 1); // ground probe silently dropped
        assert!(resolve_probes(&ckt, &["nope"]).is_err());
    }
}

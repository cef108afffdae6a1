//! The adaptive step loop every engine runs: Algorithm 2's step-size loop
//! (lines 8–25: shrink by α on rejection, grow by β after an easy step) and
//! BENR's Newton/LTE control (Sec. II-A) are one skeleton that differs only
//! in what happens inside one attempt (Hairer–Wanner II §IV.2 split it the
//! same way: a controller, and a method that reports an error).

use std::sync::Arc;
use std::time::Instant;

use exi_netlist::{Circuit, EvalPlan};
use exi_sparse::LuOptions;

use crate::engines::{clamp_step, reached_end, Engine, StepOutcome};
use crate::error::{SimError, SimResult};
use crate::observer::Observer;
use crate::options::TransientOptions;
use crate::session::SessionCaches;
use crate::stats::RunStats;

/// The step shrink factor α applied on rejection (the paper's ½). ER and a
/// BE/TR LTE rejection shrink the attempted (clamped) step; a BE/TR Newton
/// failure shrinks the step size asked for before the clamp.
const SHRINK_FACTOR: f64 = 0.5;

/// The step growth factor β applied after an easy step (the paper's 2); the
/// next step asks for `min(h·β, h_max)`.
const GROWTH_FACTOR: f64 = 2.0;

/// A step is easy (eligible for growth) if it needed at most this many
/// rejections (ER), or if its accepted attempt took at most this many Newton
/// iterations plus one with an LTE below `½·error_budget` (BE/TR).
const EASY_STEP_THRESHOLD: usize = 1;

/// What an engine's hooks read and write of the run: the session, the
/// options and the state `(t, x)` the next step starts from.
#[derive(Debug)]
pub(crate) struct Run<'a> {
    pub(crate) circuit: &'a Circuit,
    pub(crate) caches: &'a mut SessionCaches,
    /// The session's compiled stamping plan (shared handle; every device
    /// evaluation restamps through it).
    pub(crate) plan: Arc<EvalPlan>,
    pub(crate) options: TransientOptions,
    pub(crate) lu_options: LuOptions,
    pub(crate) breakpoints: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) t: f64,
    pub(crate) stats: RunStats,
}

/// What one attempt at a step concluded. The [`StepLoop`] judges it: the
/// acceptance test, like every rule that reads `h_min`, is the loop's.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Attempt {
    /// BE/TR: Newton–Raphson did not converge in `newton_max_iterations`.
    NewtonFailed,
    /// BE/TR: Newton–Raphson converged in `iterations`; `lte` is the
    /// forward-Euler predictor's local truncation error estimate.
    Converged { iterations: usize, lte: f64 },
    /// ER/ER-C: the candidate's local error estimate of Eq. (15)/(24).
    Estimated { err: f64 },
}

/// The part of an engine that is its own; [`StepLoop`] runs the rest.
pub(crate) trait Stepper {
    /// Forgets what the engine carries from step to step ([`Engine::init`]);
    /// by default, hands it back to the session arena.
    fn reset(&mut self, run: &mut Run<'_>) {
        self.release(run, true);
    }

    /// Prepares a step from `(run.t, run.x)` before its size is clamped;
    /// `h` is the size it asks for.
    fn start_step(&mut self, run: &mut Run<'_>, h: f64) -> SimResult<()>;

    /// One attempt at a step of size `h`; `retry` after a rejection of the
    /// same step.
    fn attempt(&mut self, run: &mut Run<'_>, h: f64, retry: bool) -> SimResult<Attempt>;

    /// Writes the state of the accepted attempt, of size `h`, into `x`.
    fn commit(&mut self, x: &mut Vec<f64>, h: f64);

    /// Hands back to the session arena what the step left checked out of
    /// it, and with `all` what the engine keeps from step to step too.
    fn release(&mut self, _run: &mut Run<'_>, _all: bool) {}

    /// Writes the engine's own counters into `run.stats`, once, at
    /// [`Engine::finish`].
    fn finalize(&self, _run: &mut Run<'_>) {}
}

/// The adaptive step loop, written once for every engine: the clamp to
/// `h_max`, the breakpoints and `t_stop` with the `h_min` guard, the
/// rejection and acceptance bookkeeping with their observer events, the
/// growth rule and the [`Engine`] boilerplate. The engine `M` supplies the
/// attempts ([`Stepper`]).
///
/// It keeps today's two controllers bit for bit, quirks included — what
/// ROADMAP item 1(b)'s one step-size rule will change:
///
/// * A BENR Newton failure shrinks the **unclamped** step asked for
///   (`self.h *= α`, [`SHRINK_FACTOR`]) and fails with
///   [`SimError::NewtonDidNotConverge`] (`step` the attempted size) once
///   that is below `h_min`; so a step clamped at a breakpoint can fail
///   twice at a bit-equal `h`.
/// * A BENR LTE failure asks for `h·α`, but only when `h > 2·h_min`:
///   otherwise the step is accepted with `lte > error_budget`. Underflow
///   surfaces at the next clamp, as [`SimError::StepSizeUnderflow`].
/// * ER clamps once per step. Each rejection multiplies the clamped step by
///   α and raises [`SimError::StepSizeUnderflow`] (`step` the shrunk size)
///   below `h_min`, before the engine's next attempt.
/// * Growth ([`StepLoop::verdict`]): BENR grows when `iterations ≤`
///   [`EASY_STEP_THRESHOLD`]` + 1` and `lte < ½·error_budget`, ER when the
///   step took at most [`EASY_STEP_THRESHOLD`] rejections. Both grow to
///   `min(h·β, h_max)` ([`GROWTH_FACTOR`]); otherwise the next step asks for
///   the accepted `h`.
/// * A breakpoint less than `h_min` ahead, where the clamp would fall below
///   `h_min`, counts as reached ([`StepLoop::clamp_past_sliver`]): the step
///   is clamped against the breakpoints after it and crosses the sliver, so
///   it is the one step that leaves its
///   [`breakpoint_interval`](crate::engines::breakpoint_interval): ER reads
///   its input term afresh off the segment after the breakpoint instead of
///   reusing the interval's kept one
///   ([`crosses_breakpoint`](crate::engines::crosses_breakpoint)). No attempted
///   step is snapped onto a breakpoint near it.
/// * A `t_stop` less than `h_min` ahead counts as reached
///   ([`reached_end`]): the run finishes where it stands instead of failing
///   with a step below `h_min`.
#[derive(Debug)]
pub(crate) struct StepLoop<'a, M> {
    run: Run<'a>,
    method: M,
    /// The step size the next attempt asks for, before the clamp.
    h: f64,
    finished: bool,
    finalized: bool,
    assembly_alloc_baseline: usize,
}

impl<'a, M: Stepper> StepLoop<'a, M> {
    /// A stepper over the session caches, its engine built by `method`;
    /// `dc_stats` is the DC cost charged to this run (zeroed when the
    /// session reused a cached DC solution).
    pub(crate) fn new(
        circuit: &'a Circuit,
        caches: &'a mut SessionCaches,
        options: &TransientOptions,
        dc_stats: RunStats,
        method: impl FnOnce(&Run<'a>) -> SimResult<M>,
    ) -> SimResult<Self> {
        let plan = caches.plan.clone().expect("session compiled the plan");
        let assembly_alloc_baseline = caches.eval_ws.allocations();
        let run = Run {
            circuit,
            caches,
            plan,
            options: options.clone(),
            lu_options: LuOptions {
                ordering: options.ordering,
                fill_budget: options.fill_budget,
                ..LuOptions::default()
            },
            breakpoints: circuit.breakpoints(options.t_stop),
            x: vec![0.0; circuit.num_unknowns()],
            t: 0.0,
            stats: dc_stats,
        };
        Ok(StepLoop {
            method: method(&run)?,
            run,
            h: 0.0,
            finished: true, // until init() places the stepper
            finalized: false,
            assembly_alloc_baseline,
        })
    }

    /// One accepted step, with its rejections.
    fn step(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        if self.finished {
            return Ok(StepOutcome::Finished);
        }
        self.method.start_step(&mut self.run, self.h)?;
        let mut h = self.clamped_step()?;
        let mut rejections = 0usize;
        let h_next = loop {
            let attempt = self.method.attempt(&mut self.run, h, rejections > 0)?;
            if let Some(h_next) = self.verdict(attempt, h, rejections) {
                break h_next;
            }
            rejections += 1;
            self.run.stats.rejected_steps += 1;
            self.run.stats.observer_callbacks += 1;
            observer.on_step_rejected(self.run.t, h);
            h = self.shrink(attempt, h)?;
        };
        self.method.commit(&mut self.run.x, h);
        self.run.t += h;
        // Solution-boundary guard: a non-finite accepted state (a Newton
        // iterate, or a matrix exponential that overflowed past the
        // w-vector checks) must surface as NonFinite, not propagate.
        if self.run.x.iter().any(|v| !v.is_finite()) {
            return Err(SimError::NonFinite {
                time: self.run.t,
                device: None,
            });
        }
        self.run.stats.accepted_steps += 1;
        self.run.stats.observer_callbacks += 1;
        #[cfg(feature = "fault-injection")]
        crate::fault::maybe_panic_on_accept();
        observer.on_step_accepted(self.run.t, &self.run.x);
        self.h = h_next;
        self.finished = reached_end(self.run.t, &self.run.options);
        Ok(StepOutcome::Advanced { t: self.run.t, h })
    }

    /// The size asked for, clamped to `h_max`, the next breakpoint and
    /// `t_stop`; [`SimError::StepSizeUnderflow`] below `h_min`.
    fn clamped_step(&self) -> SimResult<f64> {
        let (o, t) = (&self.run.options, self.run.t);
        let h = clamp_step(t, self.h.min(o.h_max), o.t_stop, &self.run.breakpoints);
        if h < o.h_min {
            return self.clamp_past_sliver(h);
        }
        Ok(h)
    }

    /// [`StepLoop::clamped_step`] when the clamp fell below `h_min`: the
    /// breakpoints less than `h_min` ahead count as reached, and the step is
    /// clamped against the ones after them. `h` is the clamp's result, the
    /// reported step when that does not reach `h_min` either.
    #[cold]
    fn clamp_past_sliver(&self, h: f64) -> SimResult<f64> {
        let (o, t) = (&self.run.options, self.run.t);
        let breakpoints = &self.run.breakpoints;
        let ahead = breakpoints.partition_point(|&bp| bp < t + o.h_min);
        let past = clamp_step(t, self.h.min(o.h_max), o.t_stop, &breakpoints[ahead..]);
        if past < o.h_min {
            return Err(SimError::StepSizeUnderflow { time: t, step: h });
        }
        Ok(past)
    }

    /// The verdict on `attempt` at `h`, the step's attempt after
    /// `rejections` rejected ones: `None` rejects it; `Some(h_next)` accepts
    /// it, `h_next` being the size the next step asks for — the growth
    /// rule of both engines.
    fn verdict(&self, attempt: Attempt, h: f64, rejections: usize) -> Option<f64> {
        let o = &self.run.options;
        let easy = match attempt {
            Attempt::NewtonFailed => return None,
            Attempt::Converged { lte, .. } if lte > o.error_budget && h > 2.0 * o.h_min => {
                return None
            }
            Attempt::Converged { iterations, lte } => {
                iterations <= EASY_STEP_THRESHOLD + 1 && lte < 0.5 * o.error_budget
            }
            Attempt::Estimated { err } if err <= o.error_budget => {
                rejections <= EASY_STEP_THRESHOLD
            }
            Attempt::Estimated { .. } => return None,
        };
        Some(if easy {
            (h * GROWTH_FACTOR).min(o.h_max)
        } else {
            h
        })
    }

    /// The size to retry at after `attempt` at `h` was rejected.
    fn shrink(&mut self, attempt: Attempt, h: f64) -> SimResult<f64> {
        let (o, t) = (&self.run.options, self.run.t);
        match attempt {
            Attempt::NewtonFailed => {
                self.h *= SHRINK_FACTOR;
                if self.h < o.h_min {
                    return Err(SimError::NewtonDidNotConverge {
                        time: t,
                        step: h,
                        iterations: o.newton_max_iterations,
                    });
                }
                self.clamped_step()
            }
            Attempt::Converged { .. } => {
                self.h = h * SHRINK_FACTOR;
                self.clamped_step()
            }
            Attempt::Estimated { .. } => {
                let h = h * SHRINK_FACTOR;
                if h < o.h_min {
                    return Err(SimError::StepSizeUnderflow { time: t, step: h });
                }
                Ok(h)
            }
        }
    }
}

impl<M: Stepper> Engine for StepLoop<'_, M> {
    fn init(&mut self, t0: f64, x0: &[f64], observer: &mut dyn Observer) -> SimResult<()> {
        let (m, n) = (x0.len(), self.run.x.len());
        if m != n {
            let message = format!("initial state has {m} entries, circuit has {n} unknowns");
            return Err(SimError::InvalidOptions { message });
        }
        self.run.x.copy_from_slice(x0);
        self.run.t = t0;
        self.h = self.run.options.h_init;
        self.method.reset(&mut self.run);
        self.finished = reached_end(t0, &self.run.options);
        self.finalized = false;
        self.run.stats.observer_callbacks += 1;
        observer.on_dc(t0, &self.run.x);
        Ok(())
    }

    fn advance(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        let started = Instant::now();
        let result = self.step(observer);
        // What the step still holds of the session arena (it outlives the
        // run) goes back; after an error, what the engine keeps from step to
        // step too: the state it was valid for is gone.
        self.method.release(&mut self.run, result.is_err());
        // Runtime accumulates only active solver time: pauses between
        // advance() calls (checkpointing, co-simulation interleaves) and the
        // idle life of the stepper are not charged.
        self.run.stats.runtime += started.elapsed();
        result
    }

    fn state(&self) -> &[f64] {
        &self.run.x
    }

    fn time(&self) -> f64 {
        self.run.t
    }

    fn stats(&self) -> &RunStats {
        &self.run.stats
    }

    fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.run.stats
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn finish(&mut self, observer: &mut dyn Observer) -> RunStats {
        // Back into the arena, so the session's next run finds it warm.
        self.method.release(&mut self.run, true);
        if !self.finalized {
            self.finalized = true;
            self.method.finalize(&mut self.run);
            self.run.stats.assembly_workspace_allocations =
                self.run.caches.eval_ws.allocations() - self.assembly_alloc_baseline;
            self.run.stats.observer_callbacks += 1;
            observer.on_finish(&self.run.x, &self.run.stats);
        }
        self.run.stats.clone()
    }
}

//! Exponential Rosenbrock–Euler transient engines (ER and ER-C).
//!
//! This is the paper's contribution (Sec. III–IV, Algorithm 2). Per accepted
//! step the engine:
//!
//! 1. evaluates the devices at `x_k` and asks for the LU factorization of
//!    **only** `G_k` (Algorithm 2 line 5) — never `C_k` nor `C_k/h + G_k`;
//! 2. builds invert-Krylov subspaces for the φ₁/φ₂ terms of Eq. (14) with
//!    the residual test of Eq. (22);
//! 3. checks the local nonlinear error estimator of Eq. (15)/(24) and, if it
//!    exceeds the budget, shrinks the step *without any new factorization*
//!    (scaling-invariance of the Krylov decomposition);
//! 4. optionally applies the φ₂ correction term of Eq. (16)/(25) (ER-C).
//!
//! A step redoes none of this for what did not change since the last one
//! (docs/PERFORMANCE.md, "What a step reuses"):
//!
//! * **The factor of `G`** is recomputed only when `G`'s values moved
//!   (`engines::refresh_lu` compares them with the ones the cached factor came
//!   from). `G`'s sparsity pattern is fixed for the whole run, so even then
//!   only the very first factorization performs the symbolic analysis
//!   (ordering, pivot search, reachability DFS) — and the engine seeds its
//!   cache with the factor the DC solve already computed. On a linear
//!   circuit that DC factor is the only one the run ever computes.
//! * **The input subspace** — the one for `w₂` below — is kept from step to
//!   step while the plan has no nonlinear stamp (`G`, `C` are constants) and
//!   the step stays on the linear piece of the inputs it was built on:
//!   there `w₂ ∝ h`, so the kept decomposition only has to pass Eq. (22)
//!   again at the new `h`.
//! * **The error estimator** is skipped on a plan without nonlinear stamps:
//!   `ΔF ≡ 0`, so it would measure rounding noise.
//!
//! All triangular solves, matrix–vector products, Krylov subspace builds
//! **and device evaluations** (restamped through the session's precompiled
//! [`EvalPlan`] — no COO assembly, no sort) run through reusable workspaces,
//! so the hot loop performs no circuit-sized allocation in steady state. The
//! caches live in the [`Simulator`](crate::Simulator) session, so they also
//! survive across runs.
//!
//! The engine is exposed as the incremental [`ErStepper`] (one accepted step
//! per [`Engine::advance`] call).
//!
//! All `C⁻¹` factors that appear in the paper's formulas cancel analytically
//! against the φ denominators, so a singular capacitance matrix needs no
//! regularization — the implementation only ever solves with `G_k`:
//!
//! ```text
//! x_{k+1} = x_k + (e^{hJ} − I)·w₁ + (φ₁(hJ) − I)·w₂,
//!     w₁ = G_k⁻¹ (f(x_k) − B·u(t_k)),          w₂ = −G_k⁻¹ B·(u(t_{k+1}) − u(t_k)),
//! err     = −(e^{hJ} − I)·w₃,                  w₃ = G_k⁻¹ ΔF_k,
//! D_k     = −γ·(φ₁(hJ) − I)·w₃                  (ER-C correction)
//! ```

use std::sync::Arc;
use std::time::Instant;

use exi_krylov::{
    invert_krylov_residual, mevp_invert_krylov_with, KrylovDecomposition, KrylovResult,
    MevpOptions, MevpWorkspace,
};
use exi_netlist::{Circuit, EvalPlan, Evaluation};
use exi_sparse::{vector, LuOptions, SparseLu};

use crate::engines::{
    breakpoint_interval, clamp_step, prepare, reached_end, refresh_lu, Engine, StepOutcome,
};
use crate::error::{SimError, SimResult};
use crate::observer::Observer;
use crate::options::TransientOptions;
use crate::session::SessionCaches;
use crate::stats::RunStats;

/// Threshold below which a Krylov start vector is treated as zero (its
/// contribution to the step is exactly representable as zero).
const NEGLIGIBLE_NORM: f64 = 1e-300;

/// A Krylov subspace of one step together with the product `e^{hJ}·v` its
/// build already paid for.
#[derive(Debug)]
struct Subspace {
    decomposition: KrylovDecomposition,
    /// `e^{h_built·J}·v`, the build's eager product.
    expv: Vec<f64>,
    /// The step size the subspace was built — and `expv` evaluated — for.
    h_built: f64,
}

impl Subspace {
    /// `e^{hJ}·v` into `out`: the build's own product when `h` is bit-equal
    /// to the step it was built for (the same small problem, already
    /// solved), a re-evaluation of the small problem otherwise.
    fn expv_into(&self, h: f64, out: &mut [f64], ws: &mut MevpWorkspace) -> KrylovResult<()> {
        if h.to_bits() == self.h_built.to_bits() {
            out.copy_from_slice(&self.expv);
            Ok(())
        } else {
            self.decomposition.eval_expv_in(h, out, ws)
        }
    }

    /// Hands the basis and the product back to the arena.
    fn recycle_into(self, ws: &mut MevpWorkspace) {
        ws.recycle_vec(self.expv);
        ws.recycle(self.decomposition);
    }
}

/// The input term `(φ₁(hJ) − I)·w₂` of Eq. (14) as the stepper holds it:
/// `w₂` itself sits in [`ErStepper::w2`], computed for the step size `h_ref`.
///
/// Where every source is linear in `t`, `u(t + h) − u(t)` is proportional to
/// `h`, so `w₂(h) = w₂(h_ref)·h/h_ref` for any step on the same linear piece:
/// the rejection loop rescales instead of solving again, and on a plan
/// without nonlinear stamps — `J` itself then never changes — so does every
/// later step of the piece, for as long as the subspace passes Eq. (22) at
/// the step size asked of it.
#[derive(Debug)]
struct InputTerm {
    h_ref: f64,
    /// Breakpoint interval ([`breakpoint_interval`]) `w₂` was computed in.
    interval: usize,
    /// `None`: no source moves over the interval, `w₂ = 0`.
    subspace: Option<Subspace>,
}

/// Scratch of the local error estimator of Eq. (15)/(24).
#[derive(Debug)]
struct Estimator {
    eval_next: Evaluation,
    dx: Vec<f64>,
    delta_f: Vec<f64>,
    w3: Vec<f64>,
    /// The subspace of `w₃`, while a candidate is being judged.
    subspace: Option<Subspace>,
}

/// Snapshot of the Krylov workspace's monotone counters; a run reports its
/// own work as the difference to the snapshot taken when it started.
#[derive(Debug, Clone, Copy)]
struct KrylovCounters {
    allocations: usize,
    dense_allocations: usize,
    residual_tests: usize,
    exponentials: usize,
}

impl KrylovCounters {
    fn of(ws: &MevpWorkspace) -> Self {
        KrylovCounters {
            allocations: ws.allocations(),
            dense_allocations: ws.dense_allocations(),
            residual_tests: ws.residual_tests(),
            exponentials: ws.small_dense_exponentials(),
        }
    }
}

/// Incremental exponential Rosenbrock–Euler stepper (ER, and ER-C with the
/// φ₂ correction).
///
/// Created by [`Simulator::stepper`](crate::Simulator::stepper) with
/// [`Method::ExponentialRosenbrock`](crate::Method::ExponentialRosenbrock) or
/// [`Method::ExponentialRosenbrockCorrected`](crate::Method::ExponentialRosenbrockCorrected);
/// driven through the [`Engine`] trait. Each [`Engine::advance`] performs one
/// accepted step of Algorithm 2 (including its LU-free rejection loop). All
/// hot-loop state lives in the struct — the input subspace kept from step to
/// step included — so a paused stepper resumes bit-identically.
#[derive(Debug)]
pub struct ErStepper<'a> {
    circuit: &'a Circuit,
    caches: &'a mut SessionCaches,
    /// The session's compiled stamping plan (shared handle; the per-step
    /// restamps go through it instead of COO assembly).
    plan: Arc<EvalPlan>,
    options: TransientOptions,
    correction: bool,
    lu_options: LuOptions,
    mevp_options: MevpOptions,
    breakpoints: Vec<f64>,
    /// Every source is linear in `t` between breakpoints: `w₂ ∝ h` there.
    inputs_piecewise_linear: bool,
    n: usize,
    // Circuit-sized scratch buffers, allocated once per stepper.
    eval_k: Evaluation,
    u_k: Vec<f64>,
    u_next: Vec<f64>,
    bu_k: Vec<f64>,
    rhs: Vec<f64>,
    bdu: Vec<f64>,
    w1: Vec<f64>,
    w2: Vec<f64>,
    candidate: Vec<f64>,
    kry: Vec<f64>,
    du: Vec<f64>,
    /// `None` on a plan without nonlinear stamps: `(G, C)` are then
    /// compile-time constants, `f` is linear, `ΔF ≡ 0` and there is nothing
    /// to estimate (nor, for ER-C, to correct).
    estimator: Option<Estimator>,
    /// The subspace of `w₁`, for the duration of one step.
    w1_subspace: Option<Subspace>,
    /// Kept across accepted steps where `estimator` is `None` and the inputs
    /// are piecewise linear; otherwise for the duration of one step.
    input_term: Option<InputTerm>,
    x: Vec<f64>,
    t: f64,
    h: f64,
    stats: RunStats,
    finished: bool,
    finalized: bool,
    krylov_baseline: KrylovCounters,
    assembly_alloc_baseline: usize,
}

impl<'a> ErStepper<'a> {
    /// Builds a stepper over the session caches; `dc_stats` is the DC cost
    /// charged to this run (zeroed when the session reused a cached DC
    /// solution).
    pub(crate) fn new(
        circuit: &'a Circuit,
        caches: &'a mut SessionCaches,
        correction: bool,
        options: TransientOptions,
        dc_stats: RunStats,
    ) -> SimResult<Self> {
        let breakpoints = prepare(circuit, &options)?;
        let n = circuit.num_unknowns();
        let lu_options = LuOptions {
            ordering: options.ordering,
            fill_budget: options.fill_budget,
            ..LuOptions::default()
        };
        let mevp_options = MevpOptions {
            tolerance: options.krylov_tolerance,
            max_dimension: options.krylov_max_dimension,
            min_dimension: 2,
            allow_unconverged: true,
        };
        let plan = Arc::clone(
            caches
                .plan
                .as_ref()
                .expect("session compiled the evaluation plan"),
        );
        let input_dim = plan.input_matrix().cols();
        let estimator = (plan.nonlinear_stamp_count() > 0).then(|| Estimator {
            eval_next: plan.new_evaluation(),
            dx: vec![0.0; n],
            delta_f: vec![0.0; n],
            w3: vec![0.0; n],
            subspace: None,
        });
        let krylov_baseline = KrylovCounters::of(&caches.mevp_ws);
        let assembly_alloc_baseline = caches.eval_ws.allocations();
        Ok(ErStepper {
            circuit,
            caches,
            options,
            correction,
            lu_options,
            mevp_options,
            breakpoints,
            inputs_piecewise_linear: circuit.inputs_are_piecewise_linear(),
            n,
            eval_k: plan.new_evaluation(),
            u_k: vec![0.0; input_dim],
            u_next: vec![0.0; input_dim],
            plan,
            bu_k: vec![0.0; n],
            rhs: vec![0.0; n],
            bdu: vec![0.0; n],
            w1: vec![0.0; n],
            w2: vec![0.0; n],
            candidate: vec![0.0; n],
            kry: vec![0.0; n],
            du: vec![0.0; input_dim],
            estimator,
            w1_subspace: None,
            input_term: None,
            x: vec![0.0; n],
            t: 0.0,
            h: 0.0,
            stats: dc_stats,
            finished: true, // until init() places the stepper
            finalized: false,
            krylov_baseline,
            assembly_alloc_baseline,
        })
    }
}

impl Engine for ErStepper<'_> {
    fn init(&mut self, t0: f64, x0: &[f64], observer: &mut dyn Observer) -> SimResult<()> {
        if x0.len() != self.n {
            return Err(SimError::InvalidOptions {
                message: format!(
                    "initial state has {} entries, circuit has {} unknowns",
                    x0.len(),
                    self.n
                ),
            });
        }
        self.x.copy_from_slice(x0);
        self.t = t0;
        self.h = self.options.h_init;
        self.release_input_term();
        self.finished = reached_end(t0, self.options.t_stop);
        self.finalized = false;
        self.stats.observer_callbacks += 1;
        observer.on_dc(t0, &self.x);
        Ok(())
    }

    fn advance(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        let started = Instant::now();
        let result = self.advance_step(observer);
        // Return what is still checked out of the session arena (it outlives
        // the run): the per-step bases, and after an error the kept input
        // term as well — the state it was valid for is gone.
        let per_step = [
            self.w1_subspace.take(),
            self.estimator.as_mut().and_then(|e| e.subspace.take()),
        ];
        for subspace in per_step.into_iter().flatten() {
            subspace.recycle_into(&mut self.caches.mevp_ws);
        }
        if result.is_err() || !self.keeps_input_term() {
            self.release_input_term();
        }
        // Runtime accumulates only active solver time: pauses between
        // advance() calls (checkpointing, co-simulation interleaves) and the
        // idle life of the stepper are not charged.
        self.stats.runtime += started.elapsed();
        result
    }

    fn state(&self) -> &[f64] {
        &self.x
    }

    fn time(&self) -> f64 {
        self.t
    }

    fn stats(&self) -> &RunStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn finish(&mut self, observer: &mut dyn Observer) -> RunStats {
        // Back into the arena, so the session's next run finds it warm.
        self.release_input_term();
        if !self.finalized {
            self.finalized = true;
            let (now, then) = (
                KrylovCounters::of(&self.caches.mevp_ws),
                self.krylov_baseline,
            );
            self.stats.krylov_workspace_allocations = now.allocations - then.allocations;
            self.stats.dense_workspace_allocations = now.dense_allocations - then.dense_allocations;
            self.stats.krylov_residual_tests = now.residual_tests - then.residual_tests;
            self.stats.small_dense_exponentials = now.exponentials - then.exponentials;
            self.stats.assembly_workspace_allocations =
                self.caches.eval_ws.allocations() - self.assembly_alloc_baseline;
            self.stats.observer_callbacks += 1;
            observer.on_finish(&self.x, &self.stats);
        }
        self.stats.clone()
    }
}

impl ErStepper<'_> {
    /// One accepted step of Algorithm 2. Subspaces still checked out of the
    /// arena when an error unwinds are recycled by [`Engine::advance`].
    fn advance_step(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        if self.finished {
            return Ok(StepOutcome::Finished);
        }
        // --- Algorithm 2 lines 4-6: linearize, factorize G, build subspaces. ---
        self.linearize()?;

        // The step-size loop (Algorithm 2 lines 8-21): no LU, no new w1 subspace.
        let h_base = clamp_step(
            self.t,
            self.h.min(self.options.h_max),
            self.options.t_stop,
            &self.breakpoints,
        );
        if h_base < self.options.h_min {
            return Err(SimError::StepSizeUnderflow {
                time: self.t,
                step: h_base,
            });
        }
        let mut h_step = h_base;
        self.place_input_term(h_step)?;

        let mut rejections = 0usize;
        let accepted_h = loop {
            self.form_candidate(h_step)?;
            let error_norm = self.estimate_and_correct(h_step)?;
            if error_norm <= self.options.error_budget {
                break h_step;
            }
            // Reject: shrink the step. No LU decomposition and no rebuild of
            // the w1 subspace is needed (Algorithm 2 lines 20) — nor of the
            // w2 subspace, where w2 only rescales with h.
            rejections += 1;
            self.stats.rejected_steps += 1;
            self.stats.observer_callbacks += 1;
            observer.on_step_rejected(self.t, h_step);
            h_step *= self.options.shrink_factor;
            if h_step < self.options.h_min {
                return Err(SimError::StepSizeUnderflow {
                    time: self.t,
                    step: h_step,
                });
            }
            if !self.inputs_piecewise_linear {
                self.rebuild_input_term(h_step)?;
            }
        };

        self.x.copy_from_slice(&self.candidate);
        self.t += accepted_h;
        // Solution-boundary guard: a non-finite accepted state means a
        // matrix-exponential evaluation overflowed past the w-vector checks.
        if self.x.iter().any(|v| !v.is_finite()) {
            return Err(SimError::NonFinite {
                time: self.t,
                device: None,
            });
        }
        self.stats.accepted_steps += 1;
        self.stats.observer_callbacks += 1;
        #[cfg(feature = "fault-injection")]
        crate::fault::maybe_panic_on_accept();
        observer.on_step_accepted(self.t, &self.x);

        // Algorithm 2 lines 23-25: an easy step earns a larger next step.
        if rejections <= self.options.easy_step_threshold {
            self.h = (accepted_h * self.options.growth_factor).min(self.options.h_max);
        } else {
            self.h = accepted_h;
        }

        if reached_end(self.t, self.options.t_stop) {
            self.finished = true;
        }
        Ok(StepOutcome::Advanced {
            t: self.t,
            h: accepted_h,
        })
    }

    /// Linearizes at `(t_k, x_k)`: device evaluation, the factor of `G_k`,
    /// `w₁ = G_k⁻¹(f(x_k) − B·u_k)` — the "distance to quasi-equilibrium" —
    /// and its subspace.
    fn linearize(&mut self) -> SimResult<()> {
        let caches = &mut *self.caches;
        self.stats.restamped_entries +=
            self.plan
                .evaluate_into(&self.x, &mut caches.eval_ws, &mut self.eval_k)?;
        self.stats.device_evaluations += 1;
        #[cfg(feature = "fault-injection")]
        crate::fault::on_device_eval(&mut self.eval_k);
        self.circuit.input_vector_into(self.t, &mut self.u_k);
        self.plan
            .input_matrix()
            .mul_vec_into(&self.u_k, &mut self.bu_k);
        let g_lu = refresh_lu(
            &mut caches.g_lu,
            caches.shared.as_deref(),
            &self.eval_k.g,
            &self.lu_options,
            &mut caches.lu_ws,
            &mut self.stats,
        )?;
        for i in 0..self.n {
            self.rhs[i] = self.eval_k.f[i] - self.bu_k[i];
        }
        g_lu.solve_into(&self.rhs, &mut self.w1, &mut caches.lu_ws)?;
        self.stats.linear_solves += 1;
        self.w1_subspace = build_subspace(
            &self.eval_k,
            g_lu,
            &self.w1,
            self.t,
            self.h,
            &self.mevp_options,
            &mut self.stats,
            &mut caches.mevp_ws,
        )?;
        Ok(())
    }

    /// Whether the input term outlives the step it was computed for: `J` must
    /// not change between steps, and `w₂` must only rescale with `h`.
    fn keeps_input_term(&self) -> bool {
        self.estimator.is_none() && self.inputs_piecewise_linear
    }

    /// Hands the input term's basis, if any, back to the arena.
    fn release_input_term(&mut self) {
        if let Some(subspace) = self.input_term.take().and_then(|term| term.subspace) {
            subspace.recycle_into(&mut self.caches.mevp_ws);
        }
    }

    /// Leaves in `self.input_term` an input term good for a step of size `h`
    /// from `self.t`: the kept one, when it was computed on this breakpoint
    /// interval and its subspace still meets the Krylov tolerance for
    /// `w₂(h) = w₂(h_ref)·h/h_ref` (the residual is linear in the vector);
    /// a new one otherwise.
    fn place_input_term(&mut self, h: f64) -> SimResult<()> {
        let interval = breakpoint_interval(self.t, self.options.t_stop, &self.breakpoints);
        if let Some(kept) = self.input_term.as_ref().filter(|k| k.interval == interval) {
            let Some(subspace) = &kept.subspace else {
                return Ok(());
            };
            let residual = invert_krylov_residual(
                &subspace.decomposition,
                &self.eval_k.g,
                h,
                &mut self.caches.mevp_ws,
            );
            // A re-test that cannot be evaluated is a miss like any other.
            if residual.is_ok_and(|r| h / kept.h_ref * r <= self.mevp_options.tolerance) {
                self.stats.krylov_subspace_reuses += 1;
                return Ok(());
            }
        }
        self.rebuild_input_term(h)
    }

    /// `w₂ = −G_k⁻¹B·(u(t + h) − u(t))` and its subspace, from scratch.
    fn rebuild_input_term(&mut self, h: f64) -> SimResult<()> {
        self.release_input_term();
        let caches = &mut *self.caches;
        self.circuit.input_vector_into(self.t + h, &mut self.u_next);
        for (d, (un, uk)) in self
            .du
            .iter_mut()
            .zip(self.u_next.iter().zip(self.u_k.iter()))
        {
            *d = un - uk;
        }
        let subspace = if self.du.iter().all(|&d| d == 0.0) {
            // No source moves over the step: w₂ = 0, without a solve.
            None
        } else {
            let g_lu = caches
                .g_lu
                .as_ref()
                .expect("linearize left the factor of G in the session");
            self.plan
                .input_matrix()
                .mul_vec_into(&self.du, &mut self.bdu);
            g_lu.solve_into(&self.bdu, &mut self.w2, &mut caches.lu_ws)?;
            self.stats.linear_solves += 1;
            vector::scale(-1.0, &mut self.w2);
            build_subspace(
                &self.eval_k,
                g_lu,
                &self.w2,
                self.t,
                h,
                &self.mevp_options,
                &mut self.stats,
                &mut caches.mevp_ws,
            )?
        };
        self.input_term = Some(InputTerm {
            h_ref: h,
            interval: breakpoint_interval(self.t, self.options.t_stop, &self.breakpoints),
            subspace,
        });
        Ok(())
    }

    /// The candidate `x_{k+1}` of Eq. (14) for step size `h`, from the two
    /// subspaces alone.
    fn form_candidate(&mut self, h: f64) -> SimResult<()> {
        let ws = &mut self.caches.mevp_ws;
        self.candidate.copy_from_slice(&self.x);
        if let Some(dec) = &self.w1_subspace {
            dec.expv_into(h, &mut self.kry, ws)?;
            for i in 0..self.n {
                self.candidate[i] += self.kry[i] - self.w1[i];
            }
        }
        if let Some(InputTerm {
            h_ref,
            subspace: Some(dec),
            ..
        }) = &self.input_term
        {
            // w2(h) = w2(h_ref)·h/h_ref, and φ₁(hJ) is linear in the vector.
            let scale = h / h_ref;
            dec.decomposition.eval_phi_in(1, h, &mut self.kry, ws)?;
            for i in 0..self.n {
                self.candidate[i] += scale * (self.kry[i] - self.w2[i]);
            }
        }
        Ok(())
    }

    /// The error estimate of Eq. (15)/(24) for the candidate at step size
    /// `h`; for ER-C, a candidate within budget also receives the correction
    /// of Eq. (25). Without an [`Estimator`] there is no nonlinearity to
    /// estimate: zero, and nothing to correct.
    fn estimate_and_correct(&mut self, h: f64) -> SimResult<f64> {
        let Some(est) = &mut self.estimator else {
            return Ok(0.0);
        };
        let n = self.n;
        let caches = &mut *self.caches;
        let g_lu = caches
            .g_lu
            .as_ref()
            .expect("linearize left the factor of G in the session");
        self.stats.restamped_entries +=
            self.plan
                .evaluate_into(&self.candidate, &mut caches.eval_ws, &mut est.eval_next)?;
        self.stats.device_evaluations += 1;
        // ΔF_k = G_k·(x_{k+1} − x_k) − (f(x_{k+1}) − f(x_k)).
        for i in 0..n {
            est.dx[i] = self.candidate[i] - self.x[i];
        }
        self.eval_k.g.mul_vec_into(&est.dx, &mut est.delta_f);
        for (i, df) in est.delta_f.iter_mut().enumerate() {
            *df -= est.eval_next.f[i] - self.eval_k.f[i];
        }
        g_lu.solve_into(&est.delta_f, &mut est.w3, &mut caches.lu_ws)?;
        self.stats.linear_solves += 1;
        est.subspace = build_subspace(
            &self.eval_k,
            g_lu,
            &est.w3,
            self.t,
            h,
            &self.mevp_options,
            &mut self.stats,
            &mut caches.mevp_ws,
        )?;
        let Some(dec) = &est.subspace else {
            return Ok(0.0);
        };
        dec.expv_into(h, &mut self.kry, &mut caches.mevp_ws)?;
        let mut err = 0.0_f64;
        for i in 0..n {
            err = err.max((self.kry[i] - est.w3[i]).abs());
        }
        if self.correction && err <= self.options.error_budget {
            // D_k = −γ·(φ₁(hJ) − I)·w₃  (Eq. 25); x_{k+1,c} = x_{k+1} − D_k.
            dec.decomposition
                .eval_phi_in(1, h, &mut self.kry, &mut caches.mevp_ws)?;
            for i in 0..n {
                self.candidate[i] += self.options.correction_gamma * (self.kry[i] - est.w3[i]);
            }
        }
        if let Some(dec) = est.subspace.take() {
            dec.recycle_into(&mut caches.mevp_ws);
        }
        Ok(err)
    }
}

/// Builds an invert-Krylov subspace for vector `v` at step size `h`, or `None`
/// when the vector is (numerically) zero and its contribution vanishes.
#[allow(clippy::too_many_arguments)]
fn build_subspace(
    eval: &exi_netlist::Evaluation,
    g_lu: &SparseLu,
    v: &[f64],
    t: f64,
    h: f64,
    mevp_options: &MevpOptions,
    stats: &mut RunStats,
    ws: &mut MevpWorkspace,
) -> SimResult<Option<Subspace>> {
    if vector::norm2(v) < NEGLIGIBLE_NORM {
        return Ok(None);
    }
    if v.iter().any(|x| !x.is_finite()) {
        // A non-finite vector here means an upstream evaluation overflowed.
        return Err(SimError::NonFinite {
            time: t,
            device: None,
        });
    }
    #[cfg(feature = "fault-injection")]
    if crate::fault::krylov_breakdown_due() {
        return Err(SimError::Krylov(exi_krylov::KrylovError::Breakdown {
            dimension: 0,
        }));
    }
    let outcome = mevp_invert_krylov_with(&eval.c, &eval.g, g_lu, v, h, mevp_options, ws)?;
    stats.krylov_subspaces += 1;
    stats.krylov_dimension_total += outcome.dimension;
    stats.peak_krylov_dimension = stats.peak_krylov_dimension.max(outcome.dimension);
    Ok(Some(Subspace {
        decomposition: outcome.decomposition,
        expv: outcome.mevp,
        h_built: h,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::implicit::ImplicitScheme;
    use crate::output::TransientResult;
    use crate::session::Simulator;
    use crate::transient::Method;
    use exi_netlist::{generators, Waveform};
    use exi_sparse::OrderingMethod;

    fn run_er(
        ckt: &Circuit,
        correction: bool,
        options: &TransientOptions,
        probes: &[&str],
    ) -> SimResult<TransientResult> {
        let method = if correction {
            Method::ExponentialRosenbrockCorrected
        } else {
            Method::ExponentialRosenbrock
        };
        Simulator::new(ckt).transient(method, options, probes)
    }

    fn run_implicit(
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

    fn rc_ramp_circuit(r: f64, c: f64, v: f64, ramp: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", vin, gnd, Waveform::Pwl(vec![(0.0, 0.0), (ramp, v)]))
            .unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, gnd, c).unwrap();
        ckt
    }

    #[test]
    fn er_matches_rc_analytic_solution_with_large_steps() {
        // ER is exact for linear circuits with piecewise-linear inputs (up to
        // Krylov tolerance), even with steps far beyond the circuit's time
        // constant.
        let (r, c, v) = (1e3, 1e-12, 1.0);
        let tau = r * c;
        let ramp = tau / 100.0;
        let ckt = rc_ramp_circuit(r, c, v, ramp);
        let options = TransientOptions {
            t_stop: 5.0 * tau,
            h_init: tau / 2.0,
            h_max: tau,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let result = run_er(&ckt, false, &options, &["out"]).unwrap();
        let p = result.probe_index("out").unwrap();
        // Compare at the accepted time points themselves (interpolating
        // between the deliberately huge steps would only measure the
        // interpolation error, not the integrator's).
        let mut checked = 0usize;
        for (t_i, got) in result.waveform(p) {
            if t_i <= ramp {
                continue;
            }
            let expected = v * (1.0 - (-(t_i - ramp) / tau).exp());
            assert!(
                (got - expected).abs() < 5e-3,
                "t = {t_i:.2e}: got {got}, expected {expected}"
            );
            checked += 1;
        }
        assert!(
            checked >= 3,
            "expected several accepted points past the ramp"
        );
        // Far fewer steps than an implicit method would need for this accuracy.
        assert!(result.stats.accepted_steps < 50);
        // At most one LU per accepted step plus the DC solve.
        assert!(
            result.stats.lu_factorizations
                <= result.stats.accepted_steps + result.stats.newton_iterations + 1
        );
    }

    #[test]
    fn er_reuses_one_symbolic_analysis_for_the_whole_run() {
        // Linear circuit: neither the pattern nor the values of G ever
        // change, so the factor the DC solve computed — the run's single
        // symbolic analysis — serves every transient step as it is.
        let (r, c, v) = (1e3, 1e-12, 1.0);
        let tau = r * c;
        let ckt = rc_ramp_circuit(r, c, v, tau / 100.0);
        let options = TransientOptions {
            t_stop: 5.0 * tau,
            h_init: tau / 2.0,
            h_max: tau,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let mut sim = Simulator::new(&ckt);
        let dc = sim.dc().unwrap();
        assert!(dc.iterations >= 1);
        let result = sim
            .transient(Method::ExponentialRosenbrock, &options, &["out"])
            .unwrap();
        // The transient alone (the DC solve is the session's, not this run's).
        let s = &result.stats;
        assert_eq!(
            (s.symbolic_analyses, s.lu_refactorizations),
            (0, 0),
            "{s:?}"
        );
        assert_eq!(s.lu_reuses, s.accepted_steps, "{s:?}");
        let totals = sim.session_stats();
        assert_eq!(totals.symbolic_analyses, 1, "{totals:?}");
        assert_eq!(
            totals.lu_factorizations,
            totals.symbolic_analyses + totals.lu_refactorizations
        );
        // No nonlinearity, no estimator: one device evaluation per step and
        // never a rejection.
        assert_eq!(s.device_evaluations, s.accepted_steps, "{s:?}");
        assert_eq!(s.rejected_steps, 0);
        // The Krylov workspace reaches steady state: far fewer fresh
        // allocations than subspace builds.
        assert!(
            s.krylov_workspace_allocations < (s.peak_krylov_dimension + 3) * 2 + s.krylov_subspaces,
            "{s:?}"
        );
    }

    #[test]
    fn er_and_benr_agree_on_inverter_chain() {
        let spec = generators::InverterChainSpec {
            stages: 3,
            ..generators::InverterChainSpec::default()
        };
        let ckt = generators::inverter_chain(&spec).unwrap();
        let options = TransientOptions {
            t_stop: 3e-10,
            h_init: 1e-12,
            h_max: 5e-12,
            error_budget: 5e-3,
            ..TransientOptions::default()
        };
        let er = run_er(&ckt, false, &options, &["s3"]).unwrap();
        let benr = run_implicit(&ckt, ImplicitScheme::BackwardEuler, &options, &["s3"]).unwrap();
        let p = 0;
        let err = er.max_error_vs(&benr, p);
        assert!(err < 0.1, "ER and BENR should agree on s3, max diff {err}");
        // ER performs no Newton iterations during the transient (only the DC
        // solve contributes).
        assert!(er.stats.avg_krylov_dimension() > 0.0);
    }

    #[test]
    fn er_c_is_at_least_as_accurate_as_er() {
        let spec = generators::InverterChainSpec {
            stages: 2,
            ..generators::InverterChainSpec::default()
        };
        let ckt = generators::inverter_chain(&spec).unwrap();
        // Reference: BENR with very small fixed steps.
        let fine = TransientOptions {
            t_stop: 2e-10,
            h_init: 5e-14,
            h_max: 5e-14,
            error_budget: 1.0,
            ..TransientOptions::default()
        };
        let reference = run_implicit(&ckt, ImplicitScheme::BackwardEuler, &fine, &["s2"]).unwrap();
        let coarse = TransientOptions {
            t_stop: 2e-10,
            h_init: 2e-12,
            h_max: 4e-12,
            error_budget: 1e-2,
            ..TransientOptions::default()
        };
        // The global error of ER and of ER-C on this circuit at this budget
        // scatters ~2.5x under any rounding-level perturbation
        // (docs/PERFORMANCE.md, "Known property"). The three fill-reducing
        // orderings are such perturbations, so both clauses are asserted on
        // the worst of them, not on whichever draw the default ordering is.
        let mut worst = [0.0_f64; 2];
        for ordering in [
            OrderingMethod::Rcm,
            OrderingMethod::Natural,
            OrderingMethod::MinDegree,
        ] {
            let coarse = TransientOptions {
                ordering,
                ..coarse.clone()
            };
            for (correction, worst) in [false, true].into_iter().zip(&mut worst) {
                let run = run_er(&ckt, correction, &coarse, &["s2"]).unwrap();
                *worst = worst.max(run.rms_error_vs(&reference, 0));
            }
        }
        let [er_err, erc_err] = worst;
        // The correction must not make things worse by more than a hair, and
        // both must be reasonably accurate.
        assert!(er_err < 0.15, "er rms error {er_err}");
        assert!(
            erc_err < er_err * 1.5 + 1e-4,
            "erc {erc_err} vs er {er_err}"
        );
    }

    /// `V(sine) — R — a — diode — gnd`, `C` at `a`: nonlinear, and driven by
    /// the one waveform that is not piecewise linear.
    fn sine_driven_diode() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        let sine = Waveform::Sine {
            offset: 0.6,
            amplitude: 0.5,
            frequency: 2e9,
            delay: 0.0,
            damping: 0.0,
        };
        ckt.add_voltage_source("V1", vin, gnd, sine).unwrap();
        ckt.add_resistor("R1", vin, a, 1e3).unwrap();
        ckt.add_capacitor("C1", a, gnd, 1e-13).unwrap();
        ckt.add_diode("D1", a, gnd, exi_netlist::DiodeModel::default())
            .unwrap();
        ckt
    }

    #[test]
    fn a_rejected_step_recomputes_the_input_term_where_it_does_not_rescale() {
        // Over a sinusoid u(t+h) − u(t) is not proportional to h, so after a
        // rejection h → h/2 the input term must be the one of the half step —
        // the very term a stepper starting at h/2 computes — not half the
        // rejected step's. Every subspace runs to exhaustion here (three
        // unknowns, a tolerance nothing meets), so the step size a subspace
        // was first built for leaves no trace in it.
        let ckt = sine_driven_diode();
        let h = 4e-11;
        let options = |h_init: f64| TransientOptions {
            t_stop: 1e-9,
            h_init,
            h_max: h,
            error_budget: 2e-3,
            krylov_tolerance: 0.0,
            ..TransientOptions::default()
        };
        let first_step = |h_init: f64| {
            let mut sim = Simulator::new(&ckt);
            let mut stepper = sim
                .stepper(Method::ExponentialRosenbrock, &options(h_init))
                .unwrap();
            let outcome = stepper.advance(&mut crate::NullObserver).unwrap();
            (
                outcome,
                stepper.state().to_vec(),
                stepper.stats().rejected_steps,
            )
        };
        let (shrunk, from_full, rejections) = first_step(h);
        let (direct, from_half, none) = first_step(h / 2.0);
        assert_eq!((rejections, none), (1, 0), "one forced rejection");
        assert_eq!(shrunk, direct);
        assert!(matches!(direct, StepOutcome::Advanced { h: taken, .. } if taken == h / 2.0));
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&from_full), bits(&from_half));
    }

    #[test]
    fn er_handles_singular_capacitance_without_regularization() {
        // Nodes with no capacitance at all make C singular; the standard
        // matrix-exponential approach would need a regularization pass.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "V1",
            a,
            gnd,
            Waveform::single_pulse(0.0, 1.0, 1e-11, 1e-12, 1e-12, 1e-9),
        )
        .unwrap();
        ckt.add_resistor("R1", a, mid, 1e3).unwrap();
        // "mid" is a purely resistive node: no capacitor attached.
        ckt.add_resistor("R2", mid, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-13).unwrap();
        let options = TransientOptions {
            t_stop: 1e-9,
            h_init: 1e-12,
            h_max: 2e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let result = run_er(&ckt, false, &options, &["mid", "out"]).unwrap();
        assert!(result.final_state.iter().all(|v| v.is_finite()));
        // Final value approaches the resistive divider limit 0.5 as the cap charges.
        let p_out = result.probe_index("out").unwrap();
        let v_end = result.sample_at(p_out, 1e-9);
        assert!(v_end > 0.8, "out should charge towards 1.0, got {v_end}");
    }

    #[test]
    fn step_size_underflow_is_reported() {
        let options = TransientOptions {
            t_stop: 1e-9,
            h_init: 1e-12,
            h_min: 1e-12,
            // Impossible error budget forces endless rejections.
            error_budget: 1e-30,
            ..TransientOptions::default()
        };
        // A nonlinear circuit with an impossible budget must fail cleanly.
        let spec = generators::InverterChainSpec {
            stages: 1,
            ..generators::InverterChainSpec::default()
        };
        let inv = generators::inverter_chain(&spec).unwrap();
        let err = run_er(&inv, false, &options, &[]).unwrap_err();
        assert!(matches!(err, SimError::StepSizeUnderflow { .. }));
    }
}

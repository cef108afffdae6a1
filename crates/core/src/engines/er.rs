//! Exponential Rosenbrock–Euler transient engines (ER and ER-C).
//!
//! This is the paper's contribution (Sec. III–IV, Algorithm 2). Per accepted
//! step the engine:
//!
//! 1. evaluates the devices at `x_k` and asks for the LU factorization of
//!    **only** `G_k` (Algorithm 2 line 5) — never `C_k` nor `C_k/h + G_k`;
//! 2. builds **one** invert-Krylov subspace for the step of Eq. (14), with
//!    the residual test of Eq. (22) — the input term rides in the start
//!    vector of the same exponential that carries `w₁` (below);
//! 3. checks the local nonlinear error estimator of Eq. (15)/(24) — off a
//!    subspace of `w₃` built only to the accuracy one comparison with the
//!    budget needs (`err` below) — and, if it exceeds the budget, shrinks the
//!    step *without any new factorization* (scaling-invariance of the Krylov
//!    decomposition);
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
//! * **The start vector `v`** does not depend on `h` on a linear piece of
//!   the inputs (`w₂ ∝ h` there, so `w₂′` is a constant): the rejection loop
//!   reads the step's one subspace at the shrunk `h` and rescales `w₂` — no
//!   solve, no new basis vector.
//! * **The step's subspace itself** is what a plan without nonlinear stamps
//!   keeps (`G`, `C` are constants) for the whole linear piece of the inputs
//!   it was built on: there the exact solution is an affine particular
//!   solution plus `E(t − t₀)`, `E(s) = e^{sJ}·v₀`, with `v₀` the start
//!   vector folded at the piece's first step `t₀`. A later step only re-tests
//!   the kept decomposition with Eq. (22) at `τ + h`, `τ = t − t₀`: no device
//!   evaluation, no factor request, no solve. A miss linearizes afresh.
//! * **The error estimator** is skipped on a plan without nonlinear stamps:
//!   `ΔF ≡ 0`, so it would measure rounding noise.
//!
//! All triangular solves, matrix–vector products, Krylov subspace builds
//! **and device evaluations** (restamped through the session's precompiled
//! [`EvalPlan`](exi_netlist::EvalPlan) — no COO assembly, no sort) run
//! through reusable workspaces, so the hot loop performs no circuit-sized
//! allocation in steady state. The caches live in the
//! [`Simulator`](crate::Simulator) session, so they also survive across runs.
//!
//! The engine is exposed as the [`ErStepper`], the attempts of one step; the
//! engines' shared step loop drives it, one accepted step per
//! [`Engine::advance`](crate::Engine::advance) call.
//!
//! All `C⁻¹` factors that appear in the paper's formulas cancel analytically
//! against the φ denominators, so a singular capacitance matrix needs no
//! regularization — the implementation only ever solves with `G_k`:
//!
//! ```text
//! x_{k+1} = x_k + (e^{hJ} − I)·w₁ + (φ₁(hJ) − I)·w₂                       (Eq. 14)
//!         = x_k + (e^{hJ} − I)·v − w₂,          v = w₁ + w₂′              (the step taken)
//!     w₁  = G_k⁻¹ (f(x_k) − B·u(t_k)),          w₂ = −G_k⁻¹ B·(u(t_{k+1}) − u(t_k)),
//!     w₂′ = (hJ)⁻¹w₂ = −G_k⁻¹ C_k·w₂ / h        (φ₁(z) = (e^z − 1)/z, J⁻¹ = −G_k⁻¹C_k)
//! err     = −(e^{hJ} − I)·w₃,                   w₃ = G_k⁻¹ ΔF_k,
//! D_k     = −γ·(φ₁(hJ) − I)·w₃                   (ER-C correction)
//! ```
//!
//! `err` is the max-norm of that vector, in the unknowns' units (volts;
//! amperes on branch rows), held to `error_budget`. Its subspace is tested in
//! the same units — the Eq. (22) residual mapped back through `G_k⁻¹` — at
//! `ESTIMATOR_FRACTION·error_budget`: what the truncated subspace leaves out
//! of `err` — and of ER-C's `D_k`, read off the same subspace — is of the
//! order of a tenth of the budget (at most 0.086 of it on every attempt of
//! the benchmark's MOSFET workloads; docs/PERFORMANCE.md, "What the
//! estimator needs").
//! The step's own exponentials keep Eq. (22)'s KCL test, in amperes, at
//! `krylov_tolerance`.
//!
//! The second line is the MEXP closed form for piecewise-linear inputs (Weng,
//! Chen & Cheng, TCAD 2012) the paper starts from, and the one formula the
//! engine takes. With `v` holding `E(τ)` it reads
//! `x_{k+1} = x_k + E(τ + h) − E(τ) − w₂`: `τ = 0` on the step that folded
//! `v₀`, and on a plan that keeps the subspace (`ErStepper::keeps_subspace`:
//! constant `J`, piecewise-linear inputs) every later step of the segment
//! too, so the errors of its steps telescope instead of adding up.

use exi_krylov::{
    invert_krylov_residual, mevp_invert_krylov_state_residual_with, mevp_invert_krylov_with,
    KrylovDecomposition, KrylovResult, MevpOptions, MevpWorkspace,
};
use exi_netlist::Evaluation;
use exi_sparse::{vector, SparseLu};

use crate::engines::{breakpoint_interval, crosses_breakpoint, refresh_lu, Attempt, Run, Stepper};
use crate::error::{SimError, SimResult};

/// Threshold below which a Krylov start vector is treated as zero (its
/// contribution to the step is exactly representable as zero).
const NEGLIGIBLE_NORM: f64 = 1e-300;

/// The fraction κ of `error_budget` the estimator's `w₃` subspace is built
/// to: an inner iteration whose only output is compared with an outer
/// tolerance stops at κ times that tolerance, κ between 10⁻² and 10⁻¹
/// (Hairer–Wanner II, §IV.8, for the Newton iteration of implicit methods).
/// The test is `‖G⁻¹r_m‖` — the same unit as `err` — so what the truncated
/// subspace leaves out of the estimate is of the order of κ·budget
/// (docs/PERFORMANCE.md, "What the estimator needs").
const ESTIMATOR_FRACTION: f64 = 0.1;

/// The correction coefficient γ of ER-C's Eq. (25), the paper's 0.1.
const CORRECTION_GAMMA: f64 = 0.1;

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

/// Where the start vector `v₀ = w₁ + w₂′` of the step's exponential was
/// folded ([`ErStepper::fold_input_term`]): `w₂` itself sits in
/// [`ErStepper::w2`], computed for the step size `h_ref`.
///
/// Where every source is linear in `t`, `u(t + h) − u(t)` is proportional to
/// `h`, so `w₂(h) = w₂(h_ref)·h/h_ref` for any step on the same linear piece:
/// the rejection loop rescales instead of solving again, and on a plan
/// without nonlinear stamps — `J` itself then never changes — so does every
/// later step of the piece, for as long as the subspace of `v₀` passes
/// Eq. (22) at the time asked of it ([`ErStepper::kept_subspace_serves`]).
#[derive(Debug)]
struct Fold {
    h_ref: f64,
    /// Breakpoint interval ([`breakpoint_interval`]) `w₂` was computed in.
    interval: usize,
    /// `t₀`, where the step that folded `v₀` started: a step from `t` reads
    /// the subspace at `τ + h`, `τ = t − t₀`.
    origin: f64,
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
    /// The Krylov options of `w₃`'s subspace: the step's, with the tolerance
    /// `ESTIMATOR_FRACTION·error_budget` on the [`Residual::State`] test.
    mevp_options: MevpOptions,
}

/// Which form of the Eq. (22) residual a subspace build stops on.
#[derive(Debug, Clone, Copy)]
enum Residual {
    /// The KCL/KVL residual, in amperes: the step's own exponentials.
    Kcl,
    /// The residual mapped back through `G⁻¹`, in the unknowns' units: the
    /// estimator's, whose only output is one number held to `error_budget`.
    State,
}

/// Snapshot of the Krylov workspace's monotone counters; a run reports its
/// own work as the difference to the snapshot taken when it started.
#[derive(Debug, Clone, Copy)]
struct KrylovCounters {
    allocations: usize,
    residual_tests: usize,
    exponentials: usize,
}

impl KrylovCounters {
    fn of(ws: &MevpWorkspace) -> Self {
        KrylovCounters {
            allocations: ws.allocations(),
            residual_tests: ws.residual_tests(),
            exponentials: ws.small_dense_exponentials(),
        }
    }
}

/// The attempts of an exponential Rosenbrock–Euler step (ER, and ER-C with
/// the φ₂ correction): Algorithm 2, its LU-free rejection loop included.
///
/// Created by [`Simulator::stepper`](crate::Simulator::stepper) with
/// [`Method::ExponentialRosenbrock`](crate::Method::ExponentialRosenbrock) or
/// [`Method::ExponentialRosenbrockCorrected`](crate::Method::ExponentialRosenbrockCorrected).
/// All hot-loop state lives in the stepper — the subspace kept from step to
/// step included — so a paused one resumes bit-identically.
#[derive(Debug)]
pub struct ErStepper {
    correction: bool,
    mevp_options: MevpOptions,
    /// Every source is linear in `t` between breakpoints: `w₂ ∝ h` there.
    inputs_piecewise_linear: bool,
    // Circuit-sized scratch buffers, allocated once per stepper.
    eval_k: Evaluation,
    u_k: Vec<f64>,
    u_next: Vec<f64>,
    bu_k: Vec<f64>,
    rhs: Vec<f64>,
    bdu: Vec<f64>,
    w2: Vec<f64>,
    /// What the step's exponential acts on: `w₁` as [`ErStepper::linearize`]
    /// leaves it, plus `w₂′` once the input term is folded in; on a kept
    /// subspace `E(τ)` from the second step of the segment on.
    v: Vec<f64>,
    candidate: Vec<f64>,
    kry: Vec<f64>,
    du: Vec<f64>,
    /// `None` on a plan without nonlinear stamps: `(G, C)` are then
    /// compile-time constants, `f` is linear, `ΔF ≡ 0` and there is nothing
    /// to estimate (nor, for ER-C, to correct).
    estimator: Option<Estimator>,
    /// The subspace of `v₀`, and where it was folded: kept across accepted
    /// steps where [`ErStepper::keeps_subspace`], otherwise for the duration
    /// of one step.
    exp_subspace: Option<Subspace>,
    fold: Option<Fold>,
    krylov_baseline: KrylovCounters,
}

impl ErStepper {
    pub(crate) fn new(run: &Run<'_>, correction: bool) -> Self {
        let (n, options) = (run.x.len(), &run.options);
        let mevp_options = MevpOptions {
            tolerance: options.krylov_tolerance,
            max_dimension: options.krylov_max_dimension,
            min_dimension: 2,
            allow_unconverged: true,
        };
        let input_dim = run.plan.input_matrix().cols();
        let estimator = (run.plan.nonlinear_stamp_count() > 0).then(|| Estimator {
            eval_next: run.plan.new_evaluation(),
            dx: vec![0.0; n],
            delta_f: vec![0.0; n],
            w3: vec![0.0; n],
            subspace: None,
            mevp_options: MevpOptions {
                tolerance: ESTIMATOR_FRACTION * options.error_budget,
                ..mevp_options.clone()
            },
        });
        ErStepper {
            correction,
            mevp_options,
            inputs_piecewise_linear: run.circuit.inputs_are_piecewise_linear(),
            eval_k: run.plan.new_evaluation(),
            u_k: vec![0.0; input_dim],
            u_next: vec![0.0; input_dim],
            bu_k: vec![0.0; n],
            rhs: vec![0.0; n],
            bdu: vec![0.0; n],
            w2: vec![0.0; n],
            v: vec![0.0; n],
            candidate: vec![0.0; n],
            kry: vec![0.0; n],
            du: vec![0.0; input_dim],
            estimator,
            exp_subspace: None,
            fold: None,
            krylov_baseline: KrylovCounters::of(&run.caches.mevp_ws),
        }
    }
}

impl Stepper for ErStepper {
    /// Nothing before the clamp: whether the step linearizes at all depends
    /// on the clamped `h` ([`ErStepper::kept_subspace_serves`]).
    fn start_step(&mut self, _run: &mut Run<'_>, _h: f64) -> SimResult<()> {
        Ok(())
    }

    /// One pass of the step-size loop (Algorithm 2 lines 4-21). The first
    /// attempt linearizes and factorizes `G` (lines 4-5) unless the kept
    /// subspace carries the step; a retry needs no LU, and no new subspace
    /// for the exponential where `w₂` only rescales with `h` (`v` then does
    /// not depend on `h` at all).
    fn attempt(&mut self, run: &mut Run<'_>, h: f64, retry: bool) -> SimResult<Attempt> {
        if !retry {
            if !self.kept_subspace_serves(run, h) {
                self.linearize(run)?;
                self.fold_input_term(run, h)?;
            }
        } else if !self.inputs_piecewise_linear {
            // w₂′ moves with h: back to v = w₁, and fold again.
            self.solve_w1(run)?;
            self.fold_input_term(run, h)?;
        }
        self.form_candidate(run, h)?;
        let err = self.estimate_and_correct(run, h)?;
        Ok(Attempt::Estimated { err })
    }

    /// The next step of a kept subspace starts from `v = E(τ + h)`, which
    /// [`ErStepper::form_candidate`] left in `kry` (no estimator overwrites
    /// it on such a plan).
    fn commit(&mut self, x: &mut Vec<f64>, _h: f64) {
        x.copy_from_slice(&self.candidate);
        if self.keeps_subspace() && self.exp_subspace.is_some() {
            std::mem::swap(&mut self.v, &mut self.kry);
        }
    }

    /// The estimator's basis, and where the subspace is not kept (or `all`)
    /// the step's as well.
    fn release(&mut self, run: &mut Run<'_>, all: bool) {
        let kept = !all && self.keeps_subspace();
        let subspaces = [
            self.exp_subspace.take_if(|_| !kept),
            self.estimator.as_mut().and_then(|e| e.subspace.take()),
        ];
        for subspace in subspaces.into_iter().flatten() {
            subspace.recycle_into(&mut run.caches.mevp_ws);
        }
        if !kept {
            self.fold = None;
        }
    }

    fn finalize(&self, run: &mut Run<'_>) {
        let (now, then) = (
            KrylovCounters::of(&run.caches.mevp_ws),
            self.krylov_baseline,
        );
        let stats = &mut run.stats;
        stats.krylov_workspace_allocations = now.allocations - then.allocations;
        stats.krylov_residual_tests = now.residual_tests - then.residual_tests;
        stats.small_dense_exponentials = now.exponentials - then.exponentials;
    }
}

impl ErStepper {
    /// Linearizes at `(t_k, x_k)`: device evaluation, the factor of `G_k` and
    /// `v = w₁ = G_k⁻¹(f(x_k) − B·u_k)`, the "distance to quasi-equilibrium".
    fn linearize(&mut self, run: &mut Run<'_>) -> SimResult<()> {
        let (plan, caches) = (&*run.plan, &mut *run.caches);
        run.stats.restamped_entries +=
            plan.evaluate_into(&run.x, &mut caches.eval_ws, &mut self.eval_k)?;
        run.stats.device_evaluations += 1;
        #[cfg(feature = "fault-injection")]
        crate::fault::on_device_eval(&mut self.eval_k);
        run.circuit.input_vector_into(run.t, &mut self.u_k);
        plan.input_matrix().mul_vec_into(&self.u_k, &mut self.bu_k);
        refresh_lu(
            &mut caches.g_lu,
            Some(plan),
            &self.eval_k.g,
            None,
            &run.lu_options,
            &mut caches.lu_ws,
            &mut run.stats,
        )?;
        for i in 0..self.rhs.len() {
            self.rhs[i] = self.eval_k.f[i] - self.bu_k[i];
        }
        self.solve_w1(run)
    }

    /// `v = w₁ = G_k⁻¹·rhs`, `rhs = f(x_k) − B·u_k` as `linearize` left it.
    fn solve_w1(&mut self, run: &mut Run<'_>) -> SimResult<()> {
        let caches = &mut *run.caches;
        let g_lu = g_factor(&caches.g_lu);
        g_lu.solve_into(&self.rhs, &mut self.v, &mut caches.lu_ws)?;
        run.stats.linear_solves += 1;
        Ok(())
    }

    /// Whether the step's subspace outlives the step it was built for: `J`
    /// must not change between steps, and `w₂` must only rescale with `h`.
    fn keeps_subspace(&self) -> bool {
        self.estimator.is_none() && self.inputs_piecewise_linear
    }

    /// Whether the kept subspace carries a step of size `h` from `run.t`:
    /// `v₀` was folded on this breakpoint interval, the step stays on it and
    /// the decomposition still meets the Krylov tolerance at `τ + h`. A step
    /// across a breakpoint sliver ([`crosses_breakpoint`]) reads its `w₂` off
    /// the segment after the breakpoint, and the next step starts on a later
    /// interval, so its fold is never reused.
    fn kept_subspace_serves(&self, run: &mut Run<'_>, h: f64) -> bool {
        let (t, t_stop, breakpoints) = (run.t, run.options.t_stop, &run.breakpoints);
        let interval = breakpoint_interval(t, t_stop, breakpoints);
        let Some(fold) = self.fold.as_ref().filter(|f| f.interval == interval) else {
            return false;
        };
        if crosses_breakpoint(t, h, t_stop, breakpoints, interval) {
            return false;
        }
        // No subspace: `v₀` was negligible, and so is `E` on the segment. A
        // re-test that cannot be evaluated is a miss like any other.
        let serves = self.exp_subspace.as_ref().is_none_or(|kept| {
            let s = t - fold.origin + h;
            invert_krylov_residual(
                &kept.decomposition,
                &self.eval_k.g,
                s,
                &mut run.caches.mevp_ws,
            )
            .is_ok_and(|r| r <= self.mevp_options.tolerance)
        });
        run.stats.krylov_subspace_reuses += usize::from(serves);
        serves
    }

    /// Folds the input term of a step of size `h` from `run.t` into `v`,
    /// which holds `w₁` on entry, and builds the step's one subspace:
    ///
    /// ```text
    /// φ₁(hJ)·w₂ = (e^{hJ} − I)·(hJ)⁻¹w₂ = (e^{hJ} − I)·w₂′,   w₂′ = −G_k⁻¹C_k·w₂/h
    /// ```
    ///
    /// (`J⁻¹ = −G_k⁻¹C_k` needs the factor of `G_k` only), so the exponential
    /// of `v = w₁ + w₂′` carries both terms of Eq. (14). `C_k·w₂` also drops
    /// whatever `w₂` has in `null(C_k)` — the algebraic unknowns a voltage
    /// source drives — which a φ₁ evaluation on `w₂` itself would have to
    /// resolve through a near-singular `H_m`. On a linear piece of the inputs
    /// `w₂ ∝ h`: `w₂′` and `v` hold for every `h` the rejection loop tries.
    fn fold_input_term(&mut self, run: &mut Run<'_>, h: f64) -> SimResult<()> {
        if let Some(stale) = self.exp_subspace.take() {
            stale.recycle_into(&mut run.caches.mevp_ws);
        }
        if self.solve_w2(run, h)? {
            // `bdu` is free again: `solve_w2` consumed it.
            self.eval_k.c.mul_vec_into(&self.w2, &mut self.bdu);
            let caches = &mut *run.caches;
            g_factor(&caches.g_lu).solve_into(&self.bdu, &mut self.kry, &mut caches.lu_ws)?;
            run.stats.linear_solves += 1;
            for i in 0..self.v.len() {
                self.v[i] -= self.kry[i] / h;
            }
        }
        self.exp_subspace = build_subspace(
            run,
            &self.eval_k,
            &self.v,
            h,
            Residual::Kcl,
            &self.mevp_options,
        )?;
        self.fold = Some(Fold {
            h_ref: h,
            interval: breakpoint_interval(run.t, run.options.t_stop, &run.breakpoints),
            origin: run.t,
        });
        Ok(())
    }

    /// `w₂ = −G_k⁻¹B·(u(t + h) − u(t))` into `self.w2`; `false`, without a
    /// solve, when no source moves over the step and `w₂ = 0`.
    fn solve_w2(&mut self, run: &mut Run<'_>, h: f64) -> SimResult<bool> {
        run.circuit.input_vector_into(run.t + h, &mut self.u_next);
        for (d, (un, uk)) in self
            .du
            .iter_mut()
            .zip(self.u_next.iter().zip(self.u_k.iter()))
        {
            *d = un - uk;
        }
        if self.du.iter().all(|&d| d == 0.0) {
            self.w2.fill(0.0);
            return Ok(false);
        }
        let caches = &mut *run.caches;
        let g_lu = g_factor(&caches.g_lu);
        run.plan
            .input_matrix()
            .mul_vec_into(&self.du, &mut self.bdu);
        g_lu.solve_into(&self.bdu, &mut self.w2, &mut caches.lu_ws)?;
        run.stats.linear_solves += 1;
        vector::scale(-1.0, &mut self.w2);
        Ok(true)
    }

    /// The candidate `x_{k+1} = x_k + E(τ + h) − E(τ) − w₂` for step size `h`,
    /// `v` holding `E(τ)`: no solve, no new basis vector.
    fn form_candidate(&mut self, run: &mut Run<'_>, h: f64) -> SimResult<()> {
        let n = run.x.len();
        let fold = self
            .fold
            .as_ref()
            .expect("folded before the first candidate");
        self.candidate.copy_from_slice(&run.x);
        if let Some(dec) = &self.exp_subspace {
            let s = run.t - fold.origin + h;
            dec.expv_into(s, &mut self.kry, &mut run.caches.mevp_ws)?;
            for i in 0..n {
                self.candidate[i] += self.kry[i] - self.v[i];
            }
        }
        // w2(h) = w2(h_ref)·h/h_ref.
        let scale = h / fold.h_ref;
        for i in 0..n {
            self.candidate[i] -= scale * self.w2[i];
        }
        Ok(())
    }

    /// The error estimate of Eq. (15)/(24) for the candidate at step size
    /// `h`; for ER-C, a candidate within budget also receives the correction
    /// of Eq. (25). Without an [`Estimator`] there is no nonlinearity to
    /// estimate: zero, and nothing to correct.
    fn estimate_and_correct(&mut self, run: &mut Run<'_>, h: f64) -> SimResult<f64> {
        let Some(est) = &mut self.estimator else {
            return Ok(0.0);
        };
        let n = run.x.len();
        let (plan, caches) = (&*run.plan, &mut *run.caches);
        run.stats.restamped_entries +=
            plan.evaluate_into(&self.candidate, &mut caches.eval_ws, &mut est.eval_next)?;
        run.stats.device_evaluations += 1;
        // ΔF_k = G_k·(x_{k+1} − x_k) − (f(x_{k+1}) − f(x_k)).
        for i in 0..n {
            est.dx[i] = self.candidate[i] - run.x[i];
        }
        self.eval_k.g.mul_vec_into(&est.dx, &mut est.delta_f);
        for (i, df) in est.delta_f.iter_mut().enumerate() {
            *df -= est.eval_next.f[i] - self.eval_k.f[i];
        }
        g_factor(&caches.g_lu).solve_into(&est.delta_f, &mut est.w3, &mut caches.lu_ws)?;
        run.stats.linear_solves += 1;
        est.subspace = build_subspace(
            run,
            &self.eval_k,
            &est.w3,
            h,
            Residual::State,
            &est.mevp_options,
        )?;
        let Some(dec) = &est.subspace else {
            return Ok(0.0);
        };
        let ws = &mut run.caches.mevp_ws;
        dec.expv_into(h, &mut self.kry, ws)?;
        let mut err = 0.0_f64;
        for i in 0..n {
            err = err.max((self.kry[i] - est.w3[i]).abs());
        }
        #[cfg(test)]
        tests::audit_estimate(
            err,
            &self.eval_k.c,
            g_factor(&run.caches.g_lu),
            &est.w3,
            h,
            &est.mevp_options,
        );
        if self.correction && err <= run.options.error_budget {
            // D_k = −γ·(φ₁(hJ) − I)·w₃  (Eq. 25); x_{k+1,c} = x_{k+1} − D_k.
            dec.decomposition.eval_phi_in(1, h, &mut self.kry, ws)?;
            for i in 0..n {
                self.candidate[i] += CORRECTION_GAMMA * (self.kry[i] - est.w3[i]);
            }
        }
        if let Some(dec) = est.subspace.take() {
            dec.recycle_into(ws);
        }
        Ok(err)
    }
}

/// Builds an invert-Krylov subspace for vector `v` at step size `h` on the
/// factor of `G_k` in the session, tested with `residual` against
/// `mevp_options.tolerance`, or `None` when the vector is (numerically) zero
/// and its contribution vanishes.
fn build_subspace(
    run: &mut Run<'_>,
    eval: &Evaluation,
    v: &[f64],
    h: f64,
    residual: Residual,
    mevp_options: &MevpOptions,
) -> SimResult<Option<Subspace>> {
    if vector::norm2(v) < NEGLIGIBLE_NORM {
        return Ok(None);
    }
    if v.iter().any(|x| !x.is_finite()) {
        // A non-finite vector here means an upstream evaluation overflowed.
        return Err(SimError::NonFinite {
            time: run.t,
            device: None,
        });
    }
    #[cfg(feature = "fault-injection")]
    if crate::fault::krylov_breakdown_due() {
        return Err(SimError::Krylov(exi_krylov::KrylovError::Breakdown {
            dimension: 0,
        }));
    }
    let (g_lu, ws) = (g_factor(&run.caches.g_lu), &mut run.caches.mevp_ws);
    let outcome = match residual {
        Residual::Kcl => mevp_invert_krylov_with(&eval.c, &eval.g, g_lu, v, h, mevp_options, ws),
        Residual::State => {
            mevp_invert_krylov_state_residual_with(&eval.c, g_lu, v, h, mevp_options, ws)
        }
    }?;
    let stats = &mut run.stats;
    stats.krylov_subspaces += 1;
    stats.krylov_dimension_total += outcome.dimension;
    stats.peak_krylov_dimension = stats.peak_krylov_dimension.max(outcome.dimension);
    Ok(Some(Subspace {
        decomposition: outcome.decomposition,
        expv: outcome.mevp,
        h_built: h,
    }))
}

/// The factor of `G_k` that [`ErStepper::linearize`] left in the session.
fn g_factor(slot: &Option<SparseLu>) -> &SparseLu {
    slot.as_ref()
        .expect("linearize left the factor of G in the session")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::implicit::ImplicitScheme;
    use crate::engines::{Engine, StepOutcome};
    use crate::options::TransientOptions;
    use crate::output::TransientResult;
    use crate::session::Simulator;
    use crate::stats::RunStats;
    use crate::transient::Method;
    use exi_netlist::{generators, Circuit, Waveform};
    use exi_sparse::{CsrMatrix, OrderingMethod};
    use std::cell::RefCell;

    thread_local! {
        /// `(err, err_tight)` of every estimate on this thread, while armed.
        static AUDIT: RefCell<Option<Vec<(f64, f64)>>> = const { RefCell::new(None) };
    }

    /// When [`audited_estimates`] has armed this thread: records the
    /// estimate `err` next to the one a `w₃` subspace built to a residual of
    /// 1e-12 gives. The rebuild draws on a workspace of its own, so the run
    /// being audited moves no bit.
    pub(super) fn audit_estimate(
        err: f64,
        c: &CsrMatrix,
        g_lu: &SparseLu,
        w3: &[f64],
        h: f64,
        options: &MevpOptions,
    ) {
        AUDIT.with(|audit| {
            if let Some(records) = audit.borrow_mut().as_mut() {
                let tight = MevpOptions {
                    tolerance: 1e-12,
                    max_dimension: options.max_dimension.max(w3.len()),
                    ..options.clone()
                };
                let out = mevp_invert_krylov_state_residual_with(
                    c,
                    g_lu,
                    w3,
                    h,
                    &tight,
                    &mut MevpWorkspace::new(),
                )
                .unwrap();
                assert!(out.residual <= tight.tolerance, "{}", out.residual);
                let err_tight = out
                    .mevp
                    .iter()
                    .zip(w3)
                    .fold(0.0_f64, |e, (expv, w)| e.max((expv - w).abs()));
                records.push((err, err_tight));
            }
        });
    }

    /// Runs ER on `ckt` with every estimate audited: the run's stats and the
    /// `(err, err_tight)` of each attempt, in order.
    fn audited_estimates(ckt: &Circuit, options: &TransientOptions) -> (RunStats, Vec<(f64, f64)>) {
        AUDIT.with(|audit| *audit.borrow_mut() = Some(Vec::new()));
        let result = run_er(ckt, false, options, &[]);
        let records = AUDIT.with(|audit| audit.borrow_mut().take()).unwrap();
        (result.unwrap().stats, records)
    }

    /// `|err − err_tight|` at its largest over `records`, in units of
    /// `budget`, after checking that it stays within `ESTIMATOR_FRACTION` on
    /// each. An attempt whose `w₃` is negligible has no subspace and no
    /// record: its `err` is an exact zero.
    fn worst_estimate_gap(stats: &RunStats, records: &[(f64, f64)], budget: f64) -> f64 {
        assert!(stats.rejected_steps > 0, "{stats:?}");
        assert!(
            records.len() > stats.rejected_steps
                && records.len() <= stats.accepted_steps + stats.rejected_steps,
            "{} audited, {stats:?}",
            records.len()
        );
        let mut worst = 0.0_f64;
        for &(err, tight) in records {
            let gap = (err - tight).abs();
            assert!(
                gap <= ESTIMATOR_FRACTION * budget,
                "err {err:e} vs {tight:e} at budget {budget:e}"
            );
            worst = worst.max(gap / budget);
        }
        worst
    }

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
        assert_eq!(s.lu_reuses, s.device_evaluations, "{s:?}");
        let totals = sim.session_stats();
        assert_eq!(totals.symbolic_analyses, 1, "{totals:?}");
        assert_eq!(
            totals.lu_factorizations,
            totals.symbolic_analyses + totals.lu_refactorizations
        );
        // No nonlinearity, no estimator: a step either linearizes once or
        // carries on with the kept subspace, and is never rejected.
        assert_eq!(
            s.device_evaluations + s.krylov_subspace_reuses,
            s.accepted_steps,
            "{s:?}"
        );
        assert!(s.krylov_subspace_reuses > 0, "{s:?}");
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
        // Measured: ER 2.11e-3, ER-C 2.27e-3 at 61 steps, the same under
        // every fill-reducing ordering (docs/PERFORMANCE.md, "The ordering
        // scatter that was not one"); asserted per ordering with 2x margin.
        for ordering in [
            OrderingMethod::Rcm,
            OrderingMethod::Natural,
            OrderingMethod::MinDegree,
        ] {
            let coarse = TransientOptions {
                ordering,
                ..coarse.clone()
            };
            let [er_err, erc_err] = [false, true].map(|correction| {
                run_er(&ckt, correction, &coarse, &["s2"])
                    .unwrap()
                    .rms_error_vs(&reference, 0)
            });
            assert!(er_err < 5e-3, "{ordering:?}: er rms error {er_err}");
            // The correction must not make things worse by more than a hair
            // (measured 1.08x).
            assert!(
                erc_err < er_err * 1.25,
                "{ordering:?}: erc {erc_err} vs er {er_err}"
            );
        }
    }

    /// `V(drive) — R — a — diode — gnd`, `C` at `a`: nonlinear, the diode
    /// conducting from the start.
    fn driven_diode(drive: Waveform) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", vin, gnd, drive).unwrap();
        ckt.add_resistor("R1", vin, a, 1e3).unwrap();
        ckt.add_capacitor("C1", a, gnd, 1e-13).unwrap();
        ckt.add_diode("D1", a, gnd, exi_netlist::DiodeModel::default())
            .unwrap();
        ckt
    }

    /// The first ER step of `ckt` from `h_init` (at most 40 ps), under a
    /// budget that rejects 40 ps once and accepts 20 ps: the outcome, the
    /// accepted state and the stepper's counters.
    fn first_step(ckt: &Circuit, h_init: f64) -> (StepOutcome, Vec<f64>, RunStats) {
        let options = TransientOptions {
            t_stop: 1e-9,
            h_init,
            h_max: 4e-11,
            error_budget: 2e-3,
            ..TransientOptions::default()
        };
        let mut sim = Simulator::new(ckt);
        let mut stepper = sim
            .stepper(Method::ExponentialRosenbrock, &options)
            .unwrap();
        let outcome = stepper.advance(&mut crate::NullObserver).unwrap();
        (outcome, stepper.state().to_vec(), stepper.stats().clone())
    }

    #[test]
    fn a_rejected_step_recomputes_the_input_term_where_it_does_not_rescale() {
        // Over a sinusoid u(t+h) − u(t) is not proportional to h, so after a
        // rejection h → h/2 the input term must be the one of the half step,
        // not half the rejected step's: w₂, w₂′, v and the subspace of v are
        // all rebuilt at h/2 — the very step a stepper starting at h/2 takes.
        let ckt = driven_diode(Waveform::Sine {
            offset: 0.6,
            amplitude: 0.5,
            frequency: 2e9,
            delay: 0.0,
            damping: 0.0,
        });
        let h = 4e-11;
        let (shrunk, from_full, rejected) = first_step(&ckt, h);
        let (direct, from_half, clean) = first_step(&ckt, h / 2.0);
        assert_eq!(
            (rejected.rejected_steps, clean.rejected_steps),
            (1, 0),
            "one forced rejection"
        );
        assert_eq!(shrunk, direct);
        assert!(matches!(direct, StepOutcome::Advanced { h: taken, .. } if taken == h / 2.0));
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&from_full), bits(&from_half));
    }

    #[test]
    fn a_rejected_step_on_a_ramp_builds_no_second_subspace_and_solves_nothing() {
        // The same diode on a ramp of the sine's initial slope: w₂ ∝ h, so v
        // does not depend on h and the rejected attempt costs the second
        // attempt's estimator (one solve and one subspace, for w₃) — nothing
        // for w₂, w₂′ or v. The subspace of v was built for 40 ps and is read
        // at 20 ps, so the state agrees with the 20 ps stepper's to the
        // Krylov tolerance, not to the bit.
        let ckt = driven_diode(Waveform::Pwl(vec![(0.0, 0.6), (1e-10, 1.2)]));
        let h = 4e-11;
        let (shrunk, from_full, rejected) = first_step(&ckt, h);
        let (direct, from_half, clean) = first_step(&ckt, h / 2.0);
        assert_eq!(
            (rejected.rejected_steps, clean.rejected_steps),
            (1, 0),
            "one forced rejection"
        );
        assert_eq!(shrunk, direct);
        // A clean step builds v's subspace and w₃'s (its solves: the DC
        // iteration's, then w₁, w₂, w₂′, w₃).
        assert_eq!(clean.krylov_subspaces, 2, "{clean:?}");
        assert_eq!(
            (rejected.krylov_subspaces, rejected.linear_solves),
            (3, clean.linear_solves + 1),
            "{rejected:?}"
        );
        for (full, half) in from_full.iter().zip(&from_half) {
            assert!((full - half).abs() < 1e-6, "{full} vs {half}");
        }
    }

    #[test]
    fn the_estimator_is_within_its_fraction_of_the_budget_on_every_attempt() {
        // Every attempt's err against err_tight off a w₃ subspace built to
        // 1e-12. Measured: on the diode (3 unknowns: every subspace is the
        // whole space, 48 + 29 steps) the two agree exactly; on the 58-unknown
        // MOSFET-driven lines (88 + 60 steps) they differ by at most
        // 0.067·budget. No accept decision flips on either.
        let sine = driven_diode(Waveform::Sine {
            offset: 0.6,
            amplitude: 0.5,
            frequency: 2e9,
            delay: 0.0,
            damping: 0.0,
        });
        let options = TransientOptions {
            t_stop: 1e-9,
            h_init: 4e-11,
            h_max: 4e-11,
            error_budget: 2e-3,
            ..TransientOptions::default()
        };
        let (stats, records) = audited_estimates(&sine, &options);
        assert_eq!(
            worst_estimate_gap(&stats, &records, options.error_budget),
            0.0
        );

        let lines = generators::coupled_lines(&generators::CoupledLinesSpec {
            lines: 4,
            segments: 12,
            random_couplings: 60,
            seed: 106,
            ..generators::CoupledLinesSpec::default()
        })
        .unwrap();
        let options = TransientOptions {
            t_stop: 0.4e-9,
            h_init: 1e-12,
            h_max: 2e-11,
            h_min: 1e-16,
            error_budget: 2e-3,
            krylov_tolerance: 1e-7,
            ..TransientOptions::default()
        };
        let (stats, records) = audited_estimates(&lines, &options);
        let worst = worst_estimate_gap(&stats, &records, options.error_budget);
        assert!(worst > 0.0, "the lines' w₃ subspaces stop short of n");
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
        // The source ramps from 0 to 1 V over `r` after a delay `d` and
        // charges C1 through R1 + R2 (τ = 2e-10 s); `mid` is the divider's
        // midpoint. The ramp-then-step RC response is closed form.
        let (d, r, tau) = (1e-11, 1e-12, 2e3 * 1e-13);
        let source = |t: f64| ((t - d) / r).clamp(0.0, 1.0);
        let exact_out = |t: f64| {
            let s = t - d;
            if s <= 0.0 {
                0.0
            } else if s <= r {
                (s - tau * (1.0 - (-s / tau).exp())) / r
            } else {
                1.0 - tau / r * ((r / tau).exp() - 1.0) * (-s / tau).exp()
            }
        };
        for correction in [false, true] {
            let result = run_er(&ckt, correction, &options, &["a", "mid", "out"]).unwrap();
            assert!(result.final_state.iter().all(|v| v.is_finite()));
            let probe = |label| result.probe_index(label).unwrap();
            let (p_a, p_mid, p_out) = (probe("a"), probe("mid"), probe("out"));
            let (mut a_err, mut mid_err, mut out_err) = (0.0f64, 0.0f64, 0.0f64);
            for (&t, row) in result.times.iter().zip(&result.samples) {
                let (a, mid, out) = (row[p_a], row[p_mid], row[p_out]);
                a_err = a_err.max((a - source(t)).abs());
                mid_err = mid_err.max((mid - (a + out) / 2.0).abs());
                out_err = out_err.max((out - exact_out(t)).abs());
            }
            // Measured: out 1.8e-7 V, mid 6.7e-16 V, a 2.2e-10 V, both methods.
            let method = if correction { "ER-C" } else { "ER" };
            assert!(out_err < 1e-6, "{method}: max |out - exact| = {out_err:e}");
            assert!(
                mid_err < 1e-12,
                "{method}: max |mid - (a+out)/2| = {mid_err:e}"
            );
            assert!(a_err < 1e-9, "{method}: max |a - source| = {a_err:e}");
        }
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

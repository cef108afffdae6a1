//! The [`Simulator`] session object: circuit binding plus every reusable
//! piece of solver state.
//!
//! The paper's headline win is amortization — one symbolic LU analysis and a
//! reusable Krylov arena serve many exponential-Rosenbrock steps. A
//! `Simulator` extends that amortization **across runs**: the LU caches, the
//! Krylov workspace pool and the DC operating point survive from one
//! transient analysis to the next, so consecutive runs on the same topology
//! (parameter sweeps, method comparisons, resumed long runs) perform exactly
//! one symbolic analysis **per matrix pattern** — one for the conductance
//! matrix `G`, plus one for the denser `C/h + θ·G` if an implicit method is
//! used — no matter how many runs the session performs (see
//! [`Simulator::session_stats`]).
//!
//! ```
//! use exi_netlist::{Circuit, Waveform};
//! use exi_sim::{Method, Simulator, TransientOptions};
//!
//! # fn main() -> Result<(), exi_sim::SimError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! let gnd = ckt.node("0");
//! ckt.add_voltage_source("Vin", vin, gnd, Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]))?;
//! ckt.add_resistor("R1", vin, out, 1e3)?;
//! ckt.add_capacitor("C1", out, gnd, 1e-13)?;
//!
//! let mut sim = Simulator::new(&ckt);
//! let options = TransientOptions::new(1e-9, 1e-12);
//! let first = sim.transient(Method::ExponentialRosenbrock, &options, &["out"])?;
//! let second = sim.transient(Method::ExponentialRosenbrock, &options, &["out"])?;
//! assert_eq!(first.times, second.times);
//! // The whole session paid for one symbolic LU analysis.
//! assert_eq!(sim.session_stats().symbolic_analyses, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use exi_krylov::MevpWorkspace;
use exi_netlist::{circuit_fingerprint, Circuit, EvalPlan, EvalWorkspace};
use exi_sparse::{LuWorkspace, OrderingMethod, SparseLu};

use crate::dc::{dc_operating_point, DcSolution};
use crate::engines::er::ErStepper;
use crate::engines::implicit::{ImplicitScheme, ImplicitStepper};
use crate::engines::{resolve_probes, Engine, StepLoop, StepOutcome};
use crate::error::SimResult;
use crate::observer::{Observer, RecordingObserver};
use crate::options::{DcOptions, TransientOptions};
use crate::output::TransientResult;
use crate::stats::RunStats;
use crate::transient::Method;

/// Reusable solver state owned by a [`Simulator`] and borrowed by its
/// steppers.
///
/// * `g_lu` — cached factorization of the conductance matrix `G` (the DC
///   Jacobian pattern); seeded by the DC solve, reused by every ER/ER-C step
///   and every later run.
/// * `jac_lu` — cached factorization of the implicit-method Jacobian
///   `C/h + θ·G` (a different, denser pattern), reused across Newton
///   iterations, step sizes and runs.
/// * `lu_ws` / `mevp_ws` — allocation pools for triangular solves and Krylov
///   subspace builds; pure scratch, shared by every engine.
/// * `dc` — the DC operating point, computed once per topology.
#[derive(Debug, Default)]
pub(crate) struct SessionCaches {
    pub(crate) g_lu: Option<SparseLu>,
    pub(crate) jac_lu: Option<SparseLu>,
    pub(crate) lu_ws: LuWorkspace,
    pub(crate) mevp_ws: MevpWorkspace,
    pub(crate) dc: Option<DcSolution>,
    /// The compiled stamping plan: fixed CSR patterns, the linear baseline,
    /// the nonlinear scatter slots and the constant input matrix `B` —
    /// compiled once per topology (or fetched from a shared [`PlanCache`])
    /// and reused by the DC solve and every stepper.
    pub(crate) plan: Option<Arc<EvalPlan>>,
    /// Scratch buffers for plan evaluations, pre-sized by the plan.
    pub(crate) eval_ws: EvalWorkspace,
    /// Fill-reducing ordering the cached factors were built with; a run
    /// requesting a different one drops the caches first.
    pub(crate) ordering: Option<OrderingMethod>,
    /// Cross-session evaluation-plan pool. `None` for a standalone session;
    /// a [`crate::BatchRunner`] hands every worker session a clone of one
    /// cache. Survives a change of ordering — it is a handle to fleet-wide
    /// state, not session state.
    pub(crate) shared_plans: Option<Arc<PlanCache>>,
}

/// A point-in-time snapshot of a [`PlanCache`]'s residency counters
/// ([`RunStats`] style: plain counts, cheap to copy, safe to diff between
/// two snapshots); a resident daemon surfaces it in its `ServerStats` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Configured capacity; `None` for an unbounded cache.
    pub capacity: Option<usize>,
    /// Lookups served from a cached entry.
    pub hits: u64,
    /// Lookups that found no entry and compiled one.
    pub misses: u64,
    /// Entries dropped to keep the cache within its capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (`0.0` before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-shared cache of compiled [`EvalPlan`]s keyed by the circuit's
/// structural+parametric fingerprint
/// ([`exi_netlist::circuit_fingerprint`]).
///
/// A [`crate::BatchRunner`] hands a clone to every worker session, so
/// same-structure jobs (e.g. a corner sweep varying only source waveforms)
/// compile exactly one plan total — and share the plan's `G` ordering
/// ([`EvalPlan::g_ordering`]), the one piece of symbolic work that depends
/// on nothing but the pattern. Every session still pivots its own matrices.
/// The merged statistics expose the effect as
/// `plan_compilations == distinct structures` plus one
/// [`RunStats::shared_plan_hits`] per other pooled session.
///
/// Unbounded by default (the one-shot batch case). A resident process — the
/// `exi-serve` daemon keeping its plan pool warm across arbitrary client
/// traffic — should bound it with [`PlanCache::with_capacity`]: the
/// least-recently-used plan is evicted to admit a new structure, and
/// [`PlanCache::stats`] snapshots hit/miss/eviction counters as
/// [`CacheStats`].
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<PlanCacheState>,
    capacity: Option<usize>,
}

/// One cached plan plus its LRU stamp.
#[derive(Debug)]
struct PlanEntry {
    plan: Arc<EvalPlan>,
    last_used: u64,
}

/// Mutex-guarded interior of a [`PlanCache`]: entries, the LRU clock and the
/// residency counters (under one lock so snapshots are consistent).
#[derive(Debug, Default)]
struct PlanCacheState {
    entries: HashMap<Vec<u8>, PlanEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Creates an empty cache holding at most `capacity` compiled plans
    /// (minimum 1), evicting the least-recently-used plan to admit a new
    /// structure.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            capacity: Some(capacity.max(1)),
            ..PlanCache::default()
        }
    }

    /// The configured capacity; `None` for an unbounded cache.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of distinct circuit structures cached.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Returns `true` when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the residency counters (entries, capacity, hits, misses,
    /// evictions), internally consistent under the cache lock.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            entries: state.entries.len(),
            capacity: self.capacity,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
        }
    }

    /// A worker that panicked mid-compile never published a partial plan
    /// (the map is only written after a successful compile), so the cache
    /// stays usable: recover the guard instead of propagating the poison.
    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCacheState> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Returns the cached plan for `circuit`'s structure, compiling and
    /// publishing it on a miss. The second component is `true` when this
    /// call performed the compilation; the third is how long the call
    /// waited to acquire the cache lock (close to zero for a warm lookup on
    /// an uncontended cache), which a session charges to
    /// [`RunStats::cache_wait`] so `active_solver_s` stays a pure compute
    /// figure. The lock is held across the compile, so concurrent
    /// same-structure requests block instead of duplicating the work.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalPlan::compile`] errors (e.g. an empty circuit).
    pub fn get_or_compile(&self, circuit: &Circuit) -> SimResult<(Arc<EvalPlan>, bool, Duration)> {
        let key = circuit_fingerprint(circuit);
        let acquire = Instant::now();
        let mut state = self.lock();
        let waited = acquire.elapsed();
        state.tick += 1;
        let tick = state.tick;
        if let Some(entry) = state.entries.get_mut(&key) {
            entry.last_used = tick;
            state.hits += 1;
            return Ok((Arc::clone(&state.entries[&key].plan), false, waited));
        }
        state.misses += 1;
        let plan = Arc::new(EvalPlan::compile(circuit)?);
        state.entries.insert(
            key.clone(),
            PlanEntry {
                plan: Arc::clone(&plan),
                last_used: tick,
            },
        );
        if let Some(capacity) = self.capacity {
            while state.entries.len() > capacity {
                let victim = state
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        state.entries.remove(&k);
                        state.evictions += 1;
                    }
                    None => break,
                }
            }
        }
        Ok((plan, true, waited))
    }
}

/// A simulation session bound to one circuit.
///
/// Owns every piece of reusable solver state (LU caches with their symbolic
/// analyses, Krylov workspace arena, DC solution) so that consecutive
/// analyses on the same topology amortize all symbolic work. The circuit is
/// held by shared reference — the borrow checker guarantees the topology
/// cannot change under a live session, which is what makes cross-run cache
/// reuse sound.
///
/// Entry points, from highest to lowest level:
///
/// * [`Simulator::transient`] — one full run, returns a [`TransientResult`]
///   (the classic buffered waveform).
/// * [`Simulator::transient_observed`] — one full run streaming to a caller
///   [`Observer`] (fixed-memory recording, live dashboards, nothing at all).
/// * [`Simulator::stepper`] — an incremental [`Engine`] stepper: advance step
///   by step, pause before `t_stop`, inspect state, resume bit-identically —
///   the substrate for checkpointed long runs and interleaved co-simulation
///   of several circuits.
#[derive(Debug)]
pub struct Simulator<'c> {
    circuit: &'c Circuit,
    caches: SessionCaches,
    session_stats: RunStats,
    completed_runs: usize,
}

impl<'c> Simulator<'c> {
    /// Creates a session for `circuit` with cold caches.
    pub fn new(circuit: &'c Circuit) -> Self {
        Simulator {
            circuit,
            caches: SessionCaches::default(),
            session_stats: RunStats::new(),
            completed_runs: 0,
        }
    }

    /// Pools this session's compiled evaluation plan — and with it the
    /// plan's `G` ordering — with every other session holding a clone of
    /// `cache` (see [`PlanCache`]); the [`crate::BatchRunner`] wires this up
    /// for its workers. The session's factorizations still pivot on its own
    /// matrices, so its results are bit-identical to a standalone session's.
    #[must_use]
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.caches.shared_plans = Some(cache);
        self
    }

    /// Cumulative statistics over every run (and the shared DC solve) this
    /// session performed. On an unchanged topology
    /// `session_stats().symbolic_analyses` stays at the value the first run
    /// reached — later runs only add numeric-only refactorizations.
    pub fn session_stats(&self) -> &RunStats {
        &self.session_stats
    }

    /// Number of transient runs completed by this session.
    pub fn completed_runs(&self) -> usize {
        self.completed_runs
    }

    /// The DC operating point of the circuit, computed on first use and
    /// cached for the lifetime of the session: the state every run of the
    /// session starts from.
    ///
    /// # Errors
    ///
    /// Propagates DC Newton convergence and kernel errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use exi_netlist::{Circuit, Waveform};
    /// use exi_sim::Simulator;
    ///
    /// # fn main() -> Result<(), exi_sim::SimError> {
    /// let mut ckt = Circuit::new();
    /// let a = ckt.node("a");
    /// let b = ckt.node("b");
    /// let gnd = ckt.node("0");
    /// ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(2.0))?;
    /// ckt.add_resistor("R1", a, b, 1e3)?;
    /// ckt.add_resistor("R2", b, gnd, 1e3)?;
    /// let dc = Simulator::new(&ckt).dc()?;
    /// assert!((dc.state[1] - 1.0).abs() < 1e-9); // resistive divider
    /// # Ok(())
    /// # }
    /// ```
    pub fn dc(&mut self) -> SimResult<DcSolution> {
        let options = DcOptions::default();
        self.ensure_ordering(options.ordering);
        // No transient run will ever absorb this solve's counters, so they
        // enter the session totals right here.
        let stats = match self.ensure_dc(&options) {
            Ok(stats) => stats,
            Err(e) => return Err(e.attributed(self.circuit)),
        };
        self.session_stats.absorb(&stats);
        Ok(self
            .caches
            .dc
            .clone()
            .expect("ensure_dc populated the cache"))
    }

    /// Drops the caches whenever a run requests a different fill-reducing
    /// ordering than the one the cached factors were built with — a cached
    /// symbolic analysis silently carries its ordering into refactorizations,
    /// which would make an ordering sweep measure nothing.
    fn ensure_ordering(&mut self, ordering: OrderingMethod) {
        if self.caches.ordering != Some(ordering) {
            if self.caches.ordering.is_some() {
                // Every cached factor, workspace and the DC solution go; the
                // plan cache is a fleet-wide handle and survives.
                self.caches = SessionCaches {
                    shared_plans: self.caches.shared_plans.take(),
                    ..SessionCaches::default()
                };
            }
            self.caches.ordering = Some(ordering);
        }
    }

    /// Compiles (or fetches from the shared [`PlanCache`]) the session's
    /// evaluation plan, charging the compile — and any wait on the shared
    /// cache's lock — to `stats`.
    fn ensure_plan(&mut self, stats: &mut RunStats) -> SimResult<()> {
        if self.caches.plan.is_none() {
            let plan = match &self.caches.shared_plans {
                Some(pool) => {
                    let (plan, compiled, waited) = pool.get_or_compile(self.circuit)?;
                    stats.cache_wait += waited;
                    if compiled {
                        stats.plan_compilations += 1;
                    } else {
                        stats.shared_plan_hits += 1;
                    }
                    plan
                }
                None => {
                    stats.plan_compilations += 1;
                    Arc::new(EvalPlan::compile(self.circuit)?)
                }
            };
            self.caches.eval_ws = plan.new_workspace();
            self.caches.plan = Some(plan);
        }
        Ok(())
    }

    /// Computes (or reuses) the DC operating point, returning the statistics
    /// of a fresh solve — zeroed when the cached solution was reused. The
    /// caller decides where to charge them: [`Simulator::stepper`] folds them
    /// into the triggering run's statistics (absorbed into the session when
    /// that run is), [`Simulator::dc`] absorbs them directly.
    fn ensure_dc(&mut self, options: &DcOptions) -> SimResult<RunStats> {
        let mut stats = RunStats::new();
        if self.caches.dc.is_some() {
            self.ensure_plan(&mut stats)?;
            return Ok(stats);
        }
        // The timer starts before plan acquisition so that any wait on the
        // shared plan cache's lock lands inside `runtime` — `cache_wait` is
        // documented as a subset of it.
        let started = Instant::now();
        self.ensure_plan(&mut stats)?;
        let caches = &mut self.caches;
        let plan = caches
            .plan
            .as_ref()
            .expect("ensure_plan populated the cache");
        // The damped Jacobian `G + σI` has its own pattern and only exists
        // while a solve struggles: its factor lives for this solve and never
        // displaces the session's `G` factor.
        let dc = dc_operating_point(
            self.circuit,
            plan,
            options,
            &mut stats,
            &mut caches.g_lu,
            &mut None,
            &mut caches.lu_ws,
            &mut caches.eval_ws,
        )?;
        stats.runtime = started.elapsed();
        self.caches.dc = Some(dc);
        Ok(stats)
    }

    /// Creates an incremental stepper for `method`, positioned (lazily) at
    /// the DC operating point.
    ///
    /// The stepper auto-initializes on the first [`Engine::advance`] /
    /// [`Engine::run_until`]; call its `start` (or
    /// [`Engine::init`] with a custom `(t0, x0)` checkpoint) to control when
    /// the initial [`Observer::on_dc`] event fires. While the stepper lives
    /// it exclusively borrows the session's caches; drop it before starting
    /// the next run.
    ///
    /// # Errors
    ///
    /// Option validation, DC solve and input-matrix assembly errors.
    pub fn stepper(
        &mut self,
        method: Method,
        options: &TransientOptions,
    ) -> SimResult<SessionStepper<'_>> {
        options.validate()?;
        self.ensure_ordering(options.ordering);
        // A fresh DC solve is charged to this run's statistics (dc_stats
        // seeds the stepper below) and reaches the session totals when the
        // run is absorbed; a cached solution contributes nothing.
        let dc_stats = self.ensure_dc(&DcOptions {
            ordering: options.ordering,
            ..DcOptions::default()
        })?;
        let x0 = self
            .caches
            .dc
            .as_ref()
            .expect("ensure_dc populated the cache")
            .state
            .clone();
        let (circuit, caches) = (self.circuit, &mut self.caches);
        let inner: Box<dyn Engine + '_> = match method {
            Method::BackwardEuler | Method::Trapezoidal => {
                let scheme = match method {
                    Method::Trapezoidal => ImplicitScheme::Trapezoidal,
                    _ => ImplicitScheme::BackwardEuler,
                };
                let make = |run: &_| ImplicitStepper::new(run, scheme);
                Box::new(StepLoop::new(circuit, caches, options, dc_stats, make)?)
            }
            Method::ExponentialRosenbrock | Method::ExponentialRosenbrockCorrected => {
                let correction = method == Method::ExponentialRosenbrockCorrected;
                let make = |run: &_| Ok(ErStepper::new(run, correction));
                Box::new(StepLoop::new(circuit, caches, options, dc_stats, make)?)
            }
        };
        Ok(SessionStepper {
            inner,
            x0,
            initialized: false,
        })
    }

    /// Runs one full transient analysis, recording every accepted point, and
    /// returns the buffered [`TransientResult`].
    ///
    /// # Errors
    ///
    /// Option-validation, probe-resolution, DC, step-control and kernel
    /// errors (see [`crate::SimError`]).
    pub fn transient(
        &mut self,
        method: Method,
        options: &TransientOptions,
        probe_names: &[&str],
    ) -> SimResult<TransientResult> {
        options.validate()?;
        let probes = resolve_probes(self.circuit, probe_names)?;
        let mut observer = RecordingObserver::new(probes, false);
        self.transient_observed(method, options, &mut observer)?;
        Ok(observer.into_result())
    }

    /// Runs one full transient analysis streaming events to `observer`
    /// instead of buffering a result, and returns the run's statistics.
    ///
    /// Pair with [`crate::StreamingObserver`] for fixed-memory waveforms or
    /// [`crate::NullObserver`] to measure pure solver throughput.
    ///
    /// Events are delivered live. A run that fails after its DC point has
    /// already streamed [`Observer::on_dc`] and every accepted and rejected
    /// step; it then delivers one [`Observer::on_finish`] carrying the
    /// partial statistics, which the session absorbs too.
    ///
    /// # Errors
    ///
    /// As [`Simulator::transient`], attributed to the circuit.
    pub fn transient_observed(
        &mut self,
        method: Method,
        options: &TransientOptions,
        mut observer: &mut dyn Observer,
    ) -> SimResult<RunStats> {
        self.transient_until(method, options, &mut observer, |_| {
            None::<std::convert::Infallible>
        })
        .map(|(stats, _)| stats)
    }

    /// Runs one transient analysis step by step, polling `stop` between
    /// accepted steps — the one drive loop of a session:
    /// [`Simulator::transient_observed`] runs it with a stop that never
    /// fires, and [`crate::BatchJob::execute`], the job executor behind
    /// [`crate::BatchRunner`] jobs and `exi-serve` workers, with its token,
    /// deadline and sink checks.
    ///
    /// The stepper starts (DC solve, [`Observer::on_dc`]) before the first
    /// poll, so even a run stopped on arrival delivers its DC point; and
    /// because `stop` is only consulted at step boundaries, what a stopped
    /// run streamed is a bit-exact prefix of the uninterrupted run. `stop`
    /// sees the observer, so a sink can end its own run (a vanished client,
    /// a full buffer).
    ///
    /// Returns the run's statistics — absorbed into the session whatever the
    /// outcome; a failed run still did real work and left its cache
    /// mutations in the session — and, for a stopped run, `stop`'s reason
    /// with the simulation time reached.
    ///
    /// # Errors
    ///
    /// As [`Simulator::transient`], attributed to the circuit.
    pub fn transient_until<O: Observer, R>(
        &mut self,
        method: Method,
        options: &TransientOptions,
        observer: &mut O,
        mut stop: impl FnMut(&O) -> Option<R>,
    ) -> SimResult<(RunStats, Option<(R, f64)>)> {
        let circuit = self.circuit;
        let (outcome, stats) = {
            let mut stepper = self
                .stepper(method, options)
                .map_err(|e| e.attributed(circuit))?;
            let outcome = stepper.start(observer).and_then(|()| loop {
                if let Some(reason) = stop(observer) {
                    break Ok(Some((reason, stepper.time())));
                }
                if let StepOutcome::Finished = stepper.advance(observer)? {
                    break Ok(None);
                }
            });
            (outcome, stepper.finish(observer))
        };
        // A run's statistics already include the DC share it triggered (and
        // only that run's do), so absorbing every run once keeps the totals
        // exact; only a run that reached `t_stop` counts as completed.
        self.session_stats.absorb(&stats);
        if matches!(outcome, Ok(None)) {
            self.completed_runs += 1;
        }
        Ok((stats, outcome.map_err(|e| e.attributed(circuit))?))
    }
}

/// An engine-agnostic incremental stepper bound to a [`Simulator`] session.
///
/// Wraps the concrete per-method steppers behind the [`Engine`] trait and
/// adds lazy initialization at the session's DC operating point. See
/// [`Engine`] for the driving interface and the pause/resume contract.
pub struct SessionStepper<'a> {
    inner: Box<dyn Engine + 'a>,
    x0: Vec<f64>,
    initialized: bool,
}

impl std::fmt::Debug for SessionStepper<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStepper")
            .field("time", &self.inner.time())
            .field("initialized", &self.initialized)
            .field("stats", self.inner.stats())
            .finish_non_exhaustive()
    }
}

impl SessionStepper<'_> {
    /// Initializes the stepper at the session's DC operating point (time 0),
    /// emitting [`Observer::on_dc`]. Called automatically by the first
    /// [`Engine::advance`] if omitted.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::init`] errors.
    pub fn start(&mut self, observer: &mut dyn Observer) -> SimResult<()> {
        let x0 = std::mem::take(&mut self.x0);
        let r = self.init(0.0, &x0, observer);
        self.x0 = x0;
        r
    }
}

impl Engine for SessionStepper<'_> {
    fn init(&mut self, t0: f64, x0: &[f64], observer: &mut dyn Observer) -> SimResult<()> {
        let r = self.inner.init(t0, x0, observer);
        // Only a successful init arms the stepper; a failed one leaves the
        // DC auto-start available for the next advance.
        self.initialized = r.is_ok();
        r
    }

    fn advance(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        if !self.initialized {
            self.start(observer)?;
        }
        self.inner.advance(observer)
    }

    fn state(&self) -> &[f64] {
        if !self.initialized {
            return &self.x0;
        }
        self.inner.state()
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn stats(&self) -> &RunStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut RunStats {
        self.inner.stats_mut()
    }

    fn is_finished(&self) -> bool {
        // A not-yet-started stepper still has its whole run ahead (it
        // auto-initializes on the first advance).
        self.initialized && self.inner.is_finished()
    }

    fn finish(&mut self, observer: &mut dyn Observer) -> RunStats {
        self.inner.finish(observer)
    }
}

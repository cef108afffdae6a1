//! Parallel batch execution of simulation jobs.
//!
//! The paper's headline win amortizes one symbolic LU analysis across an
//! entire exponential-integrator run; the [`Simulator`] session extends that
//! across consecutive runs on one topology. This module runs a **fleet of
//! independent jobs**: a [`BatchPlan`] describes N analyses (parameter
//! sweeps, Monte-Carlo corners, per-user requests), and a [`BatchRunner`]
//! executes them over a pool of `std::thread` workers. Every worker session
//! factorizes and pivots its own matrices; the fleet shares only what
//! depends on no matrix value — the compiled [`exi_netlist::EvalPlan`]s in
//! one [`PlanCache`], and with each plan its `G` ordering
//! ([`exi_netlist::EvalPlan::g_ordering`]). The merged [`RunStats`] expose
//! the sharing through [`RunStats::shared_plan_hits`],
//! [`RunStats::shared_symbolic_hits`], [`RunStats::batch_jobs`] and
//! [`RunStats::worker_threads`].
//!
//! # Determinism
//!
//! A job's bits depend only on its own matrices: every job is bit-identical
//! to an isolated [`Simulator`] run of it, at any worker count.
//!
//! # Example
//!
//! ```
//! use exi_netlist::generators::{rc_ladder, RcLadderSpec};
//! use exi_sim::{BatchJob, BatchPlan, BatchRunner, Method, TransientOptions};
//!
//! # fn main() -> Result<(), exi_sim::SimError> {
//! let mut plan = BatchPlan::new();
//! for budget in [1e-3, 5e-4, 1e-4] {
//!     let circuit = rc_ladder(&RcLadderSpec::default())?;
//!     let options = TransientOptions {
//!         error_budget: budget,
//!         ..TransientOptions::new(1e-9, 1e-12)
//!     };
//!     plan.push(
//!         BatchJob::new(format!("budget={budget:.0e}"), circuit, Method::default(), options)
//!             .probe("n10"),
//!     );
//! }
//! let result = BatchRunner::new().worker_threads(2).run(&plan);
//! assert!(result.all_ok());
//! // Three same-topology jobs: one plan compilation, one `G` ordering, and
//! // each job pivots its own `G` once.
//! assert_eq!(result.stats.plan_compilations, 1);
//! assert_eq!(result.stats.symbolic_analyses, 3);
//! assert_eq!(result.stats.shared_symbolic_hits, 2);
//! assert_eq!(result.stats.batch_jobs, 3);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exi_netlist::Circuit;

use crate::engines::resolve_probes;
use crate::error::SimError;
use crate::observer::{DecimatedWaveform, Observer, RecordingObserver, StreamingObserver};
use crate::options::TransientOptions;
use crate::output::TransientResult;
use crate::session::{PlanCache, Simulator};
use crate::stats::RunStats;
use crate::transient::Method;

/// How a batch job captures its waveform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSink {
    /// Record every accepted point into a [`TransientResult`] (the
    /// [`crate::RecordingObserver`] path; memory grows with the step count).
    Record,
    /// Stream through a [`StreamingObserver`] retaining at most `capacity`
    /// points with stride-doubling decimation — fixed memory for arbitrarily
    /// long sweep members.
    Stream {
        /// Maximum number of retained points (minimum 2).
        capacity: usize,
    },
}

/// A cooperative cancellation handle shared between a job's submitter and
/// the worker running it.
///
/// Cancellation is checked **between accepted steps** (on the
/// [`crate::Engine`] pause/resume contract), never mid-step, so a cancelled
/// job's partial waveform is a bit-exact prefix of what the uncancelled run
/// would have produced.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a not-yet-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; the owning job stops at its next step boundary.
    pub fn cancel(&self) {
        self.0.store(true, AtomicOrdering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(AtomicOrdering::Acquire)
    }
}

/// Why a job was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Its [`CancelToken`] was triggered.
    Token,
    /// Its per-job deadline ([`BatchJob::deadline`]) expired.
    Deadline,
}

impl CancelReason {
    /// The between-steps cancellation poll: a fired `token` first, then an
    /// expired `deadline`.
    fn poll(token: Option<&CancelToken>, deadline: Option<Instant>) -> Option<CancelReason> {
        if token.is_some_and(CancelToken::is_cancelled) {
            Some(CancelReason::Token)
        } else if deadline.is_some_and(|limit| Instant::now() >= limit) {
            Some(CancelReason::Deadline)
        } else {
            None
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Token => write!(f, "cancellation token"),
            CancelReason::Deadline => write!(f, "deadline expired"),
        }
    }
}

/// One entry of a [`BatchPlan`]: a circuit variant plus everything needed to
/// run it.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Human-readable job label, carried into [`JobOutcome`] and failure
    /// reports.
    pub label: String,
    /// The circuit to simulate (typically an [`exi_netlist::generators`]
    /// variant; each job owns its circuit so workers never share mutable
    /// state).
    pub circuit: Circuit,
    /// Integration method for this job.
    pub method: Method,
    /// Per-job transient options.
    pub options: TransientOptions,
    /// Node names to record.
    pub probes: Vec<String>,
    /// Waveform capture strategy.
    pub sink: JobSink,
    /// Wall-clock budget, measured from the moment a worker picks the job
    /// up; past it the job is cancelled at the next step boundary.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation handle, checked between steps.
    pub cancel: Option<CancelToken>,
}

impl BatchJob {
    /// Creates a job recording every accepted point and no probes.
    pub fn new(
        label: impl Into<String>,
        circuit: Circuit,
        method: Method,
        options: TransientOptions,
    ) -> Self {
        BatchJob {
            label: label.into(),
            circuit,
            method,
            options,
            probes: Vec::new(),
            sink: JobSink::Record,
            deadline: None,
            cancel: None,
        }
    }

    /// Adds a probed node name.
    #[must_use]
    pub fn probe(mut self, name: impl Into<String>) -> Self {
        self.probes.push(name.into());
        self
    }

    /// Switches the job to a fixed-memory streaming sink retaining at most
    /// `capacity` points.
    #[must_use]
    pub fn streaming(mut self, capacity: usize) -> Self {
        self.sink = JobSink::Stream { capacity };
        self
    }

    /// Caps the job's wall-clock time; a job past its deadline reports
    /// [`JobError::Cancelled`] with the partial waveform it produced.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attaches a cooperative [`CancelToken`].
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs this job once — the one job executor, behind every
    /// [`BatchRunner`] job and every `exi-serve` worker — streaming to
    /// `observer`.
    ///
    /// The deadline clock starts here, at pickup. Under `fault-injection`
    /// the job's armed fault (keyed by `label`) is installed for the run. A
    /// pooled session over `plans` drives [`Simulator::transient_until`],
    /// which polls between accepted steps: the token first, then the
    /// deadline, then `stop` (a sink ending its own run, reported as
    /// [`CancelReason::Token`]). A stop that never fires leaves every bit of
    /// the run as [`Simulator::transient`] computes it.
    ///
    /// Returns `Some((reason, time reached))` for a stopped run, and the
    /// session's statistics. A panic is caught: it returns
    /// [`JobError::Panicked`] with empty statistics, and never takes the
    /// caller's thread down. The plan cache stays safe to reuse after it,
    /// because it only publishes fully constructed plans (a plan's `G`
    /// ordering is a `OnceLock` a panicking initializer leaves unset) and
    /// recovers its lock from poisoning.
    pub fn execute<O: Observer>(
        &self,
        plans: &Arc<PlanCache>,
        observer: &mut O,
        mut stop: impl FnMut(&O) -> bool,
    ) -> (Result<Option<(CancelReason, f64)>, JobError>, RunStats) {
        let deadline = self.deadline.map(|budget| Instant::now() + budget);
        #[cfg(feature = "fault-injection")]
        crate::fault::install(&self.label);
        let shielded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Simulator::new(&self.circuit).with_plan_cache(Arc::clone(plans));
            let run = sim.transient_until(self.method, &self.options, observer, |observer| {
                CancelReason::poll(self.cancel.as_ref(), deadline)
                    .or_else(|| stop(observer).then_some(CancelReason::Token))
            });
            let stopped = run.map(|(_, stopped)| stopped).map_err(JobError::Sim);
            (stopped, sim.session_stats().clone())
        }));
        #[cfg(feature = "fault-injection")]
        crate::fault::uninstall();
        shielded.unwrap_or_else(|payload| {
            let message = panic_message(payload);
            (Err(JobError::Panicked { message }), RunStats::new())
        })
    }
}

/// An ordered collection of [`BatchJob`]s to execute together.
///
/// # Examples
///
/// ```
/// use exi_netlist::generators::{rc_ladder, RcLadderSpec};
/// use exi_sim::{BatchJob, BatchPlan, Method, TransientOptions};
///
/// # fn main() -> Result<(), exi_sim::SimError> {
/// let mut plan = BatchPlan::new();
/// for segments in [5, 10] {
///     let spec = RcLadderSpec { segments, ..RcLadderSpec::default() };
///     plan.push(BatchJob::new(
///         format!("segments={segments}"),
///         rc_ladder(&spec)?,
///         Method::ExponentialRosenbrock,
///         TransientOptions::new(1e-9, 1e-12),
///     ));
/// }
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan.jobs()[0].label, "segments=5");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchPlan {
    jobs: Vec<BatchJob>,
}

impl BatchPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        BatchPlan::default()
    }

    /// Appends a job; results come back in submission order regardless of
    /// which worker runs what.
    pub fn push(&mut self, job: BatchJob) -> &mut Self {
        self.jobs.push(job);
        self
    }

    /// Number of jobs in the plan.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` when the plan holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The jobs, in submission order.
    pub fn jobs(&self) -> &[BatchJob] {
        &self.jobs
    }
}

/// The waveform a finished job produced, matching its [`JobSink`].
// The `Recorded` variant is the common case; boxing it to appease
// `large_enum_variant` would cost an indirection on every recorded job for
// a type that lives once per job, not per step.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Every accepted point ([`JobSink::Record`]).
    Recorded(TransientResult),
    /// The fixed-memory decimated view ([`JobSink::Stream`]).
    Streamed(DecimatedWaveform),
}

/// Why a batch job produced no (complete) waveform. The three variants are
/// the partial-results partition of a [`BatchResult`]: simulation errors,
/// isolated panics, and cooperative cancellations.
// `Cancelled` carries the partial waveform inline: job errors are
// constructed at most once per job (cold path), and boxing would push the
// indirection onto every caller that pattern-matches the partial out.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum JobError {
    /// The simulation itself failed (already attributed to a circuit
    /// node/device where the error supports it).
    Sim(SimError),
    /// The job panicked; `catch_unwind` isolated it so the rest of the batch
    /// completed untouched.
    Panicked {
        /// The panic payload's message, when it carried one.
        message: String,
    },
    /// The job was cancelled between steps by its token or deadline.
    Cancelled {
        /// What triggered the cancellation.
        reason: CancelReason,
        /// Simulation time reached when the job stopped.
        at_time: f64,
        /// The bit-exact prefix waveform produced before cancellation —
        /// every point equals the corresponding point of an uncancelled run.
        partial: Option<JobOutput>,
    },
}

impl JobError {
    /// The underlying simulation error, for [`JobError::Sim`].
    pub fn sim(&self) -> Option<&SimError> {
        match self {
            JobError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Sim(e) => write!(f, "{e}"),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::Cancelled {
                reason, at_time, ..
            } => write!(f, "job cancelled ({reason}) at t = {at_time:.3e} s"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for JobError {
    fn from(e: SimError) -> Self {
        JobError::Sim(e)
    }
}

/// Result of one batch job: per-job error isolation means a failed job
/// carries its error (and the statistics of the work it did) without
/// affecting any other entry.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's label.
    pub label: String,
    /// The method that ran.
    pub method: Method,
    /// The waveform, or the error that stopped the job.
    pub result: Result<JobOutput, JobError>,
    /// The job's session statistics — populated for failed jobs too (the
    /// partial work happened and is part of the batch totals).
    pub stats: RunStats,
    /// Index of the worker slot (0-based, `< worker_threads`) that executed
    /// the job, or `None` when its worker thread died before reporting.
    /// Attribution only — which worker runs a job depends on scheduling and
    /// carries no determinism guarantee, unlike the outcome itself.
    pub worker: Option<usize>,
}

impl JobOutcome {
    /// Returns `true` when the job completed.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Returns `true` when the job was cancelled (token or deadline).
    pub fn is_cancelled(&self) -> bool {
        matches!(self.result, Err(JobError::Cancelled { .. }))
    }

    /// The error that stopped the job, if any.
    pub fn error(&self) -> Option<&JobError> {
        self.result.as_ref().err()
    }

    /// The recorded waveform, when the job completed with a
    /// [`JobSink::Record`] sink.
    pub fn recorded(&self) -> Option<&TransientResult> {
        match &self.result {
            Ok(JobOutput::Recorded(r)) => Some(r),
            _ => None,
        }
    }

    /// The decimated waveform, when the job completed with a
    /// [`JobSink::Stream`] sink.
    pub fn streamed(&self) -> Option<&DecimatedWaveform> {
        match &self.result {
            Ok(JobOutput::Streamed(w)) => Some(w),
            _ => None,
        }
    }
}

/// Everything a finished batch produced, in submission order.
#[derive(Debug)]
pub struct BatchResult {
    /// One outcome per submitted job, index-aligned with the plan.
    pub jobs: Vec<JobOutcome>,
    /// Merged statistics: per-job counters summed ([`RunStats::absorb`]) plus
    /// the batch-level [`RunStats::batch_jobs`] and
    /// [`RunStats::worker_threads`]. Note `stats.runtime` sums *solver time
    /// across workers* (of which [`RunStats::cache_wait`] was spent waiting
    /// on the plan cache's lock — subtract it, via
    /// [`RunStats::active_solver_seconds`], for pure compute); see
    /// [`BatchResult::wall_time`] for elapsed time.
    pub stats: RunStats,
    /// Wall-clock duration of the whole batch (what a throughput number
    /// should divide by).
    pub wall_time: Duration,
}

impl BatchResult {
    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Number of jobs that did not complete — simulation errors, isolated
    /// panics **and** cancellations alike.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| !j.is_ok()).count()
    }

    /// Number of jobs that completed with a waveform.
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_ok()).count()
    }

    /// Number of jobs cancelled by token or deadline (a subset of
    /// [`BatchResult::failed`]).
    pub fn cancelled(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_cancelled()).count()
    }

    /// The failed jobs with their errors, in submission order — the partial
    /// results contract: everything not listed here carries a complete
    /// waveform in [`BatchResult::jobs`].
    pub fn failures(&self) -> impl Iterator<Item = (usize, &JobOutcome, &JobError)> {
        self.jobs
            .iter()
            .enumerate()
            .filter_map(|(i, j)| j.error().map(|e| (i, j, e)))
    }

    /// Returns `true` when every job completed.
    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }

    /// Active solver seconds per worker slot: entry `w` sums
    /// [`RunStats::active_solver_seconds`] — session runtime minus plan-
    /// cache wait — over every job executed on worker `w`, so an uneven
    /// batch schedule (one worker stuck on the long tail while the rest
    /// idle) shows up directly instead of hiding inside the
    /// [`BatchResult::stats`] runtime total. The vector has
    /// [`RunStats::worker_threads`] entries; jobs that never reached the
    /// pool ([`JobOutcome::worker`] is `None`) are not attributed.
    pub fn worker_active(&self) -> Vec<f64> {
        self.per_worker(RunStats::active_solver_seconds)
    }

    /// Plan-cache wait seconds per worker slot
    /// ([`RunStats::cache_wait_seconds`] summed per worker) — the
    /// contention complement of [`BatchResult::worker_active`]. Near zero
    /// unless workers queued behind another's plan compile; nothing on the
    /// step hot path takes a shared lock.
    pub fn worker_cache_wait(&self) -> Vec<f64> {
        self.per_worker(RunStats::cache_wait_seconds)
    }

    fn per_worker(&self, metric: impl Fn(&RunStats) -> f64) -> Vec<f64> {
        let mut totals = vec![0.0; self.stats.worker_threads];
        for job in &self.jobs {
            if let Some(w) = job.worker {
                if w < totals.len() {
                    totals[w] += metric(&job.stats);
                }
            }
        }
        totals
    }
}

/// Batch-level progress hook, the fleet analogue of the per-step
/// [`crate::Observer`]: callbacks fire from worker threads as jobs start and
/// finish (hence `&self` + [`Sync`]), and per-job waveform streaming remains
/// available through [`JobSink::Stream`].
pub trait BatchObserver: Sync {
    /// Job `index` (submission order) began executing on some worker.
    fn on_job_started(&self, index: usize, label: &str) {
        let _ = (index, label);
    }

    /// Job `index` finished (successfully or not).
    fn on_job_finished(&self, index: usize, outcome: &JobOutcome) {
        let _ = (index, outcome);
    }

    /// The whole batch finished; receives the merged statistics.
    fn on_batch_finished(&self, stats: &RunStats) {
        let _ = stats;
    }
}

/// A [`BatchObserver`] that ignores every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullBatchObserver;

impl BatchObserver for NullBatchObserver {}

/// A lock-free counting [`BatchObserver`] for progress reporting: started,
/// finished and failed job counts, readable from any thread while the batch
/// runs.
#[derive(Debug, Default)]
pub struct BatchProgress {
    started: AtomicUsize,
    finished: AtomicUsize,
    failed: AtomicUsize,
}

impl BatchProgress {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        BatchProgress::default()
    }

    /// Jobs that have started executing.
    pub fn started(&self) -> usize {
        self.started.load(AtomicOrdering::Relaxed)
    }

    /// Jobs that have finished (successfully or not).
    pub fn finished(&self) -> usize {
        self.finished.load(AtomicOrdering::Relaxed)
    }

    /// Jobs that finished with an error.
    pub fn failed(&self) -> usize {
        self.failed.load(AtomicOrdering::Relaxed)
    }
}

impl BatchObserver for BatchProgress {
    fn on_job_started(&self, _index: usize, _label: &str) {
        self.started.fetch_add(1, AtomicOrdering::Relaxed);
    }

    fn on_job_finished(&self, _index: usize, outcome: &JobOutcome) {
        if !outcome.is_ok() {
            self.failed.fetch_add(1, AtomicOrdering::Relaxed);
        }
        self.finished.fetch_add(1, AtomicOrdering::Relaxed);
    }
}

/// Executes a [`BatchPlan`] over a scoped worker pool with one shared plan
/// cache (see the module docs for the determinism contract).
#[derive(Debug, Clone)]
pub struct BatchRunner {
    worker_threads: usize,
    plans: Arc<PlanCache>,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// Creates a runner with a fresh plan cache and as many workers as the
    /// machine offers (`std::thread::available_parallelism`).
    pub fn new() -> Self {
        BatchRunner {
            worker_threads: 0,
            plans: Arc::new(PlanCache::new()),
        }
    }

    /// Sets the worker-thread count; `0` restores the hardware default.
    /// Results are identical for every value — only wall-clock time changes.
    #[must_use]
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Replaces the evaluation-plan cache, pooling compiled
    /// [`exi_netlist::EvalPlan`]s with other batches (or hand-rolled
    /// [`Simulator::with_plan_cache`] sessions) holding the same cache.
    #[must_use]
    pub fn shared_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plans = cache;
        self
    }

    /// The evaluation-plan cache this runner hands to its workers.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// The effective worker count [`BatchRunner::run`] will use.
    pub fn effective_worker_threads(&self) -> usize {
        if self.worker_threads > 0 {
            self.worker_threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Runs every job of `plan` and collects submission-ordered outcomes.
    pub fn run(&self, plan: &BatchPlan) -> BatchResult {
        self.run_observed(plan, &NullBatchObserver)
    }

    /// As [`BatchRunner::run`], reporting progress to `observer`.
    ///
    /// A panicking job is caught (`catch_unwind`) on its worker and reported
    /// as [`JobError::Panicked`] — it never takes the batch, or any other
    /// job, down with it. A panicking simulation is still a bug worth
    /// reporting; the isolation is about blast radius, not about making
    /// panics part of the API.
    pub fn run_observed(&self, plan: &BatchPlan, observer: &dyn BatchObserver) -> BatchResult {
        let started = Instant::now();
        let threads = self.effective_worker_threads();
        let jobs = plan.jobs();
        let mut slots: Vec<Option<JobOutcome>> = jobs.iter().map(|_| None).collect();
        for (i, outcome) in self.run_jobs(jobs, threads, observer) {
            slots[i] = Some(outcome);
        }

        // --- Merge, in submission order. ---
        // A slot can be empty when its worker thread died outside the
        // per-job panic shield (e.g. a panicking `BatchObserver` callback
        // took the whole thread down before the job reported back). Those
        // jobs get an explicit Panicked outcome instead of poisoning the
        // merge.
        let outcomes: Vec<JobOutcome> = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.unwrap_or_else(|| {
                    let outcome = JobOutcome {
                        label: jobs[i].label.clone(),
                        method: jobs[i].method,
                        result: Err(JobError::Panicked {
                            message: "worker thread terminated before the job reported an outcome"
                                .to_string(),
                        }),
                        stats: RunStats::new(),
                        worker: None,
                    };
                    observer.on_job_finished(i, &outcome);
                    outcome
                })
            })
            .collect();
        let mut stats = RunStats::new();
        for outcome in &outcomes {
            stats.absorb(&outcome.stats);
        }
        stats.batch_jobs = outcomes.len();
        stats.worker_threads = threads;
        observer.on_batch_finished(&stats);
        BatchResult {
            jobs: outcomes,
            stats,
            wall_time: started.elapsed(),
        }
    }

    /// Runs every job across up to `threads` scoped workers, each taking the
    /// next job in submission order when it frees up.
    fn run_jobs(
        &self,
        jobs: &[BatchJob],
        threads: usize,
        observer: &dyn BatchObserver,
    ) -> Vec<(usize, JobOutcome)> {
        let workers = threads.min(jobs.len());
        let cursor = AtomicUsize::new(0);
        let plans = &self.plans;
        let cursor = &cursor;
        // Finished jobs report into a shared buffer immediately (one lock
        // acquisition per *job*, not per step — invisible next to a
        // transient run), so a worker that later dies outside the per-job
        // panic shield loses only the job it was on, never work it already
        // completed.
        let results = std::sync::Mutex::new(Vec::with_capacity(jobs.len()));
        let results_ref = &results;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || loop {
                        let i = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        observer.on_job_started(i, &job.label);
                        let mut outcome = run_job(job, plans);
                        outcome.worker = Some(w);
                        observer.on_job_finished(i, &outcome);
                        results_ref
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .push((i, outcome));
                    })
                })
                .collect();
            for handle in handles {
                // Job panics are caught inside `BatchJob::execute`; a join error
                // here means the worker died outside that shield (e.g. in a
                // `BatchObserver` callback). Only its in-flight job is lost
                // — the merge backfills that slot with a Panicked outcome
                // instead of propagating the panic.
                let _ = handle.join();
            }
        });
        results
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The text carried by a panic payload, when it has one.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job of a batch: validates its options, resolves its probes (in
/// [`Simulator::transient`]'s order), and hands the observer of its sink to
/// [`BatchJob::execute`].
fn run_job(job: &BatchJob, plans: &Arc<PlanCache>) -> JobOutcome {
    let outcome = |result, stats| JobOutcome {
        label: job.label.clone(),
        method: job.method,
        result,
        stats,
        worker: None,
    };
    let probe_names: Vec<&str> = job.probes.iter().map(String::as_str).collect();
    let checked = job
        .options
        .validate()
        .and_then(|()| resolve_probes(&job.circuit, &probe_names));
    let probes = match checked {
        Ok(probes) => probes,
        Err(e) => return outcome(Err(JobError::Sim(e)), RunStats::new()),
    };
    let (stopped, output, stats) = match job.sink {
        JobSink::Record => {
            let mut observer = RecordingObserver::new(probes, job.options.record_full_states);
            let (stopped, stats) = job.execute(plans, &mut observer, |_| false);
            (stopped, JobOutput::Recorded(observer.into_result()), stats)
        }
        JobSink::Stream { capacity } => {
            let mut observer = StreamingObserver::new(probes, capacity);
            let (stopped, stats) = job.execute(plans, &mut observer, |_| false);
            (
                stopped,
                JobOutput::Streamed(observer.into_waveform()),
                stats,
            )
        }
    };
    let result = match stopped {
        Ok(None) => Ok(output),
        Ok(Some((reason, at_time))) => Err(JobError::Cancelled {
            reason,
            at_time,
            partial: Some(output),
        }),
        Err(e) => Err(e),
    };
    outcome(result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exi_netlist::Waveform;

    fn rc_circuit(r: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "Vin",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-13).unwrap();
        ckt
    }

    fn options() -> TransientOptions {
        TransientOptions {
            t_stop: 5e-10,
            h_init: 1e-12,
            h_max: 2e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        }
    }

    #[test]
    fn batch_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BatchPlan>();
        assert_send_sync::<BatchJob>();
        assert_send_sync::<BatchRunner>();
        assert_send_sync::<BatchResult>();
        assert_send_sync::<JobOutcome>();
        assert_send_sync::<BatchProgress>();
        assert_send_sync::<Circuit>();
        assert_send_sync::<TransientResult>();
    }

    #[test]
    fn empty_plan_yields_empty_result() {
        let result = BatchRunner::new().worker_threads(4).run(&BatchPlan::new());
        assert!(result.is_empty());
        assert_eq!(result.len(), 0);
        assert!(result.all_ok());
        assert_eq!(result.stats.batch_jobs, 0);
        assert_eq!(result.stats.worker_threads, 4);
    }

    #[test]
    fn same_topology_jobs_share_one_symbolic_analysis() {
        let mut plan = BatchPlan::new();
        for k in 0..4 {
            plan.push(
                BatchJob::new(
                    format!("job{k}"),
                    rc_circuit(1e3),
                    Method::ExponentialRosenbrock,
                    options(),
                )
                .probe("out"),
            );
        }
        let result = BatchRunner::new().worker_threads(2).run(&plan);
        assert!(result.all_ok());
        assert_eq!(result.stats.batch_jobs, 4);
        assert_eq!(result.stats.worker_threads, 2);
        // One plan, one `G` ordering; each job pivots its own `G` once.
        assert_eq!(result.stats.plan_compilations, 1, "{:?}", result.stats);
        assert_eq!(result.stats.symbolic_analyses, 4, "{:?}", result.stats);
        assert_eq!(result.stats.shared_symbolic_hits, 3);
    }

    #[test]
    fn worker_attribution_accounts_for_every_executed_job() {
        let mut plan = BatchPlan::new();
        for k in 0..6 {
            plan.push(
                BatchJob::new(
                    format!("job{k}"),
                    rc_circuit(1e3 + k as f64),
                    Method::ExponentialRosenbrock,
                    options(),
                )
                .probe("out"),
            );
        }
        let result = BatchRunner::new().worker_threads(2).run(&plan);
        assert!(result.all_ok());
        // Every executed job names a worker slot inside the pool.
        for job in &result.jobs {
            let w = job.worker.expect("executed job must be attributed");
            assert!(w < 2, "worker slot {w} out of range");
        }
        // The per-worker breakdown is a partition of the active solver time
        // (merged runtime minus merged cache wait).
        let active = result.worker_active();
        assert_eq!(active.len(), 2);
        let total: f64 = active.iter().sum();
        assert!(
            (total - result.stats.active_solver_seconds()).abs() <= 1e-6 * total.max(1.0),
            "per-worker sum {total} vs merged {}",
            result.stats.active_solver_seconds()
        );
        assert_eq!(result.worker_cache_wait().len(), 2);
        // A job that cannot even compile its plan still ran on a worker.
        let mut bad = BatchPlan::new();
        bad.push(BatchJob::new(
            "empty-circuit",
            Circuit::new(),
            Method::ExponentialRosenbrock,
            options(),
        ));
        let failed = BatchRunner::new().worker_threads(2).run(&bad);
        assert_eq!(failed.failed(), 1);
        assert_eq!(failed.jobs[0].worker, Some(0));
        assert_eq!(failed.worker_active().len(), 2);
    }

    #[test]
    fn failed_job_does_not_poison_the_batch() {
        let mut plan = BatchPlan::new();
        plan.push(
            BatchJob::new(
                "good",
                rc_circuit(1e3),
                Method::ExponentialRosenbrock,
                options(),
            )
            .probe("out"),
        );
        // Invalid options: h_init > t_stop.
        let bad = TransientOptions {
            h_init: 1.0,
            ..options()
        };
        plan.push(BatchJob::new(
            "bad-options",
            rc_circuit(1e3),
            Method::ExponentialRosenbrock,
            bad,
        ));
        // Unknown probe name.
        plan.push(
            BatchJob::new(
                "bad-probe",
                rc_circuit(1e3),
                Method::ExponentialRosenbrock,
                options(),
            )
            .probe("nope"),
        );
        let result = BatchRunner::new().worker_threads(3).run(&plan);
        assert_eq!(result.len(), 3);
        assert_eq!(result.failed(), 2);
        assert!(result.jobs[0].is_ok());
        assert!(!result.jobs[1].is_ok());
        assert!(!result.jobs[2].is_ok());
        assert!(result.jobs[0].recorded().is_some());
        assert_eq!(result.stats.batch_jobs, 3);
    }

    #[test]
    fn progress_observer_counts_every_job() {
        let mut plan = BatchPlan::new();
        for k in 0..5 {
            plan.push(BatchJob::new(
                format!("j{k}"),
                rc_circuit(1e3 + k as f64),
                Method::ExponentialRosenbrock,
                options(),
            ));
        }
        plan.push(BatchJob::new(
            "fails",
            rc_circuit(1e3),
            Method::ExponentialRosenbrock,
            TransientOptions {
                h_init: 1.0,
                ..options()
            },
        ));
        let progress = BatchProgress::new();
        let result = BatchRunner::new()
            .worker_threads(2)
            .run_observed(&plan, &progress);
        assert_eq!(progress.started(), 6);
        assert_eq!(progress.finished(), 6);
        assert_eq!(progress.failed(), 1);
        assert_eq!(result.failed(), 1);
    }

    #[test]
    fn streaming_sink_bounds_memory() {
        let mut plan = BatchPlan::new();
        plan.push(
            BatchJob::new(
                "stream",
                rc_circuit(1e3),
                Method::ExponentialRosenbrock,
                options(),
            )
            .probe("out")
            .streaming(8),
        );
        let result = BatchRunner::new().worker_threads(1).run(&plan);
        assert!(result.all_ok());
        let streamed = result.jobs[0].streamed().expect("streamed output");
        assert!(streamed.len() < 8);
        assert!(streamed.observed >= streamed.len());
        assert!(streamed.stride.is_power_of_two());
        assert!(result.jobs[0].recorded().is_none());
    }
}

//! `sweep_corners`: a fleet of same-fingerprint corners through the
//! `BatchRunner`, the way `exi-cli sweep` drives it (2 workers, lanes off, a
//! fresh runner — and so fresh shared caches — per batch).

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use exi_sim::{
    resolve_probes, BatchJob, BatchObserver, BatchPlan, BatchResult, BatchRunner, JobOutcome,
    Method, Simulator,
};

use crate::report::Outcome;
use crate::single::{Fingerprint, IsolatedRun};
use crate::stats::{hash_f64s, median, percentile, ratio, steady_wall, SeedRng, HASH_SEED};
use crate::trace::Tracer;
use crate::workloads::{
    sweep_corners, CircuitKind, Corner, JITTER_STREAM, SMOKE_SCALE, SWEEP_BATCHES,
    SWEEP_BUILDS_PER_BATCH, SWEEP_KIND, SWEEP_WORKERS,
};
use crate::RunConfig;

const NAME: &str = "sweep_corners";
const METHOD: Method = Method::ExponentialRosenbrock;

fn probe_name(kind: &CircuitKind) -> String {
    kind.candidate_probes()
        .pop()
        .expect("mesh has candidate probes")
}

/// Builds the batch plan: one circuit per corner. This is the workload's
/// set-up — what a sweep user pays before the first job starts.
fn build_plan(kind: &CircuitKind, corners: &[Corner], seed: u64) -> Result<BatchPlan, String> {
    let probe = probe_name(kind);
    let mut rng = SeedRng::new(seed, JITTER_STREAM);
    let mut plan = BatchPlan::new();
    for corner in corners {
        let circuit = kind.build(&mut rng, corner.amplitude)?;
        plan.push(
            BatchJob::new(
                corner.label.clone(),
                circuit,
                METHOD,
                corner.options.clone(),
            )
            .probe(probe.clone()),
        );
    }
    Ok(plan)
}

/// Merged counters plus a hash over every job's recorded waveform.
fn fingerprint(result: &BatchResult) -> Fingerprint {
    let mut hash = HASH_SEED;
    for job in &result.jobs {
        if let Some(recorded) = job.recorded() {
            hash = hash_f64s(hash, &recorded.times);
            for row in &recorded.samples {
                hash = hash_f64s(hash, row);
            }
        }
    }
    Fingerprint::of(&result.stats, hash)
}

/// Records when each job started and finished, from the worker threads.
#[derive(Default)]
struct JobSpans(Mutex<Vec<(usize, Instant, Option<Instant>)>>);

impl BatchObserver for JobSpans {
    fn on_job_started(&self, index: usize, _label: &str) {
        let mut spans = self.0.lock().expect("span list lock");
        spans.push((index, Instant::now(), None));
    }
    fn on_job_finished(&self, index: usize, _outcome: &JobOutcome) {
        let now = Instant::now();
        let mut spans = self.0.lock().expect("span list lock");
        if let Some(span) = spans.iter_mut().find(|s| s.0 == index) {
            span.2 = Some(now);
        }
    }
}

/// One batch with the span of every job, in submission order.
struct ObservedBatch {
    result: BatchResult,
    spans: Vec<(Instant, Instant)>,
}

impl ObservedBatch {
    fn wall(&self) -> f64 {
        self.result.wall_time.as_secs_f64()
    }

    fn job_seconds(&self) -> Vec<f64> {
        self.spans
            .iter()
            .map(|(start, end)| end.duration_since(*start).as_secs_f64())
            .collect()
    }
}

/// Runs `plan` on a fresh runner — fresh shared caches, as every
/// `exi-cli sweep` invocation has — observing each job from outside.
fn observed_batch(plan: &BatchPlan, workers: usize) -> ObservedBatch {
    let observer = JobSpans::default();
    let result = BatchRunner::new()
        .worker_threads(workers)
        .run_observed(plan, &observer);
    let mut recorded = observer.0.into_inner().expect("span list lock");
    recorded.sort_by_key(|span| span.0);
    let spans = recorded
        .into_iter()
        .map(|(_, start, end)| (start, end.unwrap_or(start)))
        .collect();
    ObservedBatch { result, spans }
}

fn count_jobs(result: &BatchResult, outcome: &mut Outcome) {
    for job in &result.jobs {
        outcome.check(match job.error() {
            None => Ok(()),
            Some(e) => Err(format!("{NAME}: job {} failed: {e}", job.label)),
        });
    }
}

/// Compares two corners of a batch bit for bit against isolated sessions.
fn compare_isolated(plan: &BatchPlan, result: &BatchResult, outcome: &mut Outcome) {
    let last = plan.len() - 1;
    for index in [0, last] {
        let job = &plan.jobs()[index];
        let names: Vec<&str> = job.probes.iter().map(String::as_str).collect();
        let verdict = Simulator::new(&job.circuit)
            .transient(job.method, &job.options, &names)
            .map_err(|e| format!("{NAME}: isolated run of {} failed: {e}", job.label))
            .and_then(|alone| match result.jobs[index].recorded() {
                Some(batched)
                    if batched.times == alone.times && batched.samples == alone.samples =>
                {
                    Ok(())
                }
                _ => Err(format!(
                    "{NAME}: {} differs from its isolated run",
                    job.label
                )),
            });
        outcome.check(verdict);
    }
}

pub fn run(config: &RunConfig) -> Outcome {
    Outcome::collect(NAME, |outcome| run_inner(config, outcome))
}

fn run_inner(config: &RunConfig, outcome: &mut Outcome) -> Result<(), String> {
    let kind = if config.smoke {
        SWEEP_KIND.scaled(SMOKE_SCALE)
    } else {
        SWEEP_KIND
    };
    let corners = sweep_corners(config.seed, config.smoke);
    let tracer = RefCell::new(Tracer::new(config.seed));
    let op = tracer.borrow_mut().begin("op", None);

    // Set-up: the plan is built once here and a few times more before every
    // batch, so that the builds sample the host's speed as widely as the
    // batches.
    let mut setups = Vec::new();
    let mut timed_build = || {
        let id = tracer.borrow_mut().begin("setup.build", None);
        let at = Instant::now();
        let plan = build_plan(&kind, &corners, config.seed);
        setups.push(at.elapsed().as_secs_f64());
        tracer.borrow_mut().end(id);
        plan
    };
    let plan = timed_build()?;

    // Warm-up batch: allocator growth and page faults, and the reference
    // fingerprint.
    let warm = observed_batch(&plan, SWEEP_WORKERS);
    // The plan and one batch: before anything else shares the process.
    outcome.set("peak_rss_mb", crate::peak_rss_mb(None));
    count_jobs(&warm.result, outcome);
    let first = fingerprint(&warm.result);
    compare_isolated(&plan, &warm.result, outcome);

    let mut batches = Vec::new();
    for index in 0..config.repetitions(SWEEP_BATCHES) {
        if config.spreads_setups() {
            for _ in 0..SWEEP_BUILDS_PER_BATCH {
                timed_build()?;
            }
        }
        let id = tracer.borrow_mut().begin("batch", Some(index));
        let batch = observed_batch(&plan, SWEEP_WORKERS);
        tracer.borrow_mut().end(id);
        count_jobs(&batch.result, outcome);
        outcome.check(fingerprint(&batch.result).same_as(&first, NAME));
        let mut t = tracer.borrow_mut();
        for (job, (start, end)) in batch.spans.iter().enumerate() {
            t.record("job", Some(job), Some(id), *start, *end);
        }
        drop(t);
        batches.push(batch);
    }
    outcome.set_fastest("setup_s", &setups);
    outcome.set("netlist.build_s", median(&setups) / plan.len() as f64);
    let walls: Vec<f64> = batches.iter().map(ObservedBatch::wall).collect();
    let job_columns: Vec<Vec<f64>> = batches.iter().map(ObservedBatch::job_seconds).collect();
    // The jobs are a batch's sub-units: a batch's wall over its summed job
    // time is what scheduling, cache waits and the tail cost.
    let wall = steady_wall(&walls, &job_columns);
    outcome.set_from_repetitions("wall_s", wall, batches.len());
    outcome.set("wall_median_s", median(&walls));
    let jobs = plan.len() as f64;
    outcome.set("jobs_per_s", ratio(jobs, wall));
    let last = &batches.last().expect("at least one batch ran").result;

    let stats = &last.stats;
    let busy: f64 = last.worker_active().iter().sum();
    let job_seconds: Vec<f64> = last
        .jobs
        .iter()
        .map(|j| j.stats.runtime_seconds())
        .collect();
    outcome.set(
        "batch.worker_busy_ratio",
        ratio(busy, SWEEP_WORKERS as f64 * last.wall_time.as_secs_f64()),
    );
    outcome.set("batch.cache_wait_s", stats.cache_wait_seconds());
    outcome.set("batch.symbolic_analyses", stats.symbolic_analyses as f64);
    outcome.set("batch.plan_compilations", stats.plan_compilations as f64);
    outcome.set(
        "batch.shared_symbolic_hits",
        stats.shared_symbolic_hits as f64,
    );
    outcome.set("batch.job_s_p50", median(&job_seconds));
    outcome.set("batch.job_s_max", percentile(&job_seconds, 100.0));

    if config.trace {
        let single = BatchRunner::new().worker_threads(1).run(&plan);
        count_jobs(&single, outcome);
        outcome.check(fingerprint(&single).same_as(&first, NAME));
        outcome.set(
            "batch.speedup_vs_1",
            ratio(single.wall_time.as_secs_f64(), median(&walls)),
        );
        // The job spans come from a `BatchObserver`; what it costs is the
        // difference to batches run without one.
        let mut unobserved = Vec::new();
        for _ in 0..batches.len() {
            let result = BatchRunner::new().worker_threads(SWEEP_WORKERS).run(&plan);
            count_jobs(&result, outcome);
            outcome.check(fingerprint(&result).same_as(&first, NAME));
            unobserved.push(result.wall_time.as_secs_f64());
        }
        outcome.set(
            "trace.overhead",
            ratio(median(&walls), median(&unobserved)) - 1.0,
        );
        trace_one_corner(&plan, &tracer, outcome)?;
        let note = tracer.borrow_mut().finish(op, &config.out_dir, NAME)?;
        outcome.notes.push(note);
    }
    Ok(())
}

/// The layer split of the fleet comes from its first corner run alone, on
/// its own session, with spans and probes: every corner is the same circuit
/// structure doing the same kind of steps, and a run measured in one
/// stretch keeps per-call costs and wall time comparable.
fn trace_one_corner(
    plan: &BatchPlan,
    tracer: &RefCell<Tracer>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let job = &plan.jobs()[0];
    let names: Vec<&str> = job.probes.iter().map(String::as_str).collect();
    let probes = resolve_probes(&job.circuit, &names).map_err(|e| e.to_string())?;
    IsolatedRun {
        name: NAME,
        circuit: &job.circuit,
        method: job.method,
        options: &job.options,
        probes: &probes,
    }
    .traced(3, tracer, outcome)?;
    Ok(())
}

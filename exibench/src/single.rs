//! Driving one transient the way a user of the session API would, timed
//! from outside: cold set-up, repeated runs with the determinism check, and
//! the traced variant that records spans and probes the layers between
//! steps.

use std::cell::RefCell;
use std::time::Instant;

use exi_netlist::{Circuit, EvalPlan};
use exi_sim::{
    resolve_probes, Engine, Method, Observer, Probe, RecordingObserver, RunStats, Simulator,
    StepOutcome, TransientOptions, TransientResult,
};

use crate::layers::{self, Prober};
use crate::refs::{self, Reference};
use crate::report::Outcome;
use crate::stats::{hash_f64s, median, ratio, steady_wall, HASH_SEED};
use crate::trace::Tracer;
use crate::workloads::{SingleInputs, SingleSpec};
use crate::RunConfig;

/// Step boundaries probed per traced run (at most).
const PROBES_PER_RUN: usize = 64;
/// Accepted `sim.ref_err_rel` under `--smoke`.
const SMOKE_TOLERANCE: f64 = 3e-2;

/// What one transient produced.
#[derive(Debug)]
pub struct RunRecord {
    /// `Simulator::stepper` → `finish`, seconds (probing excluded).
    pub wall: f64,
    /// Duration of each `advance()` that accepted a step.
    pub step_seconds: Vec<f64>,
    pub stats: RunStats,
    pub result: TransientResult,
    pub fingerprint: Fingerprint,
}

/// The counters and final-state hash every repetition must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub accepted_steps: usize,
    pub rejected_steps: usize,
    pub lu_factorizations: usize,
    pub krylov_dimension_total: usize,
    pub state_hash: u64,
}

impl Fingerprint {
    pub fn of(stats: &RunStats, state_hash: u64) -> Self {
        Fingerprint {
            accepted_steps: stats.accepted_steps,
            rejected_steps: stats.rejected_steps,
            lu_factorizations: stats.lu_factorizations,
            krylov_dimension_total: stats.krylov_dimension_total,
            state_hash,
        }
    }

    /// `Err` names what differs from `first`.
    pub fn same_as(&self, first: &Fingerprint, what: &str) -> Result<(), String> {
        if self == first {
            Ok(())
        } else {
            Err(format!(
                "{what}: determinism mismatch: {self:?} vs first {first:?}"
            ))
        }
    }
}

/// Forwards every event to the recorder inside an `observer.cb` span.
struct SpanObserver<'a> {
    inner: &'a mut RecordingObserver,
    tracer: &'a RefCell<Tracer>,
}

impl SpanObserver<'_> {
    fn spanned(&mut self, event: impl FnOnce(&mut RecordingObserver)) {
        let id = self.tracer.borrow_mut().begin("observer.cb", None);
        event(self.inner);
        self.tracer.borrow_mut().end(id);
    }
}

impl Observer for SpanObserver<'_> {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        self.spanned(|o| o.on_dc(t0, x0));
    }
    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        self.spanned(|o| o.on_step_accepted(t, x));
    }
    fn on_step_rejected(&mut self, t: f64, h: f64) {
        self.spanned(|o| o.on_step_rejected(t, h));
    }
    fn on_finish(&mut self, final_state: &[f64], stats: &RunStats) {
        self.spanned(|o| o.on_finish(final_state, stats));
    }
}

/// The traced variant of a run: where its spans go, and which step
/// boundaries get their layer calls probed.
pub struct Tracing<'t, 'p> {
    pub tracer: &'t RefCell<Tracer>,
    pub prober: &'t mut Prober<'p>,
    /// Probe every this-many accepted steps.
    pub probe_every: usize,
}

/// Runs one transient on `sim`'s warm session. When traced, every
/// `advance()` gets a `step[i]` span and the layer calls are probed between
/// steps, outside any span.
pub fn run_once(
    sim: &mut Simulator<'_>,
    method: Method,
    options: &TransientOptions,
    probes: &[Probe],
    mut tracing: Option<Tracing<'_, '_>>,
) -> Result<RunRecord, String> {
    let tracer = tracing.as_ref().map(|t| t.tracer);
    let probed_before = tracing.as_ref().map_or(0.0, |t| t.prober.seconds);
    let started = Instant::now();
    let mut recorder = RecordingObserver::new(probes.to_vec(), false);
    let mut stepper = sim.stepper(method, options).map_err(|e| e.to_string())?;
    let mut step_seconds = Vec::new();
    let stats = {
        let mut spanned;
        let observer: &mut dyn Observer = match tracer {
            Some(tracer) => {
                spanned = SpanObserver {
                    inner: &mut recorder,
                    tracer,
                };
                &mut spanned
            }
            None => &mut recorder,
        };
        stepper.start(observer).map_err(|e| e.to_string())?;
        loop {
            let span = tracer.map(|t| t.borrow_mut().begin("step", Some(step_seconds.len())));
            let at = Instant::now();
            let outcome = stepper.advance(observer).map_err(|e| e.to_string())?;
            let took = at.elapsed().as_secs_f64();
            if let (Some(t), Some(id)) = (tracer, span) {
                t.borrow_mut().end(id);
            }
            match outcome {
                StepOutcome::Advanced { t, h } => {
                    step_seconds.push(took);
                    if let Some(tracing) = &mut tracing {
                        if step_seconds.len() % tracing.probe_every == 0 {
                            tracing.prober.probe(t, h, stepper.state())?;
                        }
                    }
                }
                StepOutcome::Finished => break,
                StepOutcome::Paused { .. } => unreachable!("advance() never pauses"),
            }
        }
        let span = tracer.map(|t| t.borrow_mut().begin("finish", None));
        let stats = stepper.finish(observer);
        if let (Some(t), Some(id)) = (tracer, span) {
            t.borrow_mut().end(id);
        }
        stats
    };
    let state_hash = hash_f64s(HASH_SEED, stepper.state());
    drop(stepper);
    let probed = tracing.as_ref().map_or(0.0, |t| t.prober.seconds) - probed_before;
    let wall = started.elapsed().as_secs_f64() - probed;
    let fingerprint = Fingerprint::of(&stats, state_hash);
    Ok(RunRecord {
        wall,
        step_seconds,
        stats,
        result: recorder.into_result(),
        fingerprint,
    })
}

/// One cold set-up: everything before the first transient step.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    pub build_s: f64,
    pub dc_s: f64,
}

impl SetupSample {
    pub fn total(&self) -> f64 {
        self.build_s + self.dc_s
    }
}

/// Circuit build, then `Simulator::dc` on a fresh session (plan compile,
/// first symbolic analysis and the DC Newton solve), under the
/// `setup.build` and `setup.dc` spans.
pub fn cold_setup(
    inputs: &SingleInputs,
    tracer: &RefCell<Tracer>,
) -> Result<(SetupSample, Circuit), String> {
    let id = tracer.borrow_mut().begin("setup.build", None);
    let started = Instant::now();
    let circuit = inputs.build()?;
    let build_s = started.elapsed().as_secs_f64();
    tracer.borrow_mut().end(id);
    let id = tracer.borrow_mut().begin("setup.dc", None);
    let at = Instant::now();
    Simulator::new(&circuit).dc().map_err(|e| e.to_string())?;
    let dc_s = at.elapsed().as_secs_f64();
    tracer.borrow_mut().end(id);
    Ok((SetupSample { build_s, dc_s }, circuit))
}

/// The traced set-up on an already built circuit: a benchmark-owned plan
/// compile and the DC solve of a fresh session, each under its `setup.*`
/// span and reported as `netlist.plan_compile_s` / `sim.dc_s`.
pub fn traced_setup<'c>(
    circuit: &'c Circuit,
    tracer: &RefCell<Tracer>,
    outcome: &mut Outcome,
) -> Result<(EvalPlan, Simulator<'c>), String> {
    let id = tracer.borrow_mut().begin("setup.plan_compile", None);
    let at = Instant::now();
    let plan = EvalPlan::compile(circuit).map_err(|e| e.to_string())?;
    outcome.set("netlist.plan_compile_s", at.elapsed().as_secs_f64());
    tracer.borrow_mut().end(id);
    let mut sim = Simulator::new(circuit);
    let id = tracer.borrow_mut().begin("setup.dc", None);
    let at = Instant::now();
    sim.dc().map_err(|e| e.to_string())?;
    outcome.set("sim.dc_s", at.elapsed().as_secs_f64());
    tracer.borrow_mut().end(id);
    Ok((plan, sim))
}

/// The reference waveform for this invocation: the committed file at full
/// scale, computed on the spot for the (much smaller) smoke circuits.
fn reference_for(
    spec: &SingleSpec,
    inputs: &SingleInputs,
    circuit: &Circuit,
    smoke: bool,
) -> Result<Reference, String> {
    if smoke {
        Reference::compute(circuit, &inputs.options, &inputs.kind.candidate_probes())
    } else {
        refs::load(spec.reference)
    }
}

/// Runs one transient as one counted operation; a fingerprint that differs
/// from `first` fails it.
fn checked_run(
    sim: &mut Simulator<'_>,
    spec: &IsolatedRun<'_>,
    tracing: Option<Tracing<'_, '_>>,
    first: Option<&Fingerprint>,
    outcome: &mut Outcome,
) -> Result<RunRecord, String> {
    let record = run_once(sim, spec.method, spec.options, spec.probes, tracing)
        .map_err(|e| format!("transient failed: {e}"))?;
    outcome.check(match first {
        Some(first) => record.fingerprint.same_as(first, spec.name),
        None => Ok(()),
    });
    Ok(record)
}

/// One circuit run on its own session: what the timed and traced passes of
/// the single-run workloads measure, and what `sweep_corners` and
/// `serve_burst` use to split a representative job over the layers.
pub struct IsolatedRun<'a> {
    pub name: &'static str,
    pub circuit: &'a Circuit,
    pub method: Method,
    pub options: &'a TransientOptions,
    pub probes: &'a [Probe],
}

/// A warm-up run and the timings of the repetitions after it (their
/// waveforms are checked and dropped: `peak_rss_mb` should show the
/// simulator's memory, not the benchmark's bookkeeping).
pub struct Repetitions {
    pub warm: RunRecord,
    /// `VmHWM` right after the warm-up: one cold set-up and one session with
    /// one transient behind it, before anything else shares the process.
    pub peak_rss_mb: f64,
    pub walls: Vec<f64>,
    pub step_columns: Vec<Vec<f64>>,
}

impl Repetitions {
    fn new(warm: RunRecord, repetitions: usize) -> Self {
        Repetitions {
            warm,
            peak_rss_mb: crate::peak_rss_mb(None),
            walls: Vec::with_capacity(repetitions),
            step_columns: Vec::with_capacity(repetitions),
        }
    }

    fn push(&mut self, run: RunRecord) {
        self.walls.push(run.wall);
        self.step_columns.push(run.step_seconds);
    }

    /// One transient's wall time, the accepted steps being its sub-units.
    pub fn wall(&self) -> f64 {
        steady_wall(&self.walls, &self.step_columns)
    }
}

impl IsolatedRun<'_> {
    /// The timed pass: DC solve, one warm-up, `repetitions` transients, each
    /// checked against the warm-up's fingerprint. `between` runs before
    /// every repetition: the caller's cold set-ups, spread over the whole
    /// pass so that they sample the host's speed as widely as the
    /// repetitions do.
    pub fn timed(
        &self,
        repetitions: usize,
        between: &mut dyn FnMut() -> Result<(), String>,
        outcome: &mut Outcome,
    ) -> Result<Repetitions, String> {
        let mut sim = Simulator::new(self.circuit);
        sim.dc().map_err(|e| e.to_string())?;
        let warm = checked_run(&mut sim, self, None, None, outcome)?;
        let first = warm.fingerprint.clone();
        let mut plain = Repetitions::new(warm, repetitions);
        for _ in 0..repetitions {
            between()?;
            plain.push(checked_run(&mut sim, self, None, Some(&first), outcome)?);
        }
        Ok(plain)
    }

    /// The traced pass: the set-up under spans, one warm-up, then
    /// `repetitions` pairs of an untraced and a traced transient. Reports
    /// the per-layer metrics and returns the untraced runs.
    pub fn traced(
        &self,
        repetitions: usize,
        tracer: &RefCell<Tracer>,
        outcome: &mut Outcome,
    ) -> Result<Repetitions, String> {
        let (plan, mut sim) = traced_setup(self.circuit, tracer, outcome)?;
        let warm = checked_run(&mut sim, self, None, None, outcome)?;
        let fingerprint = warm.fingerprint.clone();
        let first = Some(&fingerprint);
        let probe_every = warm.stats.accepted_steps.max(1).div_ceil(PROBES_PER_RUN);
        let mut prober = Prober::new(self.circuit, &plan, self.method, self.options);
        let mut plain = Repetitions::new(warm, repetitions);
        let mut traced = Vec::with_capacity(repetitions);
        for _ in 0..repetitions {
            plain.push(checked_run(&mut sim, self, None, first, outcome)?);
            // Only the first traced run keeps its spans and probes the
            // layers; later ones measure the span overhead again.
            let scratch = RefCell::new(Tracer::new(0));
            let tracing = Tracing {
                tracer: if traced.is_empty() { tracer } else { &scratch },
                prober: &mut prober,
                probe_every: if traced.is_empty() {
                    probe_every
                } else {
                    usize::MAX
                },
            };
            traced.push(checked_run(&mut sim, self, Some(tracing), first, outcome)?);
        }
        let Some(kept) = traced.first() else {
            return Ok(plain);
        };
        // Shares are over the probed run's own wall time: its probes and
        // its steps saw the same host speed.
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall).collect();
        let observer_s = tracer.borrow().total_seconds("observer.cb");
        layers::report(&prober.samples, &kept.stats, kept.wall, observer_s, outcome);
        layers::report_steps(&kept.stats, &kept.step_seconds, outcome);
        outcome.set("sim.observer_share", ratio(observer_s, kept.wall));
        outcome.set(
            "trace.overhead",
            ratio(median(&traced_walls), median(&plain.walls)) - 1.0,
        );
        outcome.notes.push(format!(
            "{} step boundaries probed in {:.3} s, {} pattern changes among them; {} traced runs",
            prober.samples.restamp.len(),
            prober.seconds,
            prober.samples.pattern_changes,
            traced.len()
        ));
        Ok(plain)
    }
}

/// Runs a single-run workload; `config.trace` selects the timed or the
/// traced pass.
pub fn run(spec: &SingleSpec, config: &RunConfig) -> Outcome {
    Outcome::collect(spec.name, |outcome| run_inner(spec, config, outcome))
}

fn run_inner(spec: &SingleSpec, config: &RunConfig, outcome: &mut Outcome) -> Result<(), String> {
    let inputs = SingleInputs::new(spec, config.seed, config.smoke);
    let tracer = RefCell::new(Tracer::new(config.seed));
    let op = tracer.borrow_mut().begin("op", None);

    // Set-up: one cold set-up here (it also yields the circuit), the rest
    // of the timed pass's share between its repetitions.
    let (first_setup, circuit) = cold_setup(&inputs, &tracer)?;
    let mut setups = vec![first_setup];

    let names: Vec<&str> = inputs.probes.iter().map(String::as_str).collect();
    let probes = resolve_probes(&circuit, &names).map_err(|e| e.to_string())?;
    let reference = reference_for(spec, &inputs, &circuit, config.smoke)?;
    let isolated = IsolatedRun {
        name: spec.name,
        circuit: &circuit,
        method: spec.method,
        options: &inputs.options,
        probes: &probes,
    };
    let repetitions = config.repetitions(spec.repetitions);
    let measured = if config.trace {
        isolated.traced(repetitions, &tracer, outcome)?
    } else {
        let setups_each = if config.spreads_setups() {
            spec.setups_per_repetition
        } else {
            0
        };
        let mut cold_setups = || {
            for _ in 0..setups_each {
                setups.push(cold_setup(&inputs, &tracer)?.0);
            }
            Ok(())
        };
        isolated.timed(repetitions, &mut cold_setups, outcome)?
    };
    let totals: Vec<f64> = setups.iter().map(SetupSample::total).collect();
    outcome.set_fastest("setup_s", &totals);
    outcome.set(
        "netlist.build_s",
        median(&setups.iter().map(|s| s.build_s).collect::<Vec<_>>()),
    );
    if !config.trace {
        outcome.set(
            "sim.dc_s",
            median(&setups.iter().map(|s| s.dc_s).collect::<Vec<_>>()),
        );
    }

    let ref_err = reference.deviation(&measured.warm.result);
    // The tolerances were measured on the full-size circuits; the smoke
    // circuits only prove the oracle runs.
    let tolerance = if config.smoke {
        SMOKE_TOLERANCE
    } else {
        spec.tolerance
    };
    outcome.check(match &ref_err {
        Ok(dev) if *dev <= tolerance => Ok(()),
        Ok(dev) => Err(format!(
            "{}: deviation from reference {dev:.3e} above tolerance {tolerance:.1e}",
            spec.name
        )),
        Err(e) => Err(format!("{}: accuracy check: {e}", spec.name)),
    });
    outcome.set("sim.ref_err_rel", ref_err.unwrap_or(0.0));

    let wall = measured.wall();
    outcome.set_from_repetitions("wall_s", wall, measured.walls.len());
    outcome.set("wall_median_s", median(&measured.walls));
    outcome.set("peak_rss_mb", measured.peak_rss_mb);
    outcome.set("jobs_per_s", ratio(1.0, wall));
    if config.trace {
        let note = tracer.borrow_mut().finish(op, &config.out_dir, spec.name)?;
        outcome.notes.push(note);
    } else {
        layers::report_steps(&measured.warm.stats, &measured.warm.step_seconds, outcome);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_compare_every_field() {
        let stats = RunStats {
            accepted_steps: 3,
            ..RunStats::default()
        };
        let a = Fingerprint::of(&stats, 1);
        assert!(a.same_as(&a.clone(), "w").is_ok());
        let b = Fingerprint::of(&stats, 2);
        assert!(b.same_as(&a, "w").unwrap_err().contains("determinism"));
    }
}

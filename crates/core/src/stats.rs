//! Run statistics collected by the transient engines.
//!
//! These are the per-method columns of the paper's Table I: number of
//! accepted steps, average Newton iterations per step (BENR), average Krylov
//! subspace dimension per step (ER/ER-C), LU factorization count and runtime —
//! plus the symbolic-reuse and allocation counters introduced with the
//! KLU-style refactorization path (see `docs/PERFORMANCE.md`).
//!
//! [`RunStats::fields`] lists every field once, with the name it is reported
//! under and how [`RunStats::absorb`] merges it. The merge, the JSON writer
//! ([`RunStats::json_fields`]) and the by-name reader
//! ([`RunStats::from_named`]) walk that list, and so does every report that
//! carries a `RunStats` (`BENCH_table1.json`, `BENCH_sweep.json`, the
//! daemon's `done` and `stats` frames): a new counter is one field plus one
//! list entry.

use std::fmt::Write as _;
use std::ops::Add;
use std::time::Duration;

/// Counters accumulated over one transient analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Number of accepted time steps (`#step` in Table I).
    pub accepted_steps: usize,
    /// Number of rejected step attempts.
    pub rejected_steps: usize,
    /// Total Newton–Raphson iterations across all steps.
    pub newton_iterations: usize,
    /// Number of numeric LU factorizations performed, with or without a
    /// symbolic analysis of their own
    /// (`lu_factorizations == symbolic_analyses + lu_refactorizations`).
    /// Requests answered by the factor already held ([`RunStats::lu_reuses`])
    /// are not factorizations and do not count.
    pub lu_factorizations: usize,
    /// Number of **full** factorizations that had to run the symbolic
    /// analysis (pivot search and reachability DFS, plus the fill-reducing
    /// ordering unless the plan already held it — see
    /// [`RunStats::shared_symbolic_hits`]). With a fixed sparsity pattern a
    /// session needs exactly one of these per matrix role.
    pub symbolic_analyses: usize,
    /// Number of numeric-only refactorizations that reused a cached symbolic
    /// analysis (values changed, pattern did not).
    pub lu_refactorizations: usize,
    /// Number of times an engine asked for the factorization of a matrix
    /// whose values were, bit for bit, the ones its cached factor had been
    /// computed from (a [`exi_sparse::SparseLu::refactorize_with`] that
    /// recomputed no column) — answered with one compare pass over the
    /// values. A refactorization replays bit for bit on equal values, so
    /// this changes no result; on a linear circuit it is every ER step, and
    /// every BE/TR Newton iteration that keeps the previous `h`.
    pub lu_reuses: usize,
    /// Number of sparse triangular solves performed.
    pub linear_solves: usize,
    /// Number of full device evaluations.
    pub device_evaluations: usize,
    /// Number of [`exi_netlist::EvalPlan`] compilations performed (the
    /// one-time topology analysis of the stamping-plan path). A run on a
    /// fixed topology needs exactly one — per session, or per distinct
    /// circuit structure when a [`crate::PlanCache`] pools plans across a
    /// batch; a counter that scales with the step or run count means the
    /// plan reuse regressed.
    pub plan_compilations: usize,
    /// Number of times a session obtained its evaluation plan from a shared
    /// [`crate::PlanCache`] instead of compiling it. For an `N`-job
    /// same-structure batch the merged stats show `plan_compilations == 1`
    /// and `shared_plan_hits == N - 1`.
    pub shared_plan_hits: usize,
    /// Total nonlinear matrix entries rewritten by
    /// [`exi_netlist::EvalPlan::evaluate_into`] across all device
    /// evaluations. Per evaluation this is exactly the circuit's nonlinear
    /// stamp count ([`exi_netlist::EvalPlan::nonlinear_stamp_count`]) — the
    /// linear baseline is restored by flat copies and never re-stamped, so
    /// `restamped_entries == device_evaluations × nonlinear_stamp_count`
    /// (zero for linear circuits such as power grids and RC ladders).
    pub restamped_entries: usize,
    /// Number of Krylov subspaces built.
    pub krylov_subspaces: usize,
    /// Sum of the dimensions of all Krylov subspaces built.
    pub krylov_dimension_total: usize,
    /// Largest single Krylov subspace dimension seen.
    pub peak_krylov_dimension: usize,
    /// Circuit-sized heap allocations made by the Krylov workspace because
    /// its recycling pool was empty. In steady state this stops growing; a
    /// value that keeps climbing with the step count indicates a workspace
    /// reuse regression in the hot path.
    pub krylov_workspace_allocations: usize,
    /// Number of ER steps taken on the subspace an earlier step of the same
    /// piecewise-linear input segment had built for its start vector `v₀`,
    /// after it passed the Eq. (22) test at the time since that step plus
    /// the new step size — no device evaluation, no factor request, no
    /// solve and no subspace build. Only on plans without nonlinear stamps,
    /// where `(G, C)` cannot have changed in between; there every accepted
    /// step either counts here or evaluates the devices once.
    pub krylov_subspace_reuses: usize,
    /// Number of Krylov convergence tests scheduled (paper Eq. 22 for ER).
    /// The Arnoldi drive loop tests every dimension while a test costs
    /// no more than one more iteration, and on a geometric schedule once it
    /// costs more — so on long-vector circuits this equals
    /// `krylov_dimension_total − krylov_subspaces` (every dimension from 2
    /// up) and on short-vector, high-`m` circuits it is well below. A test
    /// that can pay computes one small dense exponential, `O(m³)` at
    /// subspace dimension `m`; one that cannot is screened first in `O(m²)`
    /// and computes it only when it may pass, but counts here either way.
    /// Re-tests of a subspace kept for its input segment
    /// ([`RunStats::krylov_subspace_reuses`], plus the ones that failed and
    /// led to a rebuild) count here too, unless the kept subspace is exact
    /// (its Arnoldi process broke down) and there is nothing to test.
    pub krylov_residual_tests: usize,
    /// Number of small dense matrix exponentials computed: one per
    /// convergence test the screen did not skip, one per φ evaluation that
    /// a test had not already paid for, plus one per stabilizing-shift
    /// retry. Not at least [`RunStats::krylov_residual_tests`]: on
    /// short-vector, high-`m` circuits most tests are skipped, and this is
    /// well below it.
    pub small_dense_exponentials: usize,
    /// Number of [`Observer`](crate::Observer) callback invocations the
    /// stepper performed (`on_dc` + accepted + rejected + `on_finish`).
    /// Compares recording overhead between observers: a
    /// [`NullObserver`](crate::NullObserver) run pays for the dispatch only.
    pub observer_callbacks: usize,
    /// Number of times a paused stepper was continued via
    /// [`Engine::run_until`](crate::Engine::run_until). Zero for an
    /// uninterrupted run; checkpointed long runs accumulate one per
    /// continuation.
    pub resumed_runs: usize,
    /// Number of batch jobs merged into these statistics by a
    /// [`BatchRunner`](crate::BatchRunner) (zero for a single run; failed
    /// jobs count — they did real work).
    pub batch_jobs: usize,
    /// Number of fresh `G` factorizations (counted in
    /// [`RunStats::symbolic_analyses`]) whose fill-reducing ordering the
    /// evaluation plan already held ([`exi_netlist::EvalPlan::g_ordering`]):
    /// the ordering is computed once per plan, whichever session asks
    /// first. For an `N`-job same-structure batch sharing one plan the
    /// merged stats show `symbolic_analyses == N` for `G` and
    /// `shared_symbolic_hits == N - 1`, at any worker count.
    pub shared_symbolic_hits: usize,
    /// Worker threads the executing [`BatchRunner`](crate::BatchRunner) used
    /// (zero for a plain run). [`RunStats::absorb`] keeps the maximum — for
    /// merged totals this is the batch's actual concurrency, not a sum.
    pub worker_threads: usize,
    /// Active wall-clock time of the analysis: the DC solve (for the run
    /// that triggered it) plus time spent inside `advance()`. Idle time while
    /// a stepper is paused (checkpointing, co-simulation interleaves) is not
    /// charged. Includes [`RunStats::cache_wait`]; subtract it (or use
    /// [`RunStats::active_solver_seconds`]) for the time actually spent
    /// solving.
    pub runtime: Duration,
    /// Time this run spent **blocked on the shared [`crate::PlanCache`]**
    /// instead of solving: its lock is held across a compile, so a
    /// concurrent same-structure fetch waits here. A subset of
    /// [`RunStats::runtime`]; reporting the two separately is what keeps a
    /// contended schedule from masquerading as solver work.
    pub cache_wait: Duration,
}

impl RunStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        RunStats::default()
    }

    /// Average Newton iterations per accepted step (`#NRa` in Table I).
    pub fn avg_newton_iterations(&self) -> f64 {
        if self.accepted_steps == 0 {
            0.0
        } else {
            self.newton_iterations as f64 / self.accepted_steps as f64
        }
    }

    /// Average Krylov subspace dimension (`#m_a` in Table I).
    pub fn avg_krylov_dimension(&self) -> f64 {
        if self.krylov_subspaces == 0 {
            0.0
        } else {
            self.krylov_dimension_total as f64 / self.krylov_subspaces as f64
        }
    }

    /// Total step attempts (accepted plus rejected).
    pub fn total_attempts(&self) -> usize {
        self.accepted_steps + self.rejected_steps
    }

    /// Fraction of LU factorizations served by the cheap numeric-only
    /// refactorization path (`0.0` when no factorization happened).
    pub fn refactorization_ratio(&self) -> f64 {
        if self.lu_factorizations == 0 {
            0.0
        } else {
            self.lu_refactorizations as f64 / self.lu_factorizations as f64
        }
    }

    /// Runtime in seconds (`RT(s)` in Table I).
    pub fn runtime_seconds(&self) -> f64 {
        self.runtime.as_secs_f64()
    }

    /// Time blocked on shared caches, in seconds (see
    /// [`RunStats::cache_wait`]).
    pub fn cache_wait_seconds(&self) -> f64 {
        self.cache_wait.as_secs_f64()
    }

    /// Runtime actually spent solving: [`RunStats::runtime`] minus
    /// [`RunStats::cache_wait`] (saturating — the plan fetch of a run whose
    /// DC solve was already cached can wait without accruing runtime).
    pub fn active_solver_seconds(&self) -> f64 {
        self.runtime.saturating_sub(self.cache_wait).as_secs_f64()
    }

    /// Every field, once, in declaration order: the name it is reported
    /// under, how [`RunStats::absorb`] merges it, and where it lives. A
    /// count's name is its field's name; a duration's name adds `_s`, and its
    /// value is in seconds.
    ///
    /// The list borrows mutably so that one list serves readers and writers
    /// alike; a reader walks a clone.
    pub fn fields(&mut self) -> impl Iterator<Item = Field<'_>> {
        use Merge::{Max, Sum};
        [
            Field::new("accepted_steps", Sum, &mut self.accepted_steps),
            Field::new("rejected_steps", Sum, &mut self.rejected_steps),
            Field::new("newton_iterations", Sum, &mut self.newton_iterations),
            Field::new("lu_factorizations", Sum, &mut self.lu_factorizations),
            Field::new("symbolic_analyses", Sum, &mut self.symbolic_analyses),
            Field::new("lu_refactorizations", Sum, &mut self.lu_refactorizations),
            Field::new("lu_reuses", Sum, &mut self.lu_reuses),
            Field::new("linear_solves", Sum, &mut self.linear_solves),
            Field::new("device_evaluations", Sum, &mut self.device_evaluations),
            Field::new("plan_compilations", Sum, &mut self.plan_compilations),
            Field::new("shared_plan_hits", Sum, &mut self.shared_plan_hits),
            Field::new("restamped_entries", Sum, &mut self.restamped_entries),
            Field::new("krylov_subspaces", Sum, &mut self.krylov_subspaces),
            Field::new(
                "krylov_dimension_total",
                Sum,
                &mut self.krylov_dimension_total,
            ),
            Field::new(
                "peak_krylov_dimension",
                Max,
                &mut self.peak_krylov_dimension,
            ),
            Field::new(
                "krylov_workspace_allocations",
                Sum,
                &mut self.krylov_workspace_allocations,
            ),
            Field::new(
                "krylov_subspace_reuses",
                Sum,
                &mut self.krylov_subspace_reuses,
            ),
            Field::new(
                "krylov_residual_tests",
                Sum,
                &mut self.krylov_residual_tests,
            ),
            Field::new(
                "small_dense_exponentials",
                Sum,
                &mut self.small_dense_exponentials,
            ),
            Field::new("observer_callbacks", Sum, &mut self.observer_callbacks),
            Field::new("resumed_runs", Sum, &mut self.resumed_runs),
            Field::new("batch_jobs", Sum, &mut self.batch_jobs),
            Field::new("shared_symbolic_hits", Sum, &mut self.shared_symbolic_hits),
            Field::new("worker_threads", Max, &mut self.worker_threads),
            Field::new("runtime_s", Sum, &mut self.runtime),
            Field::new("cache_wait_s", Sum, &mut self.cache_wait),
        ]
        .into_iter()
    }

    /// Folds another run's counters into these (session totals): each field
    /// merges by its rule in [`RunStats::fields`] — counts and times add up,
    /// peaks and concurrency keep the maximum.
    pub fn absorb(&mut self, other: &RunStats) {
        let mut other = other.clone();
        for (mine, theirs) in self.fields().zip(other.fields()) {
            match (mine.slot, theirs.slot) {
                (Slot::Count(a), Slot::Count(b)) => *a = mine.merge.apply(*a, *b),
                (Slot::Seconds(a), Slot::Seconds(b)) => *a = mine.merge.apply(*a, *b),
                _ => unreachable!("both sides walk the same list"),
            }
        }
    }

    /// Every field as the members of a flat JSON object, in list order and
    /// without the braces, so a report can add keys of its own: counts as
    /// integers, durations in seconds with six decimals.
    pub fn json_fields(&self) -> String {
        let mut out = String::new();
        for field in self.clone().fields() {
            if !out.is_empty() {
                out.push(',');
            }
            let _ = match field.slot {
                Slot::Count(n) => write!(out, "\"{}\":{n}", field.name),
                Slot::Seconds(t) => write!(out, "\"{}\":{:.6}", field.name, t.as_secs_f64()),
            };
        }
        out
    }

    /// Reads every field back by name: `lookup` returns the number reported
    /// under a name (seconds for a duration).
    ///
    /// # Errors
    ///
    /// The name of the first field `lookup` has no value for, or whose value
    /// does not fit: a count that is negative or fractional, a duration that
    /// is negative or not finite.
    pub fn from_named(
        mut lookup: impl FnMut(&str) -> Option<f64>,
    ) -> Result<RunStats, &'static str> {
        let mut stats = RunStats::default();
        for mut field in stats.fields() {
            if !lookup(field.name).is_some_and(|value| field.slot.set(value)) {
                return Err(field.name);
            }
        }
        Ok(stats)
    }
}

/// How [`RunStats::absorb`] merges one field of another run into these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// The totals add up.
    Sum,
    /// The larger value stays (peaks and concurrency).
    Max,
}

impl Merge {
    fn apply<T: Ord + Add<Output = T>>(self, mine: T, theirs: T) -> T {
        match self {
            Merge::Sum => mine + theirs,
            Merge::Max => mine.max(theirs),
        }
    }
}

/// Where one field of a [`RunStats`] lives.
#[derive(Debug)]
pub enum Slot<'a> {
    /// A count.
    Count(&'a mut usize),
    /// A duration, reported in seconds.
    Seconds(&'a mut Duration),
}

impl Slot<'_> {
    /// The value as reported: the count, or the duration in seconds.
    pub fn get(&self) -> f64 {
        match self {
            Slot::Count(n) => **n as f64,
            Slot::Seconds(t) => t.as_secs_f64(),
        }
    }

    /// Stores a reported value; `false` (and nothing stored) when it does
    /// not fit: a count that is negative or fractional, a duration that is
    /// negative or not finite.
    pub fn set(&mut self, value: f64) -> bool {
        match self {
            Slot::Count(n) if value >= 0.0 && value.fract() == 0.0 => **n = value as usize,
            Slot::Seconds(t) => match Duration::try_from_secs_f64(value) {
                Ok(value) => **t = value,
                Err(_) => return false,
            },
            Slot::Count(_) => return false,
        }
        true
    }
}

impl<'a> From<&'a mut usize> for Slot<'a> {
    fn from(count: &'a mut usize) -> Self {
        Slot::Count(count)
    }
}

impl<'a> From<&'a mut Duration> for Slot<'a> {
    fn from(time: &'a mut Duration) -> Self {
        Slot::Seconds(time)
    }
}

/// One entry of [`RunStats::fields`].
#[derive(Debug)]
pub struct Field<'a> {
    /// The name the field is reported under.
    pub name: &'static str,
    /// How [`RunStats::absorb`] merges it.
    pub merge: Merge,
    /// Where it lives.
    pub slot: Slot<'a>,
}

impl<'a> Field<'a> {
    fn new(name: &'static str, merge: Merge, slot: impl Into<Slot<'a>>) -> Self {
        Field {
            name,
            merge,
            slot: slot.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_zero_counts() {
        let s = RunStats::new();
        assert_eq!(s.avg_newton_iterations(), 0.0);
        assert_eq!(s.avg_krylov_dimension(), 0.0);
        assert_eq!(s.total_attempts(), 0);
        assert_eq!(s.refactorization_ratio(), 0.0);
    }

    #[test]
    fn averages_divide_by_the_right_denominator() {
        let s = RunStats {
            accepted_steps: 10,
            rejected_steps: 2,
            newton_iterations: 28,
            krylov_subspaces: 30,
            krylov_dimension_total: 900,
            ..RunStats::default()
        };
        assert!((s.avg_newton_iterations() - 2.8).abs() < 1e-12);
        assert!((s.avg_krylov_dimension() - 30.0).abs() < 1e-12);
        assert_eq!(s.total_attempts(), 12);
        assert_eq!(s.runtime_seconds(), 0.0);
    }

    #[test]
    fn refactorization_ratio_reflects_symbolic_reuse() {
        let s = RunStats {
            lu_factorizations: 40,
            symbolic_analyses: 1,
            lu_refactorizations: 39,
            ..RunStats::default()
        };
        assert!((s.refactorization_ratio() - 0.975).abs() < 1e-12);
        assert_eq!(
            s.lu_factorizations,
            s.symbolic_analyses + s.lu_refactorizations
        );
    }

    #[test]
    fn active_solver_time_excludes_cache_wait() {
        let s = RunStats {
            runtime: Duration::from_millis(250),
            cache_wait: Duration::from_millis(50),
            ..RunStats::default()
        };
        assert!((s.runtime_seconds() - 0.25).abs() < 1e-12);
        assert!((s.cache_wait_seconds() - 0.05).abs() < 1e-12);
        assert!((s.active_solver_seconds() - 0.2).abs() < 1e-12);
        // Wait outside the runtime window saturates instead of underflowing.
        let odd = RunStats {
            runtime: Duration::from_millis(10),
            cache_wait: Duration::from_millis(20),
            ..RunStats::default()
        };
        assert_eq!(odd.active_solver_seconds(), 0.0);
        // Waits are plain sums.
        let mut total = s.clone();
        total.absorb(&RunStats {
            cache_wait: Duration::from_millis(25),
            ..RunStats::default()
        });
        assert!((total.cache_wait_seconds() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_peaks() {
        let a = RunStats {
            accepted_steps: 10,
            symbolic_analyses: 1,
            lu_factorizations: 12,
            lu_refactorizations: 11,
            peak_krylov_dimension: 7,
            observer_callbacks: 13,
            resumed_runs: 2,
            ..RunStats::default()
        };
        let b = RunStats {
            accepted_steps: 5,
            lu_factorizations: 5,
            lu_refactorizations: 5,
            lu_reuses: 7,
            krylov_subspace_reuses: 3,
            peak_krylov_dimension: 9,
            observer_callbacks: 6,
            batch_jobs: 3,
            shared_symbolic_hits: 4,
            worker_threads: 2,
            ..RunStats::default()
        };
        let mut total = a.clone();
        total.absorb(&b);
        assert_eq!(total.accepted_steps, 15);
        assert_eq!(total.symbolic_analyses, 1);
        assert_eq!(total.peak_krylov_dimension, 9);
        // Reuses are plain sums, and stay out of the factorization identity.
        assert_eq!((total.lu_reuses, total.krylov_subspace_reuses), (7, 3));
        assert_eq!(
            total.lu_factorizations,
            total.symbolic_analyses + total.lu_refactorizations
        );
        assert_eq!(total.observer_callbacks, 19);
        assert_eq!(total.resumed_runs, 2);
        // Batch counters: jobs and ordering hits add up, concurrency maxes.
        assert_eq!(total.batch_jobs, 3);
        assert_eq!(total.shared_symbolic_hits, 4);
        assert_eq!(total.worker_threads, 2);
        let mut wide = total.clone();
        wide.absorb(&RunStats {
            worker_threads: 8,
            ..RunStats::default()
        });
        assert_eq!(wide.worker_threads, 8);
        // Plan-path counters are plain sums.
        let mut planned = RunStats {
            plan_compilations: 1,
            restamped_entries: 40,
            ..RunStats::default()
        };
        planned.absorb(&RunStats {
            shared_plan_hits: 3,
            restamped_entries: 2,
            ..RunStats::default()
        });
        assert_eq!(planned.plan_compilations, 1);
        assert_eq!(planned.shared_plan_hits, 3);
        assert_eq!(planned.restamped_entries, 42);
        assert_eq!(
            total.lu_factorizations,
            a.lu_factorizations + b.lu_factorizations
        );
    }

    /// Sets field `k` of the list to `k + 1` (seconds for a duration).
    fn numbered() -> RunStats {
        let mut stats = RunStats::default();
        for (k, mut field) in stats.fields().enumerate() {
            assert!(field.slot.set(k as f64 + 1.0), "{}", field.name);
        }
        stats
    }

    #[test]
    fn the_list_names_every_field_once_in_declaration_order() {
        // The pattern has no `..`: a field added to the struct without being
        // named here does not compile, and one named here but missing from
        // the list keeps its zero and fails below.
        macro_rules! declared {
            ($stats:expr; $($count:ident),*; $($time:ident),*) => {{
                let RunStats { $($count,)* $($time,)* } = $stats;
                vec![
                    $((stringify!($count).to_string(), $count as f64),)*
                    $((concat!(stringify!($time), "_s").to_string(), $time.as_secs_f64()),)*
                ]
            }};
        }
        let declared = declared!(numbered();
            accepted_steps, rejected_steps, newton_iterations, lu_factorizations,
            symbolic_analyses, lu_refactorizations, lu_reuses, linear_solves,
            device_evaluations, plan_compilations, shared_plan_hits, restamped_entries,
            krylov_subspaces, krylov_dimension_total, peak_krylov_dimension,
            krylov_workspace_allocations, krylov_subspace_reuses, krylov_residual_tests,
            small_dense_exponentials, observer_callbacks, resumed_runs, batch_jobs,
            shared_symbolic_hits, worker_threads;
            runtime, cache_wait);
        let expected: Vec<(String, f64)> = RunStats::default()
            .fields()
            .enumerate()
            .map(|(k, field)| (field.name.to_string(), k as f64 + 1.0))
            .collect();
        assert_eq!(declared, expected);
    }

    #[test]
    fn absorb_follows_each_fields_merge_rule() {
        let mut total = numbered();
        let mut other = numbered();
        other.peak_krylov_dimension = 1;
        total.absorb(&other);
        for ((mut mine, theirs), k) in total.fields().zip(other.fields()).zip(1..) {
            let value = mine.slot.get();
            match mine.merge {
                Merge::Sum => assert_eq!(value, theirs.slot.get() + k as f64, "{}", mine.name),
                Merge::Max => assert_eq!(value, k as f64, "{}", mine.name),
            }
            assert!(mine.slot.set(0.0));
        }
        assert_eq!(total, RunStats::default());
    }

    #[test]
    fn json_fields_read_back_by_name() {
        let stats = numbered();
        let json = stats.json_fields();
        assert!(
            json.starts_with("\"accepted_steps\":1,\"rejected_steps\":2,"),
            "{json}"
        );
        assert!(json.ends_with(",\"runtime_s\":25.000000,\"cache_wait_s\":26.000000"));
        let lookup = |name: &str| {
            let start = json.find(&format!("\"{name}\":"))? + name.len() + 3;
            let end = json[start..].find(',').map_or(json.len(), |k| start + k);
            json[start..end].parse().ok()
        };
        assert_eq!(RunStats::from_named(lookup), Ok(stats));
        // A missing or ill-fitting value names its field.
        assert_eq!(
            RunStats::from_named(|name| (name != "lu_reuses").then_some(1.0)),
            Err("lu_reuses")
        );
        assert_eq!(RunStats::from_named(|_| Some(0.5)), Err("accepted_steps"));
        assert_eq!(
            RunStats::from_named(|name| Some(if name == "runtime_s" { -1.0 } else { 0.0 })),
            Err("runtime_s")
        );
    }
}

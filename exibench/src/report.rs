//! The metric table and the result of one benchmark invocation.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; the `benchmark_json_matches_the_metric_table` test keeps the
//! two in step.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `0.0` for per-layer metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off, reported by
/// every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Single layers, measured in the traced run. A metric that does not apply
/// to a workload (Krylov numbers on BENR, `serve.*` off `serve_burst`)
/// reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("wall_median_s", "s", Lower),
    layer("jobs_per_s", "1/s", Higher),
    layer("netlist.build_s", "s", Lower),
    layer("netlist.plan_compile_s", "s", Lower),
    layer("netlist.restamp_us", "us", Lower),
    layer("netlist.restamp_calls", "count", Lower),
    layer("netlist.restamped_entries", "count", Lower),
    layer("netlist.restamp_share", "ratio", Lower),
    layer("sparse.symbolic_s", "s", Lower),
    layer("sparse.symbolic_calls", "count", Lower),
    layer("sparse.refactor_reuse_ratio", "ratio", Higher),
    layer("sparse.refactorize_us", "us", Lower),
    layer("sparse.refactorize_calls", "count", Lower),
    layer("sparse.refactorize_share", "ratio", Lower),
    layer("sparse.combine_us", "us", Lower),
    layer("sparse.solve_us", "us", Lower),
    layer("sparse.solve_calls", "count", Lower),
    layer("sparse.solve_share", "ratio", Lower),
    layer("sparse.spmv_us", "us", Lower),
    layer("sparse.factor_nnz", "count", Lower),
    layer("sparse.solve_gb_per_s_computed", "GB/s", Higher),
    layer("krylov.mevp_us", "us", Lower),
    layer("krylov.subspaces", "count", Lower),
    layer("krylov.avg_m", "count", Lower),
    layer("krylov.peak_m", "count", Lower),
    layer("krylov.operator_apply_us", "us", Lower),
    layer("krylov.small_dense_us", "us", Lower),
    layer("krylov.phi_eval_us", "us", Lower),
    layer("krylov.non_operator_share", "ratio", Lower),
    layer("krylov.mevp_share", "ratio", Lower),
    layer("krylov.workspace_allocations", "count", Lower),
    layer("sim.accepted_steps", "count", Lower),
    layer("sim.rejected_steps", "count", Lower),
    layer("sim.reject_ratio", "ratio", Lower),
    layer("sim.newton_per_step", "count", Lower),
    layer("sim.step_us_p50", "us", Lower),
    layer("sim.step_us_p95", "us", Lower),
    layer("sim.dc_s", "s", Lower),
    layer("sim.observer_callbacks", "count", Lower),
    layer("sim.observer_share", "ratio", Lower),
    layer("sim.ref_err_rel", "ratio", Lower),
    layer("batch.speedup_vs_1", "ratio", Higher),
    layer("batch.worker_busy_ratio", "ratio", Higher),
    layer("batch.cache_wait_s", "s", Lower),
    layer("batch.symbolic_analyses", "count", Lower),
    layer("batch.plan_compilations", "count", Lower),
    layer("batch.shared_symbolic_hits", "count", Higher),
    layer("batch.job_s_p50", "s", Lower),
    layer("batch.job_s_max", "s", Lower),
    layer("serve.req_p50_ms", "ms", Lower),
    layer("serve.req_p90_ms", "ms", Lower),
    layer("serve.ttfc_p50_ms", "ms", Lower),
    layer("serve.overhead_vs_direct", "ratio", Lower),
    layer("serve.cold_first_req_ms", "ms", Lower),
    layer("serve.rows_per_s", "1/s", Higher),
    layer("serve.bytes_per_req", "count", Lower),
    layer("serve.symbolic_analyses", "count", Lower),
    layer("serve.plan_compilations", "count", Lower),
    layer("serve.busy_or_rejected", "count", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
];

/// Looks a metric up in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    values: Vec<(&'static str, f64)>,
    /// How many observations a timing was built from, by metric name.
    samples: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Runs a workload body; an error it returns becomes one failed
    /// operation named after the workload.
    pub fn collect(
        workload: &str,
        body: impl FnOnce(&mut Outcome) -> Result<(), String>,
    ) -> Outcome {
        let mut outcome = Outcome::default();
        if let Err(e) = body(&mut outcome) {
            outcome.check(Err(format!("{workload}: {e}")));
        }
        outcome
    }

    /// Records a metric; the name must be in the metric table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(metric_def(name).is_some(), "unknown metric {name}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Records a timing as the fastest of `samples`, with their count.
    pub fn set_fastest(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, crate::stats::fastest(samples));
        self.samples
            .push((name, format!("fastest of {}", samples.len())));
    }

    /// Records a [`crate::stats::steady_wall`] with its repetition count.
    pub fn set_from_repetitions(&mut self, name: &'static str, value: f64, repetitions: usize) {
        self.set(name, value);
        self.samples
            .push((name, format!("steady wall of {repetitions} repetitions")));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts one attempted operation; `Err` marks it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.fail(message);
        }
    }

    /// Marks an already-counted operation as failed.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// The human-readable report: every recorded metric by name and unit.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            let def = metric_def(name).expect("metric is in the table");
            write!(out, "metric {name:<34} {value:>16.6} {}", def.unit).unwrap();
            if let Some((_, n)) = self.samples.iter().find(|(s, _)| s == name) {
                write!(out, "  ({n})").unwrap();
            }
            out.push('\n');
        }
        for note in &self.notes {
            writeln!(out, "note   {note}").unwrap();
        }
        for failure in &self.failures {
            writeln!(out, "FAILED {failure}").unwrap();
        }
        writeln!(
            out,
            "operations attempted {} failed {}",
            self.attempted, self.failed
        )
        .unwrap();
        out
    }

    /// The result line the driver reads: exactly the metrics of `table`.
    pub fn render_json(&self, table: &[MetricDef]) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
        .unwrap();
        for (i, def) in table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = self.get(def.name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn json_line_lists_exactly_the_requested_table() {
        let mut o = Outcome::default();
        o.set("wall_s", 1.25);
        o.set("setup_s", 0.5);
        o.set("sim.accepted_steps", 12.0);
        o.check(Ok(()));
        o.check(Err("boom".into()));
        let json = o.render_json(END_TO_END);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(json.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        assert!(!json.contains("sim.accepted_steps"));
        let text = o.render_text();
        assert!(text.contains("FAILED boom"));
        assert!(text.contains("sim.accepted_steps"));
    }

    /// `BENCHMARK.json` sits outside the package; the check runs wherever the
    /// file is present (a repository checkout) and is vacuous elsewhere.
    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(def.name));
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(|v| v.as_str()),
                    Some(def.better.as_str())
                );
                if key == "end_to_end" {
                    assert_eq!(entry.get("bound").and_then(|v| v.as_f64()), Some(def.bound));
                }
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}

//! The `sweep` subcommand: fan a `.param`-templated deck across value lists
//! through the [`BatchRunner`] fleet machinery.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use exi_netlist::{parse_deck_file_with_params, parse_deck_with_params, Deck};
use exi_sim::{BatchJob, BatchPlan, BatchRunner, JobOutcome, JobOutput, Method, RunStats};

use crate::run::{analysis_options, effective_probes};
use crate::{CliError, CliResult, OutputFormat};

/// Settings of one `exi-cli sweep` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Parameter value lists; the cartesian product defines the members.
    pub params: Vec<(String, Vec<String>)>,
    /// Integration method for every member.
    pub method: Method,
    /// Waveform format of the per-member output files.
    pub format: OutputFormat,
    /// Worker-thread count (`0` = all cores), forwarded to
    /// [`BatchRunner::worker_threads`].
    pub threads: usize,
    /// `Some(n)`: fixed-memory decimated capture per member.
    pub stream: Option<usize>,
    /// Probe overrides (same cascade as `run`).
    pub probes: Vec<String>,
    /// Exit successfully even when members failed (their waveforms are
    /// simply absent; failures stay listed in the member lines). The default
    /// reports a nonzero exit when any member failed.
    pub keep_going: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            params: Vec::new(),
            method: Method::ExponentialRosenbrock,
            format: OutputFormat::Csv,
            threads: 0,
            stream: None,
            probes: Vec::new(),
            keep_going: false,
        }
    }
}

/// What one sweep did — per-member lines plus the merged fleet statistics
/// ([`RunStats::shared_plan_hits`] and [`RunStats::shared_symbolic_hits`]
/// show the plan pooling at work).
#[derive(Debug)]
pub struct SweepSummary {
    /// Number of sweep members executed.
    pub members: usize,
    /// Number of failed members.
    pub failed: usize,
    /// Merged batch statistics.
    pub stats: RunStats,
    /// Wall-clock duration of the batch.
    pub wall_time: Duration,
    /// One human-readable line per member, in submission order.
    pub member_lines: Vec<String>,
}

/// Expands `--param` value lists into the cartesian product of labelled
/// override sets, in deterministic (row-major) order.
///
/// # Examples
///
/// ```
/// let grid = exi_cli::expand_param_grid(&[
///     ("r".to_string(), vec!["1k".to_string(), "2k".to_string()]),
///     ("c".to_string(), vec!["1p".to_string()]),
/// ]);
/// assert_eq!(grid.len(), 2);
/// assert_eq!(grid[0], vec![
///     ("r".to_string(), "1k".to_string()),
///     ("c".to_string(), "1p".to_string()),
/// ]);
/// ```
pub fn expand_param_grid(params: &[(String, Vec<String>)]) -> Vec<Vec<(String, String)>> {
    let mut grid: Vec<Vec<(String, String)>> = vec![Vec::new()];
    for (name, values) in params {
        let mut next = Vec::with_capacity(grid.len() * values.len());
        for combo in &grid {
            for value in values {
                let mut extended = combo.clone();
                extended.push((name.clone(), value.clone()));
                next.push(extended);
            }
        }
        grid = next;
    }
    grid
}

/// The member label of one override set: `r=1k,c=1p`.
pub fn member_label(combo: &[(String, String)]) -> String {
    combo
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// A file-system-safe spelling of a member label.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '=') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Builds the [`BatchPlan`] for a list of labelled sweep members.
///
/// Every member must carry at least one `.tran` card (the first one is
/// run); probes follow the same cascade as `run`. Members typically come
/// from re-parsing one deck with different `.param` overrides; members whose
/// circuits differ only in source waveforms share one compiled stamping
/// plan (and its `G` ordering). Every member pivots its own matrices, so
/// each is bit-identical to a `run` of its own deck.
///
/// # Errors
///
/// [`CliError::Deck`] when a member has no `.tran` card.
///
/// # Examples
///
/// ```
/// use exi_cli::{build_sweep_plan, SweepConfig};
/// use exi_netlist::parse_deck_with_params;
/// use exi_sim::BatchRunner;
///
/// # fn main() -> Result<(), exi_cli::CliError> {
/// let template = ".param rload=1k\n\
///                 Vin in 0 PULSE(0 1 0 10p 10p 200p)\n\
///                 R1 in out {rload}\n\
///                 C1 out 0 1f\n\
///                 .tran 1p 500p\n\
///                 .print v(out)\n";
/// let members: Vec<(String, exi_netlist::Deck)> = ["1k", "2k", "5k"]
///     .iter()
///     .map(|v| {
///         let overrides = [("rload".to_string(), v.to_string())];
///         Ok((
///             format!("rload={v}"),
///             parse_deck_with_params(template, &overrides)?,
///         ))
///     })
///     .collect::<Result<_, exi_cli::CliError>>()?;
/// let plan = build_sweep_plan(&members, &SweepConfig::default())?;
/// let result = BatchRunner::new().worker_threads(2).run(&plan);
/// assert!(result.all_ok());
/// // Three resistances, three plans; each member analyzes its own `G`.
/// assert_eq!(result.stats.plan_compilations, 3);
/// assert_eq!(result.stats.symbolic_analyses, 3);
/// # Ok(())
/// # }
/// ```
pub fn build_sweep_plan(members: &[(String, Deck)], config: &SweepConfig) -> CliResult<BatchPlan> {
    let mut plan = BatchPlan::new();
    for (label, deck) in members {
        let tran = deck
            .analyses
            .iter()
            .find_map(|a| analysis_options(deck, a))
            .ok_or_else(|| CliError::Deck(format!("sweep member '{label}' has no .tran card")))?;
        let mut job = BatchJob::new(label.clone(), deck.circuit.clone(), config.method, tran);
        for probe in effective_probes(deck, &config.probes) {
            job = job.probe(probe);
        }
        if let Some(capacity) = config.stream {
            job = job.streaming(capacity);
        }
        plan.push(job);
    }
    Ok(plan)
}

/// Runs a sweep over the deck at `path`: one member per point of the
/// `--param` cartesian product, each re-parsed with its overrides, all
/// executed by one [`BatchRunner`] and written as
/// `<output_dir>/<label>.{csv,tsv}`.
///
/// # Errors
///
/// Parse errors of any member, I/O errors, or [`CliError::Deck`] for decks
/// without `.tran` cards. Member *simulation* failures do not abort the
/// sweep — they are counted in [`SweepSummary::failed`].
pub fn run_sweep(path: &Path, config: &SweepConfig, output_dir: &Path) -> CliResult<SweepSummary> {
    let grid = expand_param_grid(&config.params);
    let mut members = Vec::with_capacity(grid.len());
    for combo in &grid {
        let label = member_label(combo);
        let deck = parse_deck_file_with_params(path, combo)?;
        members.push((label, deck));
    }
    let plan = build_sweep_plan(&members, config)?;
    // Fail before the batch runs, not after minutes of simulation, if the
    // output directory cannot be created.
    std::fs::create_dir_all(output_dir)?;
    let result = BatchRunner::new().worker_threads(config.threads).run(&plan);
    let extension = match config.format {
        OutputFormat::Csv => "csv",
        OutputFormat::Tsv => "tsv",
    };
    let mut member_lines = Vec::with_capacity(result.len());
    let mut taken = std::collections::HashSet::new();
    for outcome in &result.jobs {
        match &outcome.result {
            Ok(_) => {
                // Sanitization can collide (`a/b` and `a_b` both map to
                // `a_b`); suffix later members instead of overwriting.
                let base = sanitize(&outcome.label);
                let mut stem = base.clone();
                let mut n = 1usize;
                while !taken.insert(stem.clone()) {
                    n += 1;
                    stem = format!("{base}_{n}");
                }
                let file = output_dir.join(format!("{stem}.{extension}"));
                let mut writer = std::io::BufWriter::new(std::fs::File::create(&file)?);
                let rows = write_job_waveform(outcome, config.format, &mut writer)?;
                writer.flush()?;
                member_lines.push(format!(
                    "{}: {} rows -> {}",
                    outcome.label,
                    rows,
                    file.display()
                ));
            }
            Err(e) => member_lines.push(format!("{}: FAILED: {e}", outcome.label)),
        }
    }
    Ok(SweepSummary {
        members: result.len(),
        failed: result.failed(),
        stats: result.stats.clone(),
        wall_time: result.wall_time,
        member_lines,
    })
}

/// Writes a finished job's waveform (recorded or streamed) as
/// delimiter-separated rows, returning the data-row count.
///
/// # Errors
///
/// [`CliError::Deck`] for a failed job; I/O errors from the writer.
pub fn write_job_waveform(
    outcome: &JobOutcome,
    format: OutputFormat,
    out: &mut dyn Write,
) -> CliResult<usize> {
    let delimiter = format.delimiter();
    match &outcome.result {
        Ok(JobOutput::Recorded(result)) => {
            let labels: Vec<&str> = result.probes.iter().map(|p| p.label.as_str()).collect();
            crate::run::write_waveform_rows(
                &labels,
                result
                    .times
                    .iter()
                    .zip(&result.samples)
                    .map(|(&t, row)| (t, row.as_slice())),
                delimiter,
                out,
            )
        }
        Ok(JobOutput::Streamed(wave)) => {
            let labels: Vec<&str> = wave.probes.iter().map(|p| p.label.as_str()).collect();
            let np = wave.probes.len();
            crate::run::write_waveform_rows(
                &labels,
                wave.times
                    .iter()
                    .enumerate()
                    .map(|(k, &t)| (t, &wave.values[k * np..(k + 1) * np])),
                delimiter,
                out,
            )
        }
        Err(e) => Err(CliError::Deck(format!(
            "job '{}' failed: {e}",
            outcome.label
        ))),
    }
}

/// Parses one templated deck text per override set — the string-based twin
/// of [`run_sweep`]'s file loop, used by tests and doc examples.
///
/// # Errors
///
/// Parse errors of any member.
pub fn members_from_template(
    template: &str,
    grid: &[Vec<(String, String)>],
) -> CliResult<Vec<(String, Deck)>> {
    grid.iter()
        .map(|combo| {
            Ok((
                member_label(combo),
                parse_deck_with_params(template, combo)?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEMPLATE: &str = ".param rload=1k\n\
                            Vin in 0 PULSE(0 1 0 10p 10p 200p)\n\
                            R1 in out {rload}\n\
                            C1 out 0 1f\n\
                            .tran 1p 400p\n\
                            .print v(out)\n";

    #[test]
    fn param_grid_is_a_cartesian_product() {
        let grid = expand_param_grid(&[
            ("a".into(), vec!["1".into(), "2".into()]),
            ("b".into(), vec!["x".into(), "y".into(), "z".into()]),
        ]);
        assert_eq!(grid.len(), 6);
        assert_eq!(member_label(&grid[0]), "a=1,b=x");
        assert_eq!(member_label(&grid[5]), "a=2,b=z");
        // No params: a single empty member.
        assert_eq!(expand_param_grid(&[]).len(), 1);
    }

    #[test]
    fn sanitized_labels_are_file_system_safe() {
        assert_eq!(sanitize("r=1k,c/2"), "r=1k_c_2");
    }

    #[test]
    fn sweep_members_share_caches_and_write_waveforms() {
        let grid = expand_param_grid(&[(
            "rload".to_string(),
            vec!["1k".into(), "2k".into(), "5k".into()],
        )]);
        let members = members_from_template(TEMPLATE, &grid).unwrap();
        let plan = build_sweep_plan(&members, &SweepConfig::default()).unwrap();
        assert_eq!(plan.len(), 3);
        let result = BatchRunner::new().worker_threads(2).run(&plan);
        assert!(result.all_ok());
        // Distinct resistances: three plans, and each member analyzes its
        // own `G` under its own plan's ordering.
        assert_eq!(result.stats.plan_compilations, 3);
        assert_eq!(result.stats.symbolic_analyses, 3);
        assert_eq!(result.stats.shared_symbolic_hits, 0);
        let mut out = Vec::new();
        let rows = write_job_waveform(&result.jobs[0], OutputFormat::Csv, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("time,out\n"));
        assert_eq!(text.lines().count(), rows + 1);
    }

    #[test]
    fn members_without_tran_cards_are_rejected() {
        let deck = exi_netlist::parse_deck("V1 a 0 DC 1\nR1 a 0 1k\n.op\n").unwrap();
        let e = build_sweep_plan(&[("only-op".to_string(), deck)], &SweepConfig::default())
            .unwrap_err();
        assert!(matches!(e, CliError::Deck(_)), "{e:?}");
    }

    #[test]
    fn streamed_sweep_members_bound_their_memory() {
        let grid = expand_param_grid(&[("rload".to_string(), vec!["1k".into()])]);
        let members = members_from_template(TEMPLATE, &grid).unwrap();
        let config = SweepConfig {
            stream: Some(8),
            ..SweepConfig::default()
        };
        let plan = build_sweep_plan(&members, &config).unwrap();
        let result = BatchRunner::new().worker_threads(1).run(&plan);
        assert!(result.all_ok());
        let streamed = result.jobs[0].streamed().expect("streamed sink");
        assert!(streamed.len() < 8);
        let mut out = Vec::new();
        let rows = write_job_waveform(&result.jobs[0], OutputFormat::Tsv, &mut out).unwrap();
        assert_eq!(rows, streamed.len());
        assert!(String::from_utf8(out).unwrap().starts_with("time\tout\n"));
    }
}

//! The `run` subcommand: drive every analysis card of one deck through a
//! [`Simulator`] session.

use std::io::Write;

use exi_netlist::{Analysis, Deck};
use exi_sim::{
    analysis_options, resolve_probes, CsvObserver, Method, RunStats, Simulator, StreamingObserver,
};

use crate::{CliError, CliResult, OutputFormat};

/// Settings of one `exi-cli run` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Integration method for `.tran` analyses.
    pub method: Method,
    /// Waveform format.
    pub format: OutputFormat,
    /// `Some(n)` streams through a fixed-memory decimated buffer of at most
    /// `n` points ([`StreamingObserver`]); `None` writes every accepted point
    /// as it is computed ([`CsvObserver`]).
    pub stream: Option<usize>,
    /// Probe overrides; empty means "the deck's `.print` cards, else every
    /// node".
    pub probes: Vec<String>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            method: Method::ExponentialRosenbrock,
            format: OutputFormat::Csv,
            stream: None,
            probes: Vec::new(),
        }
    }
}

/// What one [`run_deck`] call did.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Number of analysis cards executed.
    pub analyses: usize,
    /// Total waveform data rows written (headers not counted).
    pub rows: usize,
    /// The session's cumulative statistics.
    pub stats: RunStats,
}

/// Runs every analysis card of `deck` in one [`Simulator`] session, writing
/// the waveform(s) to `waveform` in the configured format.
///
/// `.tran` cards run with [`RunConfig::method`]; `.op` cards write a
/// `node,voltage` table of the (cached) DC operating point. When the deck
/// holds several analyses each block is preceded by a `# analysis …`
/// comment line; all of them share the session's symbolic-LU, plan and
/// Krylov caches.
///
/// # Errors
///
/// [`CliError::Deck`] when the deck has no analysis cards;
/// [`CliError::Sim`] for unknown probe names and engine failures;
/// [`CliError::Io`] when the waveform sink fails.
///
/// # Examples
///
/// ```
/// use exi_cli::{run_deck, RunConfig};
/// use exi_netlist::parse_deck;
///
/// # fn main() -> Result<(), exi_cli::CliError> {
/// let deck = parse_deck(
///     "V1 a 0 DC 1\n\
///      R1 a b 1k\n\
///      R2 b 0 1k\n\
///      C1 b 0 1f\n\
///      .op\n\
///      .print v(b)\n",
/// )?;
/// let mut out = Vec::new();
/// run_deck(&deck, &RunConfig::default(), &mut out)?;
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.starts_with("node,voltage\n"));
/// assert!(text.contains("b,"));
/// # Ok(())
/// # }
/// ```
pub fn run_deck(
    deck: &Deck,
    config: &RunConfig,
    waveform: &mut dyn Write,
) -> CliResult<RunSummary> {
    if deck.analyses.is_empty() {
        return Err(CliError::Deck(
            "deck has no analysis cards (.tran or .op)".to_string(),
        ));
    }
    let probe_names = deck.effective_probes(&config.probes);
    let probe_refs: Vec<&str> = probe_names.iter().map(String::as_str).collect();
    let probes = resolve_probes(&deck.circuit, &probe_refs)?;
    let delimiter = config.format.delimiter();
    let mut sim = Simulator::new(&deck.circuit);
    let mut rows = 0usize;
    for (index, analysis) in deck.analyses.iter().enumerate() {
        if deck.analyses.len() > 1 {
            writeln!(waveform, "# analysis {}: {}", index + 1, describe(analysis))?;
        }
        match analysis {
            Analysis::OperatingPoint => {
                let dc = sim.dc()?;
                writeln!(waveform, "node{delimiter}voltage")?;
                for p in &probes {
                    writeln!(
                        waveform,
                        "{}{delimiter}{:.17e}",
                        p.label, dc.state[p.unknown]
                    )?;
                    rows += 1;
                }
            }
            Analysis::Tran { .. } => {
                let options = analysis_options(deck, analysis).expect("transient card");
                rows += match config.stream {
                    Some(capacity) => {
                        let mut streaming = StreamingObserver::new(probes.clone(), capacity);
                        sim.transient_observed(config.method, &options, &mut streaming)?;
                        let wave = streaming.into_waveform();
                        let labels: Vec<&str> =
                            wave.probes.iter().map(|p| p.label.as_str()).collect();
                        let np = wave.probes.len();
                        write_waveform_rows(
                            &labels,
                            wave.times
                                .iter()
                                .enumerate()
                                .map(|(k, &t)| (t, &wave.values[k * np..(k + 1) * np])),
                            delimiter,
                            waveform,
                        )?
                    }
                    None => {
                        let mut csv =
                            CsvObserver::new(&mut *waveform, probes.clone()).delimiter(delimiter);
                        sim.transient_observed(config.method, &options, &mut csv)?;
                        let written = csv.rows();
                        csv.finish()?;
                        written
                    }
                };
            }
        }
    }
    Ok(RunSummary {
        analyses: deck.analyses.len(),
        rows,
        stats: sim.session_stats().clone(),
    })
}

/// Writes a header plus one delimiter-separated row per `(time, values)`
/// pair with 17-significant-digit values, returning the data-row count —
/// the single waveform serializer behind the `run` stream path and the
/// sweep member files.
pub(crate) fn write_waveform_rows<'a>(
    labels: &[&str],
    rows: impl Iterator<Item = (f64, &'a [f64])>,
    delimiter: char,
    out: &mut dyn Write,
) -> CliResult<usize> {
    write!(out, "time")?;
    for label in labels {
        write!(out, "{delimiter}{label}")?;
    }
    writeln!(out)?;
    let mut written = 0;
    for (t, values) in rows {
        write!(out, "{t:.17e}")?;
        for v in values {
            write!(out, "{delimiter}{v:.17e}")?;
        }
        writeln!(out)?;
        written += 1;
    }
    Ok(written)
}

fn describe(analysis: &Analysis) -> String {
    match analysis {
        Analysis::Tran { step, stop, h_max } => match h_max {
            Some(h) => format!(".tran {step:e} {stop:e} {h:e}"),
            None => format!(".tran {step:e} {stop:e}"),
        },
        Analysis::OperatingPoint => ".op".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exi_netlist::parse_deck;

    fn rc_deck(extra_cards: &str) -> Deck {
        parse_deck(&format!(
            "Vin in 0 PULSE(0 1 0 10p 10p 200p)\n\
             R1 in out 1k\n\
             C1 out 0 1f\n\
             {extra_cards}"
        ))
        .unwrap()
    }

    // The `.tran`-card → `TransientOptions` mapping tests live with the
    // shared definition in `exi_sim::deck`.

    #[test]
    fn probe_defaults_cascade() {
        let deck = rc_deck(".tran 1p 500p\n.print v(out)\n");
        assert_eq!(deck.effective_probes(&[]), vec!["out"]);
        assert_eq!(
            deck.effective_probes(&["in".to_string()]),
            vec!["in".to_string()]
        );
        let no_prints = rc_deck(".tran 1p 500p\n");
        assert_eq!(no_prints.effective_probes(&[]), vec!["in", "out"]);
    }

    #[test]
    fn run_writes_one_row_per_accepted_point() {
        let deck = rc_deck(".tran 1p 500p\n.print v(out)\n");
        let mut out = Vec::new();
        let summary = run_deck(&deck, &RunConfig::default(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(summary.analyses, 1);
        assert!(summary.rows > 5);
        // header + rows
        assert_eq!(text.lines().count(), summary.rows + 1);
        assert_eq!(summary.stats.accepted_steps + 1, summary.rows);
        assert_eq!(summary.stats.symbolic_analyses, 1);
    }

    #[test]
    fn streamed_run_stays_within_capacity() {
        let deck = rc_deck(".tran 1p 500p\n.print v(out) v(in)\n");
        let mut out = Vec::new();
        let config = RunConfig {
            stream: Some(8),
            ..RunConfig::default()
        };
        let summary = run_deck(&deck, &config, &mut out).unwrap();
        assert!(summary.rows < 8, "rows {}", summary.rows);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("time,out,in\n"));
    }

    #[test]
    fn multiple_analyses_share_one_session() {
        let deck = rc_deck(".op\n.tran 1p 200p\n.tran 1p 200p\n.print v(out)\n");
        let mut out = Vec::new();
        let summary = run_deck(&deck, &RunConfig::default(), &mut out).unwrap();
        assert_eq!(summary.analyses, 3);
        // One symbolic analysis for the DC solve and both transients.
        assert_eq!(summary.stats.symbolic_analyses, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("# analysis 1: .op"));
        assert!(text.contains("# analysis 2: .tran"));
        assert!(text.contains("node,voltage"));
    }

    #[test]
    fn deck_problems_are_reported() {
        let no_analysis = rc_deck("");
        let e = run_deck(&no_analysis, &RunConfig::default(), &mut Vec::new()).unwrap_err();
        assert!(matches!(e, CliError::Deck(_)), "{e:?}");
        let deck = rc_deck(".tran 1p 500p\n");
        let config = RunConfig {
            probes: vec!["nope".to_string()],
            ..RunConfig::default()
        };
        let e = run_deck(&deck, &config, &mut Vec::new()).unwrap_err();
        assert!(matches!(e, CliError::Sim(_)), "{e:?}");
    }
}

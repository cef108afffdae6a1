//! # exi-cli
//!
//! Command-line front-end for the `exi-sim` exponential-integrator circuit
//! simulator: parses SPICE decks through [`exi_netlist::deck`] and drives
//! them through the [`exi_sim::Simulator`] session and
//! [`exi_sim::BatchRunner`] batch machinery.
//!
//! Three subcommands:
//!
//! ```text
//! exi-cli run <deck.sp> [--method er|erc|be|tr] [--out csv|tsv]
//!                       [--output FILE] [--stream N] [--probe NODE]...
//! exi-cli sweep <deck.sp> --param NAME=v1,v2,... [--method ...] [--out ...]
//!                       [--threads N] [--output-dir DIR] [--stream N]
//!                       [--probe NODE]...
//! exi-cli client [<deck.sp>] --addr HOST:PORT [--output FILE] [--shutdown] ...
//! ```
//!
//! `run` executes every analysis card of the deck in one simulator session
//! (one symbolic LU analysis per matrix pattern, however many cards there
//! are) and streams the waveform as CSV/TSV — through
//! [`exi_sim::CsvObserver`] row by row, or via [`exi_sim::StreamingObserver`]
//! with `--stream N` for fixed-memory decimated output. `sweep` re-reads a
//! `.param`-templated deck once per parameter value and fans the members
//! across a [`exi_sim::BatchRunner`] worker pool, so same-structure members
//! share one compiled stamping plan (and its `G` ordering) fleet-wide.
//! `client` drives a deck through a resident `exi-serve` daemon (warm plan
//! cache, wire-streamed waveforms; see `docs/SERVICE.md`), producing bytes
//! identical to a local `run`.
//!
//! The library surface mirrors the binary so everything is callable (and
//! doc-tested) in-process:
//!
//! ```
//! use exi_cli::{run_deck, OutputFormat, RunConfig};
//! use exi_netlist::parse_deck;
//!
//! # fn main() -> Result<(), exi_cli::CliError> {
//! let deck = parse_deck(
//!     "Vin in 0 PULSE(0 1 0 10p 10p 200p)\n\
//!      R1 in out 1k\n\
//!      C1 out 0 1f\n\
//!      .tran 1p 500p\n\
//!      .print v(out)\n",
//! )?;
//! let mut csv = Vec::new();
//! let summary = run_deck(&deck, &RunConfig::default(), &mut csv)?;
//! assert!(summary.rows > 5);
//! assert!(String::from_utf8(csv).unwrap().starts_with("time,out\n"));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod run;
pub mod service;
pub mod sweep;

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

use exi_netlist::NetlistError;
use exi_serve::json::{self, Json};
use exi_sim::{Method, SimError};

pub use run::{analysis_options, effective_probes, run_deck, tran_options, RunConfig, RunSummary};
pub use service::{
    fetch_stats, run_client, shutdown_server, write_stats, ClientCommand, ClientConfig,
};
pub use sweep::{
    build_sweep_plan, expand_param_grid, member_label, members_from_template, run_sweep,
    write_job_waveform, SweepConfig, SweepSummary,
};

/// Errors surfaced by the command-line front-end.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is malformed; the message explains how.
    Usage(String),
    /// Deck parsing failed.
    Netlist(NetlistError),
    /// A simulation failed.
    Sim(SimError),
    /// File or stream I/O failed.
    Io(std::io::Error),
    /// The deck is well-formed but cannot be driven as requested
    /// (no analysis cards, unknown probe, every sweep member failed, …).
    Deck(String),
    /// An `exi-serve` daemon reported a job failure; carries the server's
    /// error class so the exit code matches a local run of the same deck.
    Remote {
        /// `usage`, `parse`, `convergence`, `io` or `internal`.
        class: String,
        /// The server's human-readable message.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Netlist(e) => write!(f, "deck error: {e}"),
            CliError::Sim(e) => write!(f, "simulation error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Deck(m) => write!(f, "{m}"),
            CliError::Remote { class, message } => write!(f, "server error ({class}): {message}"),
        }
    }
}

impl CliError {
    /// Stable process exit code for this error class (documented in
    /// [`USAGE`]): `2` usage, `3` parse, `4` simulation/convergence, `5`
    /// i/o, `1` everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Netlist(_) => 3,
            CliError::Sim(_) => 4,
            CliError::Io(_) => 5,
            CliError::Deck(_) => 1,
            CliError::Remote { class, .. } => match class.as_str() {
                "usage" => 2,
                "parse" => 3,
                "convergence" => 4,
                "io" => 5,
                _ => 1,
            },
        }
    }

    /// Machine-readable failure class, used by `--error-format json`.
    pub fn class(&self) -> &'static str {
        match self {
            CliError::Usage(_) => "usage",
            CliError::Netlist(_) => "parse",
            CliError::Sim(_) => "convergence",
            CliError::Io(_) => "io",
            CliError::Deck(_) => "internal",
            CliError::Remote { class, .. } => match class.as_str() {
                "usage" => "usage",
                "parse" => "parse",
                "convergence" => "convergence",
                "io" => "io",
                _ => "internal",
            },
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Netlist(e) => Some(e),
            CliError::Sim(e) => Some(e),
            CliError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// How `run_main` reports errors on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorFormat {
    /// `exi-cli: <message>` lines.
    #[default]
    Text,
    /// One JSON object per error:
    /// `{"error":{"class":…,"message":…,"exit_code":…}}`.
    Json,
}

impl ErrorFormat {
    /// Parses `text` / `json`.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for anything else.
    pub fn parse(s: &str) -> CliResult<Self> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(ErrorFormat::Text),
            "json" => Ok(ErrorFormat::Json),
            other => Err(CliError::Usage(format!(
                "unknown error format '{other}' (expected text or json)"
            ))),
        }
    }
}

/// Renders `error` for stderr in the requested format. The JSON form is a
/// single line so scripts can parse it with one `json.loads`.
pub fn render_error(error: &CliError, format: ErrorFormat) -> String {
    match format {
        ErrorFormat::Text => format!("exi-cli: {error}"),
        ErrorFormat::Json => json::obj(vec![(
            "error",
            json::obj(vec![
                ("class", json::s(error.class())),
                ("message", json::s(error.to_string())),
                ("exit_code", Json::Num(error.exit_code().into())),
            ]),
        )])
        .dump(),
    }
}

impl From<NetlistError> for CliError {
    fn from(e: NetlistError) -> Self {
        CliError::Netlist(e)
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Result alias for this crate.
pub type CliResult<T> = Result<T, CliError>;

/// Waveform output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Comma-separated values.
    #[default]
    Csv,
    /// Tab-separated values.
    Tsv,
}

impl OutputFormat {
    /// The column delimiter of this format.
    pub fn delimiter(self) -> char {
        match self {
            OutputFormat::Csv => ',',
            OutputFormat::Tsv => '\t',
        }
    }

    /// Parses `csv` / `tsv`.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for anything else.
    pub fn parse(s: &str) -> CliResult<Self> {
        match s.to_ascii_lowercase().as_str() {
            "csv" => Ok(OutputFormat::Csv),
            "tsv" => Ok(OutputFormat::Tsv),
            other => Err(CliError::Usage(format!(
                "unknown output format '{other}' (expected csv or tsv)"
            ))),
        }
    }
}

/// Parses a `--method` value: `er`, `erc`/`er-c`, `be`/`benr`, `tr`/`trnr`.
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown method name.
pub fn parse_method(s: &str) -> CliResult<Method> {
    match s.to_ascii_lowercase().as_str() {
        "er" => Ok(Method::ExponentialRosenbrock),
        "erc" | "er-c" => Ok(Method::ExponentialRosenbrockCorrected),
        "be" | "benr" => Ok(Method::BackwardEuler),
        "tr" | "trnr" | "trap" => Ok(Method::Trapezoidal),
        other => Err(CliError::Usage(format!(
            "unknown method '{other}' (expected er, erc, be or tr)"
        ))),
    }
}

/// The usage text printed on `--help` and usage errors.
pub const USAGE: &str = "\
exi-cli — SPICE-deck front-end for the exi-sim circuit simulator

USAGE:
    exi-cli run <deck.sp> [OPTIONS]
    exi-cli sweep <deck.sp> --param NAME=v1,v2,... [OPTIONS]
    exi-cli client [<deck.sp>] --addr HOST:PORT [OPTIONS]

COMMON OPTIONS:
    --method <er|erc|be|tr>   integration method (default er)
    --out <csv|tsv>           waveform format (default csv)
    --stream <N>              fixed-memory decimated output, at most N points
    --probe <NODE>            record NODE (repeatable; default: the deck's
                              .print cards, else every node)
    --error-format <text|json>
                              stderr error rendering (default text); json
                              emits {\"error\":{\"class\",\"message\",\"exit_code\"}}

run OPTIONS:
    --output <FILE>           write the waveform to FILE instead of stdout

sweep OPTIONS:
    --param NAME=v1,v2,...    sweep values for a .param (repeatable; the
                              cartesian product of all lists is run)
    --threads <N>             batch worker threads (default: all cores)
    --output-dir <DIR>        one waveform file per member (default '.')
    --keep-going              exit 0 even when members failed; default exits
                              nonzero after writing the successful members

client OPTIONS (submit a deck to a running `exi-serve` daemon; see
docs/SERVICE.md):
    --addr <HOST:PORT>        daemon address (default 127.0.0.1:7878)
    --output <FILE>           write the waveform to FILE instead of stdout
    --id <NAME>               job id (default: the deck file stem)
    --decimate <N>            keep every N-th accepted row (default 1)
    --chunk-rows <N>          rows per streamed chunk (server default)
    --deadline-ms <N>         per-job wall-clock budget in milliseconds
                              (a server-reported failure exits with the
                              same code a local run would)
    --retries <N>             retry a refused connection or `busy` reply up
                              to N extra times with exponential backoff
                              (default 0 = fail on the first refusal)
    --retry-base-ms <N>       backoff base; attempt k sleeps base<<k ms
                              before reconnecting (default 100)
    --stats                   print the daemon's stats snapshot as
                              `key: value` lines (combinable with a deck
                              run and/or --shutdown)
    --shutdown                ask the daemon to drain and exit afterwards;
                              without a deck, sends only the shutdown

EXIT CODES:
    0  success                3  deck parse error
    1  internal error         4  simulation/convergence error
    2  usage error            5  i/o error
";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `exi-cli run`.
    Run {
        /// Deck path.
        deck: PathBuf,
        /// Execution settings.
        config: RunConfig,
        /// Waveform destination; `None` writes to stdout.
        output: Option<PathBuf>,
    },
    /// `exi-cli sweep`.
    Sweep {
        /// Deck path.
        deck: PathBuf,
        /// Execution settings.
        config: SweepConfig,
        /// Directory receiving one waveform file per sweep member.
        output_dir: PathBuf,
    },
    /// `exi-cli client`: drive one deck through a running daemon.
    Client(ClientCommand),
    /// `exi-cli --help`.
    Help,
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// [`CliError::Usage`] describing the first problem found.
pub fn parse_args(args: &[String]) -> CliResult<Command> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Err(CliError::Usage(
            "missing subcommand (run, sweep or client)".into(),
        ));
    };
    match cmd.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "run" => parse_run_args(&mut it),
        "sweep" => parse_sweep_args(&mut it),
        "client" => parse_client_args(&mut it),
        other => Err(CliError::Usage(format!(
            "unknown subcommand '{other}' (expected run, sweep or client)"
        ))),
    }
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> CliResult<&'a String> {
    it.next()
        .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
}

fn parse_stream(value: &str) -> CliResult<usize> {
    let n: usize = value
        .parse()
        .map_err(|_| CliError::Usage(format!("--stream: bad point count '{value}'")))?;
    if n < 2 {
        return Err(CliError::Usage(
            "--stream requires at least 2 points".into(),
        ));
    }
    Ok(n)
}

fn parse_run_args(it: &mut std::slice::Iter<'_, String>) -> CliResult<Command> {
    let mut deck: Option<PathBuf> = None;
    let mut config = RunConfig::default();
    let mut output = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--method" => config.method = parse_method(next_value(it, "--method")?)?,
            "--out" => config.format = OutputFormat::parse(next_value(it, "--out")?)?,
            "--output" => output = Some(PathBuf::from(next_value(it, "--output")?)),
            "--stream" => config.stream = Some(parse_stream(next_value(it, "--stream")?)?),
            "--probe" => config.probes.push(next_value(it, "--probe")?.clone()),
            // Validated here, applied by `run_main`'s pre-scan (errors of
            // this very parse must already render in the requested format).
            "--error-format" => {
                ErrorFormat::parse(next_value(it, "--error-format")?)?;
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option '{flag}' for run")))
            }
            path if deck.is_none() => deck = Some(PathBuf::from(path)),
            extra => {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument '{extra}'"
                )))
            }
        }
    }
    let deck = deck.ok_or_else(|| CliError::Usage("run: missing <deck.sp> path".into()))?;
    Ok(Command::Run {
        deck,
        config,
        output,
    })
}

fn parse_sweep_args(it: &mut std::slice::Iter<'_, String>) -> CliResult<Command> {
    let mut deck: Option<PathBuf> = None;
    let mut config = SweepConfig::default();
    let mut output_dir = PathBuf::from(".");
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--method" => config.method = parse_method(next_value(it, "--method")?)?,
            "--out" => config.format = OutputFormat::parse(next_value(it, "--out")?)?,
            "--threads" => {
                let v = next_value(it, "--threads")?;
                config.threads = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--threads: bad count '{v}'")))?;
            }
            "--output-dir" => output_dir = PathBuf::from(next_value(it, "--output-dir")?),
            "--stream" => config.stream = Some(parse_stream(next_value(it, "--stream")?)?),
            "--probe" => config.probes.push(next_value(it, "--probe")?.clone()),
            "--keep-going" => config.keep_going = true,
            "--error-format" => {
                ErrorFormat::parse(next_value(it, "--error-format")?)?;
            }
            "--param" => {
                let v = next_value(it, "--param")?;
                let Some((name, values)) = v.split_once('=') else {
                    return Err(CliError::Usage(format!(
                        "--param: expected NAME=v1,v2,..., got '{v}'"
                    )));
                };
                let values: Vec<String> = values
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if name.trim().is_empty() || values.is_empty() {
                    return Err(CliError::Usage(format!(
                        "--param: expected NAME=v1,v2,..., got '{v}'"
                    )));
                }
                let name = name.trim().to_string();
                // A repeated name would cross itself in the cartesian
                // product and the last value would silently win.
                if config
                    .params
                    .iter()
                    .any(|(existing, _)| existing.eq_ignore_ascii_case(&name))
                {
                    return Err(CliError::Usage(format!(
                        "--param: '{name}' given more than once; list its values as \
                         --param {name}=v1,v2,..."
                    )));
                }
                config.params.push((name, values));
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option '{flag}' for sweep"
                )))
            }
            path if deck.is_none() => deck = Some(PathBuf::from(path)),
            extra => {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument '{extra}'"
                )))
            }
        }
    }
    let deck = deck.ok_or_else(|| CliError::Usage("sweep: missing <deck.sp> path".into()))?;
    if config.params.is_empty() {
        return Err(CliError::Usage(
            "sweep: at least one --param NAME=v1,v2,... is required".into(),
        ));
    }
    Ok(Command::Sweep {
        deck,
        config,
        output_dir,
    })
}

fn parse_positive(value: &str, flag: &str) -> CliResult<usize> {
    let n: usize = value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag}: bad count '{value}'")))?;
    if n == 0 {
        return Err(CliError::Usage(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

fn parse_millis(value: &str, flag: &str) -> CliResult<u64> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag}: bad millisecond count '{value}'")))
}

fn parse_client_args(it: &mut std::slice::Iter<'_, String>) -> CliResult<Command> {
    let mut deck: Option<PathBuf> = None;
    let mut config = ClientConfig::default();
    let mut output = None;
    let mut stats = false;
    let mut shutdown = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = next_value(it, "--addr")?.clone(),
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--method" => config.method = parse_method(next_value(it, "--method")?)?,
            "--out" => config.format = OutputFormat::parse(next_value(it, "--out")?)?,
            "--output" => output = Some(PathBuf::from(next_value(it, "--output")?)),
            "--probe" => config.probes.push(next_value(it, "--probe")?.clone()),
            "--id" => config.id = Some(next_value(it, "--id")?.clone()),
            "--decimate" => {
                config.decimate = parse_positive(next_value(it, "--decimate")?, "--decimate")?
            }
            "--chunk-rows" => {
                config.chunk_rows = Some(parse_positive(
                    next_value(it, "--chunk-rows")?,
                    "--chunk-rows",
                )?)
            }
            "--deadline-ms" => {
                config.deadline_ms = Some(parse_millis(
                    next_value(it, "--deadline-ms")?,
                    "--deadline-ms",
                )?)
            }
            "--retries" => {
                let v = next_value(it, "--retries")?;
                config.retries = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--retries: bad count '{v}'")))?;
            }
            "--retry-base-ms" => {
                config.retry_base_ms =
                    parse_millis(next_value(it, "--retry-base-ms")?, "--retry-base-ms")?.max(1);
            }
            "--error-format" => {
                ErrorFormat::parse(next_value(it, "--error-format")?)?;
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown option '{flag}' for client"
                )))
            }
            path if deck.is_none() => deck = Some(PathBuf::from(path)),
            extra => {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument '{extra}'"
                )))
            }
        }
    }
    if deck.is_none() && !shutdown && !stats {
        return Err(CliError::Usage(
            "client: missing <deck.sp> path (or --shutdown / --stats for a deckless request)"
                .into(),
        ));
    }
    Ok(Command::Client(ClientCommand {
        deck,
        config,
        output,
        stats,
        shutdown,
    }))
}

/// Executes a parsed command: `status` receives human-readable progress and
/// summaries (stdout in the binary); waveforms go to `--output`/
/// `--output-dir` files, or to `status` when `run` has no `--output`.
///
/// # Errors
///
/// Any [`CliError`]; partial sweep outputs may already be on disk.
pub fn execute(command: &Command, status: &mut dyn Write) -> CliResult<()> {
    match command {
        Command::Help => {
            status.write_all(USAGE.as_bytes())?;
            Ok(())
        }
        Command::Run {
            deck,
            config,
            output,
        } => {
            let parsed = exi_netlist::parse_deck_file(deck)?;
            let summary = match output {
                Some(path) => {
                    let mut file = std::io::BufWriter::new(File::create(path)?);
                    let summary = run_deck(&parsed, config, &mut file)?;
                    file.flush()?;
                    writeln!(
                        status,
                        "{}: {} analyses, {} rows -> {} ({} accepted steps, {} symbolic LU analyses)",
                        deck.display(),
                        summary.analyses,
                        summary.rows,
                        path.display(),
                        summary.stats.accepted_steps,
                        summary.stats.symbolic_analyses,
                    )?;
                    summary
                }
                None => run_deck(&parsed, config, status)?,
            };
            let _ = summary;
            Ok(())
        }
        Command::Sweep {
            deck,
            config,
            output_dir,
        } => {
            let summary = run_sweep(deck, config, output_dir)?;
            writeln!(
                status,
                "sweep of {}: {} members, {} failed, {} worker threads, {:.3} s wall",
                deck.display(),
                summary.members,
                summary.failed,
                summary.stats.worker_threads,
                summary.wall_time.as_secs_f64(),
            )?;
            writeln!(
                status,
                "cache reuse: {} symbolic analyses ({} on a shared G ordering), {} plan compilations + {} shared hits",
                summary.stats.symbolic_analyses,
                summary.stats.shared_symbolic_hits,
                summary.stats.plan_compilations,
                summary.stats.shared_plan_hits,
            )?;
            for line in &summary.member_lines {
                writeln!(status, "  {line}")?;
            }
            if summary.failed > 0 {
                if config.keep_going {
                    writeln!(
                        status,
                        "continuing past {} failed member(s) (--keep-going); \
                         successful waveforms are on disk",
                        summary.failed
                    )?;
                } else {
                    return Err(CliError::Deck(format!(
                        "{} of {} sweep members failed",
                        summary.failed, summary.members
                    )));
                }
            }
            Ok(())
        }
        Command::Client(client) => {
            if let Some(deck) = &client.deck {
                match &client.output {
                    Some(path) => {
                        let mut file = std::io::BufWriter::new(File::create(path)?);
                        let rows = run_client(deck, &client.config, &mut file)?;
                        file.flush()?;
                        writeln!(
                            status,
                            "{}: {} rows -> {} (via {})",
                            deck.display(),
                            rows,
                            path.display(),
                            client.config.addr,
                        )?;
                    }
                    None => {
                        run_client(deck, &client.config, status)?;
                    }
                }
            }
            if client.stats {
                let stats = fetch_stats(&client.config.addr)?;
                write_stats(&stats, status)?;
            }
            if client.shutdown {
                shutdown_server(&client.config.addr)?;
                writeln!(status, "shutdown requested (via {})", client.config.addr)?;
            }
            Ok(())
        }
    }
}

/// Extracts the `--error-format` choice before full parsing, so parse
/// errors themselves render in the requested format. An invalid value is
/// left for [`parse_args`] to report.
fn detect_error_format(args: &[String]) -> ErrorFormat {
    args.windows(2)
        .find(|w| w[0] == "--error-format")
        .and_then(|w| ErrorFormat::parse(&w[1]).ok())
        .unwrap_or_default()
}

/// Binary entry point: parses and executes, mapping each error class to its
/// stable exit code (see [`CliError::exit_code`] and the `EXIT CODES`
/// section of [`USAGE`]).
pub fn run_main(args: &[String]) -> i32 {
    let error_format = detect_error_format(args);
    let command = match parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}", render_error(&e, error_format));
            if error_format == ErrorFormat::Text {
                eprintln!("{USAGE}");
            }
            return e.exit_code();
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match execute(&command, &mut out) {
        Ok(()) => 0,
        // A closed stdout (piping into `head`) is a normal way to stop
        // consuming a waveform, not an error.
        Err(CliError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("{}", render_error(&e, error_format));
            e.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn method_aliases_map_to_the_paper_methods() {
        assert_eq!(parse_method("er").unwrap(), Method::ExponentialRosenbrock);
        assert_eq!(
            parse_method("ERC").unwrap(),
            Method::ExponentialRosenbrockCorrected
        );
        assert_eq!(parse_method("er-c").unwrap(), parse_method("erc").unwrap());
        assert_eq!(parse_method("be").unwrap(), Method::BackwardEuler);
        assert_eq!(parse_method("benr").unwrap(), Method::BackwardEuler);
        assert_eq!(parse_method("tr").unwrap(), Method::Trapezoidal);
        assert_eq!(parse_method("trnr").unwrap(), Method::Trapezoidal);
        assert!(parse_method("rk4").is_err());
    }

    #[test]
    fn run_arguments_parse() {
        let cmd = parse_args(&s(&[
            "run", "deck.sp", "--method", "be", "--out", "tsv", "--stream", "64", "--probe", "out",
            "--probe", "mid", "--output", "wave.tsv",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                deck,
                config,
                output,
            } => {
                assert_eq!(deck, PathBuf::from("deck.sp"));
                assert_eq!(config.method, Method::BackwardEuler);
                assert_eq!(config.format, OutputFormat::Tsv);
                assert_eq!(config.stream, Some(64));
                assert_eq!(config.probes, vec!["out", "mid"]);
                assert_eq!(output, Some(PathBuf::from("wave.tsv")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sweep_arguments_parse() {
        let cmd = parse_args(&s(&[
            "sweep",
            "deck.sp",
            "--param",
            "rload=1k,2k,5k",
            "--param",
            "cap=1p,2p",
            "--threads",
            "2",
            "--output-dir",
            "out",
        ]))
        .unwrap();
        match cmd {
            Command::Sweep {
                config, output_dir, ..
            } => {
                assert_eq!(config.params.len(), 2);
                assert_eq!(config.params[0].0, "rload");
                assert_eq!(config.params[0].1, vec!["1k", "2k", "5k"]);
                assert_eq!(config.threads, 2);
                assert_eq!(output_dir, PathBuf::from("out"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            vec!["frobnicate"],
            vec!["run"],
            vec!["run", "deck.sp", "--method", "rk4"],
            vec!["run", "deck.sp", "--stream", "one"],
            vec!["run", "deck.sp", "--stream", "1"],
            vec!["run", "deck.sp", "--wat"],
            vec!["run", "a.sp", "b.sp"],
            vec!["sweep", "deck.sp"],
            vec!["sweep", "deck.sp", "--param", "broken"],
            vec!["sweep", "deck.sp", "--param", "r="],
            // A repeated name would cross itself in the cartesian product.
            vec!["sweep", "deck.sp", "--param", "r=1k", "--param", "R=2k"],
            // The daemon has one front end, the `exi-serve` binary.
            vec!["serve", "--addr", "127.0.0.1:0"],
            vec![],
        ] {
            let args = s(&bad);
            match parse_args(&args) {
                Err(CliError::Usage(_)) => {}
                other => panic!("{bad:?}: expected usage error, got {other:?}"),
            }
        }
        assert_eq!(parse_args(&s(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn exit_codes_and_classes_are_stable() {
        let cases: Vec<(CliError, i32, &str)> = vec![
            (CliError::Usage("x".into()), 2, "usage"),
            (CliError::Netlist(NetlistError::EmptyCircuit), 3, "parse"),
            (
                CliError::Sim(SimError::StepSizeUnderflow {
                    time: 0.0,
                    step: 1e-20,
                }),
                4,
                "convergence",
            ),
            (CliError::Io(std::io::Error::other("disk on fire")), 5, "io"),
            (CliError::Deck("x".into()), 1, "internal"),
        ];
        for (error, code, class) in cases {
            assert_eq!(error.exit_code(), code, "{error}");
            assert_eq!(error.class(), class, "{error}");
        }
    }

    #[test]
    fn remote_errors_mirror_the_local_taxonomy() {
        for (class, code) in [
            ("usage", 2),
            ("parse", 3),
            ("convergence", 4),
            ("io", 5),
            ("internal", 1),
            ("martian", 1),
        ] {
            let error = CliError::Remote {
                class: class.to_string(),
                message: "x".to_string(),
            };
            assert_eq!(error.exit_code(), code, "{class}");
            let expected = if error.exit_code() == 1 {
                "internal"
            } else {
                class
            };
            assert_eq!(error.class(), expected, "{class}");
        }
    }

    #[test]
    fn client_arguments_parse() {
        let cmd = parse_args(&s(&[
            "client",
            "deck.sp",
            "--addr",
            "127.0.0.1:9100",
            "--method",
            "be",
            "--decimate",
            "4",
            "--deadline-ms",
            "1500",
            "--id",
            "my-job",
            "--output",
            "wave.csv",
        ]))
        .unwrap();
        match cmd {
            Command::Client(client) => {
                assert_eq!(client.deck, Some(PathBuf::from("deck.sp")));
                assert_eq!(client.config.addr, "127.0.0.1:9100");
                assert_eq!(client.config.method, Method::BackwardEuler);
                assert_eq!(client.config.decimate, 4);
                assert_eq!(client.config.deadline_ms, Some(1500));
                assert_eq!(client.config.id.as_deref(), Some("my-job"));
                assert_eq!(client.output, Some(PathBuf::from("wave.csv")));
                assert!(!client.shutdown);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A shutdown-only invocation needs no deck.
        match parse_args(&s(&["client", "--shutdown", "--addr", "127.0.0.1:9100"])).unwrap() {
            Command::Client(client) => {
                assert_eq!(client.deck, None);
                assert!(client.shutdown);
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in [
            vec!["client"],
            vec!["client", "deck.sp", "--decimate", "0"],
            vec!["client", "deck.sp", "--retries", "many"],
            vec!["client", "deck.sp", "--deadline-ms", "soon"],
        ] {
            match parse_args(&s(&bad)) {
                Err(CliError::Usage(_)) => {}
                other => panic!("{bad:?}: expected usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn hardening_flags_parse() {
        let cmd = parse_args(&s(&[
            "client",
            "deck.sp",
            "--retries",
            "3",
            "--retry-base-ms",
            "5",
            "--stats",
        ]))
        .unwrap();
        match cmd {
            Command::Client(client) => {
                assert_eq!(client.config.retries, 3);
                assert_eq!(client.config.retry_base_ms, 5);
                assert!(client.stats);
                assert!(!client.shutdown);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A stats-only invocation needs no deck.
        match parse_args(&s(&["client", "--stats", "--addr", "127.0.0.1:9100"])).unwrap() {
            Command::Client(client) => {
                assert_eq!(client.deck, None);
                assert!(client.stats);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Retry exhaustion against an address nothing listens on is a
    /// deterministic i/o failure: every attempt is refused, the backoff is
    /// bounded, and the exit code is the i/o code (5).
    #[test]
    fn client_retry_exhaustion_exits_with_the_io_code() {
        // Bind to get a port the kernel just proved free, then release it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let dir = scratch("retry-exhaustion");
        let deck = dir.join("rc.sp");
        std::fs::write(
            &deck,
            "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1f\n.tran 1p 50p\n.print v(out)\n",
        )
        .unwrap();
        let code = run_main(&s(&[
            "client",
            deck.to_str().unwrap(),
            "--addr",
            &addr,
            "--retries",
            "2",
            "--retry-base-ms",
            "1",
        ]));
        assert_eq!(code, 5, "exhausted retries surface the refused connection");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `client --stats` against a live daemon prints the hardening counters
    /// as stable `key: value` lines.
    #[test]
    fn client_stats_prints_hardening_counters() {
        let server = exi_serve::Server::bind(exi_serve::ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.run());
        let command =
            parse_args(&s(&["client", "--stats", "--shutdown", "--addr", &addr])).unwrap();
        let mut out = Vec::new();
        execute(&command, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for line in [
            "jobs_rejected_budget: 0",
            "workers_respawned: 0",
            "connections_reaped: 0",
            "write_stalls: 0",
            "overload_stage: 0",
        ] {
            assert!(text.contains(line), "missing '{line}' in:\n{text}");
        }
        assert!(text.contains("shutdown requested"), "{text}");
        daemon.join().unwrap();
    }

    #[test]
    fn render_error_json_is_one_escaped_line() {
        let error = CliError::Deck("bad \"quote\"\nsecond line\ttab".into());
        let json = render_error(&error, ErrorFormat::Json);
        assert_eq!(json.lines().count(), 1, "{json}");
        assert!(
            json.starts_with("{\"error\":{\"class\":\"internal\""),
            "{json}"
        );
        assert!(json.contains("\\\"quote\\\""), "{json}");
        assert!(json.contains("\\n"), "{json}");
        assert!(json.contains("\\t"), "{json}");
        assert!(json.ends_with("\"exit_code\":1}}"), "{json}");
        let text = render_error(&error, ErrorFormat::Text);
        assert!(text.starts_with("exi-cli: "), "{text}");
    }

    #[test]
    fn error_format_parses_and_is_detected_pre_parse() {
        assert_eq!(ErrorFormat::parse("text").unwrap(), ErrorFormat::Text);
        assert_eq!(ErrorFormat::parse("JSON").unwrap(), ErrorFormat::Json);
        assert!(matches!(
            ErrorFormat::parse("yaml"),
            Err(CliError::Usage(_))
        ));
        // The pre-scan sees the flag no matter where it sits, so even
        // usage errors render in the requested format.
        assert_eq!(
            detect_error_format(&s(&["run", "x.sp", "--error-format", "json"])),
            ErrorFormat::Json
        );
        assert_eq!(detect_error_format(&s(&["run", "x.sp"])), ErrorFormat::Text);
        // An invalid value falls back to text here and is reported as a
        // usage error by the full parse.
        assert_eq!(
            detect_error_format(&s(&["run", "x.sp", "--error-format", "yaml"])),
            ErrorFormat::Text
        );
        assert!(matches!(
            parse_args(&s(&["run", "x.sp", "--error-format", "yaml"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn keep_going_flag_parses() {
        let with =
            parse_args(&s(&["sweep", "d.sp", "--param", "r=1k,2k", "--keep-going"])).unwrap();
        match with {
            Command::Sweep { config, .. } => assert!(config.keep_going),
            other => panic!("unexpected {other:?}"),
        }
        let without = parse_args(&s(&["sweep", "d.sp", "--param", "r=1k,2k"])).unwrap();
        match without {
            Command::Sweep { config, .. } => assert!(!config.keep_going),
            other => panic!("unexpected {other:?}"),
        }
        // run does not take --keep-going.
        assert!(matches!(
            parse_args(&s(&["run", "d.sp", "--keep-going"])),
            Err(CliError::Usage(_))
        ));
    }

    /// A scratch directory under the target-adjacent temp dir, unique per
    /// test to keep parallel runs apart.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exi-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn run_main_maps_failures_to_their_exit_codes() {
        // Usage error: 2.
        assert_eq!(run_main(&s(&["frobnicate"])), 2);
        // Unreadable/parse-failing deck: 3.
        assert_eq!(run_main(&s(&["run", "/nonexistent/deck.sp"])), 3);
        let dir = scratch("exit-codes");
        // Parse error in a real file: 3.
        let bad = dir.join("bad.sp");
        std::fs::write(&bad, "R1 in out\n.end\n").unwrap();
        assert_eq!(run_main(&s(&["run", bad.to_str().unwrap()])), 3);
        // Convergence/simulation error (floating node): 4, in both formats.
        let singular = dir.join("singular.sp");
        std::fs::write(
            &singular,
            "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\nCf float 0 1p\n.tran 1p 50p\n.end\n",
        )
        .unwrap();
        assert_eq!(run_main(&s(&["run", singular.to_str().unwrap()])), 4);
        assert_eq!(
            run_main(&s(&[
                "run",
                singular.to_str().unwrap(),
                "--error-format",
                "json"
            ])),
            4
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_keep_going_salvages_the_surviving_members() {
        let dir = scratch("keep-going");
        let deck = dir.join("sweep.sp");
        // Member step=100p violates h_init <= t_stop at simulation time —
        // a per-member failure that must not abort the whole sweep.
        std::fs::write(
            &deck,
            ".param step=1p\n\
             V1 in 0 DC 1\n\
             R1 in out 1k\n\
             C1 out 0 1p\n\
             .tran {step} 50p\n\
             .print v(out)\n\
             .end\n",
        )
        .unwrap();
        let out_strict = dir.join("strict");
        assert_eq!(
            run_main(&s(&[
                "sweep",
                deck.to_str().unwrap(),
                "--param",
                "step=1p,100p",
                "--output-dir",
                out_strict.to_str().unwrap(),
            ])),
            1,
            "a failed member is a nonzero exit by default"
        );
        let out_keep = dir.join("keep");
        assert_eq!(
            run_main(&s(&[
                "sweep",
                deck.to_str().unwrap(),
                "--param",
                "step=1p,100p",
                "--keep-going",
                "--output-dir",
                out_keep.to_str().unwrap(),
            ])),
            0,
            "--keep-going turns member failures into a success exit"
        );
        // The surviving member's waveform landed on disk; the failed one
        // produced no file.
        assert!(out_keep.join("step=1p.csv").exists());
        assert!(!out_keep.join("step=100p.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

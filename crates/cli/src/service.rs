//! The `client` subcommand: drive a deck through a resident `exi-serve`
//! daemon and stream the waveform back.
//!
//! The client path is byte-compatible with `exi-cli run`: waveform values
//! arrive as preformatted 17-significant-digit strings and are written
//! verbatim, so `exi-cli client deck.sp` and `exi-cli run deck.sp` produce
//! identical files for the same single-`.tran` deck.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use exi_serve::json::Json;
use exi_serve::{Client, ClientError, RunEnd, RunRequest, ServerStats};

use crate::{CliError, CliResult, OutputFormat};

/// Settings of one `exi-cli client` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Integration method requested from the daemon.
    pub method: exi_sim::Method,
    /// Waveform format.
    pub format: OutputFormat,
    /// Probe overrides; empty means the deck's `.print` cards, else every
    /// node (resolved server-side through the same cascade as `run`).
    pub probes: Vec<String>,
    /// Keep every `decimate`-th accepted row (1 = every row).
    pub decimate: usize,
    /// Rows per chunk frame; `None` uses the server default.
    pub chunk_rows: Option<usize>,
    /// Per-job wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Job id; `None` derives one from the deck file name.
    pub id: Option<String>,
    /// Extra attempts after a refused connection or a `busy` reply
    /// (0 = fail on the first refusal, the default).
    pub retries: u32,
    /// Base backoff in milliseconds; attempt `k` sleeps `base << k` before
    /// reconnecting (deterministic, no jitter).
    pub retry_base_ms: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7878".to_string(),
            method: exi_sim::Method::ExponentialRosenbrock,
            format: OutputFormat::Csv,
            probes: Vec::new(),
            decimate: 1,
            chunk_rows: None,
            deadline_ms: None,
            id: None,
            retries: 0,
            retry_base_ms: 100,
        }
    }
}

/// Maps a daemon-reported failure class onto [`CliError::Remote`] so the
/// process exit code matches what a local `run` of the same deck would
/// produce.
fn remote_error(class: String, message: String) -> CliError {
    CliError::Remote { class, message }
}

/// One connect-and-submit attempt (the unit [`run_client`]'s retry loop
/// repeats).
fn attempt_run(
    deck_text: &str,
    id: &str,
    config: &ClientConfig,
    waveform: &mut dyn Write,
) -> CliResult<RunEnd> {
    let mut client = Client::connect(config.addr.as_str())?;
    client
        .run_streaming(
            RunRequest {
                id: id.to_string(),
                deck: deck_text.to_string(),
                method: config.method,
                probes: config.probes.clone(),
                decimate: config.decimate,
                chunk_rows: config.chunk_rows,
                deadline_ms: config.deadline_ms,
            },
            waveform,
            config.format.delimiter(),
        )
        .map_err(|e| match e {
            ClientError::Io(e) => CliError::Io(e),
            other => CliError::Deck(other.to_string()),
        })
}

/// The deterministic backoff before retry attempt `attempt` (0-based):
/// `retry_base_ms << attempt`, saturating.
fn backoff_delay(config: &ClientConfig, attempt: u32) -> Duration {
    Duration::from_millis(config.retry_base_ms.saturating_mul(1u64 << attempt.min(16)))
}

/// Runs `deck_path` on the daemon at [`ClientConfig::addr`], writing the
/// streamed waveform to `waveform`. Returns the number of data rows.
///
/// With [`ClientConfig::retries`] > 0, a refused connection or a `busy`
/// reply is retried with exponential backoff (`retry_base_ms << attempt`,
/// reconnecting each time). Both happen strictly before any waveform bytes
/// arrive, so a retry can never duplicate output; failures after streaming
/// starts are never retried.
///
/// # Errors
///
/// [`CliError::Io`] for connection/socket failures, [`CliError::Remote`]
/// for job failures reported by the daemon (carrying the server's error
/// class), [`CliError::Deck`] for `busy`/`rejected`/shutdown refusals and
/// protocol violations.
pub fn run_client(
    deck_path: &Path,
    config: &ClientConfig,
    waveform: &mut dyn Write,
) -> CliResult<usize> {
    let deck_text = std::fs::read_to_string(deck_path)?;
    let id = config.id.clone().unwrap_or_else(|| {
        deck_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "job".to_string())
    });
    let mut attempt: u32 = 0;
    let end = loop {
        match attempt_run(&deck_text, &id, config, waveform) {
            Err(CliError::Io(e))
                if e.kind() == std::io::ErrorKind::ConnectionRefused
                    && attempt < config.retries =>
            {
                std::thread::sleep(backoff_delay(config, attempt));
                attempt += 1;
            }
            Ok(RunEnd::Busy) if attempt < config.retries => {
                std::thread::sleep(backoff_delay(config, attempt));
                attempt += 1;
            }
            other => break other,
        }
    }?;
    match end {
        RunEnd::Done { rows, .. } => Ok(rows),
        RunEnd::Cancelled {
            reason,
            at_time,
            rows,
        } => Err(remote_error(
            "convergence".to_string(),
            format!("job cancelled ({reason}) at t={at_time} after {rows} rows"),
        )),
        RunEnd::Failed { class, message } => Err(remote_error(class, message)),
        RunEnd::Busy => Err(CliError::Deck(if config.retries > 0 {
            format!(
                "server busy: job queue is full ({} attempts exhausted)",
                config.retries + 1
            )
        } else {
            "server busy: job queue is full, try again later".to_string()
        })),
        RunEnd::Rejected { reason, message } => Err(CliError::Deck(format!(
            "server rejected the job ({reason}): {message}"
        ))),
        RunEnd::ShuttingDown => Err(CliError::Deck(
            "server is shutting down and did not accept the job".to_string(),
        )),
    }
}

/// Fetches a [`ServerStats`] snapshot from the daemon at `addr`.
///
/// # Errors
///
/// [`CliError::Io`] for connection failures, [`CliError::Deck`] for
/// protocol violations.
pub fn fetch_stats(addr: &str) -> CliResult<ServerStats> {
    let mut client = Client::connect(addr)?;
    client.stats().map_err(|e| match e {
        ClientError::Io(e) => CliError::Io(e),
        other => CliError::Deck(other.to_string()),
    })
}

/// Renders a [`ServerStats`] snapshot as stable `key: value` lines, one per
/// key of the daemon's `stats` reply, in its order (the `exi-cli client
/// --stats` output; scripts grep these).
///
/// # Errors
///
/// Propagates write failures on `out`.
pub fn write_stats(stats: &ServerStats, out: &mut dyn Write) -> CliResult<()> {
    if let Json::Obj(members) = stats.to_json() {
        for (key, value) in members {
            writeln!(out, "{key}: {}", value.dump())?;
        }
    }
    Ok(())
}

/// Requests a graceful daemon shutdown: already-admitted jobs drain to
/// completion, then the server exits and prints its drain summary.
///
/// # Errors
///
/// [`CliError::Io`] for connection failures, [`CliError::Deck`] for
/// protocol violations.
pub fn shutdown_server(addr: &str) -> CliResult<()> {
    let mut client = Client::connect(addr)?;
    client.shutdown().map_err(|e| match e {
        ClientError::Io(e) => CliError::Io(e),
        other => CliError::Deck(other.to_string()),
    })
}

/// Parsed `exi-cli client` command.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientCommand {
    /// Deck path; `None` is only valid with [`ClientCommand::shutdown`]
    /// (a shutdown-only invocation).
    pub deck: Option<PathBuf>,
    /// Connection and job settings.
    pub config: ClientConfig,
    /// Waveform destination; `None` writes to stdout.
    pub output: Option<PathBuf>,
    /// Print the daemon's [`ServerStats`] snapshot (after the run, if a
    /// deck was given; before `--shutdown`, if both are set).
    pub stats: bool,
    /// Send a graceful-shutdown request after the run (or on its own when
    /// no deck is given).
    pub shutdown: bool,
}

//! `serve_burst`: the `exi-serve` daemon driven strictly from outside — a
//! child process, a socket and a bench-local frame client.
//!
//! Closed loop: each connection submits its next `run` only after the
//! previous one's `done` frame, because a tenant waits for its waveform
//! before deciding what to simulate next.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use exi_netlist::{parse_deck, Analysis, Deck};
use exi_sim::{
    analysis_options, resolve_probes, CsvObserver, Method, Probe, Simulator, TransientOptions,
};

use crate::json::{self, Json};
use crate::report::Outcome;
use crate::single::IsolatedRun;
use crate::stats::{hash_bytes, median, percentile, ratio, steady_wall, SeedRng, HASH_SEED};
use crate::trace::Tracer;
use crate::workloads::{
    CircuitKind, JITTER_STREAM, REQUEST_STREAM, SERVE_BURSTS, SERVE_CONNECTIONS, SERVE_H_MAX,
    SERVE_KIND, SERVE_REQUESTS_PER_CONNECTION, SERVE_T_STOP, SERVE_WORKERS, SMOKE_SCALE,
};
use crate::RunConfig;

const NAME: &str = "serve_burst";
/// Longest the client waits for any single frame; a hang becomes a failure.
const FRAME_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest a daemon may take to announce its address.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a daemon gets to shut down gracefully before it is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

// ---------------------------------------------------------------------------
// Frame codec: `<decimal length>\n<json>\n` in both directions.
// ---------------------------------------------------------------------------

pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let mut frame = String::with_capacity(payload.len() + 16);
    frame.push_str(&payload.len().to_string());
    frame.push('\n');
    frame.push_str(payload);
    frame.push('\n');
    w.write_all(frame.as_bytes())?;
    w.flush()
}

/// Reads one frame's payload; `Ok(None)` on a clean end of stream.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<String>, String> {
    let mut line = String::new();
    let read = r
        .take(32)
        .read_line(&mut line)
        .map_err(|e| format!("i/o error: {e}"))?;
    if read == 0 {
        return Ok(None);
    }
    let length: usize = line
        .strip_suffix('\n')
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("bad length line {line:?}"))?;
    if length > (1 << 24) {
        return Err(format!("frame of {length} bytes refused"));
    }
    let mut payload = vec![0u8; length + 1];
    r.read_exact(&mut payload)
        .map_err(|e| format!("i/o error: {e}"))?;
    if payload.pop() != Some(b'\n') {
        return Err("frame payload not newline-terminated".to_string());
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| "frame payload is not utf-8".to_string())
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> Result<Connection, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_read_timeout(Some(FRAME_TIMEOUT))
            .and_then(|()| writer.set_nodelay(true))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { reader, writer })
    }

    fn send(&mut self, payload: &str) -> Result<(), String> {
        write_frame(&mut self.writer, payload).map_err(|e| format!("send: {e}"))
    }

    /// The next frame, parsed, with its payload length.
    fn recv(&mut self) -> Result<(Json, usize), String> {
        let payload = read_frame(&mut self.reader)?.ok_or("daemon closed the connection")?;
        Ok((json::parse(&payload)?, payload.len()))
    }
}

// ---------------------------------------------------------------------------
// The daemon child and its drop guard.
// ---------------------------------------------------------------------------

pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr: Arc<Mutex<String>>,
    drains: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `exe` on a free port and waits for its "listening on" line.
    /// A spawn failure, an early exit or a silent child is an error that
    /// carries the child's stderr — never a hang.
    pub fn spawn(exe: &Path, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stderr_pipe = child.stderr.take().expect("stderr is piped");
        let stderr = Arc::new(Mutex::new(String::new()));
        let (tx, rx) = mpsc::channel();
        let out_drain = std::thread::spawn(move || {
            // Keeps reading after the address line so the child never
            // blocks on a full pipe.
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("exi-serve listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let err_sink = Arc::clone(&stderr);
        let err_drain = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stderr_pipe.read_to_string(&mut text);
            err_sink.lock().expect("stderr buffer lock").push_str(&text);
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr,
            drains: vec![out_drain, err_drain],
        };
        match rx.recv_timeout(LISTEN_TIMEOUT) {
            Ok(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            Err(_) => {
                let _ = daemon.child.kill();
                daemon.reap();
                let stderr = daemon.stderr.lock().expect("stderr buffer lock").clone();
                Err(format!(
                    "{} did not start listening; its stderr: {}",
                    exe.display(),
                    stderr.trim()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn reap(&mut self) {
        let _ = self.child.wait();
        for drain in self.drains.drain(..) {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    /// Asks for a graceful shutdown, waits up to 2 s — for the reply and the
    /// exit together — then kills.
    fn drop(&mut self) {
        if !self.addr.is_empty() {
            let deadline = Instant::now() + SHUTDOWN_GRACE;
            if let Ok(mut conn) = Connection::open(&self.addr) {
                // A wedged daemon must not hold teardown for a frame timeout.
                let _ = conn.writer.set_read_timeout(Some(SHUTDOWN_GRACE));
                let _ = conn.send("{\"type\":\"shutdown\"}");
                let _ = conn.recv();
            }
            while Instant::now() < deadline {
                if matches!(self.child.try_wait(), Ok(Some(_))) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        self.reap();
    }
}

// ---------------------------------------------------------------------------
// One request.
// ---------------------------------------------------------------------------

struct Reply {
    started: Instant,
    finished: Instant,
    first_chunk_s: f64,
    rows: usize,
    wire_bytes: usize,
    csv: Vec<u8>,
    accepted_steps: usize,
}

impl Reply {
    fn latency_s(&self) -> f64 {
        self.finished.duration_since(self.started).as_secs_f64()
    }
}

fn count(frame: &Json, key: &str) -> usize {
    frame.get(key).and_then(Json::as_f64).unwrap_or(0.0) as usize
}

fn push_joined(csv: &mut Vec<u8>, cells: &[Json]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            csv.push(b',');
        }
        csv.extend_from_slice(cell.as_str().unwrap_or("").as_bytes());
    }
    csv.push(b'\n');
}

/// Submits `deck` and reads frames until the job's terminal frame. Anything
/// but `done` is an error.
fn run_request(conn: &mut Connection, id: &str, deck: &str) -> Result<Reply, String> {
    let mut request = String::with_capacity(deck.len() + 64);
    request.push_str("{\"type\":\"run\",\"id\":");
    json::push_quoted(&mut request, id);
    request.push_str(",\"deck\":");
    json::push_quoted(&mut request, deck);
    request.push_str(",\"method\":\"er\"}");
    let started = Instant::now();
    conn.send(&request)?;
    let mut csv = Vec::new();
    let mut first_chunk_s = 0.0;
    let mut wire_bytes = 0;
    loop {
        let (frame, length) = conn.recv()?;
        wire_bytes += length;
        match frame.get("type").and_then(Json::as_str) {
            Some("accepted") => {}
            Some("chunk") => {
                if csv.is_empty() {
                    first_chunk_s = started.elapsed().as_secs_f64();
                }
                if let Some(columns) = frame.get("columns").and_then(Json::as_arr) {
                    push_joined(&mut csv, columns);
                }
                for row in frame.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
                    push_joined(&mut csv, row.as_arr().unwrap_or(&[]));
                }
            }
            Some("done") => {
                return Ok(Reply {
                    started,
                    finished: Instant::now(),
                    first_chunk_s,
                    rows: count(&frame, "rows"),
                    wire_bytes,
                    csv,
                    accepted_steps: count(&frame, "accepted_steps"),
                })
            }
            other => {
                return Err(format!(
                    "request {id} ended with '{}' instead of 'done': {}",
                    other.unwrap_or("?"),
                    frame
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                ))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// One deck per (connection, request): the same grid — so one fingerprint,
/// and every request after the first is a warm-cache hit — with the sink
/// current drawn from the seed.
fn decks(
    kind: &CircuitKind,
    seed: u64,
    connections: usize,
    per_connection: usize,
) -> Result<Vec<Vec<String>>, String> {
    let prints: Vec<String> = kind.candidate_probes().into_iter().rev().take(4).collect();
    let mut draw = SeedRng::new(seed, REQUEST_STREAM);
    let mut jitter = SeedRng::new(seed, JITTER_STREAM);
    (0..connections)
        .map(|_| {
            (0..per_connection)
                .map(|_| {
                    let circuit = kind.build(&mut jitter, draw.range(0.8, 1.2))?;
                    let mut deck = Deck::new(circuit);
                    deck.analyses.push(Analysis::Tran {
                        step: 1e-12,
                        stop: SERVE_T_STOP,
                        h_max: Some(SERVE_H_MAX),
                    });
                    deck.prints = prints.clone();
                    deck.to_spice().map_err(|e| e.to_string())
                })
                .collect()
        })
        .collect()
}

/// Parses a deck the way every deck driver does: its first `.tran` card's
/// options and its `.print` probes.
fn deck_inputs(deck_text: &str) -> Result<(Deck, TransientOptions, Vec<Probe>), String> {
    let deck = parse_deck(deck_text).map_err(|e| e.to_string())?;
    let options = deck
        .analyses
        .first()
        .and_then(|a| analysis_options(&deck, a))
        .ok_or("deck has no .tran card")?;
    let names = deck.effective_probes(&[]);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let probes = resolve_probes(&deck.circuit, &names).map_err(|e| e.to_string())?;
    Ok((deck, options, probes))
}

/// The same deck through the library, in process: `Simulator` plus the
/// `CsvObserver` the CLI uses. Returns the CSV bytes and the wall time.
fn run_direct(deck_text: &str) -> Result<(Vec<u8>, f64), String> {
    let started = Instant::now();
    let (deck, options, probes) = deck_inputs(deck_text)?;
    let mut csv = Vec::new();
    let mut observer = CsvObserver::new(&mut csv, probes);
    Simulator::new(&deck.circuit)
        .transient_observed(Method::ExponentialRosenbrock, &options, &mut observer)
        .map_err(|e| e.to_string())?;
    observer.finish().map_err(|e| e.to_string())?;
    Ok((csv, started.elapsed().as_secs_f64()))
}

/// The daemon and the CLI are built into the benchmark's own directory.
fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let dir = crate::bin_dir().ok_or("cannot locate the benchmark executable")?;
    let path = dir.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p {name}` into the same target directory (`bash exibench/run.sh` does, and `bash exibench/run.sh test` before the tests)",
            path.display()
        ))
    }
}

// ---------------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------------

pub fn run(config: &RunConfig) -> Outcome {
    Outcome::collect(NAME, |outcome| run_inner(config, outcome))
}

/// One burst: a client thread per connection, each submitting its decks one
/// after the other. `replies[connection][request]`.
fn run_burst(addr: &str, decks: &[Vec<String>], burst: usize) -> Vec<Vec<Result<Reply, String>>> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = decks
            .iter()
            .enumerate()
            .map(|(c, connection_decks)| {
                scope.spawn(move || {
                    let mut conn = match Connection::open(addr) {
                        Ok(conn) => conn,
                        Err(e) => return vec![Err(e)],
                    };
                    connection_decks
                        .iter()
                        .enumerate()
                        .map(|(r, deck)| run_request(&mut conn, &format!("b{burst}c{c}r{r}"), deck))
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| {
                client
                    .join()
                    .unwrap_or_else(|_| vec![Err("client thread panicked".to_string())])
            })
            .collect()
    })
}

/// Spawn-to-listening plus the first, cold-cache request.
struct ColdStart {
    daemon: Daemon,
    spawned: Instant,
    listening: Instant,
    replied: Instant,
}

fn cold_start(exe: &Path, deck: &str) -> Result<ColdStart, String> {
    let spawned = Instant::now();
    let daemon = Daemon::spawn(exe, SERVE_WORKERS)?;
    let listening = Instant::now();
    let reply = run_request(&mut Connection::open(&daemon.addr)?, "cold", deck)?;
    Ok(ColdStart {
        daemon,
        spawned,
        listening,
        replied: reply.finished,
    })
}

fn run_inner(config: &RunConfig, outcome: &mut Outcome) -> Result<(), String> {
    let serve_exe = sibling_binary("exi-serve")?;
    let cli_exe = sibling_binary("exi-cli")?;
    let kind = if config.smoke {
        SERVE_KIND.scaled(SMOKE_SCALE)
    } else {
        SERVE_KIND
    };
    let per_connection = if config.smoke {
        4
    } else {
        SERVE_REQUESTS_PER_CONNECTION
    };
    let decks = decks(&kind, config.seed, SERVE_CONNECTIONS, per_connection)?;
    let tracer = RefCell::new(Tracer::new(config.seed));
    let op = tracer.borrow_mut().begin("op", None);

    // Set-up: one cold start here, whose daemon serves the bursts, and a
    // throwaway one before every burst, so that the cold starts sample the
    // host's speed as widely as the bursts do.
    let mut setup = Vec::new();
    let mut first_requests = Vec::new();
    let mut timed_cold_start = |outcome: &mut Outcome| {
        let cold = cold_start(&serve_exe, &decks[0][0])?;
        outcome.check(Ok(()));
        let seconds = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64();
        setup.push(seconds(cold.spawned, cold.replied));
        first_requests.push(seconds(cold.listening, cold.replied) * 1e3);
        let mut t = tracer.borrow_mut();
        t.record("setup.spawn", None, Some(op), cold.spawned, cold.listening);
        t.record(
            "setup.first_request",
            None,
            Some(op),
            cold.listening,
            cold.replied,
        );
        Ok::<Daemon, String>(cold.daemon)
    };
    let daemon = timed_cold_start(outcome)?;

    let mut walls = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut first_chunks_ms = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut rows_per_s = Vec::new();
    // request_columns[burst][connection x request], seconds.
    let mut request_columns: Vec<Vec<f64>> = Vec::new();
    // (rows, accepted steps, CSV hash) of every request of the first burst.
    let mut first_burst: Vec<Vec<(usize, usize, u64)>> = Vec::new();
    let mut streamed_csv = Vec::new();
    for burst in 0..config.repetitions(SERVE_BURSTS) {
        if config.spreads_setups() {
            drop(timed_cold_start(outcome)?);
        }
        let span = tracer.borrow_mut().begin("burst", Some(burst));
        let started = Instant::now();
        let replies = run_burst(&daemon.addr, &decks, burst);
        let wall = started.elapsed().as_secs_f64();
        tracer.borrow_mut().end(span);
        walls.push(wall);
        let mut burst_rows = 0;
        request_columns.push(Vec::new());
        for (c, connection) in replies.into_iter().enumerate() {
            let mut summary = Vec::new();
            for (r, reply) in connection.into_iter().enumerate() {
                outcome.attempted += 1;
                let reply = match reply {
                    Ok(reply) => reply,
                    Err(e) => {
                        outcome.fail(format!("{NAME}: {e}"));
                        continue;
                    }
                };
                tracer.borrow_mut().record(
                    "request",
                    Some(c * per_connection + r),
                    Some(span),
                    reply.started,
                    reply.finished,
                );
                request_columns[burst].push(reply.latency_s());
                latencies_ms.push(reply.latency_s() * 1e3);
                first_chunks_ms.push(reply.first_chunk_s * 1e3);
                wire_bytes.push(reply.wire_bytes as f64);
                burst_rows += reply.rows;
                let key = (
                    reply.rows,
                    reply.accepted_steps,
                    hash_bytes(HASH_SEED, &reply.csv),
                );
                if burst == 0 {
                    if c == 0 && r == 0 {
                        streamed_csv = reply.csv;
                    }
                } else if first_burst.get(c).and_then(|s| s.get(r)) != Some(&key) {
                    outcome.fail(format!(
                        "{NAME}: determinism mismatch: burst {burst} connection {c} request {r} differs from burst 0"
                    ));
                }
                summary.push(key);
            }
            if burst == 0 {
                first_burst.push(summary);
            }
        }
        rows_per_s.push(ratio(burst_rows as f64, wall));
    }
    outcome.set_fastest("setup_s", &setup);
    outcome.set("serve.cold_first_req_ms", median(&first_requests));
    // The requests are a burst's sub-units.
    let wall = steady_wall(&walls, &request_columns);
    outcome.set_from_repetitions("wall_s", wall, walls.len());
    outcome.set("wall_median_s", median(&walls));
    let requests = (SERVE_CONNECTIONS * per_connection) as f64;
    outcome.set("jobs_per_s", ratio(requests, wall));
    outcome.set("serve.req_p50_ms", median(&latencies_ms));
    outcome.set("serve.req_p90_ms", percentile(&latencies_ms, 90.0));
    outcome.set("serve.ttfc_p50_ms", median(&first_chunks_ms));
    outcome.set("serve.rows_per_s", median(&rows_per_s));
    outcome.set("serve.bytes_per_req", median(&wire_bytes));
    outcome.notes.push(format!(
        "latency percentiles over {} requests",
        latencies_ms.len()
    ));

    // The daemon's own view, then its memory, then let it go.
    let (stats, _) = {
        let mut conn = Connection::open(&daemon.addr)?;
        conn.send("{\"type\":\"stats\"}")?;
        conn.recv()?
    };
    let stat = |key: &str| stats.get("stats").map_or(0, |s| count(s, key)) as f64;
    outcome.set("serve.symbolic_analyses", stat("symbolic_analyses"));
    outcome.set("serve.plan_compilations", stat("plan_compilations"));
    outcome.set(
        "serve.busy_or_rejected",
        stat("jobs_rejected") + stat("jobs_rejected_budget") + stat("jobs_shed_overload"),
    );
    outcome.set("peak_rss_mb", crate::peak_rss_mb(Some(daemon.pid())));
    drop(daemon);

    // One streamed waveform against the CLI and against the library, byte
    // for byte.
    std::fs::create_dir_all(&config.out_dir).map_err(|e| e.to_string())?;
    let deck_path = config.out_dir.join(format!("{NAME}.deck.sp"));
    let csv_path = config.out_dir.join(format!("{NAME}.cli.csv"));
    std::fs::write(&deck_path, &decks[0][0]).map_err(|e| e.to_string())?;
    let cli = Command::new(&cli_exe)
        .arg("run")
        .arg(&deck_path)
        .args(["--method", "er", "--output"])
        .arg(&csv_path)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", cli_exe.display()))?;
    outcome.check(if !cli.status.success() {
        Err(format!(
            "{NAME}: exi-cli run failed: {}",
            String::from_utf8_lossy(&cli.stderr).trim()
        ))
    } else if std::fs::read(&csv_path).map_err(|e| e.to_string())? != streamed_csv {
        Err(format!(
            "{NAME}: streamed CSV differs from `exi-cli run` output"
        ))
    } else {
        Ok(())
    });
    // One run settles the byte comparison; the traced pass repeats it for
    // `serve.overhead_vs_direct`.
    let mut direct_ms = Vec::new();
    for _ in 0..if config.trace && !config.smoke { 15 } else { 1 } {
        let (csv, wall) = run_direct(&decks[0][0])?;
        direct_ms.push(wall * 1e3);
        outcome.check(if csv == streamed_csv {
            Ok(())
        } else {
            Err(format!(
                "{NAME}: streamed CSV differs from the in-process run"
            ))
        });
    }
    outcome.set(
        "serve.overhead_vs_direct",
        ratio(median(&latencies_ms), median(&direct_ms)) - 1.0,
    );

    if config.trace {
        trace_direct(&decks[0][0], &tracer, outcome)?;
        let note = tracer.borrow_mut().finish(op, &config.out_dir, NAME)?;
        outcome.notes.push(note);
    }
    Ok(())
}

/// The daemon is a black box here, so the layer split comes from the same
/// deck run in process through the session API, with spans and probes.
fn trace_direct(
    deck_text: &str,
    tracer: &RefCell<Tracer>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let id = tracer.borrow_mut().begin("setup.build", None);
    let at = Instant::now();
    let (deck, options, probes) = deck_inputs(deck_text)?;
    outcome.set("netlist.build_s", at.elapsed().as_secs_f64());
    tracer.borrow_mut().end(id);
    IsolatedRun {
        name: NAME,
        circuit: &deck.circuit,
        method: Method::ExponentialRosenbrock,
        options: &options,
        probes: &probes,
    }
    .traced(3, tracer, outcome)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_garbage() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"type\":\"ping\"}").unwrap();
        write_frame(&mut wire, "").unwrap();
        assert_eq!(&wire[..3], b"15\n");
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some("{\"type\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
        for bad in [&b"abc\n{}\n"[..], b"2\n{}x", b"5\n{}\n", b"99999999999\n"] {
            assert!(read_frame(&mut BufReader::new(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_child_that_never_listens_is_an_error_with_its_stderr() {
        // `false` exits at once without a "listening on" line.
        let err = Daemon::spawn(Path::new("false"), 1)
            .err()
            .expect("must fail");
        assert!(err.contains("did not start listening"), "{err}");
        let err = Daemon::spawn(Path::new("/nonexistent/exi-serve"), 1)
            .err()
            .expect("must fail");
        assert!(err.contains("cannot spawn"), "{err}");
    }

    #[test]
    fn request_decks_share_one_fingerprint() {
        let kind = SERVE_KIND.scaled(SMOKE_SCALE);
        let decks = decks(&kind, 3, 2, 2).unwrap();
        let prints: Vec<_> = decks
            .iter()
            .flatten()
            .map(|d| exi_netlist::circuit_fingerprint(&parse_deck(d).unwrap().circuit))
            .collect();
        assert!(prints.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            decks[0][0], decks[0][1],
            "sink currents are seeded per request"
        );
    }
}

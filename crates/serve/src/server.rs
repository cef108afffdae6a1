//! The resident daemon: accept loop, connection handlers, the supervised
//! worker pool and the socket-backed streaming [`Observer`].
//!
//! # Lifecycle
//!
//! [`Server::bind`] opens the listener; [`Server::run`] blocks in the accept
//! loop until a `shutdown` request arrives over any connection. Each
//! connection gets a handler thread that parses request frames and replies
//! inline to everything except `run`, which passes **admission control**
//! (deck size, parse, footprint budget, in-flight budget, overload stage)
//! before it reaches the bounded [`JobQueue`]. A supervised pool of worker
//! threads drains the queue, running each job through the batch layer's
//! executor, [`BatchJob::execute`], over the server's warm plan cache, so
//! jobs sharing a circuit fingerprint perform one plan compilation (and one
//! `G` ordering) server-wide, however many clients submit them. Each job
//! pivots its own matrices, so its bytes are those of an isolated `exi-cli
//! run`, whatever the daemon served before.
//!
//! # Hostile tenants
//!
//! The hardening layer assumes every peer misbehaves:
//!
//! * **Admission control** — a deck's footprint (unknowns, estimated
//!   nonzeros, declared `.tran` steps) is checked against [`JobBudget`]
//!   before queueing; a server-wide in-flight unknown budget bounds total
//!   resident state; jobs that declare no deadline get the configured
//!   default. Refusals are attributed `rejected{reason}` frames.
//! * **Worker supervision** — a worker that panics attributes the failure
//!   to its job (`internal`-class error), then retires; the supervisor
//!   respawns a replacement with fresh thread state, bounded per window
//!   ([`ServeConfig::respawn_limit`]), after which the server runs degraded.
//! * **Connection robustness** — a frame that stalls mid-read past
//!   [`ServeConfig::read_timeout_ms`], or a connection idle past
//!   [`ServeConfig::idle_timeout_ms`], is reaped without occupying a worker;
//!   a client that stops reading trips [`ServeConfig::write_stall_ms`] on
//!   the socket and the job is cancelled at the next step boundary.
//! * **Overload ladder** — a queue that stays full escalates through
//!   documented stages: shed new decks, cancel running jobs past the soft
//!   deadline (deadline-less jobs first), then drain everything. Every
//!   transition is visible in [`ServerStats`].
//!
//! # Shutdown
//!
//! A `shutdown` request closes the queue (workers drain every already-queued
//! job before exiting) and half-closes the read side of every open
//! connection, which unblocks the handler threads without disturbing the
//! write side — a client whose job is still running keeps receiving chunks
//! until its final `done` frame.

use std::collections::{HashMap, VecDeque};
use std::io::Read as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use exi_netlist::{parse_deck, Analysis, Deck};
use exi_sim::{
    analysis_options, resolve_probes, BatchJob, CancelReason, CancelToken, JobError, Observer,
    PlanCache, Probe, RunStats,
};

use crate::protocol::{write_frame, FrameError, Request, Response, RunRequest};
use crate::queue::{JobQueue, PushError};
use crate::stats::ServerStats;

/// Per-job footprint limits, estimated at admission from the parsed deck —
/// before the job can queue, let alone touch a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobBudget {
    /// Largest admissible MNA system (nodes + branch currents).
    pub max_unknowns: usize,
    /// Largest admissible estimated `G`-pattern nonzero count.
    pub max_est_nnz: usize,
    /// Largest admissible declared step count, `ceil(stop / step)` from the
    /// `.tran` card — the adaptive control may take fewer or more, but the
    /// declaration bounds what the client *asked* for.
    pub max_declared_steps: usize,
}

impl Default for JobBudget {
    fn default() -> Self {
        JobBudget {
            max_unknowns: 200_000,
            max_est_nnz: 8_000_000,
            max_declared_steps: 10_000_000,
        }
    }
}

/// Overload-ladder thresholds. The ladder escalates while the queue sits at
/// capacity and de-escalates once it drains to half:
///
/// | stage | entered after       | behavior                                 |
/// |-------|---------------------|------------------------------------------|
/// | 0     | —                   | normal admission                         |
/// | 1     | `shed_after_ms`     | new decks rejected (`reason: overload`)  |
/// | 2     | `cancel_after_ms`   | + cancel one running job per tick that is |
/// |       |                     |   past `soft_deadline_ms` (deadline-less  |
/// |       |                     |   jobs first, oldest first)               |
/// | 3     | `drain_after_ms`    | + cancel every running job               |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Sustained-full time before stage 1 (shed new work).
    pub shed_after_ms: u64,
    /// Sustained-full time before stage 2 (cancel past-soft-deadline jobs).
    pub cancel_after_ms: u64,
    /// Sustained-full time before stage 3 (cancel all running jobs).
    pub drain_after_ms: u64,
    /// Minimum runtime before a job is a stage-2 cancellation victim.
    pub soft_deadline_ms: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            shed_after_ms: 30_000,
            cancel_after_ms: 60_000,
            drain_after_ms: 120_000,
            soft_deadline_ms: 10_000,
        }
    }
}

/// Settings of one daemon instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Job-queue capacity; a full queue bounces `run` requests with `busy`.
    pub queue_capacity: usize,
    /// Maximum accepted frame payload in bytes (a larger declared length is
    /// a protocol error and closes the connection).
    pub max_frame_bytes: usize,
    /// Maximum accepted deck text in bytes (a larger deck is rejected with a
    /// `usage`-class error; the connection stays open).
    pub max_deck_bytes: usize,
    /// Warm plan-cache capacity (`None` = unbounded).
    pub plan_cache_capacity: Option<usize>,
    /// Rows per `chunk` frame when the request does not choose its own.
    pub default_chunk_rows: usize,
    /// Per-job footprint budget enforced at admission.
    pub budget: JobBudget,
    /// Server-wide cap on the summed unknown counts of active (queued or
    /// running) jobs; 0 disables the check. Keep it at least
    /// `budget.max_unknowns` or a lone maximal job can never run.
    pub max_inflight_unknowns: usize,
    /// Deadline applied to jobs that declare none, in milliseconds;
    /// 0 leaves undeclared jobs uncapped.
    pub default_deadline_ms: u64,
    /// How long a started frame may stall mid-read before the connection is
    /// reaped (the slow-loris bound); 0 disables.
    pub read_timeout_ms: u64,
    /// How long a connection may sit idle between frames before it is
    /// reaped; 0 disables.
    pub idle_timeout_ms: u64,
    /// How long one frame write may block on a stalled client before the
    /// write fails (and a streaming job is cancelled at the next step
    /// boundary); 0 disables.
    pub write_stall_ms: u64,
    /// Worker respawns allowed per `respawn_window_ms` before the server
    /// enters degraded mode.
    pub respawn_limit: usize,
    /// The sliding window over which `respawn_limit` is enforced.
    pub respawn_window_ms: u64,
    /// Overload-ladder thresholds.
    pub overload: OverloadConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            max_frame_bytes: crate::protocol::DEFAULT_MAX_FRAME_BYTES,
            max_deck_bytes: 256 * 1024,
            plan_cache_capacity: Some(64),
            default_chunk_rows: 64,
            budget: JobBudget::default(),
            max_inflight_unknowns: 1_000_000,
            default_deadline_ms: 600_000,
            read_timeout_ms: 10_000,
            idle_timeout_ms: 300_000,
            write_stall_ms: 30_000,
            respawn_limit: 8,
            respawn_window_ms: 60_000,
            overload: OverloadConfig::default(),
        }
    }
}

/// Lifetime job counters, maintained under one lock so a `stats` snapshot is
/// internally consistent.
#[derive(Debug, Default)]
struct Counters {
    jobs_accepted: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    jobs_cancelled: u64,
    jobs_rejected: u64,
    jobs_rejected_budget: u64,
    jobs_shed_overload: u64,
    jobs_cancelled_overload: u64,
    workers_respawned: u64,
    connections_reaped: u64,
    write_stalls: u64,
    overload_transitions: u64,
    solver: RunStats,
}

/// One admitted `run` request, queued for a worker. The deck is parsed, and
/// its options and probes are worked out, at admission (the footprint budget
/// needs the circuit), so workers never see unparseable input.
struct Job {
    /// What the executor runs; its label is the wire id.
    spec: BatchJob,
    decimate: usize,
    chunk_rows: usize,
    writer: Arc<ConnWriter>,
}

/// The cancel-registry entry of an active (queued or running) job — enough
/// state for wire cancellation, the in-flight budget and the overload
/// ladder's victim selection.
struct ActiveJob {
    token: CancelToken,
    /// Unknown count charged against `max_inflight_unknowns`.
    unknowns: usize,
    /// Set when a worker picks the job up; `None` while queued.
    started: Option<Instant>,
    /// Whether the job declared (or inherited) a deadline — deadline-less
    /// jobs are preferred overload victims.
    has_deadline: bool,
}

/// State shared by the accept loop, handlers, workers and the supervisor.
struct Shared {
    config: ServeConfig,
    queue: JobQueue<Job>,
    plans: Arc<PlanCache>,
    counters: Mutex<Counters>,
    /// Active (queued or running) jobs by id — the cancel registry.
    active: Mutex<HashMap<String, ActiveJob>>,
    /// Read-half handles of open connections, half-closed at shutdown to
    /// unblock handler threads.
    connections: Mutex<HashMap<u64, TcpStream>>,
    next_connection: AtomicU64,
    shutdown: AtomicBool,
    /// Summed unknown counts of active jobs (the in-flight budget).
    inflight_unknowns: AtomicUsize,
    /// Workers currently in their pop loop.
    live_workers: AtomicUsize,
    /// Workers that retired after a panic, awaiting supervisor respawn.
    dead_workers: AtomicUsize,
    /// Set when the respawn budget is exhausted with workers still dead.
    degraded: AtomicBool,
    /// Current overload-ladder stage (0 normal … 3 drain).
    overload_stage: AtomicUsize,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    fn snapshot(&self) -> ServerStats {
        let counters = lock(&self.counters);
        ServerStats {
            jobs_accepted: counters.jobs_accepted,
            jobs_completed: counters.jobs_completed,
            jobs_failed: counters.jobs_failed,
            jobs_cancelled: counters.jobs_cancelled,
            jobs_rejected: counters.jobs_rejected,
            jobs_rejected_budget: counters.jobs_rejected_budget,
            jobs_shed_overload: counters.jobs_shed_overload,
            jobs_cancelled_overload: counters.jobs_cancelled_overload,
            workers_respawned: counters.workers_respawned,
            connections_reaped: counters.connections_reaped,
            write_stalls: counters.write_stalls,
            overload_transitions: counters.overload_transitions,
            overload_stage: self.overload_stage.load(Ordering::SeqCst),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            workers: self.config.workers,
            solver: counters.solver.clone(),
            plan_cache: self.plans.stats(),
        }
    }

    /// Stops accepting work and unblocks every thread: future pushes fail,
    /// workers drain the backlog, handlers see EOF on their read half.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        for conn in lock(&self.connections).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }

    /// Removes a job from the cancel registry and releases its in-flight
    /// unknown charge.
    fn release_job(&self, id: &str) -> Option<ActiveJob> {
        let entry = lock(&self.active).remove(id)?;
        self.inflight_unknowns
            .fetch_sub(entry.unknowns, Ordering::SeqCst);
        Some(entry)
    }
}

/// The write half of one connection: the socket behind a mutex (workers and
/// the handler interleave whole frames through it) plus, under
/// `wire-fault-injection`, the armed write-side fault state.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    #[cfg(feature = "wire-fault-injection")]
    fault: Mutex<WriteFaultState>,
}

#[cfg(feature = "wire-fault-injection")]
#[derive(Debug, Default)]
struct WriteFaultState {
    truncate_write: Option<(usize, usize)>,
    disconnect_at_write: Option<usize>,
    /// 1-based count of frame writes attempted on this connection.
    writes: usize,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            stream: Mutex::new(stream),
            #[cfg(feature = "wire-fault-injection")]
            fault: Mutex::new(WriteFaultState::default()),
        }
    }

    /// Locks the underlying stream — admission holds this across
    /// queue-push + reply so a worker's first `chunk` can never overtake
    /// the `accepted` frame.
    fn lock_stream(&self) -> MutexGuard<'_, TcpStream> {
        lock(&self.stream)
    }

    /// Writes one frame through an already-held stream lock, applying any
    /// armed write-side wire fault first.
    fn write_frame_with(&self, stream: &mut TcpStream, json: &str) -> std::io::Result<()> {
        #[cfg(feature = "wire-fault-injection")]
        {
            let mut fault = lock(&self.fault);
            fault.writes += 1;
            if fault.disconnect_at_write == Some(fault.writes) {
                let _ = stream.shutdown(Shutdown::Both);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "fault injection: disconnect at write",
                ));
            }
            if let Some((at, bytes)) = fault.truncate_write {
                if at == fault.writes {
                    let mut frame = format!("{}\n{json}\n", json.len());
                    frame.truncate(bytes.min(frame.len()));
                    use std::io::Write as _;
                    let _ = stream.write_all(frame.as_bytes());
                    let _ = stream.flush();
                    let _ = stream.shutdown(Shutdown::Both);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "fault injection: truncated write",
                    ));
                }
            }
        }
        write_frame(stream, json)
    }

    fn write_response(&self, json: &str) -> std::io::Result<()> {
        let mut stream = self.lock_stream();
        self.write_frame_with(&mut stream, json)
    }
}

/// Serializes and writes one response frame; returns whether the peer is
/// still reachable. A write that failed because the client stalled past the
/// write-stall deadline is counted in `write_stalls`.
fn send(shared: &Shared, writer: &ConnWriter, response: &Response) -> bool {
    match writer.write_response(&response.to_json()) {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                lock(&shared.counters).write_stalls += 1;
            }
            false
        }
    }
}

/// What the connection's frame reader produced.
enum ReadEvent {
    /// One complete frame payload.
    Frame(String),
    /// Clean end-of-stream (includes a peer that died mid-frame).
    Eof,
    /// The read/idle deadline expired; the connection is being reaped.
    Reaped,
    /// A transport error.
    Io,
    /// A protocol violation worth a `protocol_error` reply before closing.
    Violation(FrameError),
}

/// A frame reader with deadline enforcement: a *started* frame must complete
/// within the read timeout (the slow-loris bound), and an *empty* connection
/// must produce bytes within the idle timeout. Framing semantics match
/// [`crate::protocol::read_frame`] — same length-line bound, same error
/// messages.
struct TimedFrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    frame_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    /// When the first byte of the pending frame arrived.
    frame_started: Option<Instant>,
    last_activity: Instant,
    blocking_configured: bool,
    #[cfg(feature = "wire-fault-injection")]
    frames_done: usize,
    #[cfg(feature = "wire-fault-injection")]
    stall_read_ms: Option<(usize, u64)>,
    #[cfg(feature = "wire-fault-injection")]
    corrupt_len_line: Option<usize>,
}

impl TimedFrameReader {
    fn new(stream: TcpStream, frame_timeout_ms: u64, idle_timeout_ms: u64) -> TimedFrameReader {
        TimedFrameReader {
            stream,
            buf: Vec::new(),
            frame_timeout: (frame_timeout_ms > 0).then(|| Duration::from_millis(frame_timeout_ms)),
            idle_timeout: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
            frame_started: None,
            last_activity: Instant::now(),
            blocking_configured: false,
            #[cfg(feature = "wire-fault-injection")]
            frames_done: 0,
            #[cfg(feature = "wire-fault-injection")]
            stall_read_ms: None,
            #[cfg(feature = "wire-fault-injection")]
            corrupt_len_line: None,
        }
    }

    /// Blocks for the next frame (or deadline/EOF/error).
    fn read_event(&mut self, max_bytes: usize) -> ReadEvent {
        #[cfg(feature = "wire-fault-injection")]
        if let Some((frame, ms)) = self.stall_read_ms {
            if self.frames_done + 1 == frame {
                // One-shot: stall this connection's reader, then resume. A
                // stall past the idle deadline draws the reaper below.
                self.stall_read_ms = None;
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        loop {
            match self.try_parse(max_bytes) {
                Ok(Some(payload)) => {
                    #[cfg(feature = "wire-fault-injection")]
                    {
                        self.frames_done += 1;
                        if self.corrupt_len_line == Some(self.frames_done) {
                            return ReadEvent::Violation(FrameError::Malformed(
                                "fault injection: corrupted length line".to_string(),
                            ));
                        }
                    }
                    return ReadEvent::Frame(payload);
                }
                Ok(None) => {}
                Err(e) => return ReadEvent::Violation(e),
            }
            let now = Instant::now();
            let mut nearest: Option<Instant> = None;
            if let (Some(timeout), Some(started)) = (self.frame_timeout, self.frame_started) {
                let deadline = started + timeout;
                if now >= deadline {
                    return ReadEvent::Reaped;
                }
                nearest = Some(deadline);
            }
            if let Some(timeout) = self.idle_timeout {
                if self.buf.is_empty() {
                    let deadline = self.last_activity + timeout;
                    if now >= deadline {
                        return ReadEvent::Reaped;
                    }
                    nearest = Some(nearest.map_or(deadline, |n| n.min(deadline)));
                }
            }
            if !self.configure_timeout(nearest, now) {
                return ReadEvent::Io;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadEvent::Eof,
                Ok(n) => {
                    if self.buf.is_empty() {
                        self.frame_started = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Deadline re-check at the top of the loop.
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ReadEvent::Io,
            }
        }
    }

    /// Points the socket's receive timeout at the nearest deadline (clamped
    /// to at least 1 ms — a zero timeout is an error on every platform).
    /// Returns `false` if the socket refused configuration.
    fn configure_timeout(&mut self, nearest: Option<Instant>, now: Instant) -> bool {
        match nearest {
            Some(deadline) => {
                let remaining = deadline
                    .saturating_duration_since(now)
                    .max(Duration::from_millis(1));
                self.blocking_configured = false;
                self.stream.set_read_timeout(Some(remaining)).is_ok()
            }
            None => {
                if self.blocking_configured {
                    return true;
                }
                self.blocking_configured = true;
                self.stream.set_read_timeout(None).is_ok()
            }
        }
    }

    /// Extracts one complete frame from the head of the buffer, mirroring
    /// [`crate::protocol::read_frame`]'s framing rules and messages.
    fn try_parse(&mut self, max_bytes: usize) -> Result<Option<String>, FrameError> {
        let window = self.buf.len().min(32);
        let Some(nl) = self.buf[..window].iter().position(|&b| b == b'\n') else {
            if self.buf.len() >= 32 {
                let prefix = String::from_utf8_lossy(&self.buf[..window]).into_owned();
                return Err(FrameError::Malformed(format!(
                    "length line '{prefix}' not newline-terminated"
                )));
            }
            return Ok(None);
        };
        let line = std::str::from_utf8(&self.buf[..nl])
            .map_err(|_| FrameError::Malformed("length line is not utf-8".to_string()))?;
        let trimmed = line.trim_end_matches('\r');
        let declared: usize = trimmed
            .parse()
            .map_err(|_| FrameError::Malformed(format!("bad length line '{trimmed}'")))?;
        if declared > max_bytes {
            return Err(FrameError::Oversized {
                declared,
                limit: max_bytes,
            });
        }
        let total = nl + 1 + declared + 1;
        if self.buf.len() < total {
            return Ok(None);
        }
        if self.buf[total - 1] != b'\n' {
            return Err(FrameError::Malformed(
                "frame payload not newline-terminated".to_string(),
            ));
        }
        let payload = self.buf[nl + 1..total - 1].to_vec();
        self.buf.drain(..total);
        self.frame_started = (!self.buf.is_empty()).then(Instant::now);
        String::from_utf8(payload)
            .map(Some)
            .map_err(|_| FrameError::Malformed("frame payload is not utf-8".to_string()))
    }
}

/// The daemon. [`bind`](Server::bind) it, read
/// [`local_addr`](Server::local_addr), then [`run`](Server::run) it (usually
/// on its own thread); `run` returns the final [`ServerStats`] once a
/// `shutdown` request has drained the fleet.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
}

impl Server {
    /// Binds the listen socket and builds the warm plan cache.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let plans = Arc::new(match config.plan_cache_capacity {
            Some(n) => PlanCache::with_capacity(n),
            None => PlanCache::new(),
        });
        let queue = JobQueue::new(config.queue_capacity);
        Ok(Server {
            listener,
            shared: Shared {
                config,
                queue,
                plans,
                counters: Mutex::new(Counters::default()),
                active: Mutex::new(HashMap::new()),
                connections: Mutex::new(HashMap::new()),
                next_connection: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                inflight_unknowns: AtomicUsize::new(0),
                live_workers: AtomicUsize::new(0),
                dead_workers: AtomicUsize::new(0),
                degraded: AtomicBool::new(false),
                overload_stage: AtomicUsize::new(0),
            },
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures of the socket.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon until a `shutdown` request arrives, then drains
    /// in-flight jobs and returns the final statistics snapshot.
    pub fn run(self) -> ServerStats {
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for _ in 0..shared.config.workers.max(1) {
                scope.spawn(|| worker_loop(shared));
            }
            scope.spawn(|| supervisor_loop(shared, scope));
            while !shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let accept_index =
                            shared.next_connection.fetch_add(1, Ordering::SeqCst) + 1;
                        scope.spawn(move || handle_connection(shared, stream, accept_index));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            // Defensive: if the loop exited for any reason other than a
            // shutdown request, release the workers and the supervisor.
            shared.queue.close();
        });
        shared.snapshot()
    }
}

/// One worker: drain the queue until it closes — or retire early after a
/// panicking job so the supervisor can replace this thread with a fresh one
/// (fresh stack, fresh thread-locals).
fn worker_loop(shared: &Shared) {
    shared.live_workers.fetch_add(1, Ordering::SeqCst);
    while let Some(job) = shared.queue.pop() {
        if execute_job(shared, job) {
            shared.live_workers.fetch_sub(1, Ordering::SeqCst);
            shared.dead_workers.fetch_add(1, Ordering::SeqCst);
            return;
        }
    }
    shared.live_workers.fetch_sub(1, Ordering::SeqCst);
}

/// The supervisor: respawns retired workers (bounded per sliding window,
/// then degraded mode) and drives the overload ladder. Exits when the queue
/// closes — shutdown drains with whatever workers remain.
fn supervisor_loop<'scope, 'env>(
    shared: &'env Shared,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) {
    let window = Duration::from_millis(shared.config.respawn_window_ms.max(1));
    let mut respawn_times: VecDeque<Instant> = VecDeque::new();
    let mut full_since: Option<Instant> = None;
    while !shared.queue.is_closed() {
        let now = Instant::now();

        // --- worker supervision -----------------------------------------
        while respawn_times
            .front()
            .is_some_and(|t| now.duration_since(*t) > window)
        {
            respawn_times.pop_front();
        }
        while shared.dead_workers.load(Ordering::SeqCst) > 0 {
            if respawn_times.len() >= shared.config.respawn_limit.max(1) {
                // Budget exhausted: leave the deficit pending (the window
                // slides) and flag degraded mode.
                shared.degraded.store(true, Ordering::SeqCst);
                break;
            }
            if shared
                .dead_workers
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                respawn_times.push_back(now);
                scope.spawn(|| worker_loop(shared));
                lock(&shared.counters).workers_respawned += 1;
                shared.degraded.store(false, Ordering::SeqCst);
            }
        }

        // --- overload ladder --------------------------------------------
        let depth = shared.queue.depth();
        let capacity = shared.queue.capacity();
        if depth >= capacity {
            full_since.get_or_insert(now);
        } else if depth * 2 <= capacity {
            full_since = None;
        }
        let stage = ladder_stage(
            full_since.map(|since| now.duration_since(since)),
            &shared.config.overload,
        );
        let previous = shared.overload_stage.swap(stage, Ordering::SeqCst);
        if previous != stage {
            lock(&shared.counters).overload_transitions += 1;
        }
        if stage >= 2 {
            cancel_overload_victims(shared, now, stage);
        }

        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Maps how long the queue has been full onto a ladder stage.
fn ladder_stage(full_for: Option<Duration>, overload: &OverloadConfig) -> usize {
    let Some(full_for) = full_for else { return 0 };
    let ms = u64::try_from(full_for.as_millis()).unwrap_or(u64::MAX);
    if ms >= overload.drain_after_ms {
        3
    } else if ms >= overload.cancel_after_ms {
        2
    } else if ms >= overload.shed_after_ms {
        1
    } else {
        0
    }
}

/// Stage 2: cancel the single best victim — running past the soft deadline,
/// deadline-less jobs first, oldest first. Stage 3: cancel every running
/// job. Ladder cancellations ride the ordinary [`CancelToken`] contract, so
/// the client still receives a bit-exact prefix partial.
fn cancel_overload_victims(shared: &Shared, now: Instant, stage: usize) {
    let soft = Duration::from_millis(shared.config.overload.soft_deadline_ms);
    let active = lock(&shared.active);
    let mut victims: Vec<(&String, &ActiveJob, Instant)> = active
        .iter()
        .filter_map(|(id, entry)| {
            let started = entry.started?;
            if entry.token.is_cancelled() {
                return None;
            }
            if stage < 3 && now.duration_since(started) < soft {
                return None;
            }
            Some((id, entry, started))
        })
        .collect();
    if stage < 3 {
        // One victim per tick: deadline-less first, then oldest.
        victims.sort_by_key(|(_, entry, started)| (entry.has_deadline, *started));
        victims.truncate(1);
    }
    let cancelled = victims.len() as u64;
    for (_, entry, _) in victims {
        entry.token.cancel();
    }
    drop(active);
    if cancelled > 0 {
        lock(&shared.counters).jobs_cancelled_overload += cancelled;
    }
}

/// One connection's request loop. Exits on EOF, I/O failure, protocol
/// violation (after a `protocol_error` reply), reap (read/idle deadline) or
/// server shutdown.
fn handle_connection(shared: &Shared, stream: TcpStream, accept_index: u64) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // A job answers with several small frames (accepted, chunks, done).
    // Under Nagle's algorithm each one written while the previous is
    // unacknowledged waits for the client's delayed ACK, which put tens of
    // milliseconds of idle time into every request.
    let _ = stream.set_nodelay(true);
    if shared.config.write_stall_ms > 0 {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(
            shared.config.write_stall_ms.max(1),
        )));
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let Ok(registered) = stream.try_clone() else {
        return;
    };
    lock(&shared.connections).insert(accept_index, registered);
    // Close the race with a shutdown that began while we were registering:
    // from here on, `begin_shutdown` reaches this connection via the map.
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let mut reader = TimedFrameReader::new(
        read_half,
        shared.config.read_timeout_ms,
        shared.config.idle_timeout_ms,
    );
    let writer = Arc::new(ConnWriter::new(stream));
    #[cfg(feature = "wire-fault-injection")]
    if let Some(spec) = crate::wirefault::install(accept_index as usize) {
        reader.stall_read_ms = spec.stall_read_ms;
        reader.corrupt_len_line = spec.corrupt_len_line;
        let mut fault = lock(&writer.fault);
        fault.truncate_write = spec.truncate_write;
        fault.disconnect_at_write = spec.disconnect_at_write;
    }
    loop {
        let frame = match reader.read_event(shared.config.max_frame_bytes) {
            ReadEvent::Frame(frame) => frame,
            ReadEvent::Eof | ReadEvent::Io => break,
            ReadEvent::Reaped => {
                lock(&shared.counters).connections_reaped += 1;
                break;
            }
            ReadEvent::Violation(e) => {
                send(
                    shared,
                    &writer,
                    &Response::ProtocolError {
                        message: e.to_string(),
                    },
                );
                break;
            }
        };
        let request = match Request::from_json(&frame) {
            Ok(request) => request,
            Err(message) => {
                send(shared, &writer, &Response::ProtocolError { message });
                break;
            }
        };
        match request {
            Request::Ping => {
                if !send(shared, &writer, &Response::Pong) {
                    break;
                }
            }
            Request::Stats => {
                if !send(
                    shared,
                    &writer,
                    &Response::Stats(Box::new(shared.snapshot())),
                ) {
                    break;
                }
            }
            Request::Cancel { id } => {
                let known = match lock(&shared.active).get(&id) {
                    Some(entry) => {
                        entry.token.cancel();
                        true
                    }
                    None => false,
                };
                if !send(shared, &writer, &Response::CancelAck { id, known }) {
                    break;
                }
            }
            Request::Shutdown => {
                send(shared, &writer, &Response::ShuttingDown);
                shared.begin_shutdown();
                break;
            }
            Request::Run(run) => {
                if !admit_run(shared, &writer, run) {
                    break;
                }
            }
        }
    }
    lock(&shared.connections).remove(&accept_index);
    // Dropping the reader and writer handles closes the socket once no
    // queued/running job still holds the writer — a reaped slow-loris with
    // no jobs closes immediately; a reaped connection with a streaming job
    // keeps its write half alive until the final frame.
}

/// The admission-time footprint estimate of one parsed deck.
struct Footprint {
    unknowns: usize,
    est_nnz: usize,
    declared_steps: usize,
}

/// Estimates a deck's resource footprint from its circuit and `.tran` card.
/// The nnz estimate is structural: each device or branch couples a bounded
/// number of unknown pairs (4 covers every two-terminal stamp plus the
/// diagonal contributions of MNA branch rows). The declared steps are
/// `⌈stop/step⌉` or, if more, the sources' breakpoints up to `stop`: every
/// breakpoint forces a step (and a list entry) of its own. A stop with no
/// end counts `usize::MAX`.
fn estimate_footprint(deck: &Deck, analysis: &Analysis) -> Footprint {
    let circuit = &deck.circuit;
    let unknowns = circuit.num_unknowns();
    let est_nnz = 4 * (circuit.num_devices() + circuit.num_branches()) + unknowns;
    let declared_steps = match analysis {
        Analysis::Tran { step, stop, .. } if stop.is_finite() => {
            let ratio = if *step > 0.0 {
                (stop / step).ceil()
            } else {
                0.0
            };
            // A float-to-integer cast saturates: +∞ is usize::MAX.
            let steps = if ratio >= 0.0 {
                ratio as usize
            } else {
                usize::MAX
            };
            let breakpoints = circuit
                .sources()
                .iter()
                .map(|(_, w)| w.breakpoint_count(*stop))
                .fold(0, usize::saturating_add);
            steps.max(breakpoints)
        }
        Analysis::Tran { .. } => usize::MAX,
        Analysis::OperatingPoint => 0,
    };
    Footprint {
        unknowns,
        est_nnz,
        declared_steps,
    }
}

/// Validates one `run` request end to end — deck size, parse, `.tran`
/// presence, per-job footprint budget, overload/degraded stage, in-flight
/// budget, id uniqueness — then enqueues it, replying `accepted`, `busy`,
/// `rejected` or an inline error. Returns whether the peer is still
/// reachable.
fn admit_run(shared: &Shared, writer: &Arc<ConnWriter>, run: RunRequest) -> bool {
    if run.deck.len() > shared.config.max_deck_bytes {
        return send(
            shared,
            writer,
            &Response::JobError {
                id: run.id,
                class: "usage".to_string(),
                message: format!(
                    "deck is {} bytes; this server accepts at most {}",
                    run.deck.len(),
                    shared.config.max_deck_bytes
                ),
            },
        );
    }
    // Parse at admission: the footprint budget needs the circuit, and a
    // worker should never burn queue time on unparseable input.
    let deck = match parse_deck(&run.deck) {
        Ok(deck) => deck,
        Err(e) => {
            lock(&shared.counters).jobs_failed += 1;
            return send(
                shared,
                writer,
                &Response::JobError {
                    id: run.id,
                    class: "parse".to_string(),
                    message: e.to_string(),
                },
            );
        }
    };
    let Some((analysis, options)) = deck
        .analyses
        .iter()
        .find_map(|a| Some((a, analysis_options(&deck, a)?)))
    else {
        lock(&shared.counters).jobs_failed += 1;
        return send(
            shared,
            writer,
            &Response::JobError {
                id: run.id,
                class: "usage".to_string(),
                message: "deck has no .tran card (exi-serve runs transient analyses only)"
                    .to_string(),
            },
        );
    };
    let footprint = estimate_footprint(&deck, analysis);
    let budget = &shared.config.budget;
    let over_budget = if footprint.unknowns > budget.max_unknowns {
        Some(format!(
            "deck has {} unknowns; this server admits at most {}",
            footprint.unknowns, budget.max_unknowns
        ))
    } else if footprint.est_nnz > budget.max_est_nnz {
        Some(format!(
            "deck has an estimated {} matrix nonzeros; this server admits at most {}",
            footprint.est_nnz, budget.max_est_nnz
        ))
    } else if footprint.declared_steps > budget.max_declared_steps {
        Some(format!(
            ".tran card declares {} steps; this server admits at most {}",
            footprint.declared_steps, budget.max_declared_steps
        ))
    } else {
        None
    };
    if let Some(message) = over_budget {
        lock(&shared.counters).jobs_rejected_budget += 1;
        return send(
            shared,
            writer,
            &Response::Rejected {
                id: run.id,
                reason: "budget".to_string(),
                message,
            },
        );
    }
    if shared.degraded.load(Ordering::SeqCst) && shared.live_workers.load(Ordering::SeqCst) == 0 {
        lock(&shared.counters).jobs_shed_overload += 1;
        return send(
            shared,
            writer,
            &Response::Rejected {
                id: run.id,
                reason: "degraded".to_string(),
                message: "no live workers and the respawn budget is exhausted".to_string(),
            },
        );
    }
    if shared.overload_stage.load(Ordering::SeqCst) >= 1 {
        lock(&shared.counters).jobs_shed_overload += 1;
        return send(
            shared,
            writer,
            &Response::Rejected {
                id: run.id,
                reason: "overload".to_string(),
                message: "the server is shedding load (queue saturated); retry later".to_string(),
            },
        );
    }
    let inflight_limit = shared.config.max_inflight_unknowns;
    if inflight_limit > 0 {
        let previous = shared
            .inflight_unknowns
            .fetch_add(footprint.unknowns, Ordering::SeqCst);
        if previous + footprint.unknowns > inflight_limit {
            shared
                .inflight_unknowns
                .fetch_sub(footprint.unknowns, Ordering::SeqCst);
            lock(&shared.counters).jobs_rejected_budget += 1;
            return send(
                shared,
                writer,
                &Response::Rejected {
                    id: run.id,
                    reason: "inflight".to_string(),
                    message: format!(
                        "{} in-flight unknowns + {} requested exceed the server budget {}",
                        previous, footprint.unknowns, inflight_limit
                    ),
                },
            );
        }
    }
    let deadline_ms = run.deadline_ms.or_else(|| {
        (shared.config.default_deadline_ms > 0).then_some(shared.config.default_deadline_ms)
    });
    let token = CancelToken::new();
    {
        let mut active = lock(&shared.active);
        if active.contains_key(&run.id) {
            drop(active);
            if inflight_limit > 0 {
                shared
                    .inflight_unknowns
                    .fetch_sub(footprint.unknowns, Ordering::SeqCst);
            }
            return send(
                shared,
                writer,
                &Response::JobError {
                    id: run.id,
                    class: "usage".to_string(),
                    message: "a job with this id is already active".to_string(),
                },
            );
        }
        active.insert(
            run.id.clone(),
            ActiveJob {
                token: token.clone(),
                unknowns: if inflight_limit > 0 {
                    footprint.unknowns
                } else {
                    0
                },
                started: None,
                has_deadline: deadline_ms.is_some(),
            },
        );
    }
    let probes = deck.effective_probes(&run.probes);
    let mut spec =
        BatchJob::new(run.id.clone(), deck.circuit, run.method, options).cancel_token(token);
    spec.probes = probes;
    spec.deadline = deadline_ms.map(Duration::from_millis);
    let job = Job {
        spec,
        decimate: run.decimate,
        chunk_rows: run.chunk_rows.unwrap_or(shared.config.default_chunk_rows),
        writer: Arc::clone(writer),
    };
    // Admission and the `accepted` reply happen under the writer lock so the
    // first `chunk` frame (sent by a worker through the same lock) can never
    // overtake the `accepted` frame.
    let (alive, outcome) = {
        let mut stream = writer.lock_stream();
        let outcome = shared.queue.try_push(job);
        let reply = match &outcome {
            Ok(depth) => Response::Accepted {
                id: run.id.clone(),
                queue_depth: *depth,
            },
            Err(PushError::Full) => Response::Busy {
                id: run.id.clone(),
                queue_capacity: shared.queue.capacity(),
            },
            Err(PushError::Closed) => Response::ShuttingDown,
        };
        let alive = writer
            .write_frame_with(&mut stream, &reply.to_json())
            .is_ok();
        drop(stream);
        (alive, outcome)
    };
    match outcome {
        Ok(_) => {
            lock(&shared.counters).jobs_accepted += 1;
        }
        Err(_) => {
            shared.release_job(&run.id);
            if matches!(outcome, Err(PushError::Full)) {
                lock(&shared.counters).jobs_rejected += 1;
            }
        }
    }
    alive
}

/// Streams accepted waveform points to the job's client as `chunk` frames —
/// the socket-backed [`Observer`].
///
/// Rows are formatted to 17 significant digits the moment they are accepted
/// and transported as strings, so the client materializes bytes identical to
/// a local [`exi_sim::CsvObserver`] run. Memory is bounded by
/// `chunk_rows × columns` regardless of run length, and `decimate` keeps
/// every `k`-th accepted record (the DC point is record 0 and always kept).
struct WireObserver<'a> {
    shared: &'a Shared,
    id: String,
    writer: &'a ConnWriter,
    probes: Vec<Probe>,
    /// Column labels, shipped with the first chunk then cleared.
    columns: Option<Vec<String>>,
    decimate: usize,
    chunk_rows: usize,
    seen: usize,
    rows_sent: usize,
    seq: usize,
    buffer: Vec<Vec<String>>,
    /// Latched on the first failed socket write; no further frames are
    /// attempted and the driver stops the job at the next step boundary.
    dead: bool,
}

impl<'a> WireObserver<'a> {
    fn new(
        shared: &'a Shared,
        id: String,
        writer: &'a ConnWriter,
        probes: Vec<Probe>,
        decimate: usize,
        chunk_rows: usize,
    ) -> Self {
        let mut columns = Vec::with_capacity(probes.len() + 1);
        columns.push("time".to_string());
        columns.extend(probes.iter().map(|p| p.label.clone()));
        WireObserver {
            shared,
            id,
            writer,
            probes,
            columns: Some(columns),
            decimate: decimate.max(1),
            chunk_rows: chunk_rows.max(1),
            seen: 0,
            rows_sent: 0,
            seq: 0,
            buffer: Vec::new(),
            dead: false,
        }
    }

    fn record(&mut self, t: f64, x: &[f64]) {
        let keep = self.seen.is_multiple_of(self.decimate);
        self.seen += 1;
        if !keep || self.dead {
            return;
        }
        let mut row = Vec::with_capacity(self.probes.len() + 1);
        row.push(format!("{t:.17e}"));
        for p in &self.probes {
            row.push(format!("{:.17e}", x[p.unknown]));
        }
        self.buffer.push(row);
        if self.buffer.len() >= self.chunk_rows {
            self.flush_chunk();
        }
    }

    /// Sends the buffered rows as one `chunk` frame (a no-op when empty).
    fn flush_chunk(&mut self) {
        if self.dead || self.buffer.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.buffer);
        let sent = rows.len();
        let chunk = Response::Chunk {
            id: self.id.clone(),
            seq: self.seq,
            columns: self.columns.take(),
            rows,
        };
        if send(self.shared, self.writer, &chunk) {
            self.seq += 1;
            self.rows_sent += sent;
        } else {
            self.dead = true;
        }
    }
}

impl Observer for WireObserver<'_> {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        self.record(t0, x0);
    }

    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        self.record(t, x);
    }

    fn on_finish(&mut self, _final_state: &[f64], _stats: &RunStats) {
        self.flush_chunk();
    }
}

/// Builds a failure reply in the `exi-cli` error taxonomy.
fn job_error(id: &str, class: &str, message: String) -> Response {
    Response::JobError {
        id: id.to_string(),
        class: class.to_string(),
        message,
    }
}

/// Runs one job on this worker and reports it: the run streams through a
/// [`WireObserver`] on the job executor, which also ends the run when the
/// client vanished; then the terminal frame plus the server-side counter
/// updates. Returns `true` when the job panicked, which attributes the
/// failure to its id as an `internal`-class error and tells the worker to
/// retire (the supervisor replaces it).
fn execute_job(shared: &Shared, job: Job) -> bool {
    let spec = &job.spec;
    let id = spec.label.clone();
    if let Some(entry) = lock(&shared.active).get_mut(&id) {
        entry.started = Some(Instant::now());
    }
    let probe_names: Vec<&str> = spec.probes.iter().map(String::as_str).collect();
    let (outcome, stats, rows) = match resolve_probes(&spec.circuit, &probe_names) {
        Ok(probes) => {
            let mut observer = WireObserver::new(
                shared,
                id.clone(),
                &job.writer,
                probes,
                job.decimate,
                job.chunk_rows,
            );
            let (outcome, stats) = spec.execute(&shared.plans, &mut observer, |o| o.dead);
            (outcome, stats, observer.rows_sent)
        }
        Err(e) => (Err(JobError::Sim(e)), RunStats::new(), 0),
    };
    let panicked = matches!(outcome, Err(JobError::Panicked { .. }));
    let reply = match outcome {
        Ok(None) => Response::Done {
            id,
            rows,
            stats: Box::new(stats.clone()),
        },
        Ok(Some((reason, at_time))) => Response::Cancelled {
            id,
            reason: match reason {
                CancelReason::Token => "token".to_string(),
                CancelReason::Deadline => "deadline".to_string(),
            },
            at_time: format!("{at_time:.17e}"),
            rows,
        },
        Err(JobError::Panicked { message }) => job_error(
            &id,
            "internal",
            format!("worker panicked while running this job: {message}"),
        ),
        // Same class the CLI assigns to SimError (`CliError::Sim`).
        Err(e) => job_error(&id, "convergence", e.to_string()),
    };
    shared.release_job(&spec.label);
    {
        let mut counters = lock(&shared.counters);
        counters.solver.absorb(&stats);
        match reply {
            Response::Done { .. } => counters.jobs_completed += 1,
            Response::Cancelled { .. } => counters.jobs_cancelled += 1,
            _ => counters.jobs_failed += 1,
        }
    }
    send(shared, &job.writer, &reply);
    panicked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_bounded() {
        let config = ServeConfig::default();
        assert!(config.queue_capacity >= 1);
        assert!(config.max_deck_bytes <= config.max_frame_bytes);
        assert!(config.plan_cache_capacity.is_some());
        // The in-flight budget must admit at least one maximal job, and the
        // ladder thresholds must be ordered.
        assert!(config.max_inflight_unknowns >= config.budget.max_unknowns);
        assert!(config.overload.shed_after_ms <= config.overload.cancel_after_ms);
        assert!(config.overload.cancel_after_ms <= config.overload.drain_after_ms);
    }

    #[test]
    fn snapshot_reflects_counters_and_queue() {
        let server = Server::bind(ServeConfig {
            queue_capacity: 3,
            workers: 5,
            ..ServeConfig::default()
        })
        .unwrap();
        {
            let mut counters = lock(&server.shared.counters);
            counters.jobs_accepted = 4;
            counters.jobs_rejected = 1;
            counters.jobs_rejected_budget = 2;
            counters.workers_respawned = 1;
            counters.connections_reaped = 3;
            counters.write_stalls = 1;
            counters.solver.accepted_steps = 99;
        }
        let snap = server.shared.snapshot();
        assert_eq!(snap.jobs_accepted, 4);
        assert_eq!(snap.jobs_rejected, 1);
        assert_eq!(snap.jobs_rejected_budget, 2);
        assert_eq!(snap.workers_respawned, 1);
        assert_eq!(snap.connections_reaped, 3);
        assert_eq!(snap.write_stalls, 1);
        assert_eq!(snap.solver.accepted_steps, 99);
        assert_eq!(snap.queue_capacity, 3);
        assert_eq!(snap.workers, 5);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.overload_stage, 0);
    }

    #[test]
    fn ladder_stages_are_monotone_in_full_time() {
        let overload = OverloadConfig {
            shed_after_ms: 100,
            cancel_after_ms: 200,
            drain_after_ms: 400,
            soft_deadline_ms: 50,
        };
        assert_eq!(ladder_stage(None, &overload), 0);
        assert_eq!(ladder_stage(Some(Duration::from_millis(50)), &overload), 0);
        assert_eq!(ladder_stage(Some(Duration::from_millis(100)), &overload), 1);
        assert_eq!(ladder_stage(Some(Duration::from_millis(250)), &overload), 2);
        assert_eq!(ladder_stage(Some(Duration::from_millis(400)), &overload), 3);
        assert_eq!(ladder_stage(Some(Duration::from_secs(9999)), &overload), 3);
    }

    #[test]
    fn footprint_estimates_scale_with_the_deck() {
        let deck =
            parse_deck("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1f\n.tran 1p 100p\n.print v(out)\n")
                .expect("parse");
        let analysis = deck
            .analyses
            .iter()
            .find(|a| matches!(a, Analysis::Tran { .. }))
            .expect("tran");
        let footprint = estimate_footprint(&deck, analysis);
        assert_eq!(footprint.unknowns, deck.circuit.num_unknowns());
        assert_eq!(footprint.declared_steps, 100);
        assert!(footprint.est_nnz >= footprint.unknowns);
    }

    /// The declared steps of `.tran <card>` on an RC driven by a 20 ns
    /// PULSE.
    fn declared_steps(card: &str) -> usize {
        let deck = parse_deck(&format!(
            "V1 in 0 PULSE(0 1 0 1n 1n 5n 20n)\nR1 in out 1k\nC1 out 0 1f\n.tran {card}\n"
        ))
        .expect("parse");
        estimate_footprint(&deck, &deck.analyses[0]).declared_steps
    }

    #[test]
    fn footprint_counts_the_steps_breakpoints_force() {
        // 1e6 steps by the card, but the PULSE lists 4 corners for each of
        // its 5e10 periods in 1000 s.
        let steps = declared_steps("1m 1000");
        assert!(steps >= 200_000_000_000, "{steps}");
        // Few breakpoints leave the card's count.
        assert_eq!(declared_steps("1p 100p"), 100);
    }

    #[test]
    fn footprint_of_a_stop_that_overflows_is_unbounded() {
        assert_eq!(declared_steps("1p 1e999"), usize::MAX);
    }

    #[test]
    fn timed_reader_parses_split_and_back_to_back_frames() {
        // A loopback socket pair exercises the real read path.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = TimedFrameReader::new(server_side, 1_000, 1_000);
        use std::io::Write as _;
        // Two frames in one burst, the second split across writes.
        client.write_all(b"4\nping\n7\npa").unwrap();
        client.flush().unwrap();
        match reader.read_event(1024) {
            ReadEvent::Frame(frame) => assert_eq!(frame, "ping"),
            _ => panic!("expected first frame"),
        }
        client.write_all(b"rtial\n").unwrap();
        client.flush().unwrap();
        match reader.read_event(1024) {
            ReadEvent::Frame(frame) => assert_eq!(frame, "partial"),
            _ => panic!("expected second frame"),
        }
        drop(client);
        assert!(matches!(reader.read_event(1024), ReadEvent::Eof));
    }

    #[test]
    fn timed_reader_reaps_a_stalled_len_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        // 60 ms frame deadline, idle disabled: a partial length line with no
        // newline must be reaped, not buffered forever.
        let mut reader = TimedFrameReader::new(server_side, 60, 0);
        use std::io::Write as _;
        client.write_all(b"12").unwrap();
        client.flush().unwrap();
        let started = Instant::now();
        assert!(matches!(reader.read_event(1024), ReadEvent::Reaped));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "reap happens promptly"
        );
    }
}

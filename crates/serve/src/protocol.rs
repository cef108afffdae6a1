//! The `exi-serve` wire protocol: length-prefixed newline-JSON frames.
//!
//! # Framing
//!
//! Every message — in both directions — is one frame:
//!
//! ```text
//! <decimal byte length of the JSON document>\n
//! <that many bytes of single-line JSON>\n
//! ```
//!
//! The explicit length makes oversized-payload rejection possible *before*
//! buffering the document, and the trailing newline keeps the stream
//! self-synchronizing enough to detect a desynced peer immediately. A frame
//! whose declared length exceeds the receiver's limit, whose length line is
//! not a decimal number, or whose payload is not valid JSON is a protocol
//! error; the server replies with a `protocol_error` frame and closes the
//! connection (there is no way to resynchronize a corrupt length prefix).
//!
//! # Bit-identity
//!
//! Waveform samples travel as **preformatted strings** (17 significant
//! digits, the repo-wide `{:.17e}` contract) inside `chunk.rows`, never as
//! JSON numbers. The client writes them into its CSV verbatim, so the bytes
//! a client materializes are identical to what `exi-cli run` writes locally
//! — no float parser sits between the solver and the file.

use std::io::{BufRead, Read, Write};

use exi_sim::{Method, RunStats};

use crate::json::{n, obj, s, Json};
use crate::stats::{run_stats_from_json, run_stats_json, ServerStats};

/// Default cap on a single frame's JSON payload (1 MiB) — large enough for
/// any realistic deck or chunk, small enough that a hostile length prefix
/// cannot balloon server memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The frame violates the protocol (bad length line, bad JSON, missing
    /// terminator); the connection cannot be trusted afterwards.
    Malformed(String),
    /// The declared payload length exceeds the receiver's limit.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The receiver's limit.
        limit: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::Oversized { declared, limit } => {
                write!(f, "oversized frame: {declared} bytes (limit {limit})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (`<len>\n<json>\n`) and flushes.
///
/// # Errors
///
/// Propagates sink errors.
pub fn write_frame(w: &mut dyn Write, json: &str) -> std::io::Result<()> {
    // One vectored-ish write: assembling the whole frame first keeps a
    // concurrent writer (several workers share one socket mutex) from ever
    // interleaving partial frames even if the mutex discipline regressed.
    let mut frame = String::with_capacity(json.len() + 16);
    frame.push_str(&json.len().to_string());
    frame.push('\n');
    frame.push_str(json);
    frame.push('\n');
    w.write_all(frame.as_bytes())?;
    w.flush()
}

/// Reads one frame's JSON payload. Returns `Ok(None)` on clean end-of-stream
/// (EOF before any length byte).
///
/// # Errors
///
/// `FrameError::Oversized` when the declared length exceeds `max_bytes`
/// (nothing beyond the length line has been consumed);
/// `FrameError::Malformed` for a non-decimal length line or a missing
/// trailing newline; `FrameError::Io` for transport failures.
pub fn read_frame(r: &mut dyn BufRead, max_bytes: usize) -> Result<Option<String>, FrameError> {
    let mut len_line = String::new();
    // Bound the length line itself: 20 digits covers u64, anything longer
    // is garbage that must not be buffered without limit.
    let read = (&mut *r)
        .take(32)
        .read_line(&mut len_line)
        .map_err(FrameError::Io)?;
    if read == 0 {
        return Ok(None);
    }
    let trimmed = len_line.trim_end_matches(['\r', '\n']);
    if !len_line.ends_with('\n') {
        return Err(FrameError::Malformed(format!(
            "length line '{trimmed}' not newline-terminated"
        )));
    }
    let declared: usize = trimmed
        .parse()
        .map_err(|_| FrameError::Malformed(format!("bad length line '{trimmed}'")))?;
    if declared > max_bytes {
        return Err(FrameError::Oversized {
            declared,
            limit: max_bytes,
        });
    }
    let mut payload = vec![0u8; declared + 1];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    if payload.pop() != Some(b'\n') {
        return Err(FrameError::Malformed(
            "frame payload not newline-terminated".to_string(),
        ));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::Malformed("frame payload is not utf-8".to_string()))
}

/// The canonical wire name of an integration method.
pub fn method_name(method: Method) -> &'static str {
    match method {
        Method::ExponentialRosenbrock => "er",
        Method::ExponentialRosenbrockCorrected => "erc",
        Method::BackwardEuler => "be",
        Method::Trapezoidal => "tr",
    }
}

/// Parses a wire method name (the same aliases as `exi-cli --method`).
pub fn parse_method(name: &str) -> Option<Method> {
    match name.to_ascii_lowercase().as_str() {
        "er" => Some(Method::ExponentialRosenbrock),
        "erc" | "er-c" => Some(Method::ExponentialRosenbrockCorrected),
        "be" | "benr" => Some(Method::BackwardEuler),
        "tr" | "trnr" | "trap" => Some(Method::Trapezoidal),
        _ => None,
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a deck for simulation.
    Run(RunRequest),
    /// Cancel the job with the given id (bit-exact prefix partial).
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// Ask for a [`ServerStats`] snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop accepting work, drain in-flight jobs, exit.
    Shutdown,
}

/// The payload of a [`Request::Run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Client-chosen job id; replies and cancellation refer to it. Must be
    /// unique among the server's active jobs.
    pub id: String,
    /// The SPICE deck text (the daemon runs its first `.tran` card).
    pub deck: String,
    /// Integration method.
    pub method: Method,
    /// Probe overrides; empty means the deck's `.print` cards, else every
    /// node — the same cascade as `exi-cli run`.
    pub probes: Vec<String>,
    /// Keep every `decimate`-th accepted row (1 = every row; the
    /// memory-capped streaming knob).
    pub decimate: usize,
    /// Rows per `chunk` frame; `None` uses the server default.
    pub chunk_rows: Option<usize>,
    /// Wall-clock budget in milliseconds, measured from the moment a worker
    /// picks the job up; `None` runs uncapped.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// Serializes the request as single-line JSON.
    pub fn to_json(&self) -> String {
        match self {
            Request::Run(run) => {
                let mut pairs = vec![
                    ("type", s("run")),
                    ("id", s(&run.id)),
                    ("deck", s(&run.deck)),
                    ("method", s(method_name(run.method))),
                    ("decimate", n(run.decimate)),
                ];
                if !run.probes.is_empty() {
                    pairs.push(("probes", Json::Arr(run.probes.iter().map(s).collect())));
                }
                if let Some(rows) = run.chunk_rows {
                    pairs.push(("chunk_rows", n(rows)));
                }
                if let Some(ms) = run.deadline_ms {
                    pairs.push(("deadline_ms", Json::Num(ms as f64)));
                }
                obj(pairs).dump()
            }
            Request::Cancel { id } => obj(vec![("type", s("cancel")), ("id", s(id))]).dump(),
            Request::Stats => obj(vec![("type", s("stats"))]).dump(),
            Request::Ping => obj(vec![("type", s("ping"))]).dump(),
            Request::Shutdown => obj(vec![("type", s("shutdown"))]).dump(),
        }
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// A description of the first problem (unknown type, missing field,
    /// wrong field type).
    pub fn from_json(text: &str) -> Result<Request, String> {
        let v = Json::parse(text)?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing 'type' field")?;
        let id = |v: &Json| -> Result<String, String> {
            Ok(v.get("id")
                .and_then(Json::as_str)
                .ok_or("missing 'id' field")?
                .to_string())
        };
        match kind {
            "run" => {
                let deck = v
                    .get("deck")
                    .and_then(Json::as_str)
                    .ok_or("run: missing 'deck' field")?
                    .to_string();
                let method = match v.get("method").and_then(Json::as_str) {
                    None => Method::ExponentialRosenbrock,
                    Some(name) => {
                        parse_method(name).ok_or_else(|| format!("unknown method '{name}'"))?
                    }
                };
                let probes = match v.get("probes") {
                    None => Vec::new(),
                    Some(arr) => arr
                        .as_arr()
                        .ok_or("run: 'probes' must be an array")?
                        .iter()
                        .map(|p| {
                            p.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "run: probes must be strings".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                };
                let decimate = match v.get("decimate") {
                    None => 1,
                    Some(d) => d
                        .as_u64()
                        .filter(|&d| d >= 1)
                        .ok_or("run: 'decimate' must be a positive integer")?
                        as usize,
                };
                let chunk_rows = match v.get("chunk_rows") {
                    None => None,
                    Some(c) => Some(
                        c.as_u64()
                            .filter(|&c| c >= 1)
                            .ok_or("run: 'chunk_rows' must be a positive integer")?
                            as usize,
                    ),
                };
                let deadline_ms = match v.get("deadline_ms") {
                    None => None,
                    Some(d) => Some(d.as_u64().ok_or("run: 'deadline_ms' must be an integer")?),
                };
                Ok(Request::Run(RunRequest {
                    id: id(&v)?,
                    deck,
                    method,
                    probes,
                    decimate,
                    chunk_rows,
                    deadline_ms,
                }))
            }
            "cancel" => Ok(Request::Cancel { id: id(&v)? }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type '{other}'")),
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The run was admitted to the queue.
    Accepted {
        /// The job id.
        id: String,
        /// Queue depth after admission (including this job).
        queue_depth: usize,
    },
    /// Backpressure: the queue is full, try again later.
    Busy {
        /// The rejected job id.
        id: String,
        /// The queue's capacity.
        queue_capacity: usize,
    },
    /// Admission control refused the job before it touched the queue.
    Rejected {
        /// The refused job id.
        id: String,
        /// Machine-readable refusal class: `"budget"` (per-job footprint),
        /// `"inflight"` (server-wide in-flight budget), `"overload"`
        /// (shedding ladder), or `"degraded"` (no workers left).
        reason: String,
        /// Human-readable detail (which limit, measured vs allowed).
        message: String,
    },
    /// A slice of waveform rows, in simulation order.
    Chunk {
        /// The job id.
        id: String,
        /// Chunk sequence number, from 0.
        seq: usize,
        /// Column labels (`time` first), present on the first chunk only.
        columns: Option<Vec<String>>,
        /// Rows of preformatted 17-significant-digit values — written to
        /// CSV verbatim, never reparsed.
        rows: Vec<Vec<String>>,
    },
    /// The job finished with a complete waveform.
    Done {
        /// The job id.
        id: String,
        /// Total data rows streamed (after decimation).
        rows: usize,
        /// The job's session statistics; on the wire every field is a
        /// top-level key of its own.
        stats: Box<RunStats>,
    },
    /// The job stopped early; everything streamed so far is a bit-exact
    /// prefix of the uncancelled run.
    Cancelled {
        /// The job id.
        id: String,
        /// `"token"` (cancelled over the wire) or `"deadline"`.
        reason: String,
        /// Simulation time at the stop boundary, preformatted.
        at_time: String,
        /// Total data rows streamed before the stop.
        rows: usize,
    },
    /// The job failed; `class` matches the `exi-cli` error taxonomy
    /// (`parse`, `convergence`, `io`, `usage`, `internal`).
    JobError {
        /// The job id (empty when the failure precedes admission).
        id: String,
        /// Machine-readable failure class.
        class: String,
        /// Human-readable message.
        message: String,
    },
    /// Acknowledges a cancel request.
    CancelAck {
        /// The id the cancel referred to.
        id: String,
        /// Whether the id named an active (queued or running) job.
        known: bool,
    },
    /// A [`ServerStats`] snapshot.
    Stats(Box<ServerStats>),
    /// Liveness reply.
    Pong,
    /// The server is draining and will exit; no further work is accepted.
    ShuttingDown,
    /// The peer broke the framing or JSON rules; the connection closes
    /// after this frame.
    ProtocolError {
        /// What was wrong.
        message: String,
    },
}

impl Response {
    /// Serializes the response as single-line JSON.
    pub fn to_json(&self) -> String {
        match self {
            Response::Accepted { id, queue_depth } => obj(vec![
                ("type", s("accepted")),
                ("id", s(id)),
                ("queue_depth", n(*queue_depth)),
            ])
            .dump(),
            Response::Busy { id, queue_capacity } => obj(vec![
                ("type", s("busy")),
                ("id", s(id)),
                ("queue_capacity", n(*queue_capacity)),
            ])
            .dump(),
            Response::Rejected {
                id,
                reason,
                message,
            } => obj(vec![
                ("type", s("rejected")),
                ("id", s(id)),
                ("reason", s(reason)),
                ("message", s(message)),
            ])
            .dump(),
            Response::Chunk {
                id,
                seq,
                columns,
                rows,
            } => {
                let mut pairs = vec![("type", s("chunk")), ("id", s(id)), ("seq", n(*seq))];
                if let Some(columns) = columns {
                    pairs.push(("columns", Json::Arr(columns.iter().map(s).collect())));
                }
                pairs.push((
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|row| Json::Arr(row.iter().map(s).collect()))
                            .collect(),
                    ),
                ));
                obj(pairs).dump()
            }
            Response::Done { id, rows, stats } => {
                let mut members = vec![("type", s("done")), ("id", s(id)), ("rows", n(*rows))];
                members.extend(run_stats_json(stats));
                obj(members).dump()
            }
            Response::Cancelled {
                id,
                reason,
                at_time,
                rows,
            } => obj(vec![
                ("type", s("cancelled")),
                ("id", s(id)),
                ("reason", s(reason)),
                ("at_time", s(at_time)),
                ("rows", n(*rows)),
            ])
            .dump(),
            Response::JobError { id, class, message } => obj(vec![
                ("type", s("error")),
                ("id", s(id)),
                ("class", s(class)),
                ("message", s(message)),
            ])
            .dump(),
            Response::CancelAck { id, known } => obj(vec![
                ("type", s("cancel_ack")),
                ("id", s(id)),
                ("known", Json::Bool(*known)),
            ])
            .dump(),
            Response::Stats(stats) => {
                obj(vec![("type", s("stats")), ("stats", stats.to_json())]).dump()
            }
            Response::Pong => obj(vec![("type", s("pong"))]).dump(),
            Response::ShuttingDown => obj(vec![("type", s("shutting_down"))]).dump(),
            Response::ProtocolError { message } => {
                obj(vec![("type", s("protocol_error")), ("message", s(message))]).dump()
            }
        }
    }

    /// Parses a response frame (the client side).
    ///
    /// # Errors
    ///
    /// A description of the first problem found.
    pub fn from_json(text: &str) -> Result<Response, String> {
        let v = Json::parse(text)?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing 'type' field")?;
        let id = |v: &Json| -> Result<String, String> {
            Ok(v.get("id")
                .and_then(Json::as_str)
                .ok_or("missing 'id' field")?
                .to_string())
        };
        let count = |v: &Json, key: &str| -> Result<usize, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .map(|u| u as usize)
                .ok_or_else(|| format!("missing counter '{key}'"))
        };
        match kind {
            "accepted" => Ok(Response::Accepted {
                id: id(&v)?,
                queue_depth: count(&v, "queue_depth")?,
            }),
            "busy" => Ok(Response::Busy {
                id: id(&v)?,
                queue_capacity: count(&v, "queue_capacity")?,
            }),
            "rejected" => Ok(Response::Rejected {
                id: id(&v)?,
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or("rejected: missing 'reason'")?
                    .to_string(),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("rejected: missing 'message'")?
                    .to_string(),
            }),
            "chunk" => {
                let columns = match v.get("columns") {
                    None => None,
                    Some(arr) => Some(
                        arr.as_arr()
                            .ok_or("chunk: 'columns' must be an array")?
                            .iter()
                            .map(|c| {
                                c.as_str()
                                    .map(str::to_string)
                                    .ok_or_else(|| "chunk: columns must be strings".to_string())
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                };
                let rows = v
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or("chunk: missing 'rows' array")?
                    .iter()
                    .map(|row| {
                        row.as_arr()
                            .ok_or_else(|| "chunk: rows must be arrays".to_string())?
                            .iter()
                            .map(|cell| {
                                cell.as_str()
                                    .map(str::to_string)
                                    .ok_or_else(|| "chunk: cells must be strings".to_string())
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Chunk {
                    id: id(&v)?,
                    seq: count(&v, "seq")?,
                    columns,
                    rows,
                })
            }
            "done" => Ok(Response::Done {
                id: id(&v)?,
                rows: count(&v, "rows")?,
                stats: Box::new(run_stats_from_json(&v)?),
            }),
            "cancelled" => Ok(Response::Cancelled {
                id: id(&v)?,
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or("cancelled: missing 'reason'")?
                    .to_string(),
                at_time: v
                    .get("at_time")
                    .and_then(Json::as_str)
                    .ok_or("cancelled: missing 'at_time'")?
                    .to_string(),
                rows: count(&v, "rows")?,
            }),
            "error" => Ok(Response::JobError {
                id: id(&v)?,
                class: v
                    .get("class")
                    .and_then(Json::as_str)
                    .ok_or("error: missing 'class'")?
                    .to_string(),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error: missing 'message'")?
                    .to_string(),
            }),
            "cancel_ack" => Ok(Response::CancelAck {
                id: id(&v)?,
                known: v
                    .get("known")
                    .and_then(Json::as_bool)
                    .ok_or("cancel_ack: missing 'known'")?,
            }),
            "stats" => {
                let stats = v.get("stats").ok_or("stats: missing payload")?;
                Ok(Response::Stats(Box::new(
                    ServerStats::from_json(stats).ok_or("stats: bad payload")?,
                )))
            }
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            "protocol_error" => Ok(Response::ProtocolError {
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("protocol_error: missing 'message'")?
                    .to_string(),
            }),
            other => Err(format!("unknown response type '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tests::distinct_counters;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, r#"{"type":"ping"}"#).unwrap();
        write_frame(&mut wire, r#"{"type":"stats"}"#).unwrap();
        let mut reader = std::io::BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .as_deref(),
            Some(r#"{"type":"ping"}"#)
        );
        assert_eq!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .as_deref(),
            Some(r#"{"type":"stats"}"#)
        );
        assert!(read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_and_malformed_frames_are_rejected() {
        let mut reader = std::io::BufReader::new(&b"999999999\n"[..]);
        assert!(matches!(
            read_frame(&mut reader, 1024),
            Err(FrameError::Oversized {
                declared: 999_999_999,
                limit: 1024
            })
        ));
        let mut reader = std::io::BufReader::new(&b"not-a-number\n{}\n"[..]);
        assert!(matches!(
            read_frame(&mut reader, 1024),
            Err(FrameError::Malformed(_))
        ));
        // Payload shorter than declared: the missing terminator is detected.
        let mut reader = std::io::BufReader::new(&b"10\n{}\n"[..]);
        assert!(matches!(
            read_frame(&mut reader, 1024),
            Err(FrameError::Io(_) | FrameError::Malformed(_))
        ));
        // A length line that never terminates is bounded, not buffered.
        let mut reader = std::io::BufReader::new(&b"11111111111111111111111111111111111"[..]);
        assert!(matches!(
            read_frame(&mut reader, 1024),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn requests_round_trip() {
        let run = Request::Run(RunRequest {
            id: "job-1".to_string(),
            deck: "V1 a 0 DC 1\nR1 a 0 1k\n.tran 1p 10p\n".to_string(),
            method: Method::BackwardEuler,
            probes: vec!["a".to_string()],
            decimate: 4,
            chunk_rows: Some(32),
            deadline_ms: Some(1500),
        });
        for req in [
            run,
            Request::Cancel {
                id: "job-1".to_string(),
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ] {
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(back, req);
        }
        // Defaults: method er, decimate 1, no probes/chunk/deadline.
        let minimal =
            Request::from_json(r#"{"type":"run","id":"x","deck":".tran 1p 2p\n"}"#).unwrap();
        match minimal {
            Request::Run(run) => {
                assert_eq!(run.method, Method::ExponentialRosenbrock);
                assert_eq!(run.decimate, 1);
                assert!(run.probes.is_empty());
                assert_eq!(run.chunk_rows, None);
                assert_eq!(run.deadline_ms, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Request::from_json(r#"{"type":"warp"}"#).is_err());
        assert!(Request::from_json(r#"{"type":"run","id":"x"}"#).is_err());
        assert!(Request::from_json(r#"{"type":"run","id":"x","deck":"d","decimate":0}"#).is_err());
    }

    #[test]
    fn responses_round_trip() {
        let samples = vec![
            Response::Accepted {
                id: "j".to_string(),
                queue_depth: 3,
            },
            Response::Busy {
                id: "j".to_string(),
                queue_capacity: 16,
            },
            Response::Rejected {
                id: "j".to_string(),
                reason: "budget".to_string(),
                message: "declared steps 60000 exceed budget 1000".to_string(),
            },
            Response::Chunk {
                id: "j".to_string(),
                seq: 0,
                columns: Some(vec!["time".to_string(), "out".to_string()]),
                rows: vec![vec![
                    "0.00000000000000000e0".to_string(),
                    "1.5e0".to_string(),
                ]],
            },
            Response::Chunk {
                id: "j".to_string(),
                seq: 1,
                columns: None,
                rows: vec![],
            },
            Response::Done {
                id: "j".to_string(),
                rows: 42,
                stats: Box::new(distinct_counters()),
            },
            Response::Cancelled {
                id: "j".to_string(),
                reason: "token".to_string(),
                at_time: "1.00000000000000000e-10".to_string(),
                rows: 7,
            },
            Response::JobError {
                id: "j".to_string(),
                class: "parse".to_string(),
                message: "line 3: bad card".to_string(),
            },
            Response::CancelAck {
                id: "j".to_string(),
                known: true,
            },
            Response::Stats(Box::new(ServerStats {
                solver: distinct_counters(),
                ..ServerStats::default()
            })),
            Response::Pong,
            Response::ShuttingDown,
            Response::ProtocolError {
                message: "bad length line".to_string(),
            },
        ];
        for resp in samples {
            let back = Response::from_json(&resp.to_json()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn method_names_round_trip() {
        for method in [
            Method::ExponentialRosenbrock,
            Method::ExponentialRosenbrockCorrected,
            Method::BackwardEuler,
            Method::Trapezoidal,
        ] {
            assert_eq!(parse_method(method_name(method)), Some(method));
        }
        assert_eq!(parse_method("rk4"), None);
    }
}

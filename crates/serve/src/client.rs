//! A blocking client for the `exi-serve` wire protocol — the library behind
//! `exi-cli client` and the integration tests.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use exi_sim::RunStats;

use crate::protocol::{
    read_frame, write_frame, FrameError, Request, Response, RunRequest, DEFAULT_MAX_FRAME_BYTES,
};
use crate::stats::ServerStats;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// The server sent a frame this client could not parse or did not
    /// expect.
    Protocol(String),
    /// The server reported a protocol violation and closed the connection.
    Rejected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Rejected(m) => write!(f, "rejected by server: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// How a streamed run ended (every variant after the waveform prefix — if
/// any — has been written to the sink).
#[derive(Debug, Clone, PartialEq)]
pub enum RunEnd {
    /// Complete waveform; carries the server's `done` statistics.
    Done {
        /// Data rows written (header not counted).
        rows: usize,
        /// The job's session statistics.
        stats: Box<RunStats>,
    },
    /// Cancelled (wire or deadline); the sink holds a bit-exact prefix.
    Cancelled {
        /// `"token"` or `"deadline"`.
        reason: String,
        /// Simulation time at the stop boundary.
        at_time: String,
        /// Data rows written before the stop.
        rows: usize,
    },
    /// The job failed with an `exi-cli`-taxonomy error class.
    Failed {
        /// `parse`, `convergence`, `io`, `usage` or `internal`.
        class: String,
        /// Human-readable message.
        message: String,
    },
    /// Backpressure: the queue was full.
    Busy,
    /// Admission control refused the job before it could queue.
    Rejected {
        /// `"budget"`, `"inflight"`, `"overload"` or `"degraded"`.
        reason: String,
        /// Human-readable explanation of the refusal.
        message: String,
    },
    /// The server is shutting down and did not accept the job.
    ShuttingDown,
}

/// A blocking connection to an `exi-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame_bytes: usize,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        write_frame(&mut self.writer, &request.to_json())
    }

    /// Receives one response frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on EOF/transport failure, [`ClientError::Protocol`]
    /// on an unparseable frame.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let frame = read_frame(&mut self.reader, self.max_frame_bytes)?
            .ok_or_else(|| ClientError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
        Response::from_json(&frame).map_err(ClientError::Protocol)
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unexpected reply type.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Fetches a [`ServerStats`] snapshot.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unexpected reply type.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(stats) => Ok(*stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Requests cancellation of `id`; returns whether the server knew the
    /// job.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unexpected reply type.
    pub fn cancel(&mut self, id: &str) -> Result<bool, ClientError> {
        self.send(&Request::Cancel { id: id.to_string() })?;
        match self.recv()? {
            Response::CancelAck { known, .. } => Ok(known),
            other => Err(unexpected("cancel_ack", &other)),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unexpected reply type.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutting_down", &other)),
        }
    }

    /// Submits `run` and streams its waveform into `sink` as
    /// delimiter-separated rows, writing every received value **verbatim** —
    /// the resulting bytes are identical to `exi-cli run` on the same deck.
    ///
    /// Interleaved non-run frames (`pong`, `stats`, `cancel_ack`) are
    /// skipped; the first terminal frame for this job ends the call.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures and sink write errors. Job-level failures
    /// are returned as [`RunEnd`] values, not errors.
    pub fn run_streaming(
        &mut self,
        run: RunRequest,
        sink: &mut dyn Write,
        delimiter: char,
    ) -> Result<RunEnd, ClientError> {
        let id = run.id.clone();
        self.send(&Request::Run(run))?;
        loop {
            match self.recv()? {
                Response::Accepted { .. } => {}
                Response::Busy { id: busy_id, .. } if busy_id == id => return Ok(RunEnd::Busy),
                Response::Rejected {
                    id: rejected_id,
                    reason,
                    message,
                } if rejected_id == id => return Ok(RunEnd::Rejected { reason, message }),
                Response::ShuttingDown => return Ok(RunEnd::ShuttingDown),
                Response::Chunk {
                    id: chunk_id,
                    columns,
                    rows,
                    ..
                } if chunk_id == id => {
                    if let Some(columns) = columns {
                        write_joined(sink, &columns, delimiter)?;
                    }
                    for row in &rows {
                        write_joined(sink, row, delimiter)?;
                    }
                }
                Response::Done {
                    id: done_id,
                    rows,
                    stats,
                } if done_id == id => {
                    sink.flush()?;
                    return Ok(RunEnd::Done { rows, stats });
                }
                Response::Cancelled {
                    id: cancelled_id,
                    reason,
                    at_time,
                    rows,
                } if cancelled_id == id => {
                    sink.flush()?;
                    return Ok(RunEnd::Cancelled {
                        reason,
                        at_time,
                        rows,
                    });
                }
                Response::JobError {
                    id: err_id,
                    class,
                    message,
                } if err_id == id => return Ok(RunEnd::Failed { class, message }),
                Response::ProtocolError { message } => return Err(ClientError::Rejected(message)),
                // A frame for another job on a shared connection, or an
                // interleaved reply to a side request: skip it.
                _ => {}
            }
        }
    }
}

fn write_joined(sink: &mut dyn Write, cells: &[String], delimiter: char) -> std::io::Result<()> {
    let mut first = true;
    for cell in cells {
        if !first {
            write!(sink, "{delimiter}")?;
        }
        sink.write_all(cell.as_bytes())?;
        first = false;
    }
    writeln!(sink)
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {}", got.to_json()))
}

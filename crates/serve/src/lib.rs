//! # exi-serve
//!
//! A **resident simulation service** for the exi-sim stack: a long-running
//! daemon that accepts SPICE decks over TCP, runs them on a worker pool
//! whose sessions share the fleet-wide warm caches, and streams waveforms
//! back incrementally — the multi-tenant extension of the paper's
//! amortization argument. Where [`exi_sim::BatchRunner`] shares compiled
//! plans across a *batch*, the daemon shares them across *clients and
//! time*: every worker session is built with
//! [`exi_sim::Simulator::with_plan_cache`] over one capacity-bounded LRU
//! cache, so requests sharing a circuit fingerprint perform one plan
//! compilation (and one `G` ordering) server-wide, however many connections
//! submit them and however far apart in time. Each job still pivots its own
//! matrices: its bytes never depend on what the daemon served before.
//!
//! Everything is `std`-only: the wire format is hand-rolled length-prefixed
//! newline-JSON ([`protocol`]), the transport is [`std::net::TcpListener`],
//! and concurrency is `Mutex`/`Condvar` ([`queue`]) plus scoped threads.
//!
//! The moving parts:
//!
//! * [`protocol`] — frames, [`Request`]/[`Response`], and the bit-identity
//!   contract (waveform values travel as preformatted 17-digit strings).
//! * [`queue`] — the bounded FIFO with `busy` backpressure and
//!   close-and-drain shutdown.
//! * [`server`] — [`Server`]: accept loop, per-connection handlers, worker
//!   pool, the socket-backed streaming `Observer`, per-job deadlines and
//!   wire cancellation on the `CancelToken` contract (cancelled jobs stream
//!   a bit-exact prefix of the uncancelled run).
//! * [`client`] — [`Client`]: the blocking client library behind
//!   `exi-cli client`.
//! * [`stats`] — [`ServerStats`]: the consistent observability snapshot a
//!   `stats` request returns (job counters, queue state, cache residency).
//! * `wirefault` *(feature `wire-fault-injection`)* — deterministic
//!   wire-level fault injection for chaos tests: truncated frames,
//!   mid-stream disconnects, stalled readers, corrupted length lines, armed
//!   per accepted connection.
//!
//! # Hardening
//!
//! The daemon assumes hostile tenants. Admission control estimates every
//! deck's footprint against a [`JobBudget`] (and a server-wide in-flight
//! unknown budget) before queueing; jobs that declare no deadline inherit
//! the server default. A supervisor respawns workers that panic (bounded
//! per window, then degraded mode) after attributing the failure to the
//! offending job. Stalled or idle connections are reaped without occupying
//! a worker, and a client that stops reading trips the write-stall deadline.
//! Under sustained queue pressure an [`OverloadConfig`]-driven ladder sheds
//! load in documented stages. `docs/SERVICE.md` covers limits, the ladder
//! and the failure modes; `docs/ROBUSTNESS.md` covers the fault taxonomy.
//!
//! See `docs/SERVICE.md` for the protocol specification and operational
//! notes.
//!
//! # Example
//!
//! ```no_run
//! use exi_serve::{Client, RunRequest, Server, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind(ServeConfig::default())?;
//! let addr = server.local_addr()?;
//! let daemon = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let mut csv = Vec::new();
//! let end = client.run_streaming(
//!     RunRequest {
//!         id: "job-1".to_string(),
//!         deck: "V1 in 0 PULSE(0 1 0 10p 10p 200p)\n\
//!                R1 in out 1k\n\
//!                C1 out 0 1f\n\
//!                .tran 1p 500p\n\
//!                .print v(out)\n"
//!             .to_string(),
//!         method: exi_sim::Method::ExponentialRosenbrock,
//!         probes: Vec::new(),
//!         decimate: 1,
//!         chunk_rows: None,
//!         deadline_ms: None,
//!     },
//!     &mut csv,
//!     ',',
//! )?;
//! println!("{end:?}: {} bytes of CSV", csv.len());
//! client.shutdown()?;
//! let final_stats = daemon.join().unwrap();
//! assert_eq!(final_stats.jobs_completed, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;
#[cfg(feature = "wire-fault-injection")]
pub mod wirefault;

pub use client::{Client, ClientError, RunEnd};
pub use protocol::{
    method_name, parse_method, read_frame, write_frame, FrameError, Request, Response, RunRequest,
};
pub use queue::{JobQueue, PushError};
pub use server::{JobBudget, OverloadConfig, ServeConfig, Server};
pub use stats::ServerStats;

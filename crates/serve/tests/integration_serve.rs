//! End-to-end tests of the exi-serve daemon over real TCP sockets: the warm
//! plan cache across concurrent clients, served bytes independent of what
//! ran before, wire cancellation with bit-exact prefixes, backpressure,
//! malformed/oversized rejection and graceful shutdown draining.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

use exi_serve::{
    read_frame, write_frame, Client, Request, Response, RunEnd, RunRequest, ServeConfig, Server,
    ServerStats,
};
use exi_sim::Method;

/// A deck identical in spirit to the CLI golden fixtures: one `.tran` card,
/// one printed probe.
const RC_DECK: &str = "Vin in 0 PULSE(0 1 0 10p 10p 200p)\n\
                       R1 in out 1k\n\
                       C1 out 0 1f\n\
                       .tran 1p 500p\n\
                       .print v(out)\n";

/// A long run for cancellation, deadline and drain tests: the third `.tran`
/// field clamps `h_max` to the initial step, so the adaptive control cannot
/// grow the step and the job takes tens of thousands of accepted steps.
const SLOW_DECK: &str = "Vin in 0 PULSE(0 1 0 10p 10p 200p)\n\
                         R1 in out 1k\n\
                         C1 out 0 1f\n\
                         .tran 1p 60000p 1p\n\
                         .print v(out)\n";

/// Two decks with one `G` pattern and different values: a floating source
/// whose branch row competes with `q`'s diagonal `1/Rq` for the pivot of
/// `q`'s column. At `Rq = 1` the diagonal wins; at `Rq = 10k` the branch row
/// does — a deck that borrowed the other's pivot order would round
/// differently.
const PIVOT_DECK_A: &str = "V1 p q PULSE(0 1 0 10p 10p 200p)\n\
                            Rp p 0 1k\n\
                            Rq q 0 1\n\
                            R1 p out 1k\n\
                            C1 out 0 100f\n\
                            .tran 1p 300p\n\
                            .print v(p) v(q) v(out)\n";
const PIVOT_DECK_B: &str = "V1 p q PULSE(0 1 0 10p 10p 200p)\n\
                            Rp p 0 1k\n\
                            Rq q 0 10k\n\
                            R1 p out 1k\n\
                            C1 out 0 100f\n\
                            .tran 1p 300p\n\
                            .print v(p) v(q) v(out)\n";

/// What `exi-cli run` writes for `deck_text`: a fresh session streaming
/// through a `CsvObserver`.
fn local_csv(deck_text: &str, method: Method) -> String {
    let deck = exi_netlist::parse_deck(deck_text).expect("parse");
    let options = exi_sim::analysis_options(&deck, &deck.analyses[0]).expect("tran options");
    let probe_names = deck.effective_probes(&[]);
    let probe_refs: Vec<&str> = probe_names.iter().map(String::as_str).collect();
    let probes = exi_sim::resolve_probes(&deck.circuit, &probe_refs).expect("probes");
    let mut local = Vec::new();
    {
        let mut sim = exi_sim::Simulator::new(&deck.circuit);
        let mut csv = exi_sim::CsvObserver::new(&mut local, probes);
        sim.transient_observed(method, &options, &mut csv)
            .expect("local run");
        csv.finish().expect("flush");
    }
    String::from_utf8(local).unwrap()
}

/// What `exi-cli client` writes for `deck_text` served by the daemon at
/// `addr`.
fn served_csv(addr: SocketAddr, deck_text: &str, id: &str, method: Method) -> String {
    let mut client = Client::connect(addr).expect("connect");
    let mut served = Vec::new();
    let end = client
        .run_streaming(request(deck_text, id, method), &mut served, ',')
        .expect("served run");
    assert!(matches!(end, RunEnd::Done { .. }), "{id}: {end:?}");
    String::from_utf8(served).unwrap()
}

fn boot(config: ServeConfig) -> (SocketAddr, JoinHandle<ServerStats>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn request(deck: &str, id: &str, method: Method) -> RunRequest {
    RunRequest {
        id: id.to_string(),
        deck: deck.to_string(),
        method,
        probes: Vec::new(),
        decimate: 1,
        chunk_rows: None,
        deadline_ms: None,
    }
}

#[test]
fn ping_stats_shutdown_round_trip() {
    let (addr, daemon) = boot(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_accepted, 0);
    assert_eq!(stats.workers, 2);
    client.shutdown().expect("shutdown");
    let final_stats = daemon.join().expect("join");
    assert_eq!(final_stats.jobs_completed, 0);
}

/// The acceptance criterion of the service: a waveform obtained through the
/// daemon is bit-identical to what the local CsvObserver path (`exi-cli
/// run`) writes for the same deck.
#[test]
fn served_waveform_is_bit_identical_to_a_local_run() {
    // Local reference, the exact `run_deck` unstreamed path.
    let local = local_csv(RC_DECK, Method::ExponentialRosenbrock);

    let (addr, daemon) = boot(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let mut served = Vec::new();
    let end = client
        .run_streaming(
            request(RC_DECK, "bit-identity", Method::ExponentialRosenbrock),
            &mut served,
            ',',
        )
        .expect("served run");
    let RunEnd::Done { rows, .. } = end else {
        panic!("expected done, got {end:?}");
    };
    assert!(rows > 5, "rows {rows}");
    assert_eq!(
        String::from_utf8(served).unwrap(),
        local,
        "served bytes must equal the local CsvObserver bytes"
    );
    client.shutdown().expect("shutdown");
    daemon.join().expect("join");
}

/// A job's bytes depend on its own deck only: deck B, served after deck A
/// (same `G` pattern, other values, other pivot rows), equals B run alone —
/// on a cold daemon and on a warm one, at 1 and 8 workers.
#[test]
fn served_bytes_do_not_depend_on_the_deck_served_before() {
    let method = Method::ExponentialRosenbrock;
    let alone_a = local_csv(PIVOT_DECK_A, method);
    let alone_b = local_csv(PIVOT_DECK_B, method);
    assert_ne!(alone_a, alone_b);
    for workers in [1, 8] {
        let (addr, daemon) = boot(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let mut mismatches = Vec::new();
        // Cold: A is the first deck the daemon ever sees, then B. Warm: both
        // have run, and B follows A again.
        for id in ["cold", "warm"] {
            let a = served_csv(addr, PIVOT_DECK_A, &format!("a-{id}"), method);
            let b = served_csv(addr, PIVOT_DECK_B, &format!("b-{id}"), method);
            if a != alone_a {
                mismatches.push(format!("deck A, {id} daemon"));
            }
            if b != alone_b {
                mismatches.push(format!("deck B, {id} daemon"));
            }
        }
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown");
        daemon.join().expect("join");
        assert!(
            mismatches.is_empty(),
            "workers={workers}: served bytes differ from `run` bytes: {mismatches:?}"
        );
    }
}

/// Three concurrent clients submitting the same circuit fingerprint hit the
/// warm plan cache: one plan compilation and one `G` ordering server-wide,
/// with the other sessions counted as shared hits — and each request pivots
/// its own `G`.
#[test]
fn concurrent_same_fingerprint_clients_share_one_analysis_and_one_plan() {
    let (addr, daemon) = boot(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });
    let outputs: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut csv = Vec::new();
                    let end = client
                        .run_streaming(
                            request(
                                RC_DECK,
                                &format!("tenant-{i}"),
                                Method::ExponentialRosenbrock,
                            ),
                            &mut csv,
                            ',',
                        )
                        .expect("run");
                    assert!(matches!(end, RunEnd::Done { .. }), "client {i}: {end:?}");
                    csv
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    // Same deck, same method: every client got the same bytes.
    assert!(!outputs[0].is_empty());
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);

    let mut observer = Client::connect(addr).expect("connect");
    let stats = observer.stats().expect("stats");
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(
        stats.solver.symbolic_analyses, 3,
        "one symbolic analysis per request: {stats:?}"
    );
    assert_eq!(
        stats.solver.plan_compilations, 1,
        "one plan compilation server-wide: {stats:?}"
    );
    assert_eq!(
        stats.solver.shared_symbolic_hits, 2,
        "two later sessions found the plan's G ordering: {stats:?}"
    );
    assert_eq!(
        stats.solver.shared_plan_hits, 2,
        "two later sessions hit the warm plan cache: {stats:?}"
    );
    assert_eq!(stats.plan_cache.misses, 1, "{stats:?}");
    assert_eq!(stats.plan_cache.hits, 2, "{stats:?}");
    assert_eq!(stats.plan_cache.entries, 1, "{stats:?}");
    observer.shutdown().expect("shutdown");
    daemon.join().expect("join");
}

/// Cancellation over the wire stops the job between accepted steps; what was
/// streamed is a bit-exact prefix of the uncancelled run.
#[test]
fn wire_cancellation_yields_a_bit_exact_prefix() {
    let (addr, daemon) = boot(ServeConfig::default());

    // Uncancelled reference run.
    let mut reference_client = Client::connect(addr).expect("connect");
    let mut reference = Vec::new();
    let end = reference_client
        .run_streaming(
            request(SLOW_DECK, "reference", Method::BackwardEuler),
            &mut reference,
            ',',
        )
        .expect("reference run");
    let RunEnd::Done {
        rows: reference_rows,
        ..
    } = end
    else {
        panic!("expected done, got {end:?}");
    };
    let reference_text = String::from_utf8(reference).unwrap();

    // Cancelled run, driven frame by frame: chunk_rows 1 streams every row
    // immediately; cancel from a second connection once rows are flowing.
    let mut victim = Client::connect(addr).expect("connect");
    victim
        .send(&Request::Run(RunRequest {
            chunk_rows: Some(1),
            ..request(SLOW_DECK, "victim", Method::BackwardEuler)
        }))
        .expect("send run");
    let mut rows: Vec<String> = Vec::new();
    let mut canceller = Client::connect(addr).expect("connect");
    let sent = loop {
        match victim.recv().expect("recv") {
            Response::Accepted { .. } => {}
            Response::Chunk {
                rows: chunk_rows, ..
            } => {
                for row in chunk_rows {
                    rows.push(row.join(","));
                }
                if rows.len() == 8 {
                    assert!(canceller.cancel("victim").expect("cancel"), "job known");
                }
            }
            Response::Cancelled {
                reason, rows: sent, ..
            } => {
                assert_eq!(reason, "token");
                break sent;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert_eq!(sent, rows.len());
    assert!(
        sent >= 8 && sent < reference_rows,
        "cancellation landed mid-run: {sent} of {reference_rows}"
    );
    // Bit-exact prefix: every streamed row equals the reference row at the
    // same index (skip the reference header line).
    let reference_rows_text: Vec<&str> = reference_text.lines().skip(1).collect();
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row, reference_rows_text[i], "row {i}");
    }
    // Cancelling an unknown id is acknowledged but not known.
    assert!(!canceller.cancel("victim").expect("cancel gone"));
    let stats = canceller.stats().expect("stats");
    assert_eq!(stats.jobs_cancelled, 1);
    canceller.shutdown().expect("shutdown");
    daemon.join().expect("join");
}

/// A per-job deadline cancels mid-run with reason `deadline`; the DC point
/// is always delivered (the job starts before the first deadline check).
#[test]
fn deadlines_cancel_with_a_partial_prefix() {
    let (addr, daemon) = boot(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let mut csv = Vec::new();
    let end = client
        .run_streaming(
            RunRequest {
                deadline_ms: Some(40),
                ..request(SLOW_DECK, "deadline", Method::BackwardEuler)
            },
            &mut csv,
            ',',
        )
        .expect("run");
    let RunEnd::Cancelled { reason, rows, .. } = end else {
        panic!("expected cancellation, got {end:?}");
    };
    assert_eq!(reason, "deadline");
    assert!(rows >= 1, "at least the DC point streams: {rows}");
    let text = String::from_utf8(csv).unwrap();
    assert!(text.starts_with("time,out\n"), "{text}");
    assert_eq!(text.lines().count(), rows + 1);
    client.shutdown().expect("shutdown");
    let stats = daemon.join().expect("join");
    assert_eq!(stats.jobs_cancelled, 1);
}

/// A full queue bounces further submissions with `busy` instead of
/// blocking; the rejection is counted.
#[test]
fn full_queue_replies_busy() {
    let (addr, daemon) = boot(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let mut running = Client::connect(addr).expect("connect");
    running
        .send(&Request::Run(RunRequest {
            chunk_rows: Some(1),
            ..request(SLOW_DECK, "running", Method::BackwardEuler)
        }))
        .expect("send");
    // Wait for the first chunk: the job has left the queue and is running.
    loop {
        match running.recv().expect("recv") {
            Response::Chunk { .. } => break,
            Response::Accepted { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let mut filler = Client::connect(addr).expect("connect");
    filler
        .send(&Request::Run(request(
            SLOW_DECK,
            "queued",
            Method::BackwardEuler,
        )))
        .expect("send");
    match filler.recv().expect("recv") {
        Response::Accepted { queue_depth, .. } => assert_eq!(queue_depth, 1),
        other => panic!("unexpected frame {other:?}"),
    }
    let mut bounced = Client::connect(addr).expect("connect");
    bounced
        .send(&Request::Run(request(
            RC_DECK,
            "bounced",
            Method::ExponentialRosenbrock,
        )))
        .expect("send");
    match bounced.recv().expect("recv") {
        Response::Busy { id, queue_capacity } => {
            assert_eq!(id, "bounced");
            assert_eq!(queue_capacity, 1);
        }
        other => panic!("unexpected frame {other:?}"),
    }
    // Unblock quickly: cancel both admitted jobs, then drain and stop.
    assert!(bounced.cancel("running").expect("cancel"));
    assert!(bounced.cancel("queued").expect("cancel"));
    let stats = bounced.stats().expect("stats");
    assert_eq!(stats.jobs_rejected, 1);
    bounced.shutdown().expect("shutdown");
    let final_stats = daemon.join().expect("join");
    assert_eq!(final_stats.jobs_cancelled, 2);
    assert_eq!(final_stats.jobs_rejected, 1);
}

/// A malformed frame (or an oversized declared length) gets a
/// `protocol_error` reply and the connection is closed; an oversized deck in
/// a well-formed frame is a per-job `usage` error and the connection stays
/// usable.
#[test]
fn malformed_and_oversized_inputs_are_rejected() {
    let (addr, daemon) = boot(ServeConfig {
        max_deck_bytes: 64,
        ..ServeConfig::default()
    });

    // Malformed length line: protocol_error, then EOF.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        std::io::Write::write_all(&mut stream, b"not-a-length\n{}\n").expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let frame = read_frame(&mut reader, 1 << 20)
            .expect("read")
            .expect("frame");
        match Response::from_json(&frame).expect("parse") {
            Response::ProtocolError { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
        assert!(
            read_frame(&mut reader, 1 << 20).expect("read").is_none(),
            "connection closes after a protocol error"
        );
    }

    // Oversized declared frame length: same treatment, nothing buffered.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        std::io::Write::write_all(&mut stream, b"99999999\n").expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let frame = read_frame(&mut reader, 1 << 20)
            .expect("read")
            .expect("frame");
        match Response::from_json(&frame).expect("parse") {
            Response::ProtocolError { message } => {
                assert!(message.contains("oversized"), "{message}")
            }
            other => panic!("unexpected frame {other:?}"),
        }
        assert!(read_frame(&mut reader, 1 << 20).expect("read").is_none());
    }

    // Valid JSON but not a known request: protocol_error.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, r#"{"type":"warp"}"#).expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let frame = read_frame(&mut reader, 1 << 20)
            .expect("read")
            .expect("frame");
        assert!(matches!(
            Response::from_json(&frame).expect("parse"),
            Response::ProtocolError { .. }
        ));
    }

    // Oversized deck: usage-class job error, connection stays open.
    {
        let mut client = Client::connect(addr).expect("connect");
        let mut sink = Vec::new();
        let end = client
            .run_streaming(
                request(SLOW_DECK, "too-big", Method::BackwardEuler),
                &mut sink,
                ',',
            )
            .expect("run");
        match end {
            RunEnd::Failed { class, message } => {
                assert_eq!(class, "usage");
                assert!(message.contains("bytes"), "{message}");
            }
            other => panic!("unexpected end {other:?}"),
        }
        assert!(sink.is_empty());
        client
            .ping()
            .expect("connection survives an oversized deck");
        client.shutdown().expect("shutdown");
    }
    let stats = daemon.join().expect("join");
    assert_eq!(stats.jobs_accepted, 0);
}

/// A parse-failing deck and a deck without a `.tran` card map to the CLI
/// error taxonomy (`parse` and `usage`).
#[test]
fn job_failures_carry_their_error_class() {
    let (addr, daemon) = boot(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let mut sink = Vec::new();
    let end = client
        .run_streaming(
            request(
                "R1 in out\n.tran 1p 2p\n",
                "bad-parse",
                Method::ExponentialRosenbrock,
            ),
            &mut sink,
            ',',
        )
        .expect("run");
    assert!(
        matches!(end, RunEnd::Failed { ref class, .. } if class == "parse"),
        "{end:?}"
    );
    let end = client
        .run_streaming(
            request(
                "V1 a 0 DC 1\nR1 a 0 1k\n.op\n",
                "no-tran",
                Method::ExponentialRosenbrock,
            ),
            &mut sink,
            ',',
        )
        .expect("run");
    assert!(
        matches!(end, RunEnd::Failed { ref class, .. } if class == "usage"),
        "{end:?}"
    );
    // Duplicate active ids are usage errors too (two long jobs, same id).
    // Replies to this connection's requests arrive in order, so the cancel
    // has to come from a second connection.
    client
        .send(&Request::Run(request(
            SLOW_DECK,
            "dup",
            Method::BackwardEuler,
        )))
        .expect("send");
    client
        .send(&Request::Run(request(
            SLOW_DECK,
            "dup",
            Method::BackwardEuler,
        )))
        .expect("send");
    let mut canceller = Client::connect(addr).expect("connect");
    let mut saw_duplicate_error = false;
    let mut cancel_sent = false;
    let mut terminal = false;
    while !(saw_duplicate_error && terminal) {
        match client.recv().expect("recv") {
            Response::JobError { class, .. } => {
                assert_eq!(class, "usage");
                saw_duplicate_error = true;
            }
            Response::Accepted { .. } if !cancel_sent => {
                assert!(canceller.cancel("dup").expect("cancel"));
                cancel_sent = true;
            }
            Response::Done { .. } | Response::Cancelled { .. } => terminal = true,
            _ => {}
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_failed, 2);
    client.shutdown().expect("shutdown");
    daemon.join().expect("join");
}

/// Graceful shutdown: jobs already admitted (running *and* queued) drain to
/// completion; their clients receive full waveforms after the shutdown
/// request was acknowledged.
#[test]
fn shutdown_drains_in_flight_jobs() {
    let (addr, daemon) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut submitter = Client::connect(addr).expect("connect");
    submitter
        .send(&Request::Run(request(
            RC_DECK,
            "drain-1",
            Method::ExponentialRosenbrock,
        )))
        .expect("send");
    submitter
        .send(&Request::Run(request(
            RC_DECK,
            "drain-2",
            Method::ExponentialRosenbrock,
        )))
        .expect("send");

    let mut accepted = 0;
    let mut completed = std::collections::HashSet::new();
    let mut pump =
        |accepted: &mut usize, completed: &mut std::collections::HashSet<String>| match submitter
            .recv()
            .expect("recv")
        {
            Response::Accepted { .. } => *accepted += 1,
            Response::Done { id, rows, .. } => {
                assert!(rows > 5);
                completed.insert(id);
            }
            Response::Chunk { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        };
    // Shut down only once both jobs are admitted: until the connection
    // thread has read a `run` frame the job is not in flight, and a queue
    // that closed first answers it `shutting_down` — correctly. (The single
    // worker may already be streaming drain-1 meanwhile.)
    while accepted < 2 {
        pump(&mut accepted, &mut completed);
    }
    let mut stopper = Client::connect(addr).expect("connect");
    stopper.shutdown().expect("shutdown");

    // Both jobs still complete; frames keep flowing after shutdown.
    while completed.len() < 2 {
        pump(&mut accepted, &mut completed);
    }
    assert!(completed.contains("drain-1") && completed.contains("drain-2"));
    let stats = daemon.join().expect("join");
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.jobs_accepted, 2);

    // New connections are refused once the daemon exited.
    assert!(
        Client::connect(addr).is_err() || {
            let mut late = Client::connect(addr).unwrap();
            late.ping().is_err()
        }
    );
}

/// `decimate` keeps every k-th accepted row — the memory/bandwidth knob —
/// and the kept rows are bit-identical to the corresponding full-rate rows.
#[test]
fn decimation_streams_every_kth_row() {
    let (addr, daemon) = boot(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let mut full = Vec::new();
    let RunEnd::Done {
        rows: full_rows, ..
    } = client
        .run_streaming(
            request(RC_DECK, "full", Method::ExponentialRosenbrock),
            &mut full,
            ',',
        )
        .expect("run")
    else {
        panic!("expected done");
    };
    let mut thinned = Vec::new();
    let RunEnd::Done {
        rows: thinned_rows, ..
    } = client
        .run_streaming(
            RunRequest {
                decimate: 4,
                ..request(RC_DECK, "thinned", Method::ExponentialRosenbrock)
            },
            &mut thinned,
            ',',
        )
        .expect("run")
    else {
        panic!("expected done");
    };
    assert_eq!(thinned_rows, full_rows.div_ceil(4), "every 4th row");
    let full_text = String::from_utf8(full).unwrap();
    let thinned_text = String::from_utf8(thinned).unwrap();
    let full_lines: Vec<&str> = full_text.lines().collect();
    for (i, line) in thinned_text.lines().enumerate() {
        if i == 0 {
            assert_eq!(line, full_lines[0], "same header");
        } else {
            assert_eq!(line, full_lines[1 + (i - 1) * 4], "kept row {i}");
        }
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("join");
}

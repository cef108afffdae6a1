//! Property-based tests for the wire protocol: randomly generated
//! [`Request`]/[`Response`] values must survive encode → decode bit-exactly,
//! and the frame reader and JSON decoders must never panic on hostile
//! bytes — including truncated prefixes of *valid* frames, the exact shape a
//! peer that dies mid-write leaves on the wire.

use std::io::BufReader;

use exi_serve::protocol::DEFAULT_MAX_FRAME_BYTES;
use exi_serve::{read_frame, write_frame, Request, Response, RunRequest, ServerStats};
use exi_sim::RunStats;
use proptest::prelude::*;

/// Charset covering JSON's sharp edges: quotes, backslashes, braces,
/// control-ish whitespace, multi-byte unicode.
const CHARSET: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '_', '-', '.', ',', ':', ';', '"', '\\', '/', '{', '}',
    '[', ']', '\n', '\t', 'é', '∑', '∞',
];

/// Strings drawn from [`CHARSET`] (the shim has no string strategy, so build
/// them from index vectors).
fn wire_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..CHARSET.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|k| CHARSET[k]).collect())
}

/// Structurally valid run requests (`decimate >= 1` — the encoder's own
/// invariant).
fn run_request() -> impl Strategy<Value = RunRequest> {
    (
        wire_string(),
        wire_string(),
        0usize..4,
        (
            proptest::collection::vec(wire_string(), 0..4),
            1usize..1000,
            0usize..3,
            0usize..3,
        ),
    )
        .prop_map(
            |(id, deck, method_pick, (probes, decimate, chunk_pick, deadline_pick))| {
                let method = [
                    exi_sim::Method::ExponentialRosenbrock,
                    exi_sim::Method::ExponentialRosenbrockCorrected,
                    exi_sim::Method::BackwardEuler,
                    exi_sim::Method::Trapezoidal,
                ][method_pick];
                RunRequest {
                    id,
                    deck,
                    method,
                    probes,
                    decimate,
                    chunk_rows: (chunk_pick > 0).then_some(chunk_pick * 37),
                    deadline_ms: (deadline_pick > 0).then_some(deadline_pick as u64 * 1511),
                }
            },
        )
}

/// A [`RunStats`] whose fields, in list order, hold `base + 1`, `base + 2`,
/// …: every one distinct and nonzero (whole seconds for the durations), so a
/// dropped or swapped field cannot round-trip.
fn distinct_counters(base: usize) -> RunStats {
    let mut stats = RunStats::default();
    for (k, mut field) in stats.fields().enumerate() {
        assert!(field.slot.set((base + k + 1) as f64));
    }
    stats
}

/// One of every [`Response`] variant with randomized payloads.
fn response() -> impl Strategy<Value = Response> {
    (
        0usize..8,
        wire_string(),
        wire_string(),
        (
            0usize..100_000,
            proptest::collection::vec(proptest::collection::vec(wire_string(), 0..4), 0..4),
            0usize..2,
        ),
    )
        .prop_map(|(pick, id, text, (num, rows, flag))| match pick {
            0 => Response::Accepted {
                id,
                queue_depth: num,
            },
            1 => Response::Busy {
                id,
                queue_capacity: num,
            },
            2 => Response::Rejected {
                id,
                reason: ["budget", "inflight", "overload", "degraded"][num % 4].to_string(),
                message: text,
            },
            3 => Response::Chunk {
                id,
                seq: num,
                columns: (flag > 0).then(|| vec!["time".to_string(), text]),
                rows,
            },
            4 => Response::Done {
                id,
                rows: num,
                stats: Box::new(distinct_counters(num)),
            },
            5 => Response::Cancelled {
                id,
                reason: if flag > 0 { "token" } else { "deadline" }.to_string(),
                at_time: format!("{:.17e}", num as f64 * 1e-12),
                rows: num,
            },
            6 => Response::JobError {
                id,
                class: "convergence".to_string(),
                message: text,
            },
            _ => Response::ProtocolError { message: text },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_bit_exactly(run in run_request(), id in wire_string()) {
        for request in [
            Request::Run(run.clone()),
            Request::Cancel { id: id.clone() },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ] {
            let encoded = request.to_json();
            let decoded = Request::from_json(&encoded);
            prop_assert_eq!(decoded.as_ref(), Ok(&request), "wire form: {}", encoded);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly(resp in response()) {
        let encoded = resp.to_json();
        let decoded = Response::from_json(&encoded);
        prop_assert_eq!(decoded.as_ref(), Ok(&resp), "wire form: {}", encoded);
        // Through the framing layer too: write_frame then read_frame must
        // hand back the identical payload string.
        let mut wire = Vec::new();
        write_frame(&mut wire, &encoded).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let framed = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        prop_assert_eq!(framed, encoded);
    }

    #[test]
    fn stats_frames_round_trip(seed in 0usize..10_000) {
        let seed = seed as u64;
        let stats = ServerStats {
            jobs_accepted: seed,
            jobs_completed: seed / 2,
            jobs_failed: seed % 3,
            jobs_cancelled: seed % 5,
            jobs_rejected: seed % 7,
            jobs_rejected_budget: seed % 11,
            jobs_shed_overload: seed % 13,
            jobs_cancelled_overload: seed % 17,
            workers_respawned: seed % 19,
            connections_reaped: seed % 23,
            write_stalls: seed % 29,
            overload_transitions: seed % 31,
            overload_stage: (seed % 4) as usize,
            queue_depth: (seed % 16) as usize,
            queue_capacity: 16,
            workers: 2,
            solver: distinct_counters(seed as usize),
            plan_cache: exi_sim::CacheStats {
                entries: (seed % 9) as usize,
                capacity: seed.is_multiple_of(2).then_some(64),
                hits: seed,
                misses: seed % 47,
                evictions: seed % 53,
            },
        };
        let resp = Response::Stats(Box::new(stats));
        prop_assert_eq!(Response::from_json(&resp.to_json()).as_ref(), Ok(&resp));
    }

    /// Arbitrary bytes into the frame reader: every outcome is a typed
    /// `Result`, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(
        bytes in proptest::collection::vec(0usize..256, 0..200),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut reader = BufReader::new(bytes.as_slice());
        // Drain until EOF or error; bounded by the byte count so a
        // pathological reader cannot loop forever.
        for _ in 0..bytes.len() + 1 {
            match read_frame(&mut reader, 1024) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Arbitrary text into the JSON decoders: never a panic, errors are
    /// values.
    #[test]
    fn arbitrary_text_never_panics_the_decoders(text in wire_string()) {
        let _ = Request::from_json(&text);
        let _ = Response::from_json(&text);
    }

    /// Every truncated prefix of a valid frame is EOF or a typed error —
    /// never a panic, and never a phantom full-length payload.
    #[test]
    fn truncated_valid_frames_never_yield_phantom_payloads(
        resp in response(),
        cut in 0usize..200,
    ) {
        let encoded = resp.to_json();
        let mut wire = Vec::new();
        write_frame(&mut wire, &encoded).unwrap();
        prop_assume!(cut < wire.len());
        let mut reader = BufReader::new(&wire[..cut]);
        if let Ok(Some(payload)) = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
            prop_assert!(
                false,
                "phantom frame from a {}-byte prefix of a {}-byte frame: {}",
                cut,
                wire.len(),
                payload
            );
        }
    }
}

//! The `exi-serve` binary: parse flags, bind, announce the address, run
//! until a `shutdown` request drains the fleet, then print the final stats.

use std::process::ExitCode;

use exi_serve::{ServeConfig, Server};

const USAGE: &str = "\
exi-serve - resident simulation service for exi-sim

USAGE:
    exi-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT      listen address (default 127.0.0.1:0; port 0 picks
                          a free port, printed on stdout at startup)
    --workers N           worker threads draining the job queue (default 2)
    --queue N             job-queue capacity; further submissions get a
                          `busy` reply (default 16)
    --chunk-rows N        default waveform rows per chunk frame (default 64)
    --max-frame-bytes N   largest accepted frame payload (default 1048576)
    --max-deck-bytes N    largest accepted deck text (default 262144)
    --plan-cache N        warm plan-cache capacity; 0 = unbounded
                          (default 64)

  Admission control (see docs/SERVICE.md, 'Limits & admission'):
    --max-unknowns N          per-job unknown-count budget (default 200000)
    --max-est-nnz N           per-job estimated-nonzeros budget
                              (default 8000000)
    --max-declared-steps N    per-job declared .tran step budget
                              (default 10000000)
    --max-inflight-unknowns N server-wide active-unknowns budget; 0 = off
                              (default 1000000)
    --default-deadline-ms N   deadline applied to jobs that declare none;
                              0 = off (default 600000)

  Connection robustness:
    --read-timeout-ms N   reap a connection whose started frame stalls this
                          long; 0 = off (default 10000)
    --idle-timeout-ms N   reap a connection idle between frames this long;
                          0 = off (default 300000)
    --write-stall-ms N    abandon a frame write blocked this long on a
                          stalled client; 0 = off (default 30000)

  Supervision & overload (see docs/SERVICE.md, 'Overload ladder'):
    --respawn-limit N     worker respawns allowed per window before degraded
                          mode (default 8)
    --respawn-window-ms N the sliding respawn window (default 60000)
    --shed-after-ms N     queue-full time before new decks are shed
                          (default 30000)
    --cancel-after-ms N   queue-full time before running jobs past the soft
                          deadline are cancelled (default 60000)
    --drain-after-ms N    queue-full time before all running jobs are
                          cancelled (default 120000)
    --soft-deadline-ms N  minimum runtime before a job is an overload victim
                          (default 10000)

    --arm-fault LABEL=KIND:ARGS
                          (builds with --features fault-injection only)
                          arm a deterministic solver fault for the job with
                          id LABEL; KIND:ARGS is one of
                            panic_at_step:N   panic before accepted step N
                            singular:EVAL,U   zero row/col U at evaluation EVAL
                            nan:EVAL,I        NaN into f[I] at evaluation EVAL
                            krylov:N          basis breakdown at build N
                          (repeatable; counters are 1-based)
    -h, --help            print this help

The daemon exits after a client sends a `shutdown` request (see
docs/SERVICE.md for the wire protocol; `exi-cli client` is the reference
client).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_flags(&args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("exi-serve: {message}");
            eprintln!("Try 'exi-serve --help'.");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("exi-serve: bind failed: {e}");
            return ExitCode::from(5);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("exi-serve listening on {addr}"),
        Err(e) => {
            eprintln!("exi-serve: cannot read bound address: {e}");
            return ExitCode::from(5);
        }
    }
    let stats = server.run();
    println!(
        "exi-serve: drained and stopped — {} completed, {} failed, {} cancelled, {} rejected; \
         {} symbolic analyses ({} on a warm G ordering), {} plan compilations + {} warm hits",
        stats.jobs_completed,
        stats.jobs_failed,
        stats.jobs_cancelled,
        stats.jobs_rejected,
        stats.solver.symbolic_analyses,
        stats.solver.shared_symbolic_hits,
        stats.solver.plan_compilations,
        stats.solver.shared_plan_hits,
    );
    ExitCode::SUCCESS
}

/// Parses the flag list; `Ok(None)` means help was requested. `--arm-fault`
/// arms its fault as a side effect (the armed map is process-global and the
/// server reads it per job id).
fn parse_flags(args: &[String]) -> Result<Option<ServeConfig>, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--addr" => config.addr = value("--addr")?,
            "--workers" => config.workers = parse_count(&value("--workers")?, "--workers")?.max(1),
            "--queue" => config.queue_capacity = parse_count(&value("--queue")?, "--queue")?.max(1),
            "--chunk-rows" => {
                config.default_chunk_rows =
                    parse_count(&value("--chunk-rows")?, "--chunk-rows")?.max(1)
            }
            "--max-frame-bytes" => {
                config.max_frame_bytes =
                    parse_count(&value("--max-frame-bytes")?, "--max-frame-bytes")?.max(1024)
            }
            "--max-deck-bytes" => {
                config.max_deck_bytes =
                    parse_count(&value("--max-deck-bytes")?, "--max-deck-bytes")?.max(1)
            }
            "--plan-cache" => {
                let n = parse_count(&value("--plan-cache")?, "--plan-cache")?;
                config.plan_cache_capacity = (n > 0).then_some(n);
            }
            "--max-unknowns" => {
                config.budget.max_unknowns =
                    parse_count(&value("--max-unknowns")?, "--max-unknowns")?.max(1)
            }
            "--max-est-nnz" => {
                config.budget.max_est_nnz =
                    parse_count(&value("--max-est-nnz")?, "--max-est-nnz")?.max(1)
            }
            "--max-declared-steps" => {
                config.budget.max_declared_steps =
                    parse_count(&value("--max-declared-steps")?, "--max-declared-steps")?.max(1)
            }
            "--max-inflight-unknowns" => {
                config.max_inflight_unknowns = parse_count(
                    &value("--max-inflight-unknowns")?,
                    "--max-inflight-unknowns",
                )?
            }
            "--default-deadline-ms" => {
                config.default_deadline_ms =
                    parse_ms(&value("--default-deadline-ms")?, "--default-deadline-ms")?
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms =
                    parse_ms(&value("--read-timeout-ms")?, "--read-timeout-ms")?
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms =
                    parse_ms(&value("--idle-timeout-ms")?, "--idle-timeout-ms")?
            }
            "--write-stall-ms" => {
                config.write_stall_ms = parse_ms(&value("--write-stall-ms")?, "--write-stall-ms")?
            }
            "--respawn-limit" => {
                config.respawn_limit =
                    parse_count(&value("--respawn-limit")?, "--respawn-limit")?.max(1)
            }
            "--respawn-window-ms" => {
                config.respawn_window_ms =
                    parse_ms(&value("--respawn-window-ms")?, "--respawn-window-ms")?.max(1)
            }
            "--shed-after-ms" => {
                config.overload.shed_after_ms =
                    parse_ms(&value("--shed-after-ms")?, "--shed-after-ms")?.max(1)
            }
            "--cancel-after-ms" => {
                config.overload.cancel_after_ms =
                    parse_ms(&value("--cancel-after-ms")?, "--cancel-after-ms")?.max(1)
            }
            "--drain-after-ms" => {
                config.overload.drain_after_ms =
                    parse_ms(&value("--drain-after-ms")?, "--drain-after-ms")?.max(1)
            }
            "--soft-deadline-ms" => {
                config.overload.soft_deadline_ms =
                    parse_ms(&value("--soft-deadline-ms")?, "--soft-deadline-ms")?
            }
            "--arm-fault" => arm_fault(&value("--arm-fault")?)?,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if config.overload.shed_after_ms > config.overload.cancel_after_ms
        || config.overload.cancel_after_ms > config.overload.drain_after_ms
    {
        return Err(
            "overload thresholds must be ordered: shed-after <= cancel-after <= drain-after"
                .to_string(),
        );
    }
    Ok(Some(config))
}

fn parse_count(text: &str, flag: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("{flag}: '{text}' is not a non-negative integer"))
}

fn parse_ms(text: &str, flag: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag}: '{text}' is not a non-negative integer"))
}

/// Arms one `--arm-fault LABEL=KIND:ARGS` solver fault.
#[cfg(feature = "fault-injection")]
fn arm_fault(text: &str) -> Result<(), String> {
    use exi_sim::fault::{self, FaultSpec};
    let bad = || format!("--arm-fault: '{text}' is not LABEL=KIND:ARGS");
    let (label, kind_args) = text.split_once('=').ok_or_else(bad)?;
    let (kind, args) = kind_args.split_once(':').ok_or_else(bad)?;
    let one = |s: &str| s.parse::<usize>().map_err(|_| bad());
    let two = |s: &str| -> Result<(usize, usize), String> {
        let (a, b) = s.split_once(',').ok_or_else(bad)?;
        Ok((one(a)?, one(b)?))
    };
    let spec = match kind {
        "panic_at_step" => FaultSpec {
            panic_at_step: Some(one(args)?),
            ..FaultSpec::default()
        },
        "singular" => FaultSpec {
            singular_unknown: Some(two(args)?),
            ..FaultSpec::default()
        },
        "nan" => FaultSpec {
            nan_f: Some(two(args)?),
            ..FaultSpec::default()
        },
        "krylov" => FaultSpec {
            krylov_breakdown: Some(one(args)?),
            ..FaultSpec::default()
        },
        _ => return Err(bad()),
    };
    fault::arm(label, spec);
    Ok(())
}

#[cfg(not(feature = "fault-injection"))]
fn arm_fault(_text: &str) -> Result<(), String> {
    Err("--arm-fault requires a build with --features fault-injection".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flags_orders_the_ladder_clamps_workers_and_rejects_unknowns() {
        // A shed threshold above the cancel threshold is refused, not
        // silently reordered.
        assert!(parse_flags(&args(&[
            "--shed-after-ms",
            "90000",
            "--cancel-after-ms",
            "60000"
        ]))
        .is_err());
        assert!(parse_flags(&args(&["--cancel-after-ms", "500000"])).is_err());
        // Zero workers would never drain the queue: clamped to one.
        let config = parse_flags(&args(&["--workers", "0"])).unwrap().unwrap();
        assert_eq!(config.workers, 1);
        assert!(parse_flags(&args(&["--symbolic-cache", "8"])).is_err());
        assert!(parse_flags(&args(&["--workers"])).is_err());
        assert_eq!(parse_flags(&args(&["--queue", "4", "--help"])), Ok(None));
    }
}

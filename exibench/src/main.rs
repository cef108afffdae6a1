//! `exibench` — the repository's benchmark.
//!
//! One invocation runs one workload in one process:
//!
//! ```text
//! exibench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! exibench --check-repeat [--workload <name>]... [--seed <u64>]
//! exibench --write-refs
//! ```
//!
//! `--seconds` is the driver's statement of how long a run measures. The
//! repetition counts are fixed in the workload table — about twelve seconds'
//! worth on the defining host, the `run_seconds` of `BENCHMARK.json` — so
//! the value is checked and otherwise unused: timings built from fastest
//! observations must take the same number of observations on every commit.
//!
//! Every metric is printed by name with its unit, outputs are checked, and
//! the last line of standard output is one JSON object for the driver. See
//! `README.md` next to this package for what is measured and why.

mod json;
mod layers;
mod refs;
mod report;
mod serve;
mod single;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Better, Outcome, END_TO_END, PER_LAYER};
use workloads::{single_spec, SingleInputs};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "er_dense_coupling",
    "er_sparse_drivers",
    "benr_sparse_drivers",
    "er_large_mesh",
    "sweep_corners",
    "serve_burst",
];

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Traced pass (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Circuits at scale 0.3 and a single repetition.
    pub smoke: bool,
    /// Where span files and scratch decks go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// How many repetitions to run of a unit the timed pass repeats `timed`
    /// times.
    pub fn repetitions(&self, timed: usize) -> usize {
        if self.smoke {
            1
        } else if self.trace {
            3
        } else {
            timed
        }
    }

    /// The timed pass deals its cold set-ups out between the repetitions,
    /// so that they sample the host's speed over the whole invocation; the
    /// smoke and traced passes make do with the first one.
    pub fn spreads_setups(&self) -> bool {
        !self.smoke && !self.trace
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, config: &RunConfig) -> Option<Outcome> {
    match name {
        "sweep_corners" => Some(sweep::run(config)),
        "serve_burst" => Some(serve::run(config)),
        other => single_spec(other).map(|spec| single::run(&spec, config)),
    }
}

/// Peak resident set (`VmHWM`) in MB of this process, or of `pid`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory the build placed its executables in (`<target>/release`):
/// the daemon and the CLI are built next to the benchmark. `cargo test`
/// runs its binary one level down, in `deps/`.
pub fn bin_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    if dir.ends_with("deps") {
        dir.pop();
    }
    Some(dir)
}

/// Span files and scratch decks go to `exibench/` inside the build's target
/// directory.
fn default_out_dir() -> PathBuf {
    bin_dir()
        .and_then(|dir| dir.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("exibench")
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host description printed above every report.
fn header() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "exibench host: nproc {nproc}, kernel {}, {}",
        command_line("uname", &["-sr"]),
        command_line("rustc", &["--version"])
    )
}

struct Args {
    workloads: Vec<String>,
    config: RunConfig,
    check_repeat: bool,
    write_refs: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        config: RunConfig {
            seed: 1,
            trace: false,
            smoke: false,
            out_dir: default_out_dir(),
        },
        check_repeat: false,
        write_refs: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                parsed.workloads.push(name);
            }
            "--seed" => {
                parsed.config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                value("--seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 0.0 && s.is_finite())
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver; a bare `--trace` means 1.
                let mut peek = it.clone();
                parsed.config.trace = match peek.next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.config.smoke = true,
            "--check-repeat" => parsed.check_repeat = true,
            "--write-refs" => parsed.write_refs = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("exibench: {message}");
            return ExitCode::from(2);
        }
    };
    println!("{}", header());
    if args.write_refs {
        return write_refs(args.config.seed);
    }
    if args.check_repeat {
        return check_repeat(&args);
    }
    let [name] = args.workloads.as_slice() else {
        eprintln!("exibench: give exactly one --workload (or --check-repeat / --write-refs)");
        return ExitCode::from(2);
    };
    let outcome = run_workload(name, &args.config).expect("workload names were validated");
    println!(
        "workload {name} seed {} trace {} smoke {}",
        args.config.seed, args.config.trace as u8, args.config.smoke
    );
    print!("{}", outcome.render_text());
    let table = if args.config.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", outcome.render_json(table));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload in a child process of this executable (peak memory is
/// a per-process figure) and returns its end-to-end metrics.
fn run_in_child(name: &str, config: &RunConfig) -> Result<json::Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &config.seed.to_string()])
        .args(config.smoke.then_some("--smoke"))
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        println!("{line}");
    }
    let result = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(result)?;
    if doc.get("correct") != Some(&json::Json::Bool(true)) {
        return Err(format!("{name}: child reported failed operations"));
    }
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| "result line has no metrics".to_string())
}

/// Runs the selected workloads twice back to back and compares every
/// end-to-end metric of the second run against the first and its bound.
fn check_repeat(args: &Args) -> ExitCode {
    let names: Vec<&str> = if args.workloads.is_empty() {
        WORKLOADS.to_vec()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    println!(
        "{:<22} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for name in names {
        let runs = run_in_child(name, &args.config)
            .and_then(|first| Ok((first, run_in_child(name, &args.config)?)));
        let (first, second) = match runs {
            Ok(pair) => pair,
            Err(e) => {
                println!("FAILED {name}: {e}");
                ok = false;
                continue;
            }
        };
        for def in END_TO_END {
            let value = |run: &json::Json| {
                run.get(def.name)
                    .and_then(|m| m.get("value"))
                    .and_then(json::Json::as_f64)
                    .unwrap_or(0.0)
            };
            let (a, b) = (value(&first), value(&second));
            // Positive: the second run is worse than the first.
            let worse = match def.better {
                Better::Lower => stats::ratio(b - a, a),
                Better::Higher => stats::ratio(a - b, a),
            };
            let verdict = if worse <= def.bound {
                "ok"
            } else {
                ok = false;
                "PAST BOUND"
            };
            println!(
                "{name:<22} {:<12} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}% {verdict}",
                def.name,
                worse * 100.0,
                def.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Regenerates the committed reference waveforms (untimed).
fn write_refs(seed: u64) -> ExitCode {
    let dir = refs::refs_dir();
    let mut written = std::collections::BTreeSet::new();
    for name in WORKLOADS {
        let Some(spec) = single_spec(name) else {
            continue;
        };
        if !written.insert(spec.reference) {
            continue;
        }
        let inputs = SingleInputs::new(&spec, seed, false);
        let result = inputs.build().and_then(|circuit| {
            refs::Reference::compute(&circuit, &inputs.options, &inputs.kind.candidate_probes())
        });
        let path = dir.join(format!("{}.csv", spec.reference));
        match result.and_then(|r| std::fs::write(&path, r.to_csv()).map_err(|e| e.to_string())) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("exibench: reference {}: {e}", spec.reference);
                return ExitCode::from(1);
            }
        }
    }
    // What the tolerance column of the workload table is derived from: each
    // workload's deviation over every candidate probe.
    for name in WORKLOADS {
        let Some(spec) = single_spec(name) else {
            continue;
        };
        let inputs = SingleInputs::new(&spec, seed, false);
        let labels = inputs.kind.candidate_probes();
        let names: Vec<&str> = labels.iter().map(String::as_str).collect();
        let deviation = inputs.build().and_then(|circuit| {
            let run = exi_sim::Simulator::new(&circuit)
                .transient(spec.method, &inputs.options, &names)
                .map_err(|e| e.to_string())?;
            refs::load(spec.reference)?.deviation(&run)
        });
        match deviation {
            Ok(d) => println!(
                "{name}: deviation {d:.3e} over {} probes (tolerance {:.1e})",
                labels.len(),
                spec.tolerance
            ),
            Err(e) => {
                eprintln!("exibench: {name}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool) -> RunConfig {
        RunConfig {
            seed: 1,
            trace,
            smoke: true,
            out_dir: default_out_dir().join("test"),
        }
    }

    fn assert_clean(name: &str, outcome: &Outcome, table: &[report::MetricDef]) {
        assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
        assert!(outcome.attempted >= 1);
        let line = outcome.render_json(table);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Json::Bool(true)));
        for def in table {
            assert!(
                doc.get("metrics").unwrap().get(def.name).is_some(),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn smoke_every_in_process_workload_timed_and_traced() {
        for name in &WORKLOADS[..5] {
            let timed = run_workload(name, &smoke(false)).unwrap();
            assert_clean(name, &timed, END_TO_END);
            for def in END_TO_END {
                assert!(timed.get(def.name).unwrap() > 0.0, "{name} {}", def.name);
            }
            let traced = run_workload(name, &smoke(true)).unwrap();
            assert_clean(name, &traced, PER_LAYER);
            assert!(traced.get("trace.coverage").unwrap() > 0.0, "{name}");
            let spans = smoke(true).out_dir.join(format!("trace-{name}.json"));
            let text = std::fs::read_to_string(spans).unwrap();
            assert!(json::parse(&text).is_ok(), "{name} span file parses");
        }
    }

    #[test]
    fn smoke_layers_separate_the_methods() {
        let benr = run_workload("benr_sparse_drivers", &smoke(true)).unwrap();
        assert_eq!(benr.get("krylov.subspaces"), Some(0.0));
        assert!(benr.get("sim.newton_per_step").unwrap() >= 1.0);
        let er = run_workload("er_sparse_drivers", &smoke(true)).unwrap();
        assert!(er.get("krylov.subspaces").unwrap() > 0.0);
        assert!(er.get("krylov.avg_m").unwrap() >= 2.0);
    }

    /// Needs the daemon and CLI binaries in the test executable's target
    /// directory: `bash exibench/run.sh test` builds them first.
    #[test]
    fn smoke_serve_burst() {
        let timed = run_workload("serve_burst", &smoke(false)).unwrap();
        assert_clean("serve_burst", &timed, END_TO_END);
        let traced = run_workload("serve_burst", &smoke(true)).unwrap();
        assert_clean("serve_burst", &traced, PER_LAYER);
        assert!(traced.get("serve.req_p50_ms").unwrap() > 0.0);
        assert_eq!(traced.get("serve.busy_or_rejected"), Some(0.0));
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let to_args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&to_args(
            "--workload serve_burst --seed 42 --seconds 7 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, ["serve_burst"]);
        assert_eq!(a.config.seed, 42);
        assert!(a.config.trace);
        let b = parse_args(&to_args("--trace 0 --workload er_large_mesh --smoke")).unwrap();
        assert!(!b.config.trace && b.config.smoke);
        assert!(
            parse_args(&to_args("--trace --smoke"))
                .unwrap()
                .config
                .trace
        );
        assert!(parse_args(&to_args("--workload nope")).is_err());
        assert!(parse_args(&to_args("--seed -1")).is_err());
        assert!(parse_args(&to_args("--seconds soon")).is_err());
        assert!(parse_args(&to_args("--frobnicate")).is_err());
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mb(None) > 1.0);
        assert_eq!(peak_rss_mb(Some(u32::MAX)), 0.0);
    }
}

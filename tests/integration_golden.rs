//! Golden-waveform regression harness.
//!
//! Every (generator, method) pair replays against a committed reference
//! waveform under `tests/golden/` and must reproduce it **bit for bit** —
//! the solver stack (device evaluation, LU pivoting and replay order, Krylov
//! subspace builds, step-size control) is deterministic, so any bit drift is
//! a behavioral change that must be reviewed, not noise to be tolerated.
//!
//! # Updating the fixtures
//!
//! After an *intentional* numerical change, regenerate and commit:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test integration_golden
//! git diff tests/golden/   # review the waveform drift!
//! ```
//!
//! Fixtures are plain text: comment header, then one `time value…` row per
//! accepted point, printed with 18 significant digits so every `f64`
//! round-trips exactly.

use std::fmt::Write as _;
use std::path::PathBuf;

use exi_netlist::generators::{
    coupled_lines, inverter_chain, power_grid, rc_ladder, CoupledLinesSpec, InverterChainSpec,
    PowerGridSpec, RcLadderSpec,
};
use exi_netlist::Circuit;
use exi_sim::{Method, Observer, Simulator, TransientOptions, TransientResult};

/// One golden case: a generator circuit plus the options and probes every
/// method replays with.
struct GoldenCase {
    name: &'static str,
    circuit: Circuit,
    options: TransientOptions,
    probes: Vec<&'static str>,
}

/// The four generator workloads, sized so each fixture stays compact
/// (tens of points) while exercising the full solver stack.
fn golden_cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            name: "rc_ladder",
            circuit: rc_ladder(&RcLadderSpec {
                segments: 4,
                resistance: 200.0,
                capacitance: 2e-13,
                ..RcLadderSpec::default()
            })
            .expect("rc_ladder builds"),
            options: TransientOptions {
                t_stop: 5e-10,
                h_init: 1e-12,
                h_max: 2e-11,
                error_budget: 1e-3,
                ..TransientOptions::default()
            },
            probes: vec!["n2", "n4"],
        },
        GoldenCase {
            name: "inverter_chain",
            circuit: inverter_chain(&InverterChainSpec {
                stages: 2,
                ..InverterChainSpec::default()
            })
            .expect("inverter_chain builds"),
            options: TransientOptions {
                t_stop: 3e-10,
                h_init: 1e-12,
                h_max: 5e-12,
                error_budget: 5e-3,
                ..TransientOptions::default()
            },
            probes: vec!["s1", "s2"],
        },
        GoldenCase {
            name: "power_grid",
            circuit: power_grid(&PowerGridSpec {
                rows: 3,
                cols: 3,
                num_sinks: 2,
                ..PowerGridSpec::default()
            })
            .expect("power_grid builds"),
            options: TransientOptions {
                t_stop: 5e-10,
                h_init: 1e-12,
                h_max: 2e-11,
                error_budget: 1e-3,
                ..TransientOptions::default()
            },
            probes: vec!["g_1_1", "g_2_2"],
        },
        GoldenCase {
            name: "coupled_lines",
            circuit: coupled_lines(&CoupledLinesSpec {
                lines: 2,
                segments: 4,
                random_couplings: 3,
                ..CoupledLinesSpec::default()
            })
            .expect("coupled_lines builds"),
            options: TransientOptions {
                t_stop: 2e-10,
                h_init: 1e-12,
                h_max: 1e-11,
                error_budget: 1e-2,
                ..TransientOptions::default()
            },
            probes: vec!["l0_3", "l1_3"],
        },
    ]
}

/// File-name tag for a method.
fn method_tag(method: Method) -> &'static str {
    match method {
        Method::BackwardEuler => "benr",
        Method::Trapezoidal => "trnr",
        Method::ExponentialRosenbrock => "er",
        Method::ExponentialRosenbrockCorrected => "erc",
    }
}

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; fixtures live at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn fixture_path(case: &str, method: Method) -> PathBuf {
    golden_dir().join(format!("{case}__{}.txt", method_tag(method)))
}

/// Serializes a result as a fixture. 18 significant digits round-trip every
/// finite `f64` exactly, so parse-then-compare is a bit-level check.
fn fixture_text(case: &GoldenCase, method: Method, result: &TransientResult) -> String {
    let mut out = String::new();
    writeln!(out, "# golden waveform fixture - do not edit by hand").unwrap();
    writeln!(
        out,
        "# case: {}  method: {}  probes: {}",
        case.name,
        method.label(),
        case.probes.join(",")
    )
    .unwrap();
    writeln!(
        out,
        "# regenerate: UPDATE_GOLDEN=1 cargo test --test integration_golden"
    )
    .unwrap();
    for (k, &t) in result.times.iter().enumerate() {
        write!(out, "{t:.17e}").unwrap();
        for v in &result.samples[k] {
            write!(out, " {v:.17e}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Parses a fixture back into rows of `f64`.
fn parse_fixture(text: &str) -> Vec<Vec<f64>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            l.split_whitespace()
                .map(|tok| tok.parse::<f64>().expect("fixture holds valid f64 values"))
                .collect()
        })
        .collect()
}

fn run_case(case: &GoldenCase, method: Method) -> TransientResult {
    // A fresh session per run: fixtures pin the canonical sequential
    // single-run behavior (what `BatchRunner` jobs must also reproduce).
    Simulator::new(&case.circuit)
        .transient(method, &case.options, &case.probes)
        .unwrap_or_else(|e| panic!("{} / {} failed: {e}", case.name, method.label()))
}

fn check_case(case: &GoldenCase) {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    for method in Method::all() {
        let result = run_case(case, method);
        assert!(
            result.len() > 5,
            "{} / {}: suspiciously short run ({} points)",
            case.name,
            method.label(),
            result.len()
        );
        let path = fixture_path(case.name, method);
        let text = fixture_text(case, method, &result);
        if update {
            std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
            std::fs::write(&path, &text).expect("write fixture");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {path:?} ({e}); \
                 generate it with UPDATE_GOLDEN=1 cargo test --test integration_golden"
            )
        });
        let expected = parse_fixture(&golden);
        let got = parse_fixture(&text);
        assert_eq!(
            expected.len(),
            got.len(),
            "{} / {}: accepted-point count changed ({} -> {}); if intentional, \
             regenerate with UPDATE_GOLDEN=1 and review the diff",
            case.name,
            method.label(),
            expected.len(),
            got.len()
        );
        for (row, (want, have)) in expected.iter().zip(got.iter()).enumerate() {
            assert_eq!(
                want.len(),
                have.len(),
                "{} / {} row {row}: column count changed",
                case.name,
                method.label()
            );
            for (col, (w, h)) in want.iter().zip(have.iter()).enumerate() {
                assert!(
                    w.to_bits() == h.to_bits(),
                    "{} / {} row {row} col {col}: {w:.17e} != {h:.17e} \
                     (bit-level waveform drift; if intentional, regenerate with \
                     UPDATE_GOLDEN=1 cargo test --test integration_golden and review)",
                    case.name,
                    method.label()
                );
            }
        }
    }
}

#[test]
fn golden_rc_ladder_all_methods() {
    check_case(&golden_cases()[0]);
}

#[test]
fn golden_inverter_chain_all_methods() {
    check_case(&golden_cases()[1]);
}

#[test]
fn golden_power_grid_all_methods() {
    check_case(&golden_cases()[2]);
}

#[test]
fn golden_coupled_lines_all_methods() {
    check_case(&golden_cases()[3]);
}

/// The pattern rule's payoff, on the eight nonlinear fixtures: a fresh
/// session performs one symbolic LU analysis per matrix role the run touches
/// — `G` for every method, plus `C/h + θG` for BENR/TRNR — however often the
/// MOSFETs cross cut-off, and a second run on the same session performs none.
#[test]
fn nonlinear_goldens_analyze_each_matrix_role_once() {
    for case in golden_cases() {
        if case.circuit.num_nonlinear_devices() == 0 {
            continue;
        }
        for method in Method::all() {
            let roles = match method {
                Method::BackwardEuler | Method::Trapezoidal => 2,
                Method::ExponentialRosenbrock | Method::ExponentialRosenbrockCorrected => 1,
            };
            let mut sim = Simulator::new(&case.circuit);
            for expected in [roles, 0] {
                let run = sim
                    .transient(method, &case.options, &case.probes)
                    .unwrap_or_else(|e| panic!("{} / {} failed: {e}", case.name, method.label()));
                assert_eq!(
                    run.stats.symbolic_analyses,
                    expected,
                    "{} / {}: {:?}",
                    case.name,
                    method.label(),
                    run.stats
                );
            }
        }
    }
}

/// Every rejected attempt of a run, as the bits of `(t, h)`: how many, and
/// their FNV-1a hash in order.
struct RejectionTrace {
    count: usize,
    hash: u64,
    /// Rejections at the bit-equal `(t, h)` of the one before.
    repeats: usize,
    last: Option<(u64, u64)>,
}

impl RejectionTrace {
    fn new() -> Self {
        RejectionTrace {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
            repeats: 0,
            last: None,
        }
    }
}

impl Observer for RejectionTrace {
    fn on_step_rejected(&mut self, t: f64, h: f64) {
        let bits = (t.to_bits(), h.to_bits());
        for byte in bits.0.to_le_bytes().into_iter().chain(bits.1.to_le_bytes()) {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        self.count += 1;
        self.repeats += usize::from(self.last == Some(bits));
        self.last = Some(bits);
    }
}

/// The step controller's rejections, bit for bit: the 16 golden runs, plus
/// BE and TR on the golden inverter chain at `h_max = 5e-11` with at most
/// three Newton iterations, the runs that reach BENR's Newton-failure shrink
/// (which shrinks the unclamped step, so a step clamped at a breakpoint can
/// fail twice at a bit-equal `(t, h)`). The goldens pin only the accepted
/// points; this pins every attempt the controller threw away.
#[test]
fn rejection_traces_are_bit_stable() {
    // (case, method, rejections, FNV-1a of their (t, h) bits).
    const EXPECTED: [(&str, &str, usize, u64); 18] = [
        ("rc_ladder", "benr", 35, 0x19b0373d2a131b94),
        ("rc_ladder", "trnr", 25, 0x1a2906b424f5cda9),
        ("rc_ladder", "er", 0, 0xcbf29ce484222325),
        ("rc_ladder", "erc", 0, 0xcbf29ce484222325),
        ("inverter_chain", "benr", 5, 0x86e62eb974bfa2d7),
        ("inverter_chain", "trnr", 5, 0x86e62eb974bfa2d7),
        ("inverter_chain", "er", 24, 0x02d1943e03297dc1),
        ("inverter_chain", "erc", 24, 0x02d1943e03297dc1),
        ("power_grid", "benr", 0, 0xcbf29ce484222325),
        ("power_grid", "trnr", 0, 0xcbf29ce484222325),
        ("power_grid", "er", 0, 0xcbf29ce484222325),
        ("power_grid", "erc", 0, 0xcbf29ce484222325),
        ("coupled_lines", "benr", 5, 0x71e71a6bee6f36ba),
        ("coupled_lines", "trnr", 5, 0x71e71a6bee6f36ba),
        ("coupled_lines", "er", 12, 0x18944217671e2bf2),
        ("coupled_lines", "erc", 12, 0x18944217671e2bf2),
        ("inverter_chain_newton_3", "benr", 8, 0x8877c05140cce34d),
        ("inverter_chain_newton_3", "trnr", 8, 0x8877c05140cce34d),
    ];
    let mut runs = Vec::new();
    for case in golden_cases() {
        for method in Method::all() {
            runs.push((
                case.name,
                method,
                case.circuit.clone(),
                case.options.clone(),
            ));
        }
    }
    let chain = golden_cases().swap_remove(1);
    for method in [Method::BackwardEuler, Method::Trapezoidal] {
        let options = TransientOptions {
            h_max: 5e-11,
            newton_max_iterations: 3,
            ..chain.options.clone()
        };
        runs.push((
            "inverter_chain_newton_3",
            method,
            chain.circuit.clone(),
            options,
        ));
    }
    let mut got = Vec::new();
    for (name, method, circuit, options) in &runs {
        let mut trace = RejectionTrace::new();
        Simulator::new(circuit)
            .transient_observed(*method, options, &mut trace)
            .unwrap_or_else(|e| panic!("{name} / {} failed: {e}", method.label()));
        if name.ends_with("newton_3") {
            // The Newton-failure shrink is reached, at a bit-equal pair too.
            assert!(trace.repeats > 0, "{name} / {}", method.label());
        }
        got.push((*name, method_tag(*method), trace.count, trace.hash));
    }
    let show = |rows: &[(&str, &str, usize, u64)]| {
        rows.iter()
            .map(|(c, m, n, h)| format!("(\"{c}\", \"{m}\", {n}, {h:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(got == EXPECTED, "rejection traces moved:\n{}", show(&got));
}

/// Accuracy report behind the drift table in `docs/PERFORMANCE.md`: for each
/// nonlinear case × method × fill-reducing ordering, the accepted-point count
/// and the rms error (worst probe) against a fixed-step BE reference at
/// `h = h_max / 100`. The three orderings differ only in rounding, so their
/// spread is the yardstick any bit-moving change is read against. Run with
/// `cargo test --release --test integration_golden -- --ignored --nocapture`.
#[test]
#[ignore = "report, not a gate: CI uploads its output as an artifact"]
fn golden_accuracy_report() {
    use exi_sparse::OrderingMethod;
    println!("case method ordering rows rms_error_vs_fixed_step_be");
    for case in golden_cases() {
        if case.circuit.num_nonlinear_devices() == 0 {
            continue;
        }
        let h = case.options.h_max / 100.0;
        let fine = TransientOptions {
            h_init: h,
            h_max: h,
            error_budget: 1.0,
            ..case.options.clone()
        };
        let reference = Simulator::new(&case.circuit)
            .transient(Method::BackwardEuler, &fine, &case.probes)
            .expect("fixed-step reference runs");
        for method in Method::all() {
            for ordering in [
                OrderingMethod::Rcm,
                OrderingMethod::Natural,
                OrderingMethod::MinDegree,
            ] {
                let options = TransientOptions {
                    ordering,
                    ..case.options.clone()
                };
                let result = Simulator::new(&case.circuit)
                    .transient(method, &options, &case.probes)
                    .expect("golden case runs under every ordering");
                let rms = (0..case.probes.len())
                    .map(|p| result.rms_error_vs(&reference, p))
                    .fold(0.0_f64, f64::max);
                println!(
                    "{} {} {ordering:?} {} {rms:.3e}",
                    case.name,
                    method_tag(method),
                    result.len()
                );
            }
        }
    }
}

#[test]
fn fixture_codec_round_trips_exact_bits() {
    // The serialize/parse pair must preserve every f64 bit pattern,
    // including subnormals and negative zero.
    let values = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        1e-300,
        -3.123456789012345e-7,
        f64::MIN_POSITIVE,
        std::f64::consts::PI,
        6.02214076e23,
    ];
    for v in values {
        let text = format!("{v:.17e}");
        let back: f64 = text.parse().unwrap();
        assert_eq!(
            v.to_bits(),
            back.to_bits(),
            "{v:e} did not round-trip via {text}"
        );
    }
}

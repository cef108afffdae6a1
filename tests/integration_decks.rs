//! Deck round-trip regression suite: the checked-in `tests/decks/*.sp`
//! fixtures must build circuits **bit-identical** to their generator-built
//! twins — same `circuit_fingerprint`, same waveforms, same `RunStats` —
//! across all four integration methods, and the `exi-cli` entry points must
//! reproduce the same bits end to end.
//!
//! # Updating the fixtures
//!
//! The deck files are generated from the workload generators through
//! `Deck::to_spice`. After an intentional generator or serializer change:
//!
//! ```text
//! UPDATE_DECKS=1 cargo test -p exi-cli --test integration_decks
//! git diff tests/decks/   # review!
//! ```

use std::path::PathBuf;

use exi_cli::{run_deck, RunConfig};
use exi_netlist::generators::{
    coupled_lines, inverter_chain, power_grid, rc_ladder, CoupledLinesSpec, InverterChainSpec,
    PowerGridSpec, RcLadderSpec,
};
use exi_netlist::{circuit_fingerprint, parse_deck_file, Analysis, Circuit, Deck};
use exi_sim::{analysis_options, Method, RunStats, Simulator, TransientResult};

/// One fixture: a generator circuit plus the `.tran` card and probes its
/// deck carries.
struct DeckCase {
    name: &'static str,
    circuit: Circuit,
    /// `.tran <step> <stop> <hmax>` arguments.
    tran: (f64, f64, f64),
    /// `.options reltol` — the error budget, matching the golden-waveform
    /// harness so the 4×4 sweep stays fast.
    reltol: f64,
    probes: Vec<&'static str>,
}

/// The four generator workloads, sized like the golden-waveform cases so a
/// full 4×4 method sweep stays fast.
fn deck_cases() -> Vec<DeckCase> {
    vec![
        DeckCase {
            name: "rc_ladder",
            circuit: rc_ladder(&RcLadderSpec {
                segments: 4,
                resistance: 200.0,
                capacitance: 2e-13,
                ..RcLadderSpec::default()
            })
            .expect("rc_ladder builds"),
            tran: (1e-12, 5e-10, 2e-11),
            reltol: 1e-3,
            probes: vec!["n2", "n4"],
        },
        DeckCase {
            name: "inverter_chain",
            circuit: inverter_chain(&InverterChainSpec {
                stages: 2,
                ..InverterChainSpec::default()
            })
            .expect("inverter_chain builds"),
            tran: (1e-12, 3e-10, 5e-12),
            reltol: 5e-3,
            probes: vec!["s1", "s2"],
        },
        DeckCase {
            name: "power_grid",
            circuit: power_grid(&PowerGridSpec {
                rows: 3,
                cols: 3,
                num_sinks: 2,
                ..PowerGridSpec::default()
            })
            .expect("power_grid builds"),
            tran: (1e-12, 5e-10, 2e-11),
            reltol: 1e-3,
            probes: vec!["g_1_1", "g_2_2"],
        },
        DeckCase {
            name: "coupled_lines",
            circuit: coupled_lines(&CoupledLinesSpec {
                lines: 2,
                segments: 4,
                random_couplings: 3,
                ..CoupledLinesSpec::default()
            })
            .expect("coupled_lines builds"),
            tran: (1e-12, 2e-10, 1e-11),
            reltol: 1e-2,
            probes: vec!["l0_3", "l1_3"],
        },
    ]
}

fn decks_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/cli; fixtures live at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/decks")
}

fn fixture_path(name: &str) -> PathBuf {
    decks_dir().join(format!("{name}.sp"))
}

/// The deck a case serializes to.
fn case_deck(case: &DeckCase) -> Deck {
    let mut deck = Deck::new(case.circuit.clone());
    deck.title = Some(format!("{} generator workload", case.name));
    deck.analyses.push(Analysis::Tran {
        step: case.tran.0,
        stop: case.tran.1,
        h_max: Some(case.tran.2),
    });
    deck.prints = case.probes.iter().map(|p| p.to_string()).collect();
    deck.reltol = Some(case.reltol);
    deck
}

/// Zeroes the wall-clock field so two runs of identical work compare equal.
fn counters(stats: &RunStats) -> RunStats {
    RunStats {
        runtime: std::time::Duration::ZERO,
        ..stats.clone()
    }
}

fn run_twin(circuit: &Circuit, case: &DeckCase, method: Method) -> TransientResult {
    // The exact options the CLI derives from the deck's cards — the single
    // mapping both sides of every bit-identity assertion go through.
    let reference = case_deck(case);
    let options = analysis_options(&reference, &reference.analyses[0]).expect("tran card");
    Simulator::new(circuit)
        .transient(method, &options, &case.probes)
        .unwrap_or_else(|e| panic!("{} / {} failed: {e}", case.name, method.label()))
}

fn check_case(case: &DeckCase) {
    let update = std::env::var("UPDATE_DECKS").is_ok_and(|v| v == "1");
    let path = fixture_path(case.name);
    let text = case_deck(case).to_spice().expect("serializable circuit");
    if update {
        std::fs::create_dir_all(decks_dir()).expect("create tests/decks");
        std::fs::write(&path, &text).expect("write deck fixture");
    } else {
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing deck fixture {path:?} ({e}); generate it with \
                 UPDATE_DECKS=1 cargo test -p exi-cli --test integration_decks"
            )
        });
        assert_eq!(
            on_disk, text,
            "{}: checked-in deck no longer matches its generator serialization; \
             if intentional, regenerate with UPDATE_DECKS=1 and review the diff",
            case.name
        );
    }

    // The parsed deck must reproduce the generator circuit exactly.
    let deck = parse_deck_file(&path)
        .unwrap_or_else(|e| panic!("{}: deck fixture does not parse: {e}", case.name));
    assert_eq!(
        circuit_fingerprint(&deck.circuit),
        circuit_fingerprint(&case.circuit),
        "{}: deck-built circuit fingerprint differs from the generator's",
        case.name
    );
    assert_eq!(
        deck.analyses,
        vec![Analysis::Tran {
            step: case.tran.0,
            stop: case.tran.1,
            h_max: Some(case.tran.2),
        }],
        "{}: analysis card drifted",
        case.name
    );
    assert_eq!(
        deck.prints, case.probes,
        "{}: print card drifted",
        case.name
    );

    // And every method must replay bit-for-bit with identical statistics.
    for method in Method::all() {
        let from_deck = run_twin(&deck.circuit, case, method);
        let from_generator = run_twin(&case.circuit, case, method);
        assert!(
            from_generator.len() > 5,
            "{} / {}: suspiciously short run",
            case.name,
            method.label()
        );
        assert_eq!(
            from_deck.times,
            from_generator.times,
            "{} / {}: time axis diverged",
            case.name,
            method.label()
        );
        for (row, (a, b)) in from_deck
            .samples
            .iter()
            .zip(&from_generator.samples)
            .enumerate()
        {
            for (col, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{} / {} row {row} col {col}: {x:.17e} != {y:.17e}",
                    case.name,
                    method.label()
                );
            }
        }
        assert_eq!(
            from_deck.final_state,
            from_generator.final_state,
            "{} / {}: final state diverged",
            case.name,
            method.label()
        );
        assert_eq!(
            counters(&from_deck.stats),
            counters(&from_generator.stats),
            "{} / {}: run statistics diverged",
            case.name,
            method.label()
        );
    }
}

#[test]
fn deck_rc_ladder_matches_generator_bitwise() {
    check_case(&deck_cases()[0]);
}

#[test]
fn deck_inverter_chain_matches_generator_bitwise() {
    check_case(&deck_cases()[1]);
}

#[test]
fn deck_power_grid_matches_generator_bitwise() {
    check_case(&deck_cases()[2]);
}

#[test]
fn deck_coupled_lines_matches_generator_bitwise() {
    check_case(&deck_cases()[3]);
}

/// The acceptance path: `exi-cli run tests/decks/power_grid.sp --method er`
/// must emit the exact bits of the generator-built `Simulator` run.
#[test]
fn cli_run_on_power_grid_deck_is_bit_identical_to_the_generator_run() {
    let case = &deck_cases()[2];
    let deck = parse_deck_file(fixture_path(case.name)).expect("fixture parses");
    let mut csv = Vec::new();
    let summary = run_deck(&deck, &RunConfig::default(), &mut csv).expect("cli run");
    let reference = run_twin(&case.circuit, case, Method::ExponentialRosenbrock);

    let text = String::from_utf8(csv).expect("utf-8 csv");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("time,g_1_1,g_2_2"));
    let rows: Vec<Vec<f64>> = lines
        .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
        .collect();
    assert_eq!(rows.len(), reference.len(), "row count != accepted points");
    assert_eq!(summary.rows, reference.len());
    for (k, row) in rows.iter().enumerate() {
        assert_eq!(
            row[0].to_bits(),
            reference.times[k].to_bits(),
            "row {k} time"
        );
        for (j, v) in row[1..].iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                reference.samples[k][j].to_bits(),
                "row {k} probe {j}"
            );
        }
    }
}

/// `--stream N` keeps a decimated, bounded view whose retained points are
/// genuine samples of the full run.
#[test]
fn cli_stream_mode_emits_a_bounded_subset_of_the_full_run() {
    let case = &deck_cases()[2];
    let deck = parse_deck_file(fixture_path(case.name)).expect("fixture parses");
    let mut csv = Vec::new();
    let config = RunConfig {
        stream: Some(16),
        ..RunConfig::default()
    };
    let summary = run_deck(&deck, &config, &mut csv).expect("cli stream run");
    assert!(summary.rows < 16, "stream rows {}", summary.rows);
    let reference = run_twin(&case.circuit, case, Method::ExponentialRosenbrock);
    let text = String::from_utf8(csv).unwrap();
    let full: std::collections::HashMap<u64, &Vec<f64>> = reference
        .times
        .iter()
        .zip(&reference.samples)
        .map(|(t, row)| (t.to_bits(), row))
        .collect();
    for line in text.lines().skip(1) {
        let cols: Vec<f64> = line.split(',').map(|c| c.parse().unwrap()).collect();
        let row = full
            .get(&cols[0].to_bits())
            .unwrap_or_else(|| panic!("retained time {:.17e} not in the full run", cols[0]));
        for (j, v) in cols[1..].iter().enumerate() {
            assert_eq!(v.to_bits(), row[j].to_bits());
        }
    }
}

/// End-to-end sweep over the checked-in `.param` template deck through the
/// real file-based code path (`exi_cli::run_sweep`).
#[test]
fn cli_sweep_fans_the_template_deck_across_values() {
    use exi_cli::{run_sweep, SweepConfig};
    let out_dir = std::env::temp_dir().join(format!("exi_cli_sweep_{}", std::process::id()));
    std::fs::remove_dir_all(&out_dir).ok();
    let config = SweepConfig {
        params: vec![(
            "rload".to_string(),
            vec!["1k".to_string(), "2k".to_string(), "5k".to_string()],
        )],
        threads: 2,
        ..SweepConfig::default()
    };
    let summary = run_sweep(&decks_dir().join("sweep_rc.sp"), &config, &out_dir).expect("sweep");
    assert_eq!(summary.members, 3);
    assert_eq!(summary.failed, 0);
    // Three distinct plans (the resistance is part of the plan's
    // fingerprint), and each member analyzes its own `G`.
    assert_eq!(summary.stats.plan_compilations, 3);
    assert_eq!(summary.stats.symbolic_analyses, 3);
    assert_eq!(summary.stats.shared_symbolic_hits, 0);
    assert_eq!(summary.stats.batch_jobs, 3);
    for value in ["1k", "2k", "5k"] {
        let file = out_dir.join(format!("rload={value}.csv"));
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("missing member waveform {file:?}: {e}"));
        assert!(text.starts_with("time,out\n"), "{file:?}");
        assert!(text.lines().count() > 5, "{file:?}");
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

/// The full argv path: parse_args + execute with an output file, as the
/// binary would run it in CI.
#[test]
fn cli_argv_path_writes_an_output_file() {
    use exi_cli::{execute, parse_args, Command};
    let out_file = std::env::temp_dir().join(format!("exi_cli_run_{}.csv", std::process::id()));
    let deck_path = fixture_path("power_grid");
    let args: Vec<String> = [
        "run",
        deck_path.to_str().unwrap(),
        "--method",
        "er",
        "--out",
        "csv",
        "--output",
        out_file.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let command = parse_args(&args).expect("argv parses");
    assert!(matches!(command, Command::Run { .. }));
    let mut status = Vec::new();
    execute(&command, &mut status).expect("execute");
    let status = String::from_utf8(status).unwrap();
    assert!(status.contains("symbolic LU analyses"), "{status}");
    let text = std::fs::read_to_string(&out_file).expect("output file written");
    assert!(text.starts_with("time,g_1_1,g_2_2\n"));
    assert!(text.lines().count() > 5);
    std::fs::remove_file(&out_file).ok();
}

/// A `.tran` stop that overflows to +∞ is invalid options (exit 4), caught
/// before a periodic PULSE lists its breakpoints without end.
#[test]
fn an_infinite_stop_time_is_rejected_as_invalid_options() {
    let deck = exi_netlist::parse_deck(
        "V1 in 0 PULSE(0 1 0 10p 10p 200p 1n)\n\
         R1 in out 1k\n\
         C1 out 0 1f\n\
         .tran 1p 1e999\n\
         .print v(out)\n",
    )
    .expect("deck parses");
    assert!(matches!(
        deck.analyses[0],
        Analysis::Tran { stop, .. } if stop == f64::INFINITY
    ));
    let err = run_deck(&deck, &RunConfig::default(), &mut Vec::new()).unwrap_err();
    assert!(
        matches!(
            err,
            exi_cli::CliError::Sim(exi_sim::SimError::InvalidOptions { .. })
        ),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 4);
}

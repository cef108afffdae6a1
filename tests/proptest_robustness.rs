//! Property-based robustness: no matter which device lines a deck loses, the
//! pipeline (parse → build → DC → transient) either produces a waveform or a
//! clean, typed error. A mutilated deck may leave nodes floating, sources
//! unpaired, or the whole circuit empty — none of that may panic.

use exi_netlist::parse_deck;
use exi_sim::{Method, Simulator, TransientOptions};
use proptest::prelude::*;

/// Device lines of a healthy mixed deck: sources, a resistive ladder, caps
/// to ground, a bridging resistor. Deleting arbitrary subsets produces the
/// full bestiary of pathologies (floating nodes, dangling branches, empty
/// circuits).
const DEVICE_LINES: [&str; 9] = [
    "V1 in 0 DC 1",
    "V2 aux 0 PULSE(0 1 0 10p 10p 100p)",
    "R1 in n1 1k",
    "C1 n1 0 1p",
    "R2 n1 n2 2k",
    "C2 n2 0 2p",
    "R3 n2 0 5k",
    "R4 aux n2 3k",
    "C3 aux 0 1p",
];

fn deck_without(dropped: &[usize]) -> String {
    let mut text = String::from(".title deletion torture\n");
    for (k, line) in DEVICE_LINES.iter().enumerate() {
        if !dropped.contains(&k) {
            text.push_str(line);
            text.push('\n');
        }
    }
    text.push_str(".tran 1p 50p\n.end\n");
    text
}

fn options() -> TransientOptions {
    TransientOptions {
        t_stop: 5e-11,
        h_init: 1e-12,
        h_max: 5e-12,
        error_budget: 1e-3,
        ..TransientOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deleting any single device line never panics: every outcome is
    /// `Ok(waveform)` or a typed `NetlistError` / `SimError`.
    #[test]
    fn single_device_deletion_never_panics(k in 0usize..DEVICE_LINES.len()) {
        let text = deck_without(&[k]);
        if let Ok(deck) = parse_deck(&text) {
            for method in [Method::ExponentialRosenbrock, Method::BackwardEuler] {
                // A panic anywhere in here fails the test; Err is a fine answer.
                let _ = Simulator::new(&deck.circuit).transient(method, &options(), &[]);
            }
        }
    }

    /// Deleting any pair of device lines never panics either, under ER or
    /// BENR.
    #[test]
    fn double_device_deletion_never_panics(
        a in 0usize..DEVICE_LINES.len(),
        b in 0usize..DEVICE_LINES.len(),
    ) {
        let text = deck_without(&[a, b]);
        if let Ok(deck) = parse_deck(&text) {
            let _ = Simulator::new(&deck.circuit)
                .transient(Method::ExponentialRosenbrock, &options(), &[]);
            let _ = Simulator::new(&deck.circuit)
                .transient(Method::BackwardEuler, &options(), &[]);
        }
    }
}

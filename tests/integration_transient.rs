//! Cross-crate integration tests: netlist parsing → MNA assembly → DC and
//! transient analysis, checked against analytic solutions.

use exi_netlist::{parse_deck, Circuit, Waveform};
use exi_sim::{Method, Simulator, TransientOptions};

/// RC charging through a ramp source, compared with the analytic response at
/// the accepted time points of each method.
#[test]
fn rc_charging_matches_analytic_solution_for_all_methods() {
    let (r, c, v) = (2e3, 5e-13, 1.2);
    let tau = r * c;
    let ramp = tau / 200.0;
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    let gnd = ckt.node("0");
    ckt.add_voltage_source("V1", vin, gnd, Waveform::Pwl(vec![(0.0, 0.0), (ramp, v)]))
        .unwrap();
    ckt.add_resistor("R1", vin, out, r).unwrap();
    ckt.add_capacitor("C1", out, gnd, c).unwrap();

    let options = TransientOptions {
        t_stop: 4.0 * tau,
        h_init: tau / 100.0,
        h_max: tau / 10.0,
        error_budget: 1e-3,
        ..TransientOptions::default()
    };
    let mut sim = Simulator::new(&ckt);
    for method in Method::all() {
        let result = sim.transient(method, &options, &["out"]).unwrap();
        let p = result.probe_index("out").unwrap();
        let mut worst = 0.0_f64;
        for (t, got) in result.waveform(p) {
            if t < 5.0 * ramp {
                continue;
            }
            let expected = v * (1.0 - (-(t - ramp) / tau).exp());
            worst = worst.max((got - expected).abs());
        }
        assert!(worst < 0.02, "{method}: worst error {worst}");
    }
}

/// The parser, stamping and simulator cooperate end to end on a textual netlist.
#[test]
fn parsed_netlist_simulates_end_to_end() {
    let ckt = parse_deck(
        "* parsed rc ladder\n\
         Vin in 0 PULSE(0 1 0.1n 0.05n 0.05n 2n 10n)\n\
         R1 in n1 500\n\
         C1 n1 0 0.2p\n\
         R2 n1 n2 500\n\
         C2 n2 0 0.2p\n\
         R3 n2 out 500\n\
         C3 out 0 0.2p\n\
         .end\n",
    )
    .unwrap()
    .circuit;
    let options = TransientOptions {
        t_stop: 2e-9,
        h_init: 1e-12,
        h_max: 5e-11,
        error_budget: 1e-4,
        ..TransientOptions::default()
    };
    let mut sim = Simulator::new(&ckt);
    let er = sim
        .transient(Method::ExponentialRosenbrock, &options, &["out"])
        .unwrap();
    let benr = sim
        .transient(Method::BackwardEuler, &options, &["out"])
        .unwrap();
    let p = er.probe_index("out").unwrap();
    // Output follows the input pulse towards 1 V and the two methods agree.
    assert!(er.sample_at(p, 2e-9) > 0.9);
    assert!(er.max_error_vs(&benr, p) < 0.05);
}

/// DC operating point of a diode-loaded divider feeds a consistent transient
/// start (no initial transient when the input is constant).
#[test]
fn dc_point_is_a_transient_fixed_point() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    let gnd = ckt.node("0");
    ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(1.5))
        .unwrap();
    ckt.add_resistor("R1", a, d, 1e3).unwrap();
    ckt.add_diode("D1", d, gnd, exi_netlist::DiodeModel::default())
        .unwrap();
    ckt.add_capacitor("C1", d, gnd, 1e-13).unwrap();

    let dc = Simulator::new(&ckt).dc().unwrap();
    let options = TransientOptions {
        t_stop: 1e-9,
        h_init: 1e-12,
        h_max: 1e-11,
        error_budget: 1e-4,
        ..TransientOptions::default()
    };
    let result = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &options, &["d"])
        .unwrap();
    let p = result.probe_index("d").unwrap();
    let v0 = dc.state[ckt.unknown_of("d").unwrap()];
    for (_, v) in result.waveform(p) {
        assert!(
            (v - v0).abs() < 1e-3,
            "transient drifted from the DC point: {v} vs {v0}"
        );
    }
}

//! Property-based tests of the stamping-plan path against the COO value
//! oracle (`Circuit::evaluate_reference`): on any randomly generated circuit
//! (all device types, random terminals and parameters, `gmin` corners) and
//! any random state vector, `EvalPlan::evaluate_into` must reproduce `f`,
//! `q`, `C` and `B` **bit for bit** and `G` **cell for cell on a pattern
//! that never moves** — a MOSFET in cut-off stamps explicit zeros where the
//! oracle drops the cells.

#[path = "support/plan_oracle.rs"]
mod plan_oracle;

use exi_netlist::{Circuit, DiodeModel, Evaluation, MosfetModel, Waveform};
use plan_oracle::assert_matches_reference;
use proptest::prelude::*;

/// One randomized device descriptor: `(kind, node a, node b, node c,
/// parameter scale)`. Node index 0 is ground.
type DeviceSpec = (usize, usize, usize, usize, f64);

fn device_specs() -> impl Strategy<Value = (usize, Vec<DeviceSpec>, Vec<f64>)> {
    (3usize..8).prop_flat_map(|nodes| {
        (
            Just(nodes),
            proptest::collection::vec(
                (
                    0usize..7,
                    0..nodes + 1,
                    0..nodes + 1,
                    0..nodes + 1,
                    0.0f64..1.0,
                ),
                4..24,
            ),
            // Generous length; sliced to the circuit's unknown count. The
            // range crosses MOSFET cut-off/triode/saturation boundaries.
            proptest::collection::vec(-1.5f64..1.5, 64),
        )
    })
}

/// Materializes a random circuit. Returns `None` only for degenerate specs
/// (no non-ground unknowns).
fn build_circuit(nodes: usize, specs: &[DeviceSpec], gmin: f64) -> Option<Circuit> {
    let mut ckt = Circuit::new();
    ckt.set_gmin(gmin);
    let ids: Vec<_> = (0..=nodes)
        .map(|k| {
            if k == 0 {
                ckt.node("0")
            } else {
                ckt.node(&format!("n{k}"))
            }
        })
        .collect();
    // Anchor: guarantees at least one unknown and a well-formed circuit.
    ckt.add_resistor("Ranchor", ids[1], ids[0], 1e4).unwrap();
    for (k, &(kind, a, b, c, p)) in specs.iter().enumerate() {
        let (na, nb, nc) = (ids[a], ids[b], ids[c]);
        let name = format!("D{k}");
        let r = match kind {
            0 => ckt.add_resistor(&name, na, nb, 10.0 + 1e4 * p),
            1 => ckt.add_capacitor(&name, na, nb, 1e-15 + 1e-12 * p),
            2 => ckt.add_inductor(&name, na, nb, 1e-10 + 1e-8 * p),
            3 => ckt.add_voltage_source(&name, na, nb, Waveform::Dc(2.0 * p - 1.0)),
            4 => ckt.add_current_source(&name, na, nb, Waveform::Dc(1e-3 * p)),
            5 => ckt.add_diode(
                &name,
                na,
                nb,
                DiodeModel {
                    saturation_current: 1e-15 + 1e-14 * p,
                    junction_capacitance: if p > 0.5 { 1e-15 * p } else { 0.0 },
                    ..DiodeModel::default()
                },
            ),
            _ => {
                let model = if p > 0.5 {
                    MosfetModel::nmos().scaled_width(0.5 + p)
                } else {
                    MosfetModel::pmos().scaled_width(0.5 + p)
                };
                ckt.add_mosfet(&name, na, nb, nc, model)
            }
        };
        r.unwrap();
    }
    if ckt.num_unknowns() == 0 {
        None
    } else {
        Some(ckt)
    }
}

/// Bitwise equality of two plan-path evaluations, patterns included.
fn assert_bits_equal(a: &Evaluation, b: &Evaluation) {
    for (m, n) in [(&a.g, &b.g), (&a.c, &b.c)] {
        assert_eq!(m.indptr(), n.indptr());
        assert_eq!(m.indices(), n.indices());
        assert_eq!(bits(m.values()), bits(n.values()));
    }
    assert_eq!(bits(&a.f), bits(&b.f));
    assert_eq!(bits(&a.q), bits(&b.q));
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `f`, `q`, `C` and `B` are bit-identical to the legacy COO path and
    /// `G` matches it cell for cell on one fixed pattern, on randomized
    /// circuits and states, with full buffer reuse across evaluations at
    /// different states.
    #[test]
    fn evaluate_into_is_bit_identical_to_legacy_coo(
        (nodes, specs, xs) in device_specs(),
        gmin_scale in 0.0f64..1.0,
    ) {
        let gmin = if gmin_scale < 0.2 { 0.0 } else { 1e-12 * gmin_scale };
        let Some(ckt) = build_circuit(nodes, &specs, gmin) else { return };
        let n = ckt.num_unknowns();
        let plan = ckt.compile_plan().unwrap();
        prop_assert_eq!(plan.num_unknowns(), n);
        let mut ws = plan.new_workspace();
        let mut ev = plan.new_evaluation();
        let pattern = (ev.g.indptr().to_vec(), ev.g.indices().to_vec());
        // Three states through the same buffers: stale-state bugs in the
        // reuse path would show up as a mismatch on the 2nd/3rd pass.
        for shift in 0..3usize {
            let x: Vec<f64> = (0..n).map(|i| xs[(i + 17 * shift) % xs.len()]).collect();
            let restamped = plan.evaluate_into(&x, &mut ws, &mut ev).unwrap();
            prop_assert_eq!(restamped, plan.nonlinear_stamp_count());
            prop_assert_eq!(ev.g.indptr(), &pattern.0[..]);
            prop_assert_eq!(ev.g.indices(), &pattern.1[..]);
            assert_matches_reference(&ckt, &x, &ev);
        }
        // Pre-sized buffers: the whole exercise allocated nothing.
        prop_assert_eq!(ws.allocations(), 0);
        // The constant input matrix matches the legacy stamping pass.
        prop_assert_eq!(plan.input_matrix(), &ckt.input_matrix_reference().unwrap());
    }

    /// Repeated restamps at one state are deterministic (same bits), and a
    /// plan compiled twice behaves identically.
    #[test]
    fn restamping_is_deterministic((nodes, specs, xs) in device_specs()) {
        let Some(ckt) = build_circuit(nodes, &specs, 1e-12) else { return };
        let n = ckt.num_unknowns();
        let x: Vec<f64> = (0..n).map(|i| xs[i % xs.len()]).collect();
        let plan_a = ckt.compile_plan().unwrap();
        let plan_b = ckt.compile_plan().unwrap();
        let mut ws = plan_a.new_workspace();
        let mut ev = plan_a.new_evaluation();
        plan_a.evaluate_into(&x, &mut ws, &mut ev).unwrap();
        let first = ev.clone();
        plan_a.evaluate_into(&x, &mut ws, &mut ev).unwrap();
        assert_bits_equal(&ev, &first);
        let other = plan_b.evaluate(&x).unwrap();
        assert_bits_equal(&other, &first);
    }
}

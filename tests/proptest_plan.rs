//! Property-based tests of the stamping plan against the definition of a
//! Jacobian. On any randomly generated circuit (all device types, random
//! terminals and parameters, `gmin` corners) and any random state `x`,
//! column `j` of `G(x)` is the central difference of `f` in `x_j` plus the
//! `gmin` junction stamps, and column `j` of `C` the central difference of
//! `q`; `f` and `q` vanish at `x = 0`, so their derivatives pin them. Every
//! evaluation goes through one set of buffers, on a pattern that never moves
//! and without allocating. The literal stamp table of each device kind is in
//! `exi_netlist::plan`'s unit tests.

use exi_netlist::{
    Circuit, Device, DiodeModel, Evaluation, MosfetModel, MosfetPolarity, NodeId, Waveform,
};
use exi_sparse::CsrMatrix;
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

/// The part of `G` that is not `∂f/∂x`, dense: `gmin` times the two-terminal
/// conductance stamp across every diode and every MOSFET's drain–source.
/// `f` carries no `gmin` current.
fn gmin_stamps(ckt: &Circuit) -> Vec<Vec<f64>> {
    let n = ckt.num_unknowns();
    let mut s = vec![vec![0.0; n]; n];
    for device in ckt.devices() {
        let (a, b) = match device {
            Device::Diode { anode, cathode, .. } => (anode.unknown(), cathode.unknown()),
            Device::Mosfet { drain, source, .. } => (drain.unknown(), source.unknown()),
            _ => continue,
        };
        for (r, c, sign) in [(a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)] {
            if let (Some(r), Some(c)) = (r, c) {
                s[r][c] += sign * ckt.gmin();
            }
        }
    }
    s
}

/// Which smooth piece of its model every nonlinear device is on at `x`: the
/// diode's exponential or its linear extension above `40·n·V_T`; the
/// MOSFET's cut-off, triode or saturation, with drain and source swapped or
/// not. `G` is continuous across these boundaries but its derivative is not,
/// so a central difference that straddles one is accurate only to `O(h)`.
fn pieces(ckt: &Circuit, x: &[f64]) -> Vec<u8> {
    let v = |node: &NodeId| node.unknown().map_or(0.0, |i| x[i]);
    let piece = |device: &Device| match device {
        Device::Diode {
            anode,
            cathode,
            model,
            ..
        } => {
            let nvt = model.emission_coefficient * model.thermal_voltage;
            Some(u8::from((v(anode) - v(cathode)) / nvt > 40.0))
        }
        Device::Mosfet {
            drain,
            gate,
            source,
            model,
            ..
        } => {
            let sign = match model.polarity {
                MosfetPolarity::Nmos => 1.0,
                MosfetPolarity::Pmos => -1.0,
            };
            let (vgs, vds) = (sign * (v(gate) - v(source)), sign * (v(drain) - v(source)));
            let (vgs, vds, swapped) = if vds < 0.0 {
                (vgs - vds, -vds, 3)
            } else {
                (vgs, vds, 0)
            };
            let vov = vgs - sign * model.threshold;
            Some(swapped + (vov > 0.0) as u8 + (vov > 0.0 && vds >= vov) as u8)
        }
        _ => None,
    };
    ckt.devices().iter().filter_map(piece).collect()
}

/// The scale of each row of `C`: its largest magnitude.
fn row_scales(m: &CsrMatrix) -> Vec<f64> {
    (0..m.rows())
        .map(|r| m.row(r).1.iter().fold(0.0_f64, |s, v| s.max(v.abs())))
        .collect()
}

/// The scale of each row of `G`: the summed magnitudes of the conductances
/// stamped into it, per device `1/R`, `1` for a branch's incidence entries,
/// and `|gm| + |gds| + gmin` or `g_d + gmin` for a nonlinear device. Stamps
/// can cancel (a device whose terminals are shorted), leaving only their
/// rounding. A reverse-biased diode's conductance vanishes while its current
/// saturates at `-I_S`, which a difference quotient resolves only to
/// `ε·I_S/h`, so a diode adds `I_S` per volt on top.
fn g_scales(ckt: &Circuit, x: &[f64]) -> Vec<f64> {
    let v = |node: &NodeId| node.unknown().map_or(0.0, |i| x[i]);
    let branch = |b: &usize| Some(ckt.num_nodes() + b);
    let mut scales = vec![0.0; ckt.num_unknowns()];
    for device in ckt.devices() {
        let (rows, size) = match device {
            Device::Resistor {
                a, b, resistance, ..
            } => ([a.unknown(), b.unknown(), None], 1.0 / resistance),
            Device::Inductor {
                a, b, branch: k, ..
            } => ([a.unknown(), b.unknown(), branch(k)], 1.0),
            Device::VoltageSource {
                pos,
                neg,
                branch: k,
                ..
            } => ([pos.unknown(), neg.unknown(), branch(k)], 1.0),
            Device::Diode {
                anode,
                cathode,
                model,
                ..
            } => {
                let op = model.evaluate(v(anode) - v(cathode));
                let size = op.conductance + ckt.gmin() + model.saturation_current;
                ([anode.unknown(), cathode.unknown(), None], size)
            }
            Device::Mosfet {
                drain,
                gate,
                source,
                model,
                ..
            } => {
                let op = model.evaluate(v(gate) - v(source), v(drain) - v(source));
                let size = op.gm.abs() + op.gds.abs() + ckt.gmin();
                ([drain.unknown(), source.unknown(), None], size)
            }
            Device::Capacitor { .. } | Device::CurrentSource { .. } => continue,
        };
        for row in rows.into_iter().flatten() {
            scales[row] += size;
        }
    }
    scales
}

/// Relative step of the central differences, scaled by `max(|x_j|, 1)`.
const STEP: f64 = 1e-6;

/// Tolerance of a difference quotient, relative to its row's scale. Over
/// 4 800 random circuits at three states each (127 515 columns, none
/// skipped) the worst measured error is 6.1e-10 of the scale for `G` and
/// 4.9e-10 for `C`: a margin of about 1 600×.
const TOL: f64 = 1e-6;

/// Tolerance of the `gmin` stamp read off `G`, in units of `ε` times the
/// row's scale: the two `G`s it subtracts round differently. Measured worst
/// case 1.9 over the same circuits.
const GMIN_ULPS: f64 = 8.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `G = ∂f/∂x + gmin·(junction stamps)` and `C = ∂q/∂x`, column by
    /// column, by central differences at three random states; a column whose
    /// stencil moves a nonlinear device onto another piece of its model is
    /// skipped. Without `gmin`, `f`, `q` and `C` keep their bits and `G`
    /// loses exactly the junction stamps. All evaluations share one set of
    /// buffers on one fixed pattern, and none allocates.
    #[test]
    fn g_and_c_are_the_jacobians_of_f_and_q(
        (nodes, specs, xs) in device_specs(),
        gmin_scale in 0.0f64..1.0,
    ) {
        let gmin = if gmin_scale < 0.2 { 0.0 } else { 1e-12 * gmin_scale };
        let Some(ckt) = build_circuit(nodes, &specs, gmin) else { return };
        let n = ckt.num_unknowns();
        let plan = ckt.compile_plan().unwrap();
        prop_assert_eq!(plan.num_unknowns(), n);
        let without_gmin = build_circuit(nodes, &specs, 0.0).unwrap().compile_plan().unwrap();
        let junctions = gmin_stamps(&ckt);
        let mut ws = plan.new_workspace();
        let [mut ev, mut plus, mut minus] = [(); 3].map(|_| plan.new_evaluation());
        let pattern = (ev.g.indptr().to_vec(), ev.g.indices().to_vec());

        // Every device is off at x = 0.
        plan.evaluate_into(&vec![0.0; n], &mut ws, &mut ev).unwrap();
        prop_assert!(ev.f.iter().chain(&ev.q).all(|&v| v == 0.0));

        for shift in 0..3usize {
            let x: Vec<f64> = (0..n).map(|i| xs[(i + 17 * shift) % xs.len()]).collect();
            let restamped = plan.evaluate_into(&x, &mut ws, &mut ev).unwrap();
            prop_assert_eq!(restamped, plan.nonlinear_stamp_count());
            let (g_scale, c_scale) = (g_scales(&ckt, &x), row_scales(&ev.c));

            // `gmin` enters `G` alone, as exactly the junction stamps.
            let bare = without_gmin.evaluate(&x).unwrap();
            prop_assert_eq!(bits(&bare.f), bits(&ev.f));
            prop_assert_eq!(bits(&bare.q), bits(&ev.q));
            prop_assert_eq!(&bare.c, &ev.c);
            for (i, row) in junctions.iter().enumerate() {
                for (j, &junction) in row.iter().enumerate() {
                    let stamp = ev.g.get(i, j) - bare.g.get(i, j);
                    prop_assert!(
                        (stamp - junction).abs() <= GMIN_ULPS * f64::EPSILON * g_scale[i],
                        "G({i},{j}) carries {stamp:e} of gmin, expected {junction:e}"
                    );
                }
            }

            let at = pieces(&ckt, &x);
            for j in 0..n {
                let (mut xp, mut xm) = (x.clone(), x.clone());
                xp[j] += STEP * x[j].abs().max(1.0);
                xm[j] -= STEP * x[j].abs().max(1.0);
                if pieces(&ckt, &xp) != at || pieces(&ckt, &xm) != at {
                    continue;
                }
                plan.evaluate_into(&xp, &mut ws, &mut plus).unwrap();
                plan.evaluate_into(&xm, &mut ws, &mut minus).unwrap();
                let dx = xp[j] - xm[j];
                for i in 0..n {
                    let df = (plus.f[i] - minus.f[i]) / dx;
                    let want = ev.g.get(i, j) - junctions[i][j];
                    prop_assert!(
                        (df - want).abs() <= TOL * g_scale[i],
                        "G({i},{j}) - gmin stamps = {want:e}, df/dx = {df:e}"
                    );
                    let dq = (plus.q[i] - minus.q[i]) / dx;
                    let want = ev.c.get(i, j);
                    prop_assert!(
                        (dq - want).abs() <= TOL * c_scale[i],
                        "C({i},{j}) = {want:e}, dq/dx = {dq:e}"
                    );
                }
            }
            for m in [&ev.g, &plus.g, &minus.g] {
                prop_assert_eq!(m.indptr(), &pattern.0[..]);
                prop_assert_eq!(m.indices(), &pattern.1[..]);
            }
        }
        // Pre-sized buffers: the whole exercise allocated nothing.
        prop_assert_eq!(ws.allocations(), 0);
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

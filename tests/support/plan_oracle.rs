//! The plan path against the COO value oracle
//! (`Circuit::evaluate_reference`), shared by `proptest_plan.rs` (random
//! circuits) and `integration_oracle.rs` (the generators).

use exi_netlist::{Circuit, Device, Evaluation, NodeId};

fn assert_bits_equal(what: &str, planned: &[f64], reference: &[f64]) {
    assert_eq!(planned.len(), reference.len(), "{what} length");
    for (k, (a, b)) in planned.iter().zip(reference).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{k}]: {a:e} vs {b:e}");
    }
}

/// Per row of `G`, how far two summation orders of one cell's stamps can
/// drift apart at state `x`: `k·ε·Σ|stamp|` over the row's `k` stamps (each
/// device counted as five stamps of its largest magnitude into every row it
/// touches — an over-count, which only loosens the bound).
fn reordering_bound(ckt: &Circuit, x: &[f64]) -> Vec<f64> {
    let v = |node: &NodeId| node.unknown().map_or(0.0, |i| x[i]);
    let mut sum = vec![0.0_f64; ckt.num_unknowns()];
    let mut count = vec![0.0_f64; ckt.num_unknowns()];
    for device in ckt.devices() {
        let (rows, magnitude) = match device {
            Device::Resistor {
                a, b, resistance, ..
            } => (vec![a.unknown(), b.unknown()], 1.0 / resistance),
            Device::Inductor { a, b, branch, .. } => (
                vec![a.unknown(), b.unknown(), Some(ckt.num_nodes() + branch)],
                1.0,
            ),
            Device::VoltageSource {
                pos, neg, branch, ..
            } => (
                vec![pos.unknown(), neg.unknown(), Some(ckt.num_nodes() + branch)],
                1.0,
            ),
            Device::Diode {
                anode,
                cathode,
                model,
                ..
            } => (
                vec![anode.unknown(), cathode.unknown()],
                model.evaluate(v(anode) - v(cathode)).conductance.abs() + ckt.gmin(),
            ),
            Device::Mosfet {
                drain,
                gate,
                source,
                model,
                ..
            } => {
                let op = model.evaluate(v(gate) - v(source), v(drain) - v(source));
                (
                    vec![drain.unknown(), source.unknown()],
                    op.gm.abs() + op.gds.abs() + ckt.gmin(),
                )
            }
            Device::Capacitor { .. } | Device::CurrentSource { .. } => continue,
        };
        for row in rows.into_iter().flatten() {
            sum[row] += 5.0 * magnitude;
            count[row] += 5.0;
        }
    }
    sum.iter()
        .zip(&count)
        .map(|(s, k)| k * f64::EPSILON * s)
        .collect()
}

/// Checks the plan's evaluation at `x` against the reference: `f`, `q` and
/// `C` bit for bit; `G` cell for cell — every reference cell is in the plan's
/// pattern and all cells agree to rounding. (The plan adds its nonlinear
/// stamps onto the precomputed constant sum, the reference sorts a row's raw
/// stamps, so a multi-stamp cell may sum in another order.) Returns the
/// values of the cells only the plan stores: the reference drops a cell whose
/// stamps are all `0.0`, or cancel exactly in its summation order.
pub fn assert_matches_reference(ckt: &Circuit, x: &[f64], planned: &Evaluation) -> Vec<f64> {
    let reference = ckt.evaluate_reference(x).unwrap();
    assert_bits_equal("f", &planned.f, &reference.f);
    assert_bits_equal("q", &planned.q, &reference.q);
    assert_eq!(planned.c.indptr(), reference.c.indptr(), "C indptr");
    assert_eq!(planned.c.indices(), reference.c.indices(), "C indices");
    assert_bits_equal("C value", planned.c.values(), reference.c.values());
    let mut structural_only = Vec::new();
    for (r, bound) in reordering_bound(ckt, x).into_iter().enumerate() {
        let (cols, vals) = planned.g.row(r);
        let (ref_cols, _) = reference.g.row(r);
        for c in ref_cols {
            assert!(cols.binary_search(c).is_ok(), "G({r},{c}) left the pattern");
        }
        for (&c, &v) in cols.iter().zip(vals) {
            let want = reference.g.get(r, c);
            assert!((v - want).abs() <= bound, "G({r},{c}): {v:e} vs {want:e}");
            if ref_cols.binary_search(&c).is_err() {
                structural_only.push(v);
            }
        }
    }
    structural_only
}

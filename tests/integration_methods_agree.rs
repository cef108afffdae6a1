//! Integration tests checking that the exponential methods agree with the
//! implicit baselines on nonlinear circuits, and that the paper's qualitative
//! claims about work counters hold.

use exi_netlist::generators::{inverter_chain, InverterChainSpec};
use exi_sim::{Method, Simulator, TransientOptions};

fn chain(stages: usize) -> exi_netlist::Circuit {
    inverter_chain(&InverterChainSpec {
        stages,
        ..InverterChainSpec::default()
    })
    .unwrap()
}

#[test]
fn er_and_erc_track_benr_on_a_switching_inverter_chain() {
    let stages = 3;
    let ckt = chain(stages);
    let observed = format!("s{stages}");
    let probes = [observed.as_str()];
    let options = TransientOptions {
        t_stop: 6e-10,
        h_init: 1e-12,
        h_max: 4e-12,
        error_budget: 5e-3,
        ..TransientOptions::default()
    };
    let mut sim = Simulator::new(&ckt);
    let benr = sim
        .transient(Method::BackwardEuler, &options, &probes)
        .unwrap();
    let p = benr.probe_index(&observed).unwrap();
    for method in [
        Method::ExponentialRosenbrock,
        Method::ExponentialRosenbrockCorrected,
    ] {
        let result = sim.transient(method, &options, &probes).unwrap();
        let err = result.max_error_vs(&benr, p);
        assert!(err < 0.15, "{method} deviates from BENR by {err} V");
        // The output must stay within (slightly padded) supply rails.
        for (_, v) in result.waveform(p) {
            assert!(v > -0.3 && v < 1.3, "{method}: unphysical voltage {v}");
        }
    }
}

#[test]
fn er_does_not_factorize_the_benr_matrix() {
    // The structural claim of the paper: BENR performs at least one LU of
    // C/h + G per Newton iteration, ER at most one LU of G per accepted step
    // (plus the shared DC solve) — none for a step that finds G unchanged.
    let ckt = chain(2);
    let options = TransientOptions {
        t_stop: 3e-10,
        h_init: 2e-12,
        h_max: 4e-12,
        error_budget: 5e-3,
        ..TransientOptions::default()
    };
    // Separate sessions so each method's counters include its own DC share
    // (the structural claim is about per-run factorization counts).
    let benr = Simulator::new(&ckt)
        .transient(Method::BackwardEuler, &options, &[])
        .unwrap();
    let er = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &options, &[])
        .unwrap();

    // BENR: more LU factorizations than accepted steps (NR iterations).
    assert!(benr.stats.lu_factorizations >= benr.stats.accepted_steps);
    assert!(benr.stats.avg_newton_iterations() >= 1.0);
    // ER: at most one LU per accepted step (+ DC Newton iterations), no transient NR.
    let dc_lus = er.stats.newton_iterations; // only the DC solve contributes
    assert!(
        er.stats.lu_factorizations <= er.stats.accepted_steps + dc_lus + 1,
        "ER performed {} LUs for {} steps",
        er.stats.lu_factorizations,
        er.stats.accepted_steps
    );
    // ER builds Krylov subspaces instead.
    assert!(er.stats.avg_krylov_dimension() > 1.0);
}

#[test]
fn erc_with_larger_steps_is_competitive_with_er() {
    // The paper's Fig. 2 claim: ER-C at 2x the step size still maintains
    // accuracy comparable to ER.
    let ckt = chain(2);
    let observed = "s2";
    let probes = [observed];
    let mut sim = Simulator::new(&ckt);
    let reference = sim
        .transient(
            Method::BackwardEuler,
            &TransientOptions {
                t_stop: 4e-10,
                h_init: 1e-13,
                h_max: 1e-13,
                error_budget: 1.0,
                ..TransientOptions::default()
            },
            &probes,
        )
        .unwrap();
    let p = reference.probe_index(observed).unwrap();

    let er_options = TransientOptions {
        t_stop: 4e-10,
        h_init: 2e-12,
        h_max: 2e-12,
        error_budget: 5e-2,
        ..TransientOptions::default()
    };
    let erc_options = TransientOptions {
        h_init: 4e-12,
        h_max: 4e-12,
        ..er_options.clone()
    };
    let er = sim
        .transient(Method::ExponentialRosenbrock, &er_options, &probes)
        .unwrap();
    let erc = sim
        .transient(
            Method::ExponentialRosenbrockCorrected,
            &erc_options,
            &probes,
        )
        .unwrap();
    let er_err = er.rms_error_vs(&reference, p);
    let erc_err = erc.rms_error_vs(&reference, p);
    assert!(er_err < 0.12, "er rms {er_err}");
    assert!(erc_err < 0.15, "erc rms {erc_err} (at twice the step size)");
    assert!(erc.stats.accepted_steps < er.stats.accepted_steps);
}

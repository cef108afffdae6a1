//! The workload table: which circuit, method and options each workload
//! runs, and how `--seed` turns into its inputs.
//!
//! The benchmark owns these definitions (it does not use `exi_bench::cases`)
//! so that later changes to the Table-I harness cannot move the baseline.

use exi_netlist::generators::{
    coupled_lines, power_grid, rc_mesh, CoupledLinesSpec, PowerGridSpec, RcMeshSpec,
};
use exi_netlist::Circuit;
use exi_sim::{Method, TransientOptions};

use crate::stats::SeedRng;

/// Relative size of the seeded perturbation of element values on the
/// single-run workloads. Large enough that every seed simulates a different
/// circuit bit for bit, small enough that the step sequence — and with it
/// the amount of work — stays put and one committed reference waveform
/// serves every seed (its error from the perturbation is ≤ 1e-6 of the
/// swing, three orders below the tightest tolerance).
pub const SEED_JITTER: f64 = 1e-6;

/// Linear scale applied to circuit dimensions by `--smoke`.
pub const SMOKE_SCALE: f64 = 0.3;

/// The circuit families the workloads draw from.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitKind {
    /// `coupled_lines` with MOSFET drivers: the Table-I analogue family.
    CoupledLines {
        lines: usize,
        segments: usize,
        coupling_capacitance: f64,
        random_couplings: usize,
        /// Seed of the generator itself (coupling placement, input skews).
        /// Fixed per workload: it selects *which* circuit is simulated, and
        /// other values change the step count by up to 2x or make BENR
        /// underflow its step size.
        generator_seed: u64,
    },
    /// Purely linear `rc_mesh`.
    RcMesh { rows: usize, cols: usize },
    /// Linear `power_grid` with pulsed current sinks.
    PowerGrid { rows: usize, cols: usize },
}

fn scale_dim(value: usize, scale: f64, floor: usize) -> usize {
    ((value as f64 * scale).round() as usize).max(floor)
}

impl CircuitKind {
    /// The same family at `scale` times the linear size.
    pub fn scaled(&self, scale: f64) -> CircuitKind {
        match *self {
            CircuitKind::CoupledLines {
                lines,
                segments,
                coupling_capacitance,
                random_couplings,
                generator_seed,
            } => CircuitKind::CoupledLines {
                lines: scale_dim(lines, scale, 2),
                segments: scale_dim(segments, scale, 4),
                coupling_capacitance,
                random_couplings: (random_couplings as f64 * scale) as usize,
                generator_seed,
            },
            CircuitKind::RcMesh { rows, cols } => CircuitKind::RcMesh {
                rows: scale_dim(rows, scale, 4),
                cols: scale_dim(cols, scale, 4),
            },
            CircuitKind::PowerGrid { rows, cols } => CircuitKind::PowerGrid {
                rows: scale_dim(rows, scale, 4),
                cols: scale_dim(cols, scale, 4),
            },
        }
    }

    /// Builds the circuit, drawing its seeded perturbation from `rng`.
    /// `amplitude` scales the drive (ramp amplitude or sink current) on the
    /// linear families and is ignored by `CoupledLines`.
    pub fn build(&self, rng: &mut SeedRng, amplitude: f64) -> Result<Circuit, String> {
        let built = match *self {
            CircuitKind::CoupledLines {
                lines,
                segments,
                coupling_capacitance,
                random_couplings,
                generator_seed,
            } => {
                let base = CoupledLinesSpec::default();
                coupled_lines(&CoupledLinesSpec {
                    lines,
                    segments,
                    segment_resistance: base.segment_resistance * rng.jitter(SEED_JITTER),
                    ground_capacitance: base.ground_capacitance * rng.jitter(SEED_JITTER),
                    coupling_capacitance,
                    random_couplings,
                    mosfet_drivers: true,
                    seed: generator_seed,
                    ..base
                })
            }
            CircuitKind::RcMesh { rows, cols } => {
                let base = RcMeshSpec::default();
                rc_mesh(&RcMeshSpec {
                    rows,
                    cols,
                    amplitude: base.amplitude * amplitude * rng.jitter(SEED_JITTER),
                    rise_time: base.rise_time * rng.jitter(SEED_JITTER),
                    ..base
                })
            }
            CircuitKind::PowerGrid { rows, cols } => {
                let base = PowerGridSpec::default();
                power_grid(&PowerGridSpec {
                    rows,
                    cols,
                    sink_current: base.sink_current * amplitude * rng.jitter(SEED_JITTER),
                    ..base
                })
            }
        };
        built.map_err(|e| e.to_string())
    }

    /// Eight node names spread over the structure; the seed records four.
    pub fn candidate_probes(&self) -> Vec<String> {
        let spread = |n: usize| [0, n / 3, (2 * n) / 3, n - 1];
        let mut names: Vec<String> = match *self {
            CircuitKind::CoupledLines {
                lines, segments, ..
            } => spread(lines)
                .iter()
                .flat_map(|&l| {
                    [
                        format!("l{l}_{}", segments / 2),
                        format!("l{l}_{}", segments - 1),
                    ]
                })
                .collect(),
            CircuitKind::RcMesh { rows, cols } => spread(rows)
                .iter()
                .flat_map(|&r| [format!("m_{r}_{}", cols / 2), format!("m_{r}_{}", cols - 1)])
                .collect(),
            CircuitKind::PowerGrid { rows, cols } => spread(rows)
                .iter()
                .flat_map(|&r| [format!("g_{r}_{}", cols / 2), format!("g_{r}_{}", cols - 1)])
                .collect(),
        };
        // Tiny (smoke-scale) structures repeat positions.
        names.sort();
        names.dedup();
        names
    }
}

/// Picks the four recorded probes for `seed` out of the candidates.
pub fn pick_probes(kind: &CircuitKind, rng: &mut SeedRng) -> Vec<String> {
    let mut candidates = kind.candidate_probes();
    rng.shuffle(&mut candidates);
    candidates.truncate(4);
    candidates
}

/// One single-run workload: one circuit, one transient.
#[derive(Debug, Clone)]
pub struct SingleSpec {
    pub name: &'static str,
    pub kind: CircuitKind,
    pub method: Method,
    pub options: TransientOptions,
    /// Timed transients per invocation: about twelve seconds' worth on the
    /// defining host. Fixed, like every repetition count here: `wall_s` and
    /// `setup_s` are built from fastest observations, which drift with the
    /// number of observations, so every commit must take the same number.
    pub repetitions: usize,
    /// Cold set-ups timed before each of those transients.
    pub setups_per_repetition: usize,
    /// File stem of the committed reference waveform under `refs/`.
    pub reference: &'static str,
    /// Largest accepted `sim.ref_err_rel`: the larger of 3x the deviation
    /// measured when the workload was defined and 1e-3.
    pub tolerance: f64,
}

/// The paper's Table-I step control (`exi_bench::runner::table1_options`
/// at the time the benchmark was defined).
fn table1_options(t_stop: f64) -> TransientOptions {
    TransientOptions {
        t_stop,
        h_init: 1e-12,
        h_max: 2e-11,
        h_min: 1e-16,
        error_budget: 2e-3,
        krylov_tolerance: 1e-7,
        ..TransientOptions::default()
    }
}

const SPARSE_DRIVERS: CircuitKind = CircuitKind::CoupledLines {
    lines: 16,
    segments: 30,
    coupling_capacitance: 0.0,
    random_couplings: 0,
    generator_seed: 102,
};

/// The four single-run workloads, by name.
pub fn single_spec(name: &str) -> Option<SingleSpec> {
    let spec = match name {
        // tc6 analogue. All lines switch inside [0.1, 0.32] ns and the run
        // spends ~95 % of its time there, so the window stops at 0.2 ns:
        // the same per-step work (short vectors, m ≈ 28) in a third of the
        // time, which buys the repetitions a steady median needs.
        "er_dense_coupling" => SingleSpec {
            name: "er_dense_coupling",
            kind: CircuitKind::CoupledLines {
                lines: 10,
                segments: 20,
                coupling_capacitance: 2e-15,
                random_couplings: 1500,
                generator_seed: 106,
            },
            method: Method::ExponentialRosenbrock,
            options: table1_options(0.2e-9),
            repetitions: 6,
            setups_per_repetition: 9,
            reference: "dense_coupling",
            tolerance: 4.1e-3,
        },
        // tc2 analogue over the rising edges (the falling edges after 1.1 ns
        // repeat the same work).
        "er_sparse_drivers" => SingleSpec {
            name: "er_sparse_drivers",
            kind: SPARSE_DRIVERS,
            method: Method::ExponentialRosenbrock,
            options: table1_options(1e-9),
            repetitions: 8,
            setups_per_repetition: 7,
            reference: "sparse_drivers",
            tolerance: 1.4e-3,
        },
        "benr_sparse_drivers" => SingleSpec {
            name: "benr_sparse_drivers",
            kind: SPARSE_DRIVERS,
            method: Method::BackwardEuler,
            options: table1_options(1e-9),
            repetitions: 10,
            setups_per_repetition: 5,
            reference: "sparse_drivers",
            tolerance: 1e-3,
        },
        "er_large_mesh" => SingleSpec {
            name: "er_large_mesh",
            kind: CircuitKind::RcMesh {
                rows: 100,
                cols: 100,
            },
            method: Method::ExponentialRosenbrock,
            options: TransientOptions {
                t_stop: 0.12e-9,
                h_init: 1e-12,
                h_max: 2e-11,
                error_budget: 1e-3,
                ..TransientOptions::default()
            },
            repetitions: 8,
            setups_per_repetition: 2,
            reference: "large_mesh",
            tolerance: 1e-3,
        },
        _ => return None,
    };
    Some(spec)
}

/// The inputs of one single-run invocation.
#[derive(Debug)]
pub struct SingleInputs {
    pub kind: CircuitKind,
    pub options: TransientOptions,
    pub probes: Vec<String>,
    /// Stream the seeded element jitter is drawn from; rebuilding with a
    /// fresh `SeedRng::new(seed, JITTER_STREAM)` gives the same circuit.
    pub seed: u64,
}

/// Stream ids of the seeded generator's use sites.
pub const JITTER_STREAM: u64 = 1;
pub const PROBE_STREAM: u64 = 2;
pub const CORNER_STREAM: u64 = 3;
pub const REQUEST_STREAM: u64 = 4;

impl SingleInputs {
    pub fn new(spec: &SingleSpec, seed: u64, smoke: bool) -> Self {
        let kind = if smoke {
            spec.kind.scaled(SMOKE_SCALE)
        } else {
            spec.kind.clone()
        };
        let probes = pick_probes(&kind, &mut SeedRng::new(seed, PROBE_STREAM));
        SingleInputs {
            kind,
            options: spec.options.clone(),
            probes,
            seed,
        }
    }

    pub fn build(&self) -> Result<Circuit, String> {
        self.kind
            .build(&mut SeedRng::new(self.seed, JITTER_STREAM), 1.0)
    }
}

/// One corner of the sweep workload.
#[derive(Debug, Clone)]
pub struct Corner {
    pub label: String,
    pub amplitude: f64,
    pub options: TransientOptions,
}

/// `sweep_corners`: same-fingerprint `rc_mesh` corners.
pub const SWEEP_KIND: CircuitKind = CircuitKind::RcMesh { rows: 40, cols: 40 };
pub const SWEEP_CORNERS: usize = 24;
pub const SWEEP_WORKERS: usize = 2;
pub const SWEEP_BATCHES: usize = 11;
/// Plan builds (the workload's set-up) timed before each batch.
pub const SWEEP_BUILDS_PER_BATCH: usize = 4;

/// The corner list for `seed`. The multiset of (t_stop, error budget) pairs
/// is the same for every seed, so every seed simulates the same number of
/// steps; the seed draws each corner's ramp amplitude and the submission
/// order.
pub fn sweep_corners(seed: u64, smoke: bool) -> Vec<Corner> {
    let count = if smoke { 6 } else { SWEEP_CORNERS };
    let mut rng = SeedRng::new(seed, CORNER_STREAM);
    let mut corners: Vec<Corner> = (0..count)
        .map(|k| {
            let spread = (k % 12) as f64;
            Corner {
                label: String::new(),
                amplitude: rng.range(0.8, 1.2),
                options: TransientOptions {
                    t_stop: 3e-10 + spread * 1e-11,
                    h_init: 1e-12,
                    h_max: 2e-11,
                    error_budget: 1e-3 / (1.0 + spread * 0.2),
                    ..TransientOptions::default()
                },
            }
        })
        .collect();
    rng.shuffle(&mut corners);
    for (k, corner) in corners.iter_mut().enumerate() {
        corner.label = format!("corner{k}");
    }
    corners
}

/// `serve_burst`: the deck family and burst shape.
pub const SERVE_KIND: CircuitKind = CircuitKind::PowerGrid { rows: 16, cols: 16 };
pub const SERVE_CONNECTIONS: usize = 2;
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_REQUESTS_PER_CONNECTION: usize = 10;
pub const SERVE_BURSTS: usize = 14;
pub const SERVE_T_STOP: f64 = 2e-9;
/// Step ceiling of the deck's `.tran` card: ~250 waveform rows per request,
/// four 64-row chunks, so the first chunk arrives well before `done`.
pub const SERVE_H_MAX: f64 = 8e-12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_bits() {
        let spec = single_spec("er_sparse_drivers").unwrap();
        let a = SingleInputs::new(&spec, 5, true);
        let b = SingleInputs::new(&spec, 5, true);
        let c = SingleInputs::new(&spec, 6, true);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.probes.len(), 4);
        let fa = exi_netlist::circuit_fingerprint(&a.build().unwrap());
        assert_eq!(fa, exi_netlist::circuit_fingerprint(&b.build().unwrap()));
        assert_ne!(fa, exi_netlist::circuit_fingerprint(&c.build().unwrap()));
        for probe in &a.probes {
            assert!(a.build().unwrap().unknown_of(probe).is_some(), "{probe}");
        }
    }

    #[test]
    fn every_seed_sweeps_the_same_multiset_of_step_controls() {
        let key = |seed| {
            let mut v: Vec<u64> = sweep_corners(seed, false)
                .iter()
                .map(|c| c.options.t_stop.to_bits())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(1), key(99));
        assert_eq!(sweep_corners(1, false).len(), SWEEP_CORNERS);
        let order = |seed| -> Vec<u64> {
            sweep_corners(seed, false)
                .iter()
                .map(|c| c.options.t_stop.to_bits())
                .collect()
        };
        assert_ne!(order(1), order(99));
    }

    #[test]
    fn all_workload_families_build_at_smoke_scale() {
        for kind in [
            single_spec("er_dense_coupling").unwrap().kind,
            single_spec("er_large_mesh").unwrap().kind,
            SWEEP_KIND,
            SERVE_KIND,
        ] {
            let small = kind.scaled(SMOKE_SCALE);
            let circuit = small
                .build(&mut SeedRng::new(1, JITTER_STREAM), 1.0)
                .unwrap();
            for probe in small.candidate_probes() {
                assert!(circuit.unknown_of(&probe).is_some(), "{probe}");
            }
        }
    }
}

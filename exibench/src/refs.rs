//! The accuracy oracle: reference waveforms that do not come from the method
//! under test.
//!
//! A reference is a trapezoidal (TRNR) run with the step ceiling at
//! a tenth of the workload's `h_max`, recorded on every candidate probe and resampled onto a
//! uniform 1 ps grid; a run is compared against it at its own accepted
//! time points. The trapezoidal engine's own error control stalls
//! at source corners when its budget is tightened (step-size underflow on
//! the MOSFET-driven cases), so the reference keeps that budget loose and
//! lets the ceiling set the step; halving the ceiling twice more moves the
//! waveforms by < 2e-6 of the swing on the coupled-line cases.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use exi_netlist::Circuit;
use exi_sim::{Method, Simulator, TransientOptions, TransientResult};

/// Spacing of the stored reference samples: a twentieth of the fastest
/// source edge in any workload (20 ps), so linear interpolation between
/// samples stays well below the tolerances.
pub const GRID_SPACING: f64 = 1e-12;

/// The reference's step ceiling is the workload's `h_max` over this.
const STEP_CEILING_DIVISOR: f64 = 10.0;

/// A reference waveform on the uniform grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub grid: Vec<f64>,
    pub labels: Vec<String>,
    /// `values[p][k]`: probe `p` at `grid[k]`.
    pub values: Vec<Vec<f64>>,
}

fn grid(t_stop: f64) -> Vec<f64> {
    let cells = (t_stop / GRID_SPACING).round().max(1.0) as usize;
    (0..=cells)
        .map(|k| t_stop * k as f64 / cells as f64)
        .collect()
}

impl Reference {
    /// Runs the reference simulation for `circuit`.
    pub fn compute(
        circuit: &Circuit,
        options: &TransientOptions,
        labels: &[String],
    ) -> Result<Reference, String> {
        let h_max = options.h_max / STEP_CEILING_DIVISOR;
        let reference_options = TransientOptions {
            h_max,
            h_init: options.h_init.min(h_max),
            error_budget: 5e-2,
            ..options.clone()
        };
        let names: Vec<&str> = labels.iter().map(String::as_str).collect();
        let result = Simulator::new(circuit)
            .transient(Method::Trapezoidal, &reference_options, &names)
            .map_err(|e| format!("reference run failed: {e}"))?;
        let grid = grid(options.t_stop);
        let values = (0..labels.len())
            .map(|p| grid.iter().map(|&t| result.sample_at(p, t)).collect())
            .collect();
        Ok(Reference {
            grid,
            labels: labels.to_vec(),
            values,
        })
    }

    /// The reference value of column `column` at time `t`, interpolated on
    /// the uniform grid.
    fn value_at(&self, column: usize, t: f64) -> f64 {
        let values = &self.values[column];
        let last = self.grid.len() - 1;
        let spacing = self.grid[last] / last as f64;
        let position = (t / spacing).clamp(0.0, last as f64);
        let k = (position.floor() as usize).min(last - 1);
        values[k] + (values[k + 1] - values[k]) * (position - k as f64)
    }

    /// Largest deviation of `result` from the reference over its accepted
    /// time points and the probes both record, relative to the reference's
    /// largest swing.
    ///
    /// The comparison happens at the run's own time points: the reference is
    /// smooth at grid resolution, whereas an exponential integrator's
    /// accepted points can lie 20 grid cells apart, and interpolating *them*
    /// onto the grid would measure the output spacing, not the solver.
    pub fn deviation(&self, result: &TransientResult) -> Result<f64, String> {
        let mut worst = 0.0_f64;
        let mut swing = 0.0_f64;
        let mut compared = 0usize;
        for (p, probe) in result.probes.iter().enumerate() {
            let Some(column) = self.labels.iter().position(|l| *l == probe.label) else {
                continue;
            };
            compared += 1;
            let (lo, hi) = self.values[column]
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            swing = swing.max(hi - lo);
            for (t, row) in result.times.iter().zip(&result.samples) {
                worst = worst.max((row[p] - self.value_at(column, *t)).abs());
            }
        }
        if compared == 0 {
            return Err("no recorded probe has a reference column".to_string());
        }
        if swing.is_nan() || swing <= 0.0 || !worst.is_finite() {
            return Err(format!(
                "degenerate comparison: swing {swing}, deviation {worst}"
            ));
        }
        Ok(worst / swing)
    }

    /// Serializes as CSV (`time,<labels…>`), 11 significant digits: eight
    /// orders below the tightest tolerance at a third of the file size.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time");
        for label in &self.labels {
            write!(out, ",{label}").unwrap();
        }
        out.push('\n');
        for (k, t) in self.grid.iter().enumerate() {
            write!(out, "{t:.10e}").unwrap();
            for column in &self.values {
                write!(out, ",{:.10e}", column[k]).unwrap();
            }
            out.push('\n');
        }
        out
    }

    pub fn from_csv(text: &str) -> Result<Reference, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty reference file")?;
        let mut columns = header.split(',');
        if columns.next() != Some("time") {
            return Err("reference header must start with 'time'".to_string());
        }
        let labels: Vec<String> = columns.map(str::to_string).collect();
        let mut grid = Vec::new();
        let mut values = vec![Vec::new(); labels.len()];
        for (row, line) in lines.enumerate() {
            let cells: Result<Vec<f64>, _> = line.split(',').map(str::parse::<f64>).collect();
            let cells = cells.map_err(|e| format!("reference row {row}: {e}"))?;
            if cells.len() != labels.len() + 1 {
                return Err(format!("reference row {row}: wrong column count"));
            }
            grid.push(cells[0]);
            for (column, v) in values.iter_mut().zip(&cells[1..]) {
                column.push(*v);
            }
        }
        if grid.is_empty() {
            return Err("reference file has no rows".to_string());
        }
        Ok(Reference {
            grid,
            labels,
            values,
        })
    }
}

/// Where the committed references live: `exibench/refs` under the current
/// directory (the benchmark runs from the checkout root), else next to the
/// package sources as they were at build time.
pub fn refs_dir() -> PathBuf {
    let local = Path::new("exibench/refs");
    if local.is_dir() {
        local.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("refs")
    }
}

pub fn load(stem: &str) -> Result<Reference, String> {
    let path = refs_dir().join(format!("{stem}.csv"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
    Reference::from_csv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exi_netlist::Waveform;

    fn rc() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "Vin",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-13).unwrap();
        ckt
    }

    #[test]
    fn reference_round_trips_and_scores_an_er_run() {
        let ckt = rc();
        let options = TransientOptions::new(1e-9, 1e-12);
        let labels = vec!["out".to_string(), "in".to_string()];
        let reference = Reference::compute(&ckt, &options, &labels).unwrap();
        assert_eq!(reference.grid.len(), 1001);
        let back = Reference::from_csv(&reference.to_csv()).unwrap();
        assert_eq!(back.labels, reference.labels);
        for (a, b) in back
            .values
            .iter()
            .flatten()
            .zip(reference.values.iter().flatten())
        {
            assert!((a - b).abs() <= 1e-10 * b.abs().max(1.0));
        }

        let er = Simulator::new(&ckt)
            .transient(Method::ExponentialRosenbrock, &options, &["out"])
            .unwrap();
        let dev = reference.deviation(&er).unwrap();
        assert!(dev > 0.0 && dev < 2e-2, "deviation {dev}");

        let unknown = Simulator::new(&ckt)
            .transient(Method::ExponentialRosenbrock, &options, &[])
            .unwrap();
        assert!(reference.deviation(&unknown).is_err());
        assert!(Reference::from_csv("t,a\n").is_err());
        assert!(Reference::from_csv("time,a\n0,1,2\n").is_err());
    }
}

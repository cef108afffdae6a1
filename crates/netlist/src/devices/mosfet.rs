//! Level-1 (Shichman–Hodges) MOSFET model.
//!
//! Stands in for the BSIM3 evaluation used in the paper (see DESIGN.md for
//! the substitution rationale): quadratic/linear I–V with channel-length
//! modulation, symmetric drain/source swapping, and constant gate overlap
//! capacitances that couple the gate to drain and source.

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosfetPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Parameters of a level-1 MOSFET.
#[derive(Debug, Clone, PartialEq)]
pub struct MosfetModel {
    /// Channel polarity.
    pub polarity: MosfetPolarity,
    /// Threshold voltage (positive for NMOS, negative for PMOS).
    pub threshold: f64,
    /// Process transconductance `k' = µ·C_ox` in A/V².
    pub transconductance: f64,
    /// Channel-length modulation coefficient λ in 1/V.
    pub lambda: f64,
    /// Channel width in meters.
    pub width: f64,
    /// Channel length in meters.
    pub length: f64,
    /// Gate-source overlap capacitance in farads.
    pub cgs: f64,
    /// Gate-drain overlap capacitance in farads.
    pub cgd: f64,
}

impl MosfetModel {
    /// A representative NMOS device for a generic 65 nm-class process.
    pub fn nmos() -> Self {
        MosfetModel {
            polarity: MosfetPolarity::Nmos,
            threshold: 0.4,
            transconductance: 2.0e-4,
            lambda: 0.05,
            width: 1.0e-6,
            length: 1.0e-7,
            cgs: 0.5e-15,
            cgd: 0.3e-15,
        }
    }

    /// A representative PMOS device (mobility roughly half of NMOS).
    pub fn pmos() -> Self {
        MosfetModel {
            polarity: MosfetPolarity::Pmos,
            threshold: -0.4,
            transconductance: 1.0e-4,
            lambda: 0.05,
            width: 2.0e-6,
            length: 1.0e-7,
            cgs: 1.0e-15,
            cgd: 0.6e-15,
        }
    }

    /// Returns a copy with the channel width scaled by `factor` (current and
    /// capacitances scale proportionally).
    pub fn scaled_width(&self, factor: f64) -> Self {
        MosfetModel {
            width: self.width * factor,
            cgs: self.cgs * factor,
            cgd: self.cgd * factor,
            ..self.clone()
        }
    }

    /// Device gain factor `β = k'·W/L`.
    pub fn beta(&self) -> f64 {
        self.transconductance * self.width / self.length
    }

    /// Evaluates the drain current and its derivatives at the given terminal
    /// voltages (`vgs = V_G - V_S`, `vds = V_D - V_S`).
    ///
    /// The returned quantities follow SPICE conventions: `ids` is the current
    /// flowing from drain to source (negative for PMOS in normal operation),
    /// `gm = ∂ids/∂vgs`, `gds = ∂ids/∂vds`.
    ///
    /// # Examples
    ///
    /// ```
    /// use exi_netlist::MosfetModel;
    ///
    /// let m = MosfetModel::nmos();
    /// let off = m.evaluate(0.0, 1.0);
    /// assert_eq!(off.ids, 0.0);
    /// let on = m.evaluate(1.0, 1.0);
    /// assert!(on.ids > 0.0);
    /// ```
    pub fn evaluate(&self, vgs: f64, vds: f64) -> MosfetOperatingPoint {
        match self.polarity {
            MosfetPolarity::Nmos => self.evaluate_nchannel(vgs, vds, self.threshold),
            MosfetPolarity::Pmos => {
                // A PMOS is an N-channel device with all voltages (and the
                // current) negated.
                let op = self.evaluate_nchannel(-vgs, -vds, -self.threshold);
                MosfetOperatingPoint {
                    ids: -op.ids,
                    gm: op.gm,
                    gds: op.gds,
                }
            }
        }
    }

    fn evaluate_nchannel(&self, vgs: f64, vds: f64, vth: f64) -> MosfetOperatingPoint {
        // Symmetric device: for vds < 0 exchange drain and source.
        if vds < 0.0 {
            let op = self.forward_nchannel(vgs - vds, -vds, vth);
            // With swapped terminals: ids' = -ids, and derivatives transform as
            //   gm(vgs)  = d(-ids')/dvgs   = -gm'
            //   gds(vds) = d(-ids')/dvds   = gm' + gds'
            return MosfetOperatingPoint {
                ids: -op.ids,
                gm: -op.gm,
                gds: op.gm + op.gds,
            };
        }
        self.forward_nchannel(vgs, vds, vth)
    }

    fn forward_nchannel(&self, vgs: f64, vds: f64, vth: f64) -> MosfetOperatingPoint {
        let beta = self.beta();
        let vov = vgs - vth;
        if vov <= 0.0 {
            // Cut-off.
            return MosfetOperatingPoint {
                ids: 0.0,
                gm: 0.0,
                gds: 0.0,
            };
        }
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            // Triode / linear region.
            let ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
            let gm = beta * vds * clm;
            let gds = beta * ((vov - vds) * clm + (vov * vds - 0.5 * vds * vds) * self.lambda);
            MosfetOperatingPoint { ids, gm, gds }
        } else {
            // Saturation.
            let ids = 0.5 * beta * vov * vov * clm;
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * self.lambda;
            MosfetOperatingPoint { ids, gm, gds }
        }
    }
}

/// Drain current and small-signal derivatives of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosfetOperatingPoint {
    /// Drain-to-source current.
    pub ids: f64,
    /// Transconductance `∂ids/∂vgs`.
    pub gm: f64,
    /// Output conductance `∂ids/∂vds`.
    pub gds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_linear_saturation_regions() {
        let m = MosfetModel::nmos();
        assert_eq!(m.evaluate(0.2, 1.0).ids, 0.0);
        let lin = m.evaluate(1.0, 0.1);
        let sat = m.evaluate(1.0, 1.0);
        assert!(lin.ids > 0.0 && sat.ids > lin.ids);
        // Saturation current roughly beta/2*vov^2.
        let expected = 0.5 * m.beta() * 0.6 * 0.6 * (1.0 + 0.05);
        assert!((sat.ids - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = MosfetModel::pmos();
        // PMOS conducting: vgs = -1.0, vds = -1.0; current should be negative
        // (drain-to-source current flows "backwards").
        let op = p.evaluate(-1.0, -1.0);
        assert!(op.ids < 0.0);
        assert!(op.gm > 0.0);
        // Off when vgs = 0.
        assert_eq!(p.evaluate(0.0, -1.0).ids, 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let devices = [MosfetModel::nmos(), MosfetModel::pmos()];
        let points = [
            (0.9, 0.05),
            (0.9, 1.2),
            (0.45, 0.3),
            (-0.9, -0.05),
            (-0.9, -1.2),
            (0.7, -0.4),
            (-0.7, 0.4),
        ];
        let dv = 1e-7;
        for m in &devices {
            for &(vgs, vds) in &points {
                let op = m.evaluate(vgs, vds);
                let gm_fd =
                    (m.evaluate(vgs + dv, vds).ids - m.evaluate(vgs - dv, vds).ids) / (2.0 * dv);
                let gds_fd =
                    (m.evaluate(vgs, vds + dv).ids - m.evaluate(vgs, vds - dv).ids) / (2.0 * dv);
                let scale = m.beta().max(1e-12);
                assert!(
                    (op.gm - gm_fd).abs() / scale < 1e-5,
                    "{:?} gm at ({vgs},{vds}): {} vs {}",
                    m.polarity,
                    op.gm,
                    gm_fd
                );
                assert!(
                    (op.gds - gds_fd).abs() / scale < 1e-5,
                    "{:?} gds at ({vgs},{vds}): {} vs {}",
                    m.polarity,
                    op.gds,
                    gds_fd
                );
            }
        }
    }

    #[test]
    fn current_is_continuous_across_region_boundaries() {
        let m = MosfetModel::nmos();
        let vgs = 1.0;
        let vov = vgs - m.threshold;
        let eps = 1e-9;
        let below = m.evaluate(vgs, vov - eps).ids;
        let above = m.evaluate(vgs, vov + eps).ids;
        assert!((below - above).abs() < 1e-9 * m.beta());
        // Across vds = 0.
        let neg = m.evaluate(vgs, -eps).ids;
        let pos = m.evaluate(vgs, eps).ids;
        // The current itself is O(beta * vov * eps) on both sides of zero.
        assert!((neg - pos).abs() < 3.0 * eps * m.beta());
        assert!(neg <= 0.0 && pos >= 0.0);
    }

    #[test]
    fn width_scaling_scales_current_and_caps() {
        let m = MosfetModel::nmos();
        let m4 = m.scaled_width(4.0);
        assert!((m4.evaluate(1.0, 1.0).ids / m.evaluate(1.0, 1.0).ids - 4.0).abs() < 1e-12);
        assert_eq!(m4.cgs, 4.0 * m.cgs);
    }
}

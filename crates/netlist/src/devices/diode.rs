//! Junction diode model (exponential Shockley equation with high-bias
//! linearization).
//!
//! The paper evaluates its devices with BSIM3; this reproduction substitutes
//! compact first-order models (see DESIGN.md). What matters for the
//! integrators is that the device supplies a current `i(v)`, a conductance
//! `di/dv` and a charge `q(v)` with the same exponential stiffness character.

/// Parameters of a junction diode.
#[derive(Debug, Clone, PartialEq)]
pub struct DiodeModel {
    /// Saturation current `I_S` in amperes.
    pub saturation_current: f64,
    /// Emission coefficient `n`.
    pub emission_coefficient: f64,
    /// Thermal voltage `V_T` in volts (kT/q at 300 K by default).
    pub thermal_voltage: f64,
    /// Constant junction capacitance in farads.
    pub junction_capacitance: f64,
}

impl Default for DiodeModel {
    fn default() -> Self {
        DiodeModel {
            saturation_current: 1e-14,
            emission_coefficient: 1.0,
            thermal_voltage: 0.025852,
            junction_capacitance: 1e-15,
        }
    }
}

/// Operating point of a diode at a given junction voltage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiodeOperatingPoint {
    /// Diode current from anode to cathode.
    pub current: f64,
    /// Small-signal conductance `di/dv`.
    pub conductance: f64,
}

/// Voltage (in units of `n·V_T`) above which the exponential is linearized to
/// avoid overflow, mirroring the classic SPICE treatment.
const EXP_LIMIT: f64 = 40.0;

impl DiodeModel {
    /// Evaluates current and conductance at junction voltage `vd`.
    ///
    /// # Examples
    ///
    /// ```
    /// use exi_netlist::DiodeModel;
    ///
    /// let d = DiodeModel::default();
    /// let op = d.evaluate(0.0);
    /// assert_eq!(op.current, 0.0);
    /// assert!(d.evaluate(0.7).current > 1e-3); // forward biased
    /// assert!(d.evaluate(-1.0).current < 0.0); // reverse saturation
    /// ```
    pub fn evaluate(&self, vd: f64) -> DiodeOperatingPoint {
        let nvt = self.emission_coefficient * self.thermal_voltage;
        let x = vd / nvt;
        if x > EXP_LIMIT {
            // Linear extension beyond the limit keeps Newton iterations finite.
            let e = EXP_LIMIT.exp();
            let current = self.saturation_current * (e * (1.0 + (x - EXP_LIMIT)) - 1.0);
            let conductance = self.saturation_current * e / nvt;
            DiodeOperatingPoint {
                current,
                conductance,
            }
        } else {
            let e = x.exp();
            DiodeOperatingPoint {
                current: self.saturation_current * (e - 1.0),
                conductance: self.saturation_current * e / nvt,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bias_has_zero_current() {
        let d = DiodeModel::default();
        let op = d.evaluate(0.0);
        assert_eq!(op.current, 0.0);
        assert!(op.conductance > 0.0);
    }

    #[test]
    fn reverse_bias_saturates() {
        let d = DiodeModel::default();
        let op = d.evaluate(-5.0);
        assert!((op.current + d.saturation_current).abs() < 1e-20);
        assert!(op.conductance >= 0.0);
    }

    #[test]
    fn conductance_matches_finite_difference() {
        let d = DiodeModel::default();
        for &vd in &[-0.5, 0.0, 0.3, 0.6, 0.75] {
            let dv = 1e-7;
            let fd = (d.evaluate(vd + dv).current - d.evaluate(vd - dv).current) / (2.0 * dv);
            let an = d.evaluate(vd).conductance;
            let scale = an.abs().max(1e-12);
            assert!((fd - an).abs() / scale < 1e-4, "vd = {vd}: {fd} vs {an}");
        }
    }

    #[test]
    fn high_bias_does_not_overflow_and_stays_monotone() {
        let d = DiodeModel::default();
        let a = d.evaluate(2.0);
        let b = d.evaluate(5.0);
        assert!(a.current.is_finite() && b.current.is_finite());
        assert!(b.current > a.current);
        assert!(b.conductance > 0.0);
    }
}

//! Independent-source waveforms.
//!
//! The ER formulation assumes piecewise-linear excitations within a step
//! (paper Eq. 13), so every waveform here is evaluated point-wise and the
//! integrators sample it at `t_k` and `t_{k+1}`. [`Waveform::breakpoints`]
//! exposes the corner times so the transient driver can align steps with
//! input edges — the same trick every SPICE uses to avoid smearing sharp
//! pulses.

/// A time-dependent source value.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Periodic trapezoidal pulse, the workhorse of digital stimuli.
    Pulse {
        /// Initial (low) value.
        v1: f64,
        /// Pulsed (high) value.
        v2: f64,
        /// Delay before the first rising edge.
        delay: f64,
        /// Rise time (0 is replaced by a 1 ps minimum).
        rise: f64,
        /// Fall time (0 is replaced by a 1 ps minimum).
        fall: f64,
        /// Pulse width (time spent at `v2`).
        width: f64,
        /// Period of repetition; `f64::INFINITY` for a single pulse.
        period: f64,
    },
    /// Piece-wise linear waveform given as `(time, value)` corner points.
    Pwl(Vec<(f64, f64)>),
    /// Damped sinusoid `offset + amplitude * sin(2π f (t - delay)) * e^{-damping (t-delay)}`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        amplitude: f64,
        /// Frequency in Hz.
        frequency: f64,
        /// Start delay.
        delay: f64,
        /// Damping factor in 1/s.
        damping: f64,
    },
}

impl Default for Waveform {
    fn default() -> Self {
        Waveform::Dc(0.0)
    }
}

/// Minimum rise/fall time substituted for zero to keep waveforms piecewise
/// linear with finite slope (1 ps).
const MIN_EDGE: f64 = 1e-12;

impl Waveform {
    /// Evaluates the waveform at time `t`.
    ///
    /// # Examples
    ///
    /// ```
    /// use exi_netlist::Waveform;
    ///
    /// let w = Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]);
    /// assert_eq!(w.value(0.5e-9), 0.5);
    /// assert_eq!(w.value(2e-9), 1.0);
    /// ```
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let rise = rise.max(MIN_EDGE);
                let fall = fall.max(MIN_EDGE);
                let mut tau = t - delay;
                if period.is_finite() && *period > 0.0 {
                    tau %= period;
                }
                if tau < rise {
                    v1 + (v2 - v1) * tau / rise
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    v2 + (v1 - v2) * (tau - rise - width) / fall
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if t1 <= t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().map(|&(_, v)| v).unwrap_or(0.0)
            }
            Waveform::Sine {
                offset,
                amplitude,
                frequency,
                delay,
                damping,
            } => {
                if t < *delay {
                    *offset
                } else {
                    let tau = t - delay;
                    offset
                        + amplitude
                            * (2.0 * std::f64::consts::PI * frequency * tau).sin()
                            * (-damping * tau).exp()
                }
            }
        }
    }

    /// Times at which the waveform has a slope discontinuity within `[0, t_end]`.
    ///
    /// The transient engines clamp their step size so they never step across a
    /// breakpoint, which keeps the piecewise-linear assumption of Eq. (13)
    /// exact.
    pub fn breakpoints(&self, t_end: f64) -> Vec<f64> {
        let mut out = Vec::new();
        match self {
            Waveform::Dc(_) => {}
            Waveform::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let rise = rise.max(MIN_EDGE);
                let fall = fall.max(MIN_EDGE);
                let cycle = [0.0, rise, rise + width, rise + width + fall];
                let mut base = *delay;
                loop {
                    for c in cycle {
                        let t = base + c;
                        if t <= t_end {
                            out.push(t);
                        }
                    }
                    if !(period.is_finite() && *period > 0.0) {
                        break;
                    }
                    base += period;
                    if base > t_end {
                        break;
                    }
                }
            }
            Waveform::Pwl(points) => {
                out.extend(
                    points
                        .iter()
                        .map(|&(t, _)| t)
                        .filter(|&t| t >= 0.0 && t <= t_end),
                );
            }
            // A sinusoid is smooth: only its start is a breakpoint.
            Waveform::Sine { delay, .. } => {
                if *delay > 0.0 && *delay <= t_end {
                    out.push(*delay);
                }
            }
        }
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        out.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
        out
    }

    /// At least as many as [`Waveform::breakpoints`] lists up to `t_end`,
    /// counted without building the list: a pulse counts four corners for
    /// every period that starts by `t_end`, and a periodic pulse with no end
    /// in sight counts `usize::MAX`.
    pub fn breakpoint_count(&self, t_end: f64) -> usize {
        match self {
            Waveform::Dc(_) => 0,
            Waveform::Pulse { delay, period, .. } => {
                if t_end < *delay {
                    0
                } else if period.is_finite() && *period > 0.0 {
                    // A float-to-integer cast saturates: +∞ is usize::MAX.
                    (4.0 * (((t_end - delay) / period).floor() + 1.0)) as usize
                } else {
                    4
                }
            }
            Waveform::Pwl(points) => points
                .iter()
                .filter(|&&(t, _)| t >= 0.0 && t <= t_end)
                .count(),
            Waveform::Sine { delay, .. } => usize::from(*delay > 0.0 && *delay <= t_end),
        }
    }

    /// Whether the waveform is linear in `t` between consecutive
    /// [`Waveform::breakpoints`] — everything but the sinusoid. On such a
    /// piece `u(t + h) − u(t)` is proportional to `h` whatever `t` is, which
    /// the ER engine uses to rescale its input term instead of recomputing it.
    pub fn is_piecewise_linear(&self) -> bool {
        !matches!(self, Waveform::Sine { .. })
    }

    /// Convenience constructor for a single (non-repeating) pulse.
    pub fn single_pulse(v1: f64, v2: f64, delay: f64, rise: f64, fall: f64, width: f64) -> Self {
        Waveform::Pulse {
            v1,
            v2,
            delay,
            rise,
            fall,
            width,
            period: f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(1.8);
        assert_eq!(w.value(0.0), 1.8);
        assert_eq!(w.value(1.0), 1.8);
        assert!(w.breakpoints(1.0).is_empty());
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 1e-9,
            period: f64::INFINITY,
        };
        assert_eq!(w.value(0.0), 0.0);
        assert!((w.value(1.05e-9) - 0.5).abs() < 1e-12);
        assert_eq!(w.value(1.5e-9), 1.0);
        assert!((w.value(2.15e-9) - 0.5).abs() < 1e-9);
        assert_eq!(w.value(5e-9), 0.0);
        let bp = w.breakpoints(5e-9);
        assert_eq!(bp.len(), 4);
        assert!((bp[0] - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn periodic_pulse_repeats() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 1e-10,
            fall: 1e-10,
            width: 4e-10,
            period: 2e-9,
        };
        assert_eq!(w.value(3e-10), 1.0);
        assert_eq!(w.value(2e-9 + 3e-10), 1.0);
        assert_eq!(w.value(1.5e-9), 0.0);
        let bp = w.breakpoints(4e-9);
        assert!(bp.len() >= 8);
    }

    #[test]
    fn breakpoint_counts_match_the_lists() {
        let pulse = |delay, period| Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay,
            rise: 1e-10,
            fall: 1e-10,
            width: 4e-10,
            period,
        };
        let sine = Waveform::Sine {
            offset: 0.0,
            amplitude: 1.0,
            frequency: 1e9,
            delay: 1e-9,
            damping: 0.0,
        };
        for (w, t_end) in [
            (Waveform::Dc(1.0), 1.0),
            (pulse(0.0, 2e-9), 5.5e-9),
            (pulse(3e-9, 2e-9), 1e-9),
            (pulse(1e-9, f64::INFINITY), 5e-9),
            (Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]), 2.0),
            (sine, 2e-9),
        ] {
            assert_eq!(
                w.breakpoint_count(t_end),
                w.breakpoints(t_end).len(),
                "{w:?}"
            );
        }
        // A period cut short by `t_end` still counts all four corners.
        assert_eq!(pulse(0.0, 2e-9).breakpoints(4e-9).len(), 9);
        assert_eq!(pulse(0.0, 2e-9).breakpoint_count(4e-9), 12);
        // 5e10 periods of 20 ns in 1000 s, and no end at all.
        assert_eq!(pulse(0.0, 2e-8).breakpoint_count(1000.0), 200_000_000_004);
        assert_eq!(pulse(0.0, 2e-8).breakpoint_count(f64::INFINITY), usize::MAX);
        assert_eq!(pulse(0.0, f64::INFINITY).breakpoint_count(f64::INFINITY), 4);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, -2.0)]);
        assert_eq!(w.value(-1.0), 0.0);
        assert_eq!(w.value(0.5), 1.0);
        assert_eq!(w.value(1.5), 0.0);
        assert_eq!(w.value(3.0), -2.0);
        assert_eq!(w.breakpoints(10.0), vec![0.0, 1.0, 2.0]);
        assert_eq!(Waveform::Pwl(vec![]).value(1.0), 0.0);
    }

    #[test]
    fn sine_value() {
        let w = Waveform::Sine {
            offset: 1.0,
            amplitude: 0.5,
            frequency: 1.0,
            delay: 0.0,
            damping: 0.0,
        };
        assert!((w.value(0.25) - 1.5).abs() < 1e-12);
        assert!((w.value(0.0) - 1.0).abs() < 1e-12);
        let wd = Waveform::Sine {
            offset: 0.0,
            amplitude: 1.0,
            frequency: 1.0,
            delay: 0.5,
            damping: 0.0,
        };
        assert_eq!(wd.value(0.25), 0.0);
        assert_eq!(wd.breakpoints(1.0), vec![0.5]);
    }

    #[test]
    fn only_the_sinusoid_is_not_piecewise_linear() {
        let pulse = Waveform::single_pulse(0.0, 1.0, 1.0, 0.5, 0.5, 2.0);
        let pwl = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, -2.0)]);
        for w in [Waveform::Dc(1.0), pulse, pwl] {
            assert!(w.is_piecewise_linear());
            // Between breakpoints the increment over h does not depend on t.
            let mut edges = vec![0.0];
            edges.extend(w.breakpoints(4.0));
            edges.push(4.0);
            for pair in edges.windows(2) {
                let (a, h) = (pair[0], (pair[1] - pair[0]) / 4.0);
                let first = w.value(a + h) - w.value(a);
                let later = w.value(a + 3.0 * h) - w.value(a + 2.0 * h);
                assert!((first - later).abs() < 1e-12, "{w:?} on [{a}, {}]", pair[1]);
            }
        }
        let sine = Waveform::Sine {
            offset: 0.0,
            amplitude: 1.0,
            frequency: 1.0,
            delay: 0.0,
            damping: 0.0,
        };
        assert!(!sine.is_piecewise_linear());
    }

    #[test]
    fn single_pulse_constructor() {
        let w = Waveform::single_pulse(0.0, 1.2, 0.0, 1e-11, 1e-11, 1e-9);
        assert_eq!(w.value(0.5e-9), 1.2);
        assert_eq!(w.value(5e-9), 0.0);
    }

    #[test]
    fn default_is_zero_dc() {
        assert_eq!(Waveform::default().value(1.0), 0.0);
    }
}

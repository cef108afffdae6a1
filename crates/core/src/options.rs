//! Analysis options.

use exi_sparse::ordering::OrderingMethod;

use crate::error::{SimError, SimResult};

/// Options shared by all transient integration engines.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// End of the simulated interval (seconds); the analysis runs over `[0, t_stop]`.
    pub t_stop: f64,
    /// Initial step size (seconds).
    pub h_init: f64,
    /// Smallest step size the adaptive control may use before giving up
    /// (and, for BE/TR, the floor under the LTE test: a step no longer than
    /// `2·h_min` is not rejected for its LTE).
    pub h_min: f64,
    /// Largest step size the adaptive control may grow to.
    pub h_max: f64,
    /// Local error budget `Err` (paper Algorithm 2) in the infinity norm.
    pub error_budget: f64,
    /// Convergence tolerance ε of the Krylov MEVP (paper Algorithm 1; the
    /// experiments use `1e-7`).
    pub krylov_tolerance: f64,
    /// Maximum Krylov subspace dimension.
    pub krylov_max_dimension: usize,
    /// Maximum Newton–Raphson iterations per time step (implicit methods).
    pub newton_max_iterations: usize,
    /// Newton update norm below which the iteration is declared converged.
    pub newton_tolerance: f64,
    /// Correction coefficient γ of the ER-C method (paper uses 0.1).
    pub correction_gamma: f64,
    /// Fill-reducing ordering used for every LU factorization.
    pub ordering: OrderingMethod,
    /// Optional bound on LU fill (`nnz(L) + nnz(U)`), emulating a memory
    /// budget. `None` means unlimited.
    pub fill_budget: Option<usize>,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            t_stop: 1e-9,
            h_init: 1e-12,
            h_min: 1e-18,
            h_max: 1e-10,
            error_budget: 1e-4,
            krylov_tolerance: 1e-7,
            krylov_max_dimension: 120,
            newton_max_iterations: 30,
            newton_tolerance: 1e-9,
            correction_gamma: 0.1,
            ordering: OrderingMethod::default(),
            fill_budget: None,
        }
    }
}

impl TransientOptions {
    /// Convenience constructor for a span `[0, t_stop]` with an initial step.
    pub fn new(t_stop: f64, h_init: f64) -> Self {
        TransientOptions {
            t_stop,
            h_init,
            h_max: t_stop / 10.0,
            ..TransientOptions::default()
        }
    }

    /// Validates the option set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidOptions`] describing the first inconsistency
    /// found.
    pub fn validate(&self) -> SimResult<()> {
        let fail = |message: &str| {
            Err(SimError::InvalidOptions {
                message: message.to_string(),
            })
        };
        // NaN-aware: a NaN value fails the `positive` test and is rejected.
        let positive = |v: f64| v > 0.0;
        if !(positive(self.t_stop) && self.t_stop.is_finite()) {
            return fail("t_stop must be positive and finite");
        }
        if !positive(self.h_init) || self.h_init > self.t_stop {
            return fail("h_init must be positive and no larger than t_stop");
        }
        if !positive(self.h_min) || self.h_min > self.h_init {
            return fail("h_min must be positive and no larger than h_init");
        }
        if self.h_max < self.h_init {
            return fail("h_max must be at least h_init");
        }
        if !positive(self.error_budget) {
            return fail("error_budget must be positive");
        }
        if self.newton_max_iterations == 0 {
            return fail("newton_max_iterations must be at least 1");
        }
        Ok(())
    }
}

/// Options for the DC operating-point solver; a session sets only the
/// `ordering`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DcOptions {
    /// Maximum Newton iterations.
    pub(crate) max_iterations: usize,
    /// Convergence tolerance on the update infinity norm.
    pub(crate) tolerance: f64,
    /// Largest per-entry Newton update (simple damping that keeps exponential
    /// devices from overflowing).
    pub(crate) max_update: f64,
    /// Fill-reducing ordering used for the Jacobian factorization.
    pub(crate) ordering: OrderingMethod,
    /// Levenberg-style diagonal damping added when the plain iteration
    /// diverges (a pragmatic stand-in for gmin stepping).
    pub(crate) fallback_damping: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iterations: 200,
            tolerance: 1e-9,
            max_update: 0.5,
            ordering: OrderingMethod::default(),
            fallback_damping: 1e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_valid() {
        assert!(TransientOptions::default().validate().is_ok());
        let o = TransientOptions::new(1e-8, 1e-12);
        assert!(o.validate().is_ok());
        assert_eq!(o.t_stop, 1e-8);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let base = TransientOptions::default();
        for bad in [
            TransientOptions {
                t_stop: 0.0,
                ..base.clone()
            },
            TransientOptions {
                h_init: -1.0,
                ..base.clone()
            },
            TransientOptions {
                h_init: 1.0,
                ..base.clone()
            },
            TransientOptions {
                h_min: 0.0,
                ..base.clone()
            },
            TransientOptions {
                h_max: 1e-15,
                ..base.clone()
            },
            TransientOptions {
                error_budget: 0.0,
                ..base.clone()
            },
            TransientOptions {
                t_stop: f64::INFINITY,
                ..base.clone()
            },
            TransientOptions {
                newton_max_iterations: 0,
                ..base.clone()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn dc_defaults_are_sensible() {
        let d = DcOptions::default();
        assert!(d.max_iterations >= 50);
        assert!(d.tolerance < 1e-6);
    }
}

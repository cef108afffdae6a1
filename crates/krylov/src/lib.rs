//! # exi-krylov
//!
//! Matrix exponential, φ-function and Krylov-subspace kernels for the
//! `exi-sim` exponential-integrator circuit simulator (reproduction of Zhuang
//! et al., DAC 2015).
//!
//! The central operation of a matrix-exponential circuit simulator is the
//! **matrix exponential and vector product** (MEVP) `e^{hJ}·v` with
//! `J = -C⁻¹G`. Three Krylov-subspace flavours are provided:
//!
//! * [`mevp_invert_krylov`] — the paper's method (Algorithm 1, `MEVP_IKS`):
//!   builds `K_m(J⁻¹, v)` so that only `G` is factorized and stiff/singular
//!   `C` matrices are handled without regularization.
//! * [`mevp_standard_krylov`] — the prior-work formulation `K_m(J, v)`
//!   (requires `C⁻¹`), kept as an ablation baseline.
//! * [`mevp_rational_krylov`] — shift-and-invert subspace on `(C + γG)⁻¹C`,
//!   the fastest-converging but most expensive alternative.
//!
//! Every front-end returns a [`KrylovDecomposition`] that can be re-evaluated
//! for different step sizes `h` and φ orders without rebuilding the basis —
//! the scaling-invariance the ER engine relies on when it rejects a step.
//!
//! The paper's front-end also has variants taking a [`MevpWorkspace`]
//! ([`mevp_invert_krylov_with`], [`mevp_invert_krylov_state_residual_with`]):
//! an arena of recycled basis vectors, Hessenberg storage, operator scratch
//! buffers and the small dense temporaries of the convergence tests and φ
//! evaluations, which makes repeated subspace builds (the transient engines'
//! hot loop) allocation-free in steady state. The decomposition's
//! `eval_*_in` methods re-evaluate through the same workspace.
//!
//! # Examples
//!
//! ```
//! use exi_sparse::{SparseLu, TripletMatrix};
//! use exi_krylov::{mevp_invert_krylov, MevpOptions};
//!
//! # fn main() -> Result<(), exi_krylov::KrylovError> {
//! // A two-node RC line.
//! let mut c = TripletMatrix::new(2, 2);
//! c.push(0, 0, 1e-12);
//! c.push(1, 1, 2e-12);
//! let c = c.to_csr();
//! let mut g = TripletMatrix::new(2, 2);
//! g.push(0, 0, 2e-3);
//! g.push(0, 1, -1e-3);
//! g.push(1, 0, -1e-3);
//! g.push(1, 1, 1e-3);
//! let g = g.to_csr();
//! let g_lu = SparseLu::factorize(&g)?;
//! let out = mevp_invert_krylov(&c, &g, &g_lu, &[1.0, 0.0], 1e-10, &MevpOptions::default())?;
//! assert_eq!(out.mevp.len(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod arnoldi;
mod decomposition;
mod error;
mod expm;
mod invert;
mod mevp;
mod operator;
mod phi;
mod rational;

pub use arnoldi::mevp_standard_krylov;
pub use decomposition::KrylovDecomposition;
pub use error::{KrylovError, KrylovResult};
pub use expm::expm;
pub use invert::{
    invert_krylov_residual, mevp_invert_krylov, mevp_invert_krylov_state_residual_with,
    mevp_invert_krylov_with,
};
pub use mevp::{MevpOptions, MevpOutcome, MevpWorkspace};
pub use operator::{InverseJacobianOperator, KrylovOperator, OperatorWorkspace};
pub use phi::{phi_matrices, phi_scalar, MAX_PHI_ORDER};
pub use rational::mevp_rational_krylov;

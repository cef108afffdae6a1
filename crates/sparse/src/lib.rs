//! # exi-sparse
//!
//! Sparse and small dense linear algebra substrate for the `exi-sim`
//! exponential-integrator circuit simulator (a reproduction of Zhuang et al.,
//! *"An Algorithmic Framework for Efficient Large-Scale Circuit Simulation
//! Using Exponential Integrators"*, DAC 2015).
//!
//! The crate provides exactly the kernels the simulator needs and nothing
//! more:
//!
//! * [`TripletMatrix`] — coordinate-format builder used by MNA stamping.
//! * [`CsrMatrix`] — compressed sparse row storage behind one shared,
//!   immutable pattern handle, sparse matrix–vector products and linear
//!   combinations such as `C/h + G` ([`CombinationMap`] refills a fixed one,
//!   only where the listed moving values are read when nothing else moved).
//! * [`SparseLu`] — left-looking Gilbert–Peierls sparse LU with threshold
//!   partial pivoting, fill-reducing orderings ([`ordering`]) and an optional
//!   fill budget (used to emulate out-of-memory failures of the baseline).
//!   Its symbolic analysis ([`SymbolicLu`]) is cached so value-only updates
//!   go through the cheap numeric [`SparseLu::refactorize_with`] (or
//!   [`SparseLu::refactorize_changed`], told which values may have moved), and
//!   [`SparseLu::solve_into`] + [`LuWorkspace`] make hot-loop triangular
//!   solves allocation-free. [`SparseLu::factorize_ordered`] takes the
//!   fill-reducing ordering precomputed — it depends on the pattern alone —
//!   and still pivots on the matrix's own values.
//! * [`DenseMatrix`] — small dense matrices for the projected Hessenberg
//!   systems produced by Krylov subspace methods.
//! * [`vector`] — BLAS-1 style helpers on `&[f64]`.
//!
//! # Examples
//!
//! Assemble a small conductance matrix, factorize it and solve:
//!
//! ```
//! use exi_sparse::{SparseLu, TripletMatrix};
//!
//! # fn main() -> Result<(), exi_sparse::SparseError> {
//! let mut g = TripletMatrix::new(2, 2);
//! g.push(0, 0, 2.0);
//! g.push(0, 1, -1.0);
//! g.push(1, 0, -1.0);
//! g.push(1, 1, 2.0);
//! let g = g.to_csr();
//! let lu = SparseLu::factorize(&g)?;
//! let x = lu.solve(&[1.0, 0.0])?;
//! assert!((x[0] - 2.0 / 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod coo;
mod csr;
pub mod dense;
mod error;
mod lu;
pub mod ordering;
mod permutation;
pub mod vector;

pub use coo::TripletMatrix;
pub use csr::{CombinationMap, CsrMatrix};
pub use dense::{DenseLu, DenseMatrix};
pub use error::{SparseError, SparseResult};
pub use lu::{factor_fill, LuOptions, LuWorkspace, SparseLu, SymbolicLu};
pub use ordering::OrderingMethod;
pub use permutation::Permutation;

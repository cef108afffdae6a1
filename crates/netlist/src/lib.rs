//! # exi-netlist
//!
//! Circuit netlist representation, device models, MNA stamping, a small
//! SPICE-like parser and synthetic workload generators for the `exi-sim`
//! exponential-integrator circuit simulator (reproduction of Zhuang et al.,
//! DAC 2015).
//!
//! The crate produces everything the integrators in `exi-sim` consume: at any
//! state `x` a [`Circuit`] can be evaluated into the matrices and vectors of
//! the nonlinear MNA system
//!
//! ```text
//! C(x)·dx/dt + f(x) = B·u(t)
//! ```
//!
//! (paper Eq. 1), plus the constant incidence matrix `B`, the stimulus vector
//! `u(t)` and the waveform breakpoints used for step-size alignment.
//!
//! # Examples
//!
//! Build an RC low-pass filter programmatically:
//!
//! ```
//! use exi_netlist::{Circuit, Waveform};
//!
//! # fn main() -> Result<(), exi_netlist::NetlistError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! let gnd = ckt.node("0");
//! ckt.add_voltage_source("Vin", vin, gnd, Waveform::single_pulse(0.0, 1.0, 0.0, 1e-11, 1e-11, 5e-9))?;
//! ckt.add_resistor("R1", vin, out, 1e3)?;
//! ckt.add_capacitor("C1", out, gnd, 1e-12)?;
//! // Compile the stamping plan once per topology, then restamp per state.
//! let plan = ckt.compile_plan()?;
//! let eval = plan.evaluate(&vec![0.0; ckt.num_unknowns()])?;
//! assert_eq!(eval.g.rows(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! Or parse a SPICE deck — subcircuits, `.param` substitution and analysis
//! cards included — with [`parse_deck`] / [`parse_deck_file`] (the
//! flattened [`Circuit`] is the deck's `circuit`):
//!
//! ```
//! use exi_netlist::parse_deck;
//!
//! # fn main() -> Result<(), exi_netlist::NetlistError> {
//! let deck = parse_deck(
//!     ".param c=1p\n\
//!      Vin in 0 PULSE(0 1 0 1n 1n 5n)\n\
//!      R1 in out 1k\n\
//!      C1 out 0 {c}\n\
//!      .tran 1p 5n\n\
//!      .print v(out)\n",
//! )?;
//! assert_eq!(deck.circuit.num_unknowns(), 3);
//! assert_eq!(deck.analyses.len(), 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod circuit;
mod deck;
mod devices;
mod error;
pub mod generators;
mod node;
mod parser;
mod plan;
mod waveform;

pub use circuit::{Circuit, Evaluation};
pub use deck::{
    parse_deck, parse_deck_file, parse_deck_file_with_params, parse_deck_with_params, Analysis,
    Deck,
};
pub use devices::{Device, DiodeModel, MosfetModel, MosfetPolarity};
pub use error::NetlistError;
pub use node::NodeId;
pub use plan::{circuit_fingerprint, EvalPlan, EvalWorkspace};
pub use waveform::Waveform;

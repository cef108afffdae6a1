//! Circuit devices and the MNA system they stamp.
//!
//! Every device contributes to the nonlinear MNA system
//!
//! ```text
//! C(x)·dx/dt + f(x) = B·u(t)            (paper Eq. 1, with q(x) differentiated)
//! ```
//!
//! through four quantities evaluated at a state `x`: the static current
//! vector `f(x)`, the charge/flux vector `q(x)`, and the matrices
//! `C(x) = ∂q/∂x` and
//!
//! ```text
//! G(x) = ∂f/∂x + gmin·(junction stamps)
//! ```
//!
//! where the junction stamps are the two-terminal conductance stamps across
//! every diode and every MOSFET's drain–source: `gmin` conditions `G` but
//! carries no current in `f`. Independent sources contribute columns of the
//! incidence matrix `B` and entries of `u(t)`. Each device's stamp lives in
//! one place, the evaluation plan ([`crate::plan`]).

mod diode;
mod mosfet;

pub use diode::{DiodeModel, DiodeOperatingPoint};
pub use mosfet::{MosfetModel, MosfetOperatingPoint, MosfetPolarity};

use crate::node::NodeId;

/// A device instance in a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// Linear resistor between two nodes.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        resistance: f64,
    },
    /// Linear capacitor between two nodes.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be positive).
        capacitance: f64,
    },
    /// Linear inductor between two nodes; carries a branch-current unknown.
    Inductor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries (must be positive).
        inductance: f64,
        /// Index of the branch-current unknown.
        branch: usize,
    },
    /// Independent voltage source; carries a branch-current unknown.
    VoltageSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Index of the branch-current unknown.
        branch: usize,
        /// Index of the source waveform (column of `B`).
        source: usize,
    },
    /// Independent current source injecting current into its `to` terminal.
    CurrentSource {
        /// Instance name.
        name: String,
        /// Terminal the current is drawn from.
        from: NodeId,
        /// Terminal the current is injected into.
        to: NodeId,
        /// Index of the source waveform (column of `B`).
        source: usize,
    },
    /// Junction diode.
    Diode {
        /// Instance name.
        name: String,
        /// Anode terminal.
        anode: NodeId,
        /// Cathode terminal.
        cathode: NodeId,
        /// Model parameters.
        model: DiodeModel,
    },
    /// Level-1 MOSFET (drain, gate, source; bulk tied to source).
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal.
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// Model parameters.
        model: MosfetModel,
    },
}

impl Device {
    /// Instance name of the device.
    pub fn name(&self) -> &str {
        match self {
            Device::Resistor { name, .. }
            | Device::Capacitor { name, .. }
            | Device::Inductor { name, .. }
            | Device::VoltageSource { name, .. }
            | Device::CurrentSource { name, .. }
            | Device::Diode { name, .. }
            | Device::Mosfet { name, .. } => name,
        }
    }

    /// Returns `true` for devices whose stamps depend on the state vector.
    pub fn is_nonlinear(&self) -> bool {
        matches!(self, Device::Diode { .. } | Device::Mosfet { .. })
    }
}

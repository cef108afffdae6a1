//! The circuit data model and MNA assembly.

use std::collections::HashSet;

use exi_sparse::CsrMatrix;

use crate::devices::{Device, DiodeModel, MosfetModel};
use crate::error::{NetlistError, NetlistResult};
use crate::node::{NodeId, NodeMap};
use crate::waveform::Waveform;

/// Result of evaluating all devices at a state vector `x`.
///
/// Together these describe the linearization the integrators work with:
/// `C(x)·dx/dt + f(x) = B·u(t)` with `C(x) = ∂q/∂x` and
/// `G(x) = ∂f/∂x + gmin·(junction stamps)`: `G` also carries the `gmin`
/// conductance stamp across every diode and every MOSFET's drain–source,
/// which `f` carries no current for.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Capacitance/inductance Jacobian `C(x)`.
    pub c: CsrMatrix,
    /// Conductance/resistance Jacobian `G(x)`.
    pub g: CsrMatrix,
    /// Static current vector `f(x)`.
    pub f: Vec<f64>,
    /// Charge/flux vector `q(x)`.
    pub q: Vec<f64>,
}

/// A flat transistor-level circuit.
///
/// # Examples
///
/// ```
/// use exi_netlist::{Circuit, Waveform};
///
/// # fn main() -> Result<(), exi_netlist::NetlistError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let vout = ckt.node("out");
/// let gnd = ckt.node("0");
/// ckt.add_voltage_source("Vin", vin, gnd, Waveform::Dc(1.0))?;
/// ckt.add_resistor("R1", vin, vout, 1e3)?;
/// ckt.add_capacitor("C1", vout, gnd, 1e-12)?;
/// assert_eq!(ckt.num_unknowns(), 3); // two node voltages + one branch current
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    nodes: NodeMap,
    devices: Vec<Device>,
    device_names: HashSet<String>,
    sources: Vec<(String, Waveform)>,
    num_branches: usize,
    gmin: f64,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit {
            nodes: NodeMap::new(),
            devices: Vec::new(),
            device_names: HashSet::new(),
            sources: Vec::new(),
            num_branches: 0,
            gmin: 1e-12,
        }
    }

    /// Returns the node with the given name, creating it if needed.
    pub fn node(&mut self, name: &str) -> NodeId {
        self.nodes.node(name)
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.find(name)
    }

    /// Index of the voltage unknown for a named node, if it exists and is not
    /// ground.
    pub fn unknown_of(&self, name: &str) -> Option<usize> {
        self.nodes.find(name).and_then(|n| n.unknown())
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.nodes.name(id)
    }

    /// Number of non-ground nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.num_nodes()
    }

    /// Names of every non-ground node, ordered by voltage-unknown index —
    /// the default probe set of front-ends that were not told what to
    /// record.
    pub fn node_names(&self) -> Vec<&str> {
        let mut pairs: Vec<(usize, &str)> = self
            .nodes
            .iter()
            .filter_map(|(name, id)| id.unknown().map(|u| (u, name)))
            .collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, name)| name).collect()
    }

    /// Human-readable label for an MNA unknown index: `node 'out'` for a
    /// voltage unknown, `branch current of 'V1'` for a branch unknown.
    /// Failure reports use this to turn a singular pivot's column index into
    /// something a circuit author can act on. Returns `None` for indices
    /// outside the MNA system.
    pub fn unknown_label(&self, index: usize) -> Option<String> {
        let num_nodes = self.num_nodes();
        if index < num_nodes {
            // Voltage unknown `index` belongs to NodeId(index + 1).
            return Some(format!(
                "node '{}'",
                self.nodes.name(crate::node::NodeId(index + 1))
            ));
        }
        let branch = index.checked_sub(num_nodes)?;
        if branch >= self.num_branches {
            return None;
        }
        self.devices.iter().find_map(|d| match d {
            Device::Inductor {
                name, branch: b, ..
            }
            | Device::VoltageSource {
                name, branch: b, ..
            } if *b == branch => Some(format!("branch current of '{name}'")),
            _ => None,
        })
    }

    /// Number of branch-current unknowns (voltage sources and inductors).
    pub fn num_branches(&self) -> usize {
        self.num_branches
    }

    /// Total number of MNA unknowns.
    pub fn num_unknowns(&self) -> usize {
        self.num_nodes() + self.num_branches
    }

    /// Number of independent sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of nonlinear devices (diodes and MOSFETs).
    pub fn num_nonlinear_devices(&self) -> usize {
        self.devices.iter().filter(|d| d.is_nonlinear()).count()
    }

    /// The devices of the circuit.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The independent sources as `(name, waveform)` pairs.
    pub fn sources(&self) -> &[(String, Waveform)] {
        &self.sources
    }

    /// Sets the minimum junction conductance (SPICE `GMIN`).
    pub fn set_gmin(&mut self, gmin: f64) {
        self.gmin = gmin;
    }

    /// The minimum junction conductance.
    pub fn gmin(&self) -> f64 {
        self.gmin
    }

    fn register_name(&mut self, name: &str) -> NetlistResult<()> {
        if !self.device_names.insert(name.to_string()) {
            return Err(NetlistError::DuplicateDevice {
                name: name.to_string(),
            });
        }
        Ok(())
    }

    fn check_positive(name: &str, parameter: &'static str, value: f64) -> NetlistResult<()> {
        // NaN fails the finiteness check, so this rejects it like `!(v > 0)` did.
        if value <= 0.0 || !value.is_finite() {
            return Err(NetlistError::InvalidParameter {
                device: name.to_string(),
                parameter,
                value,
            });
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive resistance and duplicate names.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> NetlistResult<()> {
        Self::check_positive(name, "resistance", ohms)?;
        self.register_name(name)?;
        self.devices.push(Device::Resistor {
            name: name.to_string(),
            a,
            b,
            resistance: ohms,
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacitance and duplicate names.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> NetlistResult<()> {
        Self::check_positive(name, "capacitance", farads)?;
        self.register_name(name)?;
        self.devices.push(Device::Capacitor {
            name: name.to_string(),
            a,
            b,
            capacitance: farads,
        });
        Ok(())
    }

    /// Adds an inductor (introduces a branch-current unknown).
    ///
    /// # Errors
    ///
    /// Rejects non-positive inductance and duplicate names.
    pub fn add_inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> NetlistResult<()> {
        Self::check_positive(name, "inductance", henries)?;
        self.register_name(name)?;
        let branch = self.num_branches;
        self.num_branches += 1;
        self.devices.push(Device::Inductor {
            name: name.to_string(),
            a,
            b,
            inductance: henries,
            branch,
        });
        Ok(())
    }

    /// Adds an independent voltage source between `pos` and `neg`
    /// (introduces a branch-current unknown).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_voltage_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: Waveform,
    ) -> NetlistResult<()> {
        self.register_name(name)?;
        let branch = self.num_branches;
        self.num_branches += 1;
        let source = self.sources.len();
        self.sources.push((name.to_string(), waveform));
        self.devices.push(Device::VoltageSource {
            name: name.to_string(),
            pos,
            neg,
            branch,
            source,
        });
        Ok(())
    }

    /// Adds an independent current source pushing its current from `from`
    /// into `to`.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_current_source(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        waveform: Waveform,
    ) -> NetlistResult<()> {
        self.register_name(name)?;
        let source = self.sources.len();
        self.sources.push((name.to_string(), waveform));
        self.devices.push(Device::CurrentSource {
            name: name.to_string(),
            from,
            to,
            source,
        });
        Ok(())
    }

    /// Adds a junction diode.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_diode(
        &mut self,
        name: &str,
        anode: NodeId,
        cathode: NodeId,
        model: DiodeModel,
    ) -> NetlistResult<()> {
        self.register_name(name)?;
        self.devices.push(Device::Diode {
            name: name.to_string(),
            anode,
            cathode,
            model,
        });
        Ok(())
    }

    /// Adds a MOSFET (drain, gate, source; bulk tied to source).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        model: MosfetModel,
    ) -> NetlistResult<()> {
        self.register_name(name)?;
        self.devices.push(Device::Mosfet {
            name: name.to_string(),
            drain,
            gate,
            source,
            model,
        });
        Ok(())
    }

    /// Compiles a precompiled evaluation plan for this topology — the
    /// allocation-free restamping entry point of the hot loop (see
    /// [`EvalPlan`](crate::EvalPlan) for the pattern rule).
    ///
    /// The plan snapshots the devices and `gmin`: recompile after any
    /// mutation of the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyCircuit`] for a circuit with no unknowns.
    pub fn compile_plan(&self) -> NetlistResult<crate::plan::EvalPlan> {
        crate::plan::EvalPlan::compile(self)
    }

    /// Number of entries of the input vector `u(t)` — the column count of
    /// the incidence matrix `B` (`num_sources`, or 1 for a source-free
    /// circuit so the matrix stays well-formed).
    pub fn input_dim(&self) -> usize {
        self.sources.len().max(1)
    }

    /// Evaluates all independent sources at time `t`.
    pub fn input_vector(&self, t: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.input_dim()];
        self.input_vector_into(t, &mut out);
        out
    }

    /// Evaluates all independent sources at time `t` into a caller buffer of
    /// [`Circuit::input_dim`] entries — the allocation-free form the
    /// transient engines call per step. For a source-free circuit the single
    /// padding entry is set to `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.input_dim()`.
    pub fn input_vector_into(&self, t: f64, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.input_dim(),
            "input_vector_into: buffer dimension mismatch"
        );
        if self.sources.is_empty() {
            out[0] = 0.0;
            return;
        }
        for (o, (_, w)) in out.iter_mut().zip(self.sources.iter()) {
            *o = w.value(t);
        }
    }

    /// Whether every source is linear in `t` between consecutive
    /// [`Circuit::breakpoints`] ([`Waveform::is_piecewise_linear`]).
    pub fn inputs_are_piecewise_linear(&self) -> bool {
        self.sources.iter().all(|(_, w)| w.is_piecewise_linear())
    }

    /// All waveform breakpoints in `[0, t_end]`, sorted and deduplicated.
    pub fn breakpoints(&self, t_end: f64) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .sources
            .iter()
            .flat_map(|(_, w)| w.breakpoints(t_end))
            .filter(|t| t.is_finite())
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        out.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plan-path evaluation shorthand for the stamp tests.
    fn eval(ckt: &Circuit, x: &[f64]) -> Evaluation {
        ckt.compile_plan().unwrap().evaluate(x).unwrap()
    }

    fn input_matrix(ckt: &Circuit) -> CsrMatrix {
        ckt.compile_plan().unwrap().input_matrix().clone()
    }

    fn rc_divider() -> Circuit {
        // V1 -- R1 -- out -- C1 -- gnd
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", vin, gnd, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", vin, out, 1000.0).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-12).unwrap();
        ckt
    }

    #[test]
    fn counts_and_lookups() {
        let ckt = rc_divider();
        assert_eq!(ckt.num_nodes(), 2);
        assert_eq!(ckt.num_branches(), 1);
        assert_eq!(ckt.num_unknowns(), 3);
        assert_eq!(ckt.num_sources(), 1);
        assert_eq!(ckt.num_devices(), 3);
        assert_eq!(ckt.num_nonlinear_devices(), 0);
        assert_eq!(ckt.unknown_of("in"), Some(0));
        assert_eq!(ckt.unknown_of("out"), Some(1));
        assert_eq!(ckt.unknown_of("0"), None);
        assert!(ckt.find_node("nonexistent").is_none());
    }

    #[test]
    fn resistor_and_capacitor_stamps() {
        let ckt = rc_divider();
        let x = vec![1.0, 0.25, -0.75e-3]; // in, out, branch current
        let ev = eval(&ckt, &x);
        // G row for "out": conductance 1e-3 to "in" and itself.
        assert!((ev.g.get(1, 1) - 1e-3).abs() < 1e-15);
        assert!((ev.g.get(1, 0) + 1e-3).abs() < 1e-15);
        // C only on the "out" node.
        assert!((ev.c.get(1, 1) - 1e-12).abs() < 1e-24);
        assert_eq!(ev.c.get(0, 0), 0.0);
        // f at node "out": current through R1 leaving out = (v_out - v_in)/R.
        assert!((ev.f[1] - (0.25 - 1.0) / 1000.0).abs() < 1e-15);
        // Voltage source branch equation: v_in - 0 = u -> f[2] = v_in.
        assert!((ev.f[2] - 1.0).abs() < 1e-15);
        // q on node "out" is C*v_out.
        assert!((ev.q[1] - 1e-12 * 0.25).abs() < 1e-27);
    }

    #[test]
    fn input_matrix_and_vector() {
        let ckt = rc_divider();
        let b = input_matrix(&ckt);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 1);
        assert_eq!(b.get(2, 0), 1.0);
        assert_eq!(ckt.input_vector(0.0), vec![1.0]);
    }

    #[test]
    fn current_source_signs() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_resistor("R1", a, gnd, 100.0).unwrap();
        ckt.add_current_source("I1", gnd, a, Waveform::Dc(0.01))
            .unwrap();
        let b = input_matrix(&ckt);
        // Current is injected into node a.
        assert_eq!(b.get(0, 0), 1.0);
        // Steady state: v_a = I*R = 1 V, so f(x) - B u = 0 at v_a = 1.
        let ev = eval(&ckt, &[1.0]);
        let bu = b.mul_vec(&ckt.input_vector(0.0));
        assert!((ev.f[0] - bu[0]).abs() < 1e-15);
    }

    #[test]
    fn inductor_contributes_branch_equation() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_inductor("L1", a, gnd, 1e-9).unwrap();
        ckt.add_resistor("R1", a, gnd, 50.0).unwrap();
        let x = vec![2.0, 0.04];
        let ev = eval(&ckt, &x);
        // Branch flux q = L*i.
        assert!((ev.q[1] - 1e-9 * 0.04).abs() < 1e-20);
        // Branch equation residual f = -(v_a - 0).
        assert!((ev.f[1] + 2.0).abs() < 1e-15);
        // KCL at node a includes the branch current.
        assert!((ev.f[0] - (0.04 + 2.0 / 50.0)).abs() < 1e-15);
        assert_eq!(ev.c.get(1, 1), 1e-9);
    }

    #[test]
    fn nonlinear_devices_are_counted_and_stamped() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = ckt.node("g");
        let gnd = ckt.node("0");
        ckt.add_diode("D1", a, gnd, DiodeModel::default()).unwrap();
        ckt.add_mosfet("M1", a, g, gnd, MosfetModel::nmos())
            .unwrap();
        assert_eq!(ckt.num_nonlinear_devices(), 2);
        let ev = eval(&ckt, &[0.6, 1.0]);
        // Diode forward current appears at node a.
        assert!(ev.f[0] > 0.0);
        // MOSFET is on (vgs = 1.0 > vt), adding conductance at node a.
        assert!(ev.g.get(0, 0) > 0.0);
        // Gate capacitance couples gate and source/drain.
        assert!(ev.c.get(1, 1) > 0.0);
    }

    #[test]
    fn validation_errors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        assert!(matches!(
            ckt.add_resistor("R1", a, gnd, -5.0),
            Err(NetlistError::InvalidParameter { .. })
        ));
        ckt.add_resistor("R1", a, gnd, 5.0).unwrap();
        assert!(matches!(
            ckt.add_capacitor("R1", a, gnd, 1e-12),
            Err(NetlistError::DuplicateDevice { .. })
        ));
        assert!(matches!(
            ckt.compile_plan().unwrap().evaluate(&[1.0, 2.0]),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            Circuit::new().compile_plan(),
            Err(NetlistError::EmptyCircuit)
        ));
    }

    #[test]
    fn input_vector_into_matches_the_allocating_form() {
        let ckt = rc_divider();
        let mut buf = vec![42.0; ckt.input_dim()];
        ckt.input_vector_into(0.0, &mut buf);
        assert_eq!(buf, ckt.input_vector(0.0));
        // Source-free circuit: single zero padding entry.
        let mut lone = Circuit::new();
        let a = lone.node("a");
        let gnd = lone.node("0");
        lone.add_resistor("R", a, gnd, 1.0).unwrap();
        assert_eq!(lone.input_dim(), 1);
        let mut pad = vec![7.0];
        lone.input_vector_into(1.0, &mut pad);
        assert_eq!(pad, vec![0.0]);
    }

    #[test]
    fn breakpoints_are_merged() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "V1",
            a,
            gnd,
            Waveform::single_pulse(0.0, 1.0, 1e-9, 1e-10, 1e-10, 1e-9),
        )
        .unwrap();
        ckt.add_current_source("I1", gnd, a, Waveform::Pwl(vec![(0.0, 0.0), (2e-9, 1e-3)]))
            .unwrap();
        let bp = ckt.breakpoints(1e-8);
        assert!(bp.len() >= 5);
        assert!(bp.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn gmin_is_configurable() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_diode("D1", a, gnd, DiodeModel::default()).unwrap();
        ckt.set_gmin(1e-9);
        assert_eq!(ckt.gmin(), 1e-9);
        let ev = eval(&ckt, &[-1.0]);
        // Reverse-biased diode: conductance is dominated by gmin.
        assert!(ev.g.get(0, 0) >= 1e-9);
    }
}

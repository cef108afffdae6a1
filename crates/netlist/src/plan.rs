//! Precompiled evaluation plans: allocation-free device restamping onto a
//! sparsity pattern that is fixed when the plan is compiled ([`EvalPlan`]
//! states the pattern rule).
//!
//! # One stamp per device, checked against calculus
//!
//! This module is the one place that knows each device's stamp: the
//! compile-time `Recorder` for the constants, `run_kernels` for what `x`
//! moves. Its values are checked against definitions, not against a second
//! copy: `tests/proptest_plan.rs` asserts on random circuits that column `j`
//! of `G` is the central difference of `f` in `x_j` plus the `gmin` junction
//! stamps (see [`crate::devices`]) and column `j` of `C` the central
//! difference of `q`, and the unit tests below hold a literal stamp table
//! per device kind. The bit-identity the simulator guarantees is *across
//! execution strategies* (scalar, worker threads, over the wire), all of
//! which restamp through this one plan.
//!
//! # Example
//!
//! ```
//! use exi_netlist::{Circuit, Waveform};
//!
//! # fn main() -> Result<(), exi_netlist::NetlistError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! let gnd = ckt.node("0");
//! ckt.add_voltage_source("Vin", vin, gnd, Waveform::Dc(1.0))?;
//! ckt.add_resistor("R1", vin, out, 1e3)?;
//! ckt.add_capacitor("C1", out, gnd, 1e-12)?;
//!
//! let plan = ckt.compile_plan()?;           // once per topology
//! let mut ws = plan.new_workspace();
//! let mut ev = plan.new_evaluation();
//! let x = vec![0.0; ckt.num_unknowns()];
//! plan.evaluate_into(&x, &mut ws, &mut ev)?; // per step: restamp in place
//! assert_eq!(ev.g.rows(), 3);
//! assert_eq!(ws.allocations(), 0);           // buffers were pre-sized
//! # Ok(())
//! # }
//! ```

use std::sync::OnceLock;

use exi_sparse::ordering::compute_ordering;
use exi_sparse::{CsrMatrix, OrderingMethod, Permutation, TripletMatrix};

use crate::circuit::{Circuit, Evaluation};
use crate::devices::{Device, DiodeModel, MosfetModel};
use crate::error::{NetlistError, NetlistResult};
use crate::node::NodeId;

/// Compiled per-device runtime kernel: the state-dependent work (`f`/`q`
/// accumulation and nonlinear conductance stamps) with every node already
/// resolved to an unknown index (`None` = ground) and every nonlinear slot
/// resolved to its index into `G`'s value array.
#[derive(Debug, Clone)]
enum DeviceKernel {
    Resistor {
        a: Option<usize>,
        b: Option<usize>,
        conductance: f64,
    },
    Capacitor {
        a: Option<usize>,
        b: Option<usize>,
        capacitance: f64,
    },
    Inductor {
        a: Option<usize>,
        b: Option<usize>,
        row: usize,
        inductance: f64,
    },
    VoltageSource {
        pos: Option<usize>,
        neg: Option<usize>,
        row: usize,
    },
    /// Current sources stamp only the constant `B` matrix: nothing to do per
    /// evaluation.
    Inert,
    Diode {
        anode: Option<usize>,
        cathode: Option<usize>,
        model: DiodeModel,
        /// `G` value indices of the four conductance cells
        /// `(a,a) (c,c) (a,c) (c,a)`, `None` where a terminal is ground.
        cells: [Option<usize>; 4],
    },
    Mosfet {
        drain: Option<usize>,
        gate: Option<usize>,
        source: Option<usize>,
        model: MosfetModel,
        /// `G` value indices of `(d,d) (d,g) (d,s) (s,d) (s,g) (s,s)` in
        /// stamp order, `None` where a cell touches ground.
        cells: [Option<usize>; 6],
    },
}

/// Reusable scratch state for [`EvalPlan::evaluate_into`].
///
/// The restamp writes straight into the caller's [`Evaluation`], so all
/// that is left here is the warm-up counter
/// ([`EvalWorkspace::allocations`]). Create one per thread/session with
/// [`EvalPlan::new_workspace`] and reuse it for every evaluation.
#[derive(Debug, Default, Clone)]
pub struct EvalWorkspace {
    allocations: usize,
}

impl EvalWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        EvalWorkspace::default()
    }

    /// Number of times an evaluation had to grow one of the `Evaluation`'s
    /// buffers. With buffers from [`EvalPlan::new_evaluation`] this stays at
    /// zero; a counter that climbs with the step count is a hot-loop
    /// allocation regression.
    pub fn allocations(&self) -> usize {
        self.allocations
    }
}

/// Grows `v` to exactly `len` elements of `fill`, counting a capacity growth
/// into `allocs`.
fn reset_vec<T: Copy>(v: &mut Vec<T>, len: usize, fill: T, allocs: &mut usize) {
    if v.capacity() < len {
        *allocs += 1;
    }
    v.clear();
    v.resize(len, fill);
}

/// Overwrites `out` with `src`: shares `src`'s pattern handle and copies
/// its values into `out`'s value buffer, counting a capacity growth into
/// `allocs`.
fn restore(src: &CsrMatrix, out: &mut CsrMatrix, allocs: &mut usize) {
    if out.value_capacity() < src.nnz() {
        *allocs += 1;
    }
    out.clone_from(src);
}

/// A precompiled evaluation plan for one circuit topology.
///
/// Compile with [`Circuit::compile_plan`]; restamp with
/// [`EvalPlan::evaluate_into`]. The plan snapshots the circuit's devices and
/// `gmin`, so it is invalidated by **any** circuit mutation — recompile
/// after adding devices or changing parameters.
///
/// # The pattern rule
///
/// **A matrix pattern depends on the circuit — topology and parameter
/// values — never on the state `x` or the step `h`.** Every cell of `G(x)`
/// and `C(x)` that any device can write exists from compilation on:
///
/// * A **constant** stamp (resistors, capacitors, inductors, sources, the
///   `gmin` and junction/overlap capacitances of the nonlinear devices) is
///   summed into its cell at compile time. A constant that is exactly `0.0`
///   (`gmin = 0`, a diode without junction capacitance) stamps nothing, and
///   duplicate constants that cancel to exactly `0.0` leave no cell: both are
///   properties of the circuit's parameter values, so dropping them keeps the
///   rule — and keeps linear circuits on the pattern they always had.
/// * A **nonlinear slot** — one conductance entry a diode or MOSFET rewrites
///   per evaluation — is always a cell, explicit zero included: a MOSFET in
///   cut-off (`gm == gds == 0.0`) stamps `0.0` into cells that stay in the
///   matrix.
///
/// One symbolic LU analysis per matrix role therefore serves a whole run
/// (and, through a session, every later run): nothing downstream re-derives
/// structure from values. The other half of the rule is that a linear
/// combination of two matrices has the structural union of their patterns
/// ([`CsrMatrix::linear_combination`]), so the implicit engines' `C/h + θ·G`
/// is fixed too: they merge the two patterns once
/// ([`exi_sparse::CombinationMap`]) and refill only values per iteration.
///
/// [`EvalPlan::evaluate_into`] restamps into caller-owned buffers: flat
/// copies of the compiled pattern and constant values, then one scatter-add
/// per nonlinear slot ([`EvalPlan::nonlinear_stamp_count`]) — no COO, no
/// sort, and, once the buffers have warmed up, no allocation
/// ([`EvalWorkspace::allocations`] counts the warm-ups so regressions are
/// observable).
///
/// # Examples
///
/// ```
/// use exi_netlist::{Circuit, Waveform};
///
/// # fn main() -> Result<(), exi_netlist::NetlistError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let gnd = ckt.node("0");
/// ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(1.0))?;
/// ckt.add_resistor("R1", a, gnd, 1e3)?;
/// ckt.add_capacitor("C1", a, gnd, 1e-12)?;
/// // Analyze the topology once…
/// let plan = ckt.compile_plan()?;
/// let mut ws = plan.new_workspace();
/// let mut eval = plan.new_evaluation();
/// // …then restamp per state in the hot loop, allocation-free.
/// for x in [[0.0, 0.0], [1.0, -1e-3]] {
///     plan.evaluate_into(&x, &mut ws, &mut eval)?;
/// }
/// assert_eq!(ws.allocations(), 0);
/// assert!(eval.g.get(0, 0) > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvalPlan {
    n: usize,
    input_dim: usize,
    /// `G`'s fixed pattern holding the compile-time constant sums (`0.0` in
    /// cells only nonlinear slots write).
    g: CsrMatrix,
    c: CsrMatrix,
    b: CsrMatrix,
    kernels: Vec<DeviceKernel>,
    nl_slots: usize,
    /// The `G` value positions the nonlinear slots write, ascending, once
    /// each.
    nl_cells: Vec<usize>,
    gmin: f64,
    /// Fill-reducing orderings of `g`'s pattern, one per [`OrderingMethod`],
    /// each computed on first request ([`EvalPlan::g_ordering`]).
    g_orderings: [OnceLock<Permutation>; 3],
}

/// Records stamps during compilation: constants go straight into triplet
/// matrices (whose `push` drops an exact `0.0`), nonlinear conductance
/// entries are numbered as slots.
struct Recorder {
    g: TripletMatrix,
    c: TripletMatrix,
    b: TripletMatrix,
    /// `(row, col)` of every nonlinear slot, indexed by slot number.
    slot_cells: Vec<(usize, usize)>,
}

impl Recorder {
    fn push_g(&mut self, row: Option<usize>, col: Option<usize>, value: f64) {
        if let (Some(r), Some(c)) = (row, col) {
            self.g.push(r, c, value);
        }
    }

    /// Allocates a slot for a nonlinear cell, or `None` when the cell touches
    /// ground (the stamp would be discarded anyway).
    fn slot(&mut self, row: Option<usize>, col: Option<usize>) -> Option<usize> {
        self.slot_cells.push((row?, col?));
        Some(self.slot_cells.len() - 1)
    }

    fn push_c(&mut self, row: Option<usize>, col: Option<usize>, value: f64) {
        if let (Some(r), Some(c)) = (row, col) {
            self.c.push(r, c, value);
        }
    }

    fn push_b(&mut self, row: Option<usize>, source: usize, value: f64) {
        if let Some(r) = row {
            self.b.push(r, source, value);
        }
    }

    /// The standard two-terminal conductance stamp with a constant value.
    /// The push order fixes the summation bits of the constant cells.
    fn const_conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        self.push_g(a, a, g);
        self.push_g(b, b, g);
        self.push_g(a, b, -g);
        self.push_g(b, a, -g);
    }

    /// The standard two-terminal capacitance stamp, in the push order of
    /// [`Recorder::const_conductance`].
    fn const_capacitance(&mut self, a: Option<usize>, b: Option<usize>, c: f64) {
        self.push_c(a, a, c);
        self.push_c(b, b, c);
        self.push_c(a, b, -c);
        self.push_c(b, a, -c);
    }
}

fn unknown(node: &NodeId) -> Option<usize> {
    node.unknown()
}

/// `G`'s fixed pattern — the compressed constant stamps united with one cell
/// per nonlinear slot — and each slot's index into its value array.
fn structural_g(constants: &CsrMatrix, slot_cells: &[(usize, usize)]) -> (CsrMatrix, Vec<usize>) {
    let n = constants.rows();
    let mut marks = TripletMatrix::with_capacity(n, n, slot_cells.len());
    for &(r, c) in slot_cells {
        marks.push(r, c, 1.0);
    }
    // The structural union with weight 0 on the marks: a constant cell keeps
    // its bits (`v + 0.0 == v` for `v != 0`), a slot-only cell starts at 0.0.
    let g = CsrMatrix::linear_combination(1.0, constants, 0.0, &marks.to_csr())
        .expect("both operands are n x n");
    let value_index = slot_cells
        .iter()
        .map(|&(r, c)| {
            let (cols, _) = g.row(r);
            g.indptr()[r]
                + cols
                    .binary_search(&c)
                    .expect("every slot cell is in the union")
        })
        .collect();
    (g, value_index)
}

impl EvalPlan {
    /// Compiles a plan for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyCircuit`] for a circuit with no
    /// unknowns.
    pub fn compile(circuit: &Circuit) -> NetlistResult<EvalPlan> {
        let n = circuit.num_unknowns();
        if n == 0 {
            return Err(NetlistError::EmptyCircuit);
        }
        let input_dim = circuit.num_sources().max(1);
        let branch_offset = circuit.num_nodes();
        let gmin = circuit.gmin();
        let mut rec = Recorder {
            g: TripletMatrix::with_capacity(n, n, 8 * circuit.num_devices()),
            c: TripletMatrix::with_capacity(n, n, 4 * circuit.num_devices()),
            b: TripletMatrix::new(n, input_dim),
            slot_cells: Vec::new(),
        };
        let mut kernels = Vec::with_capacity(circuit.num_devices());

        // One pass over the devices in circuit order: that order, with each
        // arm's push order, fixes the summation bits of the constant cells
        // (and `run_kernels` the bits of `f` and `q`), which the goldens pin.
        for device in circuit.devices() {
            match device {
                Device::Resistor {
                    a, b, resistance, ..
                } => {
                    let g = 1.0 / resistance;
                    rec.const_conductance(unknown(a), unknown(b), g);
                    kernels.push(DeviceKernel::Resistor {
                        a: unknown(a),
                        b: unknown(b),
                        conductance: g,
                    });
                }
                Device::Capacitor {
                    a, b, capacitance, ..
                } => {
                    rec.const_capacitance(unknown(a), unknown(b), *capacitance);
                    kernels.push(DeviceKernel::Capacitor {
                        a: unknown(a),
                        b: unknown(b),
                        capacitance: *capacitance,
                    });
                }
                Device::Inductor {
                    a,
                    b,
                    inductance,
                    branch,
                    ..
                } => {
                    let row = branch_offset + branch;
                    rec.push_g(unknown(a), Some(row), 1.0);
                    rec.push_g(unknown(b), Some(row), -1.0);
                    rec.push_c(Some(row), Some(row), *inductance);
                    rec.push_g(Some(row), unknown(a), -1.0);
                    rec.push_g(Some(row), unknown(b), 1.0);
                    kernels.push(DeviceKernel::Inductor {
                        a: unknown(a),
                        b: unknown(b),
                        row,
                        inductance: *inductance,
                    });
                }
                Device::VoltageSource {
                    pos,
                    neg,
                    branch,
                    source,
                    ..
                } => {
                    let row = branch_offset + branch;
                    rec.push_g(unknown(pos), Some(row), 1.0);
                    rec.push_g(unknown(neg), Some(row), -1.0);
                    rec.push_g(Some(row), unknown(pos), 1.0);
                    rec.push_g(Some(row), unknown(neg), -1.0);
                    rec.push_b(Some(row), *source, 1.0);
                    kernels.push(DeviceKernel::VoltageSource {
                        pos: unknown(pos),
                        neg: unknown(neg),
                        row,
                    });
                }
                Device::CurrentSource {
                    from, to, source, ..
                } => {
                    rec.push_b(unknown(to), *source, 1.0);
                    rec.push_b(unknown(from), *source, -1.0);
                    kernels.push(DeviceKernel::Inert);
                }
                Device::Diode {
                    anode,
                    cathode,
                    model,
                    ..
                } => {
                    let (a, c) = (unknown(anode), unknown(cathode));
                    let cells = [
                        rec.slot(a, a),
                        rec.slot(c, c),
                        rec.slot(a, c),
                        rec.slot(c, a),
                    ];
                    rec.const_capacitance(a, c, model.junction_capacitance);
                    kernels.push(DeviceKernel::Diode {
                        anode: a,
                        cathode: c,
                        model: model.clone(),
                        cells,
                    });
                }
                Device::Mosfet {
                    drain,
                    gate,
                    source,
                    model,
                    ..
                } => {
                    let (d, g, s) = (unknown(drain), unknown(gate), unknown(source));
                    let cells = [
                        rec.slot(d, d),
                        rec.slot(d, g),
                        rec.slot(d, s),
                        rec.slot(s, d),
                        rec.slot(s, g),
                        rec.slot(s, s),
                    ];
                    rec.const_conductance(d, s, gmin);
                    rec.const_capacitance(g, s, model.cgs);
                    rec.const_capacitance(g, d, model.cgd);
                    kernels.push(DeviceKernel::Mosfet {
                        drain: d,
                        gate: g,
                        source: s,
                        model: model.clone(),
                        cells,
                    });
                }
            }
        }

        // The kernels recorded slot numbers; now that the pattern is known,
        // point each at its cell's position in `G`'s value array.
        let (g, value_index) = structural_g(&rec.g.to_csr(), &rec.slot_cells);
        for kernel in &mut kernels {
            let cells: &mut [Option<usize>] = match kernel {
                DeviceKernel::Diode { cells, .. } => cells,
                DeviceKernel::Mosfet { cells, .. } => cells,
                _ => continue,
            };
            for cell in cells.iter_mut().flatten() {
                *cell = value_index[*cell];
            }
        }
        let mut nl_cells = value_index;
        nl_cells.sort_unstable();
        nl_cells.dedup();
        Ok(EvalPlan {
            n,
            input_dim,
            g,
            c: rec.c.to_csr(),
            b: rec.b.to_csr(),
            kernels,
            nl_slots: rec.slot_cells.len(),
            nl_cells,
            gmin,
            g_orderings: Default::default(),
        })
    }

    /// Number of MNA unknowns the plan was compiled for.
    pub fn num_unknowns(&self) -> usize {
        self.n
    }

    /// Number of entries of the input vector `u(t)` the plan's `B` matrix
    /// multiplies ([`Circuit::input_dim`]).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The constant source-incidence matrix `B`
    /// (`num_unknowns × num_sources.max(1)`), assembled once at compile
    /// time.
    pub fn input_matrix(&self) -> &CsrMatrix {
        &self.b
    }

    /// Number of nonlinear scatter slots — the matrix entries rewritten per
    /// evaluation (and the per-evaluation increment of the engines'
    /// `restamped_entries` counter). Zero for a purely linear circuit.
    pub fn nonlinear_stamp_count(&self) -> usize {
        self.nl_slots
    }

    /// The value positions of `G` the nonlinear slots write, ascending and
    /// each once: the only cells of an evaluated `G` that depend on `x`.
    /// Every other value is a compile-time constant, restored with the same
    /// bits by every evaluation. Several slots can share a cell (two
    /// devices on one node pair), so this can be shorter than
    /// [`EvalPlan::nonlinear_stamp_count`].
    pub fn nonlinear_cells(&self) -> &[usize] {
        &self.nl_cells
    }

    /// The `gmin` value baked into the plan's nonlinear kernels.
    pub fn gmin(&self) -> f64 {
        self.gmin
    }

    /// The fill-reducing column ordering of `G`'s fixed pattern under
    /// `method`, computed on the first request and then shared by every
    /// session holding this plan. An ordering depends on the pattern alone,
    /// so every `G` the plan evaluates factorizes under it exactly as under
    /// its own ([`exi_sparse::SparseLu::factorize_ordered`]); the row pivots
    /// stay each factorization's own. The flag is `true` for the one call
    /// that computed the ordering.
    pub fn g_ordering(&self, method: OrderingMethod) -> (&Permutation, bool) {
        let slot = &self.g_orderings[match method {
            OrderingMethod::Natural => 0,
            OrderingMethod::Rcm => 1,
            OrderingMethod::MinDegree => 2,
        }];
        let mut computed = false;
        let q = slot.get_or_init(|| {
            computed = true;
            compute_ordering(&self.g, method)
        });
        (q, computed)
    }

    /// Creates the workspace [`EvalPlan::evaluate_into`] counts its buffer
    /// warm-ups in.
    pub fn new_workspace(&self) -> EvalWorkspace {
        EvalWorkspace::default()
    }

    /// Creates an [`Evaluation`] whose buffers are pre-sized for this plan,
    /// so the first [`EvalPlan::evaluate_into`] into it already runs
    /// allocation-free. Its `g` and `c` hold the compiled constants on the
    /// fixed patterns: `0.0` in a cell only nonlinear slots write.
    pub fn new_evaluation(&self) -> Evaluation {
        Evaluation {
            c: self.c.clone(),
            g: self.g.clone(),
            f: Vec::with_capacity(self.n),
            q: Vec::with_capacity(self.n),
        }
    }

    /// Evaluates all devices at state `x`, restamping `out` in place, and
    /// returns the number of nonlinear entries rewritten
    /// ([`EvalPlan::nonlinear_stamp_count`]).
    ///
    /// `out.g` and `out.c` come back on the plan's fixed patterns at every
    /// `x` (see the module docs), sharing the plan's pattern handles: a
    /// restamp copies values only. `out`'s previous contents are irrelevant
    /// — only its value buffers' capacity is reused.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` does not have
    /// [`EvalPlan::num_unknowns`] entries.
    pub fn evaluate_into(
        &self,
        x: &[f64],
        ws: &mut EvalWorkspace,
        out: &mut Evaluation,
    ) -> NetlistResult<usize> {
        if x.len() != self.n {
            return Err(NetlistError::Parse {
                line: 0,
                message: format!(
                    "state vector length {} does not match {} unknowns",
                    x.len(),
                    self.n
                ),
            });
        }
        reset_vec(&mut out.f, self.n, 0.0, &mut ws.allocations);
        reset_vec(&mut out.q, self.n, 0.0, &mut ws.allocations);
        restore(&self.g, &mut out.g, &mut ws.allocations);
        restore(&self.c, &mut out.c, &mut ws.allocations);
        self.run_kernels(x, &mut out.f, &mut out.q, out.g.values_mut());
        Ok(self.nl_slots)
    }

    /// Allocating convenience around [`EvalPlan::evaluate_into`] for tests,
    /// examples and other cold paths.
    ///
    /// # Errors
    ///
    /// As [`EvalPlan::evaluate_into`].
    pub fn evaluate(&self, x: &[f64]) -> NetlistResult<Evaluation> {
        let mut ws = self.new_workspace();
        let mut out = self.new_evaluation();
        self.evaluate_into(x, &mut ws, &mut out)?;
        Ok(out)
    }

    /// Runs the per-device kernels in device order: `f`/`q` accumulation
    /// (the order fixes their summation bits, which the goldens pin) and the
    /// nonlinear conductance stamps, scatter-added onto the constants already
    /// in `g`.
    fn run_kernels(&self, x: &[f64], f: &mut [f64], q: &mut [f64], g: &mut [f64]) {
        let v = |idx: Option<usize>| idx.map_or(0.0, |i| x[i]);
        let add = |buf: &mut [f64], idx: Option<usize>, val: f64| {
            if let Some(i) = idx {
                buf[i] += val;
            }
        };
        for kernel in &self.kernels {
            match kernel {
                DeviceKernel::Resistor { a, b, conductance } => {
                    let i = conductance * (v(*a) - v(*b));
                    add(f, *a, i);
                    add(f, *b, -i);
                }
                DeviceKernel::Capacitor { a, b, capacitance } => {
                    let qc = capacitance * (v(*a) - v(*b));
                    add(q, *a, qc);
                    add(q, *b, -qc);
                }
                DeviceKernel::Inductor {
                    a,
                    b,
                    row,
                    inductance,
                } => {
                    let il = x[*row];
                    let (va, vb) = (v(*a), v(*b));
                    add(f, *a, il);
                    add(f, *b, -il);
                    q[*row] += inductance * il;
                    f[*row] += -(va - vb);
                }
                DeviceKernel::VoltageSource { pos, neg, row } => {
                    let i = x[*row];
                    let (vp, vn) = (v(*pos), v(*neg));
                    add(f, *pos, i);
                    add(f, *neg, -i);
                    f[*row] += vp - vn;
                }
                DeviceKernel::Inert => {}
                DeviceKernel::Diode {
                    anode,
                    cathode,
                    model,
                    cells,
                } => {
                    let vd = v(*anode) - v(*cathode);
                    let op = model.evaluate(vd);
                    add(f, *anode, op.current);
                    add(f, *cathode, -op.current);
                    let gd = op.conductance + self.gmin;
                    add(g, cells[0], gd);
                    add(g, cells[1], gd);
                    add(g, cells[2], -gd);
                    add(g, cells[3], -gd);
                    let qd = model.junction_capacitance * vd;
                    add(q, *anode, qd);
                    add(q, *cathode, -qd);
                }
                DeviceKernel::Mosfet {
                    drain,
                    gate,
                    source,
                    model,
                    cells,
                } => {
                    let (vd, vg, vs) = (v(*drain), v(*gate), v(*source));
                    let op = model.evaluate(vg - vs, vd - vs);
                    add(f, *drain, op.ids);
                    add(f, *source, -op.ids);
                    let gm = op.gm;
                    let gds = op.gds;
                    add(g, cells[0], gds);
                    add(g, cells[1], gm);
                    add(g, cells[2], -(gm + gds));
                    add(g, cells[3], -gds);
                    add(g, cells[4], -gm);
                    add(g, cells[5], gm + gds);
                    let qgs = model.cgs * (vg - vs);
                    add(q, *gate, qgs);
                    add(q, *source, -qgs);
                    let qgd = model.cgd * (vg - vd);
                    add(q, *gate, qgd);
                    add(q, *drain, -qgd);
                }
            }
        }
    }
}

/// A structural+parametric fingerprint of a circuit, suitable as a cache key
/// for sharing compiled [`EvalPlan`]s across same-structure jobs (see
/// `exi_sim::PlanCache`).
///
/// Two circuits map to the same key exactly when they compile to
/// interchangeable plans: same unknown layout, same device sequence with the
/// same terminals and parameter values, same `gmin`. Device *names* and
/// source *waveforms* are deliberately excluded — neither enters the plan
/// (waveforms are evaluated separately via
/// [`Circuit::input_vector`](crate::Circuit::input_vector)).
pub fn circuit_fingerprint(circuit: &Circuit) -> Vec<u8> {
    let mut key = Vec::with_capacity(16 + 40 * circuit.num_devices());
    let push_u64 = |key: &mut Vec<u8>, v: u64| key.extend_from_slice(&v.to_le_bytes());
    push_u64(&mut key, circuit.num_unknowns() as u64);
    push_u64(&mut key, circuit.num_nodes() as u64);
    push_u64(&mut key, circuit.gmin().to_bits());
    let node = |n: &NodeId| n.unknown().map_or(u64::MAX, |u| u as u64);
    for device in circuit.devices() {
        match device {
            Device::Resistor {
                a, b, resistance, ..
            } => {
                key.push(1);
                push_u64(&mut key, node(a));
                push_u64(&mut key, node(b));
                push_u64(&mut key, resistance.to_bits());
            }
            Device::Capacitor {
                a, b, capacitance, ..
            } => {
                key.push(2);
                push_u64(&mut key, node(a));
                push_u64(&mut key, node(b));
                push_u64(&mut key, capacitance.to_bits());
            }
            Device::Inductor {
                a,
                b,
                inductance,
                branch,
                ..
            } => {
                key.push(3);
                push_u64(&mut key, node(a));
                push_u64(&mut key, node(b));
                push_u64(&mut key, *branch as u64);
                push_u64(&mut key, inductance.to_bits());
            }
            Device::VoltageSource {
                pos,
                neg,
                branch,
                source,
                ..
            } => {
                key.push(4);
                push_u64(&mut key, node(pos));
                push_u64(&mut key, node(neg));
                push_u64(&mut key, *branch as u64);
                push_u64(&mut key, *source as u64);
            }
            Device::CurrentSource {
                from, to, source, ..
            } => {
                key.push(5);
                push_u64(&mut key, node(from));
                push_u64(&mut key, node(to));
                push_u64(&mut key, *source as u64);
            }
            Device::Diode {
                anode,
                cathode,
                model,
                ..
            } => {
                key.push(6);
                push_u64(&mut key, node(anode));
                push_u64(&mut key, node(cathode));
                push_u64(&mut key, model.saturation_current.to_bits());
                push_u64(&mut key, model.emission_coefficient.to_bits());
                push_u64(&mut key, model.thermal_voltage.to_bits());
                push_u64(&mut key, model.junction_capacitance.to_bits());
            }
            Device::Mosfet {
                drain,
                gate,
                source,
                model,
                ..
            } => {
                key.push(7);
                push_u64(&mut key, node(drain));
                push_u64(&mut key, node(gate));
                push_u64(&mut key, node(source));
                key.push(match model.polarity {
                    crate::devices::MosfetPolarity::Nmos => 0,
                    crate::devices::MosfetPolarity::Pmos => 1,
                });
                push_u64(&mut key, model.threshold.to_bits());
                push_u64(&mut key, model.transconductance.to_bits());
                push_u64(&mut key, model.lambda.to_bits());
                push_u64(&mut key, model.width.to_bits());
                push_u64(&mut key, model.length.to_bits());
                push_u64(&mut key, model.cgs.to_bits());
                push_u64(&mut key, model.cgd.to_bits());
            }
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    fn mixed_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let mid = ckt.node("mid");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("Vdd", vdd, gnd, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_voltage_source("Vin", inp, gnd, Waveform::Dc(0.4))
            .unwrap();
        ckt.add_mosfet("MN", out, inp, gnd, MosfetModel::nmos())
            .unwrap();
        ckt.add_mosfet("MP", out, inp, vdd, MosfetModel::pmos())
            .unwrap();
        ckt.add_resistor("R1", out, mid, 2e3).unwrap();
        ckt.add_capacitor("C1", mid, gnd, 1e-13).unwrap();
        ckt.add_inductor("L1", mid, gnd, 1e-9).unwrap();
        ckt.add_diode("D1", mid, gnd, DiodeModel::default())
            .unwrap();
        ckt.add_current_source("I1", gnd, mid, Waveform::Dc(1e-4))
            .unwrap();
        ckt
    }

    fn assert_bits_equal(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    fn assert_csr_bits_equal(a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(a.indptr(), b.indptr());
        assert_eq!(a.indices(), b.indices());
        assert_bits_equal(a.values(), b.values());
    }

    /// One device alone on the nodes `a`, `b`, `c` (plus branch unknown 3 for
    /// an inductor or a voltage source), evaluated at `x`, against its stamp
    /// table: `G`, `C`, `B`'s one column, `f` and `q` worked out by hand from
    /// the device equations. Each entry agrees to 1e-12 relative; an expected
    /// `0.0` is an exact zero.
    fn assert_stamp_table(
        add: impl FnOnce(&mut Circuit, [NodeId; 3]),
        x: &[f64],
        g: &[&[f64]],
        c: &[&[f64]],
        b: &[f64],
        f: &[f64],
        q: &[f64],
    ) {
        let mut ckt = Circuit::new();
        let nodes = [ckt.node("a"), ckt.node("b"), ckt.node("c")];
        add(&mut ckt, nodes);
        assert_eq!(ckt.num_unknowns(), x.len());
        let plan = ckt.compile_plan().unwrap();
        let ev = plan.evaluate(x).unwrap();
        let check = |what: String, got: f64, want: f64| {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{what}: {got:e}, expected {want:e}"
            );
        };
        for i in 0..x.len() {
            for j in 0..x.len() {
                check(format!("G({i},{j})"), ev.g.get(i, j), g[i][j]);
                check(format!("C({i},{j})"), ev.c.get(i, j), c[i][j]);
            }
            check(format!("B({i},0)"), plan.input_matrix().get(i, 0), b[i]);
            check(format!("f[{i}]"), ev.f[i], f[i]);
            check(format!("q[{i}]"), ev.q[i], q[i]);
        }
    }

    /// The node voltages of every stamp table: `v_a - v_b = 0.7`,
    /// `v_b - v_c = 0.6`, `v_a - v_c = 1.3`.
    const V: [f64; 3] = [0.9, 0.2, -0.4];
    const ZERO: &[f64] = &[0.0; 4];

    #[test]
    fn resistor_stamp_table() {
        // 2 kΩ from a to b: g = 5e-4 S carries 5e-4 · 0.7 = 3.5e-4 A.
        assert_stamp_table(
            |ckt, [a, b, _]| ckt.add_resistor("R", a, b, 2e3).unwrap(),
            &V,
            &[&[5e-4, -5e-4, 0.0], &[-5e-4, 5e-4, 0.0], ZERO],
            &[ZERO; 3],
            ZERO,
            &[3.5e-4, -3.5e-4, 0.0],
            ZERO,
        );
    }

    #[test]
    fn capacitor_stamp_table() {
        // 1 pF from b to c holds 1e-12 · 0.6 = 6e-13 C.
        assert_stamp_table(
            |ckt, [_, b, c]| ckt.add_capacitor("C", b, c, 1e-12).unwrap(),
            &V,
            &[ZERO; 3],
            &[ZERO, &[0.0, 1e-12, -1e-12], &[0.0, -1e-12, 1e-12]],
            ZERO,
            ZERO,
            &[0.0, 6e-13, -6e-13],
        );
    }

    #[test]
    fn inductor_stamp_table() {
        // 1 nH from a to c carrying i = 2 mA from a to c: KCL rows get ±i,
        // the branch row `L·di/dt - (v_a - v_c) = 0` gets f = -1.3, q = L·i.
        assert_stamp_table(
            |ckt, [a, _, c]| ckt.add_inductor("L", a, c, 1e-9).unwrap(),
            &[0.9, 0.2, -0.4, 2e-3],
            &[
                &[0.0, 0.0, 0.0, 1.0],
                ZERO,
                &[0.0, 0.0, 0.0, -1.0],
                &[-1.0, 0.0, 1.0, 0.0],
            ],
            &[ZERO, ZERO, ZERO, &[0.0, 0.0, 0.0, 1e-9]],
            ZERO,
            &[2e-3, 0.0, -2e-3, -1.3],
            &[0.0, 0.0, 0.0, 2e-12],
        );
    }

    #[test]
    fn voltage_source_stamp_table() {
        // From a (+) to b carrying i = -1 mA: KCL rows get ±i, the branch
        // row `v_a - v_b = u` gets f = 0.7 and B = 1.
        assert_stamp_table(
            |ckt, [a, b, _]| {
                ckt.add_voltage_source("V", a, b, Waveform::Dc(0.7))
                    .unwrap()
            },
            &[0.9, 0.2, -0.4, -1e-3],
            &[
                &[0.0, 0.0, 0.0, 1.0],
                &[0.0, 0.0, 0.0, -1.0],
                ZERO,
                &[1.0, -1.0, 0.0, 0.0],
            ],
            &[ZERO; 4],
            &[0.0, 0.0, 0.0, 1.0],
            &[-1e-3, 1e-3, 0.0, 0.7],
            ZERO,
        );
    }

    #[test]
    fn current_source_stamp_table() {
        // Drawn from b, injected into c: only B.
        assert_stamp_table(
            |ckt, [_, b, c]| {
                ckt.add_current_source("I", b, c, Waveform::Dc(1e-3))
                    .unwrap()
            },
            &V,
            &[ZERO; 3],
            &[ZERO; 3],
            &[0.0, -1.0, 1.0],
            ZERO,
            ZERO,
        );
    }

    #[test]
    fn diode_stamp_table() {
        // Anode b, cathode c: v_d = 0.6 V = 20·n·V_T with V_T = 30 mV, so
        // i = I_S·(e^20 - 1) = 4.851651944097903e-6 A and
        // g_d = I_S·e^20/V_T = 1.6172173180326343e-4 S, plus gmin = 1e-12 S
        // in G only; q = C_j·v_d = 1.2e-15 C.
        let model = DiodeModel {
            saturation_current: 1e-14,
            emission_coefficient: 1.0,
            thermal_voltage: 0.03,
            junction_capacitance: 2e-15,
        };
        let gd = 1.6172173280326343e-4;
        let i = 4.851651944097903e-6;
        assert_stamp_table(
            |ckt, [_, b, c]| ckt.add_diode("D", b, c, model).unwrap(),
            &V,
            &[ZERO, &[0.0, gd, -gd], &[0.0, -gd, gd]],
            &[ZERO, &[0.0, 2e-15, -2e-15], &[0.0, -2e-15, 2e-15]],
            ZERO,
            &[0.0, i, -i],
            &[0.0, 1.2e-15, -1.2e-15],
        );
    }

    #[test]
    fn mosfet_stamp_table() {
        // Drain a, gate b, source c of the default NMOS (V_th = 0.4,
        // β = k'·W/L = 2e-3, λ = 0.05): v_gs = 0.6, v_ov = 0.2 < v_ds = 1.3
        // saturates, so with 1 + λ·v_ds = 1.065
        // i_ds = β/2·v_ov²·1.065 = 4.26e-5 A, g_m = β·v_ov·1.065 = 4.26e-4 S,
        // g_ds = β/2·v_ov²·λ = 2e-6 S, plus gmin = 1e-12 S drain to source.
        // Charges: q_gs = 0.5 fF · 0.6, q_gd = 0.3 fF · (0.2 - 0.9).
        let (dd, ds) = (2.000001e-6, 4.28000001e-4);
        assert_stamp_table(
            |ckt, [a, b, c]| ckt.add_mosfet("M", a, b, c, MosfetModel::nmos()).unwrap(),
            &V,
            &[&[dd, 4.26e-4, -ds], ZERO, &[-dd, -4.26e-4, ds]],
            &[
                &[3e-16, -3e-16, 0.0],
                &[-3e-16, 8e-16, -5e-16],
                &[0.0, -5e-16, 5e-16],
            ],
            ZERO,
            &[4.26e-5, 0.0, -4.26e-5],
            &[2.1e-16, 9e-17, -3e-16],
        );
    }

    #[test]
    fn a_restamp_shares_the_plans_patterns_whatever_the_evaluation_held() {
        let ckt = mixed_circuit();
        let plan = ckt.compile_plan().unwrap();
        let n = ckt.num_unknowns();
        let x: Vec<f64> = (0..n).map(|i| 0.2 * i as f64 - 0.3).collect();
        let expected = plan.evaluate(&x).unwrap();
        let shared = |a: &CsrMatrix, b: &CsrMatrix| {
            a.indptr().as_ptr() == b.indptr().as_ptr()
                && a.indices().as_ptr() == b.indices().as_ptr()
        };
        // An evaluation another plan made: previous contents are irrelevant.
        let mut foreign = Circuit::new();
        let a = foreign.node("a");
        let gnd = foreign.node("0");
        foreign
            .add_voltage_source("V", a, gnd, Waveform::Dc(1.0))
            .unwrap();
        foreign.add_resistor("R", a, gnd, 1e3).unwrap();
        let mut ev = foreign.compile_plan().unwrap().new_evaluation();
        let mut ws = plan.new_workspace();
        for _ in 0..2 {
            plan.evaluate_into(&x, &mut ws, &mut ev).unwrap();
            assert_csr_bits_equal(&ev.g, &expected.g);
            assert_csr_bits_equal(&ev.c, &expected.c);
            assert_bits_equal(&ev.f, &expected.f);
            assert_bits_equal(&ev.q, &expected.q);
            assert!(shared(&ev.g, &expected.g) && shared(&ev.c, &expected.c));
        }
        // The smaller buffers grew once, on the first restamp.
        let grown = ws.allocations();
        assert!(grown > 0);
        plan.evaluate_into(&x, &mut ws, &mut ev).unwrap();
        assert_eq!(ws.allocations(), grown);
        // The plan's own evaluations restamp without allocating.
        let mut ws = plan.new_workspace();
        let mut own = plan.new_evaluation();
        plan.evaluate_into(&x, &mut ws, &mut own).unwrap();
        assert!(shared(&own.g, &expected.g) && shared(&own.c, &expected.c));
        assert_eq!(ws.allocations(), 0);
    }

    #[test]
    fn nonlinear_cells_are_the_g_values_the_devices_write() {
        let ckt = mixed_circuit();
        let plan = ckt.compile_plan().unwrap();
        let cells = plan.nonlinear_cells();
        assert!(cells.windows(2).all(|w| w[0] < w[1]));
        assert!(!cells.is_empty() && cells.len() <= plan.nonlinear_stamp_count());
        // Every other value is the same at any state, on one pattern, and
        // restamps through pre-sized buffers allocate nothing.
        let n = ckt.num_unknowns();
        let at = |scale: f64| (0..n).map(|i| scale * i as f64).collect::<Vec<_>>();
        let mut ws = plan.new_workspace();
        let [mut a, mut b] = [(); 2].map(|_| plan.new_evaluation());
        for (x, ev) in [(at(0.1), &mut a), (at(-0.7), &mut b)] {
            let restamped = plan.evaluate_into(&x, &mut ws, ev).unwrap();
            assert_eq!(restamped, plan.nonlinear_stamp_count());
        }
        assert_eq!(a.g.indices(), b.g.indices());
        let moved: Vec<usize> = (0..a.g.nnz())
            .filter(|&k| a.g.values()[k].to_bits() != b.g.values()[k].to_bits())
            .collect();
        assert!(!moved.is_empty());
        assert!(
            moved.iter().all(|k| cells.binary_search(k).is_ok()),
            "{moved:?} vs {cells:?}"
        );
        assert_csr_bits_equal(&a.c, &b.c);
        // At x = 0 both MOSFETs are in cut-off: the cells only their slots
        // write (no compiled constant) stay in the pattern as exact zeros.
        let constants = plan.new_evaluation().g;
        plan.evaluate_into(&at(0.0), &mut ws, &mut a).unwrap();
        let slot_only: Vec<usize> = cells
            .iter()
            .copied()
            .filter(|&k| constants.values()[k] == 0.0)
            .collect();
        assert!(!slot_only.is_empty());
        assert!(slot_only.iter().all(|&k| a.g.values()[k] == 0.0));
        assert_eq!(a.g.indices(), b.g.indices());
        assert_eq!(ws.allocations(), 0);
    }

    #[test]
    fn g_ordering_is_computed_once_per_method_from_the_fixed_pattern() {
        let ckt = mixed_circuit();
        let plan = ckt.compile_plan().unwrap();
        let n = ckt.num_unknowns();
        for method in [
            OrderingMethod::Natural,
            OrderingMethod::Rcm,
            OrderingMethod::MinDegree,
        ] {
            let (first, computed) = plan.g_ordering(method);
            assert!(computed, "{method:?}: the first request computes it");
            let first = first.clone();
            let (again, computed) = plan.g_ordering(method);
            assert!(!computed, "{method:?}: later requests find it");
            assert_eq!(again, &first);
            // Whatever the state, an evaluated `G` orders exactly the same.
            for x in [vec![0.0; n], (0..n).map(|i| 0.3 * i as f64).collect()] {
                let g = plan.evaluate(&x).unwrap().g;
                assert_eq!(compute_ordering(&g, method), first, "{method:?}");
            }
        }
    }

    #[test]
    fn compile_rejects_empty_circuits() {
        let ckt = Circuit::new();
        assert!(matches!(
            EvalPlan::compile(&ckt),
            Err(NetlistError::EmptyCircuit)
        ));
    }

    #[test]
    fn evaluate_into_validates_state_length() {
        let ckt = mixed_circuit();
        let plan = ckt.compile_plan().unwrap();
        let mut ws = plan.new_workspace();
        let mut ev = plan.new_evaluation();
        assert!(matches!(
            plan.evaluate_into(&[0.0], &mut ws, &mut ev),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn fingerprints_ignore_names_and_waveforms_but_not_values() {
        let base = mixed_circuit();
        let mut renamed = Circuit::new();
        {
            let vdd = renamed.node("vdd");
            let inp = renamed.node("in");
            let out = renamed.node("out");
            let mid = renamed.node("mid");
            let gnd = renamed.node("0");
            renamed
                .add_voltage_source("Vsupply", vdd, gnd, Waveform::Dc(3.3))
                .unwrap();
            renamed
                .add_voltage_source("Vstim", inp, gnd, Waveform::Dc(0.0))
                .unwrap();
            renamed
                .add_mosfet("M_a", out, inp, gnd, MosfetModel::nmos())
                .unwrap();
            renamed
                .add_mosfet("M_b", out, inp, vdd, MosfetModel::pmos())
                .unwrap();
            renamed.add_resistor("Rx", out, mid, 2e3).unwrap();
            renamed.add_capacitor("Cx", mid, gnd, 1e-13).unwrap();
            renamed.add_inductor("Lx", mid, gnd, 1e-9).unwrap();
            renamed
                .add_diode("Dx", mid, gnd, DiodeModel::default())
                .unwrap();
            renamed
                .add_current_source("Ix", gnd, mid, Waveform::Dc(5.0))
                .unwrap();
        }
        assert_eq!(circuit_fingerprint(&base), circuit_fingerprint(&renamed));
        // A changed parameter value changes the key.
        let mut other = mixed_circuit();
        other.set_gmin(1e-9);
        assert_ne!(circuit_fingerprint(&base), circuit_fingerprint(&other));
    }
}

//! The SPICE-deck front-end: subcircuits, parameters, includes and analysis
//! cards.
//!
//! [`parse_deck`] (and the file-based [`parse_deck_file`]) grow the flat
//! element subset of [`crate::parser`] into a real deck grammar:
//!
//! * `.subckt <name> <ports…>` / `.ends` definitions with `X<name> <nodes…>
//!   <subckt>` instantiation — instances are flattened hierarchically, with
//!   internal nodes named `path.node` and devices `path.name` (`X1.R1`,
//!   `X1.X2.mid`, …), so the solver stack below sees an ordinary flat
//!   [`Circuit`].
//! * `.param <name>=<value>` constants with expression-free `{name}`
//!   substitution in any later token (including subcircuit bodies and other
//!   `.param` values).
//! * `.include <path>` file inclusion with cycle detection (file entry points
//!   only).
//! * `+` continuation lines, `*`/`//` comments and a `.title` card.
//! * Analysis cards parsed into [`Deck::analyses`] / [`Deck::prints`]:
//!   `.tran <step> <stop> [hmax]`, `.op` (and its bare-`.dc` alias),
//!   `.print [tran] v(<node>)…`, `.options gmin=<v>`.
//!
//! The result is a [`Deck`]: the flattened circuit plus everything a driver
//! (the `exi-cli` binary, a batch sweep) needs to run it. [`Deck::to_spice`]
//! writes the exact inverse — full-precision values that reparse
//! bit-identically — which is how the checked-in `tests/decks/*.sp` fixtures
//! are generated from the workload generators.
//!
//! # Examples
//!
//! A deck with a subcircuit, a parameter and analysis cards:
//!
//! ```
//! use exi_netlist::{parse_deck, Analysis};
//!
//! # fn main() -> Result<(), exi_netlist::NetlistError> {
//! let deck = parse_deck(
//!     "* parameterized rc lowpass\n\
//!      .param rload=1k\n\
//!      .subckt lowpass in out\n\
//!      R1 in out {rload}\n\
//!      C1 out 0 1p\n\
//!      .ends\n\
//!      Vin in 0 PULSE(0 1 0 1n 1n 5n)\n\
//!      X1 in out lowpass\n\
//!      .tran 1p 2n\n\
//!      .print v(out)\n\
//!      .end\n",
//! )?;
//! assert_eq!(deck.circuit.num_devices(), 3); // Vin, X1.R1, X1.C1
//! assert!(deck.circuit.unknown_of("X1.out").is_none()); // "out" is a port
//! assert!(deck.circuit.unknown_of("out").is_some());
//! assert_eq!(deck.prints, vec!["out"]);
//! assert!(matches!(deck.analyses[0], Analysis::Tran { .. }));
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::circuit::Circuit;
use crate::devices::{Device, MosfetPolarity};
use crate::error::{NetlistError, NetlistResult};
use crate::node::is_ground_name;
use crate::parser::{parse_element, parse_value, tokenize, ElementScope};
use crate::waveform::Waveform;

/// One analysis requested by a deck.
#[derive(Debug, Clone, PartialEq)]
pub enum Analysis {
    /// `.tran <step> <stop> [hmax]` — a transient analysis over
    /// `[0, stop]` seconds with suggested initial step `step` and an optional
    /// step-size ceiling.
    Tran {
        /// Suggested initial step size in seconds.
        step: f64,
        /// End of the simulated interval in seconds.
        stop: f64,
        /// Optional largest step size the adaptive control may grow to.
        h_max: Option<f64>,
    },
    /// `.op` (or a bare `.dc`) — the DC operating point.
    OperatingPoint,
}

/// A parsed SPICE deck: the flattened circuit plus its analysis cards.
///
/// Produced by [`parse_deck`] / [`parse_deck_file`]; consumed by the
/// `exi-cli` front-end, which maps each [`Analysis`] onto a
/// `Simulator` run. [`Deck::to_spice`] serializes the deck back to SPICE
/// text with full-precision values, so `parse(to_spice(deck))` reproduces
/// the circuit bit-for-bit (same `circuit_fingerprint`, same waveforms).
#[derive(Debug, Clone)]
pub struct Deck {
    /// The `.title` card, if present.
    pub title: Option<String>,
    /// The flattened circuit (subcircuits expanded, parameters substituted).
    pub circuit: Circuit,
    /// Analyses in deck order.
    pub analyses: Vec<Analysis>,
    /// Node names collected from `.print` cards, in deck order.
    pub prints: Vec<String>,
    /// `.options reltol=<v>` — the relative error budget a driver should
    /// hand its transient engines (`None` keeps the engine default). The
    /// circuit-level `.options gmin=<v>` is applied to [`Deck::circuit`]
    /// directly.
    pub reltol: Option<f64>,
}

impl Deck {
    /// Wraps an existing circuit in a deck with no analyses or prints.
    pub fn new(circuit: Circuit) -> Self {
        Deck {
            title: None,
            circuit,
            analyses: Vec::new(),
            prints: Vec::new(),
            reltol: None,
        }
    }

    /// The probe names a run of this deck records: the explicit `overrides`
    /// when non-empty, else the deck's `.print` cards, else every non-ground
    /// node in unknown order. Every deck driver (`exi-cli run`/`sweep`, the
    /// `exi-serve` daemon) resolves its probes through this one cascade, so
    /// the same deck probes the same columns everywhere.
    pub fn effective_probes(&self, overrides: &[String]) -> Vec<String> {
        if !overrides.is_empty() {
            return overrides.to_vec();
        }
        if !self.prints.is_empty() {
            return self.prints.clone();
        }
        self.circuit
            .node_names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Serializes the deck to SPICE text that [`parse_deck`] reads back
    /// bit-identically.
    ///
    /// Values are printed with 17 significant digits (every finite `f64`
    /// round-trips exactly), devices in construction order, and the
    /// circuit's `gmin` as an explicit `.options` card — a reparsed deck
    /// therefore has the same [`crate::circuit_fingerprint`] as the
    /// original. This is the generator behind the `tests/decks/*.sp`
    /// fixtures.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Parse`] (with line 0) for circuits that have
    /// no SPICE spelling: device names whose first letter does not match
    /// their kind, or names/nodes containing whitespace or deck
    /// metacharacters.
    pub fn to_spice(&self) -> NetlistResult<String> {
        let mut out = String::new();
        writeln!(out, "* generated by exi-netlist Deck::to_spice").unwrap();
        if let Some(title) = &self.title {
            writeln!(out, ".title {title}").unwrap();
        }
        write!(out, ".options gmin={}", fmt_value(self.circuit.gmin())?).unwrap();
        if let Some(reltol) = self.reltol {
            write!(out, " reltol={}", fmt_value(reltol)?).unwrap();
        }
        out.push('\n');
        for device in self.circuit.devices() {
            out.push_str(&self.device_line(device)?);
            out.push('\n');
        }
        if !self.prints.is_empty() {
            out.push_str(".print tran");
            for p in &self.prints {
                check_token(p, "probe node")?;
                write!(out, " v({p})").unwrap();
            }
            out.push('\n');
        }
        for analysis in &self.analyses {
            match analysis {
                Analysis::Tran { step, stop, h_max } => {
                    write!(out, ".tran {} {}", fmt_value(*step)?, fmt_value(*stop)?).unwrap();
                    if let Some(h) = h_max {
                        write!(out, " {}", fmt_value(*h)?).unwrap();
                    }
                    out.push('\n');
                }
                Analysis::OperatingPoint => out.push_str(".op\n"),
            }
        }
        out.push_str(".end\n");
        Ok(out)
    }

    /// One serialized element line.
    fn device_line(&self, device: &Device) -> NetlistResult<String> {
        let node = |id: &crate::NodeId| -> NetlistResult<String> {
            let name = self.circuit.node_name(*id);
            check_token(name, "node name")?;
            Ok(name.to_string())
        };
        let name = |name: &str, kind: char| -> NetlistResult<String> {
            check_token(name, "device name")?;
            if name
                .chars()
                .next()
                .is_none_or(|c| c.to_ascii_uppercase() != kind)
            {
                return Err(NetlistError::Parse {
                    line: 0,
                    message: format!(
                        "cannot serialize device '{name}': name must start with {kind}"
                    ),
                });
            }
            Ok(name.to_string())
        };
        Ok(match device {
            Device::Resistor {
                name: n,
                a,
                b,
                resistance,
            } => format!(
                "{} {} {} {}",
                name(n, 'R')?,
                node(a)?,
                node(b)?,
                fmt_value(*resistance)?
            ),
            Device::Capacitor {
                name: n,
                a,
                b,
                capacitance,
            } => format!(
                "{} {} {} {}",
                name(n, 'C')?,
                node(a)?,
                node(b)?,
                fmt_value(*capacitance)?
            ),
            Device::Inductor {
                name: n,
                a,
                b,
                inductance,
                ..
            } => format!(
                "{} {} {} {}",
                name(n, 'L')?,
                node(a)?,
                node(b)?,
                fmt_value(*inductance)?
            ),
            Device::VoltageSource {
                name: n,
                pos,
                neg,
                source,
                ..
            } => format!(
                "{} {} {} {}",
                name(n, 'V')?,
                node(pos)?,
                node(neg)?,
                waveform_spec(&self.circuit.sources()[*source].1)?
            ),
            Device::CurrentSource {
                name: n,
                from,
                to,
                source,
            } => format!(
                "{} {} {} {}",
                name(n, 'I')?,
                node(from)?,
                node(to)?,
                waveform_spec(&self.circuit.sources()[*source].1)?
            ),
            Device::Diode {
                name: n,
                anode,
                cathode,
                model,
            } => format!(
                "{} {} {} IS={} N={} VT={} CJ={}",
                name(n, 'D')?,
                node(anode)?,
                node(cathode)?,
                fmt_value(model.saturation_current)?,
                fmt_value(model.emission_coefficient)?,
                fmt_value(model.thermal_voltage)?,
                fmt_value(model.junction_capacitance)?
            ),
            Device::Mosfet {
                name: n,
                drain,
                gate,
                source,
                model,
            } => format!(
                "{} {} {} {} {} W={} L={} VT={} KP={} LAMBDA={} CGS={} CGD={}",
                name(n, 'M')?,
                node(drain)?,
                node(gate)?,
                node(source)?,
                match model.polarity {
                    MosfetPolarity::Nmos => "nmos",
                    MosfetPolarity::Pmos => "pmos",
                },
                fmt_value(model.width)?,
                fmt_value(model.length)?,
                fmt_value(model.threshold)?,
                fmt_value(model.transconductance)?,
                fmt_value(model.lambda)?,
                fmt_value(model.cgs)?,
                fmt_value(model.cgd)?
            ),
        })
    }
}

/// Parses a deck from a string. `.include` cards are rejected (there is no
/// directory to resolve them against) — use [`parse_deck_file`] for decks
/// with includes.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with the offending line number for any
/// malformed card, and propagates device-construction errors.
pub fn parse_deck(text: &str) -> NetlistResult<Deck> {
    parse_deck_with_params(text, &[])
}

/// As [`parse_deck`], with external parameter overrides.
///
/// Each `(name, value)` pair behaves like a `.param name=value` card that
/// wins over every `.param` assignment to the same name inside the deck —
/// the substrate of `exi-cli sweep`, which fans one templated deck across a
/// value list.
///
/// # Errors
///
/// As [`parse_deck`].
pub fn parse_deck_with_params(text: &str, overrides: &[(String, String)]) -> NetlistResult<Deck> {
    let mut lines = Vec::new();
    let mut stack = Vec::new();
    preprocess(text, None, None, &mut stack, &mut lines)?;
    build_deck(&lines, overrides)
}

/// Parses a deck from a file, resolving `.include` cards relative to the
/// including file's directory (with cycle detection). Errors are wrapped
/// with the file name via [`NetlistError::in_spec`].
///
/// # Errors
///
/// As [`parse_deck`], plus [`NetlistError::Parse`] for unreadable or cyclic
/// includes.
pub fn parse_deck_file(path: impl AsRef<Path>) -> NetlistResult<Deck> {
    parse_deck_file_with_params(path, &[])
}

/// As [`parse_deck_file`] with external parameter overrides (see
/// [`parse_deck_with_params`]).
///
/// # Errors
///
/// As [`parse_deck_file`].
pub fn parse_deck_file_with_params(
    path: impl AsRef<Path>,
    overrides: &[(String, String)],
) -> NetlistResult<Deck> {
    let path = path.as_ref();
    let spec = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| {
        NetlistError::Parse {
            line: 0,
            message: format!("cannot read deck: {e}"),
        }
        .in_spec(&spec)
    })?;
    let mut lines = Vec::new();
    // Seed the include stack with the root file so a child including its
    // parent is caught as a cycle.
    let mut stack = vec![path.canonicalize().unwrap_or_else(|_| path.to_path_buf())];
    let base = path.parent().map(Path::to_path_buf);
    preprocess(&text, None, base.as_deref(), &mut stack, &mut lines)
        .and_then(|()| build_deck(&lines, overrides))
        .map_err(|e| e.in_spec(&spec))
}

/// One logical deck line after preprocessing (comments stripped, `+`
/// continuations joined, includes inlined). `origin` is `None` for the
/// top-level source and the include path for included lines, so errors can
/// point at the right file.
#[derive(Debug, Clone)]
struct SourceLine {
    origin: Option<String>,
    number: usize,
    text: String,
}

fn err_at(line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        message: message.into(),
    }
}

fn with_origin(e: NetlistError, origin: &Option<String>) -> NetlistError {
    match origin {
        Some(file) => e.in_spec(file.clone()),
        None => e,
    }
}

/// Hard ceiling on nested `.include` depth — cycles are caught exactly by
/// the canonical-path stack; this bounds pathological non-cyclic chains.
const MAX_INCLUDE_DEPTH: usize = 32;

/// Strips comments, joins `+` continuation lines and inlines `.include`d
/// files (resolved against `base`, with `stack` carrying the canonical paths
/// currently being expanded for cycle detection).
fn preprocess(
    text: &str,
    origin: Option<&str>,
    base: Option<&Path>,
    stack: &mut Vec<PathBuf>,
    out: &mut Vec<SourceLine>,
) -> NetlistResult<()> {
    let wrap = |e: NetlistError| match origin {
        Some(file) => e.in_spec(file),
        None => e,
    };
    let mut pending: Option<SourceLine> = None;
    for (idx, raw) in text.lines().enumerate() {
        let number = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') || line.starts_with("//") {
            continue;
        }
        if let Some(rest) = line.strip_prefix('+') {
            let Some(p) = pending.as_mut() else {
                return Err(wrap(err_at(
                    number,
                    "continuation line '+' without a preceding card",
                )));
            };
            p.text.push(' ');
            p.text.push_str(rest.trim());
            continue;
        }
        let first = line.split_whitespace().next().unwrap_or("");
        if first.eq_ignore_ascii_case(".include") {
            if let Some(p) = pending.take() {
                out.push(p);
            }
            let arg = line[first.len()..].trim();
            let arg = arg.trim_matches('"').trim_matches('\'');
            if arg.is_empty() {
                return Err(wrap(err_at(number, ".include: expected a file path")));
            }
            let Some(base) = base else {
                return Err(wrap(err_at(
                    number,
                    ".include requires a file entry point (use parse_deck_file)",
                )));
            };
            let full = base.join(arg);
            let canonical = full.canonicalize().map_err(|e| {
                wrap(err_at(
                    number,
                    format!(".include: cannot resolve '{}': {e}", full.display()),
                ))
            })?;
            if stack.contains(&canonical) {
                return Err(wrap(err_at(
                    number,
                    format!(".include cycle detected at '{arg}'"),
                )));
            }
            if stack.len() >= MAX_INCLUDE_DEPTH {
                return Err(wrap(err_at(
                    number,
                    format!(".include nesting exceeds {MAX_INCLUDE_DEPTH} levels"),
                )));
            }
            let included = std::fs::read_to_string(&canonical).map_err(|e| {
                wrap(err_at(
                    number,
                    format!(".include: cannot read '{}': {e}", full.display()),
                ))
            })?;
            stack.push(canonical.clone());
            let sub_base = canonical.parent().map(Path::to_path_buf);
            preprocess(&included, Some(arg), sub_base.as_deref(), stack, out)?;
            stack.pop();
            continue;
        }
        if let Some(p) = pending.take() {
            out.push(p);
        }
        pending = Some(SourceLine {
            origin: origin.map(str::to_string),
            number,
            text: line.to_string(),
        });
    }
    if let Some(p) = pending.take() {
        out.push(p);
    }
    Ok(())
}

/// A `.param` binding. `locked` entries come from external overrides
/// ([`parse_deck_with_params`]) and win over in-deck assignments; `used`
/// records whether any `{name}` reference ever resolved to this binding, so
/// an override that the deck never reads (a typoed sweep name) fails loudly
/// instead of producing N identical sweep members.
#[derive(Debug, Clone)]
struct Param {
    value: String,
    locked: bool,
    used: std::cell::Cell<bool>,
}

/// A stored `.subckt` definition: declared ports plus the raw body lines,
/// expanded (with parameter substitution) at each instantiation site.
#[derive(Debug, Clone)]
struct Subckt {
    name: String,
    ports: Vec<String>,
    body: Vec<SourceLine>,
    defined_at: usize,
}

/// Whether the card loop keeps scanning after a line.
enum Flow {
    Continue,
    End,
}

struct DeckBuilder {
    title: Option<String>,
    circuit: Circuit,
    analyses: Vec<Analysis>,
    prints: Vec<String>,
    reltol: Option<f64>,
    params: HashMap<String, Param>,
    subckts: HashMap<String, Subckt>,
}

fn build_deck(lines: &[SourceLine], overrides: &[(String, String)]) -> NetlistResult<Deck> {
    let mut params = HashMap::new();
    for (name, value) in overrides {
        params.insert(
            name.trim().to_ascii_lowercase(),
            Param {
                value: value.clone(),
                locked: true,
                used: std::cell::Cell::new(false),
            },
        );
    }
    let mut b = DeckBuilder {
        title: None,
        circuit: Circuit::new(),
        analyses: Vec::new(),
        prints: Vec::new(),
        reltol: None,
        params,
        subckts: HashMap::new(),
    };
    // The `.subckt` currently being collected, if any.
    let mut open: Option<Subckt> = None;
    for line in lines {
        match b
            .handle_line(line, &mut open)
            .map_err(|e| with_origin(e, &line.origin))?
        {
            Flow::Continue => {}
            Flow::End => break,
        }
    }
    if let Some(sub) = open {
        return Err(err_at(
            sub.defined_at,
            format!("unterminated .subckt '{}' (missing .ends)", sub.name),
        ));
    }
    // An override nothing ever substituted is a typoed sweep name: every
    // member would parse identically under a misleading label.
    for (name, param) in &b.params {
        if param.locked && !param.used.get() {
            return Err(err_at(
                0,
                format!("parameter override '{name}' is never referenced by the deck"),
            ));
        }
    }
    Ok(Deck {
        title: b.title,
        circuit: b.circuit,
        analyses: b.analyses,
        prints: b.prints,
        reltol: b.reltol,
    })
}

impl DeckBuilder {
    fn handle_line(&mut self, line: &SourceLine, open: &mut Option<Subckt>) -> NetlistResult<Flow> {
        let tokens = tokenize(&line.text);
        let Some(first) = tokens.first() else {
            return Ok(Flow::Continue);
        };
        let number = line.number;
        let card = first.to_ascii_lowercase();

        // Inside a .subckt definition only .ends closes; element and X lines
        // are collected raw (substitution happens per instantiation), and
        // every other card is rejected.
        if let Some(sub) = open.as_mut() {
            if card == ".ends" {
                if let Some(name) = tokens.get(1) {
                    if !name.eq_ignore_ascii_case(&sub.name) {
                        return Err(err_at(
                            number,
                            format!(".ends {}: does not match .subckt '{}'", name, sub.name),
                        ));
                    }
                }
                let sub = open.take().expect("open subckt");
                self.subckts.insert(sub.name.to_ascii_lowercase(), sub);
                return Ok(Flow::Continue);
            }
            if card == ".subckt" {
                return Err(err_at(
                    number,
                    "nested .subckt definitions are not supported",
                ));
            }
            if card.starts_with('.') {
                return Err(err_at(
                    number,
                    format!("card '{card}' is not allowed inside .subckt"),
                ));
            }
            sub.body.push(line.clone());
            return Ok(Flow::Continue);
        }

        if card.starts_with('.') {
            return self.handle_card(&card, &tokens, line, open);
        }
        let kind = first.chars().next().unwrap_or(' ').to_ascii_uppercase();
        let tokens = self.substitute_tokens(&tokens, number)?;
        if kind == 'X' {
            let mut stack = Vec::new();
            self.expand_instance(&tokens, number, None, &mut stack)?;
        } else {
            parse_element(&mut self.circuit, &tokens, number, None)?;
        }
        Ok(Flow::Continue)
    }

    fn handle_card(
        &mut self,
        card: &str,
        tokens: &[String],
        line: &SourceLine,
        open: &mut Option<Subckt>,
    ) -> NetlistResult<Flow> {
        let number = line.number;
        match card {
            ".end" => return Ok(Flow::End),
            ".title" => {
                let rest = line.text[tokens[0].len()..].trim();
                self.title = (!rest.is_empty()).then(|| rest.to_string());
            }
            ".subckt" => {
                if tokens.len() < 3 {
                    return Err(err_at(number, ".subckt: expected <name> <port> [ports...]"));
                }
                let name = tokens[1].clone();
                if self.subckts.contains_key(&name.to_ascii_lowercase()) {
                    return Err(err_at(number, format!("duplicate .subckt '{name}'")));
                }
                if tokens[2..].iter().any(|t| t.contains('=')) {
                    return Err(err_at(
                        number,
                        ".subckt: parameterized ports are not supported",
                    ));
                }
                // Ground is global: a port named `0`/`gnd` would be silently
                // shorted to ground by node resolution instead of mapping to
                // its connection, so reject the shadowing outright.
                if let Some(port) = tokens[2..].iter().find(|t| is_ground_name(t)) {
                    return Err(err_at(
                        number,
                        format!(
                            ".subckt {name}: port '{port}' shadows the global ground node; \
                             ground needs no port"
                        ),
                    ));
                }
                *open = Some(Subckt {
                    name,
                    ports: tokens[2..].to_vec(),
                    body: Vec::new(),
                    defined_at: number,
                });
            }
            ".ends" => return Err(err_at(number, ".ends without a matching .subckt")),
            ".param" => {
                if tokens.len() < 2 {
                    return Err(err_at(number, ".param: expected <name>=<value>"));
                }
                for t in &tokens[1..] {
                    let Some((key, value)) = t.split_once('=') else {
                        return Err(err_at(
                            number,
                            format!(".param: expected <name>=<value>, got '{t}'"),
                        ));
                    };
                    let key = key.trim().to_ascii_lowercase();
                    if key.is_empty() || value.trim().is_empty() {
                        return Err(err_at(
                            number,
                            format!(".param: expected <name>=<value>, got '{t}'"),
                        ));
                    }
                    // References to earlier parameters resolve at definition
                    // time, so substitution is always a single pass.
                    let value = self.substitute(value.trim(), number)?;
                    match self.params.get(&key) {
                        // External overrides (sweep members) win over in-deck
                        // assignments.
                        Some(p) if p.locked => {}
                        _ => {
                            self.params.insert(
                                key,
                                Param {
                                    value,
                                    locked: false,
                                    used: std::cell::Cell::new(false),
                                },
                            );
                        }
                    }
                }
            }
            ".tran" => {
                let args = self.substitute_tokens(&tokens[1..], number)?;
                if args.len() < 2 || args.len() > 3 {
                    return Err(err_at(number, ".tran: expected <step> <stop> [hmax]"));
                }
                let mut values = [0.0; 3];
                for (slot, t) in values.iter_mut().zip(&args) {
                    *slot = parse_value(t)
                        .ok_or_else(|| err_at(number, format!(".tran: bad value '{t}'")))?;
                }
                self.analyses.push(Analysis::Tran {
                    step: values[0],
                    stop: values[1],
                    h_max: (args.len() == 3).then_some(values[2]),
                });
            }
            ".op" | ".dc" => {
                if tokens.len() > 1 {
                    return Err(err_at(
                        number,
                        format!(
                            "{card}: source sweeps are not supported; parameterize the deck \
                             with .param and sweep externally (exi-cli sweep)"
                        ),
                    ));
                }
                self.analyses.push(Analysis::OperatingPoint);
            }
            ".print" => {
                let tokens = self.substitute_tokens(&tokens[1..], number)?;
                let mut args = &tokens[..];
                // An optional leading analysis-type selector is accepted and
                // ignored (prints always follow the deck's analyses here).
                if args.first().is_some_and(|t| {
                    ["tran", "dc", "op"].contains(&t.to_ascii_lowercase().as_str())
                }) {
                    args = &args[1..];
                }
                if args.is_empty() {
                    return Err(err_at(number, ".print: expected at least one v(<node>)"));
                }
                for t in args {
                    let lower = t.to_ascii_lowercase();
                    if let Some(inner) = lower.strip_prefix("v(").and_then(|r| r.strip_suffix(')'))
                    {
                        if inner.trim().is_empty() {
                            return Err(err_at(number, ".print: empty v() probe"));
                        }
                        // Preserve the node's original case.
                        let inner = t[2..t.len() - 1].trim().to_string();
                        self.prints.push(inner);
                    } else if lower.contains('(') {
                        return Err(err_at(
                            number,
                            format!(".print: only v(<node>) probes are supported, got '{t}'"),
                        ));
                    } else {
                        self.prints.push(t.clone());
                    }
                }
            }
            ".options" => {
                for t in self.substitute_tokens(&tokens[1..], number)? {
                    let Some((key, value)) = t.split_once('=') else {
                        return Err(err_at(
                            number,
                            format!(".options: expected <key>=<value>, got '{t}'"),
                        ));
                    };
                    match key.trim().to_ascii_lowercase().as_str() {
                        "gmin" => {
                            let v = parse_value(value).ok_or_else(|| {
                                err_at(number, format!(".options: bad gmin value '{value}'"))
                            })?;
                            self.circuit.set_gmin(v);
                        }
                        "reltol" => {
                            let v = parse_value(value).ok_or_else(|| {
                                err_at(number, format!(".options: bad reltol value '{value}'"))
                            })?;
                            self.reltol = Some(v);
                        }
                        other => {
                            return Err(err_at(
                                number,
                                format!(".options: unknown option '{other}'"),
                            ))
                        }
                    }
                }
            }
            ".include" => {
                // Consumed during preprocessing; reaching here means the
                // preprocessor was bypassed.
                return Err(err_at(number, ".include was not preprocessed"));
            }
            other => return Err(err_at(number, format!("unknown card '{other}'"))),
        }
        Ok(Flow::Continue)
    }

    /// Expands one `X<name> <nodes…> <subckt>` instance into the flat
    /// circuit. `outer` is the enclosing scope for nested instances; `stack`
    /// carries the subcircuit names currently being expanded so recursive
    /// instantiation fails instead of diverging.
    fn expand_instance(
        &mut self,
        tokens: &[String],
        line_no: usize,
        outer: Option<&ElementScope>,
        stack: &mut Vec<String>,
    ) -> NetlistResult<()> {
        let inst = tokens[0].clone();
        if tokens.len() < 2 {
            return Err(err_at(
                line_no,
                format!("{inst}: expected <nodes...> <subckt-name>"),
            ));
        }
        if tokens[1..].iter().any(|t| t.contains('=')) {
            return Err(err_at(
                line_no,
                format!("{inst}: instance parameters are not supported (use .param)"),
            ));
        }
        let sub_ref = tokens.last().expect("len >= 2");
        let key = sub_ref.to_ascii_lowercase();
        let Some(sub) = self.subckts.get(&key).cloned() else {
            return Err(err_at(
                line_no,
                format!("{inst}: unknown subcircuit '{sub_ref}'"),
            ));
        };
        let connections = &tokens[1..tokens.len() - 1];
        if connections.len() != sub.ports.len() {
            return Err(err_at(
                line_no,
                format!(
                    "{inst}: subcircuit '{}' has {} port(s), got {} connection(s)",
                    sub.name,
                    sub.ports.len(),
                    connections.len()
                ),
            ));
        }
        if stack.contains(&key) {
            return Err(err_at(
                line_no,
                format!(
                    "{inst}: recursive instantiation of subcircuit '{}'",
                    sub.name
                ),
            ));
        }
        let path = match outer {
            Some(scope) => format!("{}.{}", scope.path, inst),
            None => inst.clone(),
        };
        let mut ports = HashMap::new();
        for (port, conn) in sub.ports.iter().zip(connections) {
            let resolved = match outer {
                Some(scope) => scope.resolve_node(conn),
                None => conn.clone(),
            };
            // Register connection nodes in instance order, before any
            // internal body node: node numbering then follows the deck text,
            // not the subcircuit's internals.
            self.circuit.node(&resolved);
            ports.insert(port.clone(), resolved);
        }
        let scope = ElementScope { path, ports };
        stack.push(key);
        for body_line in &sub.body {
            let raw = tokenize(&body_line.text);
            let result = self
                .substitute_tokens(&raw, body_line.number)
                .and_then(|toks| {
                    let kind = toks
                        .first()
                        .and_then(|t| t.chars().next())
                        .unwrap_or(' ')
                        .to_ascii_uppercase();
                    if kind == 'X' {
                        self.expand_instance(&toks, body_line.number, Some(&scope), stack)
                    } else {
                        parse_element(&mut self.circuit, &toks, body_line.number, Some(&scope))
                    }
                });
            result.map_err(|e| {
                with_origin(e, &body_line.origin)
                    .in_spec(format!("{} (.subckt {})", scope.path, sub.name))
            })?;
        }
        stack.pop();
        Ok(())
    }

    fn substitute_tokens(&self, tokens: &[String], line: usize) -> NetlistResult<Vec<String>> {
        tokens.iter().map(|t| self.substitute(t, line)).collect()
    }

    /// Replaces every `{name}` reference in `token` with the parameter's
    /// value (single pass — substituted text is taken verbatim).
    fn substitute(&self, token: &str, line: usize) -> NetlistResult<String> {
        if !token.contains('{') {
            if token.contains('}') {
                return Err(err_at(line, format!("unbalanced '}}' in '{token}'")));
            }
            return Ok(token.to_string());
        }
        let mut out = String::with_capacity(token.len());
        let mut rest = token;
        while let Some(open) = rest.find('{') {
            let prefix = &rest[..open];
            if prefix.contains('}') {
                return Err(err_at(line, format!("unbalanced '}}' in '{token}'")));
            }
            out.push_str(prefix);
            let after = &rest[open + 1..];
            let Some(close) = after.find('}') else {
                return Err(err_at(line, format!("unbalanced '{{' in '{token}'")));
            };
            let name = after[..close].trim().to_ascii_lowercase();
            let Some(param) = self.params.get(&name) else {
                return Err(err_at(
                    line,
                    format!("unknown parameter '{{{name}}}' (define it with .param)"),
                ));
            };
            param.used.set(true);
            out.push_str(&param.value);
            rest = &after[close + 1..];
        }
        if rest.contains('}') {
            return Err(err_at(line, format!("unbalanced '}}' in '{token}'")));
        }
        out.push_str(rest);
        Ok(out)
    }
}

/// Formats a value with 17 significant digits — every finite `f64`
/// round-trips exactly through [`parse_value`].
fn fmt_value(v: f64) -> NetlistResult<String> {
    if !v.is_finite() {
        return Err(NetlistError::Parse {
            line: 0,
            message: format!("cannot serialize non-finite value {v}"),
        });
    }
    Ok(format!("{v:.17e}"))
}

/// Rejects names that would not survive tokenization.
fn check_token(token: &str, what: &str) -> NetlistResult<()> {
    let clean = !token.is_empty()
        && !token.starts_with('.')
        && !token.starts_with('+')
        && !token.starts_with('*')
        && !token
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '(' | ')' | '{' | '}' | '=' | '"'));
    if clean {
        Ok(())
    } else {
        Err(NetlistError::Parse {
            line: 0,
            message: format!("cannot serialize {what} '{token}'"),
        })
    }
}

/// Serializes a source waveform as the parser's source specification.
fn waveform_spec(w: &Waveform) -> NetlistResult<String> {
    Ok(match w {
        Waveform::Dc(v) => format!("DC {}", fmt_value(*v)?),
        Waveform::Pulse {
            v1,
            v2,
            delay,
            rise,
            fall,
            width,
            period,
        } => {
            let mut s = format!(
                "PULSE({} {} {} {} {} {}",
                fmt_value(*v1)?,
                fmt_value(*v2)?,
                fmt_value(*delay)?,
                fmt_value(*rise)?,
                fmt_value(*fall)?,
                fmt_value(*width)?
            );
            // An omitted 7th argument reparses as an infinite period
            // (single pulse).
            if period.is_finite() {
                s.push(' ');
                s.push_str(&fmt_value(*period)?);
            }
            s.push(')');
            s
        }
        Waveform::Pwl(points) => {
            if points.is_empty() {
                return Err(NetlistError::Parse {
                    line: 0,
                    message: "cannot serialize an empty PWL waveform".to_string(),
                });
            }
            let mut s = String::from("PWL(");
            for (i, (t, v)) in points.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                write!(s, "{} {}", fmt_value(*t)?, fmt_value(*v)?).unwrap();
            }
            s.push(')');
            s
        }
        Waveform::Sine {
            offset,
            amplitude,
            frequency,
            delay,
            damping,
        } => format!(
            "SIN({} {} {} {} {})",
            fmt_value(*offset)?,
            fmt_value(*amplitude)?,
            fmt_value(*frequency)?,
            fmt_value(*delay)?,
            fmt_value(*damping)?
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{inverter_chain, power_grid, InverterChainSpec, PowerGridSpec};
    use crate::plan::circuit_fingerprint;
    use crate::Waveform;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exi_deck_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn subcircuit_flattens_to_the_hand_built_fingerprint() {
        let deck = parse_deck(
            ".subckt divider top bot\n\
             R1 top mid 1k\n\
             R2 mid bot 2k\n\
             C1 mid 0 1p\n\
             .ends divider\n\
             Vin in 0 DC 1\n\
             X1 in out divider\n\
             X2 out 0 divider\n\
             .end\n",
        )
        .unwrap();
        // Hand-built twin with the same construction order.
        let mut twin = Circuit::new();
        let vin = twin.node("in");
        let gnd = twin.node("0");
        twin.add_voltage_source("Vin", vin, gnd, Waveform::Dc(1.0))
            .unwrap();
        let out = twin.node("out");
        let m1 = twin.node("X1.mid");
        twin.add_resistor("X1.R1", vin, m1, 1e3).unwrap();
        twin.add_resistor("X1.R2", m1, out, 2e3).unwrap();
        twin.add_capacitor("X1.C1", m1, gnd, 1e-12).unwrap();
        let m2 = twin.node("X2.mid");
        twin.add_resistor("X2.R1", out, m2, 1e3).unwrap();
        twin.add_resistor("X2.R2", m2, gnd, 2e3).unwrap();
        twin.add_capacitor("X2.C1", m2, gnd, 1e-12).unwrap();
        assert_eq!(
            circuit_fingerprint(&deck.circuit),
            circuit_fingerprint(&twin)
        );
        // The hierarchical names are addressable.
        assert!(deck.circuit.unknown_of("X1.mid").is_some());
        assert!(deck.circuit.unknown_of("X2.mid").is_some());
        assert_eq!(deck.circuit.num_devices(), 7);
    }

    #[test]
    fn nested_subcircuits_flatten_with_dotted_paths() {
        let deck = parse_deck(
            ".subckt leg a b\n\
             R1 a b 100\n\
             .ends\n\
             .subckt pair top bot\n\
             X1 top mid leg\n\
             X2 mid bot leg\n\
             .ends\n\
             V1 in 0 DC 1\n\
             Xp in 0 pair\n",
        )
        .unwrap();
        assert!(deck.circuit.unknown_of("Xp.mid").is_some());
        assert_eq!(deck.circuit.num_devices(), 3);
        let names: Vec<_> = deck
            .circuit
            .devices()
            .iter()
            .filter_map(|d| match d {
                crate::Device::Resistor { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"Xp.X1.R1".to_string()), "{names:?}");
        assert!(names.contains(&"Xp.X2.R1".to_string()), "{names:?}");
    }

    #[test]
    fn params_substitute_in_elements_cards_and_bodies() {
        let deck = parse_deck(
            ".param rbase=1k\n\
             .param rload={rbase}\n\
             .param tstop=2n\n\
             .subckt load a\n\
             R1 a 0 {rload}\n\
             .ends\n\
             V1 in 0 DC 1\n\
             X1 in load\n\
             R2 in 0 {rbase}\n\
             .tran 1p {tstop}\n",
        )
        .unwrap();
        match &deck.circuit.devices()[1] {
            Device::Resistor { resistance, .. } => assert_eq!(*resistance, 1e3),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            deck.analyses,
            vec![Analysis::Tran {
                step: 1e-12,
                stop: 2e-9,
                h_max: None
            }]
        );
    }

    #[test]
    fn param_overrides_win_over_deck_assignments() {
        let text = ".param r=1k\nV1 a 0 DC 1\nR1 a 0 {r}\n";
        let plain = parse_deck(text).unwrap();
        let swept = parse_deck_with_params(text, &[("R".to_string(), "5k".to_string())]).unwrap();
        let res = |d: &Deck| match &d.circuit.devices()[1] {
            Device::Resistor { resistance, .. } => *resistance,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(res(&plain), 1e3);
        assert_eq!(res(&swept), 5e3);
    }

    #[test]
    fn analysis_and_print_cards_are_collected() {
        let deck = parse_deck(
            ".title a tiny deck\n\
             V1 a 0 DC 1\n\
             R1 a b 1k\n\
             C1 b 0 1p\n\
             .options gmin=1e-9 reltol=1m\n\
             .op\n\
             .tran 1p 1n 10p\n\
             .print tran v(b) a\n\
             .end\n\
             R2 ignored 0 1\n",
        )
        .unwrap();
        assert_eq!(deck.title.as_deref(), Some("a tiny deck"));
        assert_eq!(deck.circuit.gmin(), 1e-9);
        assert_eq!(deck.reltol, Some(1e-3));
        assert_eq!(deck.analyses.len(), 2);
        assert_eq!(deck.analyses[0], Analysis::OperatingPoint);
        assert_eq!(
            deck.analyses[1],
            Analysis::Tran {
                step: 1e-12,
                stop: 1e-9,
                h_max: Some(1e-11)
            }
        );
        assert_eq!(deck.prints, vec!["b", "a"]);
        // Everything after .end is ignored.
        assert_eq!(deck.circuit.num_devices(), 3);
    }

    #[test]
    fn continuation_lines_join() {
        let deck = parse_deck(
            "V1 in 0\n\
             + PULSE(0 1 0\n\
             + 1n 1n 5n)\n\
             R1 in 0 1k\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.num_sources(), 1);
        assert!(parse_deck("+ R1 a 0 1k\n").is_err());
    }

    #[test]
    fn malformed_subckt_cards_are_rejected_with_line_numbers() {
        // Missing ports on the definition.
        let e = parse_deck("V1 a 0 DC 1\n.subckt noports\n.ends\n").unwrap_err();
        assert!(matches!(e, NetlistError::Parse { line: 2, .. }), "{e:?}");
        // Wrong connection arity at the instance.
        let e =
            parse_deck(".subckt two a b\nR1 a b 1\n.ends\nV1 x 0 DC 1\nX1 x two\n").unwrap_err();
        assert!(matches!(e, NetlistError::Parse { line: 5, .. }), "{e:?}");
        assert!(e.to_string().contains("port"), "{e}");
        // Unknown subcircuit.
        let e = parse_deck("V1 a 0 DC 1\nX1 a 0 nope\n").unwrap_err();
        assert!(e.to_string().contains("unknown subcircuit"), "{e}");
        // Unterminated definition.
        let e = parse_deck(".subckt open a b\nR1 a b 1\n").unwrap_err();
        assert!(e.to_string().contains("unterminated"), "{e}");
        // .ends without .subckt, and mismatched .ends name.
        assert!(parse_deck(".ends\n").is_err());
        assert!(parse_deck(".subckt s a b\nR1 a b 1\n.ends other\n").is_err());
        // Cards inside a body.
        let e = parse_deck(".subckt s a b\n.tran 1p 1n\n.ends\n").unwrap_err();
        assert!(e.to_string().contains("not allowed inside"), "{e}");
        // Duplicate definition.
        assert!(
            parse_deck(".subckt s a b\nR1 a b 1\n.ends\n.subckt S a b\nR1 a b 1\n.ends\n").is_err()
        );
    }

    #[test]
    fn ground_named_ports_are_rejected() {
        // Ground is global: a port named `0`/`gnd` would be silently shorted
        // to ground instead of mapping to its connection.
        for port in ["0", "gnd", "GND", "ground"] {
            let e = parse_deck(&format!(
                ".subckt bad a {port}\nR1 a {port} 1k\n.ends\nV1 x 0 DC 1\nX1 x y bad\n"
            ))
            .unwrap_err();
            assert!(e.to_string().contains("ground"), "{port}: {e}");
        }
        // Ground *references* inside a body remain fine without a port.
        let deck = parse_deck(".subckt tie a\nR1 a 0 1k\n.ends\nV1 x 0 DC 1\nX1 x tie\n").unwrap();
        assert_eq!(deck.circuit.num_devices(), 2);
    }

    #[test]
    fn unused_parameter_overrides_are_rejected() {
        let text = ".param rload=1k\nV1 a 0 DC 1\nR1 a 0 {rload}\n";
        // A typoed sweep name would silently run N identical members.
        let e =
            parse_deck_with_params(text, &[("rloda".to_string(), "2k".to_string())]).unwrap_err();
        assert!(e.to_string().contains("never referenced"), "{e}");
        // The correctly spelled override is fine.
        assert!(parse_deck_with_params(text, &[("rload".to_string(), "2k".to_string())]).is_ok());
    }

    #[test]
    fn print_cards_substitute_parameters() {
        let deck = parse_deck(
            ".param probe=out\nV1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n.print v({probe})\n",
        )
        .unwrap();
        assert_eq!(deck.prints, vec!["out"]);
    }

    #[test]
    fn recursive_instantiation_is_rejected() {
        // Direct self-instantiation.
        let e = parse_deck(".subckt loop a b\nX1 a b loop\n.ends\nV1 x 0 DC 1\nX1 x 0 loop\n")
            .unwrap_err();
        assert!(e.to_string().contains("recursive"), "{e}");
        // Mutual recursion.
        let e = parse_deck(
            ".subckt ping a\nX1 a pong\n.ends\n\
             .subckt pong a\nX1 a ping\n.ends\n\
             V1 x 0 DC 1\nX1 x ping\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("recursive"), "{e}");
    }

    #[test]
    fn unknown_cards_params_and_probes_are_rejected() {
        let e = parse_deck("V1 a 0 DC 1\n.wibble 3\n").unwrap_err();
        assert!(e.to_string().contains("unknown card"), "{e}");
        let e = parse_deck("R1 a 0 {missing}\n").unwrap_err();
        assert!(e.to_string().contains("unknown parameter"), "{e}");
        assert!(parse_deck("R1 a 0 {unclosed\n").is_err());
        assert!(parse_deck("R1 a 0 1k}\n").is_err());
        assert!(parse_deck(".param\n").is_err());
        assert!(parse_deck(".param novalue\n").is_err());
        let e = parse_deck("V1 a 0 DC 1\n.print i(V1)\n").unwrap_err();
        assert!(e.to_string().contains("v(<node>)"), "{e}");
        assert!(parse_deck(".print\nV1 a 0 DC 1\n").is_err());
        let e = parse_deck(".options abstol=1e-12\n").unwrap_err();
        assert!(e.to_string().contains("unknown option"), "{e}");
        let e = parse_deck("V1 a 0 DC 1\n.dc V1 0 1 0.1\n").unwrap_err();
        assert!(e.to_string().contains("not supported"), "{e}");
        assert!(parse_deck(".tran 1p\n").is_err());
        assert!(parse_deck(".tran 1p 1n 1p 1p\n").is_err());
        assert!(parse_deck(".tran bogus 1n\n").is_err());
        // Instance parameters are not supported.
        let e = parse_deck(".subckt s a\nR1 a 0 1\n.ends\nV1 x 0 DC 1\nX1 x s m=2\n").unwrap_err();
        assert!(e.to_string().contains("instance parameters"), "{e}");
    }

    #[test]
    fn include_requires_a_file_entry_point() {
        let e = parse_deck(".include sub.inc\nR1 a 0 1\n").unwrap_err();
        assert!(e.to_string().contains("file entry point"), "{e}");
    }

    #[test]
    fn include_resolves_relative_paths_and_detects_cycles() {
        let dir = tmp_dir("include");
        std::fs::write(
            dir.join("top.sp"),
            "V1 in 0 DC 1\n.include sub/load.inc\n.tran 1p 1n\n",
        )
        .unwrap();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("sub/load.inc"), "R1 in out 1k\n.include cap.inc\n").unwrap();
        std::fs::write(dir.join("sub/cap.inc"), "C1 out 0 1p\n").unwrap();
        let deck = parse_deck_file(dir.join("top.sp")).unwrap();
        assert_eq!(deck.circuit.num_devices(), 3);
        assert_eq!(deck.analyses.len(), 1);

        // A cycle: a.inc includes b.inc includes a.inc.
        std::fs::write(dir.join("a.sp"), ".include b.inc\n").unwrap();
        std::fs::write(dir.join("b.inc"), "R1 x 0 1\n.include c.inc\n").unwrap();
        std::fs::write(dir.join("c.inc"), ".include b.inc\n").unwrap();
        let e = parse_deck_file(dir.join("a.sp")).unwrap_err();
        assert!(e.to_string().contains("cycle"), "{e}");
        // A file including itself.
        std::fs::write(dir.join("self.sp"), ".include self.sp\n").unwrap();
        let e = parse_deck_file(dir.join("self.sp")).unwrap_err();
        assert!(e.to_string().contains("cycle"), "{e}");
        // Missing include file.
        std::fs::write(dir.join("miss.sp"), ".include not_there.inc\n").unwrap();
        assert!(parse_deck_file(dir.join("miss.sp")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_errors_carry_the_file_context() {
        let dir = tmp_dir("context");
        std::fs::write(dir.join("bad.sp"), "V1 a 0 DC 1\n.include inner.inc\n").unwrap();
        std::fs::write(dir.join("inner.inc"), "* fine\nR1 a 0 notavalue\n").unwrap();
        let e = parse_deck_file(dir.join("bad.sp")).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("bad.sp"), "{text}");
        assert!(text.contains("inner.inc"), "{text}");
        assert!(
            matches!(e.root_cause(), NetlistError::Parse { line: 2, .. }),
            "{e:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_inside_subckt_bodies_name_the_instance_path() {
        let e = parse_deck(".subckt bad a\nR1 a 0 -5\n.ends\nV1 x 0 DC 1\nX7 x bad\n").unwrap_err();
        let text = e.to_string();
        assert!(text.contains("X7"), "{text}");
        assert!(text.contains("bad"), "{text}");
    }

    #[test]
    fn generator_circuits_round_trip_through_spice_text() {
        let grid = power_grid(&PowerGridSpec {
            rows: 3,
            cols: 3,
            num_sinks: 2,
            ..PowerGridSpec::default()
        })
        .unwrap();
        let chain = inverter_chain(&InverterChainSpec {
            stages: 2,
            ..InverterChainSpec::default()
        })
        .unwrap();
        for original in [grid, chain] {
            let mut deck = Deck::new(original.clone());
            deck.analyses.push(Analysis::Tran {
                step: 1e-12,
                stop: 5e-10,
                h_max: Some(2e-11),
            });
            deck.prints.push("vdd".to_string());
            deck.reltol = Some(1e-3);
            let text = deck.to_spice().unwrap();
            let back = parse_deck(&text).unwrap();
            assert_eq!(
                circuit_fingerprint(&back.circuit),
                circuit_fingerprint(&original),
                "round-trip changed the circuit fingerprint"
            );
            assert_eq!(back.analyses, deck.analyses);
            assert_eq!(back.prints, deck.prints);
            assert_eq!(back.reltol, deck.reltol);
            // Waveforms round-trip exactly too (the fingerprint excludes
            // them).
            for ((_, w0), (_, w1)) in original.sources().iter().zip(back.circuit.sources()) {
                assert_eq!(w0, w1);
            }
        }
    }

    #[test]
    fn to_spice_rejects_unserializable_names() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a b"); // embedded whitespace
        let gnd = ckt.node("0");
        ckt.add_resistor("R1", a, gnd, 1.0).unwrap();
        assert!(Deck::new(ckt).to_spice().is_err());
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_resistor("weird", a, gnd, 1.0).unwrap();
        let e = Deck::new(ckt).to_spice().unwrap_err();
        assert!(e.to_string().contains("must start with R"), "{e}");
    }
}

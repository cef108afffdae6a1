//! Low-level SPICE-line parsing: values, element cards and source
//! specifications.
//!
//! This module owns the token-level pieces of the deck front-end (see
//! [`crate::deck`] for the full deck grammar — subcircuits, parameters,
//! includes and analysis cards). The supported element subset:
//!
//! ```text
//! R<name> <n+> <n-> <value>
//! C<name> <n+> <n-> <value>
//! L<name> <n+> <n-> <value>
//! V<name> <n+> <n-> DC <value> | PULSE(v1 v2 td tr tf pw [per]) | PWL(t1 v1 t2 v2 ...) | SIN(off ampl freq [td [damp]])
//! I<name> <n+> <n-> <same source syntax as V>
//! D<name> <anode> <cathode> [IS=<v>] [N=<v>] [VT=<v>] [CJ=<v>]
//! M<name> <drain> <gate> <source> <nmos|pmos> [W=<v>] [L=<v>] [VT=<v>] [KP=<v>] [LAMBDA=<v>] [CGS=<v>] [CGD=<v>]
//! ```
//!
//! Values accept SPICE magnitude suffixes (`f p n u m k meg g t`).

use std::collections::HashMap;

use crate::circuit::Circuit;
use crate::devices::{DiodeModel, MosfetModel};
use crate::error::{NetlistError, NetlistResult};
use crate::node::is_ground_name;
use crate::waveform::Waveform;

/// Name-resolution scope for element lines expanded from a subcircuit body.
///
/// `path` is the dotted instance path (`X1`, `X1.X2`, …); `ports` maps a
/// port name as declared on the `.subckt` card to the fully resolved outer
/// node it is connected to. Nodes that are neither ports nor ground become
/// `path.node`, and device names become `path.name`, so two instances of one
/// subcircuit never collide.
#[derive(Debug)]
pub(crate) struct ElementScope {
    pub(crate) path: String,
    pub(crate) ports: HashMap<String, String>,
}

impl ElementScope {
    /// Resolves a node token from a subcircuit body to its flat name.
    pub(crate) fn resolve_node(&self, token: &str) -> String {
        if is_ground_name(token) {
            return token.to_string();
        }
        if let Some(outer) = self.ports.get(token) {
            return outer.clone();
        }
        format!("{}.{}", self.path, token)
    }

    /// Resolves a device name from a subcircuit body to its flat name.
    pub(crate) fn resolve_device(&self, name: &str) -> String {
        format!("{}.{}", self.path, name)
    }
}

fn scoped_node(circuit: &mut Circuit, token: &str, scope: Option<&ElementScope>) -> crate::NodeId {
    match scope {
        Some(s) => {
            let resolved = s.resolve_node(token);
            circuit.node(&resolved)
        }
        None => circuit.node(token),
    }
}

/// Parses one element line (already tokenized) into `circuit`.
///
/// `scope` is `None` for top-level lines; subcircuit expansion passes the
/// instance scope so nodes and device names are flattened hierarchically.
pub(crate) fn parse_element(
    circuit: &mut Circuit,
    tokens: &[String],
    line_no: usize,
    scope: Option<&ElementScope>,
) -> NetlistResult<()> {
    if tokens.is_empty() {
        return Ok(());
    }
    let raw_name = tokens[0].as_str();
    let kind = raw_name.chars().next().unwrap_or(' ').to_ascii_uppercase();
    let name = match scope {
        Some(s) => s.resolve_device(raw_name),
        None => raw_name.to_string(),
    };
    let name = name.as_str();
    let err = |message: String| NetlistError::Parse {
        line: line_no,
        message,
    };
    match kind {
        'R' | 'C' | 'L' => {
            if tokens.len() != 4 {
                return Err(err(format!("{raw_name}: expected <n+> <n-> <value>")));
            }
            let a = scoped_node(circuit, &tokens[1], scope);
            let b = scoped_node(circuit, &tokens[2], scope);
            let value = parse_value(&tokens[3])
                .ok_or_else(|| err(format!("{raw_name}: bad value '{}'", tokens[3])))?;
            match kind {
                'R' => circuit.add_resistor(name, a, b, value)?,
                'C' => circuit.add_capacitor(name, a, b, value)?,
                _ => circuit.add_inductor(name, a, b, value)?,
            }
            Ok(())
        }
        'V' | 'I' => {
            if tokens.len() < 4 {
                return Err(err(format!("{raw_name}: expected <n+> <n-> <source>")));
            }
            let a = scoped_node(circuit, &tokens[1], scope);
            let b = scoped_node(circuit, &tokens[2], scope);
            let wave = parse_source(&tokens[3..])
                .ok_or_else(|| err(format!("{raw_name}: bad source specification")))?;
            if kind == 'V' {
                circuit.add_voltage_source(name, a, b, wave)?;
            } else {
                // SPICE convention: positive current flows from n+ through the
                // source into n-.
                circuit.add_current_source(name, a, b, wave)?;
            }
            Ok(())
        }
        'D' => {
            if tokens.len() < 3 {
                return Err(err(format!("{raw_name}: expected <anode> <cathode>")));
            }
            let a = scoped_node(circuit, &tokens[1], scope);
            let c = scoped_node(circuit, &tokens[2], scope);
            let mut model = DiodeModel::default();
            for t in &tokens[3..] {
                let (key, val) = parse_assignment(t)
                    .ok_or_else(|| err(format!("{raw_name}: expected key=value, got '{t}'")))?;
                match key.as_str() {
                    "is" => model.saturation_current = val,
                    "n" => model.emission_coefficient = val,
                    "vt" => model.thermal_voltage = val,
                    "cj" => model.junction_capacitance = val,
                    _ => return Err(err(format!("{raw_name}: unknown diode parameter '{key}'"))),
                }
            }
            circuit.add_diode(name, a, c, model)?;
            Ok(())
        }
        'M' => {
            if tokens.len() < 5 {
                return Err(err(format!("{raw_name}: expected <d> <g> <s> <nmos|pmos>")));
            }
            let d = scoped_node(circuit, &tokens[1], scope);
            let g = scoped_node(circuit, &tokens[2], scope);
            let s = scoped_node(circuit, &tokens[3], scope);
            let mut model = match tokens[4].to_ascii_lowercase().as_str() {
                "nmos" => MosfetModel::nmos(),
                "pmos" => MosfetModel::pmos(),
                other => return Err(err(format!("{raw_name}: unknown mosfet type '{other}'"))),
            };
            for t in &tokens[5..] {
                let (key, val) = parse_assignment(t)
                    .ok_or_else(|| err(format!("{raw_name}: expected key=value, got '{t}'")))?;
                match key.as_str() {
                    "w" => model.width = val,
                    "l" => model.length = val,
                    "vt" => model.threshold = val,
                    "kp" => model.transconductance = val,
                    "lambda" => model.lambda = val,
                    "cgs" => model.cgs = val,
                    "cgd" => model.cgd = val,
                    _ => return Err(err(format!("{raw_name}: unknown mosfet parameter '{key}'"))),
                }
            }
            circuit.add_mosfet(name, d, g, s, model)?;
            Ok(())
        }
        _ => Err(err(format!("unsupported element '{raw_name}'"))),
    }
}

/// Splits a line into tokens, keeping `FUNC(a b c)` groups together.
pub(crate) fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut depth = 0usize;
    for ch in line.chars() {
        match ch {
            '(' => {
                depth += 1;
                current.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                current.push(ch);
            }
            c if c.is_whitespace() && depth == 0 => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            _ => current.push(ch),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Splits a `key=value` token, lower-casing the key and parsing the value.
pub(crate) fn parse_assignment(token: &str) -> Option<(String, f64)> {
    let (key, value) = token.split_once('=')?;
    Some((key.trim().to_ascii_lowercase(), parse_value(value.trim())?))
}

/// Parses a SPICE value with an optional magnitude suffix.
pub fn parse_value(token: &str) -> Option<f64> {
    let t = token.trim().to_ascii_lowercase();
    if t.is_empty() {
        return None;
    }
    // Find the numeric prefix.
    let mut split = t.len();
    for (i, ch) in t.char_indices() {
        if !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == '+' || ch == 'e') {
            split = i;
            break;
        }
        // 'e' is only part of the number if followed by a digit or sign.
        if ch == 'e' {
            let rest = &t[i + 1..];
            if !rest.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+') {
                split = i;
                break;
            }
        }
    }
    let (num, suffix) = t.split_at(split);
    let base: f64 = num.parse().ok()?;
    let mult = match suffix {
        "" => 1.0,
        s if s.starts_with("meg") => 1e6,
        s if s.starts_with('f') => 1e-15,
        s if s.starts_with('p') => 1e-12,
        s if s.starts_with('n') => 1e-9,
        s if s.starts_with('u') => 1e-6,
        s if s.starts_with('m') => 1e-3,
        s if s.starts_with('k') => 1e3,
        s if s.starts_with('g') => 1e9,
        s if s.starts_with('t') => 1e12,
        _ => return None,
    };
    Some(base * mult)
}

/// Parses the source-specification tokens of a `V`/`I` element.
fn parse_source(tokens: &[String]) -> Option<Waveform> {
    if tokens.is_empty() {
        return None;
    }
    let first = tokens[0].to_ascii_lowercase();
    if first == "dc" {
        return Some(Waveform::Dc(parse_value(tokens.get(1)?)?));
    }
    if let Some(args) = function_args(&tokens[0], "pulse") {
        let v: Vec<f64> = args.iter().filter_map(|a| parse_value(a)).collect();
        if v.len() < 6 {
            return None;
        }
        // A 6-argument PULSE omits the period: a single, non-repeating pulse.
        return Some(Waveform::Pulse {
            v1: v[0],
            v2: v[1],
            delay: v[2],
            rise: v[3],
            fall: v[4],
            width: v[5],
            period: v.get(6).copied().unwrap_or(f64::INFINITY),
        });
    }
    if let Some(args) = function_args(&tokens[0], "pwl") {
        let v: Vec<f64> = args.iter().filter_map(|a| parse_value(a)).collect();
        if v.len() < 2 || !v.len().is_multiple_of(2) {
            return None;
        }
        let points = v.chunks(2).map(|c| (c[0], c[1])).collect();
        return Some(Waveform::Pwl(points));
    }
    if let Some(args) = function_args(&tokens[0], "sin") {
        let v: Vec<f64> = args.iter().filter_map(|a| parse_value(a)).collect();
        if v.len() < 3 {
            return None;
        }
        return Some(Waveform::Sine {
            offset: v[0],
            amplitude: v[1],
            frequency: v[2],
            delay: v.get(3).copied().unwrap_or(0.0),
            damping: v.get(4).copied().unwrap_or(0.0),
        });
    }
    // Bare value: treat as DC.
    Some(Waveform::Dc(parse_value(&tokens[0])?))
}

/// If `token` has the form `name(a b c)`, returns the argument list.
fn function_args(token: &str, name: &str) -> Option<Vec<String>> {
    let lower = token.to_ascii_lowercase();
    let rest = lower.strip_prefix(name)?;
    let rest = rest.trim();
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    Some(inner.split_whitespace().map(|s| s.to_string()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::parse_deck;

    /// The flattened circuit of a deck, analysis cards dropped.
    fn parse_netlist(text: &str) -> NetlistResult<Circuit> {
        Ok(parse_deck(text)?.circuit)
    }

    #[test]
    fn values_with_suffixes() {
        assert_eq!(parse_value("1k"), Some(1e3));
        assert_eq!(parse_value("2.5meg"), Some(2.5e6));
        assert_eq!(parse_value("10p"), Some(1e-11));
        assert!((parse_value("3n").unwrap() - 3e-9).abs() < 1e-20);
        assert_eq!(parse_value("1.5u"), Some(1.5e-6));
        assert_eq!(parse_value("100m"), Some(0.1));
        assert_eq!(parse_value("2e-3"), Some(2e-3));
        assert_eq!(parse_value("1e3k"), Some(1e6));
        assert_eq!(parse_value("1f"), Some(1e-15));
        assert_eq!(parse_value(""), None);
        assert_eq!(parse_value("abc"), None);
    }

    #[test]
    fn full_precision_values_round_trip() {
        // The deck writer emits `{:.17e}`; the parser must read every bit
        // back (the deck round-trip fixtures depend on it).
        for v in [
            1.0,
            -3.123456789012345e-7,
            5e-10,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
        ] {
            let text = format!("{v:.17e}");
            let back = parse_value(&text).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn parses_rc_with_pulse_source() {
        let ckt = parse_netlist(
            "* test\nVin in 0 PULSE(0 1 0 1n 1n 5n 20n)\nR1 in out 1k\nC1 out 0 1p\n.end\n",
        )
        .unwrap();
        assert_eq!(ckt.num_devices(), 3);
        assert_eq!(ckt.num_unknowns(), 3);
        assert_eq!(ckt.num_sources(), 1);
        assert!((ckt.input_vector(3e-9)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn six_argument_pulse_is_a_single_pulse() {
        let ckt = parse_netlist("V1 a 0 PULSE(0 1 0 1n 1n 5n)\nR1 a 0 1k\n").unwrap();
        match &ckt.sources()[0].1 {
            Waveform::Pulse { period, .. } => assert!(period.is_infinite()),
            other => panic!("unexpected waveform {other:?}"),
        }
        // Five arguments are still rejected.
        assert!(parse_netlist("V1 a 0 PULSE(0 1 0 1n 1n)\nR1 a 0 1k\n").is_err());
    }

    #[test]
    fn parses_dc_pwl_and_sin_sources() {
        let ckt = parse_netlist(
            "V1 a 0 DC 1.8\nI1 a 0 PWL(0 0 1n 1m)\nV2 b 0 SIN(0 1 1meg)\nR1 a b 1k\n",
        )
        .unwrap();
        assert_eq!(ckt.num_sources(), 3);
        let u = ckt.input_vector(0.5e-9);
        assert!((u[0] - 1.8).abs() < 1e-12);
        assert!((u[1] - 0.5e-3).abs() < 1e-12);
    }

    #[test]
    fn parses_nonlinear_devices_with_parameters() {
        let ckt = parse_netlist(
            "Vdd vdd 0 DC 1.0\nM1 out in 0 nmos W=2u L=0.1u\nM2 out in vdd pmos\nD1 out 0 IS=1e-15 CJ=2f\nC1 out 0 10f\n",
        )
        .unwrap();
        assert_eq!(ckt.num_nonlinear_devices(), 3);
    }

    #[test]
    fn diode_thermal_voltage_is_settable() {
        let ckt = parse_netlist("D1 a 0 VT=0.03\nR1 a 0 1k\n").unwrap();
        match &ckt.devices()[0] {
            crate::Device::Diode { model, .. } => assert_eq!(model.thermal_voltage, 0.03),
            other => panic!("unexpected device {other:?}"),
        }
    }

    #[test]
    fn bare_value_source_is_dc() {
        let ckt = parse_netlist("V1 a 0 2.5\nR1 a 0 1k\n").unwrap();
        assert_eq!(ckt.input_vector(0.0), vec![2.5]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_netlist("R1 a 0 1k\nQ1 foo bar baz\n").unwrap_err();
        match e {
            NetlistError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse_netlist("R1 a 0\n").is_err());
        assert!(parse_netlist("V1 a 0 PULSE(0 1)\n").is_err());
        assert!(parse_netlist("M1 a b c weird\n").is_err());
        assert!(parse_netlist("D1 a 0 XX=3\n").is_err());
    }

    #[test]
    fn stray_non_assignment_device_parameters_are_rejected() {
        // Previously silently ignored; now a parse error with the offending
        // token in the message.
        let e = parse_netlist("D1 a 0 garbage\nR1 a 0 1k\n").unwrap_err();
        assert!(e.to_string().contains("garbage"), "{e}");
        let e = parse_netlist("M1 a b 0 nmos stray\n").unwrap_err();
        assert!(e.to_string().contains("stray"), "{e}");
        // Extra tokens on an R/C/L line are rejected too.
        assert!(parse_netlist("R1 a 0 1k extra\n").is_err());
    }

    #[test]
    fn comments_and_directives_are_skipped() {
        let ckt =
            parse_netlist("* title\n.title foo\n// slash comment\nR1 a 0 1\n.tran 1n 10n\n.end\n")
                .unwrap();
        assert_eq!(ckt.num_devices(), 1);
    }
}

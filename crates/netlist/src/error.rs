//! Error types for netlist construction and parsing.

use std::error::Error;
use std::fmt;

/// Errors produced while building or parsing a circuit netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A device referenced a node name that could not be created or resolved.
    UnknownNode {
        /// The offending node name.
        name: String,
    },
    /// A device parameter is out of its physical range (e.g. negative
    /// resistance where not allowed, zero capacitance).
    InvalidParameter {
        /// Device name.
        device: String,
        /// Parameter name.
        parameter: &'static str,
        /// Supplied value.
        value: f64,
    },
    /// A netlist line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// A duplicate device name was encountered.
    DuplicateDevice {
        /// The duplicated name.
        name: String,
    },
    /// The circuit has no unknowns (empty or everything grounded).
    EmptyCircuit,
    /// An error raised while building a named generator spec or benchmark
    /// case — wraps the underlying error with the offending spec's name so
    /// batch-failure reports identify which sweep member went wrong.
    Spec {
        /// Name of the spec/case being built (e.g. `rc_ladder`, `tc6`).
        spec: String,
        /// The underlying error.
        source: Box<NetlistError>,
    },
}

impl NetlistError {
    /// Wraps this error with the name of the spec that was being built,
    /// preserving the original error as [`std::error::Error::source`].
    /// Contexts nest: a benchmark case wrapping a generator error yields
    /// `case → generator → cause`.
    #[must_use]
    pub fn in_spec(self, spec: impl Into<String>) -> Self {
        NetlistError::Spec {
            spec: spec.into(),
            source: Box::new(self),
        }
    }

    /// The innermost error, unwrapping any [`NetlistError::Spec`] layers.
    #[cfg(test)]
    pub(crate) fn root_cause(&self) -> &NetlistError {
        match self {
            NetlistError::Spec { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownNode { name } => write!(f, "unknown node '{name}'"),
            NetlistError::InvalidParameter {
                device,
                parameter,
                value,
            } => {
                write!(
                    f,
                    "invalid parameter {parameter} = {value} on device '{device}'"
                )
            }
            NetlistError::Parse { line, message } => {
                write!(f, "netlist parse error at line {line}: {message}")
            }
            NetlistError::DuplicateDevice { name } => write!(f, "duplicate device name '{name}'"),
            NetlistError::EmptyCircuit => write!(f, "circuit has no unknowns"),
            NetlistError::Spec { spec, source } => {
                write!(f, "while building spec '{spec}': {source}")
            }
        }
    }
}

impl Error for NetlistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetlistError::Spec { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Result alias for this crate.
pub type NetlistResult<T> = Result<T, NetlistError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(NetlistError::UnknownNode { name: "x".into() }
            .to_string()
            .contains("x"));
        assert!(NetlistError::EmptyCircuit
            .to_string()
            .contains("no unknowns"));
        let e = NetlistError::InvalidParameter {
            device: "R1".into(),
            parameter: "resistance",
            value: -1.0,
        };
        assert!(e.to_string().contains("R1"));
        let e = NetlistError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = NetlistError::DuplicateDevice { name: "M1".into() };
        assert!(e.to_string().contains("M1"));
    }

    #[test]
    fn spec_context_wraps_and_nests() {
        let cause = NetlistError::InvalidParameter {
            device: "R1".into(),
            parameter: "resistance",
            value: -1.0,
        };
        let wrapped = cause.clone().in_spec("rc_ladder").in_spec("tc3");
        let text = wrapped.to_string();
        assert!(text.contains("tc3"), "{text}");
        assert!(text.contains("rc_ladder"), "{text}");
        assert!(text.contains("R1"), "{text}");
        assert_eq!(wrapped.root_cause(), &cause);
        // The source chain exposes each layer for error-report walkers.
        let source = Error::source(&wrapped).expect("outer source");
        assert!(source.to_string().contains("rc_ladder"));
        // A plain error is its own root cause.
        assert_eq!(cause.root_cause(), &cause);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}

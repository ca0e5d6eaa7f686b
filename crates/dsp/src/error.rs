//! Error type shared by all DSP routines.

use std::error::Error;
use std::fmt;

/// Error returned by signal-processing routines in this crate.
///
/// # Example
///
/// ```
/// use seizure_dsp::spectrum::PsdPlan;
/// use seizure_dsp::DspError;
///
/// let err = PsdPlan::new(0).unwrap_err();
/// assert!(matches!(err, DspError::EmptyInput { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum DspError {
    /// The input slice was empty but the operation requires at least one sample.
    EmptyInput {
        /// Name of the routine that rejected the input.
        operation: &'static str,
    },
    /// The input length is invalid for the requested operation
    /// (for instance shorter than a filter or a decomposition level requires).
    InvalidLength {
        /// Name of the routine that rejected the input.
        operation: &'static str,
        /// Length that was provided.
        actual: usize,
        /// Human-readable description of the requirement that was violated.
        requirement: &'static str,
    },
    /// A numeric parameter was out of its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::EmptyInput { operation } => {
                write!(f, "empty input passed to {operation}")
            }
            DspError::InvalidLength {
                operation,
                actual,
                requirement,
            } => write!(
                f,
                "invalid input length {actual} for {operation}: {requirement}"
            ),
            DspError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_empty_input() {
        let e = DspError::EmptyInput { operation: "fft" };
        assert_eq!(e.to_string(), "empty input passed to fft");
    }

    #[test]
    fn display_invalid_length() {
        let e = DspError::InvalidLength {
            operation: "wavedec",
            actual: 3,
            requirement: "at least 8 samples",
        };
        assert!(e.to_string().contains("wavedec"));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn display_invalid_parameter() {
        let e = DspError::InvalidParameter {
            name: "fs",
            reason: "must be positive".to_string(),
        };
        assert!(e.to_string().contains("fs"));
        assert!(e.to_string().contains("positive"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}

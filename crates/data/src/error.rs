//! Error type for the data substrate.

use std::error::Error;
use std::fmt;

/// Error returned by the synthetic-data substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A generation or sampling parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// A patient or seizure index was out of range for the cohort.
    IndexOutOfRange {
        /// What kind of entity the index refers to ("patient" or "seizure").
        entity: &'static str,
        /// The offending index.
        index: usize,
        /// Number of available entities.
        available: usize,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            DataError::IndexOutOfRange {
                entity,
                index,
                available,
            } => write!(
                f,
                "{entity} index {index} out of range: only {available} available"
            ),
        }
    }
}

impl Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = DataError::InvalidParameter {
            name: "fs",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("fs"));
        let e = DataError::IndexOutOfRange {
            entity: "patient",
            index: 12,
            available: 9,
        };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}

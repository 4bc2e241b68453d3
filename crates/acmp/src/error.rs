//! Error type for the ACMP platform model.

use std::error::Error;
use std::fmt;

/// Errors produced by the `pes-acmp` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AcmpError {
    /// A cluster or platform description was structurally invalid.
    InvalidCluster(String),
    /// A dense configuration index was out of range for the platform.
    UnknownConfig(usize),
    /// Online demand recovery (Eqn. 1 system solve) failed.
    DemandRecovery(String),
}

impl fmt::Display for AcmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcmpError::InvalidCluster(msg) => write!(f, "invalid cluster description: {msg}"),
            AcmpError::UnknownConfig(idx) => write!(f, "configuration index {idx} is out of range"),
            AcmpError::DemandRecovery(msg) => write!(f, "demand recovery failed: {msg}"),
        }
    }
}

impl Error for AcmpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let errs: Vec<String> = vec![
            AcmpError::InvalidCluster("empty".into()).to_string(),
            AcmpError::UnknownConfig(42).to_string(),
            AcmpError::DemandRecovery("same frequency".into()).to_string(),
        ];
        for e in errs {
            assert!(!e.is_empty());
            assert!(e.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<AcmpError>();
    }
}

//! Error type for the schedule solver.

use std::error::Error;
use std::fmt;

/// Errors produced by the `pes-ilp` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IlpError {
    /// The branch-and-bound search exceeded its node limit.
    NodeLimit(usize),
    /// The problem has no items / options to choose from.
    EmptyProblem,
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::NodeLimit(limit) => {
                write!(f, "search exceeded the node limit of {limit} nodes")
            }
            IlpError::EmptyProblem => write!(f, "the problem contains no schedulable items"),
        }
    }
}

impl Error for IlpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(IlpError::NodeLimit(7).to_string().contains('7'));
        assert!(IlpError::EmptyProblem
            .to_string()
            .contains("no schedulable"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<IlpError>();
    }
}

//! Error type for DOM operations.

use std::error::Error;
use std::fmt;

/// Errors produced by the `pes-dom` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DomError {
    /// A node id does not refer to a node of this tree.
    UnknownNode(usize),
    /// A structural operation (append, reparent) would corrupt the tree.
    InvalidStructure(String),
}

impl fmt::Display for DomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomError::UnknownNode(idx) => write!(f, "node index {idx} does not exist in this tree"),
            DomError::InvalidStructure(msg) => write!(f, "invalid tree structure: {msg}"),
        }
    }
}

impl Error for DomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DomError::UnknownNode(7).to_string().contains('7'));
        assert!(DomError::InvalidStructure("cycle".into())
            .to_string()
            .contains("cycle"));
    }

    #[test]
    fn error_is_send_sync_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<DomError>();
    }
}

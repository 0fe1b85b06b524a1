//! Repair-tool error type.

use std::error::Error;
use std::fmt;

use resildb_engine::{EngineError, InternalTxnId};
use resildb_wire::WireError;

/// Errors raised while analyzing the log or executing a repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// Engine-level failure (log introspection, schema lookup).
    Engine(EngineError),
    /// Wire-level failure while executing compensating statements.
    Wire(WireError),
    /// The log or dependency data is inconsistent with expectations.
    Analysis(String),
    /// One proxy transaction id committed in two internal transactions
    /// (e.g. a proxy restarted over a reopened database minted it again):
    /// repair cannot tell whose effects the id names, so it refuses.
    DuplicateTrid {
        /// The proxy transaction id.
        tr_id: i64,
        /// The internal transactions that both committed it, in log order.
        internal: [InternalTxnId; 2],
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Engine(e) => write!(f, "engine error during repair: {e}"),
            RepairError::Wire(e) => write!(f, "wire error during repair: {e}"),
            RepairError::Analysis(m) => write!(f, "repair analysis error: {m}"),
            RepairError::DuplicateTrid {
                tr_id,
                internal: [a, b],
            } => write!(
                f,
                "repair analysis error: proxy transaction id {tr_id} committed in internal \
                 transactions {} and {}; ids must be unique across proxies and restarts",
                a.0, b.0
            ),
        }
    }
}

impl Error for RepairError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RepairError::Engine(e) => Some(e),
            RepairError::Wire(e) => Some(e),
            RepairError::Analysis(_) | RepairError::DuplicateTrid { .. } => None,
        }
    }
}

impl From<EngineError> for RepairError {
    fn from(e: EngineError) -> Self {
        RepairError::Engine(e)
    }
}

impl From<WireError> for RepairError {
    fn from(e: WireError) -> Self {
        RepairError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: RepairError = EngineError::Deadlock.into();
        assert!(matches!(e, RepairError::Engine(_)));
        assert!(e.source().is_some());
        let w: RepairError = WireError::PoolExhausted.into();
        assert!(w.to_string().contains("pool"));
        assert!(RepairError::Analysis("x".into()).source().is_none());
    }
}

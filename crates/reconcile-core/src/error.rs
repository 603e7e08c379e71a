//! Error type shared by the session engine and every backend adapter.

use std::fmt;

/// Errors surfaced by [`crate::ReconcileBackend`] implementations and the
/// session engine driving them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A peer sent malformed or truncated bytes.
    WireFormat(&'static str),
    /// A message arrived that the protocol state machine cannot accept
    /// (e.g. a payload on the server side, or a request after completion).
    Protocol(&'static str),
    /// The reconciliation did not complete within the driver's budget
    /// (message cap for rateless schemes, block/capacity ladder for
    /// fixed-size ones).
    DecodeIncomplete,
    /// A scheme-specific failure, carried as text.
    Backend(String),
    /// The connection handshake failed: the peers disagree on protocol
    /// version, keyed-hash fingerprint, or item length — or the peer
    /// rejected ours. Reconciliation never starts on a failed handshake.
    Handshake(String),
    /// A transport I/O failure (real sockets and pipes only; the simulated
    /// links cannot fail). The original [`std::io::ErrorKind`] is preserved
    /// so callers can distinguish timeouts from disconnects.
    Io(std::io::ErrorKind, String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WireFormat(msg) => write!(f, "malformed wire data: {msg}"),
            EngineError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            EngineError::DecodeIncomplete => {
                write!(f, "reconciliation did not complete within the budget")
            }
            EngineError::Backend(msg) => write!(f, "backend failure: {msg}"),
            EngineError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            EngineError::Io(kind, msg) => write!(f, "transport I/O error ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e.kind(), e.to_string())
    }
}

impl From<riblt::Error> for EngineError {
    fn from(e: riblt::Error) -> Self {
        match e {
            riblt::Error::WireFormat(msg) => EngineError::WireFormat(msg),
            riblt::Error::DecodeIncomplete => EngineError::DecodeIncomplete,
            other => EngineError::Backend(other.to_string()),
        }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, EngineError>;

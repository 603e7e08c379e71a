//! Error types of the Rateless IBLT library.

use std::fmt;

/// Errors reported by encoders, decoders, sketches and the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A source symbol was added to a streaming encoder after it had already
    /// produced coded symbols. Prefixes of the coded-symbol sequence already
    /// sent would not include the new symbol, breaking linearity; use
    /// [`crate::SketchCache`] (which patches the materialized prefix) when
    /// the set changes while coded symbols are cached.
    SymbolAddedAfterEncodingStarted,
    /// A source symbol was added to a decoder after coded symbols had been
    /// ingested. The decoder must know the full local set before it starts
    /// subtracting it from the incoming stream.
    SymbolAddedAfterDecodingStarted,
    /// Sketches of different sizes (or built with different keys/parameters)
    /// were combined.
    SketchShapeMismatch {
        /// Size (number of coded symbols) of the left operand.
        left: usize,
        /// Size of the right operand.
        right: usize,
    },
    /// The peeling decoder stopped before recovering every source symbol
    /// (more coded symbols are needed).
    DecodeIncomplete,
    /// The peeling decoder stopped before recovering every source symbol
    /// while holding a cell that reads as two distinct items with one keyed
    /// hash: hash sum 0, a nonzero item sum, and count 0 (one item on each
    /// side) or ±2 (both on one). Two such items share every index, so no
    /// number of further coded symbols separates them and a retry under the
    /// same key stalls the same way. Under a known key such a pair is a
    /// birthday search of about 2³² keyed hashes.
    CollidingItems,
    /// The cells being peeled are not a prefix of one set's coded-symbol
    /// sequence (a stream spliced from two versions of a set, say): peeling
    /// recovered more symbols than cells were received, which no consistent
    /// stream can do — every recovery empties one pure cell for good. The
    /// decoder stops peeling and keeps reporting this; the session must be
    /// restarted against a consistent stream.
    InconsistentStream,
    /// The wire decoder encountered a malformed or truncated byte stream.
    WireFormat(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SymbolAddedAfterEncodingStarted => write!(
                f,
                "source symbol added after the encoder started producing coded symbols"
            ),
            Error::SymbolAddedAfterDecodingStarted => write!(
                f,
                "source symbol added after the decoder started ingesting coded symbols"
            ),
            Error::SketchShapeMismatch { left, right } => {
                write!(f, "sketch shape mismatch: {left} vs {right} coded symbols")
            }
            Error::DecodeIncomplete => {
                write!(f, "peeling stalled before recovering all source symbols")
            }
            Error::CollidingItems => write!(
                f,
                "two distinct items share one keyed hash: peeling cannot separate them"
            ),
            Error::InconsistentStream => write!(
                f,
                "coded symbols are inconsistent: more symbols recovered than cells received"
            ),
            Error::WireFormat(msg) => write!(f, "malformed wire data: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let msgs = [
            Error::SymbolAddedAfterEncodingStarted.to_string(),
            Error::SymbolAddedAfterDecodingStarted.to_string(),
            Error::SketchShapeMismatch { left: 3, right: 5 }.to_string(),
            Error::DecodeIncomplete.to_string(),
            Error::CollidingItems.to_string(),
            Error::InconsistentStream.to_string(),
            Error::WireFormat("truncated").to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
        assert!(Error::SketchShapeMismatch { left: 3, right: 5 }
            .to_string()
            .contains("3 vs 5"));
    }
}

//! Small shared serialization helpers for the streaming backends: the
//! stream open that starts a shard's stream, and the range check a
//! per-session encoder serves under. The coded symbols themselves travel in
//! the compressed codec of `riblt::wire`.

use riblt::wire::{read_vlq, write_vlq};

use crate::engine::RangeRequest;
use crate::error::{EngineError, Result};

/// Builds the opening request of a streaming (rateless) backend: magic
/// bytes plus the item length, so the server can reject mismatched
/// configurations before streaming.
pub fn encode_stream_open(magic: [u8; 4], symbol_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.extend_from_slice(&magic);
    write_vlq(&mut out, symbol_len as u64);
    out
}

/// Validates an opening request produced by [`encode_stream_open`] and
/// returns what follows its item length, unread: the count sketch a
/// wildcard open carries ([`crate::first_flight`]), or nothing.
pub fn validate_stream_open(request: &[u8], magic: [u8; 4], symbol_len: usize) -> Result<&[u8]> {
    if !request.starts_with(&magic) {
        return Err(EngineError::WireFormat("bad stream open request"));
    }
    let (declared, rest) = split_stream_open(request)?;
    if declared as usize != symbol_len {
        return Err(EngineError::WireFormat("symbol length mismatch"));
    }
    Ok(rest)
}

/// A stream open's declared item length and the bytes after it; the magic
/// is not checked.
pub fn split_stream_open(request: &[u8]) -> Result<(u64, &[u8])> {
    if request.len() < 5 {
        return Err(EngineError::WireFormat("bad stream open request"));
    }
    let mut pos = 4;
    let declared = read_vlq(request, &mut pos)?;
    Ok((declared, &request[pos..]))
}

/// Checks a range request against a per-session streaming encoder that
/// serves `tile`-symbol payloads and stands at symbol `next`, returning the
/// number of payloads to produce. Such an encoder only moves forward, so
/// the range must be tile-aligned *and* continue the stream.
pub fn stream_range_tiles(range: RangeRequest, tile: usize, next: u64) -> Result<usize> {
    let tiles = range.tiles(tile, usize::MAX)?;
    if u64::from(range.offset) != next {
        return Err(EngineError::Protocol(
            "range does not continue the session's stream",
        ));
    }
    Ok(tiles)
}

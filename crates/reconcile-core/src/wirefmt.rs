//! Small shared serialization helpers for the fixed-size backends.
//!
//! The rateless backends reuse the compressed coded-symbol codec from
//! `riblt::wire`; the table-based backends (regular IBLT, MET-IBLT) move
//! flat cell arrays with the classic accounting — item-sized XOR sum, 8-byte
//! hash sum, zig-zag VLQ count — using the same VLQ primitives.

use iblt::{Cell, Iblt};
use riblt::wire::{read_vlq, write_vlq};
use riblt::Symbol;
use riblt_hash::SipKey;

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
pub(crate) fn split_stream_open(request: &[u8]) -> Result<(u64, &[u8])> {
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

/// Serializes a whole IBLT: VLQ(k), VLQ(cell count), then the cells in the
/// canonical [`Cell::write_wire`] layout.
pub fn encode_iblt<S: Symbol>(out: &mut Vec<u8>, table: &Iblt<S>, symbol_len: usize) {
    write_vlq(out, table.hash_count() as u64);
    write_vlq(out, table.len() as u64);
    for cell in table.cells() {
        cell.write_wire(out, symbol_len);
    }
}

/// Deserializes an IBLT written by [`encode_iblt`], pairing it with the
/// shared checksum key.
pub fn decode_iblt<S: Symbol>(
    bytes: &[u8],
    pos: &mut usize,
    symbol_len: usize,
    key: SipKey,
) -> Result<Iblt<S>> {
    let k = read_vlq(bytes, pos)? as usize;
    let m = read_vlq(bytes, pos)? as usize;
    if k == 0 || m == 0 || !m.is_multiple_of(k) {
        return Err(EngineError::WireFormat("bad IBLT geometry"));
    }
    // Each cell needs at least sum + hash + 1 count byte; a larger claimed
    // cell count is corrupt, and rejecting it here bounds the allocation.
    if m > (bytes.len() - *pos) / (symbol_len + 9) + 1 {
        return Err(EngineError::WireFormat("implausible cell count"));
    }
    let mut cells = Vec::with_capacity(m);
    for _ in 0..m {
        cells.push(Cell::read_wire(bytes, pos, symbol_len)?);
    }
    Ok(Iblt::from_parts(cells, k, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use riblt::FixedBytes;

    type Sym = FixedBytes<8>;

    #[test]
    fn iblt_roundtrip() {
        let items: Vec<Sym> = (0..200u64).map(Sym::from_u64).collect();
        let table = Iblt::from_set(64, 4, items.iter());
        let mut bytes = Vec::new();
        encode_iblt(&mut bytes, &table, 8);
        let mut pos = 0;
        let back: Iblt<Sym> = decode_iblt(&bytes, &mut pos, 8, SipKey::default()).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, table);
    }

    #[test]
    fn truncated_iblt_is_rejected() {
        let items: Vec<Sym> = (0..50u64).map(Sym::from_u64).collect();
        let table = Iblt::from_set(16, 4, items.iter());
        let mut bytes = Vec::new();
        encode_iblt(&mut bytes, &table, 8);
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            let mut pos = 0;
            assert!(decode_iblt::<Sym>(&bytes[..cut], &mut pos, 8, SipKey::default()).is_err());
        }
    }
}

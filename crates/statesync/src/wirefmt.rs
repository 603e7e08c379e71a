//! Serialization of whole IBLTs for the table-based backends (regular IBLT,
//! MET-IBLT): flat cell arrays with the classic accounting — item-sized XOR
//! sum, 8-byte hash sum, zig-zag VLQ count — in the VLQ primitives of
//! `riblt::wire`.

use iblt::{Cell, Iblt};
use reconcile_core::{EngineError, Result};
use riblt::wire::{read_vlq, write_vlq};
use riblt::Symbol;
use riblt_hash::SipKey;

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

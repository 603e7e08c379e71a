//! Wire format for coded symbols (paper §6, "variable-length encoding for
//! count").
//!
//! A coded symbol carries three fields. The `sum` is exactly as long as a
//! source symbol and the `checksum` is 8 bytes; neither compresses. The
//! `count` field, however, follows a known pattern: the i-th coded symbol of
//! a set of size `N` is expected to hold `N·ρ(i)` source symbols. We
//! therefore transmit only the *difference* between the actual count and
//! that expectation, zig-zag encoded as a variable-length quantity (VLQ), so
//! the field typically costs a single byte even for million-item sets.
//!
//! The set size `N` travels with the first coded symbol of the stream (the
//! paper transmits it alongside symbol 0); subsequent batches only need the
//! starting sequence index, which an ordered transport provides implicitly.

use crate::coded::CodedSymbol;
use crate::error::{Error, Result};
use crate::mapping::rho;
use crate::symbol::Symbol;

/// Magic bytes prefixing every batch ("RIbt").
const MAGIC: [u8; 4] = *b"RIbt";
/// Wire format version.
const VERSION: u8 = 1;

/// Reads just the envelope of an encoded batch — its start index and
/// symbol count — without decoding the symbols.
///
/// Datagram transports use this to sequence reorder-buffered batches (the
/// decoder consumes symbols positionally) before paying for the full
/// decode; the extent lives entirely in the fixed header VLQs.
pub fn peek_batch_extent(bytes: &[u8]) -> Result<(u64, usize)> {
    let mut pos = 0usize;
    if bytes.len() < 5 || bytes[..4] != MAGIC {
        return Err(Error::WireFormat("bad magic"));
    }
    pos += 4;
    if bytes[pos] != VERSION {
        return Err(Error::WireFormat("unsupported version"));
    }
    pos += 1;
    let _symbol_len = read_vlq(bytes, &mut pos)?;
    let _set_size = read_vlq(bytes, &mut pos)?;
    let start_index = read_vlq(bytes, &mut pos)?;
    let batch_len = read_vlq(bytes, &mut pos)? as usize;
    Ok((start_index, batch_len))
}

/// Writes `value` as a VLQ (7 bits per byte, MSB = continuation).
pub fn write_vlq(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a VLQ, advancing `pos`. Returns an error on truncation or overflow.
pub fn read_vlq(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or(Error::WireFormat("truncated VLQ"))?;
        *pos += 1;
        // The tenth byte holds bit 63 and nothing above it.
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(Error::WireFormat("VLQ overflows 64 bits"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zig-zag maps a signed value onto an unsigned one (small magnitudes stay
/// small).
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Expected `count` of the coded symbol at sequence index `index` for a set
/// of `set_size` items (rounded to the nearest integer).
#[inline]
pub fn expected_count(set_size: u64, index: u64, alpha: f64) -> i64 {
    (set_size as f64 * rho(alpha, index)).round() as i64
}

/// Codec for batches of coded symbols of one reconciliation stream.
#[derive(Debug, Clone, Copy)]
pub struct SymbolCodec {
    /// Length in bytes of every source symbol.
    pub symbol_len: usize,
    /// Size of the encoded set (drives the expected `count` values).
    pub set_size: u64,
    /// Mapping parameter (α = 0.5 in the final design).
    pub alpha: f64,
}

impl SymbolCodec {
    /// Creates a codec for `symbol_len`-byte symbols of a `set_size`-item
    /// set using the default α.
    pub fn new(symbol_len: usize, set_size: u64) -> Self {
        Self::with_alpha(symbol_len, set_size, crate::mapping::DEFAULT_ALPHA)
    }

    /// Creates a codec with an explicit mapping parameter α (must match the
    /// encoder that produced the coded symbols — see
    /// [`crate::Encoder::alpha`]).
    pub fn with_alpha(symbol_len: usize, set_size: u64, alpha: f64) -> Self {
        SymbolCodec {
            symbol_len,
            set_size,
            alpha,
        }
    }

    /// Serializes a batch of coded symbols whose first element has sequence
    /// index `start_index`.
    ///
    /// Layout: magic, version, VLQ(symbol_len), VLQ(set_size),
    /// VLQ(start_index), VLQ(batch_len), then per symbol:
    /// `sum` (symbol_len bytes) · `checksum` (8 bytes LE) ·
    /// zig-zag VLQ(count − expected_count).
    pub fn encode_batch<S: Symbol>(&self, symbols: &[CodedSymbol<S>], start_index: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + symbols.len() * (self.symbol_len + 9));
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        write_vlq(&mut out, self.symbol_len as u64);
        write_vlq(&mut out, self.set_size);
        write_vlq(&mut out, start_index);
        write_vlq(&mut out, symbols.len() as u64);
        for (offset, cs) in symbols.iter().enumerate() {
            let index = start_index + offset as u64;
            let sum_bytes = cs.sum.as_bytes();
            if sum_bytes.is_empty() {
                // Empty cells of variable-length symbol types have no width
                // yet; transmit an all-zero sum of the declared length.
                out.extend(std::iter::repeat_n(0u8, self.symbol_len));
            } else {
                debug_assert_eq!(sum_bytes.len(), self.symbol_len);
                out.extend_from_slice(sum_bytes);
            }
            out.extend_from_slice(&cs.checksum.to_le_bytes());
            let expected = expected_count(self.set_size, index, self.alpha);
            write_vlq(&mut out, zigzag_encode(cs.count - expected));
        }
        out
    }

    /// Deserializes a batch produced by [`Self::encode_batch`].
    ///
    /// Returns the coded symbols together with the start index and the set
    /// size declared by the sender. The codec's own `symbol_len` is checked
    /// against the header; `set_size`/`alpha` from the header are used for
    /// count reconstruction. `bytes` must be the batch and nothing more:
    /// bytes past its last symbol are refused.
    pub fn decode_batch<S: Symbol>(&self, bytes: &[u8]) -> Result<DecodedBatch<S>> {
        let mut pos = 0usize;
        if bytes.len() < 5 || bytes[..4] != MAGIC {
            return Err(Error::WireFormat("bad magic"));
        }
        pos += 4;
        if bytes[pos] != VERSION {
            return Err(Error::WireFormat("unsupported version"));
        }
        pos += 1;
        let symbol_len = read_vlq(bytes, &mut pos)? as usize;
        if symbol_len != self.symbol_len {
            return Err(Error::WireFormat("symbol length mismatch"));
        }
        let set_size = read_vlq(bytes, &mut pos)?;
        let start_index = read_vlq(bytes, &mut pos)?;
        let batch_len = read_vlq(bytes, &mut pos)? as usize;
        // Each symbol needs at least sum + checksum + 1 count byte; a batch
        // length beyond that is corrupt, and rejecting it here also bounds
        // the allocation below.
        if batch_len > (bytes.len() - pos) / (symbol_len + 9) + 1 {
            return Err(Error::WireFormat("implausible batch length"));
        }
        let mut symbols = Vec::with_capacity(batch_len);
        // A hostile start or set size wraps the index or the count (as
        // integers do in a release build) into cells the caller refuses or
        // cannot peel; it never panics.
        for offset in 0..batch_len {
            let index = start_index.wrapping_add(offset as u64);
            let end = pos + symbol_len;
            if end > bytes.len() {
                return Err(Error::WireFormat("truncated sum"));
            }
            let sum = S::from_bytes(&bytes[pos..end]);
            pos = end;
            if pos + 8 > bytes.len() {
                return Err(Error::WireFormat("truncated checksum"));
            }
            let mut cbytes = [0u8; 8];
            cbytes.copy_from_slice(&bytes[pos..pos + 8]);
            let checksum = u64::from_le_bytes(cbytes);
            pos += 8;
            let delta = zigzag_decode(read_vlq(bytes, &mut pos)?);
            let count = expected_count(set_size, index, self.alpha).wrapping_add(delta);
            symbols.push(CodedSymbol {
                sum,
                checksum,
                count,
            });
        }
        // A batch is the whole payload: bytes past its last symbol are a
        // trailer or symbols its length does not count, never dropped.
        if pos != bytes.len() {
            return Err(Error::WireFormat("bytes after the batch"));
        }
        Ok(DecodedBatch {
            symbols,
            start_index,
            set_size,
        })
    }

    /// Number of bytes the `count` fields of `symbols` occupy on the wire
    /// (used by the §6 compression experiment).
    pub fn count_field_bytes<S: Symbol>(
        &self,
        symbols: &[CodedSymbol<S>],
        start_index: u64,
    ) -> usize {
        let mut total = 0usize;
        for (offset, cs) in symbols.iter().enumerate() {
            let index = start_index + offset as u64;
            let expected = expected_count(self.set_size, index, self.alpha);
            let mut buf = Vec::new();
            write_vlq(&mut buf, zigzag_encode(cs.count - expected));
            total += buf.len();
        }
        total
    }
}

/// Result of decoding one wire batch.
#[derive(Debug, Clone)]
pub struct DecodedBatch<S: Symbol> {
    /// The coded symbols in sequence order.
    pub symbols: Vec<CodedSymbol<S>>,
    /// Sequence index of the first symbol in the batch.
    pub start_index: u64,
    /// Set size declared by the sender.
    pub set_size: u64,
}

/// Convenience wrapper: serializes `symbols` (a prefix starting at index 0)
/// for a set of `set_size` items of `symbol_len` bytes each.
pub fn encode_coded_symbols<S: Symbol>(
    symbols: &[CodedSymbol<S>],
    symbol_len: usize,
    set_size: u64,
) -> Vec<u8> {
    SymbolCodec::new(symbol_len, set_size).encode_batch(symbols, 0)
}

/// Convenience wrapper for [`SymbolCodec::decode_batch`].
pub fn decode_coded_symbols<S: Symbol>(
    bytes: &[u8],
    symbol_len: usize,
) -> Result<Vec<CodedSymbol<S>>> {
    // The set size in the header drives count reconstruction; the codec's
    // set_size field is irrelevant for decoding, so pass 0.
    let codec = SymbolCodec {
        symbol_len,
        set_size: 0,
        alpha: crate::mapping::DEFAULT_ALPHA,
    };
    Ok(codec.decode_batch(bytes)?.symbols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::symbol::FixedBytes;

    type Sym = FixedBytes<8>;

    #[test]
    fn peek_extent_matches_the_full_decode() {
        let mut encoder = Encoder::<Sym>::new();
        for i in 0..50u64 {
            encoder.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let cells: Vec<CodedSymbol<Sym>> = (0..20)
            .map(|_| encoder.produce_next_coded_symbol())
            .collect();
        let codec = SymbolCodec::new(8, 50);
        let bytes = codec.encode_batch(&cells[5..15], 5);
        assert_eq!(peek_batch_extent(&bytes).unwrap(), (5, 10));
        let decoded = codec.decode_batch::<Sym>(&bytes).unwrap();
        assert_eq!(decoded.start_index, 5);
        assert_eq!(decoded.symbols.len(), 10);
        // Truncations inside the envelope error instead of panicking.
        for cut in 0..8 {
            assert!(peek_batch_extent(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn vlq_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for v in values {
            let mut buf = Vec::new();
            write_vlq(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_vlq(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn vlq_is_compact_for_small_values() {
        let mut buf = Vec::new();
        write_vlq(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_vlq(&mut buf, 200);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [
            -1_000_000i64,
            -2,
            -1,
            0,
            1,
            2,
            1_000_000,
            i64::MIN,
            i64::MAX,
        ] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes map to small codes.
        assert!(zigzag_encode(-1) <= 2);
        assert!(zigzag_encode(1) <= 2);
    }

    #[test]
    fn truncated_vlq_is_an_error() {
        let buf = vec![0x80u8, 0x80];
        let mut pos = 0;
        assert_eq!(
            read_vlq(&buf, &mut pos).unwrap_err(),
            Error::WireFormat("truncated VLQ")
        );
        // Past u64: an eleventh byte, or a tenth above bit 63.
        for past in [
            [0xffu8; 11].to_vec(),
            [[0xff; 9].as_slice(), &[0x02]].concat(),
        ] {
            assert_eq!(
                read_vlq(&past, &mut 0).unwrap_err(),
                Error::WireFormat("VLQ overflows 64 bits")
            );
        }
    }

    #[test]
    fn batch_roundtrip_preserves_symbols() {
        let mut enc = Encoder::<Sym>::new();
        for i in 0..5_000u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let symbols = enc.produce_coded_symbols(300);
        let codec = SymbolCodec::new(8, 5_000);
        let bytes = codec.encode_batch(&symbols, 0);
        let decoded = codec.decode_batch::<Sym>(&bytes).unwrap();
        assert_eq!(decoded.symbols, symbols);
        assert_eq!(decoded.set_size, 5_000);
        assert_eq!(decoded.start_index, 0);
    }

    #[test]
    fn batch_roundtrip_with_nonzero_start_index() {
        let mut enc = Encoder::<Sym>::new();
        for i in 0..1_000u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let _skip = enc.produce_coded_symbols(100);
        let tail = enc.produce_coded_symbols(50);
        let codec = SymbolCodec::new(8, 1_000);
        let bytes = codec.encode_batch(&tail, 100);
        let decoded = codec.decode_batch::<Sym>(&bytes).unwrap();
        assert_eq!(decoded.symbols, tail);
        assert_eq!(decoded.start_index, 100);
    }

    #[test]
    fn count_field_compresses_to_about_one_byte() {
        // The §6 claim: encoding 10^6 items into 10^4 coded symbols costs
        // ≈1.05 bytes of count per coded symbol. We use a smaller set here
        // (unit-test scale) and just check the per-symbol cost stays small;
        // the full-scale measurement lives in the bench harness.
        let n = 100_000u64;
        let mut enc = Encoder::<Sym>::new();
        for i in 0..n {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let m = 2_000;
        let symbols = enc.produce_coded_symbols(m);
        let codec = SymbolCodec::new(8, n);
        let bytes = codec.count_field_bytes(&symbols, 0);
        let per_symbol = bytes as f64 / m as f64;
        assert!(
            per_symbol < 2.0,
            "count field costs {per_symbol:.2} bytes per coded symbol"
        );
    }

    #[test]
    fn corrupted_magic_and_version_are_rejected() {
        let codec = SymbolCodec::new(8, 10);
        let symbols = vec![CodedSymbol::<Sym>::default(); 3];
        let mut bytes = codec.encode_batch(&symbols, 0);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(codec.decode_batch::<Sym>(&bad_magic).is_err());
        bytes[4] = 99; // version
        assert!(codec.decode_batch::<Sym>(&bytes).is_err());
    }

    #[test]
    fn truncated_batch_is_rejected() {
        let codec = SymbolCodec::new(8, 100);
        let mut enc = Encoder::<Sym>::new();
        for i in 0..100u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let symbols = enc.produce_coded_symbols(10);
        let bytes = codec.encode_batch(&symbols, 0);
        for cut in [bytes.len() - 1, bytes.len() / 2, 6] {
            assert!(codec.decode_batch::<Sym>(&bytes[..cut]).is_err());
        }
    }

    /// A 32-symbol batch of a 100-item set.
    fn batch_of_32() -> (SymbolCodec, Vec<CodedSymbol<Sym>>, Vec<u8>) {
        let mut enc = Encoder::<Sym>::new();
        for i in 0..100u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let symbols = enc.produce_coded_symbols(32);
        let codec = SymbolCodec::new(8, 100);
        let bytes = codec.encode_batch(&symbols, 0);
        (codec, symbols, bytes)
    }

    #[test]
    fn bytes_after_the_last_symbol_are_refused() {
        let (codec, symbols, mut bytes) = batch_of_32();
        assert_eq!(codec.decode_batch::<Sym>(&bytes).unwrap().symbols, symbols);
        bytes.extend([0u8; 16]);
        assert_eq!(
            codec.decode_batch::<Sym>(&bytes).unwrap_err(),
            Error::WireFormat("bytes after the batch")
        );
    }

    #[test]
    fn a_length_shorter_than_the_batch_is_refused() {
        let (codec, _, bytes) = batch_of_32();
        // The length VLQ follows the magic, the version and three one-byte
        // VLQs (symbol length 8, set size 100, start 0).
        let length_at = MAGIC.len() + 4;
        assert_eq!(bytes[length_at], 32);
        let mut shortened = bytes.clone();
        shortened[length_at] = 5;
        assert_eq!(
            codec.decode_batch::<Sym>(&shortened).unwrap_err(),
            Error::WireFormat("bytes after the batch")
        );
    }

    #[test]
    fn symbol_length_mismatch_is_rejected() {
        let codec8 = SymbolCodec::new(8, 10);
        let codec16 = SymbolCodec::new(16, 10);
        let symbols = vec![CodedSymbol::<Sym>::default(); 1];
        let bytes = codec8.encode_batch(&symbols, 0);
        assert_eq!(
            codec16.decode_batch::<Sym>(&bytes).unwrap_err(),
            Error::WireFormat("symbol length mismatch")
        );
    }

    #[test]
    fn convenience_wrappers_roundtrip() {
        let mut enc = Encoder::<Sym>::new();
        for i in 0..50u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let symbols = enc.produce_coded_symbols(20);
        let bytes = encode_coded_symbols(&symbols, 8, 50);
        let back: Vec<CodedSymbol<Sym>> = decode_coded_symbols(&bytes, 8).unwrap();
        assert_eq!(back, symbols);
    }
}

//! Source-symbol abstraction.
//!
//! A *source symbol* is an item of the set being reconciled (paper §3): a bit
//! string of some length ℓ. Coded symbols XOR source symbols together, so the
//! only operations the library needs from a symbol type are a zero value,
//! in-place XOR, and a byte view for checksum hashing.
//!
//! Two ready-made symbol types cover the common cases:
//! [`FixedBytes`] for fixed-length items (e.g. 8-byte transaction IDs or
//! 32-byte SHA-256 keys) and [`VecSymbol`] for longer, run-time-sized items
//! (e.g. the 92-byte account records of the Ethereum experiment, or
//! multi-kilobyte blobs in the item-size sweep of Fig. 11).

use riblt_hash::{siphash24, siphash24_many, SipKey};

/// A set item that can participate in coded symbols.
///
/// Requirements (mirroring the paper's model):
/// * `Default::default()` is the identity element: `x ⊕ default = x`.
/// * XOR is commutative, associative, and self-inverse (`x ⊕ x = default`).
/// * [`Symbol::as_bytes`] exposes a canonical byte representation used for
///   the keyed checksum; two equal symbols must expose equal bytes.
///
/// **Length invariant:** all symbols mixed into the same sketch, encoder, or
/// decoder must have the same byte length. For variable-length symbol types
/// ([`VecSymbol`]), XOR-ing two symbols of different non-zero lengths is a
/// logic error in the caller; implementations must reject it up front (panic
/// with a message naming both lengths) rather than corrupt state, and the
/// zero-length identity element adopts the width of the first real symbol
/// XOR-ed into it.
pub trait Symbol: Clone + PartialEq + Default {
    /// XORs `other` into `self`.
    ///
    /// This runs on every cell touch of encode, decode, and sketch subtract
    /// — implementations should use [`xor_bytes_in_place`] (or equivalent)
    /// so the compiler can vectorize it, rather than a byte-at-a-time loop.
    fn xor_in_place(&mut self, other: &Self);

    /// Canonical byte view used for checksum hashing.
    fn as_bytes(&self) -> &[u8];

    /// Reconstructs a symbol from its canonical byte view (inverse of
    /// [`Symbol::as_bytes`]); used by the wire codec.
    ///
    /// Implementations may panic if `bytes` has the wrong length for the
    /// symbol type.
    fn from_bytes(bytes: &[u8]) -> Self;

    /// Returns true if this symbol equals the identity element.
    fn is_zero(&self) -> bool {
        self.as_bytes().iter().all(|&b| b == 0)
    }

    /// Computes the keyed 64-bit checksum hash of this symbol (paper §4.3).
    #[inline]
    fn hash_with(&self, key: SipKey) -> u64 {
        siphash24(key, self.as_bytes())
    }

    /// [`Symbol::hash_with`] of every item, in order, for callers that hold
    /// a whole set: equal-length items are hashed several at a time
    /// ([`siphash24_many`]: eight in AVX-512 lanes where the CPU has them,
    /// about a seventh of hashing them one by one; four in scalar lanes
    /// elsewhere, about two thirds). An implementation that overrides
    /// `hash_with` must override this to match it.
    fn hash_many_with(items: &[Self], key: SipKey) -> Vec<u64> {
        siphash24_many(key, items.iter().map(Self::as_bytes))
    }
}

/// XORs `src` into `dst`, walking 32-byte blocks of four `u64` lanes — wide
/// enough for the compiler to lower the inner loop to 128/256-bit vector
/// XORs (the same autovectorization contract as the CLMUL fast path in
/// `pinsketch::gf64`) — then 8-byte words, then a byte tail. Byte-for-byte
/// identical to the scalar loop `dst[i] ^= src[i]` for every length.
///
/// Both slices must have equal length; callers enforce the [`Symbol`]
/// length invariant before getting here.
#[inline]
pub fn xor_bytes_in_place(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len(), "xor_bytes_in_place length mismatch");
    let mut dst_blocks = dst.chunks_exact_mut(32);
    let mut src_blocks = src.chunks_exact(32);
    for (d, s) in (&mut dst_blocks).zip(&mut src_blocks) {
        for lane in 0..4 {
            let at = lane * 8;
            let a = u64::from_ne_bytes(d[at..at + 8].try_into().unwrap());
            let b = u64::from_ne_bytes(s[at..at + 8].try_into().unwrap());
            d[at..at + 8].copy_from_slice(&(a ^ b).to_ne_bytes());
        }
    }
    let mut dst_words = dst_blocks.into_remainder().chunks_exact_mut(8);
    let mut src_words = src_blocks.remainder().chunks_exact(8);
    for (d, s) in (&mut dst_words).zip(&mut src_words) {
        let a = u64::from_ne_bytes(d.try_into().unwrap());
        let b = u64::from_ne_bytes(s.try_into().unwrap());
        d.copy_from_slice(&(a ^ b).to_ne_bytes());
    }
    for (a, b) in dst_words
        .into_remainder()
        .iter_mut()
        .zip(src_words.remainder())
    {
        *a ^= *b;
    }
}

/// A fixed-length symbol of `N` bytes.
///
/// This is the work-horse type: `FixedBytes<8>` for the computation-cost
/// experiments (§7.2), `FixedBytes<32>` for the communication-cost
/// experiments (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FixedBytes<const N: usize>(pub [u8; N]);

impl<const N: usize> FixedBytes<N> {
    /// The all-zero symbol.
    pub const ZERO: FixedBytes<N> = FixedBytes([0u8; N]);

    /// Builds a symbol from a `u64` by little-endian encoding into the first
    /// 8 bytes (or fewer if `N < 8`). Handy for synthetic workloads.
    pub fn from_u64(value: u64) -> Self {
        let mut bytes = [0u8; N];
        let src = value.to_le_bytes();
        let n = N.min(8);
        bytes[..n].copy_from_slice(&src[..n]);
        FixedBytes(bytes)
    }

    /// Reads back the `u64` stored by [`Self::from_u64`].
    pub fn to_u64(&self) -> u64 {
        let mut src = [0u8; 8];
        let n = N.min(8);
        src[..n].copy_from_slice(&self.0[..n]);
        u64::from_le_bytes(src)
    }
}

impl<const N: usize> Default for FixedBytes<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> Symbol for FixedBytes<N> {
    #[inline]
    fn xor_in_place(&mut self, other: &Self) {
        xor_bytes_in_place(&mut self.0, &other.0);
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), N, "FixedBytes<{N}> from {} bytes", bytes.len());
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        FixedBytes(out)
    }
}

impl<const N: usize> From<[u8; N]> for FixedBytes<N> {
    fn from(bytes: [u8; N]) -> Self {
        FixedBytes(bytes)
    }
}

/// A variable-length symbol backed by a `Vec<u8>`.
///
/// All symbols mixed into the same sketch must have the same length; this is
/// the set-reconciliation model of the paper (items of common length ℓ).
/// Applications with genuinely variable-length items reconcile fixed-length
/// *keys* (hashes) and fetch payloads afterwards, exactly like the Ethereum
/// application in §7.3 reconciles key/value pairs of fixed width.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VecSymbol(pub Vec<u8>);

impl VecSymbol {
    /// Creates a symbol from raw bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        VecSymbol(bytes)
    }

    /// Creates an all-zero symbol of length `len`.
    pub fn zero(len: usize) -> Self {
        VecSymbol(vec![0u8; len])
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the symbol has zero length.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Symbol for VecSymbol {
    fn xor_in_place(&mut self, other: &Self) {
        // Validate before touching any state: a mismatch must not leave
        // `self` resized or half-XOR-ed.
        if !self.0.is_empty() && !other.0.is_empty() && self.0.len() != other.0.len() {
            panic!(
                "VecSymbol XOR requires equal lengths ({} vs {}); all symbols \
                 in one sketch must share one byte width",
                self.0.len(),
                other.0.len()
            );
        }
        if other.0.is_empty() {
            return;
        }
        if self.0.is_empty() {
            // The identity element (`VecSymbol::default()`) carries no width;
            // adopt the width of the first real symbol XOR-ed into it.
            self.0 = other.0.clone();
            return;
        }
        xor_bytes_in_place(&mut self.0, &other.0);
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        VecSymbol(bytes.to_vec())
    }
}

/// A source symbol paired with its (keyed) checksum hash.
///
/// The hash doubles as the seed of the symbol's index-mapping PRNG, so it is
/// computed once when the symbol enters an encoder/decoder and carried along.
#[derive(Debug, Clone, PartialEq)]
pub struct HashedSymbol<S: Symbol> {
    /// The source symbol itself.
    pub symbol: S,
    /// Keyed 64-bit checksum hash of the symbol.
    pub hash: u64,
}

impl<S: Symbol> HashedSymbol<S> {
    /// Hashes `symbol` under `key` and pairs the two.
    pub fn new(symbol: S, key: SipKey) -> Self {
        let hash = symbol.hash_with(key);
        HashedSymbol { symbol, hash }
    }

    /// Pairs a symbol with a precomputed hash (e.g. when the application
    /// already stores item hashes).
    pub fn with_hash(symbol: S, hash: u64) -> Self {
        HashedSymbol { symbol, hash }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_bytes_xor_roundtrip() {
        let a = FixedBytes::<8>::from_u64(0x1122_3344_5566_7788);
        let b = FixedBytes::<8>::from_u64(0x0102_0304_0506_0708);
        let mut c = a;
        c.xor_in_place(&b);
        c.xor_in_place(&b);
        assert_eq!(c, a);
        let mut d = a;
        d.xor_in_place(&a);
        assert!(d.is_zero());
    }

    #[test]
    fn fixed_bytes_u64_roundtrip() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(FixedBytes::<8>::from_u64(v).to_u64(), v);
        }
        // Narrow symbols truncate.
        assert_eq!(FixedBytes::<4>::from_u64(0x1_0000_0001).to_u64(), 1);
    }

    #[test]
    fn vec_symbol_xor_and_zero() {
        let a = VecSymbol::new(vec![1, 2, 3, 4]);
        let mut z = VecSymbol::default();
        assert!(z.is_zero());
        z.xor_in_place(&a);
        assert_eq!(z, a, "identity adopts the width of the first symbol");
        let mut c = a.clone();
        c.xor_in_place(&a);
        assert!(c.is_zero());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn vec_symbol_length_mismatch_panics() {
        let mut a = VecSymbol::new(vec![1, 2, 3]);
        let b = VecSymbol::new(vec![1, 2]);
        a.xor_in_place(&b);
    }

    #[test]
    fn vec_symbol_untouched_by_rejected_xor() {
        let mut a = VecSymbol::new(vec![1, 2, 3, 4, 5]);
        let b = VecSymbol::new(vec![9; 64]);
        let before = a.clone();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.xor_in_place(&b);
        }));
        assert!(outcome.is_err(), "mismatched XOR must panic");
        assert_eq!(a, before, "validation happens before any mutation");
    }

    /// Scalar reference the chunked path must match byte-for-byte.
    fn scalar_xor(dst: &mut [u8], src: &[u8]) {
        for (a, b) in dst.iter_mut().zip(src) {
            *a ^= *b;
        }
    }

    fn random_buf(gen: &mut riblt_hash::SplitMix64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        gen.fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn chunked_xor_matches_scalar_for_all_lengths() {
        let mut gen = riblt_hash::SplitMix64::new(0x0c0_ffee);
        for len in 0..=257usize {
            let src = random_buf(&mut gen, len);
            let mut chunked = random_buf(&mut gen, len);
            let mut scalar = chunked.clone();
            xor_bytes_in_place(&mut chunked, &src);
            scalar_xor(&mut scalar, &src);
            assert_eq!(chunked, scalar, "length {len}");
        }
    }

    #[test]
    fn vec_symbol_xor_matches_scalar_for_all_lengths() {
        let mut gen = riblt_hash::SplitMix64::new(0x7ec_70e5);
        for len in 0..=257usize {
            let src = random_buf(&mut gen, len);
            let dst = random_buf(&mut gen, len);
            let mut sym = VecSymbol::new(dst.clone());
            sym.xor_in_place(&VecSymbol::new(src.clone()));
            let mut scalar = dst;
            scalar_xor(&mut scalar, &src);
            assert_eq!(sym.0, scalar, "length {len}");
        }
    }

    #[test]
    fn fixed_bytes_xor_matches_scalar_at_boundary_lengths() {
        // `FixedBytes` lengths are const generics, so the 0..=257 sweep is
        // spelled out at every chunking boundary (32-block, 8-word, tail).
        macro_rules! check {
            ($($n:literal),+ $(,)?) => {{
                let mut gen = riblt_hash::SplitMix64::new(0xf1_bed);
                $({
                    let src: [u8; $n] = random_buf(&mut gen, $n).try_into().unwrap();
                    let dst: [u8; $n] = random_buf(&mut gen, $n).try_into().unwrap();
                    let mut sym = FixedBytes(dst);
                    sym.xor_in_place(&FixedBytes(src));
                    let mut scalar = dst;
                    scalar_xor(&mut scalar, &src);
                    assert_eq!(sym.0, scalar, "FixedBytes<{}>", $n);
                })+
            }};
        }
        check!(
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 39, 40, 41, 47, 48,
            63, 64, 65, 71, 95, 96, 97, 127, 128, 129, 159, 160, 161, 191, 192, 193, 223, 224, 225,
            255, 256, 257
        );
    }

    #[test]
    fn hashes_depend_on_key_and_content() {
        let a = FixedBytes::<8>::from_u64(7);
        let b = FixedBytes::<8>::from_u64(8);
        let k1 = SipKey::new(1, 2);
        let k2 = SipKey::new(3, 4);
        assert_ne!(a.hash_with(k1), b.hash_with(k1));
        assert_ne!(a.hash_with(k1), a.hash_with(k2));
        assert_eq!(a.hash_with(k1), HashedSymbol::new(a, k1).hash);
    }

    #[test]
    fn batch_hashes_equal_hash_with_item_for_item() {
        fn check<S: Symbol>(make: impl Fn(&mut riblt_hash::SplitMix64) -> S) {
            let key = SipKey::new(11, 13);
            let mut gen = riblt_hash::SplitMix64::new(0xba7c4);
            // Whole groups, every tail, and the empty set.
            for count in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 64, 1_001] {
                let items: Vec<S> = (0..count).map(|_| make(&mut gen)).collect();
                let one_by_one: Vec<u64> = items.iter().map(|i| i.hash_with(key)).collect();
                assert_eq!(S::hash_many_with(&items, key), one_by_one, "{count} items");
            }
        }
        check(|gen| FixedBytes::<8>::from_u64(gen.next_u64()));
        check(|gen| {
            let mut bytes = [0u8; 32];
            gen.fill_bytes(&mut bytes);
            FixedBytes(bytes)
        });
        check(|gen| VecSymbol::new(random_buf(gen, 92)));
        // Items of one `VecSymbol` slice need not share a length to be hashed.
        check(|gen| {
            let len = (gen.next_u64() % 5) as usize;
            VecSymbol::new(random_buf(gen, len))
        });
    }

    #[test]
    fn xor_is_commutative_and_associative() {
        let xs: Vec<FixedBytes<16>> = (1u64..=5)
            .map(|i| {
                let mut b = [0u8; 16];
                b[..8].copy_from_slice(&i.to_le_bytes());
                b[8..].copy_from_slice(&(i * 1000).to_le_bytes());
                FixedBytes(b)
            })
            .collect();
        // Fold in two different orders.
        let mut forward = FixedBytes::<16>::ZERO;
        for x in &xs {
            forward.xor_in_place(x);
        }
        let mut backward = FixedBytes::<16>::ZERO;
        for x in xs.iter().rev() {
            backward.xor_in_place(x);
        }
        assert_eq!(forward, backward);
    }
}

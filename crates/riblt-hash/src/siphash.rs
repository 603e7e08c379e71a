//! SipHash-2-4, implemented from scratch.
//!
//! The paper (§4.3) recommends a *keyed* hash function with short (64-bit)
//! uniform output so that coded-symbol checksums stay small while remaining
//! robust against adversarially injected items: an attacker who does not know
//! the key cannot target a checksum collision against a specific peer's set.
//! SipHash-2-4 (Aumasson & Bernstein, 2012) is the function the paper uses,
//! so we implement it here rather than pulling in a third-party crate — the
//! checksum function is part of the system under reproduction.
//!
//! The implementation follows the reference description: a 128-bit key, four
//! 64-bit words of internal state, 2 compression rounds per 8-byte message
//! block and 4 finalization rounds.

/// A 128-bit SipHash key.
///
/// Peers that want adversarial-workload resistance agree on a secret key out
/// of band (§4.3). Peers that only need checksums for decoding correctness
/// can use [`SipKey::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipKey {
    /// First half of the 128-bit key.
    pub k0: u64,
    /// Second half of the 128-bit key.
    pub k1: u64,
}

impl Default for SipKey {
    fn default() -> Self {
        // Arbitrary but fixed constants: reconciliation still works when both
        // sides use the same default key; only adversarial resistance needs a
        // secret key.
        SipKey {
            k0: 0x6c79_6e67_7261_7473,
            k1: 0x7365_7472_6563_6f6e,
        }
    }
}

impl SipKey {
    /// Creates a key from two 64-bit halves.
    pub const fn new(k0: u64, k1: u64) -> Self {
        SipKey { k0, k1 }
    }

    /// Creates a key from 16 bytes (little-endian halves), e.g. a shared
    /// secret negotiated by the application.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        let mut k0 = [0u8; 8];
        let mut k1 = [0u8; 8];
        k0.copy_from_slice(&bytes[..8]);
        k1.copy_from_slice(&bytes[8..]);
        SipKey {
            k0: u64::from_le_bytes(k0),
            k1: u64::from_le_bytes(k1),
        }
    }
}

#[inline(always)]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

/// Computes SipHash-2-4 of `data` under `key`, returning a 64-bit tag.
pub fn siphash24(key: SipKey, data: &[u8]) -> u64 {
    let mut v0 = 0x736f_6d65_7073_6575u64 ^ key.k0;
    let mut v1 = 0x646f_7261_6e64_6f6du64 ^ key.k1;
    let mut v2 = 0x6c79_6765_6e65_7261u64 ^ key.k0;
    let mut v3 = 0x7465_6462_7974_6573u64 ^ key.k1;

    let len = data.len();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        let m = u64::from_le_bytes(buf);
        v3 ^= m;
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        v0 ^= m;
    }

    // Final block: remaining bytes plus the message length in the top byte.
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = (len & 0xff) as u8;
    let m = u64::from_le_bytes(last);
    v3 ^= m;
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    v0 ^= m;

    v2 ^= 0xff;
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);

    v0 ^ v1 ^ v2 ^ v3
}

/// Messages [`siphash24_many`] hashes in lockstep. One SipHash is a serial
/// chain of adds, rotates and xors that leaves most of a core's issue width
/// idle; four independent chains fill it, and more only crowd the window
/// the core schedules from (measured on 20,000 × 32 B: 0.54 ms one at a
/// time, 0.37 with two lanes, 0.33 with four, 0.38 with six, 0.45 with
/// eight).
const LANES: usize = 4;

/// Computes SipHash-2-4 of every message under `key`, in order:
/// `out[i] == siphash24(key, messages[i])`.
///
/// Groups of four messages of equal length, which is every group when the
/// messages are the items of one set, advance through their blocks together
/// so their round chains overlap. A group of mixed lengths and the last
/// `n mod 4` messages go through [`siphash24`] one at a time.
pub fn siphash24_many<'a, I>(key: SipKey, messages: I) -> Vec<u64>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut messages = messages.into_iter();
    let mut out = Vec::with_capacity(messages.size_hint().0);
    let mut group: [&[u8]; LANES] = [&[]; LANES];
    loop {
        // A plain counted refill: the `zip(..).count()` spelling of this
        // loop measured 0.47 ms where this one measures 0.33.
        let mut filled = 0;
        while filled < LANES {
            match messages.next() {
                Some(message) => group[filled] = message,
                None => break,
            }
            filled += 1;
        }
        let len = group[0].len();
        if filled == LANES && group.iter().all(|message| message.len() == len) {
            out.extend_from_slice(&siphash24_lanes(key, &group, len));
        } else {
            out.extend(
                group[..filled]
                    .iter()
                    .map(|message| siphash24(key, message)),
            );
        }
        if filled < LANES {
            return out;
        }
    }
}

/// [`siphash24`] of [`LANES`] messages of `len` bytes each. Every block is
/// compressed into one lane's state after the other: the lanes share no
/// data, so the core runs their rounds side by side, and each lane's four
/// words are live only while its own rounds are issued (sixteen words kept
/// live through every round spill, which measured no faster than one lane).
#[inline]
fn siphash24_lanes(key: SipKey, messages: &[&[u8]; LANES], len: usize) -> [u64; LANES] {
    #[inline(always)]
    fn compress(v: &mut [u64; 4], m: u64) {
        let [v0, v1, v2, v3] = v;
        *v3 ^= m;
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        *v0 ^= m;
    }

    let mut v = [[
        0x736f_6d65_7073_6575u64 ^ key.k0,
        0x646f_7261_6e64_6f6du64 ^ key.k1,
        0x6c79_6765_6e65_7261u64 ^ key.k0,
        0x7465_6462_7974_6573u64 ^ key.k1,
    ]; LANES];
    let messages = messages.map(|message| &message[..len]);
    let whole = len - len % 8;
    for at in (0..whole).step_by(8) {
        for (v, message) in v.iter_mut().zip(messages) {
            let block = message[at..at + 8].try_into().expect("an 8-byte block");
            compress(v, u64::from_le_bytes(block));
        }
    }
    for (v, message) in v.iter_mut().zip(messages) {
        // Final block: remaining bytes plus the message length in the top byte.
        let mut last = [0u8; 8];
        last[..len - whole].copy_from_slice(&message[whole..]);
        last[7] = (len & 0xff) as u8;
        compress(v, u64::from_le_bytes(last));
        v[2] ^= 0xff;
    }
    for _ in 0..2 {
        for [v0, v1, v2, v3] in &mut v {
            sipround(v0, v1, v2, v3);
            sipround(v0, v1, v2, v3);
        }
    }
    v.map(|[v0, v1, v2, v3]| v0 ^ v1 ^ v2 ^ v3)
}

/// Incremental SipHash-2-4 hasher for callers that feed data in pieces.
///
/// Produces the same output as [`siphash24`] over the concatenation of all
/// written slices.
#[derive(Debug, Clone)]
pub struct SipHasher24 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Bytes written so far (mod 2^64); the low byte participates in padding.
    len: u64,
    /// Pending bytes that do not yet form a full 8-byte block.
    tail: [u8; 8],
    tail_len: usize,
}

impl SipHasher24 {
    /// Creates a hasher with the given key.
    pub fn new(key: SipKey) -> Self {
        SipHasher24 {
            v0: 0x736f_6d65_7073_6575u64 ^ key.k0,
            v1: 0x646f_7261_6e64_6f6du64 ^ key.k1,
            v2: 0x6c79_6765_6e65_7261u64 ^ key.k0,
            v3: 0x7465_6462_7974_6573u64 ^ key.k1,
            len: 0,
            tail: [0u8; 8],
            tail_len: 0,
        }
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        self.v0 ^= m;
    }

    /// Appends `data` to the message being hashed.
    pub fn write(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.tail_len > 0 {
            let need = 8 - self.tail_len;
            let take = need.min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len == 8 {
                let m = u64::from_le_bytes(self.tail);
                self.compress(m);
                self.tail_len = 0;
            } else {
                return;
            }
        }
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.compress(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        self.tail[..rem.len()].copy_from_slice(rem);
        self.tail_len = rem.len();
    }

    /// Appends a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Finalizes the hash and returns the 64-bit tag.
    pub fn finish(mut self) -> u64 {
        let mut last = [0u8; 8];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        last[7] = (self.len & 0xff) as u8;
        self.compress(u64::from_le_bytes(last));
        self.v2 ^= 0xff;
        for _ in 0..4 {
            sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        }
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference key from the SipHash paper: 0x000102...0f.
    fn reference_key() -> SipKey {
        let bytes: [u8; 16] = core::array::from_fn(|i| i as u8);
        SipKey::from_bytes(&bytes)
    }

    /// First few vectors of the official SipHash-2-4 64-bit test vector list
    /// (input = 0x00, 0x0001, 0x000102, ... under the reference key).
    const VECTORS: [u64; 16] = [
        0x726fdb47dd0e0e31,
        0x74f839c593dc67fd,
        0x0d6c8009d9a94f5a,
        0x85676696d7fb7e2d,
        0xcf2794e0277187b7,
        0x18765564cd99a68d,
        0xcbc9466e58fee3ce,
        0xab0200f58b01d137,
        0x93f5f5799a932462,
        0x9e0082df0ba9e4b0,
        0x7a5dbbc594ddb9f3,
        0xf4b32f46226bada7,
        0x751e8fbc860ee5fb,
        0x14ea5627c0843d90,
        0xf723ca908e7af2ee,
        0xa129ca6149be45e5,
    ];

    #[test]
    fn matches_official_test_vectors() {
        let key = reference_key();
        let msg: Vec<u8> = (0u8..64).collect();
        for (len, expected) in VECTORS.iter().enumerate() {
            assert_eq!(
                siphash24(key, &msg[..len]),
                *expected,
                "test vector mismatch at length {len}"
            );
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key = SipKey::new(0xdead_beef, 0x1234_5678_9abc_def0);
        let msg: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for split in [0usize, 1, 3, 7, 8, 9, 63, 500, 999, 1000] {
            let mut h = SipHasher24::new(key);
            h.write(&msg[..split]);
            h.write(&msg[split..]);
            assert_eq!(h.finish(), siphash24(key, &msg), "split at {split}");
        }
    }

    #[test]
    fn incremental_many_small_writes() {
        let key = SipKey::default();
        let msg: Vec<u8> = (0u8..200).collect();
        let mut h = SipHasher24::new(key);
        for b in &msg {
            h.write(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), siphash24(key, &msg));
    }

    #[test]
    fn different_keys_give_different_hashes() {
        let a = siphash24(SipKey::new(1, 2), b"hello world");
        let b = siphash24(SipKey::new(3, 4), b"hello world");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_message_is_defined() {
        let key = reference_key();
        assert_eq!(siphash24(key, &[]), VECTORS[0]);
    }

    /// `siphash24_many` over `messages` against `siphash24` one at a time.
    fn assert_many_matches_one_by_one(key: SipKey, messages: &[&[u8]]) {
        let one_by_one: Vec<u64> = messages.iter().map(|m| siphash24(key, m)).collect();
        assert_eq!(siphash24_many(key, messages.iter().copied()), one_by_one);
    }

    #[test]
    fn many_matches_official_test_vectors() {
        let msg: Vec<u8> = (0u8..64).collect();
        // The vectors in order are sixteen lengths, so every group of four
        // is of mixed lengths; four copies of each length take the lanes.
        let prefixes: Vec<&[u8]> = (0..VECTORS.len()).map(|len| &msg[..len]).collect();
        assert_eq!(siphash24_many(reference_key(), prefixes), VECTORS);
        let repeated: Vec<&[u8]> = (0..VECTORS.len() * LANES)
            .map(|i| &msg[..i / LANES])
            .collect();
        let expected: Vec<u64> = VECTORS.iter().flat_map(|&v| [v; LANES]).collect();
        assert_eq!(siphash24_many(reference_key(), repeated), expected);
    }

    #[test]
    fn many_matches_one_by_one_at_every_length() {
        let key = SipKey::new(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let mut gen = crate::SplitMix64::new(0x51f);
        for len in 0..=40usize {
            let mut bytes = vec![0u8; len * 8];
            gen.fill_bytes(&mut bytes);
            let messages: Vec<&[u8]> = if len == 0 {
                vec![&[]; 8]
            } else {
                bytes.chunks_exact(len).collect()
            };
            assert_eq!(messages.len(), 8, "two full groups of length {len}");
            assert_many_matches_one_by_one(key, &messages);
        }
    }

    #[test]
    fn many_matches_one_by_one_on_every_tail_shape_and_on_mixed_lengths() {
        let key = SipKey::default();
        let mut bytes = vec![0u8; 9 * 32];
        crate::SplitMix64::new(0x7a11).fill_bytes(&mut bytes);
        let messages: Vec<&[u8]> = bytes.chunks_exact(32).collect();
        assert!(siphash24_many(key, std::iter::empty()).is_empty());
        for count in 1..=9 {
            assert_many_matches_one_by_one(key, &messages[..count]);
        }
        // One odd length at each position of a group, then back in step.
        for odd in 0..LANES {
            let mut mixed = messages.clone();
            mixed[odd] = &bytes[..17];
            assert_many_matches_one_by_one(key, &mixed);
        }
        let ragged: Vec<&[u8]> = (0..23).map(|i| &bytes[i..i + (i * 7) % 41]).collect();
        assert_many_matches_one_by_one(key, &ragged);
    }

    #[test]
    fn write_u64_equals_write_bytes() {
        let key = SipKey::default();
        let mut a = SipHasher24::new(key);
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = SipHasher24::new(key);
        b.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}

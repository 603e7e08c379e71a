//! xorshift64* — the per-symbol PRNG driving the coded-symbol index mapping.
//!
//! The Rateless IBLT mapping rule (paper §4.2) needs, per source symbol, a
//! deterministic stream of uniform 64-bit values from which the inverse-CDF
//! skip sampler draws. The generator must be (a) seeded solely by the
//! symbol's checksum hash so that both parties derive the same mapping and
//! (b) extremely cheap, because one draw is consumed per mapped index. We use
//! xorshift64* (Marsaglia xorshift with a multiplicative finalizer), matching
//! the reference implementation of the paper.

/// Minimal xorshift64* generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// The multiplicative finalizer of [`Self::next_u64`]: the output is the
    /// new state times this, mod 2^64.
    pub const MULTIPLIER: u64 = 0x2545_f491_4f6c_dd1d;

    /// Creates a generator. A zero seed is remapped to a fixed non-zero
    /// constant because xorshift has an all-zero fixed point.
    #[inline]
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        };
        XorShift64Star { state }
    }

    /// Returns the next pseudorandom 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(Self::MULTIPLIER)
    }

    /// The generator's state: never zero, and `XorShift64Star::new(state)`
    /// resumes the sequence where this one stands. For code that steps many
    /// generators side by side in vector lanes.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Returns the raw xorshift state advance without the final multiply.
    ///
    /// The index-mapping sampler only needs uniformity of the high bits and
    /// calls [`Self::next_u64`]; this variant exists for tests that check the
    /// underlying recurrence.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Returns a uniform `f64` in `[0, 1)` built from the high 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_is_remapped() {
        let mut g = XorShift64Star::new(0);
        // Must not be stuck at zero.
        assert_ne!(g.next_u64(), 0);
        assert_ne!(g.next_u64(), g.next_u64());
    }

    #[test]
    fn a_generator_resumes_from_its_state() {
        for seed in [0, 1, 0xfeed_f00d] {
            let mut g = XorShift64Star::new(seed);
            g.next_u64();
            let mut resumed = XorShift64Star::new(g.state());
            for _ in 0..10 {
                assert_eq!(resumed.next_u64(), g.next_u64());
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64Star::new(123456789);
        let mut b = XorShift64Star::new(123456789);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn recurrence_matches_known_sequence() {
        // xorshift64 state sequence for seed 1: 1 -> after the three shifts.
        let mut g = XorShift64Star::new(1);
        let first = g.next_raw();
        // Manually: x=1; x^=x<<13 -> 0x2001; x^=x>>7 -> 0x2001 ^ 0x40 = 0x2041;
        // x ^= x<<17 -> 0x2041 ^ 0x40820000 = 0x40822041.
        assert_eq!(first, 0x4082_2041);
    }

    #[test]
    fn f64_output_in_unit_interval_and_well_spread() {
        let mut g = XorShift64Star::new(0xabcdef);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }
}

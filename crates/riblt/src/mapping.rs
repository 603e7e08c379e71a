//! Source-symbol → coded-symbol index mapping (paper §4.1–§4.2).
//!
//! Decodability requires the probability ρ(i) that a random source symbol is
//! mapped to the i-th coded symbol to decrease inversely with i
//! (Lemmas 4.1/4.2); the paper picks ρ(i) = 1/(1 + αi) with α = 0.5.
//!
//! Rather than tossing a coin for every index (O(m) work per symbol), the
//! mapping is generated by *skip sampling*: from the current mapped index `i`
//! the distance to the next mapped index is drawn from the closed-form
//! inverse of the cumulative distribution (Eq. 2),
//!
//! ```text
//! α = 0.5 :  C⁻¹(r) ≈ (i + 1.5)·((1 − r)^(-1/2) − 1)
//! generic :  C⁻¹(r) ≈ (i + 1)  ·((1 − r)^(-α)   − 1)
//! ```
//!
//! so each mapped index costs O(1). The random draws come from an
//! xorshift64* generator seeded with the symbol's keyed checksum hash, which
//! makes the mapping deterministic per symbol (the *consistent mapping rule*
//! that gives linearity and universality, §4.1.1) while being uniform over
//! random symbols.

use riblt_hash::XorShift64Star;

/// The default mapping parameter of the final design (paper §4.2).
pub const DEFAULT_ALPHA: f64 = 0.5;

/// The mapping probability ρ(i) = 1/(1 + αi).
///
/// Exposed for the analysis crate (density evolution, expected `count`
/// values for the wire format) and for tests that validate the sampler
/// against the target distribution.
#[inline]
pub fn rho(alpha: f64, index: u64) -> f64 {
    1.0 / (1.0 + alpha * index as f64)
}

/// The probability that [`IndexMapping`] actually maps a random source
/// symbol to `index` — the exact marginal of the skip sampler, which tracks
/// [`rho`] only approximately (4 % low at index 1, 0.2 % at index 10).
///
/// From index `i` the sampler jumps by `⌈(i + c)·((1 − r)^(−α) − 1)⌉` with
/// `c = 1.5` for α = 0.5 and `c = 1` otherwise, so
/// `P(jump > k) = ((i + c)/(i + c + k))^(1/α)`; summing over where the walk
/// can come from telescopes to `1 − ((j + c − 1)/(j + c))^(1/α)`. Anything
/// that tests observed `count` fields against their expectation (the
/// decoder's difference estimate) must use this, not [`rho`]: the bias of
/// the mean enters squared and scaled by d².
#[inline]
pub fn mapped_probability(alpha: f64, index: u64) -> f64 {
    if index == 0 {
        return 1.0;
    }
    let j = index as f64;
    if alpha == 0.5 {
        let ratio = (j + 0.5) / (j + 1.5);
        1.0 - ratio * ratio
    } else {
        1.0 - (j / (j + 1.0)).powf(1.0 / alpha)
    }
}

/// Expected number of coded symbols among the first `m` that a random source
/// symbol is mapped to: Σ_{i<m} ρ(i) = O(log m) for α of order 1.
pub fn expected_degree(alpha: f64, m: u64) -> f64 {
    // Closed form via the digamma-free harmonic-style sum: for ρ(i)=1/(1+αi),
    // Σ_{i=0}^{m-1} 1/(1+αi) ≈ (1/α)·ln(1 + αm) + O(1). We compute the exact
    // sum for small m and the logarithmic approximation for large m.
    if m <= 4096 {
        (0..m).map(|i| rho(alpha, i)).sum()
    } else {
        let exact: f64 = (0..4096).map(|i| rho(alpha, i)).sum();
        let tail = (1.0 / alpha) * ((1.0 + alpha * m as f64) / (1.0 + alpha * 4096.0)).ln();
        exact + tail
    }
}

/// The one decision that tells the irregular design (§8) from the regular
/// one: which α the index mapping of a source symbol uses, given the
/// symbol's keyed hash. Everything else — coding window, peeling, sketches —
/// is generic over it.
pub trait MappingRule: Clone + PartialEq + std::fmt::Debug {
    /// The mapping parameter of the symbol with keyed hash `hash`.
    fn alpha_of(&self, hash: u64) -> f64;

    /// The single α every symbol shares, if the rule has one. Only then do
    /// the `count` fields follow [`mapped_probability`], which is what the
    /// wire codec's count model and the decoder's difference estimate read.
    fn uniform_alpha(&self) -> Option<f64>;
}

/// The regular design: every symbol maps with the same α
/// ([`DEFAULT_ALPHA`] by default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform(pub f64);

impl Default for Uniform {
    fn default() -> Self {
        Uniform(DEFAULT_ALPHA)
    }
}

impl MappingRule for Uniform {
    #[inline(always)]
    fn alpha_of(&self, _hash: u64) -> f64 {
        self.0
    }

    #[inline(always)]
    fn uniform_alpha(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// Number of skip-sampling draws a [`BlockWalk`] turns into jump factors
/// per PRNG batch.
///
/// The factor math (`1/√(1−r) − 1`) chains a square root into a division,
/// and both ops compete for the same low-throughput FP divider unit. Drawn
/// one per advance they serialize; drawn in a block they pipeline (and
/// vectorize), which is where most of the peel's walk time used to go.
/// Draws are still consumed strictly in generator order, so the produced
/// index sequence is bit-identical to unbuffered sampling.
const FACTOR_BLOCK: usize = 8;

/// A uniform draw in [0, 1) from the high 53 bits of `draw`, subtracted
/// from one. Mirrors `XorShift64Star::next_f64`, in the exact same
/// expression shape: the mapping is a wire-compatibility surface, and both
/// forms of it must compute every factor bit for bit alike.
#[inline(always)]
fn one_minus_r(draw: u64) -> f64 {
    1.0 - (draw >> 11) as f64 * DRAW_SCALE
}

/// 2⁻⁵³: turns the high 53 bits of a draw into a uniform value in [0, 1).
pub(crate) const DRAW_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// Jump factor `(1 − r)^(−α) − 1` of one draw at α = 0.5: only a square
/// root (the reason the paper fixes α = 0.5 in the final design).
#[inline(always)]
fn sqrt_factor(draw: u64) -> f64 {
    1.0 / one_minus_r(draw).sqrt() - 1.0
}

/// Jump factor `(1 − r)^(−α) − 1` of one draw at any other α.
#[inline(always)]
fn pow_factor(draw: u64, alpha: f64) -> f64 {
    one_minus_r(draw).powf(-alpha) - 1.0
}

/// The mapped index after `current`, given the jump factor of the next draw.
#[inline(always)]
fn next_index(current: u64, alpha: f64, factor: f64) -> u64 {
    let base = if alpha == 0.5 {
        current as f64 + 1.5
    } else {
        current as f64 + 1.0
    };
    let x = base * factor;
    // Integer-domain ceil. Baseline x86-64 has no `roundsd`, so
    // `f64::ceil` lowers to a libm call on the serial chain of every
    // advance; the truncating cast is floor for x >= 0, and comparing the
    // round-trip detects a fractional part. Exact for all finite x >= 0:
    // below 2^53 the cast round-trips exactly, and at 2^53 and above
    // every representable f64 is already integral. A draw of exactly
    // r = 0 gives a zero jump; the mapping must make progress, so the
    // minimum jump is 1. Saturate on (astronomically unlikely) overflow,
    // matching `ceil(x) >= 2^64` (the f64 just below 2^64 is an integer,
    // so the predicate is equivalent to `x >= 2^64`).
    let jump = if x >= u64::MAX as f64 {
        u64::MAX / 2
    } else {
        let t = x as u64;
        (t + u64::from((t as f64) < x)).max(1)
    };
    current.saturating_add(jump)
}

/// Deterministic generator of the coded-symbol indices one source symbol is
/// mapped to, in increasing order.
///
/// Every symbol is mapped to index 0 (ρ(0) = 1), so a fresh mapping starts
/// with [`IndexMapping::current_index`] = 0; call [`IndexMapping::advance`]
/// to move to the next mapped index.
///
/// This is the *parked* form, the one a coding window keeps per symbol:
/// generator state, current index and α, 24 bytes, one draw per advance.
/// Code that walks one symbol over many indices in a row (a peel
/// propagation, a prefix patch) switches to [`Self::walk`] for the length of
/// the walk.
#[derive(Debug, Clone)]
pub struct IndexMapping {
    prng: XorShift64Star,
    current: u64,
    alpha: f64,
}

impl IndexMapping {
    /// Creates the mapping for a symbol with checksum hash `seed`, using the
    /// default α = 0.5.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self::with_alpha(seed, DEFAULT_ALPHA)
    }

    /// Creates the mapping with an explicit α (used by the Irregular
    /// Rateless IBLT of §8 and by the α-sweep of Fig. 4).
    #[inline]
    pub fn with_alpha(seed: u64, alpha: f64) -> Self {
        assert!(alpha > 0.0, "mapping parameter alpha must be positive");
        IndexMapping {
            prng: XorShift64Star::new(seed),
            current: 0,
            alpha,
        }
    }

    /// The mapping standing at index `current` with generator `prng`, which
    /// must be where repeated [`Self::advance`] from the symbol's seed left
    /// it: for walks that step the generator outside this type (the
    /// AVX-512 lanes of `crate::prefix`, whose park log becomes mappings
    /// through it).
    #[inline]
    pub(crate) fn parked(prng: XorShift64Star, current: u64, alpha: f64) -> Self {
        IndexMapping {
            prng,
            current,
            alpha,
        }
    }

    /// The coded-symbol index the symbol is currently mapped to.
    #[inline]
    pub fn current_index(&self) -> u64 {
        self.current
    }

    /// The α parameter this mapping uses.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Advances to (and returns) the next mapped index.
    #[inline]
    pub fn advance(&mut self) -> u64 {
        let draw = self.prng.next_u64();
        let factor = if self.alpha == 0.5 {
            sqrt_factor(draw)
        } else {
            pow_factor(draw, self.alpha)
        };
        self.current = next_index(self.current, self.alpha, factor);
        self.current
    }

    /// [`Self::advance`] of every mapping in `lanes`: the draws of all of
    /// them first, then their jump factors in one loop (which vectorizes
    /// when they share α = 0.5), then their indices, so the square roots
    /// and divisions of independent mappings overlap instead of each
    /// waiting on its own. Each mapping takes exactly the step `advance`
    /// would.
    #[inline]
    pub(crate) fn advance_lanes<const N: usize>(lanes: &mut [IndexMapping; N]) {
        let mut draws = [0u64; N];
        for (draw, lane) in draws.iter_mut().zip(lanes.iter_mut()) {
            *draw = lane.prng.next_u64();
        }
        let mut factors = [0f64; N];
        // The α test stays outside the loops so each vectorizes.
        if lanes.iter().all(|lane| lane.alpha == 0.5) {
            for (factor, draw) in factors.iter_mut().zip(draws) {
                *factor = sqrt_factor(draw);
            }
        } else {
            for ((factor, draw), lane) in factors.iter_mut().zip(draws).zip(lanes.iter()) {
                *factor = if lane.alpha == 0.5 {
                    sqrt_factor(draw)
                } else {
                    pow_factor(draw, lane.alpha)
                };
            }
        }
        for (lane, factor) in lanes.iter_mut().zip(factors) {
            lane.current = next_index(lane.current, lane.alpha, factor);
        }
    }

    /// Returns all mapped indices strictly below `m`, starting from the
    /// current position (inclusive). Consumes the mapping state up to `m`.
    #[inline]
    pub fn indices_below(&mut self, m: u64) -> IndicesBelow<'_> {
        IndicesBelow { mapping: self, m }
    }

    /// The walking form of this mapping, standing at the same index with
    /// the same draws ahead of it. No draw is made until the first advance.
    #[inline]
    pub fn walk(self) -> BlockWalk {
        BlockWalk {
            block_start: self.prng,
            prng: self.prng,
            current: self.current,
            alpha: self.alpha,
            factors: [0.0; FACTOR_BLOCK],
            factor_pos: FACTOR_BLOCK as u8,
        }
    }
}

/// The walking form of an [`IndexMapping`]: the same index sequence, with
/// the jump factors of the next eight draws computed together.
/// 104 bytes, so nothing stores it per symbol; [`Self::park`] turns it back
/// into the 24-byte form wherever it stands.
#[derive(Debug, Clone)]
pub struct BlockWalk {
    /// Generator state before the first draw of the block in `factors`.
    block_start: XorShift64Star,
    /// Generator state after its last draw.
    prng: XorShift64Star,
    current: u64,
    alpha: f64,
    /// Precomputed jump factors for the next few advances. `factor_pos`
    /// indexes the next unconsumed entry; `FACTOR_BLOCK` means the buffer
    /// is exhausted and must be refilled.
    factors: [f64; FACTOR_BLOCK],
    factor_pos: u8,
}

impl BlockWalk {
    /// The coded-symbol index the symbol is currently mapped to.
    #[inline]
    pub fn current_index(&self) -> u64 {
        self.current
    }

    /// Advances to (and returns) the next mapped index.
    #[inline]
    pub fn advance(&mut self) -> u64 {
        if usize::from(self.factor_pos) == FACTOR_BLOCK {
            self.refill_factors();
        }
        let factor = self.factors[usize::from(self.factor_pos)];
        self.factor_pos += 1;
        self.current = next_index(self.current, self.alpha, factor);
        self.current
    }

    /// Refills the jump-factor buffer from the next [`FACTOR_BLOCK`] PRNG
    /// draws. The per-draw arithmetic is exactly [`IndexMapping`]'s;
    /// batching only lets the sqrt/div chain of independent draws overlap.
    fn refill_factors(&mut self) {
        self.block_start = self.prng;
        let mut draws = [0u64; FACTOR_BLOCK];
        for d in draws.iter_mut() {
            *d = self.prng.next_u64();
        }
        // The α test stays outside the loops so each vectorizes.
        if self.alpha == 0.5 {
            for (f, d) in self.factors.iter_mut().zip(draws) {
                *f = sqrt_factor(d);
            }
        } else {
            for (f, d) in self.factors.iter_mut().zip(draws) {
                *f = pow_factor(d, self.alpha);
            }
        }
        self.factor_pos = 0;
    }

    /// The parked form of this walk, standing at the same index. Draws the
    /// block made ahead of the walk are given back: the generator is
    /// re-stepped from the block's start to its first unconsumed draw.
    #[inline]
    pub fn park(&self) -> IndexMapping {
        let mut prng = self.prng;
        if usize::from(self.factor_pos) < FACTOR_BLOCK {
            prng = self.block_start;
            for _ in 0..self.factor_pos {
                prng.next_u64();
            }
        }
        IndexMapping {
            prng,
            current: self.current,
            alpha: self.alpha,
        }
    }
}

/// Iterator over the mapped indices `< m`; see [`IndexMapping::indices_below`].
pub struct IndicesBelow<'a> {
    mapping: &'a mut IndexMapping,
    m: u64,
}

impl Iterator for IndicesBelow<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let idx = self.mapping.current_index();
        if idx >= self.m {
            return None;
        }
        self.mapping.advance();
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riblt_hash::splitmix64;

    #[test]
    fn always_maps_to_index_zero() {
        for seed in 0..200u64 {
            let m = IndexMapping::new(splitmix64(seed));
            assert_eq!(m.current_index(), 0);
        }
    }

    #[test]
    fn indices_strictly_increase() {
        // The index grows geometrically (the expected jump is a constant
        // multiple of the current index), so a few dozen advances already
        // reach astronomically large indices; strict growth must hold for at
        // least as many indices as any realistic prefix length uses.
        for seed in 1..50u64 {
            let mut m = IndexMapping::new(splitmix64(seed));
            let mut prev = m.current_index();
            for _ in 0..64 {
                let next = m.advance();
                if next == u64::MAX {
                    break; // saturated far beyond any practical prefix
                }
                assert!(
                    next > prev,
                    "mapping must strictly increase: {prev} -> {next}"
                );
                prev = next;
            }
        }
    }

    #[test]
    fn saturation_at_u64_max_does_not_wrap() {
        // Both forms, and the zero seed (remapped by the generator) too.
        for seed in [0xfeed_f00d, 0] {
            let mut parked = IndexMapping::new(seed);
            let mut walk = IndexMapping::new(seed).walk();
            let mut prev = parked.current_index();
            for _ in 0..10_000 {
                let next = parked.advance();
                // Monotone even once saturated: a wrap-around would go
                // backwards.
                assert!(next >= prev, "index wrapped: {prev} -> {next}");
                assert_eq!(walk.advance(), next);
                prev = next;
            }
            // After many advances the index has saturated rather than
            // wrapped.
            assert!(parked.current_index() > u64::MAX / 2);
            assert_eq!(walk.park().current_index(), parked.current_index());
        }
    }

    #[test]
    fn parked_mapping_is_three_words() {
        // What every coding window keeps per symbol; the factor block lives
        // in `BlockWalk` only.
        assert!(std::mem::size_of::<IndexMapping>() <= 24);
    }

    /// The first 16 mapped indices of three (seed, α) pairs, as produced
    /// before the mapping was split into a parked and a walking form. The
    /// sequence is a wire-compatibility surface: both peers must derive it.
    const FROZEN: [(u64, f64, [u64; 16]); 3] = [
        (
            0,
            0.5,
            [
                0, 1, 6, 10, 13, 113, 124, 989, 1747, 2918, 8180, 43995, 54281, 89160, 144149,
                154425,
            ],
        ),
        (
            0xfeed_f00d,
            0.5,
            [
                0, 1, 4, 7, 12, 21, 30, 31, 57, 65, 122, 132, 549, 574, 1154, 3489,
            ],
        ),
        (
            0x0123_4567_89ab_cdef,
            0.3,
            [
                0, 1, 2, 3, 5, 8, 13, 25, 34, 70, 109, 117, 224, 233, 283, 316,
            ],
        ),
    ];

    #[test]
    fn frozen_index_vectors_hold_in_both_forms() {
        for (seed, alpha, expected) in FROZEN {
            let mut parked = IndexMapping::with_alpha(seed, alpha);
            let mut walk = IndexMapping::with_alpha(seed, alpha).walk();
            assert_eq!(parked.current_index(), expected[0]);
            assert_eq!(walk.current_index(), expected[0]);
            for &index in &expected[1..] {
                assert_eq!(parked.advance(), index, "parked, seed {seed:#x}");
                assert_eq!(walk.advance(), index, "walking, seed {seed:#x}");
            }
        }
    }

    #[test]
    fn switching_forms_anywhere_leaves_the_indices_unchanged() {
        // Random seeds × the α of the regular design, of the α sweep and of
        // every irregular class × random switch points: a mapping that
        // walks, parks and walks again yields what plain `advance` yields.
        let mut alphas = vec![0.5, 0.3];
        alphas.extend_from_slice(crate::IrregularClasses::paper_optimal().alphas());
        let mut rng = 0x5eed_u64;
        let mut draw = |bound: u64| {
            rng = splitmix64(rng);
            rng % bound
        };
        for trial in 0..2_000u64 {
            let seed = if trial == 0 { 0 } else { splitmix64(trial) };
            let alpha = alphas[draw(alphas.len() as u64) as usize];
            let mut plain = IndexMapping::with_alpha(seed, alpha);
            let mut mixed = IndexMapping::with_alpha(seed, alpha);
            let mut steps = 0;
            while steps < 48 {
                // A stretch in walking form (0 to 19 steps: short of, at and
                // past a block boundary), then one in parked form.
                let mut walk = mixed.walk();
                for _ in 0..draw(20) {
                    assert_eq!(walk.advance(), plain.advance(), "seed {seed:#x} α {alpha}");
                    steps += 1;
                }
                mixed = walk.park();
                assert_eq!(mixed.current_index(), plain.current_index());
                assert_eq!(mixed.alpha(), alpha);
                for _ in 0..draw(4) {
                    assert_eq!(mixed.advance(), plain.advance(), "seed {seed:#x} α {alpha}");
                    steps += 1;
                }
            }
        }
    }

    #[test]
    fn advancing_lanes_together_takes_each_lanes_own_step() {
        // One α for all (the vectorized loop) and mixed α, the zero seed
        // among them.
        for alphas in [[0.5; 4], [0.5, 0.3, 0.5, 0.9]] {
            let fresh =
                |lane: usize| IndexMapping::with_alpha(splitmix64(lane as u64), alphas[lane]);
            let mut lanes: [IndexMapping; 4] = std::array::from_fn(fresh);
            lanes[2] = IndexMapping::with_alpha(0, alphas[2]);
            let mut alone = lanes.clone();
            for _ in 0..40 {
                IndexMapping::advance_lanes(&mut lanes);
                for (lane, mapping) in lanes.iter().zip(&mut alone) {
                    assert_eq!(lane.current_index(), mapping.advance(), "α {alphas:?}");
                    assert_eq!(lane.prng, mapping.prng);
                }
            }
        }
    }

    #[test]
    fn park_gives_back_the_unconsumed_draws_of_a_block() {
        // `factor_pos` 8 (nothing drawn yet), 1, 7, 8 (block used up) by
        // walking, and 0 (a block drawn, nothing consumed) by refilling.
        let rest_after =
            |parked: &mut IndexMapping| -> Vec<u64> { (0..12).map(|_| parked.advance()).collect() };
        for (seed, alpha, _) in FROZEN {
            for steps in [0usize, 1, 7, 8] {
                let mut plain = IndexMapping::with_alpha(seed, alpha);
                let mut walk = IndexMapping::with_alpha(seed, alpha).walk();
                for _ in 0..steps {
                    plain.advance();
                    walk.advance();
                }
                let expected_pos = if steps == 0 { FACTOR_BLOCK } else { steps };
                assert_eq!(usize::from(walk.factor_pos), expected_pos);
                assert_eq!(rest_after(&mut walk.park()), rest_after(&mut plain));
            }
            let mut walk = IndexMapping::with_alpha(seed, alpha).walk();
            walk.refill_factors();
            assert_eq!(walk.factor_pos, 0);
            assert_eq!(
                rest_after(&mut walk.park()),
                rest_after(&mut IndexMapping::with_alpha(seed, alpha))
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let collect = |seed: u64| {
            let mut m = IndexMapping::new(seed);
            m.indices_below(10_000).collect::<Vec<_>>()
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }

    #[test]
    fn indices_below_is_prefix_consistent() {
        // The first m indices must be a prefix of the first m' > m indices:
        // this is the property that makes prefixes of the infinite coded
        // symbol sequence consistent (ratelessness).
        let seed = 0xabcdef;
        let mut a = IndexMapping::new(seed);
        let short: Vec<u64> = a.indices_below(1_000).collect();
        let mut b = IndexMapping::new(seed);
        let long: Vec<u64> = b.indices_below(100_000).collect();
        assert!(long.len() > short.len());
        assert_eq!(&long[..short.len()], &short[..]);
    }

    #[test]
    fn empirical_mapping_probability_tracks_rho() {
        // Over many random symbols, the fraction mapped to index i should be
        // close to ρ(i) = 1/(1 + 0.5 i).
        let trials = 40_000u64;
        let m = 64u64;
        let mut counts = vec![0u64; m as usize];
        for s in 0..trials {
            let mut map = IndexMapping::new(splitmix64(s + 1));
            for idx in map.indices_below(m) {
                counts[idx as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let observed = c as f64 / trials as f64;
            let expected = rho(0.5, i as u64);
            let tol = 0.05 + 0.15 * expected; // absolute + relative slack
            assert!(
                (observed - expected).abs() < tol,
                "index {i}: observed {observed:.4}, expected {expected:.4}"
            );
        }
    }

    #[test]
    fn mapped_probability_is_the_samplers_exact_marginal() {
        // 400k walks resolve the 4 % gap between the sampler and rho at
        // index 1 (0.640 against 0.667) with a 0.3 % tolerance.
        for alpha in [0.5, 0.3] {
            let trials = 400_000u64;
            let m = 24u64;
            let mut counts = vec![0u64; m as usize];
            for s in 0..trials {
                let mut map = IndexMapping::with_alpha(splitmix64(s + 1), alpha);
                for idx in map.indices_below(m) {
                    counts[idx as usize] += 1;
                }
            }
            for (i, &c) in counts.iter().enumerate() {
                let observed = c as f64 / trials as f64;
                let exact = mapped_probability(alpha, i as u64);
                assert!(
                    (observed - exact).abs() < 0.003,
                    "alpha {alpha} index {i}: observed {observed:.4}, exact {exact:.4}"
                );
            }
        }
        assert!((mapped_probability(0.5, 1) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn expected_degree_grows_logarithmically() {
        let d1 = expected_degree(0.5, 1_000);
        let d2 = expected_degree(0.5, 1_000_000);
        // Going from 10^3 to 10^6 coded symbols should add roughly
        // (1/α)·ln(1000) ≈ 13.8 to the degree, not multiply it.
        assert!(d2 - d1 > 10.0 && d2 - d1 < 18.0, "d1={d1} d2={d2}");
        assert!(d2 < 40.0, "degree should stay small: {d2}");
    }

    #[test]
    fn generic_alpha_produces_denser_or_sparser_mappings() {
        // Smaller α ⇒ larger ρ(i) ⇒ more mapped indices in a fixed prefix.
        let degree = |alpha: f64| {
            let trials = 4_000u64;
            let mut total = 0usize;
            for s in 0..trials {
                let mut map = IndexMapping::with_alpha(splitmix64(s + 7), alpha);
                total += map.indices_below(512).count();
            }
            total as f64 / trials as f64
        };
        let sparse = degree(0.9);
        let mid = degree(0.5);
        let dense = degree(0.2);
        assert!(
            dense > mid && mid > sparse,
            "dense={dense} mid={mid} sparse={sparse}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_rejected() {
        let _ = IndexMapping::with_alpha(1, 0.0);
    }
}

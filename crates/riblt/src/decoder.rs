//! The peeling decoder (paper §3, §4.1).
//!
//! Bob feeds his own set into the decoder, then ingests Alice's coded
//! symbols one at a time. For each incoming symbol `a_i`, the decoder lazily
//! generates `b_i` from the local set (via the same coding-window machinery
//! as the encoder) and stores the difference `a_i ⊖ b_i`, which encodes only
//! the symmetric difference A △ B. Peeling then recovers difference symbols
//! from *pure* cells and propagates them through the stored (and all future)
//! coded symbols.
//!
//! Termination: coded symbol 0 has every difference symbol mapped to it
//! (ρ(0) = 1), so it drains to the empty cell exactly when all difference
//! symbols have been recovered — this is Bob's signal to stop Alice (§4.1).

use riblt_hash::SipKey;

use crate::coded::{CodedSymbol, Direction};
use crate::encoder::CodingWindow;
use crate::error::{Error, Result};
use crate::mapping::{mapped_probability, MappingRule, Uniform};
use crate::peel::Peeler;
use crate::symbol::{HashedSymbol, Symbol};

/// The recovered symmetric difference.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SetDifference<S> {
    /// Symbols present only in the remote set (A \ B): Bob is missing these.
    pub remote_only: Vec<S>,
    /// Symbols present only in the local set (B \ A): the remote peer is
    /// missing these.
    pub local_only: Vec<S>,
}

impl<S> SetDifference<S> {
    /// Total number of recovered difference symbols.
    pub fn len(&self) -> usize {
        self.remote_only.len() + self.local_only.len()
    }

    /// True if the difference is empty (the sets were equal).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cardinality sketch of the difference `d = |A △ B|`, read off the
/// `count` fields of the difference cells a decoder has ingested — no wire
/// bytes, no extra hashing.
///
/// Cell `i` of the difference holds `c_i = Σ s_x·[x ↦ i]` over the
/// difference symbols `x` (`s_x = +1` remote-only, `−1` local-only), each
/// mapped there independently with probability `p_i`
/// ([`mapped_probability`]). So `c_0 = |A∖B| − |B∖A|` exactly,
/// `E[c_i] = c_0·p_i` and `Var[c_i] = d·p_i·(1 − p_i)`: every cell `i ≥ 1`
/// gives one unbiased observation `(c_i − c_0·p_i)² / (p_i·(1 − p_i))` of
/// `d`, and the estimate is their mean. Its relative standard deviation is
/// about `√(2/cells + 1/4d)` — 25 % from one 32-cell batch, 9 % from eight.
///
/// The observations are taken as cells arrive, *before* recovered symbols
/// are peeled out of them: cells that survive peeling are a biased sample
/// (the pure ones left). Estimates of independent streams pool by
/// [`Self::merge`]; shards of a uniform hash split share one `d` per shard,
/// so the pooled mean is the better estimate of each.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DifferenceEstimate {
    /// Cells `i ≥ 1` observed.
    pub cells: usize,
    /// Sum of the per-cell observations of `d`.
    pub sum: f64,
}

impl DifferenceEstimate {
    /// The estimated difference size (0 before any cell `i ≥ 1` arrived).
    pub fn mean(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.sum / self.cells as f64
        }
    }

    /// Pools another stream's observations into this one.
    pub fn merge(&mut self, other: &DifferenceEstimate) {
        self.cells += other.cells;
        self.sum += other.sum;
    }
}

/// Streaming peeling decoder.
///
/// ```
/// use riblt::{Decoder, Encoder, FixedBytes};
///
/// // Alice has {0..1000}, Bob has {10..1010}.
/// let mut alice = Encoder::<FixedBytes<8>>::new();
/// for i in 0..1000u64 {
///     alice.add_symbol(FixedBytes::from_u64(i)).unwrap();
/// }
/// let mut bob = Decoder::<FixedBytes<8>>::new();
/// for i in 10..1010u64 {
///     bob.add_symbol(FixedBytes::from_u64(i)).unwrap();
/// }
/// while !bob.is_decoded() {
///     bob.add_coded_symbol(alice.produce_next_coded_symbol());
/// }
/// let diff = bob.into_difference();
/// assert_eq!(diff.remote_only.len(), 10); // 0..10
/// assert_eq!(diff.local_only.len(), 10);  // 1000..1010
/// ```
#[derive(Debug, Clone)]
pub struct Decoder<S: Symbol, R: MappingRule = Uniform> {
    /// Stored difference coded symbols, pruned of everything recovered.
    coded: Vec<CodedSymbol<S>>,
    /// The peeling loop's candidate queue and scratch, in lockstep with
    /// `coded`.
    peeler: Peeler<S>,
    /// Cached termination flag; see [`Self::is_decoded`].
    decoded: bool,
    /// Sticky: peeling recovered more symbols than cells were received; see
    /// [`Self::check_consistent`].
    inconsistent: bool,
    /// `count` of difference cell 0 as it arrived: `|A∖B| − |B∖A|`.
    signed_difference: i64,
    /// Running observations of `d`; see [`DifferenceEstimate`].
    estimate: DifferenceEstimate,
    /// The local set (B), applied lazily to incoming coded symbols.
    local_set: CodingWindow<S>,
    /// Recovered remote-only symbols; subtracted from future coded symbols.
    remote_recovered: CodingWindow<S>,
    /// Recovered local-only symbols; added back into future coded symbols.
    local_recovered: CodingWindow<S>,
    key: SipKey,
    rule: R,
}

impl<S: Symbol, R: MappingRule + Default> Default for Decoder<S, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Symbol> Decoder<S> {
    /// Creates a decoder with a secret checksum key (must match the
    /// encoder's key).
    pub fn with_key(key: SipKey) -> Self {
        Self::with_rule(Uniform::default(), key)
    }

    /// Creates a decoder with an explicit mapping parameter α (experiments
    /// only; must match the encoder).
    pub fn with_key_and_alpha(key: SipKey, alpha: f64) -> Self {
        Self::with_rule(Uniform(alpha), key)
    }

    /// The mapping parameter α this decoder was built with (must match the
    /// remote encoder's).
    pub fn alpha(&self) -> f64 {
        self.rule.0
    }
}

impl<S: Symbol, R: MappingRule> Decoder<S, R> {
    /// Creates a decoder with the default checksum key and the rule's
    /// default: α = 0.5 for [`Decoder`], the paper's optimal classes for
    /// [`crate::IrregularDecoder`].
    pub fn new() -> Self
    where
        R: Default,
    {
        Self::with_rule(R::default(), SipKey::default())
    }

    /// Creates a decoder for a stream coded under `rule` with checksum key
    /// `key` (both must match the encoder's).
    pub fn with_rule(rule: R, key: SipKey) -> Self {
        Decoder {
            coded: Vec::new(),
            peeler: Peeler::new(),
            decoded: false,
            inconsistent: false,
            signed_difference: 0,
            estimate: DifferenceEstimate::default(),
            local_set: CodingWindow::new(key),
            remote_recovered: CodingWindow::new(key),
            local_recovered: CodingWindow::new(key),
            key,
            rule,
        }
    }

    /// Pre-sizes the internal buffers for an anticipated difference of `d`
    /// symbols: the paper's expected overhead is ≈1.35·d coded symbols for
    /// large d (§5), so callers that know (or can bound) the difference can
    /// avoid reallocation in the hot ingest loop.
    pub fn reserve_for_difference(&mut self, d: usize) {
        // ceil(1.35d) plus slack, less what is already stored.
        let more_cells = (d + d / 2 + 8).saturating_sub(self.coded.len());
        self.coded.reserve(more_cells);
        self.peeler.reserve(more_cells, d);
    }

    /// Number of coded symbols ingested so far.
    pub fn coded_symbols_received(&self) -> usize {
        self.coded.len()
    }

    /// Number of local (own-set) symbols registered.
    pub fn local_set_size(&self) -> usize {
        self.local_set.len()
    }

    /// Makes room for `additional` more local symbols; worth calling when
    /// the size of the local set is known before it is added.
    pub fn reserve_local_set(&mut self, additional: usize) {
        self.local_set.reserve(additional);
    }

    /// Adds a symbol of the local set. Must be called before the first
    /// [`Self::add_coded_symbol`].
    pub fn add_symbol(&mut self, symbol: S) -> Result<()> {
        let hashed = HashedSymbol::new(symbol, self.key);
        self.add_hashed_symbol(hashed)
    }

    /// Adds a local symbol whose keyed hash is already known.
    pub fn add_hashed_symbol(&mut self, symbol: HashedSymbol<S>) -> Result<()> {
        if !self.coded.is_empty() {
            return Err(Error::SymbolAddedAfterDecodingStarted);
        }
        let alpha = self.rule.alpha_of(symbol.hash);
        self.local_set.push_fresh(symbol, alpha);
        Ok(())
    }

    /// Ingests a batch of coded symbols, stopping as soon as decoding
    /// completes. Returns the number of symbols actually consumed.
    ///
    /// This is the preferred entry point for session layers moving wire
    /// batches: it hoists the completion check out of the per-symbol hot
    /// path and drops the remainder of a batch once the difference has been
    /// recovered.
    pub fn add_coded_symbols<I>(&mut self, symbols: I) -> usize
    where
        I: IntoIterator<Item = CodedSymbol<S>>,
    {
        // Already decoded (or beyond saving): drop the whole batch without
        // entering the per-symbol loop at all.
        if self.is_decoded() || self.inconsistent {
            return 0;
        }
        let iter = symbols.into_iter();
        let (batch_hint, _) = iter.size_hint();
        self.coded.reserve(batch_hint);
        self.peeler.reserve(batch_hint, 0);
        let mut used = 0;
        for cs in iter {
            self.add_coded_symbol(cs);
            used += 1;
            // Both are cached-state reads (no re-hash, no byte scan), so
            // checking once per consumed symbol is free.
            if self.is_decoded() || self.inconsistent {
                break;
            }
        }
        used
    }

    /// Ingests the next coded symbol from the remote encoder and peels as
    /// far as possible. Dropped unread once the stream has proved
    /// inconsistent ([`Self::check_consistent`]).
    pub fn add_coded_symbol(&mut self, mut cs: CodedSymbol<S>) {
        if self.inconsistent {
            return;
        }
        // Lazily subtract the local set's contribution to this index, then
        // adjust for everything already recovered.
        self.local_set.apply_next(&mut cs, Direction::Remove);
        let idx = self.coded.len();
        // `cs` is now the raw difference cell: observe its count before the
        // recovered symbols are taken out of it. Only under a single α do
        // the counts follow `mapped_probability`; a mixed-α stream keeps the
        // empty estimate.
        if idx == 0 {
            self.signed_difference = cs.count;
        } else if let Some(alpha) = self.rule.uniform_alpha() {
            let p = mapped_probability(alpha, idx as u64);
            let excess = cs.count as f64 - self.signed_difference as f64 * p;
            self.estimate.cells += 1;
            self.estimate.sum += excess * excess / (p * (1.0 - p));
        }
        self.remote_recovered.apply_next(&mut cs, Direction::Remove);
        self.local_recovered.apply_next(&mut cs, Direction::Add);

        self.peeler.push_cell(&cs);
        self.coded.push(cs);
        // Recovered symbols go to the windows, their mappings already walked
        // past every stored cell, so *future* coded symbols are adjusted too.
        let consistent = self.peeler.peel(
            &mut self.coded,
            self.key,
            &self.rule,
            |hashed, is_remote, mapping| {
                if is_remote {
                    self.remote_recovered.push_with_mapping(hashed, mapping);
                } else {
                    self.local_recovered.push_with_mapping(hashed, mapping);
                }
            },
        );
        self.inconsistent = !consistent;
        // Termination indicator (§4.1): cell 0 drained to empty. Evaluated
        // once per ingested symbol so `is_decoded` is a cached-flag read.
        self.decoded = consistent && self.coded[0].is_empty_cell();
    }

    /// True once every difference symbol has been recovered.
    ///
    /// Detection uses the paper's termination indicator: coded symbol 0
    /// contains every unrecovered difference symbol, so reconciliation is
    /// complete exactly when it has drained to the empty cell. The check
    /// reads a flag refreshed once per ingested symbol — no bytes are
    /// rescanned here.
    #[inline]
    pub fn is_decoded(&self) -> bool {
        self.decoded
    }

    /// Fails with [`Error::InconsistentStream`] once peeling has recovered
    /// more symbols than cells were received. The condition is sticky: the
    /// decoder has stopped peeling, ignores further coded symbols and never
    /// reports [`Self::is_decoded`].
    pub fn check_consistent(&self) -> Result<()> {
        if self.inconsistent {
            return Err(Error::InconsistentStream);
        }
        Ok(())
    }

    /// Symbols recovered so far that only the remote set contains (A \ B).
    pub fn remote_symbols(&self) -> impl Iterator<Item = &S> {
        self.remote_recovered.symbols().iter().map(|h| &h.symbol)
    }

    /// Symbols recovered so far that only the local set contains (B \ A).
    pub fn local_symbols(&self) -> impl Iterator<Item = &S> {
        self.local_recovered.symbols().iter().map(|h| &h.symbol)
    }

    /// Number of difference symbols recovered so far.
    pub fn recovered_count(&self) -> usize {
        self.remote_recovered.len() + self.local_recovered.len()
    }

    /// What the ingested cells say about the size of the whole difference
    /// (recovered and unrecovered symbols alike); [`Self::recovered_count`]
    /// is a floor on it, and once [`Self::is_decoded`] the exact value.
    pub fn difference_estimate(&self) -> DifferenceEstimate {
        self.estimate
    }

    /// Consumes the decoder, returning the recovered difference.
    ///
    /// Call [`Self::is_decoded`] first if you need the *complete*
    /// difference; this returns whatever has been recovered so far.
    pub fn into_difference(self) -> SetDifference<S> {
        SetDifference {
            remote_only: self
                .remote_recovered
                .symbols()
                .iter()
                .map(|h| h.symbol.clone())
                .collect(),
            local_only: self
                .local_recovered
                .symbols()
                .iter()
                .map(|h| h.symbol.clone())
                .collect(),
        }
    }

    /// Returns the recovered difference, failing if decoding is incomplete.
    pub fn try_into_difference(self) -> Result<SetDifference<S>> {
        self.check_consistent()?;
        if !self.is_decoded() {
            return Err(Error::DecodeIncomplete);
        }
        Ok(self.into_difference())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::symbol::FixedBytes;
    use std::collections::BTreeSet;

    type Sym = FixedBytes<8>;

    /// Reconciles two integer sets and checks the recovered difference.
    fn reconcile(alice: &[u64], bob: &[u64]) -> (usize, SetDifference<Sym>) {
        let mut enc = Encoder::<Sym>::new();
        for &x in alice {
            enc.add_symbol(Sym::from_u64(x)).unwrap();
        }
        let mut dec = Decoder::<Sym>::new();
        for &x in bob {
            dec.add_symbol(Sym::from_u64(x)).unwrap();
        }
        let mut used = 0;
        while !dec.is_decoded() {
            dec.add_coded_symbol(enc.produce_next_coded_symbol());
            used += 1;
            assert!(used < 10_000, "decoder failed to converge");
        }
        (used, dec.into_difference())
    }

    fn as_set(items: &[Sym]) -> BTreeSet<u64> {
        items.iter().map(|s| s.to_u64()).collect()
    }

    #[test]
    fn recovers_small_difference() {
        let alice: Vec<u64> = (0..1000).collect();
        let bob: Vec<u64> = (5..1005).collect();
        let (_, diff) = reconcile(&alice, &bob);
        assert_eq!(as_set(&diff.remote_only), (0..5).collect());
        assert_eq!(as_set(&diff.local_only), (1000..1005).collect());
    }

    #[test]
    fn identical_sets_terminate_after_one_symbol() {
        let set: Vec<u64> = (0..500).collect();
        let (used, diff) = reconcile(&set, &set);
        assert_eq!(used, 1);
        assert!(diff.is_empty());
    }

    #[test]
    fn handles_empty_local_set() {
        // Bob knows nothing: the whole of A is the difference.
        let alice: Vec<u64> = (100..164).collect();
        let (_, diff) = reconcile(&alice, &[]);
        assert_eq!(as_set(&diff.remote_only), (100..164).collect());
        assert!(diff.local_only.is_empty());
    }

    #[test]
    fn handles_empty_remote_set() {
        let bob: Vec<u64> = (0..64).collect();
        let (_, diff) = reconcile(&[], &bob);
        assert!(diff.remote_only.is_empty());
        assert_eq!(as_set(&diff.local_only), (0..64).collect());
    }

    #[test]
    fn overhead_is_moderate_for_moderate_differences() {
        // d = 200 differences; the paper's average overhead is ≈1.4–1.5 in
        // this regime, and individual runs rarely exceed 2.5.
        let alice: Vec<u64> = (0..10_000).collect();
        let bob: Vec<u64> = (100..10_100).collect();
        let (used, diff) = reconcile(&alice, &bob);
        assert_eq!(diff.len(), 200);
        assert!(used <= 500, "used {used} coded symbols for d=200");
    }

    #[test]
    fn symbol_added_after_decoding_started_is_rejected() {
        let mut dec = Decoder::<Sym>::new();
        dec.add_symbol(Sym::from_u64(1)).unwrap();
        dec.add_coded_symbol(CodedSymbol::new());
        assert_eq!(
            dec.add_symbol(Sym::from_u64(2)),
            Err(Error::SymbolAddedAfterDecodingStarted)
        );
    }

    #[test]
    fn try_into_difference_requires_completion() {
        let mut enc = Encoder::<Sym>::new();
        for i in 0..100u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let mut dec = Decoder::<Sym>::new();
        // One coded symbol cannot possibly decode 100 differences.
        dec.add_coded_symbol(enc.produce_next_coded_symbol());
        assert!(!dec.is_decoded());
        assert_eq!(
            dec.try_into_difference().unwrap_err(),
            Error::DecodeIncomplete
        );
    }

    #[test]
    fn keys_must_match_between_encoder_and_decoder() {
        let mut enc = Encoder::<Sym>::with_key(SipKey::new(1, 1));
        for i in 0..20u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let mut dec = Decoder::<Sym>::with_key(SipKey::new(2, 2));
        for i in 10..30u64 {
            dec.add_symbol(Sym::from_u64(i)).unwrap();
        }
        // With mismatched keys the common items do not cancel, so after a
        // generous number of coded symbols the decoder still is not done.
        for _ in 0..200 {
            dec.add_coded_symbol(enc.produce_next_coded_symbol());
        }
        assert!(!dec.is_decoded());
    }

    #[test]
    fn decoding_progress_is_monotonic() {
        let alice: Vec<u64> = (0..5000).collect();
        let bob: Vec<u64> = (250..5250).collect();
        let mut enc = Encoder::<Sym>::new();
        for &x in &alice {
            enc.add_symbol(Sym::from_u64(x)).unwrap();
        }
        let mut dec = Decoder::<Sym>::new();
        for &x in &bob {
            dec.add_symbol(Sym::from_u64(x)).unwrap();
        }
        let mut last = 0;
        for _ in 0..3000 {
            dec.add_coded_symbol(enc.produce_next_coded_symbol());
            let now = dec.recovered_count();
            assert!(now >= last);
            last = now;
            if dec.is_decoded() {
                break;
            }
        }
        assert!(dec.is_decoded());
        assert_eq!(dec.recovered_count(), 500);
    }

    /// Splits a `d`-symbol difference (`remote_share` of it remote-only)
    /// uniformly over 8 shards, feeds each shard's decoder `cells` coded
    /// symbols and returns the pooled estimate.
    fn pooled_estimate(d: u64, remote_share: f64, cells: usize, seed: u64) -> DifferenceEstimate {
        use riblt_hash::splitmix64;
        let remote = (d as f64 * remote_share).round() as u64;
        let mut shards: Vec<(Encoder<Sym>, Decoder<Sym>)> =
            (0..8).map(|_| (Encoder::new(), Decoder::new())).collect();
        for k in 0..d {
            let item = Sym::from_u64(splitmix64(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            let (enc, dec) = &mut shards[(splitmix64(seed.rotate_left(17) ^ k) % 8) as usize];
            if k < remote {
                enc.add_symbol(item).unwrap();
            } else {
                dec.add_symbol(item).unwrap();
            }
        }
        let mut pooled = DifferenceEstimate::default();
        for (enc, dec) in &mut shards {
            for _ in 0..cells {
                dec.add_coded_symbol(enc.produce_next_coded_symbol());
            }
            pooled.merge(&dec.difference_estimate());
        }
        assert_eq!(
            pooled.cells,
            8 * (cells - 1),
            "cell 0 is not an observation"
        );
        pooled
    }

    #[test]
    fn pooled_difference_estimate_stays_in_its_band() {
        // The band: each of the n pooled cells observes the per-shard
        // difference d/8 with relative variance 2 + 1/σ², which sums to a
        // variance of 2d²/n + 2d for the total. Four of those standard
        // deviations: ±38 % of d = 2,000 from one 32-cell batch per shard,
        // ±18 % from 256 cells — whichever way the difference leans.
        for (shape, remote_share) in [("balanced", 0.5), ("one-sided", 1.0), ("90/10", 0.9)] {
            for d in [0u64, 1, 12, 250, 2_000] {
                for cells in [32usize, 256] {
                    for seed in 1..=10u64 {
                        let pooled = pooled_estimate(d, remote_share, cells, seed * 0x51ed);
                        let total = 8.0 * pooled.mean();
                        let d = d as f64;
                        let band = 4.0 * (2.0 * d * d / pooled.cells as f64 + 2.0 * d).sqrt();
                        assert!(
                            (total - d).abs() <= band,
                            "{shape} d={d} cells={cells} seed={seed}: estimated {total:.1}, band ±{band:.1}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn estimate_is_unbiased_where_rho_is_not() {
        // One-sided differences put the whole of c_0·p_i into every cell's
        // mean: with the ideal rho in place of the sampler's exact marginal,
        // the 4 % gap at cell 1 (squared, times d²) would inflate this
        // estimate by a quarter.
        let runs = 40u64;
        let mean: f64 = (1..=runs)
            .map(|seed| 8.0 * pooled_estimate(16_000, 1.0, 32, seed * 0xace1).mean())
            .sum::<f64>()
            / runs as f64;
        assert!(
            (mean / 16_000.0 - 1.0).abs() < 0.05,
            "mean estimate {mean:.0}"
        );
    }

    #[test]
    fn large_difference_decodes_with_reasonable_overhead() {
        let alice: Vec<u64> = (0..30_000).collect();
        let bob: Vec<u64> = (1_000..31_000).collect();
        let (used, diff) = reconcile(&alice, &bob);
        assert_eq!(diff.len(), 2_000);
        let overhead = used as f64 / 2_000.0;
        assert!(
            overhead < 1.8,
            "overhead {overhead:.2} should be below 1.8 for d=2000"
        );
    }
}

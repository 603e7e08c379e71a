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

use crate::coded::{prefetch, CodedSymbol, Direction};
use crate::encoder::CodingWindow;
use crate::error::{Error, Result};
use crate::mapping::{mapped_probability, IndexMapping, DEFAULT_ALPHA};
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

/// Number of pure symbols peeled and propagated jointly per round of
/// [`Decoder::peel`]. Each symbol's propagation walk is one long serial
/// dependency chain (PRNG draw → jump factor → next index); interleaving
/// a few walks keeps several chains in flight, which roughly divides the
/// walk latency during the peeling avalanche (when the candidate queue
/// is deep enough to fill the lanes).
const PEEL_LANES: usize = 4;

/// Indices generated ahead of application per lane per wave during batched
/// propagation. A wave of 4 lanes × 8 steps puts ~16 generations (hundreds
/// of cycles) between a cell's prefetch and its touch — enough to cover a
/// miss to L3 or DRAM, which matters once the coded-symbol array outgrows
/// L2 (it does for differences above a few thousand 32-byte symbols).
const WAVE_STEPS: usize = 8;

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
pub struct Decoder<S: Symbol> {
    /// Stored difference coded symbols, pruned of everything recovered.
    coded: Vec<CodedSymbol<S>>,
    /// Whether each cell currently has a pending entry in `pure_queue`,
    /// kept in lockstep with `coded`.
    ///
    /// Purity is verified *lazily*: a cell becomes a peel candidate the
    /// moment a mutation leaves `count == ±1` (a register compare — no
    /// hashing), and the SipHash purity check runs once when the candidate
    /// is popped. Cells whose count moved away from ±1 while queued are
    /// discarded unhashed, so transiently-pure cells in the peeling
    /// avalanche never cost a hash. The flag dedupes queue entries: a cell
    /// is re-queued only after its pending entry has been popped.
    queued: Vec<bool>,
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
    /// Indices of cells that may currently be pure.
    pure_queue: Vec<usize>,
    /// Scratch for [`Self::peel`]'s batched propagation: verified pure
    /// symbols (with side and source cell) and their walk mappings. Kept on
    /// the decoder so the peel loop never allocates in steady state.
    batch: Vec<(HashedSymbol<S>, bool, usize)>,
    batch_mappings: Vec<IndexMapping>,
    /// Scratch for one propagation wave: `(lane, cell index)` pairs
    /// generated ahead of application (see [`Self::recover_batch`]).
    pending: Vec<(usize, usize)>,
    key: SipKey,
    alpha: f64,
}

impl<S: Symbol> Default for Decoder<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Symbol> Decoder<S> {
    /// Creates a decoder with the default checksum key and α = 0.5.
    pub fn new() -> Self {
        Self::with_key(SipKey::default())
    }

    /// Creates a decoder with a secret checksum key (must match the
    /// encoder's key).
    pub fn with_key(key: SipKey) -> Self {
        Self::with_key_and_alpha(key, DEFAULT_ALPHA)
    }

    /// Creates a decoder with an explicit mapping parameter α (experiments
    /// only; must match the encoder).
    pub fn with_key_and_alpha(key: SipKey, alpha: f64) -> Self {
        Decoder {
            coded: Vec::new(),
            queued: Vec::new(),
            decoded: false,
            inconsistent: false,
            signed_difference: 0,
            estimate: DifferenceEstimate::default(),
            local_set: CodingWindow::new(key, alpha),
            remote_recovered: CodingWindow::new(key, alpha),
            local_recovered: CodingWindow::new(key, alpha),
            pure_queue: Vec::new(),
            batch: Vec::new(),
            batch_mappings: Vec::new(),
            pending: Vec::with_capacity(PEEL_LANES * WAVE_STEPS),
            key,
            alpha,
        }
    }

    /// Pre-sizes the internal buffers for an anticipated difference of `d`
    /// symbols: the paper's expected overhead is ≈1.35·d coded symbols for
    /// large d (§5), so callers that know (or can bound) the difference can
    /// avoid reallocation in the hot ingest loop.
    pub fn reserve_for_difference(&mut self, d: usize) {
        let expected_coded = d + d / 2 + 8; // ceil(1.35d) plus slack
        self.coded
            .reserve(expected_coded.saturating_sub(self.coded.len()));
        self.queued
            .reserve(expected_coded.saturating_sub(self.queued.len()));
        self.pure_queue
            .reserve(d.saturating_sub(self.pure_queue.len()));
    }

    /// Number of coded symbols ingested so far.
    pub fn coded_symbols_received(&self) -> usize {
        self.coded.len()
    }

    /// Number of local (own-set) symbols registered.
    pub fn local_set_size(&self) -> usize {
        self.local_set.len()
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
        self.local_set.push_fresh(symbol);
        Ok(())
    }

    /// The mapping parameter α this decoder was built with (must match the
    /// remote encoder's).
    pub fn alpha(&self) -> f64 {
        self.alpha
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
        self.queued.reserve(batch_hint);
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
        // recovered symbols are taken out of it.
        if idx == 0 {
            self.signed_difference = cs.count;
        } else {
            let p = mapped_probability(self.alpha, idx as u64);
            let excess = cs.count as f64 - self.signed_difference as f64 * p;
            self.estimate.cells += 1;
            self.estimate.sum += excess * excess / (p * (1.0 - p));
        }
        self.remote_recovered.apply_next(&mut cs, Direction::Remove);
        self.local_recovered.apply_next(&mut cs, Direction::Add);

        let candidate = cs.count == 1 || cs.count == -1;
        self.coded.push(cs);
        self.queued.push(candidate);
        if candidate {
            self.pure_queue.push(idx);
        }
        self.peel();
        // Termination indicator (§4.1): cell 0 drained to empty. Evaluated
        // once per ingested symbol so `is_decoded` is a cached-flag read.
        self.decoded = !self.inconsistent && self.coded[0].is_empty_cell();
    }

    /// Runs the peeling loop until no pure cells remain.
    ///
    /// Queue entries are *candidates* (`count` hit ±1 at some mutation);
    /// purity is verified once per pop, with a single hash of the cell's
    /// sum. Candidates whose count has since moved away from ±1 are dropped
    /// with no hash at all. Verified symbols are *taken* out of their source
    /// cells (which drain to empty anyway) rather than cloned, then
    /// propagated in batches of up to [`PEEL_LANES`].
    ///
    /// Batching is sound because peeling is confluent (the set of symbols
    /// recoverable by repeated pure-cell removal is unique regardless of
    /// order), and because the members of one batch can never be mapped to
    /// each other's source cells: if symbol `B` were mapped to the source
    /// cell of batch-mate `A`, that cell would still contain `B`'s
    /// (unpropagated) contribution and could not have passed `A`'s purity
    /// check.
    fn peel(&mut self) {
        loop {
            // Phase 1: pop candidates until a batch of verified pure cells
            // is assembled (or the queue runs dry).
            let mut batch = std::mem::take(&mut self.batch);
            batch.clear();
            while batch.len() < PEEL_LANES {
                let Some(idx) = self.pure_queue.pop() else {
                    break;
                };
                self.queued[idx] = false;
                let cell = &self.coded[idx];
                let is_remote = match cell.count {
                    1 => true,
                    -1 => false,
                    // The cell was resolved (or re-mixed) while it sat in
                    // the queue; a later mutation re-queues it if it turns
                    // pure again.
                    _ => continue,
                };
                let hash = cell.checksum;
                // The same symbol can sit pure in two cells at once; peel
                // it once and let its propagation drain the sibling cell.
                if batch.iter().any(|(h, _, _)| h.hash == hash) {
                    continue;
                }
                if cell.sum.hash_with(self.key) != hash {
                    // count == ±1 but several symbols are mixed in (§3).
                    continue;
                }
                // A pure cell holds exactly its one symbol: sum is the
                // symbol, checksum is its hash. Peeling empties the cell,
                // so settle it by moving the fields out; the propagation
                // walk skips it below.
                let symbol = std::mem::take(&mut self.coded[idx].sum);
                self.coded[idx].checksum = 0;
                self.coded[idx].count = 0;
                batch.push((HashedSymbol::with_hash(symbol, hash), is_remote, idx));
            }
            if batch.is_empty() {
                // The inner loop only stops short of a full batch when the
                // queue is drained, so peeling is complete.
                self.batch = batch;
                return;
            }
            // Every recovery empties one pure cell for good, so a prefix of
            // one set's sequence never yields more symbols than it has
            // cells. A splice of two sequences can recover the same symbol
            // from either side for ever; this is where that stops.
            if self.recovered_count() + batch.len() > self.coded.len() {
                self.inconsistent = true;
                self.pure_queue.clear();
                batch.clear();
                self.batch = batch;
                return;
            }
            self.recover_batch(&batch);
            self.register_recovered(batch);
        }
    }

    /// Phase 2 of [`Self::peel`]: removes each freshly recovered symbol from
    /// every stored coded symbol it is mapped to (except its own source
    /// cell, already settled) and queues any cells that became candidates.
    ///
    /// Each wave first *generates* up to [`WAVE_STEPS`] mapped indices
    /// per lane — interleaved one step per lane so the serial index-sampling
    /// chains overlap — prefetching each target cell as its index appears,
    /// and only then *applies* the wave's touches. Deferring the touches is
    /// sound: XOR and count updates commute, per-lane application order is
    /// preserved, and a cell left at count ±1 by the fixpoint is always
    /// queued by whichever mutation put it there (reordering can only add
    /// spurious candidates, which the pop-time purity check discards).
    fn recover_batch(&mut self, batch: &[(HashedSymbol<S>, bool, usize)]) {
        let received = self.coded.len() as u64;
        let mut mappings = std::mem::take(&mut self.batch_mappings);
        mappings.clear();
        for (hashed, _, _) in batch {
            mappings.push(IndexMapping::with_alpha(hashed.hash, self.alpha));
        }
        let mut live = batch.len();
        let mut done = [false; PEEL_LANES];
        let mut pending = std::mem::take(&mut self.pending);
        while live > 0 {
            pending.clear();
            for _ in 0..WAVE_STEPS {
                if live == 0 {
                    break;
                }
                for (lane, mapping) in mappings.iter_mut().enumerate() {
                    if done[lane] {
                        continue;
                    }
                    let idx = mapping.current_index();
                    if idx >= received {
                        done[lane] = true;
                        live -= 1;
                        continue;
                    }
                    mapping.advance();
                    let idx = idx as usize;
                    prefetch(&self.coded[idx]);
                    pending.push((lane, idx));
                }
            }
            for &(lane, idx) in &pending {
                let (hashed, is_remote, source_idx) = &batch[lane];
                if idx == *source_idx {
                    continue;
                }
                let cell = &mut self.coded[idx];
                cell.apply(
                    hashed,
                    if *is_remote {
                        Direction::Remove
                    } else {
                        Direction::Add
                    },
                );
                if (cell.count == 1 || cell.count == -1) && !self.queued[idx] {
                    self.queued[idx] = true;
                    self.pure_queue.push(idx);
                }
            }
        }
        self.pending = pending;
        self.batch_mappings = mappings;
    }

    /// Registers a propagated batch with the recovered-symbol windows so
    /// *future* incoming coded symbols are adjusted too, and returns the
    /// batch scratch buffer to the decoder.
    fn register_recovered(&mut self, mut batch: Vec<(HashedSymbol<S>, bool, usize)>) {
        for ((hashed, is_remote, _), mapping) in batch.drain(..).zip(self.batch_mappings.drain(..))
        {
            if is_remote {
                self.remote_recovered.push_with_mapping(hashed, mapping);
            } else {
                self.local_recovered.push_with_mapping(hashed, mapping);
            }
        }
        self.batch = batch;
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

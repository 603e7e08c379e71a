//! Irregular Rateless IBLT (paper §8).
//!
//! The regular design maps *every* source symbol with the same probability
//! function ρ(i) = 1/(1 + 0.5·i). The irregular variant partitions source
//! symbols into `c` classes by hash; class `j` gets its own parameter α_j
//! and a weight w_j (the probability a random symbol lands in it). With the
//! configuration found by the paper's search (c = 3, w = 0.18/0.56/0.26,
//! α = 0.11/0.68/0.82) the asymptotic communication overhead drops from
//! 1.35 to ≈1.10, at the cost of ≈1.9× slower encoding/decoding (the
//! non-0.5 α values need `powf` instead of a square root).
//!
//! The API mirrors the regular one: [`IrregularSketch`] for one-shot
//! reconciliation, [`IrregularEncoder`] / [`IrregularDecoder`] for the
//! streaming protocol.

use riblt_hash::{splitmix64, SipKey};

use crate::coded::{prefetch, CodedSymbol, Direction, PeelState};
use crate::decoder::SetDifference;
use crate::encoder::CodingWindow;
use crate::error::{Error, Result};
use crate::mapping::IndexMapping;
use crate::symbol::{HashedSymbol, Symbol};

/// Partition of source symbols into classes with per-class mapping
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IrregularClasses {
    weights: Vec<f64>,
    alphas: Vec<f64>,
    /// Cumulative weights scaled to the u64 range, used for hash-based class
    /// selection.
    thresholds: Vec<u64>,
}

impl IrregularClasses {
    /// Creates a class configuration. `weights` must sum to ≈1 and match
    /// `alphas` in length; every α must be positive.
    pub fn new(weights: &[f64], alphas: &[f64]) -> Self {
        assert_eq!(
            weights.len(),
            alphas.len(),
            "weights/alphas length mismatch"
        );
        assert!(!weights.is_empty(), "at least one class is required");
        let total: f64 = weights.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "class weights must sum to 1 (got {total})"
        );
        assert!(alphas.iter().all(|&a| a > 0.0), "alphas must be positive");
        let mut thresholds = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for &w in weights {
            acc += w;
            let t = (acc.min(1.0) * u64::MAX as f64) as u64;
            thresholds.push(t);
        }
        // Guard against floating-point shortfall on the last boundary.
        *thresholds.last_mut().unwrap() = u64::MAX;
        IrregularClasses {
            weights: weights.to_vec(),
            alphas: alphas.to_vec(),
            thresholds,
        }
    }

    /// The configuration found by the paper's brute-force search (§8):
    /// overhead → 1.10 as d → ∞.
    pub fn paper_optimal() -> Self {
        Self::new(&[0.18, 0.56, 0.26], &[0.11, 0.68, 0.82])
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.alphas.len()
    }

    /// Class weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Per-class mapping parameters.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// The class a symbol with checksum hash `hash` belongs to.
    ///
    /// Class membership is derived from an *independent* mix of the hash so
    /// that it does not correlate with the index-mapping PRNG, which is
    /// seeded with the hash itself.
    pub fn class_of(&self, hash: u64) -> usize {
        let selector = splitmix64(hash ^ 0x1bd1_1bda_a9fc_1a22);
        self.thresholds
            .iter()
            .position(|&t| selector <= t)
            .unwrap_or(self.thresholds.len() - 1)
    }

    /// The mapping parameter used for a symbol with hash `hash`.
    pub fn alpha_of(&self, hash: u64) -> f64 {
        self.alphas[self.class_of(hash)]
    }
}

impl Default for IrregularClasses {
    fn default() -> Self {
        Self::paper_optimal()
    }
}

/// Fixed-size sketch using per-class mapping parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IrregularSketch<S: Symbol> {
    cells: Vec<CodedSymbol<S>>,
    classes: IrregularClasses,
    key: SipKey,
}

impl<S: Symbol> IrregularSketch<S> {
    /// Creates an empty sketch of `m` coded symbols with the paper's optimal
    /// class configuration.
    pub fn new(m: usize) -> Self {
        Self::with_classes(m, IrregularClasses::paper_optimal(), SipKey::default())
    }

    /// Creates an empty sketch with explicit classes and key.
    pub fn with_classes(m: usize, classes: IrregularClasses, key: SipKey) -> Self {
        IrregularSketch {
            cells: vec![CodedSymbol::default(); m],
            classes,
            key,
        }
    }

    /// Number of coded symbols.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the sketch has no coded symbols.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read-only view of the coded symbols.
    pub fn cells(&self) -> &[CodedSymbol<S>] {
        &self.cells
    }

    fn apply(&mut self, hashed: &HashedSymbol<S>, direction: Direction) {
        let m = self.cells.len() as u64;
        let alpha = self.classes.alpha_of(hashed.hash);
        let mut mapping = IndexMapping::with_alpha(hashed.hash, alpha);
        loop {
            let idx = mapping.current_index();
            if idx >= m {
                break;
            }
            self.cells[idx as usize].apply(hashed, direction);
            mapping.advance();
        }
    }

    /// Mixes one item into the sketch.
    pub fn add_symbol(&mut self, symbol: &S) {
        let hashed = HashedSymbol::new(symbol.clone(), self.key);
        self.apply(&hashed, Direction::Add);
    }

    /// Removes one item from the sketch.
    pub fn remove_symbol(&mut self, symbol: &S) {
        let hashed = HashedSymbol::new(symbol.clone(), self.key);
        self.apply(&hashed, Direction::Remove);
    }

    /// Subtracts another sketch cell-by-cell (linearity).
    pub fn subtract(&mut self, other: &IrregularSketch<S>) -> Result<()> {
        if self.cells.len() != other.cells.len() || self.classes != other.classes {
            return Err(Error::SketchShapeMismatch {
                left: self.cells.len(),
                right: other.cells.len(),
            });
        }
        for (a, b) in self.cells.iter_mut().zip(other.cells.iter()) {
            a.subtract(b);
        }
        Ok(())
    }

    /// Returns `self ⊖ other`.
    pub fn subtracted(&self, other: &IrregularSketch<S>) -> Result<IrregularSketch<S>> {
        let mut out = self.clone();
        out.subtract(other)?;
        Ok(out)
    }

    /// Peels the sketch, recovering the encoded difference.
    pub fn decode(&self) -> Result<SetDifference<S>> {
        let mut cells = self.cells.clone();
        let m = cells.len() as u64;
        let mut queue: Vec<usize> = (0..cells.len())
            .filter(|&i| {
                matches!(
                    cells[i].peel_state(self.key),
                    PeelState::PureRemote | PeelState::PureLocal
                )
            })
            .collect();
        let mut diff = SetDifference::default();
        while let Some(idx) = queue.pop() {
            let state = cells[idx].peel_state(self.key);
            let is_remote = match state {
                PeelState::PureRemote => true,
                PeelState::PureLocal => false,
                _ => continue,
            };
            // Cells that are not one difference's sketch can hand the same
            // symbol back and forth for ever (see `Error::InconsistentStream`).
            if diff.len() == cells.len() {
                return Err(Error::InconsistentStream);
            }
            let symbol = cells[idx].sum.clone();
            let hash = cells[idx].checksum;
            let hashed = HashedSymbol::with_hash(symbol.clone(), hash);
            let direction = if is_remote {
                Direction::Remove
            } else {
                Direction::Add
            };
            let alpha = self.classes.alpha_of(hash);
            let mut mapping = IndexMapping::with_alpha(hash, alpha);
            loop {
                let i = mapping.current_index();
                if i >= m {
                    break;
                }
                cells[i as usize].apply(&hashed, direction);
                if matches!(
                    cells[i as usize].peel_state(self.key),
                    PeelState::PureRemote | PeelState::PureLocal
                ) {
                    queue.push(i as usize);
                }
                mapping.advance();
            }
            if is_remote {
                diff.remote_only.push(symbol);
            } else {
                diff.local_only.push(symbol);
            }
        }
        if cells.iter().all(|c| c.is_empty_cell()) {
            Ok(diff)
        } else {
            Err(Error::DecodeIncomplete)
        }
    }
}

/// Streaming encoder with per-class mapping parameters.
#[derive(Debug, Clone)]
pub struct IrregularEncoder<S: Symbol> {
    window: CodingWindow<S>,
    classes: IrregularClasses,
}

impl<S: Symbol> IrregularEncoder<S> {
    /// Creates an encoder with the paper's optimal class configuration.
    pub fn new() -> Self {
        Self::with_classes(IrregularClasses::paper_optimal(), SipKey::default())
    }

    /// Creates an encoder with explicit classes and checksum key.
    pub fn with_classes(classes: IrregularClasses, key: SipKey) -> Self {
        IrregularEncoder {
            window: CodingWindow::new(key, crate::mapping::DEFAULT_ALPHA),
            classes,
        }
    }

    /// Number of source symbols added.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True if the encoder holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.window.len() == 0
    }

    /// Adds a source symbol; rejected once coded symbols have been produced.
    pub fn add_symbol(&mut self, symbol: S) -> Result<()> {
        if self.window.next_index() != 0 {
            return Err(Error::SymbolAddedAfterEncodingStarted);
        }
        let hashed = HashedSymbol::new(symbol, self.window.key());
        let alpha = self.classes.alpha_of(hashed.hash);
        self.window.push_fresh_with_alpha(hashed, alpha);
        Ok(())
    }

    /// Index of the next coded symbol to be produced.
    pub fn next_index(&self) -> u64 {
        self.window.next_index()
    }

    /// Produces the next coded symbol of the infinite sequence.
    pub fn produce_next_coded_symbol(&mut self) -> CodedSymbol<S> {
        let mut cs = CodedSymbol::new();
        self.window.apply_next(&mut cs, Direction::Add);
        cs
    }

    /// Produces the next `n` coded symbols.
    pub fn produce_coded_symbols(&mut self, n: usize) -> Vec<CodedSymbol<S>> {
        (0..n).map(|_| self.produce_next_coded_symbol()).collect()
    }
}

impl<S: Symbol> Default for IrregularEncoder<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming decoder with per-class mapping parameters.
#[derive(Debug, Clone)]
pub struct IrregularDecoder<S: Symbol> {
    coded: Vec<CodedSymbol<S>>,
    /// Per-cell flag: true while the cell sits in `pure_queue`. Queue
    /// entries are unverified *candidates* (`count` hit ±1); purity is
    /// checked with a single hash at pop time, mirroring [`crate::Decoder`].
    queued: Vec<bool>,
    /// Cached termination flag, refreshed once per ingested symbol.
    decoded: bool,
    /// Sticky: peeling recovered more symbols than cells were received; see
    /// [`Self::check_consistent`].
    inconsistent: bool,
    local_set: CodingWindow<S>,
    remote_recovered: CodingWindow<S>,
    local_recovered: CodingWindow<S>,
    pure_queue: Vec<usize>,
    classes: IrregularClasses,
    key: SipKey,
}

impl<S: Symbol> IrregularDecoder<S> {
    /// Creates a decoder with the paper's optimal class configuration.
    pub fn new() -> Self {
        Self::with_classes(IrregularClasses::paper_optimal(), SipKey::default())
    }

    /// Creates a decoder with explicit classes and checksum key (must match
    /// the encoder's).
    pub fn with_classes(classes: IrregularClasses, key: SipKey) -> Self {
        let alpha = crate::mapping::DEFAULT_ALPHA;
        IrregularDecoder {
            coded: Vec::new(),
            queued: Vec::new(),
            decoded: false,
            inconsistent: false,
            local_set: CodingWindow::new(key, alpha),
            remote_recovered: CodingWindow::new(key, alpha),
            local_recovered: CodingWindow::new(key, alpha),
            pure_queue: Vec::new(),
            classes,
            key,
        }
    }

    /// Number of coded symbols ingested.
    pub fn coded_symbols_received(&self) -> usize {
        self.coded.len()
    }

    /// Adds a local-set symbol (before any coded symbol is ingested).
    pub fn add_symbol(&mut self, symbol: S) -> Result<()> {
        if !self.coded.is_empty() {
            return Err(Error::SymbolAddedAfterDecodingStarted);
        }
        let hashed = HashedSymbol::new(symbol, self.key);
        let alpha = self.classes.alpha_of(hashed.hash);
        self.local_set.push_fresh_with_alpha(hashed, alpha);
        Ok(())
    }

    /// Ingests a batch of coded symbols, stopping once decoding completes.
    /// Returns the number of symbols actually consumed.
    pub fn add_coded_symbols<I>(&mut self, symbols: I) -> usize
    where
        I: IntoIterator<Item = CodedSymbol<S>>,
    {
        let mut used = 0;
        if self.is_decoded() || self.inconsistent {
            return used;
        }
        for cs in symbols {
            self.add_coded_symbol(cs);
            used += 1;
            if self.is_decoded() || self.inconsistent {
                break;
            }
        }
        used
    }

    /// Ingests one coded symbol and peels as far as possible. Dropped
    /// unread once the stream has proved inconsistent
    /// ([`Self::check_consistent`]).
    pub fn add_coded_symbol(&mut self, mut cs: CodedSymbol<S>) {
        if self.inconsistent {
            return;
        }
        self.local_set.apply_next(&mut cs, Direction::Remove);
        self.remote_recovered.apply_next(&mut cs, Direction::Remove);
        self.local_recovered.apply_next(&mut cs, Direction::Add);
        let idx = self.coded.len();
        let candidate = cs.count == 1 || cs.count == -1;
        self.coded.push(cs);
        self.queued.push(candidate);
        if candidate {
            self.pure_queue.push(idx);
        }
        self.peel();
        self.decoded = !self.inconsistent && self.coded[0].is_empty_cell();
    }

    /// Runs the peeling loop until no pure cells remain. Queue entries are
    /// candidates (`count` hit ±1 at some mutation); purity is verified with
    /// one hash per pop, and the verified symbol is moved out of its source
    /// cell rather than cloned (the cell drains to empty either way).
    fn peel(&mut self) {
        while let Some(idx) = self.pure_queue.pop() {
            self.queued[idx] = false;
            let cell = &self.coded[idx];
            let is_remote = match cell.count {
                1 => true,
                -1 => false,
                // Resolved (or re-mixed) while queued; a later mutation
                // re-queues it if it turns pure again.
                _ => continue,
            };
            let hash = cell.checksum;
            if cell.sum.hash_with(self.key) != hash {
                continue;
            }
            // Mirrors `Decoder::peel`: a consistent stream never yields more
            // symbols than it has cells.
            if self.recovered_count() == self.coded.len() {
                self.inconsistent = true;
                self.pure_queue.clear();
                return;
            }
            let symbol = std::mem::take(&mut self.coded[idx].sum);
            self.coded[idx].checksum = 0;
            self.coded[idx].count = 0;
            self.recover(HashedSymbol::with_hash(symbol, hash), idx, is_remote);
        }
    }

    fn recover(&mut self, hashed: HashedSymbol<S>, source_idx: usize, is_remote: bool) {
        let alpha = self.classes.alpha_of(hashed.hash);
        let mut mapping = IndexMapping::with_alpha(hashed.hash, alpha);
        let received = self.coded.len() as u64;
        let direction = if is_remote {
            Direction::Remove
        } else {
            Direction::Add
        };
        loop {
            let idx = mapping.current_index();
            if idx >= received {
                break;
            }
            // Advance before touching so the walk's next cell can be
            // fetched in the shadow of this touch.
            let next = mapping.advance();
            if next < received {
                prefetch(&self.coded[next as usize]);
            }
            let idx = idx as usize;
            if idx != source_idx {
                let cell = &mut self.coded[idx];
                cell.apply(&hashed, direction);
                if (cell.count == 1 || cell.count == -1) && !self.queued[idx] {
                    self.queued[idx] = true;
                    self.pure_queue.push(idx);
                }
            }
        }
        if is_remote {
            self.remote_recovered.push_with_mapping(hashed, mapping);
        } else {
            self.local_recovered.push_with_mapping(hashed, mapping);
        }
    }

    /// True once reconciliation is complete (cell 0 drained). Reads a flag
    /// refreshed once per ingested symbol.
    #[inline]
    pub fn is_decoded(&self) -> bool {
        self.decoded
    }

    /// Number of difference symbols recovered so far.
    pub fn recovered_count(&self) -> usize {
        self.remote_recovered.len() + self.local_recovered.len()
    }

    /// Fails with [`Error::InconsistentStream`] once peeling has recovered
    /// more symbols than cells were received (sticky, as for
    /// [`crate::Decoder::check_consistent`]).
    pub fn check_consistent(&self) -> Result<()> {
        if self.inconsistent {
            return Err(Error::InconsistentStream);
        }
        Ok(())
    }

    /// Consumes the decoder and returns the recovered difference.
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
}

impl<S: Symbol> Default for IrregularDecoder<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::FixedBytes;
    use std::collections::BTreeSet;

    type Sym = FixedBytes<8>;

    #[test]
    fn class_selection_matches_weights() {
        let classes = IrregularClasses::paper_optimal();
        let trials = 100_000u64;
        let mut counts = vec![0usize; classes.num_classes()];
        for i in 0..trials {
            counts[classes.class_of(splitmix64(i))] += 1;
        }
        for (j, &w) in classes.weights().iter().enumerate() {
            let observed = counts[j] as f64 / trials as f64;
            assert!(
                (observed - w).abs() < 0.01,
                "class {j}: observed {observed:.3}, expected {w:.3}"
            );
        }
    }

    #[test]
    fn class_of_is_deterministic() {
        let classes = IrregularClasses::paper_optimal();
        for h in [0u64, 1, u64::MAX, 0xdeadbeef] {
            assert_eq!(classes.class_of(h), classes.class_of(h));
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn weights_must_sum_to_one() {
        IrregularClasses::new(&[0.5, 0.2], &[0.5, 0.5]);
    }

    #[test]
    fn irregular_sketch_reconciles() {
        let alice: Vec<Sym> = (0..2_000u64).map(Sym::from_u64).collect();
        let bob: Vec<Sym> = (50..2_050u64).map(Sym::from_u64).collect();
        let m = 400;
        let mut sa = IrregularSketch::new(m);
        let mut sb = IrregularSketch::new(m);
        for s in &alice {
            sa.add_symbol(s);
        }
        for s in &bob {
            sb.add_symbol(s);
        }
        let diff = sa.subtracted(&sb).unwrap().decode().unwrap();
        let remote: BTreeSet<u64> = diff.remote_only.iter().map(|s| s.to_u64()).collect();
        let local: BTreeSet<u64> = diff.local_only.iter().map(|s| s.to_u64()).collect();
        assert_eq!(remote, (0..50).collect());
        assert_eq!(local, (2000..2050).collect());
    }

    #[test]
    fn irregular_streaming_roundtrip() {
        let mut enc = IrregularEncoder::<Sym>::new();
        for i in 0..1_000u64 {
            enc.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let mut dec = IrregularDecoder::<Sym>::new();
        for i in 20..1_020u64 {
            dec.add_symbol(Sym::from_u64(i)).unwrap();
        }
        let mut used = 0;
        while !dec.is_decoded() {
            dec.add_coded_symbol(enc.produce_next_coded_symbol());
            used += 1;
            assert!(used < 5_000, "failed to converge");
        }
        let diff = dec.into_difference();
        assert_eq!(diff.remote_only.len(), 20);
        assert_eq!(diff.local_only.len(), 20);
    }

    #[test]
    fn undersized_irregular_sketch_fails_gracefully() {
        let mut s = IrregularSketch::<Sym>::new(10);
        for i in 0..200u64 {
            s.add_symbol(&Sym::from_u64(i));
        }
        assert_eq!(s.decode().unwrap_err(), Error::DecodeIncomplete);
    }

    #[test]
    fn add_after_decoding_started_is_rejected() {
        let mut dec = IrregularDecoder::<Sym>::new();
        dec.add_coded_symbol(CodedSymbol::default());
        assert!(dec.add_symbol(Sym::from_u64(1)).is_err());
    }
}

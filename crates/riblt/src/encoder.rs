//! The rateless encoder (paper §4.2, §6).
//!
//! [`Encoder`] turns a set into the infinite coded-symbol sequence
//! `s₀, s₁, s₂, …`, producing one symbol per call. Internally it keeps the
//! *coding window*: a min-heap of source symbols keyed by the next coded
//! symbol index each one is mapped to, so producing the i-th coded symbol
//! touches only the symbols actually mapped to it (the "efficient
//! incremental encoding" optimization of §6) instead of scanning the whole
//! set.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use riblt_hash::SipKey;

use crate::coded::{prefetch, CodedSymbol, Direction};
use crate::error::{Error, Result};
use crate::mapping::{IndexMapping, MappingRule, Uniform};
use crate::symbol::{HashedSymbol, Symbol};

/// Sentinel terminating a bucket chain in [`CodingWindow`].
const NO_POS: u32 = u32::MAX;

/// The coding window: source symbols ordered by the next coded-symbol index
/// they are mapped to.
///
/// Shared by the encoder (which *adds* symbols into produced coded symbols)
/// and the decoder (which lazily generates its local set's contribution and
/// subtracts it, and maintains windows of recovered symbols).
///
/// Scheduling uses a calendar queue instead of a binary heap: coded-symbol
/// indices are produced strictly in order 0, 1, 2, …, so each symbol is
/// parked in an O(1) intrusive bucket chain keyed by its next mapped index.
/// Only far-tail jumps (a few percent — the mapping's jump length is
/// proportional to the current index) fall back to a small overflow heap.
/// This removes the O(log n) sift, and its cache misses, from every one of
/// the O(d log d) symbol touches of an encode or decode pass. The order in
/// which co-mapped symbols are applied within one index differs from the
/// heap's, but application is XOR/add — commutative — so every produced
/// coded symbol is byte-identical.
#[derive(Debug, Clone)]
pub(crate) struct CodingWindow<S: Symbol> {
    symbols: Vec<HashedSymbol<S>>,
    mappings: Vec<IndexMapping>,
    /// `bucket_head[i]` is the first position in the chain of symbols whose
    /// next mapped index is `i` ([`NO_POS`] = empty). Grows lazily, bounded
    /// to a constant factor of the produced prefix (see [`Self::enqueue`]).
    bucket_head: Vec<u32>,
    /// Intrusive chain links, parallel to `symbols`.
    bucket_next: Vec<u32>,
    /// (next mapped index, position) entries beyond the bucketed horizon.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Index of the next coded symbol this window will contribute to.
    next_index: u64,
    key: SipKey,
}

impl<S: Symbol> CodingWindow<S> {
    pub(crate) fn new(key: SipKey) -> Self {
        CodingWindow {
            symbols: Vec::new(),
            mappings: Vec::new(),
            bucket_head: Vec::new(),
            bucket_next: Vec::new(),
            overflow: BinaryHeap::new(),
            next_index: 0,
            key,
        }
    }

    pub(crate) fn key(&self) -> SipKey {
        self.key
    }

    pub(crate) fn len(&self) -> usize {
        self.symbols.len()
    }

    pub(crate) fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Makes room for `additional` more symbols, exactly: a window built
    /// for a set of known size then never copies itself while it fills,
    /// and holds no doubling slack afterwards.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.symbols.reserve_exact(additional);
        self.mappings.reserve_exact(additional);
        self.bucket_next.reserve_exact(additional);
    }

    /// Parks position `pos` to be applied at coded-symbol `index`: an O(1)
    /// bucket push, or the overflow heap for indices far beyond the prefix
    /// produced so far (keeps the bucket array within a constant factor of
    /// the output length regardless of how far tail jumps land).
    #[inline]
    fn enqueue(&mut self, pos: u32, index: u64) {
        debug_assert!(index >= self.next_index || self.next_index == 0);
        let limit = 4 * (self.next_index + 1) + 1024;
        if index < limit {
            let i = index as usize;
            if i >= self.bucket_head.len() {
                self.bucket_head.resize(i + 1, NO_POS);
            }
            self.bucket_next[pos as usize] = self.bucket_head[i];
            self.bucket_head[i] = pos;
        } else {
            self.overflow.push(Reverse((index, pos)));
        }
    }

    /// Registers a symbol/mapping pair and parks it at its current index.
    fn push_entry(&mut self, symbol: HashedSymbol<S>, mapping: IndexMapping) {
        let pos = self.symbols.len();
        assert!(pos < NO_POS as usize, "coding window position overflow");
        let index = mapping.current_index();
        self.symbols.push(symbol);
        self.mappings.push(mapping);
        self.bucket_next.push(NO_POS);
        self.enqueue(pos as u32, index);
    }

    /// Adds a symbol whose mapping, of parameter `alpha` (the owner's
    /// [`MappingRule`] picks it), starts at index 0. Only valid before the
    /// window has produced anything (`next_index == 0`); the caller enforces
    /// that and reports [`Error`] variants appropriate for its API.
    pub(crate) fn push_fresh(&mut self, symbol: HashedSymbol<S>, alpha: f64) {
        debug_assert_eq!(self.next_index, 0);
        let mapping = IndexMapping::with_alpha(symbol.hash, alpha);
        self.push_entry(symbol, mapping);
    }

    /// Adds a symbol together with a mapping that has already been advanced
    /// past the indices this window has produced (used by the decoder when a
    /// symbol is recovered mid-stream).
    pub(crate) fn push_with_mapping(&mut self, symbol: HashedSymbol<S>, mapping: IndexMapping) {
        debug_assert!(mapping.current_index() >= self.next_index);
        self.push_entry(symbol, mapping);
    }

    /// Applies every symbol mapped to the current index into `cs` (in the
    /// given direction) and advances the window to the next index.
    pub(crate) fn apply_next(&mut self, cs: &mut CodedSymbol<S>, direction: Direction) {
        let idx = self.next_index;
        self.next_index = idx + 1;
        if (idx as usize) < self.bucket_head.len() {
            let mut pos = std::mem::replace(&mut self.bucket_head[idx as usize], NO_POS);
            while pos != NO_POS {
                let p = pos as usize;
                // Chain entries are scattered; start the next entry's
                // fetches before working on this one.
                pos = self.bucket_next[p];
                if pos != NO_POS {
                    prefetch(&self.symbols[pos as usize]);
                    prefetch(&self.mappings[pos as usize]);
                }
                cs.apply(&self.symbols[p], direction);
                let advanced = self.mappings[p].advance();
                self.enqueue(p as u32, advanced);
            }
        }
        while let Some(&Reverse((next, pos))) = self.overflow.peek() {
            if next != idx {
                debug_assert!(next > idx, "window fell behind its overflow heap");
                break;
            }
            self.overflow.pop();
            let p = pos as usize;
            cs.apply(&self.symbols[p], direction);
            let advanced = self.mappings[p].advance();
            self.enqueue(pos, advanced);
        }
    }

    /// Restarts emission from index 0, keeping the symbol set and each
    /// symbol's (possibly per-class) mapping parameter.
    pub(crate) fn restart(&mut self) {
        self.bucket_head.clear();
        self.overflow.clear();
        self.next_index = 0;
        // Every fresh mapping starts at index 0: chain them all into one
        // bucket directly.
        self.bucket_head.push(NO_POS);
        for (pos, sym) in self.symbols.iter().enumerate() {
            let alpha = self.mappings[pos].alpha();
            self.mappings[pos] = IndexMapping::with_alpha(sym.hash, alpha);
            self.bucket_next[pos] = self.bucket_head[0];
            self.bucket_head[0] = pos as u32;
        }
    }

    /// Drops every symbol `keep` turns down and re-parks the survivors, each
    /// with its mapping where it stands, so the window contributes to every
    /// future index exactly what the survivors alone would have.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&HashedSymbol<S>) -> bool) {
        let symbols = std::mem::take(&mut self.symbols);
        let mappings = std::mem::take(&mut self.mappings);
        self.bucket_head.clear();
        self.bucket_next.clear();
        self.overflow.clear();
        for (symbol, mapping) in symbols.into_iter().zip(mappings) {
            if keep(&symbol) {
                self.push_entry(symbol, mapping);
            }
        }
    }

    /// Iterates over the stored symbols (used to report recovered sets).
    pub(crate) fn symbols(&self) -> &[HashedSymbol<S>] {
        &self.symbols
    }
}

/// Streaming encoder for a set: produces the infinite coded-symbol sequence
/// one symbol at a time.
///
/// ```
/// use riblt::{Encoder, FixedBytes};
///
/// let mut enc = Encoder::<FixedBytes<8>>::new();
/// for i in 0..100u64 {
///     enc.add_symbol(FixedBytes::from_u64(i)).unwrap();
/// }
/// let first = enc.produce_next_coded_symbol();
/// // Every source symbol is mapped to coded symbol 0 (ρ(0) = 1).
/// assert_eq!(first.count, 100);
/// ```
#[derive(Debug, Clone)]
pub struct Encoder<S: Symbol, R: MappingRule = Uniform> {
    window: CodingWindow<S>,
    rule: R,
}

impl<S: Symbol, R: MappingRule + Default> Default for Encoder<S, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Symbol> Encoder<S> {
    /// Creates an encoder using a secret checksum key (paper §4.3); both
    /// parties must use the same key.
    pub fn with_key(key: SipKey) -> Self {
        Self::with_rule(Uniform::default(), key)
    }

    /// Creates an encoder with an explicit mapping parameter α. Used by the
    /// α-sweep experiments; applications should use the default.
    pub fn with_key_and_alpha(key: SipKey, alpha: f64) -> Self {
        Self::with_rule(Uniform(alpha), key)
    }

    /// The mapping parameter α this encoder was built with. Session layers
    /// use it to configure a matching [`crate::SymbolCodec`], so the wire
    /// format's expected-count compression stays aligned with the actual
    /// coded-symbol density.
    pub fn alpha(&self) -> f64 {
        self.rule.0
    }
}

impl<S: Symbol, R: MappingRule> Encoder<S, R> {
    /// Creates an encoder with the default (non-secret) checksum key and the
    /// rule's default: the paper's α = 0.5 mapping for [`Encoder`], the
    /// paper's optimal classes for [`crate::IrregularEncoder`].
    pub fn new() -> Self
    where
        R: Default,
    {
        Self::with_rule(R::default(), SipKey::default())
    }

    /// Creates an encoder whose symbols map under `rule`, with checksum key
    /// `key`; the decoder must be built with the same two.
    pub fn with_rule(rule: R, key: SipKey) -> Self {
        Encoder {
            window: CodingWindow::new(key),
            rule,
        }
    }

    /// Number of source symbols added so far.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True if no source symbols have been added.
    pub fn is_empty(&self) -> bool {
        self.window.len() == 0
    }

    /// Index of the next coded symbol that [`Self::produce_next_coded_symbol`]
    /// will produce.
    pub fn next_index(&self) -> u64 {
        self.window.next_index()
    }

    /// The checksum key in use.
    pub fn key(&self) -> SipKey {
        self.window.key()
    }

    /// Makes room for `additional` more source symbols; worth calling when
    /// the size of the set is known before it is added.
    pub fn reserve(&mut self, additional: usize) {
        self.window.reserve(additional);
    }

    /// Adds a source symbol to the set being encoded.
    ///
    /// Returns [`Error::SymbolAddedAfterEncodingStarted`] if coded symbols
    /// have already been produced: those prefixes would not include the new
    /// symbol. Use [`crate::SketchCache`] for incrementally-updated sets, or
    /// [`Self::restart`] to re-emit from index 0.
    pub fn add_symbol(&mut self, symbol: S) -> Result<()> {
        let hashed = HashedSymbol::new(symbol, self.window.key());
        self.add_hashed_symbol(hashed)
    }

    /// Adds a symbol whose keyed hash the caller has already computed.
    pub fn add_hashed_symbol(&mut self, symbol: HashedSymbol<S>) -> Result<()> {
        if self.window.next_index() != 0 {
            return Err(Error::SymbolAddedAfterEncodingStarted);
        }
        let alpha = self.rule.alpha_of(symbol.hash);
        self.window.push_fresh(symbol, alpha);
        Ok(())
    }

    /// Produces the next coded symbol in the infinite sequence.
    pub fn produce_next_coded_symbol(&mut self) -> CodedSymbol<S> {
        let mut cs = CodedSymbol::new();
        self.window.apply_next(&mut cs, Direction::Add);
        cs
    }

    /// Produces the next `n` coded symbols.
    pub fn produce_coded_symbols(&mut self, n: usize) -> Vec<CodedSymbol<S>> {
        (0..n).map(|_| self.produce_next_coded_symbol()).collect()
    }

    /// Restarts emission from coded symbol 0 while keeping the symbol set,
    /// e.g. to re-stream to a new peer from the beginning.
    pub fn restart(&mut self) {
        self.window.restart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::FixedBytes;

    type Sym = FixedBytes<8>;

    fn encoder_with(symbols: impl IntoIterator<Item = u64>) -> Encoder<Sym> {
        let mut enc = Encoder::new();
        for s in symbols {
            enc.add_symbol(Sym::from_u64(s)).unwrap();
        }
        enc
    }

    #[test]
    fn first_coded_symbol_contains_every_source_symbol() {
        let mut enc = encoder_with(1..=50);
        let c0 = enc.produce_next_coded_symbol();
        assert_eq!(c0.count, 50);
        // XOR of all inputs.
        let mut expect = Sym::ZERO;
        for i in 1..=50u64 {
            expect.xor_in_place(&Sym::from_u64(i));
        }
        assert_eq!(c0.sum, expect);
    }

    #[test]
    fn coded_symbol_sequence_is_deterministic() {
        let mut a = encoder_with(0..200);
        let mut b = encoder_with(0..200);
        for _ in 0..500 {
            assert_eq!(a.produce_next_coded_symbol(), b.produce_next_coded_symbol());
        }
    }

    #[test]
    fn add_after_produce_is_rejected() {
        let mut enc = encoder_with(0..10);
        let _ = enc.produce_next_coded_symbol();
        assert_eq!(
            enc.add_symbol(Sym::from_u64(99)),
            Err(Error::SymbolAddedAfterEncodingStarted)
        );
    }

    #[test]
    fn restart_reproduces_the_same_prefix() {
        let mut enc = encoder_with(0..100);
        let first: Vec<_> = enc.produce_coded_symbols(64);
        enc.restart();
        let second: Vec<_> = enc.produce_coded_symbols(64);
        assert_eq!(first, second);
    }

    #[test]
    fn linearity_of_streams() {
        // Subtracting the coded streams of A and B gives the stream of A △ B.
        let a: Vec<u64> = (0..300).collect();
        let b: Vec<u64> = (100..400).collect(); // A △ B = 0..100 ∪ 300..400
        let mut enc_a = encoder_with(a.iter().copied());
        let mut enc_b = encoder_with(b.iter().copied());
        let mut enc_d = encoder_with((0..100).chain(300..400));

        for _ in 0..256 {
            let mut ca = enc_a.produce_next_coded_symbol();
            let cb = enc_b.produce_next_coded_symbol();
            let cd = enc_d.produce_next_coded_symbol();
            ca.subtract(&cb);
            // Counts differ in sign semantics: the difference stream encodes
            // A-only items with +1 and B-only with −1, while enc_d encodes
            // them all with +1. Sum and checksum must match exactly for the
            // symmetric-difference check, so compare against a reconstruction.
            assert_eq!(ca.sum, cd.sum);
            assert_eq!(ca.checksum, cd.checksum);
        }
    }

    #[test]
    fn sparse_mapping_keeps_later_symbols_small() {
        // Later coded symbols should contain far fewer source symbols than
        // the first one (ρ decreases like 1/i).
        let mut enc = encoder_with(0..10_000);
        let symbols = enc.produce_coded_symbols(2_000);
        assert_eq!(symbols[0].count, 10_000);
        let tail_avg: f64 = symbols[1_000..].iter().map(|c| c.count as f64).sum::<f64>() / 1_000.0;
        // ρ(1500) ≈ 1/751 ⇒ about 13 of 10k symbols per cell.
        assert!(tail_avg < 40.0, "tail average count too high: {tail_avg}");
        assert!(
            tail_avg > 2.0,
            "tail average count suspiciously low: {tail_avg}"
        );
    }

    #[test]
    fn window_keeps_at_most_72_bytes_per_32_byte_symbol() {
        // Symbol + hash, parked mapping, chain link: the three parallel
        // vectors of `CodingWindow`.
        let per_symbol = std::mem::size_of::<HashedSymbol<FixedBytes<32>>>()
            + std::mem::size_of::<IndexMapping>()
            + std::mem::size_of::<u32>();
        assert!(per_symbol <= 72, "{per_symbol} B per windowed symbol");
    }

    #[test]
    fn empty_encoder_produces_empty_cells() {
        let mut enc = Encoder::<Sym>::new();
        for _ in 0..10 {
            assert!(enc.produce_next_coded_symbol().is_empty_cell());
        }
    }
}

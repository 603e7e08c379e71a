//! Fixed-size sketches and incrementally-maintained coded-symbol caches.
//!
//! [`Sketch`] is the first `m` coded symbols of the infinite sequence,
//! materialized as a value: it can be built directly from a set, subtracted
//! from another sketch (linearity, §4.1), and decoded standalone. This is the
//! convenient API when the application wants to ship a single message, and
//! it is what the Monte Carlo experiments use.
//!
//! [`SketchCache`] is the long-lived variant for a node that keeps a prefix
//! of its own coded-symbol sequence around (the "Alice maintains a universal
//! sequence" deployment of §2 and §7.3): it supports adding/removing set
//! items *after* the prefix has been materialized — each update touches only
//! the O(log m) coded symbols the item maps to — and extending the prefix on
//! demand.

use std::collections::HashMap;

use riblt_hash::SipKey;

use crate::coded::{CodedSymbol, Direction};
use crate::decoder::SetDifference;
use crate::encoder::CodingWindow;
use crate::error::{Error, Result};
use crate::mapping::{IndexMapping, MappingRule, Uniform, DEFAULT_ALPHA};
use crate::peel::Peeler;
use crate::symbol::{HashedSymbol, Symbol};

/// Applies `hashed` to every one of `cells` its `alpha` mapping reaches and
/// returns the mapping, parked at its first index past them.
fn apply_to_prefix<S: Symbol>(
    cells: &mut [CodedSymbol<S>],
    hashed: &HashedSymbol<S>,
    alpha: f64,
    direction: Direction,
) -> IndexMapping {
    let mut walk = IndexMapping::with_alpha(hashed.hash, alpha).walk();
    let m = cells.len() as u64;
    while walk.current_index() < m {
        cells[walk.current_index() as usize].apply(hashed, direction);
        walk.advance();
    }
    walk.park()
}

/// A materialized prefix of a set's coded-symbol sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch<S: Symbol, R: MappingRule = Uniform> {
    cells: Vec<CodedSymbol<S>>,
    key: SipKey,
    rule: R,
}

impl<S: Symbol> Sketch<S> {
    /// Creates an empty sketch with `m` coded symbols under a secret key.
    pub fn with_key(m: usize, key: SipKey) -> Self {
        Self::with_key_and_alpha(m, key, DEFAULT_ALPHA)
    }

    /// Creates an empty sketch with an explicit mapping parameter α.
    pub fn with_key_and_alpha(m: usize, key: SipKey, alpha: f64) -> Self {
        Self::from_cells(vec![CodedSymbol::default(); m], key, alpha)
    }

    /// Wraps already-computed coded symbols (e.g. a cell range received from
    /// a peer's [`SketchCache`], minus the local contribution) as a sketch so
    /// it can be decoded. The caller must pass the key and α the cells were
    /// produced under.
    pub fn from_cells(cells: Vec<CodedSymbol<S>>, key: SipKey, alpha: f64) -> Self {
        Self::from_cells_with_rule(cells, key, Uniform(alpha))
    }

    /// Builds the sketch of a whole set in one call.
    pub fn from_set<'a>(m: usize, items: impl IntoIterator<Item = &'a S>) -> Self
    where
        S: 'a,
    {
        let mut sketch = Self::new(m);
        for item in items {
            sketch.add_symbol(item);
        }
        sketch
    }

    /// The mapping parameter α.
    pub fn alpha(&self) -> f64 {
        self.rule.0
    }
}

impl<S: Symbol, R: MappingRule> Sketch<S, R> {
    /// Creates an empty sketch with `m` coded symbols under the default key
    /// and the rule's default: α = 0.5 for [`Sketch`], the paper's optimal
    /// classes for [`crate::IrregularSketch`].
    pub fn new(m: usize) -> Self
    where
        R: Default,
    {
        Self::from_cells_with_rule(
            vec![CodedSymbol::default(); m],
            SipKey::default(),
            R::default(),
        )
    }

    /// [`Sketch::from_cells`] for cells produced under any mapping rule.
    pub fn from_cells_with_rule(cells: Vec<CodedSymbol<S>>, key: SipKey, rule: R) -> Self {
        Sketch { cells, key, rule }
    }

    /// Number of coded symbols.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the sketch has no coded symbols.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The checksum key.
    pub fn key(&self) -> SipKey {
        self.key
    }

    /// The mapping rule the cells are coded under.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// Read-only access to the coded symbols.
    pub fn cells(&self) -> &[CodedSymbol<S>] {
        &self.cells
    }

    fn apply(&mut self, symbol: &S, direction: Direction) {
        let hashed = HashedSymbol::new(symbol.clone(), self.key);
        let alpha = self.rule.alpha_of(hashed.hash);
        apply_to_prefix(&mut self.cells, &hashed, alpha, direction);
    }

    /// Mixes one set item into the sketch.
    pub fn add_symbol(&mut self, symbol: &S) {
        self.apply(symbol, Direction::Add);
    }

    /// Removes one set item from the sketch (linearity makes removal the
    /// exact inverse of addition).
    pub fn remove_symbol(&mut self, symbol: &S) {
        self.apply(symbol, Direction::Remove);
    }

    /// Subtracts `other` cell-by-cell: the result is the sketch of the
    /// symmetric difference of the two encoded sets (paper §3). Both must
    /// have the same length, mapping rule and key, or the cells would not
    /// cancel; `self` is left untouched when they do not.
    pub fn subtract(&mut self, other: &Sketch<S, R>) -> Result<()> {
        if self.cells.len() != other.cells.len() || self.rule != other.rule || self.key != other.key
        {
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

    /// Returns a new sketch equal to `self ⊖ other`.
    pub fn subtracted(&self, other: &Sketch<S, R>) -> Result<Sketch<S, R>> {
        let mut out = self.clone();
        out.subtract(other)?;
        Ok(out)
    }

    /// Attempts to decode the sketch with the peeling decoder.
    ///
    /// On a *difference* sketch (`a.subtracted(&b)`), success recovers the
    /// symmetric difference, split by side. On a sketch of a plain set,
    /// success recovers the whole set in `remote_only`.
    ///
    /// Returns [`Error::DecodeIncomplete`] if peeling stalls — the caller
    /// should obtain a longer sketch (more coded symbols) and retry — and
    /// [`Error::InconsistentStream`] if the cells are not a sketch of one
    /// difference at all.
    pub fn decode(&self) -> Result<SetDifference<S>> {
        let mut cells = self.cells.clone();
        let mut peeler = Peeler::new();
        peeler.reserve(cells.len(), 0);
        for cell in &cells {
            peeler.push_cell(cell);
        }
        let mut diff = SetDifference::default();
        let consistent = peeler.peel(&mut cells, self.key, &self.rule, |hashed, is_remote, _| {
            if is_remote {
                diff.remote_only.push(hashed.symbol);
            } else {
                diff.local_only.push(hashed.symbol);
            }
        });
        if !consistent {
            return Err(Error::InconsistentStream);
        }
        if cells.iter().all(|c| c.is_empty_cell()) {
            Ok(diff)
        } else {
            Err(Error::DecodeIncomplete)
        }
    }
}

/// A long-lived, incrementally maintained prefix of a set's coded-symbol
/// sequence.
///
/// Typical deployment (paper §7.3): a node keeps `SketchCache` for its whole
/// state, patches it as the state changes (each change touches O(log m)
/// cells), extends it when longer prefixes are needed, and streams
/// `prefix(..)` to any peer that asks — the same cached symbols serve every
/// peer because the sequence is universal.
#[derive(Debug, Clone)]
pub struct SketchCache<S: Symbol> {
    cells: Vec<CodedSymbol<S>>,
    /// Every symbol added and not yet cancelled against a removal,
    /// positioned past the materialized prefix so the cache can extend.
    additions: CodingWindow<S>,
    /// Every symbol removed and not yet cancelled, likewise positioned.
    removals: CodingWindow<S>,
    /// Removals the last [`Self::cancel_pairs`] found no addition for;
    /// they are not counted towards the next one, so it stays amortised
    /// O(1) per mutation even when nothing cancels.
    unmatched_removals: usize,
    key: SipKey,
    alpha: f64,
}

impl<S: Symbol> SketchCache<S> {
    /// Creates an empty cache with no materialized coded symbols.
    pub fn new() -> Self {
        Self::with_key(SipKey::default())
    }

    /// Creates an empty cache with a secret checksum key.
    pub fn with_key(key: SipKey) -> Self {
        Self::with_key_and_alpha(key, DEFAULT_ALPHA)
    }

    /// Creates an empty cache with an explicit mapping parameter α.
    pub fn with_key_and_alpha(key: SipKey, alpha: f64) -> Self {
        SketchCache {
            cells: Vec::new(),
            additions: CodingWindow::new(key),
            removals: CodingWindow::new(key),
            unmatched_removals: 0,
            key,
            alpha,
        }
    }

    /// Number of materialized coded symbols.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no coded symbols are materialized yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Net number of items currently in the cached set
    /// (additions − removals).
    pub fn set_size(&self) -> i64 {
        self.additions.len() as i64 - self.removals.len() as i64
    }

    /// The checksum key.
    pub fn key(&self) -> SipKey {
        self.key
    }

    /// The mapping parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Adds an item to the cached set, patching the materialized prefix.
    pub fn add_symbol(&mut self, symbol: S) {
        self.add_hashed_symbol(HashedSymbol::new(symbol, self.key));
    }

    /// [`Self::add_symbol`] for an item whose hash under [`Self::key`] the
    /// caller has already computed.
    pub fn add_hashed_symbol(&mut self, hashed: HashedSymbol<S>) {
        let mapping = apply_to_prefix(&mut self.cells, &hashed, self.alpha, Direction::Add);
        self.additions.push_with_mapping(hashed, mapping);
    }

    /// Removes an item from the cached set, patching the materialized
    /// prefix. Removing an item that was never added corrupts the cache
    /// (exactly as it would corrupt any linear sketch); the caller owns set
    /// membership.
    pub fn remove_symbol(&mut self, symbol: S) {
        self.remove_hashed_symbol(HashedSymbol::new(symbol, self.key));
    }

    /// [`Self::remove_symbol`] for an item whose hash under [`Self::key`]
    /// the caller has already computed.
    pub fn remove_hashed_symbol(&mut self, hashed: HashedSymbol<S>) {
        let mapping = apply_to_prefix(&mut self.cells, &hashed, self.alpha, Direction::Remove);
        self.removals.push_with_mapping(hashed, mapping);
        let pending = self.removals.len() - self.unmatched_removals;
        if pending >= (self.additions.len() / 4).max(1) {
            self.cancel_pairs();
        }
    }

    /// Drops every removal together with one addition of the same keyed
    /// hash. Both mappings of a pair stand at the same index (the first one
    /// the symbol maps to past the materialized prefix), so the pair
    /// contributes nothing to any future cell, and the materialized cells
    /// already hold both patches: no served byte changes. Without this a
    /// set that churns at constant size grows by one window entry per
    /// mutation for ever.
    fn cancel_pairs(&mut self) {
        let mut removed: HashMap<u64, usize> = HashMap::with_capacity(self.removals.len());
        for symbol in self.removals.symbols() {
            *removed.entry(symbol.hash).or_default() += 1;
        }
        // Takes one removal of `hash` off the tally, if any is left on it.
        let mut take = |hash: u64| match removed.get_mut(&hash) {
            Some(count) if *count > 0 => {
                *count -= 1;
                true
            }
            _ => false,
        };
        self.additions.retain(|symbol| !take(symbol.hash));
        // What the additions left on the tally found no addition: keep it.
        self.removals.retain(|symbol| take(symbol.hash));
        self.unmatched_removals = self.removals.len();
    }

    /// Window entries held for additions and for removals: what the cache
    /// keeps per mutation besides its cells. Bounded by a constant factor of
    /// the live set however long the set churns.
    pub fn window_entries(&self) -> (usize, usize) {
        (self.additions.len(), self.removals.len())
    }

    /// Extends the materialized prefix by `extra` coded symbols.
    pub fn extend(&mut self, extra: usize) {
        for _ in 0..extra {
            let mut cs = CodedSymbol::default();
            self.additions.apply_next(&mut cs, Direction::Add);
            self.removals.apply_next(&mut cs, Direction::Remove);
            self.cells.push(cs);
        }
    }

    /// Ensures at least `m` coded symbols are materialized.
    pub fn ensure_len(&mut self, m: usize) {
        if m > self.cells.len() {
            let extra = m - self.cells.len();
            self.extend(extra);
        }
    }

    /// The materialized coded symbols.
    pub fn cells(&self) -> &[CodedSymbol<S>] {
        &self.cells
    }

    /// Returns the first `m` coded symbols (materializing more if needed).
    pub fn prefix(&mut self, m: usize) -> &[CodedSymbol<S>] {
        self.ensure_len(m);
        &self.cells[..m]
    }

    /// Returns the coded symbols `[start, start + len)`, materializing the
    /// prefix as far as needed.
    ///
    /// This is the multi-peer serving primitive: every concurrent session
    /// tracks only its own offset into the (universal) sequence and reads
    /// ranges out of the *same* cache — the symbols are encoded once no
    /// matter how many peers, at whatever staleness, are being served.
    pub fn range(&mut self, start: usize, len: usize) -> &[CodedSymbol<S>] {
        self.ensure_len(start + len);
        &self.cells[start..start + len]
    }

    /// Copies the first `m` coded symbols into a standalone [`Sketch`].
    pub fn to_sketch(&mut self, m: usize) -> Sketch<S> {
        self.ensure_len(m);
        Sketch::from_cells(self.cells[..m].to_vec(), self.key, self.alpha)
    }
}

impl<S: Symbol> Default for SketchCache<S> {
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

    fn syms(range: std::ops::Range<u64>) -> Vec<Sym> {
        range.map(Sym::from_u64).collect()
    }

    fn to_set(v: &[Sym]) -> BTreeSet<u64> {
        v.iter().map(|s| s.to_u64()).collect()
    }

    #[test]
    fn sketch_of_small_set_decodes_itself() {
        let items = syms(0..20);
        let sketch = Sketch::from_set(60, items.iter());
        let diff = sketch.decode().unwrap();
        assert_eq!(to_set(&diff.remote_only), (0..20).collect());
        assert!(diff.local_only.is_empty());
    }

    #[test]
    fn subtracted_sketches_decode_the_symmetric_difference() {
        let alice = syms(0..1000);
        let bob = syms(20..1020);
        let m = 120;
        let sa = Sketch::from_set(m, alice.iter());
        let sb = Sketch::from_set(m, bob.iter());
        let diff_sketch = sa.subtracted(&sb).unwrap();
        let diff = diff_sketch.decode().unwrap();
        assert_eq!(to_set(&diff.remote_only), (0..20).collect());
        assert_eq!(to_set(&diff.local_only), (1000..1020).collect());
    }

    #[test]
    fn undersized_sketch_reports_incomplete() {
        let alice = syms(0..500);
        let bob: Vec<Sym> = Vec::new();
        // 500 differences cannot fit in 40 coded symbols.
        let sa = Sketch::from_set(40, alice.iter());
        let sb = Sketch::from_set(40, bob.iter());
        let diff_sketch = sa.subtracted(&sb).unwrap();
        assert_eq!(diff_sketch.decode().unwrap_err(), Error::DecodeIncomplete);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Sketch::<Sym>::new(10);
        let b = Sketch::<Sym>::new(20);
        assert!(matches!(
            a.subtracted(&b),
            Err(Error::SketchShapeMismatch {
                left: 10,
                right: 20
            })
        ));
    }

    #[test]
    fn subtract_refuses_sketches_coded_differently() {
        use crate::irregular::{IrregularClasses, IrregularSketch};
        let item = Sym::from_u64(7);
        // Same length throughout: only α, the classes or the key differ.
        let mut a = Sketch::<Sym>::with_key_and_alpha(10, SipKey::default(), 0.5);
        a.add_symbol(&item);
        let before = a.clone();
        let other_alpha = Sketch::with_key_and_alpha(10, SipKey::default(), 0.3);
        let other_key = Sketch::with_key(10, SipKey::new(1, 2));
        for other in [other_alpha, other_key] {
            assert!(matches!(
                a.subtract(&other),
                Err(Error::SketchShapeMismatch {
                    left: 10,
                    right: 10
                })
            ));
            assert_eq!(a, before);
        }

        let mut a = IrregularSketch::<Sym>::new(10);
        a.add_symbol(&item);
        let before = a.clone();
        let classes = IrregularClasses::new(&[0.5, 0.5], &[0.2, 0.9]);
        let other_classes = IrregularSketch::with_classes(10, classes, SipKey::default());
        let other_key =
            IrregularSketch::with_classes(10, IrregularClasses::default(), SipKey::new(1, 2));
        for other in [other_classes, other_key] {
            assert!(matches!(
                a.subtract(&other),
                Err(Error::SketchShapeMismatch { .. })
            ));
            assert_eq!(a, before);
        }
        a.subtract(&before).unwrap();
        assert!(a.cells().iter().all(|c| c.is_empty_cell()));
    }

    #[test]
    fn add_then_remove_is_identity() {
        let mut s = Sketch::<Sym>::new(50);
        let baseline = s.clone();
        let x = Sym::from_u64(1234);
        s.add_symbol(&x);
        assert_ne!(s, baseline);
        s.remove_symbol(&x);
        assert_eq!(s, baseline);
    }

    #[test]
    fn empty_difference_decodes_to_empty() {
        let set = syms(0..300);
        let m = 16;
        let sa = Sketch::from_set(m, set.iter());
        let sb = Sketch::from_set(m, set.iter());
        let diff = sa.subtracted(&sb).unwrap().decode().unwrap();
        assert!(diff.is_empty());
    }

    #[test]
    fn cache_prefix_matches_fresh_sketch() {
        // A cache built incrementally (adds + removes) must equal the sketch
        // of the final set built from scratch — the linearity property the
        // Ethereum application relies on.
        let mut cache = SketchCache::<Sym>::new();
        cache.ensure_len(80);
        for i in 0..500u64 {
            cache.add_symbol(Sym::from_u64(i));
        }
        // Mutate: remove 100..150, add 1000..1060.
        for i in 100..150u64 {
            cache.remove_symbol(Sym::from_u64(i));
        }
        for i in 1000..1060u64 {
            cache.add_symbol(Sym::from_u64(i));
        }
        let final_set: Vec<Sym> = (0..100u64)
            .chain(150..500)
            .chain(1000..1060)
            .map(Sym::from_u64)
            .collect();
        let fresh = Sketch::from_set(80, final_set.iter());
        assert_eq!(cache.to_sketch(80), fresh);
    }

    #[test]
    fn cache_extension_matches_fresh_sketch() {
        // Extending after updates must produce the same coded symbols as a
        // fresh encoding of the current set.
        let mut cache = SketchCache::<Sym>::new();
        for i in 0..200u64 {
            cache.add_symbol(Sym::from_u64(i));
        }
        cache.ensure_len(32);
        for i in 200..300u64 {
            cache.add_symbol(Sym::from_u64(i));
        }
        cache.ensure_len(128);
        let fresh = Sketch::from_set(128, syms(0..300).iter());
        assert_eq!(cache.to_sketch(128), fresh);
    }

    #[test]
    fn cancelled_pairs_change_no_cell_and_unmatched_removals_survive() {
        // Mirror every mutation into a plain sketch of the final length:
        // whatever the cache cancelled along the way, the cells it
        // materializes late must equal the ones patched from the start.
        let m = 200;
        let mut mirror = Sketch::<Sym>::new(m);
        let mut cache = SketchCache::<Sym>::new();
        cache.ensure_len(24);
        let stray = Sym::from_u64(u64::MAX);
        cache.remove_symbol(stray); // never added: nothing can cancel it
        mirror.remove_symbol(&stray);
        for round in 0..40u64 {
            for i in 0..50 {
                let item = Sym::from_u64(round * 50 + i);
                cache.add_symbol(item);
                mirror.add_symbol(&item);
            }
            // Remove most of the previous round, re-adding a few of them.
            for i in 0..45 {
                let item = Sym::from_u64(round.saturating_sub(1) * 50 + i);
                if round > 0 {
                    cache.remove_symbol(item);
                    mirror.remove_symbol(&item);
                }
                if round > 0 && i % 9 == 0 {
                    cache.add_symbol(item);
                    mirror.add_symbol(&item);
                }
            }
            cache.ensure_len(24 + 4 * round as usize);
        }
        let (additions, removals) = cache.window_entries();
        assert_eq!(additions as i64 - removals as i64, cache.set_size());
        assert!(removals >= 1, "the stray removal must not be dropped");
        assert!(additions < 600, "{additions} of 2,195 additions kept");
        assert_eq!(cache.to_sketch(m), mirror);
    }

    #[test]
    fn cache_serves_reconciliation_against_a_peer() {
        let mut cache = SketchCache::<Sym>::new();
        for i in 0..2_000u64 {
            cache.add_symbol(Sym::from_u64(i));
        }
        // Peer holds a slightly different set.
        let peer = syms(50..2_050);
        let m = 400;
        let alice_sketch = cache.to_sketch(m);
        let peer_sketch = Sketch::from_set(m, peer.iter());
        let diff = alice_sketch
            .subtracted(&peer_sketch)
            .unwrap()
            .decode()
            .unwrap();
        assert_eq!(to_set(&diff.remote_only), (0..50).collect());
        assert_eq!(to_set(&diff.local_only), (2000..2050).collect());
    }

    #[test]
    fn one_cache_serves_peers_at_different_staleness() {
        // Two peers with different differences read ranges out of the same
        // cache; each subtracts its own contribution and decodes. The cache
        // is never re-encoded per peer (universality, §2).
        let mut cache = SketchCache::<Sym>::new();
        for i in 0..1_000u64 {
            cache.add_symbol(Sym::from_u64(i));
        }
        // Peer 1 misses 5 items; peer 2 misses 40.
        for (peer_items, missing) in [(syms(5..1_000), 0..5u64), (syms(40..1_000), 0..40u64)] {
            let m = 16 * missing.clone().count().max(1);
            let served: Vec<_> = cache.range(0, m).to_vec();
            let own = Sketch::from_set(m, peer_items.iter());
            let mut diff_cells = served;
            for (cell, mine) in diff_cells.iter_mut().zip(own.cells()) {
                cell.subtract(mine);
            }
            let diff = Sketch::from_cells(diff_cells, cache.key(), cache.alpha())
                .decode()
                .unwrap();
            assert_eq!(to_set(&diff.remote_only), missing.collect());
            assert!(diff.local_only.is_empty());
        }
    }

    #[test]
    fn range_windows_agree_with_prefix() {
        let mut cache = SketchCache::<Sym>::new();
        for i in 0..300u64 {
            cache.add_symbol(Sym::from_u64(i));
        }
        let prefix = cache.prefix(100).to_vec();
        let window = cache.range(40, 30).to_vec();
        assert_eq!(window, prefix[40..70]);
        // Ranges past the materialized prefix extend it on demand.
        let tail = cache.range(100, 20).to_vec();
        assert_eq!(cache.len(), 120);
        assert_eq!(tail, cache.cells()[100..120]);
    }

    #[test]
    fn set_size_tracks_adds_and_removes() {
        let mut cache = SketchCache::<Sym>::new();
        assert_eq!(cache.set_size(), 0);
        cache.add_symbol(Sym::from_u64(1));
        cache.add_symbol(Sym::from_u64(2));
        cache.remove_symbol(Sym::from_u64(1));
        assert_eq!(cache.set_size(), 1);
    }
}

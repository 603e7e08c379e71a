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
//! demand. It holds its set in one coding window, one entry per item: a
//! removal walks its item out of the cells and then takes the item's entry
//! out of the window, so only an item the set holds can be removed.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

use riblt_hash::SipKey;

use crate::coded::{CodedSymbol, Direction};
use crate::decoder::SetDifference;
use crate::encoder::CodingWindow;
use crate::error::{Error, Result};
use crate::mapping::{IndexMapping, MappingRule, Uniform, DEFAULT_ALPHA};
use crate::peel::{undecoded, Peeler};
use crate::symbol::{HashedSymbol, Symbol};

/// Applies `item`, whose keyed hash is `hash`, to every one of `cells` its
/// `alpha` mapping reaches and returns the mapping, parked at its first
/// index past them.
fn apply_to_prefix<S: Symbol>(
    cells: &mut [CodedSymbol<S>],
    item: &S,
    hash: u64,
    alpha: f64,
    direction: Direction,
) -> IndexMapping {
    let mut walk = IndexMapping::with_alpha(hash, alpha).walk();
    let m = cells.len() as u64;
    while walk.current_index() < m {
        cells[walk.current_index() as usize].apply_parts(item, hash, direction);
        walk.advance();
    }
    walk.park()
}

/// An empty slot of a [`PositionIndex`].
const VACANT: u32 = u32::MAX;

/// A keyed-hash index of positions into a window: an open-addressed table,
/// probed linearly, of `u32` positions. It keeps no item and no hash of its
/// own: a position's slot comes from the hash the window stores for it, and
/// a lookup compares the window's hash and then its item, so a hit is exact
/// however many hashes collide. Several positions may hold one item.
#[derive(Debug, Clone)]
struct PositionIndex {
    /// Empty, or a power of two long and at most three quarters taken.
    slots: Vec<u32>,
    len: usize,
    /// An odd multiplier drawn for this index: a position's first slot is
    /// the top bits of its hash times this (multiply-shift hashing). Items
    /// come from peers, and whoever knows the checksum key can choose items
    /// whose hashes share their low or high bits; without the multiplier
    /// they cannot aim them at one probe run.
    scatter: u64,
}

impl PositionIndex {
    fn new() -> Self {
        PositionIndex {
            slots: Vec::new(),
            len: 0,
            scatter: RandomState::new().build_hasher().finish() | 1,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The first slot a position of hash `hash` may take.
    fn home(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash.wrapping_mul(self.scatter) >> (u64::BITS - bits)) as usize
    }

    /// Makes room for `additional` more positions; `hashes` are the window's,
    /// from which a grown table re-places the ones it holds.
    fn reserve(&mut self, additional: usize, hashes: &[u64]) {
        let needed = self.len + additional;
        if needed * 4 <= self.slots.len() * 3 {
            return;
        }
        let held = std::mem::replace(
            &mut self.slots,
            vec![VACANT; (needed * 4 / 3 + 1).next_power_of_two()],
        );
        self.len = 0;
        for pos in held.into_iter().filter(|&pos| pos != VACANT) {
            self.insert(pos, hashes[pos as usize]);
        }
    }

    /// Places `pos`, whose hash is `hash`, in the first vacant slot of its
    /// probe run. [`Self::reserve`] must have made room for it.
    fn insert(&mut self, pos: u32, hash: u64) {
        debug_assert!((self.len + 1) * 4 <= self.slots.len() * 3);
        let mask = self.mask();
        let mut slot = self.home(hash);
        while self.slots[slot] != VACANT {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = pos;
        self.len += 1;
    }

    /// The slot of a position of hash `hash` that `is` accepts, if any.
    fn find(&self, hash: u64, mut is: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                VACANT => return None,
                pos if is(pos as usize) => return Some(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Empties `slot` and returns the position it held, shifting back the
    /// rest of its probe run so that no lookup stops short at the hole.
    fn take(&mut self, slot: usize, hashes: &[u64]) -> usize {
        let mask = self.mask();
        let taken = self.slots[slot];
        let mut hole = slot;
        let mut next = (slot + 1) & mask;
        while self.slots[next] != VACANT {
            let pos = self.slots[next];
            let home = self.home(hashes[pos as usize]);
            // It may fill the hole if the hole lies on its way from home.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = pos;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
        taken as usize
    }

    /// Rewrites the slot that holds position `from`, of hash `hash`, to hold
    /// `to`: the window moved that position's entry there.
    fn repoint(&mut self, hash: u64, from: usize, to: usize) {
        let slot = self.find(hash, |pos| pos == from);
        self.slots[slot.expect("the moved position is indexed")] = to as u32;
    }

    /// The positions held, in slot order.
    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .filter(|&&pos| pos != VACANT)
            .map(|&pos| pos as usize)
    }
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
        let hash = symbol.hash_with(self.key);
        let alpha = self.rule.alpha_of(hash);
        apply_to_prefix(&mut self.cells, symbol, hash, alpha, direction);
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
    /// should obtain a longer sketch (more coded symbols) and retry —,
    /// [`Error::CollidingItems`] if it stalls on two items with one keyed
    /// hash, which no longer sketch separates, and
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
            Err(undecoded(&cells))
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
///
/// The cache is also its set: it holds each item once, in its coding
/// window, and a keyed-hash index of positions into that window
/// ([`Self::contains_hashed`], [`Self::members`]) answers membership. An
/// addition ([`Self::add_symbol`], or [`Self::insert_hashed`] unless the set
/// holds the item) walks the item into the materialized cells and pushes its
/// entry, parked past them. [`Self::remove_hashed`] finds the item through
/// the index, walks it out of the cells and takes its entry out of the
/// window, so the window holds one entry per item however long the set
/// churns. An item the set does not hold cannot be removed.
///
/// Extension is cold or warm. The first one (every call that materializes,
/// [`Self::ensure_len`], [`Self::range`], [`Self::prefix`] and
/// [`Self::to_sketch`], goes through [`Self::extend`]) finds no cells and
/// builds the whole ask in one item walk, eight items in flight, AVX-512
/// lanes where the CPU has them and α = 0.5; every later one steps the
/// coding window index by index. Both give the same cells, so a server
/// that asks for its whole first flight at once pays one walk per shard.
/// Until that first walk a cold cache parks no entry (the walk parks them
/// all), so a removal from it walks no chain.
#[derive(Debug, Clone)]
pub struct SketchCache<S: Symbol> {
    cells: Vec<CodedSymbol<S>>,
    /// Every item of the set, positioned past the materialized prefix so
    /// the cache can extend.
    window: CodingWindow<S>,
    /// The positions of `window`, by keyed hash.
    members: PositionIndex,
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
            window: CodingWindow::new(key),
            members: PositionIndex::new(),
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

    /// Number of items in the cached set: its window's entries.
    pub fn set_size(&self) -> usize {
        self.window.len()
    }

    /// The checksum key.
    pub fn key(&self) -> SipKey {
        self.key
    }

    /// The mapping parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Makes room for `additional` more items, exactly: a cache loaded with
    /// a set of known size never copies its window while it fills and holds
    /// no doubling slack afterwards.
    pub fn reserve(&mut self, additional: usize) {
        self.window.reserve(additional);
        self.members.reserve(additional, self.window.hashes());
    }

    /// Adds an item to the cached set, patching the materialized prefix.
    /// An item added twice is held twice, and each removal takes one copy.
    pub fn add_symbol(&mut self, symbol: S) {
        self.add_hashed_symbol(HashedSymbol::new(symbol, self.key));
    }

    /// [`Self::add_symbol`] for an item whose hash under [`Self::key`] the
    /// caller has already computed.
    pub fn add_hashed_symbol(&mut self, hashed: HashedSymbol<S>) {
        let (pos, hash) = (self.window.len() as u32, hashed.hash);
        self.members.reserve(1, self.window.hashes());
        if self.cells.is_empty() {
            self.window.push_unparked(hashed, self.alpha);
        } else {
            let (item, alpha) = (&hashed.symbol, self.alpha);
            let mapping = apply_to_prefix(&mut self.cells, item, hash, alpha, Direction::Add);
            self.window.push_with_mapping(hashed, mapping);
        }
        self.members.insert(pos, hash);
    }

    /// The slot of `members` that holds `item`, whose hash is `hash`.
    fn find(&self, item: &S, hash: u64) -> Option<usize> {
        let (items, hashes) = (self.window.items(), self.window.hashes());
        self.members
            .find(hash, |pos| hashes[pos] == hash && items[pos] == *item)
    }

    /// True if the set holds `item`, whose hash under [`Self::key`] is
    /// `hash`: a lookup in the index, confirmed on the item itself.
    pub fn contains_hashed(&self, item: &S, hash: u64) -> bool {
        self.find(item, hash).is_some()
    }

    /// Adds `hashed` if the set does not hold it yet, and returns whether
    /// it did.
    pub fn insert_hashed(&mut self, hashed: HashedSymbol<S>) -> bool {
        if self.contains_hashed(&hashed.symbol, hashed.hash) {
            return false;
        }
        self.add_hashed_symbol(hashed);
        true
    }

    /// Removes `item`, whose hash under [`Self::key`] is `hash`, if the set
    /// holds it, and returns whether it did: the item is walked out of the
    /// materialized cells, its entry taken out of the window, and the entry
    /// that fills its place re-indexed.
    pub fn remove_hashed(&mut self, item: &S, hash: u64) -> bool {
        let Some(slot) = self.find(item, hash) else {
            return false;
        };
        let pos = self.members.take(slot, self.window.hashes());
        apply_to_prefix(&mut self.cells, item, hash, self.alpha, Direction::Remove);
        if let Some(moved) = self.window.take(pos) {
            self.members.repoint(self.window.hashes()[pos], moved, pos);
        }
        true
    }

    /// The items of the set and their keyed hashes, in no particular order.
    pub fn members(&self) -> impl Iterator<Item = (&S, u64)> + '_ {
        let (items, hashes) = (self.window.items(), self.window.hashes());
        self.members
            .positions()
            .map(move |pos| (&items[pos], hashes[pos]))
    }

    /// Extends the materialized prefix by `extra` coded symbols.
    ///
    /// A cold cache (no cells yet) builds them in one item walk
    /// ([`crate::apply_prefix_logged`]), each item over every index it maps
    /// to below the new length, eight in flight. The walk's park log is
    /// written into the window's own mappings, which are then parked at the
    /// new length. A warm cache extends through its window, index by index:
    /// far from cell 0 an item rarely reaches a short extension, and the
    /// calendar queue skips the rest.
    pub fn extend(&mut self, extra: usize) {
        if self.cells.is_empty() && extra > 0 {
            self.cells = vec![CodedSymbol::default(); extra];
            let rule = Uniform(self.alpha);
            self.window
                .apply_prefix(&mut self.cells, &rule, Direction::Add);
            return;
        }
        for _ in 0..extra {
            let mut cs = CodedSymbol::default();
            self.window.apply_next(&mut cs, Direction::Add);
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

    /// [`SketchCache::remove_hashed`] of `item`, hashed under the cache's key.
    fn remove(cache: &mut SketchCache<Sym>, item: Sym) -> bool {
        cache.remove_hashed(&item, item.hash_with(cache.key()))
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
            assert!(remove(&mut cache, Sym::from_u64(i)));
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

    /// Seeded items no other draw of `gen` repeats (in practice).
    fn random_syms(gen: &mut riblt_hash::SplitMix64, n: usize) -> Vec<Sym> {
        (0..n).map(|_| Sym::from_u64(gen.next_u64())).collect()
    }

    /// The sketch at α of `added` less `removed`, each applied one by one.
    fn rebuild(m: usize, alpha: f64, added: &[Sym], removed: &[Sym]) -> Vec<CodedSymbol<Sym>> {
        let mut sketch = Sketch::with_key_and_alpha(m, SipKey::default(), alpha);
        added.iter().for_each(|item| sketch.add_symbol(item));
        removed.iter().for_each(|item| sketch.remove_symbol(item));
        sketch.cells().to_vec()
    }

    #[test]
    fn a_cold_build_equals_a_rebuild_and_parks_where_the_window_would() {
        // Additions and removals, none materialized: the first extension
        // walks items, over both lane forms (α = 0.5 takes the AVX-512
        // lanes where the CPU has them, α = 0.3 the scalar ones). Later
        // mutations and a longer prefix go through the window, so they read
        // the mappings the walk parked.
        let mut gen = riblt_hash::SplitMix64::new(0xc01d);
        for alpha in [DEFAULT_ALPHA, 0.3] {
            for m in [1usize, 2, 31, 32, 33, 384, 3_000] {
                let at = format!("alpha {alpha}, m {m}");
                let mut added = random_syms(&mut gen, 1_200);
                let mut removed = added[..250].to_vec();
                let mut cache = SketchCache::with_key_and_alpha(SipKey::default(), alpha);
                added.iter().for_each(|&item| cache.add_symbol(item));
                for &item in &removed {
                    assert!(remove(&mut cache, item), "{at}");
                }
                assert_eq!(cache.set_size(), 950, "{at}");
                assert!(cache.is_empty() && cache.window.parked().is_empty());

                assert_eq!(cache.prefix(m), rebuild(m, alpha, &added, &removed), "{at}");
                let more = random_syms(&mut gen, 150);
                more.iter().for_each(|&item| cache.add_symbol(item));
                added.extend(more);
                let gone = [added[300], added[1_000], added[1_250]];
                for item in gone {
                    assert!(remove(&mut cache, item), "{at}");
                }
                removed.extend(gone);
                cache.ensure_len(m + 500);
                let cells = rebuild(m + 500, alpha, &added, &removed);
                assert_eq!(cache.cells(), cells, "{at}, extended");
            }
        }
    }

    #[test]
    fn set_size_tracks_adds_and_removes() {
        let mut cache = SketchCache::<Sym>::new();
        assert_eq!(cache.set_size(), 0);
        cache.add_symbol(Sym::from_u64(1));
        cache.add_symbol(Sym::from_u64(2));
        assert!(remove(&mut cache, Sym::from_u64(1)));
        assert!(!remove(&mut cache, Sym::from_u64(1)));
        assert_eq!(cache.set_size(), 1);
    }

    /// The window holds exactly the live multiset, one entry each, and
    /// parks each entry once, at its mapping's index (a cold cache parks
    /// none); the index finds every held copy; and `prefix(m)` equals a
    /// sketch rebuilt from the multiset.
    fn assert_the_window_is_the_set(cache: &mut SketchCache<Sym>, live: &[Sym], m: usize) {
        let window = &cache.window;
        assert_eq!(window.len(), live.len());
        assert_eq!(cache.set_size(), live.len());
        let mut held = window.items().to_vec();
        let mut expected = live.to_vec();
        held.sort_unstable();
        expected.sort_unstable();
        assert_eq!(held, expected);
        let mut parked = window.parked();
        if cache.is_empty() {
            assert!(parked.is_empty(), "a cold cache parks nothing");
        } else {
            parked.sort_unstable_by_key(|&(_, pos)| pos);
            let positions: Vec<u32> = parked.iter().map(|&(_, pos)| pos).collect();
            assert!(positions.iter().copied().eq(0..live.len() as u32));
            for &(index, pos) in &parked {
                assert_eq!(window.mappings()[pos as usize].current_index(), index);
            }
        }
        let mut members: Vec<Sym> = cache.members().map(|(item, _)| *item).collect();
        members.sort_unstable();
        assert_eq!(members, expected);
        let rebuilt = Sketch::from_set(m, live.iter());
        assert_eq!(cache.prefix(m), rebuilt.cells());
    }

    #[test]
    fn a_churned_cache_holds_one_entry_per_item_and_equals_a_rebuild() {
        // Seeded interleavings of inserts, removals of held items, removals
        // of items never added (refused), a twice-added item removed once,
        // and extensions; on a cold cache, half its items removed before
        // the first extension, and on a warm one.
        for (case, cold) in [(0u64, true), (1, false), (2, true), (3, false)] {
            let mut gen = riblt_hash::SplitMix64::new(0x5eed_c4a7 + case);
            let mut cache = SketchCache::<Sym>::new();
            let mut live = random_syms(&mut gen, 600);
            live.iter().for_each(|&item| cache.add_symbol(item));
            let mut m = 0;
            if cold {
                for _ in 0..300 {
                    let at = (gen.next_u64() % live.len() as u64) as usize;
                    assert!(remove(&mut cache, live.swap_remove(at)));
                    assert_eq!(cache.window.len(), live.len());
                }
                assert_the_window_is_the_set(&mut cache, &live, m);
            }
            m = 24;
            cache.ensure_len(m);
            assert_the_window_is_the_set(&mut cache, &live, m);
            for step in 0..400 {
                match gen.next_u64() % 8 {
                    0..=2 => {
                        let item = random_syms(&mut gen, 1)[0];
                        assert!(cache.insert_hashed(HashedSymbol::new(item, cache.key())));
                        live.push(item);
                    }
                    3 | 4 if !live.is_empty() => {
                        let at = (gen.next_u64() % live.len() as u64) as usize;
                        assert!(remove(&mut cache, live.swap_remove(at)));
                    }
                    5 => {
                        let absent = random_syms(&mut gen, 1)[0];
                        assert!(!remove(&mut cache, absent));
                    }
                    6 if !live.is_empty() => {
                        // A second copy, then one removal: one copy stays.
                        let at = (gen.next_u64() % live.len() as u64) as usize;
                        let twice = live[at];
                        cache.add_symbol(twice);
                        assert!(remove(&mut cache, twice));
                        let hash = twice.hash_with(cache.key());
                        assert!(cache.contains_hashed(&twice, hash));
                    }
                    _ => m += 1 + (gen.next_u64() % 40) as usize,
                }
                assert_eq!(cache.window.len(), live.len(), "case {case}, step {step}");
                if step % 40 == 0 {
                    assert_the_window_is_the_set(&mut cache, &live, m);
                }
            }
            // Both copies of an item added twice are held until both go.
            let twice = live[0];
            cache.add_symbol(twice);
            live.push(twice);
            assert_the_window_is_the_set(&mut cache, &live, m);
            assert!(remove(&mut cache, twice) && remove(&mut cache, twice));
            assert!(!remove(&mut cache, twice));
            live.retain(|&item| item != twice);
            assert_the_window_is_the_set(&mut cache, &live, m + 50);
        }
    }
}

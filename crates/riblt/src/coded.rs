//! Coded symbols (paper §3, "Coded symbol format").
//!
//! A coded symbol is the unit of transmission: the XOR sum of the source
//! symbols mapped to it, the XOR of their keyed checksum hashes, and a signed
//! count. Subtracting two coded symbols (Alice's minus Bob's) yields a coded
//! symbol of the symmetric difference, which is what the peeling decoder
//! operates on.

use crate::symbol::{HashedSymbol, Symbol};

/// Hints the CPU to pull the referenced value toward L1. The coding-window
/// and peeling walks touch cells at mapping-determined (effectively random)
/// indices across working sets that outgrow L2 for large differences;
/// issuing the fetch as soon as the next index is known hides most of the
/// miss latency behind the walk's serial index-sampling chain.
/// `_mm_prefetch` is architecturally a hint — it cannot fault — so the only
/// unsafe part is the intrinsic call itself.
#[inline(always)]
pub(crate) fn prefetch<T>(cell: &T) {
    // SAFETY: a prefetch reads no memory and cannot fault, whatever the
    // address; this one is of a live reference besides, and SSE, which the
    // intrinsic needs, is part of every x86_64 CPU.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            cell as *const T as *const i8,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cell;
}

/// Direction in which a source symbol is applied to a coded symbol.
///
/// `Add` corresponds to symbols from the local/remote set being mixed in;
/// `Remove` corresponds to subtracting a set (or peeling a recovered
/// symbol). For the XOR fields the two are identical; they differ only in
/// the sign applied to `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Mix the symbol in (count += 1).
    Add,
    /// Take the symbol out (count -= 1).
    Remove,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Add => Direction::Remove,
            Direction::Remove => Direction::Add,
        }
    }
}

/// One coded symbol: `{sum, checksum, count}`.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedSymbol<S: Symbol> {
    /// XOR of the source symbols mapped to this coded symbol.
    pub sum: S,
    /// XOR of the keyed hashes of the source symbols mapped here.
    pub checksum: u64,
    /// Signed number of source symbols mapped here (negative counts appear
    /// after subtraction, where Bob's symbols carry weight −1).
    pub count: i64,
}

impl<S: Symbol> Default for CodedSymbol<S> {
    fn default() -> Self {
        CodedSymbol {
            sum: S::default(),
            checksum: 0,
            count: 0,
        }
    }
}

impl<S: Symbol> CodedSymbol<S> {
    /// Creates an empty coded symbol.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a hashed source symbol in the given direction.
    #[inline]
    pub fn apply(&mut self, symbol: &HashedSymbol<S>, direction: Direction) {
        self.apply_parts(&symbol.symbol, symbol.hash, direction);
    }

    /// [`Self::apply`] of `symbol` whose keyed hash is `hash`, for callers
    /// that keep the two apart.
    #[inline]
    pub(crate) fn apply_parts(&mut self, symbol: &S, hash: u64, direction: Direction) {
        self.sum.xor_in_place(symbol);
        self.checksum ^= hash;
        match direction {
            Direction::Add => self.count += 1,
            Direction::Remove => self.count -= 1,
        }
    }

    /// Subtracts another coded symbol (the `⊕` operator of §3 applied
    /// pairwise during `IBLT(A) ⊖ IBLT(B)`).
    #[inline]
    pub fn subtract(&mut self, other: &CodedSymbol<S>) {
        self.sum.xor_in_place(&other.sum);
        self.checksum ^= other.checksum;
        self.count -= other.count;
    }

    /// Adds another coded symbol (used when merging partial encodings, e.g.
    /// sharded encoders or incremental cache maintenance).
    #[inline]
    pub fn add(&mut self, other: &CodedSymbol<S>) {
        self.sum.xor_in_place(&other.sum);
        self.checksum ^= other.checksum;
        self.count += other.count;
    }

    /// True if the cell reads as two distinct symbols that share one keyed
    /// hash: their hashes cancel and their items do not, with one on each
    /// side (count 0) or both on one (count ±2). Such a pair shares every
    /// index, so no cell ever holds either alone and peeling never
    /// separates them. Honest cells read so with probability 2⁻⁶⁴.
    #[inline]
    pub(crate) fn holds_colliding_pair(&self) -> bool {
        self.checksum == 0 && matches!(self.count, -2 | 0 | 2) && !self.sum.is_zero()
    }

    /// True if no symbols remain mixed in (all three fields neutral).
    #[inline]
    pub fn is_empty_cell(&self) -> bool {
        self.count == 0 && self.checksum == 0 && self.sum.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::FixedBytes;
    use riblt_hash::SipKey;

    type Sym = FixedBytes<8>;

    fn hs(v: u64, key: SipKey) -> HashedSymbol<Sym> {
        HashedSymbol::new(Sym::from_u64(v), key)
    }

    #[test]
    fn apply_then_remove_restores_empty() {
        let key = SipKey::default();
        let mut c = CodedSymbol::<Sym>::new();
        let s = hs(77, key);
        c.apply(&s, Direction::Add);
        assert!(!c.is_empty_cell());
        c.apply(&s, Direction::Remove);
        assert!(c.is_empty_cell());
    }

    #[test]
    fn two_symbols_are_mixed_even_if_count_is_one() {
        // 2 adds + 1 remove gives count = 1 but the checksum will not match
        // the hash of the XOR sum (except with negligible probability).
        let key = SipKey::default();
        let mut c = CodedSymbol::<Sym>::new();
        c.apply(&hs(1, key), Direction::Add);
        c.apply(&hs(2, key), Direction::Add);
        c.apply(&hs(3, key), Direction::Remove);
        assert_eq!(c.count, 1);
        assert_ne!(c.sum.hash_with(key), c.checksum);
    }

    #[test]
    fn subtraction_implements_symmetric_difference() {
        // Shared symbols cancel; exclusive symbols remain with signed counts.
        let key = SipKey::default();
        let shared = hs(10, key);
        let only_a = hs(20, key);
        let only_b = hs(30, key);

        let mut a = CodedSymbol::<Sym>::new();
        a.apply(&shared, Direction::Add);
        a.apply(&only_a, Direction::Add);

        let mut b = CodedSymbol::<Sym>::new();
        b.apply(&shared, Direction::Add);
        b.apply(&only_b, Direction::Add);

        a.subtract(&b);
        assert_eq!(a.count, 0); // +1 (only_a) − 1 (only_b)
                                // Removing only_b and only_a should empty the cell.
        a.apply(&only_b, Direction::Add);
        a.apply(&only_a, Direction::Remove);
        assert!(a.is_empty_cell());
    }

    #[test]
    fn add_and_subtract_are_inverses() {
        let key = SipKey::default();
        let mut x = CodedSymbol::<Sym>::new();
        x.apply(&hs(5, key), Direction::Add);
        x.apply(&hs(6, key), Direction::Add);
        let snapshot = x.clone();
        let mut y = CodedSymbol::<Sym>::new();
        y.apply(&hs(9, key), Direction::Add);
        x.add(&y);
        x.subtract(&y);
        assert_eq!(x, snapshot);
    }
}

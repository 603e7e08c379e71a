//! The peeling engine: the one loop that recovers difference symbols from
//! pure cells and takes them out of every other cell they are mapped to.
//!
//! It peels a slice of difference cells it does not own, under whatever
//! [`MappingRule`] the cells were coded with, and hands each recovered symbol
//! to a sink. The streaming [`crate::Decoder`] runs it after every cell it
//! appends and sinks into its recovered-symbol windows; [`crate::Sketch`]
//! seeds it with every cell of a fixed sketch and runs it once. Peeling is
//! confluent, so both reach the same fixpoint over the same cells.
//!
//! The engine also owns the consistency bound (see [`Peeler::peel`]): cells
//! that are not a prefix of one difference's sequence can hand a symbol back
//! and forth for ever, and this is the one place that stops them.

use riblt_hash::SipKey;

use crate::coded::{prefetch, CodedSymbol, Direction};
use crate::error::Error;
use crate::mapping::{BlockWalk, IndexMapping, MappingRule};
use crate::symbol::{HashedSymbol, Symbol};

/// Number of pure symbols peeled and propagated jointly per round of
/// [`Peeler::peel`]. Each symbol's propagation walk is one long serial
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

/// Why peeling `cells` stopped short of decoding:
/// [`Error::CollidingItems`] if one of them holds two items with one keyed
/// hash, which no further cell separates, else [`Error::DecodeIncomplete`].
pub(crate) fn undecoded<S: Symbol>(cells: &[CodedSymbol<S>]) -> Error {
    if cells.iter().any(CodedSymbol::holds_colliding_pair) {
        Error::CollidingItems
    } else {
        Error::DecodeIncomplete
    }
}

/// Candidate queue and scratch of the peeling loop, kept in lockstep with a
/// cell array the caller owns: one [`Self::push_cell`] per cell, in order.
#[derive(Debug, Clone)]
pub(crate) struct Peeler<S: Symbol> {
    /// Whether each cell currently has a pending entry in `pure_queue`.
    ///
    /// Purity is verified *lazily*: a cell becomes a peel candidate the
    /// moment a mutation leaves `count == ±1` (a register compare — no
    /// hashing), and the SipHash purity check runs once when the candidate
    /// is popped. Cells whose count moved away from ±1 while queued are
    /// discarded unhashed, so transiently-pure cells in the peeling
    /// avalanche never cost a hash. The flag dedupes queue entries: a cell
    /// is re-queued only after its pending entry has been popped.
    queued: Vec<bool>,
    /// Indices of cells that may currently be pure.
    pure_queue: Vec<usize>,
    /// Keyed hashes of the symbols recovered so far: their number is the
    /// consistency bound's, and cell 0's one candidate is checked against
    /// them (see [`Self::peel`]).
    recovered: Vec<u64>,
    /// Whether cell 0 has been peeled, or refused, already.
    cell_0_spent: bool,
    /// Scratch for [`Self::peel`]'s batched propagation: verified pure
    /// symbols (with side and source cell) and their mappings in walking
    /// form, the one place a symbol steps through many indices in a row.
    /// Kept here so the peel loop never allocates in steady state.
    batch: Vec<(HashedSymbol<S>, bool, usize)>,
    batch_walks: Vec<BlockWalk>,
    /// Scratch for one propagation wave: `(lane, cell index)` pairs
    /// generated ahead of application (see [`Self::recover_batch`]).
    pending: Vec<(usize, usize)>,
}

impl<S: Symbol> Peeler<S> {
    pub(crate) fn new() -> Self {
        Peeler {
            queued: Vec::new(),
            pure_queue: Vec::new(),
            recovered: Vec::new(),
            cell_0_spent: false,
            batch: Vec::new(),
            batch_walks: Vec::new(),
            pending: Vec::with_capacity(PEEL_LANES * WAVE_STEPS),
        }
    }

    /// Makes room for `cells` more cells carrying `difference` more symbols.
    pub(crate) fn reserve(&mut self, cells: usize, difference: usize) {
        self.queued.reserve(cells);
        self.pure_queue.reserve(difference);
        self.recovered.reserve(difference);
    }

    /// Registers the next cell of the caller's array, queueing it if its
    /// count makes it a candidate.
    #[inline]
    pub(crate) fn push_cell(&mut self, cell: &CodedSymbol<S>) {
        let candidate = cell.count == 1 || cell.count == -1;
        if candidate {
            self.pure_queue.push(self.queued.len());
        }
        self.queued.push(candidate);
    }

    /// Runs the peeling loop over `cells` (one per [`Self::push_cell`] so
    /// far) until no pure cells remain, handing every recovered symbol to
    /// `sink` with its side (`true` = remote-only) and its mapping, parked
    /// at its first index past `cells`. Returns `false` if the cells are not
    /// consistent.
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
    ///
    /// Consistency: every recovery empties one pure cell for good, so a
    /// prefix of one difference's sequence never yields more symbols than it
    /// has cells. A splice of two sequences can recover the same symbol from
    /// either side for ever; the loop stops, for good, when the count says
    /// so.
    ///
    /// Cell 0, which every symbol maps to, yields at most one candidate, and
    /// none whose hash was recovered already: a symbol cannot be in the
    /// difference twice, and a difference crafted to cancel in cell 0 would
    /// otherwise make it hand back the first symbol recovered elsewhere.
    pub(crate) fn peel<R: MappingRule>(
        &mut self,
        cells: &mut [CodedSymbol<S>],
        key: SipKey,
        rule: &R,
        mut sink: impl FnMut(HashedSymbol<S>, bool, IndexMapping),
    ) -> bool {
        debug_assert_eq!(cells.len(), self.queued.len());
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
                let cell = &cells[idx];
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
                if cell.sum.hash_with(key) != hash {
                    // count == ±1 but several symbols are mixed in (§3).
                    continue;
                }
                if idx == 0 {
                    // Every symbol maps to cell 0, so on an honest stream it
                    // is pure only while it holds the last symbol left, once.
                    // A difference that cancels there leaves it holding the
                    // negation of the first symbol recovered elsewhere, which
                    // would be traded back and forth until the bound below.
                    // So cell 0 is peeled at most once, and only for a symbol
                    // not recovered before: the scan runs once per peeler.
                    if std::mem::replace(&mut self.cell_0_spent, true)
                        || self.recovered.contains(&hash)
                    {
                        continue;
                    }
                }
                // A pure cell holds exactly its one symbol: sum is the
                // symbol, checksum is its hash. Peeling empties the cell,
                // so settle it by moving the fields out; the propagation
                // walk skips it below.
                let symbol = std::mem::take(&mut cells[idx].sum);
                cells[idx].checksum = 0;
                cells[idx].count = 0;
                batch.push((HashedSymbol::with_hash(symbol, hash), is_remote, idx));
            }
            if batch.is_empty() {
                // The inner loop only stops short of a full batch when the
                // queue is drained, so peeling is complete.
                self.batch = batch;
                return true;
            }
            self.recovered
                .extend(batch.iter().map(|(hashed, _, _)| hashed.hash));
            if self.recovered.len() > cells.len() {
                self.pure_queue.clear();
                batch.clear();
                self.batch = batch;
                return false;
            }
            self.recover_batch(cells, rule, &batch);
            for ((hashed, is_remote, _), walk) in batch.drain(..).zip(self.batch_walks.drain(..)) {
                sink(hashed, is_remote, walk.park());
            }
            self.batch = batch;
        }
    }

    /// Phase 2 of [`Self::peel`]: removes each freshly recovered symbol from
    /// every cell it is mapped to (except its own source cell, already
    /// settled) and queues any cells that became candidates. Leaves the
    /// walks, each past the last cell, in `batch_walks`.
    ///
    /// Each wave first *generates* up to [`WAVE_STEPS`] mapped indices
    /// per lane — interleaved one step per lane so the serial index-sampling
    /// chains overlap — prefetching each target cell as its index appears,
    /// and only then *applies* the wave's touches. Deferring the touches is
    /// sound: XOR and count updates commute, per-lane application order is
    /// preserved, and a cell left at count ±1 by the fixpoint is always
    /// queued by whichever mutation put it there (reordering can only add
    /// spurious candidates, which the pop-time purity check discards).
    fn recover_batch<R: MappingRule>(
        &mut self,
        cells: &mut [CodedSymbol<S>],
        rule: &R,
        batch: &[(HashedSymbol<S>, bool, usize)],
    ) {
        let received = cells.len() as u64;
        let mut walks = std::mem::take(&mut self.batch_walks);
        walks.clear();
        for (hashed, _, _) in batch {
            walks.push(IndexMapping::with_alpha(hashed.hash, rule.alpha_of(hashed.hash)).walk());
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
                for (lane, walk) in walks.iter_mut().enumerate() {
                    if done[lane] {
                        continue;
                    }
                    let idx = walk.current_index();
                    if idx >= received {
                        done[lane] = true;
                        live -= 1;
                        continue;
                    }
                    walk.advance();
                    let idx = idx as usize;
                    prefetch(&cells[idx]);
                    pending.push((lane, idx));
                }
            }
            for &(lane, idx) in &pending {
                let (hashed, is_remote, source_idx) = &batch[lane];
                if idx == *source_idx {
                    continue;
                }
                let cell = &mut cells[idx];
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
        self.batch_walks = walks;
    }
}

//! A cluster member: one item set, hash-partitioned into shards, each shard
//! backed by a long-lived incrementally-maintained [`SketchCache`].
//!
//! The cache-per-shard layout is the paper's §2/§7.3 deployment story taken
//! to a cluster: coded symbols are computed **once** when the set changes
//! (each update patches O(log m) cells of one shard's cache) and the same
//! cells serve *every* peer at *any* staleness — serving a session is a pure
//! read of a cell range plus wire encoding, never a re-encode. Beside the
//! caches it keeps the [`CountSketch`] of its whole set, one count moved per
//! mutation, against which a client's sketched wildcard open estimates the
//! difference before the first flight.

use std::collections::BTreeSet;

use reconcile_core::{CountSketch, ShardId, ShardPartitioner};
use riblt::{CodedSymbol, HashedSymbol, SketchCache, Symbol};
use riblt_hash::SipKey;

/// Static configuration shared by every member of a cluster.
///
/// **All members must use the same `key` and `shards`**: the keyed hash
/// drives both the shard partition and the coded-symbol checksums/mappings,
/// so nodes configured with different keys cannot reconcile (their caches
/// describe incompatible codes and their partitions disagree). Distribute
/// the key out of band, exactly like the `SipKey` of a two-party session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Number of keyspace shards (S).
    pub shards: u16,
    /// Cluster-wide keyed-hash key.
    pub key: SipKey,
    /// Length in bytes of every item.
    pub symbol_len: usize,
}

impl NodeConfig {
    /// Configuration with the default key.
    pub fn new(shards: u16, symbol_len: usize) -> Self {
        NodeConfig {
            shards,
            key: SipKey::default(),
            symbol_len,
        }
    }
}

/// Order-independent digest of an item set under a cluster key, for cheap
/// convergence checks (equal sets ⇒ equal digests; the converse holds up to
/// hash collisions — verify exactly where it matters).
///
/// This is the digest [`Node::digest`] reports and the `reconciled` admin
/// socket's `STATS` line carries, so any process holding the same items and
/// key — a cluster node, the daemon, a remote client after a sync — computes
/// the same value.
pub fn set_digest<'a, S, I>(items: I, key: SipKey) -> u64
where
    S: Symbol + 'a,
    I: IntoIterator<Item = &'a S>,
{
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    let mut len = 0u64;
    for item in items {
        acc ^= item.hash_with(key);
        len += 1;
    }
    acc ^ len
}

/// One cluster node: an item set plus one shared sketch cache per shard.
#[derive(Debug, Clone)]
pub struct Node<S: Symbol + Ord> {
    id: usize,
    config: NodeConfig,
    partitioner: ShardPartitioner,
    items: BTreeSet<S>,
    caches: Vec<SketchCache<S>>,
    shard_sizes: Vec<usize>,
    counts: CountSketch,
}

impl<S: Symbol + Ord> Node<S> {
    /// Creates an empty node.
    pub fn new(id: usize, config: NodeConfig) -> Self {
        let caches = (0..config.shards)
            .map(|_| SketchCache::with_key(config.key))
            .collect();
        Node {
            id,
            partitioner: ShardPartitioner::new(config.key, config.shards),
            items: BTreeSet::new(),
            caches,
            shard_sizes: vec![0; usize::from(config.shards)],
            counts: CountSketch::new(),
            config,
        }
    }

    /// The node's cluster-wide identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's configuration.
    pub fn config(&self) -> NodeConfig {
        self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.config.shards
    }

    /// Number of items currently in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the node holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of items in `shard`.
    pub fn shard_len(&self, shard: ShardId) -> usize {
        self.shard_sizes[usize::from(shard)]
    }

    /// The shard `item` maps to.
    pub fn shard_of(&self, item: &S) -> ShardId {
        self.partitioner.shard_of(item)
    }

    /// True if the set contains `item`.
    pub fn contains(&self, item: &S) -> bool {
        self.items.contains(item)
    }

    /// Iterates over the items in order.
    pub fn items(&self) -> impl Iterator<Item = &S> {
        self.items.iter()
    }

    /// Adds `item`; returns false (and does nothing) if already present.
    ///
    /// Patches only the O(log m) materialized cells of the item's shard
    /// cache — this is the incremental maintenance every peer's future
    /// sessions share.
    pub fn insert(&mut self, item: S) -> bool {
        if !self.items.insert(item.clone()) {
            return false;
        }
        // One keyed hash serves as shard selector and as checksum.
        let hashed = HashedSymbol::new(item, self.config.key);
        let shard = usize::from(self.partitioner.shard_of_hash(hashed.hash));
        self.counts.insert(hashed.hash);
        self.caches[shard].add_hashed_symbol(hashed);
        self.shard_sizes[shard] += 1;
        true
    }

    /// Adds every item of `items` the set does not hold yet and returns how
    /// many that was: [`Self::insert`] for a whole load at once, leaving the
    /// same set and the same cells. The load is sorted and built into the
    /// ordered set in bulk instead of descending the tree once per item, and
    /// hashed several items at a time ([`Symbol::hash_many_with`]); about
    /// half the time of the inserts on a 20,000-item initial set.
    pub fn extend(&mut self, items: impl IntoIterator<Item = S>) -> usize {
        let mut fresh: Vec<S> = items.into_iter().collect();
        fresh.sort_unstable();
        fresh.dedup();
        fresh.retain(|item| !self.items.contains(item));
        let hashes = S::hash_many_with(&fresh, self.config.key);
        for (item, hash) in fresh.iter().zip(hashes) {
            let shard = usize::from(self.partitioner.shard_of_hash(hash));
            self.counts.insert(hash);
            self.caches[shard].add_hashed_symbol(HashedSymbol::with_hash(item.clone(), hash));
            self.shard_sizes[shard] += 1;
        }
        let added = fresh.len();
        self.items.append(&mut BTreeSet::from_iter(fresh));
        added
    }

    /// Removes `item`; returns false (and does nothing) if absent.
    pub fn remove(&mut self, item: &S) -> bool {
        if !self.items.remove(item) {
            return false;
        }
        let hashed = HashedSymbol::new(item.clone(), self.config.key);
        let shard = usize::from(self.partitioner.shard_of_hash(hashed.hash));
        self.counts.remove(hashed.hash);
        self.caches[shard].remove_hashed_symbol(hashed);
        self.shard_sizes[shard] -= 1;
        true
    }

    /// Serves the coded symbols `[start, start + len)` of `shard` straight
    /// from the shared cache (materializing further cells on demand). Every
    /// concurrent session reads the same cells.
    pub fn shard_cells(&mut self, shard: ShardId, start: usize, len: usize) -> &[CodedSymbol<S>] {
        self.caches[usize::from(shard)].range(start, len)
    }

    /// The count sketch of the whole set ([`reconcile_core::first_flight`]).
    pub fn count_sketch(&self) -> &CountSketch {
        &self.counts
    }

    /// Window entries the shard caches hold for additions and for removals,
    /// summed over shards (see [`SketchCache::window_entries`]): the node's
    /// memory per mutation, as opposed to per item.
    pub fn cache_window_entries(&self) -> (usize, usize) {
        self.caches
            .iter()
            .map(SketchCache::window_entries)
            .fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr))
    }

    /// Order-independent digest of the item set (see [`set_digest`]), for
    /// cheap convergence checks across a cluster.
    pub fn digest(&self) -> u64 {
        set_digest(self.items.iter(), self.config.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riblt::{FixedBytes, Sketch};

    type Item = FixedBytes<8>;

    fn node_with(id: usize, items: impl IntoIterator<Item = u64>) -> Node<Item> {
        let mut node = Node::new(id, NodeConfig::new(8, 8));
        for i in items {
            node.insert(Item::from_u64(i));
        }
        node
    }

    #[test]
    fn insert_and_remove_keep_caches_consistent_with_a_rebuild() {
        let mut node = node_with(0, 0..500);
        for i in 100..160 {
            node.remove(&Item::from_u64(i));
        }
        for i in 1_000..1_050 {
            node.insert(Item::from_u64(i));
        }
        assert_caches_match_a_rebuild(&mut node, 64);
    }

    /// Each shard cache equals the from-scratch sketch of the shard's
    /// membership, over the first `m` cells, and the count sketch the one of
    /// the whole set.
    fn assert_caches_match_a_rebuild(node: &mut Node<Item>, m: usize) {
        let key = node.config().key;
        let hashes: Vec<u64> = node.items().map(|item| item.hash_with(key)).collect();
        assert_eq!(node.count_sketch(), &CountSketch::from_hashes(&hashes));
        for shard in 0..node.shards() {
            let mut fresh = Sketch::with_key(m, node.config().key);
            for item in node.items().filter(|i| node.shard_of(i) == shard) {
                fresh.add_symbol(item);
            }
            assert_eq!(node.shard_cells(shard, 0, m), fresh.cells());
        }
    }

    #[test]
    fn churn_at_constant_size_keeps_the_cache_windows_bounded() {
        // 1,000 bursts of 256 inserts + 256 removes: before matched pairs
        // were cancelled this kept 512,000 window entries (140 B each then,
        // 68 B now).
        let live = 2_000u64;
        let mut node = node_with(0, 0..live);
        node.shard_cells(0, 0, 64); // some shards serve while they churn
        node.shard_cells(5, 0, 256);
        let mut next = live;
        for burst in 0..1_000u64 {
            for i in 0..256 {
                assert!(node.insert(Item::from_u64(next + i)));
            }
            for i in 0..256 {
                assert!(node.remove(&Item::from_u64(next - live + i)));
            }
            next += 256;
            if burst % 100 == 0 {
                node.shard_cells((burst / 100) as u16 % 8, 0, 96);
            }
        }
        assert_eq!(node.len() as u64, live);
        let (additions, removals) = node.cache_window_entries();
        let bound = node.len() * 3 / 2;
        assert!(additions <= bound, "{additions} additions for {live} items");
        assert!(removals <= bound, "{removals} removals for {live} items");
        // Cells materialized before, during and after the churn.
        assert_caches_match_a_rebuild(&mut node, 320);
    }

    #[test]
    fn duplicate_insert_and_missing_remove_are_noops() {
        let mut node = node_with(0, 0..10);
        let before: Vec<_> = node.shard_cells(0, 0, 16).to_vec();
        assert!(!node.insert(Item::from_u64(5)));
        assert!(!node.remove(&Item::from_u64(99)));
        assert_eq!(node.len(), 10);
        assert_eq!(node.shard_cells(0, 0, 16), before);
    }

    #[test]
    fn extend_is_insert_for_a_whole_load() {
        // Unsorted, with repeats, onto a node that holds some of it already
        // and has cells materialized.
        let load: Vec<u64> = (0..3_000u64).map(|i| (i * 7_919) % 2_500).collect();
        let mut one_by_one = node_with(0, 2_400..2_600);
        let mut bulk = one_by_one.clone();
        one_by_one.shard_cells(3, 0, 64);
        bulk.shard_cells(3, 0, 64);

        let inserted = load
            .iter()
            .filter(|&&i| one_by_one.insert(Item::from_u64(i)))
            .count();
        assert_eq!(
            bulk.extend(load.iter().map(|&i| Item::from_u64(i))),
            inserted
        );
        assert_eq!(inserted, 2_400);

        assert!(bulk.items().eq(one_by_one.items()));
        assert_eq!(bulk.digest(), one_by_one.digest());
        assert_eq!(bulk.count_sketch(), one_by_one.count_sketch());
        for shard in 0..bulk.shards() {
            assert_eq!(bulk.shard_len(shard), one_by_one.shard_len(shard));
            assert_eq!(
                bulk.shard_cells(shard, 0, 96),
                one_by_one.shard_cells(shard, 0, 96)
            );
        }
        assert_caches_match_a_rebuild(&mut bulk, 96);
        // Nothing new: nothing happens.
        assert_eq!(bulk.extend(load.iter().map(|&i| Item::from_u64(i))), 0);
        assert_eq!(bulk.len(), one_by_one.len());
    }

    #[test]
    fn shard_sizes_sum_to_len() {
        let node = node_with(0, 0..1_000);
        let total: usize = (0..node.shards()).map(|s| node.shard_len(s)).sum();
        assert_eq!(total, node.len());
    }

    #[test]
    fn digest_is_order_independent_and_tracks_content() {
        let a = node_with(0, 0..100);
        let mut b = Node::new(1, NodeConfig::new(8, 8));
        for i in (0..100u64).rev() {
            b.insert(Item::from_u64(i));
        }
        assert_eq!(a.digest(), b.digest());
        b.insert(Item::from_u64(100));
        assert_ne!(a.digest(), b.digest());
    }
}

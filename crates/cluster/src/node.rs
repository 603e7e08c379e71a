//! A cluster member: one item set, hash-partitioned into shards, each shard
//! backed by a long-lived incrementally-maintained [`SketchCache`].
//!
//! The shard caches are the set: each item is held once, in its shard
//! cache's window, whose index of positions answers membership. A removal
//! walks the item out of its shard's cells and takes its window entry out,
//! so a node holds one entry per live item however long it churns, and no
//! write runs a pass over a shard. Nothing keeps the set in order;
//! [`Node::items`] sorts when asked.
//!
//! The cache-per-shard layout is the paper's §2/§7.3 deployment story taken
//! to a cluster: coded symbols are computed **once** when the set changes
//! (each update patches O(log m) cells of one shard's cache) and the same
//! cells serve *every* peer at *any* staleness — serving a session is a pure
//! read of a cell range plus wire encoding, never a re-encode. Beside the
//! caches it keeps the [`CountSketch`] of its whole set, one count moved per
//! mutation, against which a client's sketched wildcard open estimates the
//! difference before the first flight.
//!
//! The node also keeps the wire encoding of its cells: each shard holds the
//! tiles encoded in its current generation, which every change to its items
//! moves, and [`Node::serve_tile`] shares them with every peer. Every server
//! reads tiles this way: the daemon's TCP and UDP halves and the pair
//! exchange. A TCP range is read whole ([`Node::serve_tiles`]), so a shard
//! whose cache is cold builds the range's cells in one item walk.

use std::collections::HashMap;
use std::sync::Arc;

use reconcile_core::{CountSketch, ShardId, ShardPartitioner};
use riblt::wire::SymbolCodec;
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
    digest_of_hashes(items.into_iter().map(|item| item.hash_with(key)))
}

/// [`set_digest`] of the items whose keyed hashes are `hashes`.
fn digest_of_hashes(hashes: impl Iterator<Item = u64>) -> u64 {
    let (acc, len) = hashes.fold((0x9e37_79b9_7f4a_7c15u64, 0u64), |(acc, len), hash| {
        (acc ^ hash, len + 1)
    });
    acc ^ len
}

/// Bound on the encoded tiles a node keeps over all its shards; crossing it
/// drops them all (serving encodes them again), which keeps the worst case
/// small without an eviction policy on the serve path.
const MAX_TILES: usize = 4096;

/// One shard of a [`Node`]: its cache (which holds its items and their
/// cells), its generation and the tiles encoded in that generation.
#[derive(Debug, Clone)]
struct Shard<S: Symbol> {
    cache: SketchCache<S>,
    /// Changes to the shard's items so far.
    generation: u64,
    /// Encoded tiles of the current generation, keyed by `(start, len)`:
    /// TCP tiles and UDP datagrams cover the same offsets with different
    /// lengths.
    tiles: HashMap<(usize, usize), Arc<[u8]>>,
}

impl<S: Symbol> Shard<S> {
    /// Applies `change` to the cache and returns whether it changed the
    /// shard's items: if so, a new generation, in which no tile of the old
    /// one is valid.
    fn change(&mut self, change: impl FnOnce(&mut SketchCache<S>) -> bool) -> bool {
        let changed = change(&mut self.cache);
        if changed {
            self.generation += 1;
            self.tiles.clear();
        }
        changed
    }
}

/// One cluster node: an item set held, per shard, in a shared sketch cache,
/// and the tiles encoded from it.
#[derive(Debug, Clone)]
pub struct Node<S: Symbol + Ord> {
    id: usize,
    config: NodeConfig,
    partitioner: ShardPartitioner,
    shards: Vec<Shard<S>>,
    counts: CountSketch,
}

impl<S: Symbol + Ord> Node<S> {
    /// Creates an empty node.
    pub fn new(id: usize, config: NodeConfig) -> Self {
        let shards = (0..config.shards)
            .map(|_| Shard {
                cache: SketchCache::with_key(config.key),
                generation: 0,
                tiles: HashMap::new(),
            })
            .collect();
        Node {
            id,
            partitioner: ShardPartitioner::new(config.key, config.shards),
            shards,
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
        (0..self.shards()).map(|shard| self.shard_len(shard)).sum()
    }

    /// True if the node holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items in `shard`.
    pub fn shard_len(&self, shard: ShardId) -> usize {
        self.shards[usize::from(shard)].cache.set_size()
    }

    /// How many times `shard`'s items have changed: every item an
    /// [`Self::insert`], [`Self::remove`] or [`Self::extend`] adds to it or
    /// takes from it moves it by one, and drops the shard's encoded tiles.
    pub fn shard_generation(&self, shard: ShardId) -> u64 {
        self.shards[usize::from(shard)].generation
    }

    /// The shard `item` maps to.
    pub fn shard_of(&self, item: &S) -> ShardId {
        self.partitioner.shard_of(item)
    }

    /// `item`'s keyed hash, and the index of its shard: one hash serves as
    /// shard selector, index key and checksum.
    fn place(&self, item: &S) -> (u64, usize) {
        let hash = item.hash_with(self.config.key);
        (hash, usize::from(self.partitioner.shard_of_hash(hash)))
    }

    /// True if the set contains `item`.
    pub fn contains(&self, item: &S) -> bool {
        let (hash, shard) = self.place(item);
        self.shards[shard].cache.contains_hashed(item, hash)
    }

    /// Iterates over the items in order: they are gathered from the shard
    /// caches and sorted on every call.
    pub fn items(&self) -> impl Iterator<Item = &S> {
        let mut items: Vec<&S> = self
            .shards
            .iter()
            .flat_map(|shard| shard.cache.members().map(|(item, _)| item))
            .collect();
        items.sort_unstable();
        items.into_iter()
    }

    /// Adds `item`; returns false (and does nothing) if already present.
    ///
    /// Patches only the O(log m) materialized cells of the item's shard
    /// cache — this is the incremental maintenance every peer's future
    /// sessions share.
    pub fn insert(&mut self, item: S) -> bool {
        let (hash, shard) = self.place(&item);
        let hashed = HashedSymbol::with_hash(item, hash);
        if !self.shards[shard].change(|cache| cache.insert_hashed(hashed)) {
            return false;
        }
        self.counts.insert(hash);
        true
    }

    /// Adds every item of `items` the set does not hold yet and returns how
    /// many that was: [`Self::insert`] for a whole load at once, leaving the
    /// same set and the same cells. The load is hashed several items at a
    /// time ([`Symbol::hash_many_with`]), each shard's window grows once, to
    /// its share, and each item is then looked up in its shard's index and
    /// added unless held, repeats within the load included; nothing sorts.
    pub fn extend(&mut self, items: impl IntoIterator<Item = S>) -> usize {
        let load: Vec<S> = items.into_iter().collect();
        let hashes = S::hash_many_with(&load, self.config.key);
        let shard_of = |hash| usize::from(self.partitioner.shard_of_hash(hash));
        let mut loads = vec![0; self.shards.len()];
        for (item, &hash) in load.iter().zip(&hashes) {
            let shard = shard_of(hash);
            if !self.shards[shard].cache.contains_hashed(item, hash) {
                loads[shard] += 1;
            }
        }
        for (shard, load) in self.shards.iter_mut().zip(loads) {
            shard.cache.reserve(load);
        }
        let mut added = 0;
        for (item, hash) in load.into_iter().zip(hashes) {
            let hashed = HashedSymbol::with_hash(item, hash);
            if self.shards[shard_of(hash)].change(|cache| cache.insert_hashed(hashed)) {
                self.counts.insert(hash);
                added += 1;
            }
        }
        added
    }

    /// Removes `item`; returns false (and does nothing) if absent.
    ///
    /// Walks the item out of the O(log m) materialized cells of its shard
    /// cache and takes its entry out of the cache's window.
    pub fn remove(&mut self, item: &S) -> bool {
        let (hash, shard) = self.place(item);
        if !self.shards[shard].change(|cache| cache.remove_hashed(item, hash)) {
            return false;
        }
        self.counts.remove(hash);
        true
    }

    /// Serves the coded symbols `[start, start + len)` of `shard` straight
    /// from the shared cache (materializing further cells on demand). Every
    /// concurrent session reads the same cells.
    pub fn shard_cells(&mut self, shard: ShardId, start: usize, len: usize) -> &[CodedSymbol<S>] {
        self.shards[usize::from(shard)].cache.range(start, len)
    }

    /// The coded symbols `[start, start + len)` of `shard` in the §6 wire
    /// codec ([`SymbolCodec`], sized for the shard's set): the payload a
    /// peer is sent for that range of the shard's stream.
    pub fn encode_tile(&mut self, shard: ShardId, start: usize, len: usize) -> Vec<u8> {
        let set_size = self.shard_len(shard) as u64;
        let codec = SymbolCodec::with_alpha(self.config.symbol_len, set_size, riblt::DEFAULT_ALPHA);
        codec.encode_batch(self.shard_cells(shard, start, len), start as u64)
    }

    /// [`Self::encode_tile`], encoded once per generation of the shard and
    /// shared by every peer it is served to, and whether it was cached
    /// (a cached tile is a map lookup and allocates nothing). At most 4,096
    /// tiles are kept over all shards; the one that would cross the bound
    /// drops the others first.
    pub fn serve_tile(&mut self, shard: ShardId, start: usize, len: usize) -> (Arc<[u8]>, bool) {
        let index = usize::from(shard);
        if let Some(tile) = self.shards[index].tiles.get(&(start, len)) {
            return (Arc::clone(tile), true);
        }
        let tile: Arc<[u8]> = self.encode_tile(shard, start, len).into();
        if self.shards.iter().map(|s| s.tiles.len()).sum::<usize>() >= MAX_TILES {
            self.shards.iter_mut().for_each(|s| s.tiles.clear());
        }
        self.shards[index]
            .tiles
            .insert((start, len), Arc::clone(&tile));
        (tile, false)
    }

    /// [`Self::serve_tile`] for the `count` tiles of `tile` symbols that
    /// cover `shard`'s stream from `offset`, in order: the cells of the
    /// whole range are materialized first, so a shard with none yet builds
    /// them in one item walk ([`SketchCache::extend`]), and then each tile
    /// is taken from the cache or encoded.
    pub fn serve_tiles(
        &mut self,
        shard: ShardId,
        offset: usize,
        count: usize,
        tile: usize,
    ) -> Vec<(Arc<[u8]>, bool)> {
        let cache = &mut self.shards[usize::from(shard)].cache;
        cache.ensure_len(offset + count * tile);
        (0..count)
            .map(|k| self.serve_tile(shard, offset + k * tile, tile))
            .collect()
    }

    /// Coded symbols of `shard`'s stream materialized so far: what its
    /// cache has built, for every peer it has served.
    pub fn shard_cells_built(&self, shard: ShardId) -> usize {
        self.shards[usize::from(shard)].cache.len()
    }

    /// The count sketch of the whole set ([`reconcile_core::first_flight`]).
    pub fn count_sketch(&self) -> &CountSketch {
        &self.counts
    }

    /// Order-independent digest of the item set (see [`set_digest`]), for
    /// cheap convergence checks across a cluster, taken from the keyed
    /// hashes the shard caches hold: it hashes nothing.
    pub fn digest(&self) -> u64 {
        digest_of_hashes(
            self.shards
                .iter()
                .flat_map(|shard| shard.cache.members().map(|(_, hash)| hash)),
        )
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
        // Tiles served before the changes must not be served after them.
        for shard in 0..node.shards() {
            node.serve_tile(shard, 0, 32);
            node.serve_tile(shard, 5, 1);
        }
        for i in 100..160 {
            node.remove(&Item::from_u64(i));
        }
        for i in 1_000..1_050 {
            node.insert(Item::from_u64(i));
        }
        assert_caches_match_a_rebuild(&mut node, 64);
    }

    /// Each shard cache equals the from-scratch sketch of the shard's
    /// membership, over the first `m` cells (`m` ≥ 32), every tile the node
    /// serves of them equals the rebuilt cells in the wire codec, and the
    /// count sketch equals the one of the whole set. A change to one shard
    /// leaves every other shard's tiles cached, and the node never keeps
    /// more tiles than its bound (this serves over 4,096 at `m` = 320).
    fn assert_caches_match_a_rebuild(node: &mut Node<Item>, m: usize) {
        let (key, symbol_len) = (node.config().key, node.config().symbol_len);
        let hashes: Vec<u64> = node.items().map(|item| item.hash_with(key)).collect();
        assert_eq!(node.count_sketch(), &CountSketch::from_hashes(&hashes));
        let mut rebuilt = Vec::new();
        for shard in 0..node.shards() {
            let mut fresh = Sketch::with_key(m, key);
            for item in node.items().filter(|i| node.shard_of(i) == shard) {
                fresh.add_symbol(item);
            }
            assert_eq!(node.shard_cells(shard, 0, m), fresh.cells());
            rebuilt.push(fresh);
        }
        // A TCP-sized tile first, then datagram-sized ones.
        for len in [32, 1, 2, 3] {
            for shard in 0..node.shards() {
                let set_size = node.shard_len(shard) as u64;
                let codec = SymbolCodec::with_alpha(symbol_len, set_size, riblt::DEFAULT_ALPHA);
                let cells = rebuilt[usize::from(shard)].cells();
                for start in (0..=m - len).step_by(len) {
                    let expected = codec.encode_batch(&cells[start..start + len], start as u64);
                    let (tile, _) = node.serve_tile(shard, start, len);
                    assert_eq!(*tile, *expected, "shard {shard} tile ({start}, {len})");
                    let (again, cached) = node.serve_tile(shard, start, len);
                    assert!(cached && Arc::ptr_eq(&tile, &again));
                    let kept: usize = node.shards.iter().map(|s| s.tiles.len()).sum();
                    assert!(kept <= MAX_TILES, "{kept} tiles kept");
                }
            }
            if len == 32 {
                assert_changes_stay_in_their_shard(node, m);
            }
        }
    }

    /// Removes and re-inserts one item, so the set is unchanged: its shard
    /// moves two generations and encodes its `m / 32` TCP tiles again, to the
    /// same bytes; every other shard keeps its tiles.
    fn assert_changes_stay_in_their_shard(node: &mut Node<Item>, m: usize) {
        let mut before = Vec::new();
        for shard in 0..node.shards() {
            for start in (0..m / 32).map(|i| i * 32) {
                let (tile, _) = node.serve_tile(shard, start, 32);
                before.push((shard, start, node.shard_generation(shard), tile));
            }
        }
        let item = node.items().next().cloned().expect("a node with items");
        let changed = node.shard_of(&item);
        assert!(node.remove(&item) && node.insert(item));
        for (shard, start, generation, tile) in before {
            let (again, cached) = node.serve_tile(shard, start, 32);
            assert_eq!(again, tile);
            if shard == changed {
                assert!(!cached);
                assert_eq!(node.shard_generation(shard), generation + 2);
            } else {
                assert!(cached && Arc::ptr_eq(&again, &tile));
                assert_eq!(node.shard_generation(shard), generation);
            }
        }
    }

    #[test]
    fn churn_at_constant_size_keeps_the_cache_windows_bounded() {
        // 1,000 bursts of 256 inserts + 256 removes: a cache that kept an
        // entry per write would hold 512,000 window entries (68 B each). A
        // shard's size is its window's entries, so the node's length is
        // every entry it holds.
        let live = 2_000u64;
        let mut node = node_with(0, 0..live);
        node.shard_cells(0, 0, 64); // some shards serve while they churn
        node.shard_cells(5, 0, 256);
        node.serve_tile(5, 224, 32);
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
                let shard = (burst / 100) as u16 % 8;
                node.shard_cells(shard, 0, 96);
                node.serve_tile(shard, 64, 32);
            }
        }
        assert_eq!(node.len() as u64, live);
        // Cells materialized and tiles served before, during and after the
        // churn.
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
    fn the_digest_from_stored_hashes_is_the_digest_of_the_items() {
        let digest_of_items = |node: &Node<Item>| set_digest(node.items(), node.config().key);
        let mut node = Node::new(0, NodeConfig::new(8, 8));
        node.extend((0..2_000).map(Item::from_u64));
        assert_eq!(node.digest(), digest_of_items(&node));
        node.shard_cells(2, 0, 64);
        // Churn at constant size: each removal moves an entry of its
        // shard's window into the removed one's place.
        for i in 0..1_500u64 {
            assert!(node.insert(Item::from_u64(2_000 + i)));
            assert!(node.remove(&Item::from_u64(i)));
            if i % 500 == 0 {
                assert_eq!(node.digest(), digest_of_items(&node));
            }
        }
        assert_eq!(node.len(), 2_000);
        assert_eq!(node.digest(), digest_of_items(&node));
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

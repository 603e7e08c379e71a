//! Keyspace partitioning for sharded reconciliation.
//!
//! A cluster node splits its item set into `S` shards by keyed hash and
//! reconciles each shard independently (PBS-style partitioning): per-shard
//! differences are small, decode work parallelizes across shards, and a
//! per-shard coded-symbol cache can serve every peer. Two nodes can only
//! reconcile shard-wise if they partition identically, so the partitioner is
//! keyed by the *shared* cluster [`SipKey`] — the same key the sketches use
//! for checksums (every member of a cluster must be configured with the
//! same key; see the cluster crate's docs).

use riblt::Symbol;
use riblt_hash::{splitmix64, SipKey};

use crate::backend::ReconcileBackend;
use crate::engine::ClientEngine;

/// Shard index inside one node's partition space.
pub type ShardId = u16;

/// In a [`MuxFrame`](crate::MuxFrame): "every shard of the session". Only an
/// `Open` may carry it — a client that does not know the server's shard
/// count yet (its hello is still in flight) opens them all with one frame,
/// which the server expands into one per-shard open each. Never a shard of
/// its own: `u16` shard counts end at id `0xFFFE`.
pub const SHARD_ALL: ShardId = ShardId::MAX;

/// Session identifier distinguishing concurrent conversations multiplexed
/// over one link.
pub type SessionId = u32;

/// Deterministic keyed hash-partitioner over `S` shards.
///
/// The shard of an item is derived from its keyed checksum hash, passed
/// through one extra `splitmix64` round so shard membership is decorrelated
/// from the coded-symbol index mapping (which consumes the same hash as its
/// PRNG seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPartitioner {
    key: SipKey,
    shards: u16,
}

impl ShardPartitioner {
    /// Creates a partitioner over `shards` shards under the cluster key.
    pub fn new(key: SipKey, shards: u16) -> Self {
        assert!(shards >= 1, "at least one shard");
        ShardPartitioner { key, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The cluster key the partition is derived from.
    pub fn key(&self) -> SipKey {
        self.key
    }

    /// The shard `item` belongs to.
    pub fn shard_of<S: Symbol>(&self, item: &S) -> ShardId {
        self.shard_of_hash(item.hash_with(self.key))
    }

    /// The shard of the item whose hash under [`Self::key`] is `hash`: for
    /// callers that need the hash anyway (it is the item's checksum in every
    /// sketch under the same key) and should not compute it twice.
    pub fn shard_of_hash(&self, hash: u64) -> ShardId {
        (splitmix64(hash) % u64::from(self.shards)) as ShardId
    }

    /// Splits `items` into per-shard vectors (index = shard id).
    pub fn partition<S: Symbol>(&self, items: &[S]) -> Vec<Vec<S>> {
        let mut out = vec![Vec::new(); usize::from(self.shards)];
        for item in items {
            out[usize::from(self.shard_of(item))].push(item.clone());
        }
        out
    }

    /// [`Self::partition`], keeping the keyed hash that placed each item:
    /// per shard, its items in input order and, parallel to them, their
    /// hashes under [`Self::key`].
    pub fn partition_hashed<S: Symbol>(&self, items: &[S]) -> Vec<(Vec<S>, Vec<u64>)> {
        let mut out = vec![(Vec::new(), Vec::new()); usize::from(self.shards)];
        for item in items {
            let hash = item.hash_with(self.key);
            let (part, hashes) = &mut out[usize::from(self.shard_of_hash(hash))];
            part.push(item.clone());
            hashes.push(hash);
        }
        out
    }

    /// Partitions `items` and builds one client endpoint per shard (index =
    /// shard id) over `factory`'s backend for it, handing each item's keyed
    /// hash on so it is computed once. Each endpoint owns its copy of its
    /// shard's items; the partition itself is gone when this returns.
    pub fn client_engines<B, F>(&self, items: &[B::Item], factory: F) -> Vec<ClientEngine<B>>
    where
        B: ReconcileBackend,
        B::Item: Symbol,
        F: Fn(ShardId) -> B,
    {
        self.partition_hashed(items)
            .iter()
            .enumerate()
            .map(|(shard, (part, hashes))| {
                ClientEngine::new_keyed(factory(shard as ShardId), part, hashes)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

    #[test]
    fn partition_is_exhaustive_and_deterministic() {
        let p = ShardPartitioner::new(SipKey::default(), 16);
        let items: Vec<Item> = (0..4_000u64).map(Item::from_u64).collect();
        let parts = p.partition(&items);
        assert_eq!(parts.len(), 16);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), items.len());
        for (shard, part) in parts.iter().enumerate() {
            for item in part {
                assert_eq!(p.shard_of(item), shard as ShardId);
            }
        }
        // Same key, same partition.
        assert_eq!(p.partition(&items), parts);
    }

    #[test]
    fn hashed_partition_is_the_partition_with_its_keyed_hashes() {
        let key = SipKey::new(3, 5);
        let p = ShardPartitioner::new(key, 16);
        let items: Vec<Item> = (0..4_000u64).map(Item::from_u64).collect();
        let hashed = p.partition_hashed(&items);
        // Same shards, same order within each.
        let parts: Vec<Vec<Item>> = hashed.iter().map(|(part, _)| part.clone()).collect();
        assert_eq!(parts, p.partition(&items));
        for (shard, (part, hashes)) in hashed.iter().enumerate() {
            assert_eq!(part.len(), hashes.len());
            for (item, &hash) in part.iter().zip(hashes) {
                assert_eq!(hash, item.hash_with(key));
                assert_eq!(p.shard_of_hash(hash), shard as ShardId);
            }
        }
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        let p = ShardPartitioner::new(SipKey::default(), 16);
        let items: Vec<Item> = (0..16_000u64).map(Item::from_u64).collect();
        let parts = p.partition(&items);
        let expected = items.len() / 16;
        for part in &parts {
            assert!(
                part.len() > expected / 2 && part.len() < expected * 2,
                "shard of {} items vs {expected} expected",
                part.len()
            );
        }
    }

    #[test]
    fn different_keys_partition_differently() {
        let a = ShardPartitioner::new(SipKey::default(), 8);
        let b = ShardPartitioner::new(SipKey::new(7, 9), 8);
        let items: Vec<Item> = (0..500u64).map(Item::from_u64).collect();
        let moved = items
            .iter()
            .filter(|i| a.shard_of(*i) != b.shard_of(*i))
            .count();
        assert!(moved > items.len() / 2, "only {moved} items moved shards");
    }

    #[test]
    fn single_shard_degenerates_to_identity() {
        let p = ShardPartitioner::new(SipKey::default(), 1);
        let items: Vec<Item> = (0..100u64).map(Item::from_u64).collect();
        let parts = p.partition(&items);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], items);
    }
}

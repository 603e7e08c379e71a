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

    /// Groups the positions of the items whose keyed hashes are `hashes` by
    /// shard: a counting sort, so no item moves and nothing is allocated per
    /// shard.
    fn group(&self, hashes: &[u64]) -> Grouping {
        assert!(
            u32::try_from(hashes.len()).is_ok(),
            "a set's positions must fit a u32"
        );
        let shard_of: Vec<ShardId> = hashes.iter().map(|&h| self.shard_of_hash(h)).collect();
        // `bounds[s]` becomes the start of shard `s` in `members`, after one
        // pass that counts into the slot above it and one that sums.
        let mut bounds = vec![0usize; usize::from(self.shards) + 1];
        for &shard in &shard_of {
            bounds[usize::from(shard) + 1] += 1;
        }
        for shard in 0..usize::from(self.shards) {
            bounds[shard + 1] += bounds[shard];
        }
        let mut next = bounds.clone();
        let mut members = vec![0u32; hashes.len()];
        for (position, &shard) in shard_of.iter().enumerate() {
            let slot = &mut next[usize::from(shard)];
            members[*slot] = position as u32;
            *slot += 1;
        }
        Grouping { members, bounds }
    }

    /// Splits `items` into per-shard vectors (index = shard id), each item
    /// hashed once and each vector allocated at its final size.
    pub fn partition<S: Symbol>(&self, items: &[S]) -> Vec<Vec<S>> {
        let grouping = self.group(&S::hash_many_with(items, self.key));
        (0..self.shards)
            .map(|shard| {
                let members = grouping.members(shard).iter();
                members.map(|&i| items[i as usize].clone()).collect()
            })
            .collect()
    }

    /// Builds one client endpoint per shard (index = shard id) over
    /// `factory`'s backend for it, in one pass over `items`: each item is
    /// hashed once (the hash that places it is handed on as its checksum)
    /// and cloned once, from the caller's slice straight into its shard's
    /// endpoint ([`ReconcileBackend::build_client_keyed`]). No per-shard copy
    /// of the set exists in between, and nothing of the grouping outlives
    /// this call.
    pub fn client_engines<B, F>(&self, items: &[B::Item], factory: F) -> Vec<ClientEngine<B>>
    where
        B: ReconcileBackend,
        B::Item: Symbol,
        F: Fn(ShardId) -> B,
    {
        self.client_engines_keyed(items, &B::Item::hash_many_with(items, self.key), factory)
    }

    /// [`Self::client_engines`] for a caller that has hashed `items` already
    /// (`hashes[i]` is `items[i]`'s hash under [`Self::key`]): the TCP client
    /// hashes its set before its hello, for the count sketch its wildcard
    /// open carries, and places the items with the same hashes afterwards.
    ///
    /// # Panics
    /// If `items` and `hashes` differ in length.
    pub fn client_engines_keyed<B, F>(
        &self,
        items: &[B::Item],
        hashes: &[u64],
        factory: F,
    ) -> Vec<ClientEngine<B>>
    where
        B: ReconcileBackend,
        F: Fn(ShardId) -> B,
    {
        let grouping = self.group(hashes);
        (0..self.shards)
            .map(|shard| {
                let members = grouping.members(shard);
                ClientEngine::new_keyed(factory(shard), items, hashes, members)
            })
            .collect()
    }
}

/// A set's positions grouped by shard.
struct Grouping {
    /// Every position once: shard 0's in input order, then shard 1's, ….
    members: Vec<u32>,
    /// Shard `s` owns `members[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<usize>,
}

impl Grouping {
    fn members(&self, shard: ShardId) -> &[u32] {
        let shard = usize::from(shard);
        &self.members[self.bounds[shard]..self.bounds[shard + 1]]
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
        // Each shard holds exactly its items, in input order.
        for (shard, part) in parts.iter().enumerate() {
            let expected: Vec<Item> = items
                .iter()
                .filter(|item| p.shard_of(*item) == shard as ShardId)
                .copied()
                .collect();
            assert_eq!(part, &expected);
        }
        // Same key, same partition.
        assert_eq!(p.partition(&items), parts);
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

//! [`SyncClient`]: the client an application holds, which owns the local
//! set. A shell over [`sync_sharded_tcp`] (each sync still hashes and
//! partitions the whole set) that fixes what the handshake cannot check:
//! its backend is Rateless IBLT at α = [`riblt::DEFAULT_ALPHA`] over `S`'s
//! item length, so the key and the decode threads are all a caller sets.

use std::io::{Read, Write};

use reconcile_core::backends::RibltBackend;
use reconcile_core::SetDifference;
use riblt::Symbol;
use riblt_hash::SipKey;

use crate::tcp_sync::{sync_sharded_tcp, TcpSyncConfig, TcpSyncOutcome};

/// A client that owns its local set: a sorted, deduplicated `Vec`, which
/// every [`Self::sync`] hands to the driver as it is, with no copy per sync.
#[derive(Debug, Clone)]
pub struct SyncClient<S> {
    items: Vec<S>,
    config: TcpSyncConfig,
}

impl<S: Symbol + Ord + Send> SyncClient<S> {
    /// A client over `items` (sorted and deduplicated here) that syncs under
    /// `key` and decodes on `threads` workers (0 = one per available core).
    pub fn new(mut items: Vec<S>, key: SipKey, threads: usize) -> Self {
        items.sort_unstable();
        items.dedup();
        let config = TcpSyncConfig {
            key,
            symbol_len: S::default().as_bytes().len(),
            threads,
            ..Default::default()
        };
        SyncClient { items, config }
    }

    /// The local set, in order.
    pub fn items(&self) -> &[S] {
        &self.items
    }

    /// Adds `item` to the set; false if the set held it already.
    pub fn insert(&mut self, item: S) -> bool {
        let at = self.items.binary_search(&item);
        if let Err(at) = at {
            self.items.insert(at, item);
        }
        at.is_err()
    }

    /// Removes `item` from the set; false if the set did not hold it.
    pub fn remove(&mut self, item: &S) -> bool {
        let at = self.items.binary_search(item);
        if let Ok(at) = at {
            self.items.remove(at);
        }
        at.is_ok()
    }

    /// Syncs the set with the server at the other end of `io` and returns
    /// the differences recovered, one per shard; the set is left as it was.
    pub fn sync<T: Read + Write>(
        &mut self,
        io: &mut T,
    ) -> reconcile_core::Result<(Vec<SetDifference<S>>, TcpSyncOutcome)> {
        let TcpSyncConfig {
            key, symbol_len, ..
        } = self.config;
        // The tile is the server's (the grant names it); this one is unread.
        let backend =
            |_| RibltBackend::with_key_and_alpha(symbol_len, 32, key, riblt::DEFAULT_ALPHA);
        sync_sharded_tcp(io, &self.items, backend, &self.config)
    }

    /// Folds the `remote_only` items of `differences` into the set.
    pub fn apply(&mut self, differences: &[SetDifference<S>]) {
        let learned = differences.iter().flat_map(|d| d.remote_only.iter());
        self.items.extend(learned.cloned());
        self.items.sort_unstable();
        self.items.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reconcile_core::handshake::Hello;
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

    fn items(range: std::ops::Range<u64>) -> Vec<Item> {
        range.map(Item::from_u64).collect()
    }

    /// The library's server over `set`, in four shards.
    fn server(set: &[Item]) -> netsim::FlightLink {
        let key = SipKey::default();
        let backend = RibltBackend::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA);
        netsim::library_server(backend, set, Hello::new(key, 4, 8), 1 << 20)
    }

    /// Every shard's `remote_only` and `local_only` items, each sorted.
    fn split(differences: &[SetDifference<Item>]) -> (Vec<Item>, Vec<Item>) {
        let mut remote: Vec<Item> = differences
            .iter()
            .flat_map(|d| d.remote_only.clone())
            .collect();
        let mut local: Vec<Item> = differences
            .iter()
            .flat_map(|d| d.local_only.clone())
            .collect();
        remote.sort_unstable();
        local.sort_unstable();
        (remote, local)
    }

    #[test]
    fn the_set_is_kept_sorted_and_deduplicated() {
        let [a, b, c] = [1, 2, 3].map(Item::from_u64);
        let mut client = SyncClient::new(vec![c, a, c, b, a], SipKey::default(), 1);
        let mut expected = vec![a, b, c];
        expected.sort_unstable();
        assert_eq!(client.items(), expected);
        assert!(!client.insert(b));
        assert!(client.remove(&b));
        assert!(!client.remove(&b));
        assert!(client.insert(b));
        assert_eq!(client.items(), expected);
    }

    #[test]
    fn a_second_sync_after_apply_recovers_only_the_local_only_items() {
        let remote = items(0..3_000);
        let mut client = SyncClient::new(items(100..3_050), SipKey::default(), 1);
        let (first, outcome) = client.sync(&mut server(&remote)).unwrap();
        assert_eq!(outcome.shards, 4);
        assert_eq!(split(&first), (items(0..100), items(3_000..3_050)));

        client.apply(&first);
        let mut union = items(0..3_050);
        union.sort_unstable();
        assert_eq!(client.items(), union);
        let (second, _) = client.sync(&mut server(&remote)).unwrap();
        assert_eq!(split(&second), (Vec::new(), items(3_000..3_050)));
    }

    #[test]
    fn a_removed_item_comes_back_as_remote_only() {
        let remote = items(0..2_000);
        let mut client = SyncClient::new(remote.clone(), SipKey::default(), 1);
        let gone = Item::from_u64(1_234);
        assert!(client.remove(&gone));
        let (differences, _) = client.sync(&mut server(&remote)).unwrap();
        assert_eq!(split(&differences), (vec![gone], Vec::new()));
    }

    #[test]
    fn a_sync_sends_what_sync_sharded_tcp_sends() {
        let remote = items(0..5_000);
        let local = items(400..5_300);
        let mut client = SyncClient::new(local.clone(), SipKey::default(), 1);
        let mut held = server(&remote);
        let (differences, outcome) = client.sync(&mut held).unwrap();

        let mut free = server(&remote);
        let config = TcpSyncConfig {
            threads: 1,
            ..Default::default()
        };
        let backend =
            |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, config.key, riblt::DEFAULT_ALPHA);
        let (expected, expected_outcome) =
            sync_sharded_tcp(&mut free, &local, backend, &config).unwrap();
        assert_eq!(held.sent, free.sent, "the client's bytes, byte for byte");
        assert_eq!(held.received, free.received);
        assert_eq!(split(&differences), split(&expected));
        assert_eq!(
            (outcome.rounds, outcome.units),
            (expected_outcome.rounds, expected_outcome.units)
        );
    }
}

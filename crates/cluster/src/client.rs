//! [`SyncClient`]: the client an application holds, which owns the local
//! set. A shell over [`sync_sharded_tcp`] (each sync still hashes and
//! partitions the whole set) that fixes what the handshake cannot check:
//! its backend is Rateless IBLT at α = [`riblt::DEFAULT_ALPHA`] over `S`'s
//! item length, so the key and the decode threads are all a caller sets.

use std::io::{Read, Write};

use reconcile_core::backends::RibltBackend;
use reconcile_core::{sync_sharded_tcp, SetDifference, TcpSyncConfig, TcpSyncOutcome};
use riblt::Symbol;
use riblt_hash::SipKey;

/// A client that owns its local set: a sorted, deduplicated `Vec`, which
/// every [`Self::sync`] hands to the driver as it is, with no copy per sync.
#[derive(Debug, Clone)]
pub struct SyncClient<S> {
    items: Vec<S>,
    config: TcpSyncConfig,
}

impl<S: Symbol + Ord + Send + Sync> SyncClient<S> {
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
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

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
}

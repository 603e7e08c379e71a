//! `cluster::SyncClient`'s syncs against the library's server
//! ([`crate::library_server`]) over a link that keeps both directions'
//! bytes.

use cluster::SyncClient;
use reconcile_core::backends::RibltBackend;
use reconcile_core::handshake::Hello;
use reconcile_core::{sync_sharded_tcp, SetDifference, TcpSyncConfig};
use riblt::FixedBytes;
use riblt_hash::SipKey;

use crate::{library_server, FlightLink};

type Item = FixedBytes<8>;

fn items(range: std::ops::Range<u64>) -> Vec<Item> {
    range.map(Item::from_u64).collect()
}

/// The library's server over `set`, in four shards.
fn server(set: &[Item]) -> FlightLink {
    let key = SipKey::default();
    let backend = RibltBackend::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA);
    library_server(backend, set, Hello::new(key, 4, 8), 1 << 20)
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

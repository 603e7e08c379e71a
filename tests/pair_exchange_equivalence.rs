//! A cluster pair exchange is the TCP client's conversation: the same sets
//! reconciled by `netsim::reconcile_pair` and by `sync_sharded_tcp` against
//! the library's own server recover the same differences from the same
//! symbols, in the same frames, with one more round — the pair counts the
//! first flight's, the TCP client counts rounds after the handshake.
//!
//! The umbrella crate holds this test beside the other cross-crate ones.

use std::collections::BTreeSet;

use rateless_reconciliation::cluster::{Node, NodeConfig};
use rateless_reconciliation::netsim::{
    library_server, reconcile_pair, LinkConfig, PairSyncConfig, Topology,
};
use rateless_reconciliation::reconcile_core::backends::RibltBackend;
use rateless_reconciliation::reconcile_core::handshake::Hello;
use rateless_reconciliation::reconcile_core::MUX_HEADER_BYTES;
use rateless_reconciliation::riblt::FixedBytes;
use rateless_reconciliation::statesync::{sync_sharded_tcp, TcpSyncConfig};

type Item = FixedBytes<8>;

const ITEM_LEN: usize = 8;

fn items(range: std::ops::Range<u64>) -> Vec<Item> {
    range.map(Item::from_u64).collect()
}

fn node(id: usize, shards: u16, set: &[Item]) -> Node<Item> {
    let mut node = Node::new(id, NodeConfig::new(shards, ITEM_LEN));
    node.extend(set.iter().copied());
    node
}

#[test]
fn a_pair_exchange_is_the_tcp_clients_conversation() {
    // (server's set, client's set): identical, then d = 230, 700 and 2,000.
    let set_pairs = [
        (items(0..3_000), items(0..3_000)),
        (items(0..3_000), items(130..3_100)),
        (items(0..3_000), items(400..3_300)),
        (items(0..6_000), items(1_000..7_000)),
    ];
    let pair_config = PairSyncConfig {
        threads: 1,
        ..Default::default()
    };
    let tcp_config = TcpSyncConfig {
        symbol_len: ITEM_LEN,
        threads: 1,
        max_units_per_shard: pair_config.max_units_per_shard,
        ..Default::default()
    };
    let backend = RibltBackend::<Item>::new(ITEM_LEN, pair_config.batch_symbols);
    for shards in [4u16, 8, 16] {
        for (server, client) in &set_pairs {
            let case = format!(
                "{shards} shards, {} vs {} items",
                server.len(),
                client.len()
            );

            let hello = Hello::new(backend.key, shards, ITEM_LEN);
            let mut link = library_server(
                backend.clone(),
                server,
                hello,
                pair_config.max_units_per_shard,
            );
            let (diffs, tcp) =
                sync_sharded_tcp(&mut link, client, |_| backend.clone(), &tcp_config).unwrap();

            let mut nodes = vec![node(0, shards, client), node(1, shards, server)];
            let mut topology = Topology::full_mesh(2, LinkConfig::unlimited());
            let pair = reconcile_pair(&mut nodes, 0, 1, &mut topology, &pair_config, 0.0).unwrap();

            // The same differences, item for item: what each node gained is
            // what the TCP client recovered on that side.
            let gained = |node: &Node<Item>, had: &[Item]| -> BTreeSet<Item> {
                let had: BTreeSet<&Item> = had.iter().collect();
                node.items().filter(|i| !had.contains(i)).copied().collect()
            };
            let remote_only: BTreeSet<Item> =
                diffs.iter().flat_map(|d| d.remote_only.clone()).collect();
            let local_only: BTreeSet<Item> =
                diffs.iter().flat_map(|d| d.local_only.clone()).collect();
            assert_eq!(gained(&nodes[0], client), remote_only, "{case}");
            assert_eq!(gained(&nodes[1], server), local_only, "{case}");
            assert_eq!(pair.items_to_initiator, remote_only.len(), "{case}");
            assert_eq!(pair.items_to_responder, local_only.len(), "{case}");

            // The same symbols consumed, and the first flight's round.
            assert_eq!(pair.units, tcp.units, "{case}");
            assert_eq!(pair.rounds, tcp.rounds + 1, "{case}");

            // The same frames: the pair's bytes are the TCP transcript's,
            // plus one item frame per shard pushed back.
            let push: usize = diffs
                .iter()
                .filter(|d| !d.local_only.is_empty())
                .map(|d| MUX_HEADER_BYTES + 1 + d.local_only.len() * ITEM_LEN)
                .sum();
            assert_eq!(
                pair.bytes - push,
                link.sent.len() + link.received.len(),
                "{case}"
            );
        }
    }
}

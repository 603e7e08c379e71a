//! A one-shard cluster pair exchange over 20,000 shared items and a
//! difference crafted under the public default key to empty cell 0 (one half
//! added to each node). The shipped client must neither end the sync at
//! cell 0 with nothing learned nor fail it: both nodes end holding the union.

#[path = "../crates/riblt/tests/support/cancelling.rs"]
mod cancelling;

use std::collections::BTreeSet;

use cancelling::{cancelling_halves, item, Item};
use rateless_reconciliation::cluster::{Node, NodeConfig};
use rateless_reconciliation::netsim::{reconcile_pair, LinkConfig, PairSyncConfig, Topology};

const SHARED: u64 = 20_000;

#[test]
fn a_pair_exchange_does_not_end_early_on_a_difference_that_cancels_in_cell_0() {
    let config = NodeConfig::new(1, 32);
    let (server_only, client_only) = cancelling_halves(config.key);
    let node = |id, own: &[Item]| {
        let mut node = Node::new(id, config);
        node.extend((0..SHARED).map(item).chain(own.iter().copied()));
        node
    };
    let mut nodes = vec![node(0, &client_only), node(1, &server_only)];
    assert_eq!(
        nodes[0].digest(),
        nodes[1].digest(),
        "the XOR digest cancels too"
    );
    let mut topology = Topology::full_mesh(2, LinkConfig::unlimited());
    let pair_config = PairSyncConfig {
        threads: 1,
        ..Default::default()
    };
    reconcile_pair(&mut nodes, 0, 1, &mut topology, &pair_config, 0.0).unwrap();
    let union: BTreeSet<Item> = (0..SHARED)
        .map(item)
        .chain(server_only.iter().copied())
        .chain(client_only.iter().copied())
        .collect();
    for node in &nodes {
        assert_eq!(node.items().copied().collect::<BTreeSet<_>>(), union);
    }
}

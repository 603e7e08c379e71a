//! Integration test of the acceptance scenario: an 8-node × 16-shard
//! cluster with churn injected mid-gossip converges to identical sets over
//! the netsim topology.

use rateless_reconciliation::cluster::{Node, NodeConfig};
use rateless_reconciliation::netsim::{
    reconcile_pair, Cluster, ClusterConfig, LinkConfig, PairSyncConfig, Topology,
};
use rateless_reconciliation::riblt::FixedBytes;
use rateless_reconciliation::riblt_hash::SplitMix64;

type Item = FixedBytes<32>;

fn fresh_item(rng: &mut SplitMix64) -> Item {
    let mut bytes = [0u8; 32];
    rng.fill_bytes(&mut bytes);
    FixedBytes(bytes)
}

#[test]
fn eight_nodes_sixteen_shards_with_churn_converge() {
    const NODES: usize = 8;
    const SHARDS: u16 = 16;
    let mut cluster = Cluster::<Item>::new(ClusterConfig {
        nodes: NODES,
        node: NodeConfig::new(SHARDS, 32),
        link: LinkConfig::paper_default(),
        pair: PairSyncConfig {
            batch_symbols: 16,
            ..Default::default()
        },
        seed: 0xacce97,
    });
    let mut rng = SplitMix64::new(0x8c1);

    // Shared history on every node, then node-local writes.
    for _ in 0..800 {
        let item = fresh_item(&mut rng);
        for node in 0..NODES {
            cluster.insert_at(node, item);
        }
    }
    for node in 0..NODES {
        for _ in 0..40 {
            let item = fresh_item(&mut rng);
            cluster.insert_at(node, item);
        }
    }
    assert!(!cluster.converged());

    // Churn: writes keep landing at random nodes while gossip runs.
    let mut churn_writes = 0usize;
    for _ in 0..3 {
        for _ in 0..50 {
            let node = rng.next_below(NODES as u64) as usize;
            if cluster.insert_at(node, fresh_item(&mut rng)) {
                churn_writes += 1;
            }
        }
        cluster.run_round().expect("gossip round under churn");
    }
    assert_eq!(churn_writes, 150);

    // Once writes stop, the cluster must reach identical sets.
    let report = cluster.run_until_converged(40).expect("convergence run");
    assert!(
        report.converged,
        "8x16 cluster failed to converge within 40 post-churn rounds"
    );
    let expected = 800 + NODES * 40 + churn_writes;
    for node in 0..NODES {
        assert_eq!(cluster.node(node).len(), expected, "node {node} diverged");
    }
    // Exact set equality (convergence), not just sizes: pairwise exchanges
    // against node 0 must all be no-ops now.
    assert!(cluster.converged());

    // Every node participated and spent decode CPU.
    assert!(report.total_bytes > 0);
    for stats in &report.node_stats {
        assert!(stats.bytes_sent > 0);
        assert!(stats.bytes_received > 0);
    }
    assert!(report.virtual_time_s > 0.0);
}

#[test]
fn one_responder_serves_many_peers_from_one_cache() {
    // The universality claim at the integration level: a hub node serves
    // five peers of very different staleness; every peer session reads the
    // same cached coded symbols (the hub's caches are only ever patched by
    // writes, never rebuilt) and all peers converge on the hub's set.
    const SHARDS: u16 = 8;
    let mut rng = SplitMix64::new(0x45e1);
    let universe: Vec<Item> = (0..2_000).map(|_| fresh_item(&mut rng)).collect();

    let mut nodes: Vec<Node<Item>> = (0..6)
        .map(|id| Node::new(id, NodeConfig::new(SHARDS, 32)))
        .collect();
    for item in &universe {
        nodes[0].insert(*item);
    }
    for (peer, staleness) in [(1usize, 10usize), (2, 50), (3, 200), (4, 800), (5, 1_999)] {
        for item in &universe[staleness..] {
            nodes[peer].insert(*item);
        }
    }

    let mut topo = Topology::full_mesh(6, LinkConfig::paper_default());
    let config = PairSyncConfig::default();
    for peer in 1..6 {
        let outcome =
            reconcile_pair(&mut nodes, peer, 0, &mut topo, &config, 0.0).expect("peer sync");
        assert_eq!(outcome.items_to_responder, 0, "hub already had everything");
    }
    for peer in 1..6 {
        assert_eq!(nodes[peer].len(), universe.len(), "peer {peer} incomplete");
        assert_eq!(nodes[peer].digest(), nodes[0].digest());
    }
}

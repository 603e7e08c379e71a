//! An 8-node sharded reconciliation cluster converging by gossip.
//!
//! Run with `cargo run --release --example cluster_gossip`.
//!
//! Every node hash-partitions its keys into 16 shards and keeps one
//! incrementally-maintained coded-symbol cache per shard; a gossip round has
//! each node reconcile all 16 shards with one random peer over a single
//! multiplexed link, decoding the shards on a worker pool. Writes keep
//! landing on random nodes for the first rounds (churn) — the cluster still
//! converges to identical sets a few rounds after the writes stop.

use cluster::NodeConfig;
use netsim::{Cluster, ClusterConfig, LinkConfig, PairSyncConfig};
use riblt::FixedBytes;
use riblt_hash::SplitMix64;

type Item = FixedBytes<32>;

fn fresh_item(rng: &mut SplitMix64) -> Item {
    let mut bytes = [0u8; 32];
    rng.fill_bytes(&mut bytes);
    FixedBytes(bytes)
}

fn main() {
    const NODES: usize = 8;
    const SHARDS: u16 = 16;
    let mut cluster = Cluster::<Item>::new(ClusterConfig {
        nodes: NODES,
        node: NodeConfig::new(SHARDS, 32),
        link: LinkConfig::paper_default(),
        pair: PairSyncConfig::default(),
        seed: 0xfeed,
    });
    let mut rng = SplitMix64::new(0x5eed);

    // Replicated history plus some writes only the accepting node has seen.
    for _ in 0..5_000 {
        let item = fresh_item(&mut rng);
        for node in 0..NODES {
            cluster.insert_at(node, item);
        }
    }
    for node in 0..NODES {
        for _ in 0..150 {
            let item = fresh_item(&mut rng);
            cluster.insert_at(node, item);
        }
    }
    println!(
        "[setup] {NODES} nodes x {SHARDS} shards, {} items on node 0, cluster diverged",
        cluster.node(0).len()
    );

    // Three rounds with churn: writes keep arriving while gossip runs.
    for _ in 0..3 {
        for _ in 0..200 {
            let node = rng.next_below(NODES as u64) as usize;
            let item = fresh_item(&mut rng);
            cluster.insert_at(node, item);
        }
        let report = cluster.run_round().expect("gossip round");
        println!(
            "[round {}] {} exchanges moved {} items ({} coded symbols, {:.2} MB), churn ongoing",
            report.round,
            report.exchanges,
            report.items_moved,
            report.units,
            report.bytes as f64 / 1e6
        );
    }

    // Churn stops; run until every node holds the identical set.
    let report = cluster.run_until_converged(30).expect("convergence run");
    assert!(report.converged, "cluster failed to converge");
    println!(
        "[done] converged after {} total rounds: {} items everywhere, {:.2} MB total, \
         {:.1}s virtual time",
        cluster.rounds(),
        cluster.node(0).len(),
        report.total_bytes as f64 / 1e6,
        report.virtual_time_s
    );
    for (id, stats) in report.node_stats.iter().enumerate() {
        println!(
            "  node {id}: {:.2} MB sent, {:.2} MB received, {:.1} ms decode CPU",
            stats.bytes_sent as f64 / 1e6,
            stats.bytes_received as f64 / 1e6,
            stats.decode_s * 1e3
        );
    }
}

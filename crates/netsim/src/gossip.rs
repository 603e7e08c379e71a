//! Anti-entropy gossip: N nodes converging by randomized pairwise exchanges.
//!
//! Every round, each node initiates one session-multiplexed exchange
//! ([`reconcile_pair`]) with a uniformly random peer over the per-pair
//! [`Topology`] links. Exchanges within a round execute
//! *sequentially in node-id order* against live state — a sequential
//! anti-entropy sweep, so an item written early in a round can travel more
//! than one hop before the round ends (rounds-to-convergence is therefore a
//! lower bound on what strictly-simultaneous exchanges would need). The
//! virtual clock still advances by the slowest exchange of the round, since
//! distinct pairs occupy independent links. The driver measures rounds to
//! convergence, per-node bytes and decode CPU, under optional churn
//! injected between rounds.
//!
//! The gossip state is grow-only (new items spread; [`Node::remove`] exists
//! for cache maintenance but a removal would be resurrected by a peer that
//! still holds the item — production systems layer tombstones on top, which
//! is orthogonal to the reconciliation transport measured here).

use cluster::{Node, NodeConfig};
use reconcile_core::Result;
use riblt::Symbol;
use riblt_hash::SplitMix64;

use crate::link::LinkConfig;
use crate::pairsync::{reconcile_pair, PairSyncConfig};
use crate::topology::Topology;

/// Configuration of a gossip cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes (N).
    pub nodes: usize,
    /// Per-node configuration (shards, key, symbol length) — shared by every
    /// member, key included (see [`NodeConfig`]).
    pub node: NodeConfig,
    /// Link parameters of every pairwise link.
    pub link: LinkConfig,
    /// Pairwise exchange tuning.
    pub pair: PairSyncConfig,
    /// Seed of the peer-selection / churn RNG.
    pub seed: u64,
}

/// Per-node measurement accumulated over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Bytes this node sent.
    pub bytes_sent: usize,
    /// Bytes this node received.
    pub bytes_received: usize,
    /// Real wall seconds this node spent peeling shard differences.
    pub decode_s: f64,
    /// Real wall seconds this node spent answering flights.
    pub serve_s: f64,
}

/// Measurement of one gossip round.
#[derive(Debug, Clone, Copy)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// Pairwise exchanges performed (= node count).
    pub exchanges: usize,
    /// Items that changed owners (both directions, all exchanges).
    pub items_moved: usize,
    /// Coded symbols transferred.
    pub units: usize,
    /// Bytes carried by all links this round.
    pub bytes: usize,
}

/// Outcome of [`Cluster::run_until_converged`].
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// True if all nodes held identical sets within the round budget.
    pub converged: bool,
    /// Gossip rounds executed.
    pub rounds: usize,
    /// Bytes carried by every link over the whole run.
    pub total_bytes: usize,
    /// Virtual seconds elapsed.
    pub virtual_time_s: f64,
    /// Per-node accumulated stats.
    pub node_stats: Vec<NodeStats>,
}

/// An N-node gossip cluster over a full-mesh topology.
#[derive(Debug)]
pub struct Cluster<S: Symbol + Ord> {
    config: ClusterConfig,
    nodes: Vec<Node<S>>,
    topology: Topology,
    rng: SplitMix64,
    stats: Vec<NodeStats>,
    virtual_time_s: f64,
    rounds: usize,
}

impl<S: Symbol + Ord + Send + Sync> Cluster<S> {
    /// Creates a cluster of empty nodes.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.nodes >= 2, "a cluster needs at least two nodes");
        let nodes = (0..config.nodes)
            .map(|id| Node::new(id, config.node))
            .collect();
        Cluster {
            nodes,
            topology: Topology::full_mesh(config.nodes, config.link),
            rng: SplitMix64::new(config.seed ^ 0xc105_7e12_9055_1e0d),
            stats: vec![NodeStats::default(); config.nodes],
            virtual_time_s: 0.0,
            rounds: 0,
            config,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Read access to a node.
    pub fn node(&self, id: usize) -> &Node<S> {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Virtual time elapsed so far.
    pub fn virtual_time_s(&self) -> f64 {
        self.virtual_time_s
    }

    /// Inserts an item at one node (a local write; gossip spreads it).
    pub fn insert_at(&mut self, node: usize, item: S) -> bool {
        self.nodes[node].insert(item)
    }

    /// True when every node holds exactly the same set.
    pub fn converged(&self) -> bool {
        let reference = self.nodes[0].digest();
        if self.nodes[1..].iter().any(|n| n.digest() != reference) {
            return false;
        }
        // Digests can collide; confirm exactly.
        let items: Vec<&S> = self.nodes[0].items().collect();
        self.nodes[1..]
            .iter()
            .all(|n| n.len() == items.len() && n.items().zip(&items).all(|(a, b)| a == *b))
    }

    /// Runs one gossip round: every node, in id order, initiates one
    /// exchange with a uniformly random other node (a sequential
    /// anti-entropy sweep — later exchanges see the items earlier ones
    /// moved). Each exchange's virtual time is measured from the round
    /// start, pairs using independent links; the round advances the
    /// cluster clock by the slowest exchange.
    pub fn run_round(&mut self) -> Result<RoundReport> {
        self.rounds += 1;
        let start = self.virtual_time_s;
        let mut round_end = start;
        let mut items_moved = 0usize;
        let mut units = 0usize;
        let bytes_before = self.topology.total_bytes();

        for initiator in 0..self.nodes.len() {
            let peer = {
                let r = self.rng.next_below(self.nodes.len() as u64 - 1) as usize;
                if r >= initiator {
                    r + 1
                } else {
                    r
                }
            };
            let outcome = reconcile_pair(
                &mut self.nodes,
                initiator,
                peer,
                &mut self.topology,
                &self.config.pair,
                start,
            )?;
            round_end = round_end.max(start + outcome.virtual_time_s);
            items_moved += outcome.items_to_initiator + outcome.items_to_responder;
            units += outcome.units;
            self.stats[initiator].decode_s += outcome.decode_wall_s;
            self.stats[peer].serve_s += outcome.serve_wall_s;
        }
        self.virtual_time_s = round_end;
        // Refresh per-node byte counters from the topology.
        for (id, stat) in self.stats.iter_mut().enumerate() {
            stat.bytes_sent = self.topology.bytes_sent(id);
            stat.bytes_received = self.topology.bytes_received(id);
        }
        Ok(RoundReport {
            round: self.rounds,
            exchanges: self.nodes.len(),
            items_moved,
            units,
            bytes: self.topology.total_bytes() - bytes_before,
        })
    }

    /// Gossips until convergence or `max_rounds`, whichever comes first.
    pub fn run_until_converged(&mut self, max_rounds: usize) -> Result<ConvergenceReport> {
        let mut converged = self.converged();
        let mut executed = 0usize;
        while !converged && executed < max_rounds {
            self.run_round()?;
            executed += 1;
            converged = self.converged();
        }
        Ok(ConvergenceReport {
            converged,
            rounds: executed,
            total_bytes: self.topology.total_bytes(),
            virtual_time_s: self.virtual_time_s,
            node_stats: self.stats.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

    fn test_config(nodes: usize, shards: u16, seed: u64) -> ClusterConfig {
        ClusterConfig {
            nodes,
            node: NodeConfig::new(shards, 8),
            link: LinkConfig::unlimited(),
            pair: PairSyncConfig {
                batch_symbols: 16,
                ..Default::default()
            },
            seed,
        }
    }

    #[test]
    fn disjoint_writes_converge_in_a_few_rounds() {
        let mut cluster = Cluster::<Item>::new(test_config(4, 4, 0x60551b));
        // 200 common items everywhere, plus 25 unique writes per node.
        for node in 0..4 {
            for i in 0..200u64 {
                cluster.insert_at(node, Item::from_u64(i));
            }
            for i in 0..25u64 {
                cluster.insert_at(node, Item::from_u64(10_000 + node as u64 * 100 + i));
            }
        }
        assert!(!cluster.converged());
        let report = cluster.run_until_converged(20).unwrap();
        assert!(report.converged, "did not converge in 20 rounds");
        assert!(report.rounds <= 8, "took {} rounds", report.rounds);
        assert_eq!(cluster.node(0).len(), 200 + 4 * 25);
        // Every node both sent and received something.
        for stat in &report.node_stats {
            assert!(stat.bytes_sent > 0);
            assert!(stat.bytes_received > 0);
        }
    }

    #[test]
    fn already_converged_cluster_runs_zero_rounds() {
        let mut cluster = Cluster::<Item>::new(test_config(3, 2, 1));
        for node in 0..3 {
            for i in 0..50u64 {
                cluster.insert_at(node, Item::from_u64(i));
            }
        }
        let report = cluster.run_until_converged(10).unwrap();
        assert!(report.converged);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.total_bytes, 0);
    }

    #[test]
    fn churn_between_rounds_still_converges_once_writes_stop() {
        let mut cluster = Cluster::<Item>::new(test_config(5, 8, 0xc4a2));
        for node in 0..5 {
            for i in 0..100u64 {
                cluster.insert_at(node, Item::from_u64(i));
            }
        }
        // Keep writing at random nodes for three rounds (churn), then stop.
        let mut rng = SplitMix64::new(0x77);
        for _ in 0..3 {
            for _ in 0..30 {
                let node = rng.next_below(5) as usize;
                let item = Item::from_u64(1_000_000 + rng.next_below(1_000_000));
                cluster.insert_at(node, item);
            }
            cluster.run_round().unwrap();
        }
        let report = cluster.run_until_converged(25).unwrap();
        assert!(report.converged, "post-churn convergence failed");
        assert!(cluster.virtual_time_s() > 0.0);
    }
}

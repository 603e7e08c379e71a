//! # cluster — sharded multi-peer reconciliation
//!
//! The paper's deployment story (§2, §7.3) is one node serving *many* peers
//! of different staleness from a single incrementally-maintained
//! coded-symbol cache. This crate scales that story out:
//!
//! * [`Node`] hash-partitions its item set into S shards
//!   ([`reconcile_core::ShardPartitioner`]) and keeps one shared
//!   [`riblt::SketchCache`] per shard — every set change patches O(log m)
//!   cells once, and the same cells serve every concurrent session.
//! * [`reconcile_pair`] reconciles two nodes over one link as the shipped
//!   client and the daemon do: the initiator's
//!   [`reconcile_core::ClientMux`] opens every shard with one sketched
//!   wildcard open, and the responder answers from its caches with a
//!   first flight sized from that sketch, then one payload per tile of
//!   every range asked for.
//! * [`Cluster`] runs N-node anti-entropy gossip over a
//!   [`netsim::Topology`] of per-pair virtual-time links, with churn
//!   injected between rounds, and reports rounds-to-convergence plus
//!   per-node bytes and decode/serve CPU.
//!
//! **Shared key requirement.** Every member of a cluster must be configured
//! with the same [`riblt_hash::SipKey`] (and shard count and item length):
//! the key drives both the shard partition and the coded-symbol
//! checksums/index mappings, so nodes with different keys speak incompatible
//! codes. [`reconcile_pair`] rejects mismatched configurations up front.
//!
//! ## Quick start
//!
//! ```
//! use cluster::{Cluster, ClusterConfig, NodeConfig, PairSyncConfig};
//! use netsim::LinkConfig;
//! use riblt::FixedBytes;
//!
//! type Item = FixedBytes<8>;
//! let mut cluster = Cluster::<Item>::new(ClusterConfig {
//!     nodes: 4,
//!     node: NodeConfig::new(8, 8), // 8 shards, 8-byte items
//!     link: LinkConfig::unlimited(),
//!     pair: PairSyncConfig::default(),
//!     seed: 7,
//! });
//! for node in 0..4 {
//!     for i in 0..100u64 {
//!         cluster.insert_at(node, Item::from_u64(i)); // replicated history
//!     }
//!     cluster.insert_at(node, Item::from_u64(1_000 + node as u64)); // a local write
//! }
//! let report = cluster.run_until_converged(20).unwrap();
//! assert!(report.converged);
//! assert_eq!(cluster.node(0).len(), 104);
//! ```

#![warn(missing_docs)]

mod gossip;
mod node;
mod pairsync;

pub use gossip::{Cluster, ClusterConfig, ConvergenceReport, NodeStats, RoundReport};
pub use node::{set_digest, Node, NodeConfig};
pub use pairsync::{reconcile_pair, PairOutcome, PairSyncConfig};

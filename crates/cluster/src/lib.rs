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
//! * [`Responder`] is the serving half of the protocol without the I/O:
//!   one per conversation, it answers a client's frames from a [`Node`]'s
//!   caches (a wildcard open with a first flight sized from the open's
//!   count sketch, every range with one payload per tile) and stages the
//!   replies straight into the caller's write buffer. The `reconciled`
//!   daemon serves every connection through it.
//! * [`reconcile_pair`] reconciles two nodes over one link as a client and
//!   the daemon do: the initiator runs the shipped TCP client,
//!   [`reconcile_core::sync_sharded_tcp`], against the responder node's
//!   [`Responder`], every flight charged to the link.
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
mod responder;

pub use gossip::{Cluster, ClusterConfig, ConvergenceReport, NodeStats, RoundReport};
pub use node::{set_digest, Node, NodeConfig};
pub use pairsync::{reconcile_pair, PairOutcome, PairSyncConfig};
pub use responder::{Responder, Served, Tiles};

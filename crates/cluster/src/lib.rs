//! # cluster — the replica: serving a set and syncing one
//!
//! The paper's deployment story (§2, §7.3) is one node serving *many* peers
//! of different staleness from a single incrementally-maintained
//! coded-symbol cache. This crate holds both ends of that story:
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
//! * [`SyncClient`] is the client an application holds: it owns the local
//!   set and syncs it over any byte stream through the shipped TCP client,
//!   [`reconcile_core::sync_sharded_tcp`].
//! * [`sync_sharded_udp`] is the client of the daemon's datagram protocol,
//!   over any [`DatagramConduit`].
//!
//! The pair exchange and the N-node gossip that run these over simulated
//! links are experiment harness and live in `netsim`, whose crate docs
//! have a quick start.
//!
//! **Shared key requirement.** Every member of a cluster must be configured
//! with the same [`riblt_hash::SipKey`] (and shard count and item length):
//! the key drives both the shard partition and the coded-symbol
//! checksums/index mappings, so nodes with different keys speak incompatible
//! codes. The handshake's key fingerprint refuses a peer configured
//! otherwise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod node;
mod responder;
mod udp_sync;

pub use client::SyncClient;
pub use node::{set_digest, Node, NodeConfig};
pub use responder::{Responder, Served, Tiles};
pub use udp_sync::{
    sync_sharded_udp, DatagramConduit, LossyConduit, UdpSyncConfig, UdpSyncOutcome,
};

// The datagram client's unit tests drive it against `netsim`'s datagram
// server, compiled from the same source file: `netsim` depends on this
// crate, so as a dev-dependency it would link a second copy of it, whose
// types are not these. That file names this crate by its name. The tests
// that need `netsim`'s stream server or flight link live in `netsim`.
#[cfg(test)]
extern crate self as cluster;
#[cfg(test)]
#[path = "../../netsim/src/datagram.rs"]
mod netsim_datagram;
#[cfg(test)]
mod netsim {
    pub use crate::netsim_datagram::{
        datagram_pair, library_datagram_server, DatagramEndpoint, DatagramLinkConfig,
    };
}

//! Network substrate for the end-to-end experiments, and the cluster
//! experiments that run over it.
//!
//! * [`SimLink`] / [`LinkConfig`] — deterministic virtual-time link with
//!   propagation delay and bandwidth caps, substituting for the paper's
//!   Dummynet testbed (DESIGN.md §4).
//! * [`Topology`] — a full mesh of per-pair links with per-node byte
//!   accounting, for the N-node cluster experiments.
//! * [`datagram_pair`] — an in-process lossy datagram link (seeded loss,
//!   duplication, adjacent reordering) for exercising the UDP transport
//!   without sockets, and [`library_datagram_server`], the library's
//!   datagram server to put on its far end.
//! * [`ServerEngine`] / [`ClientEngine`] / [`run_in_memory`] — the
//!   point-to-point session engine over any `reconcile_core::ReconcileBackend`:
//!   one endpoint each, exchanging opaque `EngineMessage`s, and a whole
//!   conversation driven in memory with its bytes and rounds counted
//!   ([`RunReport`]). The conformance suite, fig07 and the examples compare
//!   every sketch family through it.
//! * [`ServerMux`] — one [`ServerEngine`] per `(session, shard)` behind one
//!   link, answering the wildcard open with the first flight.
//! * [`FlightLink`] / [`library_server`] — an in-memory `Read + Write` link
//!   that counts round trips and records what each side said, with the
//!   library's own handshake-and-mux server behind it: the reference the
//!   `reconciled` daemon's wire output is compared against. [`FlightLinkTo`]
//!   is the same link to a server that borrows what it serves from.
//!
//!   None of these is product code: the daemon serves through
//!   `cluster::Responder` and the shipped client is
//!   `reconcile_core::sync_sharded_tcp`, which the `handshake` and
//!   `tcp_sync` tests here hold to the reference server.
//! * [`SimFlights`] — a flight link on the clock: every flight is charged
//!   to a [`Topology`] pair, so the shipped client runs in virtual time.
//! * [`TimeSeries`] — byte-delivery accounting for bandwidth traces
//!   (Fig. 13).
//! * [`write_frame`] / [`read_frame`] — re-exports of the canonical
//!   length-prefixed frame codec, which lives in `reconcile_core::framing`
//!   (one implementation over any `Read + Write` serves the simulator
//!   examples, the `reconciled` daemon, and the tests alike).
//! * [`reconcile_pair`] reconciles two `cluster::Node`s over one
//!   [`Topology`] link as a client and the daemon do: the initiator runs
//!   the shipped TCP client, `reconcile_core::sync_sharded_tcp`, against
//!   the responder node's `cluster::Responder`, every flight charged to the
//!   link. It rejects members whose configurations differ.
//! * [`Cluster`] runs N-node anti-entropy gossip over a [`Topology`] of
//!   per-pair virtual-time links, with churn injected between rounds, and
//!   reports rounds-to-convergence plus per-node bytes and decode/serve CPU.
//!
//! ## Quick start
//!
//! ```
//! use cluster::NodeConfig;
//! use netsim::{Cluster, ClusterConfig, LinkConfig, PairSyncConfig};
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
#![forbid(unsafe_code)]

mod datagram;
mod engine;
mod flight;
mod gossip;
mod link;
mod mux;
mod pairsync;
mod sim_flights;
mod timeseries;
mod topology;

pub use datagram::{
    datagram_pair, library_datagram_server, DatagramEndpoint, DatagramLinkConfig, DatagramLinkStats,
};
pub use engine::{run_in_memory, ClientEngine, RunReport, ServerEngine};
pub use flight::{library_server, FlightLink, FlightLinkTo};
pub use gossip::{Cluster, ClusterConfig, ConvergenceReport, NodeStats, RoundReport};
pub use link::{LinkConfig, LinkDirection, SimLink};
pub use mux::ServerMux;
pub use pairsync::{reconcile_pair, PairOutcome, PairSyncConfig};
pub use reconcile_core::framing::{read_frame, write_frame, MAX_FRAME_BYTES};
pub use sim_flights::SimFlights;
pub use timeseries::TimeSeries;
pub use topology::Topology;

// The tests of `reconcile_core`'s handshake and stream client, and of
// `cluster`'s clients, that need the library's stream server or its flight
// link, under the names of the modules they test.
#[cfg(test)]
mod client {
    mod tests;
}
#[cfg(test)]
mod handshake {
    mod tests;
}
#[cfg(test)]
mod tcp_sync {
    mod tests;
}
#[cfg(test)]
mod udp_sync {
    mod tests;
}

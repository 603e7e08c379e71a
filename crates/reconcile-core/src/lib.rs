//! # reconcile-core — one service layer over every reconciliation scheme
//!
//! The paper's evaluation (§7) compares Rateless IBLT against fixed-rate
//! IBLTs, MET-IBLT, PinSketch and Merkle-trie healing *under identical
//! protocol conditions*. This crate is the architectural counterpart of
//! that claim: a single [`ReconcileBackend`] trait capturing both the
//! rateless streaming flow and the fixed-size request/response flow, plus a
//! transport-agnostic session engine ([`ClientEngine`] / [`ServerEngine`] /
//! [`run_in_memory`]) that drives any backend over opaque byte messages.
//!
//! Higher layers — the `statesync` virtual-time driver, the experiment
//! binaries, the examples — select schemes through this trait, so adding a
//! transport (sharding, multi-peer fan-out, real sockets) is written once
//! and works for every scheme. The crate itself holds one scheme's adapter,
//! the shipped one: Rateless IBLT ([`backends`]). The baselines' adapters
//! (regular IBLT, MET-IBLT, PinSketch, Merkle-trie heal) live in
//! `statesync::backends`, outside the product the daemon links.
//!
//! For real connections the crate also owns the byte-level transport
//! plumbing: [`framing`] is the length-prefixed frame codec over any
//! [`std::io::Read`]` + `[`std::io::Write`] stream, and [`handshake`] is the
//! versioned hello exchange (magic, protocol version, SipKey fingerprint,
//! shard-count negotiation) the `reconciled` daemon speaks in front of the
//! multiplexed [`MuxFrame`] protocol, and [`FirstFlight`] sizes what a
//! server sends before the client has decoded anything.
//! [`sync_sharded_tcp`] is that protocol's one client, over any
//! `Read + Write` stream. See
//! `ARCHITECTURE.md` at the repository root for the full wire-format
//! reference.
//!
//! ## Quick start
//!
//! ```
//! use reconcile_core::{backends::RibltBackend, run_in_memory};
//! use riblt::FixedBytes;
//!
//! type Item = FixedBytes<8>;
//! let alice: Vec<Item> = (0..1_000u64).map(Item::from_u64).collect();
//! let bob: Vec<Item> = (5..1_005u64).map(Item::from_u64).collect();
//!
//! let backend = RibltBackend::<Item>::new(8, 16);
//! let report = run_in_memory(backend, &alice, &bob, 10_000).unwrap();
//! assert_eq!(report.difference.remote_only.len(), 5);
//! assert_eq!(report.difference.local_only.len(), 5);
//! ```

#![deny(missing_docs)]

mod backend;
pub mod backends;
pub mod datagram;
mod engine;
mod error;
pub mod first_flight;
pub mod framing;
pub mod handshake;
pub mod mux;
pub mod shard;
pub mod tcp_sync;
pub mod window;
pub mod wirefmt;

// The unit tests talk to `netsim`'s reference server, the same source file
// (a dev-dependency on `netsim` would link a second copy of this crate,
// whose types are not these). That file names this crate by its name.
#[cfg(test)]
extern crate self as reconcile_core;
#[cfg(test)]
#[path = "../../netsim/src/flight.rs"]
mod flight;

pub use backend::{Absorbed, Progress, ReconcileBackend, StreamProgress};
pub use datagram::{
    handle_server_datagram, max_symbols_in_budget, session_cookie, BatchSequencer, DatagramEvent,
    DatagramHeader, DatagramKind, DatagramServiceConfig, UdpSessionTable, DATAGRAM_HEADER_BYTES,
    DEFAULT_MTU_BUDGET,
};
pub use engine::{
    run_in_memory, ClientEngine, EngineMessage, RangeRequest, RunReport, ServerEngine,
    ShardEndpoint,
};
pub use error::{EngineError, Result};
pub use first_flight::{CountSketch, FirstFlight};
pub use framing::{
    append_frame, read_frame, read_frame_or_eof, read_mux_frame, write_frame, write_mux_frame,
    FrameBuffer, LENGTH_PREFIX_BYTES, MAX_FRAME_BYTES,
};
pub use handshake::{
    client_handshake, client_handshake_pipelined, key_fingerprint, server_handshake, Hello,
    PROTOCOL_VERSION,
};
pub use mux::{ClientMux, MuxFrame, MuxMetrics, ServerMux, MUX_HEADER_BYTES};
pub use shard::{Grouping, SessionId, ShardId, ShardPartitioner, SHARD_ALL};
pub use tcp_sync::{sync_sharded_tcp, TcpSyncConfig, TcpSyncOutcome};

/// Re-export of the difference type every backend emits.
pub use riblt::SetDifference;

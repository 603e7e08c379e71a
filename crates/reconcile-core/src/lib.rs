//! # reconcile-core — one service layer over every reconciliation scheme
//!
//! The paper's evaluation (§7) compares Rateless IBLT against fixed-rate
//! IBLTs, MET-IBLT, PinSketch and Merkle-trie healing *under identical
//! protocol conditions*. This crate is the architectural counterpart of
//! that claim: a single [`ReconcileBackend`] trait capturing both the
//! rateless streaming flow and the fixed-size request/response flow, and
//! the [`EngineMessage`]s its two endpoints exchange as opaque bytes.
//!
//! Higher layers select schemes through this trait, so a driver is written
//! once and works for every scheme; the sharded, multiplexed transport takes
//! the streaming schemes, whose opens need no rate. The crate itself holds
//! one scheme's adapter, the shipped one: Rateless IBLT ([`backends`]). The
//! baselines' adapters (regular IBLT, MET-IBLT, PinSketch, Merkle-trie heal)
//! live in `statesync::backends`, and the point-to-point engines that drive
//! any of them (`ServerEngine`, `ClientEngine`, `run_in_memory`) and the
//! library's reference server (`ServerMux`, `library_server`) in `netsim`:
//! all of it outside the product the daemon links.
//!
//! For real connections the crate owns the byte-level transport plumbing:
//! [`framing`] is the length-prefixed frame codec over any
//! [`std::io::Read`]` + `[`std::io::Write`] stream, and [`handshake`] is the
//! versioned hello exchange (magic, protocol version, SipKey fingerprint,
//! shard-count negotiation) the `reconciled` daemon speaks in front of the
//! multiplexed [`MuxFrame`] protocol, and [`FirstFlight`] sizes what a
//! server sends before the client has decoded anything.
//! [`sync_sharded_tcp`] is that protocol's one client, over any
//! `Read + Write` stream: it opens every shard with one wildcard `Open` and
//! drives them through a [`ClientMux`] built from the server's grant. The
//! stream client speaks only the rateless streaming flow. [`datagram`] is
//! the same protocol over UDP. The crate records no metrics: it does not
//! depend on `obs`. See `ARCHITECTURE.md` at the repository root for the
//! full wire-format reference.
//!
//! ## Quick start
//!
//! One shard's stream, served and absorbed through the trait until the
//! client has decoded:
//!
//! ```
//! use reconcile_core::{backends::RibltBackend, Progress, ReconcileBackend};
//! use riblt::FixedBytes;
//!
//! type Item = FixedBytes<8>;
//! let alice: Vec<Item> = (0..1_000u64).map(Item::from_u64).collect();
//! let bob: Vec<Item> = (5..1_005u64).map(Item::from_u64).collect();
//!
//! let backend = RibltBackend::<Item>::new(8, 16);
//! let mut server = backend.build_server(&alice);
//! let mut client = backend.build_client(&bob);
//! let open = backend.open_request(&mut client);
//! let mut payload = backend.serve(&mut server, Some(&open)).unwrap();
//! while backend.absorb(&mut client, &payload).unwrap() != Progress::Complete {
//!     payload = backend.serve(&mut server, None).unwrap();
//! }
//! let difference = backend.into_difference(client).unwrap();
//! assert_eq!(difference.remote_only.len(), 5);
//! assert_eq!(difference.local_only.len(), 5);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

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

pub use backend::{Absorbed, Progress, ReconcileBackend, StreamProgress};
pub use datagram::{
    handle_server_datagram, max_symbols_in_budget, session_cookie, BatchSequencer, DatagramEvent,
    DatagramHeader, DatagramKind, DatagramServiceConfig, UdpSessionTable, DATAGRAM_HEADER_BYTES,
    DEFAULT_MTU_BUDGET,
};
pub use engine::{EngineMessage, RangeRequest, ShardEndpoint};
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
pub use mux::{ClientMux, MuxFrame, MUX_HEADER_BYTES};
pub use shard::{Grouping, SessionId, ShardId, ShardPartitioner, SHARD_ALL};
pub use tcp_sync::{sync_sharded_tcp, TcpSyncConfig, TcpSyncOutcome};

/// Re-export of the difference type every backend emits.
pub use riblt::SetDifference;

//! End-to-end blockchain state synchronization (paper §7.3).
//!
//! This crate ties the workspace together into the paper's application
//! experiment: a synthetic Ethereum-like ledger ([`Ledger`], [`Chain`]),
//! synchronized between a stale and an up-to-date replica over a
//! deterministic simulated link by **any** reconciliation scheme that
//! implements `reconcile_core::ReconcileBackend` — Rateless IBLT
//! ([`sync_with_riblt`]), Merkle-trie state heal ([`sync_with_heal`],
//! via [`HealBackend`]), or any other backend through the generic
//! [`sync_with_backend`] driver. The driver folds real measured CPU time
//! into the virtual clock and reports a [`SyncOutcome`] with completion
//! time, byte counts, round counts and a bandwidth trace.
//!
//! The baselines of §7 sit beside it: [`backends`] holds the
//! `ReconcileBackend` adapters of regular IBLT, MET-IBLT and PinSketch, and
//! [`HealBackend`] is the Merkle-trie heal. None of them is linked by the
//! `reconciled` daemon.
//!
//! [`sync_sharded_tcp`] is the client half of the `reconciled` daemon's
//! wire protocol, over any byte stream (`Read + Write`), complete with the
//! versioned handshake and shard-count negotiation; it lives in
//! `reconcile-core` beside the multiplexer it drives, and is re-exported
//! here, as are [`SyncClient`], the shell an application holds, and
//! [`sync_sharded_udp`], the datagram client, both of which live in
//! `cluster`. [`sync_sharded_riblt`] runs the TCP client over the simulated
//! link, against the library's own server.

#![warn(missing_docs)]

pub mod backends;
pub mod chain;
pub mod heal_backend;
pub mod ledger;
pub mod metrics;
pub mod shard_sync;
pub mod sync;
mod wirefmt;

pub use chain::{BlockUpdate, Chain, ChainConfig};
pub use cluster::{sync_sharded_udp, SyncClient, UdpSyncConfig};
pub use heal_backend::HealBackend;
pub use ledger::{
    ledger_item, split_item, synth_account, synth_address, AccountState, Address, Ledger,
    LedgerItem, ACCOUNT_LEN, ADDRESS_LEN, ITEM_LEN,
};
pub use metrics::SyncOutcome;
pub use reconcile_core::{sync_sharded_tcp, TcpSyncConfig, TcpSyncOutcome};
pub use shard_sync::{sync_sharded_riblt, ShardedRibltConfig, ShardedSyncConfig};
pub use sync::{
    sync_with_backend, sync_with_heal, sync_with_riblt, HealSyncConfig, RibltSyncConfig, SyncConfig,
};

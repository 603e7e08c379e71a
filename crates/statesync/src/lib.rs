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
//! [`sync_sharded_tcp`] is the client half of the `reconciled` daemon's
//! wire protocol, over any byte stream (`Read + Write`), complete with the
//! versioned handshake and shard-count negotiation; it lives in
//! `reconcile-core` beside the multiplexer it drives, and is re-exported
//! here. [`sync_sharded_riblt`] runs it over the simulated link, against the
//! library's own server, and [`SyncClient`] is the shell an application
//! holds: it owns the local set.

#![warn(missing_docs)]

pub mod chain;
pub mod client;
pub mod heal_backend;
pub mod ledger;
pub mod metrics;
pub mod shard_sync;
pub mod sync;
pub mod udp_sync;

pub use chain::{BlockUpdate, Chain, ChainConfig};
pub use client::SyncClient;
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
pub use udp_sync::{
    sync_sharded_udp, DatagramConduit, LossyConduit, UdpSyncConfig, UdpSyncOutcome,
};

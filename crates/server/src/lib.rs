//! # server — the `reconciled` daemon and its client
//!
//! Everything below `crates/server` in the workspace runs over either an
//! in-memory loop or the deterministic simulator. This crate is the step
//! onto real infrastructure: a long-lived, std-only TCP daemon ([`Daemon`])
//! — a small pool of reactor threads over nonblocking sockets (see
//! [`event`] and [`reactor`]), the one way it serves — that
//!
//! * maintains one item set hash-partitioned into shards, each shard backed
//!   by a shared incrementally-maintained [`riblt::SketchCache`] (via
//!   [`cluster::Node`]) — coded symbols are computed **once** per set
//!   change and the same cells, wire-encoded once per shard generation,
//!   serve every connected peer at any staleness, each connection through
//!   its own [`cluster::Responder`];
//! * speaks the versioned handshake of
//!   [`reconcile_core::handshake`] (magic, protocol version, SipKey
//!   fingerprint, shard-count negotiation) in front of the multiplexed
//!   [`reconcile_core::MuxFrame`] wire protocol;
//! * enforces read/write timeouts on every connection (a silent peer can
//!   never wedge a serving thread), keeps per-connection byte
//!   accounting, and shuts down gracefully;
//! * exposes a line-oriented admin/metrics socket (`STATS`, `METRICS`,
//!   `TRACE`, `ADD <hex>`, `REMOVE <hex>`, `QUIT`, `SHUTDOWN`) so operators
//!   and tests can mutate and observe the set while peers are syncing —
//!   `METRICS` serves the daemon's full [`obs`]-backed metric surface in
//!   Prometheus text exposition format, `TRACE` the recent lifecycle
//!   events.
//!
//! The binaries `reconciled` (the daemon) and `reconcile-client` (drives
//! [`reconcile_core::sync_sharded_tcp`] against it, optionally pushing its
//! exclusive items back through the admin socket) turn the library into two
//! real OS processes that converge over localhost — see the repository's
//! `ARCHITECTURE.md` for the protocol reference and `README.md` for a
//! runnable quickstart.

#![warn(missing_docs)]

pub mod admin;
pub mod cli;
pub mod daemon;
pub mod event;
pub mod loadgen;
pub mod metrics;
pub mod reactor;

pub use admin::{admin_request, AdminClient, MULTILINE_END};
pub use daemon::{Daemon, DaemonConfig, DaemonStats};
pub use metrics::DaemonMetrics;

use riblt::Symbol;

/// Renders an item as lowercase hex, the encoding the admin protocol and
/// the item files of both binaries use.
pub fn item_to_hex<S: Symbol>(item: &S) -> String {
    let bytes = item.as_bytes();
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Parses an item from the hex encoding produced by [`item_to_hex`].
/// Returns `None` unless the string is exactly `2 * symbol_len` hex digits.
pub fn item_from_hex<S: Symbol>(hex: &str, symbol_len: usize) -> Option<S> {
    let hex = hex.trim();
    if hex.len() != symbol_len * 2 || !hex.is_ascii() {
        return None;
    }
    let mut bytes = Vec::with_capacity(symbol_len);
    for chunk in hex.as_bytes().chunks(2) {
        let pair = std::str::from_utf8(chunk).ok()?;
        bytes.push(u8::from_str_radix(pair, 16).ok()?);
    }
    Some(S::from_bytes(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

    #[test]
    fn hex_roundtrip() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            let item = Item::from_u64(v);
            let hex = item_to_hex(&item);
            assert_eq!(hex.len(), 16);
            assert_eq!(item_from_hex::<Item>(&hex, 8), Some(item));
        }
    }

    #[test]
    fn malformed_hex_is_rejected() {
        for bad in [
            "",
            "01",
            "zz00000000000000",
            "0123456789abcdef0",
            "é123456789abcdef",
        ] {
            assert_eq!(item_from_hex::<Item>(bad, 8), None, "{bad:?}");
        }
    }
}

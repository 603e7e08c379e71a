//! A hexary Merkle Patricia trie with the "state heal" synchronization
//! protocol — the production baseline (Geth) that §7.3 of the paper compares
//! Rateless IBLT against.
//!
//! * [`MerkleTrie`] — persistent hash-addressed trie (insert, get, leaves,
//!   historic roots).
//! * [`Node`] — node kinds, canonical serialization, hashing.
//! * [`HealClient`] / [`serve_node_request`] / [`heal_in_memory`] — the
//!   lock-step, batched node-request protocol and its byte/round accounting.
//!
//! Node hashes use a keyed 256-bit composite hash instead of Keccak-256;
//! DESIGN.md §4 records why this substitution does not affect the measured
//! quantities.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod heal;
mod nibbles;
mod node;
mod trie;

pub use heal::{heal_in_memory, serve_node_request, HealClient, HealStats};
pub use nibbles::{common_prefix_len, from_nibbles, pack, to_nibbles, unpack};
pub use node::Node;
pub use trie::MerkleTrie;

pub use riblt_hash::Hash256;

//! Hashing substrate for the Rateless IBLT workspace.
//!
//! This crate bundles the deterministic hashing and pseudorandom primitives
//! that the reconciliation schemes share:
//!
//! * [`siphash24`] / [`siphash24_many`] / [`SipHasher24`] — keyed 64-bit
//!   checksums (paper §4.3), one message or a set's worth at a time;
//! * [`splitmix64`] / [`SplitMix64`] — unkeyed mixing and workload synthesis;
//! * [`XorShift64Star`] — the per-symbol PRNG behind the index mapping (§4.2);
//! * [`hash256`] / [`Hash256`] — 256-bit composite hashing for the
//!   Merkle-trie baseline (a documented substitution for Keccak-256).
//!
//! Everything is implemented from scratch: the checksum and mapping
//! functions are part of the system the paper describes, not incidental
//! dependencies.

mod composite256;
mod siphash;
mod splitmix;
mod xorshift;

pub use composite256::{hash256, hash256_parts, Hash256};
pub use siphash::{siphash24, siphash24_many, SipHasher24, SipKey};
pub use splitmix::{splitmix64, SplitMix64};
pub use xorshift::XorShift64Star;

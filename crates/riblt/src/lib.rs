//! # Rateless Invertible Bloom Lookup Tables (Rateless IBLT)
//!
//! A Rust implementation of the set-reconciliation scheme from *Practical
//! Rateless Set Reconciliation* (Yang, Gilad, Alizadeh — ACM SIGCOMM 2024).
//!
//! Two parties, Alice and Bob, each hold a set of fixed-length items and
//! want to learn the symmetric difference. Alice encodes her set into an
//! *infinite* stream of coded symbols; Bob subtracts his own contribution
//! and peels the result. With high probability Bob finishes after receiving
//! roughly `1.35–1.72 × d` coded symbols, where `d` is the size of the
//! difference — no matter how large the sets are and without either party
//! knowing `d` in advance.
//!
//! ## Quick start
//!
//! ```
//! use riblt::{Decoder, Encoder, FixedBytes};
//!
//! type Item = FixedBytes<32>;
//!
//! // Alice's set.
//! let mut alice = Encoder::<Item>::new();
//! for i in 0..1_000u64 {
//!     alice.add_symbol(Item::from_u64(i)).unwrap();
//! }
//!
//! // Bob's set differs in a handful of items.
//! let mut bob = Decoder::<Item>::new();
//! for i in 3..1_003u64 {
//!     bob.add_symbol(Item::from_u64(i)).unwrap();
//! }
//!
//! // Alice streams coded symbols until Bob signals completion.
//! let mut sent = 0;
//! while !bob.is_decoded() {
//!     bob.add_coded_symbol(alice.produce_next_coded_symbol());
//!     sent += 1;
//! }
//! let diff = bob.into_difference();
//! assert_eq!(diff.remote_only.len() + diff.local_only.len(), 6);
//! assert!(sent <= 30); // ≈ 1.35–1.72 × d, not 1,000
//! ```
//!
//! ## Module map
//!
//! * [`symbol`] — the [`Symbol`] trait and ready-made item types.
//! * [`mapping`] — the ρ(i) = 1/(1+αi) index mapping, its O(1) sampler,
//!   and the [`MappingRule`] that picks each symbol's α: [`Uniform`] for the
//!   regular design, [`IrregularClasses`] for the irregular one.
//! * [`coded`] — coded-symbol format and arithmetic.
//! * [`encoder`] / [`decoder`] — the streaming protocol endpoints, generic
//!   over the rule.
//! * [`sketch`] — fixed-size sketches (generic over the rule) and
//!   incrementally maintained caches.
//! * `peel` (private) — the one peeling loop behind [`Decoder`] and
//!   [`Sketch::decode`], and the consistency bound it enforces.
//! * [`irregular`] — the Irregular Rateless IBLT extension (paper §8): the
//!   class rule, and [`IrregularEncoder`] / [`IrregularDecoder`] /
//!   [`IrregularSketch`] as aliases of the types above under it.
//! * [`wire`] — the byte-level wire format with compressed `count` fields
//!   (paper §6).
//!
//! Full reconciliation *sessions* (request/stream/stop over an arbitrary
//! message transport) are driven by the scheme-agnostic engine in the
//! `reconcile-core` crate, which plugs this crate in through its
//! `ReconcileBackend` trait.

#![deny(missing_docs)]

pub mod coded;
pub mod decoder;
pub mod encoder;
pub mod error;
pub mod irregular;
pub mod mapping;
mod peel;
pub mod sketch;
pub mod symbol;
pub mod wire;

pub use coded::{CodedSymbol, Direction};
pub use decoder::{Decoder, DifferenceEstimate, SetDifference};
pub use encoder::Encoder;
pub use error::{Error, Result};
pub use irregular::{IrregularClasses, IrregularDecoder, IrregularEncoder, IrregularSketch};
pub use mapping::{mapped_probability, rho, IndexMapping, MappingRule, Uniform, DEFAULT_ALPHA};
pub use sketch::{Sketch, SketchCache};
pub use symbol::{xor_bytes_in_place, FixedBytes, HashedSymbol, Symbol, VecSymbol};
pub use wire::{decode_coded_symbols, encode_coded_symbols, SymbolCodec};

/// Re-export of the keyed-hash key type used throughout the API.
pub use riblt_hash::SipKey;

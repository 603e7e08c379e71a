//! Workspace umbrella crate.
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`) of the Rateless IBLT workspace;
//! it simply re-exports the member crates. Depend on the individual crates
//! (`riblt`, `iblt`, `pinsketch`, …) in real applications.

#![forbid(unsafe_code)]

pub use analysis;
pub use cluster;
pub use iblt;
pub use merkle_trie;
pub use met_iblt;
pub use netsim;
pub use pinsketch;
pub use reconcile_core;
pub use riblt;
pub use riblt_hash;
pub use server;
pub use statesync;

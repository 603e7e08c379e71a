//! `reconcile_core::ReconcileBackend` adapters for the baselines of §7, the
//! sketch families the paper measures Rateless IBLT against.
//!
//! | Backend | Scheme | Flow |
//! |---|---|---|
//! | [`IbltBackend`] | regular IBLT + strata estimator | interactive |
//! | [`MetIbltBackend`] | MET-IBLT extension blocks | interactive |
//! | [`PinSketchBackend`] | BCH syndromes (PinSketch) | interactive |
//! | [`HealBackend`](crate::HealBackend) | Merkle-trie state heal | interactive |
//!
//! The shipped scheme's adapters, `RibltBackend` and its irregular variant,
//! stay in `reconcile_core::backends`, beside the protocol that runs them.

mod iblt;
mod met;
mod pinsketch;

pub use self::iblt::{IbltBackend, IbltClient, IbltServer};
pub use self::met::{MetClient, MetIbltBackend, MetServer};
pub use self::pinsketch::{PinClient, PinItem, PinServer, PinSketchBackend};

//! [`crate::ReconcileBackend`] adapters for the sketch families in the
//! workspace.
//!
//! | Backend | Scheme | Flow |
//! |---|---|---|
//! | [`RibltBackend`] | Rateless IBLT (paper) | streaming |
//! | [`IrregularRibltBackend`] | Irregular Rateless IBLT (§8): [`RibltBackend`] under `riblt::IrregularClasses` | streaming |
//! | [`IbltBackend`] | regular IBLT + strata estimator | interactive |
//! | [`MetIbltBackend`] | MET-IBLT extension blocks | interactive |
//! | [`PinSketchBackend`] | BCH syndromes (PinSketch) | interactive |
//!
//! The two streaming rows are one implementation, generic over the
//! `riblt::MappingRule`; a [`StreamRule`] adds the backend name and the
//! opening magic that tell their streams apart on the wire.
//!
//! The Merkle-trie heal baseline implements the same trait in `statesync`,
//! where ledger-specific keying lives.

mod iblt;
mod met;
mod pinsketch;
mod riblt;

pub use self::iblt::{IbltBackend, IbltClient, IbltServer};
pub use self::met::{MetClient, MetIbltBackend, MetServer};
pub use self::pinsketch::{PinClient, PinItem, PinServer, PinSketchBackend};
pub use self::riblt::{
    IrregularClient, IrregularRibltBackend, IrregularServer, RibltBackend, RibltClient,
    RibltServer, StreamRule, RIBLT_STREAM_MAGIC,
};

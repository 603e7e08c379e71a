//! [`crate::ReconcileBackend`] adapters for Rateless IBLT, the scheme the
//! protocol ships.
//!
//! | Backend | Scheme | Flow |
//! |---|---|---|
//! | [`RibltBackend`] | Rateless IBLT (paper) | streaming |
//! | [`IrregularRibltBackend`] | Irregular Rateless IBLT (§8): [`RibltBackend`] under `riblt::IrregularClasses` | streaming |
//!
//! The two rows are one implementation, generic over the
//! `riblt::MappingRule`; a [`StreamRule`] adds the backend name and the
//! opening magic that tell their streams apart on the wire.
//!
//! The baselines of §7 (regular IBLT, MET-IBLT, PinSketch and the
//! Merkle-trie heal) implement the same trait in `statesync::backends`.

mod riblt;

pub use self::riblt::{
    IrregularClient, IrregularRibltBackend, IrregularServer, RibltBackend, RibltClient,
    RibltServer, StreamRule, RIBLT_STREAM_MAGIC,
};

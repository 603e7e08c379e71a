//! MET-IBLT: a rate-compatible, multi-block IBLT baseline (Lázaro & Matuz,
//! IEEE Trans. Commun. 2023), as compared against in §7.1 of the paper.
//!
//! The construction pre-selects a ladder of difference sizes and builds one
//! extension block per rung; receivers fetch blocks in order until joint
//! peeling succeeds. See DESIGN.md §4 for how our parameterization
//! substitutes for the original optimization tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod table;

pub use block::{block_key, build_specs, BlockSpec, DEFAULT_TARGETS};
pub use table::{joint_decode, MetDecode, MetIblt};

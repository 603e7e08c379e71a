//! Regular (fixed-size) Invertible Bloom Lookup Tables — the principal
//! non-rateless baseline of the paper's evaluation (§7.1), together with the
//! strata estimator deployments pair it with.
//!
//! * [`Iblt`] — a `k`-hash, `m`-cell table supporting insert/delete,
//!   subtraction and peeling.
//! * [`IbltParams`] / [`recommended`] / [`calibrate`] — parameter selection,
//!   including the empirical search used by the Fig. 7 harness.
//! * [`StrataEstimator`] — the difference-size estimator whose ≈15 KB
//!   up-front cost is charged to the "Regular IBLT + Estimator" baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cell;
mod params;
mod strata;
mod table;

pub use cell::Cell;
pub use params::{calibrate, recommended, Calibration, IbltParams, ESTIMATOR_WIRE_BYTES};
pub use strata::StrataEstimator;
pub use table::{DecodeOutcome, Iblt};

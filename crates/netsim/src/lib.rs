//! Network substrate for the end-to-end experiments.
//!
//! * [`SimLink`] / [`LinkConfig`] — deterministic virtual-time link with
//!   propagation delay and bandwidth caps, substituting for the paper's
//!   Dummynet testbed (DESIGN.md §4).
//! * [`Topology`] — a full mesh of per-pair links with per-node byte
//!   accounting, for the N-node cluster experiments.
//! * [`datagram_pair`] — an in-process lossy datagram link (seeded loss,
//!   duplication, adjacent reordering) for exercising the UDP transport
//!   without sockets, and [`library_datagram_server`], the library's
//!   datagram server to put on its far end.
//! * [`FlightLink`] / [`library_server`] — an in-memory `Read + Write` link
//!   that counts round trips and records what each side said, with the
//!   library's own handshake-and-mux server behind it: the reference the
//!   `reconciled` daemon's wire output is compared against.
//! * [`TimeSeries`] — byte-delivery accounting for bandwidth traces
//!   (Fig. 13).
//! * [`write_frame`] / [`read_frame`] — re-exports of the canonical
//!   length-prefixed frame codec, which lives in `reconcile_core::framing`
//!   (one implementation over any `Read + Write` serves the simulator
//!   examples, the `reconciled` daemon, and the tests alike).

#![warn(missing_docs)]

mod datagram;
mod flight;
mod link;
mod timeseries;
mod topology;

pub use datagram::{
    datagram_pair, library_datagram_server, DatagramEndpoint, DatagramLinkConfig, DatagramLinkStats,
};
pub use flight::{library_server, FlightLink};
pub use link::{LinkConfig, LinkDirection, SimLink};
pub use reconcile_core::framing::{read_frame, write_frame, MAX_FRAME_BYTES};
pub use timeseries::TimeSeries;
pub use topology::Topology;

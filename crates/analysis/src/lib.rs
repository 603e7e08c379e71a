//! Analysis toolkit: density evolution and Monte Carlo simulation of
//! Rateless IBLT (paper §5 and the simulated parts of §7.1 / §8).
//!
//! * [`ei`] — the exponential integral needed by Theorem 5.1.
//! * [`density_evolution`] — the asymptotic threshold η*(α) and the
//!   decode-progress prediction.
//! * [`monte_carlo`] — finite-d simulations (overhead vs d / α, decode
//!   progress, irregular variant), multi-threaded across trials.
//! * [`stats`] — summary statistics and log-spaced sweeps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod density_evolution;
pub mod ei;
pub mod monte_carlo;
pub mod stats;

pub use density_evolution::{
    de_map, decodable, recovered_fraction, recovery_trajectory, threshold,
};
pub use ei::{e1, ei_negative, EULER_GAMMA};
pub use monte_carlo::{
    decode_progress, irregular_overhead_summary, overhead_summary, random_set, symbols_to_decode,
    symbols_to_decode_irregular, SimSymbol,
};
pub use stats::{log_spaced, Summary};

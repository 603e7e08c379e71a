//! Zero-dependency observability: lock-free counters and gauges, log-linear
//! latency histograms with quantile extraction, RAII span timers, a bounded
//! ring of structured lifecycle events, and a [`Registry`] that renders
//! everything as Prometheus text exposition.
//!
//! ## Design
//!
//! Hot-path updates are single relaxed atomic operations — a counter
//! increment is one `fetch_add`, a histogram observation is four (bucket,
//! count, sum, max). Nothing on the update path allocates, locks, or
//! branches on configuration. The only mutexes in the crate guard the
//! registry's series list (touched at registration and render time) and
//! the event ring (touched per connection/session, never per symbol), and
//! both recover from poisoning via [`lock_unpoisoned`].
//!
//! ## Disabling instrumentation
//!
//! Building with `--no-default-features` turns every instrument into a
//! zero-sized type whose methods are empty `#[inline]` bodies, so the
//! compiler erases instrumentation entirely; the overhead benchmark in
//! `crates/bench` measures the default (enabled) configuration against the
//! uninstrumented hot loops and holds the difference under 2%.
//!
//! ## Ownership model
//!
//! Components with a natural owner and lifecycle (the `reconciled` daemon)
//! construct their own [`Registry`] so concurrent instances — e.g. two
//! daemons inside one test process — never share series. Library layers
//! with no owner to hang state on (cluster worker pools, statesync muxes)
//! use the process-wide [`global`] registry.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
mod expose;
mod histogram;
mod registry;
mod ring;
mod span;

pub use counter::{Counter, Gauge};
pub use expose::{sample_value, validate_prometheus, ExpositionSummary};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{global, Registry, NANOS_SCALE};
pub use ring::{Event, EventRing};
pub use span::SpanTimer;

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Metrics and event state stay meaningful across a poisoned lock — a
/// panicked recorder must never take the admin plane down with it — so
/// every mutex in this crate (and the daemon's shared state) is acquired
/// through this helper instead of `lock().expect(...)`.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unpoisoned_recovers_after_a_panicked_holder() {
        let m = std::sync::Arc::new(Mutex::new(41));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().expect("first lock");
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "mutex should be poisoned");
        let mut guard = lock_unpoisoned(&m);
        *guard += 1;
        assert_eq!(*guard, 42);
    }
}

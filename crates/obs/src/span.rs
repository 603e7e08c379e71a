//! RAII span timers: time a scope into a [`Histogram`].
//!
//! ```
//! use std::sync::Arc;
//! let hist = Arc::new(obs::Histogram::new());
//! {
//!     let _span = obs::SpanTimer::start(&hist);
//!     // ... the timed work ...
//! } // drop records the elapsed nanoseconds
//! # let _ = hist.count();
//! ```

use std::sync::Arc;
use std::time::Instant;

use crate::Histogram;

/// Times from construction to drop (or [`SpanTimer::stop`]) and records
/// the elapsed **nanoseconds** into its histogram — pair the series with an
/// exposition scale of `1e-9` so it renders in seconds.
#[derive(Debug)]
pub struct SpanTimer {
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanTimer {
    /// Starts timing into `hist`.
    #[inline]
    pub fn start(hist: &Arc<Histogram>) -> SpanTimer {
        SpanTimer {
            hist: Arc::clone(hist),
            start: Instant::now(),
        }
    }

    /// Ends the span now (equivalent to dropping it, but explicit at call
    /// sites where the scope end is not the measurement end).
    #[inline]
    pub fn stop(self) {}
}

impl Drop for SpanTimer {
    #[inline]
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos();
        self.hist.observe(nanos.min(u64::MAX as u128) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_once_on_drop() {
        let hist = Arc::new(Histogram::new());
        {
            let _span = SpanTimer::start(&hist);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(hist.count(), 1);
        assert!(
            hist.max() >= 1_000_000,
            "at least 1ms in ns: {}",
            hist.max()
        );
        SpanTimer::start(&hist).stop();
        assert_eq!(hist.count(), 2);
    }
}

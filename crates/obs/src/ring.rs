//! A fixed-capacity ring buffer of structured lifecycle events.
//!
//! The ring answers "what just happened?" — the last N accepts, handshake
//! failures, session completions, admin mutations — without logging
//! infrastructure. Recording is a short critical section (one `VecDeque`
//! push plus a possible pop) on a poison-recovering mutex, so a panicked
//! recorder can never wedge the ring; events are coarse-grained (per
//! connection / session / admin command, never per symbol) so the lock is
//! not on any hot path.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::lock_unpoisoned;

/// One recorded lifecycle event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (1-based, never reused).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub micros: u64,
    /// Event kind, a static label (`"conn_accept"`, `"session_done"`, …).
    pub kind: &'static str,
    /// Free-form detail (`peer=…`, `shard=3 units=96`, …).
    pub detail: String,
}

impl Event {
    /// Renders the event as one admin-protocol `TRACE` line.
    pub fn render(&self) -> String {
        format!(
            "#{} +{}us {} {}",
            self.seq, self.micros, self.kind, self.detail
        )
    }
}

#[derive(Debug)]
struct RingInner {
    next_seq: u64,
    events: VecDeque<Event>,
}

/// Fixed-capacity event ring: the newest `capacity` events win.
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingInner>,
    capacity: usize,
    epoch: Instant,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            inner: Mutex::new(RingInner {
                next_seq: 1,
                events: VecDeque::with_capacity(capacity.max(1)),
            }),
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    /// Records an event, evicting the oldest once full.
    pub fn record(&self, kind: &'static str, detail: impl Into<String>) {
        let micros = self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut inner = lock_unpoisoned(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(Event {
            seq,
            micros,
            kind,
            detail: detail.into(),
        });
    }

    /// The newest `n` events, oldest first.
    pub fn last(&self, n: usize) -> Vec<Event> {
        let inner = lock_unpoisoned(&self.inner);
        let skip = inner.events.len().saturating_sub(n);
        inner.events.iter().skip(skip).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_events_in_order() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.record("tick", format!("i={i}"));
        }
        // Five recorded, the newest three held.
        let last = ring.last(10);
        let seqs: Vec<u64> = last.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(last[2].detail, "i=4");
        let tail = ring.last(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].seq, 5);
    }

    #[test]
    fn render_is_one_line() {
        let ring = EventRing::new(8);
        ring.record("conn_accept", "peer=127.0.0.1:9");
        let line = ring.last(1)[0].render();
        assert!(line.starts_with("#1 +"), "{line}");
        assert!(line.contains("conn_accept peer=127.0.0.1:9"), "{line}");
        assert!(!line.contains('\n'));
    }
}

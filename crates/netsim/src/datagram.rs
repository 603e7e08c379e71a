//! In-process lossy datagram link for exercising the UDP transport.
//!
//! [`datagram_pair`] returns two connected [`DatagramEndpoint`]s over
//! bounded in-memory queues. Impairments — loss, duplication, adjacent
//! reordering — are applied at *send* time from a seeded xorshift stream,
//! so a run is reproducible from its seed alone. Unlike [`crate::SimLink`]
//! this link is real-time (endpoints live on real threads driving real
//! session-layer code), but it needs no sockets, no root, and no `tc`.
//!
//! Reordering uses a one-slot stash: a datagram selected for reordering is
//! held back and transmitted *after* the next send, swapping two adjacent
//! datagrams — the dominant reordering pattern on real paths (a packet
//! overtaken by its successor). A stashed datagram with no successor is
//! flushed by [`DatagramEndpoint::flush`] or effectively lost, which the
//! rateless session layer must tolerate anyway.
//!
//! [`library_datagram_server`] puts the library's datagram server on the
//! far end of such a link.

use std::io;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use cluster::{DatagramConduit, Node, NodeConfig};
use reconcile_core::datagram::{handle_server_datagram, DatagramEvent, DatagramService};
use reconcile_core::handshake::Hello;
use riblt::Symbol;
use riblt_hash::XorShift64Star;

/// Impairment parameters of one direction of a datagram link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatagramLinkConfig {
    /// Probability a sent datagram is silently dropped.
    pub loss: f64,
    /// Probability a delivered datagram is delivered twice.
    pub duplicate: f64,
    /// Probability a datagram is held back and swapped with its successor.
    pub reorder: f64,
    /// Seed of the per-endpoint impairment stream.
    pub seed: u64,
}

impl Default for DatagramLinkConfig {
    fn default() -> Self {
        DatagramLinkConfig {
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            seed: 1,
        }
    }
}

impl DatagramLinkConfig {
    /// A link dropping `loss` of datagrams (both directions), with light
    /// duplication and reordering scaled to the loss rate — the shape of a
    /// congested real path.
    pub fn lossy(loss: f64, seed: u64) -> Self {
        DatagramLinkConfig {
            loss,
            duplicate: loss * 0.25,
            reorder: loss * 0.5,
            seed,
        }
    }
}

/// Counters of what the impairments did at one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatagramLinkStats {
    /// Datagrams offered to `send`.
    pub offered: u64,
    /// Datagrams dropped by the loss roll.
    pub dropped: u64,
    /// Extra copies delivered by the duplication roll.
    pub duplicated: u64,
    /// Adjacent swaps performed by the reorder roll.
    pub reordered: u64,
}

/// One end of an in-process lossy datagram link.
#[derive(Debug)]
pub struct DatagramEndpoint {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    rng: XorShift64Star,
    config: DatagramLinkConfig,
    stash: Option<Vec<u8>>,
    stats: DatagramLinkStats,
}

/// Builds a connected endpoint pair sharing one impairment configuration
/// (each endpoint rolls its own stream, offset from the seed, so the two
/// directions are independent).
pub fn datagram_pair(config: DatagramLinkConfig) -> (DatagramEndpoint, DatagramEndpoint) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let a = DatagramEndpoint {
        tx: a_tx,
        rx: a_rx,
        rng: XorShift64Star::new(config.seed.wrapping_mul(2).wrapping_add(1)),
        config,
        stash: None,
        stats: DatagramLinkStats::default(),
    };
    let b = DatagramEndpoint {
        tx: b_tx,
        rx: b_rx,
        rng: XorShift64Star::new(config.seed.wrapping_mul(2).wrapping_add(2)),
        config,
        stash: None,
        stats: DatagramLinkStats::default(),
    };
    (a, b)
}

impl DatagramEndpoint {
    fn roll(&mut self, probability: f64) -> bool {
        probability > 0.0 && self.rng.next_f64() < probability
    }

    fn transmit(&mut self, datagram: Vec<u8>) {
        // A closed peer makes every send a silent drop — exactly how UDP
        // behaves when nobody is listening.
        let _ = self.tx.send(datagram);
    }

    /// Sends one datagram through the impairments.
    pub fn send(&mut self, datagram: &[u8]) {
        self.stats.offered += 1;
        if self.roll(self.config.loss) {
            self.stats.dropped += 1;
            return;
        }
        if let Some(stashed) = self.stash.take() {
            // Deliver the newer datagram first, then the held-back one:
            // the adjacent swap.
            self.stats.reordered += 1;
            self.transmit(datagram.to_vec());
            self.transmit(stashed);
        } else if self.roll(self.config.reorder) {
            self.stash = Some(datagram.to_vec());
            return;
        } else {
            self.transmit(datagram.to_vec());
        }
        if self.roll(self.config.duplicate) {
            self.stats.duplicated += 1;
            self.transmit(datagram.to_vec());
        }
    }

    /// Transmits a stashed reorder candidate, if any (call when the
    /// conversation goes quiet so the last datagram is not stranded).
    pub fn flush(&mut self) {
        if let Some(stashed) = self.stash.take() {
            self.transmit(stashed);
        }
    }

    /// Receives the next datagram, waiting up to `timeout`. `None` on
    /// timeout or when the peer endpoint is gone.
    pub fn recv(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        match self.rx.recv_timeout(timeout) {
            Ok(datagram) => Some(datagram),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// What the impairments did at this endpoint so far.
    pub fn stats(&self) -> DatagramLinkStats {
        self.stats
    }
}

impl DatagramConduit for DatagramEndpoint {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        DatagramEndpoint::send(self, datagram);
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        Ok(DatagramEndpoint::recv(self, timeout))
    }
}

/// How long [`library_datagram_server`] waits for a datagram before it
/// counts the link as quiet once more.
const QUIET_POLL: Duration = Duration::from_millis(100);

/// Quiet polls after which [`library_datagram_server`] gives up on its
/// client: five seconds of silence. A link whose client endpoint is gone
/// answers every poll at once, so then it takes no time at all.
const QUIET_POLLS: usize = 50;

/// The library's datagram server, on the far end of `endpoint`:
/// [`handle_server_datagram`] under a [`DatagramService`] of the daemon's
/// default unit budget, serving the tiles of a [`Node`] over `items` under
/// `config` ([`Node::serve_tile`]), as the daemon's UDP half does. It
/// answers until its client has sent `Done` for every shard or the link
/// has been quiet for five seconds, so a caller runs it on a thread of its
/// own, drops its client's endpoint and joins it.
pub fn library_datagram_server<S: Symbol + Ord>(
    mut endpoint: DatagramEndpoint,
    items: &[S],
    config: NodeConfig,
) {
    let shards = config.shards;
    let service = DatagramService::new(Hello::new(config.key, shards, config.symbol_len), 1 << 20);
    let mut node = Node::new(0, config);
    node.extend(items.iter().cloned());
    // The service keeps no session; the loop keeps the one it serves.
    let mut done = vec![false; usize::from(shards)];
    let mut quiet = 0;
    while quiet < QUIET_POLLS && done.contains(&false) {
        let Some(datagram) = endpoint.recv(QUIET_POLL) else {
            quiet += 1;
            continue;
        };
        quiet = 0;
        let (replies, event) = handle_server_datagram(
            &service,
            b"netsim-client",
            &datagram,
            |shard, start, count| Some(node.serve_tile(shard, start as usize, count).0.to_vec()),
        );
        for reply in replies {
            endpoint.send(&reply);
        }
        endpoint.flush();
        if let DatagramEvent::Done { shard, .. } = event {
            done[usize::from(shard)] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_delivers_in_order() {
        let (mut a, mut b) = datagram_pair(DatagramLinkConfig::default());
        for i in 0..10u8 {
            a.send(&[i]);
        }
        for i in 0..10u8 {
            assert_eq!(b.recv(Duration::from_secs(1)), Some(vec![i]));
        }
        assert!(b.recv(Duration::from_millis(10)).is_none());
        assert_eq!(a.stats().dropped, 0);
    }

    #[test]
    fn both_directions_work() {
        let (mut a, mut b) = datagram_pair(DatagramLinkConfig::default());
        a.send(b"ping");
        assert_eq!(b.recv(Duration::from_secs(1)), Some(b"ping".to_vec()));
        b.send(b"pong");
        assert_eq!(a.recv(Duration::from_secs(1)), Some(b"pong".to_vec()));
    }

    #[test]
    fn loss_drops_roughly_the_configured_fraction() {
        let (mut a, mut b) = datagram_pair(DatagramLinkConfig {
            loss: 0.3,
            seed: 7,
            ..Default::default()
        });
        for i in 0..1000u16 {
            a.send(&i.to_le_bytes());
        }
        let mut delivered = 0;
        while b.recv(Duration::from_millis(5)).is_some() {
            delivered += 1;
        }
        let stats = a.stats();
        assert_eq!(stats.offered, 1000);
        assert_eq!(delivered, 1000 - stats.dropped);
        assert!(
            (200..400).contains(&stats.dropped),
            "dropped {}",
            stats.dropped
        );
    }

    #[test]
    fn duplication_and_reordering_are_observable_and_deterministic() {
        let run = || {
            let (mut a, mut b) = datagram_pair(DatagramLinkConfig {
                duplicate: 0.2,
                reorder: 0.3,
                seed: 42,
                ..Default::default()
            });
            for i in 0..200u16 {
                a.send(&i.to_le_bytes());
            }
            a.flush();
            let mut got = Vec::new();
            while let Some(d) = b.recv(Duration::from_millis(5)) {
                got.push(u16::from_le_bytes([d[0], d[1]]));
            }
            (got, a.stats())
        };
        let (got, stats) = run();
        assert!(stats.duplicated > 10, "{stats:?}");
        assert!(stats.reordered > 20, "{stats:?}");
        // Everything offered arrives (plus duplicates), just not in order.
        assert_eq!(got.len() as u64, stats.offered + stats.duplicated);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 200);
        assert_ne!(got, {
            let mut s = got.clone();
            s.sort_unstable();
            s
        });
        // Same seed, same trace.
        let (again, stats_again) = run();
        assert_eq!(got, again);
        assert_eq!(stats, stats_again);
    }
}

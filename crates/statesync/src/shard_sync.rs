//! Sharded ledger synchronization over the simulated link: the shipped
//! client ([`crate::sync_sharded_tcp`]) against the library's own server
//! ([`netsim::library_server`]), every flight charged to a [`SimLink`].
//!
//! Where the single-session driver ([`crate::sync_with_backend`]) peels one
//! stream for the whole ledger (the bottleneck at production state sizes,
//! paper §7.2), this runs the `reconciled` protocol over S hash shards,
//! decoded in parallel. The virtual clock charges the client's *wall* time
//! between flights — its hashing and set-up pass and the parallel decode
//! phases — so multi-core speedups show in completion times, as they would
//! on real hardware.

use std::io::{self, Read, Write};
use std::time::Instant;

use netsim::{library_server, FlightLink, LinkDirection, SimLink};
use reconcile_core::backends::RibltBackend;
use reconcile_core::handshake::Hello;
use reconcile_core::{read_frame, read_mux_frame, EngineMessage};
use riblt_hash::SipKey;

use crate::ledger::{Ledger, LedgerItem, ITEM_LEN};
use crate::metrics::SyncOutcome;
use crate::sync::SyncConfig;
use crate::tcp_sync::{sync_sharded_tcp, TcpSyncConfig};

/// Configuration of a sharded synchronization run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedSyncConfig {
    /// Number of keyspace shards (one engine session each).
    pub shards: u16,
    /// Decode worker threads on the stale replica (0 = one per core).
    pub threads: usize,
    /// Keyed-hash key of the shard partition — must match on both replicas.
    pub key: SipKey,
    /// Transport parameters.
    pub base: SyncConfig,
}

impl Default for ShardedSyncConfig {
    fn default() -> Self {
        ShardedSyncConfig {
            shards: 16,
            threads: 0,
            key: SipKey::default(),
            base: SyncConfig::default(),
        }
    }
}

/// Configuration of a sharded Rateless IBLT synchronization run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedRibltConfig {
    /// Coded symbols per shard per payload frame.
    pub batch_symbols: usize,
    /// Sharding and transport parameters.
    pub sharding: ShardedSyncConfig,
}

impl Default for ShardedRibltConfig {
    fn default() -> Self {
        ShardedRibltConfig {
            batch_symbols: 32,
            sharding: ShardedSyncConfig::default(),
        }
    }
}

/// Synchronizes `stale` to `latest` with Rateless IBLT across hash shards:
/// the sharded counterpart of [`crate::sync_with_riblt`].
pub fn sync_sharded_riblt(
    latest: &Ledger,
    stale: &Ledger,
    config: ShardedRibltConfig,
) -> reconcile_core::Result<(Ledger, SyncOutcome)> {
    simulate(latest, stale, config).map(|(updated, outcome, _)| (updated, outcome))
}

/// [`sync_sharded_riblt`], also returning the link the sync ran over.
fn simulate(
    latest: &Ledger,
    stale: &Ledger,
    config: ShardedRibltConfig,
) -> reconcile_core::Result<(Ledger, SyncOutcome, FlightLink)> {
    let ShardedSyncConfig {
        shards,
        threads,
        key,
        base,
    } = config.sharding;
    let alpha = riblt::DEFAULT_ALPHA;
    let backend =
        RibltBackend::<LedgerItem>::with_key_and_alpha(ITEM_LEN, config.batch_symbols, key, alpha);
    let client = TcpSyncConfig {
        key,
        symbol_len: ITEM_LEN,
        threads,
        ..Default::default()
    };
    // Untimed setup: both replicas know their own sets already.
    let (local, hello) = (stale.items(), Hello::new(key, shards, ITEM_LEN));
    let budget = client.max_units_per_shard;
    let mut io = SimFlights {
        link: library_server(backend.clone(), &latest.items(), hello, budget),
        sim: SimLink::new(base.link),
        min_open_bytes: base.min_open_bytes,
        unsent: 0,
        resumed: Instant::now(),
        client_clock: 0.0,
        server_clock: 0.0,
        client_cpu: 0.0,
        server_cpu: 0.0,
    };
    let (differences, synced) = sync_sharded_tcp(&mut io, &local, |_| backend.clone(), &client)?;
    // The last CPU, and the `Done`s nothing answers.
    io.client_sends(Instant::now());

    let mut updated = stale.clone();
    for diff in &differences {
        updated.apply_items(&diff.remote_only);
    }
    let outcome = SyncOutcome {
        completion_time_s: io.client_clock,
        bytes_downstream: io.sim.bytes_server_to_client(),
        bytes_upstream: io.sim.bytes_client_to_server(),
        rounds: io.link.flights,
        payloads: payloads(&io.link.received)?,
        units_transferred: synced.units,
        accounts_updated: differences.iter().map(|d| d.remote_only.len()).sum(),
        downstream_series: io.sim.downstream_series().clone(),
        client_cpu_s: io.client_cpu,
        server_cpu_s: io.server_cpu,
    };
    Ok((updated, outcome, io.link))
}

/// The payload frames among everything a server said, its hello first.
fn payloads(mut said: &[u8]) -> reconcile_core::Result<usize> {
    read_frame(&mut said)?;
    let mut payloads = 0;
    while !said.is_empty() {
        if let EngineMessage::Payload(_) = read_mux_frame(&mut said)?.message {
            payloads += 1;
        }
    }
    Ok(payloads)
}

/// A [`FlightLink`] whose flights cost virtual time on a [`SimLink`]: what
/// the client wrote since the last flight goes upstream at the client's
/// clock (the first flight at least `min_open_bytes`), the wall time of the
/// server's answer goes to the server's clock, and the answer comes back
/// downstream. The client's CPU is the wall time between flights.
struct SimFlights {
    link: FlightLink,
    sim: SimLink,
    min_open_bytes: usize,
    /// Bytes the client wrote since the last flight.
    unsent: usize,
    /// When the client last stopped waiting for the server.
    resumed: Instant,
    client_clock: f64,
    server_clock: f64,
    client_cpu: f64,
    server_cpu: f64,
}

impl SimFlights {
    /// Charges the client's wall time up to `now`, then sends what it wrote
    /// since the last flight upstream; returns when that arrives.
    fn client_sends(&mut self, now: Instant) -> f64 {
        let cpu = now.duration_since(self.resumed).as_secs_f64();
        self.client_clock += cpu;
        self.client_cpu += cpu;
        let mut bytes = std::mem::take(&mut self.unsent);
        if self.sim.bytes_client_to_server() == 0 {
            bytes = bytes.max(self.min_open_bytes);
        }
        self.sim
            .send(LinkDirection::ClientToServer, self.client_clock, bytes)
    }
}

impl Read for SimFlights {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (flights, heard) = (self.link.flights, self.link.received.len());
        let waiting = Instant::now();
        let read = self.link.read(buf)?;
        if self.link.flights > flights {
            let answered = Instant::now();
            let arrival = self.client_sends(waiting);
            let serve = answered.duration_since(waiting).as_secs_f64();
            self.server_clock = self.server_clock.max(arrival) + serve;
            self.server_cpu += serve;
            let answer = self.link.received.len() - heard;
            let arrival = self
                .sim
                .send(LinkDirection::ServerToClient, self.server_clock, answer);
            self.client_clock = self.client_clock.max(arrival);
            self.resumed = answered;
        }
        Ok(read)
    }
}

impl Write for SimFlights {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.unsent += buf.len();
        self.link.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.link.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Chain, ChainConfig};
    use crate::sync::{sync_with_riblt, RibltSyncConfig};

    #[test]
    fn sharded_sync_converges_to_latest_root() {
        let chain = Chain::generate(ChainConfig::test_scale(), 10);
        let latest = chain.snapshot_at(10);
        let stale = chain.snapshot_at(5);
        let (updated, outcome) =
            sync_sharded_riblt(&latest, &stale, ShardedRibltConfig::default()).unwrap();
        assert_eq!(updated.to_trie().root(), latest.to_trie().root());
        assert!(outcome.accounts_updated > 0);
        assert!(outcome.bytes_downstream > 0);
        assert!(outcome.completion_time_s > 0.1, "at least one RTT");
    }

    #[test]
    fn sharded_and_single_session_recover_the_same_state() {
        let chain = Chain::generate(ChainConfig::test_scale(), 12);
        let latest = chain.snapshot_at(12);
        let stale = chain.snapshot_at(4);
        let (sharded, sharded_out) =
            sync_sharded_riblt(&latest, &stale, ShardedRibltConfig::default()).unwrap();
        let (single, single_out) = sync_with_riblt(&latest, &stale, RibltSyncConfig::default());
        assert_eq!(sharded.to_trie().root(), single.to_trie().root());
        assert_eq!(sharded_out.accounts_updated, single_out.accounts_updated);
    }

    #[test]
    fn one_shard_degenerates_to_a_single_session() {
        let chain = Chain::generate(ChainConfig::test_scale(), 8);
        let latest = chain.snapshot_at(8);
        let stale = chain.snapshot_at(3);
        let config = ShardedRibltConfig {
            sharding: ShardedSyncConfig {
                shards: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (updated, outcome) = sync_sharded_riblt(&latest, &stale, config).unwrap();
        assert_eq!(updated.to_trie().root(), latest.to_trie().root());
        assert!(outcome.units_transferred > 0);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let chain = Chain::generate(ChainConfig::test_scale(), 10);
        let latest = chain.snapshot_at(10);
        let stale = chain.snapshot_at(2);
        let mut roots = Vec::new();
        let mut units = Vec::new();
        for threads in [1usize, 4] {
            let config = ShardedRibltConfig {
                sharding: ShardedSyncConfig {
                    threads,
                    ..Default::default()
                },
                ..Default::default()
            };
            let (updated, outcome) = sync_sharded_riblt(&latest, &stale, config).unwrap();
            roots.push(updated.to_trie().root());
            units.push(outcome.units_transferred);
        }
        assert_eq!(roots[0], roots[1]);
        assert_eq!(units[0], units[1]);
    }

    #[test]
    fn identical_ledgers_need_one_round() {
        let ledger = Ledger::genesis(2_000);
        let (updated, outcome) =
            sync_sharded_riblt(&ledger, &ledger, ShardedRibltConfig::default()).unwrap();
        assert_eq!(updated, ledger);
        assert_eq!(outcome.accounts_updated, 0);
        // Every shard decodes its empty difference from the first batch.
        assert_eq!(outcome.rounds, 1);
    }

    #[test]
    fn the_simulator_sends_what_the_shipped_client_sends_a_bare_server() {
        let chain = Chain::generate(ChainConfig::test_scale(), 10);
        let latest = chain.snapshot_at(10);
        let stale = chain.snapshot_at(3);
        let config = ShardedRibltConfig::default();
        let (_, outcome, simulated) = simulate(&latest, &stale, config).unwrap();

        let ShardedSyncConfig { shards, key, .. } = config.sharding;
        let backend =
            RibltBackend::<LedgerItem>::with_key_and_alpha(ITEM_LEN, 32, key, riblt::DEFAULT_ALPHA);
        let hello = Hello::new(key, shards, ITEM_LEN);
        let mut bare = library_server(backend.clone(), &latest.items(), hello, 1 << 20);
        let tcp = TcpSyncConfig {
            key,
            symbol_len: ITEM_LEN,
            threads: 1,
            ..Default::default()
        };
        let (_, synced) =
            sync_sharded_tcp(&mut bare, &stale.items(), |_| backend.clone(), &tcp).unwrap();

        assert_eq!(simulated.sent, bare.sent, "the client's transcript");
        assert_eq!(simulated.received, bare.received, "the server's");
        // The simulator counts the handshake's flight; the client does not.
        assert_eq!(outcome.rounds, bare.flights);
        assert_eq!(outcome.rounds, synced.rounds + 1);
        assert_eq!(outcome.units_transferred, synced.units);
        assert_eq!(
            outcome.bytes_upstream + outcome.bytes_downstream,
            synced.bytes_sent + synced.bytes_received
        );
    }
}

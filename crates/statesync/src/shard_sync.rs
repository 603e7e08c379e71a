//! Sharded ledger synchronization: S multiplexed engine sessions over one
//! simulated link, with parallel shard decode on the stale replica.
//!
//! The single-session driver ([`crate::sync_with_backend`]) streams one
//! coded-symbol sequence for the whole ledger; at production state sizes the
//! client's peeling decode becomes the bottleneck (paper §7.2). This driver
//! hash-partitions the keyspace into S shards
//! ([`reconcile_core::ShardPartitioner`]), runs one engine session per shard
//! through the server/client multiplexers of [`reconcile_core::mux`] — every
//! wire frame is a `(session, shard)`-tagged [`MuxFrame`] — and absorbs the
//! payloads of independent shards in parallel on a `std::thread` worker
//! pool. Streaming shards ask for ranges of their streams sized by
//! [`reconcile_core::window`], so a round moves as many batches as the
//! decoders' estimate calls for and costs one round trip of the link. The
//! virtual clock charges the *wall* time of each parallel absorb phase, so
//! multi-core decode speedups translate into completion times, exactly as
//! they would on real hardware.

use std::time::Instant;

use netsim::{LinkDirection, SimLink};
use reconcile_core::{
    ClientMux, EngineError, EngineMessage, MuxFrame, ReconcileBackend, ServerEngine, ServerMux,
    ShardId, ShardPartitioner,
};
use riblt_hash::SipKey;

use crate::ledger::{Ledger, LedgerItem};
use crate::metrics::SyncOutcome;
use crate::sync::SyncConfig;

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

/// Synchronizes `stale` to `latest` through one backend instance per shard,
/// multiplexed over a single simulated link.
///
/// The factory is called once per shard on each side, so per-shard tuning
/// (e.g. smaller batch sizes for many shards) stays in the caller's hands.
pub fn sync_sharded_with_backend<B, F>(
    latest: &Ledger,
    stale: &Ledger,
    factory: F,
    config: ShardedSyncConfig,
) -> reconcile_core::Result<(Ledger, SyncOutcome)>
where
    B: ReconcileBackend<Item = LedgerItem> + Send,
    B::Client: Send,
    F: Fn(ShardId) -> B,
{
    let threads = if config.threads == 0 {
        cluster_threads()
    } else {
        config.threads
    };
    let partitioner = ShardPartitioner::new(config.key, config.shards);
    let mut link = SimLink::new(config.base.link);

    // --- Untimed setup: both replicas know their own sets already. ---
    let latest_parts = partitioner.partition(&latest.items());
    let mut server = ServerMux::new(|_session, shard| {
        ServerEngine::new(factory(shard), &latest_parts[usize::from(shard)])
    });
    let mut client = ClientMux::new(0);
    let engines = partitioner.client_engines(&stale.items(), &factory);
    for (shard, engine) in engines.into_iter().enumerate() {
        client.insert_shard(shard as ShardId, engine);
    }

    // --- Timed protocol. ---
    let mut client_clock = 0.0f64;
    let mut server_clock = 0.0f64;
    let mut client_cpu = 0.0f64;
    let mut server_cpu = 0.0f64;
    let mut upstream_bytes = 0usize;
    let mut downstream_bytes = 0usize;
    let mut rounds = 0usize;
    let mut payload_count = 0usize;

    let mut outgoing = client.opens();
    // Pad the aggregate opening burst up to the configured connection
    // minimum, mirroring the single-session driver.
    let open_wire: usize = outgoing.iter().map(MuxFrame::wire_size).sum();
    let mut first_burst_pad = config.base.min_open_bytes.saturating_sub(open_wire);

    let mut guard = 0usize;
    while !outgoing.is_empty() {
        guard += 1;
        assert!(
            guard < 4_000_000,
            "sharded synchronization failed to converge"
        );
        rounds += 1;

        // Client → server: ship this round's request frames.
        let mut request_arrival = server_clock;
        for frame in &outgoing {
            let wire = frame.wire_size() + std::mem::take(&mut first_burst_pad);
            upstream_bytes += wire;
            let arrival = link.send(LinkDirection::ClientToServer, client_clock, wire);
            request_arrival = request_arrival.max(arrival);
        }
        server_clock = server_clock.max(request_arrival);

        // Server: answer every frame (sequential — one node, one CPU here;
        // serving is cheap next to decoding).
        let t0 = Instant::now();
        let mut payloads = Vec::with_capacity(client.awaiting());
        for frame in &outgoing {
            payloads.extend(server.handle(frame)?);
        }
        let serve_s = t0.elapsed().as_secs_f64();
        server_cpu += serve_s;
        server_clock += serve_s;
        payload_count += payloads.len();

        // Server → client: ship the payload frames.
        let mut payload_arrival = client_clock;
        for frame in &payloads {
            let wire = frame.wire_size();
            downstream_bytes += wire;
            let arrival = link.send(LinkDirection::ServerToClient, server_clock, wire);
            payload_arrival = payload_arrival.max(arrival);
        }

        // Client: absorb all shards in parallel; charge the wall time.
        let t1 = Instant::now();
        let replies = client.handle_round(&payloads, threads)?;
        let absorb_s = t1.elapsed().as_secs_f64();
        client_cpu += absorb_s;
        client_clock = client_clock.max(payload_arrival) + absorb_s;

        // Done frames retire their server engine; everything else loops.
        outgoing = Vec::with_capacity(replies.len());
        for frame in replies {
            if frame.message == EngineMessage::Done {
                upstream_bytes += frame.wire_size();
                link.send(
                    LinkDirection::ClientToServer,
                    client_clock,
                    frame.wire_size(),
                );
                server.handle(&frame)?;
            } else {
                outgoing.push(frame);
            }
        }
    }

    if !client.all_done() {
        return Err(EngineError::DecodeIncomplete);
    }
    let units_transferred = client.units();
    let mut updated = stale.clone();
    let mut accounts_updated = 0usize;
    for diff in client.into_differences()? {
        accounts_updated += diff.remote_only.len();
        updated.apply_items(&diff.remote_only);
    }

    let outcome = SyncOutcome {
        completion_time_s: client_clock,
        bytes_downstream: downstream_bytes,
        bytes_upstream: upstream_bytes,
        rounds,
        payloads: payload_count,
        units_transferred,
        accounts_updated,
        downstream_series: link.downstream_series().clone(),
        client_cpu_s: client_cpu,
        server_cpu_s: server_cpu,
    };
    Ok((updated, outcome))
}

fn cluster_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
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
    use crate::ledger::ITEM_LEN;
    use reconcile_core::backends::RibltBackend;
    let key = config.sharding.key;
    sync_sharded_with_backend(
        latest,
        stale,
        |_shard| {
            RibltBackend::<LedgerItem>::with_key_and_alpha(
                ITEM_LEN,
                config.batch_symbols,
                key,
                riblt::DEFAULT_ALPHA,
            )
        },
        config.sharding,
    )
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
}

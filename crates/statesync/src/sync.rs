//! The generic ledger-synchronization driver: any [`ReconcileBackend`] over
//! the simulated link.
//!
//! This single loop subsumes the per-scheme drivers the crate used to carry
//! (one for Rateless IBLT, one for state heal): the backend decides *what*
//! moves (coded symbols, tables, trie nodes) and whether the server streams
//! unprompted or answers lock-step requests, while the driver owns the
//! virtual clocks, the link, and the outcome accounting. Real CPU time spent
//! encoding (server) and decoding (client) is measured with `Instant` and
//! folded into the virtual clock, so the completion time reflects whichever
//! of computation and communication is the bottleneck; calibrated per-unit
//! storage costs are added through the backend's overhead hooks (see
//! EXPERIMENTS.md).

use std::time::Instant;

use merkle_trie::MerkleTrie;
use netsim::{LinkConfig, LinkDirection, SimLink};
use reconcile_core::backends::RibltBackend;
use reconcile_core::{Progress, ReconcileBackend};

use crate::heal_backend::HealBackend;
use crate::ledger::{Ledger, LedgerItem, ITEM_LEN};
use crate::metrics::SyncOutcome;

/// Transport parameters of a synchronization run (shared by every backend).
#[derive(Debug, Clone, Copy)]
pub struct SyncConfig {
    /// Link parameters.
    pub link: LinkConfig,
    /// Minimum size charged to the opening request in bytes (connection
    /// setup and transport headers pad small opens up to this).
    pub min_open_bytes: usize,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            link: LinkConfig::paper_default(),
            min_open_bytes: 64,
        }
    }
}

/// Synchronizes `stale` to `latest` through `backend` over a simulated link
/// and returns the updated ledger together with the measured outcome.
///
/// Setup on both sides (each replica ingesting its *own* set) is not charged
/// to the completion time: it is staleness-independent and, in the
/// deployment the paper describes, maintained incrementally as blocks arrive
/// (see EXPERIMENTS.md).
///
/// Errors are those of the backend: a fixed-size scheme whose ladder or
/// retry budget cannot cover the difference reports
/// [`reconcile_core::EngineError::DecodeIncomplete`]; rateless backends
/// cannot fail this way.
pub fn sync_with_backend<B>(
    latest: &Ledger,
    stale: &Ledger,
    backend: &B,
    config: SyncConfig,
) -> reconcile_core::Result<(Ledger, SyncOutcome)>
where
    B: ReconcileBackend<Item = LedgerItem>,
{
    let mut link = SimLink::new(config.link);

    // --- Untimed setup: both replicas know their own sets already. ---
    let mut server = backend.build_server(&latest.items());
    let mut client = backend.build_client(&stale.items());

    // --- Timed protocol. ---
    // The client sends the opening request at t = 0; the server starts
    // working when it arrives.
    let open = backend.open_request(&mut client);
    let open_bytes = (open.len() + 1).max(config.min_open_bytes);
    let mut upstream_bytes = open_bytes;
    let request_arrival = link.send(LinkDirection::ClientToServer, 0.0, open_bytes);

    let mut server_clock = request_arrival;
    let mut client_clock = 0.0f64;
    let mut server_cpu = 0.0f64;
    let mut client_cpu = 0.0f64;
    let mut downstream_bytes = 0usize;
    let mut rounds = 1usize;
    let mut request: Option<Vec<u8>> = Some(open);
    let mut payloads = 0usize;

    loop {
        payloads += 1;
        assert!(
            payloads < 4_000_000,
            "synchronization failed to converge (difference too large for the guard)"
        );

        // Server: produce the next payload (answering a request or streaming).
        let t0 = Instant::now();
        let payload = backend.serve(&mut server, request.as_deref())?;
        let serve_s =
            t0.elapsed().as_secs_f64() + backend.serve_overhead_s(request.as_deref(), &payload);
        request = None;
        server_cpu += serve_s;
        server_clock += serve_s;
        let wire_len = payload.len() + 1;
        downstream_bytes += wire_len;
        let arrival = link.send(LinkDirection::ServerToClient, server_clock, wire_len);

        // Client: ingest the payload once it has fully arrived.
        let t1 = Instant::now();
        let progress = backend.absorb(&mut client, &payload)?;
        let absorb_s = t1.elapsed().as_secs_f64() + backend.absorb_overhead_s(&payload);
        client_cpu += absorb_s;
        client_clock = client_clock.max(arrival) + absorb_s;

        match progress {
            Progress::Complete => {
                // The closing "stop" notification (1 byte, not waited on).
                upstream_bytes += 1;
                break;
            }
            Progress::AwaitStream(_) => {
                // Rateless flow: the server streams at its own pace; no
                // round trip is paid.
            }
            Progress::SendRequest(req) => {
                let req_len = req.len() + 1;
                upstream_bytes += req_len;
                rounds += 1;
                let req_arrival = link.send(LinkDirection::ClientToServer, client_clock, req_len);
                server_clock = server_clock.max(req_arrival);
                request = Some(req);
            }
        }
    }

    let units_transferred = backend.units(&client);
    let diff = backend.into_difference(client)?;
    let accounts_updated = diff.remote_only.len();
    let mut updated = stale.clone();
    updated.apply_items(&diff.remote_only);

    let outcome = SyncOutcome {
        completion_time_s: client_clock,
        bytes_downstream: downstream_bytes,
        bytes_upstream: upstream_bytes,
        rounds,
        payloads,
        units_transferred,
        accounts_updated,
        downstream_series: link.downstream_series().clone(),
        client_cpu_s: client_cpu,
        server_cpu_s: server_cpu,
    };
    Ok((updated, outcome))
}

/// Configuration of a Rateless IBLT synchronization run.
#[derive(Debug, Clone, Copy)]
pub struct RibltSyncConfig {
    /// Coded symbols per network message.
    pub batch_symbols: usize,
    /// Link parameters.
    pub link: LinkConfig,
    /// Size of the initial request message in bytes.
    pub request_bytes: usize,
}

impl Default for RibltSyncConfig {
    fn default() -> Self {
        RibltSyncConfig {
            batch_symbols: 128,
            link: LinkConfig::paper_default(),
            request_bytes: 64,
        }
    }
}

/// Synchronizes `stale` to `latest` with Rateless IBLT (paper §7.3): one
/// small request, then a one-way coded-symbol stream at line rate.
pub fn sync_with_riblt(
    latest: &Ledger,
    stale: &Ledger,
    config: RibltSyncConfig,
) -> (Ledger, SyncOutcome) {
    let backend = RibltBackend::<LedgerItem>::new(ITEM_LEN, config.batch_symbols);
    sync_with_backend(
        latest,
        stale,
        &backend,
        SyncConfig {
            link: config.link,
            min_open_bytes: config.request_bytes,
        },
    )
    .expect("the rateless stream cannot exhaust a fixed-size budget")
}

/// Configuration of a state-heal synchronization run.
#[derive(Debug, Clone, Copy)]
pub struct HealSyncConfig {
    /// Maximum trie nodes requested per round (Geth uses a few hundred).
    pub batch_nodes: usize,
    /// Link parameters.
    pub link: LinkConfig,
    /// Extra per-node handling cost in seconds charged to each side, which
    /// stands in for the database reads/writes and proof verification a real
    /// client performs (calibrated constant; see EXPERIMENTS.md).
    pub per_node_overhead_s: f64,
}

impl Default for HealSyncConfig {
    fn default() -> Self {
        HealSyncConfig {
            batch_nodes: 384,
            link: LinkConfig::paper_default(),
            per_node_overhead_s: 40e-6,
        }
    }
}

/// Synchronizes `stale` to `latest` by healing the stale replica's Merkle
/// trie — the production baseline of §7.3. Returns the healed trie and the
/// measured outcome.
pub fn sync_with_heal(
    latest: &Ledger,
    stale: &Ledger,
    config: HealSyncConfig,
) -> (MerkleTrie, SyncOutcome) {
    let backend = HealBackend {
        target_root: latest.to_trie().root(),
        batch_nodes: config.batch_nodes,
        per_node_overhead_s: config.per_node_overhead_s,
    };
    let (updated, outcome) = sync_with_backend(
        latest,
        stale,
        &backend,
        SyncConfig {
            link: config.link,
            min_open_bytes: 0,
        },
    )
    .expect("healing always terminates once every differing subtree is fetched");
    let healed = updated.to_trie();
    // Healing walks the server's trie, so the reconstructed state must hash
    // to the target root (the ledger model never deletes accounts; a model
    // with deletions would need the healed trie returned directly).
    debug_assert_eq!(healed.root(), backend.target_root, "healed root mismatch");
    (healed, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Chain, ChainConfig};

    #[test]
    fn stale_replica_converges_to_latest() {
        let chain = Chain::generate(ChainConfig::test_scale(), 10);
        let latest = chain.snapshot_at(10);
        let stale = chain.snapshot_at(5);
        let (updated, outcome) = sync_with_riblt(&latest, &stale, RibltSyncConfig::default());
        assert_eq!(updated.to_trie().root(), latest.to_trie().root());
        assert!(outcome.completion_time_s > 0.1, "at least one RTT");
        assert!(outcome.accounts_updated > 0);
        assert!(outcome.bytes_downstream > 0);
        assert_eq!(outcome.rounds, 1);
    }

    #[test]
    fn identical_ledgers_finish_after_one_batch() {
        let ledger = Ledger::genesis(2_000);
        let (updated, outcome) = sync_with_riblt(&ledger, &ledger, RibltSyncConfig::default());
        assert_eq!(updated, ledger);
        assert!(outcome.units_transferred <= RibltSyncConfig::default().batch_symbols);
        assert_eq!(outcome.accounts_updated, 0);
    }

    #[test]
    fn communication_scales_with_difference_not_set_size() {
        let chain = Chain::generate(ChainConfig::test_scale(), 20);
        let latest = chain.snapshot_at(20);
        let slightly_stale = chain.snapshot_at(18);
        let very_stale = chain.snapshot_at(2);
        let cfg = RibltSyncConfig::default();
        let (_, small) = sync_with_riblt(&latest, &slightly_stale, cfg);
        let (_, large) = sync_with_riblt(&latest, &very_stale, cfg);
        assert!(large.bytes_downstream > 2 * small.bytes_downstream);
        // Both are far below the full-ledger size (≈ 5,000 × 92 B).
        let full = latest.len() * ITEM_LEN;
        assert!(large.bytes_downstream < full, "must beat full transfer");
    }

    #[test]
    fn bandwidth_cap_slows_completion() {
        let chain = Chain::generate(ChainConfig::test_scale(), 20);
        let latest = chain.snapshot_at(20);
        let stale = chain.snapshot_at(0);
        let fast = RibltSyncConfig {
            link: LinkConfig::with_mbps(100.0),
            ..Default::default()
        };
        let slow = RibltSyncConfig {
            link: LinkConfig::with_mbps(1.0),
            ..Default::default()
        };
        let (_, fast_out) = sync_with_riblt(&latest, &stale, fast);
        let (_, slow_out) = sync_with_riblt(&latest, &stale, slow);
        assert!(slow_out.completion_time_s > fast_out.completion_time_s);
    }

    #[test]
    fn heal_converges_to_latest_root() {
        let chain = Chain::generate(ChainConfig::test_scale(), 10);
        let latest = chain.snapshot_at(10);
        let stale = chain.snapshot_at(5);
        let (healed, outcome) = sync_with_heal(&latest, &stale, HealSyncConfig::default());
        assert_eq!(healed.root(), latest.to_trie().root());
        assert!(
            outcome.rounds >= 2,
            "lock-step descent needs several rounds"
        );
        assert!(outcome.accounts_updated > 0);
    }

    #[test]
    fn identical_ledgers_need_no_transfer() {
        let ledger = Ledger::genesis(3_000);
        let (_, outcome) = sync_with_heal(&ledger, &ledger, HealSyncConfig::default());
        assert_eq!(outcome.units_transferred, 0);
        assert_eq!(outcome.accounts_updated, 0);
    }

    #[test]
    fn heal_transfers_more_bytes_and_takes_longer_than_riblt() {
        // The headline comparison of §7.3, at unit-test scale.
        let chain = Chain::generate(ChainConfig::test_scale(), 20);
        let latest = chain.snapshot_at(20);
        let stale = chain.snapshot_at(10);
        let (_, heal) = sync_with_heal(&latest, &stale, HealSyncConfig::default());
        let (_, riblt) = sync_with_riblt(&latest, &stale, RibltSyncConfig::default());
        assert!(
            heal.total_bytes() > riblt.total_bytes(),
            "heal {} bytes vs riblt {} bytes",
            heal.total_bytes(),
            riblt.total_bytes()
        );
        assert!(
            heal.completion_time_s > riblt.completion_time_s,
            "heal {:.3}s vs riblt {:.3}s",
            heal.completion_time_s,
            riblt.completion_time_s
        );
        assert!(heal.rounds > riblt.rounds);
    }

    #[test]
    fn more_bandwidth_eventually_stops_helping_heal() {
        // State heal is round-trip- and compute-bound; cranking bandwidth
        // from 20 to 1000 Mbps barely moves its completion time.
        let chain = Chain::generate(ChainConfig::test_scale(), 20);
        let latest = chain.snapshot_at(20);
        let stale = chain.snapshot_at(0);
        let base = HealSyncConfig::default();
        let fast = HealSyncConfig {
            link: LinkConfig::with_mbps(1_000.0),
            ..base
        };
        let (_, slow_out) = sync_with_heal(&latest, &stale, base);
        let (_, fast_out) = sync_with_heal(&latest, &stale, fast);
        assert!(fast_out.completion_time_s <= slow_out.completion_time_s);
        assert!(
            fast_out.completion_time_s > 0.3 * slow_out.completion_time_s,
            "50x more bandwidth should not cut heal time proportionally: {:.3} vs {:.3}",
            fast_out.completion_time_s,
            slow_out.completion_time_s
        );
    }

    #[test]
    fn generic_driver_accepts_any_backend() {
        // The same scenario through two more sketch families, straight
        // through the trait — the refactor's point.
        use reconcile_core::backends::{IbltBackend, MetIbltBackend};
        let chain = Chain::generate(ChainConfig::test_scale(), 10);
        let latest = chain.snapshot_at(10);
        let stale = chain.snapshot_at(6);
        let target = latest.to_trie().root();

        let iblt = IbltBackend::<LedgerItem>::new(ITEM_LEN);
        let (updated, outcome) =
            sync_with_backend(&latest, &stale, &iblt, SyncConfig::default()).unwrap();
        assert_eq!(updated.to_trie().root(), target);
        assert!(outcome.units_transferred > 0);

        let met = MetIbltBackend::<LedgerItem>::new(ITEM_LEN);
        let (updated, outcome) =
            sync_with_backend(&latest, &stale, &met, SyncConfig::default()).unwrap();
        assert_eq!(updated.to_trie().root(), target);
        assert!(outcome.rounds >= 1);
    }

    #[test]
    fn ladder_exhaustion_is_an_error_not_a_panic() {
        // A MET ladder capped at 16 cannot cover a large difference; the
        // generic driver must surface DecodeIncomplete instead of panicking.
        use reconcile_core::backends::MetIbltBackend;
        use reconcile_core::EngineError;
        let latest = Ledger::genesis(2_000);
        let stale = Ledger::new();
        let met = MetIbltBackend::<LedgerItem>::with_targets(
            ITEM_LEN,
            vec![16],
            riblt_hash::SipKey::default(),
        );
        let err = sync_with_backend(&latest, &stale, &met, SyncConfig::default()).unwrap_err();
        assert_eq!(err, EngineError::DecodeIncomplete);
    }
}

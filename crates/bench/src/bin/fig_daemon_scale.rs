//! Daemon scalability: peers vs throughput on one reactor process.
//!
//! For each fleet size the sweep spawns a fresh in-process daemon, then
//! drives it with the `loadgen` harness — every peer is a real TCP client
//! running a full mixed-staleness reconciliation, all connected before a
//! shared barrier so the fleet is genuinely concurrent. Each row reports client-side sync latency
//! percentiles and, from the daemon's live metric registry, the
//! serve-batch latency histogram (cache lookup/encode plus frame
//! assembly; the socket write is excluded, so slow peers cannot inflate
//! it) and the backpressure pause count.
//!
//! The largest row is the acceptance gate: a quick run must sustain at
//! least 1,024 concurrent peers with zero failed syncs on a single
//! daemon process.

use std::time::Duration;

use riblt_bench::BenchCli;
use riblt_hash::SipKey;
use server::loadgen::{raise_nofile_limit, run, server_items, LoadgenConfig};
use server::{Daemon, DaemonConfig};

/// Every peer beyond this floor must still succeed for the run to pass.
const ACCEPTANCE_PEERS: usize = 1_024;

fn main() {
    let cli = BenchCli::from_args();
    let scale = cli.scale;
    let mut csv = cli.sink();

    let peer_counts: Vec<usize> = scale.pick(vec![64, 256, 1_024], vec![64, 256, 1_024, 2_048]);
    let base_items = scale.pick(1_024u64, 4_096u64);
    let staleness = vec![0u64, 8, 64, 256];
    // A non-default key (seed-varied) catches any hardcoded-default path.
    let key = SipKey::new(cli.seed_or(0x5ca1_ab1e), cli.seed_or(0x0dd_ba11));

    let max_peers = *peer_counts.iter().max().expect("non-empty sweep");
    let want_fds = (max_peers as u64) * 2 + 512;
    let got_fds = raise_nofile_limit(want_fds);
    if got_fds < want_fds {
        eprintln!("fig_daemon_scale: warning: fd limit {got_fds} < {want_fds} wanted");
    }

    csv.header(&[
        "peers",
        "rounds",
        "base_items",
        "syncs_ok",
        "syncs_failed",
        "wall_s",
        "syncs_per_s",
        "sync_p50_ms",
        "sync_p90_ms",
        "sync_p99_ms",
        "serve_batch_p50_ms",
        "serve_batch_p99_ms",
        "serve_batch_count",
        "backpressure_pauses",
        "connections_accepted",
    ]);

    for &peers in &peer_counts {
        // A fresh daemon per row keeps the registry histograms (and the
        // accepted-connection counters) scoped to this fleet size.
        let daemon = Daemon::spawn(
            DaemonConfig {
                shards: 8,
                key,
                read_timeout: Duration::from_secs(60),
                write_timeout: Duration::from_secs(60),
                ..Default::default()
            },
            server_items(base_items),
        )
        .expect("daemon spawn");

        let config = LoadgenConfig {
            clients: peers,
            rounds: 1,
            base_items,
            staleness: staleness.clone(),
            key,
            read_timeout: Duration::from_secs(60),
            ..Default::default()
        };
        eprintln!("fig_daemon_scale: {peers} concurrent peers x {base_items} items ...");
        let report = run(&daemon.data_addr().to_string(), &config);

        let serve = daemon.metrics().serve_batch_seconds.snapshot();
        let pauses = daemon.metrics().backpressure_pauses.get();
        let stats = daemon.stats();
        riblt_bench::csv_emit!(
            csv,
            peers,
            config.rounds,
            base_items,
            report.syncs_ok,
            report.syncs_failed,
            format!("{:.3}", report.wall.as_secs_f64()),
            format!("{:.1}", report.syncs_per_sec()),
            format!("{:.2}", report.latency_quantile(0.50) * 1e3),
            format!("{:.2}", report.latency_quantile(0.90) * 1e3),
            format!("{:.2}", report.latency_quantile(0.99) * 1e3),
            format!("{:.3}", serve.p50() / 1e6),
            format!("{:.3}", serve.p99() / 1e6),
            serve.count,
            pauses,
            stats.connections_accepted
        );
        eprintln!(
            "fig_daemon_scale: {peers} peers: {} ok / {} failed, {:.1} syncs/s, \
             sync p99 {:.1}ms, serve-batch p99 {:.3}ms",
            report.syncs_ok,
            report.syncs_failed,
            report.syncs_per_sec(),
            report.latency_quantile(0.99) * 1e3,
            serve.p99() / 1e6,
        );

        if peers >= ACCEPTANCE_PEERS {
            assert_eq!(
                report.syncs_failed, 0,
                "{peers}-peer fleet had failed syncs — the daemon does not sustain \
                 {ACCEPTANCE_PEERS} concurrent peers"
            );
            assert_eq!(
                report.syncs_ok, peers,
                "{peers}-peer fleet completed only {} syncs",
                report.syncs_ok
            );
        }

        daemon.shutdown();
    }
}

//! UDP transport under datagram loss: completion time and extra-symbol
//! overhead vs loss rate, against a TCP baseline.
//!
//! The rateless property is what makes a datagram transport attractive:
//! a lost packet costs only the extra coded symbols needed to replace it,
//! never retransmit machinery on the symbol stream itself. This sweep
//! measures that cost two ways at each loss rate:
//!
//! - `netsim`: the client syncs across an in-process [`netsim`] datagram
//!   link with seeded loss, duplication, and reordering, against
//!   [`netsim::library_datagram_server`] — fully deterministic, no kernel
//!   in the path.
//! - `loopback`: the client syncs with a real `reconciled` daemon over
//!   kernel loopback UDP, with the same loss rate injected client-side by
//!   [`cluster::LossyConduit`] in both directions.
//!
//! A `tcp` row (same daemon, same workload) anchors the zero-loss
//! baseline. Acceptance: every sync at loss rates up to 10% must complete
//! in both modes; the CSV reports consumed units and the overhead
//! relative to each mode's own clean run.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use cluster::{sync_sharded_udp, LossyConduit, NodeConfig, UdpSyncConfig, UdpSyncOutcome};
use netsim::{datagram_pair, library_datagram_server, DatagramEndpoint, DatagramLinkConfig};
use reconcile_core::backends::RibltBackend;
use reconcile_core::{sync_sharded_tcp, TcpSyncConfig};
use riblt::FixedBytes;
use riblt_bench::BenchCli;
use riblt_hash::SipKey;
use server::{Daemon, DaemonConfig};

type Item = FixedBytes<8>;

const SHARDS: u16 = 4;
const SYMBOL_LEN: usize = 8;
/// Loss rates at or below this must complete every sync in every mode.
const ACCEPTANCE_LOSS: f64 = 0.10;

fn items(range: std::ops::Range<u64>) -> Vec<Item> {
    range.map(Item::from_u64).collect()
}

fn backend(key: SipKey) -> impl Fn(u16) -> RibltBackend<Item> {
    move |_| RibltBackend::with_key_and_alpha(SYMBOL_LEN, 32, key, riblt::DEFAULT_ALPHA)
}

fn serve_loop(endpoint: DatagramEndpoint, server_items: Vec<Item>, key: SipKey) {
    let config = NodeConfig {
        shards: SHARDS,
        key,
        symbol_len: SYMBOL_LEN,
    };
    library_datagram_server(endpoint, &server_items, config);
}

struct RunResult {
    outcome: UdpSyncOutcome,
    recovered: usize,
    wall_s: f64,
}

fn udp_config(key: SipKey) -> UdpSyncConfig {
    UdpSyncConfig {
        key,
        deadline: Duration::from_secs(60),
        ..Default::default()
    }
}

fn run_netsim(
    loss: f64,
    server_items: &[Item],
    local: &[Item],
    key: SipKey,
    seed: u64,
) -> RunResult {
    let link = if loss > 0.0 {
        DatagramLinkConfig::lossy(loss, seed)
    } else {
        DatagramLinkConfig::default()
    };
    let (mut client_end, server_end) = datagram_pair(link);
    let server_set = server_items.to_vec();
    let server = std::thread::spawn(move || serve_loop(server_end, server_set, key));
    let started = Instant::now();
    let (diffs, outcome) = sync_sharded_udp(&mut client_end, local, backend(key), &udp_config(key))
        .expect("netsim sync failed");
    let wall_s = started.elapsed().as_secs_f64();
    // A server whose last Done was lost waits for a quiet link; a dropped
    // endpoint is one at once.
    drop(client_end);
    server.join().unwrap();
    RunResult {
        outcome,
        recovered: diffs.iter().map(|d| d.remote_only.len()).sum(),
        wall_s,
    }
}

fn run_loopback(
    daemon: &Daemon<Item>,
    loss: f64,
    local: &[Item],
    key: SipKey,
    seed: u64,
) -> RunResult {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    socket
        .connect(daemon.udp_addr().expect("udp enabled"))
        .expect("connect");
    let started = Instant::now();
    let (diffs, outcome) = if loss > 0.0 {
        let mut conduit = LossyConduit::new(socket, loss, seed);
        sync_sharded_udp(&mut conduit, local, backend(key), &udp_config(key))
    } else {
        let mut conduit = socket;
        sync_sharded_udp(&mut conduit, local, backend(key), &udp_config(key))
    }
    .expect("loopback sync failed");
    RunResult {
        outcome,
        recovered: diffs.iter().map(|d| d.remote_only.len()).sum(),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    let cli = BenchCli::from_args();
    let scale = cli.scale;
    let mut csv = cli.sink();

    let losses: Vec<f64> = scale.pick(vec![0.0, 0.05, 0.10], vec![0.0, 0.02, 0.05, 0.10, 0.20]);
    let base_items = scale.pick(2_048u64, 8_192u64);
    let diff = scale.pick(96u64, 256u64);
    let key = SipKey::new(cli.seed_or(0xfeed_f00d), cli.seed_or(0xc0ff_ee00));
    let seed = cli.seed_or(42);

    let server_set = items(0..base_items);
    // The client misses the last `diff/2` server items and holds `diff/2`
    // of its own: a symmetric difference of `diff`.
    let local = items(diff / 2..base_items + diff / 2);

    let daemon = Daemon::spawn(
        DaemonConfig {
            shards: SHARDS,
            key,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            udp_listen: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
        server_set.clone(),
    )
    .expect("daemon spawn");

    csv.header(&[
        "mode",
        "loss_pct",
        "base_items",
        "diff",
        "recovered",
        "units",
        "extra_units",
        "overhead_pct",
        "retransmits",
        "stale_batches",
        "datagrams_sent",
        "datagrams_received",
        "wall_s",
    ]);

    // TCP baseline: same daemon, same workload, loss-free by construction.
    {
        let mut conn = std::net::TcpStream::connect(daemon.data_addr()).expect("tcp connect");
        conn.set_nodelay(true).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let started = Instant::now();
        let (diffs, outcome) = sync_sharded_tcp(
            &mut conn,
            &local,
            backend(key),
            &TcpSyncConfig {
                key,
                ..Default::default()
            },
        )
        .expect("tcp baseline failed");
        let recovered: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
        assert_eq!(recovered as u64, diff / 2, "tcp baseline missed diffs");
        riblt_bench::csv_emit!(
            csv,
            "tcp",
            "0.0",
            base_items,
            diff,
            recovered,
            outcome.units,
            0,
            "0.00",
            0,
            0,
            0,
            0,
            format!("{:.4}", started.elapsed().as_secs_f64())
        );
        eprintln!(
            "fig_udp_loss: tcp baseline {} units in {:.1}ms",
            outcome.units,
            started.elapsed().as_secs_f64() * 1e3
        );
    }

    let mut clean_units = [0usize; 2]; // per-mode zero-loss baselines
    for (mode_idx, mode) in ["netsim", "loopback"].iter().enumerate() {
        for (loss_idx, &loss) in losses.iter().enumerate() {
            let run_seed = seed + (mode_idx as u64 * 1_000) + loss_idx as u64 * 10;
            let result = match *mode {
                "netsim" => run_netsim(loss, &server_set, &local, key, run_seed),
                _ => run_loopback(&daemon, loss, &local, key, run_seed),
            };
            assert_eq!(
                result.recovered as u64,
                diff / 2,
                "{mode} at {loss} loss recovered the wrong difference"
            );
            if loss == 0.0 {
                clean_units[mode_idx] = result.outcome.units;
            }
            let baseline = clean_units[mode_idx].max(1);
            let extra = result.outcome.units.saturating_sub(baseline);
            let overhead_pct = 100.0 * extra as f64 / baseline as f64;
            if loss <= ACCEPTANCE_LOSS {
                // The assert_eq above already proved completion; spell the
                // gate out so a future panic names it.
                eprintln!(
                    "fig_udp_loss: {mode} loss {:.0}%: complete, {} units \
                     (+{extra}, {overhead_pct:.1}%), {} retransmits, {:.1}ms",
                    loss * 100.0,
                    result.outcome.units,
                    result.outcome.retransmits,
                    result.wall_s * 1e3
                );
            } else {
                eprintln!(
                    "fig_udp_loss: {mode} loss {:.0}%: {} units (+{extra}), {:.1}ms",
                    loss * 100.0,
                    result.outcome.units,
                    result.wall_s * 1e3
                );
            }
            riblt_bench::csv_emit!(
                csv,
                mode,
                format!("{:.1}", loss * 100.0),
                base_items,
                diff,
                result.recovered,
                result.outcome.units,
                extra,
                format!("{overhead_pct:.2}"),
                result.outcome.retransmits,
                result.outcome.stale_batches,
                result.outcome.datagrams_sent,
                result.outcome.datagrams_received,
                format!("{:.4}", result.wall_s)
            );
        }
    }

    daemon.shutdown();
}

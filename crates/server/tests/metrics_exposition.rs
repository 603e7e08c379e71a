//! End-to-end checks of the daemon's observability surface: an in-process
//! daemon serves a real TCP reconciliation, then its registry must render
//! a valid Prometheus exposition (both through the API and over the admin
//! socket's `METRICS` command), the session histograms must have moved,
//! the wire-batch cache series must show reuse across repeat syncs, and
//! `TRACE`/`STATS` must carry the lifecycle events and cache-efficiency
//! fields.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use obs::{sample_value, validate_prometheus};
use reconcile_core::backends::RibltBackend;
use reconcile_core::{sync_sharded_tcp, TcpSyncConfig};
use riblt::FixedBytes;
use server::{AdminClient, Daemon, DaemonConfig};

type Item = FixedBytes<8>;

const SHARDS: u16 = 4;

fn items(range: std::ops::Range<u64>) -> Vec<Item> {
    range.map(Item::from_u64).collect()
}

fn spawn_daemon(initial: Vec<Item>) -> Daemon<Item> {
    let config = DaemonConfig {
        shards: SHARDS,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    Daemon::spawn(config, initial).expect("daemon spawn")
}

/// One reconciliation round against the daemon; returns the total number
/// of differences the client recovered.
fn sync_once(daemon: &Daemon<Item>, local: &[Item]) -> usize {
    let key = DaemonConfig::default().key;
    let mut conn = TcpStream::connect(daemon.data_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let (diffs, _) = sync_sharded_tcp(
        &mut conn,
        local,
        |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA),
        &TcpSyncConfig {
            key,
            ..Default::default()
        },
    )
    .expect("tcp sync");
    diffs
        .iter()
        .map(|d| d.remote_only.len() + d.local_only.len())
        .sum()
}

/// Session accounting lands when the serving thread tears down, which can
/// trail the client's last read — poll the rendered text instead of racing.
fn wait_for_sample(daemon: &Daemon<Item>, name: &str, minimum: f64) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let text = daemon.metrics_text();
        if sample_value(&text, name, &[]).is_some_and(|v| v >= minimum) {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "{name} never reached {minimum}:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn live_registry_renders_a_valid_exposition_with_moving_series() {
    let daemon = spawn_daemon(items(0..2_000));
    assert_eq!(sync_once(&daemon, &items(100..2_100)), 200);

    let text = wait_for_sample(
        &daemon,
        "reconciled_sessions_completed_total",
        f64::from(SHARDS),
    );
    let summary =
        validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert!(summary.series >= 15, "only {} series", summary.series);
    assert!(
        summary.histograms >= 3,
        "only {} histograms",
        summary.histograms
    );

    // The serving path moved every headline series: one stream per shard,
    // with symbols and bytes flowing both ways.
    assert_eq!(
        sample_value(&text, "reconciled_sessions_opened_total", &[]),
        Some(f64::from(SHARDS))
    );
    let session_count =
        sample_value(&text, "reconciled_session_symbols_count", &[]).expect("session histogram");
    assert_eq!(session_count, f64::from(SHARDS));
    let session_sum =
        sample_value(&text, "reconciled_session_symbols_sum", &[]).expect("session sum");
    assert!(session_sum > 0.0, "no symbols recorded: {session_sum}");
    for direction in ["in", "out"] {
        let bytes = sample_value(&text, "reconciled_bytes_total", &[("direction", direction)])
            .expect("bytes counter");
        assert!(bytes > 0.0, "no bytes {direction}");
    }
    assert!(
        sample_value(&text, "reconciled_serve_batch_seconds_count", &[]).unwrap() > 0.0,
        "serve-batch histogram never observed"
    );
    assert_eq!(
        sample_value(&text, "reconciled_handshake_seconds_count", &[]),
        Some(1.0)
    );

    // Gauges are written at render time from live state.
    assert_eq!(sample_value(&text, "reconciled_items", &[]), Some(2_000.0));
    assert_eq!(
        sample_value(&text, "reconciled_shards", &[]),
        Some(f64::from(SHARDS))
    );

    daemon.shutdown();
}

#[test]
fn repeat_sync_hits_the_wire_batch_cache() {
    let daemon = spawn_daemon(items(0..1_000));
    let local = items(50..1_050);
    assert_eq!(sync_once(&daemon, &local), 100);
    // Same set on both ends of the cache key: the second sync replays the
    // first one's batches straight from the wire-batch cache.
    assert_eq!(sync_once(&daemon, &local), 100);

    let text = daemon.metrics_text();
    let hits = sample_value(
        &text,
        "reconciled_wire_cache_lookups_total",
        &[("result", "hit")],
    )
    .expect("hit counter");
    let misses = sample_value(
        &text,
        "reconciled_wire_cache_lookups_total",
        &[("result", "miss")],
    )
    .expect("miss counter");
    assert!(hits > 0.0, "no cache hits after a repeat sync:\n{text}");
    assert!(misses > 0.0, "the first sync must have missed");
    daemon.shutdown();
}

#[test]
fn admin_socket_serves_metrics_trace_and_cache_stats() {
    let daemon = spawn_daemon(items(0..1_000));
    assert_eq!(sync_once(&daemon, &items(0..1_010)), 10);

    let mut admin = AdminClient::connect(daemon.admin_addr()).expect("admin connect");

    // METRICS over the wire is the same exposition the API renders.
    let text = admin.metrics().expect("METRICS");
    let summary =
        validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert!(summary.series >= 15, "only {} series", summary.series);
    assert!(
        sample_value(&text, "reconciled_connections_accepted_total", &[]).unwrap() >= 1.0,
        "{text}"
    );
    assert!(
        sample_value(&text, "reconciled_connections_active", &[]).unwrap() >= 1.0,
        "the admin connection itself is active"
    );

    // TRACE shows the lifecycle the sync just produced.
    let lines = admin.trace(100).expect("TRACE");
    assert!(!lines.is_empty());
    for kind in ["conn_accept", "session_done", "admin_accept"] {
        assert!(
            lines.iter().any(|l| l.contains(kind)),
            "no {kind} event in {lines:#?}"
        );
    }

    // STATS carries the cache-efficiency fields next to the classics.
    let stats = admin.send("STATS").expect("STATS");
    for field in [
        "wire_cache_hits=",
        "wire_cache_misses=",
        "cache_gen=",
        "symbols_served=",
    ] {
        assert!(stats.contains(field), "no {field} in {stats:?}");
    }

    // Bad TRACE argument errors without killing the connection.
    let reply = admin.send("TRACE many").expect("bad trace reply");
    assert!(reply.starts_with("ERR"), "{reply}");
    assert!(admin.send("STATS").unwrap().contains("count="));
    daemon.shutdown();
}

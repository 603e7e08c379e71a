//! The daemon's metric surface: one [`obs::Registry`] per daemon instance
//! plus pre-registered handles for every hot-path series.
//!
//! Each [`crate::daemon::Daemon`] owns its own `DaemonMetrics`, so two
//! daemons in one process (common in tests) never share series. The
//! registry renders over the admin socket's `METRICS` command (Prometheus
//! text) and folds into benchmark snapshots as JSON; the event ring behind
//! `TRACE` lives here too.
//!
//! Handles are plain `Arc`s into lock-free instruments — the serving path
//! updates them with relaxed atomics and never touches the registry lock.

use std::sync::Arc;

use obs::{Counter, EventRing, Gauge, Histogram, Registry};

/// How many lifecycle events the daemon's `TRACE` ring retains.
pub const EVENT_RING_CAPACITY: usize = 256;

/// Pre-registered series handles for the `reconciled` daemon.
#[derive(Debug)]
pub struct DaemonMetrics {
    /// The registry every series below is registered in.
    pub registry: Registry,
    /// Lifecycle event ring behind the admin `TRACE` command.
    pub events: EventRing,

    /// Data connections accepted since start.
    pub connections_accepted: Arc<Counter>,
    /// Admin connections accepted since start.
    pub admin_connections: Arc<Counter>,
    /// `(session, shard)` streams opened.
    pub sessions_opened: Arc<Counter>,
    /// `(session, shard)` streams completed with `Done`.
    pub sessions_completed: Arc<Counter>,
    /// Bytes read off data connections (`direction="in"`).
    pub bytes_in: Arc<Counter>,
    /// Bytes written to data connections (`direction="out"`).
    pub bytes_out: Arc<Counter>,
    /// Connections dropped during the handshake.
    pub handshake_failures: Arc<Counter>,
    /// Connections dropped after the handshake (protocol, timeout, I/O).
    pub connection_errors: Arc<Counter>,
    /// Wire-batch cache lookups that hit (`result="hit"`).
    pub wire_cache_hits: Arc<Counter>,
    /// Wire-batch cache lookups that missed (`result="miss"`).
    pub wire_cache_misses: Arc<Counter>,
    /// Successful set mutations (`op="insert"`).
    pub inserts: Arc<Counter>,
    /// Successful set mutations (`op="remove"`).
    pub removes: Arc<Counter>,
    /// Coded symbols streamed to peers.
    pub symbols_served: Arc<Counter>,
    /// Nanoseconds of CPU spent producing payloads.
    pub serve_cpu_nanos: Arc<Counter>,
    /// Times a reactor connection crossed its write-buffer high-water mark
    /// and had its request processing paused until the peer drained.
    pub backpressure_pauses: Arc<Counter>,
    /// Datagrams received on the UDP transport (`direction="in"`).
    pub udp_datagrams_in: Arc<Counter>,
    /// Datagrams sent on the UDP transport (`direction="out"`).
    pub udp_datagrams_out: Arc<Counter>,
    /// UDP sessions established by a datagram handshake.
    pub udp_sessions_opened: Arc<Counter>,
    /// UDP sessions swept after going idle without a `Done`.
    pub udp_sessions_expired: Arc<Counter>,

    /// Data + admin connections currently open.
    pub connections_active: Arc<Gauge>,
    /// Reactor worker threads serving connections.
    pub reactor_workers: Arc<Gauge>,
    /// Items currently in the set.
    pub items: Arc<Gauge>,
    /// Configured shard count.
    pub shards: Arc<Gauge>,
    /// Seconds since the daemon started.
    pub uptime_seconds: Arc<Gauge>,

    /// Handshake latency (recorded in ns, rendered in seconds).
    pub handshake_seconds: Arc<Histogram>,
    /// Data-connection lifetime (ns → seconds).
    pub connection_seconds: Arc<Histogram>,
    /// Per-batch serve latency: cache lookup or encode plus the write
    /// (ns → seconds).
    pub serve_batch_seconds: Arc<Histogram>,
    /// Coded symbols streamed per completed `(session, shard)` stream.
    pub session_symbols: Arc<Histogram>,
    /// Payload frame sizes in bytes.
    pub payload_bytes: Arc<Histogram>,
    /// Symbols every shard's first flight held, per wildcard open.
    pub first_flight_symbols: Arc<Histogram>,
}

impl DaemonMetrics {
    /// Builds the registry and registers every daemon series.
    pub fn new() -> DaemonMetrics {
        let registry = Registry::new();
        let events = EventRing::new(EVENT_RING_CAPACITY);

        let connections_accepted = registry.counter(
            "reconciled_connections_accepted_total",
            "Data connections accepted since the daemon started.",
        );
        let admin_connections = registry.counter(
            "reconciled_admin_connections_total",
            "Admin connections accepted since the daemon started.",
        );
        let sessions_opened = registry.counter(
            "reconciled_sessions_opened_total",
            "Per-shard reconciliation streams opened by peers.",
        );
        let sessions_completed = registry.counter(
            "reconciled_sessions_completed_total",
            "Per-shard reconciliation streams peers completed with Done.",
        );
        let bytes_help = "Bytes moved over data connections, length prefixes included.";
        let bytes_in =
            registry.counter_with("reconciled_bytes_total", bytes_help, &[("direction", "in")]);
        let bytes_out = registry.counter_with(
            "reconciled_bytes_total",
            bytes_help,
            &[("direction", "out")],
        );
        let handshake_failures = registry.counter(
            "reconciled_handshake_failures_total",
            "Connections dropped during the version/key handshake.",
        );
        let connection_errors = registry.counter(
            "reconciled_connection_errors_total",
            "Connections dropped after the handshake for protocol violations, timeouts or I/O errors.",
        );
        let cache_help = "Wire-batch cache lookups while serving coded-symbol batches.";
        let wire_cache_hits = registry.counter_with(
            "reconciled_wire_cache_lookups_total",
            cache_help,
            &[("result", "hit")],
        );
        let wire_cache_misses = registry.counter_with(
            "reconciled_wire_cache_lookups_total",
            cache_help,
            &[("result", "miss")],
        );
        let mutation_help = "Successful set mutations via the API or admin socket.";
        let inserts = registry.counter_with(
            "reconciled_mutations_total",
            mutation_help,
            &[("op", "insert")],
        );
        let removes = registry.counter_with(
            "reconciled_mutations_total",
            mutation_help,
            &[("op", "remove")],
        );
        let symbols_served = registry.counter(
            "reconciled_symbols_served_total",
            "Coded symbols streamed to peers across all sessions.",
        );
        let serve_cpu_nanos = registry.counter(
            "reconciled_serve_cpu_nanoseconds_total",
            "Nanoseconds of CPU spent producing payloads (cache reads plus wire encoding).",
        );
        let backpressure_pauses = registry.counter(
            "reconciled_backpressure_pauses_total",
            "Connections paused at their write-buffer high-water mark until the peer drained.",
        );
        let udp_help = "Datagrams moved on the UDP transport, headers included.";
        let udp_datagrams_in = registry.counter_with(
            "reconciled_udp_datagrams_total",
            udp_help,
            &[("direction", "in")],
        );
        let udp_datagrams_out = registry.counter_with(
            "reconciled_udp_datagrams_total",
            udp_help,
            &[("direction", "out")],
        );
        let udp_sessions_opened = registry.counter(
            "reconciled_udp_sessions_opened_total",
            "UDP sessions established by a datagram handshake.",
        );
        let udp_sessions_expired = registry.counter(
            "reconciled_udp_sessions_expired_total",
            "UDP sessions swept after going idle without completing.",
        );

        let connections_active = registry.gauge(
            "reconciled_connections_active",
            "Data plus admin connections currently open.",
        );
        let reactor_workers = registry.gauge(
            "reconciled_reactor_workers",
            "Reactor worker threads serving connections.",
        );
        let items = registry.gauge("reconciled_items", "Items currently in the served set.");
        let shards = registry.gauge("reconciled_shards", "Configured keyspace shard count.");
        let uptime_seconds = registry.gauge(
            "reconciled_uptime_seconds",
            "Seconds since the daemon started.",
        );

        let handshake_seconds = registry.histogram_seconds(
            "reconciled_handshake_seconds",
            "Wall time from accept to a settled (accepted or rejected) handshake.",
        );
        let connection_seconds = registry.histogram_seconds(
            "reconciled_connection_seconds",
            "Data-connection lifetime from accept to close.",
        );
        let serve_batch_seconds = registry.histogram_seconds(
            "reconciled_serve_batch_seconds",
            "Latency of producing one coded-symbol batch (cache lookup or encode plus frame \
             assembly; excludes the socket write, so a slow reader cannot inflate it).",
        );
        let session_symbols = registry.histogram(
            "reconciled_session_symbols",
            "Coded symbols streamed per completed per-shard stream.",
        );
        let payload_bytes = registry.histogram(
            "reconciled_payload_bytes",
            "Payload frame sizes written to peers, in bytes.",
        );
        let first_flight_symbols = registry.histogram(
            "reconciled_first_flight_symbols",
            "Coded symbols per shard of the first flight answering a wildcard open \
             (one tile, or the range its count sketch was granted).",
        );

        DaemonMetrics {
            registry,
            events,
            connections_accepted,
            admin_connections,
            sessions_opened,
            sessions_completed,
            bytes_in,
            bytes_out,
            handshake_failures,
            connection_errors,
            wire_cache_hits,
            wire_cache_misses,
            inserts,
            removes,
            symbols_served,
            serve_cpu_nanos,
            backpressure_pauses,
            udp_datagrams_in,
            udp_datagrams_out,
            udp_sessions_opened,
            udp_sessions_expired,
            connections_active,
            reactor_workers,
            items,
            shards,
            uptime_seconds,
            handshake_seconds,
            connection_seconds,
            serve_batch_seconds,
            session_symbols,
            payload_bytes,
            first_flight_symbols,
        }
    }
}

impl Default for DaemonMetrics {
    fn default() -> Self {
        DaemonMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_a_rich_series_set() {
        let metrics = DaemonMetrics::new();
        // The ISSUE floor is 15 distinct series with at least 3 histograms;
        // keep headroom so future removals trip this early.
        assert!(
            metrics.registry.series_len() >= 15,
            "only {} series",
            metrics.registry.series_len()
        );
        metrics.connections_accepted.inc();
        metrics.bytes_in.add(100);
        metrics.handshake_seconds.observe(1_000_000);
        let text = metrics.registry.render_prometheus();
        let summary = obs::validate_prometheus(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert!(summary.histograms >= 3, "{summary:?}");
        assert!(summary.series >= 15, "{summary:?}");
    }
}

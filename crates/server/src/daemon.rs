//! The `reconciled` daemon: a TCP (and UDP) server that streams coded
//! symbols from shared per-shard sketch caches to any number of peers.
//!
//! ## Serving model
//!
//! The daemon owns one [`cluster::Node`]: an item set hash-partitioned into
//! S shards, each backed by an incrementally-maintained
//! [`riblt::SketchCache`]. Serving a session is a pure cache-range read —
//! the `batch_symbols`-sized tiles of the range the client names, out of
//! the shard's universal coded-symbol sequence, wire-encoded with the §6
//! compressed codec — so the encoding work for a set change is paid
//! **once** and every concurrent peer at any staleness reads the same
//! tiles: the node keeps each tile it encodes until its shard changes
//! ([`cluster::Node::serve_tile`]), and the daemon takes it under the node
//! lock, times it and counts it. Requests are stateless: per-connection
//! state is nothing but the set of `(session, shard)` streams that are
//! open.
//!
//! ## Connection lifecycle
//!
//! 1. The handshake of [`reconcile_core::handshake`]: magic, protocol
//!    version, SipKey fingerprint, shard-count announcement. Mismatched
//!    peers are rejected with a reason frame before the connection closes.
//! 2. Mux frames, request-driven, each handed to the connection's
//!    [`cluster::Responder`], the sans-IO serving half a cluster pair
//!    exchange serves through too (its docs have the dispatch). Clients
//!    pipeline a wildcard `Open` carrying a count sketch behind their
//!    hello, so the grant and every shard's first flight follow the
//!    daemon's hello in the same round trip. The daemon never pushes
//!    beyond what was asked or granted — on a shared connection only the
//!    client knows which shards still need symbols, and how many.
//! 3. The peer closes the connection (or times out, or errors); the
//!    connection's byte accounting folds into the daemon-wide stats.
//!
//! Every connection carries read *and* write timeouts: a peer that connects
//! and goes silent, or stops draining its receive window, costs one bounded
//! buffer in a worker's table for at most the timeout before the connection
//! is dropped.
//!
//! One set of threads serves all of this: the reactor workers of
//! [`crate::event`]. There is no second serving path to keep in step; the
//! daemon's wire output is held instead to a reference that shares none of
//! this module's code (`tests/wire_equivalence.rs`: the library's
//! `server_handshake` and `netsim::ServerMux` over plain streaming encoders).
//!
//! ## Consistency under mutation
//!
//! Admin `ADD`/`REMOVE` take the node lock, so each served batch is a
//! consistent snapshot. A mutation *between* batches of a long-running
//! session changes later cells out from under the stream (already-served
//! ranges described the old set). The client's peeler notices the splice
//! and stops with the sticky `riblt::Error::InconsistentStream` instead of
//! spending its unit budget on it, and the sync fails; nothing retries it,
//! so the caller syncs again against the new state if it wants one.
//! Sessions are short (seconds) relative to typical churn, the deployment
//! the paper's incremental-cache story targets.

#![forbid(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cluster::{Node, NodeConfig, Served, Tiles};
use obs::{lock_unpoisoned, SpanTimer};
use reconcile_core::datagram::{handle_server_datagram, DatagramEvent, DatagramService};
use reconcile_core::framing::LENGTH_PREFIX_BYTES;
use reconcile_core::handshake::{Hello, HELLO_BYTES};
use reconcile_core::{CountSketch, RangeRequest, ShardId};
use riblt::Symbol;
use riblt_hash::SipKey;

use crate::event;
use crate::metrics::DaemonMetrics;

/// Static configuration of a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Data listener address (`host:port`; port 0 picks a free port).
    pub listen: String,
    /// Admin/metrics listener address.
    pub admin: String,
    /// Number of keyspace shards the set is partitioned into.
    pub shards: u16,
    /// Item length in bytes.
    pub symbol_len: usize,
    /// Shared keyed-hash key (drives partitioning, checksums, mappings —
    /// peers must hold the same key, enforced by the handshake fingerprint).
    pub key: SipKey,
    /// Coded symbols per payload frame: the tile every `Open` is answered
    /// with and every range request must be aligned to.
    pub batch_symbols: usize,
    /// Read timeout on every connection: a silent peer is dropped after
    /// this long.
    pub read_timeout: Duration,
    /// Write timeout on every connection: a peer that stops draining is
    /// dropped after this long.
    pub write_timeout: Duration,
    /// Per-`(session, shard)` budget: a request that reaches past this many
    /// coded symbols drops the connection (bounds cache growth against
    /// wedged or mis-keyed peers that can never finish decoding).
    pub max_units_per_session: usize,
    /// Reactor worker threads (0 = auto: the core count, capped at 4).
    pub reactor_workers: usize,
    /// Per-connection outbound buffer high-water mark in bytes. A
    /// connection whose unsent replies cross this stops having its requests
    /// processed (and, above it, read) until the peer drains — the
    /// backpressure that keeps one slow peer from holding batch payloads
    /// for everyone.
    pub max_write_buffer: usize,
    /// UDP data listener address (`None` disables the datagram transport).
    /// Serves the same coded-symbol streams as the TCP listener, over the
    /// stateless-cookie datagram protocol (`reconcile_core::datagram`), in
    /// datagrams of at most `DEFAULT_MTU_BUDGET` bytes.
    pub udp_listen: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen: "127.0.0.1:0".into(),
            admin: "127.0.0.1:0".into(),
            shards: 8,
            symbol_len: 8,
            key: SipKey::default(),
            batch_symbols: 32,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_units_per_session: 1 << 20,
            reactor_workers: 0,
            max_write_buffer: 1 << 20,
            udp_listen: None,
        }
    }
}

/// Aggregate daemon counters, as reported by [`Daemon::stats`] and the
/// admin `STATS` command.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DaemonStats {
    /// Data connections accepted since start.
    pub connections_accepted: usize,
    /// Data + admin connections currently open.
    pub connections_active: usize,
    /// `(session, shard)` streams opened.
    pub sessions_opened: usize,
    /// `(session, shard)` streams the peers completed with `Done`.
    pub sessions_completed: usize,
    /// Bytes read off data connections (length prefixes included).
    pub bytes_in: u64,
    /// Bytes written to data connections (length prefixes included).
    pub bytes_out: u64,
    /// CPU seconds spent producing payloads (cache reads + wire encoding).
    pub serve_cpu_s: f64,
    /// Connections dropped during the handshake (mismatch or malformed).
    pub handshake_failures: usize,
    /// Connections dropped for protocol violations, timeouts or I/O errors
    /// after a completed handshake.
    pub connection_errors: usize,
}

/// Per-connection accounting, folded into [`DaemonStats`] on disconnect.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ConnAccounting {
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    pub(crate) sessions_opened: usize,
    pub(crate) sessions_completed: usize,
}

pub(crate) struct SharedState<S: Symbol + Ord> {
    pub(crate) config: DaemonConfig,
    pub(crate) node: Mutex<Node<S>>,
    pub(crate) metrics: DaemonMetrics,
    pub(crate) stop: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) started: Instant,
    /// The UDP half's hello, unit budget and cookie secret: immutable, so a
    /// datagram takes no lock but the node's.
    pub(crate) udp: DatagramService,
}

/// A change to the served set, for [`SharedState::mutate`].
pub(crate) enum Mutation<'a, S> {
    Insert(S),
    Remove(&'a S),
}

impl<S: Symbol + Ord> SharedState<S> {
    pub(crate) fn request_shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            self.metrics.events.record("shutdown", "requested");
        }
    }

    /// Snapshot of the aggregate counters, reconstructed from the metric
    /// series (plus the live-connection atomic, which also drives draining).
    pub(crate) fn stats_snapshot(&self) -> DaemonStats {
        let m = &self.metrics;
        DaemonStats {
            connections_accepted: m.connections_accepted.get() as usize,
            connections_active: self.active.load(Ordering::SeqCst),
            sessions_opened: m.sessions_opened.get() as usize,
            sessions_completed: m.sessions_completed.get() as usize,
            bytes_in: m.bytes_in.get(),
            bytes_out: m.bytes_out.get(),
            serve_cpu_s: m.serve_cpu_nanos.get() as f64 * 1e-9,
            handshake_failures: m.handshake_failures.get() as usize,
            connection_errors: m.connection_errors.get() as usize,
        }
    }

    /// The full registry in Prometheus text exposition format. The
    /// point-in-time gauges (set size, live connections, uptime) are only
    /// written here — render time — so the serving path never pays for them.
    pub(crate) fn render_metrics(&self) -> String {
        let m = &self.metrics;
        m.items.set(lock_unpoisoned(&self.node).len() as i64);
        m.shards.set(i64::from(self.config.shards));
        m.connections_active
            .set(self.active.load(Ordering::SeqCst) as i64);
        m.uptime_seconds
            .set(self.started.elapsed().as_secs() as i64);
        m.registry.render_prometheus()
    }

    /// The one way the served set changes: applies `mutation` under the
    /// node lock (which drops the changed shard's encoded tiles) and, if the
    /// set changed, counts the write. Returns false when the item was
    /// already present (or already absent).
    pub(crate) fn mutate(&self, mutation: Mutation<'_, S>) -> bool {
        let (changed, counter) = {
            let mut node = lock_unpoisoned(&self.node);
            match mutation {
                Mutation::Insert(item) => (node.insert(item), &self.metrics.inserts),
                Mutation::Remove(item) => (node.remove(item), &self.metrics.removes),
            }
        };
        if changed {
            counter.inc();
        }
        changed
    }
}

/// A running `reconciled` daemon (listeners + serving threads), usable
/// in-process from tests or wrapped by the `reconciled` binary.
pub struct Daemon<S: Symbol + Ord + Send + 'static> {
    data_addr: SocketAddr,
    admin_addr: SocketAddr,
    udp_addr: Option<SocketAddr>,
    shared: Arc<SharedState<S>>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Symbol + Ord + Send + 'static> Daemon<S> {
    /// Binds both listeners, seeds the node with `initial` items, and
    /// starts the reactor workers.
    pub fn spawn(config: DaemonConfig, initial: impl IntoIterator<Item = S>) -> io::Result<Self> {
        // The handshake carries the item length as a u16; reject a config
        // the wire format cannot express before binding anything.
        if config.symbol_len == 0 || config.symbol_len > usize::from(u16::MAX) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "symbol_len {} is outside the wire format's u16 range",
                    config.symbol_len
                ),
            ));
        }
        if config.shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "at least one shard is required",
            ));
        }
        if config.batch_symbols == 0 || config.batch_symbols > RangeRequest::MAX_COUNT {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "batch_symbols {} is outside 1..={} (one range request must be able to name a batch)",
                    config.batch_symbols,
                    RangeRequest::MAX_COUNT
                ),
            ));
        }
        let data_listener = TcpListener::bind(&config.listen)?;
        let admin_listener = TcpListener::bind(&config.admin)?;
        data_listener.set_nonblocking(true)?;
        admin_listener.set_nonblocking(true)?;
        let data_addr = data_listener.local_addr()?;
        let admin_addr = admin_listener.local_addr()?;
        let udp_socket = config
            .udp_listen
            .as_ref()
            .map(UdpSocket::bind)
            .transpose()?;
        if let Some(socket) = &udp_socket {
            socket.set_nonblocking(true)?;
        }
        let udp_addr = udp_socket.as_ref().map(UdpSocket::local_addr).transpose()?;

        let mut node = Node::new(
            0,
            NodeConfig {
                shards: config.shards,
                key: config.key,
                symbol_len: config.symbol_len,
            },
        );
        node.extend(initial);

        let udp = DatagramService::new(
            Hello::new(config.key, config.shards, config.symbol_len),
            config.max_units_per_session,
        );
        let shared = Arc::new(SharedState {
            config,
            node: Mutex::new(node),
            metrics: DaemonMetrics::new(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            started: Instant::now(),
            udp,
        });

        let threads = event::spawn_workers(data_listener, admin_listener, udp_socket, &shared)?;

        Ok(Daemon {
            data_addr,
            admin_addr,
            udp_addr,
            shared,
            threads,
        })
    }

    /// Address of the data (reconciliation) listener.
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// Address of the admin/metrics listener.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// Address of the UDP data socket, when the datagram transport is
    /// enabled ([`DaemonConfig::udp_listen`]).
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp_addr
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> DaemonStats {
        self.shared.stats_snapshot()
    }

    /// The full metric surface in Prometheus text exposition format (what
    /// the admin `METRICS` command serves).
    pub fn metrics_text(&self) -> String {
        self.shared.render_metrics()
    }

    /// Number of items currently in the set.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.shared.node).len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Order-independent digest of the set (see [`cluster::set_digest`]).
    pub fn digest(&self) -> u64 {
        lock_unpoisoned(&self.shared.node).digest()
    }

    /// The daemon's live metric handles — tests and embedding processes can
    /// read counters and histogram snapshots directly instead of parsing
    /// the rendered exposition.
    pub fn metrics(&self) -> &DaemonMetrics {
        &self.shared.metrics
    }

    /// Adds an item (patching O(log m) cells of its shard's cache).
    /// Returns false if it was already present.
    pub fn insert(&self, item: S) -> bool {
        self.shared.mutate(Mutation::Insert(item))
    }

    /// Removes an item. Returns false if it was absent.
    pub fn remove(&self, item: &S) -> bool {
        self.shared.mutate(Mutation::Remove(item))
    }

    /// True once a shutdown has been requested (via [`Self::shutdown`] or
    /// the admin `SHUTDOWN` command).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Blocks until a shutdown is requested, then joins the reactor workers.
    /// Each stops accepting and gives its live connections
    /// [`event::drain_grace`] to finish before it closes them and returns,
    /// so no connection outlives this call.
    pub fn wait(mut self) {
        while !self.shared.stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(20));
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Requests a graceful shutdown and drains (see [`Self::wait`]).
    pub fn shutdown(self) {
        self.shared.request_shutdown();
        self.wait();
    }
}

impl<S: Symbol + Ord + Send + 'static> Drop for Daemon<S> {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl ConnAccounting {
    /// Books the two 18-byte hello frames (one each way) a completed
    /// handshake moved.
    pub(crate) fn book_handshake<S: Symbol + Ord>(&mut self, shared: &SharedState<S>) {
        let hello = (LENGTH_PREFIX_BYTES + HELLO_BYTES) as u64;
        let (bytes_in, bytes_out) = (hello, hello);
        self.book(
            shared,
            &Served {
                bytes_in,
                bytes_out,
                ..Served::default()
            },
        );
    }

    /// Folds one turn of the connection's [`cluster::Responder`] into its
    /// accounting and the daemon's metrics, and records the turn's
    /// `first_flight` and `session_done` events on `TRACE`.
    pub(crate) fn book<S: Symbol + Ord>(&mut self, shared: &SharedState<S>, served: &Served) {
        let metrics = &shared.metrics;
        self.bytes_in += served.bytes_in;
        metrics.bytes_in.add(served.bytes_in);
        self.bytes_out += served.bytes_out;
        metrics.bytes_out.add(served.bytes_out);
        self.sessions_opened += served.opened;
        metrics.sessions_opened.add(served.opened as u64);
        if let Some((session, flight)) = served.first_flight {
            metrics.first_flight_symbols.observe(flight.symbols as u64);
            let estimate = flight
                .estimate
                .map_or_else(|| "none".to_string(), |d| format!("{d:.1}"));
            metrics.events.record(
                "first_flight",
                format!(
                    "session={session} estimate={estimate} symbols_per_shard={}",
                    flight.symbols
                ),
            );
        }
        if let Some((session, shard, symbols)) = served.completed {
            self.sessions_completed += 1;
            metrics.sessions_completed.inc();
            metrics.session_symbols.observe(symbols as u64);
            metrics.events.record(
                "session_done",
                format!("session={session} shard={shard} symbols={symbols}"),
            );
        }
    }
}

/// What a connection's [`cluster::Responder`] serves from: the node, under
/// its lock, taken once per range ([`serve_shard_tiles`]).
impl<S: Symbol + Ord> Tiles for &SharedState<S> {
    fn with_count_sketch<R>(&self, read: impl FnOnce(&CountSketch) -> R) -> R {
        read(lock_unpoisoned(&self.node).count_sketch())
    }

    fn tiles(
        &mut self,
        shard: ShardId,
        offset: usize,
        count: usize,
        tile: usize,
    ) -> Vec<Arc<[u8]>> {
        serve_shard_tiles(self, shard, offset, count, tile)
    }
}

/// The `count` wire-encoded batches of `tile` symbols that cover a shard's
/// stream from `offset`, taken from the node in one hold of its lock
/// ([`cluster::Node::serve_tiles`]: the range's cells built first, then a
/// repeat tile of an unchanged shard shared, anything else encoded once),
/// each counted as a wire-cache hit or miss, the hold timed in
/// `serve_batch_seconds` and the serve CPU counter. Shared by the TCP path
/// (a checked range of `batch_symbols` tiles) and the UDP path (one batch
/// of whatever fits the MTU budget).
pub(crate) fn serve_shard_tiles<S: Symbol + Ord>(
    shared: &SharedState<S>,
    shard: ShardId,
    offset: usize,
    count: usize,
    tile: usize,
) -> Vec<Arc<[u8]>> {
    let metrics = &shared.metrics;
    let span = SpanTimer::start(&metrics.serve_batch_seconds);
    let t0 = Instant::now();
    let served = lock_unpoisoned(&shared.node).serve_tiles(shard, offset, count, tile);
    let serve_cpu = t0.elapsed();
    span.stop();
    metrics
        .serve_cpu_nanos
        .add(serve_cpu.as_nanos().min(u64::MAX as u128) as u64);
    metrics.symbols_served.add((count * tile) as u64);
    let payloads = served.into_iter().map(|(payload, cached)| {
        if cached {
            metrics.wire_cache_hits.inc();
        } else {
            metrics.wire_cache_misses.inc();
        }
        metrics.payload_bytes.observe(payload.len() as u64);
        payload
    });
    payloads.collect()
}

/// Dispatches one inbound UDP datagram and transmits any replies; the
/// reactor workers call it from their nonblocking receive pump. Reply sends
/// are best-effort — a full socket buffer drops the reply exactly like the
/// network would, and the client's retransmit timer heals it.
///
/// A shard's stream is booked as TCP books it: opened when the request for
/// its offset 0 is served, completed (with its symbols) at its `Done`. A
/// retransmitted first request or a lost `Done` miscounts it, so the counts
/// are exact on a clean link only.
pub(crate) fn handle_udp_datagram<S: Symbol + Ord>(
    socket: &UdpSocket,
    shared: &SharedState<S>,
    peer: SocketAddr,
    datagram: &[u8],
) {
    let metrics = &shared.metrics;
    metrics.udp_datagrams_in.inc();
    metrics.bytes_in.add(datagram.len() as u64);
    let peer_bytes = peer.to_string().into_bytes();
    let (replies, event) =
        handle_server_datagram(&shared.udp, &peer_bytes, datagram, |shard, start, count| {
            Some(serve_shard_tiles(shared, shard, start as usize, 1, count)[0].to_vec())
        });
    match event {
        DatagramEvent::HelloAccepted { .. } => metrics.udp_sessions_opened.inc(),
        DatagramEvent::HelloRejected => {
            metrics.handshake_failures.inc();
            metrics
                .events
                .record("udp_handshake_fail", format!("peer={peer}"));
        }
        DatagramEvent::Served { start: 0, .. } => metrics.sessions_opened.inc(),
        DatagramEvent::Done { shard, units } => {
            metrics.sessions_completed.inc();
            metrics.session_symbols.observe(units);
            metrics.events.record(
                "udp_session_done",
                format!("peer={peer} shard={shard} symbols={units}"),
            );
        }
        _ => {}
    }
    for reply in replies {
        metrics.udp_datagrams_out.inc();
        metrics.bytes_out.add(reply.len() as u64);
        let _ = socket.send_to(&reply, peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reconcile_core::backends::RibltBackend;
    use reconcile_core::{sync_sharded_tcp, EngineError, TcpSyncConfig, TcpSyncOutcome};
    use riblt::FixedBytes;
    use std::collections::HashSet;
    use std::net::TcpStream;

    type Item = FixedBytes<8>;

    fn items(range: std::ops::Range<u64>) -> Vec<Item> {
        range.map(Item::from_u64).collect()
    }

    fn test_config() -> DaemonConfig {
        DaemonConfig {
            shards: 4,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            ..Default::default()
        }
    }

    fn sync_against(
        daemon: &Daemon<Item>,
        local: &[Item],
    ) -> (Vec<riblt::SetDifference<Item>>, TcpSyncOutcome) {
        let mut conn = TcpStream::connect(daemon.data_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let key = daemon.shared.config.key;
        sync_sharded_tcp(
            &mut conn,
            local,
            |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA),
            &TcpSyncConfig {
                key,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn serves_one_client_in_process() {
        let daemon = Daemon::spawn(test_config(), items(0..2_000)).unwrap();
        let local = items(100..2_050);
        let (diffs, outcome) = sync_against(&daemon, &local);
        assert_eq!(outcome.shards, 4);
        let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
        let local_only: usize = diffs.iter().map(|d| d.local_only.len()).sum();
        assert_eq!(remote, 100);
        assert_eq!(local_only, 50);
        // TRACE names what the count sketch told the daemon and what it
        // granted: whole tiles for 150 differences ± 4σ (± 72) over 4
        // shards — two, at the estimate's mean (1.35 × 37.5 = 50.6 → 64).
        let events = daemon.metrics().events.last(16);
        let flight = events
            .iter()
            .find(|e| e.kind == "first_flight")
            .expect("a first_flight event");
        let field = |name: &str| -> f64 {
            let value = flight.detail.split(&format!("{name}=")).nth(1).unwrap();
            value.split(' ').next().unwrap().parse().unwrap()
        };
        assert!((90.0..=230.0).contains(&field("estimate")), "{flight:?}");
        assert_eq!(field("symbols_per_shard") % 32.0, 0.0, "{flight:?}");
        let histogram = &daemon.metrics().first_flight_symbols;
        assert_eq!(histogram.count(), 1);
        assert_eq!(histogram.sum() as f64, field("symbols_per_shard"));
        daemon.shutdown();
    }

    #[test]
    fn serves_concurrent_peers_from_the_same_caches() {
        let daemon = Arc::new(Daemon::spawn(test_config(), items(0..3_000)).unwrap());
        let mut handles = Vec::new();
        for staleness in [5u64, 50, 200] {
            let daemon = Arc::clone(&daemon);
            handles.push(thread::spawn(move || {
                let local = items(staleness..3_000);
                let (diffs, _) = sync_against(&daemon, &local);
                let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
                assert_eq!(remote as u64, staleness);
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        // Connection accounting folds in when each serving thread tears
        // down, which can trail the clients' last bytes — poll, don't race.
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon.stats().sessions_completed < 12 {
            assert!(Instant::now() < deadline, "accounting never settled");
            thread::sleep(Duration::from_millis(10));
        }
        let stats = daemon.stats();
        assert_eq!(stats.connections_accepted, 3);
        assert_eq!(stats.sessions_opened, 12, "3 peers x 4 shards");
        assert_eq!(stats.sessions_completed, 12);
        assert!(stats.bytes_out > stats.bytes_in);
        Arc::try_unwrap(daemon).ok().unwrap().shutdown();
    }

    #[test]
    fn mutations_between_sessions_are_served_incrementally() {
        let daemon = Daemon::spawn(test_config(), items(0..500)).unwrap();
        let local = items(0..500);
        let (diffs, _) = sync_against(&daemon, &local);
        assert!(diffs.iter().all(|d| d.is_empty()));
        // Mutate through the in-process API (the admin socket path is
        // exercised by the admin tests and the two-process test).
        let (added, removed) = (Item::from_u64(9_999), Item::from_u64(3));
        let touched: HashSet<ShardId> = {
            let node = lock_unpoisoned(&daemon.shared.node);
            [node.shard_of(&added), node.shard_of(&removed)].into()
        };
        assert!(daemon.insert(added));
        assert!(daemon.remove(&removed));
        let metrics = daemon.metrics();
        let lookups = || {
            (
                metrics.wire_cache_hits.get(),
                metrics.wire_cache_misses.get(),
            )
        };
        let before = lookups();
        let (diffs, _) = sync_against(&daemon, &local);
        // Both syncs are one tile a shard. Only the changed shards' tiles
        // are encoded again; the others are the warm sync's.
        let after = lookups();
        let (hits, misses) = (after.0 - before.0, after.1 - before.1);
        let shards = u64::from(daemon.shared.config.shards);
        assert_eq!(hits + misses, shards, "one tile a shard");
        assert_eq!(misses, touched.len() as u64);
        let remote: Vec<u64> = diffs
            .iter()
            .flat_map(|d| d.remote_only.iter().map(|i| i.to_u64()))
            .collect();
        let local_only: Vec<u64> = diffs
            .iter()
            .flat_map(|d| d.local_only.iter().map(|i| i.to_u64()))
            .collect();
        assert_eq!(remote, vec![9_999]);
        assert_eq!(local_only, vec![3]);
        daemon.shutdown();
    }

    #[test]
    fn oversized_session_budget_drops_the_connection() {
        let config = DaemonConfig {
            max_units_per_session: 16,
            batch_symbols: 16,
            shards: 1,
            read_timeout: Duration::from_secs(2),
            ..Default::default()
        };
        // Large difference + tiny budget: the daemon cuts the stream off.
        let daemon = Daemon::spawn(config, items(0..5_000)).unwrap();
        let mut conn = TcpStream::connect(daemon.data_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let err = sync_sharded_tcp(
            &mut conn,
            &[] as &[Item],
            |_| RibltBackend::<Item>::new(8, 32),
            &TcpSyncConfig::default(),
        )
        .unwrap_err();
        // The client observes the drop as a transport error mid-stream.
        assert!(matches!(err, EngineError::Io(_, _)), "{err}");
        daemon.shutdown();
    }

    #[test]
    fn node_lock_poison_does_not_take_down_the_daemon() {
        let daemon = Daemon::spawn(test_config(), items(0..100)).unwrap();
        // A thread panicking while holding the node lock poisons it; every
        // accessor recovers via `lock_unpoisoned` instead of propagating.
        let shared = Arc::clone(&daemon.shared);
        let result = thread::Builder::new()
            .name("poisoner".into())
            .spawn(move || {
                let _guard = shared.node.lock().unwrap();
                panic!("deliberate panic while holding the node lock");
            })
            .unwrap()
            .join();
        assert!(result.is_err(), "the poisoner must have panicked");

        assert_eq!(daemon.len(), 100);
        assert!(daemon.insert(Item::from_u64(9_999)));
        assert_eq!(daemon.len(), 101);
        let digest = daemon.digest();

        // A full reconciliation round still works on the poisoned lock.
        let (diffs, _) = sync_against(&daemon, &items(0..100));
        let remote: Vec<u64> = diffs
            .iter()
            .flat_map(|d| d.remote_only.iter().map(|i| i.to_u64()))
            .collect();
        assert_eq!(remote, vec![9_999]);
        assert_eq!(daemon.digest(), digest);
        daemon.shutdown();
    }
}

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
//! tiles. Requests are stateless: per-connection state is nothing but the
//! set of `(session, shard)` streams that are open.
//!
//! ## Connection lifecycle
//!
//! 1. The handshake of [`reconcile_core::handshake`]: magic, protocol
//!    version, SipKey fingerprint, shard-count announcement. Mismatched
//!    peers are rejected with a reason frame before the connection closes.
//! 2. Mux frames, request-driven: `Open` (validated against the rateless
//!    stream magic) produces the stream's first tile, `Request(offset,
//!    count)` one `Payload` per tile of the range, in order; `Done` retires
//!    the `(session, shard)`. An `Open` addressed to
//!    [`SHARD_ALL`] opens every shard; clients
//!    pipeline it behind their hello, so the first flight follows the
//!    daemon's hello in the same round trip. When it carries a count sketch
//!    of the client's set, the node's own counts turn it into an estimate of
//!    the difference, and every shard's first flight is sized from that
//!    ([`FirstFlight::for_sketch`], the library's one rule) and announced in a
//!    grant frame ahead of the payloads. The daemon never pushes beyond
//!    what was asked or granted — on a shared connection only the client
//!    knows which shards still need symbols, and how many.
//! 3. The peer closes the connection (or times out, or errors); the
//!    connection's byte/CPU accounting folds into the daemon-wide stats.
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
//! `server_handshake` and `ServerMux` over plain streaming encoders).
//!
//! ## Consistency under mutation
//!
//! Admin `ADD`/`REMOVE` take the node lock, so each served batch is a
//! consistent snapshot. A mutation *between* batches of a long-running
//! session changes later cells out from under the stream (already-served
//! ranges described the old set); the decoder then simply fails to settle
//! and the client retries against the new state — rateless streams make
//! the retry cheap, and the unit budget bounds the damage. Sessions are
//! short (seconds) relative to typical churn, exactly the deployment the
//! paper's incremental-cache story targets.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cluster::{Node, NodeConfig};
use obs::{lock_unpoisoned, SpanTimer};
use reconcile_core::backends::RIBLT_STREAM_MAGIC;
use reconcile_core::datagram::{
    handle_server_datagram, DatagramEvent, DatagramServiceConfig, UdpSessionTable,
    DEFAULT_MTU_BUDGET, MIN_MTU_BUDGET,
};
use reconcile_core::framing::{append_frame, LENGTH_PREFIX_BYTES};
use reconcile_core::handshake::{Hello, HELLO_BYTES};
use reconcile_core::wirefmt::validate_stream_open;
use reconcile_core::{
    EngineError, EngineMessage, FirstFlight, MuxFrame, RangeRequest, SessionId, ShardId, SHARD_ALL,
};
use riblt::wire::SymbolCodec;
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
    /// session-cookie datagram protocol (`reconcile_core::datagram`).
    pub udp_listen: Option<String>,
    /// Per-datagram byte budget on the UDP transport: replies are packed
    /// with as many symbols as fit, and larger inbound datagrams are
    /// dropped.
    pub udp_mtu_budget: usize,
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
            udp_mtu_budget: DEFAULT_MTU_BUDGET,
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
    pub(crate) serve_cpu_s: f64,
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
    /// Per-shard mutation generation. Bumped (under the node lock) by every
    /// successful insert/remove; a cached wire batch is valid only while its
    /// shard's generation is unchanged.
    pub(crate) shard_gens: Vec<AtomicU64>,
    /// Precomputed wire batches, keyed by `(shard, offset, count)`. Serving
    /// a repeat tile — every peer reads the same universal coded-symbol
    /// prefix — becomes a map lookup plus a memcpy instead of a cache-range
    /// read and §6 re-encode under the node lock. The count is part of the
    /// key because TCP (batch_symbols) and UDP (MTU-sized) batches tile the
    /// same offsets with different strides.
    pub(crate) wire_cache: Mutex<WireBatchCache>,
    /// Live UDP sessions, keyed by cookie (empty when the datagram
    /// transport is disabled).
    pub(crate) udp_sessions: Mutex<UdpSessionTable>,
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

    /// Refreshes the point-in-time gauges (set size, live connections,
    /// uptime) and hands back the registry to render. The gauges are only
    /// written here — render time — so the serving path never pays for them.
    fn refreshed_registry(&self) -> &obs::Registry {
        let m = &self.metrics;
        m.items.set(lock_unpoisoned(&self.node).len() as i64);
        m.shards.set(i64::from(self.config.shards));
        m.connections_active
            .set(self.active.load(Ordering::SeqCst) as i64);
        m.uptime_seconds
            .set(self.started.elapsed().as_secs() as i64);
        &m.registry
    }

    /// The full registry in Prometheus text exposition format.
    pub(crate) fn render_metrics(&self) -> String {
        self.refreshed_registry().render_prometheus()
    }

    /// Like [`Self::render_metrics`] but as the registry's compact JSON
    /// (for benchmark snapshots).
    pub(crate) fn render_metrics_json(&self) -> String {
        self.refreshed_registry().render_json()
    }

    /// The one way the served set changes: applies `mutation` under the
    /// node lock and, if the set changed, invalidates the shard's cached
    /// wire batches and counts the write. Returns the shard that changed,
    /// `None` when the item was already present (or already absent).
    pub(crate) fn mutate(&self, mutation: Mutation<'_, S>) -> Option<ShardId> {
        let mut node = lock_unpoisoned(&self.node);
        let (shard, changed, counter) = match mutation {
            Mutation::Insert(item) => (
                node.shard_of(&item),
                node.insert(item),
                &self.metrics.inserts,
            ),
            Mutation::Remove(item) => (
                node.shard_of(item),
                node.remove(item),
                &self.metrics.removes,
            ),
        };
        if !changed {
            return None;
        }
        // Bumped with the node lock held, so the generation an encode
        // observes under the same lock is stable.
        self.shard_gens[usize::from(shard)].fetch_add(1, Ordering::Release);
        drop(node);
        counter.inc();
        Some(shard)
    }

    pub(crate) fn shard_gen(&self, shard: ShardId) -> u64 {
        self.shard_gens[usize::from(shard)].load(Ordering::Acquire)
    }
}

/// Bound on cached wire batches across all shards; crossing it clears the
/// cache (serves repopulate it), keeping worst-case memory small without
/// an eviction policy on the hot path.
const WIRE_CACHE_MAX_BATCHES: usize = 4096;

/// See [`SharedState::wire_cache`].
#[derive(Default)]
pub(crate) struct WireBatchCache {
    batches: HashMap<(ShardId, usize, usize), (u64, Vec<u8>)>,
}

impl WireBatchCache {
    fn get(&self, shard: ShardId, offset: usize, count: usize, gen: u64) -> Option<Vec<u8>> {
        match self.batches.get(&(shard, offset, count)) {
            Some((cached_gen, bytes)) if *cached_gen == gen => Some(bytes.clone()),
            _ => None,
        }
    }

    fn insert(&mut self, shard: ShardId, offset: usize, count: usize, gen: u64, bytes: Vec<u8>) {
        if self.batches.len() >= WIRE_CACHE_MAX_BATCHES
            && !self.batches.contains_key(&(shard, offset, count))
        {
            self.batches.clear();
        }
        self.batches.insert((shard, offset, count), (gen, bytes));
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
        if config.udp_listen.is_some() && config.udp_mtu_budget < MIN_MTU_BUDGET {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "udp_mtu_budget {} is below the {MIN_MTU_BUDGET}-byte floor",
                    config.udp_mtu_budget
                ),
            ));
        }
        let data_listener = TcpListener::bind(&config.listen)?;
        let admin_listener = TcpListener::bind(&config.admin)?;
        data_listener.set_nonblocking(true)?;
        admin_listener.set_nonblocking(true)?;
        let data_addr = data_listener.local_addr()?;
        let admin_addr = admin_listener.local_addr()?;
        let udp_socket = match &config.udp_listen {
            Some(addr) => {
                let socket = UdpSocket::bind(addr)?;
                socket.set_nonblocking(true)?;
                Some(socket)
            }
            None => None,
        };
        let udp_addr = match &udp_socket {
            Some(socket) => Some(socket.local_addr()?),
            None => None,
        };

        let mut node = Node::new(
            0,
            NodeConfig {
                shards: config.shards,
                key: config.key,
                symbol_len: config.symbol_len,
            },
        );
        node.extend(initial);

        let shard_gens = (0..config.shards).map(|_| AtomicU64::new(0)).collect();
        let shared = Arc::new(SharedState {
            config,
            node: Mutex::new(node),
            metrics: DaemonMetrics::new(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            started: Instant::now(),
            shard_gens,
            wire_cache: Mutex::new(WireBatchCache::default()),
            udp_sessions: Mutex::new(UdpSessionTable::new()),
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

    /// The full metric surface as compact JSON, for embedding in benchmark
    /// snapshots.
    pub fn metrics_json(&self) -> String {
        self.shared.render_metrics_json()
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
        self.shared.mutate(Mutation::Insert(item)).is_some()
    }

    /// Removes an item. Returns false if it was absent.
    pub fn remove(&self, item: &S) -> bool {
        self.shared.mutate(Mutation::Remove(item)).is_some()
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

/// Books the two 18-byte hello frames (one each way) a completed handshake
/// moved.
pub(crate) fn account_handshake<S: Symbol + Ord>(
    shared: &SharedState<S>,
    acct: &mut ConnAccounting,
) {
    let hello_wire = (LENGTH_PREFIX_BYTES + HELLO_BYTES) as u64;
    acct.bytes_in += hello_wire;
    acct.bytes_out += hello_wire;
    shared.metrics.bytes_in.add(hello_wire);
    shared.metrics.bytes_out.add(hello_wire);
}

/// All per-connection protocol state: the `(session, shard)` streams that
/// are open, each with the symbols served on it so far, and how far a
/// wildcard open has been expanded. The counts are accounting for the
/// `session_done` record only — every request names its own range, so
/// serving never consults them.
#[derive(Debug, Default)]
pub(crate) struct OpenStreams {
    served: HashMap<(SessionId, ShardId), usize>,
    /// A wildcard open in progress: its session, the next shard to open and
    /// the symbols each shard's first flight holds.
    wildcard: Option<(SessionId, ShardId, usize)>,
}

impl OpenStreams {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// True while a wildcard open has shards left to open. The serving loop
    /// opens them one [`open_next_wildcard_shard`] at a time before it takes
    /// the connection's next frame.
    pub(crate) fn expanding_wildcard(&self) -> bool {
        self.wildcard.is_some()
    }
}

/// Dispatches one post-handshake client frame, appending the reply frames
/// it calls for (length-prefixed, ready to write) to `out`: `Open` → the
/// stream's first tile, `Request` → one payload frame per tile of its
/// range, `Done` → none. An `Open` addressed to [`SHARD_ALL`] is an `Open`
/// of every shard, each answered with its first flight (one tile, or the
/// granted range when the open carries a count sketch, behind the grant
/// frame): this opens shard 0 and leaves the rest to
/// [`open_next_wildcard_shard`], so the caller's backpressure check runs
/// between shards as it does between separate opens. `out` is the
/// connection's write buffer: a reply is staged where it will be flushed
/// from, never copied.
///
/// A request is validated in full before anything is staged, so a hostile
/// range costs a typed error and the connection, never memory proportional
/// to the count it named.
pub(crate) fn handle_client_frame<S: Symbol + Ord>(
    shared: &SharedState<S>,
    streams: &mut OpenStreams,
    frame_bytes: &[u8],
    acct: &mut ConnAccounting,
    out: &mut Vec<u8>,
) -> reconcile_core::Result<()> {
    let config = &shared.config;
    let frame = MuxFrame::from_bytes(frame_bytes)?;
    let wire_in = (LENGTH_PREFIX_BYTES + frame.wire_size()) as u64;
    acct.bytes_in += wire_in;
    shared.metrics.bytes_in.add(wire_in);
    let key = (frame.session, frame.shard);
    if frame.shard == SHARD_ALL && !matches!(frame.message, EngineMessage::Open(_)) {
        return Err(EngineError::Protocol(
            "only an open may address every shard",
        ));
    }
    match frame.message {
        EngineMessage::Open(ref request) => {
            let sketch = validate_stream_open(request, RIBLT_STREAM_MAGIC, config.symbol_len)?;
            if frame.shard != SHARD_ALL {
                return open_stream(shared, streams, key, config.batch_symbols, acct, out);
            }
            // The wildcard is the open a client pipelines behind its hello,
            // before it knows the shard count: once, and first.
            if acct.sessions_opened > 0 {
                return Err(EngineError::Protocol("wildcard open after another open"));
            }
            let flight = FirstFlight::for_sketch(
                sketch,
                lock_unpoisoned(&shared.node).count_sketch(),
                config.shards,
                config.batch_symbols,
                config.max_units_per_session,
            )?;
            if let Some(grant) = flight.grant {
                let grant = MuxFrame::new(frame.session, SHARD_ALL, EngineMessage::Request(grant));
                let staged = out.len();
                append_frame(out, &grant.to_bytes())?;
                let wire_out = (out.len() - staged) as u64;
                acct.bytes_out += wire_out;
                shared.metrics.bytes_out.add(wire_out);
            }
            shared
                .metrics
                .first_flight_symbols
                .observe(flight.symbols as u64);
            let estimate = flight
                .estimate
                .map_or_else(|| "none".to_string(), |d| format!("{d:.1}"));
            shared.metrics.events.record(
                "first_flight",
                format!(
                    "session={} estimate={estimate} symbols_per_shard={}",
                    frame.session, flight.symbols
                ),
            );
            streams.wildcard = Some((frame.session, 0, flight.symbols));
            open_next_wildcard_shard(shared, streams, acct, out)
        }
        EngineMessage::Request(range) => {
            if !streams.served.contains_key(&key) {
                return Err(EngineError::Protocol("request for unknown session/shard"));
            }
            serve_range(shared, streams, key, range, acct, out)
        }
        EngineMessage::Done => {
            // Duplicate Dones are harmless, as they are to `ServerMux`.
            if let Some(served) = streams.served.remove(&key) {
                acct.sessions_completed += 1;
                shared.metrics.sessions_completed.inc();
                shared.metrics.session_symbols.observe(served as u64);
                shared.metrics.events.record(
                    "session_done",
                    format!("session={} shard={} symbols={served}", key.0, key.1),
                );
            }
            Ok(())
        }
        EngineMessage::Payload(_) | EngineMessage::Query(_) => Err(EngineError::Protocol(
            "client sent a server-side or interactive frame",
        )),
    }
}

/// Opens the next shard of the wildcard open being expanded (a no-op when
/// none is): what a per-shard `Open` of that shard does, with the wildcard's
/// first flight in place of the first tile.
pub(crate) fn open_next_wildcard_shard<S: Symbol + Ord>(
    shared: &SharedState<S>,
    streams: &mut OpenStreams,
    acct: &mut ConnAccounting,
    out: &mut Vec<u8>,
) -> reconcile_core::Result<()> {
    let Some((session, shard, symbols)) = streams.wildcard else {
        return Ok(());
    };
    streams.wildcard = (shard + 1 < shared.config.shards).then_some((session, shard + 1, symbols));
    open_stream(shared, streams, (session, shard), symbols, acct, out)
}

/// Opens the stream `key` and stages its first `symbols` (whole tiles).
fn open_stream<S: Symbol + Ord>(
    shared: &SharedState<S>,
    streams: &mut OpenStreams,
    key: (SessionId, ShardId),
    symbols: usize,
    acct: &mut ConnAccounting,
    out: &mut Vec<u8>,
) -> reconcile_core::Result<()> {
    if key.1 >= shared.config.shards {
        return Err(EngineError::Protocol("shard out of range"));
    }
    if streams.served.insert(key, 0).is_some() {
        return Err(EngineError::Protocol("duplicate open for session/shard"));
    }
    acct.sessions_opened += 1;
    shared.metrics.sessions_opened.inc();
    serve_range(
        shared,
        streams,
        key,
        RangeRequest::new(0, symbols)?,
        acct,
        out,
    )
}

/// Stages one payload frame per tile of `range` of the open stream `key`.
fn serve_range<S: Symbol + Ord>(
    shared: &SharedState<S>,
    streams: &mut OpenStreams,
    key: (SessionId, ShardId),
    range: RangeRequest,
    acct: &mut ConnAccounting,
    out: &mut Vec<u8>,
) -> reconcile_core::Result<()> {
    let config = &shared.config;
    let tile = config.batch_symbols;
    // A stream's first tile is always within budget, as it was for v1.
    let tiles = range.tiles(tile, config.max_units_per_session.max(tile))?;
    let staged = out.len();
    for index in 0..tiles {
        let batch_span = SpanTimer::start(&shared.metrics.serve_batch_seconds);
        let offset = range.offset as usize + index * tile;
        let (payload, serve_cpu) = encode_shard_batch(shared, key.1, offset, tile);
        acct.serve_cpu_s += serve_cpu.as_secs_f64();
        let reply = MuxFrame::new(key.0, key.1, EngineMessage::Payload(payload)).to_bytes();
        batch_span.stop();
        if let Err(e) = append_frame(out, &reply) {
            // Stage all of a reply or none of it.
            out.truncate(staged);
            return Err(e.into());
        }
    }
    let wire_out = (out.len() - staged) as u64;
    acct.bytes_out += wire_out;
    shared.metrics.bytes_out.add(wire_out);
    *streams.served.get_mut(&key).expect("open checked above") += tiles * tile;
    Ok(())
}

/// Produces the wire-encoded batch `[next, next + count)` of a shard — a
/// precomputed wire batch when the shard is unchanged since it was encoded,
/// otherwise a cache-range read plus §6 encode under the node lock. Shared
/// by the TCP path (count = `batch_symbols`) and the UDP path (count =
/// whatever fits the MTU budget); the cache key includes the count so the
/// two strides never collide. Returns the payload and the CPU time spent.
pub(crate) fn encode_shard_batch<S: Symbol + Ord>(
    shared: &SharedState<S>,
    shard: ShardId,
    next: usize,
    count: usize,
) -> (Vec<u8>, Duration) {
    let config = &shared.config;
    let t0 = Instant::now();
    // Every peer reads the same universal prefix of a shard's coded-symbol
    // sequence, so the encoded bytes of `[next, next + count)` can be reused
    // across sessions and connections until the shard mutates.
    let gen = shared.shard_gen(shard);
    let cached = lock_unpoisoned(&shared.wire_cache).get(shard, next, count, gen);
    let payload = match cached {
        Some(bytes) => {
            shared.metrics.wire_cache_hits.inc();
            bytes
        }
        None => {
            shared.metrics.wire_cache_misses.inc();
            let (gen_now, encoded) = {
                let mut node = lock_unpoisoned(&shared.node);
                // Re-read under the node lock: mutators bump while holding
                // it, so this generation matches the encoded snapshot.
                let gen_now = shared.shard_gen(shard);
                let set_size = node.shard_len(shard) as u64;
                let codec =
                    SymbolCodec::with_alpha(config.symbol_len, set_size, riblt::DEFAULT_ALPHA);
                let cells = node.shard_cells(shard, next, count);
                (gen_now, codec.encode_batch(cells, next as u64))
            };
            lock_unpoisoned(&shared.wire_cache).insert(
                shard,
                next,
                count,
                gen_now,
                encoded.clone(),
            );
            encoded
        }
    };
    let serve_cpu = t0.elapsed();
    shared
        .metrics
        .serve_cpu_nanos
        .add(serve_cpu.as_nanos().min(u64::MAX as u128) as u64);
    shared.metrics.payload_bytes.observe(payload.len() as u64);
    shared.metrics.symbols_served.add(count as u64);
    (payload, serve_cpu)
}

/// Dispatches one inbound UDP datagram and transmits any replies; the
/// reactor workers call it from their nonblocking receive pump. Reply sends
/// are best-effort — a full socket buffer drops the reply exactly like the
/// network would, and the client's retransmit timer heals it.
pub(crate) fn handle_udp_datagram<S: Symbol + Ord>(
    socket: &UdpSocket,
    shared: &SharedState<S>,
    peer: SocketAddr,
    datagram: &[u8],
) {
    let config = &shared.config;
    shared.metrics.udp_datagrams_in.inc();
    shared.metrics.bytes_in.add(datagram.len() as u64);
    let service = DatagramServiceConfig {
        hello: Hello::new(config.key, config.shards, config.symbol_len),
        key: config.key,
        mtu_budget: config.udp_mtu_budget,
        max_units_per_session: config.max_units_per_session,
    };
    let peer_bytes = peer.to_string().into_bytes();
    let (replies, event) = {
        let mut table = lock_unpoisoned(&shared.udp_sessions);
        handle_server_datagram(
            &mut table,
            &service,
            &peer_bytes,
            datagram,
            Instant::now(),
            |shard, start, count| {
                if shard >= config.shards {
                    return None;
                }
                let span = SpanTimer::start(&shared.metrics.serve_batch_seconds);
                let (payload, _) = encode_shard_batch(shared, shard, start as usize, count);
                span.stop();
                Some(payload)
            },
        )
    };
    match event {
        DatagramEvent::HelloAccepted { fresh: true, .. } => {
            shared.metrics.udp_sessions_opened.inc();
            shared.metrics.sessions_opened.inc();
        }
        DatagramEvent::HelloRejected => {
            shared.metrics.handshake_failures.inc();
            shared
                .metrics
                .events
                .record("udp_handshake_fail", format!("peer={peer}"));
        }
        DatagramEvent::Done {
            units,
            session_complete: true,
            ..
        } => {
            shared.metrics.sessions_completed.inc();
            shared.metrics.session_symbols.observe(units);
            shared
                .metrics
                .events
                .record("udp_session_done", format!("peer={peer} units={units}"));
        }
        _ => {}
    }
    for reply in replies {
        shared.metrics.udp_datagrams_out.inc();
        shared.metrics.bytes_out.add(reply.len() as u64);
        let _ = socket.send_to(&reply, peer);
    }
}

/// Retires UDP sessions idle past the read timeout. Called from the reactor
/// tick.
pub(crate) fn sweep_udp_sessions<S: Symbol + Ord>(shared: &SharedState<S>) {
    let expired =
        lock_unpoisoned(&shared.udp_sessions).sweep(Instant::now(), shared.config.read_timeout);
    if expired > 0 {
        shared.metrics.udp_sessions_expired.add(expired as u64);
        shared
            .metrics
            .events
            .record("udp_session_expired", format!("count={expired}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reconcile_core::backends::RibltBackend;
    use riblt::FixedBytes;
    use statesync::{sync_sharded_tcp, TcpSyncConfig};
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
    ) -> (Vec<riblt::SetDifference<Item>>, statesync::TcpSyncOutcome) {
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
        assert!(daemon.insert(Item::from_u64(9_999)));
        assert!(daemon.remove(&Item::from_u64(3)));
        let (diffs, _) = sync_against(&daemon, &local);
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

//! Sharded synchronization over a lossy datagram transport: the client
//! half of the `reconciled` UDP wire protocol.
//!
//! Where [`reconcile_core::sync_sharded_tcp`] rides a reliable byte
//! stream, this module drives the same per-shard rateless streams over
//! anything that moves unreliable datagrams — a connected
//! [`std::net::UdpSocket`] against the daemon, a `netsim::DatagramEndpoint`
//! pair in a test or benchmark — through the [`DatagramConduit`] trait. The
//! flow:
//!
//! 1. **Handshake over datagrams**: the 18-byte hello plus a client nonce
//!    is retransmitted until the server's `HelloAck` arrives with the
//!    session cookie ([`reconcile_core::session_cookie`]) that binds every
//!    later datagram; a `Reject` datagram surfaces as
//!    [`EngineError::Handshake`].
//! 2. **Explicit-offset requests**: each request names a
//!    `[start, start+count)` range of a shard's universal coded-symbol
//!    sequence, so duplicated or reordered requests are idempotent and a
//!    lost reply is healed by re-requesting the same range. A small
//!    pipeline of outstanding requests per shard keeps the link busy.
//! 3. **Positional absorption**: a shard's cells are taken in
//!    sequence-index order, so arriving batches pass through a
//!    [`BatchSequencer`] reorder buffer and are fed to the shard strictly
//!    in order. A shard's first in-order batch builds its endpoint, which
//!    is consumed into its difference the moment it decodes
//!    ([`ShardEndpoint`]), as the stream client's shards are.
//!
//! Loss costs extra symbols, not retransmission machinery: a dropped
//! `Symbols` datagram just means the range is served again on the
//! retransmit timer, and any prefix the decoder has already absorbed
//! stays useful. That is the rateless property doing transport work.

use std::collections::HashMap;
use std::io;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use reconcile_core::datagram::{
    client_hello_payload, max_symbols_in_budget, request_payload, BatchSequencer, DatagramHeader,
    DatagramKind, DEFAULT_MTU_BUDGET,
};
use reconcile_core::handshake::{validate_server_hello, Hello, SHARDS_ANY};
use reconcile_core::{
    Absorbed, EngineError, ReconcileBackend, SetDifference, ShardEndpoint, ShardId,
    ShardPartitioner,
};
use riblt::wire::peek_batch_extent;
use riblt::Symbol;
use riblt_hash::{splitmix64, SipKey, XorShift64Star};

/// Largest datagram the conduit implementations will receive.
const MAX_DATAGRAM_BYTES: usize = 65_536;

/// Moves datagrams for [`sync_sharded_udp`]: a connected UDP socket, a
/// `netsim::DatagramEndpoint`, or a [`LossyConduit`] wrapper injecting
/// deterministic impairments over either.
pub trait DatagramConduit {
    /// Sends one datagram (best effort — datagrams may be silently lost).
    fn send(&mut self, datagram: &[u8]) -> io::Result<()>;
    /// Receives the next datagram, waiting up to `timeout`; `Ok(None)` on
    /// timeout.
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>>;
}

impl DatagramConduit for UdpSocket {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        // The socket must be `connect`ed to the server address.
        UdpSocket::send(self, datagram).map(|_| ())
    }

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut buf = vec![0u8; MAX_DATAGRAM_BYTES];
        match UdpSocket::recv(self, &mut buf) {
            Ok(n) => {
                buf.truncate(n);
                Ok(Some(buf))
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// Wraps any conduit with seeded, deterministic datagram loss and
/// duplication — the tool for measuring loss resilience over a *real*
/// loopback socket, where the kernel path itself never drops.
#[derive(Debug)]
pub struct LossyConduit<C> {
    inner: C,
    rng: XorShift64Star,
    loss: f64,
    duplicate: f64,
}

impl<C: DatagramConduit> LossyConduit<C> {
    /// Drops `loss` of datagrams in each direction (and duplicates a
    /// quarter as many), deterministically from `seed`.
    pub fn new(inner: C, loss: f64, seed: u64) -> Self {
        LossyConduit {
            inner,
            rng: XorShift64Star::new(splitmix64(seed).max(1)),
            loss,
            duplicate: loss * 0.25,
        }
    }

    fn roll(&mut self, probability: f64) -> bool {
        probability > 0.0 && self.rng.next_f64() < probability
    }
}

impl<C: DatagramConduit> DatagramConduit for LossyConduit<C> {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        if self.roll(self.loss) {
            return Ok(());
        }
        self.inner.send(datagram)?;
        if self.roll(self.duplicate) {
            self.inner.send(datagram)?;
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.inner.recv(remaining)? {
                Some(datagram) => {
                    if self.roll(self.loss) {
                        continue; // inbound loss: pretend it never arrived
                    }
                    return Ok(Some(datagram));
                }
                None => return Ok(None),
            }
        }
    }
}

/// Outstanding range requests kept in flight per shard.
const INFLIGHT: usize = 4;

/// Configuration of a datagram sharded synchronization. Requests ask for as
/// many symbols as fit one [`DEFAULT_MTU_BUDGET`]-byte datagram, and each
/// shard keeps four of them in flight.
#[derive(Debug, Clone, Copy)]
pub struct UdpSyncConfig {
    /// Shared keyed-hash key — must fingerprint-match the server's.
    pub key: SipKey,
    /// Item length in bytes — must match the server's.
    pub symbol_len: usize,
    /// Retransmit timeout for unanswered hellos and range requests.
    pub rto: Duration,
    /// Hello attempts before the handshake is declared dead.
    pub hello_attempts: usize,
    /// Overall wall-clock bound on the synchronization.
    pub deadline: Duration,
    /// Safety budget: abort after this many coded symbols per shard.
    pub max_units_per_shard: usize,
    /// Session nonce (0 = derive one from the clock).
    pub nonce: u64,
}

impl Default for UdpSyncConfig {
    fn default() -> Self {
        UdpSyncConfig {
            key: SipKey::default(),
            symbol_len: 8,
            rto: Duration::from_millis(100),
            hello_attempts: 10,
            deadline: Duration::from_secs(30),
            max_units_per_shard: 1 << 20,
            nonce: 0,
        }
    }
}

/// Measured outcome of one datagram synchronization.
#[derive(Debug, Clone, Copy)]
pub struct UdpSyncOutcome {
    /// Shard count negotiated with the server.
    pub shards: u16,
    /// Coded symbols consumed across all shards.
    pub units: usize,
    /// Datagrams sent (hellos, requests, dones — retransmits included).
    pub datagrams_sent: usize,
    /// Datagrams received (duplicates included).
    pub datagrams_received: usize,
    /// Request retransmissions after an unanswered RTO.
    pub retransmits: usize,
    /// Arriving batches dropped as stale or duplicated by the sequencers.
    pub stale_batches: usize,
    /// Bytes sent, headers included.
    pub bytes_sent: usize,
    /// Bytes received, headers included.
    pub bytes_received: usize,
    /// Wall seconds from first hello to the last shard's completion.
    pub wall_s: f64,
}

/// One shard's client-side stream state.
struct ShardState<B: ReconcileBackend> {
    endpoint: ShardEndpoint<B>,
    sequencer: BatchSequencer,
    /// Outstanding range requests: start offset → (count, last send).
    outstanding: HashMap<u64, (u16, Instant)>,
    /// Next offset not yet covered by a request.
    frontier: u64,
    /// Symbols per reply, learned from the first served batch.
    stride: Option<usize>,
}

/// Synchronizes the local set against a `reconciled` server over a
/// datagram conduit, one rateless stream per negotiated shard, and returns
/// the recovered per-shard differences (index = shard id).
///
/// `factory` builds the backend per shard exactly as in
/// [`reconcile_core::sync_sharded_tcp`] — it must configure `config.key`,
/// `config.symbol_len`, and α = [`riblt::DEFAULT_ALPHA`]. The conduit
/// must already be bound to the server (a `connect`ed UDP socket or one
/// end of a datagram pair).
///
/// `local_items` is hashed once, after the handshake, and read again only
/// while a shard's endpoint is built over its first in-order batch
/// ([`ReconcileBackend::build_client_keyed`]: the shard's items walked over
/// that batch's cells, and cloned into a window only if it must read on).
/// An endpoint lives until its shard decodes, the hashes and their grouping
/// until the last shard is built.
pub fn sync_sharded_udp<B, F, C>(
    conduit: &mut C,
    local_items: &[B::Item],
    factory: F,
    config: &UdpSyncConfig,
) -> reconcile_core::Result<(Vec<SetDifference<B::Item>>, UdpSyncOutcome)>
where
    B: ReconcileBackend,
    B::Item: Symbol,
    F: Fn(ShardId) -> B,
    C: DatagramConduit,
{
    if config.symbol_len == 0 || config.symbol_len > usize::from(u16::MAX) {
        return Err(EngineError::Handshake(format!(
            "symbol_len {} is outside the wire format's u16 range",
            config.symbol_len
        )));
    }
    let started = Instant::now();
    let mut stats = Stats::default();

    // --- 1. Handshake: retransmitted hello until acked or rejected. ---
    let nonce = if config.nonce != 0 {
        config.nonce
    } else {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos() as u64;
        splitmix64(clock ^ (&stats as *const Stats as u64)).max(1)
    };
    let local_hello = Hello::new(config.key, SHARDS_ANY, config.symbol_len);
    let hello_datagram = DatagramHeader {
        kind: DatagramKind::Hello,
        cookie: 0,
        shard: 0,
        seq: 0,
    }
    .encode(&client_hello_payload(&local_hello, nonce));

    let (cookie, server_hello) = handshake(
        conduit,
        &hello_datagram,
        &local_hello,
        config,
        &mut stats,
        started,
    )?;
    let shards = server_hello.shards;

    // --- 2. Place the items with the negotiated count; one stream per
    // shard, each built when its first in-order batch arrives. ---
    let hashes = B::Item::hash_many_with(local_items, config.key);
    let grouping = ShardPartitioner::new(config.key, shards).group(&hashes);
    let mut placement = Some((hashes, grouping));
    let mut states: Vec<ShardState<B>> = (0..shards)
        .map(|_| ShardState {
            endpoint: ShardEndpoint::Pending,
            sequencer: BatchSequencer::new(),
            outstanding: HashMap::new(),
            frontier: 0,
            stride: None,
        })
        .collect();

    // First request per shard: ask for a full MTU budget's worth; the
    // server's (deterministic) clamp in the first reply teaches us the
    // actual stride, after which requests tile exactly.
    let opening_count = u16::try_from(
        max_symbols_in_budget(DEFAULT_MTU_BUDGET, config.symbol_len).min(usize::from(u16::MAX)),
    )
    .expect("clamped above");
    let now = Instant::now();
    for (shard, state) in states.iter_mut().enumerate() {
        send_request(
            conduit,
            cookie,
            shard as ShardId,
            0,
            opening_count,
            &mut stats,
        )?;
        state.outstanding.insert(0, (opening_count, now));
        state.frontier = u64::from(opening_count);
    }

    // --- 3. Event loop: receive, reorder, absorb, refill, retransmit. ---
    let poll = (config.rto / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
    loop {
        if states.iter().all(|s| s.endpoint.is_done()) {
            break;
        }
        if started.elapsed() > config.deadline {
            return Err(EngineError::Io(
                io::ErrorKind::TimedOut,
                format!(
                    "datagram sync deadline ({:?}) exceeded with {} of {shards} shards done",
                    config.deadline,
                    states.iter().filter(|s| s.endpoint.is_done()).count(),
                ),
            ));
        }

        if let Some(datagram) = conduit.recv(poll)? {
            stats.datagrams_received += 1;
            stats.bytes_received += datagram.len();
            let Ok((header, payload)) = DatagramHeader::decode(&datagram) else {
                continue; // lossy link: garbage is dropped, not fatal
            };
            if header.kind != DatagramKind::Symbols
                || header.cookie != cookie
                || usize::from(header.shard) >= states.len()
            {
                continue; // duplicate HelloAck, stray kinds: ignore
            }
            let shard = header.shard;
            let state = &mut states[usize::from(shard)];
            if state.endpoint.is_done() {
                continue;
            }
            let start = u64::from(header.seq);
            state.outstanding.remove(&start);
            if !state.sequencer.accept(start, payload.to_vec()) {
                stats.stale_batches += 1;
            }
            let build = |shard, first: &[&[u8]]| {
                let (hashes, grouping) = placement
                    .as_ref()
                    .expect("the placement outlives the last pending shard");
                let backend = factory(shard);
                let (client, absorbed) = backend.build_client_keyed(
                    local_items,
                    hashes,
                    grouping.members(shard),
                    first,
                )?;
                Ok((backend, client, absorbed))
            };
            drain_ready(conduit, cookie, shard, state, config, &mut stats, &build)?;
            if state.endpoint.units() > config.max_units_per_shard {
                return Err(state.endpoint.give_up());
            }
            let pending = |s: &ShardState<B>| matches!(s.endpoint, ShardEndpoint::Pending);
            if placement.is_some() && !states.iter().any(pending) {
                // Every shard is built: nothing of the set-up is read again.
                placement = None;
            }
        }

        // Refill pipelines and retransmit unanswered requests.
        let now = Instant::now();
        for (shard, state) in states.iter_mut().enumerate() {
            if state.endpoint.is_done() {
                continue;
            }
            let stride = u64::from(state.stride.unwrap_or(usize::from(opening_count)) as u32);
            let count = u16::try_from(stride.min(u64::from(u16::MAX))).expect("clamped above");
            while state.outstanding.len() < INFLIGHT
                && state.stride.is_some()
                && (state.frontier as usize) < config.max_units_per_shard
            {
                send_request(
                    conduit,
                    cookie,
                    shard as ShardId,
                    state.frontier,
                    count,
                    &mut stats,
                )?;
                state.outstanding.insert(state.frontier, (count, now));
                state.frontier += stride;
            }
            for (&start, entry) in state.outstanding.iter_mut() {
                if now.duration_since(entry.1) > config.rto {
                    let datagram = DatagramHeader {
                        kind: DatagramKind::Request,
                        cookie,
                        shard: shard as ShardId,
                        seq: u32::try_from(start).unwrap_or(u32::MAX),
                    }
                    .encode(&request_payload(entry.0));
                    stats.datagrams_sent += 1;
                    stats.bytes_sent += datagram.len();
                    stats.retransmits += 1;
                    conduit.send(&datagram)?;
                    entry.1 = now;
                }
            }
        }
    }

    let units = states.iter().map(|s| s.endpoint.units()).sum();
    let mut differences = Vec::with_capacity(states.len());
    for state in states {
        differences.push(state.endpoint.into_difference()?);
    }
    let outcome = UdpSyncOutcome {
        shards,
        units,
        datagrams_sent: stats.datagrams_sent,
        datagrams_received: stats.datagrams_received,
        retransmits: stats.retransmits,
        stale_batches: stats.stale_batches,
        bytes_sent: stats.bytes_sent,
        bytes_received: stats.bytes_received,
        wall_s: started.elapsed().as_secs_f64(),
    };
    Ok((differences, outcome))
}

#[derive(Default)]
struct Stats {
    datagrams_sent: usize,
    datagrams_received: usize,
    retransmits: usize,
    stale_batches: usize,
    bytes_sent: usize,
    bytes_received: usize,
}

/// Retransmits the hello until a `HelloAck` (cookie + server hello) or a
/// `Reject` arrives.
fn handshake<C: DatagramConduit>(
    conduit: &mut C,
    hello_datagram: &[u8],
    local_hello: &Hello,
    config: &UdpSyncConfig,
    stats: &mut Stats,
    started: Instant,
) -> reconcile_core::Result<(u64, Hello)> {
    for _ in 0..config.hello_attempts.max(1) {
        if started.elapsed() > config.deadline {
            break;
        }
        conduit.send(hello_datagram)?;
        stats.datagrams_sent += 1;
        stats.bytes_sent += hello_datagram.len();
        let attempt_deadline = Instant::now() + config.rto;
        loop {
            let remaining = attempt_deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let Some(datagram) = conduit.recv(remaining)? else {
                break;
            };
            stats.datagrams_received += 1;
            stats.bytes_received += datagram.len();
            let Ok((header, payload)) = DatagramHeader::decode(&datagram) else {
                continue;
            };
            match header.kind {
                DatagramKind::HelloAck => {
                    let server = Hello::from_bytes(payload)?;
                    validate_server_hello(&server, local_hello)?;
                    return Ok((header.cookie, server));
                }
                DatagramKind::Reject => {
                    return Err(EngineError::Handshake(format!(
                        "server rejected handshake: {}",
                        String::from_utf8_lossy(payload.get(5..).unwrap_or(&[])),
                    )));
                }
                _ => continue,
            }
        }
    }
    Err(EngineError::Io(
        io::ErrorKind::TimedOut,
        format!(
            "no HelloAck after {} attempts — server down or datagrams blackholed",
            config.hello_attempts.max(1)
        ),
    ))
}

fn send_request<C: DatagramConduit>(
    conduit: &mut C,
    cookie: u64,
    shard: ShardId,
    start: u64,
    count: u16,
    stats: &mut Stats,
) -> reconcile_core::Result<()> {
    let datagram = DatagramHeader {
        kind: DatagramKind::Request,
        cookie,
        shard,
        seq: u32::try_from(start).unwrap_or(u32::MAX),
    }
    .encode(&request_payload(count));
    stats.datagrams_sent += 1;
    stats.bytes_sent += datagram.len();
    conduit.send(&datagram)?;
    Ok(())
}

/// Feeds every in-order buffered batch of a shard to its endpoint, the
/// first one through `build`; on completion, fires `Done` twice (best
/// effort — the session also expires server-side on idle).
fn drain_ready<C: DatagramConduit, B: ReconcileBackend>(
    conduit: &mut C,
    cookie: u64,
    shard: ShardId,
    state: &mut ShardState<B>,
    config: &UdpSyncConfig,
    stats: &mut Stats,
    build: &impl Fn(ShardId, &[&[u8]]) -> reconcile_core::Result<(B, B::Client, Vec<Absorbed>)>,
) -> reconcile_core::Result<()> {
    while let Some(payload) = state.sequencer.pop_ready() {
        let Ok((_, batch_len)) = peek_batch_extent(&payload) else {
            // Corrupt envelope (possible on real networks): re-request the
            // range instead of wedging the stream.
            let next = state.sequencer.next_index();
            let count = u16::try_from(
                state
                    .stride
                    .unwrap_or(max_symbols_in_budget(DEFAULT_MTU_BUDGET, config.symbol_len))
                    .min(usize::from(u16::MAX)),
            )
            .expect("clamped above");
            send_request(conduit, cookie, shard, next, count, stats)?;
            state.outstanding.insert(next, (count, Instant::now()));
            return Ok(());
        };
        if state.stride.is_none() {
            // The server's first reply defines the stride every subsequent
            // request tiles with (its clamp is deterministic, so replies to
            // equal-count requests always carry equally many symbols).
            state.stride = Some(batch_len.max(1));
            state.frontier = batch_len as u64;
        }
        state
            .endpoint
            .absorb(&[&payload], |first| build(shard, first))?;
        state.sequencer.advance(batch_len as u64);
        if state.endpoint.is_done() {
            state.outstanding.clear();
            let done = DatagramHeader {
                kind: DatagramKind::Done,
                cookie,
                shard,
                seq: u32::try_from(state.endpoint.units()).unwrap_or(u32::MAX),
            }
            .encode(&[]);
            // Twice: a lost Done only delays the server's idle sweep, but
            // cheap redundancy usually retires the session promptly.
            for _ in 0..2 {
                stats.datagrams_sent += 1;
                stats.bytes_sent += done.len();
                conduit.send(&done)?;
            }
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::{self, datagram_pair, DatagramLinkConfig};
    use reconcile_core::backends::RibltBackend;
    use reconcile_core::datagram::DatagramServiceConfig;
    use reconcile_core::{Progress, Result};
    use riblt::FixedBytes;
    use std::cell::Cell;
    use std::rc::Rc;

    type Item = FixedBytes<8>;

    fn items(range: std::ops::Range<u64>) -> Vec<Item> {
        range.map(Item::from_u64).collect()
    }

    /// The library's datagram server over `server_items`, `shards` shards
    /// under `key`, until its client is done.
    fn serve_loop(
        endpoint: netsim::DatagramEndpoint,
        server_items: Vec<Item>,
        key: SipKey,
        shards: u16,
    ) {
        let service = DatagramServiceConfig {
            hello: Hello::new(key, shards, 8),
            key,
            mtu_budget: DEFAULT_MTU_BUDGET,
            max_units_per_session: 1 << 20,
        };
        netsim::library_datagram_server(endpoint, &server_items, service);
    }

    fn backend(key: SipKey) -> RibltBackend<Item> {
        RibltBackend::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA)
    }

    fn run_sync(
        link: DatagramLinkConfig,
        server_items: Vec<Item>,
        local: Vec<Item>,
        key: SipKey,
        shards: u16,
    ) -> reconcile_core::Result<(Vec<SetDifference<Item>>, UdpSyncOutcome)> {
        run_sync_with(link, server_items, local, key, shards, |_| backend(key))
    }

    fn run_sync_with<B: ReconcileBackend<Item = Item>>(
        link: DatagramLinkConfig,
        server_items: Vec<Item>,
        local: Vec<Item>,
        key: SipKey,
        shards: u16,
        factory: impl Fn(ShardId) -> B,
    ) -> reconcile_core::Result<(Vec<SetDifference<Item>>, UdpSyncOutcome)> {
        let (mut client_end, server_end) = datagram_pair(link);
        let server = std::thread::spawn(move || serve_loop(server_end, server_items, key, shards));
        let config = UdpSyncConfig {
            key,
            rto: Duration::from_millis(40),
            deadline: Duration::from_secs(20),
            nonce: 77,
            ..Default::default()
        };
        let result = sync_sharded_udp(&mut client_end, &local, factory, &config);
        drop(client_end);
        server.join().unwrap();
        result
    }

    #[test]
    fn syncs_over_a_clean_datagram_link() {
        let key = SipKey::new(5, 6);
        let (diffs, outcome) = run_sync(
            DatagramLinkConfig::default(),
            items(0..2_000),
            items(60..2_030),
            key,
            4,
        )
        .unwrap();
        assert_eq!(outcome.shards, 4);
        let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
        let local_only: usize = diffs.iter().map(|d| d.local_only.len()).sum();
        assert_eq!(remote, 60);
        assert_eq!(local_only, 30);
        assert!(outcome.units > 0);
        assert_eq!(outcome.retransmits, 0, "clean link needs no retransmits");
    }

    /// Built, alive now, most alive at once.
    type Counts = Rc<Cell<[usize; 3]>>;

    /// The test backend, counting itself: an endpoint owns the backend it
    /// was built with, so the counts are the sync's endpoints.
    struct Counted {
        inner: RibltBackend<Item>,
        counts: Counts,
    }

    impl Counted {
        fn new(key: SipKey, counts: &Counts) -> Self {
            let [built, alive, peak] = counts.get();
            counts.set([built + 1, alive + 1, peak.max(alive + 1)]);
            let counts = Rc::clone(counts);
            Counted {
                inner: backend(key),
                counts,
            }
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            let [built, alive, peak] = self.counts.get();
            self.counts.set([built, alive - 1, peak]);
        }
    }

    impl ReconcileBackend for Counted {
        type Item = Item;
        type Server = <RibltBackend<Item> as ReconcileBackend>::Server;
        type Client = <RibltBackend<Item> as ReconcileBackend>::Client;

        fn name(&self) -> &'static str {
            "counted"
        }
        fn build_server(&self, items: &[Item]) -> Self::Server {
            self.inner.build_server(items)
        }
        fn build_client(&self, items: &[Item]) -> Self::Client {
            self.inner.build_client(items)
        }
        fn build_client_keyed(
            &self,
            items: &[Item],
            hashes: &[u64],
            members: &[u32],
            first: &[&[u8]],
        ) -> Result<(Self::Client, Vec<Absorbed>)> {
            self.inner.build_client_keyed(items, hashes, members, first)
        }
        fn open_request(&self, client: &mut Self::Client) -> Vec<u8> {
            self.inner.open_request(client)
        }
        fn serve(&self, server: &mut Self::Server, request: Option<&[u8]>) -> Result<Vec<u8>> {
            self.inner.serve(server, request)
        }
        fn absorb(&self, client: &mut Self::Client, payload: &[u8]) -> Result<Progress> {
            self.inner.absorb(client, payload)
        }
        fn units(&self, client: &Self::Client) -> usize {
            self.inner.units(client)
        }
        fn into_difference(&self, client: Self::Client) -> Result<SetDifference<Item>> {
            self.inner.into_difference(client)
        }
    }

    #[test]
    fn shards_are_built_by_their_first_batch_and_freed_when_they_decode() {
        let key = SipKey::new(5, 6);
        let counts = Counts::default();
        // d = 8 over four shards: every shard decodes in its first batch.
        let (diffs, outcome) = run_sync_with(
            DatagramLinkConfig::default(),
            items(0..2_000),
            items(4..2_004),
            key,
            4,
            |_| Counted::new(key, &counts),
        )
        .unwrap();
        assert_eq!(outcome.datagrams_received, 1 + 4, "{outcome:?}");
        let found: usize = diffs.iter().map(SetDifference::len).sum();
        assert_eq!(found, 8);
        // Four endpoints, one alive at a time, none at the end.
        assert_eq!(counts.get(), [4, 0, 1]);
    }

    #[test]
    fn the_one_shot_build_consumes_what_an_eager_one_does() {
        let (key, shards) = (SipKey::new(9, 4), 4u16);
        let (server_items, local) = (items(0..4_000), items(1_000..5_000));
        let (diffs, outcome) = run_sync(
            DatagramLinkConfig::default(),
            server_items.clone(),
            local.clone(),
            key,
            shards,
        )
        .unwrap();
        // The eager reference: every shard's window filled over its part of
        // the set before the stream, which is then fed to it tile by tile.
        let partitioner = ShardPartitioner::new(key, shards);
        let server_parts = partitioner.partition(&server_items);
        let (mut units, mut eager) = (0, Vec::new());
        for (shard, part) in partitioner.partition(&local).iter().enumerate() {
            let b = backend(key);
            let (mut client, mut server) =
                (b.build_client(part), b.build_server(&server_parts[shard]));
            let open = b.open_request(&mut client);
            let mut payload = b.serve(&mut server, Some(&open)).unwrap();
            while b.absorb(&mut client, &payload).unwrap() != Progress::Complete {
                payload = b.serve(&mut server, None).unwrap();
            }
            units += b.units(&client);
            eager.push(b.into_difference(client).unwrap());
        }
        assert_eq!(diffs.iter().map(SetDifference::len).sum::<usize>(), 2_000);
        assert_eq!((outcome.units, diffs), (units, eager));
    }

    /// Records what the client sends.
    #[derive(Default)]
    struct Sent(Vec<Vec<u8>>);

    impl DatagramConduit for Sent {
        fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
            self.0.push(datagram.to_vec());
            Ok(())
        }
        fn recv(&mut self, _: Duration) -> io::Result<Option<Vec<u8>>> {
            Ok(None)
        }
    }

    #[test]
    fn a_hostile_first_batch_ends_as_an_eager_client_would() {
        let key = SipKey::new(2, 7);
        let local = items(40..1_000);
        let hashes = Item::hash_many_with(&local, key);
        let members: Vec<u32> = (0..local.len() as u32).collect();
        let build = |_, first: &[&[u8]]| {
            let (client, absorbed) =
                backend(key).build_client_keyed(&local, &hashes, &members, first)?;
            Ok((backend(key), client, absorbed))
        };
        let valid = backend(key)
            .serve(&mut backend(key).build_server(&items(0..1_000)), None)
            .unwrap();
        let (_, count) = peek_batch_extent(&valid).unwrap();
        // `valid` with the VLQ header field `field` (after the magic and the
        // version: symbol length, set size, start, count) set to `value`.
        let rewrite = |field: usize, value: u64| {
            let mut at = 5;
            for _ in 0..field {
                riblt::wire::read_vlq(&valid, &mut at).unwrap();
            }
            let mut out = valid[..at].to_vec();
            riblt::wire::read_vlq(&valid, &mut at).unwrap();
            riblt::wire::write_vlq(&mut out, value);
            [&out, &valid[at..]].concat()
        };
        let mut gen = riblt_hash::SplitMix64::new(0x0bad_ba7c);
        // Cases that ended in a re-request, a typed error, a built endpoint.
        let mut seen = [0; 3];
        for case in 0..302 {
            let mut payload = valid.clone();
            match case {
                // A start at the end of the index range, a set size no set
                // has.
                300 => payload = rewrite(2, u64::MAX),
                301 => payload = rewrite(1, u64::MAX),
                _ if case % 3 == 0 => {
                    for _ in 0..1 + gen.next_u64() % 3 {
                        let bit = gen.next_u64() as usize % (8 * payload.len());
                        payload[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                _ if case % 3 == 1 => payload.truncate(gen.next_u64() as usize % payload.len()),
                // More symbols than the bytes hold.
                _ => payload = rewrite(3, (count + 1) as u64 + gen.next_u64() % (1 << 20)),
            }
            let at = format!("case {case}");
            // The parent's end: the eager client absorbing it, unless the
            // envelope is refused first.
            let eager = peek_batch_extent(&payload).ok().map(|_| {
                let b = backend(key);
                let mut client = b.build_client(&local);
                b.absorb(&mut client, &payload).map(|_| b.units(&client))
            });
            let mut state = ShardState {
                endpoint: ShardEndpoint::Pending,
                sequencer: BatchSequencer::new(),
                outstanding: HashMap::new(),
                frontier: 0,
                stride: None,
            };
            state.sequencer.accept(0, payload);
            let mut sent = Sent::default();
            let config = UdpSyncConfig::default();
            let ended = drain_ready(
                &mut sent,
                1,
                0,
                &mut state,
                &config,
                &mut Stats::default(),
                &build,
            );
            seen[eager.as_ref().map_or(0, |end| 1 + usize::from(end.is_ok()))] += 1;
            match eager {
                None => {
                    assert_eq!(ended, Ok(()), "{at}");
                    assert!(matches!(state.endpoint, ShardEndpoint::Pending), "{at}");
                    let (header, _) = DatagramHeader::decode(&sent.0[0]).unwrap();
                    assert_eq!(
                        (header.kind, header.seq),
                        (DatagramKind::Request, 0),
                        "{at}"
                    );
                }
                Some(Err(error)) => assert_eq!(ended, Err(error), "{at}"),
                // Built over exactly the cells that arrived.
                Some(Ok(units)) => {
                    assert_eq!(ended, Ok(()), "{at}");
                    assert_eq!(state.endpoint.units(), units, "{at}");
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every end seen: {seen:?}");
    }

    #[test]
    fn survives_loss_duplication_and_reordering() {
        let key = SipKey::new(8, 3);
        let (diffs, outcome) = run_sync(
            DatagramLinkConfig::lossy(0.10, 9),
            items(0..2_000),
            items(50..2_000),
            key,
            4,
        )
        .unwrap();
        let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
        assert_eq!(remote, 50);
        // Loss shows up as retransmitted ranges and/or discarded
        // duplicates — never as a failed sync.
        assert!(
            outcome.retransmits + outcome.stale_batches > 0,
            "{outcome:?}"
        );
    }

    #[test]
    fn key_mismatch_is_rejected_in_the_datagram_handshake() {
        let (mut client_end, server_end) = datagram_pair(DatagramLinkConfig::default());
        let server =
            std::thread::spawn(move || serve_loop(server_end, items(0..100), SipKey::new(1, 2), 2));
        let client_key = SipKey::new(3, 4);
        let config = UdpSyncConfig {
            key: client_key,
            rto: Duration::from_millis(20),
            hello_attempts: 3,
            deadline: Duration::from_secs(5),
            nonce: 5,
            ..Default::default()
        };
        let err = sync_sharded_udp(
            &mut client_end,
            &items(0..100),
            |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, client_key, riblt::DEFAULT_ALPHA),
            &config,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, EngineError::Handshake(_)), "{err}");
        drop(client_end);
        server.join().unwrap();
    }

    #[test]
    fn no_server_times_out_instead_of_hanging() {
        let (mut client_end, server_end) = datagram_pair(DatagramLinkConfig::default());
        drop(server_end);
        let config = UdpSyncConfig {
            rto: Duration::from_millis(10),
            hello_attempts: 3,
            deadline: Duration::from_secs(2),
            nonce: 1,
            ..Default::default()
        };
        let err = sync_sharded_udp(
            &mut client_end,
            &items(0..10),
            |_| RibltBackend::<Item>::new(8, 32),
            &config,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(err, EngineError::Io(io::ErrorKind::TimedOut, _)),
            "{err}"
        );
    }
}

//! Sharded synchronization over a lossy datagram transport: the client
//! half of the `reconciled` UDP wire protocol.
//!
//! Where [`crate::tcp_sync`] rides a reliable byte stream, this module
//! drives the same per-shard rateless streams over anything that moves
//! unreliable datagrams — a connected [`std::net::UdpSocket`] against the
//! daemon, a [`netsim::DatagramEndpoint`] pair in a test or benchmark —
//! through the [`DatagramConduit`] trait. The flow:
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
//! 3. **Positional absorption**: the decoder streams its local-set
//!    contributions in sequence-index order, so arriving batches pass
//!    through a [`BatchSequencer`] reorder buffer and are fed to the
//!    engine strictly in order.
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
    ClientEngine, EngineError, EngineMessage, ReconcileBackend, SetDifference, ShardId,
    ShardPartitioner,
};
use riblt::wire::peek_batch_extent;
use riblt::Symbol;
use riblt_hash::{splitmix64, SipKey, XorShift64Star};

/// Largest datagram the conduit implementations will receive.
const MAX_DATAGRAM_BYTES: usize = 65_536;

/// Moves datagrams for [`sync_sharded_udp`]: a connected UDP socket, a
/// [`netsim::DatagramEndpoint`], or a [`LossyConduit`] wrapper injecting
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

impl DatagramConduit for netsim::DatagramEndpoint {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        netsim::DatagramEndpoint::send(self, datagram);
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        Ok(netsim::DatagramEndpoint::recv(self, timeout))
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

/// Configuration of a datagram sharded synchronization.
#[derive(Debug, Clone, Copy)]
pub struct UdpSyncConfig {
    /// Shared keyed-hash key — must fingerprint-match the server's.
    pub key: SipKey,
    /// Item length in bytes — must match the server's.
    pub symbol_len: usize,
    /// Per-datagram byte budget; requests ask for as many symbols as fit.
    pub mtu_budget: usize,
    /// Outstanding range requests kept in flight per shard.
    pub inflight: usize,
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
            mtu_budget: DEFAULT_MTU_BUDGET,
            inflight: 4,
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
    engine: ClientEngine<B>,
    sequencer: BatchSequencer,
    /// Outstanding range requests: start offset → (count, last send).
    outstanding: HashMap<u64, (u16, Instant)>,
    /// Next offset not yet covered by a request.
    frontier: u64,
    /// Symbols per reply, learned from the first served batch.
    stride: Option<usize>,
    done: bool,
}

/// Synchronizes the local set against a `reconciled` server over a
/// datagram conduit, one rateless stream per negotiated shard, and returns
/// the recovered per-shard differences (index = shard id).
///
/// `factory` builds the backend per shard exactly as in
/// [`crate::sync_sharded_tcp`] — it must configure `config.key`,
/// `config.symbol_len`, and α = [`riblt::DEFAULT_ALPHA`]. The conduit
/// must already be bound to the server (a `connect`ed UDP socket or one
/// end of a datagram pair).
///
/// `local_items` is only read while the shard clients are built, each item
/// hashed once for both its shard and its checksum; from then on every
/// shard's decoder owns its own copy of its items, and no other copy of the
/// set lives through the exchange.
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

    // --- 2. Partition with the negotiated count; one stream per shard. ---
    let mut states: Vec<ShardState<B>> = ShardPartitioner::new(config.key, shards)
        .client_engines(local_items, &factory)
        .into_iter()
        .map(|engine| ShardState {
            engine,
            sequencer: BatchSequencer::new(),
            outstanding: HashMap::new(),
            frontier: 0,
            stride: None,
            done: false,
        })
        .collect();

    // First request per shard: ask for a full MTU budget's worth; the
    // server's (deterministic) clamp in the first reply teaches us the
    // actual stride, after which requests tile exactly.
    let opening_count = u16::try_from(
        max_symbols_in_budget(config.mtu_budget, config.symbol_len).min(usize::from(u16::MAX)),
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
        if states.iter().all(|s| s.done) {
            break;
        }
        if started.elapsed() > config.deadline {
            return Err(EngineError::Io(
                io::ErrorKind::TimedOut,
                format!(
                    "datagram sync deadline ({:?}) exceeded with {} of {shards} shards done",
                    config.deadline,
                    states.iter().filter(|s| s.done).count(),
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
            let state = &mut states[usize::from(header.shard)];
            if state.done {
                continue;
            }
            let start = u64::from(header.seq);
            state.outstanding.remove(&start);
            if !state.sequencer.accept(start, payload.to_vec()) {
                stats.stale_batches += 1;
            }
            drain_ready(conduit, cookie, header.shard, state, config, &mut stats)?;
            if state.engine.units() > config.max_units_per_shard {
                return Err(EngineError::DecodeIncomplete);
            }
        }

        // Refill pipelines and retransmit unanswered requests.
        let now = Instant::now();
        for (shard, state) in states.iter_mut().enumerate() {
            if state.done {
                continue;
            }
            let stride = u64::from(state.stride.unwrap_or(usize::from(opening_count)) as u32);
            let count = u16::try_from(stride.min(u64::from(u16::MAX))).expect("clamped above");
            while state.outstanding.len() < config.inflight.max(1)
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

    let units = states.iter().map(|s| s.engine.units()).sum();
    let mut differences = Vec::with_capacity(states.len());
    for state in states {
        differences.push(state.engine.into_difference()?);
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

/// Feeds every in-order buffered batch of a shard to its engine; on
/// completion, fires `Done` twice (best effort — the session also expires
/// server-side on idle).
fn drain_ready<C: DatagramConduit>(
    conduit: &mut C,
    cookie: u64,
    shard: ShardId,
    state: &mut ShardState<impl ReconcileBackend>,
    config: &UdpSyncConfig,
    stats: &mut Stats,
) -> reconcile_core::Result<()> {
    while let Some(payload) = state.sequencer.pop_ready() {
        let Ok((_, batch_len)) = peek_batch_extent(&payload) else {
            // Corrupt envelope (possible on real networks): re-request the
            // range instead of wedging the stream.
            let next = state.sequencer.next_index();
            let count = u16::try_from(
                state
                    .stride
                    .unwrap_or(max_symbols_in_budget(config.mtu_budget, config.symbol_len))
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
        let reply = state
            .engine
            .handle(&EngineMessage::Payload(payload.clone()))?;
        state.sequencer.advance(batch_len as u64);
        if matches!(reply, Some(EngineMessage::Done)) {
            state.done = true;
            state.outstanding.clear();
            let done = DatagramHeader {
                kind: DatagramKind::Done,
                cookie,
                shard,
                seq: u32::try_from(state.engine.units()).unwrap_or(u32::MAX),
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
    use netsim::{datagram_pair, DatagramLinkConfig};
    use reconcile_core::backends::RibltBackend;
    use reconcile_core::datagram::{
        handle_server_datagram, DatagramEvent, DatagramServiceConfig, UdpSessionTable,
    };
    use riblt::wire::SymbolCodec;
    use riblt::{CodedSymbol, Encoder, FixedBytes};

    type Item = FixedBytes<8>;

    fn items(range: std::ops::Range<u64>) -> Vec<Item> {
        range.map(Item::from_u64).collect()
    }

    /// Per-shard coded-symbol source mirroring the daemon's shard caches:
    /// one encoder per shard, extended on demand, ranges re-encoded with
    /// the §6 codec.
    struct ShardSource {
        encoder: Encoder<Item>,
        cells: Vec<CodedSymbol<Item>>,
        set_size: u64,
    }

    fn serve_loop(
        mut endpoint: netsim::DatagramEndpoint,
        server_items: Vec<Item>,
        key: SipKey,
        shards: u16,
    ) {
        let partitioner = ShardPartitioner::new(key, shards);
        let parts = partitioner.partition(&server_items);
        let mut sources: Vec<ShardSource> = parts
            .iter()
            .map(|part| {
                let mut encoder = Encoder::with_key_and_alpha(key, riblt::DEFAULT_ALPHA);
                for item in part {
                    encoder.add_symbol(*item).unwrap();
                }
                ShardSource {
                    encoder,
                    cells: Vec::new(),
                    set_size: part.len() as u64,
                }
            })
            .collect();
        let config = DatagramServiceConfig {
            hello: Hello::new(key, shards, 8),
            key,
            mtu_budget: DEFAULT_MTU_BUDGET,
            max_units_per_session: 1 << 20,
        };
        let mut table = UdpSessionTable::new();
        let mut idle_rounds = 0;
        loop {
            let Some(datagram) = endpoint.recv(Duration::from_millis(100)) else {
                idle_rounds += 1;
                if idle_rounds > 50 {
                    return; // client gone
                }
                continue;
            };
            idle_rounds = 0;
            let (replies, event) = handle_server_datagram(
                &mut table,
                &config,
                b"sim-client",
                &datagram,
                Instant::now(),
                |shard, start, count| {
                    let source = sources.get_mut(usize::from(shard))?;
                    let end = start as usize + count;
                    while source.cells.len() < end {
                        source
                            .cells
                            .push(source.encoder.produce_next_coded_symbol());
                    }
                    let codec = SymbolCodec::with_alpha(8, source.set_size, riblt::DEFAULT_ALPHA);
                    Some(codec.encode_batch(&source.cells[start as usize..end], start))
                },
            );
            for reply in replies {
                endpoint.send(&reply);
            }
            endpoint.flush();
            if matches!(
                event,
                DatagramEvent::Done {
                    session_complete: true,
                    ..
                }
            ) {
                return;
            }
        }
    }

    fn run_sync(
        link: DatagramLinkConfig,
        server_items: Vec<Item>,
        local: Vec<Item>,
        key: SipKey,
        shards: u16,
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
        let result = sync_sharded_udp(
            &mut client_end,
            &local,
            |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA),
            &config,
        );
        drop(client_end);
        server.join().unwrap();
        result
    }

    /// One definition of an acceptable server hello
    /// (`handshake::validate_server_hello`): the datagram client reading a
    /// `HelloAck` and the stream client reading a hello frame refuse the
    /// same hellos, in the same words.
    #[test]
    fn both_transports_refuse_a_bad_server_hello_in_the_same_words() {
        /// Answers whatever it is sent with a `HelloAck` carrying the hello.
        struct Acks(Hello);
        impl DatagramConduit for Acks {
            fn send(&mut self, _: &[u8]) -> io::Result<()> {
                Ok(())
            }
            fn recv(&mut self, _: Duration) -> io::Result<Option<Vec<u8>>> {
                let header = DatagramHeader {
                    kind: DatagramKind::HelloAck,
                    cookie: 7,
                    shard: 0,
                    seq: 0,
                };
                Ok(Some(header.encode(&self.0.to_bytes())))
            }
        }
        let key = SipKey::new(3, 4);
        let good = Hello::new(key, 4, 8);
        let (version, fingerprint) = (good.version + 1, !good.fingerprint);
        for bad in [
            Hello { version, ..good },
            Hello {
                fingerprint,
                ..good
            },
            Hello {
                symbol_len: 16,
                ..good
            },
            Hello { shards: 0, ..good },
        ] {
            let over_udp = sync_sharded_udp(
                &mut Acks(bad),
                &[] as &[Item],
                |_| RibltBackend::<Item>::new(8, 32),
                &UdpSyncConfig {
                    key,
                    ..Default::default()
                },
            )
            .unwrap_err();
            let mut link = netsim::FlightLink::new(move |_, out| {
                Ok(reconcile_core::append_frame(out, &bad.to_bytes())?)
            });
            let over_tcp = crate::sync_sharded_tcp(
                &mut link,
                &[] as &[Item],
                |_| RibltBackend::<Item>::new(8, 32),
                &crate::TcpSyncConfig {
                    key,
                    ..Default::default()
                },
            )
            .unwrap_err();
            assert!(matches!(over_udp, EngineError::Handshake(_)), "{over_udp}");
            assert_eq!(over_udp, over_tcp, "{bad:?}");
        }
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

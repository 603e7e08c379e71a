//! The daemon against the library reference: under a pinned seed the
//! `reconciled` daemon must put **the same bytes** on the wire as the
//! library's own server does for the same conversation — `server_handshake`
//! and a `netsim::ServerMux` of streaming `ServerEngine<RibltBackend>`s over
//! `ShardPartitioner::partition` (`netsim::library_server`). The two share
//! the wire format and nothing else: the reference has no `Node`, no
//! `SketchCache`, no wire-batch cache and no reactor, and re-encodes every
//! symbol from the items with the streaming `Encoder`. Coded symbols are
//! linear and every peer reads the same universal prefix (paper §4, §7.3),
//! so an incrementally patched cache and a fresh encoder must agree cell
//! for cell; here they are made to, for full protocol-v4 reconciliations
//! (the golden pair frozen in `golden/v4_sync.hex`, and a seeded battery
//! over shard counts, tile sizes and difference sizes), for every handshake
//! reject and for post-handshake teardowns. The count sketch a wildcard
//! open carries is held to the same standard: the daemon's node counts,
//! moved mutation by mutation, and the library's, counted afresh,
//! must size the same grant, and every hostile sketch must be answered
//! alike.
//!
//! Hostile ranges, wildcards and sketches are the daemon's own policy
//! (typed error, owed payloads, nothing unasked, nobody else pays) and keep
//! explicit expectations.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use netsim::{library_server, FlightLink};
use reconcile_core::backends::{RibltBackend, RIBLT_STREAM_MAGIC};
use reconcile_core::handshake::{Hello, PROTOCOL_VERSION, REJECT_MAGIC};
use reconcile_core::wirefmt::encode_stream_open;
use reconcile_core::{
    read_frame, sync_sharded_tcp, write_frame, CountSketch, EngineError, EngineMessage, MuxFrame,
    RangeRequest, SetDifference, ShardPartitioner, TcpSyncConfig, SHARD_ALL,
};
use riblt::wire::{write_vlq, zigzag_encode};
use riblt::{FixedBytes, Symbol};
use riblt_hash::{SipKey, SplitMix64};
use server::{Daemon, DaemonConfig};

type Item = FixedBytes<8>;

/// A pinned key: equivalence must hold for arbitrary keys, and a
/// non-default one catches accidental `SipKey::default()` hardcoding.
const KEY: SipKey = SipKey::new(0x5eed_0000_0000_0001, 0x5eed_0000_0000_0002);

/// The golden conversation's shape: four shards, 32-symbol tiles.
const SHARDS: u16 = 4;
const TILE: usize = 32;

fn config(shards: u16, batch_symbols: usize) -> DaemonConfig {
    DaemonConfig {
        shards,
        key: KEY,
        batch_symbols,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..Default::default()
    }
}

fn items(range: std::ops::Range<u64>) -> Vec<Item> {
    range.map(Item::from_u64).collect()
}

/// The golden server's set.
fn server_items() -> Vec<Item> {
    items(0..3_000)
}

fn spawn_with(config: DaemonConfig) -> Daemon<Item> {
    Daemon::spawn(config, server_items()).unwrap()
}

fn spawn() -> Daemon<Item> {
    spawn_with(config(SHARDS, TILE))
}

fn backend(batch_symbols: usize) -> RibltBackend<Item> {
    RibltBackend::with_key_and_alpha(8, batch_symbols, KEY, riblt::DEFAULT_ALPHA)
}

/// The library's server over `server_items`, behind an in-memory link,
/// configured as a daemon spawned with `config` is.
fn reference_for(config: &DaemonConfig, server_items: &[Item]) -> FlightLink {
    library_server(
        backend(config.batch_symbols),
        server_items,
        Hello::new(KEY, config.shards, 8),
        config.max_units_per_session,
    )
}

fn reference(server_items: &[Item], shards: u16, batch_symbols: usize) -> FlightLink {
    reference_for(&config(shards, batch_symbols), server_items)
}

/// Wraps a connection, recording every byte in each direction.
struct Recording<T> {
    inner: T,
    sent: Vec<u8>,
    received: Vec<u8>,
}

impl<T: Read> Read for Recording<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.received.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl<T: Write> Write for Recording<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sent.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn connect(daemon: &Daemon<Item>) -> TcpStream {
    let stream = TcpStream::connect(daemon.data_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// A conversation's bytes: `(client → server, server → client)`.
type Transcript = (Vec<u8>, Vec<u8>);

/// The transcript of `local` reconciling over `inner` (a connection to a
/// daemon, or a link to the library's server), and what it recovered. The
/// client is deterministic: fixed session id (the config default), single
/// decode thread, so the bytes it sends depend only on the bytes it reads.
fn transcript<T: Read + Write>(
    inner: T,
    local: &[Item],
    batch_symbols: usize,
) -> (Transcript, Vec<SetDifference<Item>>) {
    let mut conn = Recording {
        inner,
        sent: Vec::new(),
        received: Vec::new(),
    };
    let config = TcpSyncConfig {
        key: KEY,
        threads: 1,
        ..Default::default()
    };
    let (diffs, _) =
        sync_sharded_tcp(&mut conn, local, |_| backend(batch_symbols), &config).expect("sync");
    ((conn.sent, conn.received), diffs)
}

/// The golden conversation's client: 100 items the server has and it does
/// not, 200 the other way.
fn golden_local() -> Vec<Item> {
    items(100..3_200)
}

/// Runs the golden reconciliation against `daemon` and returns its
/// transcript.
fn sync_against(daemon: &Daemon<Item>) -> Transcript {
    let (transcript, diffs) = transcript(connect(daemon), &golden_local(), TILE);
    let recovered: usize = diffs.iter().map(SetDifference::len).sum();
    assert_eq!(recovered, 100 + 200, "wrong difference recovered");
    transcript
}

/// Sends `frames` raw (each length-prefixed) to `daemon`, then drains the
/// server's side of the conversation to EOF, returning everything it said.
fn raw_exchange_with(daemon: &Daemon<Item>, frames: &[Vec<u8>]) -> Vec<u8> {
    let mut conn = connect(daemon);
    for frame in frames {
        write_frame(&mut conn, frame).unwrap();
    }
    // Half-close so a server that (correctly) ignores the final frame sees
    // a clean EOF instead of waiting out its read timeout.
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = Vec::new();
    conn.read_to_end(&mut replies).expect("server close");
    replies
}

/// Everything the library's server configured as `config` says to
/// `frames`.
fn reference_exchange(config: &DaemonConfig, frames: &[Vec<u8>]) -> Vec<u8> {
    let mut link = reference_for(config, &server_items());
    for frame in frames {
        write_frame(&mut link, frame).unwrap();
    }
    let mut said = Vec::new();
    link.read_to_end(&mut said).unwrap();
    said
}

/// The daemon and the library's server, both configured as `config`, say
/// the same thing to `frames`. Returns it, and the daemon for a closer look.
fn assert_same_answer_with(
    what: &str,
    config: DaemonConfig,
    frames: &[Vec<u8>],
) -> (Vec<u8>, Daemon<Item>) {
    let reference = reference_exchange(&config, frames);
    let daemon = spawn_with(config);
    let said = raw_exchange_with(&daemon, frames);
    assert!(
        said == reference,
        "{what}: the daemon and the library answer differently"
    );
    (said, daemon)
}

fn assert_same_answer(what: &str, frames: &[Vec<u8>]) -> Vec<u8> {
    let (said, daemon) = assert_same_answer_with(what, config(SHARDS, TILE), frames);
    daemon.shutdown();
    said
}

#[test]
fn full_reconciliation_transcripts_are_byte_identical() {
    let daemon = spawn();
    let (sent_daemon, recv_daemon) = sync_against(&daemon);
    daemon.shutdown();
    let library = reference(&server_items(), SHARDS, TILE);
    let ((sent_library, recv_library), _) = transcript(library, &golden_local(), TILE);
    // Same server bytes ⇒ the deterministic client sends the same bytes —
    // assert both directions so a divergence pinpoints its side.
    assert!(
        recv_daemon == recv_library,
        "server→client: the daemon and the library reference diverge"
    );
    assert!(
        sent_daemon == sent_library,
        "client→server: the daemon and the library reference diverge"
    );
    assert!(
        !recv_daemon.is_empty(),
        "transcript is empty — the comparison proved nothing"
    );
    // The transcript exercises what v3 added — one wildcard open behind the
    // hello, and no other open — and what v4 did: the open carries the
    // client's count sketch, and the server's answer starts with a grant of
    // several tiles a shard (its estimate of the 300 differences is 278.0,
    // 69.5 a shard, whose first rung and margin are 1.35 × 69.5 + 2·√69.5 =
    // 93.8 + 16.7 = 110.5 → 4 tiles). The shards need 99–119 symbols, so
    // every one decodes within its first flight and the client's second
    // flight is a `Done` per shard: no request round. (The request path is
    // the seeded battery's, below.)
    let mut sent = &sent_daemon[..];
    read_frame(&mut sent).expect("client hello");
    let mut opens = Vec::new();
    let mut requests = Vec::new();
    let mut dones = 0;
    while let Ok(frame) = read_frame(&mut sent) {
        let frame = MuxFrame::from_bytes(&frame).unwrap();
        match frame.message {
            EngineMessage::Request(range) => requests.push(range),
            EngineMessage::Open(_) => opens.push(frame.shard),
            EngineMessage::Done => dones += 1,
            _ => {}
        }
    }
    assert_eq!(opens, [SHARD_ALL], "one wildcard open, no per-shard open");
    assert_eq!(requests, [], "no request round");
    assert_eq!(dones, usize::from(SHARDS));
    let mut received = &recv_daemon[..];
    read_frame(&mut received).expect("server hello");
    let grant = MuxFrame::from_bytes(&read_frame(&mut received).unwrap()).unwrap();
    let tiles = RangeRequest {
        offset: TILE as u32,
        count: 3 * TILE as u16,
    };
    assert_eq!(
        grant,
        MuxFrame::new(1, SHARD_ALL, EngineMessage::Request(tiles))
    );

    // Frozen: a change to these bytes is a protocol change, and says so in
    // review. `UPDATE_GOLDEN=1 cargo test -p server --test wire_equivalence`
    // rewrites the file.
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let transcript = format!(
        "client {}\nserver {}\n",
        hex(&sent_daemon),
        hex(&recv_daemon)
    );
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/v4_sync.hex");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden, &transcript).unwrap();
    }
    let frozen = std::fs::read_to_string(golden).expect("golden transcript");
    assert!(
        transcript == frozen,
        "the v4 transcript moved off tests/golden/v4_sync.hex"
    );
}

/// A client whose hello the daemon refuses has already written its wildcard
/// open behind it. The daemon must not close over that unread frame — the
/// reset would race the reject — so the client still reads *why*.
#[test]
fn pipelined_clients_still_read_the_reject_reason() {
    fn refused<I: riblt::Symbol + Send + Sync + std::fmt::Debug>(
        daemon: &Daemon<Item>,
        key: SipKey,
        symbol_len: usize,
    ) -> EngineError {
        let mut conn = connect(daemon);
        sync_sharded_tcp(
            &mut conn,
            &[] as &[I],
            |_| RibltBackend::<I>::with_key_and_alpha(symbol_len, 32, key, riblt::DEFAULT_ALPHA),
            &TcpSyncConfig {
                key,
                symbol_len,
                ..Default::default()
            },
        )
        .unwrap_err()
    }
    let daemon = spawn();
    // Repeated: a reset that only sometimes overtakes the reject is still a
    // bug.
    for attempt in 0..25 {
        let err = refused::<Item>(&daemon, SipKey::new(0xbad, 0xbad), 8);
        assert!(
            matches!(&err, EngineError::Handshake(why) if why.contains("fingerprint")),
            "attempt {attempt}: {err}"
        );
        let err = refused::<FixedBytes<16>>(&daemon, KEY, 16);
        assert!(
            matches!(&err, EngineError::Handshake(why) if why.contains("symbol length")),
            "attempt {attempt}: {err}"
        );
    }
    assert_eq!(daemon.stats().connection_errors, 0);
    sync_against(&daemon);
    daemon.shutdown();
}

#[test]
fn handshake_reject_bytes_are_identical() {
    // Each hello is refused with the reject frame `server_handshake` writes
    // for it, and nothing else.
    let refusal = |what: &str, hello: Vec<u8>, code: u8| {
        let said = assert_same_answer(what, &[hello]);
        let mut rest = &said[..];
        let reject = read_frame(&mut rest).expect("one reject frame");
        assert_eq!(reject[..4], REJECT_MAGIC, "{what}");
        assert_eq!(reject[4], code, "{what}: reason code");
        assert!(rest.is_empty(), "{what}: bytes after the reject");
    };
    let versioned = |version: u16| {
        let mut hello = Hello::new(KEY, 0, 8);
        hello.version = version;
        hello.to_bytes().to_vec()
    };
    let mis_keyed = Hello::new(SipKey::new(0xbad, 0xbad), 0, 8);
    refusal("wrong fingerprint", mis_keyed.to_bytes().to_vec(), 3);
    refusal("a newer version", versioned(PROTOCOL_VERSION + 1), 2);
    // A protocol-v1 peer (lock-step `Continue` rounds) and a v2 peer (one
    // open per shard, after the hello exchange; this daemon would serve it,
    // but a v2 daemon would not serve our wildcard, so the versions part
    // ways) are turned away by name.
    refusal("a v1 peer", versioned(1), 2);
    refusal("a v2 peer", versioned(2), 2);
    // A v3 peer's wildcard open carries no sketch and this daemon would
    // serve it, but a v3 daemon would ignore our sketch and send no grant.
    refusal("a v3 peer", versioned(3), 2);
    let wider_items = Hello::new(KEY, 0, 16);
    refusal("wrong item length", wider_items.to_bytes().to_vec(), 4);
    // Garbage that does not even parse as a hello.
    refusal("18 bytes of garbage", vec![0xFFu8; 18], 1);
}

#[test]
fn post_handshake_protocol_error_bytes_are_identical() {
    let hello = Hello::new(KEY, 0, 8).to_bytes().to_vec();
    let server_hello = {
        let mut framed = Vec::new();
        write_frame(&mut framed, &Hello::new(KEY, SHARDS, 8).to_bytes()).unwrap();
        framed
    };
    // Valid handshake, then an unparseable mux frame: the server hello,
    // then the connection drops with nothing else said.
    let said = assert_same_answer("junk mux frame", &[hello.clone(), vec![0xABu8; 9]]);
    assert_eq!(said, server_hello);
    // A Done for a session that was never opened is quietly ignored
    // (idempotent retire), after which EOF closes cleanly.
    let stray_done = MuxFrame::new(7, 0, EngineMessage::Done).to_bytes();
    let said = assert_same_answer("stray Done", &[hello, stray_done]);
    assert_eq!(said, server_hello);
}

/// What only an independent reference can check: the daemon serves out of
/// caches patched mutation by mutation, through a wire-batch cache those
/// mutations must invalidate; the library encodes the final set from
/// scratch; and for every shape of conversation the two transcripts are the
/// same bytes in both directions — not only for the golden pair.
#[test]
fn seeded_battery_matches_the_library_reference_byte_for_byte() {
    /// `count` distinct values no earlier draw produced.
    fn fresh(
        gen: &mut SplitMix64,
        taken: &mut std::collections::BTreeSet<u64>,
        count: usize,
    ) -> Vec<Item> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let value = gen.next_u64();
            if taken.insert(value) {
                out.push(Item::from_u64(value));
            }
        }
        out
    }
    // (server-only, client-only) items; `None` empties one server shard.
    let differences = [
        Some((0, 0)),
        Some((1, 0)),
        Some((0, 40)),
        Some((17, 5)),
        Some((150, 150)),
        Some((400, 300)),
        None,
    ];
    let mut case = 0u64;
    for shards in [1u16, 4, 8] {
        for batch_symbols in [16usize, 32] {
            for difference in differences {
                case += 1;
                let what = format!(
                    "case {case}: {shards} shards, tiles of {batch_symbols}, {difference:?}"
                );
                let mut gen = SplitMix64::new(0xba77_e4f0 + case);
                let mut taken = std::collections::BTreeSet::new();
                let common = fresh(&mut gen, &mut taken, 1_500);
                let (added, removed, local, expected) = match difference {
                    Some((server_only, client_only)) => {
                        let theirs = fresh(&mut gen, &mut taken, server_only);
                        let ours = fresh(&mut gen, &mut taken, client_only);
                        let local = [&common[..], &ours].concat();
                        (theirs, Vec::new(), local, (server_only, client_only))
                    }
                    None => {
                        // The server holds nothing in one shard: the client's
                        // items there are all differences.
                        let mut parts = ShardPartitioner::new(KEY, shards).partition(&common);
                        let emptied = parts.swap_remove((case % u64::from(shards)) as usize);
                        let expected = (0, emptied.len());
                        (Vec::new(), emptied, common.clone(), expected)
                    }
                };
                let server_items: Vec<Item> = common
                    .iter()
                    .filter(|item| !removed.contains(item))
                    .chain(&added)
                    .copied()
                    .collect();

                // The daemon reaches the server's set the way a live one
                // does: built over the common items, read once (so its
                // wire-batch cache holds tiles of that older set), then
                // mutated item by item.
                let daemon = Daemon::spawn(
                    DaemonConfig {
                        reactor_workers: 1,
                        ..config(shards, batch_symbols)
                    },
                    common.iter().copied(),
                )
                .unwrap();
                transcript(connect(&daemon), &common, batch_symbols);
                assert!(added.iter().all(|item| daemon.insert(*item)), "{what}");
                assert!(removed.iter().all(|item| daemon.remove(item)), "{what}");
                let (of_daemon, diffs) = transcript(connect(&daemon), &local, batch_symbols);
                assert_eq!(daemon.stats().connection_errors, 0, "{what}");
                daemon.shutdown();
                let library = reference(&server_items, shards, batch_symbols);
                let (of_library, library_diffs) = transcript(library, &local, batch_symbols);

                assert!(of_daemon.1 == of_library.1, "{what}: server→client differs");
                assert!(of_daemon.0 == of_library.0, "{what}: client→server differs");
                assert_eq!(diffs, library_diffs, "{what}");
                let remote_only: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
                let local_only: usize = diffs.iter().map(|d| d.local_only.len()).sum();
                assert_eq!((remote_only, local_only), expected, "{what}");
            }
        }
    }
}

fn mux_frame(shard: u16, message: EngineMessage) -> Vec<u8> {
    MuxFrame::new(1, shard, message).to_bytes()
}

fn open(shard: u16) -> Vec<u8> {
    mux_frame(
        shard,
        EngineMessage::Open(encode_stream_open(RIBLT_STREAM_MAGIC, 8)),
    )
}

/// One hostile conversation: what it is, the frames after the hello, the
/// payload frames the server owes before it hangs up, and the typed error.
type HostileCase = (&'static str, Vec<Vec<u8>>, usize, &'static str);

/// Every case is refused with a typed protocol error that costs its sender
/// the connection and nobody else anything: the server has said exactly
/// what the frames before it earned (so nothing proportional to a count it
/// named was staged), and the daemon goes on serving.
fn assert_refused_alone(cases: Vec<HostileCase>) {
    let hello = Hello::new(KEY, 0, 8).to_bytes().to_vec();
    for (what, frames, owed, error) in cases {
        let daemon = spawn();
        let mut sent = vec![hello.clone()];
        sent.extend(frames.iter().cloned());
        let replies = raw_exchange_with(&daemon, &sent);

        let mut rest = &replies[..];
        read_frame(&mut rest).expect("server hello");
        for _ in 0..owed {
            let payload = MuxFrame::from_bytes(&read_frame(&mut rest).unwrap()).unwrap();
            assert!(
                matches!(payload.message, EngineMessage::Payload(_)),
                "{what}"
            );
        }
        assert!(
            rest.is_empty(),
            "{what}: {} bytes nobody asked for",
            rest.len()
        );

        // The teardown trails the socket close by a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while daemon.stats().connection_errors == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "{what}: no error counted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = daemon.metrics().events.last(64);
        let typed = format!("error=protocol violation: {error}");
        assert!(
            events
                .iter()
                .any(|e| e.kind == "conn_error" && e.detail.ends_with(&typed)),
            "{what}: no `{typed}` in {events:?}"
        );

        // Only that connection paid: the next peer syncs in full.
        sync_against(&daemon);
        assert_eq!(daemon.stats().connection_errors, 1, "{what}");
        daemon.shutdown();
    }
}

#[test]
fn hostile_range_requests_close_only_their_connection() {
    let request = |offset: u32, count: u16| {
        mux_frame(0, EngineMessage::Request(RangeRequest { offset, count }))
    };
    let tile = 32u16;
    let over_cap = RangeRequest::MAX_COUNT as u16 + tile;
    assert_refused_alone(vec![
        (
            "zero count",
            vec![open(0), request(32, 0)],
            1,
            "empty range request",
        ),
        (
            "count over the cap",
            vec![open(0), request(32, over_cap)],
            1,
            "range request exceeds the count cap",
        ),
        (
            "unaligned offset",
            vec![open(0), request(33, tile)],
            1,
            "range request is not tile-aligned",
        ),
        (
            "unaligned count",
            vec![open(0), request(32, tile + 1)],
            1,
            "range request is not tile-aligned",
        ),
        (
            "offset + count past u32",
            vec![open(0), request(u32::MAX - 31, 2 * tile)],
            1,
            "range request exceeds the unit budget",
        ),
        (
            "past max_units_per_session",
            vec![open(0), request(1 << 20, tile)],
            1,
            "range request exceeds the unit budget",
        ),
        (
            "open for a shard out of range",
            vec![open(4)],
            0,
            "shard out of range",
        ),
        (
            "request before open",
            vec![request(32, tile)],
            0,
            "request for unknown session/shard",
        ),
        (
            "request after done",
            vec![
                open(0),
                mux_frame(0, EngineMessage::Done),
                request(32, tile),
            ],
            1,
            "request for unknown session/shard",
        ),
    ]);
}

/// The wildcard shard means "every shard" in an open and nothing anywhere
/// else, and it is the open a connection starts with: once.
#[test]
fn hostile_wildcards_close_only_their_connection() {
    let range = RangeRequest {
        offset: 32,
        count: 32,
    };
    let only_opens = "only an open may address every shard";
    assert_refused_alone(vec![
        (
            "wildcard request",
            vec![
                open(SHARD_ALL),
                mux_frame(SHARD_ALL, EngineMessage::Request(range)),
            ],
            4,
            only_opens,
        ),
        (
            "wildcard done",
            vec![open(0), mux_frame(SHARD_ALL, EngineMessage::Done)],
            1,
            only_opens,
        ),
        (
            "wildcard payload",
            vec![mux_frame(SHARD_ALL, EngineMessage::Payload(vec![0; 8]))],
            0,
            only_opens,
        ),
        (
            "second wildcard open",
            vec![open(SHARD_ALL), open(SHARD_ALL)],
            4,
            "wildcard open after another open",
        ),
        (
            "wildcard after a per-shard open",
            vec![open(2), open(SHARD_ALL)],
            1,
            "wildcard open after another open",
        ),
    ]);
}

/// A wildcard open carrying `sketch` behind its stream header.
fn sketched_open(sketch: &[u8]) -> Vec<u8> {
    let mut body = encode_stream_open(RIBLT_STREAM_MAGIC, 8);
    body.extend_from_slice(sketch);
    mux_frame(SHARD_ALL, EngineMessage::Open(body))
}

/// A sketch's wire form with `buckets` and `n` declared and these counts
/// (zig-zag-coded against `n / 256`, as `CountSketch::encode` codes them).
fn sketch_bytes(buckets: u64, n: u64, counts: impl IntoIterator<Item = u64>) -> Vec<u8> {
    let mut wire = Vec::new();
    write_vlq(&mut wire, buckets);
    write_vlq(&mut wire, n);
    for count in counts {
        write_vlq(&mut wire, zigzag_encode(count as i64 - (n / 256) as i64));
    }
    wire
}

/// Every byte of a sketch is hostile. Each malformed one ends in a typed
/// error on its own connection, after the server hello and before anything
/// else is staged; each well-formed one, however absurd the difference it
/// implies, in a grant no larger than one `Request` per shard could have
/// asked for: `RangeRequest::largest_count(tile)` and
/// `max_units_per_session`. The library's server answers every case with
/// the same bytes.
#[test]
fn hostile_sketches_cost_their_connection_or_get_a_capped_grant() {
    let mut good = Vec::new();
    let client = golden_local();
    CountSketch::from_hashes(&Item::hash_many_with(&client, KEY)).encode(&mut good);
    let mut trailing = good.clone();
    trailing.push(0);
    let refused: [(&str, Vec<u8>, &str); 7] = [
        (
            "a truncated sketch",
            good[..good.len() / 2].to_vec(),
            "truncated VLQ",
        ),
        ("trailing bytes", trailing, "bytes after the count sketch"),
        (
            "a wrong bucket count",
            sketch_bytes(128, 300, vec![2; 128]),
            "count sketch of another bucket count",
        ),
        (
            "a varint past u64",
            [&[0xff; 9][..], &[0x02]].concat(),
            "VLQ overflows 64 bits",
        ),
        (
            "counts that disagree with the set size",
            sketch_bytes(256, 300, vec![1; 256]),
            "count sketch buckets disagree with its item count",
        ),
        (
            "n beyond u32",
            sketch_bytes(256, 1 << 32, vec![1 << 24; 256]),
            "count sketch of over u32::MAX items",
        ),
        (
            "every bucket at maximum",
            sketch_bytes(256, u64::from(u32::MAX), vec![u64::from(u32::MAX); 256]),
            "count sketch buckets disagree with its item count",
        ),
    ];
    let hello = Hello::new(KEY, 0, 8).to_bytes().to_vec();
    let server_hello = {
        let mut framed = Vec::new();
        write_frame(&mut framed, &Hello::new(KEY, SHARDS, 8).to_bytes()).unwrap();
        framed
    };
    for (what, sketch, error) in refused {
        let frames = [hello.clone(), sketched_open(&sketch)];
        let (said, daemon) = assert_same_answer_with(what, config(SHARDS, TILE), &frames);
        assert_eq!(said, server_hello, "{what}: staged more than the hello");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while daemon.stats().connection_errors == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "{what}: no error counted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = daemon.metrics().events.last(64);
        let typed = format!("error=malformed wire data: {error}");
        assert!(
            events
                .iter()
                .any(|e| e.kind == "conn_error" && e.detail.ends_with(&typed)),
            "{what}: no `{typed}` in {events:?}"
        );
        // Only that connection paid: the next peer syncs in full.
        sync_against(&daemon);
        assert_eq!(daemon.stats().connection_errors, 1, "{what}");
        daemon.shutdown();
    }

    // Well-formed and absurd: all of u32::MAX items in one bucket.
    let one_bucket = sketch_bytes(
        256,
        u64::from(u32::MAX),
        (0..256).map(|b| if b == 0 { u64::from(u32::MAX) } else { 0 }),
    );
    let largest = RangeRequest::largest_count(TILE);
    for (what, budget, symbols) in [
        ("capped by the largest request", 1 << 20, largest),
        ("capped by the unit budget", 100, 96),
        ("a budget below one tile", 10, TILE),
    ] {
        let config = DaemonConfig {
            max_units_per_session: budget,
            ..config(SHARDS, TILE)
        };
        let frames = [hello.clone(), sketched_open(&one_bucket)];
        let (said, daemon) = assert_same_answer_with(what, config, &frames);
        assert_eq!(daemon.stats().connection_errors, 0, "{what}");
        daemon.shutdown();
        let mut rest = &said[..];
        read_frame(&mut rest).expect("server hello");
        let grant = MuxFrame::from_bytes(&read_frame(&mut rest).unwrap()).unwrap();
        let granted = RangeRequest::new(TILE, symbols - TILE).unwrap();
        assert_eq!(grant.message, EngineMessage::Request(granted), "{what}");
        for shard in 0..SHARDS {
            for _ in 0..symbols / TILE {
                let payload = MuxFrame::from_bytes(&read_frame(&mut rest).unwrap()).unwrap();
                assert_eq!(payload.shard, shard, "{what}");
                assert!(matches!(payload.message, EngineMessage::Payload(_)));
            }
        }
        assert!(
            rest.is_empty(),
            "{what}: {} bytes beyond the grant",
            rest.len()
        );
    }
}

/// A wildcard open stages one tile per shard; the reactor checks its
/// write-buffer high-water mark after each of them, exactly as it does
/// after each of four separate opens, and the peer reads the same bytes.
#[test]
fn a_wildcard_open_pauses_between_shards_like_separate_opens() {
    let hello = Hello::new(KEY, 0, 8).to_bytes().to_vec();
    let exchange = |frames: Vec<Vec<u8>>| {
        // Every tile frame crosses a 64-byte mark; the 22-byte hello does not.
        let daemon = spawn_with(DaemonConfig {
            max_write_buffer: 64,
            ..config(SHARDS, TILE)
        });
        let mut sent = vec![hello.clone()];
        sent.extend(frames);
        let replies = raw_exchange_with(&daemon, &sent);
        let pauses = daemon.metrics().backpressure_pauses.get();
        assert_eq!(daemon.stats().connection_errors, 0);
        daemon.shutdown();
        (replies, pauses)
    };
    let (separate, separate_pauses) = exchange((0..4).map(open).collect());
    let (wildcard, wildcard_pauses) = exchange(vec![open(SHARD_ALL)]);
    assert_eq!(wildcard, separate, "same tiles, same order");
    assert_eq!(separate_pauses, 4, "one pause per staged tile");
    assert_eq!(wildcard_pauses, separate_pauses);
}

//! Wire equivalence between the two serving models: under a pinned seed
//! and identical configuration, the reactor daemon must emit a stream of
//! bytes **identical** to the thread-per-connection daemon — for full
//! protocol-v3 reconciliations (frozen in `golden/v3_sync.hex`), for
//! handshake rejects (a v1 or v2 peer's included, and a client's that
//! pipelined its wildcard open behind a hello the daemon refuses), and for
//! post-handshake protocol errors, hostile range requests and wildcards
//! among them. Both models route every byte through the same producers
//! (`handle_client_frame`, the hello/reject encoders), so this holds by
//! construction; this test pins it against regressions in either path.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use reconcile_core::backends::{RibltBackend, RIBLT_STREAM_MAGIC};
use reconcile_core::handshake::{Hello, PROTOCOL_VERSION, REJECT_MAGIC};
use reconcile_core::wirefmt::encode_stream_open;
use reconcile_core::{
    read_frame, write_frame, EngineError, EngineMessage, MuxFrame, RangeRequest, SHARD_ALL,
};
use riblt::FixedBytes;
use riblt_hash::SipKey;
use server::{Daemon, DaemonConfig, ServeModel};
use statesync::{sync_sharded_tcp, TcpSyncConfig};

type Item = FixedBytes<8>;

/// A pinned key: equivalence must hold for arbitrary keys, and a
/// non-default one catches accidental `SipKey::default()` hardcoding.
const KEY: SipKey = SipKey::new(0x5eed_0000_0000_0001, 0x5eed_0000_0000_0002);

fn config(model: ServeModel) -> DaemonConfig {
    DaemonConfig {
        shards: 4,
        key: KEY,
        batch_symbols: 32,
        model,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..Default::default()
    }
}

fn spawn_with(config: DaemonConfig) -> Daemon<Item> {
    Daemon::spawn(config, (0..3_000u64).map(Item::from_u64)).unwrap()
}

fn spawn(model: ServeModel) -> Daemon<Item> {
    spawn_with(config(model))
}

/// Wraps a connection, recording every byte in each direction.
struct Recording {
    inner: TcpStream,
    sent: Vec<u8>,
    received: Vec<u8>,
}

impl Read for Recording {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.received.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl Write for Recording {
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

/// Runs a full deterministic reconciliation against `daemon` and returns
/// the byte transcript `(client → server, server → client)`.
fn sync_against(daemon: &Daemon<Item>) -> (Vec<u8>, Vec<u8>) {
    let mut conn = Recording {
        inner: connect(daemon),
        sent: Vec::new(),
        received: Vec::new(),
    };
    // Deterministic client: fixed local set, fixed session id (the config
    // default), single decode thread.
    let local: Vec<Item> = (100..3_200u64).map(Item::from_u64).collect();
    let (diffs, _) = sync_sharded_tcp(
        &mut conn,
        &local,
        |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, KEY, riblt::DEFAULT_ALPHA),
        &TcpSyncConfig {
            key: KEY,
            threads: 1,
            ..Default::default()
        },
    )
    .expect("sync");
    let recovered: usize = diffs
        .iter()
        .map(|d| d.remote_only.len() + d.local_only.len())
        .sum();
    assert_eq!(recovered, 100 + 200, "wrong difference recovered");
    (conn.sent, conn.received)
}

fn sync_transcript(model: ServeModel) -> (Vec<u8>, Vec<u8>) {
    let daemon = spawn(model);
    let transcript = sync_against(&daemon);
    daemon.shutdown();
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
    let mut buf = [0u8; 4096];
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => replies.extend_from_slice(&buf[..n]),
            Err(e) => panic!("expected server close, got {e}"),
        }
    }
    replies
}

fn raw_exchange(model: ServeModel, frames: &[Vec<u8>]) -> Vec<u8> {
    let daemon = spawn(model);
    let replies = raw_exchange_with(&daemon, frames);
    daemon.shutdown();
    replies
}

#[test]
fn full_reconciliation_transcripts_are_byte_identical() {
    let (sent_reactor, recv_reactor) = sync_transcript(ServeModel::Reactor);
    let (sent_threaded, recv_threaded) = sync_transcript(ServeModel::ThreadPerConnection);
    // Same server bytes ⇒ the deterministic client sends the same bytes —
    // assert both directions so a divergence pinpoints its side.
    assert_eq!(
        recv_reactor, recv_threaded,
        "server→client streams diverge between serving models"
    );
    assert_eq!(
        sent_reactor, sent_threaded,
        "client→server streams diverge between serving models"
    );
    assert!(
        !recv_reactor.is_empty(),
        "transcript is empty — the comparison proved nothing"
    );
    // The transcript exercises what v2 added — 75 differences per shard make
    // the first round's requests span several tiles — and what v3 did: one
    // wildcard open behind the hello, and no other open.
    let mut sent = &sent_reactor[..];
    read_frame(&mut sent).expect("client hello");
    let mut widest = 0u16;
    let mut opens = Vec::new();
    while let Ok(frame) = read_frame(&mut sent) {
        let frame = MuxFrame::from_bytes(&frame).unwrap();
        match frame.message {
            EngineMessage::Request(range) => widest = widest.max(range.count),
            EngineMessage::Open(_) => opens.push(frame.shard),
            _ => {}
        }
    }
    assert!(widest >= 64, "no multi-tile request in the transcript");
    assert_eq!(opens, [SHARD_ALL], "one wildcard open, no per-shard open");

    // Frozen: a change to these bytes is a protocol change, and says so in
    // review. `UPDATE_GOLDEN=1 cargo test -p server --test wire_equivalence`
    // rewrites the file.
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let transcript = format!(
        "client {}\nserver {}\n",
        hex(&sent_reactor),
        hex(&recv_reactor)
    );
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/v3_sync.hex");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden, &transcript).unwrap();
    }
    let frozen = std::fs::read_to_string(golden).expect("golden transcript");
    assert!(
        transcript == frozen,
        "the v3 transcript moved off tests/golden/v3_sync.hex"
    );
}

/// A client whose hello the daemon refuses has already written its wildcard
/// open behind it. The daemon must not close over that unread frame — the
/// reset would race the reject — so the client still reads *why*.
#[test]
fn pipelined_clients_still_read_the_reject_reason() {
    fn refused<I: riblt::Symbol + Send + std::fmt::Debug>(
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
    for model in [ServeModel::Reactor, ServeModel::ThreadPerConnection] {
        let daemon = spawn(model);
        // Repeated: a reset that only sometimes overtakes the reject is
        // still a bug.
        for attempt in 0..25 {
            let err = refused::<Item>(&daemon, SipKey::new(0xbad, 0xbad), 8);
            assert!(
                matches!(&err, EngineError::Handshake(why) if why.contains("fingerprint")),
                "{model:?} attempt {attempt}: {err}"
            );
            let err = refused::<FixedBytes<16>>(&daemon, KEY, 16);
            assert!(
                matches!(&err, EngineError::Handshake(why) if why.contains("symbol length")),
                "{model:?} attempt {attempt}: {err}"
            );
        }
        assert_eq!(daemon.stats().connection_errors, 0);
        sync_against(&daemon);
        daemon.shutdown();
    }
}

#[test]
fn handshake_reject_bytes_are_identical() {
    // A well-formed hello frame the daemon must reject (wrong fingerprint):
    // both models answer with the same reject frame, then close.
    let bad_hello = Hello::new(SipKey::new(0xbad, 0xbad), 0, 8)
        .to_bytes()
        .to_vec();
    let reactor = raw_exchange(ServeModel::Reactor, std::slice::from_ref(&bad_hello));
    let threaded = raw_exchange(ServeModel::ThreadPerConnection, &[bad_hello]);
    assert_eq!(reactor, threaded, "reject replies diverge");
    assert!(!reactor.is_empty(), "expected a reject frame, got silence");

    // Wrong protocol version.
    let mut versioned = Hello::new(KEY, 0, 8);
    versioned.version = PROTOCOL_VERSION + 1;
    let reactor = raw_exchange(ServeModel::Reactor, &[versioned.to_bytes().to_vec()]);
    let threaded = raw_exchange(
        ServeModel::ThreadPerConnection,
        &[versioned.to_bytes().to_vec()],
    );
    assert_eq!(reactor, threaded, "version-reject replies diverge");

    // A protocol-v1 peer (lock-step `Continue` rounds) and a v2 peer (one
    // open per shard, after the hello exchange; this daemon would serve it,
    // but a v2 daemon would not serve our wildcard, so the versions part
    // ways) are turned away by name: one `RNCK` frame with the
    // version-mismatch reason code.
    for old in [1, 2] {
        versioned.version = old;
        let reactor = raw_exchange(ServeModel::Reactor, &[versioned.to_bytes().to_vec()]);
        let threaded = raw_exchange(
            ServeModel::ThreadPerConnection,
            &[versioned.to_bytes().to_vec()],
        );
        assert_eq!(reactor, threaded, "v{old}-reject replies diverge");
        let reject = read_frame(&mut &reactor[..]).expect("one reject frame");
        assert_eq!(reject[..4], REJECT_MAGIC);
        assert_eq!(reject[4], 2, "reason code: version mismatch");
    }

    // Garbage that does not even parse as a hello.
    let garbage = vec![0xFFu8; 18];
    let reactor = raw_exchange(ServeModel::Reactor, std::slice::from_ref(&garbage));
    let threaded = raw_exchange(ServeModel::ThreadPerConnection, &[garbage]);
    assert_eq!(reactor, threaded, "malformed-hello replies diverge");
}

#[test]
fn post_handshake_protocol_error_bytes_are_identical() {
    // Valid handshake, then an unparseable mux frame: both models reply
    // with the server hello only, then drop the connection without
    // emitting anything else.
    let hello = Hello::new(KEY, 0, 8).to_bytes().to_vec();
    let junk_mux = vec![0xABu8; 9];
    let reactor = raw_exchange(ServeModel::Reactor, &[hello.clone(), junk_mux.clone()]);
    let threaded = raw_exchange(ServeModel::ThreadPerConnection, &[hello.clone(), junk_mux]);
    assert_eq!(reactor, threaded, "protocol-error teardowns diverge");

    // A Done for a session that was never opened is quietly ignored in
    // both models (idempotent retire), after which EOF closes cleanly.
    let stray_done = MuxFrame::new(7, 0, reconcile_core::EngineMessage::Done).to_bytes();
    let reactor = raw_exchange(ServeModel::Reactor, &[hello.clone(), stray_done.clone()]);
    let threaded = raw_exchange(ServeModel::ThreadPerConnection, &[hello, stray_done]);
    assert_eq!(reactor, threaded, "stray-Done handling diverges");
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
/// named was staged), both models say the same bytes, and the daemon goes
/// on serving.
fn assert_refused_alone(cases: Vec<HostileCase>) {
    let hello = Hello::new(KEY, 0, 8).to_bytes().to_vec();
    for (what, frames, owed, error) in cases {
        let mut said = Vec::new();
        for model in [ServeModel::Reactor, ServeModel::ThreadPerConnection] {
            let daemon = spawn(model);
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
            said.push(replies);
        }
        assert_eq!(said[0], said[1], "{what}: the models answer differently");
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
            ..config(ServeModel::Reactor)
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

//! Datagram framing and session layer for running the rateless stream
//! over UDP (or any lossy datagram link).
//!
//! Ratelessness is what makes datagrams viable at all: any prefix of a
//! shard's coded-symbol sequence is useful, so a lost packet costs a few
//! extra symbols instead of retransmit machinery. The layer here therefore
//! does *not* implement reliability — it implements exactly the three
//! things a connectionless transport is missing:
//!
//! 1. **Framing**: every datagram opens with a fixed 19-byte header naming
//!    the payload kind, the session cookie, the shard, and a sequence
//!    number (see [`DatagramHeader`]). Symbols are packed to fit a
//!    configurable MTU budget ([`max_symbols_in_budget`]) so datagrams
//!    stay under the path MTU instead of fragmenting.
//! 2. **Session binding**: a retransmitted hello/ack exchange establishes
//!    a 64-bit cookie ([`session_cookie`]) — a keyed hash of the peer
//!    address and a client nonce — that every later datagram carries. The
//!    derivation is deterministic, so a duplicated hello idempotently maps
//!    to the *same* session, and a datagram whose cookie does not match
//!    its source address is silently dropped.
//! 3. **Idempotent serving**: requests name explicit `[start, start+count)`
//!    symbol ranges, so a duplicated or reordered request re-serves the
//!    same universal prefix instead of corrupting shared state. The only
//!    per-session server state is the peer the cookie is bound to, liveness
//!    and the shards the client has completed ([`UdpSessionTable`]); the
//!    unit budget is checked against each request's own range.
//!
//! A shard's client consumes coded symbols **positionally** (it is built
//! over the cells of its first batch, its items walked over exactly those,
//! and takes every later cell by its sequence index), so the client side
//! reorders arriving batches with a [`BatchSequencer`] before feeding the
//! shard; the server side needs no ordering at all.
//!
//! ```text
//! Datagram header (19 bytes):
//!   magic   : 4 bytes  "RCLU"
//!   kind    : u8       1=Hello 2=HelloAck 3=Reject 4=Request 5=Symbols 6=Done
//!   cookie  : u64 LE   session cookie (0 in Hello/Reject)
//!   shard   : u16 LE   shard the payload concerns (0 when n/a)
//!   seq     : u32 LE   symbol offset (Request/Symbols), units (Done), else 0
//! Hello payload    : 18-byte handshake Hello · nonce u64 LE
//! HelloAck payload : server's 18-byte handshake Hello (cookie in header)
//! Reject payload   : the TCP handshake's reject frame bytes
//! Request payload  : count u16 LE (seq = first symbol wanted)
//! Symbols payload  : one §6 wire batch (seq = its start offset)
//! Done payload     : empty (seq = coded symbols the client consumed)
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use riblt_hash::{siphash24, SipKey};

use crate::error::{EngineError, Result};
use crate::handshake::{reject_frame_bytes, validate_client_hello, Hello, HELLO_BYTES};
use crate::shard::ShardId;

/// Magic bytes opening every datagram ("RCLU" — reconciled, UDP).
pub const DATAGRAM_MAGIC: [u8; 4] = *b"RCLU";

/// Fixed size of the datagram header.
pub const DATAGRAM_HEADER_BYTES: usize = 19;

/// Default per-datagram byte budget: conservatively under the common
/// 1500-byte Ethernet MTU minus IP/UDP headers and tunnel overheads, so
/// datagrams survive typical paths without fragmentation.
pub const DEFAULT_MTU_BUDGET: usize = 1200;

/// Smallest accepted MTU budget: room for the header, the batch framing
/// overhead, and at least one symbol of any supported length.
pub const MIN_MTU_BUDGET: usize = 128;

/// Worst-case bytes of batch framing around the packed symbols: the §6
/// codec's magic/version plus VLQ-encoded symbol length, set size, start
/// index, and batch length.
const BATCH_OVERHEAD_BYTES: usize = 31;

/// Worst-case bytes of one packed symbol beyond its sum: the 8-byte
/// checksum plus a 5-byte zig-zag VLQ count delta (covers |delta| < 2³⁴ —
/// far beyond any set this transport serves).
const PER_SYMBOL_OVERHEAD_BYTES: usize = 13;

/// Context string for the session-cookie derivation.
const COOKIE_CONTEXT: &[u8] = b"reconciled/udp-session-cookie/v1";

/// What a datagram carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DatagramKind {
    /// Client → server: handshake hello + nonce, retransmitted until acked.
    Hello = 1,
    /// Server → client: handshake accepted; header carries the cookie.
    HelloAck = 2,
    /// Server → client: handshake refused (payload names the reason).
    Reject = 3,
    /// Client → server: serve `count` symbols of `shard` from offset `seq`.
    Request = 4,
    /// Server → client: one wire batch of `shard` starting at offset `seq`.
    Symbols = 5,
    /// Client → server: `shard` decoded after consuming `seq` symbols.
    Done = 6,
}

impl DatagramKind {
    fn from_code(code: u8) -> Option<DatagramKind> {
        Some(match code {
            1 => DatagramKind::Hello,
            2 => DatagramKind::HelloAck,
            3 => DatagramKind::Reject,
            4 => DatagramKind::Request,
            5 => DatagramKind::Symbols,
            6 => DatagramKind::Done,
            _ => return None,
        })
    }
}

/// The fixed header opening every datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatagramHeader {
    /// Payload kind.
    pub kind: DatagramKind,
    /// Session cookie (0 before the session exists).
    pub cookie: u64,
    /// Shard the payload concerns (0 when not applicable).
    pub shard: ShardId,
    /// Symbol offset (`Request`/`Symbols`), consumed units (`Done`), else 0.
    pub seq: u32,
}

impl DatagramHeader {
    /// Builds one datagram: header followed by `payload`.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(DATAGRAM_HEADER_BYTES + payload.len());
        out.extend_from_slice(&DATAGRAM_MAGIC);
        out.push(self.kind as u8);
        out.extend_from_slice(&self.cookie.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Splits a datagram into its header and payload. Truncated or
    /// mis-tagged datagrams yield an error, never a panic — on a lossy
    /// link they are dropped, not fatal.
    pub fn decode(datagram: &[u8]) -> Result<(DatagramHeader, &[u8])> {
        if datagram.len() < DATAGRAM_HEADER_BYTES {
            return Err(EngineError::WireFormat("datagram truncated mid-header"));
        }
        if datagram[..4] != DATAGRAM_MAGIC {
            return Err(EngineError::WireFormat("bad datagram magic"));
        }
        let kind = DatagramKind::from_code(datagram[4])
            .ok_or(EngineError::WireFormat("unknown datagram kind"))?;
        let cookie = u64::from_le_bytes(datagram[5..13].try_into().expect("length checked"));
        let shard = u16::from_le_bytes([datagram[13], datagram[14]]);
        let seq = u32::from_le_bytes(datagram[15..19].try_into().expect("length checked"));
        Ok((
            DatagramHeader {
                kind,
                cookie,
                shard,
                seq,
            },
            &datagram[DATAGRAM_HEADER_BYTES..],
        ))
    }
}

/// Encodes a client hello payload: the 18-byte handshake [`Hello`]
/// followed by the client's session nonce.
pub fn client_hello_payload(hello: &Hello, nonce: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HELLO_BYTES + 8);
    out.extend_from_slice(&hello.to_bytes());
    out.extend_from_slice(&nonce.to_le_bytes());
    out
}

/// Inverse of [`client_hello_payload`].
pub fn parse_client_hello_payload(payload: &[u8]) -> Result<(Hello, u64)> {
    if payload.len() != HELLO_BYTES + 8 {
        return Err(EngineError::WireFormat("bad hello payload length"));
    }
    let hello = Hello::from_bytes(&payload[..HELLO_BYTES])?;
    let nonce = u64::from_le_bytes(payload[HELLO_BYTES..].try_into().expect("length checked"));
    Ok((hello, nonce))
}

/// Encodes a request payload (the count; the offset rides in the header).
pub fn request_payload(count: u16) -> [u8; 2] {
    count.to_le_bytes()
}

/// Derives the session cookie binding a peer address and client nonce
/// under the shared key.
///
/// Deterministic by design: a *duplicated* hello derives the same cookie
/// and lands on the same session, and a forged datagram must both guess
/// the cookie and spoof the source address to be accepted. This is an
/// anti-confusion measure in the spirit of QUIC's address validation, not
/// cryptographic session security.
pub fn session_cookie(key: SipKey, peer: &[u8], nonce: u64) -> u64 {
    let mut material = Vec::with_capacity(COOKIE_CONTEXT.len() + peer.len() + 8);
    material.extend_from_slice(COOKIE_CONTEXT);
    material.extend_from_slice(peer);
    material.extend_from_slice(&nonce.to_le_bytes());
    siphash24(key, &material)
}

/// How many coded symbols fit in one `Symbols` datagram under `budget`
/// total bytes, conservatively (worst-case VLQ widths), never less than 1.
pub fn max_symbols_in_budget(budget: usize, symbol_len: usize) -> usize {
    let usable = budget.saturating_sub(DATAGRAM_HEADER_BYTES + BATCH_OVERHEAD_BYTES);
    (usable / (symbol_len + PER_SYMBOL_OVERHEAD_BYTES)).max(1)
}

/// Upper bound on pending out-of-order batches a [`BatchSequencer`]
/// buffers; beyond it, new far-future batches are dropped (the peer
/// re-serves them — rateless streams make that cheap).
pub const MAX_PENDING_BATCHES: usize = 64;

/// Client-side reorder buffer: accepts `Symbols` payloads in any arrival
/// order and releases them in sequence-index order, because the decoder
/// streams its local-set contributions positionally.
#[derive(Debug, Default)]
pub struct BatchSequencer {
    next: u64,
    pending: BTreeMap<u64, Vec<u8>>,
}

impl BatchSequencer {
    /// A sequencer expecting the stream to start at offset 0.
    pub fn new() -> BatchSequencer {
        BatchSequencer::default()
    }

    /// The next symbol offset the consumer needs.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Offers one arriving batch payload starting at symbol offset
    /// `start`. Returns false when the batch was dropped: already
    /// consumed (stale/duplicate), a duplicate of a pending batch, or the
    /// buffer is full.
    pub fn accept(&mut self, start: u64, payload: Vec<u8>) -> bool {
        if start < self.next || self.pending.contains_key(&start) {
            return false;
        }
        // The batch the consumer is waiting for is always admitted — a full
        // buffer must never wedge the stream on its own head-of-line batch.
        if self.pending.len() >= MAX_PENDING_BATCHES && start != self.next {
            return false;
        }
        self.pending.insert(start, payload);
        true
    }

    /// Releases the batch starting exactly at the next needed offset, if
    /// buffered. The caller must [`Self::advance`] by the batch's symbol
    /// count after consuming it.
    pub fn pop_ready(&mut self) -> Option<Vec<u8>> {
        let next = self.next;
        self.pending.remove(&next)
    }

    /// Marks `consumed` symbols as delivered, advancing the needed offset
    /// and dropping any pending batches the advance made stale (overlap
    /// from duplicated serves).
    pub fn advance(&mut self, consumed: u64) {
        self.next += consumed;
        let next = self.next;
        self.pending.retain(|&start, _| start >= next);
    }

    /// Number of batches buffered out of order.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// Server-side parameters of the datagram service.
#[derive(Debug, Clone)]
pub struct DatagramServiceConfig {
    /// The server's handshake hello (authoritative shard count).
    pub hello: Hello,
    /// Shared key; drives the session-cookie derivation.
    pub key: SipKey,
    /// Per-datagram byte budget; inbound datagrams beyond it are dropped
    /// and outbound symbol batches are packed to fit it.
    pub mtu_budget: usize,
    /// Per-`(session, shard)` symbol budget, mirroring the TCP daemon's
    /// `max_units_per_session` bound: requests past it are ignored.
    pub max_units_per_session: usize,
}

/// One live datagram session.
#[derive(Debug)]
struct UdpSession {
    /// Opaque peer address the cookie is bound to.
    peer: Vec<u8>,
    /// Last datagram observed, for idle expiry.
    last_seen: Instant,
    /// Shards the client completed with `Done`.
    done: HashSet<ShardId>,
}

/// The server's table of live datagram sessions, keyed by cookie.
#[derive(Debug, Default)]
pub struct UdpSessionTable {
    sessions: HashMap<u64, UdpSession>,
}

/// What [`handle_server_datagram`] observed, for metrics and logging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatagramEvent {
    /// A hello was accepted; `fresh` distinguishes a new session from a
    /// retransmitted/duplicated hello landing on the existing one.
    HelloAccepted {
        /// True when the hello created the session (vs. a retransmit).
        fresh: bool,
        /// The session cookie (new or re-derived).
        cookie: u64,
    },
    /// A hello was refused and a reject datagram queued.
    HelloRejected,
    /// A request was served.
    Served {
        /// Requested shard.
        shard: ShardId,
        /// First symbol offset served.
        start: u64,
        /// Symbols in the reply batch (post-clamping).
        count: usize,
    },
    /// The client completed a shard.
    Done {
        /// Completed shard.
        shard: ShardId,
        /// Coded symbols the client reported consuming.
        units: u64,
        /// True when every shard is now done and the session was retired.
        session_complete: bool,
    },
    /// The datagram was ignored; the reason is a static description.
    Dropped(&'static str),
}

impl UdpSessionTable {
    /// An empty table.
    pub fn new() -> UdpSessionTable {
        UdpSessionTable::default()
    }

    /// Live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Expires sessions idle longer than `idle`, returning how many were
    /// dropped — the datagram analogue of the TCP path's read timeout.
    pub fn sweep(&mut self, now: Instant, idle: std::time::Duration) -> usize {
        let before = self.sessions.len();
        self.sessions
            .retain(|_, s| now.duration_since(s.last_seen) <= idle);
        before - self.sessions.len()
    }
}

/// Dispatches one inbound datagram against the session table.
///
/// `peer` is the opaque source address (whatever bytes the transport uses
/// to identify the sender — a `SocketAddr` rendering, a simulator endpoint
/// id); it binds the cookie. `serve` produces one encoded wire batch of
/// `count` symbols of `shard` starting at `start`, or `None` if the shard
/// cannot be served (out of range).
///
/// Returns the reply datagrams to transmit (possibly none) and the event
/// that occurred. The handler never panics and never wedges a session on
/// malformed, duplicated, reordered, or truncated input — bad datagrams
/// are dropped, and requests are idempotent because they name explicit
/// offsets.
pub fn handle_server_datagram<F>(
    table: &mut UdpSessionTable,
    config: &DatagramServiceConfig,
    peer: &[u8],
    datagram: &[u8],
    now: Instant,
    serve: F,
) -> (Vec<Vec<u8>>, DatagramEvent)
where
    F: FnOnce(ShardId, u64, usize) -> Option<Vec<u8>>,
{
    if datagram.len() > config.mtu_budget.max(MIN_MTU_BUDGET) {
        return (Vec::new(), DatagramEvent::Dropped("oversized datagram"));
    }
    let (header, payload) = match DatagramHeader::decode(datagram) {
        Ok(split) => split,
        Err(_) => return (Vec::new(), DatagramEvent::Dropped("malformed header")),
    };
    match header.kind {
        DatagramKind::Hello => handle_hello(table, config, peer, payload, now),
        DatagramKind::Request => {
            let Some(session) = table.sessions.get_mut(&header.cookie) else {
                return (Vec::new(), DatagramEvent::Dropped("unknown session"));
            };
            if session.peer != peer {
                return (Vec::new(), DatagramEvent::Dropped("cookie/peer mismatch"));
            }
            session.last_seen = now;
            if payload.len() != 2 {
                return (Vec::new(), DatagramEvent::Dropped("bad request payload"));
            }
            if header.shard >= config.hello.shards {
                return (Vec::new(), DatagramEvent::Dropped("shard out of range"));
            }
            let requested = usize::from(u16::from_le_bytes([payload[0], payload[1]]));
            let budget_cap =
                max_symbols_in_budget(config.mtu_budget, usize::from(config.hello.symbol_len));
            let count = requested.min(budget_cap).max(1);
            let start = u64::from(header.seq);
            if start as usize + count > config.max_units_per_session {
                return (Vec::new(), DatagramEvent::Dropped("unit budget exceeded"));
            }
            let Some(batch) = serve(header.shard, start, count) else {
                return (Vec::new(), DatagramEvent::Dropped("unservable request"));
            };
            let reply = DatagramHeader {
                kind: DatagramKind::Symbols,
                cookie: header.cookie,
                shard: header.shard,
                seq: header.seq,
            }
            .encode(&batch);
            (
                vec![reply],
                DatagramEvent::Served {
                    shard: header.shard,
                    start,
                    count,
                },
            )
        }
        DatagramKind::Done => {
            let Some(session) = table.sessions.get_mut(&header.cookie) else {
                return (Vec::new(), DatagramEvent::Dropped("unknown session"));
            };
            if session.peer != peer {
                return (Vec::new(), DatagramEvent::Dropped("cookie/peer mismatch"));
            }
            session.last_seen = now;
            // A shard the service does not have is no step towards the
            // session's completion, as it is no stream to serve.
            if header.shard >= config.hello.shards {
                return (Vec::new(), DatagramEvent::Dropped("shard out of range"));
            }
            // Duplicate Dones are harmless, mirroring the TCP path.
            session.done.insert(header.shard);
            let complete = session.done.len() >= usize::from(config.hello.shards);
            if complete {
                table.sessions.remove(&header.cookie);
            }
            (
                Vec::new(),
                DatagramEvent::Done {
                    shard: header.shard,
                    units: u64::from(header.seq),
                    session_complete: complete,
                },
            )
        }
        // Server-to-client kinds arriving at the server are peer confusion.
        DatagramKind::HelloAck | DatagramKind::Reject | DatagramKind::Symbols => {
            (Vec::new(), DatagramEvent::Dropped("unexpected kind"))
        }
    }
}

fn handle_hello(
    table: &mut UdpSessionTable,
    config: &DatagramServiceConfig,
    peer: &[u8],
    payload: &[u8],
    now: Instant,
) -> (Vec<Vec<u8>>, DatagramEvent) {
    let reject = |reason| {
        let frame = reject_frame_bytes(reason);
        let reply = DatagramHeader {
            kind: DatagramKind::Reject,
            cookie: 0,
            shard: 0,
            seq: 0,
        }
        .encode(&frame);
        (vec![reply], DatagramEvent::HelloRejected)
    };
    let Ok((client, nonce)) = parse_client_hello_payload(payload) else {
        return reject(crate::handshake::RejectReason::Malformed);
    };
    if let Err(reason) = validate_client_hello(&client, &config.hello) {
        return reject(reason);
    }
    let cookie = session_cookie(config.key, peer, nonce);
    let fresh = match table.sessions.get_mut(&cookie) {
        Some(session) => {
            // Deterministic cookie: a duplicated hello re-lands here.
            session.last_seen = now;
            false
        }
        None => {
            table.sessions.insert(
                cookie,
                UdpSession {
                    peer: peer.to_vec(),
                    last_seen: now,
                    done: HashSet::new(),
                },
            );
            true
        }
    };
    let ack = DatagramHeader {
        kind: DatagramKind::HelloAck,
        cookie,
        shard: 0,
        seq: 0,
    }
    .encode(&config.hello.to_bytes());
    (vec![ack], DatagramEvent::HelloAccepted { fresh, cookie })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn key() -> SipKey {
        SipKey::new(7, 9)
    }

    fn service() -> DatagramServiceConfig {
        DatagramServiceConfig {
            hello: Hello::new(key(), 4, 8),
            key: key(),
            mtu_budget: DEFAULT_MTU_BUDGET,
            max_units_per_session: 1 << 20,
        }
    }

    fn hello_datagram(nonce: u64) -> Vec<u8> {
        let client = Hello::new(key(), crate::handshake::SHARDS_ANY, 8);
        DatagramHeader {
            kind: DatagramKind::Hello,
            cookie: 0,
            shard: 0,
            seq: 0,
        }
        .encode(&client_hello_payload(&client, nonce))
    }

    fn open_session(table: &mut UdpSessionTable, config: &DatagramServiceConfig) -> u64 {
        let (replies, event) = handle_server_datagram(
            table,
            config,
            b"peer-a",
            &hello_datagram(42),
            Instant::now(),
            |_, _, _| None,
        );
        assert_eq!(replies.len(), 1);
        match event {
            DatagramEvent::HelloAccepted {
                fresh: true,
                cookie,
            } => cookie,
            other => panic!("unexpected event: {other:?}"),
        }
    }

    #[test]
    fn header_roundtrip() {
        let header = DatagramHeader {
            kind: DatagramKind::Symbols,
            cookie: 0xDEAD_BEEF_CAFE_F00D,
            shard: 3,
            seq: 12_345,
        };
        let datagram = header.encode(b"payload");
        let (back, payload) = DatagramHeader::decode(&datagram).unwrap();
        assert_eq!(back, header);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn truncated_and_garbage_headers_error_cleanly() {
        let datagram = DatagramHeader {
            kind: DatagramKind::Request,
            cookie: 1,
            shard: 0,
            seq: 0,
        }
        .encode(&request_payload(32));
        // Every truncation point inside the header errors, never panics.
        for cut in 0..DATAGRAM_HEADER_BYTES {
            assert!(DatagramHeader::decode(&datagram[..cut]).is_err(), "{cut}");
        }
        let mut bad_magic = datagram.clone();
        bad_magic[0] = b'X';
        assert!(DatagramHeader::decode(&bad_magic).is_err());
        let mut bad_kind = datagram;
        bad_kind[4] = 99;
        assert!(DatagramHeader::decode(&bad_kind).is_err());
    }

    #[test]
    fn duplicated_hello_is_idempotent() {
        let config = service();
        let mut table = UdpSessionTable::new();
        let cookie = open_session(&mut table, &config);
        assert_eq!(table.len(), 1);
        // The duplicate re-acks the *same* cookie without a second session.
        let (replies, event) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &hello_datagram(42),
            Instant::now(),
            |_, _, _| None,
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(
            event,
            DatagramEvent::HelloAccepted {
                fresh: false,
                cookie
            }
        );
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn mismatched_hello_is_rejected() {
        let config = service();
        let mut table = UdpSessionTable::new();
        let wrong_key = Hello::new(SipKey::new(1, 2), 0, 8);
        let datagram = DatagramHeader {
            kind: DatagramKind::Hello,
            cookie: 0,
            shard: 0,
            seq: 0,
        }
        .encode(&client_hello_payload(&wrong_key, 7));
        let (replies, event) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &datagram,
            Instant::now(),
            |_, _, _| None,
        );
        assert_eq!(event, DatagramEvent::HelloRejected);
        let (header, payload) = DatagramHeader::decode(&replies[0]).unwrap();
        assert_eq!(header.kind, DatagramKind::Reject);
        assert_eq!(&payload[..4], b"RNCK");
        assert!(table.is_empty());
    }

    #[test]
    fn requests_are_served_and_bound_to_the_peer() {
        let config = service();
        let mut table = UdpSessionTable::new();
        let cookie = open_session(&mut table, &config);
        let request = DatagramHeader {
            kind: DatagramKind::Request,
            cookie,
            shard: 2,
            seq: 64,
        }
        .encode(&request_payload(16));
        let (replies, event) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &request,
            Instant::now(),
            |shard, start, count| {
                assert_eq!((shard, start, count), (2, 64, 16));
                Some(vec![0xAB; 40])
            },
        );
        assert_eq!(
            event,
            DatagramEvent::Served {
                shard: 2,
                start: 64,
                count: 16
            }
        );
        let (header, payload) = DatagramHeader::decode(&replies[0]).unwrap();
        assert_eq!(header.kind, DatagramKind::Symbols);
        assert_eq!((header.cookie, header.shard, header.seq), (cookie, 2, 64));
        assert_eq!(payload, &[0xAB; 40][..]);

        // The same cookie from a different source address is ignored.
        let (replies, event) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-b",
            &request,
            Instant::now(),
            |_, _, _| Some(Vec::new()),
        );
        assert!(replies.is_empty());
        assert_eq!(event, DatagramEvent::Dropped("cookie/peer mismatch"));
    }

    #[test]
    fn unit_budget_and_shard_range_are_enforced() {
        let mut config = service();
        config.max_units_per_session = 100;
        let mut table = UdpSessionTable::new();
        let cookie = open_session(&mut table, &config);
        let over_budget = DatagramHeader {
            kind: DatagramKind::Request,
            cookie,
            shard: 0,
            seq: 99,
        }
        .encode(&request_payload(16));
        let (_, event) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &over_budget,
            Instant::now(),
            |_, _, _| Some(Vec::new()),
        );
        assert_eq!(event, DatagramEvent::Dropped("unit budget exceeded"));
        let bad_shard = DatagramHeader {
            kind: DatagramKind::Request,
            cookie,
            shard: 9,
            seq: 0,
        }
        .encode(&request_payload(1));
        let (_, event) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &bad_shard,
            Instant::now(),
            |_, _, _| Some(Vec::new()),
        );
        assert_eq!(event, DatagramEvent::Dropped("shard out of range"));
    }

    #[test]
    fn done_on_every_shard_retires_the_session() {
        let config = service();
        let mut table = UdpSessionTable::new();
        let cookie = open_session(&mut table, &config);
        for shard in 0..config.hello.shards {
            let done = DatagramHeader {
                kind: DatagramKind::Done,
                cookie,
                shard,
                seq: 10 + u32::from(shard),
            }
            .encode(&[]);
            let (replies, event) = handle_server_datagram(
                &mut table,
                &config,
                b"peer-a",
                &done,
                Instant::now(),
                |_, _, _| None,
            );
            assert!(replies.is_empty());
            let complete = shard + 1 == config.hello.shards;
            assert_eq!(
                event,
                DatagramEvent::Done {
                    shard,
                    units: u64::from(10 + u32::from(shard)),
                    session_complete: complete,
                }
            );
        }
        assert!(table.is_empty());
    }

    #[test]
    fn a_done_for_a_shard_the_service_lacks_is_dropped() {
        // As many Dones as the service has shards, none of them for one of
        // its shards: the session is not complete, and still serves.
        let config = service();
        let mut table = UdpSessionTable::new();
        let cookie = open_session(&mut table, &config);
        let shards = config.hello.shards;
        for shard in 10..10 + shards {
            let done = DatagramHeader {
                kind: DatagramKind::Done,
                cookie,
                shard,
                seq: 7,
            }
            .encode(&[]);
            let (replies, event) = handle_server_datagram(
                &mut table,
                &config,
                b"peer-a",
                &done,
                Instant::now(),
                |_, _, _| None,
            );
            assert!(replies.is_empty());
            assert_eq!(event, DatagramEvent::Dropped("shard out of range"));
        }
        assert_eq!(table.len(), 1);
        let request = DatagramHeader {
            kind: DatagramKind::Request,
            cookie,
            shard: 0,
            seq: 0,
        }
        .encode(&request_payload(1));
        let (replies, _) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &request,
            Instant::now(),
            |_, _, _| Some(vec![1]),
        );
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn idle_sessions_expire_on_sweep() {
        let config = service();
        let mut table = UdpSessionTable::new();
        open_session(&mut table, &config);
        let later = Instant::now() + Duration::from_secs(60);
        assert_eq!(table.sweep(later, Duration::from_secs(10)), 1);
        assert!(table.is_empty());
    }

    #[test]
    fn mtu_boundary_datagrams_at_and_over_the_budget() {
        let mut config = service();
        config.mtu_budget = 256;
        let mut table = UdpSessionTable::new();
        let cookie = open_session(&mut table, &config);
        // Exactly at the budget: handled.
        let mut at_budget = DatagramHeader {
            kind: DatagramKind::Request,
            cookie,
            shard: 0,
            seq: 0,
        }
        .encode(&request_payload(4));
        // Requests carry a 2-byte payload; padding makes it malformed but
        // the *size* check must pass first, exercising the boundary.
        at_budget.resize(config.mtu_budget, 0);
        let (_, event) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &at_budget,
            Instant::now(),
            |_, _, _| Some(Vec::new()),
        );
        assert_eq!(event, DatagramEvent::Dropped("bad request payload"));
        // One byte over: dropped as oversized, before any parsing.
        let mut over = at_budget.clone();
        over.push(0);
        let (_, event) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &over,
            Instant::now(),
            |_, _, _| Some(Vec::new()),
        );
        assert_eq!(event, DatagramEvent::Dropped("oversized datagram"));
        // Neither touched the session: it still serves.
        let request = DatagramHeader {
            kind: DatagramKind::Request,
            cookie,
            shard: 0,
            seq: 0,
        }
        .encode(&request_payload(1));
        let (replies, _) = handle_server_datagram(
            &mut table,
            &config,
            b"peer-a",
            &request,
            Instant::now(),
            |_, _, _| Some(vec![1, 2, 3]),
        );
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn packed_batches_respect_the_budget() {
        use riblt::wire::SymbolCodec;
        use riblt::{CodedSymbol, FixedBytes};

        for (budget, symbol_len) in [(MIN_MTU_BUDGET, 8), (512, 8), (DEFAULT_MTU_BUDGET, 8)] {
            let count = max_symbols_in_budget(budget, symbol_len);
            assert!(count >= 1);
            // Encode a real worst-effort batch of `count` symbols and check
            // header + payload stays inside the budget.
            let mut cells = vec![CodedSymbol::<FixedBytes<8>>::default(); count];
            for (i, cell) in cells.iter_mut().enumerate() {
                cell.sum = FixedBytes::from_u64(i as u64);
                cell.checksum = 0xFFFF_FFFF_FFFF_FFFF ^ i as u64;
                cell.count = 1 + i as i64;
            }
            let codec = SymbolCodec::new(symbol_len, count as u64);
            let payload = codec.encode_batch(&cells, 0);
            let datagram = DatagramHeader {
                kind: DatagramKind::Symbols,
                cookie: 1,
                shard: 0,
                seq: 0,
            }
            .encode(&payload);
            assert!(
                datagram.len() <= budget,
                "budget {budget}: {} bytes for {count} symbols",
                datagram.len()
            );
        }
    }

    #[test]
    fn sequencer_reorders_dedups_and_advances() {
        let mut seq = BatchSequencer::new();
        assert!(seq.accept(32, vec![2]));
        assert!(seq.pop_ready().is_none(), "offset 0 not yet arrived");
        assert!(seq.accept(0, vec![1]));
        assert!(!seq.accept(0, vec![9]), "duplicate pending batch");
        assert_eq!(seq.pop_ready(), Some(vec![1]));
        seq.advance(32);
        assert_eq!(seq.next_index(), 32);
        assert_eq!(seq.pop_ready(), Some(vec![2]));
        seq.advance(32);
        assert!(!seq.accept(10, vec![3]), "stale batch rejected");
        assert_eq!(seq.pending_len(), 0);
    }

    #[test]
    fn sequencer_bounds_its_buffer() {
        let mut seq = BatchSequencer::new();
        for i in 0..MAX_PENDING_BATCHES as u64 {
            assert!(seq.accept((i + 1) * 10, vec![]));
        }
        assert!(!seq.accept(10_000, vec![]), "buffer full");
        // The head-of-line batch is admitted even at capacity — a full
        // buffer must never wedge the stream on the batch it needs next.
        assert!(seq.accept(0, vec![7]));
        assert_eq!(seq.pop_ready(), Some(vec![7]));
        seq.advance(10);
        assert_eq!(seq.pop_ready(), Some(vec![]));
    }

    #[test]
    fn cookies_bind_peer_and_nonce() {
        let c = session_cookie(key(), b"peer-a", 1);
        assert_eq!(c, session_cookie(key(), b"peer-a", 1));
        assert_ne!(c, session_cookie(key(), b"peer-b", 1));
        assert_ne!(c, session_cookie(key(), b"peer-a", 2));
        assert_ne!(c, session_cookie(SipKey::new(3, 4), b"peer-a", 1));
    }
}

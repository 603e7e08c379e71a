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
//!    the payload kind, the peer's cookie, the shard, and a sequence
//!    number (see [`DatagramHeader`]). Symbols are packed to fit
//!    [`DEFAULT_MTU_BUDGET`] ([`max_symbols_in_budget`]) so datagrams stay
//!    under the path MTU instead of fragmenting.
//! 2. **Address validation without state**: the server's `HelloAck` hands
//!    the client a 64-bit cookie ([`session_cookie`]), a keyed hash of the
//!    peer address under a secret the server drew at start and never
//!    sends, and every later datagram carries it. The server recomputes
//!    the cookie from each datagram's source address, so it remembers no
//!    peer: a duplicated hello draws the same cookie, and a datagram whose
//!    cookie does not match its source address is silently dropped. As in
//!    DTLS's stateless cookie exchange (RFC 6347 §4.2.1), only a peer that
//!    receives at its address can name a range to be sent there.
//! 3. **Idempotent serving**: requests name explicit `[start, start+count)`
//!    symbol ranges, so a duplicated or reordered request re-serves the
//!    same universal prefix instead of corrupting shared state. The server
//!    keeps nothing per peer or per stream ([`DatagramService`] is
//!    immutable); the unit budget is checked against each request's own
//!    range.
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
//!   cookie  : u64 LE   the peer's cookie (0 in Hello/Reject)
//!   shard   : u16 LE   shard the payload concerns (0 when n/a)
//!   seq     : u32 LE   symbol offset (Request/Symbols), units (Done), else 0
//! Hello payload    : 18-byte handshake Hello · 8 bytes, sent 0, ignored
//! HelloAck payload : server's 18-byte handshake Hello (cookie in header)
//! Reject payload   : the TCP handshake's reject frame bytes
//! Request payload  : count u16 LE (seq = first symbol wanted)
//! Symbols payload  : one §6 wire batch (seq = its start offset)
//! Done payload     : empty (seq = coded symbols the client consumed)
//! ```

use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hasher};

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

/// Worst-case bytes of batch framing around the packed symbols: the §6
/// codec's magic/version plus VLQ-encoded symbol length, set size, start
/// index, and batch length.
const BATCH_OVERHEAD_BYTES: usize = 31;

/// Worst-case bytes of one packed symbol beyond its sum: the 8-byte
/// checksum plus a 5-byte zig-zag VLQ count delta (covers |delta| < 2³⁴ —
/// far beyond any set this transport serves).
const PER_SYMBOL_OVERHEAD_BYTES: usize = 13;

/// What a datagram carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DatagramKind {
    /// Client → server: handshake hello, retransmitted until acked.
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
    /// The peer's cookie (0 before the server has handed it out).
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
/// followed by 8 zero bytes, a nonce field servers ignore.
pub fn client_hello_payload(hello: &Hello) -> Vec<u8> {
    let mut out = Vec::with_capacity(HELLO_BYTES + 8);
    out.extend_from_slice(&hello.to_bytes());
    out.extend_from_slice(&[0; 8]);
    out
}

/// Inverse of [`client_hello_payload`]: the hello, whatever the nonce
/// field holds.
pub fn parse_client_hello_payload(payload: &[u8]) -> Result<Hello> {
    if payload.len() != HELLO_BYTES + 8 {
        return Err(EngineError::WireFormat("bad hello payload length"));
    }
    Hello::from_bytes(&payload[..HELLO_BYTES])
}

/// Encodes a request payload (the count; the offset rides in the header).
pub fn request_payload(count: u16) -> [u8; 2] {
    count.to_le_bytes()
}

/// The cookie a server holding `secret` hands the peer at `peer`: SipHash
/// of the address under the secret.
///
/// Only as strong as the secret is private. Under a key every client holds
/// (the shared [`SipKey`] an open deployment publishes), anyone could
/// compute the cookie of any address, and a hello spoofed from a victim's
/// address followed by one small `Request` would reflect a full batch onto
/// the victim. [`DatagramService`] therefore draws its own secret and never
/// sends it; then the cookie proves that its bearer received the `HelloAck`
/// sent to that address. It is address validation in the spirit of DTLS's
/// and QUIC's cookies, not session security: an on-path observer sees it.
pub fn session_cookie(secret: SipKey, peer: &[u8]) -> u64 {
    siphash24(secret, peer)
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

/// The server side of the datagram protocol: the server's hello, its
/// per-stream unit budget and its cookie secret. Immutable, so every
/// worker serves through one shared value, and it keeps nothing per peer.
#[derive(Debug, Clone)]
pub struct DatagramService {
    hello: Hello,
    max_units_per_session: usize,
    secret: SipKey,
}

impl DatagramService {
    /// A service answering hellos with `hello` (authoritative shard count)
    /// and ignoring any request that reaches past `max_units_per_session`
    /// symbols of its shard, as the TCP daemon's bound does. Draws the
    /// cookie secret once, from [`RandomState`]'s per-process keys.
    pub fn new(hello: Hello, max_units_per_session: usize) -> Self {
        let keys = RandomState::new();
        let draw = |word: u64| {
            let mut hasher = keys.build_hasher();
            hasher.write_u64(word);
            hasher.finish()
        };
        DatagramService {
            hello,
            max_units_per_session,
            secret: SipKey::new(draw(0), draw(1)),
        }
    }

    /// The cookie this service hands, and accepts only from, `peer`.
    pub fn cookie(&self, peer: &[u8]) -> u64 {
        session_cookie(self.secret, peer)
    }
}

/// What [`handle_server_datagram`] observed, for metrics and logging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatagramEvent {
    /// A hello was accepted and acknowledged with the peer's cookie.
    HelloAccepted {
        /// The cookie the acknowledgement carries.
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
    /// The client reported a shard complete.
    Done {
        /// Completed shard.
        shard: ShardId,
        /// Coded symbols the client reported consuming.
        units: u64,
    },
    /// The datagram was ignored; the reason is a static description.
    Dropped(&'static str),
}

/// Dispatches one inbound datagram under `service`.
///
/// `peer` is the opaque source address (whatever bytes the transport uses
/// to identify the sender — a `SocketAddr` rendering, a simulator endpoint
/// id); the cookie of every `Request` and `Done` must be the one
/// [`DatagramService::cookie`] computes for it. `serve` produces one
/// encoded wire batch of `count` symbols of `shard` starting at `start`,
/// or `None` if it cannot; it is only asked for a shard the service's
/// hello counts.
///
/// Returns the reply datagrams to transmit (possibly none) and the event
/// that occurred. The handler never panics and keeps no state, so no
/// malformed, duplicated, reordered, truncated or abandoned input can
/// wedge it or grow it — bad datagrams are dropped, and requests are
/// idempotent because they name explicit offsets.
pub fn handle_server_datagram<F>(
    service: &DatagramService,
    peer: &[u8],
    datagram: &[u8],
    serve: F,
) -> (Vec<Vec<u8>>, DatagramEvent)
where
    F: FnOnce(ShardId, u64, usize) -> Option<Vec<u8>>,
{
    if datagram.len() > DEFAULT_MTU_BUDGET {
        return (Vec::new(), DatagramEvent::Dropped("oversized datagram"));
    }
    let (header, payload) = match DatagramHeader::decode(datagram) {
        Ok(split) => split,
        Err(_) => return (Vec::new(), DatagramEvent::Dropped("malformed header")),
    };
    let shards = service.hello.shards;
    match header.kind {
        DatagramKind::Hello => handle_hello(service, peer, payload),
        DatagramKind::Request | DatagramKind::Done if header.cookie != service.cookie(peer) => {
            (Vec::new(), DatagramEvent::Dropped("bad cookie"))
        }
        // A shard the service does not have is no stream to serve or end.
        DatagramKind::Request | DatagramKind::Done if header.shard >= shards => {
            (Vec::new(), DatagramEvent::Dropped("shard out of range"))
        }
        DatagramKind::Request => {
            if payload.len() != 2 {
                return (Vec::new(), DatagramEvent::Dropped("bad request payload"));
            }
            let requested = usize::from(u16::from_le_bytes([payload[0], payload[1]]));
            let budget_cap =
                max_symbols_in_budget(DEFAULT_MTU_BUDGET, usize::from(service.hello.symbol_len));
            let count = requested.min(budget_cap).max(1);
            let start = u64::from(header.seq);
            if start as usize + count > service.max_units_per_session {
                return (Vec::new(), DatagramEvent::Dropped("unit budget exceeded"));
            }
            let Some(batch) = serve(header.shard, start, count) else {
                return (Vec::new(), DatagramEvent::Dropped("unservable request"));
            };
            let reply = DatagramHeader {
                kind: DatagramKind::Symbols,
                ..header
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
        DatagramKind::Done => (
            Vec::new(),
            DatagramEvent::Done {
                shard: header.shard,
                units: u64::from(header.seq),
            },
        ),
        // Server-to-client kinds arriving at the server are peer confusion.
        DatagramKind::HelloAck | DatagramKind::Reject | DatagramKind::Symbols => {
            (Vec::new(), DatagramEvent::Dropped("unexpected kind"))
        }
    }
}

fn handle_hello(
    service: &DatagramService,
    peer: &[u8],
    payload: &[u8],
) -> (Vec<Vec<u8>>, DatagramEvent) {
    let checked = parse_client_hello_payload(payload)
        .map_err(|_| crate::handshake::RejectReason::Malformed)
        .and_then(|client| validate_client_hello(&client, &service.hello));
    if let Err(reason) = checked {
        let reply = DatagramHeader {
            kind: DatagramKind::Reject,
            cookie: 0,
            shard: 0,
            seq: 0,
        }
        .encode(&reject_frame_bytes(reason));
        return (vec![reply], DatagramEvent::HelloRejected);
    }
    let cookie = service.cookie(peer);
    let ack = DatagramHeader {
        kind: DatagramKind::HelloAck,
        cookie,
        shard: 0,
        seq: 0,
    }
    .encode(&service.hello.to_bytes());
    (vec![ack], DatagramEvent::HelloAccepted { cookie })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SipKey {
        SipKey::new(7, 9)
    }

    fn service() -> DatagramService {
        DatagramService::new(Hello::new(key(), 4, 8), 1 << 20)
    }

    fn hello_datagram() -> Vec<u8> {
        let client = Hello::new(key(), crate::handshake::SHARDS_ANY, 8);
        DatagramHeader {
            kind: DatagramKind::Hello,
            cookie: 0,
            shard: 0,
            seq: 0,
        }
        .encode(&client_hello_payload(&client))
    }

    fn datagram(kind: DatagramKind, cookie: u64, shard: ShardId, seq: u32) -> Vec<u8> {
        let payload = match kind {
            DatagramKind::Request => request_payload(16).to_vec(),
            _ => Vec::new(),
        };
        DatagramHeader {
            kind,
            cookie,
            shard,
            seq,
        }
        .encode(&payload)
    }

    /// What `service` answers `peer`'s datagram with, serving every request
    /// with a 40-byte batch.
    fn handle(
        service: &DatagramService,
        peer: &[u8],
        datagram: &[u8],
    ) -> (Vec<Vec<u8>>, DatagramEvent) {
        handle_server_datagram(service, peer, datagram, |_, _, _| Some(vec![0xAB; 40]))
    }

    fn open_session(service: &DatagramService, peer: &[u8]) -> u64 {
        let (replies, event) = handle(service, peer, &hello_datagram());
        assert_eq!(replies.len(), 1);
        match event {
            DatagramEvent::HelloAccepted { cookie } => cookie,
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
        let service = service();
        let (first, event) = handle(&service, b"peer-a", &hello_datagram());
        let cookie = service.cookie(b"peer-a");
        assert_eq!(event, DatagramEvent::HelloAccepted { cookie });
        // A duplicate, and a hello whose nonce field is not 0, draw the
        // same acknowledgement: the cookie is the address's, and nothing
        // of the first hello was kept.
        let (again, _) = handle(&service, b"peer-a", &hello_datagram());
        let mut nonce = hello_datagram();
        nonce[DATAGRAM_HEADER_BYTES + HELLO_BYTES] = 42;
        let (with_nonce, _) = handle(&service, b"peer-a", &nonce);
        assert_eq!(first, again);
        assert_eq!(first, with_nonce);
        let (header, payload) = DatagramHeader::decode(&first[0]).unwrap();
        assert_eq!(
            (header.kind, header.cookie),
            (DatagramKind::HelloAck, cookie)
        );
        assert_eq!(payload, service.hello.to_bytes());
    }

    #[test]
    fn mismatched_hello_is_rejected() {
        let service = service();
        let wrong_key = Hello::new(SipKey::new(1, 2), 0, 8);
        let datagram = DatagramHeader {
            kind: DatagramKind::Hello,
            cookie: 0,
            shard: 0,
            seq: 0,
        }
        .encode(&client_hello_payload(&wrong_key));
        let (replies, event) = handle(&service, b"peer-a", &datagram);
        assert_eq!(event, DatagramEvent::HelloRejected);
        let (header, payload) = DatagramHeader::decode(&replies[0]).unwrap();
        assert_eq!(header.kind, DatagramKind::Reject);
        assert_eq!(&payload[..4], b"RNCK");
    }

    #[test]
    fn requests_are_served_and_bound_to_the_peer() {
        let service = service();
        let cookie = open_session(&service, b"peer-a");
        let request = datagram(DatagramKind::Request, cookie, 2, 64);
        let (replies, event) =
            handle_server_datagram(&service, b"peer-a", &request, |shard, start, count| {
                assert_eq!((shard, start, count), (2, 64, 16));
                Some(vec![0xAB; 40])
            });
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
        let (replies, event) = handle(&service, b"peer-b", &request);
        assert!(replies.is_empty());
        assert_eq!(event, DatagramEvent::Dropped("bad cookie"));
    }

    #[test]
    fn a_cookie_forged_under_the_shared_key_draws_no_reply() {
        // The shared key is every client's, so an attacker can compute a
        // cookie under it for any address: a hello spoofed from the
        // victim, then a request carrying that cookie, would reflect a
        // batch onto the victim.
        let service = service();
        let (acks, _) = handle(&service, b"victim", &hello_datagram());
        assert_eq!(acks.len(), 1, "the ack goes to the victim, unseen");
        let nonce = 42u64;
        let forged = [
            // The derivation the shared key gave: context, address, nonce.
            siphash24(
                key(),
                &[
                    &b"reconciled/udp-session-cookie/v1"[..],
                    b"victim",
                    &nonce.to_le_bytes(),
                ]
                .concat(),
            ),
            session_cookie(key(), b"victim"),
        ];
        for cookie in forged {
            let request = datagram(DatagramKind::Request, cookie, 0, 0);
            let (replies, event) = handle(&service, b"victim", &request);
            assert!(replies.is_empty(), "reflected {} bytes", replies[0].len());
            assert_eq!(event, DatagramEvent::Dropped("bad cookie"));
        }
    }

    #[test]
    fn a_cookie_is_refused_from_another_peer_and_by_another_service() {
        let (service, other) = (service(), service());
        let cookie = open_session(&service, b"peer-a");
        // Recomputed, not remembered: the same address, the same cookie.
        assert_eq!(cookie, service.cookie(b"peer-a"));
        assert_ne!(cookie, service.cookie(b"peer-b"));
        assert_ne!(cookie, other.cookie(b"peer-a"), "secrets are drawn");
        for kind in [DatagramKind::Request, DatagramKind::Done] {
            let sent = datagram(kind, cookie, 1, 0);
            assert!(matches!(
                handle(&service, b"peer-a", &sent).1,
                DatagramEvent::Served { .. } | DatagramEvent::Done { .. }
            ));
            for (server, peer) in [(&service, &b"peer-b"[..]), (&other, b"peer-a")] {
                let (replies, event) = handle(server, peer, &sent);
                assert!(replies.is_empty());
                assert_eq!(event, DatagramEvent::Dropped("bad cookie"), "{kind:?}");
            }
        }
    }

    #[test]
    fn unit_budget_and_shard_range_are_enforced() {
        let service = DatagramService::new(Hello::new(key(), 4, 8), 100);
        let cookie = open_session(&service, b"peer-a");
        let over_budget = datagram(DatagramKind::Request, cookie, 0, 99);
        let (_, event) = handle(&service, b"peer-a", &over_budget);
        assert_eq!(event, DatagramEvent::Dropped("unit budget exceeded"));
        let bad_shard = datagram(DatagramKind::Request, cookie, 9, 0);
        let (_, event) = handle(&service, b"peer-a", &bad_shard);
        assert_eq!(event, DatagramEvent::Dropped("shard out of range"));
    }

    #[test]
    fn every_done_is_reported_with_its_shard_and_units() {
        let service = service();
        let cookie = open_session(&service, b"peer-a");
        for shard in 0..service.hello.shards {
            let done = datagram(DatagramKind::Done, cookie, shard, 10 + u32::from(shard));
            // A duplicated Done is reported again, as the TCP path's is
            // harmless: the server keeps no count of them.
            for _ in 0..2 {
                let (replies, event) = handle(&service, b"peer-a", &done);
                assert!(replies.is_empty());
                let units = u64::from(10 + u32::from(shard));
                assert_eq!(event, DatagramEvent::Done { shard, units });
            }
        }
        // Nothing was retired: the cookie still serves.
        let request = datagram(DatagramKind::Request, cookie, 0, 0);
        assert_eq!(handle(&service, b"peer-a", &request).0.len(), 1);
    }

    #[test]
    fn a_done_for_a_shard_the_service_lacks_is_dropped() {
        let service = service();
        let cookie = open_session(&service, b"peer-a");
        let shards = service.hello.shards;
        for shard in shards..2 * shards {
            let done = datagram(DatagramKind::Done, cookie, shard, 7);
            let (replies, event) = handle(&service, b"peer-a", &done);
            assert!(replies.is_empty());
            assert_eq!(event, DatagramEvent::Dropped("shard out of range"));
        }
    }

    #[test]
    fn mtu_boundary_datagrams_at_and_over_the_budget() {
        let service = service();
        let cookie = open_session(&service, b"peer-a");
        // Exactly at the budget: handled.
        let mut at_budget = datagram(DatagramKind::Request, cookie, 0, 0);
        // Requests carry a 2-byte payload; padding makes it malformed but
        // the *size* check must pass first, exercising the boundary.
        at_budget.resize(DEFAULT_MTU_BUDGET, 0);
        let (_, event) = handle(&service, b"peer-a", &at_budget);
        assert_eq!(event, DatagramEvent::Dropped("bad request payload"));
        // One byte over: dropped as oversized, before any parsing.
        let mut over = at_budget.clone();
        over.push(0);
        let (_, event) = handle(&service, b"peer-a", &over);
        assert_eq!(event, DatagramEvent::Dropped("oversized datagram"));
    }

    #[test]
    fn packed_batches_respect_the_budget() {
        use riblt::wire::SymbolCodec;
        use riblt::{CodedSymbol, FixedBytes};

        for (budget, symbol_len) in [(128, 8), (512, 8), (DEFAULT_MTU_BUDGET, 8)] {
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
}

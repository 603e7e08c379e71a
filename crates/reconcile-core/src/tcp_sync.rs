//! Sharded synchronization over a *real* byte stream: the client half of
//! the `reconciled` wire protocol.
//!
//! This module drives S multiplexed sessions over anything that implements
//! `Read + Write` — a localhost `TcpStream` against the `reconciled` daemon,
//! the simulator's link (`statesync::sync_sharded_riblt`), a cluster pair
//! exchange (`netsim::reconcile_pair`), a pipe in a test, a tunnel.
//! `cluster::SyncClient` is the shell applications hold. The flow:
//!
//! 1. One flight, one write: the hello
//!    ([`crate::handshake::client_handshake_pipelined`] — magic,
//!    protocol version, SipKey fingerprint, shard-count negotiation) with
//!    one wildcard `Open` [`MuxFrame`] ([`SHARD_ALL`]) behind it, which
//!    opens every shard the server has before this side knows how many
//!    that is, and carries a [`CountSketch`] of the local set. The server
//!    estimates the difference from it ([`crate::first_flight`])
//!    and answers with its hello, a grant saying how much of every shard's
//!    stream it is sending, and that much of every shard — the window's
//!    first rung and a `2·√d̂` margin, sized to finish the slowest shard
//!    rather than the median one — so the first round trip carries what
//!    one or two request rounds would otherwise have asked for. The
//!    server's shard count is authoritative; this client groups the local
//!    set's hashes by whatever shard count the server announces, while the
//!    first flight is already in the socket, and builds no decoder yet.
//!    Every payload must continue its shard's stream where the last one
//!    ended: a tile repeated or skipped fails the sync as a protocol error
//!    instead of being peeled as the wrong cells.
//! 2. Rounds of range requests. After every round [`ClientMux`] sizes the
//!    next one from what the decoders now hold (see
//!    [`crate::window`]; the first flight counts as a request past
//!    the first rung): `Done` for shards that decoded,
//!    `Request(offset, count)` for the rest. A round's frames leave in one
//!    write and cost one round trip, however many batches they ask for; its
//!    payloads are absorbed in arrival order, independent shards in
//!    parallel on a `std::thread` worker pool. A shard's decoder is built
//!    on the thread that absorbs its first tile, and consumed into the
//!    shard's difference as soon as it decodes, which frees its window:
//!    absorbing on one thread, a sync whose shards decode their first
//!    flights holds one decoder at a time, not one per shard. The hashes
//!    and the grouping go with the round that builds the last shard. A
//!    difference that fits the first flight needs no round at all: the sync
//!    ends one round trip after it began.
//! 3. When every shard is done the recovered per-shard
//!    [`SetDifference`]s are returned together with a byte/round/unit
//!    accounting of the conversation.
//!
//! Rateless streaming is what makes this practical over real, slow or lossy
//! links: the server never commits to a code rate, it serves whatever range
//! of its shared caches each shard's client asks for until the client says
//! stop — and a client that asked for a little too much just ignores the
//! tail.

use std::io::{Read, Write};
use std::time::Instant;

use crate::framing::LENGTH_PREFIX_BYTES;
use crate::handshake::{client_handshake_pipelined, Hello, SHARDS_ANY};
use crate::{
    append_frame, ClientEngine, ClientMux, CountSketch, EngineError, EngineMessage, FrameBuffer,
    MuxFrame, ReconcileBackend, SessionId, SetDifference, ShardId, ShardPartitioner, SHARD_ALL,
};
use riblt::Symbol;
use riblt_hash::SipKey;

/// [`crate::MuxMetrics`] registered in the process-wide
/// [`obs::global`] registry under `statesync_mux_*` names: every TCP sync
/// in the process records its absorbed payloads (count, bytes, decode
/// progress per round-trip) there.
fn mux_metrics() -> crate::MuxMetrics {
    let g = obs::global();
    crate::MuxMetrics {
        payloads: g.counter(
            "statesync_mux_payloads_total",
            "Payload frames absorbed by TCP sync clients.",
        ),
        payload_units: g.histogram(
            "statesync_mux_payload_units",
            "Scheme units consumed per absorbed payload frame.",
        ),
        payload_bytes: g.histogram(
            "statesync_mux_payload_bytes",
            "Payload frame sizes absorbed by TCP sync clients, in bytes.",
        ),
    }
}

/// The session every frame of a sync is tagged with: a connection carries
/// one conversation, so no server tells sessions apart.
const SESSION: SessionId = 1;

/// Configuration of a TCP (or any real-stream) sharded synchronization.
#[derive(Debug, Clone, Copy)]
pub struct TcpSyncConfig {
    /// Shared keyed-hash key — must fingerprint-match the server's.
    pub key: SipKey,
    /// Item length in bytes — must match the server's.
    pub symbol_len: usize,
    /// Decode worker threads (0 = one per available core).
    pub threads: usize,
    /// Safety budget: never ask past this many scheme units per shard. The
    /// first flight is the server's to size, under its own per-stream
    /// budget: one past this is read whole, and nothing more is asked.
    pub max_units_per_shard: usize,
}

impl Default for TcpSyncConfig {
    fn default() -> Self {
        TcpSyncConfig {
            key: SipKey::default(),
            symbol_len: 8,
            threads: 0,
            max_units_per_shard: 1 << 20,
        }
    }
}

/// Measured outcome of one real-stream synchronization.
#[derive(Debug, Clone, Copy)]
pub struct TcpSyncOutcome {
    /// Shard count negotiated with the server.
    pub shards: u16,
    /// Request rounds after the handshake exchange until every shard
    /// completed: round trips beyond the first, which carries the hellos
    /// and every shard's first flight. 0 when those flights decoded.
    pub rounds: usize,
    /// Scheme units (coded symbols) consumed across all shards.
    pub units: usize,
    /// Bytes written to the stream (frames + length prefixes).
    pub bytes_sent: usize,
    /// Bytes read from the stream (frames + length prefixes).
    pub bytes_received: usize,
    /// Wall seconds spent absorbing payloads (the parallel decode phases),
    /// building each shard's decoder over its local items included: that
    /// happens when the shard's first payload is absorbed.
    pub decode_wall_s: f64,
}

/// Synchronizes the local set against a remote server over `io`, one engine
/// session per negotiated shard, and returns the recovered per-shard
/// differences (index = shard id).
///
/// `factory` builds the backend for each shard *after* the handshake, so it
/// sees the negotiated shard count implicitly through the ids it is called
/// with; it must configure every backend with `config.key`,
/// `config.symbol_len`, **and α = [`riblt::DEFAULT_ALPHA`]** — the protocol
/// pins the mapping parameter, and the handshake checks the first two but
/// cannot see the backend's α (a non-default α decodes nothing and burns
/// the unit budget before erroring `DecodeIncomplete`). `cluster::SyncClient`
/// builds its backends so, and cannot be configured otherwise.
///
/// One open request serves every shard and leaves before the local set is
/// partitioned: it is the `open_request` of `factory(0)`'s client over the
/// *empty* set with the local set's [`CountSketch`] appended, so **the
/// backend's open request must not depend on the local set or the shard**.
/// That holds for the rateless streaming backends (a magic and the item
/// length), which is all the `reconciled` daemon accepts; a backend whose
/// open carries an estimator of its set belongs on [`ClientMux::opens`].
///
/// `local_items` is hashed once, before the hello, for the sketch, and only
/// read again while the shard clients are built, each when its shard's
/// first payload arrives ([`ShardPartitioner::group`] places the items by
/// the same hashes that become their checksums, and
/// [`ClientEngine::new_keyed`] clones each item once, into its shard's
/// decoder). No partition of the set is ever built, so no second copy of it
/// exists; a decoder lives from its shard's first payload until the shard
/// decodes, and the hashes and the grouping until the round that builds
/// the last shard ends.
///
/// The caller owns the stream: timeouts (`TcpStream::set_read_timeout`) and
/// connection teardown stay in its hands. A server that stops answering
/// surfaces as [`EngineError::Io`] once the stream's timeout fires — this
/// driver never blocks without the transport's own bounds.
pub fn sync_sharded_tcp<B, F, T>(
    io: &mut T,
    local_items: &[B::Item],
    factory: F,
    config: &TcpSyncConfig,
) -> crate::Result<(Vec<SetDifference<B::Item>>, TcpSyncOutcome)>
where
    B: ReconcileBackend + Send,
    B::Client: Send,
    B::Item: Symbol + Send + Sync,
    F: Fn(ShardId) -> B + Sync,
    T: Read + Write,
{
    // --- 1. Hello and one wildcard open, in one write. The server's shard
    // count is authoritative, and not known until its hello is read. ---
    if config.symbol_len == 0 || config.symbol_len > usize::from(u16::MAX) {
        return Err(EngineError::Handshake(format!(
            "symbol_len {} is outside the wire format's u16 range",
            config.symbol_len
        )));
    }
    let local_hello = Hello::new(config.key, SHARDS_ANY, config.symbol_len);
    let hashes = B::Item::hash_many_with(local_items, config.key);
    let open = match ClientEngine::new(factory(0), &[]).open() {
        EngineMessage::Open(mut request) => {
            CountSketch::from_hashes(&hashes).encode(&mut request);
            EngineMessage::Open(request)
        }
        other => other,
    };
    let mut wildcard = Vec::new();
    append_frame(
        &mut wildcard,
        &MuxFrame::new(SESSION, SHARD_ALL, open).to_bytes(),
    )?;
    let server_hello = client_handshake_pipelined(io, &local_hello, &wildcard)?;
    let shards = server_hello.shards;
    let hello_wire = LENGTH_PREFIX_BYTES + crate::handshake::HELLO_BYTES;
    let mut bytes_sent = hello_wire + wildcard.len();
    let mut bytes_received = hello_wire;
    let mut inbound = FrameBuffer::new();
    let mut chunk = [0u8; READ_CHUNK_BYTES];
    // The grant leads the payloads: how much of every shard is on its way.
    let grant = read_round(io, &mut inbound, &mut chunk, 1)?;
    bytes_received += LENGTH_PREFIX_BYTES + grant[0].wire_size();

    // --- 2. Place the items with the negotiated count; the wildcard has
    // opened every shard, so each is owed its first flight already. A
    // shard's endpoint is built when its first payload arrives. ---
    let grouping = ShardPartitioner::new(config.key, shards).group(&hashes);
    let mut placement = Some((hashes, grouping));
    let mut client = ClientMux::new(SESSION);
    client.set_metrics(mux_metrics());
    client.set_unit_budget(config.max_units_per_shard);
    for shard in 0..shards {
        client.insert_pending(shard);
    }
    client.book_first_flight(&grant[0])?;

    let mut rounds = 0usize;
    let mut decode_wall_s = 0.0f64;

    // --- 3. The first flight, then rounds of range requests until every
    // shard is done. ---
    loop {
        // The server answers every open with its first flight and every
        // range with one payload per batch, in request order. All of them are
        // read — the tail a shard no longer needs too, so the stream stays
        // in frame and the bytes are counted.
        let payloads = read_round(io, &mut inbound, &mut chunk, client.awaiting())?;
        bytes_received += payloads
            .iter()
            .map(|frame| LENGTH_PREFIX_BYTES + frame.wire_size())
            .sum::<usize>();
        let t0 = Instant::now();
        let replies = client.handle_round_with(&payloads, config.threads, |shard| {
            let (hashes, grouping) = placement
                .as_ref()
                .expect("the placement outlives the last pending shard");
            let members = grouping.members(shard);
            ClientEngine::new_keyed(factory(shard), local_items, hashes, members)
        })?;
        decode_wall_s += t0.elapsed().as_secs_f64();
        if client.pending() == 0 {
            // Every shard is built: nothing of the set-up is read again.
            placement = None;
        }
        bytes_sent += write_round(io, &replies)?;
        if client.awaiting() == 0 {
            break;
        }
        rounds += 1;
    }

    let units = client.units();
    let differences = client.into_differences()?;
    let outcome = TcpSyncOutcome {
        shards,
        rounds,
        units,
        bytes_sent,
        bytes_received,
        decode_wall_s,
    };
    Ok((differences, outcome))
}

/// How much of the socket one `read` may take: on the stack, so a sync
/// neither allocates nor faults it in. A `stale_tip` first flight (eight
/// tiles of ≈ 1.3 KB) fits one read; a 60 KB round of `bulk_catchup` takes
/// four where frame-by-frame reading took ninety.
const READ_CHUNK_BYTES: usize = 16 * 1024;

/// Reads one round's `count` frames through `inbound`: one `read` for
/// whatever has arrived instead of two per frame (a length, then a body).
/// Bytes a read takes beyond this round's frames stay in `inbound` for the
/// next call. `count` is the server's to set (its shard count and its
/// grant), so nothing is sized from it: the frames grow with what arrives.
fn read_round<R: Read>(
    io: &mut R,
    inbound: &mut FrameBuffer,
    chunk: &mut [u8],
    count: usize,
) -> crate::Result<Vec<MuxFrame>> {
    let mut frames = Vec::new();
    while frames.len() < count {
        if let Some(bytes) = inbound.next_frame()? {
            frames.push(MuxFrame::from_bytes(&bytes)?);
            continue;
        }
        match io.read(chunk) {
            Ok(0) => {
                return Err(EngineError::from(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended before a frame",
                )))
            }
            Ok(n) => inbound.push_bytes(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(frames)
}

/// Writes one round's frames, each length-prefixed, with a single
/// `write_all`: one syscall and one burst of segments per round trip
/// instead of one per frame. Returns the bytes written.
fn write_round<W: Write>(io: &mut W, frames: &[MuxFrame]) -> crate::Result<usize> {
    let mut wire = Vec::new();
    for frame in frames {
        append_frame(&mut wire, &frame.to_bytes())?;
    }
    io.write_all(&wire)?;
    io.flush()?;
    Ok(wire.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight as netsim;
    use reconcile_core::backends::RibltBackend;
    use reconcile_core::{read_mux_frame, run_in_memory, RangeRequest};
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

    fn items(range: std::ops::Range<u64>) -> Vec<Item> {
        range.map(Item::from_u64).collect()
    }

    const FLIGHT_SHARDS: u16 = 8;
    const FLIGHT_TILE: usize = 32;

    fn flight_backend() -> RibltBackend<Item> {
        RibltBackend::new(8, FLIGHT_TILE)
    }

    /// The library's server over `server_items`, behind a link that counts
    /// flights: `shards` shards of `backend`'s tiles, under its key, and
    /// the daemon's default unit budget.
    fn library(
        backend: RibltBackend<Item>,
        server_items: &[Item],
        shards: u16,
    ) -> netsim::FlightLink {
        let hello = Hello::new(backend.key, shards, 8);
        netsim::library_server(backend, server_items, hello, 1 << 20)
    }

    fn link_to(server_items: &[Item]) -> netsim::FlightLink {
        library(flight_backend(), server_items, FLIGHT_SHARDS)
    }

    /// The mux frames behind the hello in a client's transcript.
    fn frames_after_hello(mut sent: &[u8]) -> Vec<MuxFrame> {
        reconcile_core::read_frame(&mut sent).unwrap();
        std::iter::from_fn(|| read_mux_frame(&mut sent).ok()).collect()
    }

    /// The range requests of a client's transcript, by shard.
    fn requests(sent: &[u8], shards: u16) -> Vec<Vec<RangeRequest>> {
        let mut by_shard = vec![Vec::new(); usize::from(shards)];
        for frame in frames_after_hello(sent) {
            if let EngineMessage::Request(range) = frame.message {
                by_shard[usize::from(frame.shard)].push(range);
            }
        }
        by_shard
    }

    #[test]
    fn a_round_is_read_whole_however_the_stream_fragments_it() {
        /// Hands out at most `step` bytes per `read`.
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.1.min(buf.len()).min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let frames = [
            MuxFrame::new(1, 0, EngineMessage::Payload(vec![7; 300])),
            MuxFrame::new(1, 1, EngineMessage::Payload(Vec::new())),
            MuxFrame::new(1, 2, EngineMessage::Payload(vec![9; 5_000])),
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            append_frame(&mut wire, &frame.to_bytes()).unwrap();
        }
        for step in [1, 3, 4, 311, 4_096, usize::MAX] {
            let mut io = Trickle(&wire, step);
            let (mut inbound, mut chunk) = (FrameBuffer::new(), vec![0u8; 512]);
            // A read may run into the next round's frames: they wait in
            // `inbound` for the call that wants them.
            let first = read_round(&mut io, &mut inbound, &mut chunk, 2).unwrap();
            let second = read_round(&mut io, &mut inbound, &mut chunk, 1).unwrap();
            assert_eq!([first, second].concat(), frames, "{step} bytes a read");
            // The stream ends where a frame was owed, or inside one.
            for cut in [0, 2, 10] {
                let mut io = Trickle(&wire[..cut], step);
                let refused = read_round(&mut io, &mut FrameBuffer::new(), &mut chunk, 1);
                assert!(matches!(
                    refused,
                    Err(EngineError::Io(std::io::ErrorKind::UnexpectedEof, _))
                ));
            }
        }
    }

    #[test]
    fn a_hostile_grant_costs_the_client_only_what_it_was_sent() {
        // A valid hello announcing 65,535 shards, then a grant of 16,384
        // one-symbol tiles a shard: a billion payloads owed, in two short
        // frames, and then the server hangs up.
        let mut reply = Vec::new();
        let hello = Hello::new(SipKey::default(), u16::MAX, 8);
        append_frame(&mut reply, &hello.to_bytes()).unwrap();
        let grant = RangeRequest {
            offset: 1,
            count: 16_384,
        };
        let grant = MuxFrame::new(SESSION, SHARD_ALL, EngineMessage::Request(grant));
        append_frame(&mut reply, &grant.to_bytes()).unwrap();
        let mut link = netsim::FlightLink::new(move |_flight, out| {
            out.extend_from_slice(&reply);
            Err(EngineError::Protocol("a canned reply"))
        });
        let err = sync_sharded_tcp(
            &mut link,
            &items(0..100),
            |_| flight_backend(),
            &TcpSyncConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::Io(std::io::ErrorKind::UnexpectedEof, _)),
            "{err}"
        );
    }

    #[test]
    fn a_repeated_tile_fails_the_sync_at_once() {
        // A valid hello (one shard) and a grant of one tile beyond the open's,
        // then the shard's first tile twice where tiles 0 and 1 were owed.
        // Peeled as tile 1, its cells would burn the unit budget on garbage.
        let backend = flight_backend();
        let server_items = items(0..3_000);
        let tile = backend
            .serve(&mut backend.build_server(&server_items), None)
            .unwrap();
        let mut reply = Vec::new();
        append_frame(&mut reply, &Hello::new(backend.key, 1, 8).to_bytes()).unwrap();
        let grant = RangeRequest::new(FLIGHT_TILE, FLIGHT_TILE).unwrap();
        for message in [
            EngineMessage::Request(grant),
            EngineMessage::Payload(tile.clone()),
            EngineMessage::Payload(tile),
        ] {
            let shard = if let EngineMessage::Request(_) = message {
                SHARD_ALL
            } else {
                0
            };
            append_frame(
                &mut reply,
                &MuxFrame::new(SESSION, shard, message).to_bytes(),
            )
            .unwrap();
        }
        let mut link = netsim::FlightLink::new(move |_flight, out| {
            out.extend_from_slice(&reply);
            Err(EngineError::Protocol("a canned reply"))
        });
        let err = sync_sharded_tcp(
            &mut link,
            &items(100..3_000),
            |_| flight_backend(),
            &TcpSyncConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, EngineError::Protocol("payload out of sequence"));
        // The typed error, in the handshake's flight: no request went out.
        assert_eq!(link.flights, 1);
        assert_eq!(frames_after_hello(&link.sent).len(), 1);
    }

    #[test]
    fn a_difference_within_the_first_tiles_takes_one_flight() {
        // 20 differences over 8 shards: the sketch's d̂ ≈ 20 puts 2.5 on a
        // shard, whose first flight (1.35 × 2.5 + 2·√2.5 = 6.5 symbols) is
        // one tile — the grant is [32, 32) — and every shard's first 32
        // symbols decode.
        let mut link = link_to(&items(0..3_000));
        let (diffs, outcome) = sync_sharded_tcp(
            &mut link,
            &items(12..3_008),
            |_| flight_backend(),
            &TcpSyncConfig::default(),
        )
        .unwrap();
        assert_eq!(diffs.iter().map(SetDifference::len).sum::<usize>(), 20);
        assert_eq!(link.flights, 1, "first data rides the handshake's flight");
        assert_eq!(outcome.rounds, 0);
        assert!(outcome.units <= usize::from(FLIGHT_SHARDS) * FLIGHT_TILE);
        assert_eq!(outcome.bytes_sent, link.sent.len());
        // One wildcard open, then a Done per shard; nothing else.
        let frames = frames_after_hello(&link.sent);
        assert_eq!(frames.len(), 1 + usize::from(FLIGHT_SHARDS));
        assert_eq!(frames[0].shard, SHARD_ALL);
        assert!(frames[1..].iter().all(|f| f.message == EngineMessage::Done));
    }

    #[test]
    fn the_sketched_wildcard_saves_three_flights_and_changes_nothing_else() {
        let server_items = items(0..20_000);
        let local = items(1_000..21_000); // d = 2,000, half on each side

        // The point-to-point reference: each shard's stream, pushed one tile
        // at a time to a client that never asks.
        let partitioner = ShardPartitioner::new(SipKey::default(), FLIGHT_SHARDS);
        let (expected, expected_units): (Vec<_>, Vec<_>) = partitioner
            .partition(&server_items)
            .iter()
            .zip(&partitioner.partition(&local))
            .map(|(server, client)| {
                let run = run_in_memory(flight_backend(), server, client, usize::MAX).unwrap();
                (run.difference, run.units)
            })
            .unzip();

        let mut link = link_to(&server_items);
        let config = TcpSyncConfig {
            threads: 1,
            ..Default::default()
        };
        let (diffs, outcome) =
            sync_sharded_tcp(&mut link, &local, |_| flight_backend(), &config).unwrap();

        // Every decoder consumed the same prefix, tile for tile.
        assert_eq!(diffs, expected, "same differences, item for item");
        assert_eq!(diffs.iter().map(SetDifference::len).sum::<usize>(), 2_000);
        assert_eq!(outcome.units, expected_units.iter().sum::<usize>());

        // The sketch's estimate, 2,074.1 (2,000 ± 9 %), is 259.3 a shard,
        // whose first rung and margin, 1.35 × 259.3 + 2·√259.3 = 350.0 +
        // 32.2 = 382.2, are 12 tiles: the server grants [32, 384) and sends
        // every shard 384 symbols in the handshake's flight.
        let sketch =
            |set: &[Item]| CountSketch::from_hashes(&Item::hash_many_with(set, SipKey::default()));
        let estimate = sketch(&local).estimate_difference(&sketch(&server_items));
        assert_eq!(format!("{estimate:.1}"), "2074.1");
        let mut said = &link.received[..];
        reconcile_core::read_frame(&mut said).unwrap();
        let grant = read_mux_frame(&mut said).unwrap().message;
        assert_eq!(
            grant,
            EngineMessage::Request(RangeRequest::new(32, 352).unwrap())
        );
        assert_eq!(
            symbols_sent(&link.received, FLIGHT_SHARDS, FLIGHT_TILE),
            vec![384; usize::from(FLIGHT_SHARDS)]
        );
        // Every shard decodes within it (at 332–381 symbols): no request at
        // all, one flight where opening shard by shard (a flight for the
        // hellos, one for the opens, two rounds) took 4.
        assert!(requests(&link.sent, FLIGHT_SHARDS)
            .iter()
            .all(Vec::is_empty));
        assert_eq!((link.flights, outcome.rounds), (1, 0));
    }

    #[test]
    fn adopts_the_server_shard_count_whatever_it_proposes() {
        let key = SipKey::new(5, 6);
        let backend = RibltBackend::<Item>::with_key_and_alpha(8, 16, key, riblt::DEFAULT_ALPHA);
        let mut link = library(backend.clone(), &items(0..3_000), 8);
        let config = TcpSyncConfig {
            key,
            ..Default::default()
        };
        let (diffs, outcome) =
            sync_sharded_tcp(&mut link, &items(40..3_015), |_| backend.clone(), &config).unwrap();

        assert_eq!(outcome.shards, 8);
        assert_eq!(diffs.len(), 8);
        let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
        let local_only: usize = diffs.iter().map(|d| d.local_only.len()).sum();
        assert_eq!(remote, 40);
        assert_eq!(local_only, 15);
        assert!(outcome.units > 0);
        assert!(outcome.bytes_received > outcome.bytes_sent);
    }

    /// The coded symbols a server sent each of `shards` shards, in
    /// `tile`-symbol payloads, from everything it said.
    fn symbols_sent(mut said: &[u8], shards: u16, tile: usize) -> Vec<usize> {
        reconcile_core::read_frame(&mut said).unwrap();
        let mut sent = vec![0; usize::from(shards)];
        while let Ok(frame) = read_mux_frame(&mut said) {
            if let EngineMessage::Payload(_) = frame.message {
                sent[usize::from(frame.shard)] += tile;
            }
        }
        sent
    }

    #[test]
    fn unit_budget_bounds_what_a_wedged_shard_is_sent() {
        // A client whose mapping parameter differs from the server's can
        // never decode. The budget caps what it asks for, not what it has
        // already been sent: every shard stops within one batch of it.
        let key = SipKey::new(9, 9);
        let server = RibltBackend::<Item>::with_key_and_alpha(8, 16, key, riblt::DEFAULT_ALPHA);
        let mut link = library(server, &items(0..2_000), 4);
        let budget = 200;
        let config = TcpSyncConfig {
            key,
            max_units_per_shard: budget,
            ..Default::default()
        };
        let err = sync_sharded_tcp(
            &mut link,
            &items(300..2_000),
            |_| RibltBackend::<Item>::with_key_and_alpha(8, 16, key, 0.3),
            &config,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::DecodeIncomplete), "{err}");
        // The first flight counts: the sketch's 321.7 of the 300
        // differences sized it at 8 tiles (1.35 × 80.4 + 2·√80.4 = 126.5 →
        // 128 symbols), and the asks after it stop at the tile holding 200.
        for (shard, sent) in symbols_sent(&link.received, 4, 16).into_iter().enumerate() {
            assert!(sent > 16, "shard {shard} never got past its open");
            assert!(sent < budget + 16, "shard {shard} was sent {sent}");
        }
    }

    #[test]
    fn a_first_flight_beyond_the_budget_is_read_and_nothing_more_is_asked() {
        // The first flight is the server's to size, under its own budget:
        // the client's caps what the client asks for, and a grant already
        // past it leaves nothing to ask. 1,200 differences over 4 shards
        // put the first rung far past a budget of 64 symbols.
        let key = SipKey::new(9, 9);
        let server = RibltBackend::<Item>::with_key_and_alpha(8, 16, key, riblt::DEFAULT_ALPHA);
        let mut link = library(server, &items(0..2_000), 4);
        let budget = 64;
        let config = TcpSyncConfig {
            key,
            max_units_per_shard: budget,
            ..Default::default()
        };
        let err = sync_sharded_tcp(
            &mut link,
            &items(600..2_600),
            |_| RibltBackend::<Item>::with_key_and_alpha(8, 16, key, 0.3),
            &config,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::DecodeIncomplete), "{err}");
        let mut said = &link.received[..];
        reconcile_core::read_frame(&mut said).unwrap();
        let EngineMessage::Request(grant) = read_mux_frame(&mut said).unwrap().message else {
            panic!("the grant leads the payloads");
        };
        let granted = grant.offset as usize + usize::from(grant.count);
        assert!(granted > budget + 16, "granted {granted}");
        // Every shard was sent the grant and asked for nothing: the sync
        // ended in the handshake's flight.
        assert_eq!(symbols_sent(&link.received, 4, 16), vec![granted; 4]);
        assert!(requests(&link.sent, 4).iter().all(Vec::is_empty));
        assert_eq!(link.flights, 1);
    }

    #[test]
    fn key_mismatch_fails_the_handshake_not_the_decode() {
        let server = RibltBackend::<Item>::with_key_and_alpha(8, 16, SipKey::new(1, 1), 0.5);
        let mut link = library(server, &[], 4);
        let config = TcpSyncConfig {
            key: SipKey::new(2, 2),
            ..Default::default()
        };
        let err = sync_sharded_tcp(
            &mut link,
            &items(0..10),
            |_| RibltBackend::<Item>::new(8, 16),
            &config,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Handshake(_)), "{err}");
        // The server refused the hello and said why before it hung up.
        assert!(matches!(link.hung_up, Some(EngineError::Handshake(_))));
    }
}

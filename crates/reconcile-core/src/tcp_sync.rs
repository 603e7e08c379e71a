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
//!    The hashes come eight at a time in AVX-512 lanes where the CPU has
//!    them ([`riblt_hash::siphash24_many`]). Every payload must continue its
//!    shard's stream where the last one ended: a tile repeated or skipped
//!    fails the sync as a protocol error instead of being peeled as the
//!    wrong cells.
//! 2. Rounds of range requests. After every round [`ClientMux`] sizes the
//!    next one from what the decoders now hold (see
//!    [`crate::window`]; the first flight counts as a request past
//!    the first rung): `Done` for shards that decoded,
//!    `Request(offset, count)` for the rest. A round's frames leave in one
//!    write and cost one round trip, however many batches they ask for; its
//!    payloads are absorbed in arrival order, independent shards in parallel
//!    on a `std::thread` worker pool. A shard's decoder is built on the thread
//!    that absorbs its first round, over that round's payloads
//!    ([`ReconcileBackend::build_client_keyed`]): the shard's items are walked
//!    over the cells that arrived, and no further, eight members in flight
//!    ([`riblt::apply_prefix_logged`], in AVX-512 lanes where the CPU has
//!    them), which takes their contribution out of those cells, and the
//!    decoder peels the difference cells with no local window. A shard that
//!    decodes there never clones an item, builds a mapping or fills a window;
//!    only a shard that asks again gets its window, from the mappings the
//!    walk left parked where the cells end and the borrowed set. A decoder is consumed into the shard's
//!    difference as soon as it decodes: absorbing on one thread, a sync whose
//!    shards decode their first flights holds one decoder at a time, not one
//!    per shard. The hashes and the grouping go with the round that builds the
//!    last shard. A difference that fits the first flight needs no round at
//!    all: the sync ends one round trip after it began.
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
    append_frame, ClientMux, CountSketch, EngineError, EngineMessage, FrameBuffer, MuxFrame,
    ReconcileBackend, SessionId, SetDifference, ShardId, ShardPartitioner, SHARD_ALL,
};
use riblt::Symbol;
use riblt_hash::SipKey;

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
/// length), which is all the `reconciled` daemon accepts; a backend that
/// answers a payload with an interactive query fails the sync with
/// [`EngineError::Protocol`].
///
/// `local_items` is hashed once, before the hello, for the sketch, and only
/// read again while the shard clients are built, each over its shard's
/// first payloads when they arrive ([`ShardPartitioner::group`] places the
/// items by the same hashes that become their checksums, and
/// [`ReconcileBackend::build_client_keyed`] walks each shard's items over
/// the cells that arrived, cloning each item once, into its shard's
/// decoder, only for a shard that must read past them). No partition of
/// the set is ever built, so no second copy of it exists; a decoder lives
/// from its shard's first payload until the shard decodes, and the hashes
/// and the grouping until the round that builds the last shard ends.
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
    let backend = factory(0);
    let mut open = backend.open_request(&mut backend.build_client(&[]));
    CountSketch::from_hashes(&hashes).encode(&mut open);
    let mut wildcard = Vec::new();
    append_frame(
        &mut wildcard,
        &MuxFrame::new(SESSION, SHARD_ALL, EngineMessage::Open(open)).to_bytes(),
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
    let mut client = ClientMux::new(SESSION, shards, &grant[0], config.max_units_per_shard)?;

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
        let replies = client.handle_round(&payloads, config.threads, |shard, first| {
            let (hashes, grouping) = placement
                .as_ref()
                .expect("the placement outlives the last pending shard");
            let backend = factory(shard);
            let (shard_client, absorbed) =
                backend.build_client_keyed(local_items, hashes, grouping.members(shard), first)?;
            Ok((backend, shard_client, absorbed))
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
}

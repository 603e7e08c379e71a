//! Session multiplexing: many interleaved engine sessions over one link.
//!
//! One node serving many peers (and many shards per peer) cannot afford a
//! connection per session. This module tags every [`EngineMessage`] with a
//! `(session, shard)` pair so a single ordered byte transport carries any
//! number of concurrent reconciliation conversations:
//!
//! * [`MuxFrame`] — the wire unit: 4-byte session id, 2-byte shard id, then
//!   the self-describing engine-message frame. Decoding never panics on
//!   truncated or corrupt input.
//! * [`ServerMux`] — routes incoming frames to per-`(session, shard)`
//!   [`ServerEngine`]s, creating them on `Open` through a caller-supplied
//!   factory and retiring them on `Done`. An `Open` addressed to
//!   [`SHARD_ALL`] is one `Open` per shard, and with a count sketch behind
//!   it also the grant and the first flight [`FirstFlight`] sizes.
//! * [`ClientMux`] — drives one session's per-shard [`ClientEngine`]s round
//!   by round: it absorbs a round's payloads (independent shards in
//!   parallel on a `std::thread` worker pool, each shard's endpoint built
//!   over its first round's payloads if it was registered pending, and
//!   consumed into its difference as soon as it decodes), then turns the streaming
//!   flow's "keep pushing" into explicit range requests (on a shared link
//!   the server must not push unprompted) sized by [`crate::window`] from
//!   the estimate its decoders pool.

use std::collections::HashMap;
use std::sync::Arc;

use riblt::{DifferenceEstimate, SetDifference};

use crate::backend::{Absorbed, Progress, ReconcileBackend};
use crate::engine::{ClientEngine, EngineMessage, ServerEngine, ShardEndpoint};
use crate::error::{EngineError, Result};
use crate::first_flight::{CountSketch, FirstFlight};
use crate::framing::{LENGTH_PREFIX_BYTES, MAX_FRAME_BYTES};
use crate::shard::{SessionId, ShardId, SHARD_ALL};
use crate::window::next_requests;
use crate::wirefmt::split_stream_open;

/// Observation handles a [`ClientMux`] records into while absorbing
/// payloads. The handles are plain `obs` instruments — attach ones
/// registered in whatever registry should expose them (see
/// [`ClientMux::set_metrics`]); an unattached mux records nothing.
#[derive(Debug, Clone, Default)]
pub struct MuxMetrics {
    /// Payload frames absorbed.
    pub payloads: Arc<obs::Counter>,
    /// Scheme units consumed per absorbed payload (decode progress per
    /// round-trip).
    pub payload_units: Arc<obs::Histogram>,
    /// Payload frame sizes in bytes.
    pub payload_bytes: Arc<obs::Histogram>,
}

/// Bytes of mux header prepended to every engine-message frame.
pub const MUX_HEADER_BYTES: usize = 6;

/// One multiplexed frame: an engine message addressed to a session/shard.
#[derive(Debug, Clone, PartialEq)]
pub struct MuxFrame {
    /// The conversation (one per peer, typically) this frame belongs to.
    pub session: SessionId,
    /// The keyspace shard within the session.
    pub shard: ShardId,
    /// The engine message itself.
    pub message: EngineMessage,
}

impl MuxFrame {
    /// Creates a frame.
    pub fn new(session: SessionId, shard: ShardId, message: EngineMessage) -> Self {
        MuxFrame {
            session,
            shard,
            message,
        }
    }

    /// Size of the frame on the wire (mux header + tagged message).
    pub fn wire_size(&self) -> usize {
        MUX_HEADER_BYTES + self.message.wire_size()
    }

    /// Serializes the frame: `session` (u32 LE), `shard` (u16 LE), then the
    /// engine-message frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let inner = self.message.to_frame();
        let mut out = Vec::with_capacity(MUX_HEADER_BYTES + inner.len());
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&inner);
        out
    }

    /// Inverse of [`Self::to_bytes`]. Truncated or corrupt input yields
    /// [`EngineError::WireFormat`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<MuxFrame> {
        if bytes.len() < MUX_HEADER_BYTES + 1 {
            return Err(EngineError::WireFormat("truncated mux frame"));
        }
        let session = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let shard = u16::from_le_bytes([bytes[4], bytes[5]]);
        let message = EngineMessage::from_frame(&bytes[MUX_HEADER_BYTES..])?;
        Ok(MuxFrame {
            session,
            shard,
            message,
        })
    }

    /// Appends the length-prefixed frame of a `Payload` of `payload` for
    /// `(session, shard)` to `out`: the bytes [`append_frame`] stages for
    /// that frame's [`Self::to_bytes`], with `payload` copied once instead
    /// of into a frame first. Size limits match [`append_frame`]'s.
    ///
    /// [`append_frame`]: crate::framing::append_frame
    pub fn append_payload(
        out: &mut Vec<u8>,
        session: SessionId,
        shard: ShardId,
        payload: &[u8],
    ) -> std::io::Result<()> {
        let len = MUX_HEADER_BYTES + 1 + payload.len();
        if len > MAX_FRAME_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "frame exceeds MAX_FRAME_BYTES",
            ));
        }
        out.reserve(LENGTH_PREFIX_BYTES + len);
        // MAX_FRAME_BYTES fits a u32, so the cast cannot truncate.
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.extend_from_slice(&session.to_le_bytes());
        out.extend_from_slice(&shard.to_le_bytes());
        // The tag `EngineMessage::to_frame` writes for a payload.
        out.push(1);
        out.extend_from_slice(payload);
        Ok(())
    }
}

/// Server-side demultiplexer: one [`ServerEngine`] per `(session, shard)`.
///
/// The factory is invoked once per `Open` frame; a typical implementation
/// builds the engine over the reference items of that shard. Engines are
/// dropped as soon as their client signals `Done`, so long-lived servers do
/// not accumulate state for finished conversations.
pub struct ServerMux<B, F>
where
    B: ReconcileBackend,
    F: FnMut(SessionId, ShardId) -> ServerEngine<B>,
{
    factory: F,
    engines: HashMap<(SessionId, ShardId), ServerEngine<B>>,
    /// Shards a wildcard open stands for (0 = never told: refuse them).
    shards: u16,
    /// What sizes a wildcard open's first flight: the server's own count
    /// sketch, its tile and its per-stream unit budget.
    own: CountSketch,
    tile: usize,
    unit_budget: usize,
}

impl<B, F> ServerMux<B, F>
where
    B: ReconcileBackend,
    F: FnMut(SessionId, ShardId) -> ServerEngine<B>,
{
    /// Creates a demultiplexer around an engine factory.
    pub fn new(factory: F) -> Self {
        ServerMux {
            factory,
            engines: HashMap::new(),
            shards: 0,
            own: CountSketch::new(),
            tile: 0,
            unit_budget: 0,
        }
    }

    /// Tells the demultiplexer how many shards a session has, so an `Open`
    /// addressed to [`SHARD_ALL`] can be expanded into shards `0..shards`,
    /// and how to size such an open's first flight when it carries a count
    /// sketch ([`FirstFlight::for_sketch`]): against `own`, the sketch of
    /// the server's whole set, for engines that serve `tile`-symbol payloads
    /// and at most `unit_budget` symbols per stream. Only streaming
    /// backends, whose opens are a magic and an item length, can be opened
    /// this way.
    ///
    /// # Panics
    /// If `tile` is 0.
    pub fn serving_shards(
        mut self,
        shards: u16,
        own: CountSketch,
        tile: usize,
        unit_budget: usize,
    ) -> Self {
        assert!(tile > 0, "a tile holds at least one symbol");
        self.shards = shards;
        self.own = own;
        self.tile = tile;
        self.unit_budget = unit_budget;
        self
    }

    /// Number of live `(session, shard)` engines.
    pub fn active_sessions(&self) -> usize {
        self.engines.len()
    }

    /// Handles one incoming frame, returning the reply frames (one payload
    /// per tile of a range request, none for `Done`) addressed to the same
    /// `(session, shard)`.
    ///
    /// An `Open` addressed to [`SHARD_ALL`] is handled as the same `Open`
    /// for each shard in turn, and answered by every shard's first payload
    /// in shard order. If it carries a count sketch, the answer starts with
    /// the grant frame and each shard's first payload is followed by the
    /// rest of its first flight: what serving the granted range to every
    /// shard returns.
    pub fn handle(&mut self, frame: &MuxFrame) -> Result<Vec<MuxFrame>> {
        if frame.shard == SHARD_ALL {
            let (EngineMessage::Open(open), true) = (&frame.message, self.shards > 0) else {
                return Err(EngineError::Protocol(
                    "only an open may address every shard",
                ));
            };
            let (_, sketch) = split_stream_open(open)?;
            let grant = FirstFlight::for_sketch(
                sketch,
                &self.own,
                self.shards,
                self.tile,
                self.unit_budget,
            )?
            .grant;
            let mut replies = Vec::with_capacity(usize::from(self.shards) + 1);
            replies.extend(grant.map(|range| {
                MuxFrame::new(frame.session, SHARD_ALL, EngineMessage::Request(range))
            }));
            for shard in 0..self.shards {
                let open = MuxFrame::new(frame.session, shard, frame.message.clone());
                replies.extend(self.handle(&open)?);
                if let Some(range) = grant.filter(|range| range.count > 0) {
                    let rest = MuxFrame::new(frame.session, shard, EngineMessage::Request(range));
                    replies.extend(self.handle(&rest)?);
                }
            }
            return Ok(replies);
        }
        let key = (frame.session, frame.shard);
        let replies = match &frame.message {
            EngineMessage::Open(_) => {
                if self.engines.contains_key(&key) {
                    return Err(EngineError::Protocol("duplicate open for session/shard"));
                }
                let mut engine = (self.factory)(frame.session, frame.shard);
                let replies = engine.handle(&frame.message)?;
                self.engines.insert(key, engine);
                replies
            }
            EngineMessage::Done => {
                // Retire the engine; a Done for an unknown session is
                // harmless (e.g. duplicate delivery after retirement).
                self.engines.remove(&key);
                Vec::new()
            }
            _ => self
                .engines
                .get_mut(&key)
                .ok_or(EngineError::Protocol("frame for unknown session/shard"))?
                .handle(&frame.message)?,
        };
        Ok(replies
            .into_iter()
            .map(|m| MuxFrame::new(frame.session, frame.shard, m))
            .collect())
    }
}

impl<B, F> std::fmt::Debug for ServerMux<B, F>
where
    B: ReconcileBackend,
    F: FnMut(SessionId, ShardId) -> ServerEngine<B>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMux")
            .field("active_sessions", &self.engines.len())
            .finish()
    }
}

#[derive(Debug)]
struct ShardClient<B: ReconcileBackend> {
    endpoint: ShardEndpoint<B>,
    /// Payload frames the server still owes this shard.
    awaiting: usize,
    /// Streaming flow: the server's batch size, learned from the payload
    /// that answered the `Open` (0 until then).
    tile: usize,
    /// Streaming flow: stream symbols asked for so far.
    requested: usize,
    /// Streaming flow: the decoder's latest sketch of the difference.
    estimate: DifferenceEstimate,
}

impl<B: ReconcileBackend> ShardClient<B> {
    /// Absorbs this round's payloads in arrival order and returns the
    /// shard's immediate reply (`Done`, or an interactive `Query`), if any.
    /// A pending shard is built by `build` over them, which absorbs them as
    /// it builds; a shard that completes is consumed into its difference at
    /// once ([`ShardEndpoint::absorb`]). Payloads that arrive after the
    /// shard completed are the unused tail of a range: counted off, not
    /// absorbed.
    fn absorb_round(
        &mut self,
        shard: ShardId,
        frames: &[&MuxFrame],
        metrics: Option<&MuxMetrics>,
        build: &impl Fn(ShardId, &[&[u8]]) -> Result<(ClientEngine<B>, Vec<Absorbed>)>,
    ) -> Result<Option<EngineMessage>> {
        if frames.len() > self.awaiting {
            return Err(EngineError::Protocol("unsolicited payload"));
        }
        self.awaiting -= frames.len();
        let payloads = frames
            .iter()
            .map(|frame| match &frame.message {
                EngineMessage::Payload(payload) => Ok(payload.as_slice()),
                _ => Err(EngineError::Protocol("client expects payloads")),
            })
            .collect::<Result<Vec<&[u8]>>>()?;
        // The units consumed before the payload being booked.
        let mut consumed = self.endpoint.units();
        let absorbed = self
            .endpoint
            .absorb(&payloads, |first| build(shard, first))?;
        let mut reply = None;
        for (absorbed, payload) in absorbed.into_iter().zip(&payloads) {
            if let Some(m) = metrics {
                m.payloads.inc();
                m.payload_units.observe((absorbed.units - consumed) as u64);
                m.payload_bytes.observe(payload.len() as u64);
            }
            consumed = absorbed.units;
            match absorbed.progress {
                Progress::Complete => reply = Some(EngineMessage::Done),
                Progress::SendRequest(request) => {
                    self.awaiting += 1;
                    reply = Some(EngineMessage::Query(request));
                }
                Progress::AwaitStream(stream) => {
                    if self.tile == 0 {
                        // The whole first payload was consumed (the decoder
                        // only stops early when it completes).
                        self.tile = stream.consumed;
                        self.requested = stream.consumed;
                    }
                    self.estimate = stream.estimate;
                }
            }
        }
        Ok(reply)
    }
}

/// Client-side multiplexer: one session, many per-shard client engines.
///
/// A shard is registered either built ([`Self::insert_shard`]) or pending
/// ([`Self::insert_pending`]), in which case the round that brings its
/// first payload builds it. A shard that decodes is consumed into its
/// difference at once: a one-shot driver that registers every shard
/// pending and absorbs on one thread holds one shard's endpoint at a time,
/// as long as each shard decodes within the round that built it.
#[derive(Debug)]
pub struct ClientMux<B: ReconcileBackend> {
    session: SessionId,
    shards: Vec<Option<ShardClient<B>>>,
    metrics: Option<MuxMetrics>,
    unit_budget: usize,
}

impl<B: ReconcileBackend> ClientMux<B> {
    /// Creates an empty multiplexer for `session`.
    pub fn new(session: SessionId) -> Self {
        ClientMux {
            session,
            shards: Vec::new(),
            metrics: None,
            unit_budget: usize::MAX,
        }
    }

    /// The session id every emitted frame carries.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Attaches observation handles; every subsequently absorbed payload
    /// records its size and decode progress into them.
    pub fn set_metrics(&mut self, metrics: MuxMetrics) {
        self.metrics = Some(metrics);
    }

    /// Caps the stream symbols requested per shard. The cap is applied when
    /// a request is sized, so a shard that cannot decode (a mis-matched
    /// mapping parameter, say) fails with [`EngineError::DecodeIncomplete`]
    /// after receiving less than `units` plus one batch, or its first
    /// flight if that was more — one wedged shard never gets to spend the
    /// others' allowance. A first flight is the server's to size (see
    /// [`Self::book_first_flight`]), so this cap does not bound it.
    pub fn set_unit_budget(&mut self, units: usize) {
        self.unit_budget = units;
    }

    /// Registers the client endpoint for `shard` (built over the local items
    /// of that shard).
    pub fn insert_shard(&mut self, shard: ShardId, engine: ClientEngine<B>) {
        self.register(shard, ShardEndpoint::Live(engine));
    }

    /// Registers `shard` without its endpoint, which
    /// [`Self::handle_round_with`] builds when the shard's first payload
    /// arrives. A pending shard cannot open: it is for a driver whose
    /// wildcard `Open` opened it ([`Self::book_first_flight`]).
    pub fn insert_pending(&mut self, shard: ShardId) {
        self.register(shard, ShardEndpoint::Pending);
    }

    fn register(&mut self, shard: ShardId, endpoint: ShardEndpoint<B>) {
        let idx = usize::from(shard);
        if self.shards.len() <= idx {
            self.shards.resize_with(idx + 1, || None);
        }
        assert!(self.shards[idx].is_none(), "shard registered twice");
        self.shards[idx] = Some(ShardClient {
            endpoint,
            awaiting: 0,
            tile: 0,
            requested: 0,
            estimate: DifferenceEstimate::default(),
        });
    }

    /// Opening frames for every registered shard; each is owed one payload.
    ///
    /// # Panics
    /// If a shard is pending ([`Self::insert_pending`]).
    pub fn opens(&mut self) -> Vec<MuxFrame> {
        let session = self.session;
        self.shards
            .iter_mut()
            .enumerate()
            .filter_map(|(shard, slot)| {
                slot.as_mut().map(|sc| {
                    let ShardEndpoint::Live(engine) = &mut sc.endpoint else {
                        panic!("only a built shard opens its own stream");
                    };
                    sc.awaiting += 1;
                    MuxFrame::new(session, shard as ShardId, engine.open())
                })
            })
            .collect()
    }

    /// Books every registered shard's first flight as owed without emitting
    /// frames, for a driver whose one wildcard `Open` ([`SHARD_ALL`], with a
    /// count sketch) left before it knew the shard count, and so before this
    /// multiplexer existed. The server sent a grant ahead of the payloads
    /// ([`crate::first_flight`]): a range request addressed to
    /// [`SHARD_ALL`] naming `[tile, symbols)`. Every registered shard is
    /// owed `[0, symbols)` in `tile`-symbol payloads and has asked for all
    /// of it, so its window goes on from there. A grant past the unit budget
    /// ([`Self::set_unit_budget`]) is booked all the same — its payloads are
    /// on their way — and leaves the shard nothing more to ask.
    pub fn book_first_flight(&mut self, grant: &MuxFrame) -> Result<()> {
        let range = match grant {
            MuxFrame {
                session,
                shard: SHARD_ALL,
                message: EngineMessage::Request(range),
            } if *session == self.session => *range,
            _ => return Err(EngineError::Protocol("expected the first flight's grant")),
        };
        let (tile, rest) = (range.offset as usize, usize::from(range.count));
        if tile == 0 || rest % tile != 0 {
            return Err(EngineError::Protocol("a grant of no whole tiles"));
        }
        for sc in self.shards.iter_mut().flatten() {
            sc.tile = tile;
            sc.requested = tile + rest;
            sc.awaiting += 1 + rest / tile;
        }
        Ok(())
    }

    /// True once every shard has completed.
    pub fn all_done(&self) -> bool {
        self.shards.iter().flatten().all(|sc| sc.endpoint.is_done())
    }

    /// Registered shards whose endpoint is not built yet.
    pub fn pending(&self) -> usize {
        let pending = |sc: &&ShardClient<B>| matches!(sc.endpoint, ShardEndpoint::Pending);
        self.shards.iter().flatten().filter(pending).count()
    }

    /// Payload frames the server still owes this session: how many frames a
    /// stream driver must read before the next [`Self::handle_round`].
    pub fn awaiting(&self) -> usize {
        self.shards.iter().flatten().map(|sc| sc.awaiting).sum()
    }

    /// Total scheme units consumed across all shards.
    pub fn units(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(|sc| sc.endpoint.units())
            .sum()
    }

    /// Handles one payload frame; see [`Self::handle_round`].
    pub fn handle(&mut self, frame: &MuxFrame) -> Result<Vec<MuxFrame>>
    where
        B: Send,
        B::Client: Send,
        B::Item: Send,
    {
        self.handle_round(std::slice::from_ref(frame), 1)
    }

    /// [`Self::handle_round_with`] for a multiplexer whose shards were all
    /// registered built ([`Self::insert_shard`]).
    ///
    /// # Panics
    /// If a payload arrives for a pending shard.
    pub fn handle_round(&mut self, frames: &[MuxFrame], threads: usize) -> Result<Vec<MuxFrame>>
    where
        B: Send,
        B::Client: Send,
        B::Item: Send,
    {
        self.handle_round_with(frames, threads, |_, _| {
            panic!("a pending shard is built by handle_round_with")
        })
    }

    /// Handles one round of payload frames and returns the client's next
    /// frames: `Done` for shards that completed, a `Query` per interactive
    /// shard, and range `Request`s for every streaming shard that is owed
    /// nothing more.
    ///
    /// A shard's frames are absorbed in arrival order; distinct shards
    /// decode independently, so they are fanned out over up to `threads`
    /// `std::thread` workers (0 = one per available core) — the hot half of
    /// sharded reconciliation. A pending shard ([`Self::insert_pending`]) is
    /// built by `build` on the thread that absorbs its first payload, over
    /// that payload and the ones behind it in the round, which the build
    /// absorbs ([`ClientEngine::new_keyed`] is such a builder); a shard
    /// that completes is consumed into its difference there too.
    pub fn handle_round_with<F>(
        &mut self,
        frames: &[MuxFrame],
        threads: usize,
        build: F,
    ) -> Result<Vec<MuxFrame>>
    where
        B: Send,
        B::Client: Send,
        B::Item: Send,
        F: Fn(ShardId, &[&[u8]]) -> Result<(ClientEngine<B>, Vec<Absorbed>)> + Sync,
    {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            threads => threads,
        };
        let session = self.session;
        let mut by_shard: Vec<Vec<&MuxFrame>> = vec![Vec::new(); self.shards.len()];
        for frame in frames {
            if frame.session != session {
                return Err(EngineError::Protocol("frame for another session"));
            }
            match by_shard.get_mut(usize::from(frame.shard)) {
                Some(list) if self.shards[usize::from(frame.shard)].is_some() => list.push(frame),
                _ => return Err(EngineError::Protocol("frame for unknown shard")),
            }
        }
        let mut work: Vec<(ShardId, &mut ShardClient<B>, Vec<&MuxFrame>)> = self
            .shards
            .iter_mut()
            .zip(by_shard)
            .enumerate()
            .filter(|(_, (_, list))| !list.is_empty())
            .map(|(idx, (slot, list))| {
                let sc = slot.as_mut().expect("frames only target registered shards");
                (idx as ShardId, sc, list)
            })
            .collect();

        let metrics = self.metrics.as_ref();
        let build = &build;
        let absorb = |(shard, sc, list): &mut (ShardId, &mut ShardClient<B>, Vec<&MuxFrame>)| {
            Ok(sc
                .absorb_round(*shard, list, metrics, build)?
                .map(|message| MuxFrame::new(session, *shard, message)))
        };
        let mut replies: Vec<Result<Option<MuxFrame>>> = Vec::with_capacity(work.len());
        if threads <= 1 || work.len() <= 1 {
            replies.extend(work.iter_mut().map(absorb));
        } else {
            let chunk = work.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .chunks_mut(chunk)
                    .map(|batch| {
                        scope.spawn(move || batch.iter_mut().map(absorb).collect::<Vec<_>>())
                    })
                    .collect();
                for handle in handles {
                    replies.extend(handle.join().expect("worker thread panicked"));
                }
            });
        }
        let mut out = Vec::with_capacity(replies.len());
        for reply in replies {
            out.extend(reply?);
        }
        self.request_ranges(&mut out)?;
        Ok(out)
    }

    /// Appends the range requests of every streaming shard that is neither
    /// done nor owed payloads, sized by [`crate::window`] from the estimate
    /// pooled over all shards: shards are a uniform hash split of one
    /// difference, so the pooled mean is a better estimate of each shard's
    /// share than its own few cells.
    fn request_ranges(&mut self, out: &mut Vec<MuxFrame>) -> Result<()> {
        let mut pooled = DifferenceEstimate::default();
        for sc in self.shards.iter().flatten() {
            pooled.merge(&sc.estimate);
        }
        let session = self.session;
        for (shard, sc) in self.shards.iter_mut().enumerate() {
            let Some(sc) = sc else { continue };
            if sc.endpoint.is_done() || sc.awaiting > 0 || sc.tile == 0 {
                continue;
            }
            for range in next_requests(sc.requested, sc.tile, pooled.mean(), self.unit_budget)? {
                let range = range?;
                let count = usize::from(range.count);
                out.push(MuxFrame::new(
                    session,
                    shard as ShardId,
                    EngineMessage::Request(range),
                ));
                sc.requested += count;
                sc.awaiting += count / sc.tile;
            }
        }
        Ok(())
    }

    /// Consumes the multiplexer, returning the recovered difference of every
    /// shard (index = shard id).
    pub fn into_differences(self) -> Result<Vec<SetDifference<B::Item>>> {
        self.shards
            .into_iter()
            .flatten()
            .map(|sc| sc.endpoint.into_difference())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::RibltBackend;
    use crate::engine::RangeRequest;
    use crate::shard::ShardPartitioner;
    use riblt::{FixedBytes, Symbol};
    use riblt_hash::{SipKey, SplitMix64};
    use std::sync::atomic::{AtomicUsize, Ordering};

    type Item = FixedBytes<8>;

    fn items(range: std::ops::Range<u64>) -> Vec<Item> {
        range.map(Item::from_u64).collect()
    }

    /// Drives `sessions` independent sharded conversations to completion
    /// over one simulated ordered transport, interleaving all frames.
    #[test]
    fn many_sessions_interleave_over_one_link() {
        let shards = 4u16;
        let partitioner = ShardPartitioner::new(SipKey::default(), shards);
        let backend = RibltBackend::<Item>::new(8, 8);

        let server_items = items(0..2_000);
        let server_parts = partitioner.partition(&server_items);
        let backend_for_server = backend.clone();
        let mut server = ServerMux::new(move |_session, shard| {
            ServerEngine::new(
                backend_for_server.clone(),
                &server_parts[usize::from(shard)],
            )
        });

        // Three peers at different staleness share the link.
        let mut clients = Vec::new();
        let mut expected = Vec::new();
        for (session, missing) in [(7u32, 3u64), (8, 17), (9, 60)] {
            let local = items(missing..2_000);
            let parts = partitioner.partition(&local);
            let mut mux = ClientMux::new(session);
            for (shard, part) in parts.iter().enumerate() {
                mux.insert_shard(shard as ShardId, ClientEngine::new(backend.clone(), part));
            }
            clients.push(mux);
            expected.push(missing);
        }

        // All opens from all sessions, then strict round-robin over replies:
        // the transport carries bytes; both ends resolve (session, shard).
        let mut wire: Vec<Vec<u8>> = clients
            .iter_mut()
            .flat_map(|c| c.opens())
            .map(|f| f.to_bytes())
            .collect();
        let mut guard = 0;
        while !wire.is_empty() {
            guard += 1;
            assert!(guard < 10_000, "failed to converge");
            let mut next = Vec::new();
            for bytes in &wire {
                let frame = MuxFrame::from_bytes(bytes).unwrap();
                for reply in server.handle(&frame).unwrap() {
                    let reply_bytes = reply.to_bytes();
                    let payload = MuxFrame::from_bytes(&reply_bytes).unwrap();
                    let client = clients
                        .iter_mut()
                        .find(|c| c.session() == payload.session)
                        .unwrap();
                    // A shard asks again only once the last tile it is owed
                    // has arrived, so single-frame delivery is a valid round.
                    next.extend(
                        client
                            .handle(&payload)
                            .unwrap()
                            .iter()
                            .map(MuxFrame::to_bytes),
                    );
                }
            }
            wire = next;
        }

        assert_eq!(server.active_sessions(), 0, "engines retired on Done");
        for (mux, missing) in clients.into_iter().zip(expected) {
            assert!(mux.all_done());
            let diffs = mux.into_differences().unwrap();
            let total: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
            assert_eq!(total as u64, missing);
            assert!(diffs.iter().all(|d| d.local_only.is_empty()));
        }
    }

    #[test]
    fn parallel_absorb_matches_sequential() {
        let shards = 8u16;
        let partitioner = ShardPartitioner::new(SipKey::default(), shards);
        let backend = RibltBackend::<Item>::new(8, 16);
        let server_items = items(0..3_000);
        let client_items = items(120..3_000);
        let server_parts = partitioner.partition(&server_items);
        let client_parts = partitioner.partition(&client_items);

        let run = |threads: usize| {
            let backend_for_server = backend.clone();
            let parts = server_parts.clone();
            let mut server = ServerMux::new(move |_s, shard| {
                ServerEngine::new(backend_for_server.clone(), &parts[usize::from(shard)])
            });
            let mut mux = ClientMux::new(1);
            for (shard, part) in client_parts.iter().enumerate() {
                mux.insert_shard(shard as ShardId, ClientEngine::new(backend.clone(), part));
            }
            let mut outgoing = mux.opens();
            let mut guard = 0;
            while !outgoing.is_empty() {
                guard += 1;
                assert!(guard < 10_000);
                // Done frames go to the server too: they retire its state
                // and are answered by nothing.
                let payloads: Vec<MuxFrame> = outgoing
                    .iter()
                    .flat_map(|frame| server.handle(frame).unwrap())
                    .collect();
                assert_eq!(payloads.len(), mux.awaiting());
                outgoing = mux.handle_round(&payloads, threads).unwrap();
            }
            let mut remote: Vec<u64> = mux
                .into_differences()
                .unwrap()
                .into_iter()
                .flat_map(|d| d.remote_only)
                .map(|s| s.to_u64())
                .collect();
            remote.sort_unstable();
            remote
        };

        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(sequential, parallel);
        // 0 is one worker per available core.
        assert_eq!(sequential, run(0));
        assert_eq!(sequential, (0..120u64).collect::<Vec<_>>());
    }

    #[test]
    fn identical_sets_request_nothing() {
        // d = 0: every shard's first batch decodes, so the client's whole
        // second flight is four Dones and the server owes nothing.
        let partitioner = ShardPartitioner::new(SipKey::default(), 4);
        let backend = RibltBackend::<Item>::new(8, 32);
        let parts = partitioner.partition(&items(0..1_000));
        let mut server = ServerMux::new(|_s, shard| {
            ServerEngine::new(backend.clone(), &parts[usize::from(shard)])
        });
        let mut mux = ClientMux::new(1);
        for (shard, part) in parts.iter().enumerate() {
            mux.insert_shard(shard as ShardId, ClientEngine::new(backend.clone(), part));
        }
        let payloads: Vec<MuxFrame> = mux
            .opens()
            .iter()
            .flat_map(|frame| server.handle(frame).unwrap())
            .collect();
        let replies = mux.handle_round(&payloads, 1).unwrap();
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|f| f.message == EngineMessage::Done));
        assert_eq!(mux.awaiting(), 0);
        assert!(mux.all_done());
    }

    #[test]
    fn a_wildcard_open_is_one_open_per_shard() {
        let partitioner = ShardPartitioner::new(SipKey::default(), 4);
        let backend = RibltBackend::<Item>::new(8, 32);
        let server_parts = partitioner.partition(&items(0..1_000));
        let client_parts = partitioner.partition(&items(30..1_000));
        let server = || {
            ServerMux::new(|_s, shard| {
                ServerEngine::new(backend.clone(), &server_parts[usize::from(shard)])
            })
        };
        let mut mux = ClientMux::new(9);
        for (shard, part) in client_parts.iter().enumerate() {
            mux.insert_shard(shard as ShardId, ClientEngine::new(backend.clone(), part));
        }
        let opens = mux.opens();
        let EngineMessage::Open(body) = opens[0].message.clone() else {
            panic!("opens() emits opens");
        };
        let wildcard = MuxFrame::new(9, SHARD_ALL, EngineMessage::Open(body.clone()));

        let mut per_shard = server();
        let expected: Vec<MuxFrame> = opens
            .iter()
            .flat_map(|open| per_shard.handle(open).unwrap())
            .collect();
        let told = || server().serving_shards(4, CountSketch::new(), 32, usize::MAX);
        let mut expanding = told();
        assert_eq!(expanding.handle(&wildcard).unwrap(), expected);
        assert_eq!(expanding.active_sessions(), 4);
        // The shards are open now: a second wildcard is four duplicates.
        assert!(matches!(
            expanding.handle(&wildcard),
            Err(EngineError::Protocol("duplicate open for session/shard"))
        ));
        // Nothing but an open may be addressed to every shard, and a mux
        // that was never told its shard count cannot expand one.
        for refused in [
            (told(), EngineMessage::Done),
            (server(), wildcard.message.clone()),
        ] {
            let (mut mux, message) = refused;
            assert!(matches!(
                mux.handle(&MuxFrame::new(9, SHARD_ALL, message)),
                Err(EngineError::Protocol(
                    "only an open may address every shard"
                ))
            ));
        }

        // With a count sketch behind it, the open is answered by the grant
        // first, then every shard's whole first flight: 1,000 differences,
        // 250 a shard, whose first rung and margin (337.5 + 2·√250 = 369.1)
        // are 12 tiles.
        let sketch =
            |set: &[Item]| CountSketch::from_hashes(&Item::hash_many_with(set, SipKey::default()));
        let mut wire = Vec::new();
        sketch(&items(500..1_500)).encode(&mut wire);
        let own = sketch(&items(0..1_000));
        let flight = FirstFlight::for_sketch(&wire, &own, 4, 32, usize::MAX).unwrap();
        let grant = flight.grant.unwrap();
        assert_eq!(
            (flight.symbols, grant),
            (384, RangeRequest::new(32, 352).unwrap())
        );
        let sketched = MuxFrame::new(9, SHARD_ALL, EngineMessage::Open([body, wire].concat()));
        let replies = server()
            .serving_shards(4, own, 32, usize::MAX)
            .handle(&sketched)
            .unwrap();
        assert_eq!(
            replies[0],
            MuxFrame::new(9, SHARD_ALL, EngineMessage::Request(grant))
        );
        assert_eq!(replies.len(), 1 + 4 * 12);

        // A client that booked the grant instead of opening each shard is
        // owed exactly the payloads behind it, and takes them in one round.
        let mut booked = ClientMux::new(9);
        for (shard, part) in client_parts.iter().enumerate() {
            booked.insert_shard(shard as ShardId, ClientEngine::new(backend.clone(), part));
        }
        booked.book_first_flight(&replies[0]).unwrap();
        assert_eq!(booked.awaiting(), replies.len() - 1);
        booked.handle_round(&replies[1..], 1).unwrap();
        assert!(booked.all_done());
    }

    /// A [`RibltBackend`] whose clients count themselves: how many were
    /// built, how many are alive, and the most that were alive at once.
    #[derive(Clone, Default)]
    struct Counted {
        built: Arc<AtomicUsize>,
        live: Arc<AtomicUsize>,
        peak: Arc<AtomicUsize>,
    }

    /// A counted client; dropping it (or consuming it into its difference)
    /// drops its [`Alive`] too.
    struct CountedClient {
        inner: <RibltBackend<Item> as ReconcileBackend>::Client,
        _alive: Alive,
    }

    struct Alive(Arc<AtomicUsize>);

    impl Drop for Alive {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl Counted {
        fn inner() -> RibltBackend<Item> {
            RibltBackend::new(8, 32)
        }

        fn count(&self, inner: <RibltBackend<Item> as ReconcileBackend>::Client) -> CountedClient {
            self.built.fetch_add(1, Ordering::SeqCst);
            let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(live, Ordering::SeqCst);
            CountedClient {
                inner,
                _alive: Alive(Arc::clone(&self.live)),
            }
        }

        /// Built, alive, most alive at once.
        fn counts(&self) -> [usize; 3] {
            [&self.built, &self.live, &self.peak].map(|n| n.load(Ordering::SeqCst))
        }
    }

    impl ReconcileBackend for Counted {
        type Item = Item;
        type Server = <RibltBackend<Item> as ReconcileBackend>::Server;
        type Client = CountedClient;

        fn name(&self) -> &'static str {
            "counted"
        }
        fn build_server(&self, items: &[Item]) -> Self::Server {
            Self::inner().build_server(items)
        }
        fn build_client(&self, items: &[Item]) -> CountedClient {
            self.count(Self::inner().build_client(items))
        }
        fn build_client_keyed(
            &self,
            items: &[Item],
            hashes: &[u64],
            members: &[u32],
            first: &[&[u8]],
        ) -> Result<(CountedClient, Vec<Absorbed>)> {
            let (inner, absorbed) =
                Self::inner().build_client_keyed(items, hashes, members, first)?;
            Ok((self.count(inner), absorbed))
        }
        fn open_request(&self, client: &mut CountedClient) -> Vec<u8> {
            Self::inner().open_request(&mut client.inner)
        }
        fn serve(&self, server: &mut Self::Server, request: Option<&[u8]>) -> Result<Vec<u8>> {
            Self::inner().serve(server, request)
        }
        fn serve_range(
            &self,
            server: &mut Self::Server,
            range: RangeRequest,
        ) -> Result<Vec<Vec<u8>>> {
            Self::inner().serve_range(server, range)
        }
        fn absorb(&self, client: &mut CountedClient, payload: &[u8]) -> Result<Progress> {
            Self::inner().absorb(&mut client.inner, payload)
        }
        fn units(&self, client: &CountedClient) -> usize {
            Self::inner().units(&client.inner)
        }
        fn into_difference(&self, client: CountedClient) -> Result<SetDifference<Item>> {
            Self::inner().into_difference(client.inner)
        }
    }

    #[test]
    fn a_pending_shard_is_built_by_its_first_payload_and_freed_when_it_decodes() {
        let (key, shards) = (SipKey::default(), 4u16);
        let partitioner = ShardPartitioner::new(key, shards);
        let (server_items, local) = (items(0..1_000), items(30..1_000));
        let server_parts = partitioner.partition(&server_items);
        let sketch = |set: &[Item]| CountSketch::from_hashes(&Item::hash_many_with(set, key));
        // The shipped client's opening flight: one sketched wildcard open,
        // answered by the grant and every shard's first flight.
        let mut open = ClientEngine::new(Counted::inner(), &[]).open();
        if let EngineMessage::Open(request) = &mut open {
            sketch(&local).encode(request);
        }
        let mut flight = ServerMux::new(|_s, shard| {
            ServerEngine::new(Counted::inner(), &server_parts[usize::from(shard)])
        })
        .serving_shards(shards, sketch(&server_items), 32, usize::MAX)
        .handle(&MuxFrame::new(1, SHARD_ALL, open))
        .unwrap();
        let grant = flight.remove(0);

        // The eager path: every endpoint built over its part of the set
        // before the first payload.
        let eager_backend = Counted::default();
        let mut eager = ClientMux::new(1);
        for (shard, part) in partitioner.partition(&local).iter().enumerate() {
            let engine = ClientEngine::new(eager_backend.clone(), part);
            eager.insert_shard(shard as ShardId, engine);
        }
        assert_eq!(eager_backend.counts(), [4, 4, 4]);
        eager.book_first_flight(&grant).unwrap();
        assert!(eager
            .handle_round(&flight, 1)
            .unwrap()
            .iter()
            .all(|f| f.message == EngineMessage::Done));

        // The one-shot path: every shard pending, built from one grouping.
        let counted = Counted::default();
        let hashes = Item::hash_many_with(&local, key);
        let grouping = partitioner.group(&hashes);
        let build = |shard, first: &[&[u8]]| {
            let members = grouping.members(shard);
            ClientEngine::new_keyed(counted.clone(), &local, &hashes, members, first)
        };
        let mut lazy = ClientMux::new(1);
        for shard in 0..shards {
            lazy.insert_pending(shard);
        }
        lazy.book_first_flight(&grant).unwrap();
        assert_eq!((lazy.pending(), counted.counts()), (4, [0, 0, 0]));
        // A shard whose payloads are not in the round is not built: the
        // first two shards' flights, then the rest.
        let split = flight.iter().position(|f| f.shard == 2).unwrap();
        let replies = [
            lazy.handle_round_with(&flight[..split], 1, build).unwrap(),
            lazy.handle_round_with(&flight[split..], 1, build).unwrap(),
        ];
        assert_eq!(lazy.pending(), 0);
        assert!(replies.iter().all(
            |round| round.len() == 2 && round.iter().all(|f| f.message == EngineMessage::Done)
        ));
        // Every shard decoded its first flight: one endpoint alive at a time,
        // none once the round is over.
        assert_eq!(counted.counts(), [4, 0, 1]);
        assert!(lazy.all_done());
        assert_eq!(lazy.units(), eager.units());
        assert_eq!(
            lazy.into_differences().unwrap(),
            eager.into_differences().unwrap()
        );
    }

    #[test]
    fn a_pending_shard_that_never_hears_from_its_server_is_never_built() {
        let counted = Counted::default();
        let mut mux = ClientMux::<Counted>::new(1);
        mux.insert_pending(0);
        mux.insert_pending(1);
        let grant = MuxFrame::new(
            1,
            SHARD_ALL,
            EngineMessage::Request(RangeRequest::new(32, 0).unwrap()),
        );
        mux.book_first_flight(&grant).unwrap();
        let build =
            |_, _: &[&[u8]]| Ok((ClientEngine::new(counted.clone(), &items(0..10)), vec![]));
        // Nothing arrives: nothing is built, and nothing decoded.
        assert!(mux.handle_round_with(&[], 1, build).unwrap().is_empty());
        assert_eq!(
            (mux.pending(), mux.units(), counted.counts()),
            (2, 0, [0, 0, 0])
        );
        assert!(matches!(
            mux.into_differences(),
            Err(EngineError::DecodeIncomplete)
        ));
    }

    #[test]
    fn unsolicited_and_misaddressed_payloads_are_protocol_errors() {
        let backend = RibltBackend::<Item>::new(8, 32);
        let mut mux = ClientMux::new(1);
        mux.insert_shard(0, ClientEngine::new(backend, &items(0..10)));
        let payload =
            |session, shard| MuxFrame::new(session, shard, EngineMessage::Payload(vec![]));
        // Nothing is owed before the opens went out.
        for frame in [payload(1, 0), payload(2, 0), payload(1, 3)] {
            assert!(matches!(mux.handle(&frame), Err(EngineError::Protocol(_))));
        }
    }

    #[test]
    fn mux_frame_roundtrip() {
        for message in [
            EngineMessage::Open(vec![1, 2, 3]),
            EngineMessage::Payload(vec![0; 100]),
            EngineMessage::Request(RangeRequest {
                offset: 0x0102_0304,
                count: 0x0506,
            }),
            EngineMessage::Query(Vec::new()),
            EngineMessage::Done,
        ] {
            let frame = MuxFrame::new(0xdead_beef, 513, message);
            let bytes = frame.to_bytes();
            assert_eq!(bytes.len(), frame.wire_size());
            assert_eq!(MuxFrame::from_bytes(&bytes).unwrap(), frame);
        }
        // A payload staged in place is the frame `append_frame` stages.
        for payload in [Vec::new(), vec![7; 300]] {
            let mut framed = vec![9];
            let frame = MuxFrame::new(0xdead_beef, 513, EngineMessage::Payload(payload.clone()));
            crate::append_frame(&mut framed, &frame.to_bytes()).unwrap();
            let mut staged = vec![9];
            MuxFrame::append_payload(&mut staged, 0xdead_beef, 513, &payload).unwrap();
            assert_eq!(staged, framed);
        }
    }

    #[test]
    fn corrupt_and_truncated_mux_frames_never_panic() {
        let frame = MuxFrame::new(3, 2, EngineMessage::Payload(vec![9; 64]));
        let bytes = frame.to_bytes();
        // Every truncation point.
        for cut in 0..bytes.len() {
            let _ = MuxFrame::from_bytes(&bytes[..cut]);
        }
        // Random garbage of every small length, plus random corruptions.
        let mut gen = SplitMix64::new(0x5e55_10f1);
        for len in 0..64usize {
            let mut garbage = vec![0u8; len];
            gen.fill_bytes(&mut garbage);
            let _ = MuxFrame::from_bytes(&garbage);
            let _ = EngineMessage::from_frame(&garbage);
        }
        for _ in 0..500 {
            let mut corrupted = bytes.clone();
            let pos = (gen.next_u64() as usize) % corrupted.len();
            corrupted[pos] ^= (gen.next_u64() % 255) as u8 + 1;
            let _ = MuxFrame::from_bytes(&corrupted);
        }
    }

    #[test]
    fn server_rejects_unknown_session_and_duplicate_open() {
        let backend = RibltBackend::<Item>::new(8, 4);
        let server_items = items(0..100);
        let backend_for_server = backend.clone();
        let mut server = ServerMux::new(move |_s, _sh| {
            ServerEngine::new(backend_for_server.clone(), &server_items)
        });
        let range = RangeRequest {
            offset: 4,
            count: 8,
        };
        let request = MuxFrame::new(1, 0, EngineMessage::Request(range));
        assert!(matches!(
            server.handle(&request),
            Err(EngineError::Protocol(_))
        ));
        let mut client = ClientEngine::new(backend, &items(0..100));
        let open = MuxFrame::new(1, 0, client.open());
        assert_eq!(server.handle(&open).unwrap().len(), 1);
        assert!(matches!(
            server.handle(&open),
            Err(EngineError::Protocol(_))
        ));
        // The range that continues the stream: two 4-symbol tiles.
        assert_eq!(server.handle(&request).unwrap().len(), 2);
        // Replaying it is not: a per-session encoder only moves forward.
        assert!(matches!(
            server.handle(&request),
            Err(EngineError::Protocol(_))
        ));
        // Done retires; a second Done is harmless.
        let done = MuxFrame::new(1, 0, EngineMessage::Done);
        assert!(server.handle(&done).unwrap().is_empty());
        assert!(server.handle(&done).unwrap().is_empty());
        assert_eq!(server.active_sessions(), 0);
        assert!(matches!(
            server.handle(&request),
            Err(EngineError::Protocol(_))
        ));
    }
}

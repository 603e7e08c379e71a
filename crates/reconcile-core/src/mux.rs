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
//! * [`ClientMux`] — the stream client's half of one session, built from
//!   the grant that answered its wildcard `Open` ([`SHARD_ALL`]). It drives
//!   every shard round by round: it absorbs a round's payloads (independent
//!   shards in parallel on a `std::thread` worker pool, each shard built
//!   over its first round's payloads and consumed into its difference as
//!   soon as it decodes), then turns the streaming flow's "keep pushing"
//!   into explicit range requests (on a shared link the server must not
//!   push unprompted) sized by [`crate::window`] from the estimate its
//!   decoders pool.
//!
//! The serving half is `cluster::Responder` in the daemon. The library's
//! reference server, `netsim::ServerMux`, serves the same frames from one
//! engine per `(session, shard)`.

use riblt::{DifferenceEstimate, SetDifference};

use crate::backend::{Absorbed, Progress, ReconcileBackend};
use crate::engine::{EngineMessage, ShardEndpoint};
use crate::error::{EngineError, Result};
use crate::framing::{LENGTH_PREFIX_BYTES, MAX_FRAME_BYTES};
use crate::shard::{SessionId, ShardId, SHARD_ALL};
use crate::window::next_requests;

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

#[derive(Debug)]
struct ShardClient<B: ReconcileBackend> {
    endpoint: ShardEndpoint<B>,
    /// Payload frames the server still owes this shard.
    awaiting: usize,
    /// Stream symbols asked for so far.
    requested: usize,
    /// The decoder's latest sketch of the difference.
    estimate: DifferenceEstimate,
}

impl<B: ReconcileBackend> ShardClient<B> {
    /// Absorbs this round's payloads in arrival order and returns `Done` if
    /// the shard completed. A pending shard is built by `build` over them,
    /// which absorbs them as it builds; a shard that completes is consumed
    /// into its difference at once ([`ShardEndpoint::absorb`]). Payloads
    /// that arrive after the shard completed are the unused tail of a
    /// range: counted off, not absorbed.
    fn absorb_round(
        &mut self,
        shard: ShardId,
        payloads: &[&[u8]],
        build: &impl Fn(ShardId, &[&[u8]]) -> Result<(B, B::Client, Vec<Absorbed>)>,
    ) -> Result<Option<EngineMessage>> {
        let absorbed = self
            .endpoint
            .absorb(payloads, |first| build(shard, first))?;
        let mut reply = None;
        for absorbed in absorbed {
            match absorbed.progress {
                Progress::Complete => reply = Some(EngineMessage::Done),
                Progress::AwaitStream(stream) => self.estimate = stream.estimate,
                Progress::SendRequest(_) => {
                    return Err(EngineError::Protocol("a stream client sends no queries"))
                }
            }
        }
        Ok(reply)
    }
}

/// Client-side multiplexer: one session's shards, opened together by one
/// wildcard `Open` ([`SHARD_ALL`], with a count sketch) and the server's
/// grant.
///
/// Every shard starts pending: the round that brings its first payloads
/// builds it. A shard that decodes is consumed into its difference at once:
/// a one-shot driver that absorbs on one thread holds one shard's endpoint
/// at a time, as long as each shard decodes within the round that built it.
#[derive(Debug)]
pub struct ClientMux<B: ReconcileBackend> {
    session: SessionId,
    /// The server's payload size in stream symbols.
    tile: usize,
    unit_budget: usize,
    shards: Vec<ShardClient<B>>,
}

impl<B: ReconcileBackend> ClientMux<B> {
    /// The client of `session` on a server of `shards` shards, whose one
    /// wildcard `Open` left before it knew the shard count, and so before
    /// this multiplexer existed. The server answered it with `grant` ahead
    /// of the payloads ([`crate::first_flight`]): a range request addressed
    /// to [`SHARD_ALL`] naming `[tile, symbols)`. Every shard is registered
    /// pending and owed `[0, symbols)` in `tile`-symbol payloads, which it
    /// has asked for, so its window goes on from there.
    ///
    /// `unit_budget` caps the stream symbols requested per shard. The cap
    /// is applied when a request is sized, so a shard that cannot decode (a
    /// mis-matched mapping parameter, say) fails after receiving less than
    /// `unit_budget` plus one tile, or its first flight if that was more:
    /// one wedged shard never gets to spend the others' allowance. It fails
    /// with what its backend says ([`ShardEndpoint::give_up`]):
    /// [`EngineError::CollidingItems`] for two items with one keyed hash,
    /// else [`EngineError::DecodeIncomplete`]. The
    /// first flight is the server's to size, so the cap does not bound it;
    /// a grant past it is booked all the same (its payloads are on their
    /// way) and leaves the shard nothing more to ask.
    pub fn new(
        session: SessionId,
        shards: u16,
        grant: &MuxFrame,
        unit_budget: usize,
    ) -> Result<Self> {
        let range = match grant {
            MuxFrame {
                session: to,
                shard: SHARD_ALL,
                message: EngineMessage::Request(range),
            } if *to == session => *range,
            _ => return Err(EngineError::Protocol("expected the first flight's grant")),
        };
        let (tile, rest) = (range.offset as usize, usize::from(range.count));
        if tile == 0 || rest % tile != 0 {
            return Err(EngineError::Protocol("a grant of no whole tiles"));
        }
        let shards = (0..shards)
            .map(|_| ShardClient {
                endpoint: ShardEndpoint::Pending,
                awaiting: 1 + rest / tile,
                requested: tile + rest,
                estimate: DifferenceEstimate::default(),
            })
            .collect();
        Ok(ClientMux {
            session,
            tile,
            unit_budget,
            shards,
        })
    }

    /// True once every shard has completed.
    pub fn all_done(&self) -> bool {
        self.shards.iter().all(|sc| sc.endpoint.is_done())
    }

    /// Shards whose endpoint is not built yet.
    pub fn pending(&self) -> usize {
        let pending = |sc: &&ShardClient<B>| matches!(sc.endpoint, ShardEndpoint::Pending);
        self.shards.iter().filter(pending).count()
    }

    /// Payload frames the server still owes this session: how many frames a
    /// stream driver must read before the next [`Self::handle_round`].
    pub fn awaiting(&self) -> usize {
        self.shards.iter().map(|sc| sc.awaiting).sum()
    }

    /// Total scheme units consumed across all shards.
    pub fn units(&self) -> usize {
        self.shards.iter().map(|sc| sc.endpoint.units()).sum()
    }

    /// Handles one round of payload frames and returns the client's next
    /// frames: `Done` for shards that completed, and range `Request`s for
    /// every shard that is owed nothing more.
    ///
    /// The round is checked whole before any of it is absorbed: a frame for
    /// another session or an unknown shard, a frame that is not a payload,
    /// or more payloads than a shard is owed fails it with
    /// [`EngineError::Protocol`] and absorbs nothing. A shard's frames are
    /// absorbed in arrival order; distinct shards decode independently, so
    /// they are fanned out over up to `threads` `std::thread` workers (0 =
    /// one per available core) — the hot half of sharded reconciliation. A
    /// pending shard is built by `build` on the thread that absorbs its
    /// first payload, over that payload and the ones behind it in the round,
    /// which the build absorbs: `build` returns the backend and what its
    /// [`ReconcileBackend::build_client_keyed`] returned. A shard that
    /// completes is consumed into its difference there too. A backend that
    /// asks for an interactive query fails the round: this client speaks
    /// only the streaming flow.
    pub fn handle_round<F>(
        &mut self,
        frames: &[MuxFrame],
        threads: usize,
        build: F,
    ) -> Result<Vec<MuxFrame>>
    where
        B: Send,
        B::Client: Send,
        B::Item: Send,
        F: Fn(ShardId, &[&[u8]]) -> Result<(B, B::Client, Vec<Absorbed>)> + Sync,
    {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            threads => threads,
        };
        let session = self.session;
        let mut by_shard: Vec<Vec<&[u8]>> = vec![Vec::new(); self.shards.len()];
        for frame in frames {
            if frame.session != session {
                return Err(EngineError::Protocol("frame for another session"));
            }
            let list = by_shard
                .get_mut(usize::from(frame.shard))
                .ok_or(EngineError::Protocol("frame for unknown shard"))?;
            match &frame.message {
                EngineMessage::Payload(payload) => list.push(payload),
                _ => return Err(EngineError::Protocol("client expects payloads")),
            }
        }
        if by_shard
            .iter()
            .zip(&self.shards)
            .any(|(list, sc)| list.len() > sc.awaiting)
        {
            return Err(EngineError::Protocol("unsolicited payload"));
        }
        let mut work: Vec<_> = self
            .shards
            .iter_mut()
            .zip(by_shard)
            .enumerate()
            .filter(|(_, (_, list))| !list.is_empty())
            .map(|(idx, (sc, list))| {
                sc.awaiting -= list.len();
                (idx as ShardId, sc, list)
            })
            .collect();

        let build = &build;
        let absorb = |(shard, sc, list): &mut (ShardId, &mut ShardClient<B>, Vec<&[u8]>)| {
            Ok(sc
                .absorb_round(*shard, list, build)?
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

    /// Appends the range requests of every shard that is neither done nor
    /// owed payloads, sized by [`crate::window`] from the estimate pooled
    /// over all shards: shards are a uniform hash split of one difference,
    /// so the pooled mean is a better estimate of each shard's share than
    /// its own few cells.
    fn request_ranges(&mut self, out: &mut Vec<MuxFrame>) -> Result<()> {
        let mut pooled = DifferenceEstimate::default();
        for sc in &self.shards {
            pooled.merge(&sc.estimate);
        }
        for (shard, sc) in self.shards.iter_mut().enumerate() {
            if sc.endpoint.is_done() || sc.awaiting > 0 {
                continue;
            }
            let ranges =
                match next_requests(sc.requested, self.tile, pooled.mean(), self.unit_budget) {
                    // At its budget: the shard's backend says why it stopped.
                    Err(EngineError::DecodeIncomplete) => return Err(sc.endpoint.give_up()),
                    ranges => ranges?,
                };
            for range in ranges {
                let range = range?;
                let count = usize::from(range.count);
                out.push(MuxFrame::new(
                    self.session,
                    shard as ShardId,
                    EngineMessage::Request(range),
                ));
                sc.requested += count;
                sc.awaiting += count / self.tile;
            }
        }
        Ok(())
    }

    /// Consumes the multiplexer, returning the recovered difference of every
    /// shard (index = shard id).
    pub fn into_differences(self) -> Result<Vec<SetDifference<B::Item>>> {
        self.shards
            .into_iter()
            .map(|sc| sc.endpoint.into_difference())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::RibltBackend;
    use crate::engine::RangeRequest;
    use riblt::FixedBytes;
    use riblt_hash::SplitMix64;

    type Item = FixedBytes<8>;

    /// The grant of one `tile`-symbol tile a shard, for session 1.
    fn one_tile(tile: u32) -> MuxFrame {
        let range = RangeRequest {
            offset: tile,
            count: 0,
        };
        MuxFrame::new(1, SHARD_ALL, EngineMessage::Request(range))
    }

    /// A grant the client refuses, and the error it names: no mux is built.
    fn refuses_grant(grant: MuxFrame, error: &'static str) {
        let refused = ClientMux::<RibltBackend<Item>>::new(1, 4, &grant, usize::MAX);
        assert!(
            matches!(refused, Err(EngineError::Protocol(said)) if said == error),
            "{grant:?}"
        );
    }

    #[test]
    fn a_grant_for_another_session_builds_no_mux() {
        let grant = MuxFrame {
            session: 2,
            ..one_tile(32)
        };
        refuses_grant(grant, "expected the first flight's grant");
    }

    #[test]
    fn a_grant_addressed_to_one_shard_builds_no_mux() {
        let grant = MuxFrame {
            shard: 0,
            ..one_tile(32)
        };
        refuses_grant(grant, "expected the first flight's grant");
    }

    #[test]
    fn a_grant_that_is_not_a_request_builds_no_mux() {
        for message in [
            EngineMessage::Payload(Vec::new()),
            EngineMessage::Open(Vec::new()),
            EngineMessage::Done,
        ] {
            let grant = MuxFrame::new(1, SHARD_ALL, message);
            refuses_grant(grant, "expected the first flight's grant");
        }
    }

    #[test]
    fn a_grant_of_tile_zero_builds_no_mux() {
        refuses_grant(one_tile(0), "a grant of no whole tiles");
    }

    #[test]
    fn a_grant_of_a_partial_tile_builds_no_mux() {
        let range = RangeRequest {
            offset: 32,
            count: 48,
        };
        let grant = MuxFrame::new(1, SHARD_ALL, EngineMessage::Request(range));
        refuses_grant(grant, "a grant of no whole tiles");
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
}

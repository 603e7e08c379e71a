//! The messages of a reconciliation session, and where one shard's client
//! stands in it.
//!
//! [`EngineMessage`] is what the two endpoints of a session exchange, as
//! opaque byte frames, so the transport (the daemon's sockets, a datagram
//! link, an in-memory loop) only moves bytes; [`RangeRequest`] is the
//! streaming flow's one request. [`ShardEndpoint`] is one shard's client in
//! the stream client ([`crate::ClientMux`]) and the datagram client. The
//! point-to-point engines that compare every scheme under one protocol
//! (`ServerEngine`, `ClientEngine`, `run_in_memory`) are evaluation
//! machinery and live in `netsim`, beside the reference server.

use riblt::SetDifference;

use crate::backend::{absorb_until_complete, Absorbed, Progress, ReconcileBackend};
use crate::error::{EngineError, Result};

/// A stateless request for coded symbols `[offset, offset + count)` of one
/// stream — the single request vocabulary of both transports (the datagram
/// path carries the same two fields in its header and payload).
///
/// Servers serve whole tiles of their batch size, so a range must be
/// tile-aligned; a `k`-tile request is answered by `k` payloads in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeRequest {
    /// Stream offset of the first symbol wanted.
    pub offset: u32,
    /// Symbols wanted.
    pub count: u16,
}

impl RangeRequest {
    /// Encoded size: `offset` u32 LE, `count` u16 LE.
    pub const WIRE_BYTES: usize = 6;

    /// Most symbols one request may name. Bounds what a server stages for
    /// a single frame it has read (512 default tiles, ≈0.7 MB of 32-byte
    /// symbols); clients split larger wants into several requests, which
    /// still travel in one round.
    pub const MAX_COUNT: usize = 1 << 14;

    /// The request for `[offset, offset + count)`, if the wire can carry it.
    pub fn new(offset: usize, count: usize) -> Result<RangeRequest> {
        match (u32::try_from(offset), u16::try_from(count)) {
            (Ok(offset), Ok(count)) => Ok(RangeRequest { offset, count }),
            _ => Err(EngineError::Protocol("range exceeds the wire's u32 + u16")),
        }
    }

    /// Most symbols one request for `tile`-symbol payloads may name: the
    /// whole tiles within [`Self::MAX_COUNT`].
    pub fn largest_count(tile: usize) -> usize {
        (Self::MAX_COUNT / tile).max(1) * tile
    }

    /// Serializes the request body.
    pub fn to_bytes(self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        out[..4].copy_from_slice(&self.offset.to_le_bytes());
        out[4..].copy_from_slice(&self.count.to_le_bytes());
        out
    }

    /// Inverse of [`Self::to_bytes`]; any other length is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<RangeRequest> {
        let bytes: &[u8; Self::WIRE_BYTES] = bytes
            .try_into()
            .map_err(|_| EngineError::WireFormat("bad range request"))?;
        Ok(RangeRequest {
            offset: u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            count: u16::from_le_bytes([bytes[4], bytes[5]]),
        })
    }

    /// Checks the range against a server that serves `tile`-symbol payloads
    /// and at most `limit` symbols per stream, returning how many tiles it
    /// names. Computed in `u64`, so no offset/count pair can wrap.
    pub fn tiles(self, tile: usize, limit: usize) -> Result<usize> {
        let (offset, count) = (u64::from(self.offset), u64::from(self.count));
        let tile = tile as u64;
        if count == 0 {
            return Err(EngineError::Protocol("empty range request"));
        }
        if count > Self::MAX_COUNT as u64 {
            return Err(EngineError::Protocol("range request exceeds the count cap"));
        }
        if offset % tile != 0 || count % tile != 0 {
            return Err(EngineError::Protocol("range request is not tile-aligned"));
        }
        if offset + count > limit as u64 {
            return Err(EngineError::Protocol(
                "range request exceeds the unit budget",
            ));
        }
        Ok((count / tile) as usize)
    }
}

/// Messages exchanged between the two engine endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineMessage {
    /// Client → server: opening request; answered by the first payload.
    Open(Vec<u8>),
    /// Server → client: one coded payload.
    Payload(Vec<u8>),
    /// Client → server, streaming flow: serve this range of the stream.
    ///
    /// In a point-to-point conversation a streaming server just keeps
    /// pushing; on a *multiplexed* link (many interleaved sessions sharing
    /// one transport, see [`crate::mux`]) the server cannot know which
    /// sessions still want data or how much, so the client turns
    /// [`Progress::AwaitStream`] into an explicit range.
    Request(RangeRequest),
    /// Client → server, interactive flow: a backend-defined follow-up
    /// request ([`Progress::SendRequest`]), answered by one payload.
    Query(Vec<u8>),
    /// Client → server: reconciliation finished, stop serving.
    Done,
}

impl EngineMessage {
    /// Size of the message on the wire: payload plus a 1-byte tag.
    pub fn wire_size(&self) -> usize {
        match self {
            EngineMessage::Open(b) | EngineMessage::Payload(b) | EngineMessage::Query(b) => {
                b.len() + 1
            }
            EngineMessage::Request(_) => RangeRequest::WIRE_BYTES + 1,
            EngineMessage::Done => 1,
        }
    }

    /// Serializes the message as a self-describing frame (1-byte tag +
    /// payload), for transports that move raw byte frames (TCP, pipes).
    /// Tag 4 was protocol version 1's `Continue` and stays retired.
    pub fn to_frame(&self) -> Vec<u8> {
        let range;
        let (tag, payload) = match self {
            EngineMessage::Open(b) => (0u8, b.as_slice()),
            EngineMessage::Payload(b) => (1, b.as_slice()),
            EngineMessage::Request(r) => {
                range = r.to_bytes();
                (2, &range[..])
            }
            EngineMessage::Done => (3, &[][..]),
            EngineMessage::Query(b) => (5, b.as_slice()),
        };
        let mut out = Vec::with_capacity(1 + payload.len());
        out.push(tag);
        out.extend_from_slice(payload);
        out
    }

    /// Inverse of [`Self::to_frame`].
    pub fn from_frame(frame: &[u8]) -> Result<EngineMessage> {
        let (&tag, payload) = frame
            .split_first()
            .ok_or(EngineError::WireFormat("empty frame"))?;
        Ok(match tag {
            0 => EngineMessage::Open(payload.to_vec()),
            1 => EngineMessage::Payload(payload.to_vec()),
            2 => EngineMessage::Request(RangeRequest::from_bytes(payload)?),
            3 if payload.is_empty() => EngineMessage::Done,
            5 => EngineMessage::Query(payload.to_vec()),
            _ => return Err(EngineError::WireFormat("unknown frame tag")),
        })
    }
}

/// Where one shard's client endpoint stands in a driver that builds it when
/// its first payloads arrive and consumes it the moment it decodes, as the
/// stream client's [`crate::ClientMux`] and the datagram client do.
pub enum ShardEndpoint<B: ReconcileBackend> {
    /// Not built yet: its first payloads build it ([`Self::absorb`]).
    Pending,
    /// Absorbing payloads: the backend and the client it built.
    Live(B, B::Client),
    /// Decoded, and the client consumed at once, so its window is freed:
    /// the difference, and the scheme units the client had consumed.
    Finished(SetDifference<B::Item>, usize),
}

impl<B: ReconcileBackend> ShardEndpoint<B> {
    /// Absorbs `payloads` in order and returns what the endpoint made of
    /// each, up to the one that completed it, which consumes the client
    /// into its difference. A pending endpoint is built over them by
    /// `build` (the backend, and what its
    /// [`ReconcileBackend::build_client_keyed`] returned); a finished one
    /// absorbs nothing, and no payload builds nothing. An error while
    /// building or absorbing leaves the endpoint as it was: a pending one
    /// pending, a live one live with the payloads before the failing one
    /// absorbed.
    pub fn absorb(
        &mut self,
        payloads: &[&[u8]],
        build: impl FnOnce(&[&[u8]]) -> Result<(B, B::Client, Vec<Absorbed>)>,
    ) -> Result<Vec<Absorbed>> {
        let absorbed = match self {
            ShardEndpoint::Pending if !payloads.is_empty() => {
                let (backend, client, absorbed) = build(payloads)?;
                *self = ShardEndpoint::Live(backend, client);
                absorbed
            }
            ShardEndpoint::Live(backend, client) => {
                absorb_until_complete(backend, client, payloads)?
            }
            _ => return Ok(Vec::new()),
        };
        if absorbed
            .last()
            .is_some_and(|last| last.progress == Progress::Complete)
        {
            if let ShardEndpoint::Live(backend, client) =
                std::mem::replace(self, ShardEndpoint::Pending)
            {
                let units = backend.units(&client);
                *self = ShardEndpoint::Finished(backend.into_difference(client)?, units);
            }
        }
        Ok(absorbed)
    }

    /// True once the endpoint decoded.
    pub fn is_done(&self) -> bool {
        matches!(self, ShardEndpoint::Finished(..))
    }

    /// Scheme units consumed so far (none while pending).
    pub fn units(&self) -> usize {
        match self {
            ShardEndpoint::Pending => 0,
            ShardEndpoint::Live(backend, client) => backend.units(client),
            ShardEndpoint::Finished(_, units) => *units,
        }
    }

    /// The recovered difference of a finished endpoint. A live one never
    /// decoded, and its backend says why ([`EngineError::CollidingItems`],
    /// say); a pending one, and a backend with nothing to say, read
    /// [`EngineError::DecodeIncomplete`].
    pub fn into_difference(self) -> Result<SetDifference<B::Item>> {
        match self {
            ShardEndpoint::Finished(difference, _) => Ok(difference),
            ShardEndpoint::Live(backend, client) => Err(backend
                .into_difference(client)
                .err()
                .unwrap_or(EngineError::DecodeIncomplete)),
            ShardEndpoint::Pending => Err(EngineError::DecodeIncomplete),
        }
    }

    /// Gives up on an endpoint that has not decoded, at its driver's unit
    /// budget: why it did not ([`Self::into_difference`]'s error), with the
    /// endpoint left pending.
    pub fn give_up(&mut self) -> EngineError {
        std::mem::replace(self, ShardEndpoint::Pending)
            .into_difference()
            .err()
            .unwrap_or(EngineError::DecodeIncomplete)
    }
}

impl<B: ReconcileBackend> std::fmt::Debug for ShardEndpoint<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShardEndpoint::Pending => "Pending",
            ShardEndpoint::Live(..) => "Live",
            ShardEndpoint::Finished(..) => "Finished",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::RibltBackend;
    use riblt::{FixedBytes, Symbol};

    #[test]
    fn range_request_roundtrips_and_rejects_other_lengths() {
        let range = RangeRequest {
            offset: 0xdead_bee0,
            count: 4_096,
        };
        assert_eq!(RangeRequest::from_bytes(&range.to_bytes()).unwrap(), range);
        for len in [0, 5, 7, 8] {
            assert!(RangeRequest::from_bytes(&vec![0u8; len]).is_err());
        }
        // Tag 4 (v1's Continue) is gone for good.
        assert!(EngineMessage::from_frame(&[4]).is_err());
    }

    #[test]
    fn tiles_accepts_exactly_the_aligned_ranges_within_bounds() {
        let range = |offset, count| RangeRequest { offset, count };
        assert_eq!(range(0, 32).tiles(32, 1 << 20).unwrap(), 1);
        assert_eq!(range(64, 96).tiles(32, 160).unwrap(), 3);
        assert_eq!(
            range(0, RangeRequest::MAX_COUNT as u16)
                .tiles(32, 1 << 20)
                .unwrap(),
            RangeRequest::MAX_COUNT / 32
        );
        for hostile in [
            range(32, 0),                                  // empty
            range(0, RangeRequest::MAX_COUNT as u16 + 32), // over the cap
            range(16, 32),                                 // unaligned offset
            range(32, 48),                                 // unaligned count
            range(64, 128),                                // ends past the limit
            range(u32::MAX - 31, 64),                      // would wrap a u32
        ] {
            assert!(
                matches!(hostile.tiles(32, 160), Err(EngineError::Protocol(_))),
                "{hostile:?}"
            );
        }
    }

    #[test]
    fn a_failed_absorb_leaves_the_endpoint_as_it_was() {
        type Item = FixedBytes<8>;
        let backend = RibltBackend::<Item>::new(8, 16);
        let local: Vec<Item> = (100..3_000).map(Item::from_u64).collect();
        let hashes = Item::hash_many_with(&local, backend.key);
        let members: Vec<u32> = (0..local.len() as u32).collect();
        let build = |first: &[&[u8]]| {
            let (client, absorbed) =
                backend.build_client_keyed(&local, &hashes, &members, first)?;
            Ok((backend.clone(), client, absorbed))
        };
        let server_items: Vec<Item> = (0..3_000).map(Item::from_u64).collect();
        let mut server = backend.build_server(&server_items);
        let tiles: Vec<Vec<u8>> = (0..2)
            .map(|_| backend.serve(&mut server, None).unwrap())
            .collect();

        // A pending endpoint whose build fails stays pending.
        let mut endpoint = ShardEndpoint::Pending;
        let truncated = &tiles[0][..tiles[0].len() / 2];
        assert!(endpoint.absorb(&[truncated], build).is_err());
        assert!(matches!(endpoint, ShardEndpoint::Pending));

        // A live one keeps its decoder and what it took in: a tile out of
        // sequence is refused, and the next one still continues the stream.
        endpoint.absorb(&[&tiles[0]], build).unwrap();
        let units = endpoint.units();
        assert_eq!(units, 16);
        let refused = endpoint.absorb(&[&tiles[0]], |_| unreachable!("built already"));
        assert_eq!(
            refused,
            Err(EngineError::Protocol("payload out of sequence"))
        );
        assert!(matches!(endpoint, ShardEndpoint::Live(..)));
        assert_eq!(endpoint.units(), units);
        endpoint
            .absorb(&[&tiles[1]], |_| unreachable!("built already"))
            .unwrap();
        assert_eq!(endpoint.units(), units + 16);
    }
}

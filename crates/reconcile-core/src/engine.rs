//! The transport-agnostic session engine.
//!
//! [`ClientEngine`] and [`ServerEngine`] wrap one endpoint of a
//! reconciliation conversation over any [`ReconcileBackend`]; they exchange
//! opaque [`EngineMessage`]s, so the transport (an in-memory loop, the
//! deterministic network emulator, a real TCP socket) only moves bytes.
//! [`run_in_memory`] drives a complete conversation without a transport and
//! is what the cross-backend conformance suite and the byte-accounting
//! experiments use.

use riblt::SetDifference;

use crate::backend::{Progress, ReconcileBackend};
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

/// The serving endpoint (reference set) of a session.
#[derive(Debug)]
pub struct ServerEngine<B: ReconcileBackend> {
    backend: B,
    server: B::Server,
    finished: bool,
}

impl<B: ReconcileBackend> ServerEngine<B> {
    /// Creates a server endpoint over `items`.
    pub fn new(backend: B, items: &[B::Item]) -> Self {
        let server = backend.build_server(items);
        ServerEngine {
            backend,
            server,
            finished: false,
        }
    }

    /// True once the client has signalled completion.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Handles one client message, returning the payloads to send back, in
    /// order: one for `Open` and `Query`, one per tile for a range
    /// `Request`, none for [`EngineMessage::Done`].
    pub fn handle(&mut self, message: &EngineMessage) -> Result<Vec<EngineMessage>> {
        if self.finished && *message != EngineMessage::Done {
            return Err(EngineError::Protocol("request after completion"));
        }
        match message {
            EngineMessage::Open(req) | EngineMessage::Query(req) => {
                let payload = self.backend.serve(&mut self.server, Some(req))?;
                Ok(vec![EngineMessage::Payload(payload)])
            }
            EngineMessage::Request(range) => Ok(self
                .backend
                .serve_range(&mut self.server, *range)?
                .into_iter()
                .map(EngineMessage::Payload)
                .collect()),
            EngineMessage::Done => {
                self.finished = true;
                Ok(Vec::new())
            }
            EngineMessage::Payload(_) => Err(EngineError::Protocol(
                "server received a server-side payload",
            )),
        }
    }

    /// Produces the next unprompted payload (streaming backends only; called
    /// while the client keeps answering [`Progress::AwaitStream`]).
    pub fn next_payload(&mut self) -> Result<EngineMessage> {
        if self.finished {
            return Err(EngineError::Protocol("stream after completion"));
        }
        let payload = self.backend.serve(&mut self.server, None)?;
        Ok(EngineMessage::Payload(payload))
    }
}

/// The decoding endpoint (local set) of a session.
#[derive(Debug)]
pub struct ClientEngine<B: ReconcileBackend> {
    backend: B,
    client: B::Client,
    done: bool,
}

impl<B: ReconcileBackend> ClientEngine<B> {
    /// Creates a client endpoint over `items`.
    pub fn new(backend: B, items: &[B::Item]) -> Self {
        let client = backend.build_client(items);
        Self::over(backend, client)
    }

    /// Creates a client endpoint over the `members` of `items` (positions
    /// into it), given every item's keyed hash; see
    /// [`ReconcileBackend::build_client_keyed`].
    pub fn new_keyed(backend: B, items: &[B::Item], hashes: &[u64], members: &[u32]) -> Self {
        let client = backend.build_client_keyed(items, hashes, members);
        Self::over(backend, client)
    }

    fn over(backend: B, client: B::Client) -> Self {
        ClientEngine {
            backend,
            client,
            done: false,
        }
    }

    /// The opening message to send to the server.
    pub fn open(&mut self) -> EngineMessage {
        EngineMessage::Open(self.backend.open_request(&mut self.client))
    }

    /// Ingests one server payload and reports what the backend wants next.
    pub fn absorb(&mut self, message: &EngineMessage) -> Result<Progress> {
        let payload = match message {
            EngineMessage::Payload(p) => p,
            _ => return Err(EngineError::Protocol("client expects payloads")),
        };
        if self.done {
            return Err(EngineError::Protocol("payload after completion"));
        }
        let progress = self.backend.absorb(&mut self.client, payload)?;
        self.done = progress == Progress::Complete;
        Ok(progress)
    }

    /// Handles one server payload of a point-to-point conversation.
    /// Returns the message to send back: `Some(Done)` on completion,
    /// `Some(Query(..))` for interactive backends, `None` when a streaming
    /// server should just keep pushing.
    pub fn handle(&mut self, message: &EngineMessage) -> Result<Option<EngineMessage>> {
        Ok(match self.absorb(message)? {
            Progress::Complete => Some(EngineMessage::Done),
            Progress::SendRequest(req) => Some(EngineMessage::Query(req)),
            Progress::AwaitStream(_) => None,
        })
    }

    /// True once the difference has been fully recovered.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Scheme units consumed so far.
    pub fn units(&self) -> usize {
        self.backend.units(&self.client)
    }

    /// Consumes the endpoint, returning the recovered difference.
    pub fn into_difference(self) -> Result<SetDifference<B::Item>> {
        self.backend.into_difference(self.client)
    }
}

/// Outcome of an in-memory session.
#[derive(Debug, Clone)]
pub struct RunReport<S> {
    /// The recovered symmetric difference.
    pub difference: SetDifference<S>,
    /// Scheme units the client consumed (coded symbols, cells, syndromes).
    pub units: usize,
    /// Server → client payload messages delivered.
    pub payloads: usize,
    /// Client → server request messages (the opening request included).
    pub rounds: usize,
    /// Bytes sent server → client (payloads, tags included).
    pub bytes_to_client: usize,
    /// Bytes sent client → server (requests and the final Done).
    pub bytes_to_server: usize,
}

/// Runs a complete session in memory: the client opens, the server answers
/// (and streams, for rateless backends), until the client completes or
/// `max_payloads` payloads have been delivered.
pub fn run_in_memory<B>(
    backend: B,
    server_items: &[B::Item],
    client_items: &[B::Item],
    max_payloads: usize,
) -> Result<RunReport<B::Item>>
where
    B: ReconcileBackend + Clone,
{
    let mut server = ServerEngine::new(backend.clone(), server_items);
    let mut client = ClientEngine::new(backend, client_items);

    let mut bytes_to_server = 0usize;
    let mut bytes_to_client = 0usize;
    let mut payloads = 0usize;
    let mut rounds = 1usize;

    let open = client.open();
    bytes_to_server += open.wire_size();
    let mut pending = server.handle(&open)?.pop();

    while payloads < max_payloads {
        let payload = pending
            .take()
            .ok_or(EngineError::Protocol("server stopped before completion"))?;
        bytes_to_client += payload.wire_size();
        payloads += 1;
        match client.handle(&payload)? {
            Some(reply @ EngineMessage::Done) => {
                bytes_to_server += reply.wire_size();
                server.handle(&reply)?;
                break;
            }
            Some(reply) => {
                bytes_to_server += reply.wire_size();
                rounds += 1;
                pending = server.handle(&reply)?.pop();
            }
            None => {
                pending = Some(server.next_payload()?);
            }
        }
    }

    if !client.is_done() {
        return Err(EngineError::DecodeIncomplete);
    }
    let units = client.units();
    Ok(RunReport {
        difference: client.into_difference()?,
        units,
        payloads,
        rounds,
        bytes_to_client,
        bytes_to_server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

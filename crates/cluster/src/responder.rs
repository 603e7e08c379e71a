//! The serving half of the protocol, without the I/O. One [`Responder`]
//! serves one conversation — a `reconciled` connection, a cluster pair
//! exchange — and is the same object on both: handed the client's frames
//! after the handshake one at a time, it stages the replies, length-prefixed,
//! straight into the caller's write buffer and reports what it did
//! ([`Served`]). It reads what it serves through [`Tiles`]: a [`Node`]'s
//! encoded tiles ([`Node::serve_tile`]), taken directly or, in the daemon,
//! under the node's lock.
//!
//! An `Open` of one shard earns the stream's first tile. An `Open` of
//! [`SHARD_ALL`], once and first, earns a grant and every shard's first
//! flight, sized by [`FirstFlight::for_sketch`] from the count sketch it
//! carries, one shard per call ([`Responder::open_next_shard`]) so that the
//! caller can pause between shards. A `Request` earns one payload per tile
//! of its range, checked in full first ([`RangeRequest::tiles`]), so a
//! hostile range costs a typed error, never memory. A `Done` retires the
//! stream. Anything else is a typed error, and the end of the conversation.
//!
//! **Bytes staged per byte received.** No frame stages more than a sketched
//! wildcard open: [`RangeRequest::largest_count`] symbols a shard (or the
//! unit budget). At the daemon's defaults (8 shards, 32-symbol tiles) and
//! 32-byte items, a 277-byte open whose sketch puts every count in one
//! bucket stages 5,464,053 bytes, ≈ 19,700 bytes per byte received (pinned
//! by this module's tests). The reactor checks `max_write_buffer` between
//! the shards of a wildcard open, so one connection holds at most one
//! shard's first flight (≈ 683 KB here) past it before it stops being
//! served.

use std::collections::HashMap;
use std::sync::Arc;

use reconcile_core::backends::RIBLT_STREAM_MAGIC;
use reconcile_core::wirefmt::validate_stream_open;
use reconcile_core::{
    append_frame, CountSketch, EngineError, EngineMessage, FirstFlight, MuxFrame, RangeRequest,
    Result, SessionId, ShardId, LENGTH_PREFIX_BYTES, SHARD_ALL,
};
use riblt::Symbol;

use crate::node::Node;

/// What a [`Responder`] serves from.
pub trait Tiles {
    /// Calls `read` with the count sketch of the whole served set.
    fn with_count_sketch<R>(&self, read: impl FnOnce(&CountSketch) -> R) -> R;

    /// The coded symbols `[offset, offset + count)` of `shard`'s stream, as
    /// [`Node::encode_tile`] encodes them, shared with every other reader of
    /// the same tile ([`Node::serve_tile`]).
    fn tile(&mut self, shard: ShardId, offset: usize, count: usize) -> Arc<[u8]>;
}

impl<S: Symbol + Ord> Tiles for Node<S> {
    fn with_count_sketch<R>(&self, read: impl FnOnce(&CountSketch) -> R) -> R {
        read(self.count_sketch())
    }

    fn tile(&mut self, shard: ShardId, offset: usize, count: usize) -> Arc<[u8]> {
        self.serve_tile(shard, offset, count).0
    }
}

/// What one call of a [`Responder`] did, for the caller's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Served {
    /// Bytes of the client's frame, length prefix included.
    pub bytes_in: u64,
    /// Bytes staged, length prefixes included.
    pub bytes_out: u64,
    /// Streams opened.
    pub opened: usize,
    /// The stream a `Done` retired, and the symbols served on it.
    pub completed: Option<(SessionId, ShardId, usize)>,
    /// A wildcard open's session and first flight.
    pub first_flight: Option<(SessionId, FirstFlight)>,
}

/// The server side of one conversation after its handshake (see the module
/// docs).
#[derive(Debug)]
pub struct Responder {
    shards: u16,
    symbol_len: usize,
    tile: usize,
    /// Symbols a stream may be served: the unit budget, but at least the
    /// first tile.
    limit: usize,
    /// The open streams and the symbols served on each (accounting only:
    /// every request names its own range).
    served: HashMap<(SessionId, ShardId), usize>,
    /// A wildcard open being expanded: its session, the next shard it opens
    /// and the symbols of each shard's first flight.
    wildcard: Option<(SessionId, ShardId, usize)>,
    /// Whether a stream was ever opened: a wildcard open must come first.
    opened: bool,
}

impl Responder {
    /// A responder for `shards` shards of `symbol_len`-byte items that
    /// serves `tile`-symbol payloads and at most `unit_budget` symbols a
    /// stream (a stream's first tile is always served).
    ///
    /// # Panics
    /// If `tile` is 0.
    pub fn new(shards: u16, symbol_len: usize, tile: usize, unit_budget: usize) -> Self {
        assert!(tile > 0, "a tile holds at least one symbol");
        Responder {
            shards,
            symbol_len,
            tile,
            limit: unit_budget.max(tile),
            served: HashMap::new(),
            wildcard: None,
            opened: false,
        }
    }

    /// Handles one client frame (its bytes after the length prefix),
    /// appending the replies it calls for to `out`.
    pub fn handle(
        &mut self,
        frame: &[u8],
        tiles: &mut impl Tiles,
        out: &mut Vec<u8>,
    ) -> Result<Served> {
        let frame = MuxFrame::from_bytes(frame)?;
        let (session, key, staged) = (frame.session, (frame.session, frame.shard), out.len());
        let mut served = Served {
            bytes_in: (LENGTH_PREFIX_BYTES + frame.wire_size()) as u64,
            ..Served::default()
        };
        match frame.message {
            EngineMessage::Open(open) => {
                let sketch = validate_stream_open(&open, RIBLT_STREAM_MAGIC, self.symbol_len)?;
                if frame.shard != SHARD_ALL {
                    self.open(key, self.tile, tiles, out)?;
                    served.opened = 1;
                } else if self.opened {
                    return Err(EngineError::Protocol("wildcard open after another open"));
                } else {
                    let (shards, tile, limit) = (self.shards, self.tile, self.limit);
                    let flight = tiles.with_count_sketch(|own| {
                        FirstFlight::for_sketch(sketch, own, shards, tile, limit)
                    })?;
                    if let Some(grant) = flight.grant {
                        let grant =
                            MuxFrame::new(session, SHARD_ALL, EngineMessage::Request(grant));
                        append_frame(out, &grant.to_bytes())?;
                    }
                    self.wildcard = Some((session, 0, flight.symbols));
                    served.first_flight = Some((session, flight));
                    self.open_next_shard(tiles, out)?;
                    served.opened = 1;
                }
            }
            _ if frame.shard == SHARD_ALL => {
                return Err(EngineError::Protocol(
                    "only an open may address every shard",
                ))
            }
            EngineMessage::Request(range) => self.serve(key, range, tiles, out)?,
            // Duplicate Dones are harmless, as they are to `ServerMux`.
            EngineMessage::Done => {
                served.completed = self.served.remove(&key).map(|n| (key.0, key.1, n));
            }
            EngineMessage::Payload(_) | EngineMessage::Query(_) => {
                return Err(EngineError::Protocol(
                    "client sent a server-side or interactive frame",
                ))
            }
        }
        served.bytes_out = (out.len() - staged) as u64;
        Ok(served)
    }

    /// Opens the next shard of a wildcard open, if it has one left: what a
    /// per-shard `Open` of that shard does, with the wildcard's first flight
    /// in place of the first tile. Call it until it returns `None` before
    /// handing over the next frame.
    pub fn open_next_shard(
        &mut self,
        tiles: &mut impl Tiles,
        out: &mut Vec<u8>,
    ) -> Result<Option<Served>> {
        let Some((session, shard, symbols)) = self.wildcard else {
            return Ok(None);
        };
        self.wildcard = (shard + 1 < self.shards).then_some((session, shard + 1, symbols));
        let staged = out.len();
        self.open((session, shard), symbols, tiles, out)?;
        let bytes_out = (out.len() - staged) as u64;
        Ok(Some(Served {
            bytes_out,
            opened: 1,
            ..Served::default()
        }))
    }

    /// Opens the stream `key` and stages its first `symbols` (whole tiles).
    fn open(
        &mut self,
        key: (SessionId, ShardId),
        symbols: usize,
        tiles: &mut impl Tiles,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if key.1 >= self.shards {
            return Err(EngineError::Protocol("shard out of range"));
        }
        if self.served.contains_key(&key) {
            return Err(EngineError::Protocol("duplicate open for session/shard"));
        }
        self.served.insert(key, 0);
        self.opened = true;
        self.serve(key, RangeRequest::new(0, symbols)?, tiles, out)
    }

    /// Stages one payload frame per tile of `range` of the open stream
    /// `key`: all of them, or none and an error.
    fn serve(
        &mut self,
        (session, shard): (SessionId, ShardId),
        range: RangeRequest,
        tiles: &mut impl Tiles,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let Some(served) = self.served.get_mut(&(session, shard)) else {
            return Err(EngineError::Protocol("request for unknown session/shard"));
        };
        let count = range.tiles(self.tile, self.limit)?;
        let staged = out.len();
        for offset in (range.offset as usize..).step_by(self.tile).take(count) {
            let payload = tiles.tile(shard, offset, self.tile);
            if let Err(e) = MuxFrame::append_payload(out, session, shard, &payload) {
                out.truncate(staged);
                return Err(e.into());
            }
        }
        *served += count * self.tile;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use reconcile_core::wirefmt::encode_stream_open;
    use reconcile_core::{read_mux_frame, MUX_HEADER_BYTES};
    use riblt::FixedBytes;
    use riblt_hash::SplitMix64;

    type Item = FixedBytes<32>;

    /// The daemon's defaults: 8 shards of 32-symbol tiles, 32-byte items.
    const SHARDS: u16 = 8;
    const TILE: usize = 32;
    const BUDGET: usize = 1 << 20;

    fn node(items: usize) -> Node<Item> {
        let mut rng = SplitMix64::new(0x7e5b);
        let mut node = Node::new(0, NodeConfig::new(SHARDS, 32));
        node.extend((0..items).map(|_| {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            Item::from(bytes)
        }));
        node
    }

    fn open_frame(shard: ShardId, sketch: Option<&CountSketch>) -> Vec<u8> {
        let mut body = encode_stream_open(RIBLT_STREAM_MAGIC, 32);
        if let Some(sketch) = sketch {
            sketch.encode(&mut body);
        }
        MuxFrame::new(1, shard, EngineMessage::Open(body)).to_bytes()
    }

    /// Hands `frame` to `responder`, then expands a wildcard open to the
    /// end, as the reactor does when nothing pauses it.
    fn handle_all(
        responder: &mut Responder,
        node: &mut Node<Item>,
        frame: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<Served> {
        let mut served = responder.handle(frame, node, out)?;
        while let Some(next) = responder.open_next_shard(node, out)? {
            served.opened += next.opened;
            served.bytes_out += next.bytes_out;
        }
        Ok(served)
    }

    #[test]
    fn one_open_stages_at_most_every_shards_largest_request() {
        // Every item of the client's sketch in one bucket: an estimate far
        // past what any first flight may hold, from a sketch no larger than
        // a real 20,000-item client's.
        let mut node = node(20_000);
        let sketch = CountSketch::from_hashes(&[0; 8_000]);
        let open = open_frame(SHARD_ALL, Some(&sketch));
        let mut responder = Responder::new(SHARDS, 32, TILE, BUDGET);
        let mut out = Vec::new();
        let served = handle_all(&mut responder, &mut node, &open, &mut out).unwrap();

        let largest = RangeRequest::largest_count(TILE);
        let mut staged = &out[..];
        let grant = read_mux_frame(&mut staged).unwrap();
        let granted = RangeRequest::new(TILE, largest - TILE).unwrap();
        assert_eq!(
            grant,
            MuxFrame::new(1, SHARD_ALL, EngineMessage::Request(granted))
        );
        let mut symbols = vec![0; usize::from(SHARDS)];
        while !staged.is_empty() {
            let frame = read_mux_frame(&mut staged).unwrap();
            assert!(matches!(frame.message, EngineMessage::Payload(_)));
            symbols[usize::from(frame.shard)] += TILE;
        }
        assert_eq!(symbols, vec![largest; usize::from(SHARDS)]);

        // The bound the module docs state, in bytes.
        let received = LENGTH_PREFIX_BYTES + open.len();
        assert_eq!(received, 277);
        assert_eq!(served.bytes_in, received as u64);
        assert_eq!(served.bytes_out, out.len() as u64);
        assert_eq!(served.opened, usize::from(SHARDS));
        assert_eq!(out.len(), 5_464_053);
        assert_eq!(out.len() / received, 19_725);
        let (_, flight) = served.first_flight.unwrap();
        assert_eq!((flight.symbols, flight.grant), (largest, Some(granted)));
        // One shard's flight: the most a pause between shards lets through.
        let per_shard = (out.len() - (LENGTH_PREFIX_BYTES + MUX_HEADER_BYTES + 7)) / 8;
        assert!((680_000..700_000).contains(&per_shard), "{per_shard}");
    }

    #[test]
    fn every_stream_is_opened_once_served_in_range_and_retired() {
        let mut node = node(2_000);
        let mut responder = Responder::new(SHARDS, 32, TILE, 256);
        let mut out = Vec::new();
        let request = |shard, offset, count| {
            let range = RangeRequest::new(offset, count).unwrap();
            MuxFrame::new(1, shard, EngineMessage::Request(range)).to_bytes()
        };
        let done = |shard| MuxFrame::new(1, shard, EngineMessage::Done).to_bytes();

        let served = responder
            .handle(&open_frame(3, None), &mut node, &mut out)
            .unwrap();
        assert_eq!(served.opened, 1);
        let served = responder
            .handle(&request(3, 32, 64), &mut node, &mut out)
            .unwrap();
        assert_eq!(served.opened, 0);
        // The same cells the node encodes, one frame per tile.
        let mut staged = &out[..];
        for offset in [0, 32, 64] {
            let frame = read_mux_frame(&mut staged).unwrap();
            let tile = node.encode_tile(3, offset, TILE);
            assert_eq!(frame, MuxFrame::new(1, 3, EngineMessage::Payload(tile)));
        }
        assert!(staged.is_empty());

        let refused = [
            (open_frame(3, None), "duplicate open for session/shard"),
            (
                open_frame(SHARD_ALL, None),
                "wildcard open after another open",
            ),
            (open_frame(SHARDS, None), "shard out of range"),
            (request(2, 32, 32), "request for unknown session/shard"),
            (request(3, 256, 32), "range request exceeds the unit budget"),
            (request(3, 40, 32), "range request is not tile-aligned"),
        ];
        for (frame, error) in refused {
            let before = out.len();
            let err = responder.handle(&frame, &mut node, &mut out).unwrap_err();
            assert_eq!(err, EngineError::Protocol(error));
            assert_eq!(out.len(), before, "{error}: staged on an error");
        }

        let served = responder.handle(&done(3), &mut node, &mut out).unwrap();
        assert_eq!(served.completed, Some((1, 3, 96)));
        // Retired: a second Done is harmless, a request is not.
        let served = responder.handle(&done(3), &mut node, &mut out).unwrap();
        assert_eq!(served.completed, None);
        assert!(responder
            .handle(&request(3, 96, 32), &mut node, &mut out)
            .is_err());
    }
}

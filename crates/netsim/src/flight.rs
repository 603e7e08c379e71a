//! An in-memory `Read + Write` link to a server with no clock, and the
//! library's own server on the far side of it.
//!
//! [`FlightLink`] is what a test dials instead of a socket when it wants
//! the exact bytes of a conversation, or the number of round trips it took,
//! without a thread, a port or a timing assumption. [`library_server`] puts
//! the reference server behind it: `server_handshake`, then a [`ServerMux`]
//! of one streaming [`ServerEngine`] per shard that sizes wildcard opens'
//! first flights with
//! [`FirstFlight::for_sketch`](reconcile_core::FirstFlight::for_sketch).
//! That server shares the wire format with the `reconciled` daemon and
//! nothing else (no `Node`, no sketch cache, no reactor), which is what
//! makes a byte-for-byte comparison of the two worth running.
//!
//! `reconcile-core` compiles this file into its own unit tests as well (its
//! handshake tests talk to this server), so it uses nothing of `netsim` and
//! reaches the library through `reconcile_core::` paths only.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use reconcile_core::backends::RibltBackend;
use reconcile_core::handshake::{server_handshake, Hello};
use reconcile_core::{
    append_frame, CountSketch, EngineError, FrameBuffer, MuxFrame, ServerEngine, ServerMux,
    ShardPartitioner,
};
use riblt::Symbol;

/// A server on the far side of a link with no clock: the client's writes
/// pile up until it blocks on a read with nothing left to read, and only
/// then are they delivered and answered. Every such turn from writing to
/// waiting is one flight, i.e. one round trip on a real link, however slow.
///
/// `serve` is the server: handed one flight's bytes, it appends what it
/// says back. An `Err` means it hung up after saying it, and the client
/// reads end-of-stream from then on. So does a client that waits with
/// nothing in flight: on a real link it would wait for ever, here its test
/// fails instead of hanging.
pub struct FlightLink {
    serve: Box<Serve>,
    unsent: Vec<u8>,
    unread: VecDeque<u8>,
    /// Why the server hung up, once it has.
    pub hung_up: Option<EngineError>,
    /// Turns from writing to waiting so far.
    pub flights: usize,
    /// `write` calls the client made.
    pub writes: usize,
    /// Everything the client wrote.
    pub sent: Vec<u8>,
    /// Everything the server said, read or not.
    pub received: Vec<u8>,
}

/// A server: one flight's bytes in, its answer appended.
type Serve = dyn FnMut(&[u8], &mut Vec<u8>) -> reconcile_core::Result<()>;

impl FlightLink {
    /// A link to `serve`.
    pub fn new(
        serve: impl FnMut(&[u8], &mut Vec<u8>) -> reconcile_core::Result<()> + 'static,
    ) -> Self {
        FlightLink {
            serve: Box::new(serve),
            unsent: Vec::new(),
            unread: VecDeque::new(),
            hung_up: None,
            flights: 0,
            writes: 0,
            sent: Vec::new(),
            received: Vec::new(),
        }
    }
}

impl Read for FlightLink {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.unread.is_empty() && !self.unsent.is_empty() && self.hung_up.is_none() {
            self.flights += 1;
            let mut replies = Vec::new();
            let flight = std::mem::take(&mut self.unsent);
            self.hung_up = (self.serve)(&flight, &mut replies).err();
            self.received.extend_from_slice(&replies);
            self.unread.extend(replies);
        }
        self.unread.read(buf)
    }
}

impl Write for FlightLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.unsent.extend_from_slice(buf);
        self.sent.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One flight's bytes in, the server's answer out: the duplex
/// `server_handshake` runs over.
struct Duplex<'i, 'o> {
    from_client: &'i [u8],
    to_client: &'o mut Vec<u8>,
}

impl Read for Duplex<'_, '_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.from_client.read(buf)
    }
}

impl Write for Duplex<'_, '_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.to_client.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A link to the library's server over `items`: [`server_handshake`]
/// announcing `hello`, then a [`ServerMux`] serving shard `i` of
/// `hello.shards` from a [`ServerEngine`] over the items the backend's key
/// places there, and sizing wildcard opens' first flights from the count
/// sketch of `items`, the backend's tile and at most `unit_budget` symbols
/// a stream — the daemon's `max_units_per_session`. A hello it refuses, a
/// frame it cannot parse or a request its engines reject ends the
/// conversation the way a server ends one: whatever it had said, then
/// end-of-stream.
pub fn library_server<S: Symbol + 'static>(
    backend: RibltBackend<S>,
    items: &[S],
    hello: Hello,
    unit_budget: usize,
) -> FlightLink {
    let key = backend.key;
    let parts = ShardPartitioner::new(key, hello.shards).partition(items);
    let own = CountSketch::from_hashes(&S::hash_many_with(items, key));
    let tile = backend.batch_symbols;
    let mut mux = ServerMux::new(move |_session, shard| {
        ServerEngine::new(backend.clone(), &parts[usize::from(shard)])
    })
    .serving_shards(hello.shards, own, tile, unit_budget);
    let mut inbound = FrameBuffer::new();
    let mut greeted = false;
    FlightLink::new(move |mut flight: &[u8], out: &mut Vec<u8>| {
        if !greeted {
            let mut duplex = Duplex {
                from_client: flight,
                to_client: &mut *out,
            };
            server_handshake(&mut duplex, &hello)?;
            // The handshake read the hello and nothing past it.
            flight = duplex.from_client;
            greeted = true;
        }
        inbound.push_bytes(flight);
        while let Some(frame) = inbound.next_frame()? {
            for reply in mux.handle(&MuxFrame::from_bytes(&frame)?)? {
                append_frame(out, &reply.to_bytes())?;
            }
        }
        Ok(())
    })
}

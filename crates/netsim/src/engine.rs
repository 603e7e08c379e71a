//! The point-to-point session engine: one endpoint of a reconciliation
//! conversation over any [`ReconcileBackend`].
//!
//! [`ClientEngine`] and [`ServerEngine`] wrap one endpoint each; they
//! exchange opaque [`EngineMessage`]s, so the transport (an in-memory loop,
//! the deterministic network emulator, a real TCP socket) only moves bytes.
//! [`run_in_memory`] drives a complete conversation without a transport and
//! is what the cross-backend conformance suite and the byte-accounting
//! experiments use. [`crate::ServerMux`] serves many such conversations over
//! one link, and [`crate::library_server`] puts it behind a handshake.
//!
//! This is evaluation machinery: it compares every sketch family under one
//! protocol. The daemon serves through `cluster::Responder` and the shipped
//! client is `reconcile_core::sync_sharded_tcp`; neither runs this code.

use reconcile_core::{EngineError, EngineMessage, Progress, ReconcileBackend, Result};
use riblt::SetDifference;

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

/// The decoding endpoint (local set) of a point-to-point session
/// ([`run_in_memory`]).
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

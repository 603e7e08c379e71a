//! The [`ReconcileBackend`] trait: one interface over every
//! set-reconciliation scheme in the workspace.
//!
//! A reconciliation conversation has two endpoints. The **server** holds the
//! reference set (Alice / the up-to-date replica) and produces coded
//! payloads; the **client** holds the local set (Bob / the stale replica),
//! ingests payloads, reports decode completion, and finally emits the
//! recovered [`SetDifference`]. The trait splits the schemes into two flows
//! that the session engine treats uniformly:
//!
//! * **Rateless streaming** (Rateless IBLT, Irregular Rateless IBLT): the
//!   client answers [`Progress::AwaitStream`] until its decoder completes.
//!   On a dedicated link the server just keeps pushing payloads unprompted
//!   ([`ReconcileBackend::serve`] with no request); on a multiplexed one the
//!   client names the range of the stream it wants next
//!   ([`ReconcileBackend::serve_range`]), sized from the
//!   [`StreamProgress`] its decoders report.
//! * **Fixed-size / interactive** (regular IBLT + strata estimator,
//!   MET-IBLT, PinSketch, Merkle-trie heal): every payload answers one
//!   client request, and the client's [`Progress::SendRequest`] carries the
//!   next request (a bigger table, the next extension block, a doubled
//!   sketch capacity, the next batch of trie nodes, …).
//!
//! Implementations live in [`crate::backends`] for the sketch families and
//! in `statesync` for the trie-heal baseline (which needs ledger-specific
//! keying).

use riblt::{DifferenceEstimate, SetDifference};

use crate::engine::RangeRequest;
use crate::error::{EngineError, Result};

/// Where a streaming client stands after ingesting a payload: everything a
/// session driver needs to size its next range request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamProgress {
    /// The decoder's sketch of the whole difference's size (no observations
    /// for schemes that have none; drivers then ask one batch at a time).
    pub estimate: DifferenceEstimate,
}

/// What the client wants after ingesting one server payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Progress {
    /// Streaming flow: the decoder needs more of the stream.
    AwaitStream(StreamProgress),
    /// Interactive flow: send this request to the server and await its
    /// reply.
    SendRequest(Vec<u8>),
    /// The difference has been fully recovered; the conversation is over.
    Complete,
}

/// One payload absorbed while a client was built
/// ([`ReconcileBackend::build_client_keyed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Absorbed {
    /// What [`ReconcileBackend::absorb`] reported for the payload.
    pub progress: Progress,
    /// [`ReconcileBackend::units`] of the client after the payload.
    pub units: usize,
}

/// [`ReconcileBackend::absorb`]s `payloads` into `client` in order, up to
/// the one that completes it.
pub(crate) fn absorb_until_complete<B: ReconcileBackend + ?Sized>(
    backend: &B,
    client: &mut B::Client,
    payloads: &[&[u8]],
) -> Result<Vec<Absorbed>> {
    let mut absorbed = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let progress = backend.absorb(client, payload)?;
        let complete = progress == Progress::Complete;
        absorbed.push(Absorbed {
            progress,
            units: backend.units(client),
        });
        if complete {
            break;
        }
    }
    Ok(absorbed)
}

/// A pluggable set-reconciliation scheme.
///
/// The backend value itself is the scheme *configuration* (symbol length,
/// batch size, keys, capacity ladders); per-conversation state lives in the
/// associated [`Self::Server`] and [`Self::Client`] types so one backend can
/// drive many concurrent sessions.
pub trait ReconcileBackend {
    /// The item type being reconciled.
    type Item: Clone;
    /// Server-side (reference set) conversation state.
    type Server;
    /// Client-side (local set) conversation state.
    type Client;

    /// Short scheme name for reports and CSV columns.
    fn name(&self) -> &'static str;

    /// Builds the server endpoint over the reference set.
    fn build_server(&self, items: &[Self::Item]) -> Self::Server;

    /// Builds the client endpoint over the local set.
    fn build_client(&self, items: &[Self::Item]) -> Self::Client;

    /// Builds the client endpoint over part of a larger set, in place, and
    /// absorbs `first` into it: the payloads of the client's first round,
    /// in arrival order. The local set is `items[m]` for each `m` of
    /// `members`, in that order, and `hashes[i]` must be `items[i]`'s hash
    /// under the backend's key. This is what a sharded driver holds once it
    /// has hashed the whole set to place it
    /// ([`ShardPartitioner::group`](crate::ShardPartitioner::group)): one
    /// slice, and per shard a list of positions; and a one-shot driver
    /// builds a shard when its first payloads have arrived.
    ///
    /// Returns the client and what it made of each payload, in order, up to
    /// the one that completed it (a payload after that is not absorbed):
    /// exactly what [`Self::absorb`] would have returned payload by payload.
    /// An error is the one `absorb` would have returned at the payload that
    /// raised it. The default builds the client over the gathered members
    /// (ignoring the hashes) and absorbs the payloads one by one. A backend
    /// that checksums its items with the same hash overrides this to take
    /// each member straight from the caller's slice without hashing it
    /// again, and may take the payloads' cells in one pass instead of
    /// first building the state later payloads need: the cells that
    /// arrived bound what it computes.
    ///
    /// # Panics
    /// If `items` and `hashes` differ in length, or a member is out of
    /// range.
    fn build_client_keyed(
        &self,
        items: &[Self::Item],
        hashes: &[u64],
        members: &[u32],
        first: &[&[u8]],
    ) -> Result<(Self::Client, Vec<Absorbed>)> {
        assert_eq!(items.len(), hashes.len(), "one keyed hash per item");
        let gathered: Vec<Self::Item> =
            members.iter().map(|&m| items[m as usize].clone()).collect();
        let mut client = self.build_client(&gathered);
        let absorbed = absorb_until_complete(self, &mut client, first)?;
        Ok((client, absorbed))
    }

    /// The client's opening request (may carry an estimator, a capacity
    /// guess, or just a protocol header).
    fn open_request(&self, client: &mut Self::Client) -> Vec<u8>;

    /// Produces the next server payload. `request` is `Some` for the opening
    /// request and every interactive follow-up, `None` when a streaming
    /// backend is pushing unprompted.
    fn serve(&self, server: &mut Self::Server, request: Option<&[u8]>) -> Result<Vec<u8>>;

    /// Serves a range of a streaming backend's coded symbols as whole
    /// payloads of the backend's batch size, in order — the multiplexed
    /// flow's answer to a range request. The range must be batch-aligned,
    /// and a per-session encoder only serves the range that continues its
    /// stream. Interactive backends keep the default, which refuses.
    fn serve_range(
        &self,
        _server: &mut Self::Server,
        _range: RangeRequest,
    ) -> Result<Vec<Vec<u8>>> {
        Err(EngineError::Protocol("backend does not stream ranges"))
    }

    /// Ingests one server payload into the client and reports progress.
    fn absorb(&self, client: &mut Self::Client, payload: &[u8]) -> Result<Progress>;

    /// Scheme units the client has consumed so far (coded symbols, cells,
    /// syndromes, trie nodes) — the `units_transferred` metric of the
    /// experiments.
    fn units(&self, client: &Self::Client) -> usize;

    /// Consumes the client and returns the recovered difference
    /// (`remote_only` = items only the server has, `local_only` = items only
    /// the client has).
    // `into_` refers to the consumed *client* state (mirroring
    // `Decoder::into_difference`), not the backend configuration.
    #[allow(clippy::wrong_self_convention)]
    fn into_difference(&self, client: Self::Client) -> Result<SetDifference<Self::Item>>;

    /// Calibrated extra CPU seconds to charge the server for answering
    /// `request` with `response` (beyond measured wall time). Used by the
    /// virtual-clock experiments; defaults to zero.
    fn serve_overhead_s(&self, _request: Option<&[u8]>, _response: &[u8]) -> f64 {
        0.0
    }

    /// Calibrated extra CPU seconds to charge the client for ingesting
    /// `payload`. Defaults to zero.
    fn absorb_overhead_s(&self, _payload: &[u8]) -> f64 {
        0.0
    }
}

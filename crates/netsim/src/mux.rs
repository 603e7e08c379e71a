//! The library's server multiplexer: one [`ServerEngine`] per
//! `(session, shard)` behind one link.
//!
//! [`ServerMux`] routes incoming [`MuxFrame`]s to per-`(session, shard)`
//! engines, creating them on `Open` through a caller-supplied factory and
//! retiring them on `Done`. An `Open` addressed to [`SHARD_ALL`] is one
//! `Open` per shard, and with a count sketch behind it also the grant and
//! the first flight [`FirstFlight`] sizes. It accepts an `Open` per shard
//! as well as the wildcard; no client sends one.
//!
//! It is the reference server ([`crate::library_server`]) the `reconciled`
//! daemon's wire output is compared against, and it shares only the wire
//! format with the daemon's `cluster::Responder`. The client half of the
//! protocol, `reconcile_core::ClientMux`, is tested against it here.

use std::collections::HashMap;

use reconcile_core::wirefmt::split_stream_open;
use reconcile_core::{
    CountSketch, EngineError, EngineMessage, FirstFlight, MuxFrame, ReconcileBackend, Result,
    SessionId, ShardId, SHARD_ALL,
};

use crate::engine::ServerEngine;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_in_memory, ClientEngine};
    use reconcile_core::backends::RibltBackend;
    use reconcile_core::{
        Absorbed, ClientMux, Grouping, Progress, RangeRequest, SetDifference, ShardPartitioner,
    };
    use riblt::{FixedBytes, Symbol};
    use riblt_hash::SipKey;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    type Item = FixedBytes<8>;

    fn items(range: std::ops::Range<u64>) -> Vec<Item> {
        range.map(Item::from_u64).collect()
    }

    fn sketch(set: &[Item]) -> CountSketch {
        CountSketch::from_hashes(&Item::hash_many_with(set, SipKey::default()))
    }

    /// The shipped client's opening frame for `session`: one open addressed
    /// to every shard, with the count sketch of `local` behind it.
    fn wildcard(session: SessionId, local: &[Item]) -> MuxFrame {
        let backend = RibltBackend::<Item>::new(8, 32);
        let mut open = backend.open_request(&mut backend.build_client(&[]));
        sketch(local).encode(&mut open);
        MuxFrame::new(session, SHARD_ALL, EngineMessage::Open(open))
    }

    /// The library's server of `server_items` in `shards` shards of
    /// `tile`-symbol payloads, told how to answer a wildcard.
    fn server(
        tile: usize,
        server_items: &[Item],
        shards: u16,
    ) -> ServerMux<
        RibltBackend<Item>,
        impl FnMut(SessionId, ShardId) -> ServerEngine<RibltBackend<Item>>,
    > {
        let backend = RibltBackend::<Item>::new(8, tile);
        let parts = ShardPartitioner::new(SipKey::default(), shards).partition(server_items);
        ServerMux::new(move |_session, shard| {
            ServerEngine::new(backend.clone(), &parts[usize::from(shard)])
        })
        .serving_shards(shards, sketch(server_items), tile, usize::MAX)
    }

    /// A local set placed by shard, as the stream client places it.
    struct Local {
        items: Vec<Item>,
        hashes: Vec<u64>,
        grouping: Grouping,
    }

    impl Local {
        fn new(items: Vec<Item>, shards: u16) -> Self {
            let hashes = Item::hash_many_with(&items, SipKey::default());
            let grouping = ShardPartitioner::new(SipKey::default(), shards).group(&hashes);
            Local {
                items,
                hashes,
                grouping,
            }
        }

        /// What builds a shard over its first payloads: `backend`'s keyed
        /// build over the shard's members.
        #[allow(clippy::type_complexity)]
        fn build<'a, B: ReconcileBackend<Item = Item> + Clone + Sync>(
            &'a self,
            backend: &'a B,
        ) -> impl Fn(ShardId, &[&[u8]]) -> Result<(B, B::Client, Vec<Absorbed>)> + Sync + 'a
        {
            move |shard, first| {
                let members = self.grouping.members(shard);
                let (client, absorbed) =
                    backend.build_client_keyed(&self.items, &self.hashes, members, first)?;
                Ok((backend.clone(), client, absorbed))
            }
        }
    }

    /// Drives `mux` from its first flight until every shard is done, every
    /// round through `server`, and returns the recovered remote items.
    fn drive<F>(
        server: &mut ServerMux<RibltBackend<Item>, F>,
        mux: &mut ClientMux<RibltBackend<Item>>,
        flight: &[MuxFrame],
        threads: usize,
        local: &Local,
        backend: &RibltBackend<Item>,
    ) where
        F: FnMut(SessionId, ShardId) -> ServerEngine<RibltBackend<Item>>,
    {
        assert_eq!(flight.len(), mux.awaiting());
        let build = local.build(backend);
        let mut outgoing = mux.handle_round(flight, threads, &build).unwrap();
        let mut guard = 0;
        while !outgoing.is_empty() {
            guard += 1;
            assert!(guard < 10_000, "failed to converge");
            // Done frames go to the server too: they retire its state and
            // are answered by nothing.
            let payloads: Vec<MuxFrame> = outgoing
                .iter()
                .flat_map(|frame| server.handle(frame).unwrap())
                .collect();
            assert_eq!(payloads.len(), mux.awaiting());
            outgoing = mux.handle_round(&payloads, threads, &build).unwrap();
        }
    }

    /// Drives `sessions` independent sharded conversations to completion
    /// over one simulated ordered transport, interleaving all frames.
    #[test]
    fn many_sessions_interleave_over_one_link() {
        let shards = 4u16;
        let backend = RibltBackend::<Item>::new(8, 8);
        let mut server = server(8, &items(0..2_000), shards);

        // Three peers at different staleness share the link; each mux is
        // built when its session's grant arrives.
        let mut clients = Vec::new();
        for (session, missing) in [(7u32, 3u64), (8, 17), (9, 60)] {
            let local = Local::new(items(missing..2_000), shards);
            clients.push((session, missing, local, None));
        }

        // All opens from all sessions, then strict round-robin over replies:
        // the transport carries bytes; both ends resolve (session, shard).
        let mut wire: Vec<Vec<u8>> = clients
            .iter()
            .map(|(session, _, local, _)| wildcard(*session, &local.items).to_bytes())
            .collect();
        let mut guard = 0;
        while !wire.is_empty() {
            guard += 1;
            assert!(guard < 10_000, "failed to converge");
            let mut next = Vec::new();
            for bytes in &wire {
                let frame = MuxFrame::from_bytes(bytes).unwrap();
                for reply in server.handle(&frame).unwrap() {
                    let reply = MuxFrame::from_bytes(&reply.to_bytes()).unwrap();
                    let (session, _, local, mux) = clients
                        .iter_mut()
                        .find(|(session, ..)| *session == reply.session)
                        .unwrap();
                    let Some(mux) = mux else {
                        *mux = Some(ClientMux::new(*session, shards, &reply, usize::MAX).unwrap());
                        continue;
                    };
                    // A shard asks again only once the last tile it is owed
                    // has arrived, so single-frame delivery is a valid round.
                    let round = std::slice::from_ref(&reply);
                    let replies = mux.handle_round(round, 1, local.build(&backend)).unwrap();
                    next.extend(replies.iter().map(MuxFrame::to_bytes));
                }
            }
            wire = next;
        }

        assert_eq!(server.active_sessions(), 0, "engines retired on Done");
        for (_, missing, _, mux) in clients {
            let mux = mux.expect("every session was granted its first flight");
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
        let backend = RibltBackend::<Item>::new(8, 16);
        let server_items = items(0..3_000);
        let local = Local::new(items(120..3_000), shards);

        let run = |threads: usize| {
            let mut server = server(16, &server_items, shards);
            let mut flight = server.handle(&wildcard(1, &local.items)).unwrap();
            let mut mux = ClientMux::new(1, shards, &flight.remove(0), usize::MAX).unwrap();
            drive(&mut server, &mut mux, &flight, threads, &local, &backend);
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
        // d = 0: every shard's first flight decodes, so the client's whole
        // second flight is four Dones and the server owes nothing.
        let backend = RibltBackend::<Item>::new(8, 32);
        let local = Local::new(items(0..1_000), 4);
        let mut server = server(32, &local.items, 4);
        let mut flight = server.handle(&wildcard(1, &local.items)).unwrap();
        let mut mux = ClientMux::new(1, 4, &flight.remove(0), usize::MAX).unwrap();
        let replies = mux.handle_round(&flight, 1, local.build(&backend)).unwrap();
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
        let server = || {
            ServerMux::new(|_s, shard| {
                ServerEngine::new(backend.clone(), &server_parts[usize::from(shard)])
            })
        };
        let body = backend.open_request(&mut backend.build_client(&[]));
        let opens: Vec<MuxFrame> = (0..4)
            .map(|shard| MuxFrame::new(9, shard, EngineMessage::Open(body.clone())))
            .collect();
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
        let client_items = items(30..1_000);
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

        // A client built from the grant is owed exactly the payloads behind
        // it, and takes them in one round.
        let local = Local::new(client_items, 4);
        let mut mux = ClientMux::new(9, 4, &replies[0], usize::MAX).unwrap();
        assert_eq!(mux.awaiting(), replies.len() - 1);
        mux.handle_round(&replies[1..], 1, local.build(&backend))
            .unwrap();
        assert!(mux.all_done());
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
        let shards = 4u16;
        let partitioner = ShardPartitioner::new(SipKey::default(), shards);
        let (server_items, local) = (items(0..1_000), Local::new(items(30..1_000), shards));
        // The shipped client's opening flight: one sketched wildcard open,
        // answered by the grant and every shard's first flight.
        let mut flight = server(32, &server_items, shards)
            .handle(&wildcard(1, &local.items))
            .unwrap();
        let grant = flight.remove(0);

        let counted = Counted::default();
        let build = local.build(&counted);
        let mut mux = ClientMux::new(1, shards, &grant, usize::MAX).unwrap();
        assert_eq!((mux.pending(), counted.counts()), (4, [0, 0, 0]));
        // A shard whose payloads are not in the round is not built: the
        // first two shards' flights, then the rest.
        let split = flight.iter().position(|f| f.shard == 2).unwrap();
        let replies = [
            mux.handle_round(&flight[..split], 1, &build).unwrap(),
            mux.handle_round(&flight[split..], 1, &build).unwrap(),
        ];
        assert_eq!(mux.pending(), 0);
        assert!(replies.iter().all(
            |round| round.len() == 2 && round.iter().all(|f| f.message == EngineMessage::Done)
        ));
        // Every shard decoded its first flight: one endpoint alive at a time,
        // none once the round is over.
        assert_eq!(counted.counts(), [4, 0, 1]);
        assert!(mux.all_done());

        // The point-to-point reference: each shard's stream, pushed one tile
        // at a time to a client built over its part of the set.
        let (expected, units): (Vec<_>, Vec<_>) = partitioner
            .partition(&server_items)
            .iter()
            .zip(&partitioner.partition(&local.items))
            .map(|(server, client)| {
                let run = run_in_memory(Counted::inner(), server, client, usize::MAX).unwrap();
                (run.difference, run.units)
            })
            .unzip();
        assert_eq!(mux.units(), units.iter().sum::<usize>());
        assert_eq!(mux.into_differences().unwrap(), expected);
    }

    /// The grant of one `tile`-symbol tile a shard, for session 1.
    fn one_tile(tile: u32) -> MuxFrame {
        let range = RangeRequest {
            offset: tile,
            count: 0,
        };
        MuxFrame::new(1, SHARD_ALL, EngineMessage::Request(range))
    }

    #[test]
    fn a_pending_shard_that_never_hears_from_its_server_is_never_built() {
        let counted = Counted::default();
        let local = Local::new(items(0..10), 2);
        let mut mux = ClientMux::<Counted>::new(1, 2, &one_tile(32), usize::MAX).unwrap();
        // Nothing arrives: nothing is built, and nothing decoded.
        let replies = mux.handle_round(&[], 1, local.build(&counted)).unwrap();
        assert!(replies.is_empty());
        assert_eq!(
            (mux.pending(), mux.units(), counted.counts()),
            (2, 0, [0, 0, 0])
        );
        assert!(matches!(
            mux.into_differences(),
            Err(EngineError::DecodeIncomplete)
        ));
    }

    /// A session of four shards one 32-symbol tile into its first flight,
    /// none of them built, and the flight the server sent it.
    fn first_flight() -> (ClientMux<RibltBackend<Item>>, Vec<MuxFrame>, Local) {
        let local = Local::new(items(400..1_400), 4);
        let mut flight = server(32, &items(0..1_000), 4)
            .handle(&wildcard(1, &local.items))
            .unwrap();
        let mux = ClientMux::new(1, 4, &flight.remove(0), usize::MAX).unwrap();
        (mux, flight, local)
    }

    /// A round the client refuses, and the error it names: nothing of the
    /// round is absorbed, and the session still awaits its whole flight.
    fn refuses_round(round: &[MuxFrame], error: &'static str) {
        let (mut mux, flight, local) = first_flight();
        let backend = RibltBackend::<Item>::new(8, 32);
        let refused = mux.handle_round(round, 1, local.build(&backend));
        assert!(
            matches!(refused, Err(EngineError::Protocol(said)) if said == error),
            "{refused:?}"
        );
        assert_eq!(
            (mux.pending(), mux.units(), mux.awaiting()),
            (4, 0, flight.len())
        );
    }

    #[test]
    fn unsolicited_and_misaddressed_payloads_are_protocol_errors() {
        let (_, flight, _) = first_flight();
        // Shard 0's flight and one tile more than it is owed.
        let mut round: Vec<MuxFrame> = flight.iter().filter(|f| f.shard == 0).cloned().collect();
        round.push(round[0].clone());
        refuses_round(&round, "unsolicited payload");
        // The whole flight, one payload of it addressed to another session.
        let mut round = flight.clone();
        round[5].session = 2;
        refuses_round(&round, "frame for another session");
    }

    #[test]
    fn a_frame_for_an_unknown_shard_absorbs_nothing() {
        let (_, mut flight, _) = first_flight();
        flight[7].shard = 4;
        refuses_round(&flight, "frame for unknown shard");
    }

    #[test]
    fn a_frame_that_is_not_a_payload_absorbs_nothing() {
        let (_, mut flight, _) = first_flight();
        flight[7].message = EngineMessage::Done;
        refuses_round(&flight, "client expects payloads");
    }

    /// An interactive backend: it answers every payload with a query, and
    /// takes nothing in.
    #[derive(Clone)]
    struct Asks;

    impl ReconcileBackend for Asks {
        type Item = Item;
        type Server = ();
        type Client = ();

        fn name(&self) -> &'static str {
            "asks"
        }
        fn build_server(&self, _: &[Item]) {}
        fn build_client(&self, _: &[Item]) {}
        fn open_request(&self, _: &mut ()) -> Vec<u8> {
            Vec::new()
        }
        fn serve(&self, _: &mut (), _: Option<&[u8]>) -> Result<Vec<u8>> {
            Ok(Vec::new())
        }
        fn absorb(&self, _: &mut (), _: &[u8]) -> Result<Progress> {
            Ok(Progress::SendRequest(vec![1]))
        }
        fn units(&self, _: &()) -> usize {
            0
        }
        fn into_difference(&self, _: ()) -> Result<SetDifference<Item>> {
            Err(EngineError::DecodeIncomplete)
        }
    }

    #[test]
    fn a_backend_that_asks_a_query_is_a_protocol_error() {
        let local = Local::new(items(0..10), 1);
        let mut mux = ClientMux::<Asks>::new(1, 1, &one_tile(32), usize::MAX).unwrap();
        let payload = MuxFrame::new(1, 0, EngineMessage::Payload(vec![0; 8]));
        let refused = mux.handle_round(&[payload], 1, local.build(&Asks));
        assert!(
            matches!(
                refused,
                Err(EngineError::Protocol("a stream client sends no queries"))
            ),
            "{refused:?}"
        );
        // No query leaves, and no unit was taken in.
        assert_eq!((mux.units(), mux.all_done()), (0, false));
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

//! Pairwise reconciliation between two cluster nodes, held as every other
//! conversation of the protocol is.
//!
//! The initiator is the TCP client's [`ClientMux`] over its own items, and
//! the responder answers from its [`Node`] as the `reconciled` daemon does:
//! one wildcard `Open` ([`SHARD_ALL`]) carries the initiator's
//! [`CountSketch`](reconcile_core::CountSketch), the responder sizes every
//! shard's first flight from it ([`FirstFlight::for_sketch`]) and says how
//! much in a grant frame, and every range is served straight out of the
//! responder's shared per-shard [`riblt::SketchCache`]s, one payload per
//! tile (encode once, serve every peer). What to ask for, what to absorb
//! and when to stop are `ClientMux`'s to decide, as for every client; only
//! how frames cross the [`Topology`] is this module's: each with its
//! length prefix, as on the wire.
//!
//! Time is accounted like the two-replica experiments: bytes move on the
//! virtual-time [`Topology`] links, while real measured serve and absorb
//! CPU is folded into the virtual clocks — the absorb phase contributes its
//! *wall* time, so multi-core speedups show up in completion times.

use std::time::Instant;

use netsim::Topology;
use reconcile_core::backends::{RibltBackend, RIBLT_STREAM_MAGIC};
use reconcile_core::wirefmt::{encode_stream_open, validate_stream_open};
use reconcile_core::{
    ClientMux, EngineError, EngineMessage, FirstFlight, MuxFrame, RangeRequest, Result, SessionId,
    ShardId, ShardPartitioner, LENGTH_PREFIX_BYTES, MUX_HEADER_BYTES, SHARD_ALL,
};
use riblt::wire::SymbolCodec;
use riblt::Symbol;

use crate::node::{Node, NodeConfig};

/// Handles into [`obs::global`] for the pair-sync phases. Registration is
/// idempotent, so fetching them once per exchange costs one short registry
/// lock, and the phase loop below touches only the returned atomics.
struct PhaseMetrics {
    serve_rounds: std::sync::Arc<obs::Histogram>,
    decode_rounds: std::sync::Arc<obs::Histogram>,
    units: std::sync::Arc<obs::Counter>,
}

impl PhaseMetrics {
    fn from_global() -> PhaseMetrics {
        let g = obs::global();
        PhaseMetrics {
            serve_rounds: g.histogram_seconds(
                "cluster_serve_round_seconds",
                "Responder wall time encoding one round of per-shard cache ranges.",
            ),
            decode_rounds: g.histogram_seconds(
                "cluster_decode_round_seconds",
                "Initiator wall time absorbing one round across all shards (includes the worker fan-out).",
            ),
            units: g.counter(
                "cluster_pair_units_total",
                "Coded symbols consumed by pairwise exchanges.",
            ),
        }
    }
}

/// Tuning knobs of one pairwise exchange.
#[derive(Debug, Clone, Copy)]
pub struct PairSyncConfig {
    /// Coded symbols per payload frame (the tile ranges are aligned to).
    pub batch_symbols: usize,
    /// Decode worker threads (0 = one per available core).
    pub threads: usize,
    /// Safety budget: never request past this many coded symbols per shard,
    /// and never send a first flight past it.
    pub max_units_per_shard: usize,
}

impl Default for PairSyncConfig {
    fn default() -> Self {
        PairSyncConfig {
            batch_symbols: 32,
            threads: 0,
            max_units_per_shard: 1 << 20,
        }
    }
}

/// Measured outcome of one pairwise exchange.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Serve rounds until every shard completed: the first flight's and one
    /// per request round after it, so the TCP client's `rounds` plus one.
    pub rounds: usize,
    /// Coded symbols the initiator's decoders consumed (all shards), as the
    /// TCP client counts them: the unused tail of a range is not counted.
    pub units: usize,
    /// Items the initiator learned from the responder.
    pub items_to_initiator: usize,
    /// Items pushed back to the responder.
    pub items_to_responder: usize,
    /// Bytes carried by the link in both directions: every frame with its
    /// 4-byte length prefix, as on the wire, and the item push.
    pub bytes: usize,
    /// Virtual seconds from the opening frame to full application.
    pub virtual_time_s: f64,
    /// Real wall seconds spent in the (parallel) absorb phases.
    pub decode_wall_s: f64,
    /// Real wall seconds the responder spent serving cache ranges.
    pub serve_wall_s: f64,
}

/// Reconciles `nodes[initiator]` with `nodes[responder]` over the topology,
/// starting at virtual time `start`, and applies the differences push-pull
/// (the initiator learns responder-only items, then pushes its own
/// exclusive items back). Both nodes' caches absorb the applied items
/// incrementally, so the next exchange reuses today's encoding work.
///
/// The initiator decodes against its items like every client, not against
/// its own shard caches: its shard clients are built over its set first,
/// untimed like any client's set-up. The responder serves from its caches.
pub fn reconcile_pair<S>(
    nodes: &mut [Node<S>],
    initiator: usize,
    responder: usize,
    topology: &mut Topology,
    config: &PairSyncConfig,
    session: SessionId,
    start: f64,
) -> Result<PairOutcome>
where
    S: Symbol + Ord + Send + Sync,
{
    let [a, b] = nodes
        .get_disjoint_mut([initiator, responder])
        .expect("a node reconciles with another node of the cluster");
    if a.config() != b.config() {
        return Err(EngineError::Protocol(
            "cluster members must share shards/key/symbol_len configuration",
        ));
    }
    let NodeConfig {
        shards,
        key,
        symbol_len,
    } = a.config();
    let (tile, budget) = (config.batch_symbols, config.max_units_per_shard);
    let metrics = PhaseMetrics::from_global();

    // --- Set-up: the initiator's shard clients and its wildcard open. ---
    let backend = RibltBackend::with_key_and_alpha(symbol_len, tile, key, riblt::DEFAULT_ALPHA);
    let items: Vec<S> = a.items().cloned().collect();
    let engines = ShardPartitioner::new(key, shards).client_engines(&items, |_| backend.clone());
    drop(items);
    let mut client = ClientMux::new(session);
    client.set_unit_budget(budget);
    for (shard, engine) in engines.into_iter().enumerate() {
        client.insert_shard(shard as ShardId, engine);
    }
    let mut open = encode_stream_open(RIBLT_STREAM_MAGIC, symbol_len);
    a.count_sketch().encode(&mut open);
    let open = MuxFrame::new(session, SHARD_ALL, EngineMessage::Open(open));

    let bytes_before = topology.total_bytes();
    let (up, down) = ((initiator, responder), (responder, initiator));
    let (mut client_clock, mut server_clock) = (start, start);
    let (mut decode_wall_s, mut serve_wall_s) = (0.0f64, 0.0f64);
    let mut rounds = 0usize;
    let mut asks = cross(topology, up, client_clock, &mut server_clock, vec![open])?;
    loop {
        rounds += 1;
        let t_serve = Instant::now();
        let mut replies = Vec::new();
        for ask in &asks {
            answer(b, ask, tile, budget, &mut replies)?;
        }
        let serve_elapsed = t_serve.elapsed();
        metrics.serve_rounds.observe_duration(serve_elapsed);
        serve_wall_s += serve_elapsed.as_secs_f64();
        server_clock += serve_elapsed.as_secs_f64();

        let mut payloads = cross(topology, down, server_clock, &mut client_clock, replies)?;
        // The grant leads the first flight: how much of every shard it is.
        if let Some(grant) = payloads.first().filter(|frame| frame.shard == SHARD_ALL) {
            client.book_first_flight(grant)?;
            payloads.remove(0);
        }
        let t_decode = Instant::now();
        let next = client.handle_round(&payloads, config.threads)?;
        let decode_elapsed = t_decode.elapsed();
        metrics.decode_rounds.observe_duration(decode_elapsed);
        decode_wall_s += decode_elapsed.as_secs_f64();
        client_clock += decode_elapsed.as_secs_f64();

        asks = cross(topology, up, client_clock, &mut server_clock, next)?;
        if client.awaiting() == 0 {
            break;
        }
    }
    let units = client.units();
    let differences = client.into_differences()?;

    // --- Apply the differences push-pull. ---
    let mut items_to_initiator = 0usize;
    let mut items_to_responder = 0usize;
    for diff in differences {
        // remote_only: items only the responder holds — the pull direction.
        for item in diff.remote_only {
            if a.insert(item) {
                items_to_initiator += 1;
            }
        }
        // local_only: items only the initiator holds — push them back as one
        // item frame per shard (mux header + tag + raw items).
        if !diff.local_only.is_empty() {
            let push_bytes = MUX_HEADER_BYTES + 1 + diff.local_only.len() * symbol_len;
            let arrival = topology.send(initiator, responder, client_clock, push_bytes);
            server_clock = server_clock.max(arrival);
            for item in diff.local_only {
                if b.insert(item) {
                    items_to_responder += 1;
                }
            }
        }
    }

    metrics.units.add(units as u64);
    Ok(PairOutcome {
        rounds,
        units,
        items_to_initiator,
        items_to_responder,
        bytes: topology.total_bytes() - bytes_before,
        virtual_time_s: client_clock.max(server_clock) - start,
        decode_wall_s,
        serve_wall_s,
    })
}

/// Carries `frames` over the `(from, to)` link, all leaving at `sent`, each
/// with its length prefix as on the wire, and returns them as the far side
/// parses them; `far_clock` advances to the last arrival.
fn cross(
    topology: &mut Topology,
    (from, to): (usize, usize),
    sent: f64,
    far_clock: &mut f64,
    frames: Vec<MuxFrame>,
) -> Result<Vec<MuxFrame>> {
    frames
        .iter()
        .map(|frame| {
            let wire = frame.to_bytes();
            let arrival = topology.send(from, to, sent, LENGTH_PREFIX_BYTES + wire.len());
            *far_clock = far_clock.max(arrival);
            MuxFrame::from_bytes(&wire)
        })
        .collect()
}

/// The responder's answer to one of the initiator's frames, as the daemon
/// gives it from its node: the wildcard open is answered by the grant and
/// every shard's first flight, sized against the node's own count sketch
/// for `tile`-symbol payloads and at most `budget` symbols a stream; a
/// range by one payload per tile, a range of the shard's cache in the §6
/// codec; a `Done` by nothing. The initiator's budget bounds what it asks
/// for, so a range is checked for alignment only.
fn answer<S: Symbol + Ord>(
    node: &mut Node<S>,
    frame: &MuxFrame,
    tile: usize,
    budget: usize,
    out: &mut Vec<MuxFrame>,
) -> Result<()> {
    let NodeConfig {
        shards, symbol_len, ..
    } = node.config();
    let ranges = match &frame.message {
        EngineMessage::Open(open) if frame.shard == SHARD_ALL => {
            let sketch = validate_stream_open(open, RIBLT_STREAM_MAGIC, symbol_len)?;
            let own = node.count_sketch();
            let flight = FirstFlight::for_sketch(sketch, own, shards, tile, budget)?;
            out.extend(flight.grant.map(|grant| {
                MuxFrame::new(frame.session, SHARD_ALL, EngineMessage::Request(grant))
            }));
            let first = RangeRequest::new(0, flight.symbols)?;
            (0..shards).map(|shard| (shard, first)).collect()
        }
        EngineMessage::Request(range) if frame.shard < shards => vec![(frame.shard, *range)],
        EngineMessage::Done => Vec::new(),
        _ => return Err(EngineError::Protocol("a frame the responder cannot serve")),
    };
    for (shard, range) in ranges {
        let set_size = node.shard_len(shard) as u64;
        let codec = SymbolCodec::with_alpha(symbol_len, set_size, riblt::DEFAULT_ALPHA);
        let tiles = range.tiles(tile, usize::MAX)?;
        for offset in (range.offset as usize..).step_by(tile).take(tiles) {
            let cells = node.shard_cells(shard, offset, tile);
            let payload = EngineMessage::Payload(codec.encode_batch(cells, offset as u64));
            out.push(MuxFrame::new(frame.session, shard, payload));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkConfig;
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

    fn make_nodes(shards: u16, sets: &[Vec<u64>]) -> Vec<Node<Item>> {
        sets.iter()
            .enumerate()
            .map(|(id, values)| {
                let mut node = Node::new(id, NodeConfig::new(shards, 8));
                for &v in values {
                    node.insert(Item::from_u64(v));
                }
                node
            })
            .collect()
    }

    fn assert_equal_sets(nodes: &[Node<Item>]) {
        let reference: Vec<&Item> = nodes[0].items().collect();
        for node in &nodes[1..] {
            let items: Vec<&Item> = node.items().collect();
            assert_eq!(items, reference, "node {} diverged", node.id());
        }
    }

    #[test]
    fn pair_converges_to_the_union() {
        // Asymmetric difference across 8 shards.
        let a: Vec<u64> = (0..3_000).collect();
        let b: Vec<u64> = (150..3_080).collect();
        let mut nodes = make_nodes(8, &[a, b]);
        let mut topo = Topology::full_mesh(2, LinkConfig::paper_default());
        let outcome = reconcile_pair(
            &mut nodes,
            0,
            1,
            &mut topo,
            &PairSyncConfig::default(),
            1,
            0.0,
        )
        .unwrap();
        assert_eq!(outcome.items_to_initiator, 80);
        assert_eq!(outcome.items_to_responder, 150);
        assert_eq!(nodes[0].len(), 3_080 + 150 - 150);
        assert_equal_sets(&nodes);
        assert!(outcome.units > 0);
        assert!(outcome.bytes > 0);
        assert!(outcome.virtual_time_s > 0.05, "at least propagation delay");
    }

    #[test]
    fn identical_nodes_finish_in_one_round_per_shard() {
        let set: Vec<u64> = (0..2_000).collect();
        let mut nodes = make_nodes(16, &[set.clone(), set]);
        let mut topo = Topology::full_mesh(2, LinkConfig::unlimited());
        let outcome = reconcile_pair(
            &mut nodes,
            0,
            1,
            &mut topo,
            &PairSyncConfig::default(),
            1,
            0.0,
        )
        .unwrap();
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.items_to_initiator, 0);
        assert_eq!(outcome.items_to_responder, 0);
        // One batch per shard, nothing more: each decoder consumes its
        // first cell, which is empty, and is done.
        assert_eq!(outcome.units, 16);
    }

    #[test]
    fn parallel_and_serial_decode_agree() {
        let a: Vec<u64> = (0..4_000).collect();
        let b: Vec<u64> = (300..4_200).collect();
        let serial_cfg = PairSyncConfig {
            threads: 1,
            ..Default::default()
        };
        let parallel_cfg = PairSyncConfig {
            threads: 4,
            ..Default::default()
        };
        let mut result_sets = Vec::new();
        for cfg in [serial_cfg, parallel_cfg] {
            let mut nodes = make_nodes(16, &[a.clone(), b.clone()]);
            let mut topo = Topology::full_mesh(2, LinkConfig::unlimited());
            let outcome = reconcile_pair(&mut nodes, 0, 1, &mut topo, &cfg, 1, 0.0).unwrap();
            assert_equal_sets(&nodes);
            result_sets.push((
                nodes[0].digest(),
                outcome.units,
                outcome.rounds,
                outcome.items_to_initiator,
            ));
        }
        assert_eq!(result_sets[0], result_sets[1]);
    }

    #[test]
    fn mismatched_configurations_are_rejected() {
        let mut nodes = vec![
            Node::<Item>::new(0, NodeConfig::new(8, 8)),
            Node::<Item>::new(1, NodeConfig::new(16, 8)),
        ];
        let mut topo = Topology::full_mesh(2, LinkConfig::unlimited());
        let err = reconcile_pair(
            &mut nodes,
            0,
            1,
            &mut topo,
            &PairSyncConfig::default(),
            1,
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Protocol(_)));
    }

    #[test]
    fn responder_serves_every_session_from_the_same_cells() {
        // Two initiators at different staleness sync against the same
        // responder; its caches are patched only by the items pushed back,
        // never rebuilt (sessions read ranges of one universal sequence).
        let mut nodes = make_nodes(
            4,
            &[
                (0..1_000).collect(),
                (10..1_000).collect(),
                (40..1_000).collect(),
            ],
        );
        let mut topo = Topology::full_mesh(3, LinkConfig::unlimited());
        let cfg = PairSyncConfig::default();
        reconcile_pair(&mut nodes, 1, 0, &mut topo, &cfg, 1, 0.0).unwrap();
        reconcile_pair(&mut nodes, 2, 0, &mut topo, &cfg, 2, 0.0).unwrap();
        assert_equal_sets(&nodes);
        assert_eq!(nodes[2].len(), 1_000);
    }

    #[test]
    fn budget_exhaustion_is_an_error_not_a_hang() {
        // Different keys ⇒ the difference never decodes; config equality
        // catches that, so emulate an undecodable stream with a tiny budget
        // and a large difference instead.
        let a: Vec<u64> = (0..50).collect();
        let b: Vec<u64> = (10_000..14_000).collect();
        let mut nodes = make_nodes(1, &[a, b]);
        let mut topo = Topology::full_mesh(2, LinkConfig::unlimited());
        let cfg = PairSyncConfig {
            batch_symbols: 8,
            max_units_per_shard: 64,
            ..Default::default()
        };
        let err = reconcile_pair(&mut nodes, 0, 1, &mut topo, &cfg, 1, 0.0).unwrap_err();
        assert_eq!(err, EngineError::DecodeIncomplete);
    }
}

//! Session-multiplexed pairwise reconciliation between two cluster nodes.
//!
//! One exchange runs S independent shard sessions over a single link: every
//! frame on the wire is a [`MuxFrame`] tagged with `(session, shard)`, so
//! requests and payloads of all shards interleave freely. The responder
//! serves coded symbols straight out of its shared per-shard
//! [`riblt::SketchCache`]s (requests name their own range, so there is no
//! per-session state — encode once, serve every peer); the initiator
//! subtracts its *own* cache cells and peels each shard's difference
//! independently, fanning the decode work out over a `std::thread` worker
//! pool.
//!
//! The protocol is fully request-driven (the initiator answers every round
//! of payloads with a range `Request` sized by [`reconcile_core::window`],
//! or `Done`), which is what makes interleaving many sessions on one
//! transport deadlock-free.
//!
//! Time is accounted like the two-replica experiments: bytes move on the
//! virtual-time [`Topology`] links, while real measured encode/decode CPU is
//! folded into the virtual clocks — the parallel decode phase contributes
//! its *wall* time, so multi-core speedups show up in completion times.

use std::time::Instant;

use netsim::Topology;
use reconcile_core::window::next_requests;
use reconcile_core::{
    EngineError, EngineMessage, MuxFrame, RangeRequest, Result, SessionId, ShardId,
};
use riblt::wire::SymbolCodec;
use riblt::{CodedSymbol, Decoder, DifferenceEstimate, SetDifference, Symbol};

use crate::node::Node;
use crate::pool::{default_threads, parallel_for_each_observed};

/// Handles into [`obs::global`] for the pair-sync phases. Registration is
/// idempotent, so fetching them once per exchange costs one short registry
/// lock, and the phase loops below touch only the returned atomics.
struct PhaseMetrics {
    serve_rounds: std::sync::Arc<obs::Histogram>,
    decode_rounds: std::sync::Arc<obs::Histogram>,
    decode_shards: std::sync::Arc<obs::Histogram>,
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
                "Initiator wall time absorbing one round across all shards (includes the worker-pool fan-out).",
            ),
            decode_shards: g.histogram_seconds(
                "cluster_decode_shard_seconds",
                "Decode-worker latency for one shard within a round (subtract plus peel).",
            ),
            units: g.counter(
                "cluster_pair_units_total",
                "Coded symbols consumed by pairwise exchanges.",
            ),
        }
    }
}

/// Magic bytes opening every shard session of a cluster exchange.
const OPEN_MAGIC: [u8; 4] = *b"CLS0";

/// Tuning knobs of one pairwise exchange.
#[derive(Debug, Clone, Copy)]
pub struct PairSyncConfig {
    /// Coded symbols per payload frame (the tile ranges are aligned to).
    pub batch_symbols: usize,
    /// Decode worker threads (0 = one per available core).
    pub threads: usize,
    /// Safety budget: never request past this many coded symbols per shard.
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
    /// Request/response rounds until every shard completed.
    pub rounds: usize,
    /// Coded symbols transferred (all shards).
    pub units: usize,
    /// Items the initiator learned from the responder.
    pub items_to_initiator: usize,
    /// Items pushed back to the responder.
    pub items_to_responder: usize,
    /// Bytes carried by the link in both directions (frames and item push).
    pub bytes: usize,
    /// Virtual seconds from the opening frames to full application.
    pub virtual_time_s: f64,
    /// Real wall seconds spent in the (parallel) decode phases.
    pub decode_wall_s: f64,
    /// Real wall seconds the responder spent serving cache ranges.
    pub serve_wall_s: f64,
}

/// Per-shard initiator state, shaped for the worker pool: each round the
/// driver drops in the received payloads and the matching window of the
/// initiator's own cache cells, and a worker subtracts and peels.
///
/// The peel state is an incremental [`Decoder`] with an *empty* local set:
/// the initiator's contribution is already subtracted cell-wise (from its
/// shard cache), so each difference cell streams straight in and peeling
/// work stays linear in the symbols received, never re-run from scratch.
struct ShardState<S: Symbol> {
    shard: ShardId,
    /// Symbols absorbed so far, i.e. the stream offset the next ask starts at.
    received: usize,
    /// This round's asks.
    ranges: Vec<RangeRequest>,
    payloads: Vec<Vec<u8>>,
    own_window: Vec<CodedSymbol<S>>,
    estimate: DifferenceEstimate,
    decoder: Option<Decoder<S>>,
    result: Option<SetDifference<S>>,
    error: Option<EngineError>,
}

fn pair_mut<S: Symbol + Ord>(
    nodes: &mut [Node<S>],
    a: usize,
    b: usize,
) -> (&mut Node<S>, &mut Node<S>) {
    assert!(a != b, "a node cannot reconcile with itself");
    if a < b {
        let (left, right) = nodes.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = nodes.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

fn encode_open(symbol_len: usize, batch: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    out.extend_from_slice(&OPEN_MAGIC);
    out.extend_from_slice(&(symbol_len as u16).to_le_bytes());
    out.extend_from_slice(&(batch as u32).to_le_bytes());
    out
}

fn validate_open(payload: &[u8], symbol_len: usize) -> Result<usize> {
    if payload.len() != 10 || payload[..4] != OPEN_MAGIC {
        return Err(EngineError::WireFormat("malformed cluster open"));
    }
    let len = u16::from_le_bytes([payload[4], payload[5]]) as usize;
    if len != symbol_len {
        return Err(EngineError::WireFormat("symbol length mismatch"));
    }
    let batch = u32::from_le_bytes([payload[6], payload[7], payload[8], payload[9]]) as usize;
    if batch == 0 {
        return Err(EngineError::WireFormat("zero batch size"));
    }
    Ok(batch)
}

/// Reconciles `nodes[initiator]` with `nodes[responder]` over the topology,
/// starting at virtual time `start`, and applies the differences push-pull
/// (the initiator learns responder-only items, then pushes its own
/// exclusive items back). Both nodes' caches absorb the applied items
/// incrementally, so the next exchange reuses today's encoding work.
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
    let (a, b) = pair_mut(nodes, initiator, responder);
    if a.config() != b.config() {
        return Err(EngineError::Protocol(
            "cluster members must share shards/key/symbol_len configuration",
        ));
    }
    let node_config = a.config();
    let shards = node_config.shards;
    let symbol_len = node_config.symbol_len;
    let key = node_config.key;
    let alpha = riblt::DEFAULT_ALPHA;
    let threads = if config.threads == 0 {
        default_threads()
    } else {
        config.threads
    };
    // Decoding reads set_size from each payload's header; the field on the
    // client codec is irrelevant.
    let client_codec = SymbolCodec::with_alpha(symbol_len, 0, alpha);
    let metrics = PhaseMetrics::from_global();

    let bytes_before = topology.total_bytes();
    let mut client_clock = start;
    let mut server_clock = start;
    let mut decode_wall_s = 0.0f64;
    let mut serve_wall_s = 0.0f64;
    let mut rounds = 0usize;

    // --- Open every shard session (client → server). ---
    let tile = config.batch_symbols;
    // An open asks for the stream's first tile.
    let first_tile = RangeRequest::new(0, tile)?;
    let mut active: Vec<ShardState<S>> = Vec::with_capacity(usize::from(shards));
    for shard in 0..shards {
        let frame = MuxFrame::new(
            session,
            shard,
            EngineMessage::Open(encode_open(symbol_len, config.batch_symbols)),
        );
        let wire = frame.to_bytes();
        let arrival = topology.send(initiator, responder, client_clock, wire.len());
        server_clock = server_clock.max(arrival);
        // The responder parses the open off the wire.
        let parsed = MuxFrame::from_bytes(&wire)?;
        let batch = match parsed.message {
            EngineMessage::Open(ref payload) => validate_open(payload, symbol_len)?,
            _ => return Err(EngineError::Protocol("expected an open frame")),
        };
        debug_assert_eq!(batch, config.batch_symbols);
        active.push(ShardState {
            shard,
            received: 0,
            ranges: vec![first_tile],
            payloads: Vec::new(),
            own_window: Vec::new(),
            estimate: DifferenceEstimate::default(),
            decoder: Some(Decoder::with_key_and_alpha(key, alpha)),
            result: None,
            error: None,
        });
    }

    let mut differences: Vec<(ShardId, SetDifference<S>)> = Vec::new();
    let mut units = 0usize;
    // Shards are a uniform hash split of one difference: the window is sized
    // from the estimate pooled over all of them, finished ones included.
    let mut finished_estimate = DifferenceEstimate::default();

    while !active.is_empty() {
        rounds += 1;

        // --- Serve phase (responder): one cache-range read per tile of
        // each shard's ranges. ---
        let t_serve = Instant::now();
        let mut payload_frames: Vec<(usize, Vec<u8>)> = Vec::with_capacity(active.len());
        for (idx, state) in active.iter().enumerate() {
            let server_codec =
                SymbolCodec::with_alpha(symbol_len, b.shard_len(state.shard) as u64, alpha);
            for range in &state.ranges {
                let tiles = range.tiles(tile, usize::MAX)?;
                for next in (range.offset as usize..).step_by(tile).take(tiles) {
                    let cells = b.shard_cells(state.shard, next, tile);
                    let payload = server_codec.encode_batch(cells, next as u64);
                    let frame =
                        MuxFrame::new(session, state.shard, EngineMessage::Payload(payload));
                    payload_frames.push((idx, frame.to_bytes()));
                }
            }
        }
        let serve_elapsed = t_serve.elapsed();
        metrics.serve_rounds.observe_duration(serve_elapsed);
        let serve_s = serve_elapsed.as_secs_f64();
        serve_wall_s += serve_s;
        server_clock += serve_s;

        let mut last_arrival = server_clock;
        for (idx, wire) in payload_frames {
            let arrival = topology.send(responder, initiator, server_clock, wire.len());
            last_arrival = last_arrival.max(arrival);
            let parsed = MuxFrame::from_bytes(&wire)?;
            let state = &mut active[idx];
            debug_assert_eq!(parsed.shard, state.shard);
            match parsed.message {
                EngineMessage::Payload(p) => state.payloads.push(p),
                _ => return Err(EngineError::Protocol("expected a payload frame")),
            }
        }

        // --- Client phase, all of it timed: materializing the initiator's
        // own cache windows is client encode work (the responder's twin of
        // it is inside the serve timer), then the worker pool subtracts and
        // peels each shard independently.
        let t_decode = Instant::now();
        for state in active.iter_mut() {
            let asked = state.ranges.iter().map(|r| usize::from(r.count)).sum();
            state.own_window = a.shard_cells(state.shard, state.received, asked).to_vec();
        }
        parallel_for_each_observed(&mut active, threads, &metrics.decode_shards, |state| {
            // Tiles in arrival order; once the shard decodes, the rest of
            // the range is an unused tail.
            let mut own = state.own_window.chunks(tile);
            for payload in std::mem::take(&mut state.payloads) {
                let batch = match client_codec.decode_batch::<S>(&payload) {
                    Ok(batch) => batch,
                    Err(e) => {
                        state.error = Some(e.into());
                        return;
                    }
                };
                let own = own.next().unwrap_or_default();
                if batch.start_index as usize != state.received || batch.symbols.len() != own.len()
                {
                    state.error = Some(EngineError::Protocol("payload out of sequence"));
                    return;
                }
                let decoder = state.decoder.as_mut().expect("decoder live until done");
                for (mut cell, own) in batch.symbols.into_iter().zip(own) {
                    cell.subtract(own);
                    decoder.add_coded_symbol(cell);
                }
                state.received += own.len();
                state.estimate = decoder.difference_estimate();
                if decoder.is_decoded() {
                    let decoder = state.decoder.take().expect("checked above");
                    state.result = Some(decoder.into_difference());
                    return;
                }
            }
        });
        let decode_elapsed = t_decode.elapsed();
        metrics.decode_rounds.observe_duration(decode_elapsed);
        let decode_s = decode_elapsed.as_secs_f64();
        decode_wall_s += decode_s;
        client_clock = client_clock.max(last_arrival) + decode_s;

        // --- Reply phase: Done for completed shards, the next ranges for
        // the rest. ---
        let mut pooled = finished_estimate;
        for state in &active {
            pooled.merge(&state.estimate);
        }
        let mut still_active = Vec::with_capacity(active.len());
        for mut state in active {
            if let Some(error) = state.error.take() {
                return Err(error);
            }
            let done = state.result.is_some();
            let messages = if let Some(diff) = state.result.take() {
                finished_estimate.merge(&state.estimate);
                units += state.received;
                differences.push((state.shard, diff));
                vec![EngineMessage::Done]
            } else {
                let budget = config.max_units_per_shard;
                let asks = next_requests(state.received, tile, pooled.mean(), budget)?;
                state.ranges = asks.collect::<Result<_>>()?;
                let ranges = state.ranges.iter().copied();
                ranges.map(EngineMessage::Request).collect()
            };
            for message in messages {
                let wire = MuxFrame::new(session, state.shard, message).to_bytes();
                let arrival = topology.send(initiator, responder, client_clock, wire.len());
                server_clock = server_clock.max(arrival);
            }
            if !done {
                still_active.push(state);
            }
        }
        active = still_active;
    }

    // --- Apply the differences push-pull. ---
    let mut items_to_initiator = 0usize;
    let mut items_to_responder = 0usize;
    for (_shard, diff) in differences {
        // remote_only: items only the responder holds — the pull direction.
        for item in diff.remote_only {
            if a.insert(item) {
                items_to_initiator += 1;
            }
        }
        // local_only: items only the initiator holds — push them back as one
        // item frame per shard (mux header + tag + raw items).
        if !diff.local_only.is_empty() {
            let push_bytes =
                reconcile_core::MUX_HEADER_BYTES + 1 + diff.local_only.len() * symbol_len;
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
    let outcome = PairOutcome {
        rounds,
        units,
        items_to_initiator,
        items_to_responder,
        bytes: topology.total_bytes() - bytes_before,
        virtual_time_s: client_clock.max(server_clock) - start,
        decode_wall_s,
        serve_wall_s,
    };
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
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
        // One batch per shard, nothing more.
        assert_eq!(outcome.units, 16 * PairSyncConfig::default().batch_symbols);
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

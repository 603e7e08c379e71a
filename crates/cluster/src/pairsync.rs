//! Pairwise reconciliation between two cluster nodes, held as every other
//! conversation of the protocol is: the initiator runs the shipped TCP
//! client, [`sync_sharded_tcp`], over its own items, and the responder
//! answers from its [`Node`] through a [`Responder`] behind the handshake,
//! as the `reconciled` daemon does. Only how the conversation crosses the
//! [`Topology`] is this module's: every flight on the link between the two
//! nodes ([`SimFlights`]), its bytes as on the wire, the responder's serve
//! time and the initiator's wall time between flights (its set-up pass and
//! absorb phases, so multi-core speedups show in completion times) on the
//! virtual clocks.

use netsim::{FlightLinkTo, SimFlights, Topology};
use reconcile_core::backends::RibltBackend;
use reconcile_core::handshake::Hello;
use reconcile_core::{sync_sharded_tcp, EngineError, Result, TcpSyncConfig, MUX_HEADER_BYTES};
use riblt::Symbol;

use crate::node::{Node, NodeConfig};
use crate::responder::Responder;

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
    /// Bytes carried by the link in both directions: the two hellos and
    /// every frame, each with its 4-byte length prefix, as on the wire, and
    /// the item push.
    pub bytes: usize,
    /// Virtual seconds from the initiator's set-up pass to full
    /// application.
    pub virtual_time_s: f64,
    /// Real wall seconds spent in the (parallel) absorb phases, building
    /// each shard's decoder over the initiator's items included
    /// ([`TcpSyncOutcome::decode_wall_s`](reconcile_core::TcpSyncOutcome::decode_wall_s)).
    pub decode_wall_s: f64,
    /// Real wall seconds the responder spent answering flights.
    pub serve_wall_s: f64,
}

/// Reconciles `nodes[initiator]` with `nodes[responder]` over the topology,
/// starting at virtual time `start`, and applies the differences push-pull
/// (the initiator learns responder-only items, then pushes its own
/// exclusive items back). Both nodes' caches absorb the applied items
/// incrementally, so the next exchange reuses today's encoding work.
///
/// The initiator decodes against its items like every client, not against
/// its own shard caches: its shard clients are built over its set, on the
/// clock like any client's set-up. The responder serves from its caches.
pub fn reconcile_pair<S>(
    nodes: &mut [Node<S>],
    initiator: usize,
    responder: usize,
    topology: &mut Topology,
    config: &PairSyncConfig,
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
    let items: Vec<S> = a.items().cloned().collect();
    let bytes_before = topology.total_bytes();

    // --- The responder: the handshake, then its node's answers. ---
    let mut serving = Responder::new(shards, symbol_len, tile, budget);
    let hello = Hello::new(key, shards, symbol_len);
    let server = FlightLinkTo::handshaking(hello, |frame, out| {
        serving.handle(frame, &mut *b, out)?;
        while serving.open_next_shard(&mut *b, out)?.is_some() {}
        Ok(())
    });

    // --- The initiator: the shipped client, every flight on the clock. ---
    let backend = RibltBackend::with_key_and_alpha(symbol_len, tile, key, riblt::DEFAULT_ALPHA);
    let client = TcpSyncConfig {
        key,
        symbol_len,
        threads: config.threads,
        max_units_per_shard: budget,
    };
    let mut io = SimFlights::new(server, topology, (initiator, responder), start);
    let (differences, synced) = sync_sharded_tcp(&mut io, &items, |_| backend.clone(), &client)?;
    io.finish();
    let (client_clock, mut server_clock, serve_wall_s) =
        (io.client_clock, io.server_clock, io.server_cpu);
    drop(io);
    drop(items);

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

    Ok(PairOutcome {
        rounds: synced.rounds + 1,
        units: synced.units,
        items_to_initiator,
        items_to_responder,
        bytes: topology.total_bytes() - bytes_before,
        virtual_time_s: client_clock.max(server_clock) - start,
        decode_wall_s: synced.decode_wall_s,
        serve_wall_s,
    })
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
        let outcome =
            reconcile_pair(&mut nodes, 0, 1, &mut topo, &PairSyncConfig::default(), 0.0).unwrap();
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
        let outcome =
            reconcile_pair(&mut nodes, 0, 1, &mut topo, &PairSyncConfig::default(), 0.0).unwrap();
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
            let outcome = reconcile_pair(&mut nodes, 0, 1, &mut topo, &cfg, 0.0).unwrap();
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
        let err = reconcile_pair(&mut nodes, 0, 1, &mut topo, &PairSyncConfig::default(), 0.0)
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
        reconcile_pair(&mut nodes, 1, 0, &mut topo, &cfg, 0.0).unwrap();
        reconcile_pair(&mut nodes, 2, 0, &mut topo, &cfg, 0.0).unwrap();
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
        let err = reconcile_pair(&mut nodes, 0, 1, &mut topo, &cfg, 0.0).unwrap_err();
        assert_eq!(err, EngineError::DecodeIncomplete);
    }
}

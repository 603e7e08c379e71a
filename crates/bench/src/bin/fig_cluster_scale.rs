//! Cluster-scale experiment: sharded multi-peer reconciliation.
//!
//! Two measurements beyond the paper's two-replica setting:
//!
//! 1. **Decode scaling** — one pairwise exchange, same sets, swept over
//!    shard counts and worker threads. The serial baseline is a single
//!    Rateless IBLT session through the session engine (one decoder peels
//!    the whole difference on one core); the sharded runs are
//!    `netsim::reconcile_pair`, the shipped client's `ClientMux` peeling S
//!    per-shard differences on up to `threads` workers against a node that
//!    serves from its caches. `speedup_vs_serial` is serial wall-clock
//!    over sharded wall-clock of the protocol work (serve + decode CPU, not
//!    virtual link time) — on a multi-core host the sharded rows with
//!    `threads > 1` beat the serial baseline.
//! 2. **Gossip convergence** — an 8-node × 16-shard cluster with churn
//!    injected for the first rounds, measuring rounds-to-convergence, total
//!    and per-node bytes, and per-node decode CPU.
//!
//! Output columns: `scenario, nodes, shards, threads, items, diff_or_churn,
//! rounds, units, total_MB, mean_node_MB, wall_ms, speedup_vs_serial`.

use cluster::{Node, NodeConfig};
use netsim::{
    reconcile_pair, ClientEngine, Cluster, ClusterConfig, LinkConfig, PairSyncConfig, ServerEngine,
    Topology,
};
use reconcile_core::backends::RibltBackend;
use reconcile_core::EngineMessage;
use riblt::FixedBytes;
use riblt_bench::{set_pair32, timed, BenchCli, Item32};
use riblt_hash::SplitMix64;

const ITEM_LEN: usize = 32;

#[allow(clippy::too_many_arguments)]
fn emit(
    csv: &mut riblt_bench::CsvSink,
    scenario: &str,
    nodes: usize,
    shards: u16,
    threads: usize,
    items: usize,
    diff_or_churn: usize,
    rounds: usize,
    units: usize,
    total_mb: f64,
    mean_node_mb: f64,
    wall_ms: f64,
    speedup: f64,
) {
    riblt_bench::csv_emit!(
        csv,
        scenario,
        nodes,
        shards,
        threads,
        items,
        diff_or_churn,
        rounds,
        units,
        format!("{total_mb:.3}"),
        format!("{mean_node_mb:.3}"),
        format!("{wall_ms:.1}"),
        format!("{speedup:.2}")
    );
}

fn main() {
    let cli = BenchCli::from_args();
    let scale = cli.scale;
    let mut csv = cli.sink();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let n = scale.pick(20_000u64, 200_000u64);
    let d = scale.pick(2_000u64, 20_000u64);
    eprintln!(
        "# Cluster-scale experiment ({scale:?} mode): pair decode at N = {n}, d = {d}; \
         {cores} cores available"
    );
    csv.header(&[
        "scenario",
        "nodes",
        "shards",
        "threads",
        "items",
        "diff_or_churn",
        "rounds",
        "units",
        "total_MB",
        "mean_node_MB",
        "wall_ms",
        "speedup_vs_serial",
    ]);

    // --- 1. Decode scaling: serial single-session baseline. ---
    // The server's engine is built before the timer, mirroring the sharded
    // rows where the responder's node and caches are likewise untimed. The
    // client's engine is built on the timer, as the sharded rows' client
    // builds each shard's decoder when its first payload arrives, inside
    // `decode_wall_s` — `serial_s` is the protocol work (serve, client
    // set-up and decode), the quantity sharding parallelizes.
    let pair = set_pair32(n, d, cli.seed_or(0xc100));
    let backend = RibltBackend::<Item32>::new(ITEM_LEN, 64);
    let mut server = ServerEngine::new(backend.clone(), &pair.alice);
    let mut serial_bytes = 0usize;
    let (client, serial_s) = timed(|| {
        let mut client = ClientEngine::new(backend, &pair.bob);
        let open = client.open();
        serial_bytes += open.wire_size();
        let mut pending = server.handle(&open).expect("open").pop();
        loop {
            let payload = pending.take().expect("streaming server always replies");
            serial_bytes += payload.wire_size();
            match client.handle(&payload).expect("absorb") {
                Some(reply @ EngineMessage::Done) => {
                    serial_bytes += reply.wire_size();
                    break;
                }
                Some(_) => unreachable!("riblt is a streaming backend"),
                None => pending = Some(server.next_payload().expect("stream")),
            }
        }
        client
    });
    let serial_units = client.units();
    let diff = client.into_difference().expect("serial reconcile");
    assert_eq!(diff.remote_only.len() + diff.local_only.len(), d as usize);
    emit(
        &mut csv,
        "serial_pair",
        2,
        1,
        1,
        n as usize,
        d as usize,
        1,
        serial_units,
        serial_bytes as f64 / 1e6,
        f64::NAN,
        serial_s * 1e3,
        1.0,
    );

    // --- Sharded pairwise exchanges over shards × threads. ---
    let shard_counts: Vec<u16> = scale.pick(vec![4, 16], vec![4, 16, 64]);
    let mut thread_counts = vec![1usize];
    if cores > 1 {
        thread_counts.push(cores);
    }
    for &shards in &shard_counts {
        for &threads in &thread_counts {
            let mut nodes = vec![
                Node::new(0, NodeConfig::new(shards, ITEM_LEN)),
                Node::new(1, NodeConfig::new(shards, ITEM_LEN)),
            ];
            for item in &pair.bob {
                nodes[0].insert(*item);
            }
            for item in &pair.alice {
                nodes[1].insert(*item);
            }
            let mut topo = Topology::full_mesh(2, LinkConfig::unlimited());
            let config = PairSyncConfig {
                batch_symbols: 64,
                threads,
                ..Default::default()
            };
            let (outcome, _) = timed(|| {
                reconcile_pair(&mut nodes, 0, 1, &mut topo, &config, 0.0)
                    .expect("sharded reconcile")
            });
            // The row measured a reconciliation: both nodes now hold the
            // same set, and it took the serial row's difference to get there.
            assert_eq!(nodes[0].digest(), nodes[1].digest(), "{shards} shards");
            assert!(nodes[0].items().eq(nodes[1].items()), "{shards} shards");
            assert_eq!(
                outcome.items_to_initiator + outcome.items_to_responder,
                d as usize,
                "{shards} shards recovered another difference"
            );
            // Compare protocol CPU (serve + decode wall), the quantity the
            // decode workers parallelize; virtual link time is equal across
            // rows by construction.
            let sharded_s = outcome.decode_wall_s + outcome.serve_wall_s;
            emit(
                &mut csv,
                "sharded_pair",
                2,
                shards,
                threads,
                n as usize,
                d as usize,
                outcome.rounds,
                outcome.units,
                outcome.bytes as f64 / 1e6,
                f64::NAN,
                sharded_s * 1e3,
                serial_s / sharded_s,
            );
        }
    }

    // --- 2. Gossip convergence with churn. ---
    let gossip_nodes = 8usize;
    let gossip_shards = 16u16;
    let base_items = scale.pick(2_000u64, 20_000u64);
    let churn_rounds = 3usize;
    let churn_per_round = scale.pick(100u64, 1_000u64);
    eprintln!(
        "# Gossip: {gossip_nodes} nodes x {gossip_shards} shards, {base_items} seed items/node, \
         {churn_per_round} churn writes/round for {churn_rounds} rounds"
    );
    let mut gossip = Cluster::<Item32>::new(ClusterConfig {
        nodes: gossip_nodes,
        node: NodeConfig::new(gossip_shards, ITEM_LEN),
        link: LinkConfig::paper_default(),
        pair: PairSyncConfig {
            batch_symbols: 32,
            ..Default::default()
        },
        seed: cli.seed_or(0x6055),
    });
    let mut rng = SplitMix64::new(cli.seed_or(0xc4a9));
    let fresh_item = |rng: &mut SplitMix64| {
        let mut bytes = [0u8; ITEM_LEN];
        rng.fill_bytes(&mut bytes);
        FixedBytes(bytes)
    };
    // Shared history everywhere, then disjoint unsynced writes per node.
    for _ in 0..base_items {
        let item = fresh_item(&mut rng);
        for node in 0..gossip_nodes {
            gossip.insert_at(node, item);
        }
    }
    for node in 0..gossip_nodes {
        for _ in 0..base_items / 20 {
            let item = fresh_item(&mut rng);
            gossip.insert_at(node, item);
        }
    }
    let (total_churn, gossip_wall_s) = timed(|| {
        let mut injected = 0usize;
        for _ in 0..churn_rounds {
            for _ in 0..churn_per_round {
                let node = rng.next_below(gossip_nodes as u64) as usize;
                let item = {
                    let mut bytes = [0u8; ITEM_LEN];
                    rng.fill_bytes(&mut bytes);
                    FixedBytes(bytes)
                };
                if gossip.insert_at(node, item) {
                    injected += 1;
                }
            }
            gossip.run_round().expect("gossip round");
        }
        injected
    });
    let report = gossip
        .run_until_converged(50)
        .expect("gossip convergence run");
    assert!(report.converged, "gossip failed to converge in 50 rounds");
    let mean_node_mb = report
        .node_stats
        .iter()
        .map(|s| (s.bytes_sent + s.bytes_received) as f64)
        .sum::<f64>()
        / gossip_nodes as f64
        / 1e6;
    let decode_cpu_s: f64 = report.node_stats.iter().map(|s| s.decode_s).sum();
    eprintln!(
        "# Gossip converged after {} total rounds ({} churn writes, {:.3}s decode CPU across nodes, \
         {:.1}s virtual)",
        gossip.rounds(),
        total_churn,
        decode_cpu_s,
        report.virtual_time_s
    );
    emit(
        &mut csv,
        "gossip_churn",
        gossip_nodes,
        gossip_shards,
        0,
        gossip.node(0).len(),
        total_churn,
        gossip.rounds(),
        0,
        report.total_bytes as f64 / 1e6,
        mean_node_mb,
        gossip_wall_s * 1e3,
        f64::NAN,
    );
}

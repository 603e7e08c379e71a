//! Per-layer numbers that spans around a sync cannot see: direct timed calls
//! into each crate on the workload's own shard-0 inputs, and the ungated UDP
//! transport over the same sets.

use std::hint::black_box;
use std::net::UdpSocket;
use std::time::Instant;

use cluster::{Node, NodeConfig};
use reconcile_core::ShardPartitioner;
use riblt::{Decoder, Encoder, SymbolCodec, DEFAULT_ALPHA};
use riblt_bench::{timed, Item32};
use server::{Daemon, DaemonConfig};
use statesync::{sync_sharded_udp, UdpSyncConfig};

use crate::harness::{client_backend, daemon_config, Tally};
use crate::stats::median;
use crate::workload::{Expected, Inputs, ITEM_LEN, SHARDS};

/// Name and value of one measured metric.
pub type Metric = (&'static str, f64);

/// Repetitions of each short direct measurement; the median is reported.
const REPEATS: usize = 5;
/// Warm cache batches read for `cluster.shard_cells_us_per_batch`.
const CELL_BATCHES: usize = 64;

fn median_secs(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPEATS).map(|_| f()).collect::<Vec<_>>())
}

/// Times the layers below the daemon directly, on shard 0 of the current
/// client variant and the server set.
pub fn direct(inputs: &Inputs) -> Vec<Metric> {
    let config = daemon_config();
    let (key, batch) = (config.key, config.batch_symbols);
    let partitioner = ShardPartitioner::new(key, SHARDS);

    // reconcile_core: what every sync pays before it opens a shard.
    let partition_s = median_secs(|| timed(|| black_box(partitioner.partition(&inputs.client))).1);
    let local = partitioner.partition(&inputs.client).swap_remove(0);
    let remote = partitioner.partition(&inputs.server).swap_remove(0);

    // riblt: encode shard 0 of the server set, decode it against shard 0 of
    // the client set. Enough symbols for any decodable difference.
    let shard_diff = inputs.remote_only().len() + inputs.local_only().len();
    let want = (4 * shard_diff / usize::from(SHARDS) + 4 * batch).next_multiple_of(batch);
    let mut symbols = Vec::new();
    let encode_s = median_secs(|| {
        let mut encoder = Encoder::<Item32>::with_key(key);
        for item in &remote {
            encoder.add_symbol(*item).expect("fresh encoder");
        }
        let (produced, secs) = timed(|| encoder.produce_coded_symbols(want));
        symbols = produced;
        secs
    });
    let mut recovered = 0usize;
    let decode_s = median_secs(|| {
        let mut decoder = Decoder::<Item32>::with_key(key);
        for item in &local {
            decoder.add_symbol(*item).expect("fresh decoder");
        }
        let start = Instant::now();
        for chunk in symbols.chunks(batch) {
            decoder.add_coded_symbols(chunk.iter().cloned());
            if decoder.is_decoded() {
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        recovered = decoder.recovered_count();
        secs
    });

    // riblt wire codec, batch by batch as the daemon and the client use it.
    let server_codec = SymbolCodec::with_alpha(ITEM_LEN, remote.len() as u64, DEFAULT_ALPHA);
    let client_codec = SymbolCodec::with_alpha(ITEM_LEN, 0, DEFAULT_ALPHA);
    let mut wire = Vec::new();
    let wire_encode_s = median_secs(|| {
        let (encoded, secs) = timed(|| {
            symbols
                .chunks(batch)
                .enumerate()
                .map(|(i, chunk)| server_codec.encode_batch(chunk, (i * batch) as u64))
                .collect::<Vec<_>>()
        });
        wire = encoded;
        secs
    });
    let wire_decode_s = median_secs(|| {
        timed(|| {
            for bytes in &wire {
                black_box(
                    client_codec
                        .decode_batch::<Item32>(bytes)
                        .expect("own encoding"),
                );
            }
        })
        .1
    });
    let wire_bytes: usize = wire.iter().map(Vec::len).sum();

    // cluster: the node the daemon builds at spawn, and a warm cache read.
    let (mut node, node_build_s) = timed(|| {
        let mut node = Node::new(
            0,
            NodeConfig {
                shards: SHARDS,
                key,
                symbol_len: ITEM_LEN,
            },
        );
        for item in &inputs.server {
            node.insert(*item);
        }
        node
    });
    node.shard_cells(0, 0, CELL_BATCHES * batch);
    let cells_s = median_secs(|| {
        timed(|| {
            for i in 0..CELL_BATCHES {
                black_box(node.shard_cells(0, i * batch, batch));
            }
        })
        .1
    });

    let n = symbols.len() as f64;
    vec![
        ("reconcile_core.partition_ms", partition_s * 1e3),
        ("riblt.encode_sym_per_s", n / encode_s),
        ("riblt.decode_diffs_per_s", recovered as f64 / decode_s),
        ("riblt.wire_encode_ns_per_sym", wire_encode_s * 1e9 / n),
        ("riblt.wire_decode_ns_per_sym", wire_decode_s * 1e9 / n),
        ("riblt.wire_bytes_per_sym", wire_bytes as f64 / n),
        ("cluster.node_build_ms", node_build_s * 1e3),
        (
            "cluster.shard_cells_us_per_batch",
            cells_s * 1e6 / CELL_BATCHES as f64,
        ),
    ]
}

/// The UDP metric names, in the order [`udp`] reports them.
pub const UDP_METRICS: [&str; 5] = [
    "udp.sync_ms_p50",
    "udp.datagrams_per_sync",
    "udp.retransmits_per_sync",
    "udp.stale_batches_per_sync",
    "udp.wire_bytes_per_diff",
];

/// `syncs` clean-loopback `sync_sharded_udp` syncs of the current client
/// variant against a fresh daemon with the datagram listener on. Ungated:
/// the transport's timers do not repeat well enough for an end-to-end
/// workload, but the layer stays visible.
pub fn udp(inputs: &Inputs, syncs: usize, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let daemon_config = DaemonConfig {
        udp_listen: Some("127.0.0.1:0".into()),
        ..daemon_config()
    };
    let key = daemon_config.key;
    let daemon = Daemon::spawn(daemon_config, inputs.server.iter().copied())
        .map_err(|e| format!("Daemon::spawn with udp: {e}"))?;
    let addr = daemon.udp_addr().ok_or("daemon has no udp address")?;
    let config = UdpSyncConfig {
        symbol_len: ITEM_LEN,
        ..Default::default()
    };
    let want = Expected::new(&[inputs.remote_only()], inputs.local_only(), key);
    let (mut ms, mut datagrams, mut retransmits, mut stale, mut bytes) =
        (Vec::new(), 0usize, 0usize, 0usize, 0usize);
    for _ in 0..syncs {
        tally.attempted += 1;
        let start = Instant::now();
        let result = UdpSocket::bind("127.0.0.1:0")
            .and_then(|socket| socket.connect(addr).map(|()| socket))
            .map_err(reconcile_core::EngineError::from)
            .and_then(|mut socket| {
                sync_sharded_udp(&mut socket, &inputs.client, |_| client_backend(), &config)
            });
        let elapsed = start.elapsed().as_secs_f64();
        match result {
            Ok((diffs, outcome)) if want.matches(&diffs, key) => {
                ms.push(elapsed * 1e3);
                datagrams += outcome.datagrams_sent + outcome.datagrams_received;
                retransmits += outcome.retransmits;
                stale += outcome.stale_batches;
                bytes += outcome.bytes_sent + outcome.bytes_received;
            }
            Ok(_) => {
                eprintln!("syncbench: udp: wrong difference");
                tally.failed += 1;
            }
            Err(e) => {
                eprintln!("syncbench: udp: {e}");
                tally.failed += 1;
            }
        }
    }
    if ms.is_empty() {
        return Err("every udp sync failed".into());
    }
    let n = ms.len() as f64;
    let values = [
        median(&ms),
        datagrams as f64 / n,
        retransmits as f64 / n,
        stale as f64 / n,
        bytes as f64 / (n * want.len() as f64),
    ];
    Ok(UDP_METRICS.into_iter().zip(values).collect())
}

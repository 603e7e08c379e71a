//! Perf-snapshot harness: pinned-seed micro-benches over the hot paths,
//! written to `BENCH_<date>.json` in the stable schema described in
//! `riblt_bench::snapshot`. Checked-in snapshots at the repo root form the
//! performance trajectory of the codebase; the CI `perf-smoke` job runs
//! `--quick` on every push and validates the emitted file.
//!
//! Usage:
//!
//! ```text
//! perf_snapshot [--quick|--full] [--seed N] [--out PATH]
//! perf_snapshot --validate FILE     # schema-check an existing snapshot
//! ```
//!
//! Benches (all deterministic inputs, wall-clock timed):
//! - `encode_throughput/{32B,8B}` — coded symbols produced per second from
//!   a loaded encoder (fig08's computation axis).
//! - `decode_throughput/{32B,8B}` — differences recovered per second by a
//!   fresh decoder over pre-produced coded symbols (fig09's axis; the 32B
//!   number is the one tracked across PRs).
//! - `decode_local_set/32B` — one stream decoded against a 20,000-item
//!   local set at d = 2,000: the stale-replica regime, where re-encoding
//!   the local set (not peeling) carries the time. `decode_throughput`
//!   decodes against an empty local set and cannot see that pass. Carries
//!   the coding window's bytes per symbol as a param.
//! - `client_setup/32B` — what a sharded client does with its 20,000-item
//!   set before the first payload arrives: hash every item, group them by
//!   shard, fill eight decoder windows
//!   (`ShardPartitioner::client_engines`). The hash alone and `partition`
//!   (the same grouping, gathered into vectors) ride along as stages.
//! - `sketch_subtract/32B` — cell-wise sketch subtraction, pure symbol XOR.
//! - `mux_sharded_decode/32B` — two cluster nodes reconciling over the
//!   simulated mux protocol; reports the measured decode/serve wall time.
//! - `daemon_stream/32B` — a real TCP round against an in-process daemon,
//!   client and server on loopback. This bench also captures the daemon's
//!   live `obs` registry: its headline series (serve-batch latency
//!   quantiles, wire-cache hits/misses) fold into the record's metrics, and
//!   the full registry JSON lands in the snapshot's `daemon_metrics` block.
//! - `daemon_scale/8B` — peers-vs-throughput: one reactor daemon serving a
//!   concurrent mixed-staleness fleet via the `loadgen` harness (128 peers
//!   quick, 1,024 full), reporting syncs/s, client-side sync p99, and the
//!   registry's serve-batch p99. The full sweep lives in
//!   `fig_daemon_scale`.
//! - `udp_loss/8B` — a UDP sync against the same in-process daemon over
//!   real loopback, clean and with 10% loss injected in both directions,
//!   reporting completion time at each and the retransmit/datagram cost
//!   of the loss. The full loss sweep lives in `fig_udp_loss`.

use cluster::{reconcile_pair, Node, NodeConfig, PairSyncConfig};
use netsim::{LinkConfig, Topology};
use reconcile_core::backends::RibltBackend;
use reconcile_core::ShardPartitioner;
use riblt::{Decoder, Encoder, Sketch, Symbol};
use riblt_bench::json::{self, JsonValue};
use riblt_bench::snapshot::{today_utc, validate, BenchRecord, Snapshot};
use riblt_bench::{items32, set_pair32, timed, Item32, Item8, RunScale};
use riblt_hash::{splitmix64, SipKey};
use server::loadgen::{raise_nofile_limit, run as loadgen_run, server_items, LoadgenConfig};
use server::{Daemon, DaemonConfig};
use statesync::{sync_sharded_tcp, sync_sharded_udp, LossyConduit, TcpSyncConfig, UdpSyncConfig};
use std::net::{TcpStream, UdpSocket};
use std::time::Duration;

fn main() {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perf_snapshot [--quick|--full] [--seed N] [--out PATH] | --validate FILE"
            );
            std::process::exit(2);
        }
    };

    if let Some(path) = &cli.validate {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match validate(&text) {
            Ok(()) => {
                println!("{path}: valid perf snapshot");
                return;
            }
            Err(reason) => {
                eprintln!("{path}: schema violation: {reason}");
                std::process::exit(1);
            }
        }
    }

    let scale = cli.scale;
    let seed = cli.seed;
    eprintln!("# perf_snapshot ({:?} mode, seed {seed})", scale);

    let mut benches = Vec::new();
    benches.extend(bench_encode(scale, seed));
    benches.extend(bench_decode(scale, seed));
    benches.push(bench_decode_local_set(scale, seed));
    benches.push(bench_client_setup(scale, seed));
    benches.push(bench_sketch_subtract(scale, seed));
    benches.push(bench_mux_sharded(scale, seed));
    let (daemon_record, daemon_metrics) = bench_daemon_stream(scale, seed);
    benches.push(daemon_record);
    benches.push(bench_daemon_scale(scale, seed));
    benches.push(bench_udp_loss(scale, seed));

    let snapshot = Snapshot {
        generated: today_utc(),
        mode: match scale {
            RunScale::Quick => "quick".into(),
            RunScale::Full => "full".into(),
        },
        seed,
        daemon_metrics,
        benches,
    };
    let text = snapshot.to_json();
    validate(&text).expect("emitted snapshot must satisfy its own schema");

    let out = cli
        .out
        .unwrap_or_else(|| format!("BENCH_{}.json", snapshot.generated));
    std::fs::write(&out, &text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("# wrote {out}");
}

struct Cli {
    scale: RunScale,
    seed: u64,
    out: Option<String>,
    validate: Option<String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: RunScale::Quick,
            seed: 0,
            out: None,
            validate: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.scale = RunScale::Quick,
                "--full" => cli.scale = RunScale::Full,
                "--seed" => {
                    let value = args.next().ok_or("--seed needs a value")?;
                    cli.seed = value
                        .parse()
                        .map_err(|_| format!("bad --seed value: {value}"))?;
                }
                "--out" => cli.out = Some(args.next().ok_or("--out needs a path")?),
                "--validate" => cli.validate = Some(args.next().ok_or("--validate needs a file")?),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(cli)
    }
}

/// Per-bench seeds are derived from the user seed so `--seed` re-randomizes
/// every bench while seed 0 stays byte-reproducible.
fn derive(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt)
}

fn bench_encode(scale: RunScale, seed: u64) -> Vec<BenchRecord> {
    let n = scale.pick(20_000u64, 200_000u64);
    let produced = scale.pick(40_000usize, 400_000usize);
    let mut out = Vec::new();

    let items = items32(n, derive(seed, 0xe8c0));
    let mut enc = Encoder::<Item32>::new();
    for item in &items {
        enc.add_symbol(*item).unwrap();
    }
    let (coded, secs) = timed(|| enc.produce_coded_symbols(produced));
    assert_eq!(coded.len(), produced);
    out.push(record_encode(
        "encode_throughput/32B",
        32,
        n,
        produced,
        secs,
    ));

    let items: Vec<Item8> = riblt_bench::items8(n, derive(seed, 0xe8c1));
    let mut enc = Encoder::<Item8>::new();
    for item in &items {
        enc.add_symbol(*item).unwrap();
    }
    let (coded, secs) = timed(|| enc.produce_coded_symbols(produced));
    assert_eq!(coded.len(), produced);
    out.push(record_encode("encode_throughput/8B", 8, n, produced, secs));
    out
}

fn record_encode(name: &str, bytes: u64, n: u64, produced: usize, secs: f64) -> BenchRecord {
    BenchRecord::new(name)
        .param("symbol_bytes", bytes as f64)
        .param("set_size", n as f64)
        .param("coded_symbols", produced as f64)
        .metric("wall_s", secs)
        .metric("coded_symbols_per_s", produced as f64 / secs)
        .metric("mb_per_s", produced as f64 * bytes as f64 / secs / 1e6)
}

fn bench_decode(scale: RunScale, seed: u64) -> Vec<BenchRecord> {
    let d = scale.pick(10_000u64, 50_000u64);
    let trials = scale.pick(3u32, 5u32);
    vec![
        decode_one::<Item32>("decode_throughput/32B", 32, d, trials, derive(seed, 0xdec0)),
        decode_one::<Item8>("decode_throughput/8B", 8, d, trials, derive(seed, 0xdec1)),
    ]
}

/// fig09-style decode: the coded symbols are produced once, then each trial
/// times a fresh decoder ingesting them until the difference is recovered.
fn decode_one<S>(name: &str, bytes: u64, d: u64, trials: u32, seed: u64) -> BenchRecord
where
    S: riblt::Symbol + Copy + Ord + From64,
{
    let items: Vec<S> = distinct_items(d, seed);
    let mut enc = Encoder::<S>::new();
    for item in &items {
        enc.add_symbol(*item).unwrap();
    }
    let coded = enc.produce_coded_symbols(2 * d as usize + 4);

    let mut total_s = 0.0;
    let mut used_total = 0usize;
    for _ in 0..trials {
        let ((recovered, used), secs) = timed(|| {
            let mut dec = Decoder::<S>::new();
            let mut used = 0;
            for cs in &coded {
                dec.add_coded_symbol(cs.clone());
                used += 1;
                if dec.is_decoded() {
                    break;
                }
            }
            (dec.recovered_count(), used)
        });
        assert_eq!(recovered, d as usize, "{name}: decode failed");
        total_s += secs;
        used_total += used;
    }

    BenchRecord::new(name)
        .param("symbol_bytes", bytes as f64)
        .param("difference", d as f64)
        .param("trials", trials as f64)
        .metric("wall_s", total_s)
        .metric("diffs_per_s", d as f64 * trials as f64 / total_s)
        .metric("coded_symbols_per_s", used_total as f64 / total_s)
}

/// One stream against a large local set and a small difference: each trial
/// times a fresh decoder taking in the local set (hashing included), then
/// the pre-produced coded symbols until the difference is recovered. Same
/// sizes in both modes (the regime is the point); `--full` only adds trials.
fn bench_decode_local_set(scale: RunScale, seed: u64) -> BenchRecord {
    let n = 20_000u64;
    let d = 2_000u64;
    let trials = scale.pick(10u32, 40u32);

    let pair = set_pair32(n, d, derive(seed, 0xdec2));
    let mut enc = Encoder::<Item32>::new();
    for item in &pair.alice {
        enc.add_symbol(*item).unwrap();
    }
    let coded = enc.produce_coded_symbols(2 * d as usize + 4);

    let (mut build_s, mut decode_s, mut used_total) = (0.0, 0.0, 0usize);
    for _ in 0..trials {
        let (mut dec, secs) = timed(|| {
            let mut dec = Decoder::<Item32>::new();
            for item in &pair.bob {
                dec.add_symbol(*item).unwrap();
            }
            dec
        });
        build_s += secs;
        let (used, secs) = timed(|| dec.add_coded_symbols(coded.iter().cloned()));
        decode_s += secs;
        used_total += used;
        assert!(dec.is_decoded(), "decode_local_set: decode failed");
        assert_eq!(dec.recovered_count(), pair.difference);
    }

    // What a coding window keeps per symbol: the hashed symbol, its parked
    // mapping and a chain link.
    let window_bytes = std::mem::size_of::<riblt::HashedSymbol<Item32>>()
        + std::mem::size_of::<riblt::IndexMapping>()
        + std::mem::size_of::<u32>();
    let per_trial_ms = |secs: f64| secs * 1e3 / f64::from(trials);
    BenchRecord::new("decode_local_set/32B")
        .param("symbol_bytes", 32.0)
        .param("local_set", n as f64)
        .param("difference", d as f64)
        .param("trials", f64::from(trials))
        .param("window_bytes_per_symbol", window_bytes as f64)
        .metric("wall_s", build_s + decode_s)
        .metric("build_ms", per_trial_ms(build_s))
        .metric("decode_ms", per_trial_ms(decode_s))
        .metric(
            "diffs_per_s",
            d as f64 * f64::from(trials) / (build_s + decode_s),
        )
        .metric("coded_symbols_per_s", used_total as f64 / decode_s)
}

/// The sharded client's set-up pass over a 20,000-item set and 8 shards,
/// the benchmark's sizes: each trial builds the eight client endpoints from
/// scratch and drops them, as a stateless sync does. Same sizes in both
/// modes; `--full` only adds trials. Means per trial, with the fastest
/// trial of the whole pass beside them (the host's quiet-moment reading).
fn bench_client_setup(scale: RunScale, seed: u64) -> BenchRecord {
    let n = 20_000u64;
    let shards = 8u16;
    let trials = scale.pick(50u32, 200u32);

    let items = items32(n, derive(seed, 0x5e70));
    let key = SipKey::default();
    let partitioner = ShardPartitioner::new(key, shards);
    let backend = |_| RibltBackend::<Item32>::with_key_and_alpha(32, 32, key, riblt::DEFAULT_ALPHA);

    // Each stage in its own run of back-to-back trials, so none pays for
    // what the one before it left in the cache. Total and fastest seconds.
    fn trials_of<T>(trials: u32, mut stage: impl FnMut() -> T) -> (f64, f64) {
        let (mut total_s, mut best_s) = (0.0, f64::INFINITY);
        for _ in 0..trials {
            let (out, secs) = timed(&mut stage);
            std::hint::black_box(out);
            total_s += secs;
            best_s = best_s.min(secs);
        }
        (total_s, best_s)
    }
    let (hash_s, _) = trials_of(trials, || Item32::hash_many_with(&items, key));
    let (partition_s, _) = trials_of(trials, || partitioner.partition(&items));
    let (setup_s, setup_best_s) = trials_of(trials, || {
        let engines = partitioner.client_engines(&items, backend);
        assert_eq!(engines.len(), usize::from(shards));
        engines
    });

    let per_trial_ms = |secs: f64| secs * 1e3 / f64::from(trials);
    BenchRecord::new("client_setup/32B")
        .param("symbol_bytes", 32.0)
        .param("local_set", n as f64)
        .param("shards", f64::from(shards))
        .param("trials", f64::from(trials))
        .metric("wall_s", setup_s)
        .metric("setup_ms", per_trial_ms(setup_s))
        .metric("setup_ms_best", setup_best_s * 1e3)
        .metric("hash_ms", per_trial_ms(hash_s))
        .metric("partition_ms", per_trial_ms(partition_s))
        .metric("items_per_s", n as f64 * f64::from(trials) / setup_s)
}

/// Item construction shared by the generic decode bench.
trait From64 {
    fn from64(v: u64) -> Self;
}

impl From64 for Item32 {
    fn from64(v: u64) -> Self {
        let mut bytes = [0u8; 32];
        let mut state = riblt_hash::SplitMix64::new(v | 1);
        state.fill_bytes(&mut bytes);
        riblt::FixedBytes(bytes)
    }
}

impl From64 for Item8 {
    fn from64(v: u64) -> Self {
        Item8::from_u64(v | 1)
    }
}

fn distinct_items<S: From64>(n: u64, seed: u64) -> Vec<S> {
    let mut gen = riblt_hash::SplitMix64::new(splitmix64(seed) | 1);
    let mut seen = std::collections::HashSet::with_capacity(n as usize);
    let mut out = Vec::with_capacity(n as usize);
    while out.len() < n as usize {
        let v = gen.next_u64();
        if seen.insert(v) {
            out.push(S::from64(v));
        }
    }
    out
}

fn bench_sketch_subtract(scale: RunScale, seed: u64) -> BenchRecord {
    let cells = scale.pick(100_000usize, 500_000usize);
    let trials = scale.pick(20u32, 50u32);
    let n = scale.pick(10_000u64, 50_000u64);

    let pair = set_pair32(n, n / 10, derive(seed, 0x5b));
    let a = Sketch::<Item32>::from_set(cells, pair.alice.iter());
    let b = Sketch::<Item32>::from_set(cells, pair.bob.iter());

    let mut total_s = 0.0;
    for _ in 0..trials {
        let mut work = a.clone();
        let (_, secs) = timed(|| work.subtract(&b).expect("geometry matches"));
        total_s += secs;
        std::hint::black_box(&work);
    }

    let total_cells = cells as f64 * trials as f64;
    BenchRecord::new("sketch_subtract/32B")
        .param("symbol_bytes", 32.0)
        .param("cells", cells as f64)
        .param("trials", trials as f64)
        .metric("wall_s", total_s)
        .metric("cells_per_s", total_cells / total_s)
        .metric("mb_per_s", total_cells * 32.0 / total_s / 1e6)
}

fn bench_mux_sharded(scale: RunScale, seed: u64) -> BenchRecord {
    let n = scale.pick(20_000u64, 100_000u64);
    let d = scale.pick(2_000u64, 10_000u64);
    let shards = 8u16;

    let pair = set_pair32(n, d, derive(seed, 0x30c5));
    let config = NodeConfig::new(shards, 32);
    let mut nodes = vec![Node::new(0, config), Node::new(1, config)];
    for item in pair.alice {
        nodes[0].insert(item);
    }
    for item in pair.bob {
        nodes[1].insert(item);
    }

    let mut topology = Topology::full_mesh(2, LinkConfig::paper_default());
    let outcome = reconcile_pair(
        &mut nodes,
        0,
        1,
        &mut topology,
        &PairSyncConfig::default(),
        1,
        0.0,
    )
    .expect("pair reconciliation");
    assert_eq!(nodes[0].digest(), nodes[1].digest(), "nodes converged");

    BenchRecord::new("mux_sharded_decode/32B")
        .param("symbol_bytes", 32.0)
        .param("set_size", n as f64)
        .param("difference", d as f64)
        .param("shards", shards as f64)
        .metric("wall_s", outcome.decode_wall_s + outcome.serve_wall_s)
        .metric("decode_wall_s", outcome.decode_wall_s)
        .metric("serve_wall_s", outcome.serve_wall_s)
        .metric("diffs_per_s", d as f64 / outcome.decode_wall_s)
        .metric("units", outcome.units as f64)
        .metric("rounds", outcome.rounds as f64)
}

/// Pulls one numeric field out of a registry-JSON dump, matching the series
/// by name and (when given) one label pair — e.g. the `result="hit"` leg of
/// the wire-cache counter.
fn series_field(
    doc: &JsonValue,
    name: &str,
    label: Option<(&str, &str)>,
    field: &str,
) -> Option<f64> {
    let series = doc.get("series")?.as_array()?;
    series
        .iter()
        .find(|entry| {
            entry.get("name").and_then(JsonValue::as_str) == Some(name)
                && label.is_none_or(|(k, v)| {
                    entry
                        .get("labels")
                        .and_then(|labels| labels.get(k))
                        .and_then(JsonValue::as_str)
                        == Some(v)
                })
        })
        .and_then(|entry| entry.get(field))
        .and_then(JsonValue::as_number)
}

fn bench_daemon_stream(scale: RunScale, seed: u64) -> (BenchRecord, Option<String>) {
    let n = scale.pick(20_000u64, 100_000u64);
    let d = scale.pick(1_000u64, 5_000u64);

    let pair = set_pair32(n, d, derive(seed, 0xdae0));
    let config = DaemonConfig {
        shards: 8,
        symbol_len: 32,
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let key = config.key;
    let daemon = Daemon::spawn(config, pair.alice).expect("daemon spawn");

    let mut conn = TcpStream::connect(daemon.data_addr()).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let ((diffs, _outcome), secs) = timed(|| {
        sync_sharded_tcp(
            &mut conn,
            &pair.bob,
            |_| RibltBackend::<Item32>::with_key_and_alpha(32, 32, key, riblt::DEFAULT_ALPHA),
            &TcpSyncConfig {
                key,
                symbol_len: 32,
                ..Default::default()
            },
        )
        .expect("tcp sync")
    });
    drop(conn);
    let recovered: usize = diffs
        .iter()
        .map(|diff| diff.remote_only.len() + diff.local_only.len())
        .sum();
    assert_eq!(
        recovered, d as usize,
        "daemon stream recovered the difference"
    );
    let stats = daemon.stats();
    let metrics_json = daemon.metrics_json();
    daemon.shutdown();

    let mut record = BenchRecord::new("daemon_stream/32B")
        .param("symbol_bytes", 32.0)
        .param("set_size", n as f64)
        .param("difference", d as f64)
        .param("shards", 8.0)
        .metric("wall_s", secs)
        .metric("diffs_per_s", d as f64 / secs)
        .metric("server_bytes_out", stats.bytes_out as f64)
        .metric("server_serve_cpu_s", stats.serve_cpu_s);

    // Fold the headline series from the live registry into the record so
    // the trajectory files track serving latency and cache efficiency, not
    // just throughput.
    let doc = json::parse(&metrics_json).expect("daemon metrics JSON parses");
    let histogram = "reconciled_serve_batch_seconds";
    let cache = "reconciled_wire_cache_lookups_total";
    for (metric, name, label, field) in [
        ("serve_batch_p50_s", histogram, None, "p50"),
        ("serve_batch_p99_s", histogram, None, "p99"),
        ("wire_cache_hits", cache, Some(("result", "hit")), "value"),
        (
            "wire_cache_misses",
            cache,
            Some(("result", "miss")),
            "value",
        ),
    ] {
        if let Some(value) = series_field(&doc, name, label, field) {
            record = record.metric(metric, value);
        }
    }

    let has_series = doc
        .get("series")
        .and_then(JsonValue::as_array)
        .is_some_and(|series| !series.is_empty());
    (record, has_series.then_some(metrics_json))
}

fn bench_daemon_scale(scale: RunScale, seed: u64) -> BenchRecord {
    let peers = scale.pick(128usize, 1_024usize);
    let base_items = scale.pick(1_024u64, 4_096u64);
    let staleness = vec![0u64, 8, 64, 256];
    let key = SipKey::new(derive(seed, 0x5ca1e), derive(seed, 0xf1ee7));

    let want_fds = (peers as u64) * 2 + 512;
    let got_fds = raise_nofile_limit(want_fds);
    if got_fds < want_fds {
        eprintln!("# daemon_scale: fd limit {got_fds} < {want_fds} wanted");
    }

    let daemon = Daemon::spawn(
        DaemonConfig {
            shards: 8,
            key,
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
            ..Default::default()
        },
        server_items(base_items),
    )
    .expect("daemon spawn");

    let config = LoadgenConfig {
        clients: peers,
        rounds: 1,
        base_items,
        staleness,
        key,
        read_timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let report = loadgen_run(&daemon.data_addr().to_string(), &config);
    assert_eq!(
        report.syncs_failed, 0,
        "daemon_scale fleet had failed syncs ({}/{} ok)",
        report.syncs_ok, peers
    );

    let serve = daemon.metrics().serve_batch_seconds.snapshot();
    let pauses = daemon.metrics().backpressure_pauses.get();
    daemon.shutdown();

    BenchRecord::new("daemon_scale/8B")
        .param("peers", peers as f64)
        .param("rounds", 1.0)
        .param("base_items", base_items as f64)
        .param("shards", 8.0)
        .metric("wall_s", report.wall.as_secs_f64())
        .metric("syncs_per_s", report.syncs_per_sec())
        .metric("sync_p50_s", report.latency_quantile(0.50))
        .metric("sync_p99_s", report.latency_quantile(0.99))
        .metric("serve_batch_p99_s", serve.p99() / 1e9)
        .metric("backpressure_pauses", pauses as f64)
}

fn bench_udp_loss(scale: RunScale, seed: u64) -> BenchRecord {
    let base_items = scale.pick(2_048u64, 8_192u64);
    let diff = scale.pick(96u64, 256u64);
    let loss = 0.10;
    let key = SipKey::new(derive(seed, 0x0db1), derive(seed, 0x10bb));

    let server_set: Vec<Item8> = (0..base_items).map(Item8::from_u64).collect();
    let local: Vec<Item8> = (diff / 2..base_items + diff / 2)
        .map(Item8::from_u64)
        .collect();
    let daemon = Daemon::spawn(
        DaemonConfig {
            shards: 4,
            key,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            udp_listen: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
        server_set,
    )
    .expect("daemon spawn");

    let sync_config = UdpSyncConfig {
        key,
        nonce: derive(seed, 0x0d9a) | 1,
        deadline: Duration::from_secs(60),
        ..Default::default()
    };
    let dial = || {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket
            .connect(daemon.udp_addr().expect("udp enabled"))
            .expect("connect");
        socket
    };
    let backend = |_| RibltBackend::<Item8>::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA);

    let ((_, clean), clean_s) = timed(|| {
        let mut socket = dial();
        sync_sharded_udp(&mut socket, &local, backend, &sync_config).expect("clean udp sync")
    });
    let lossy_config = UdpSyncConfig {
        nonce: sync_config.nonce + 1,
        ..sync_config
    };
    let ((diffs, lossy), lossy_s) = timed(|| {
        let mut conduit = LossyConduit::new(dial(), loss, derive(seed, 0x70ca));
        sync_sharded_udp(&mut conduit, &local, backend, &lossy_config).expect("lossy udp sync")
    });
    let recovered: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
    assert_eq!(
        recovered as u64,
        diff / 2,
        "udp_loss recovered the difference"
    );
    daemon.shutdown();

    BenchRecord::new("udp_loss/8B")
        .param("symbol_bytes", 8.0)
        .param("base_items", base_items as f64)
        .param("difference", diff as f64)
        .param("loss", loss)
        .param("shards", 4.0)
        .metric("wall_s", lossy_s)
        .metric("clean_wall_s", clean_s)
        .metric("units", lossy.units as f64)
        .metric(
            "extra_units",
            lossy.units.saturating_sub(clean.units) as f64,
        )
        .metric("retransmits", lossy.retransmits as f64)
        .metric("stale_batches", lossy.stale_batches as f64)
        .metric("datagrams_sent", lossy.datagrams_sent as f64)
        .metric("datagrams_received", lossy.datagrams_received as f64)
}

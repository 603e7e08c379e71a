//! Perf-snapshot harness: pinned-seed micro-benches over the kernels,
//! written to `BENCH_<date>.json` in the stable schema described in
//! `riblt_bench::snapshot`. Checked-in snapshots at the repo root form the
//! kernel trajectory of the codebase; the CI `perf-smoke` job runs
//! `--quick` on every push and validates the emitted file. End-to-end
//! numbers (a whole sync against the daemon, bytes per difference) are
//! `syncbench`'s.
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
//! - `client_setup/32B` — what the one-shot sharded client does with its
//!   20,000-item set at `stale_tip`'s d = 100: hash every item, group them
//!   by shard, and build each of the eight shards' clients over that
//!   shard's first flight (`ReconcileBackend::build_client_keyed`: the
//!   shard's items walked over the cells that arrived, a window only for a
//!   shard that reads on). The hash alone, the grouping and the item walk
//!   (`riblt::apply_prefix_logged` of every shard's members over its first
//!   flight's cells) ride along as stages.
//!   Snapshots taken while the client filled every shard's window before
//!   its first payload timed that fill instead (EXPERIMENTS.md says from
//!   which snapshot on).
//! - `sketch_subtract/32B` — cell-wise sketch subtraction, pure symbol XOR.
//! - `mux_sharded_decode/32B` — two cluster nodes reconciling over the
//!   simulated mux protocol; reports the measured decode/serve wall time.
//!   The client builds each shard's decoder when that shard's first payload
//!   arrives, so `decode_wall_s`, and `wall_s` with it, include building
//!   the decoders over the initiator's 20,000 items; snapshots taken while
//!   the client built every decoder before the first round timed the
//!   absorbs alone (EXPERIMENTS.md says from which snapshot on).

use cluster::{Node, NodeConfig};
use netsim::{reconcile_pair, LinkConfig, PairSyncConfig, Topology};
use reconcile_core::backends::RibltBackend;
use reconcile_core::{CountSketch, FirstFlight, ReconcileBackend, ShardPartitioner};
use riblt::{CodedSymbol, Decoder, Direction, Encoder, Sketch, Symbol, Uniform};
use riblt_bench::snapshot::{today_utc, validate, BenchRecord, Snapshot};
use riblt_bench::{items32, set_pair32, timed, Item32, Item8, RunScale};
use riblt_hash::{splitmix64, SipKey};

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

    let snapshot = Snapshot {
        generated: today_utc(),
        mode: match scale {
            RunScale::Quick => "quick".into(),
            RunScale::Full => "full".into(),
        },
        seed,
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

/// The one-shot sharded client's set-up over a 20,000-item set and 8
/// shards, the benchmark's sizes, against `stale_tip`'s server (its last 50
/// items replaced: d = 100): each trial hashes the set, groups it and builds
/// every shard's endpoint over the first flight the server sizes from the
/// client's count sketch, dropping each as the sync would. Same sizes in
/// both modes; `--full` only adds trials. Means per trial, with the fastest
/// trial of the whole pass beside them (the host's quiet-moment reading).
fn bench_client_setup(scale: RunScale, seed: u64) -> BenchRecord {
    let n = 20_000u64;
    let shards = 8u16;
    let trials = scale.pick(50u32, 200u32);

    let items = items32(n, derive(seed, 0x5e70));
    let mut remote = items[..n as usize - 50].to_vec();
    remote.extend(items32(50, derive(seed, 0x5e71)));
    let key = SipKey::default();
    let partitioner = ShardPartitioner::new(key, shards);
    let backend = RibltBackend::<Item32>::with_key_and_alpha(32, 32, key, riblt::DEFAULT_ALPHA);
    let sketch = |set: &[Item32]| CountSketch::from_hashes(&Item32::hash_many_with(set, key));
    let mut wire = Vec::new();
    sketch(&items).encode(&mut wire);
    let flight = FirstFlight::for_sketch(&wire, &sketch(&remote), shards, 32, 1 << 20)
        .expect("a sketch of the same shape");
    let flights: Vec<Vec<Vec<u8>>> = partitioner
        .partition(&remote)
        .iter()
        .map(|part| {
            let mut server = backend.build_server(part);
            let tiles = flight.symbols / backend.batch_symbols;
            (0..tiles)
                .map(|_| backend.serve(&mut server, None).expect("stream"))
                .collect()
        })
        .collect();

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
    let hashes = Item32::hash_many_with(&items, key);
    let (hash_s, _) = trials_of(trials, || Item32::hash_many_with(&items, key));
    let (group_s, _) = trials_of(trials, || partitioner.group(&hashes));
    let grouping = partitioner.group(&hashes);
    let mut cells =
        vec![vec![CodedSymbol::<Item32>::default(); flight.symbols]; usize::from(shards)];
    let (walk_s, _) = trials_of(trials, || {
        for (shard, cells) in (0..shards).zip(&mut cells) {
            let members = grouping.members(shard);
            let rule = Uniform(riblt::DEFAULT_ALPHA);
            let parked = riblt::apply_prefix_logged(
                cells,
                &items,
                &hashes,
                members,
                &rule,
                Direction::Remove,
            );
            std::hint::black_box(parked);
        }
    });
    let (setup_s, setup_best_s) = trials_of(trials, || {
        let hashes = Item32::hash_many_with(&items, key);
        let grouping = partitioner.group(&hashes);
        let mut units = 0;
        for (shard, flight) in (0..shards).zip(&flights) {
            let first: Vec<&[u8]> = flight.iter().map(Vec::as_slice).collect();
            let members = grouping.members(shard);
            let (client, _) = backend
                .build_client_keyed(&items, &hashes, members, &first)
                .expect("a first flight of valid tiles");
            units += backend.units(&client);
        }
        units
    });

    let per_trial_ms = |secs: f64| secs * 1e3 / f64::from(trials);
    BenchRecord::new("client_setup/32B")
        .param("symbol_bytes", 32.0)
        .param("local_set", n as f64)
        .param("shards", f64::from(shards))
        .param("difference", 100.0)
        .param("first_flight_symbols", flight.symbols as f64)
        .param("trials", f64::from(trials))
        .metric("wall_s", setup_s)
        .metric("setup_ms", per_trial_ms(setup_s))
        .metric("setup_ms_best", setup_best_s * 1e3)
        .metric("hash_ms", per_trial_ms(hash_s))
        .metric("group_ms", per_trial_ms(group_s))
        .metric("walk_ms", per_trial_ms(walk_s))
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

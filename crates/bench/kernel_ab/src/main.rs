//! In-process kernel A/B harness.
//!
//! Separate-process runs cannot resolve a few per cent on a shared host:
//! `perf_snapshot` pairs of one build differ by 10–20 % between quartiles.
//! This binary links two copies of the crates, this checkout's (`change`)
//! and a parent commit's (`parent`, exported and renamed by `run.sh`), and
//! times each kernel on both inside one pinned process, alternating the two
//! sides repetition by repetition with fresh state per repetition, so both
//! see the same minute of the same core. It prints one table row per kernel:
//! fastest and median of each side, the change at both, and repetitions won.
//!
//! The project rule for a kernel claim (ROADMAP): change faster than parent
//! in ≥ 9 of every 10 repetitions. Run it through `run.sh`, never by hand:
//!
//! ```text
//! crates/bench/kernel_ab/run.sh [PARENT_REV] [--reps N] [--only SUBSTRING] [--seed N]
//! ```
//!
//! Kernels written once for both sides live in the `side!` macro and may use
//! only what both commits export. A kernel over an interface the change adds
//! or reshapes is written out per side under "Kernels whose two sides differ";
//! those are the rows a PR edits. Every kernel returns a digest of what it
//! computed, and the two sides' digests must agree.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// 32-byte items, the benchmark's size; 8-byte ones for the narrow peel.
const ITEM_LEN: usize = 32;
/// The stale replica's regime (`syncbench`'s `stale_tip` / `bulk_catchup`).
const SET: usize = 20_000;
const SHARDS: u16 = 8;
/// Coded symbols per payload, the daemon's default tile.
const TILE: usize = 32;
/// Symbols a stream may serve, the daemon's default budget.
const UNIT_BUDGET: usize = 1 << 20;

/// Inputs as plain bytes, generated once and wrapped into each side's types.
pub struct Raw {
    /// `SET` distinct items: the local set.
    local: Vec<[u8; ITEM_LEN]>,
    /// The local set with its last 50 items replaced (`stale_tip`: d = 100).
    remote_near: Vec<[u8; ITEM_LEN]>,
    /// The local set with its last 2,000 items replaced (d = 4,000).
    remote_far: Vec<[u8; ITEM_LEN]>,
    /// 10,000 more, for the pure peel.
    fresh: Vec<[u8; ITEM_LEN]>,
    /// The local set with its last 1,000 items replaced (d = 2,000).
    remote_mid: Vec<[u8; ITEM_LEN]>,
}

impl Raw {
    fn generate(seed: u64) -> Raw {
        let mut gen = riblt_hash::SplitMix64::new(seed | 1);
        let mut draw = |n: usize| -> Vec<[u8; ITEM_LEN]> {
            (0..n)
                .map(|_| {
                    let mut bytes = [0u8; ITEM_LEN];
                    gen.fill_bytes(&mut bytes);
                    bytes
                })
                .collect()
        };
        let local = draw(SET);
        let replace_tail = |d: usize, with: Vec<[u8; ITEM_LEN]>| {
            let mut remote = local[..SET - d].to_vec();
            remote.extend(with);
            remote
        };
        let remote_near = replace_tail(50, draw(50));
        let remote_far = replace_tail(2_000, draw(2_000));
        let fresh = draw(10_000);
        let remote_mid = replace_tail(1_000, draw(1_000));
        Raw {
            local,
            remote_near,
            remote_far,
            fresh,
            remote_mid,
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// What a kernel returns: seconds inside its timed region, and a digest of
/// its result that must match the other side's.
type Sample = (f64, u64);

macro_rules! side {
    ($side:ident, $riblt:ident, $hash:ident, $core:ident, $cluster:ident, $netsim:ident) => {
        pub mod $side {
            use super::{timed, Raw, RefCell, Sample, SHARDS, TILE, UNIT_BUDGET};
            use $cluster::{Node, NodeConfig, Responder};
            use $core::backends::RibltBackend;
            use $core::handshake::Hello;
            use $core::{
                sync_sharded_tcp, ClientEngine, CountSketch, FirstFlight, ReconcileBackend,
                ShardPartitioner, TcpSyncConfig,
            };
            use $hash::SipKey;
            use $netsim::FlightLinkTo;
            use $riblt::{CodedSymbol, Decoder, Encoder, FixedBytes, Symbol};

            pub type Item = FixedBytes<32>;
            pub type Narrow = FixedBytes<8>;

            /// Everything the kernels read, built outside any timed region.
            pub struct Inputs {
                pub key: SipKey,
                pub local: Vec<Item>,
                /// Per shard, the first flight a `stale_tip` server sends.
                near_flight: Vec<Vec<Vec<u8>>>,
                /// One stream against `local` at d = 2 × 2,000.
                far_stream: Vec<CodedSymbol<Item>>,
                peel_2k: Vec<CodedSymbol<Item>>,
                peel_10k: Vec<CodedSymbol<Item>>,
                peel_10k_narrow: Vec<CodedSymbol<Narrow>>,
                /// Warm servers of the remote sets at d = 100 and d = 2,000.
                near_node: RefCell<Node<Item>>,
                mid_node: RefCell<Node<Item>>,
            }

            fn backend(key: SipKey) -> RibltBackend<Item> {
                RibltBackend::with_key_and_alpha(32, TILE, key, 0.5)
            }

            fn stream<S: Symbol>(items: &[S], cells: usize) -> Vec<CodedSymbol<S>> {
                let mut enc = Encoder::<S>::new();
                for item in items {
                    enc.add_symbol(item.clone()).unwrap();
                }
                enc.produce_coded_symbols(cells)
            }

            pub fn inputs(raw: &Raw) -> Inputs {
                let key = SipKey::default();
                let wrap = |bytes: &[[u8; 32]]| -> Vec<Item> {
                    bytes.iter().map(|b| FixedBytes(*b)).collect()
                };
                let local = wrap(&raw.local);
                let fresh = wrap(&raw.fresh);
                let narrow: Vec<Narrow> = raw
                    .fresh
                    .iter()
                    .map(|b| FixedBytes(b[..8].try_into().unwrap()))
                    .collect();
                let remote_near = wrap(&raw.remote_near);
                let sketch =
                    |set: &[Item]| CountSketch::from_hashes(&Item::hash_many_with(set, key));
                let mut wire = Vec::new();
                sketch(&local).encode(&mut wire);
                let flight =
                    FirstFlight::for_sketch(&wire, &sketch(&remote_near), SHARDS, TILE, UNIT_BUDGET)
                        .unwrap();
                let near_flight = ShardPartitioner::new(key, SHARDS)
                    .partition(&remote_near)
                    .iter()
                    .map(|part| {
                        let mut server = backend(key).build_server(part);
                        (0..flight.symbols / TILE)
                            .map(|_| backend(key).serve(&mut server, None).unwrap())
                            .collect()
                    })
                    .collect();
                let warm_node = |remote: &[[u8; 32]]| {
                    let mut node = empty_node();
                    node.extend(wrap(remote));
                    let node = RefCell::new(node);
                    one_shot(key, &local, &node);
                    node
                };
                Inputs {
                    key,
                    near_node: warm_node(&raw.remote_near),
                    mid_node: warm_node(&raw.remote_mid),
                    near_flight,
                    far_stream: stream(&wrap(&raw.remote_far), 8_000),
                    peel_2k: stream(&fresh[..2_000], 4_004),
                    peel_10k: stream(&fresh, 20_004),
                    peel_10k_narrow: stream(&narrow, 20_004),
                    local,
                }
            }

            /// The one-shot client's set-up at `stale_tip` (d = 100): hash,
            /// group by shard, and build each shard's endpoint over its first
            /// flight (`ClientEngine::new_keyed`), dropping each as a sync
            /// does: `perf_snapshot`'s `client_setup/32B`.
            fn client_setup(inputs: &Inputs) -> Sample {
                let partitioner = ShardPartitioner::new(inputs.key, SHARDS);
                let (units, secs) = timed(|| {
                    let hashes = Item::hash_many_with(&inputs.local, inputs.key);
                    let grouping = partitioner.group(&hashes);
                    let mut units = 0;
                    for (shard, flight) in (0..SHARDS).zip(&inputs.near_flight) {
                        let first: Vec<&[u8]> = flight.iter().map(Vec::as_slice).collect();
                        let members = grouping.members(shard);
                        let (engine, _) = ClientEngine::new_keyed(
                            backend(inputs.key),
                            &inputs.local,
                            &hashes,
                            members,
                            &first,
                        )
                        .unwrap();
                        units += engine.units() as u64;
                    }
                    units
                });
                (secs, units)
            }

            /// `perf_snapshot`'s `decode_local_set/32B`: one decoder takes in
            /// the local set, then one stream at d = 4,000.
            fn decode_local_set(inputs: &Inputs) -> Sample {
                let (dec, secs) = timed(|| {
                    let mut dec = Decoder::<Item>::with_key(inputs.key);
                    for item in &inputs.local {
                        dec.add_symbol(*item).unwrap();
                    }
                    dec.add_coded_symbols(inputs.far_stream.iter().cloned());
                    dec
                });
                assert!(dec.is_decoded());
                (secs, dec.recovered_count() as u64)
            }

            fn peel<S: Symbol>(coded: &[CodedSymbol<S>]) -> Sample {
                let (dec, secs) = timed(|| {
                    let mut dec = Decoder::<S>::new();
                    dec.add_coded_symbols(coded.iter().cloned());
                    dec
                });
                assert!(dec.is_decoded());
                (secs, dec.recovered_count() as u64)
            }

            fn peel_2k(inputs: &Inputs) -> Sample {
                peel(&inputs.peel_2k)
            }

            fn peel_10k(inputs: &Inputs) -> Sample {
                peel(&inputs.peel_10k)
            }

            fn peel_10k_narrow(inputs: &Inputs) -> Sample {
                peel(&inputs.peel_10k_narrow)
            }

            /// The server's side of a cold shard: 3,000 coded symbols out of
            /// a loaded encoder.
            fn encode_3k(inputs: &Inputs) -> Sample {
                let mut enc = Encoder::<Item>::with_key(inputs.key);
                for item in &inputs.local {
                    enc.add_symbol(*item).unwrap();
                }
                let (coded, secs) = timed(|| enc.produce_coded_symbols(3_000));
                (secs, coded[0].checksum ^ coded[2_999].checksum)
            }

            /// One whole one-shot sync of `local` on one thread, the client
            /// (`sync_sharded_tcp`) and the server (a `Responder` over
            /// `node`, behind the handshake) in one process, as a cluster
            /// pair exchange holds it: the seconds the sync took, and the
            /// units consumed beside the differences recovered.
            fn one_shot(key: SipKey, local: &[Item], node: &RefCell<Node<Item>>) -> Sample {
                let mut node = node.borrow_mut();
                let mut serving = Responder::new(SHARDS, 32, TILE, UNIT_BUDGET);
                let mut link =
                    FlightLinkTo::handshaking(Hello::new(key, SHARDS, 32), |frame, out| {
                        serving.handle(frame, &mut *node, out)?;
                        while serving.open_next_shard(&mut *node, out)?.is_some() {}
                        Ok(())
                    });
                let config = TcpSyncConfig {
                    key,
                    symbol_len: 32,
                    threads: 1,
                    max_units_per_shard: UNIT_BUDGET,
                };
                let ((differences, outcome), secs) = timed(|| {
                    sync_sharded_tcp(&mut link, local, |_| backend(key), &config).unwrap()
                });
                let recovered: usize = differences
                    .iter()
                    .map(|d| d.remote_only.len() + d.local_only.len())
                    .sum();
                (secs, (outcome.units as u64) << 32 | recovered as u64)
            }

            /// A stale replica's whole sync against a warm node at d = 100
            /// (`stale_tip`): hash, place, build and absorb, and the serving.
            fn one_shot_near(inputs: &Inputs) -> Sample {
                one_shot(inputs.key, &inputs.local, &inputs.near_node)
            }

            /// [`one_shot_near`] at d = 2,000, where shards ask again.
            fn one_shot_mid(inputs: &Inputs) -> Sample {
                one_shot(inputs.key, &inputs.local, &inputs.mid_node)
            }

            /// An empty node for the per-side `node_build` kernels.
            pub fn empty_node() -> Node<Item> {
                Node::new(0, NodeConfig::new(SHARDS, 32))
            }

            pub const KERNELS: &[(&str, fn(&Inputs) -> Sample)] = &[
                (
                    "client_setup/32B: 20,000 items, 8 shards, stale_tip first flight",
                    client_setup,
                ),
                (
                    "decode_local_set/32B: 20,000 local, d 4,000",
                    decode_local_set,
                ),
                ("pure peel, d 2,000, 32 B", peel_2k),
                ("pure peel, d 10,000, 32 B", peel_10k),
                ("pure peel, d 10,000, 8 B", peel_10k_narrow),
                ("encode 3,000 of 20,000, 32 B", encode_3k),
                (
                    "one_shot sync, d 100: 20,000 × 32 B, 8 shards",
                    one_shot_near,
                ),
                (
                    "one_shot sync, d 2,000: 20,000 × 32 B, 8 shards",
                    one_shot_mid,
                ),
            ];
        }
    };
}

side!(change, riblt, riblt_hash, reconcile_core, cluster, netsim);
side!(
    parent,
    parent_riblt,
    parent_riblt_hash,
    parent_reconcile_core,
    parent_cluster,
    parent_netsim
);

// --- Kernels whose two sides differ (the parent's side of the first-flight
// rows fills a window, which every commit has; the change's side walks
// items through `apply_prefix` under its mapping-rule argument; the
// eight-lane hash and the bulk node load, `Node::extend`, are on both sides
// now). ---

fn hash_set_parent(inputs: &parent::Inputs) -> Sample {
    use parent_riblt::Symbol;
    let (hashes, secs) = timed(|| parent::Item::hash_many_with(&inputs.local, inputs.key));
    (secs, hashes.iter().fold(0, |acc, h| acc ^ h))
}

fn hash_set_change(inputs: &change::Inputs) -> Sample {
    use riblt::Symbol;
    let (hashes, secs) = timed(|| change::Item::hash_many_with(&inputs.local, inputs.key));
    (secs, hashes.iter().fold(0, |acc, h| acc ^ h))
}

fn node_build_parent(inputs: &parent::Inputs) -> Sample {
    let (node, secs) = timed(|| {
        let mut node = parent::empty_node();
        for item in &inputs.local {
            node.insert(*item);
        }
        node
    });
    (secs, node.digest())
}

fn node_build_change(inputs: &change::Inputs) -> Sample {
    let (node, secs) = timed(|| {
        let mut node = change::empty_node();
        node.extend(inputs.local.iter().copied());
        node
    });
    (secs, node.digest())
}

/// One digest of every shard's cells, in shard order.
fn cells_digest(cells: impl Iterator<Item = (u64, i64)>) -> u64 {
    cells.fold(0, |acc, (checksum, count)| {
        acc.rotate_left(7) ^ checksum ^ count as u64
    })
}

/// The local set's contribution to each of the eight shards' first `m`
/// cells as the one-shot client computed it before: group the hashes by
/// shard, fill a coding window per shard, walk it cell by cell.
fn first_flight_window(inputs: &parent::Inputs, m: usize) -> Sample {
    use parent_riblt::{Encoder, HashedSymbol, Symbol};
    let hashes = parent::Item::hash_many_with(&inputs.local, inputs.key);
    let partitioner = parent_reconcile_core::ShardPartitioner::new(inputs.key, SHARDS);
    let (cells, secs) = timed(|| {
        let grouping = partitioner.group(&hashes);
        let mut cells = Vec::with_capacity(usize::from(SHARDS) * m);
        for shard in 0..SHARDS {
            let members = grouping.members(shard);
            let mut window = Encoder::<parent::Item>::with_key(inputs.key);
            window.reserve(members.len());
            for &at in members {
                let at = at as usize;
                let hashed = HashedSymbol::with_hash(inputs.local[at], hashes[at]);
                window.add_hashed_symbol(hashed).unwrap();
            }
            cells.extend(window.produce_coded_symbols(m));
        }
        cells
    });
    (
        secs,
        cells_digest(cells.iter().map(|c| (c.checksum, c.count))),
    )
}

/// `riblt::apply_prefix`'s signature under the regular rule, which its
/// scalar lanes share.
type PrefixKernel = fn(
    &mut [riblt::CodedSymbol<change::Item>],
    &[change::Item],
    &[u64],
    &[u32],
    &riblt::Uniform,
    riblt::Direction,
) -> Vec<riblt::IndexMapping>;

/// The same cells item by item (`riblt::apply_prefix` or its scalar
/// lanes, under the rule argument), each member's mapping parked at `m`.
fn first_flight_items(inputs: &change::Inputs, m: usize, apply: PrefixKernel) -> Sample {
    use riblt::{CodedSymbol, Direction, Symbol, Uniform};
    let hashes = change::Item::hash_many_with(&inputs.local, inputs.key);
    let partitioner = reconcile_core::ShardPartitioner::new(inputs.key, SHARDS);
    let (cells, secs) = timed(|| {
        let grouping = partitioner.group(&hashes);
        let mut cells = vec![CodedSymbol::<change::Item>::default(); usize::from(SHARDS) * m];
        for (shard, cells) in (0..SHARDS).zip(cells.chunks_mut(m)) {
            let members = grouping.members(shard);
            let rule = Uniform(0.5);
            let parked = apply(cells, &inputs.local, &hashes, members, &rule, Direction::Add);
            black_box(parked);
        }
        cells
    });
    (
        secs,
        cells_digest(cells.iter().map(|c| (c.checksum, c.count))),
    )
}

fn first_flight_window_32(inputs: &parent::Inputs) -> Sample {
    first_flight_window(inputs, 32)
}

fn first_flight_window_384(inputs: &parent::Inputs) -> Sample {
    first_flight_window(inputs, 384)
}

fn first_flight_kernel_32(inputs: &change::Inputs) -> Sample {
    first_flight_items(inputs, 32, riblt::apply_prefix)
}

fn first_flight_kernel_384(inputs: &change::Inputs) -> Sample {
    first_flight_items(inputs, 384, riblt::apply_prefix)
}

fn first_flight_scalar_32(inputs: &change::Inputs) -> Sample {
    first_flight_items(inputs, 32, riblt::apply_prefix_scalar)
}

fn first_flight_scalar_384(inputs: &change::Inputs) -> Sample {
    first_flight_items(inputs, 384, riblt::apply_prefix_scalar)
}

type Pair = (
    &'static str,
    fn(&parent::Inputs) -> Sample,
    fn(&change::Inputs) -> Sample,
);

const DIFFERING: &[Pair] = &[
    (
        "hash 20,000 × 32 B: `hash_many_with`, parent's / change's lanes",
        hash_set_parent,
        hash_set_change,
    ),
    (
        "node build, 20,000 × 32 B: `insert` each / `extend`",
        node_build_parent,
        node_build_change,
    ),
    (
        "first-flight local cells, 20,000 × 32 B, 8 shards, m 32: group + fill + walk / `apply_prefix`",
        first_flight_window_32,
        first_flight_kernel_32,
    ),
    (
        "first-flight local cells, 20,000 × 32 B, 8 shards, m 32: group + fill + walk / scalar lanes",
        first_flight_window_32,
        first_flight_scalar_32,
    ),
    (
        "first-flight local cells, 20,000 × 32 B, 8 shards, m 384: group + fill + walk / `apply_prefix`",
        first_flight_window_384,
        first_flight_kernel_384,
    ),
    (
        "first-flight local cells, 20,000 × 32 B, 8 shards, m 384: group + fill + walk / scalar lanes",
        first_flight_window_384,
        first_flight_scalar_384,
    ),
];

struct Cli {
    reps: usize,
    only: Option<String>,
    seed: u64,
}

impl Cli {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            reps: 101,
            only: None,
            seed: 1,
        };
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--reps" => cli.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
                "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--only" => cli.only = Some(value()?),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if cli.reps == 0 {
            return Err("--reps must be positive".into());
        }
        Ok(cli)
    }
}

/// Fastest and median of one side's repetitions, in ms.
fn summary(mut secs: Vec<f64>) -> (f64, f64) {
    secs.sort_by(f64::total_cmp);
    (secs[0] * 1e3, secs[secs.len() / 2] * 1e3)
}

fn main() {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: kernel_ab [--reps N] [--only SUBSTRING] [--seed N]");
            std::process::exit(2);
        }
    };
    if riblt::prefix_uses_avx512(&riblt::Uniform(0.5)) {
        eprintln!("# change: AVX-512 lanes (avx512f + avx512dq detected)");
    } else {
        eprintln!("# change: scalar lanes only (no avx512f + avx512dq)");
    }
    let raw = Raw::generate(cli.seed);
    let (parent_inputs, change_inputs) = (parent::inputs(&raw), change::inputs(&raw));

    let shared = parent::KERNELS.iter().zip(change::KERNELS);
    let shared = shared.map(|(&(name, parent), &(_, change))| (name, parent, change));
    let kernels: Vec<Pair> = shared.chain(DIFFERING.iter().copied()).collect();

    println!("| kernel | parent: fastest / median ms | change: fastest / median ms | change (fastest / median) | reps won |");
    println!("|---|---:|---:|---:|---:|");
    for (name, parent, change) in kernels {
        if cli.only.as_ref().is_some_and(|only| !name.contains(only)) {
            continue;
        }
        let (mut parent_s, mut change_s) = (Vec::new(), Vec::new());
        let mut won = 0;
        for rep in 0..cli.reps {
            // Alternate which side goes first: whatever the first run of a
            // repetition pays (a cold cache, a trimmed heap) is shared out.
            let ((p, p_digest), (c, c_digest)) = if rep % 2 == 0 {
                let p = parent(&parent_inputs);
                (p, change(&change_inputs))
            } else {
                let c = change(&change_inputs);
                (parent(&parent_inputs), c)
            };
            assert_eq!(p_digest, c_digest, "{name}: the two sides disagree");
            won += usize::from(c < p);
            parent_s.push(p);
            change_s.push(c);
        }
        let ((p_best, p_median), (c_best, c_median)) = (summary(parent_s), summary(change_s));
        println!(
            "| {name} | {p_best:.3} / {p_median:.3} | {c_best:.3} / {c_median:.3} | {:+.1} % / {:+.1} % | {won} / {} |",
            (c_best / p_best - 1.0) * 1e2,
            (c_median / p_median - 1.0) * 1e2,
            cli.reps
        );
    }
}

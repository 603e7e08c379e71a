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

use std::hint::black_box;
use std::time::Instant;

/// 32-byte items, the benchmark's size; 8-byte ones for the narrow peel.
const ITEM_LEN: usize = 32;
/// The stale replica's regime (`syncbench`'s `stale_tip` / `bulk_catchup`).
const SET: usize = 20_000;
const SHARDS: u16 = 8;
/// Coded symbols per payload, the daemon's default tile.
const TILE: usize = 32;

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
        Raw {
            local,
            remote_near,
            remote_far,
            fresh,
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
    ($side:ident, $riblt:ident, $hash:ident, $core:ident, $cluster:ident) => {
        pub mod $side {
            use super::{black_box, timed, Raw, Sample, SHARDS, TILE};
            use $cluster::{Node, NodeConfig};
            use $core::backends::RibltBackend;
            use $core::{ClientEngine, EngineMessage, Progress, ServerEngine, ShardPartitioner};
            use $hash::SipKey;
            use $riblt::{CodedSymbol, Decoder, Encoder, FixedBytes, Symbol};

            pub type Item = FixedBytes<32>;
            pub type Narrow = FixedBytes<8>;

            /// Everything the kernels read, built outside any timed region.
            pub struct Inputs {
                pub key: SipKey,
                pub local: Vec<Item>,
                /// Per shard, the payloads a `stale_tip` server streams.
                near_payloads: Vec<Vec<EngineMessage>>,
                /// One stream against `local` at d = 2 × 2,000.
                far_stream: Vec<CodedSymbol<Item>>,
                peel_2k: Vec<CodedSymbol<Item>>,
                peel_10k: Vec<CodedSymbol<Item>>,
                peel_10k_narrow: Vec<CodedSymbol<Narrow>>,
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
                let partitioner = ShardPartitioner::new(key, SHARDS);
                let near_payloads = partitioner
                    .partition(&wrap(&raw.remote_near))
                    .iter()
                    .map(|part| {
                        let mut server = ServerEngine::new(backend(key), part);
                        let open = ClientEngine::new(backend(key), &[]).open();
                        let mut payloads = server.handle(&open).unwrap();
                        payloads.extend((1..8).map(|_| server.next_payload().unwrap()));
                        payloads
                    })
                    .collect();
                Inputs {
                    key,
                    near_payloads,
                    far_stream: stream(&wrap(&raw.remote_far), 8_000),
                    peel_2k: stream(&fresh[..2_000], 4_004),
                    peel_10k: stream(&fresh, 20_004),
                    peel_10k_narrow: stream(&narrow, 20_004),
                    local,
                }
            }

            /// The client's set-up pass: hash, group by shard, fill eight
            /// decoder windows (`ShardPartitioner::client_engines`).
            fn client_setup(inputs: &Inputs) -> Sample {
                let partitioner = ShardPartitioner::new(inputs.key, SHARDS);
                let (engines, secs) =
                    timed(|| partitioner.client_engines(&inputs.local, |_| backend(inputs.key)));
                let shards = engines.len() as u64;
                black_box(engines);
                (secs, shards)
            }

            /// All of a `stale_tip` sync's client CPU: the set-up pass, then
            /// every shard absorbing tiles until its 100/8 differences peel.
            fn stale_tip_client(inputs: &Inputs) -> Sample {
                let partitioner = ShardPartitioner::new(inputs.key, SHARDS);
                let (units, secs) = timed(|| {
                    let engines =
                        partitioner.client_engines(&inputs.local, |_| backend(inputs.key));
                    let mut units = 0;
                    for (mut engine, payloads) in engines.into_iter().zip(&inputs.near_payloads) {
                        let done = payloads
                            .iter()
                            .any(|payload| engine.absorb(payload).unwrap() == Progress::Complete);
                        assert!(done, "a shard of ~12 differences decodes within 8 tiles");
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

            /// An empty node for the per-side `node_build` kernels.
            pub fn empty_node() -> Node<Item> {
                Node::new(0, NodeConfig::new(SHARDS, 32))
            }

            pub const KERNELS: &[(&str, fn(&Inputs) -> Sample)] = &[
                ("client_setup/32B: 20,000 items, 8 shards", client_setup),
                ("stale_tip client: set-up + absorb, d 100", stale_tip_client),
                (
                    "decode_local_set/32B: 20,000 local, d 4,000",
                    decode_local_set,
                ),
                ("pure peel, d 2,000, 32 B", peel_2k),
                ("pure peel, d 10,000, 32 B", peel_10k),
                ("pure peel, d 10,000, 8 B", peel_10k_narrow),
                ("encode 3,000 of 20,000, 32 B", encode_3k),
            ];
        }
    };
}

side!(change, riblt, riblt_hash, reconcile_core, cluster);
side!(
    parent,
    parent_riblt,
    parent_riblt_hash,
    parent_reconcile_core,
    parent_cluster
);

// --- Kernels whose two sides differ (PR 21: the batch hash and the bulk
// node load exist on the change's side only). ---

fn hash_set_parent(inputs: &parent::Inputs) -> Sample {
    use parent_riblt::Symbol;
    let (hashes, secs) = timed(|| -> Vec<u64> {
        let hash = |item: &parent::Item| item.hash_with(inputs.key);
        inputs.local.iter().map(hash).collect()
    });
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

type Pair = (
    &'static str,
    fn(&parent::Inputs) -> Sample,
    fn(&change::Inputs) -> Sample,
);

const DIFFERING: &[Pair] = &[
    (
        "hash 20,000 × 32 B: `hash_with` each / `hash_many_with`",
        hash_set_parent,
        hash_set_change,
    ),
    (
        "node build, 20,000 × 32 B: `insert` each / `extend`",
        node_build_parent,
        node_build_change,
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

//! Cross-backend conformance suite: every [`ReconcileBackend`] must agree
//! on the symmetric difference of the same scenario matrix, driven through
//! the same session engine.
//!
//! This is the executable form of the paper's "identical protocol
//! conditions" comparison: scheme differences show up only in *cost*
//! (units, bytes, rounds), never in the recovered difference.

use std::collections::BTreeSet;

use reconcile_core::backends::{
    IbltBackend, IrregularRibltBackend, MetIbltBackend, PinSketchBackend, RibltBackend,
};
use reconcile_core::{
    run_in_memory, ClientEngine, ClientMux, CountSketch, EngineError, MuxFrame, ReconcileBackend,
    RunReport, ServerEngine, ServerMux, ShardId, ShardPartitioner, SHARD_ALL,
};
use riblt::FixedBytes;
use riblt_hash::splitmix64;

type Item = FixedBytes<8>;

/// One reconciliation scenario: shared items plus per-side exclusives.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    name: &'static str,
    shared: u64,
    server_only: u64,
    client_only: u64,
    seed: u64,
}

/// The scenario matrix every backend must pass.
const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "identical",
        shared: 1_000,
        server_only: 0,
        client_only: 0,
        seed: 0x11,
    },
    Scenario {
        name: "tiny-diff",
        shared: 2_000,
        server_only: 3,
        client_only: 2,
        seed: 0x22,
    },
    Scenario {
        name: "small-diff",
        shared: 3_000,
        server_only: 20,
        client_only: 20,
        seed: 0x33,
    },
    Scenario {
        name: "one-sided",
        shared: 1_500,
        server_only: 40,
        client_only: 0,
        seed: 0x44,
    },
    Scenario {
        name: "client-ahead",
        shared: 1_500,
        server_only: 0,
        client_only: 40,
        seed: 0x55,
    },
    Scenario {
        name: "empty-client",
        shared: 0,
        server_only: 120,
        client_only: 0,
        seed: 0x66,
    },
    Scenario {
        name: "empty-server",
        shared: 0,
        server_only: 0,
        client_only: 120,
        seed: 0x77,
    },
    Scenario {
        name: "moderate-diff",
        shared: 4_000,
        server_only: 150,
        client_only: 150,
        seed: 0x88,
    },
];

struct Sets {
    server: Vec<Item>,
    client: Vec<Item>,
    expected_remote: BTreeSet<u64>,
    expected_local: BTreeSet<u64>,
}

fn build_sets(s: Scenario) -> Sets {
    let total = s.shared + s.server_only + s.client_only;
    // Distinct non-zero values.
    let universe: Vec<u64> = (0..total)
        .map(|i| splitmix64(s.seed ^ (i + 1)) | 1)
        .collect();
    let shared = &universe[..s.shared as usize];
    let server_excl = &universe[s.shared as usize..(s.shared + s.server_only) as usize];
    let client_excl = &universe[(s.shared + s.server_only) as usize..];
    let to_items = |v: &[u64]| -> Vec<Item> { v.iter().map(|&x| Item::from_u64(x)).collect() };
    let mut server = to_items(shared);
    server.extend(to_items(server_excl));
    let mut client = to_items(shared);
    client.extend(to_items(client_excl));
    Sets {
        server,
        client,
        expected_remote: server_excl.iter().copied().collect(),
        expected_local: client_excl.iter().copied().collect(),
    }
}

fn check<B>(backend: B, scenario: Scenario)
where
    B: ReconcileBackend<Item = Item> + Clone + Send,
    B::Client: Send,
{
    let name = backend.name();
    let sets = build_sets(scenario);
    let report: RunReport<Item> =
        run_in_memory(backend.clone(), &sets.server, &sets.client, 1_000_000)
            .unwrap_or_else(|e| panic!("{name} failed scenario {}: {e}", scenario.name));
    let remote: BTreeSet<u64> = report
        .difference
        .remote_only
        .iter()
        .map(|s| s.to_u64())
        .collect();
    let local: BTreeSet<u64> = report
        .difference
        .local_only
        .iter()
        .map(|s| s.to_u64())
        .collect();
    assert_eq!(
        remote, sets.expected_remote,
        "{name}/{}: wrong remote_only",
        scenario.name
    );
    assert_eq!(
        local, sets.expected_local,
        "{name}/{}: wrong local_only",
        scenario.name
    );
    assert!(report.rounds >= 1);
    assert!(report.bytes_to_server > 0);
    assert!(report.bytes_to_client > 0);
    // Only the rateless schemes stream ranges, and only their opens are
    // independent of the local set.
    let streams = matches!(name, "riblt" | "irregular-riblt");
    check_muxed(backend, &sets, scenario, streams);
}

/// The multiplexed flow (range requests sized by the client's window, the
/// `reconciled` wire protocol) must hand every shard's decoder exactly the
/// prefix the point-to-point stream does: same recovered difference, item
/// for item and in the same order, from the same number of units.
fn check_muxed<B>(backend: B, sets: &Sets, scenario: Scenario, streams: bool)
where
    B: ReconcileBackend<Item = Item> + Clone + Send,
    B::Client: Send,
{
    let name = backend.name();
    let partitioner = ShardPartitioner::new(riblt_hash::SipKey::default(), 4);
    let server_parts = partitioner.partition(&sets.server);
    let client_parts = partitioner.partition(&sets.client);

    // `wildcard`: the streaming backends' opens say nothing about the local
    // set, so one open addressed to every shard must do for all of them (the
    // protocol-v3 client's first flight) and change nothing downstream.
    let run = |wildcard: bool| {
        let mut server = ServerMux::new(|_session, shard: ShardId| {
            ServerEngine::new(backend.clone(), &server_parts[usize::from(shard)])
        })
        // The wildcard below carries no count sketch, so neither the
        // server's sketch nor its tile comes into it: one tile a shard.
        .serving_shards(4, CountSketch::new(), 16, usize::MAX);
        let mut client = ClientMux::new(7);
        for (shard, part) in client_parts.iter().enumerate() {
            client.insert_shard(shard as ShardId, ClientEngine::new(backend.clone(), part));
        }
        let mut outgoing = if wildcard {
            client.expect_first_payloads();
            let open = ClientEngine::new(backend.clone(), &[]).open();
            vec![MuxFrame::new(7, SHARD_ALL, open)]
        } else {
            client.opens()
        };
        while !outgoing.is_empty() {
            let payloads: Vec<_> = outgoing
                .iter()
                .flat_map(|frame| server.handle(frame).expect("serve"))
                .collect();
            assert_eq!(payloads.len(), client.awaiting());
            outgoing = client.handle_round(&payloads, 2).expect("absorb");
        }
        let units = client.units();
        (
            client.into_differences().expect("every shard decoded"),
            units,
        )
    };
    let (muxed, muxed_units) = run(false);
    if streams {
        assert_eq!(
            run(true),
            (muxed.clone(), muxed_units),
            "{name}/{}",
            scenario.name
        );
    }

    let mut direct_units = 0;
    for (shard, (server_part, client_part)) in server_parts.iter().zip(&client_parts).enumerate() {
        let direct = run_in_memory(backend.clone(), server_part, client_part, 1_000_000).unwrap();
        direct_units += direct.units;
        assert_eq!(
            muxed[shard], direct.difference,
            "{name}/{}: shard {shard} decoded differently when multiplexed",
            scenario.name
        );
    }
    assert_eq!(muxed_units, direct_units, "{name}/{}", scenario.name);
}

#[test]
fn riblt_backend_passes_the_matrix() {
    for &s in SCENARIOS {
        check(RibltBackend::<Item>::new(8, 16), s);
    }
}

#[test]
fn irregular_riblt_backend_passes_the_matrix() {
    for &s in SCENARIOS {
        check(IrregularRibltBackend::<Item>::new(8, 16), s);
    }
}

#[test]
fn iblt_backend_passes_the_matrix() {
    for &s in SCENARIOS {
        check(IbltBackend::<Item>::new(8), s);
    }
}

#[test]
fn met_iblt_backend_passes_the_matrix() {
    for &s in SCENARIOS {
        check(MetIbltBackend::<Item>::new(8), s);
    }
}

#[test]
fn pinsketch_backend_passes_the_matrix() {
    for &s in SCENARIOS {
        check(PinSketchBackend::new(8), s);
    }
}

/// Backends honor a non-default checksum key end to end (both endpoints
/// derive the same keyed hashes, so reconciliation still completes).
#[test]
fn non_default_keys_reconcile() {
    use riblt_hash::SipKey;
    let key = SipKey::new(0x5ec2e7, 0x4e1);
    let scenario = Scenario {
        name: "keyed",
        shared: 1_000,
        server_only: 15,
        client_only: 15,
        seed: 0xbb,
    };
    check(
        RibltBackend::<Item>::with_key_and_alpha(8, 16, key, riblt::DEFAULT_ALPHA),
        scenario,
    );
    let mut iblt = IbltBackend::<Item>::new(8);
    iblt.key = key;
    check(iblt, scenario);
    check(
        MetIbltBackend::<Item>::with_targets(8, met_iblt::DEFAULT_TARGETS.to_vec(), key),
        scenario,
    );
}

/// Streaming backends pay exactly one request round regardless of the
/// difference size; interactive backends pay at least one round per
/// escalation.
#[test]
fn flow_families_have_the_expected_round_shape() {
    let sets = build_sets(Scenario {
        name: "rounds",
        shared: 3_000,
        server_only: 100,
        client_only: 100,
        seed: 0x99,
    });
    let riblt = run_in_memory(
        RibltBackend::<Item>::new(8, 16),
        &sets.server,
        &sets.client,
        100_000,
    )
    .unwrap();
    assert_eq!(riblt.rounds, 1, "rateless flow must not pay per-batch RTTs");

    let met = run_in_memory(
        MetIbltBackend::<Item>::new(8),
        &sets.server,
        &sets.client,
        100_000,
    )
    .unwrap();
    assert!(
        met.rounds >= 2,
        "d=200 exceeds the first MET rung, so several blocks are needed"
    );
}

/// The engine reports scheme units consistently: for the rateless backend
/// they are coded symbols, and overhead stays in the paper's envelope.
#[test]
fn rateless_overhead_is_within_the_paper_envelope() {
    let sets = build_sets(Scenario {
        name: "overhead",
        shared: 10_000,
        server_only: 100,
        client_only: 100,
        seed: 0xaa,
    });
    let report = run_in_memory(
        RibltBackend::<Item>::new(8, 32),
        &sets.server,
        &sets.client,
        100_000,
    )
    .unwrap();
    let overhead = report.units as f64 / 200.0;
    assert!(
        overhead < 2.5,
        "overhead {overhead:.2} far above the expected ≈1.35–1.7 for d=200"
    );
}

/// A stream spliced from two versions of the server's set (the scenario of
/// `riblt/tests/inconsistent_stream.rs`: cells `0..64` before an item
/// arrives, the rest after) is refused by name, by both streaming backends,
/// when it is absorbed and again when the difference is asked for.
#[test]
fn streaming_backends_name_an_inconsistent_stream() {
    fn check_spliced<B: ReconcileBackend<Item = Item>>(backend: B) {
        let inconsistent = EngineError::from(riblt::Error::InconsistentStream);
        let item = |i: u64| Item::from_u64(splitmix64(i));
        let mut server_set: Vec<Item> = (0..2_500).map(item).collect();
        let client_set = &server_set[100..];
        let mut client = backend.build_client(client_set);
        let open = backend.open_request(&mut client);

        let mut before = backend.build_server(&server_set);
        server_set.push(item(1 << 40));
        let mut after = backend.build_server(&server_set);
        // 16-cell tiles: four from the old set, the rest from the new one.
        let mut tiles: Vec<Vec<u8>> = Vec::new();
        for tile in 0..32 {
            let request = (tile == 0).then_some(open.as_slice());
            let old = backend.serve(&mut before, request).unwrap();
            let new = backend.serve(&mut after, request).unwrap();
            tiles.push(if tile < 4 { old } else { new });
        }

        let refused = tiles
            .iter()
            .find_map(|tile| backend.absorb(&mut client, tile).err());
        assert_eq!(refused, Some(inconsistent.clone()), "{}", backend.name());
        assert_eq!(
            backend.into_difference(client).unwrap_err(),
            inconsistent,
            "{}",
            backend.name()
        );
    }
    check_spliced(RibltBackend::<Item>::new(8, 16));
    check_spliced(IrregularRibltBackend::<Item>::new(8, 16));
}

/// Builds every shard's client twice, `keyed` in place from its member
/// positions (`build_client_keyed` over the whole set) and `plain` by
/// `build_client` over the gathered items, and drives both against one
/// server over every scenario, split one way and four ways: the same open
/// request, the same progress and units after every payload, and the same
/// difference in the same order. (`empty-client` makes every shard's member
/// list empty.)
fn check_keyed_build<B>(backend: B, hashes_of: impl Fn(&[Item]) -> Vec<u64>)
where
    B: ReconcileBackend<Item = Item>,
{
    use reconcile_core::Progress;
    let name = backend.name();
    for &scenario in SCENARIOS {
        let sets = build_sets(scenario);
        let hashes = hashes_of(&sets.client);
        for shards in [1, 4] {
            let partitioner = ShardPartitioner::new(riblt_hash::SipKey::default(), shards);
            let server_parts = partitioner.partition(&sets.server);
            for shard in 0..shards {
                let at = format!("{name}/{}: shard {shard} of {shards}", scenario.name);
                let members: Vec<u32> = (0..sets.client.len() as u32)
                    .filter(|&m| partitioner.shard_of(&sets.client[m as usize]) == shard)
                    .collect();
                let gathered: Vec<Item> =
                    members.iter().map(|&m| sets.client[m as usize]).collect();
                let mut plain = backend.build_client(&gathered);
                let mut keyed = backend.build_client_keyed(&sets.client, &hashes, &members);
                let open = backend.open_request(&mut plain);
                assert_eq!(backend.open_request(&mut keyed), open, "{at}");
                let mut server = backend.build_server(&server_parts[usize::from(shard)]);
                let mut request = Some(open);
                loop {
                    let payload = backend.serve(&mut server, request.as_deref()).unwrap();
                    let progress = backend.absorb(&mut plain, &payload).unwrap();
                    assert_eq!(
                        backend.absorb(&mut keyed, &payload).unwrap(),
                        progress,
                        "{at}"
                    );
                    assert_eq!(backend.units(&keyed), backend.units(&plain), "{at}");
                    request = match progress {
                        Progress::Complete => break,
                        Progress::AwaitStream(_) => None,
                        Progress::SendRequest(next) => Some(next),
                    };
                }
                assert_eq!(
                    backend.into_difference(keyed).unwrap(),
                    backend.into_difference(plain).unwrap(),
                    "{at}"
                );
            }
        }
    }
}

/// The streaming backends take the caller's keyed hashes instead of hashing
/// their members again, and decode exactly as if they had hashed them.
#[test]
fn keyed_client_builds_decode_like_unkeyed_ones() {
    use riblt::Symbol;
    use riblt_hash::SipKey;
    let hashes = |items: &[Item]| -> Vec<u64> {
        items
            .iter()
            .map(|item| item.hash_with(SipKey::default()))
            .collect()
    };
    check_keyed_build(RibltBackend::<Item>::new(8, 16), hashes);
    check_keyed_build(IrregularRibltBackend::<Item>::new(8, 16), hashes);
}

/// A backend that does not override `build_client_keyed` never reads the
/// hashes: handed wrong ones, it still is `build_client` over its members.
#[test]
fn backends_without_a_keyed_build_ignore_the_hashes() {
    let zeros = |items: &[Item]| vec![0u64; items.len()];
    check_keyed_build(IbltBackend::<Item>::new(8), zeros);
    check_keyed_build(PinSketchBackend::new(8), zeros);
}

/// One hash short is a caller bug, refused outright, whichever members are
/// asked for.
#[test]
#[should_panic(expected = "one keyed hash per item")]
fn keyed_build_refuses_a_short_hash_slice() {
    let items: Vec<Item> = (1..=10).map(Item::from_u64).collect();
    RibltBackend::<Item>::new(8, 16).build_client_keyed(&items, &[0; 9], &[0, 1]);
}

/// The defaulted method checks the same.
#[test]
#[should_panic(expected = "one keyed hash per item")]
fn default_keyed_build_refuses_a_long_hash_slice() {
    let items: Vec<Item> = (1..=10).map(Item::from_u64).collect();
    IbltBackend::<Item>::new(8).build_client_keyed(&items, &[0; 11], &[0, 1]);
}

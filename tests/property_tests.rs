//! Property-based tests of the workspace's core invariants.
//!
//! The build environment has no third-party property-testing crate, so the
//! harness is hand-rolled: each property runs over a few dozen cases drawn
//! from a deterministic `SplitMix64` stream (reproducible by construction —
//! a failing case prints its seed).

use std::collections::{BTreeMap, BTreeSet};

use rateless_reconciliation::merkle_trie::MerkleTrie;
use rateless_reconciliation::pinsketch::PinSketch;
use rateless_reconciliation::reconcile_core::backends::{IbltBackend, RibltBackend};
use rateless_reconciliation::reconcile_core::{
    ClientEngine, EngineMessage, Progress, ReconcileBackend, ServerEngine, ShardPartitioner,
};
use rateless_reconciliation::riblt::wire::SymbolCodec;
use rateless_reconciliation::riblt::{
    decode_coded_symbols, encode_coded_symbols, CodedSymbol, Decoder, Encoder, Error, FixedBytes,
    IrregularClasses, MappingRule, Sketch, SketchCache, Uniform,
};
use rateless_reconciliation::riblt_hash::{SipKey, SplitMix64};

type Item = FixedBytes<8>;

/// Draws a random set of `0..max_len` values in `1..bound`.
fn random_set(gen: &mut SplitMix64, bound: u64, max_len: usize) -> BTreeSet<u64> {
    let len = (gen.next_u64() as usize) % max_len;
    let mut out = BTreeSet::new();
    while out.len() < len {
        let v = 1 + gen.next_u64() % (bound - 1);
        out.insert(v);
    }
    out
}

fn to_items(values: &BTreeSet<u64>) -> Vec<Item> {
    values.iter().map(|&v| Item::from_u64(v)).collect()
}

fn symmetric_difference(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> BTreeSet<u64> {
    a.symmetric_difference(b).copied().collect()
}

/// The streaming protocol recovers exactly the symmetric difference for
/// arbitrary sets (and always terminates within a generous budget).
#[test]
fn streaming_recovers_exact_symmetric_difference() {
    for case in 0..24u64 {
        let mut gen = SplitMix64::new(0x51ea4 + case);
        let a = random_set(&mut gen, 1_000_000, 300);
        let b = random_set(&mut gen, 1_000_000, 300);
        let expected = symmetric_difference(&a, &b);
        let mut enc = Encoder::<Item>::new();
        for x in to_items(&a) {
            enc.add_symbol(x).unwrap();
        }
        let mut dec = Decoder::<Item>::new();
        for x in to_items(&b) {
            dec.add_symbol(x).unwrap();
        }
        let mut used = 0usize;
        while !dec.is_decoded() {
            dec.add_coded_symbol(enc.produce_next_coded_symbol());
            used += 1;
            assert!(
                used < 40 * expected.len().max(4),
                "case {case}: failed to converge"
            );
        }
        let diff = dec.into_difference();
        let got: BTreeSet<u64> = diff
            .remote_only
            .iter()
            .chain(diff.local_only.iter())
            .map(|s| s.to_u64())
            .collect();
        assert_eq!(got, expected, "case {case}");
        // Side attribution must also be exact.
        let remote: BTreeSet<u64> = diff.remote_only.iter().map(|s| s.to_u64()).collect();
        let expected_remote: BTreeSet<u64> = a.difference(&b).copied().collect();
        assert_eq!(remote, expected_remote, "case {case}");
    }
}

/// Sketch subtraction is linear: sketch(A) ⊖ sketch(B) decodes A △ B, no
/// matter how the sets overlap, whenever the sketch is large enough.
#[test]
fn sketch_linearity() {
    for case in 0..24u64 {
        let mut gen = SplitMix64::new(0x5ce7c + case);
        let a = random_set(&mut gen, 100_000, 120);
        let b = random_set(&mut gen, 100_000, 120);
        let expected = symmetric_difference(&a, &b);
        let m = 4 * expected.len().max(8);
        let sa = Sketch::from_set(m, to_items(&a).iter());
        let sb = Sketch::from_set(m, to_items(&b).iter());
        // With 4x overhead failure is negligible; treat it as a bug.
        let diff = sa
            .subtracted(&sb)
            .unwrap()
            .decode()
            .expect("sketch with 4x overhead must decode");
        let got: BTreeSet<u64> = diff
            .remote_only
            .iter()
            .chain(diff.local_only.iter())
            .map(|s| s.to_u64())
            .collect();
        assert_eq!(got, expected, "case {case}");
    }
}

/// The fixed and the streamed cell source share one batched peeling engine
/// because peeling is confluent: over the same `m` difference cells, under
/// any mapping rule, [`Sketch::decode`] (every cell queued up front, one
/// run) succeeds exactly when a streaming [`Decoder`] (one run per cell)
/// reports completion, and both recover the same two sets.
#[test]
fn sketch_decode_agrees_with_streaming_decoder_on_every_prefix() {
    /// Returns whether the `m`-cell prefix decoded.
    fn agree<R: MappingRule>(rule: R, case: u64) -> bool {
        let mut gen = SplitMix64::new(0xd1ff + case);
        let a = to_items(&random_set(&mut gen, 100_000, 150));
        let b = to_items(&random_set(&mut gen, 100_000, 150));
        // Up to 2.5 cells per difference: both outcomes are common.
        let m = 1 + gen.next_u64() as usize % ((a.len() + b.len()).max(4) * 5 / 2);
        let key = SipKey::new(case, !case);

        let mut enc = Encoder::with_rule(rule.clone(), key);
        let mut dec = Decoder::with_rule(rule.clone(), key);
        let empty = Sketch::from_cells_with_rule(vec![CodedSymbol::new(); m], key, rule);
        let (mut sa, mut sb) = (empty.clone(), empty);
        for x in &a {
            enc.add_symbol(*x).unwrap();
            sa.add_symbol(x);
        }
        for x in &b {
            dec.add_symbol(*x).unwrap();
            sb.add_symbol(x);
        }
        dec.add_coded_symbols(enc.produce_coded_symbols(m));
        let fixed = sa.subtracted(&sb).unwrap().decode();

        assert_eq!(fixed.is_ok(), dec.is_decoded(), "case {case}, m = {m}");
        if let Ok(fixed) = fixed {
            let sorted = |mut side: Vec<Item>| {
                side.sort();
                side
            };
            let streamed = dec.into_difference();
            assert_eq!(
                sorted(fixed.remote_only),
                sorted(streamed.remote_only),
                "case {case}"
            );
            assert_eq!(
                sorted(fixed.local_only),
                sorted(streamed.local_only),
                "case {case}"
            );
            return true;
        }
        false
    }

    let mut decoded = 0;
    for case in 0..48u64 {
        decoded += usize::from(match case % 3 {
            0 => agree(Uniform(0.5), case),
            1 => agree(Uniform(0.3), case),
            _ => agree(IrregularClasses::paper_optimal(), case),
        });
    }
    assert!(
        (8..=40).contains(&decoded),
        "{decoded} of 48 prefixes decoded: the property must see both outcomes"
    );
}

/// The one-pass sharded set-up ([`ShardPartitioner::client_engines`]: hash,
/// group positions, fill each shard in place) is the two-step one
/// (`partition`, then `ClientEngine::new` per part) for any set, key and
/// shard count, empty shards included: shard by shard the two engines ask
/// for the same stream, report the same progress and units after every
/// payload, and recover the same difference in the same order. Run over a
/// backend that fills its decoders in place and one that gathers.
#[test]
fn client_engines_consume_the_same_units_as_partition_then_build() {
    fn agree<B: ReconcileBackend<Item = Item> + Clone>(backend: impl Fn(SipKey) -> B, case: u64) {
        let mut gen = SplitMix64::new(0x5e7b + case);
        let server_set = random_set(&mut gen, 1_000_000, 400);
        // A stale copy: drop some of the server's items, add some of its own.
        let mut local_set: BTreeSet<u64> = server_set
            .iter()
            .copied()
            .filter(|_| gen.next_u64() % 16 < 15)
            .collect();
        local_set.extend(random_set(&mut gen, 1_000_000, 24));
        let (server_items, local_items) = (to_items(&server_set), to_items(&local_set));

        let key = SipKey::new(case, 0xc0de ^ case);
        let shards = 1 + (gen.next_u64() % 9) as u16;
        let partitioner = ShardPartitioner::new(key, shards);
        let one_pass = partitioner.client_engines(&local_items, |_| backend(key));
        let local_parts = partitioner.partition(&local_items);
        let server_parts = partitioner.partition(&server_items);
        assert_eq!(one_pass.len(), usize::from(shards), "case {case}");
        assert_eq!(
            local_parts.iter().map(Vec::len).sum::<usize>(),
            local_items.len(),
            "case {case}"
        );

        for (shard, mut one_pass) in one_pass.into_iter().enumerate() {
            let at = format!("case {case}, shard {shard} of {shards}");
            let mut two_step = ClientEngine::new(backend(key), &local_parts[shard]);
            let mut server = ServerEngine::new(backend(key), &server_parts[shard]);
            let open = one_pass.open();
            assert_eq!(two_step.open(), open, "{at}");
            let mut payloads = server.handle(&open).expect("serve the open");
            loop {
                let mut progress = None;
                for payload in &payloads {
                    let step = one_pass.absorb(payload).expect("absorb");
                    assert_eq!(two_step.absorb(payload).expect("absorb"), step, "{at}");
                    assert_eq!(two_step.units(), one_pass.units(), "{at}");
                    progress = Some(step);
                }
                payloads = match progress.expect("a payload per request") {
                    Progress::Complete => break,
                    Progress::AwaitStream(_) => vec![server.next_payload().expect("stream")],
                    Progress::SendRequest(query) => server
                        .handle(&EngineMessage::Query(query))
                        .expect("serve the query"),
                };
            }
            assert_eq!(
                one_pass.into_difference().expect("decoded"),
                two_step.into_difference().expect("decoded"),
                "{at}"
            );
        }
    }

    for case in 0..24u64 {
        agree(
            |key| RibltBackend::<Item>::with_key_and_alpha(8, 16, key, 0.5),
            case,
        );
        agree(
            |key| {
                let mut backend = IbltBackend::<Item>::new(8);
                backend.key = key;
                backend
            },
            case,
        );
    }
}

/// After an arbitrary interleaving of adds, removes (of present items) and
/// prefix extensions, an incrementally-patched [`SketchCache`] holds coded
/// symbols **byte-identical** to a from-scratch rebuild of the surviving
/// set — the universality property the cluster's shared-cache serving
/// relies on (one encode, every peer, any staleness).
#[test]
fn sketch_cache_incremental_patching_matches_rebuild_after_churn() {
    for case in 0..24u64 {
        let mut gen = SplitMix64::new(0xcac4e + case);
        let mut cache = SketchCache::<Item>::new();
        let mut live: BTreeSet<u64> = BTreeSet::new();
        // Start from a materialized prefix so every update really patches.
        let mut materialized = 8 + (gen.next_u64() as usize) % 120;
        cache.ensure_len(materialized);

        let ops = 200 + (gen.next_u64() as usize) % 300;
        for _ in 0..ops {
            match gen.next_u64() % 10 {
                // 60%: add a fresh item.
                0..=5 => {
                    let v = 1 + gen.next_u64() % 1_000_000;
                    if live.insert(v) {
                        cache.add_symbol(Item::from_u64(v));
                    }
                }
                // 30%: remove a random present item.
                6..=8 => {
                    if let Some(&v) = live
                        .iter()
                        .nth((gen.next_u64() as usize) % live.len().max(1))
                    {
                        live.remove(&v);
                        cache.remove_symbol(Item::from_u64(v));
                    }
                }
                // 10%: extend the materialized prefix mid-churn.
                _ => {
                    let extra = 1 + (gen.next_u64() as usize) % 40;
                    materialized += extra;
                    cache.ensure_len(materialized);
                }
            }
        }

        let mut rebuilt = Sketch::<Item>::new(materialized);
        for &v in &live {
            rebuilt.add_symbol(&Item::from_u64(v));
        }
        let cached = cache.to_sketch(materialized);
        assert_eq!(cached, rebuilt, "case {case}: cells diverged");
        // Byte-identical on the wire, not merely structurally equal.
        let codec = SymbolCodec::new(8, live.len() as u64);
        assert_eq!(
            codec.encode_batch(cached.cells(), 0),
            codec.encode_batch(rebuilt.cells(), 0),
            "case {case}: wire bytes diverged"
        );
    }
}

/// Wire-format round trip is lossless for arbitrary coded-symbol prefixes.
#[test]
fn wire_roundtrip() {
    for case in 0..24u64 {
        let mut gen = SplitMix64::new(0x31e + case);
        let values = random_set(&mut gen, u64::MAX, 200);
        let prefix = 1 + (gen.next_u64() as usize) % 255;
        let mut enc = Encoder::<Item>::new();
        for x in to_items(&values) {
            enc.add_symbol(x).unwrap();
        }
        let symbols = enc.produce_coded_symbols(prefix);
        let bytes = encode_coded_symbols(&symbols, 8, values.len() as u64);
        let back = decode_coded_symbols::<Item>(&bytes, 8).unwrap();
        assert_eq!(back, symbols, "case {case}");
    }
}

/// Round trip through [`SymbolCodec`] is lossless for *synthetic* coded
/// symbols with arbitrary counts, checksums and sums — not just prefixes an
/// encoder would produce — at arbitrary start indices and set sizes.
#[test]
fn wire_roundtrip_arbitrary_counts_and_sums() {
    for case in 0..40u64 {
        let mut gen = SplitMix64::new(0xc0de + case);
        let set_size = gen.next_u64() % 2_000_000;
        let start_index = gen.next_u64() % 100_000;
        let batch_len = (gen.next_u64() as usize) % 64;
        let symbols: Vec<CodedSymbol<Item>> = (0..batch_len)
            .map(|_| {
                let mut sum = [0u8; 8];
                gen.fill_bytes(&mut sum);
                CodedSymbol {
                    sum: FixedBytes(sum),
                    checksum: gen.next_u64(),
                    // Counts far away from the expected model must still
                    // round-trip (they only cost longer VLQs).
                    count: (gen.next_u64() as i64) % 1_000_000,
                }
            })
            .collect();
        let codec = SymbolCodec::new(8, set_size);
        let bytes = codec.encode_batch(&symbols, start_index);
        let decoded = codec.decode_batch::<Item>(&bytes).unwrap();
        assert_eq!(decoded.symbols, symbols, "case {case}");
        assert_eq!(decoded.start_index, start_index, "case {case}");
        assert_eq!(decoded.set_size, set_size, "case {case}");
    }
}

/// Truncating or corrupting a wire batch must yield `Error::WireFormat` (or
/// decode to different symbols) — never a panic.
#[test]
fn wire_truncation_and_corruption_never_panic() {
    let mut gen = SplitMix64::new(0xbad5eed);
    let values = random_set(&mut gen, u64::MAX, 150);
    let mut enc = Encoder::<Item>::new();
    for x in to_items(&values) {
        enc.add_symbol(x).unwrap();
    }
    let symbols = enc.produce_coded_symbols(64);
    let codec = SymbolCodec::new(8, values.len() as u64);
    let bytes = codec.encode_batch(&symbols, 0);

    // Every possible truncation point.
    for cut in 0..bytes.len() {
        match codec.decode_batch::<Item>(&bytes[..cut]) {
            Err(Error::WireFormat(_)) => {}
            Err(other) => panic!("truncation at {cut} produced non-wire error {other:?}"),
            // A cut can still parse when the (truncated) VLQ batch length
            // happens to cover fewer symbols than were encoded; that is a
            // shorter, well-formed batch, not a safety violation.
            Ok(decoded) => assert!(decoded.symbols.len() <= symbols.len()),
        }
    }

    // Random single-byte corruptions: must never panic; when decoding
    // "succeeds" the bytes were still structurally valid.
    for _ in 0..500 {
        let mut corrupted = bytes.clone();
        let pos = (gen.next_u64() as usize) % corrupted.len();
        let flip = (gen.next_u64() % 255) as u8 + 1;
        corrupted[pos] ^= flip;
        match codec.decode_batch::<Item>(&corrupted) {
            Ok(_) => {}
            Err(Error::WireFormat(_)) => {}
            Err(other) => panic!("corruption at {pos} produced non-wire error {other:?}"),
        }
    }

    // Garbage prefixes of every length.
    for len in 0..64 {
        let mut garbage = vec![0u8; len];
        gen.fill_bytes(&mut garbage);
        let _ = codec.decode_batch::<Item>(&garbage);
    }
}

/// PinSketch with capacity ≥ d recovers the exact difference of two
/// non-zero element sets.
#[test]
fn pinsketch_exact_recovery() {
    for case in 0..24u64 {
        let mut gen = SplitMix64::new(0x9145 + case);
        let a = random_set(&mut gen, u64::MAX, 40);
        let b = random_set(&mut gen, u64::MAX, 40);
        let expected = symmetric_difference(&a, &b);
        let capacity = expected.len().max(1);
        let pa = PinSketch::from_set(capacity, a.iter().copied()).unwrap();
        let pb = PinSketch::from_set(capacity, b.iter().copied()).unwrap();
        let got: BTreeSet<u64> = pa
            .merged(&pb)
            .unwrap()
            .decode()
            .expect("capacity >= difference must decode")
            .into_iter()
            .collect();
        assert_eq!(got, expected, "case {case}");
    }
}

/// The Merkle trie behaves like a map, and its root hash is a pure function
/// of the final contents (insertion-order independent).
#[test]
fn trie_behaves_like_a_map() {
    for case in 0..16u64 {
        let mut gen = SplitMix64::new(0x7e1e + case);
        let len = (gen.next_u64() as usize) % 120;
        let mut entries: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        while entries.len() < len {
            let mut key = vec![0u8; 20];
            gen.fill_bytes(&mut key);
            let value_len = 1 + (gen.next_u64() as usize) % 71;
            let mut value = vec![0u8; value_len];
            gen.fill_bytes(&mut value);
            entries.insert(key, value);
        }
        let mut forward = MerkleTrie::new();
        for (k, v) in &entries {
            forward.insert(k, v.clone());
        }
        let mut backward = MerkleTrie::new();
        for (k, v) in entries.iter().rev() {
            backward.insert(k, v.clone());
        }
        assert_eq!(forward.root(), backward.root(), "case {case}");
        assert_eq!(forward.len(), entries.len(), "case {case}");
        for (k, v) in &entries {
            assert_eq!(forward.get(k), Some(v.as_slice()), "case {case}");
        }
        let mut leaves = forward.leaves();
        leaves.sort();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(leaves, expected, "case {case}");
    }
}

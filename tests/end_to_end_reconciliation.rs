//! Cross-crate integration tests: every reconciliation scheme in the
//! workspace must agree on the symmetric difference of the same two sets,
//! and the full wire/session stack must round-trip.

use std::collections::BTreeSet;

use rateless_reconciliation::iblt::Iblt;
use rateless_reconciliation::met_iblt::MetIblt;
use rateless_reconciliation::netsim::run_in_memory;
use rateless_reconciliation::pinsketch::PinSketch;
use rateless_reconciliation::reconcile_core::backends::RibltBackend;
use rateless_reconciliation::riblt::{Decoder, Encoder, FixedBytes, SipKey, Sketch};
use rateless_reconciliation::riblt_hash::splitmix64;

type Item = FixedBytes<8>;

/// Builds two n-item sets whose symmetric difference has exactly `2*d`
/// elements (`d` exclusive to each side); returns the expected difference.
fn sets(n: u64, d: u64, seed: u64) -> (Vec<Item>, Vec<Item>, BTreeSet<u64>) {
    let universe: Vec<u64> = (0..n + d).map(|i| splitmix64(seed ^ i) | 1).collect();
    let alice: Vec<Item> = universe[..n as usize]
        .iter()
        .map(|&v| Item::from_u64(v))
        .collect();
    let bob: Vec<Item> = universe[d as usize..]
        .iter()
        .map(|&v| Item::from_u64(v))
        .collect();
    let expected: BTreeSet<u64> = universe[..d as usize]
        .iter()
        .chain(universe[n as usize..].iter())
        .copied()
        .collect();
    (alice, bob, expected)
}

fn as_set(diff: &rateless_reconciliation::riblt::SetDifference<Item>) -> BTreeSet<u64> {
    diff.remote_only
        .iter()
        .chain(diff.local_only.iter())
        .map(|s| s.to_u64())
        .collect()
}

#[test]
fn all_schemes_agree_on_the_difference() {
    let (alice, bob, expected) = sets(5_000, 60, 0xa11);

    // Rateless IBLT (streaming).
    let mut enc = Encoder::<Item>::new();
    for x in &alice {
        enc.add_symbol(*x).unwrap();
    }
    let mut dec = Decoder::<Item>::new();
    for x in &bob {
        dec.add_symbol(*x).unwrap();
    }
    while !dec.is_decoded() {
        dec.add_coded_symbol(enc.produce_next_coded_symbol());
    }
    assert_eq!(as_set(&dec.into_difference()), expected);

    // Rateless IBLT (sketch).
    let sa = Sketch::from_set(256, alice.iter());
    let sb = Sketch::from_set(256, bob.iter());
    assert_eq!(
        as_set(&sa.subtracted(&sb).unwrap().decode().unwrap()),
        expected
    );

    // Regular IBLT.
    let ta = Iblt::from_set(240, 4, alice.iter());
    let tb = Iblt::from_set(240, 4, bob.iter());
    let out = ta.subtracted(&tb).decode();
    assert!(out.is_complete());
    assert_eq!(as_set(&out.difference()), expected);

    // MET-IBLT.
    let ma = MetIblt::from_set(alice.iter());
    let mb = MetIblt::from_set(bob.iter());
    let out = ma.subtracted(&mb).decode_minimal();
    assert!(out.complete);
    assert_eq!(as_set(&out.difference), expected);

    // PinSketch.
    let pa = PinSketch::from_set(160, alice.iter().map(|i| i.to_u64())).unwrap();
    let pb = PinSketch::from_set(160, bob.iter().map(|i| i.to_u64())).unwrap();
    let got: BTreeSet<u64> = pa
        .merged(&pb)
        .unwrap()
        .decode()
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn session_over_wire_format_reconciles_large_difference() {
    let (alice, bob, expected) = sets(20_000, 1_500, 0x5e5);
    let backend = RibltBackend::<Item>::new(8, 64);
    let report = run_in_memory(backend, &alice, &bob, 1_000_000).unwrap();
    assert_eq!(as_set(&report.difference), expected);
    // The symmetric difference has 2 * 1,500 = 3,000 items.
    let overhead = report.units as f64 / 3_000.0;
    assert!(
        overhead < 2.0,
        "overhead {overhead:.2} too high for d = 3000"
    );
    assert!(report.bytes_to_client > 0);
    assert_eq!(report.rounds, 1, "the rateless flow pays a single request");
}

#[test]
fn keyed_reconciliation_resists_checksum_collisions_from_unkeyed_inputs() {
    // Two parties agree on a secret key; reconciliation works exactly as
    // with the default key.
    let key = SipKey::new(0x5ec2e7, 0x4e1);
    let (alice, bob, expected) = sets(2_000, 40, 0xbad);
    let mut enc = Encoder::<Item>::with_key(key);
    for x in &alice {
        enc.add_symbol(*x).unwrap();
    }
    let mut dec = Decoder::<Item>::with_key(key);
    for x in &bob {
        dec.add_symbol(*x).unwrap();
    }
    let mut used = 0;
    while !dec.is_decoded() {
        dec.add_coded_symbol(enc.produce_next_coded_symbol());
        used += 1;
        assert!(used < 10_000);
    }
    assert_eq!(as_set(&dec.into_difference()), expected);
}

#[test]
fn rateless_prefix_property_across_peers() {
    // The same coded-symbol prefix (universality) serves two peers whose
    // differences have very different sizes.
    let (alice, bob_small, expected_small) = sets(3_000, 10, 0x99);
    let (_, bob_large, expected_large) = sets(3_000, 600, 0x99);

    let mut enc = Encoder::<Item>::new();
    for x in &alice {
        enc.add_symbol(*x).unwrap();
    }
    let stream: Vec<_> = enc.produce_coded_symbols(2_000);

    for (bob, expected) in [(bob_small, expected_small), (bob_large, expected_large)] {
        let mut dec = Decoder::<Item>::new();
        for x in &bob {
            dec.add_symbol(*x).unwrap();
        }
        let mut used = 0;
        for cs in &stream {
            if dec.is_decoded() {
                break;
            }
            dec.add_coded_symbol(cs.clone());
            used += 1;
        }
        assert!(dec.is_decoded(), "prefix of length 2000 should suffice");
        assert_eq!(as_set(&dec.into_difference()), expected);
        assert!(used <= 2_000);
    }
}

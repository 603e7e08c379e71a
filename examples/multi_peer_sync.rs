//! Universality demo: one node serves the *same* cached coded symbols to
//! many peers with different (and differently sized) set differences.
//!
//! Run with `cargo run --release --example multi_peer_sync`.
//!
//! This is the deployment §2 and §7.3 of the paper motivate: the serving
//! node maintains a single coded-symbol cache, patches it incrementally as
//! its set changes, and streams prefixes of it to whoever asks — no
//! per-peer encoding work, no parameter negotiation.

use riblt::{Decoder, FixedBytes, SketchCache, Symbol};

type Item = FixedBytes<16>;

fn item(i: u64) -> Item {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&i.to_le_bytes());
    bytes[8..].copy_from_slice(&(!i).to_le_bytes());
    FixedBytes(bytes)
}

fn main() {
    // The server's set: 50,000 items, maintained in a SketchCache with a
    // materialized prefix of 4,096 coded symbols.
    let mut cache = SketchCache::<Item>::new();
    for i in 0..50_000u64 {
        cache.add_symbol(item(i));
    }
    cache.ensure_len(4_096);

    // The server's set changes: 100 items replaced. The cache is patched in
    // place — each update touches only O(log m) coded symbols. A removal
    // finds the item in the cache's own set (by its keyed hash), walks it
    // out of those symbols and takes it out of the set.
    for i in 0..100u64 {
        let gone = item(i);
        assert!(cache.remove_hashed(&gone, gone.hash_with(cache.key())));
        cache.add_symbol(item(1_000_000 + i));
    }

    // Three peers with very different staleness.
    let peers: Vec<(&str, Vec<Item>)> = vec![
        ("peer-fresh (3 missing items)", {
            let mut set: Vec<Item> = (103..50_000).map(item).collect();
            set.extend((1_000_000..1_000_100).map(item));
            set
        }),
        (
            "peer-stale (the 200-item update)",
            (0..50_000).map(item).collect(),
        ),
        (
            "peer-tiny (knows only half the set)",
            (25_000..50_000).map(item).collect(),
        ),
    ];

    for (name, set) in peers {
        let mut decoder = Decoder::<Item>::new();
        for x in &set {
            decoder.add_symbol(*x).unwrap();
        }
        // Stream the same universal prefix to every peer; each consumes only
        // as much as it needs.
        let mut used = 0;
        for cs in cache.cells() {
            if decoder.is_decoded() {
                break;
            }
            decoder.add_coded_symbol(cs.clone());
            used += 1;
        }
        if !decoder.is_decoded() {
            // A very stale peer needs a longer prefix: extend the cache once
            // and keep serving everyone from it.
            cache.ensure_len(80_000);
            for cs in &cache.cells()[used..] {
                if decoder.is_decoded() {
                    break;
                }
                decoder.add_coded_symbol(cs.clone());
                used += 1;
            }
        }
        let diff = decoder.into_difference();
        println!(
            "{name}: decoded {} differences from {used} coded symbols ({:.2} per difference)",
            diff.len(),
            used as f64 / diff.len().max(1) as f64
        );
    }
}

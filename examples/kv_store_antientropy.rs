//! Anti-entropy between two replicas of a key-value store.
//!
//! Run with `cargo run --release --example kv_store_antientropy`.
//!
//! Two replicas accept writes independently (here: disjoint batches of
//! updates, as during a network partition) and periodically run a
//! reconciliation round through the generic session engine with the
//! Rateless IBLT backend. Each record is serialized to a fixed-width item
//! (16-byte key, 48-byte value, 8-byte version); the replica with the
//! higher version wins, so reconciliation converges both stores to the same
//! state.

use std::collections::BTreeMap;

use netsim::run_in_memory;
use reconcile_core::backends::RibltBackend;
use riblt::FixedBytes;
use riblt_hash::SplitMix64;

const KEY_LEN: usize = 16;
const VALUE_LEN: usize = 48;
const RECORD_LEN: usize = KEY_LEN + VALUE_LEN + 8;

type Record = FixedBytes<RECORD_LEN>;
type Store = BTreeMap<[u8; KEY_LEN], ([u8; VALUE_LEN], u64)>;

fn record(key: &[u8; KEY_LEN], value: &[u8; VALUE_LEN], version: u64) -> Record {
    let mut bytes = [0u8; RECORD_LEN];
    bytes[..KEY_LEN].copy_from_slice(key);
    bytes[KEY_LEN..KEY_LEN + VALUE_LEN].copy_from_slice(value);
    bytes[KEY_LEN + VALUE_LEN..].copy_from_slice(&version.to_le_bytes());
    FixedBytes(bytes)
}

fn split(record: &Record) -> ([u8; KEY_LEN], [u8; VALUE_LEN], u64) {
    let mut key = [0u8; KEY_LEN];
    let mut value = [0u8; VALUE_LEN];
    key.copy_from_slice(&record.0[..KEY_LEN]);
    value.copy_from_slice(&record.0[KEY_LEN..KEY_LEN + VALUE_LEN]);
    let mut v = [0u8; 8];
    v.copy_from_slice(&record.0[KEY_LEN + VALUE_LEN..]);
    (key, value, u64::from_le_bytes(v))
}

fn items(store: &Store) -> Vec<Record> {
    store
        .iter()
        .map(|(k, (v, ver))| record(k, v, *ver))
        .collect()
}

fn apply_remote(store: &mut Store, remote_records: &[Record]) {
    for r in remote_records {
        let (key, value, version) = split(r);
        match store.get(&key) {
            Some((_, local_version)) if *local_version >= version => {}
            _ => {
                store.insert(key, (value, version));
            }
        }
    }
}

fn synth_key(i: u64) -> [u8; KEY_LEN] {
    let mut g = SplitMix64::new(i ^ 0x6b65);
    let mut k = [0u8; KEY_LEN];
    g.fill_bytes(&mut k);
    k
}

fn synth_value(i: u64, version: u64) -> [u8; VALUE_LEN] {
    let mut g = SplitMix64::new(i ^ (version << 40) ^ 0x76616c);
    let mut v = [0u8; VALUE_LEN];
    g.fill_bytes(&mut v);
    v
}

fn main() {
    // Common history: 30,000 keys replicated on both sides.
    let mut replica_a: Store = (0..30_000u64)
        .map(|i| (synth_key(i), (synth_value(i, 0), 0)))
        .collect();
    let mut replica_b = replica_a.clone();

    // A partition happens; each side keeps accepting writes.
    for i in 0..400u64 {
        replica_a.insert(synth_key(i), (synth_value(i, 1), 1)); // updates
    }
    for i in 30_000..30_250u64 {
        replica_b.insert(synth_key(i), (synth_value(i, 0), 0)); // fresh keys
    }
    println!(
        "[setup] replica A: {} records, replica B: {} records",
        replica_a.len(),
        replica_b.len()
    );

    // Anti-entropy round 1: A serves, B reconciles.
    let backend = RibltBackend::<Record>::new(RECORD_LEN, 32);
    let report =
        run_in_memory(backend, &items(&replica_a), &items(&replica_b), 100_000).expect("reconcile");
    let diff = report.difference;
    println!(
        "[round 1] B learned {} records, sent back knowledge of {} records \
         ({} coded symbols, {} bytes on the wire)",
        diff.remote_only.len(),
        diff.local_only.len(),
        report.units,
        report.bytes_to_client + report.bytes_to_server,
    );
    apply_remote(&mut replica_b, &diff.remote_only);
    // B now also knows exactly which records A is missing and pushes them.
    apply_remote(&mut replica_a, &diff.local_only);

    assert_eq!(items(&replica_a), items(&replica_b));
    println!(
        "[done] replicas converged to {} identical records",
        replica_a.len()
    );
}

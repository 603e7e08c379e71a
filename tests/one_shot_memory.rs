//! What one sync costs in memory: the peak live heap a `sync_sharded_tcp`
//! adds, measured by a counting global allocator, for a stale replica of
//! 20,000 × 32 B items one block behind (d = 100) syncing on one thread
//! against the library's own server.
//!
//! The one-shot client builds a shard's decoder when that shard's first
//! payload arrives and consumes it into its difference as soon as it
//! decodes, so the decoders alive at once are the one absorbing and those
//! still waiting on a later round, not all eight. The count includes the
//! server's per-shard engines, which `library_server` builds when the
//! client opens.
//!
//! A binary of its own: the allocator counts every thread of the process,
//! so nothing else may run beside the one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rateless_reconciliation::netsim::library_server;
use rateless_reconciliation::reconcile_core::backends::RibltBackend;
use rateless_reconciliation::reconcile_core::handshake::Hello;
use rateless_reconciliation::riblt::FixedBytes;
use rateless_reconciliation::riblt_hash::{SipKey, SplitMix64};
use rateless_reconciliation::statesync::{sync_sharded_tcp, TcpSyncConfig};

/// The system allocator, counting the bytes it holds and their high-water
/// mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract, and returns what `System` returned; the
// counting touches only the two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

type Item = FixedBytes<32>;

const LOCAL: usize = 20_000;
const SHARDS: u16 = 8;
const TILE: usize = 32;

/// The peak heap, beyond what was live when it started, that `run` adds.
fn peak_added(run: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    run();
    PEAK.load(Ordering::SeqCst) - base
}

#[test]
fn a_one_shot_sync_holds_one_shards_decoder_at_a_time() {
    let mut gen = SplitMix64::new(0x0e5e_7001);
    let mut draw = |n: usize| -> Vec<Item> {
        (0..n)
            .map(|_| {
                let mut bytes = [0u8; 32];
                gen.fill_bytes(&mut bytes);
                FixedBytes(bytes)
            })
            .collect()
    };
    // The server's set is the local one with its last 50 items replaced.
    let local = draw(LOCAL);
    let mut remote = local[..LOCAL - 50].to_vec();
    remote.extend(draw(50));

    let key = SipKey::default();
    let backend = RibltBackend::<Item>::with_key_and_alpha(32, TILE, key, riblt::DEFAULT_ALPHA);
    let mut link = library_server(
        backend.clone(),
        &remote,
        Hello::new(key, SHARDS, 32),
        1 << 20,
    );
    let config = TcpSyncConfig {
        key,
        symbol_len: 32,
        threads: 1,
        max_units_per_shard: 1 << 20,
    };
    let mut outcome = None;
    let added = peak_added(|| {
        let synced = sync_sharded_tcp(&mut link, &local, |_| backend.clone(), &config);
        outcome = Some(synced.expect("the sync decodes"));
    });
    let (differences, _) = outcome.unwrap();
    let recovered: usize = differences
        .iter()
        .map(|d| d.remote_only.len() + d.local_only.len())
        .sum();
    assert_eq!(recovered, 100);

    // Eight decoder windows built before the first payload held ≈ 152 B a
    // local item here, whatever the seed. Built one at a time, the peak is
    // ≈ 94 B when every shard decodes its first flight, and one window more
    // for each shard that has to ask again (≈ 112 B on this seed).
    let per_item = added as f64 / LOCAL as f64;
    eprintln!("one sync added {added} bytes at its peak: {per_item:.1} B per local item");
    assert!(
        per_item < 125.0,
        "one sync held {per_item:.1} B per local item at its peak"
    );
}

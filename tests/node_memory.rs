//! What a replica costs in memory per item it holds: the live heap of a
//! `cluster::Node` of 20,000 × 32 B items in 8 shards, measured by a counting
//! global allocator, after the load, after each shard has served 384 cells,
//! and after one burst of 512 inserts and 512 removes.
//!
//! The node holds each item once, in its shard cache's window, beside the
//! item's keyed hash, its parked mapping, its chain link (68 B for a 32-byte
//! item) and its slot in the shard's index of positions.
//!
//! A binary of its own: the allocator counts every thread of the process,
//! so nothing else may run beside the one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rateless_reconciliation::cluster::{Node, NodeConfig};
use rateless_reconciliation::riblt::FixedBytes;
use rateless_reconciliation::riblt_hash::SplitMix64;

/// The system allocator, counting the bytes it holds.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract, and returns what `System` returned; the
// counting touches only the atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
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
            LIVE.fetch_add(new_size, Ordering::SeqCst);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

type Item = FixedBytes<32>;

const HELD: usize = 20_000;
const SHARDS: u16 = 8;
const CELLS: usize = 384;
const WRITES: usize = 512;

#[test]
fn a_node_holds_each_item_once() {
    let mut gen = SplitMix64::new(0x00de_4e70);
    let mut draw = |n: usize| -> Vec<Item> {
        (0..n)
            .map(|_| {
                let mut bytes = [0u8; 32];
                gen.fill_bytes(&mut bytes);
                FixedBytes(bytes)
            })
            .collect()
    };
    let (load, writes) = (draw(HELD), draw(WRITES));

    let base = LIVE.load(Ordering::SeqCst);
    let per_item = || (LIVE.load(Ordering::SeqCst) - base) as f64 / HELD as f64;
    let mut node = Node::new(0, NodeConfig::new(SHARDS, 32));
    assert_eq!(node.extend(load.iter().copied()), HELD);
    let loaded = per_item();
    for shard in 0..SHARDS {
        node.shard_cells(shard, 0, CELLS);
    }
    let served = per_item();
    for (&fresh, gone) in writes.iter().zip(&load) {
        assert!(node.insert(fresh) && node.remove(gone));
    }
    let burst = per_item();
    assert_eq!(node.len(), HELD);
    eprintln!(
        "heap per held item: {loaded:.1} B loaded, {served:.1} B with {SHARDS} × {CELLS} cells, \
         {burst:.1} B after {WRITES} inserts + {WRITES} removes"
    );

    // A second, ordered copy of the set (a `BTreeSet` beside the windows)
    // read 102.4 B here; the window entry alone is 68 B.
    assert!(loaded < 85.0, "{loaded:.1} B per item after the load");
    // The cells and their queues add ≈ 13 B. The burst's first write to a
    // shard doubles the four window vectors the load reserved exactly
    // (202.4 B with the ordered copy).
    assert!(served < loaded + 16.0, "{served:.1} B per item with cells");
    assert!(
        burst < 180.0,
        "{burst:.1} B per item after a burst of writes"
    );
}

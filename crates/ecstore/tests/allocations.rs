//! Heap traffic of placement: placing a file on the 10k-node topology
//! makes a fixed number of allocations, however many stripes it has.
//! One test only, since the counters are global to this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cluster::Topology;
use ecstore::placement::RackAwarePlacement;
use ecstore::{BlockStore, StripeLayout};
use erasure::CodeParams;
use simkit::SimRng;

/// The system allocator, counting allocations.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter changes nothing about the memory handed out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System.alloc` under the same contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System.dealloc` under the same contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards to `System.realloc` under the same contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Places `blocks` natives coded (12,10) rack-aware on 100 racks of 100
/// nodes; returns the allocations `BlockStore::place` made.
fn place_allocs(topo: &Topology, blocks: usize) -> usize {
    let layout = StripeLayout::new(CodeParams::new(12, 10).unwrap(), blocks).unwrap();
    let mut rng = SimRng::seed_from_u64(1);
    let before = ALLOCS.load(Ordering::Relaxed);
    let store = BlockStore::place(topo, layout, &RackAwarePlacement, &mut rng).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(store.layout().num_native(), blocks);
    allocs
}

#[test]
fn rack_aware_place_allocates_per_file_not_per_stripe() {
    let topo = Topology::homogeneous(100, 100, 4, 1);
    let half = place_allocs(&topo, 7_500);
    let full = place_allocs(&topo, 15_000);
    // 750 more stripes cost no more allocations than a handful of
    // scratch buffers could.
    assert!(
        full <= half + 4,
        "7,500 blocks: {half} allocations; 15,000 blocks: {full}"
    );
    assert!(half <= 16, "{half} allocations for 750 stripes");
}

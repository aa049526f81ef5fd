//! Heap traffic of a job's output: LineCount makes no allocation per
//! distinct key, and dropping its output frees at most two blocks (the
//! key arena and the entries). One test only, since the counters are
//! global to this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cluster::{NodeId, Topology};
use erasure::CodeParams;
use textlab::{run_job, CorpusBuilder, JobOutput, LineCount, MiniGrid};

/// The system allocator, counting allocations and frees.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters change nothing about the memory handed out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System.alloc` under the same contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System.dealloc` under the same contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
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

/// Runs LineCount over `text` on the CLI's testbed grid with one node
/// failed; returns the output and the allocations the run made.
fn line_count(text: &[u8]) -> (JobOutput, usize) {
    let topo = Topology::homogeneous(3, 4, 4, 1);
    let mut grid =
        MiniGrid::new(topo, CodeParams::new(12, 10).unwrap(), 16 * 1024, text, 7).unwrap();
    grid.fail_node(NodeId(2));
    let before = ALLOCS.load(Ordering::Relaxed);
    let output = run_job(&mut grid, &LineCount).unwrap();
    (output, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn line_count_allocates_per_block_not_per_key() {
    let lines = 20_000;
    let text = CorpusBuilder::new(1).lines(lines).build();
    // The same number of lines, a tenth of them distinct.
    let tenth: Vec<&[u8]> = text
        .split_inclusive(|&b| b == b'\n')
        .take(lines / 10)
        .collect();
    let repeated = tenth.repeat(10).concat();

    let (distinct_out, distinct_allocs) = line_count(&text);
    let (repeated_out, repeated_allocs) = line_count(&repeated);
    assert_eq!(distinct_out.total(), lines as u64);
    assert_eq!(repeated_out.total(), lines as u64);
    assert!(distinct_out.results.len() > 9 * repeated_out.results.len());
    // Ten times the keys cost no more allocations than the blocks do;
    // the corpora differ in length by a few blocks at most.
    assert!(
        distinct_allocs <= repeated_allocs + 16,
        "{} keys: {distinct_allocs} allocations; {} keys: {repeated_allocs}",
        distinct_out.results.len(),
        repeated_out.results.len(),
    );
    assert!(
        distinct_allocs < distinct_out.results.len() / 10,
        "{distinct_allocs} allocations for {} keys",
        distinct_out.results.len()
    );

    let before = FREES.load(Ordering::Relaxed);
    drop(distinct_out);
    let freed = FREES.load(Ordering::Relaxed) - before;
    assert!(freed <= 2, "dropping the output freed {freed} blocks");
}

//! What a simulated server costs to keep resident.
//!
//! The substrate histories that used to dominate a node — the harvest
//! substrate's latency windows, the ObjectStore workload's 32 KB latency
//! window and the memory substrate's recent window — are stored compactly
//! (as runs of samples or of the inputs they are computed from) and sized by
//! the configuration, not by what the samples happen to be. These tests hold
//! both halves: the footprint stays under its ceiling, and it is one number
//! whatever the node's seed, so `mem_bytes_per_node` can carry a tight bound
//! in the benchmark. The ceilings (tighter than the round figures in the test
//! names) sit just above today's 8,796 B and 84,612 B: a node that starts
//! keeping a hundred bytes more, or a latency window that outgrows its
//! reserved runs on some seed, fails them.
//!
//! `mem_bytes()` is self-reported: it sums the environment, the wake table
//! and the intervention queue, and counts no agent. So this test binary also
//! measures the truth. Its global allocator counts, per thread, the heap
//! bytes allocated and not yet freed, and each test pins the live heap a node
//! holds after `instantiate` and after a virtual minute beside `mem_bytes()`:
//! 3,884 B and 13,976 B for the two-agent node, 39,792 B and 118,396 B for
//! the three-agent one, one value on every seed. The heap excludes the
//! `NodeRuntime` value itself, which lives on the caller's stack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sol_agents::prelude::*;
use sol_core::prelude::*;
use sol_node_sim::multi_node::MultiNode;

thread_local! {
    /// Heap bytes this thread allocated and has not freed yet. Per thread,
    /// so tests running in parallel do not mix their counts.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// `System`, counting into [`LIVE_BYTES`]. Reallocation and zeroed
/// allocation keep their default definitions, which go through these two.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One node's cost, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Footprint {
    /// Live heap right after `instantiate`.
    heap_built: isize,
    /// Live heap after a virtual minute: the 30 s recent window and both
    /// 4096-sample windows have long been full.
    heap_ran: isize,
    /// What the node reports through `mem_bytes()` at the same point.
    mem_bytes: usize,
}

/// The footprint of one node per seed.
fn footprints(recipe: &ScenarioRecipe<MultiNode>) -> Vec<Footprint> {
    (0..8)
        .map(|index| {
            let seed = NodeSeed::derive(0x5eed, index);
            let before = live_bytes();
            let mut runtime = recipe.instantiate(&seed);
            let heap_built = live_bytes() - before;
            runtime.run_until(Timestamp::from_secs(60));
            let heap_ran = live_bytes() - before;
            Footprint { heap_built, heap_ran, mem_bytes: runtime.mem_bytes() }
        })
        .collect()
}

/// Asserts every seed costs the same, that the live heap is `heap_built` and
/// `heap_ran` bytes, and that `mem_bytes()` is under `ceiling`.
fn assert_pinned(footprints: &[Footprint], heap_built: isize, heap_ran: isize, ceiling: usize) {
    let first = footprints[0];
    assert!(
        footprints.iter().all(|&footprint| footprint == first),
        "the footprint must not follow the seed: {footprints:?}"
    );
    assert_eq!((first.heap_built, first.heap_ran), (heap_built, heap_ran), "{first:?}");
    assert!(first.mem_bytes <= ceiling, "{} B is over the {ceiling} B ceiling", first.mem_bytes);
}

#[test]
fn two_agent_node_stays_under_10_kb_on_every_seed() {
    let preset = colocated_recipe(ColocationConfig::default());
    assert_pinned(&footprints(&preset.recipe), 3_884, 13_976, 8_800);
}

#[test]
fn three_agent_node_stays_under_90_kb_on_every_seed() {
    let preset = three_agents_recipe(ThreeAgentConfig::default());
    assert_pinned(&footprints(&preset.recipe), 39_792, 118_396, 84_700);
}

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
//! names) sit just above today's 8,700 B and 84,516 B: a node that starts
//! keeping a hundred bytes more, or a latency window that outgrows its
//! reserved runs on some seed, fails them.
//!
//! `mem_bytes()` is self-reported: it sums the environment, the wake vector
//! and the intervention queue, and counts no agent. So this test binary also
//! measures the truth. Its global allocator counts, per thread, the heap
//! bytes allocated and not yet freed, and each test pins the live heap a node
//! holds after `instantiate` and after a virtual minute beside `mem_bytes()`:
//! 3,732 B and 13,728 B for the two-agent node, 39,592 B and 118,100 B for
//! the three-agent one, one value on every seed. The heap excludes the
//! `NodeRuntime` value itself, which lives on the caller's stack. Per agent,
//! each blueprint alone on its own substrate adds 2,663 B (SmartOverclock),
//! 2,797 B (SmartHarvest) and 28,740 B (SmartMemory) after the minute.
//!
//! The same allocator also counts calls, on the threads one test enrols:
//! a fleet's learning plane adds at most three per participating
//! node-round, plus stated constants.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use sol_agents::prelude::*;
use sol_core::prelude::*;
use sol_ml::exchange::{AggregationRule, BlendPolicy};
use sol_node_sim::multi_node::MultiNode;
use sol_node_sim::prelude::*;

thread_local! {
    /// Heap bytes this thread allocated and has not freed yet. Per thread,
    /// so tests running in parallel do not mix their counts.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Whether this thread's allocator calls count into [`CALLS`]. Only the
    /// allocation pin sets it: on its own thread, and on the fleet worker
    /// its recipe stamps nodes on.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Allocator calls made on counted threads, process-wide: a fleet's worker
/// is a thread of its own.
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

fn count_call() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
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
            count_call();
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
    assert_pinned(&footprints(&preset.recipe), 3_732, 13_728, 8_800);
}

#[test]
fn three_agent_node_stays_under_90_kb_on_every_seed() {
    let preset = three_agents_recipe(ThreeAgentConfig::default());
    assert_pinned(&footprints(&preset.recipe), 39_592, 118_100, 84_700);
}

/// The live heap a node built by `build` holds after a virtual minute.
fn heap_after_a_minute<E: Environment + 'static>(build: impl FnOnce() -> NodeRuntime<E>) -> isize {
    let before = live_bytes();
    let mut runtime = build();
    runtime.run_until(Timestamp::from_secs(60));
    live_bytes() - before
}

/// What one agent adds to the live heap, per seed: its blueprint registered
/// alone on the substrate `substrate` builds from the seed's
/// [`ThreeAgentConfig`], against the same substrate run for the same minute
/// with no agent. Both are advanced on the 1 ms grid the preset nodes'
/// SmartHarvest steps them on, which keeps each substrate's own history
/// within what it reserves whatever the agent does. The difference is the
/// agent (model, actuator, safeguard windows) and the runtime's bookkeeping
/// for it.
fn agent_heaps<T: Environment + Send + 'static>(
    substrate: impl Fn(&ThreeAgentConfig) -> T,
    register: impl Fn(&mut ScenarioBuilder<Shared<T>>, &Shared<T>, &ThreeAgentConfig),
) -> Vec<isize> {
    (0..8)
        .map(|index| {
            let config = ThreeAgentConfig::default().reseeded(&NodeSeed::derive(0x5eed, index));
            let on_the_grid = |node: &Shared<T>| {
                NodeRuntime::builder(node.clone())
                    .max_environment_step(SimDuration::from_millis(1))
                    .expect("a 1 ms step is valid")
            };
            let bare =
                heap_after_a_minute(|| on_the_grid(&Shared::new(substrate(&config))).build());
            let with_agent = heap_after_a_minute(|| {
                let node = Shared::new(substrate(&config));
                let mut builder = on_the_grid(&node);
                register(&mut builder, &node, &config);
                builder.build()
            });
            with_agent - bare
        })
        .collect()
}

/// Asserts every seed's agent costs `bytes`.
fn assert_agent_pinned(heaps: &[isize], bytes: isize) {
    assert!(
        heaps.iter().all(|&heap| heap == heaps[0]),
        "the agent must not follow the seed: {heaps:?}"
    );
    assert_eq!(heaps[0], bytes);
}

#[test]
fn smart_overclock_alone_holds_a_pinned_heap_on_every_seed() {
    let heaps = agent_heaps(
        |config| {
            CpuNode::new(
                config.workload.build_with_window(config.cores, config.latency_window),
                CpuNodeConfig { cores: config.cores, ..CpuNodeConfig::default() }
                    .with_seed(config.cpu_seed),
            )
        },
        |builder, node, config| {
            builder.register(overclock_blueprint(node, config.overclock.clone()));
        },
    );
    assert_agent_pinned(&heaps, 2_663);
}

#[test]
fn smart_harvest_alone_holds_a_pinned_heap_on_every_seed() {
    let heaps = agent_heaps(
        |config| {
            HarvestNode::new(
                config.service.clone(),
                HarvestNodeConfig {
                    latency_window: config.latency_window,
                    ..HarvestNodeConfig::default()
                },
            )
        },
        |builder, node, config| {
            builder.register(harvest_blueprint(node, config.harvest.clone()));
        },
    );
    assert_agent_pinned(&heaps, 2_797);
}

#[test]
fn smart_memory_alone_holds_a_pinned_heap_on_every_seed() {
    let heaps = agent_heaps(
        |config| MemoryNode::new(config.memory_workload, config.memory_node.clone()),
        |builder, node, config| {
            builder.register(memory_blueprint(node, config.memory.clone()));
        },
    );
    assert_agent_pinned(&heaps, 28_740);
}

/// Allocator calls a one-worker fleet of 64 SmartOverclock nodes (no
/// poisoner) makes over 30 one-second barriers under `learning`, on the
/// calling thread (the coordinator) and on the worker, with the run's
/// learning counters.
fn fleet_calls(learning: Option<LearningPlane>) -> (u64, LearningStats) {
    let preset = poisoned_overclock_recipe(PoisonedOverclockConfig {
        nodes: 64,
        victims: 0,
        ..PoisonedOverclockConfig::default()
    });
    let inner = preset.recipe;
    // The worker stamps every node at its first barrier, so its calls count
    // from the first stamp on: every barrier's work, in either run.
    let recipe = ScenarioRecipe::new(move |seed: &NodeSeed| {
        COUNTED.with(|counted| counted.set(true));
        inner.instantiate(seed)
    });
    let config = FleetConfig { nodes: 64, threads: 1, learning, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(recipe, config).unwrap();
    COUNTED.with(|counted| counted.set(true));
    let before = CALLS.load(Ordering::Relaxed);
    let report = fleet.run(SimDuration::from_secs(30)).unwrap();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    COUNTED.with(|counted| counted.set(false));
    (calls, report.learning)
}

/// The learning plane's allocator traffic, pinned: against the same fleet
/// with no plane, a median/`Replace` plane exchanging at every barrier adds
/// at most three allocator calls per participating node-round — the
/// SmartOverclock model's snapshot (its shape and values vectors) and
/// `learned_snapshots`' vector, compared with the node's export baseline
/// and freed on the worker — plus, per round, a constant for the
/// coordinator's aggregate and, per node, its baseline vector once. Nothing
/// else crosses the barrier by allocation: no shared handle, no export list,
/// no coordinator copy of a node's state.
#[test]
fn an_exchange_round_allocates_three_calls_per_participant_and_a_constant() {
    /// Per round, on the coordinator: the live-node list, the locked
    /// baselines, their rows, the aggregates vector, one slot's column of
    /// states, the aggregation's gather buffer, and the aggregate's values
    /// and shape. Measured: 8.
    const PER_ROUND: u64 = 8;
    /// Per node, once: its export baseline vector, at its first export.
    const PER_NODE: u64 = 1;
    /// std's channels allocate their wake-up bookkeeping lazily, the first
    /// time a thread blocks on one: up to one call per channel (two) and one
    /// for a fresh worker thread, in either run, depending on timing.
    const WAKE_UPS: u64 = 3;

    // Lazy one-time allocations of the calling thread land here.
    fleet_calls(None);
    let (off, quiet) = fleet_calls(None);
    assert_eq!(quiet, LearningStats::default());
    let (on, learning) = fleet_calls(Some(LearningPlane {
        exchange_every: 1,
        rule: AggregationRule::CoordinateWiseMedian,
        blend: BlendPolicy::Replace,
    }));
    assert_eq!((learning.rounds, learning.participants), (30, 64 * 30), "{learning:?}");
    let extra = on.saturating_sub(off);
    let bound = 3 * learning.participants + PER_ROUND * learning.rounds + PER_NODE * 64 + WAKE_UPS;
    assert!(
        extra <= bound,
        "the plane added {extra} allocator calls ({off} → {on}), over {bound}: more than 3 per \
         node-round, {PER_ROUND} per round and {PER_NODE} per node"
    );
}

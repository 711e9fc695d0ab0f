//! What a simulated server costs to keep resident.
//!
//! The two substrate histories that used to dominate a node — the harvest
//! substrate's latency windows and the memory substrate's recent window —
//! are stored compactly and sized by the configuration, not by what the
//! samples happen to be. These tests hold both halves: the footprint stays
//! under its ceiling, and it is one number whatever the node's seed, so
//! `mem_bytes_per_node` can carry a tight bound in the benchmark. The
//! ceilings (tighter than the round figures in the test names) sit between
//! today's 41,444 B and 118,284 B and the 1.3 KB more that an intervention
//! queue with a bucket array would cost every node.

use sol_agents::prelude::*;
use sol_core::prelude::*;
use sol_node_sim::multi_node::MultiNode;

/// `mem_bytes()` of one node per seed after a virtual minute: the 30 s
/// recent window and both 4096-sample windows have long been full.
fn footprints(recipe: &ScenarioRecipe<MultiNode>) -> Vec<usize> {
    (0..8)
        .map(|index| {
            let mut runtime = recipe.instantiate(&NodeSeed::derive(0x5eed, index));
            runtime.run_until(Timestamp::from_secs(60));
            runtime.mem_bytes()
        })
        .collect()
}

fn assert_one_value_under(footprints: &[usize], ceiling: usize) {
    assert!(
        footprints.iter().all(|&bytes| bytes == footprints[0]),
        "the footprint must not follow the seed: {footprints:?}"
    );
    assert!(footprints[0] <= ceiling, "{} B is over the {ceiling} B ceiling", footprints[0]);
}

#[test]
fn two_agent_node_stays_under_45_kb_on_every_seed() {
    let preset = colocated_recipe(ColocationConfig::default());
    assert_one_value_under(&footprints(&preset.recipe), 42_000);
}

#[test]
fn three_agent_node_stays_under_125_kb_on_every_seed() {
    let preset = three_agents_recipe(ThreeAgentConfig::default());
    assert_one_value_under(&footprints(&preset.recipe), 119_000);
}

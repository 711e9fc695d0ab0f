//! # sol-agents — the three SOL demonstration agents
//!
//! Implementations of the agents from paper §5, built on the
//! [`sol-core`](sol_core) framework, the [`sol-ml`](sol_ml) learners, and the
//! [`sol-node-sim`](sol_node_sim) substrate:
//!
//! * [`overclock`] — **SmartOverclock**: Q-learning CPU overclocking that
//!   boosts frequency only when the workload benefits.
//! * [`harvest`] — **SmartHarvest**: cost-sensitive classification that
//!   predicts near-future CPU demand so idle cores can be loaned out safely.
//! * [`memory`] — **SmartMemory**: Thompson-sampling access-bit scanning and
//!   hot/warm/cold page classification for two-tier memory.
//! * [`colocation`] — co-location presets (two-agent and full three-agent
//!   populations) on one shared
//!   [`MultiNode`](sol_node_sim::multi_node::MultiNode), assembled through the
//!   typed [`ScenarioBuilder`](sol_core::runtime::builder::ScenarioBuilder).
//! * [`poison`] — adversarial learners for the fleet learning plane: a
//!   [`PoisonedLearner`](poison::PoisonedLearner) wrapper that corrupts
//!   exported state, seeded victim plans, and the poisoned-overclock fleet
//!   scenario that demonstrates robust aggregation.
//!
//! Each module provides a `Model`/`Actuator` pair, a `*_schedule()` helper
//! matching the paper's control-loop timing, a `*_blueprint()` package for
//! [`ScenarioBuilder::register`](sol_core::runtime::builder::ScenarioBuilder::register),
//! configuration structs with per-safeguard toggles (so the failure-injection
//! experiments can compare "with" and "without" variants), and
//! fault-injection flags (broken model).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod colocation;
pub mod harvest;
pub mod memory;
pub mod overclock;
pub mod poison;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::colocation::{
        colocated_agents, colocated_recipe, three_agents, three_agents_recipe, ColocatedAgents,
        ColocatedRecipe, ColocationConfig, ThreeAgentConfig, ThreeAgents, ThreeAgentsRecipe,
        MEMORY_SLO_ATTAINMENT_FLOOR,
    };
    pub use crate::harvest::{
        blocking_harvest_schedule, harvest_blueprint, harvest_schedule, smart_harvest,
        CoreDemandPrediction, HarvestActuator, HarvestConfig, HarvestModel,
    };
    pub use crate::memory::{
        memory_blueprint, memory_schedule, smart_memory, BatchClass, MemoryActuator, MemoryConfig,
        MemoryModel, ScanRound, TieringPlan, SCAN_INTERVALS,
    };
    pub use crate::overclock::{
        blocking_overclock_schedule, overclock_blueprint, overclock_schedule, smart_overclock,
        FrequencyDecision, OverclockActuator, OverclockConfig, OverclockModel,
    };
    pub use crate::poison::{
        poisoned_overclock_recipe, PoisonAttack, PoisonPlan, PoisonedLearner,
        PoisonedOverclockConfig, PoisonedOverclockRecipe,
    };
}

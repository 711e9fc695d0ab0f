//! # sol — reproduction of *SOL: Safe On-Node Learning in Cloud Platforms*
//!
//! This facade crate re-exports the whole reproduction:
//!
//! * [`core`] — the SOL framework (Model/Actuator API, safeguards, the
//!   multi-agent event-queue runtime and the fleet runtime, both on virtual
//!   time).
//! * [`ml`] — the online learners the agents use (Q-learning,
//!   cost-sensitive classification, Thompson sampling, streaming statistics).
//! * [`node_sim`] — the simulated cloud node (CPU/DVFS/power, hypervisor
//!   counters, CPU harvesting, two-tier memory, co-location, fault
//!   injection).
//! * [`agents`] — SmartOverclock, SmartHarvest, SmartMemory, and their
//!   co-location wiring.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `sol-bench` crate for the harness that regenerates every table and figure
//! of the paper.
//!
//! ## Example
//!
//! ```
//! use sol::prelude::*;
//!
//! // Run SmartOverclock on the ObjectStore workload for 30 simulated seconds.
//! let node = Shared::new(CpuNode::new(
//!     OverclockWorkloadKind::ObjectStore.build(8),
//!     CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
//! ));
//! let mut builder = NodeRuntime::builder(node.clone());
//! let agent = builder.register(overclock_blueprint(&node, OverclockConfig::default()));
//! let report = builder.build().run_for(SimDuration::from_secs(30))?;
//! assert!(report.agent(agent).stats().model.epochs_completed > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use sol_agents as agents;
pub use sol_core as core;
pub use sol_ml as ml;
pub use sol_node_sim as node_sim;

/// Commonly used items from every crate in the reproduction.
pub mod prelude {
    pub use sol_agents::prelude::*;
    pub use sol_core::prelude::*;
    pub use sol_ml::prelude::*;
    pub use sol_node_sim::prelude::*;
}

//! Runtimes that schedule and execute agents' Model and Actuator loops.
//!
//! Three drivers are provided:
//!
//! * [`NodeRuntime`](node::NodeRuntime) — the multi-agent discrete-event
//!   driver: agent wakes as keys in a dense per-agent table under an index
//!   heap, interventions (the only queued events) in a binary heap over
//!   `(time, schedule order)`, environment-step boundaries merged into the
//!   tick time —
//!   hosting *N* heterogeneous SOL agents (each a `Model`/`Actuator` pair run
//!   by its two safeguarded control loops) on one shared [`Environment`].
//!   This is what the paper's co-location scenario (§4.2, §6) runs on.
//!   Agents are registered only through the typed
//!   [`ScenarioBuilder`](builder::ScenarioBuilder) front door
//!   ([`NodeRuntime::builder`](node::NodeRuntime::builder)), whose
//!   [`AgentHandle`](builder::AgentHandle)s give downcast-free access to the
//!   final report; the population is fixed once the builder is built.
//! * [`FleetRuntime`](fleet::FleetRuntime) — the scale layer: stamps out *N*
//!   nodes from a [`ScenarioRecipe`](builder::ScenarioRecipe) (seeded per
//!   node via [`NodeSeed`](fleet::NodeSeed)), shards them across a
//!   worker-thread pool synchronized on epoch boundaries of one virtual
//!   clock, and aggregates per-node stats into a
//!   [`FleetReport`](fleet::FleetReport) of fleet-level safety dashboards.
//!   Node availability is itself programmable: the [`lifecycle`] module's
//!   typed state machine and seeded [`FaultPlan`](lifecycle::FaultPlan) make
//!   crashes, joins, and drains first-class fleet events. The [`learning`]
//!   module turns the same barrier into a model-exchange point: learned
//!   state is robustly aggregated and redistributed fleet-wide, and joiners
//!   warm-start from the aggregate. The [`trust`] module watches that
//!   exchange: per-node divergence from the consensus is scored every round,
//!   and persistently poisoned nodes are excluded and drained.
//!   Reports are byte-identical regardless of the worker-thread count; where
//!   a run's wall time went comes back beside the report as a
//!   [`FleetProfile`](profile::FleetProfile).
//! * [`ThreadedAgent`](threaded::ThreadedAgent) — the deployment shape the
//!   paper describes: the Model and Actuator run in separately scheduled OS
//!   threads connected by a prediction queue, so the Actuator keeps taking
//!   safe actions while the Model is throttled.

pub mod builder;
pub mod fleet;
pub mod learning;
pub mod lifecycle;
pub mod node;
pub mod placement;
pub mod profile;
#[cfg(test)]
pub(crate) mod testutil;
pub mod threaded;
pub mod trust;
mod wake;
#[doc(hidden)]
pub mod wheel;

use crate::time::Timestamp;

use self::placement::{NodePlacement, PlacementError, WorkloadId, WorkloadUnit};

/// A simulated environment that evolves with time.
///
/// The simulation runtime advances the environment to the current virtual time
/// before running either control loop, so agents always observe up-to-date
/// telemetry.
///
/// # Workload placement
///
/// Environments that can host dynamically placed work (VMs arriving,
/// departing, and migrating between fleet nodes — see the
/// [`placement`] module) opt in by overriding the placement hooks. The
/// defaults describe an environment with no placeable slots: every attach
/// fails with [`PlacementError::Unsupported`] (counted, not fatal, when a
/// [`FleetController`](placement::FleetController) issues it) and the
/// placement snapshot is empty.
pub trait Environment {
    /// Advances the environment's state to `now`. Called with monotonically
    /// non-decreasing timestamps.
    fn advance_to(&mut self, now: Timestamp);

    /// Marks the start of an exclusively-owned batch of simulation work: the
    /// runtime calls this at the top of every
    /// [`run_until`](node::NodeRuntime::run_until) segment, on the one thread
    /// that will drive the environment until the matching
    /// [`end_batch`](Self::end_batch). Environments built from shared
    /// interior-locked parts (e.g. a composite node whose substrates are
    /// behind `sol-node-sim`'s `Shared` handles) use the pair to acquire
    /// each part's lock
    /// once per segment instead of once per call. The default is a no-op.
    ///
    /// Calls are idempotent: a second `begin_batch` before `end_batch` must
    /// be tolerated (and changes nothing).
    fn begin_batch(&mut self) {}

    /// Closes the batch opened by [`begin_batch`](Self::begin_batch),
    /// releasing any per-segment exclusivity. Called before `run_until`
    /// returns, so cross-thread access between segments (fleet barriers,
    /// telemetry, placement) observes an unlocked environment. The default is
    /// a no-op.
    fn end_batch(&mut self) {}

    /// Heap bytes retained by the environment (buffer capacities included),
    /// for the fleet layer's per-node memory accounting. The default reports
    /// 0 ("not instrumented"); simulation substrates override it via their
    /// [`MemoryFootprint`](sol_ml::footprint::MemoryFootprint) impls.
    fn mem_bytes(&self) -> usize {
        0
    }

    /// Attaches a placeable workload unit. Called only between simulation
    /// segments (epoch boundaries), never mid-tick.
    ///
    /// # Errors
    ///
    /// The default implementation always returns
    /// [`PlacementError::Unsupported`]; hosting environments return
    /// [`PlacementError::CapacityExceeded`] or
    /// [`PlacementError::DuplicateWorkload`] as appropriate.
    fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        let _ = unit;
        Err(PlacementError::Unsupported)
    }

    /// Detaches a resident workload unit and returns it (so a migration can
    /// re-attach it elsewhere). Called only between simulation segments.
    ///
    /// # Errors
    ///
    /// The default implementation always returns
    /// [`PlacementError::Unsupported`]; hosting environments return
    /// [`PlacementError::UnknownWorkload`] for ids that are not resident.
    fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        let _ = id;
        Err(PlacementError::Unsupported)
    }

    /// The environment's current placeable state. The default reports no
    /// capacity and no resident units.
    fn placement(&self) -> NodePlacement {
        NodePlacement::none()
    }
}

/// A no-op environment for agents that do not need a simulated substrate
/// (useful in unit tests and the quickstart example).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullEnvironment;

impl Environment for NullEnvironment {
    fn advance_to(&mut self, _now: Timestamp) {}
}

impl<E: Environment + ?Sized> Environment for &mut E {
    fn advance_to(&mut self, now: Timestamp) {
        (**self).advance_to(now);
    }

    fn begin_batch(&mut self) {
        (**self).begin_batch();
    }

    fn end_batch(&mut self) {
        (**self).end_batch();
    }

    fn mem_bytes(&self) -> usize {
        (**self).mem_bytes()
    }

    fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        (**self).attach_workload(unit)
    }

    fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        (**self).detach_workload(id)
    }

    fn placement(&self) -> NodePlacement {
        (**self).placement()
    }
}

impl<E: Environment + ?Sized> Environment for Box<E> {
    fn advance_to(&mut self, now: Timestamp) {
        (**self).advance_to(now);
    }

    fn begin_batch(&mut self) {
        (**self).begin_batch();
    }

    fn end_batch(&mut self) {
        (**self).end_batch();
    }

    fn mem_bytes(&self) -> usize {
        (**self).mem_bytes()
    }

    fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        (**self).attach_workload(unit)
    }

    fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        (**self).detach_workload(id)
    }

    fn placement(&self) -> NodePlacement {
        (**self).placement()
    }
}

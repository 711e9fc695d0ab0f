//! One physical node composing any set of substrates for co-located agents.
//!
//! The paper's headline scenario (§4.2, §6) is multiple learning agents
//! sharing one server. [`MultiNode`] composes an arbitrary set of registered
//! substrates — the CPU/DVFS node (SmartOverclock), the harvesting node
//! (SmartHarvest) and the two-tier memory node (SmartMemory) — into one
//! environment that advances everything in lockstep under the runtime's
//! virtual clock. A
//! [`NodeRuntime`](sol_core::runtime::node::NodeRuntime) assembled through
//! [`ScenarioBuilder`](sol_core::runtime::builder::ScenarioBuilder) can then
//! drive any agent population against it.
//!
//! Substrates are physically coupled through declared [`Coupling`]s, applied
//! before each advance:
//!
//! * [`Coupling::FrequencyToDemand`] — the overclocking agent sets the node's
//!   core frequency, and faster cores complete the harvest-side primary VM's
//!   work in fewer core-seconds, shrinking its core demand (and enlarging the
//!   harvestable pool).
//! * [`Coupling::FrequencyToMemoryBandwidth`] — faster cores issue more
//!   memory accesses per second, scaling the memory substrate's access rate.
//!
//! Omit a coupling to simulate separate physical domains (e.g. per-VM
//! frequency domains).
//!
//! # Examples
//!
//! All three paper substrates on one node, fully coupled:
//!
//! ```
//! use sol_core::runtime::Environment;
//! use sol_core::time::Timestamp;
//! use sol_node_sim::cpu_node::{CpuNode, CpuNodeConfig};
//! use sol_node_sim::harvest_node::{BurstyService, HarvestNode, HarvestNodeConfig};
//! use sol_node_sim::memory_node::{MemoryNode, MemoryNodeConfig, MemoryWorkloadKind};
//! use sol_node_sim::multi_node::{Coupling, MultiNode};
//! use sol_node_sim::shared::Shared;
//! use sol_node_sim::workload::OverclockWorkloadKind;
//!
//! let cpu = Shared::new(CpuNode::new(
//!     OverclockWorkloadKind::ObjectStore.build(8),
//!     CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
//! ));
//! let harvest =
//!     Shared::new(HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default()));
//! let memory = Shared::new(MemoryNode::new(
//!     MemoryWorkloadKind::ObjectStore,
//!     MemoryNodeConfig::default(),
//! ));
//!
//! let mut node = MultiNode::builder()
//!     .cpu(cpu.clone())
//!     .harvest(harvest.clone())
//!     .memory(memory.clone())
//!     .coupling(Coupling::FrequencyToDemand)
//!     .coupling(Coupling::FrequencyToMemoryBandwidth)
//!     .build()?;
//!
//! node.advance_to(Timestamp::from_secs(5));
//! assert_eq!(cpu.with(|n| n.now()), Timestamp::from_secs(5));
//! assert_eq!(harvest.with(|n| n.now()), Timestamp::from_secs(5));
//! assert_eq!(memory.with(|n| n.now()), Timestamp::from_secs(5));
//! # Ok::<(), sol_core::error::RuntimeError>(())
//! ```

use sol_core::error::RuntimeError;
use sol_core::runtime::placement::{NodePlacement, PlacementError, WorkloadId, WorkloadUnit};
use sol_core::runtime::Environment;
use sol_core::time::Timestamp;

use crate::cpu_node::CpuNode;
use crate::harvest_node::HarvestNode;
use crate::memory_node::MemoryNode;
use crate::power::NOMINAL_FREQUENCY_GHZ;
use crate::shared::{EnvGuard, Shared};

/// A declared physical interaction between two substrates of a [`MultiNode`],
/// applied before every environment advance.
///
/// The declaration order of couplings never matters: [`MultiNodeBuilder::build`]
/// canonicalizes them into this enum's variant order, so two nodes declaring
/// the same coupling *set* behave identically (and future couplings that
/// write overlapping state stay deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Coupling {
    /// Core frequency → harvest-side primary VM demand: overclocked cores
    /// finish the primary's work in fewer core-seconds. Requires the CPU and
    /// harvest substrates.
    FrequencyToDemand,
    /// Core frequency → memory access rate: overclocked cores issue more
    /// memory accesses per second. Requires the CPU and memory substrates.
    FrequencyToMemoryBandwidth,
}

impl Coupling {
    fn name(self) -> &'static str {
        match self {
            Coupling::FrequencyToDemand => "frequency→demand",
            Coupling::FrequencyToMemoryBandwidth => "frequency→memory-bandwidth",
        }
    }
}

/// Assembles a [`MultiNode`] from substrates and couplings. Created with
/// [`MultiNode::builder`].
#[derive(Default)]
pub struct MultiNodeBuilder {
    cpu: Option<Shared<CpuNode>>,
    harvest: Option<Shared<HarvestNode>>,
    memory: Option<Shared<MemoryNode>>,
    couplings: Vec<Coupling>,
}

impl MultiNodeBuilder {
    /// Registers the CPU/DVFS substrate (the SmartOverclock surface).
    pub fn cpu(mut self, node: Shared<CpuNode>) -> Self {
        self.cpu = Some(node);
        self
    }

    /// Registers the core-harvesting substrate (the SmartHarvest surface).
    pub fn harvest(mut self, node: Shared<HarvestNode>) -> Self {
        self.harvest = Some(node);
        self
    }

    /// Registers the two-tier memory substrate (the SmartMemory surface).
    pub fn memory(mut self, node: Shared<MemoryNode>) -> Self {
        self.memory = Some(node);
        self
    }

    /// Declares a physical coupling between registered substrates.
    /// Duplicates are ignored.
    pub fn coupling(mut self, coupling: Coupling) -> Self {
        if !self.couplings.contains(&coupling) {
            self.couplings.push(coupling);
        }
        self
    }

    /// Validates that every declared coupling has its substrates and returns
    /// the composed node, with the couplings canonicalized into [`Coupling`]
    /// variant order so that declaration order can never change results.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if a coupling references a
    /// substrate that was not registered.
    pub fn build(mut self) -> Result<MultiNode, RuntimeError> {
        self.couplings.sort_unstable();
        for &coupling in &self.couplings {
            let satisfied = match coupling {
                Coupling::FrequencyToDemand => self.cpu.is_some() && self.harvest.is_some(),
                Coupling::FrequencyToMemoryBandwidth => self.cpu.is_some() && self.memory.is_some(),
            };
            if !satisfied {
                return Err(RuntimeError::InvalidConfig(format!(
                    "coupling {} requires substrates that are not registered",
                    coupling.name()
                )));
            }
        }
        Ok(MultiNode {
            cpu: self.cpu,
            harvest: self.harvest,
            memory: self.memory,
            couplings: self.couplings,
            scopes: None,
        })
    }
}

/// The substrate locks held open for one simulation segment (between
/// [`Environment::begin_batch`] and [`Environment::end_batch`]): every
/// `with` call from the driving thread — couplings, advances, agent
/// model/actuator reads — rides these guards instead of re-locking.
struct BatchScopes {
    _cpu: Option<EnvGuard<CpuNode>>,
    _harvest: Option<EnvGuard<HarvestNode>>,
    _memory: Option<EnvGuard<MemoryNode>>,
}

/// One server hosting any set of co-located substrates, advanced in lockstep
/// with declared couplings. See the [module docs](self).
pub struct MultiNode {
    cpu: Option<Shared<CpuNode>>,
    harvest: Option<Shared<HarvestNode>>,
    memory: Option<Shared<MemoryNode>>,
    couplings: Vec<Coupling>,
    /// Open substrate scopes while inside a `begin_batch`/`end_batch` pair.
    scopes: Option<BatchScopes>,
}

impl std::fmt::Debug for MultiNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiNode")
            .field("cpu", &self.cpu.is_some())
            .field("harvest", &self.harvest.is_some())
            .field("memory", &self.memory.is_some())
            .field("couplings", &self.couplings)
            .finish()
    }
}

impl MultiNode {
    /// Starts assembling a node.
    pub fn builder() -> MultiNodeBuilder {
        MultiNodeBuilder::default()
    }

    /// Handle to the CPU/DVFS substrate, if registered.
    pub fn cpu(&self) -> Option<&Shared<CpuNode>> {
        self.cpu.as_ref()
    }

    /// Handle to the harvesting substrate, if registered.
    pub fn harvest(&self) -> Option<&Shared<HarvestNode>> {
        self.harvest.as_ref()
    }

    /// Handle to the memory substrate, if registered.
    pub fn memory(&self) -> Option<&Shared<MemoryNode>> {
        self.memory.as_ref()
    }

    /// The declared couplings, in canonical (variant) order.
    pub fn couplings(&self) -> &[Coupling] {
        &self.couplings
    }

    /// Applies every declared coupling once (reading the current source
    /// state), without advancing time.
    fn apply_couplings(&mut self) {
        if self.couplings.is_empty() {
            return;
        }
        let freq_factor =
            self.cpu.as_ref().map(|cpu| cpu.with(|n| n.frequency_ghz() / NOMINAL_FREQUENCY_GHZ));
        for &coupling in &self.couplings {
            match coupling {
                Coupling::FrequencyToDemand => {
                    if let (Some(factor), Some(harvest)) = (freq_factor, &self.harvest) {
                        harvest.with(|h| h.set_core_speed_factor(factor));
                    }
                }
                Coupling::FrequencyToMemoryBandwidth => {
                    if let (Some(factor), Some(memory)) = (freq_factor, &self.memory) {
                        memory.with(|m| m.set_bandwidth_factor(factor));
                    }
                }
            }
        }
    }
}

impl Environment for MultiNode {
    fn begin_batch(&mut self) {
        if self.scopes.is_some() {
            return;
        }
        self.scopes = Some(BatchScopes {
            _cpu: self.cpu.as_ref().map(Shared::scope),
            _harvest: self.harvest.as_ref().map(Shared::scope),
            _memory: self.memory.as_ref().map(Shared::scope),
        });
    }

    fn end_batch(&mut self) {
        self.scopes = None;
    }

    fn advance_to(&mut self, now: Timestamp) {
        self.apply_couplings();
        if let Some(cpu) = &self.cpu {
            cpu.with(|n| n.advance_to(now));
        }
        if let Some(harvest) = &self.harvest {
            harvest.with(|h| h.advance_to(now));
        }
        if let Some(memory) = &self.memory {
            memory.with(|m| m.advance_to(now));
        }
    }

    // Dynamic workload placement lands on the CPU substrate: placed VMs are
    // compute consumers, contending with the primary workload for cores.
    fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        match &self.cpu {
            Some(cpu) => cpu.with(|n| n.attach_workload(unit)),
            None => Err(PlacementError::Unsupported),
        }
    }

    fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        match &self.cpu {
            Some(cpu) => cpu.with(|n| n.detach_workload(id)),
            None => Err(PlacementError::Unsupported),
        }
    }

    fn placement(&self) -> NodePlacement {
        match &self.cpu {
            Some(cpu) => cpu.with(|n| n.placement()),
            None => NodePlacement::none(),
        }
    }

    fn mem_bytes(&self) -> usize {
        use sol_ml::footprint::MemoryFootprint;
        let mut total = std::mem::size_of::<Self>();
        if let Some(cpu) = &self.cpu {
            total += MemoryFootprint::mem_bytes(cpu);
        }
        if let Some(harvest) = &self.harvest {
            total += MemoryFootprint::mem_bytes(harvest);
        }
        if let Some(memory) = &self.memory {
            total += MemoryFootprint::mem_bytes(memory);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_node::CpuNodeConfig;
    use crate::harvest_node::{BurstyService, HarvestNodeConfig};
    use crate::memory_node::{MemoryNodeConfig, MemoryWorkloadKind};
    use crate::workload::OverclockWorkloadKind;

    fn cpu() -> Shared<CpuNode> {
        Shared::new(CpuNode::new(
            OverclockWorkloadKind::ObjectStore.build(8),
            CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
        ))
    }

    fn harvest() -> Shared<HarvestNode> {
        Shared::new(HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default()))
    }

    fn memory() -> Shared<MemoryNode> {
        Shared::new(MemoryNode::new(
            MemoryWorkloadKind::ObjectStore,
            MemoryNodeConfig { batches: 64, ..MemoryNodeConfig::default() },
        ))
    }

    #[test]
    fn advances_all_substrates_in_lockstep() {
        let (c, h, m) = (cpu(), harvest(), memory());
        let mut node = MultiNode::builder()
            .cpu(c.clone())
            .harvest(h.clone())
            .memory(m.clone())
            .build()
            .unwrap();
        node.advance_to(Timestamp::from_secs(3));
        assert_eq!(c.with(|n| n.now()), Timestamp::from_secs(3));
        assert_eq!(h.with(|n| n.now()), Timestamp::from_secs(3));
        assert_eq!(m.with(|n| n.now()), Timestamp::from_secs(3));
    }

    #[test]
    fn frequency_coupling_propagates_to_primary_demand() {
        let (c, h) = (cpu(), harvest());
        let mut node = MultiNode::builder()
            .cpu(c.clone())
            .harvest(h.clone())
            .coupling(Coupling::FrequencyToDemand)
            .build()
            .unwrap();
        node.advance_to(Timestamp::from_secs(1));
        assert_eq!(h.with(|n| n.core_speed_factor()), 1.0);
        c.with(|n| n.set_frequency_ghz(2.3));
        node.advance_to(Timestamp::from_secs(2));
        let factor = h.with(|n| n.core_speed_factor());
        assert!((factor - 2.3 / 1.5).abs() < 1e-9, "factor {factor}");
    }

    #[test]
    fn frequency_coupling_propagates_to_memory_bandwidth() {
        let (c, m) = (cpu(), memory());
        let mut node = MultiNode::builder()
            .cpu(c.clone())
            .memory(m.clone())
            .coupling(Coupling::FrequencyToMemoryBandwidth)
            .build()
            .unwrap();
        node.advance_to(Timestamp::from_secs(1));
        assert_eq!(m.with(|n| n.bandwidth_factor()), 1.0);
        let before = m.with(|n| n.local_accesses() + n.remote_accesses());
        c.with(|n| n.set_frequency_ghz(2.3));
        node.advance_to(Timestamp::from_secs(2));
        assert!((m.with(|n| n.bandwidth_factor()) - 2.3 / 1.5).abs() < 1e-9);
        // The faster clock produced proportionally more accesses in the
        // second second than the first.
        let after = m.with(|n| n.local_accesses() + n.remote_accesses());
        assert!(after - before > before * 1.2);
    }

    #[test]
    fn undeclared_couplings_leave_substrates_independent() {
        let (c, h, m) = (cpu(), harvest(), memory());
        let mut node = MultiNode::builder()
            .cpu(c.clone())
            .harvest(h.clone())
            .memory(m.clone())
            .build()
            .unwrap();
        c.with(|n| n.set_frequency_ghz(2.3));
        node.advance_to(Timestamp::from_secs(1));
        assert_eq!(h.with(|n| n.core_speed_factor()), 1.0);
        assert_eq!(m.with(|n| n.bandwidth_factor()), 1.0);
    }

    #[test]
    fn couplings_without_substrates_are_rejected() {
        let err =
            MultiNode::builder().harvest(harvest()).coupling(Coupling::FrequencyToDemand).build();
        assert!(matches!(err, Err(RuntimeError::InvalidConfig(_))));
        let err =
            MultiNode::builder().cpu(cpu()).coupling(Coupling::FrequencyToMemoryBandwidth).build();
        assert!(matches!(err, Err(RuntimeError::InvalidConfig(_))));
    }

    #[test]
    fn placement_delegates_to_the_cpu_substrate() {
        use sol_core::runtime::placement::{PlacementError, WorkloadId, WorkloadUnit};
        let placeable = Shared::new(CpuNode::new(
            OverclockWorkloadKind::DiskSpeed.build(8),
            CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() }.with_placeable_cores(4.0),
        ));
        let mut node =
            MultiNode::builder().cpu(placeable.clone()).harvest(harvest()).build().unwrap();
        let unit = WorkloadUnit::new(WorkloadId(11), 2.0);
        node.attach_workload(unit).unwrap();
        assert_eq!(node.placement().resident, vec![unit]);
        assert!(placeable.with(|n| n.placement().hosts(unit.id)));
        assert_eq!(node.detach_workload(unit.id), Ok(unit));
        // Without a CPU substrate there is nowhere to place.
        let mut cpuless = MultiNode::builder().harvest(harvest()).build().unwrap();
        assert_eq!(cpuless.attach_workload(unit), Err(PlacementError::Unsupported));
        assert_eq!(cpuless.placement().capacity, 0.0);
    }

    #[test]
    fn coupling_declaration_order_is_canonicalized_and_irrelevant() {
        // Assemble the same fully-coupled node with the two possible
        // declaration orders and drive both through an identical frequency
        // trajectory: the applied state must match exactly, and both nodes
        // must expose the same canonical coupling list.
        let run = |reversed: bool| {
            let (c, h, m) = (cpu(), harvest(), memory());
            let builder = MultiNode::builder().cpu(c.clone()).harvest(h.clone()).memory(m.clone());
            let builder = if reversed {
                builder
                    .coupling(Coupling::FrequencyToMemoryBandwidth)
                    .coupling(Coupling::FrequencyToDemand)
            } else {
                builder
                    .coupling(Coupling::FrequencyToDemand)
                    .coupling(Coupling::FrequencyToMemoryBandwidth)
            };
            let mut node = builder.build().unwrap();
            let couplings = node.couplings().to_vec();
            c.with(|n| n.set_frequency_ghz(2.3));
            node.advance_to(Timestamp::from_secs(2));
            c.with(|n| n.set_frequency_ghz(1.9));
            node.advance_to(Timestamp::from_secs(4));
            (
                couplings,
                h.with(|n| n.core_speed_factor()),
                m.with(|n| n.bandwidth_factor()),
                m.with(|n| n.local_accesses() + n.remote_accesses()),
                h.with(|n| n.harvested_core_seconds()),
            )
        };
        let declared = run(false);
        let reversed = run(true);
        assert_eq!(declared, reversed);
        assert_eq!(
            declared.0,
            vec![Coupling::FrequencyToDemand, Coupling::FrequencyToMemoryBandwidth],
            "build() must canonicalize the coupling order"
        );
    }

    #[test]
    fn batch_scopes_allow_same_thread_access_and_release_on_end() {
        let (c, h) = (cpu(), harvest());
        let mut node = MultiNode::builder()
            .cpu(c.clone())
            .harvest(h.clone())
            .coupling(Coupling::FrequencyToDemand)
            .build()
            .unwrap();
        node.begin_batch();
        node.begin_batch(); // idempotent: a second begin changes nothing
        node.advance_to(Timestamp::from_secs(1));
        // Agent-style access from the driving thread rides the open scope.
        c.with(|n| n.set_frequency_ghz(2.3));
        node.advance_to(Timestamp::from_secs(2));
        assert!((h.with(|n| n.core_speed_factor()) - 2.3 / 1.5).abs() < 1e-9);
        node.end_batch();
        // After end_batch other threads can lock the substrates again.
        let c2 = c.clone();
        std::thread::spawn(move || c2.with(|n| n.frequency_ghz())).join().unwrap();
    }
}

//! # sol-node-sim — a deterministic cloud-node simulator
//!
//! The substrate for the SOL reproduction. The paper evaluates its agents on a
//! real two-socket Xeon server running Hyper-V with production-style VMs; this
//! crate provides the closest synthetic equivalent: a deterministic,
//! discrete-time node simulator exposing exactly the telemetry and control
//! surfaces the agents use.
//!
//! * [`cpu_node`] — a node with an opaque VM, DVFS frequency control,
//!   hypervisor CPU counters (IPS, α), and a power meter (SmartOverclock).
//! * [`harvest_node`] — a node with a latency-sensitive primary VM and an
//!   ElasticVM fed by harvested cores, exposing CPU-usage samples and vCPU
//!   wait times (SmartHarvest).
//! * [`memory_node`] — a two-tier memory system with per-batch access bits,
//!   Zipf-skewed access generators, and local/remote access counters
//!   (SmartMemory).
//! * [`multi_node`] — one physical node composing any set of the three
//!   substrates (CPU, harvest, memory) with declared couplings for
//!   multi-agent co-location runs.
//! * [`workload`] — the CPU workload models from the paper's evaluation
//!   (Synthetic, ObjectStore, DiskSpeed).
//! * [`power`], [`counters`], [`shared`] — supporting pieces.
//!
//! Fault injection (bad counter readings, scan failures, scheduling delays via
//! the SOL runtime) reproduces the failure conditions of paper §6.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `shared` holds the libraries' only `unsafe`; every other library forbids it.
#![deny(unsafe_code)]

pub mod counters;
pub mod cpu_node;
pub mod harvest_node;
pub mod memory_node;
pub mod multi_node;
pub mod power;
mod recent_steps;
#[allow(unsafe_code)]
pub mod shared;
mod start_runs;
pub mod workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::counters::{CounterSample, CpuCounters};
    pub use crate::cpu_node::{CpuNode, CpuNodeConfig, CpuTracePoint};
    pub use crate::harvest_node::{BurstyService, HarvestNode, HarvestNodeConfig, UsageSample};
    pub use crate::memory_node::{
        MemoryNode, MemoryNodeConfig, MemoryWorkloadKind, RemoteFractionSample, ScanResult, Tier,
    };
    pub use crate::multi_node::{Coupling, MultiNode, MultiNodeBuilder};
    pub use crate::power::{EnergyMeter, FREQUENCY_LEVELS_GHZ, NOMINAL_FREQUENCY_GHZ};
    pub use crate::shared::Shared;
    pub use crate::workload::{
        CpuWorkload, DiskSpeed, ObjectStore, OverclockWorkloadKind, PerfReport, SyntheticBatch,
        WorkloadDemand,
    };
}

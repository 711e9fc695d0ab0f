//! # sol-bench — the experiment harness
//!
//! One module per group of paper experiments. Each figure or table of the
//! paper's evaluation has a bench target (`cargo bench -p sol-bench`) that
//! regenerates the corresponding rows or series by calling into these
//! modules:
//!
//! | Target | Paper artifact | Module |
//! |---|---|---|
//! | `table1`, `table2` | Tables 1 and 2 | [`sol_core::taxonomy`] |
//! | `fig1` … `fig5` | Figures 1–5 (SmartOverclock) | [`overclock_experiments`] |
//! | `fig6` | Figure 6 (SmartHarvest) | [`harvest_experiments`] |
//! | `fig7`, `fig8` | Figures 7–8 (SmartMemory) | [`memory_experiments`] |
//! | `ablation` | design-choice ablations | [`overclock_experiments`] |
//! | `colocation` | beyond the paper: agents co-located on one node | [`colocation_experiments`] |
//! | `fleet` | beyond the paper: recipe-stamped fleets under one clock | [`fleet_experiments`] |
//! | `placement` | beyond the paper: fleet-level VM placement under churn | [`placement_experiments`] |
//! | `failure` | beyond the paper: placement churn under crash/join/drain chaos | [`fleet_experiments`] |
//! | `memory` | beyond the paper: bytes of simulation state per node at fleet scale | — |
//!
//! Experiments run on the deterministic simulation runtime, so the printed
//! numbers are reproducible run to run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod colocation_experiments;
pub mod fleet_experiments;
pub mod harvest_experiments;
pub mod memory_experiments;
pub mod overclock_experiments;
pub mod placement_experiments;
pub mod report;
pub mod trajectory;

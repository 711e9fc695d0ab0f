//! # sol-bench — the experiment harness
//!
//! One module per group of paper experiments. The `paper` bench target prints
//! every table below, or the named ones
//! (`cargo bench -p sol-bench --bench paper -- fig6 table1`), each from one
//! generator here:
//!
//! | Table | Paper artifact | Generator | Unit test that reads its rows |
//! |---|---|---|---|
//! | `table1` | Table 1 | [`sol_core::taxonomy::table1`] | none |
//! | `table2` | Table 2 | [`sol_core::taxonomy::table2`] | none |
//! | `fig1` | Figure 1 (SmartOverclock) | [`overclock_experiments::fig1`] | `fig1_smartoverclock_beats_nominal_on_cpu_bound_workloads` |
//! | `fig2` | Figure 2 | [`overclock_experiments::fig2`] | `fig2_validation_recovers_performance` |
//! | `fig3` | Figure 3 | [`overclock_experiments::fig3`] | `fig3_safeguard_limits_power_increase_on_disk_bound` |
//! | `fig4` | Figure 4 | [`overclock_experiments::fig4`] | `fig4_blocking_actuator_wastes_more_power` |
//! | `fig5` | Figure 5 | [`overclock_experiments::fig5`] | `fig5_safeguard_reduces_idle_power` |
//! | `fig6` | Figure 6 (SmartHarvest) | [`harvest_experiments::fig6`] | one per panel: `invalid_data_safeguard_reduces_latency_impact`, `broken_model_safeguard_reduces_starvation`, `non_blocking_actuator_beats_blocking_under_delays` |
//! | `fig7` | Figure 7 (SmartMemory) | [`memory_experiments::fig7`] | `fig7_smart_memory_scans_less_and_offloads_memory` |
//! | `fig8` | Figure 8 | [`memory_experiments::fig8`] | `fig8_all_safeguards_attain_more_of_the_slo` |
//! | `ablation` | SmartOverclock exploration rate | [`overclock_experiments::run_smart_overclock`] | none |
//! | `colocation` | beyond the paper: agents co-located on one node | [`colocation_experiments::interference_table`] | `interference_table_has_expected_scenarios` |
//! | `placement` | beyond the paper: fleet-level VM placement under churn | [`placement_experiments::churn_sweep`] | none (`placement_row`, one row of it, has two) |
//! | `failure` | beyond the paper: placement churn under crash/join/drain chaos | [`fleet_experiments::failure_sweep`] | `failure_sweep_reports_chaos_and_safety` |
//!
//! These tests check direction or shape, never the paper's magnitudes.
//!
//! Experiments run on the deterministic simulation runtime, so `paper`'s
//! output is byte-identical run to run. Nothing here times the simulator:
//! its wall time, CPU time and bytes per node are the `benchmark/` crate's
//! metrics (`benchmark/run.sh`), and `tests/tests/footprint.rs` pins the
//! per-node footprint.

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

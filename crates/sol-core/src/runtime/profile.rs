//! `FleetProfile`: where a fleet run's wall time went.
//!
//! A [`FleetReport`](crate::runtime::fleet::FleetReport) is a pure function
//! of `(recipe, config, horizon)` and byte-identical across thread counts;
//! wall-clock measurements are neither, so they live here, *beside* the
//! report and never inside it.
//! [`FleetRuntime::run_profiled`](crate::runtime::fleet::FleetRuntime::run_profiled)
//! returns both; every other `run*` entry point is the same code path
//! dropping the profile.
//!
//! The coordinator reads the clock once per phase per barrier (the three
//! per-answer phases of `collect` once per worker) and each worker twice per
//! barrier — never per node — so profiling is always on: a 1200-barrier,
//! two-worker run pays ~20k clock reads.

use std::fmt;
use std::time::Instant;

/// Coordinator wall time per barrier phase, in nanoseconds summed over the
/// run. One stopwatch runs from the first hand-off to the end of the fold
/// and every lap is charged to exactly one field, so the fields add up to
/// the coordinator thread's whole wall time ([`total_ns`](Self::total_ns)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Collect: readying the barrier's task list and waking the workers.
    pub hand_off_ns: u64,
    /// Collect: blocked on worker replies — the only phase during which the
    /// workers compute, so everything else is serial coordinator time.
    pub wait_ns: u64,
    /// Collect: moving the workers' observations into the base view and
    /// adding up their learned-state export counters.
    pub apply_ns: u64,
    /// Collect: registry transitions, view stamps and occupancy booking.
    pub bookkeeping_ns: u64,
    /// The [`FleetController`](crate::runtime::placement::FleetController)'s
    /// `plan`.
    pub plan_ns: u64,
    /// Lifecycle events, quarantine drains and node retirement.
    pub lifecycle_ns: u64,
    /// Learn: the trust plane's record upkeep for nodes that joined, then
    /// locking the live nodes' export baselines and the robust aggregation
    /// round over them. Between rounds the upkeep lands in
    /// [`redistribute_ns`](Self::redistribute_ns).
    pub round_ns: u64,
    /// Learn: trust scoring of the round.
    pub score_ns: u64,
    /// Learn: releasing the baselines, redistributing the aggregates into
    /// them and the models (and warm-starting joiners).
    pub redistribute_ns: u64,
    /// Applying the plan's placement commands, and the tally of what the
    /// barrier's phases decided.
    pub place_ns: u64,
    /// The final fold: summarizing the survivors and aggregating reports.
    pub fold_ns: u64,
}

impl PhaseProfile {
    /// Every phase with its name, in barrier order.
    pub fn rows(&self) -> [(&'static str, u64); 11] {
        [
            ("collect/hand-off", self.hand_off_ns),
            ("collect/wait", self.wait_ns),
            ("collect/apply", self.apply_ns),
            ("collect/bookkeeping", self.bookkeeping_ns),
            ("plan", self.plan_ns),
            ("lifecycle", self.lifecycle_ns),
            ("learn/round", self.round_ns),
            ("learn/score", self.score_ns),
            ("learn/redistribute", self.redistribute_ns),
            ("place", self.place_ns),
            ("fold", self.fold_ns),
        ]
    }

    /// The coordinator's wall time: the sum of every phase.
    pub fn total_ns(&self) -> u64 {
        self.rows().iter().map(|&(_, ns)| ns).sum()
    }
}

/// One worker thread's share of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Wall time between receiving a barrier's command and answering it,
    /// summed over the run.
    pub busy_ns: u64,
    /// Nodes claimed off the shared task lists, summed over the run. Which
    /// worker claims a node depends on scheduling; the sum over workers is
    /// the number of node-barriers and does not.
    pub nodes_claimed: u64,
}

/// Where one fleet run's wall time went, plus deterministic counters of what
/// the barrier machinery did that the report does not show: its own
/// allocations and the fault events it skipped. See the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetProfile {
    /// Epoch barriers the run went through.
    pub barriers: u64,
    /// Coordinator wall time by phase.
    pub phases: PhaseProfile,
    /// Per-worker busy time and claims, in spawn order.
    pub workers: Vec<WorkerProfile>,
    /// Task lists built: one for the first barrier, one more after every
    /// barrier whose lifecycle phase changed the live set (a crash, a join,
    /// or a completed drain). A pure function of the run's inputs.
    pub task_lists_built: u64,
    /// Change-list buffers created: one per worker, recycled through every
    /// later barrier. A pure function of the worker count.
    pub change_buffers_allocated: u64,
    /// [`FaultPlan`](crate::runtime::lifecycle::FaultPlan) events dropped
    /// because their target had already left the fleet (crashed, drained or
    /// quarantined first): the report shows no trace of them, so they are
    /// counted here, folded from the skipped events each barrier's
    /// lifecycle phase returns. A pure function of the run's inputs.
    pub fault_events_skipped: u64,
}

impl fmt::Display for FleetProfile {
    /// The per-phase table: total milliseconds, share of the coordinator's
    /// wall time, and microseconds per barrier.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.phases.total_ns().max(1) as f64;
        let barriers = self.barriers.max(1) as f64;
        writeln!(f, "{:<22} {:>10} {:>7} {:>12}", "phase", "ms", "share", "us/barrier")?;
        for (name, ns) in self.phases.rows() {
            let ns = ns as f64;
            writeln!(
                f,
                "{name:<22} {:>10.1} {:>6.1}% {:>12.1}",
                ns / 1e6,
                100.0 * ns / total,
                ns / 1e3 / barriers
            )?;
        }
        writeln!(f, "{:<22} {:>10.1} {:>6.1}%", "total", total / 1e6, 100.0)?;
        for (index, worker) in self.workers.iter().enumerate() {
            writeln!(
                f,
                "worker {index:<15} {:>10.1} busy ms {:>12} nodes claimed",
                worker.busy_ns as f64 / 1e6,
                worker.nodes_claimed
            )?;
        }
        write!(
            f,
            "{} barriers, {} task list(s) built, {} change buffer(s) allocated, \
             {} fault event(s) skipped",
            self.barriers,
            self.task_lists_built,
            self.change_buffers_allocated,
            self.fault_events_skipped
        )
    }
}

/// A stopwatch over consecutive phases: every
/// [`charge`](Self::charge) books the time since the previous one, so a run
/// of charges partitions the elapsed time with no gaps.
pub(crate) struct Lap(Instant);

impl Lap {
    pub(crate) fn start() -> Self {
        Lap(Instant::now())
    }

    /// Adds the time since the previous charge (or the start) to `phase`.
    pub(crate) fn charge(&mut self, phase: &mut u64) {
        let now = Instant::now();
        *phase += now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_partition_the_elapsed_time() {
        let begin = Instant::now();
        let mut lap = Lap::start();
        let mut phases = PhaseProfile::default();
        lap.charge(&mut phases.hand_off_ns);
        std::thread::yield_now();
        lap.charge(&mut phases.wait_ns);
        lap.charge(&mut phases.fold_ns);
        assert_eq!(phases.total_ns(), phases.hand_off_ns + phases.wait_ns + phases.fold_ns);
        assert!(phases.total_ns() <= begin.elapsed().as_nanos() as u64);
    }

    #[test]
    fn the_table_names_every_phase_once() {
        let profile = FleetProfile {
            barriers: 2,
            phases: PhaseProfile { wait_ns: 3_000_000, plan_ns: 1_000_000, ..Default::default() },
            workers: vec![WorkerProfile { busy_ns: 2_500_000, nodes_claimed: 64 }],
            task_lists_built: 1,
            change_buffers_allocated: 1,
            fault_events_skipped: 0,
        };
        let table = profile.to_string();
        for (name, _) in profile.phases.rows() {
            assert_eq!(table.matches(name).count(), 1, "{name} in\n{table}");
        }
        assert!(table.contains("75.0%"), "wait is three quarters of the total:\n{table}");
        assert!(table.contains("64 nodes claimed"));
    }
}

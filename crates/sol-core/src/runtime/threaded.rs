//! Threaded runtime: the deployment shape described in paper §4.2.
//!
//! The Model and Actuator control loops run in separately scheduled OS
//! threads connected by a prediction queue, so the Actuator can continue to
//! operate and take safe actions when the Model is throttled or
//! underperforming. This runtime uses wall-clock time; experiments use the
//! deterministic [`NodeRuntime`](crate::runtime::node::NodeRuntime) instead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crate::actuator::Actuator;
use crate::error::RuntimeError;
use crate::loops::{ActuatorLoop, ModelLoop};
use crate::model::Model;
use crate::prediction::Prediction;
use crate::schedule::Schedule;
use crate::stats::AgentStats;
use crate::time::{SimDuration, SystemClock};

/// Outcome of a completed threaded run.
#[derive(Debug)]
pub struct ThreadedReport<M, A> {
    /// The model, returned for post-run inspection.
    pub model: M,
    /// The actuator, returned for post-run inspection.
    pub actuator: A,
    /// Runtime counters for the agent.
    pub stats: AgentStats,
}

/// How long `Drop` waits for each control-loop thread to exit before
/// detaching it. Both loops sleep at most 20 ms between stop-flag checks, so
/// a healthy agent is joined in well under this bound.
const DROP_JOIN_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Handle to a running agent hosted on two OS threads.
///
/// Dropping the handle without calling [`stop`](ThreadedAgent::stop) signals
/// the threads to stop and joins them (with a bounded timeout, after which a
/// wedged thread is detached rather than hanging the caller), so tests and
/// short-lived processes do not leak threads.
pub struct ThreadedAgent<M: Model, A: Actuator<Pred = M::Pred>> {
    stop: Arc<AtomicBool>,
    model_thread: Option<JoinHandle<(M, crate::stats::ModelLoopStats)>>,
    actuator_thread: Option<JoinHandle<(A, crate::stats::ActuatorLoopStats)>>,
}

/// Process-wide count of control-loop threads that missed their drop
/// deadline and were detached. See [`leaked_threads`].
static LEAKED_THREADS: AtomicU64 = AtomicU64::new(0);

/// Number of control-loop threads that, over the life of this process, missed
/// the [`ThreadedAgent`] drop deadline and were detached (still running,
/// unobservable through any report). A non-zero value means an agent loop
/// wedged — the silent-leak failure mode this counter makes visible.
pub fn leaked_threads() -> u64 {
    LEAKED_THREADS.load(Ordering::Relaxed)
}

/// What [`join_by_deadline`] did with the thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinOutcome {
    /// The thread exited in time and was joined.
    Joined,
    /// The thread missed the deadline and was detached (leaked).
    Leaked,
}

/// Joins `handle` if it finishes before `deadline`; otherwise detaches it,
/// bumping the process-wide [`leaked_threads`] counter and logging the leak
/// so wedged agents are observable instead of silent.
fn join_by_deadline<T>(handle: JoinHandle<T>, deadline: std::time::Instant) -> JoinOutcome {
    while !handle.is_finished() {
        if std::time::Instant::now() >= deadline {
            let name = handle.thread().name().unwrap_or("<unnamed>").to_string();
            let leaked_so_far = LEAKED_THREADS.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!(
                "sol-core: control-loop thread {name:?} missed its drop deadline and was detached \
                 ({leaked_so_far} leaked so far)"
            );
            return JoinOutcome::Leaked;
        }
        thread::sleep(std::time::Duration::from_millis(1));
    }
    let _ = handle.join();
    JoinOutcome::Joined
}

impl<M, A> ThreadedAgent<M, A>
where
    M: Model + 'static,
    A: Actuator<Pred = M::Pred> + 'static,
    M::Pred: Send,
{
    /// Starts the agent: spawns the Model and Actuator control-loop threads
    /// according to the developer-provided schedule (paper Listing 3,
    /// `SOL::RunAgent`).
    pub fn run(model: M, actuator: A, schedule: Schedule) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let clock = SystemClock::new();
        let (tx, rx) = mpsc::channel::<Prediction<M::Pred>>();

        let model_stop = Arc::clone(&stop);
        let model_clock = clock.clone();
        let model_schedule = schedule.clone();
        let model_thread = thread::Builder::new()
            .name("sol-model".into())
            .spawn(move || {
                let mut loop_ = ModelLoop::new(model, model_schedule, model_clock.now());
                while !model_stop.load(Ordering::Relaxed) {
                    let now = model_clock.now();
                    let wake = loop_.next_wake();
                    if now < wake {
                        let sleep = wake.duration_since(now).min(SimDuration::from_millis(20));
                        thread::sleep(sleep.to_std());
                        continue;
                    }
                    if let Some(prediction) = loop_.step(now) {
                        // The receiver disappears when the actuator thread
                        // stops first; that is a normal shutdown race.
                        let _ = tx.send(prediction);
                    }
                }
                loop_.into_parts()
            })
            .expect("spawn model thread");

        let actuator_stop = Arc::clone(&stop);
        let actuator_clock = clock;
        let actuator_thread = thread::Builder::new()
            .name("sol-actuator".into())
            .spawn(move || {
                let mut loop_ = ActuatorLoop::new(actuator, schedule, actuator_clock.now());
                while !actuator_stop.load(Ordering::Relaxed) {
                    let now = actuator_clock.now();
                    let wake = loop_.next_wake().max(now);
                    let timeout =
                        wake.duration_since(now).min(SimDuration::from_millis(20)).to_std();
                    match rx.recv_timeout(timeout) {
                        Ok(prediction) => {
                            loop_.deliver(prediction);
                            loop_.step(actuator_clock.now());
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            loop_.step(actuator_clock.now());
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            loop_.step(actuator_clock.now());
                            if actuator_stop.load(Ordering::Relaxed) {
                                break;
                            }
                            thread::sleep(std::time::Duration::from_millis(1));
                        }
                    }
                }
                loop_.clean_up(actuator_clock.now());
                loop_.into_parts()
            })
            .expect("spawn actuator thread");

        ThreadedAgent {
            stop,
            model_thread: Some(model_thread),
            actuator_thread: Some(actuator_thread),
        }
    }

    /// Signals both control loops to stop, waits for them, runs `CleanUp`, and
    /// returns the final state.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::WorkerPanicked`] if either control-loop thread
    /// panicked.
    pub fn stop(mut self) -> Result<ThreadedReport<M, A>, RuntimeError> {
        self.stop.store(true, Ordering::Relaxed);
        let model_thread = self.model_thread.take().expect("model thread present");
        let actuator_thread = self.actuator_thread.take().expect("actuator thread present");
        // Join both before propagating either error, so a panicked loop
        // never leaves its sibling thread detached and running.
        let model_result = model_thread.join();
        let actuator_result = actuator_thread.join();
        let (model, model_stats) =
            model_result.map_err(|_| RuntimeError::WorkerPanicked("model"))?;
        let (actuator, actuator_stats) =
            actuator_result.map_err(|_| RuntimeError::WorkerPanicked("actuator"))?;
        Ok(ThreadedReport {
            model,
            actuator,
            stats: AgentStats { model: model_stats, actuator: actuator_stats },
        })
    }

    /// Lets the agent run for the given wall-clock duration, then stops it.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError::WorkerPanicked`] from [`stop`](Self::stop).
    pub fn run_for(
        self,
        duration: std::time::Duration,
    ) -> Result<ThreadedReport<M, A>, RuntimeError> {
        thread::sleep(duration);
        self.stop()
    }
}

impl<M: Model, A: Actuator<Pred = M::Pred>> Drop for ThreadedAgent<M, A> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.model_thread.take() {
            join_by_deadline(handle, std::time::Instant::now() + DROP_JOIN_TIMEOUT);
        }
        if let Some(handle) = self.actuator_thread.take() {
            join_by_deadline(handle, std::time::Instant::now() + DROP_JOIN_TIMEOUT);
        }
    }
}

/// Convenience alias matching the paper's `SOL::RunAgent` entry point: builds
/// a [`ThreadedAgent`] and runs it until stopped.
pub fn run_agent<M, A>(model: M, actuator: A, schedule: Schedule) -> ThreadedAgent<M, A>
where
    M: Model + 'static,
    A: Actuator<Pred = M::Pred> + 'static,
    M::Pred: Send,
{
    ThreadedAgent::run(model, actuator, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ActuatorAssessment;
    use crate::error::DataError;
    use crate::model::ModelAssessment;
    use crate::time::Timestamp as Ts;

    struct TickModel;

    impl Model for TickModel {
        type Data = u64;
        type Pred = u64;
        fn collect_data(&mut self, now: Ts) -> Result<u64, DataError> {
            Ok(now.as_nanos())
        }
        fn validate_data(&self, _d: &u64) -> bool {
            true
        }
        fn commit_data(&mut self, _now: Ts, _d: u64) {}
        fn update_model(&mut self, _now: Ts) {}
        fn predict(&mut self, now: Ts) -> Option<Prediction<u64>> {
            Some(Prediction::model(1, now, now + SimDuration::from_secs(1)))
        }
        fn default_predict(&self, now: Ts) -> Prediction<u64> {
            Prediction::fallback(0, now, now + SimDuration::from_secs(1))
        }
        fn assess_model(&mut self, _now: Ts) -> ModelAssessment {
            ModelAssessment::Healthy
        }
    }

    #[derive(Default)]
    struct TickActuator {
        actions: u64,
        cleaned: bool,
    }

    impl Actuator for TickActuator {
        type Pred = u64;
        fn take_action(&mut self, _now: Ts, _pred: Option<&Prediction<u64>>) {
            self.actions += 1;
        }
        fn assess_performance(&mut self, _now: Ts) -> ActuatorAssessment {
            ActuatorAssessment::Acceptable
        }
        fn mitigate(&mut self, _now: Ts) {}
        fn clean_up(&mut self, _now: Ts) {
            self.cleaned = true;
        }
    }

    #[test]
    fn threaded_agent_runs_and_cleans_up() {
        let schedule = Schedule::builder()
            .data_per_epoch(2)
            .data_collect_interval(SimDuration::from_millis(5))
            .max_epoch_time(SimDuration::from_millis(50))
            .assess_model_every_epochs(1)
            .max_actuation_delay(SimDuration::from_millis(20))
            .assess_actuator_interval(SimDuration::from_millis(10))
            .build()
            .unwrap();
        let agent = ThreadedAgent::run(TickModel, TickActuator::default(), schedule);
        let report = agent.run_for(std::time::Duration::from_millis(200)).unwrap();
        assert!(report.stats.model.epochs_completed >= 1);
        assert!(report.actuator.actions >= 1);
        assert!(report.actuator.cleaned);
        assert_eq!(report.stats.actuator.cleanups, 1);
    }

    #[test]
    fn missed_deadline_is_counted_as_a_leak() {
        let before = leaked_threads();
        let wedged = thread::Builder::new()
            .name("sol-wedged".into())
            .spawn(|| thread::sleep(std::time::Duration::from_millis(300)))
            .unwrap();
        let outcome = join_by_deadline(
            wedged,
            std::time::Instant::now() + std::time::Duration::from_millis(10),
        );
        assert_eq!(outcome, JoinOutcome::Leaked, "a wedged thread must be detached");
        assert!(leaked_threads() > before, "the leak must be counted, not silent");

        // A healthy thread joins in time and leaves the counter alone.
        let after_leak = leaked_threads();
        let healthy = thread::spawn(|| {});
        let outcome = join_by_deadline(
            healthy,
            std::time::Instant::now() + std::time::Duration::from_secs(5),
        );
        assert_eq!(outcome, JoinOutcome::Joined);
        assert_eq!(leaked_threads(), after_leak);
    }

    #[test]
    fn drop_joins_worker_threads() {
        let schedule = Schedule::builder()
            .data_per_epoch(2)
            .data_collect_interval(SimDuration::from_millis(5))
            .max_epoch_time(SimDuration::from_millis(50))
            .assess_model_every_epochs(1)
            .max_actuation_delay(SimDuration::from_millis(20))
            .assess_actuator_interval(SimDuration::from_millis(10))
            .build()
            .unwrap();
        let agent = ThreadedAgent::run(TickModel, TickActuator::default(), schedule);
        let stop = Arc::clone(&agent.stop);
        thread::sleep(std::time::Duration::from_millis(30));
        drop(agent);
        // Both worker threads held a clone of the stop flag; after a joining
        // drop only our clone remains. A detaching drop (the old behaviour)
        // leaves up to two racing clones alive.
        assert_eq!(Arc::strong_count(&stop), 1, "drop must join both control-loop threads");
    }
}

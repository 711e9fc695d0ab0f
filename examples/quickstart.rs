//! Quickstart: build a tiny SOL agent from scratch and run it on the
//! deterministic simulation runtime, once undisturbed and once with its Model
//! loop starved for 30 seconds.
//!
//! The agent watches a noisy "queue depth" signal, learns its average, and
//! throttles an (imaginary) background task whenever the predicted depth is
//! high. It exercises every part of the SOL API: data validation, model
//! assessment, default predictions, the Actuator safeguard, and clean-up.
//!
//! Run with: `cargo run --example quickstart`

use sol::prelude::*;

/// Telemetry sample: the current queue depth.
struct QueueDepthModel {
    rng: rand::rngs::StdRng,
    window: SlidingWindow,
    mean: Ewma,
}

impl Model for QueueDepthModel {
    type Data = f64;
    type Pred = f64;

    fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
        use rand::Rng;
        // A noisy signal that drifts between 0 and 100.
        Ok(50.0 + 40.0 * self.rng.gen::<f64>() - 20.0)
    }

    fn validate_data(&self, sample: &f64) -> bool {
        sample.is_finite() && (0.0..=100.0).contains(sample)
    }

    fn commit_data(&mut self, _now: Timestamp, sample: f64) {
        self.window.push(sample);
    }

    fn update_model(&mut self, _now: Timestamp) {
        self.mean.push(self.window.mean());
    }

    fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
        Some(Prediction::model(self.mean.value(), now, now + SimDuration::from_secs(1)))
    }

    fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
        // When in doubt, predict a high queue depth so the actuator throttles.
        Prediction::fallback(100.0, now, now + SimDuration::from_secs(1))
    }

    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        if self.mean.is_initialized() {
            ModelAssessment::Healthy
        } else {
            ModelAssessment::Failing
        }
    }
}

/// Throttles a background task when the predicted queue depth is high.
#[derive(Default)]
struct ThrottleActuator {
    throttled: bool,
    actions: u64,
}

impl Actuator for ThrottleActuator {
    type Pred = f64;

    fn take_action(&mut self, _now: Timestamp, pred: Option<&Prediction<f64>>) {
        self.actions += 1;
        self.throttled = match pred {
            Some(p) => *p.value() > 60.0,
            // No prediction: throttle, the conservative choice.
            None => true,
        };
    }

    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        ActuatorAssessment::Acceptable
    }

    fn mitigate(&mut self, _now: Timestamp) {
        self.throttled = true;
    }

    fn clean_up(&mut self, _now: Timestamp) {
        self.throttled = false;
    }
}

fn model() -> QueueDepthModel {
    QueueDepthModel { rng: seeded_rng(7), window: SlidingWindow::new(32), mean: Ewma::new(0.3) }
}

fn schedule() -> Schedule {
    Schedule::builder()
        .data_per_epoch(10)
        .data_collect_interval(SimDuration::from_millis(100))
        .max_epoch_time(SimDuration::from_secs(2))
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_secs(5))
        .assess_actuator_interval(SimDuration::from_secs(1))
        .build()
        .expect("valid schedule")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An undisturbed 60 s run in virtual time.
    // 2. The same run with a 30-second delay injected into the Model loop at
    //    t = 20 s (paper §6). The Actuator loop is scheduled on its own, so it
    //    keeps acting on its maximum-actuation-delay timeout meanwhile.
    let delays = [("undelayed:", None), ("delayed:  ", Some(SimDuration::from_secs(30)))];
    for (label, delay) in delays {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let agent = builder.agent("throttle", model(), ThrottleActuator::default(), schedule());
        let mut runtime = builder.build();
        if let Some(delay) = delay {
            runtime.delay_model_at(agent, Timestamp::from_secs(20), delay);
        }
        let report = runtime.run_for(SimDuration::from_secs(60))?.take(agent);
        println!(
            "{label} {} epochs, {} actions, throttled at end: {}",
            report.stats.model.epochs_completed, report.actuator.actions, report.actuator.throttled
        );
        println!(
            "           model predictions: {}, default predictions: {}, actuation timeouts: {}",
            report.stats.model.model_predictions,
            report.stats.model.default_predictions,
            report.stats.actuator.actuation_timeouts
        );
    }
    Ok(())
}

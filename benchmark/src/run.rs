//! One invocation: a workload measured end to end with tracing off, or the
//! traced run that splits the same workload by layer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sol_core::prelude::*;

use crate::fingerprint::sim_fingerprint;
use crate::host::{available_cores, peak_rss_mib, Host};
use crate::json::Json;
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{fastest, median, tail_percentile, Summary};
use crate::tare::tare;
use crate::trace::{Kind, TickBreakdown, TraceSink};
use crate::workloads::{build, sampled_nodes, Outcome, Planes, RunOpts, Size, Spec, Workload};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The samples the value was picked from (the fastest repetition, the
    /// median set-up), kept so the run's own noise stays visible.
    pub samples: Vec<f64>,
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// The measuring budget asked for.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Worker threads the workload asks for.
    pub threads_requested: usize,
    /// Logical cores the host offers.
    pub threads_available: usize,
    /// Operations attempted: one per checked repetition.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failures, for the reader.
    pub errors: Vec<String>,
    /// `sim_fingerprint` of the workload's repetitions.
    pub fingerprint: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Remarks a bare number would hide (which percentile a tail really is,
    /// why a metric reads 0).
    pub notes: Vec<String>,
}

impl Record {
    /// Whether the workload wants more workers than the host has cores, in
    /// which case its timings are not scaling data.
    pub fn oversubscribed(&self) -> bool {
        self.threads_requested > self.threads_available
    }

    /// The record with everything needed to compare it later.
    pub fn to_json(&self, host: &Host) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name", Json::Str(m.name.to_string())),
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ];
                if m.samples.len() > 1 {
                    fields.push(("samples", Json::numbers(&m.samples)));
                }
                Json::object(fields)
            })
            .collect();
        Json::object([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Str(self.seed.to_string())),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("threads_requested", Json::Num(self.threads_requested as f64)),
            ("threads_available", Json::Num(self.threads_available as f64)),
            ("oversubscribed", Json::Bool(self.oversubscribed())),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("sim_fingerprint", Json::Str(format!("{:016x}", self.fingerprint))),
            ("host", host.to_json()),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let reading = Json::object([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name, reading)
            })
            .collect::<Vec<_>>();
        Json::object([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::object(metrics)),
        ])
        .render()
    }

    /// Prints every metric by name with its unit, then the run's metadata.
    pub fn print(&self, host: &Host) {
        println!(
            "== {} ({}) seed={} seconds={}",
            self.workload,
            if self.traced { "traced run, per-layer metrics" } else { "tracing off, end-to-end" },
            self.seed,
            self.seconds,
        );
        println!(
            "host: {} logical cores, {}, clocksource {}, {}, commit {}",
            host.logical_cores, host.cpu_model, host.clocksource, host.rustc, host.commit
        );
        println!(
            "threads: {} requested, {} available{}",
            self.threads_requested,
            self.threads_available,
            if self.oversubscribed() {
                " -- OVERSUBSCRIBED: timings are not scaling data"
            } else {
                ""
            }
        );
        for metric in &self.metrics {
            print!("{:<34} {:>16.6} {:<6}", metric.name, metric.value, metric.unit);
            if metric.samples.len() > 1 {
                let s = Summary::of(&metric.samples);
                print!(
                    " of {} samples: min {:.6}, q1 {:.6}, median {:.6}, q3 {:.6}, max {:.6}",
                    s.n, s.min, s.q1, s.median, s.q3, s.max
                );
            }
            println!();
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        println!("sim_fingerprint {:016x}", self.fingerprint);
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "ops_attempted {} ops_failed {} ops_failed_frac {failed_frac}",
            self.attempted, self.failed
        );
        for error in &self.errors {
            println!("FAILED: {error}");
        }
    }
}

/// Repetition accounting: one operation is one checked repetition.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// What every repetition of one configuration must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    fingerprint: u64,
    mem_bytes_per_node: usize,
}

/// One repetition that passed its checks.
struct Rep {
    report: FleetReport,
    wall_s: f64,
    cpu_s: f64,
}

impl Ops {
    /// Counts one repetition and checks it: it ran, it covered the horizon
    /// in the expected number of barriers, and it simulated exactly what
    /// `reference` did (the first repetition sets the reference).
    fn admit(
        &mut self,
        spec: &Spec,
        label: &str,
        result: Result<Outcome, String>,
        reference: &mut Option<Reference>,
    ) -> Option<Rep> {
        self.attempted += 1;
        let checked = result.and_then(|Outcome { mut report, wall, cpu }| {
            if report.epochs != spec.epochs() {
                return Err(format!("{} barriers, expected {}", report.epochs, spec.epochs()));
            }
            if report.ended_at != Timestamp::ZERO + spec.horizon {
                return Err(format!("ended at {}, expected {}", report.ended_at, spec.horizon));
            }
            let mem_bytes_per_node = report.mem_bytes_per_node;
            let seen = Reference { fingerprint: sim_fingerprint(&mut report), mem_bytes_per_node };
            let expected = *reference.get_or_insert(seen);
            if seen != expected {
                return Err(format!("simulated {seen:x?}, the first repetition {expected:x?}"));
            }
            report.mem_bytes_per_node = mem_bytes_per_node;
            Ok(Rep { report, wall_s: wall.as_secs_f64(), cpu_s: cpu })
        });
        match checked {
            Ok(rep) => Some(rep),
            Err(error) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("{label}: {error}"));
                }
                None
            }
        }
    }
}

/// Calls `repetition` at least `at_least` times and until `budget` is spent.
fn repeat(at_least: usize, budget: Duration, mut repetition: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < at_least || start.elapsed() < budget {
        repetition();
        done += 1;
    }
}

/// Set-ups timed ahead of every repetition of an end-to-end run.
const SETUPS_PER_REPETITION: usize = 2;
/// Fewest timed repetitions of an end-to-end run, whatever the budget.
const MIN_REPETITIONS: usize = 5;
/// Fewest rounds of a traced run; a round runs every configuration once.
const MIN_ROUNDS: usize = 3;
/// Nodes run alone each round for `fleet.coordination_frac`.
const SOLO_NODES_PER_ROUND: usize = 16;

/// One full set-up: inputs from the seed, recipe and probe assembly,
/// `FleetRuntime::new`, and a stamp pass of every node — the last so that
/// work a later change moves out of `run*` into construction still shows.
fn set_up(name: &str, seed: u64) -> Result<(Box<dyn Workload>, Duration, Duration), String> {
    let start = Instant::now();
    let workload = build(name, seed, Size::Full)?;
    let built = start.elapsed();
    workload.stamp_all();
    Ok((workload, built, start.elapsed() - built))
}

/// The end-to-end run, tracing off: one warm-up repetition, then timed
/// repetitions of the same seeded run for `seconds`, each on a workload set
/// up afresh.
///
/// # Errors
///
/// An unknown workload, or no repetition that passed its checks.
pub fn end_to_end(name: &str, seed: u64, seconds: u64) -> Result<Record, String> {
    // Set-up is milliseconds, so one reading of it is noise. It is repeated
    // ahead of every repetition — spread over the run like the repetitions,
    // not bunched into the process's cold first moments — and its median
    // reported. Each starts from the same heap: the previous one is dropped
    // first, or the allocator alternates between two layouts and set-up time
    // between two modes.
    let mut setups = Vec::new();
    let mut fresh = || -> Result<Box<dyn Workload>, String> {
        let mut last = None;
        for _ in 0..SETUPS_PER_REPETITION {
            drop(last.take());
            let (workload, built, stamped) = set_up(name, seed)?;
            setups.push((built + stamped).as_secs_f64());
            last = Some(workload);
        }
        Ok(last.expect("at least one set-up"))
    };

    // Warm-up: caches fill, the allocator grows, lazy statics resolve. Its
    // outcome is not an operation; a broken run fails every timed one too.
    let workload = fresh()?;
    let spec = workload.spec().clone();
    let opts = RunOpts { threads: spec.threads, planes: Planes::ALL, sink: None };
    let _ = workload.run(&opts);
    drop(workload);

    let mut ops = Ops::default();
    let mut reference = None;
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    repeat(MIN_REPETITIONS, Duration::from_secs(seconds), || {
        // Workload and report are dropped here, before the next repetition:
        // peak memory is one run's, not the loop's.
        let outcome = fresh().and_then(|workload| workload.run(&opts));
        if let Some(rep) = ops.admit(&spec, "repetition", outcome, &mut reference) {
            walls.push(rep.wall_s * 1e3 / spec.node_minutes());
            cpus.push(rep.cpu_s * 1e3 / spec.node_minutes());
        }
    });
    let reference = reference.ok_or_else(|| {
        format!("{name}: no repetition passed its checks: {}", ops.errors.join("; "))
    })?;

    // Every repetition executes the same instructions on the same inputs, so
    // whatever one takes beyond the fastest is the host's interference, not
    // the program's cost — and on a shared box that interference comes in
    // phases of +20 % lasting tens of seconds, which a median cannot shed.
    // (CPU time ticks in 10 ms steps: under 0.5 % of a repetition.)
    let values: [(f64, Vec<f64>); END_TO_END.len()] = [
        (fastest(&walls), walls),
        (fastest(&cpus), cpus),
        (peak_rss_mib(), Vec::new()),
        (reference.mem_bytes_per_node as f64, Vec::new()),
        (median(&setups), setups),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Metric { name: m.name, value, unit: m.unit, samples })
        .collect();
    Ok(Record {
        workload: spec.name.to_string(),
        seed,
        seconds,
        traced: false,
        threads_requested: spec.threads,
        threads_available: available_cores(),
        attempted: ops.attempted,
        failed: ops.failed,
        errors: ops.errors,
        fingerprint: reference.fingerprint,
        metrics,
        notes: Vec::new(),
    })
}

/// One way of running the workload in a traced run, and what its
/// repetitions measured.
struct Config<'a> {
    label: &'static str,
    opts: RunOpts<'a>,
    /// Which configurations must simulate the same thing: they share one
    /// [`Reference`].
    group: usize,
    walls: Vec<f64>,
    cpu_s: f64,
    last: Option<FleetReport>,
}

impl<'a> Config<'a> {
    fn new(label: &'static str, group: usize, opts: RunOpts<'a>) -> Self {
        Config { label, opts, group, walls: Vec::new(), cpu_s: 0.0, last: None }
    }

    /// Wall seconds of the fastest repetition (0 if none passed).
    fn wall_s(&self) -> f64 {
        if self.walls.is_empty() {
            0.0
        } else {
            fastest(&self.walls)
        }
    }
}

/// The reference groups of a traced run's configurations.
const PRESET: usize = 0;
const MIRROR: usize = 1;
const FIRST_RUNG: usize = 2;

/// The traced run. Three parts, all from outside the product: (A) in-situ
/// spans through wrappers over the public traits, against an untraced
/// baseline of the same workload; (B) on `fleet-control`, the plane ablation
/// ladder; (C) isolated drives of each layer's entry points.
///
/// # Errors
///
/// An unknown workload, or a baseline with no repetition that passed.
pub fn traced(name: &str, seed: u64, seconds: u64) -> Result<(Record, Json), String> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, value: f64| {
        assert!(PER_LAYER.iter().any(|&(n, _, _)| n == name), "{name} is not a per-layer metric");
        values.insert(name, value);
    };
    let mut notes = Vec::new();

    let mut stamps = Vec::new();
    let mut last = None;
    for _ in 0..MIN_ROUNDS {
        drop(last.take());
        let (workload, _, stamped) = set_up(name, seed)?;
        stamps.push(stamped.as_secs_f64());
        last = Some(workload);
    }
    let workload = last.expect("at least one set-up");
    let workload = workload.as_ref();
    let spec = workload.spec().clone();
    set("fleet.stamp_us_per_node", median(&stamps) * 1e6 / spec.nodes as f64);

    // The configurations: the untraced baseline, the same workload with
    // spans, the other thread count (parallel speed-up, and the
    // single-thread wall the coordination share is taken against) and, on
    // `fleet-control`, the lower rungs of the ablation ladder — its top
    // rung is the baseline.
    let cores = available_cores();
    let sink = TraceSink::new(sampled_nodes(spec.nodes));
    let base = RunOpts { threads: spec.threads, planes: Planes::ALL, sink: None };
    let mut configs = vec![
        Config::new("untraced", PRESET, base),
        Config::new("traced", MIRROR, RunOpts { sink: Some(&sink), ..base }),
    ];
    // A fleet run simulates the same thing on any number of workers, so the
    // other thread count answers to the baseline's reference.
    let other = if spec.threads == 2 {
        configs.push(Config::new("1 thread", PRESET, RunOpts { threads: 1, ..base }));
        Some(configs.len() - 1)
    } else if cores >= 2 {
        configs.push(Config::new("2 threads", PRESET, RunOpts { threads: 2, ..base }));
        Some(configs.len() - 1)
    } else {
        None
    };
    let first_rung = configs.len();
    if spec.planes {
        let labels = ["ablation: bare", "ablation: +packer+faults", "ablation: +learning"];
        for (rung, label) in labels.into_iter().enumerate() {
            let opts = RunOpts { planes: Planes::LADDER[rung], ..base };
            configs.push(Config::new(label, FIRST_RUNG + rung, opts));
        }
    }

    // Rounds, not blocks: each round runs every configuration once — and a
    // few nodes alone, and a tare ahead of the traced one — so all of them sample
    // the same stretches of the box's weather and their fastest repetitions
    // can be set against each other.
    let _ = workload.run(&base);
    let mut ops = Ops::default();
    let mut references = [None; FIRST_RUNG + 3];
    let mut breakdowns = Vec::new();
    let mut solo = Vec::new();
    let solo_stride = (spec.nodes / (MIN_ROUNDS * SOLO_NODES_PER_ROUND)).max(1);
    repeat(MIN_ROUNDS, Duration::from_secs(seconds), || {
        for config in &mut configs {
            let before = config.opts.sink.map(|sink| (tare(), sink.tick_totals()));
            let outcome = workload.run(&config.opts);
            let reference = &mut references[config.group];
            let Some(rep) = ops.admit(&spec, config.label, outcome, reference) else { continue };
            config.walls.push(rep.wall_s);
            config.cpu_s += rep.cpu_s;
            config.last = Some(rep.report);
            if let (Some((tare, totals)), Some(sink)) = (before, config.opts.sink) {
                let breakdown = TickBreakdown::between(&totals, &sink.tick_totals(), tare);
                breakdowns.push((rep.wall_s, tare, breakdown));
            }
        }
        // Every node's compute with no fleet around it, a few nodes a round,
        // spread over the fleet.
        for _ in 0..SOLO_NODES_PER_ROUND {
            let index = solo.len() * solo_stride % spec.nodes;
            match workload.run_node(index) {
                Ok((_, wall)) => solo.push(wall.as_secs_f64()),
                Err(_) => break,
            }
        }
    });
    let (untraced, spans) = (&configs[0], &configs[1]);
    let (Some(reference), Some(report)) = (references[PRESET], &untraced.last) else {
        return Err(format!(
            "{name}: no untraced repetition passed its checks: {}",
            ops.errors.join("; ")
        ));
    };

    // Every repetition made, in round order.
    for config in &configs {
        let walls: Vec<String> = config.walls.iter().map(|wall| format!("{wall:.3}")).collect();
        notes.push(format!("{} repetitions, wall s: {}", config.label, walls.join(" ")));
    }

    // (A) In situ.
    set("fleet.cpu_over_wall", untraced.cpu_s / untraced.walls.iter().sum::<f64>());
    // Each traced repetition was read with the tare taken right ahead of it.
    // The fastest one ran in the calmest weather, where that tare fits best:
    // its split is the one reported.
    let (_, calibration, breakdown) = breakdowns
        .into_iter()
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("wall times are never NaN"))
        .unwrap_or_else(|| (0.0, tare(), TickBreakdown::default()));
    set("trace.span_cost_ns", calibration.cost_ns);
    let recorded: Vec<String> =
        calibration.recorded().map(|(name, ns)| format!("{name} {ns:.1}")).collect();
    notes.push(format!(
        "an empty span costs its batch {:.1} ns and records, in ns: {}; tared on no-op nodes \
         ahead of each traced repetition and subtracted per recorded call; the split is the \
         fastest traced repetition's",
        calibration.cost_ns,
        recorded.join(", ")
    ));
    if let (Some(mirror), Some(traced_report)) = (references[MIRROR], &spans.last) {
        let matches = mirror.fingerprint == reference.fingerprint;
        set("trace.mirror_match", f64::from(u8::from(matches)));
        set("trace.overhead_frac", spans.wall_s() / untraced.wall_s() - 1.0);
        if matches {
            tick_split(&sink, &breakdown, traced_report, &mut set);
        } else {
            notes.push(
                "the traced recipe no longer simulates what the preset does: in-situ shares \
                 are void (read 0) until the mirror in benchmark/src/recipes.rs is updated"
                    .to_string(),
            );
        }
    }
    let epochs = sink.durations_ms("epoch");
    if !epochs.is_empty() {
        set("fleet.epoch_wall_ms_p50", median(&epochs));
        set("fleet.epoch_wall_ms_p99", tail(&epochs, "fleet.epoch_wall_ms_p99", &mut notes));
    }
    let plans: Vec<f64> = sink.durations_ms("plan").iter().map(|ms| ms * 1e3).collect();
    if !plans.is_empty() {
        set("placement.plan_us_p50", median(&plans));
        set("placement.plan_us_p99", tail(&plans, "placement.plan_us_p99", &mut notes));
    }

    let other_s = other.map_or(0.0, |index| configs[index].wall_s());
    let (one_thread_s, two_thread_s) = match spec.threads {
        1 => (untraced.wall_s(), other_s),
        _ => (other_s, if cores >= 2 { untraced.wall_s() } else { 0.0 }),
    };
    if two_thread_s > 0.0 && one_thread_s > 0.0 {
        set("fleet.speedup_t2", one_thread_s / two_thread_s);
    } else {
        notes.push(format!(
            "fleet.speedup_t2 reads 0: the host has {cores} logical core(s), so a 2-thread \
             run would measure oversubscription, not scaling"
        ));
    }

    // All nodes alone: the lower quartile of the nodes run alone (nodes
    // differ by a few percent, interference only adds), scaled up. What the
    // single-thread fleet run takes beyond that is coordination — barriers,
    // views, planes, the final fold.
    if !solo.is_empty() && one_thread_s > 0.0 {
        let all_nodes_s = Summary::of(&solo).q1 * spec.nodes as f64;
        set("fleet.coordination_frac", 1.0 - all_nodes_s / one_thread_s);
        notes.push(format!(
            "{} nodes run alone, wall ms: q1 {:.3}, median {:.3}; single-thread fleet wall {:.3} s",
            solo.len(),
            Summary::of(&solo).q1 * 1e3,
            median(&solo) * 1e3,
            one_thread_s
        ));
    }

    // What the planes did, read off the (deterministic) report.
    let placement = &report.placement;
    set("placement.commands", placement.commands as f64);
    if placement.commands > 0 {
        set(
            "placement.failed_frac",
            placement.failed_placements as f64 / placement.commands as f64,
        );
    }
    let transitions: u64 = report.nodes.iter().map(|n| n.lifecycle.version - 1).sum();
    set("lifecycle.events", (transitions as usize + report.nodes.len() - spec.nodes) as f64);
    set("learning.rounds", report.learning.rounds as f64);
    set("learning.bytes_exchanged", report.learning.bytes_exchanged as f64);
    let victims = workload.victims();
    let scored = |n: &&FleetNodeReport| victims.contains(&n.node);
    let detect = report.nodes.iter().filter(scored).map(|n| n.trust.rounds_scored).max();
    set("trust.detect_rounds_max", detect.unwrap_or(0) as f64);
    let flagged = |n: &&FleetNodeReport| {
        !victims.contains(&n.node) && n.trust.verdict != TrustVerdict::Trusted
    };
    set("trust.false_positives", report.nodes.iter().filter(flagged).count() as f64);

    // (B) The ablation ladder: one more plane armed per rung, each charged
    // the difference to the rung below.
    if configs.len() > first_rung {
        let mut rungs: Vec<f64> = configs[first_rung..].iter().map(Config::wall_s).collect();
        rungs.push(untraced.wall_s());
        let rounds = report.learning.rounds.max(1) as f64;
        set("placement.ms_per_epoch_ablate", (rungs[1] - rungs[0]) * 1e3 / spec.epochs() as f64);
        set("learning.ms_per_round_ablate", (rungs[2] - rungs[1]) * 1e3 / rounds);
        set("trust.ms_per_round_ablate", (rungs[3] - rungs[2]) * 1e3 / rounds);
        notes.push(format!(
            "ablation ladder, fastest wall s: bare {:.3}, +packer+faults {:.3}, +learning {:.3}, \
             +trust {:.3}",
            rungs[0], rungs[1], rungs[2], rungs[3]
        ));
    }

    // (C) Each layer driven alone.
    for reading in layers::drive_all() {
        set(reading.name, reading.value);
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            Metric { name, value, unit, samples: Vec::new() }
        })
        .collect();
    let record = Record {
        workload: spec.name.to_string(),
        seed,
        seconds,
        traced: true,
        threads_requested: spec.threads,
        threads_available: cores,
        attempted: ops.attempted,
        failed: ops.failed,
        errors: ops.errors,
        fingerprint: reference.fingerprint,
        metrics,
        notes,
    };
    Ok((record, sink.to_json(name, calibration)))
}

/// The tail of `samples`: the highest percentile with at least ten samples
/// beyond it, which is p99 only from a thousand samples up — the note says
/// which percentile the metric really is.
fn tail(samples: &[f64], metric: &str, notes: &mut Vec<String>) -> f64 {
    match tail_percentile(samples) {
        Some((percentile, value)) => {
            notes.push(format!("{metric} is p{percentile} of {} samples", samples.len()));
            value
        }
        None => {
            notes.push(format!("{metric} is the max of only {} samples", samples.len()));
            samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }
}

/// The in-situ split of a sampled node's tick wall time, and the per-second
/// counts taken at the same boundaries.
fn tick_split(
    sink: &TraceSink,
    breakdown: &TickBreakdown,
    report: &FleetReport,
    set: &mut impl FnMut(&'static str, f64),
) {
    set("span.env_advance_frac", breakdown.frac(Kind::EnvAdvance));
    set("span.model_collect_frac", breakdown.frac(Kind::ModelCollect));
    set("span.model_update_frac", breakdown.frac(Kind::ModelUpdate));
    set("span.model_predict_frac", breakdown.frac(Kind::ModelPredict));
    set("span.model_other_frac", breakdown.frac(Kind::ModelOther));
    set("span.actuator_frac", breakdown.frac(Kind::Actuator));
    set("span.runtime_self_frac", breakdown.runtime_self_frac());
    for (metric, agent) in [
        ("span.agent_overclock_frac", "smart-overclock"),
        ("span.agent_harvest_frac", "smart-harvest"),
        ("span.agent_memory_frac", "smart-memory"),
    ] {
        if let Some(index) = report.roles.iter().position(|role| role.name == agent) {
            set(metric, breakdown.agent_frac(index));
        }
    }
    // Virtual seconds the sampled nodes lived, on their own clocks (a node
    // that crashed or drained stops early), in the one repetition split.
    let node_seconds: f64 =
        sink.sampled().iter().map(|&node| report.nodes[node].ended_at.as_secs_f64()).sum();
    let per_node_second = |count: u64| count as f64 / node_seconds;
    set("count.ticks_per_node_s", per_node_second(breakdown.count(Kind::EnvAdvance)));
    set("count.model_collects_per_node_s", per_node_second(breakdown.count(Kind::ModelCollect)));
    set("count.model_updates_per_node_s", per_node_second(breakdown.count(Kind::ModelUpdate)));
    set("count.actuator_calls_per_node_s", per_node_second(breakdown.count(Kind::Actuator)));
}

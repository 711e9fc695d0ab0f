//! Benchmark self-tests: the workloads pass their own checks at toy size,
//! the traced recipes simulate what the presets do, the fingerprint sees
//! simulated statistics and nothing else, and `BENCHMARK.json` says what the
//! code does. `cargo test --manifest-path benchmark/Cargo.toml`.

use std::sync::Arc;

use sol_agents::colocation::{
    colocated_recipe, three_agents_recipe, ColocationConfig, ThreeAgentConfig,
};
use sol_core::prelude::*;

use crate::fingerprint::sim_fingerprint;
use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::recipes::{colocated_mirror, three_agents_mirror};
use crate::run::{Metric, Record};
use crate::tare::tare;
use crate::trace::{Kind, TickBreakdown, TraceSink};
use crate::workloads::{build, sampled_nodes, Planes, RunOpts, Size, NAMES};

fn toy_opts(threads: usize) -> RunOpts<'static> {
    RunOpts { threads, planes: Planes::ALL, sink: None }
}

#[test]
fn every_workload_passes_its_checks_at_toy_size_on_three_seeds() {
    for name in NAMES {
        for seed in [1, 2, 3] {
            let workload = build(name, seed, Size::Toy).unwrap();
            let spec = workload.spec().clone();
            let outcome = workload
                .run(&toy_opts(spec.threads))
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_eq!(outcome.report.epochs, spec.epochs(), "{name} seed {seed}");
            assert_eq!(outcome.report.ended_at, Timestamp::ZERO + spec.horizon, "{name}");
            assert!(outcome.report.nodes.len() >= spec.nodes, "{name} seed {seed}");
            workload.stamp_all();
        }
    }
    assert!(build("no-such-workload", 1, Size::Toy).is_err());
}

#[test]
fn another_seed_is_another_input_and_the_same_seed_the_same() {
    for name in NAMES {
        let print = |seed| {
            let workload = build(name, seed, Size::Toy).unwrap();
            let threads = workload.spec().threads;
            sim_fingerprint(&mut workload.run(&toy_opts(threads)).unwrap().report)
        };
        assert_eq!(print(7), print(7), "{name}");
        assert_ne!(print(7), print(8), "{name}");
    }
}

/// The fleets behind `trace.mirror_match`: the preset, its mirror with
/// tracing off, and its mirror with spans on must simulate the same thing.
fn mirror_fingerprints<E: Environment + Send + 'static>(
    preset: ScenarioRecipe<E>,
    mirror: impl Fn(Option<Arc<TraceSink>>) -> ScenarioRecipe<crate::trace::TracedEnv<E>>,
) -> [u64; 3] {
    let config = FleetConfig { nodes: 4, threads: 1, seed: 0xbe7c, ..FleetConfig::default() };
    let horizon = SimDuration::from_secs(2);
    let sink = TraceSink::new(sampled_nodes(config.nodes));
    let mut reports = [
        FleetRuntime::new(preset, config.clone()).unwrap().run(horizon).unwrap(),
        FleetRuntime::new(mirror(None), config.clone()).unwrap().run(horizon).unwrap(),
        FleetRuntime::new(mirror(Some(sink)), config).unwrap().run(horizon).unwrap(),
    ];
    // Not only the fingerprint: the mirrors reproduce the preset's memory
    // accounting too, which the fingerprint deliberately ignores.
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
    reports.each_mut().map(sim_fingerprint)
}

#[test]
fn traced_recipes_mirror_the_presets() {
    let [preset, off, on] =
        mirror_fingerprints(colocated_recipe(ColocationConfig::default()).recipe, |sink| {
            colocated_mirror(ColocationConfig::default(), sink)
        });
    assert_eq!((preset, preset), (off, on), "colocated mirror");
    let [preset, off, on] =
        mirror_fingerprints(three_agents_recipe(ThreeAgentConfig::default()).recipe, |sink| {
            three_agents_mirror(ThreeAgentConfig::default(), sink)
        });
    assert_eq!((preset, preset), (off, on), "three-agents mirror");
}

#[test]
fn tracing_a_workload_does_not_change_what_it_simulates() {
    for name in NAMES {
        let workload = build(name, 5, Size::Toy).unwrap();
        let spec = workload.spec().clone();
        let sink = TraceSink::new(sampled_nodes(spec.nodes));
        let traced = RunOpts { sink: Some(&sink), ..toy_opts(spec.threads) };
        let mut plain = workload.run(&toy_opts(spec.threads)).unwrap().report;
        let mut spans = workload.run(&traced).unwrap().report;
        assert_eq!(sim_fingerprint(&mut plain), sim_fingerprint(&mut spans), "{name}");
    }
}

#[test]
fn fingerprint_is_thread_count_blind_and_ignores_mem_bytes_only() {
    let workload = build("fleet-control", 3, Size::Toy).unwrap();
    let mut one = workload.run(&toy_opts(1)).unwrap().report;
    let mut two = workload.run(&toy_opts(2)).unwrap().report;
    let print = sim_fingerprint(&mut one);
    assert_eq!(print, sim_fingerprint(&mut two));

    two.mem_bytes_per_node = 123_456;
    two.nodes[0].mem_bytes = 654_321;
    assert_eq!(print, sim_fingerprint(&mut two), "host memory is not a simulated statistic");
    two.nodes[0].agents[0].stats.model.samples_committed += 1;
    assert_ne!(print, sim_fingerprint(&mut two), "one sample more is a different simulation");
}

#[test]
fn a_traced_run_accounts_for_the_whole_tick() {
    let workload = build("fleet-steady", 1, Size::Toy).unwrap();
    let spec = workload.spec().clone();
    let sink = TraceSink::new(sampled_nodes(spec.nodes));
    let traced = RunOpts { sink: Some(&sink), ..toy_opts(spec.threads) };
    workload.run(&traced).unwrap();

    let breakdown = TickBreakdown::between(&Default::default(), &sink.tick_totals(), tare());
    assert!(breakdown.batch_ns > 0.0);
    // One advance per tick, at least one tick per millisecond of the
    // harvest agent's cadence, on every sampled node.
    let node_seconds = sink.sampled().len() as f64 * spec.horizon.as_secs_f64();
    assert!(breakdown.count(Kind::EnvAdvance) as f64 >= 1_000.0 * node_seconds);
    assert!(breakdown.count(Kind::ModelCollect) > 0 && breakdown.count(Kind::Actuator) > 0);
    let shares: Vec<f64> = [
        Kind::EnvAdvance,
        Kind::ModelCollect,
        Kind::ModelUpdate,
        Kind::ModelPredict,
        Kind::ModelOther,
        Kind::Actuator,
    ]
    .into_iter()
    .map(|kind| breakdown.frac(kind))
    .chain([breakdown.runtime_self_frac()])
    .collect();
    assert!(shares.iter().all(|&share| (0.0..=1.0).contains(&share)), "{shares:?}");
    // Self time is the remainder unless calibration over-corrects it to 0.
    assert!(shares.iter().sum::<f64>() >= 0.999, "{shares:?}");
    // Agent 0 is SmartOverclock, agent 1 SmartHarvest: the 1 ms agent
    // outweighs the 100 ms one.
    assert!(breakdown.agent_frac(1) > breakdown.agent_frac(0));

    // The span file: one repetition holding every epoch, each plan inside an
    // epoch or the closing fold, so self time = span minus children.
    let file = Json::parse(&sink.to_json(spec.name, tare()).render()).unwrap();
    let spans = file.get("spans").and_then(Json::as_array).unwrap();
    let named = |name: &'static str| {
        spans.iter().filter(|s| s.get("name").unwrap().as_str() == Some(name)).count()
    };
    assert_eq!(named("repetition"), 1);
    assert_eq!(named("epoch") as u64, spec.epochs());
    assert_eq!(named("plan") as u64, spec.epochs());
    assert_eq!(named("finish"), 1);
    for span in spans {
        let number = |key: &str| span.get(key).and_then(Json::as_f64);
        assert!(number("start_ns") <= number("end_ns"));
        if let Some(parent) = number("parent") {
            let parent = spans.iter().find(|s| s.get("id").and_then(Json::as_f64) == Some(parent));
            let parent = parent.expect("every parent is in the file");
            assert!(parent.get("start_ns").and_then(Json::as_f64) <= number("start_ns"));
            assert!(parent.get("end_ns").and_then(Json::as_f64) >= number("end_ns"));
        }
    }
    assert!(!file.get("ticks").and_then(Json::as_array).unwrap().is_empty());
}

#[test]
fn the_tare_is_positive_and_below_a_microsecond() {
    let tare = tare();
    for (name, recorded_ns) in tare.recorded() {
        assert!(recorded_ns > 0.0 && recorded_ns < tare.cost_ns, "{name}: {tare:?}");
    }
    assert!(tare.cost_ns < 1_000.0, "{tare:?}");
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let record = Record {
        workload: "fleet-steady".into(),
        seed: 1,
        seconds: 1,
        traced: false,
        threads_requested: 4,
        threads_available: 2,
        attempted: 7,
        failed: 0,
        errors: Vec::new(),
        fingerprint: 0xdead_beef,
        metrics: END_TO_END
            .iter()
            .map(|m| Metric { name: m.name, value: 1.25, unit: m.unit, samples: vec![1.25, 1.5] })
            .collect(),
        notes: Vec::new(),
    };
    assert!(record.oversubscribed());
    let line = Json::parse(&record.contract_line()).unwrap();
    let Json::Obj(fields) = &line else { panic!("the result is an object") };
    let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("attempted"), Some(&Json::Num(7.0)));
    for m in &END_TO_END {
        let reading = line.get("metrics").and_then(|metrics| metrics.get(m.name)).unwrap();
        assert_eq!(reading.get("value"), Some(&Json::Num(1.25)));
        assert_eq!(reading.get("unit").and_then(Json::as_str), Some(m.unit));
    }
}

#[test]
fn benchmark_json_says_what_the_code_does() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| file.get(key).and_then(Json::as_array).unwrap().to_vec();
    let text = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
    let word = |better| if better == Better::Lower { "lower" } else { "higher" };

    let paths: Vec<String> = list("paths").iter().map(|p| p.as_str().unwrap().into()).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<String> = list("command").iter().map(|w| w.as_str().unwrap().into()).collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);

    let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, NAMES);

    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit);
        assert_eq!(text(entry, "better"), word(metric.better));
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(metric.bound));
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, &(name, unit, better)) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), unit);
        assert_eq!(text(entry, "better"), word(better));
    }
}

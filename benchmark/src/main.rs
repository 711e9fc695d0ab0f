//! The repo's benchmark: four fleet workloads measured end to end with
//! tracing off, and a traced run that splits each by layer from outside the
//! product. See `benchmark/README.md`.
//!
//! ```text
//! sol-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! sol-benchmark --all [--runs <n>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <file>]
//! sol-benchmark --compare <A.json> <B.json>
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod compare;
mod fingerprint;
mod host;
mod json;
mod layers;
mod metrics;
mod recipes;
mod run;
mod stats;
mod tare;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use host::Host;
use json::Json;

/// Where the span files and `--all`'s result file go.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// The line a run prints its full record on, for `--all` to collect.
const RECORD_PREFIX: &str = "record: ";

const USAGE: &str = "usage:
  sol-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
      one workload in this process: end-to-end metrics with --trace 0, per-layer
      metrics with --trace 1. Workloads: fleet-steady, three-agents, many-agents,
      fleet-control. The last line printed is the result as one JSON object.
  sol-benchmark --all [--runs <n>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <file>]
      every workload, each in a child process of its own (so peak memory is per
      workload), <n> times over with seeds <seed>, <seed>+1, ...; writes every
      record to <file> (default benchmark/out/results.json).
  sol-benchmark --compare <A.json> <B.json>
      holds B's end-to-end metrics against A's, each under its own bound; with
      several runs a side, their spread decides what can be claimed.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
    runs: u64,
    compare: Option<(String, String)>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        all: false,
        runs: 1,
        compare: None,
        out: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--all" => args.all = true,
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--out" => args.out = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One workload in this process. Prints every metric, then the record line,
/// then — last — the contract line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let record = if args.trace {
        let (record, spans) = run::traced(name, args.seed, args.seconds)?;
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{name}.json"));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        std::fs::write(&path, spans.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        record
    } else {
        run::end_to_end(name, args.seed, args.seconds)?
    };
    let host = Host::probe();
    record.print(&host);
    println!("{RECORD_PREFIX}{}", record.to_json(&host).render());
    println!("{}", record.contract_line());
    Ok(record.failed == 0)
}

/// Every workload, each in a child process, records collected into one file.
/// Several runs go round the workloads in turn, so each workload's runs are
/// spread over the whole session and see the same weather.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut records = Vec::new();
    let mut correct = true;
    let seeds = (0..args.runs).map(|run| args.seed.wrapping_add(run));
    for (seed, name) in seeds.flat_map(|seed| workloads::NAMES.map(|name| (seed, name))) {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        // Everything but the two machine-readable lines at the end.
        for line in stdout.lines().filter(|l| !l.starts_with(RECORD_PREFIX) && !l.starts_with('{'))
        {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        println!();
        correct &= output.status.success();
        match stdout.lines().find_map(|line| line.strip_prefix(RECORD_PREFIX)) {
            Some(record) => records.push(Json::parse(record)?),
            None => eprintln!("{name}: no result"),
        }
    }
    let path = args.out.clone().unwrap_or_else(|| format!("{OUT_DIR}/results.json"));
    if let Some(parent) = PathBuf::from(&path).parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let document = Json::object([("records", Json::Arr(records))]);
    std::fs::write(&path, document.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("records written to {path}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) if args.compare.is_some() || args.all || args.workload.is_some() => args,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::compare(a, b).map(|regressed| !regressed)
    } else if args.all {
        run_all(&args)
    } else {
        run_one(args.workload.as_deref().expect("checked above"), &args)
    };
    // A failed check still prints its result (`correct: false`) and then
    // exits non-zero; a run that produced nothing prints only the reason.
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

//! One run of one workload in a fresh process, printed as one JSON line
//! on standard output. `run.py` starts this binary once per iteration
//! so that no run's set-up is served from an earlier run's process
//! state (the checkpoint and warm-image registries, lazy allocations).
//!
//! ```text
//! perfbench run <coverage|timing|stream> --seed N --threads N [--spans FILE]
//! perfbench probe
//! ```
//!
//! With `--spans`, the run is traced: call times are sampled, per-layer
//! metrics are printed under `layers`, and the spans kept in memory are
//! written to FILE as JSON lines when the run ends.

use std::io::Write;
use std::process::ExitCode;

use perfbench::{probe, run, Workload};
use serde::Value;

fn usage() -> ExitCode {
    eprintln!("usage: perfbench run <coverage|timing|stream> --seed N --threads N [--spans FILE]");
    eprintln!("       perfbench probe");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("probe") => {
            println!("{{\"probe_s\":{}}}", probe::run().as_secs_f64());
            ExitCode::SUCCESS
        }
        Some("run") => run_command(&args[1..]),
        _ => usage(),
    }
}

fn run_command(args: &[String]) -> ExitCode {
    let Some(workload) = args.first().and_then(|w| Workload::parse(w)) else { return usage() };
    let mut seed = None;
    let mut threads = None;
    let mut spans = None;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next();
        match (flag.as_str(), value) {
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--threads", Some(v)) => threads = v.parse::<usize>().ok().filter(|&t| t > 0),
            ("--spans", Some(v)) => spans = Some(v.clone()),
            _ => return usage(),
        }
    }
    let (Some(seed), Some(threads)) = (seed, threads) else { return usage() };
    let out = run(workload, seed, threads, spans.is_some());
    if let Some(path) = spans {
        let text: String = out.spans.iter().map(|span| span.to_json_line() + "\n").collect();
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let line = Value::Map(vec![
        ("wall_s".into(), Value::F64(out.wall.as_secs_f64())),
        ("setup_s".into(), Value::F64(out.setup.as_secs_f64())),
        ("accesses".into(), Value::U64(out.accesses)),
        ("ops".into(), Value::U64(out.ops)),
        ("failures".into(), Value::Seq(out.failures.into_iter().map(Value::Str).collect())),
        (
            "reports".into(),
            Value::Map(out.reports.into_iter().map(|(k, v)| (k, Value::Str(v))).collect()),
        ),
        (
            "layers".into(),
            Value::Map(out.layers.into_iter().map(|(k, v)| (k, Value::F64(v))).collect()),
        ),
    ]);
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{}", ltc_sim::serde_json::to_string(&line))
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

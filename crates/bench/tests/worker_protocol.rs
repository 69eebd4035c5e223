//! End-to-end checks of the `ltsim worker` protocol and of three-way
//! backend parity (threads vs sharded vs subprocess), using the real
//! built binary via `CARGO_BIN_EXE_ltsim`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use ltc_bench::harness;
use ltc_bench::Scale;
use ltc_sim::engine::{BackendKind, EngineOptions, ResultSet, RunResult, RunSpec, Scheduler};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::serde_json;

fn worker_command() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_ltsim").to_string(), "worker".to_string()]
}

/// `ltsim worker` round-trips `RunSpec` JSON lines from stdin to
/// `RunResult` JSON lines on stdout — one answer per request, matching
/// in-process execution exactly — and exits cleanly when stdin closes.
#[test]
fn worker_round_trips_spec_lines() {
    let specs = [
        RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 1),
        RunSpec::timing("mesa", PredictorKind::LtCords, 3_000, 2),
        RunSpec::dead_time("swim", 4_000, 1),
        RunSpec::stream("mcf", 64 << 10, 4_000, 1),
        // A segment child: the partial sketch summaries travel back over
        // the protocol as a `stream-partial` result line.
        RunSpec::stream_segment("mcf", 64 << 10, 4, 1, 4_000, 1),
    ];
    let cmd = worker_command();
    let mut child = Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ltsim worker");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    for spec in &specs {
        writeln!(stdin, "{}", spec.key()).unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "worker must answer every spec");
        let result: RunResult = serde_json::from_str(line.trim()).expect("RunResult JSON line");
        assert_eq!(result, spec.execute(), "worker diverged on {}", spec.key());
    }

    drop(stdin);
    let status = child.wait().unwrap();
    assert!(status.success(), "worker must exit cleanly at EOF, got {status}");
}

/// A malformed spec line is a protocol error: the worker reports it on
/// stderr and exits non-zero instead of guessing.
#[test]
fn worker_rejects_garbage_lines() {
    let cmd = worker_command();
    let mut child = Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ltsim worker");
    child.stdin.take().unwrap().write_all(b"this is not a spec\n").unwrap();
    let status = child.wait().unwrap();
    assert!(!status.success(), "garbage must not be answered");
}

/// A spec from a different model version is refused, not simulated: a
/// worker built from other model code answering under the new version's
/// cache key would be exactly the stale-model aliasing `model_version`
/// exists to prevent.
#[test]
fn worker_rejects_model_version_mismatch() {
    let mut spec = RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 1);
    spec.model_version += 1;
    let cmd = worker_command();
    let mut child = Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ltsim worker");
    writeln!(child.stdin.take().unwrap(), "{}", spec.key()).unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(!output.status.success(), "mismatched model_version must not be answered");
    assert!(output.stdout.is_empty(), "no result line may be emitted");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("model_version"), "diagnostic should name the field: {stderr}");
}

/// The same plan through all three backends yields identical `ResultSet`s
/// and, therefore, byte-identical rendered tables.
#[test]
fn all_three_backends_render_identical_tables() {
    let scale = Scale { coverage_accesses: 20_000, timing_accesses: 10_000 };
    let figures = [harness::by_name("fig08").unwrap(), harness::by_name("table2").unwrap()];
    let backends = [
        BackendKind::Threads,
        BackendKind::Sharded,
        BackendKind::Subprocess { command: worker_command() },
    ];

    let mut rendered: Vec<Vec<String>> = Vec::new();
    let mut simulated = Vec::new();
    for backend in backends {
        let opts = EngineOptions::in_memory(3).with_backend(backend);
        let mut results = ResultSet::new();
        harness::collect(&figures, scale, &opts, &mut results).expect("backend execution");
        simulated.push(results.simulated());
        rendered.push(figures.iter().map(|def| (def.render)(scale, &results)).collect());
    }
    assert_eq!(simulated[0], simulated[1]);
    assert_eq!(simulated[1], simulated[2]);
    assert_eq!(rendered[0], rendered[1], "threads vs sharded tables differ");
    assert_eq!(rendered[1], rendered[2], "sharded vs subprocess tables differ");
}

/// Segmented streaming across all three backends: the per-segment
/// partial summaries — serialized sketch state — round-trip over the
/// worker protocol, and the merged reports are byte-for-byte identical
/// canonical JSON whichever backend ran the segments (completing the
/// parity matrix started in `crates/sim/tests/backends.rs`).
#[test]
fn segmented_stream_reports_identical_across_all_backends() {
    let specs = [
        RunSpec::stream_segmented("mcf", 64 << 10, 4, 8_000, 1),
        RunSpec::stream_segmented("swim", 64 << 10, 3, 8_000, 1),
    ];
    let backends = [
        BackendKind::Threads,
        BackendKind::Sharded,
        BackendKind::Subprocess { command: worker_command() },
    ];
    let mut rendered: Vec<Vec<String>> = Vec::new();
    for backend in backends {
        let mut sched = Scheduler::new();
        sched.request_all(specs.iter().cloned());
        let results = sched.execute(&EngineOptions::in_memory(3).with_backend(backend)).unwrap();
        assert_eq!(results.simulated(), 7, "4 + 3 segment children, parents reduced");
        rendered.push(
            specs
                .iter()
                .map(|spec| serde_json::to_string(results.get(spec).expect("merged report")))
                .collect(),
        );
    }
    assert_eq!(rendered[0], rendered[1], "threads vs sharded merged reports differ");
    assert_eq!(rendered[1], rendered[2], "sharded vs subprocess merged reports differ");
}

/// Shape checking survives the worker protocol: partial summaries that
/// crossed the subprocess boundary still carry their construction shape,
/// so merging two workers' partials from differently-configured runs is
/// the same typed `MergeError` it would be in process — not a panic, not
/// silent corruption.
#[test]
fn worker_partials_keep_their_shape_across_the_protocol() {
    let small = RunSpec::stream_segment("mcf", 64 << 10, 2, 0, 4_000, 1);
    let large = RunSpec::stream_segment("mcf", 128 << 10, 2, 1, 4_000, 1);
    let opts = EngineOptions::in_memory(2)
        .with_backend(BackendKind::Subprocess { command: worker_command() });
    let mut sched = Scheduler::new();
    sched.request(small.clone());
    sched.request(large.clone());
    let results = sched.execute(&opts).unwrap();
    let a = results.stream_partial(&small).clone();
    let b = results.stream_partial(&large).clone();
    let err = ltc_sim::analysis::merge_partials(&[a, b]).unwrap_err();
    assert!(
        matches!(err, ltc_sim::stream::MergeError::Shape { .. }),
        "expected a typed shape error, got {err}"
    );
    assert!(err.to_string().contains("cannot merge"), "{err}");
}

/// The subprocess transport honours the scheduler contract end to end:
/// dedup before dispatch, results keyed back to the right specs.
#[test]
fn subprocess_backend_dedupes_and_keys_results() {
    let mut sched = Scheduler::new();
    let shared = RunSpec::coverage("gzip", PredictorKind::Baseline, 4_000, 1);
    sched.request(shared.clone());
    sched.request(RunSpec::coverage("art", PredictorKind::Baseline, 4_000, 1));
    sched.request(shared.clone());
    let opts = EngineOptions::in_memory(2)
        .with_backend(BackendKind::Subprocess { command: worker_command() });
    let results = sched.execute(&opts).unwrap();
    assert_eq!(results.simulated(), 2, "duplicates must collapse before dispatch");
    assert!(results.coverage(&shared).base_l1_misses > 0);
}

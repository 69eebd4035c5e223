//! The repository benchmark: three workloads over the public entry
//! points of the LT-cords workspace, with output checks and the
//! per-layer accounting of the traced run.
//!
//! * `coverage` runs `ltc_analysis::run_coverage` for LT-cords and DBCP
//!   on one thread, configured like `ltc_sim::experiment::run_coverage`.
//! * `timing` runs `ltc_timing::TimingSim::run` for four machine and
//!   predictor configurations on one thread, configured like
//!   `ltc_sim::experiment::run_timing`.
//! * `stream` runs segmented streaming specs through
//!   `Scheduler::execute` on the in-process pool, after
//!   `engine::checkpoints::prepare_segments`.
//!
//! The trace and predictor layers are timed from outside through the
//! pass-through [`adaptors`]; the stream workload's engine layers are
//! read from the telemetry the engine already emits ([`recorder`]).

pub mod adaptors;
pub mod probe;
pub mod recorder;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltc_sim::analysis::{CoverageConfig, CoverageReport, StreamReport};
use ltc_sim::engine::{checkpoints, segmented, EngineOptions, Mode, RunResult, RunSpec, Scheduler};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::predictors::Prefetcher;
use ltc_sim::timing::{TimingReport, TimingSim};
use ltc_sim::trace::{suite, BoxedSource, TraceSegment, TraceSource};

use crate::adaptors::{TimedPrefetcher, TimedSource};
use crate::recorder::{Recorder, SpanRecord};

/// Accesses per coverage spec (a quarter of them warm-up).
pub const COVERAGE_ACCESSES: u64 = 160_000;
/// Accesses per timing spec (a quarter of them warm-up).
pub const TIMING_ACCESSES: u64 = 120_000;
/// Accesses per segmented streaming spec.
pub const STREAM_ACCESSES: u64 = 640_000;
/// Segments each streaming spec splits into.
pub const STREAM_SEGMENTS: u32 = 4;
/// One call in this many is timed in the traced run. A prime, so the
/// sample does not lock onto a power-of-two period in a generator.
pub const SAMPLE_EVERY: u64 = 61;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LT-cords and DBCP coverage runs: the predictor layer.
    Coverage,
    /// Timing-model runs: the trace, hierarchy and timing layers.
    Timing,
    /// Segmented streaming on the engine: sketch, checkpoint and engine
    /// layers.
    Stream,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "coverage" => Some(Workload::Coverage),
            "timing" => Some(Workload::Timing),
            "stream" => Some(Workload::Stream),
            _ => None,
        }
    }

    /// The specs this workload runs at benchmark seed `seed`. The seed
    /// picks each benchmark's trace seed; every predictor or budget of a
    /// benchmark shares its trace.
    pub fn specs(self, seed: u64) -> Vec<RunSpec> {
        let trace_seed = |i: u64| mix(seed, i);
        match self {
            Workload::Coverage => ["mcf", "gcc", "twolf", "treeadd"]
                .iter()
                .zip(0..)
                .flat_map(|(b, i)| {
                    [PredictorKind::LtCords, PredictorKind::Dbcp2Mb]
                        .map(|kind| RunSpec::coverage(b, kind, COVERAGE_ACCESSES, trace_seed(i)))
                })
                .collect(),
            Workload::Timing => ["swim", "mcf", "gcc", "treeadd"]
                .iter()
                .zip(0..)
                .flat_map(|(b, i)| {
                    [
                        PredictorKind::Baseline,
                        PredictorKind::BigL2,
                        PredictorKind::PerfectL1,
                        PredictorKind::Stride,
                    ]
                    .map(|kind| RunSpec::timing(b, kind, TIMING_ACCESSES, trace_seed(i)))
                })
                .collect(),
            Workload::Stream => ["mcf", "swim"]
                .iter()
                .zip(0..)
                .flat_map(|(b, i)| {
                    [64 << 10, 1 << 20].map(|budget| {
                        RunSpec::stream_segmented(
                            b,
                            budget,
                            STREAM_SEGMENTS,
                            STREAM_ACCESSES,
                            trace_seed(i),
                        )
                    })
                })
                .collect(),
        }
    }
}

/// A small trace seed derived from the benchmark seed and a spec index
/// (SplitMix64 finalizer).
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000 + 1
}

/// What one coverage or timing spec did, seen through the adaptors.
#[derive(Debug, Clone)]
pub struct SpecRun<R> {
    /// The report, exactly as `experiment::run_coverage`/`run_timing`
    /// would return it.
    pub report: R,
    /// Wall time of the whole spec: construction, warm-up and measure.
    pub elapsed: Duration,
    /// Time until the first access after the warm-up window was
    /// requested (construction plus warm-up).
    pub setup: Duration,
    /// Accesses requested from the source.
    pub accesses: u64,
    /// Estimated seconds inside `next_access` (traced runs only).
    pub trace_s: f64,
    /// Estimated seconds inside the predictor's `on_access` and
    /// `on_prefetch_applied` (traced runs only).
    pub predictor_s: f64,
    /// Predictor calls: `on_access` plus `on_prefetch_applied`.
    pub predictor_calls: u64,
    /// Prefetch requests the predictor pushed.
    pub predictor_requests: u64,
    /// Prefetches the simulator applied.
    pub predictor_applied: u64,
    /// The predictor's resident memory at the end of the run.
    pub predictor_memory: u64,
}

fn build_source(spec: &RunSpec) -> BoxedSource {
    suite::by_name(&spec.benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {}", spec.benchmark))
        .build(spec.seed)
}

/// Drives `run` through the adaptors and packs what they saw. With
/// `traced`, one call in [`SAMPLE_EVERY`] into each layer is timed.
fn through_adaptors<R>(
    spec: &RunSpec,
    traced: bool,
    run: impl FnOnce(
        &mut TimedSource<BoxedSource>,
        &mut TimedPrefetcher<dyn Prefetcher + Send>,
        u64,
    ) -> R,
) -> SpecRun<R> {
    let sample_every = if traced { SAMPLE_EVERY } else { 0 };
    let start = Instant::now();
    let warmup = spec.accesses / 4;
    let mut source = TimedSource::new(build_source(spec), warmup, sample_every);
    let mut predictor = TimedPrefetcher::new(spec.predictor.build(), sample_every);
    let report = run(&mut source, &mut predictor, warmup);
    let end = Instant::now();
    SpecRun {
        report,
        elapsed: end - start,
        setup: source.stamp().unwrap_or(end) - start,
        accesses: source.calls(),
        trace_s: source.sampler().estimate_s(),
        predictor_s: predictor.sampler().estimate_s(),
        predictor_calls: predictor.calls(),
        predictor_requests: predictor.requests(),
        predictor_applied: predictor.applied(),
        predictor_memory: predictor.memory_bytes(),
    }
}

/// Runs a coverage spec through the adaptors, configured exactly like
/// `ltc_sim::experiment::run_coverage`.
pub fn run_coverage(spec: &RunSpec, traced: bool) -> SpecRun<CoverageReport> {
    through_adaptors(spec, traced, |source, predictor, warmup| {
        let cfg = CoverageConfig::paper(spec.accesses).with_warmup(warmup);
        let mut report = ltc_sim::analysis::run_coverage(source, predictor, cfg);
        report.predictor = spec.predictor.name().to_string();
        report
    })
}

/// Runs a timing spec through the adaptors, configured exactly like
/// `ltc_sim::experiment::run_timing`.
pub fn run_timing(spec: &RunSpec, traced: bool) -> SpecRun<TimingReport> {
    through_adaptors(spec, traced, |source, predictor, warmup| {
        let cfg = spec.predictor.timing_config().with_warmup(warmup);
        let mut report = TimingSim::new(cfg).run(source, predictor, spec.accesses);
        report.predictor = spec.predictor.name().to_string();
        report
    })
}

/// The output checks that hold at every seed for a coverage report.
pub fn check_coverage(spec: &RunSpec, run: &SpecRun<CoverageReport>) -> Result<(), String> {
    let r = &run.report;
    let measured = spec.accesses - spec.accesses / 4;
    if run.accesses != spec.accesses {
        return Err(format!("stepped {} of {} accesses", run.accesses, spec.accesses));
    }
    if r.accesses != measured {
        return Err(format!("measured {} accesses, expected {measured}", r.accesses));
    }
    if r.correct + r.incorrect > r.base_l1_misses
        || r.correct + r.incorrect + r.train() != r.base_l1_misses
    {
        return Err(format!(
            "correct {} + incorrect {} + train {} != base misses {}",
            r.correct,
            r.incorrect,
            r.train(),
            r.base_l1_misses
        ));
    }
    Ok(())
}

/// The output checks that hold at every seed for a timing report.
pub fn check_timing(spec: &RunSpec, run: &SpecRun<TimingReport>) -> Result<(), String> {
    let r = &run.report;
    let measured = spec.accesses - spec.accesses / 4;
    if run.accesses != spec.accesses {
        return Err(format!("stepped {} of {} accesses", run.accesses, spec.accesses));
    }
    if r.accesses != measured {
        return Err(format!("measured {} accesses, expected {measured}", r.accesses));
    }
    if r.instructions < r.accesses || !(r.cycles.is_finite() && r.cycles >= 1.0) {
        return Err(format!("{} instructions in {} cycles", r.instructions, r.cycles));
    }
    Ok(())
}

/// The output checks that hold at every seed for a streaming report.
pub fn check_stream(spec: &RunSpec, r: &StreamReport) -> Result<(), String> {
    if r.accesses != spec.accesses {
        return Err(format!("replayed {} of {} accesses", r.accesses, spec.accesses));
    }
    if r.misses > r.accesses || r.memory_bytes > r.budget_bytes {
        return Err(format!(
            "{} misses in {} accesses, {} of {} budget bytes",
            r.misses, r.accesses, r.memory_bytes, r.budget_bytes
        ));
    }
    Ok(())
}

/// One run of a workload in this process.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of the run, set-up included.
    pub wall: Duration,
    /// Set-up time (see the benchmark's README for each workload's).
    pub setup: Duration,
    /// Simulated accesses stepped, warm-up included.
    pub accesses: u64,
    /// Operations attempted: specs, plus stream segments.
    pub ops: u64,
    /// Failed operations, one message each.
    pub failures: Vec<String>,
    /// Canonical JSON of every report, by spec label.
    pub reports: BTreeMap<String, String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Spans kept in memory for the traced run's span file.
    pub spans: Vec<SpanRecord>,
}

/// Runs `workload` once. With `traced`, the adaptors sample call times,
/// the engine's telemetry is recorded, and [`Outcome::layers`] is
/// filled in.
pub fn run(workload: Workload, seed: u64, threads: usize, traced: bool) -> Outcome {
    let specs = workload.specs(seed);
    match workload {
        Workload::Coverage | Workload::Timing => run_serial(workload, &specs, traced),
        Workload::Stream => run_stream(&specs, threads, traced),
    }
}

/// Per-layer totals of the serial workloads.
#[derive(Default)]
struct Serial {
    elapsed: Duration,
    trace_s: f64,
    predictor_s: f64,
    by_predictor: BTreeMap<&'static str, f64>,
    calls: u64,
    requests: u64,
    applied: u64,
    memory: u64,
    correct: u64,
    l1_misses: u64,
    l2_misses: u64,
    cycles: f64,
    instructions: u64,
}

impl Serial {
    fn add<R>(&mut self, spec: &RunSpec, run: &SpecRun<R>) {
        self.elapsed += run.elapsed;
        self.trace_s += run.trace_s;
        self.predictor_s += run.predictor_s;
        *self.by_predictor.entry(spec.predictor.name()).or_default() += run.predictor_s;
        self.calls += run.predictor_calls;
        self.requests += run.predictor_requests;
        self.applied += run.predictor_applied;
        self.memory = self.memory.max(run.predictor_memory);
    }

    fn into_layers(
        self,
        workload: Workload,
        wall: Duration,
        accesses: u64,
    ) -> BTreeMap<String, f64> {
        let body = match workload {
            Workload::Coverage => "coverage.loop_self_s",
            _ => "timing.self_s",
        };
        let elapsed = self.elapsed.as_secs_f64();
        let useful =
            if self.requests == 0 { 0.0 } else { self.correct as f64 / self.requests as f64 };
        let mut l: BTreeMap<String, f64> = [
            ("trace.self_s", self.trace_s),
            ("trace.accesses", accesses as f64),
            ("predictor.self_s", self.predictor_s),
            (body, elapsed - self.trace_s - self.predictor_s),
            ("other.self_s", wall.as_secs_f64() - elapsed),
            ("predictor.calls", self.calls as f64),
            ("predictor.requests", self.requests as f64),
            ("predictor.applied", self.applied as f64),
            ("predictor.useful_ratio", useful),
            ("predictor.memory_bytes", self.memory as f64),
            ("cache.base_l1_misses", self.l1_misses as f64),
            ("cache.base_l2_misses", self.l2_misses as f64),
            ("timing.cycles", self.cycles),
            ("timing.instructions", self.instructions as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for name in ["lt-cords", "dbcp"] {
            let t = self.by_predictor.get(name).copied().unwrap_or(0.0);
            l.insert(format!("predictor.{name}.self_s"), t);
        }
        l
    }
}

/// What the serial loop keeps of one finished spec.
struct Done {
    setup: Duration,
    accesses: u64,
    report: String,
    checked: Result<(), String>,
}

impl Done {
    fn new<R: serde::Serialize>(run: &SpecRun<R>, checked: Result<(), String>) -> Self {
        Done {
            setup: run.setup,
            accesses: run.accesses,
            report: serde_json_string(&run.report),
            checked,
        }
    }
}

fn run_serial(workload: Workload, specs: &[RunSpec], traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Serial::default();
    let start = Instant::now();
    for spec in specs {
        out.ops += 1;
        let label = spec.label();
        let spec_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| match workload {
            Workload::Coverage => {
                let run = run_coverage(spec, traced);
                layers.add(spec, &run);
                layers.correct += run.report.correct;
                layers.l1_misses += run.report.base_l1_misses;
                layers.l2_misses += run.report.base_l2_misses;
                Done::new(&run, check_coverage(spec, &run))
            }
            _ => {
                let run = run_timing(spec, traced);
                layers.add(spec, &run);
                layers.l1_misses += run.report.l1_misses;
                layers.l2_misses += run.report.l2_misses;
                layers.cycles += run.report.cycles;
                layers.instructions += run.report.instructions;
                Done::new(&run, check_timing(spec, &run))
            }
        }));
        if traced {
            out.spans.push(SpanRecord::timed(
                "spec",
                &label,
                "run",
                start,
                spec_start,
                Instant::now(),
            ));
        }
        match result {
            Ok(done) => {
                out.setup += done.setup;
                out.accesses += done.accesses;
                if let Err(e) = done.checked {
                    out.failures.push(format!("{label}: {e}"));
                }
                out.reports.insert(label, done.report);
            }
            Err(panic) => out.failures.push(format!("{label}: panicked: {}", panic_text(&panic))),
        }
    }
    out.wall = start.elapsed();
    if traced {
        out.spans.push(SpanRecord::timed("run", "run", "", start, start, start + out.wall));
        out.layers = layers.into_layers(workload, out.wall, out.accesses);
    }
    out
}

fn run_stream(specs: &[RunSpec], threads: usize, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let recorder = traced.then(|| Arc::new(Recorder::new()));
    let token = recorder.as_ref().map(|r| ltc_telemetry::install(r.clone()));
    let start = Instant::now();
    let prepared = catch_unwind(|| {
        for spec in specs {
            if let Mode::StreamSegmented { segments, warmup, .. } = spec.mode {
                checkpoints::prepare_segments(
                    &spec.benchmark,
                    spec.seed,
                    spec.accesses,
                    segments,
                    warmup,
                );
            }
        }
    });
    out.setup = start.elapsed();
    let mut scheduler = Scheduler::new();
    scheduler.request_all(specs.iter().cloned());
    let opts = EngineOptions::in_memory(threads);
    let executed = match prepared {
        Ok(()) => catch_unwind(AssertUnwindSafe(|| scheduler.execute(&opts)))
            .unwrap_or_else(|panic| Err(std::io::Error::other(panic_text(&panic)))),
        Err(panic) => {
            Err(std::io::Error::other(format!("prepare_segments: {}", panic_text(&panic))))
        }
    };
    out.wall = start.elapsed();
    if let Some(token) = token {
        ltc_telemetry::uninstall(token);
    }
    let (mut segment_accesses, mut misses) = (0, 0);
    for spec in specs {
        let children = segmented::children(spec).expect("stream specs are segmented");
        out.ops += 1 + children.len() as u64;
        out.accesses += spec.accesses;
        let label = spec.label();
        let results = match &executed {
            Ok(results) => results,
            Err(e) => {
                out.failures.push(format!("{label}: {e}"));
                out.failures.extend(children.iter().map(|child| format!("{}: {e}", child.label())));
                continue;
            }
        };
        for (child, segment) in children.iter().zip(0..) {
            match results.get(child) {
                Some(RunResult::StreamPartial(p)) => {
                    segment_accesses += p.accesses;
                    let len = TraceSegment::nth(spec.accesses, STREAM_SEGMENTS, segment).len;
                    if p.accesses != len {
                        out.failures.push(format!(
                            "{}: replayed {} of {len} accesses",
                            child.label(),
                            p.accesses
                        ));
                    }
                }
                _ => out.failures.push(format!("{}: no partial result", child.label())),
            }
        }
        match results.get(spec) {
            Some(RunResult::Stream(report)) => {
                misses += report.misses;
                if let Err(e) = check_stream(spec, report) {
                    out.failures.push(format!("{label}: {e}"));
                }
                out.reports.insert(label, serde_json_string(report));
            }
            _ => out.failures.push(format!("{label}: no merged report")),
        }
    }
    if let Some(recorder) = recorder {
        stream_layers(&mut out, specs, &recorder, threads, start);
        out.layers.insert("trace.accesses".into(), segment_accesses as f64);
        out.layers.insert("cache.base_l1_misses".into(), misses as f64);
    }
    out
}

/// The stream workload's trace-layer time: the engine builds its
/// segment sources internally, where no adaptor can wrap them, so the
/// same generators are timed on a generator-only pass over every spec's
/// accesses, made after the measured run.
fn generator_time(specs: &[RunSpec]) -> Duration {
    let start = Instant::now();
    for spec in specs {
        let mut source = build_source(spec);
        for _ in 0..spec.accesses {
            std::hint::black_box(source.next_access());
        }
    }
    start.elapsed()
}

/// Fills in the stream workload's per-layer metrics from the recorded
/// telemetry. The segments' run time less the trace layer's
/// ([`generator_time`]) is the stream loop's self time.
fn stream_layers(
    out: &mut Outcome,
    specs: &[RunSpec],
    recorder: &Recorder,
    threads: usize,
    start: Instant,
) {
    let trace = generator_time(specs).as_secs_f64();
    let engine = recorder.summary();
    let execute = engine.execute.as_secs_f64();
    let run = engine.run.as_secs_f64();
    let l = &mut out.layers;
    l.insert("trace.self_s".into(), trace);
    l.insert("stream.loop_self_s".into(), run - trace);
    l.insert("engine.checkpoints_s".into(), out.setup.as_secs_f64());
    l.insert("engine.execute_s".into(), execute);
    l.insert("engine.queue_wait_s".into(), engine.queue_wait.as_secs_f64());
    let busy = if execute > 0.0 { run / (threads as f64 * execute) } else { 0.0 };
    l.insert("engine.busy_frac".into(), busy);
    l.insert("engine.specs".into(), engine.specs as f64);
    l.insert("engine.retries".into(), engine.retries as f64);
    for (outcome, n) in &engine.restores {
        l.insert(format!("segment.restore.{outcome}"), *n as f64);
    }
    l.insert("sketch.evictions".into(), engine.evictions as f64);
    l.insert("sketch.memory_bytes".into(), engine.sketch_memory as f64);
    let accounted = out.setup.as_secs_f64() + execute;
    l.insert("other.self_s".into(), out.wall.as_secs_f64() - accounted);
    out.spans.push(SpanRecord::timed("run", "run", "", start, start, start + out.wall));
    out.spans.push(SpanRecord::timed(
        "engine.checkpoints",
        "prepare_segments",
        "run",
        start,
        start,
        start + out.setup,
    ));
    out.spans.extend(recorder.spans());
}

fn serde_json_string<T: serde::Serialize>(value: &T) -> String {
    ltc_sim::serde_json::to_string(value)
}

fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

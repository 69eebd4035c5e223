//! Hot-path microbenchmarks and the `BENCH_<date>.json` perf trajectory.
//!
//! `ltsim bench` times the simulator's three measured hot paths — raw
//! trace decode, the coverage kernel, and the stream/sketch path — in
//! accesses per second, and serializes the
//! measurements as a machine-readable [`BenchReport`]. Committing one
//! report per optimization PR (`bench/BENCH_<date>.json`) gives the repo
//! a perf *trajectory*; nightly CI re-runs the kernels and
//! [`compare`]s against the committed baseline, failing on regressions
//! beyond a tolerance.
//!
//! Timing is deliberately simple and dependency-free: each kernel runs
//! once to warm caches, then `rounds` measured repetitions, keeping the
//! **best** wall time (minimum is the standard noise-robust statistic
//! for throughput benches). Absolute numbers are machine-dependent —
//! the committed baseline describes the CI machine class, and local
//! comparisons are only meaningful against local baselines.

use std::time::{Duration, Instant, SystemTime};

use ltc_sim::analysis::{
    run_coverage, CoverageConfig, StreamAnalysis, StreamConfig, SEGMENT_WARMUP,
};
use ltc_sim::cache::{Hierarchy, HierarchyConfig};
use ltc_sim::engine::checkpoints::{record_targets, record_warm_images};
use ltc_sim::engine::MODEL_VERSION;
use ltc_sim::experiment::PredictorKind;
use ltc_sim::trace::{io, suite, Replay, TraceSegment, TraceSource};
use ltc_telemetry::JsonLinesWriter;
use serde::{Deserialize, Serialize};

/// Schema version of the serialized [`BenchReport`].
pub const BENCH_SCHEMA: u64 = 1;

/// Default access budget for a full bench run.
pub const FULL_ACCESSES: u64 = 1_000_000;

/// Access budget under `--quick` (CI smoke scale).
pub const QUICK_ACCESSES: u64 = 200_000;

/// Default regression tolerance for [`compare`], in percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

/// What to measure.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Accesses each kernel processes per repetition.
    pub accesses: u64,
    /// Suite benchmark supplying the trace.
    pub benchmark: String,
    /// Trace generator seed.
    pub seed: u64,
    /// Measured repetitions per kernel (best is kept).
    pub rounds: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions { accesses: FULL_ACCESSES, benchmark: "gcc".to_string(), seed: 1, rounds: 3 }
    }
}

impl BenchOptions {
    /// The reduced-scale options used by nightly CI.
    pub fn quick() -> Self {
        BenchOptions { accesses: QUICK_ACCESSES, ..BenchOptions::default() }
    }
}

/// One kernel's measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchResult {
    /// Stable kernel name (the key [`compare`] matches on).
    pub name: String,
    /// Items (accesses or records) processed per repetition.
    pub items: u64,
    /// Best wall time over the measured repetitions, nanoseconds.
    pub nanos: u64,
    /// Throughput: `items / (nanos / 1e9)`.
    pub per_sec: f64,
}

impl BenchResult {
    fn new(name: &str, items: u64, best: Duration) -> Self {
        let nanos = (best.as_nanos() as u64).max(1);
        BenchResult {
            name: name.to_string(),
            items,
            nanos,
            per_sec: items as f64 * 1e9 / nanos as f64,
        }
    }
}

/// Telemetry cost of the coverage kernel: the same closure timed with
/// a JSON-lines subscriber installed (writing to a sink) versus the
/// uninstrumented `coverage_baseline` measurement. Simulation code only
/// emits per *run*, never per access, so the delta documents that the
/// event log is effectively free — nightly CI holds it under 2%.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryOverhead {
    /// Events the instrumented repetitions wrote (one `coverage.run`
    /// point each).
    pub events: u64,
    /// JSON-lines bytes those events serialized to.
    pub bytes: u64,
    /// Best-of-rounds throughput with telemetry off, from off/on
    /// repetitions interleaved in the same measurement window.
    pub off_per_sec: f64,
    /// Throughput with the JSON-lines subscriber installed.
    pub instrumented_per_sec: f64,
    /// Relative slowdown in percent (positive = telemetry cost).
    pub overhead_pct: f64,
}

/// A full bench run: the perf-trajectory file format.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchReport {
    /// Serialization schema version ([`BENCH_SCHEMA`]).
    pub schema: u64,
    /// Simulation model version the kernels were built from.
    pub model_version: u64,
    /// Suite benchmark supplying the trace.
    pub benchmark: String,
    /// Accesses per kernel repetition.
    pub accesses: u64,
    /// Trace generator seed.
    pub seed: u64,
    /// Per-kernel measurements.
    pub results: Vec<BenchResult>,
    /// Telemetry cost of the coverage kernel. `None` in reports written
    /// before the event log existed.
    pub telemetry: Option<TelemetryOverhead>,
}

// Hand-written (not derived) because the shim's derive errors on absent
// keys: baselines committed before `telemetry` existed must still parse.
impl<'de> Deserialize<'de> for BenchReport {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(BenchReport {
            schema: serde::field(value, "schema", "BenchReport")?,
            model_version: serde::field(value, "model_version", "BenchReport")?,
            benchmark: serde::field(value, "benchmark", "BenchReport")?,
            accesses: serde::field(value, "accesses", "BenchReport")?,
            seed: serde::field(value, "seed", "BenchReport")?,
            results: serde::field(value, "results", "BenchReport")?,
            telemetry: match value.get("telemetry") {
                None => None,
                Some(v) => Option::<TelemetryOverhead>::from_value(v)
                    .map_err(|e| serde::DeError(format!("BenchReport.telemetry: {e}")))?,
            },
        })
    }
}

impl BenchReport {
    /// Looks up a kernel's measurement by name.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Canonical single-line JSON (the on-disk form).
    pub fn to_json(&self) -> String {
        ltc_sim::serde_json::to_string(self)
    }

    /// Parses a serialized report.
    ///
    /// # Errors
    ///
    /// Returns a message when the JSON does not parse or the schema is
    /// unknown.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: BenchReport =
            ltc_sim::serde_json::from_str(text.trim()).map_err(|e| e.to_string())?;
        if report.schema != BENCH_SCHEMA {
            return Err(format!("unsupported BENCH schema {}", report.schema));
        }
        Ok(report)
    }
}

/// Times `work` (which must return the items it processed): one warm-up
/// repetition, then `rounds` measured ones, keeping the best.
fn time_kernel(rounds: usize, mut work: impl FnMut() -> u64) -> (u64, Duration) {
    let mut items = std::hint::black_box(work());
    let mut best = Duration::MAX;
    for _ in 0..rounds.max(1) {
        let start = Instant::now();
        items = std::hint::black_box(work());
        best = best.min(start.elapsed());
    }
    (items, best)
}

/// Runs every kernel and assembles the report.
///
/// Kernels (stable names — [`compare`] matches on them):
///
/// * `decode` — deserialize the binary trace format ([`io::read_trace`]).
/// * `coverage_baseline` — the coverage kernel with the passive baseline
///   predictor.
/// * `coverage_dbcp` — the coverage kernel with the unlimited DBCP
///   predictor (trains and prefetches).
/// * `stream_sketch` — the one-pass stream/sketch analysis (64 KiB
///   budget).
/// * `decode_kernel` — decode **plus** baseline coverage end to end, the
///   headline single-thread throughput number the ≥2× acceptance
///   criterion tracks.
/// * `segment_skip` — worker setup for a 16-segment run the
///   pre-checkpoint way: one fresh source skipped to each slice start
///   (O(start) each, quadratic in total).
/// * `segment_seek` — the same 16 placements via one checkpoint
///   recording pass plus per-worker restores. All `segment_*` kernels
///   report `items = accesses`, so the `segment_seek` / `segment_skip`
///   `per_sec` ratio **is** the setup-time reduction — the ≥5× bar
///   nightly CI enforces.
/// * `segment_seek_x1` / `segment_seek_x4` / `segment_seek_x64` — the
///   seek path at 1/4/64 segments, charting how recording cost scales
///   with fan-out.
/// * `segment_replay` — worker setup including the cache warm-up, paid
///   the pre-image way: checkpoint-seek to `start − warmup`, then
///   re-simulate the warm-up window into a fresh hierarchy. Checkpoint
///   recording happens outside the timed region (it is a one-time,
///   disk-cached cost), so the timing is steady-state worker setup.
/// * `segment_warm` — the same 16 placements restoring pre-recorded
///   warm hierarchy images instead: checkpoint-seek straight to
///   `start`, then `Hierarchy::from_image`. The `segment_warm` /
///   `segment_replay` ratio is the warm-up elimination; nightly CI
///   also asserts `segment_warm` ≥ 2× `segment_seek`.
///
/// # Panics
///
/// Panics if `opts.benchmark` is not in the suite.
pub fn run_all(opts: &BenchOptions) -> BenchReport {
    let entry = suite::by_name(&opts.benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {}", opts.benchmark));
    let mut encoded = Vec::new();
    let written =
        io::write_trace(&mut entry.build(opts.seed), &mut encoded, opts.accesses).unwrap();
    let accesses = entry.build(opts.seed).collect_accesses(written as usize);
    let rounds = opts.rounds;
    let mut results = Vec::new();

    let (items, best) = time_kernel(rounds, || {
        let replay = io::read_trace(encoded.as_slice()).expect("bench trace decodes");
        replay.len() as u64
    });
    results.push(BenchResult::new("decode", items, best));

    let coverage_cfg = CoverageConfig::paper(u64::MAX);
    let (items, best) = time_kernel(rounds, || {
        let mut replay = Replay::once(accesses.clone());
        let mut predictor = PredictorKind::Baseline.build();
        let report = run_coverage(&mut replay, predictor.as_mut(), coverage_cfg);
        report.accesses
    });
    results.push(BenchResult::new("coverage_baseline", items, best));

    // Telemetry overhead: the identical baseline-coverage closure timed
    // twice per round — subscriber off, then with a JSON-lines
    // subscriber (thread-local, so concurrently running tests are
    // unaffected) writing to a sink. The off/on repetitions interleave
    // so clock-frequency drift between two separate measurement windows
    // cannot masquerade as telemetry cost. A report *field* rather than
    // a 13th kernel, so [`compare`] against pre-telemetry baselines
    // keeps matching the same kernel set.
    let writer = std::sync::Arc::new(JsonLinesWriter::new(Box::new(std::io::sink())));
    let coverage_once = || {
        let mut replay = Replay::once(accesses.clone());
        let mut predictor = PredictorKind::Baseline.build();
        let report = run_coverage(&mut replay, predictor.as_mut(), coverage_cfg);
        report.accesses
    };
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    let mut measured = std::hint::black_box(coverage_once());
    // Alternate which side of each pair runs first: under cgroup CPU
    // throttling the second run of a pair systematically lands in the
    // throttled part of the quota period, which would otherwise read as
    // telemetry cost.
    for round in 0..rounds.max(1) {
        if round % 2 == 0 {
            let start = Instant::now();
            measured = std::hint::black_box(coverage_once());
            best_off = best_off.min(start.elapsed());
        }
        ltc_telemetry::with_subscriber(writer.clone(), || {
            let start = Instant::now();
            measured = std::hint::black_box(coverage_once());
            best_on = best_on.min(start.elapsed());
        });
        if round % 2 == 1 {
            let start = Instant::now();
            measured = std::hint::black_box(coverage_once());
            best_off = best_off.min(start.elapsed());
        }
    }
    let off_per_sec = BenchResult::new("coverage_off", measured, best_off).per_sec;
    let instrumented_per_sec = BenchResult::new("coverage_instrumented", measured, best_on).per_sec;
    let telemetry = Some(TelemetryOverhead {
        events: writer.events_written(),
        bytes: writer.bytes_written(),
        off_per_sec,
        instrumented_per_sec,
        overhead_pct: (1.0 - instrumented_per_sec / off_per_sec) * 100.0,
    });

    let (items, best) = time_kernel(rounds, || {
        let mut replay = Replay::once(accesses.clone());
        let mut predictor = PredictorKind::DbcpUnlimited.build();
        let report = run_coverage(&mut replay, predictor.as_mut(), coverage_cfg);
        report.accesses
    });
    results.push(BenchResult::new("coverage_dbcp", items, best));

    let stream_cfg = StreamConfig::with_budget(64 << 10).with_seed(opts.seed);
    let (items, best) = time_kernel(rounds, || {
        let mut replay = Replay::once(accesses.clone());
        let report = StreamAnalysis::run(&mut replay, u64::MAX, stream_cfg);
        report.accesses
    });
    results.push(BenchResult::new("stream_sketch", items, best));

    let (items, best) = time_kernel(rounds, || {
        let mut replay = io::read_trace(encoded.as_slice()).expect("bench trace decodes");
        let mut predictor = PredictorKind::Baseline.build();
        let report = run_coverage(&mut replay, predictor.as_mut(), coverage_cfg);
        report.accesses
    });
    results.push(BenchResult::new("decode_kernel", items, best));

    // Worker-placement kernels: put one fresh worker at each of N even
    // slice starts, by plain skipping vs by checkpointed seeking. Each
    // repetition "processes" the whole trace budget, so per_sec ratios
    // between these kernels equal inverse setup-time ratios directly.
    let (items, best) = time_kernel(rounds, || {
        for segment in 0..16 {
            let start = TraceSegment::nth(opts.accesses, 16, segment).start;
            let mut src = entry.build(opts.seed);
            for _ in 0..start {
                src.next_access();
            }
            std::hint::black_box(src.next_access());
        }
        opts.accesses
    });
    results.push(BenchResult::new("segment_skip", items, best));

    let seek = |segments: u32| {
        let starts: Vec<u64> =
            (0..segments).map(|s| TraceSegment::nth(opts.accesses, segments, s).start).collect();
        let store = record_targets(&mut entry.build(opts.seed), &starts);
        for &start in &starts {
            let mut src = entry.build(opts.seed);
            let mut pos = 0;
            if let Some(c) = store.nearest_at_or_before(start) {
                if src.restore(&c.state).is_ok() {
                    pos = c.pos;
                }
            }
            for _ in pos..start {
                src.next_access();
            }
            std::hint::black_box(src.next_access());
        }
        opts.accesses
    };
    let (items, best) = time_kernel(rounds, || seek(16));
    results.push(BenchResult::new("segment_seek", items, best));
    for segments in [1u32, 4, 64] {
        let (items, best) = time_kernel(rounds, || seek(segments));
        results.push(BenchResult::new(&format!("segment_seek_x{segments}"), items, best));
    }

    // Warm-up cost kernels: the same 16 placements, now counting the
    // cache warm-up each worker pays after seeking. Checkpoint and
    // warm-image recording stay outside the timed region — both are
    // one-time, disk-cached costs — so these time steady-state worker
    // setup: re-simulating the warm-up window (`segment_replay`) versus
    // restoring a recorded warm image (`segment_warm`).
    let starts: Vec<u64> = (0..16).map(|s| TraceSegment::nth(opts.accesses, 16, s).start).collect();
    let replay_targets: Vec<u64> =
        starts.iter().map(|&s| s - s.min(SEGMENT_WARMUP)).filter(|&t| t > 0).collect();
    let replay_ckpts = record_targets(&mut entry.build(opts.seed), &replay_targets);
    let (items, best) = time_kernel(rounds, || {
        for &start in &starts {
            let warm = start.min(SEGMENT_WARMUP);
            let target = start - warm;
            let mut src = entry.build(opts.seed);
            let mut pos = 0;
            if let Some(c) = replay_ckpts.nearest_at_or_before(target) {
                if src.restore(&c.state).is_ok() {
                    pos = c.pos;
                }
            }
            for _ in pos..target {
                src.next_access();
            }
            let mut hierarchy = Hierarchy::new(HierarchyConfig::paper());
            for _ in 0..warm {
                let Some(a) = src.next_access() else { break };
                hierarchy.access(a.addr, a.kind);
            }
            std::hint::black_box(&hierarchy);
        }
        opts.accesses
    });
    results.push(BenchResult::new("segment_replay", items, best));

    let start_ckpts: Vec<u64> = starts.iter().copied().filter(|&s| s > 0).collect();
    let warm_ckpts = record_targets(&mut entry.build(opts.seed), &start_ckpts);
    let warm_store = record_warm_images(&mut entry.build(opts.seed), SEGMENT_WARMUP, &starts);
    let (items, best) = time_kernel(rounds, || {
        for &start in &starts {
            let mut src = entry.build(opts.seed);
            let mut pos = 0;
            if let Some(c) = warm_ckpts.nearest_at_or_before(start) {
                if src.restore(&c.state).is_ok() {
                    pos = c.pos;
                }
            }
            for _ in pos..start {
                src.next_access();
            }
            let hierarchy = match warm_store.at(start) {
                Some(w) => Hierarchy::from_image(HierarchyConfig::paper(), &w.image)
                    .expect("recorded warm image restores"),
                None => Hierarchy::new(HierarchyConfig::paper()),
            };
            std::hint::black_box(&hierarchy);
        }
        opts.accesses
    });
    results.push(BenchResult::new("segment_warm", items, best));

    BenchReport {
        schema: BENCH_SCHEMA,
        model_version: u64::from(MODEL_VERSION),
        benchmark: opts.benchmark.clone(),
        accesses: opts.accesses,
        seed: opts.seed,
        results,
        telemetry,
    }
}

/// One kernel's current-vs-baseline delta.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Kernel name.
    pub name: String,
    /// Baseline throughput (items/sec).
    pub baseline_per_sec: f64,
    /// Current throughput (items/sec).
    pub current_per_sec: f64,
    /// Relative change in percent (positive = faster).
    pub change_pct: f64,
    /// Whether the slowdown exceeds the tolerance.
    pub regressed: bool,
}

/// Diffs `current` against `baseline` kernel by kernel (intersection of
/// names, baseline order). A kernel regresses when its throughput drops
/// more than `tolerance_pct` percent below the baseline.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance_pct: f64,
) -> Vec<BenchDelta> {
    baseline
        .results
        .iter()
        .filter_map(|base| current.result(&base.name).map(|cur| (base, cur)))
        .map(|(base, cur)| {
            let change_pct =
                if base.per_sec > 0.0 { (cur.per_sec / base.per_sec - 1.0) * 100.0 } else { 0.0 };
            BenchDelta {
                name: base.name.clone(),
                baseline_per_sec: base.per_sec,
                current_per_sec: cur.per_sec,
                change_pct,
                regressed: change_pct < -tolerance_pct,
            }
        })
        .collect()
}

/// Today's UTC date as `YYYY-MM-DD` (for default `BENCH_<date>.json`
/// file names), from the system clock — no calendar dependency.
pub fn utc_date_string() -> String {
    let secs =
        SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default().as_secs();
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch to civil date (Howard Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((if m <= 2 { y + 1 } else { y }), m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(names_and_rates: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA,
            model_version: u64::from(MODEL_VERSION),
            benchmark: "gcc".into(),
            accesses: 1000,
            seed: 1,
            results: names_and_rates
                .iter()
                .map(|(n, r)| BenchResult {
                    name: n.to_string(),
                    items: 1000,
                    nanos: (1000.0 * 1e9 / r) as u64,
                    per_sec: *r,
                })
                .collect(),
            telemetry: None,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let opts = BenchOptions { accesses: 2_000, benchmark: "gzip".into(), seed: 1, rounds: 1 };
        let report = run_all(&opts);
        assert_eq!(report.results.len(), 12);
        assert!(report.results.iter().all(|r| r.items > 0 && r.per_sec > 0.0));
        let overhead = report.telemetry.as_ref().expect("run_all measures telemetry overhead");
        // One `coverage.run` point per instrumented repetition (1 round).
        assert_eq!(overhead.events, 1);
        assert!(overhead.bytes > 0);
        assert!(overhead.off_per_sec > 0.0 && overhead.instrumented_per_sec > 0.0);
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn pre_telemetry_reports_still_parse() {
        // Baselines committed before the `telemetry` field existed have
        // no such key at all; they must keep parsing (to `None`).
        let mut report = tiny_report(&[("decode", 1e6)]);
        let legacy = report.to_json().replace(",\"telemetry\":null", "");
        assert!(!legacy.contains("telemetry"), "key must be absent, not null");
        let parsed = BenchReport::from_json(&legacy).unwrap();
        assert_eq!(parsed, report);

        // And a report that does carry the field round-trips it.
        report.telemetry = Some(TelemetryOverhead {
            events: 4,
            bytes: 512,
            off_per_sec: 2e6,
            instrumented_per_sec: 1.99e6,
            overhead_pct: 0.5,
        });
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.telemetry, report.telemetry);
    }

    #[test]
    fn unknown_schema_is_an_error() {
        let mut report = tiny_report(&[("decode", 1e6)]);
        report.schema = 999;
        assert!(BenchReport::from_json(&report.to_json()).is_err());
    }

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        let baseline = tiny_report(&[("decode", 1e6), ("coverage_baseline", 2e6)]);
        let current = tiny_report(&[("decode", 0.5e6), ("coverage_baseline", 1.95e6)]);
        let deltas = compare(&current, &baseline, DEFAULT_TOLERANCE_PCT);
        assert_eq!(deltas.len(), 2);
        assert!(deltas[0].regressed, "a 2x slowdown must regress");
        assert!(!deltas[1].regressed, "a 2.5% dip is within tolerance");
    }

    #[test]
    fn compare_matches_on_name_intersection() {
        let baseline = tiny_report(&[("decode", 1e6), ("retired_kernel", 1e6)]);
        let current = tiny_report(&[("decode", 2e6), ("new_kernel", 1e6)]);
        let deltas = compare(&current, &baseline, DEFAULT_TOLERANCE_PCT);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].name, "decode");
        assert!(deltas[0].change_pct > 90.0);
    }

    #[test]
    fn civil_date_matches_known_epochs() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        let today = utc_date_string();
        assert_eq!(today.len(), 10);
        assert_eq!(today.as_bytes()[4], b'-');
    }
}

//! The trace-driven coverage simulator (Figure 8's methodology).

use ltc_cache::{Hierarchy, HierarchyConfig, HierarchyOutcome, MemLevel};
use ltc_predictors::{PredictorTraffic, PrefetchLevel, PrefetchRequest, Prefetcher};
use ltc_trace::{MemoryAccess, TraceSource};
use serde::{Deserialize, Serialize};

/// Configuration of a coverage run.
#[derive(Debug, Clone, Copy)]
pub struct CoverageConfig {
    /// Cache hierarchy geometry (both the predictor and shadow baseline).
    pub hierarchy: HierarchyConfig,
    /// Maximum accesses to simulate.
    pub limit: u64,
    /// Accesses simulated before statistics collection begins. The paper
    /// traces entire benchmarks (hundreds of recurrences), so its averages
    /// are steady-state; scaled runs approximate that by excluding the
    /// cold training prefix.
    pub warmup: u64,
}

impl CoverageConfig {
    /// The paper's hierarchy with the given access budget and no warm-up.
    pub fn paper(limit: u64) -> Self {
        CoverageConfig { hierarchy: HierarchyConfig::paper(), limit, warmup: 0 }
    }

    /// Sets the warm-up prefix.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }
}

/// Classification of one run's misses, Figure 8 style.
///
/// The *prediction opportunity* is the baseline run's L1D miss count.
/// `correct + incorrect + train == opportunity` (the paper's invariant);
/// `early` counts predictor-induced premature evictions and is reported
/// above 100 %.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Predictor name.
    pub predictor: String,
    /// Accesses simulated.
    pub accesses: u64,
    /// Instructions represented by the trace (accesses + gaps).
    pub instructions: u64,
    /// Baseline L1D misses (= prediction opportunity).
    pub base_l1_misses: u64,
    /// L1D misses remaining with the predictor.
    pub pf_l1_misses: u64,
    /// Baseline L2 misses (off-chip accesses).
    pub base_l2_misses: u64,
    /// L2 misses remaining with the predictor.
    pub pf_l2_misses: u64,
    /// Baseline misses eliminated by the predictor (correct predictions).
    pub correct: u64,
    /// Wrong-target prefetches (counted against opportunity).
    pub incorrect: u64,
    /// Baseline hits that became misses with the predictor (early
    /// evictions).
    pub early: u64,
    /// Prefetch fills performed.
    pub prefetch_fills: u64,
    /// Prefetched blocks that were demand-used.
    pub useful_prefetches: u64,
    /// Predictor metadata traffic.
    pub traffic: PredictorTraffic,
    /// Cache-block bytes moved from memory by the baseline (fills +
    /// write-backs), for the Figure 12 utilization breakdown.
    pub base_data_bytes: u64,
    /// Extra cache-block bytes moved due to mispredicted prefetches.
    pub incorrect_prefetch_bytes: u64,
    /// Predictor on-chip storage (bytes, hardware model).
    pub storage_bytes: u64,
    /// Predictor resident simulator memory (bytes, honest count) — what
    /// budget-sweep figures compare exact tables and sketches on.
    pub memory_bytes: u64,
}

impl CoverageReport {
    /// Misses not predicted at all (training/low-confidence losses).
    pub fn train(&self) -> u64 {
        self.base_l1_misses.saturating_sub(self.correct + self.incorrect)
    }

    /// Fraction of opportunity eliminated (Figure 8 "correct").
    pub fn correct_pct(&self) -> f64 {
        self.pct(self.correct)
    }

    /// Fraction of opportunity lost to wrong targets (Figure 8 "incorrect").
    pub fn incorrect_pct(&self) -> f64 {
        self.pct(self.incorrect)
    }

    /// Fraction of opportunity lost to training (Figure 8 "train").
    pub fn train_pct(&self) -> f64 {
        self.pct(self.train())
    }

    /// Premature evictions as a fraction of opportunity (Figure 8 "early",
    /// plotted above 100 %).
    pub fn early_pct(&self) -> f64 {
        self.pct(self.early)
    }

    /// Coverage: fraction of baseline L1D misses eliminated.
    pub fn coverage(&self) -> f64 {
        if self.base_l1_misses == 0 {
            0.0
        } else {
            1.0 - self.pf_l1_misses as f64 / self.base_l1_misses as f64
        }
    }

    /// Fraction of baseline off-chip (L2) misses eliminated (Section 5.7).
    pub fn l2_coverage(&self) -> f64 {
        if self.base_l2_misses == 0 {
            0.0
        } else {
            1.0 - self.pf_l2_misses as f64 / self.base_l2_misses as f64
        }
    }

    /// Baseline L1D miss ratio (Table 2).
    pub fn base_l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.base_l1_misses as f64 / self.accesses as f64
        }
    }

    /// Baseline L2 *local* miss ratio — L2 misses over L2 accesses
    /// (Table 2's "L2 miss %").
    pub fn base_l2_miss_rate(&self) -> f64 {
        if self.base_l1_misses == 0 {
            0.0
        } else {
            self.base_l2_misses as f64 / self.base_l1_misses as f64
        }
    }

    fn pct(&self, v: u64) -> f64 {
        if self.base_l1_misses == 0 {
            0.0
        } else {
            v as f64 / self.base_l1_misses as f64
        }
    }
}

/// One `coverage.run` telemetry point summarizing a finished run. The
/// per-access loop stays uninstrumented — telemetry cost is per *run*,
/// which is what the bench report's telemetry-overhead delta documents.
fn emit_run_point(report: &CoverageReport) {
    if !ltc_telemetry::enabled() {
        return;
    }
    ltc_telemetry::point(
        "coverage.run",
        vec![
            ("predictor".to_string(), report.predictor.clone().into()),
            ("accesses".to_string(), report.accesses.into()),
            ("base_l1_misses".to_string(), report.base_l1_misses.into()),
            ("correct".to_string(), report.correct.into()),
            ("early".to_string(), report.early.into()),
        ],
    );
}

/// The lockstep step of Figure 8's method, shared by every coverage
/// driver: a baseline hierarchy, a shadow hierarchy that only the
/// predictor's prefetches touch, and the predictor between them.
///
/// With `SHADOW = false` (passive predictors, which never prefetch) the
/// shadow hierarchy would replay the baseline exactly, so it is compiled
/// out: the shadow outcome *is* the baseline outcome and one hierarchy is
/// stepped instead of two.
#[derive(Debug)]
pub struct CoverageStepper<const SHADOW: bool> {
    base: Hierarchy,
    shadow: Option<Hierarchy>,
    requests: Vec<PrefetchRequest>,
    /// Prefetch fills performed so far.
    fills: u64,
    /// The L1 share of `fills`.
    l1_fills: u64,
}

impl<const SHADOW: bool> CoverageStepper<SHADOW> {
    /// Two empty hierarchies of the given geometry (one when `!SHADOW`).
    pub fn new(hierarchy: HierarchyConfig) -> Self {
        CoverageStepper {
            base: Hierarchy::new(hierarchy),
            shadow: SHADOW.then(|| Hierarchy::new(hierarchy)),
            requests: Vec::new(),
            fills: 0,
            l1_fills: 0,
        }
    }

    /// Steps both hierarchies with `access`, shows the predictor the
    /// shadow outcome and applies its requests to the shadow hierarchy.
    /// Returns the (baseline, shadow) outcome pair.
    ///
    /// Requests are applied immediately: the paper's Figure 2 shows 85 %
    /// of dead times exceed the memory latency, so trace-driven
    /// prefetches are assumed timely (the timing model charges real
    /// latencies instead).
    ///
    /// Always inlined: each run's loop must compile to one body, as the
    /// per-access work is a few dozen nanoseconds.
    #[inline(always)]
    pub fn step<P: Prefetcher + ?Sized>(
        &mut self,
        access: &MemoryAccess,
        predictor: &mut P,
    ) -> (HierarchyOutcome, HierarchyOutcome) {
        let base = self.base.access(access.addr, access.kind);
        let Some(shadow) = self.shadow.as_mut().filter(|_| SHADOW) else {
            predictor.on_access(access, &base, &mut self.requests);
            debug_assert!(
                self.requests.is_empty(),
                "passive predictor {} pushed a prefetch request",
                predictor.name()
            );
            self.requests.clear();
            return (base, base);
        };
        let out = shadow.access(access.addr, access.kind);
        predictor.on_access(access, &out, &mut self.requests);
        for req in self.requests.drain(..) {
            let Some((fill, src)) = req.apply(shadow) else { continue };
            self.fills += 1;
            self.l1_fills += u64::from(req.level == PrefetchLevel::L1);
            predictor.on_prefetch_applied(&req, &fill, src);
        }
        (base, out)
    }

    /// The hierarchy the predictor drives (the baseline when `!SHADOW`).
    fn shadow(&self) -> &Hierarchy {
        self.shadow.as_ref().unwrap_or(&self.base)
    }

    /// The counters a measured phase is reported relative to.
    fn marks<P: Prefetcher + ?Sized>(&self, predictor: &P) -> Marks {
        Marks {
            fills: self.fills,
            useless_l1: self.shadow().l1().stats().useless_prefetches,
            useless_l2: self.shadow().l2().stats().useless_prefetches,
            traffic: predictor.traffic(),
        }
    }
}

/// Cumulative counter readings at the start of the measured phase.
struct Marks {
    fills: u64,
    useless_l1: u64,
    useless_l2: u64,
    traffic: PredictorTraffic,
}

impl CoverageReport {
    /// Counts one measured access's (baseline, shadow) outcome pair.
    ///
    /// The cross-classification yields the Figure 8 categories exactly:
    ///
    /// * baseline miss, predictor hit → an eliminated miss (*correct*),
    /// * baseline hit, predictor miss → a predictor-induced *early* eviction,
    /// * baseline miss, predictor miss → not eliminated; counted *incorrect*
    ///   when a wrong-target prefetch resolved uselessly, *train* otherwise.
    #[inline]
    fn record(
        &mut self,
        access: &MemoryAccess,
        (base, shadow): (HierarchyOutcome, HierarchyOutcome),
        line_bytes: u64,
    ) {
        self.accesses += 1;
        self.instructions += access.instructions();
        // Figure 12 base-data accounting: every off-chip fill and every
        // write-back moves a line.
        if base.level == MemLevel::Memory {
            self.base_data_bytes += line_bytes;
            self.base_l2_misses += 1;
        }
        if base.l2_writeback {
            self.base_data_bytes += line_bytes;
        }
        match (base.l1.hit, shadow.l1.hit) {
            (false, true) => self.correct += 1,
            (true, false) => self.early += 1,
            _ => {}
        }
        self.base_l1_misses += u64::from(!base.l1.hit);
        self.pf_l1_misses += u64::from(!shadow.l1.hit);
        self.pf_l2_misses += u64::from(shadow.level == MemLevel::Memory);
        self.useful_prefetches += u64::from(shadow.l1.first_use_of_prefetch);
    }
}

/// Runs a predictor against a shadow baseline on the same trace (see
/// [`CoverageStepper`]), counting only the accesses after the warm-up.
///
/// A passive predictor runs the stepper without its shadow hierarchy;
/// the report is byte-identical either way (the golden wall and
/// `passive_fast_path_mirrors_two_hierarchy_run` assert this).
pub fn run_coverage<S, P>(source: &mut S, predictor: &mut P, cfg: CoverageConfig) -> CoverageReport
where
    S: TraceSource,
    P: Prefetcher + ?Sized,
{
    let report = if predictor.is_passive() {
        measure::<false, S, P>(source, predictor, cfg)
    } else {
        measure::<true, S, P>(source, predictor, cfg)
    };
    emit_run_point(&report);
    report
}

fn measure<const SHADOW: bool, S, P>(
    source: &mut S,
    predictor: &mut P,
    cfg: CoverageConfig,
) -> CoverageReport
where
    S: TraceSource,
    P: Prefetcher + ?Sized,
{
    let mut stepper = CoverageStepper::<SHADOW>::new(cfg.hierarchy);
    let mut report =
        CoverageReport { predictor: predictor.name().to_string(), ..Default::default() };
    let line_bytes = cfg.hierarchy.l1.line_bytes;
    let warmup = cfg.warmup.min(cfg.limit);
    // The measured phase reports relative to the warm-up boundary only
    // once access #warmup exists: a trace that ends inside the warm-up
    // counts nothing but reports the traffic and prefetches since the
    // start.
    let mut since = stepper.marks(predictor);
    'run: {
        // Warm-up prefix: state advances, nothing is counted. Splitting it
        // out keeps the measured loop free of per-access warm-up compares.
        for _ in 0..warmup {
            let Some(a) = source.next_access() else { break 'run };
            stepper.step(&a, predictor);
        }
        let boundary = stepper.marks(predictor);
        for _ in warmup..cfg.limit {
            let Some(a) = source.next_access() else { break };
            report.record(&a, stepper.step(&a, predictor), line_bytes);
        }
        if report.accesses > 0 {
            since = boundary;
        }
    }

    // Wrong-target accounting. For L1 (last-touch) prefetchers the useless
    // L1 fills are the mispredictions; for L2-only prefetchers (GHB/stride)
    // the useless L2 fills are. An L1 prefetcher's pass-through L2 fills
    // would double count, so L2 uselessness is only charged when no L1
    // prefetching happened (warm-up fills included).
    let shadow = stepper.shadow();
    let useless = if stepper.l1_fills > 0 {
        shadow.l1().stats().useless_prefetches.saturating_sub(since.useless_l1)
    } else {
        shadow.l2().stats().useless_prefetches.saturating_sub(since.useless_l2)
    };
    report.prefetch_fills = stepper.fills - since.fills;
    // Clamp so the Figure 8 identity (correct + incorrect + train = 100%)
    // holds even when useless prefetches outnumber unresolved misses.
    report.incorrect = useless.min(report.base_l1_misses.saturating_sub(report.correct));
    report.incorrect_prefetch_bytes = useless * line_bytes;
    let (t, before) = (predictor.traffic(), since.traffic);
    report.traffic = PredictorTraffic {
        sequence_write_bytes: t.sequence_write_bytes - before.sequence_write_bytes,
        sequence_read_bytes: t.sequence_read_bytes - before.sequence_read_bytes,
        confidence_update_bytes: t.confidence_update_bytes - before.confidence_update_bytes,
    };
    report.storage_bytes = predictor.storage_bytes();
    report.memory_bytes = predictor.memory_bytes();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_predictors::{DbcpConfig, DbcpPrefetcher, NullPrefetcher};
    use ltc_trace::{Addr, MemoryAccess, Pc, Replay};

    fn conflict_loop(aliases: u64, sets: u64, passes: usize) -> Replay {
        let span = 512 * 64;
        let mut v = Vec::new();
        for _ in 0..passes {
            for set in 0..sets {
                for alias in 0..aliases {
                    v.push(MemoryAccess::load(
                        Pc(0x400 + alias * 8),
                        Addr(set * 64 + alias * span),
                    ));
                }
            }
        }
        Replay::once(v)
    }

    /// A NullPrefetcher that denies being passive, forcing the
    /// two-hierarchy slow path so the shadow-skip can be differenced.
    struct DeclaredActive(NullPrefetcher);

    impl Prefetcher for DeclaredActive {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn on_access(
            &mut self,
            access: &ltc_trace::MemoryAccess,
            outcome: &ltc_cache::HierarchyOutcome,
            out: &mut Vec<ltc_predictors::PrefetchRequest>,
        ) {
            self.0.on_access(access, outcome, out)
        }
        fn storage_bytes(&self) -> u64 {
            self.0.storage_bytes()
        }
    }

    /// The passive shadow-skip must be invisible in the report: running
    /// the baseline with and without the second hierarchy produces the
    /// exact same CoverageReport (the golden wall asserts the same at
    /// the engine level), including at the warm-up edge cases.
    #[test]
    fn passive_fast_path_mirrors_two_hierarchy_run() {
        // (limit, warmup, passes): every pass is 4 * 64 = 256 accesses.
        let cases = [
            (u64::MAX, 500, 10),
            (2_000, 0, 10),
            (u64::MAX, 0, 10),
            (1_000, 1_000, 10),
            (1_000, 1_500, 10),
            (1_200, 300, 10),
            // The trace ends inside the warm-up, or exactly at its end.
            (u64::MAX, 3_000, 10),
            (u64::MAX, 2_560, 10),
            (u64::MAX, 100, 0),
        ];
        for (limit, warmup, passes) in cases {
            let cfg = CoverageConfig::paper(limit).with_warmup(warmup);
            let mut null = NullPrefetcher::new();
            let fast = run_coverage(&mut conflict_loop(4, 64, passes), &mut null, cfg);
            let slow = run_coverage(
                &mut conflict_loop(4, 64, passes),
                &mut DeclaredActive(NullPrefetcher::new()),
                cfg,
            );
            assert_eq!(fast, slow, "limit {limit}, warmup {warmup}, {passes} passes");
        }
    }

    /// A trace that ends inside the warm-up counts no access, but its
    /// prefetch and wrong-target totals run from the start: they equal a
    /// warm-up-free run's over the same trace.
    #[test]
    fn trace_ending_in_warmup_reports_totals_since_start() {
        let run = |warmup| {
            let cfg = CoverageConfig::paper(u64::MAX).with_warmup(warmup);
            let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
            let mut mcf = ltc_trace::suite::by_name("mcf").unwrap().build(1).take_accesses(20_000);
            run_coverage(&mut mcf, &mut p, cfg)
        };
        let (cut, full) = (run(20_001), run(0));
        assert!(full.prefetch_fills > 0 && full.incorrect_prefetch_bytes > 0);
        assert_eq!((cut.accesses, cut.base_l1_misses, cut.correct, cut.incorrect), (0, 0, 0, 0));
        assert_eq!(cut.prefetch_fills, full.prefetch_fills);
        assert_eq!(cut.incorrect_prefetch_bytes, full.incorrect_prefetch_bytes);
        assert_eq!(cut.traffic, full.traffic);
    }

    #[test]
    fn null_predictor_reports_zero_coverage() {
        let mut t = conflict_loop(4, 32, 10);
        let mut p = NullPrefetcher::new();
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(u64::MAX));
        assert_eq!(r.base_l1_misses, r.pf_l1_misses);
        assert_eq!(r.correct, 0);
        assert_eq!(r.early, 0);
        assert_eq!(r.train(), r.base_l1_misses);
        assert!((r.coverage()).abs() < 1e-12);
    }

    #[test]
    fn dbcp_unlimited_covers_recurring_loop() {
        let mut t = conflict_loop(4, 64, 30);
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(u64::MAX));
        assert!(r.base_l1_misses > 0);
        assert!(
            r.coverage() > 0.3,
            "DBCP should eliminate a chunk of recurring misses, got {}",
            r.coverage()
        );
        assert_eq!(
            r.correct + r.incorrect + r.train(),
            r.base_l1_misses,
            "Figure 8 identity must hold"
        );
    }

    #[test]
    fn coverage_matches_miss_delta_modulo_early() {
        let mut t = conflict_loop(4, 64, 20);
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(u64::MAX));
        // pf misses = base misses - eliminated + early.
        assert_eq!(r.pf_l1_misses, r.base_l1_misses - r.correct + r.early);
    }

    #[test]
    fn report_percentages_are_consistent() {
        let mut t = conflict_loop(4, 32, 15);
        let mut p = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(u64::MAX));
        let sum = r.correct_pct() + r.incorrect_pct() + r.train_pct();
        assert!((sum - 1.0).abs() < 1e-9, "percentages must sum to 100%: {sum}");
    }

    #[test]
    fn limit_bounds_the_run() {
        let mut t = conflict_loop(2, 16, 100);
        let mut p = NullPrefetcher::new();
        let r = run_coverage(&mut t, &mut p, CoverageConfig::paper(500));
        assert_eq!(r.accesses, 500);
    }
}

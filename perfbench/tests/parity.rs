//! The benchmark's adaptors must be invisible: they forward every trait
//! method, and reports made through them are byte-identical to the
//! `ltc_sim::experiment` functions' reports for the same spec, traced or
//! not.

use std::cell::RefCell;
use std::rc::Rc;

use ltc_sim::cache::{
    Hierarchy, HierarchyConfig, HierarchyOutcome, ImageError, MemLevel, PrefetchOutcome,
};
use ltc_sim::engine::RunSpec;
use ltc_sim::experiment::{self, PredictorKind};
use ltc_sim::predictors::{
    PredictorImage, PredictorTraffic, PrefetchRequest, Prefetcher, StrideConfig, StridePrefetcher,
};
use ltc_sim::serde_json;
use ltc_sim::trace::{
    suite, AccessKind, Addr, MemoryAccess, Pc, Replay, RestoreError, SourceState, TraceSource,
};
use perfbench::adaptors::{Sampler, TimedPrefetcher, TimedSource};

const ACCESSES: u64 = 24_000;

#[test]
fn coverage_reports_are_byte_identical_through_the_adaptors() {
    let kinds = [
        PredictorKind::LtCords,
        PredictorKind::Dbcp2Mb,
        PredictorKind::Baseline,
        PredictorKind::Ghb,
        PredictorKind::Stride,
        PredictorKind::SketchDbcp(64 << 10),
    ];
    for benchmark in ["mcf", "treeadd"] {
        for kind in kinds {
            let spec = RunSpec::coverage(benchmark, kind, ACCESSES, 7);
            let direct =
                serde_json::to_string(&experiment::run_coverage(benchmark, kind, ACCESSES, 7));
            for traced in [false, true] {
                let run = perfbench::run_coverage(&spec, traced);
                assert_eq!(
                    serde_json::to_string(&run.report),
                    direct,
                    "{} traced={traced}",
                    spec.label()
                );
                assert_eq!(run.accesses, ACCESSES);
                perfbench::check_coverage(&spec, &run).unwrap();
            }
        }
    }
}

#[test]
fn timing_reports_are_byte_identical_through_the_adaptors() {
    let kinds = [
        PredictorKind::Baseline,
        PredictorKind::BigL2,
        PredictorKind::PerfectL1,
        PredictorKind::Stride,
        PredictorKind::LtCords,
    ];
    for benchmark in ["swim", "gcc"] {
        for kind in kinds {
            let spec = RunSpec::timing(benchmark, kind, ACCESSES, 3);
            let direct =
                serde_json::to_string(&experiment::run_timing(benchmark, kind, ACCESSES, 3));
            for traced in [false, true] {
                let run = perfbench::run_timing(&spec, traced);
                assert_eq!(
                    serde_json::to_string(&run.report),
                    direct,
                    "{} traced={traced}",
                    spec.label()
                );
                perfbench::check_timing(&spec, &run).unwrap();
            }
        }
    }
}

#[test]
fn every_workload_spec_matches_its_experiment_function() {
    for spec in perfbench::Workload::Coverage.specs(1).iter().take(2) {
        let direct =
            experiment::run_coverage(&spec.benchmark, spec.predictor, spec.accesses, spec.seed);
        let run = perfbench::run_coverage(spec, false);
        assert_eq!(serde_json::to_string(&run.report), serde_json::to_string(&direct));
    }
    for spec in perfbench::Workload::Timing.specs(1).iter().take(2) {
        let direct =
            experiment::run_timing(&spec.benchmark, spec.predictor, spec.accesses, spec.seed);
        let run = perfbench::run_timing(spec, false);
        assert_eq!(serde_json::to_string(&run.report), serde_json::to_string(&direct));
    }
}

#[test]
fn source_adaptor_forwards_checkpoint_restore_and_collect() {
    let entry = suite::by_name("gcc").unwrap();
    let mut plain = entry.build(5);
    let mut timed = TimedSource::new(entry.build(5), 2, 1);
    assert_eq!(timed.collect_accesses(10), plain.collect_accesses(10));
    assert_eq!(timed.calls(), 10);
    let state = timed.checkpoint().expect("suite sources checkpoint");
    assert_eq!(Some(&state), plain.checkpoint().as_ref());
    let ahead: Vec<_> = (0..5).map(|_| timed.next_access()).collect();
    assert_eq!(timed.calls(), 15);
    timed.restore(&state).unwrap();
    let again: Vec<_> = (0..5).map(|_| timed.next_access()).collect();
    assert_eq!(ahead, again);
    assert!(timed.stamp().is_some(), "call 2 was made");
    assert_eq!(
        timed.restore(&SourceState::Replay { pos: 0 }),
        plain.restore(&SourceState::Replay { pos: 0 })
    );
}

#[test]
fn source_adaptor_stamps_the_first_measured_access() {
    let mut timed =
        TimedSource::new(Replay::cycle(vec![MemoryAccess::load(Pc(1), Addr(64))]), 3, 0);
    for _ in 0..3 {
        timed.next_access();
    }
    assert!(timed.stamp().is_none());
    timed.next_access();
    assert!(timed.stamp().is_some());
    assert_eq!(timed.sampler().samples(), 0, "sampling is off");
}

#[test]
fn a_source_without_checkpoints_stays_without_them() {
    struct Plain;
    impl TraceSource for Plain {
        fn next_access(&mut self) -> Option<MemoryAccess> {
            None
        }
    }
    let mut timed = TimedSource::new(Plain, 0, 0);
    assert!(timed.checkpoint().is_none());
    assert_eq!(timed.restore(&SourceState::Replay { pos: 0 }), Err(RestoreError::Unsupported));
}

/// A predictor whose every method answers distinctively and logs its
/// name, so the test can see each call arrive.
struct Mock {
    log: Rc<RefCell<Vec<&'static str>>>,
}

impl Prefetcher for Mock {
    fn name(&self) -> &'static str {
        self.log.borrow_mut().push("name");
        "mock"
    }

    fn on_access(
        &mut self,
        access: &MemoryAccess,
        _: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.log.borrow_mut().push("on_access");
        out.push(PrefetchRequest::into_l2(access.addr));
        out.push(PrefetchRequest::into_l2(Addr(access.addr.0 + 64)));
    }

    fn on_prefetch_applied(&mut self, _: &PrefetchRequest, _: &PrefetchOutcome, _: MemLevel) {
        self.log.borrow_mut().push("on_prefetch_applied");
    }

    fn traffic(&self) -> PredictorTraffic {
        self.log.borrow_mut().push("traffic");
        PredictorTraffic {
            sequence_write_bytes: 1,
            sequence_read_bytes: 2,
            confidence_update_bytes: 3,
        }
    }

    fn storage_bytes(&self) -> u64 {
        self.log.borrow_mut().push("storage_bytes");
        11
    }

    fn memory_bytes(&self) -> u64 {
        self.log.borrow_mut().push("memory_bytes");
        13
    }

    fn is_passive(&self) -> bool {
        self.log.borrow_mut().push("is_passive");
        true
    }

    fn image(&self) -> Option<PredictorImage> {
        self.log.borrow_mut().push("image");
        StridePrefetcher::new(StrideConfig::default()).image()
    }

    fn restore_image(&mut self, _: &PredictorImage) -> Result<(), ImageError> {
        self.log.borrow_mut().push("restore_image");
        Err(ImageError::Unsupported)
    }
}

#[test]
fn prefetcher_adaptor_forwards_every_method() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut timed = TimedPrefetcher::new(Box::new(Mock { log: log.clone() }), 1);
    let access = MemoryAccess::load(Pc(4), Addr(4096));
    let outcome = Hierarchy::new(HierarchyConfig::paper()).access(access.addr, AccessKind::Load);
    let mut out = Vec::new();

    assert_eq!(timed.name(), "mock");
    timed.on_access(&access, &outcome, &mut out);
    timed.on_prefetch_applied(&out[0], &PrefetchOutcome::AlreadyPresent, MemLevel::L2);
    assert_eq!(timed.traffic().total(), 6);
    assert_eq!(timed.storage_bytes(), 11);
    assert_eq!(timed.memory_bytes(), 13);
    assert!(timed.is_passive());
    let image = timed.image().expect("the mock images");
    assert_eq!(timed.restore_image(&image), Err(ImageError::Unsupported));

    assert_eq!(
        *log.borrow(),
        [
            "name",
            "on_access",
            "on_prefetch_applied",
            "traffic",
            "storage_bytes",
            "memory_bytes",
            "is_passive",
            "image",
            "restore_image"
        ]
    );
    assert_eq!((timed.calls(), timed.requests(), timed.applied()), (2, 2, 1));
    assert_eq!(timed.sampler().samples(), 2, "every call is timed at a stride of 1");
    assert_eq!(out.len(), 2, "requests reach the caller's buffer");
}

#[test]
fn prefetcher_adaptor_round_trips_a_real_image() {
    let donor = TimedPrefetcher::new(PredictorKind::Dbcp2Mb.build(), 0);
    let image = donor.image().expect("DBCP images");
    let mut target = TimedPrefetcher::new(PredictorKind::Dbcp2Mb.build(), 0);
    target.restore_image(&image).unwrap();
    assert_eq!(target.image(), Some(image));
    assert!(!target.is_passive());
    assert!(TimedPrefetcher::new(PredictorKind::Baseline.build(), 0).is_passive());
}

#[test]
fn a_disabled_sampler_times_nothing() {
    let mut sampler = Sampler::new(0);
    assert_eq!(sampler.call(|| 5), 5);
    assert_eq!(sampler.samples(), 0);
    assert_eq!(sampler.estimate_s(), 0.0);
    let mut every_third = Sampler::new(3);
    for _ in 0..9 {
        every_third.call(|| ());
    }
    assert_eq!(every_third.samples(), 3);
}

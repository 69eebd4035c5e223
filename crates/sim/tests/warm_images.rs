//! Warm-image parity: a hierarchy + predictor pair restored from its
//! serialized state images must continue **byte-identically** to the
//! instance that kept running — across hierarchy configurations, every
//! predictor kind, and a JSON round trip of the images. This is the
//! property that lets segment workers restore recorded warm state
//! instead of replaying the warm-up window.

use ltc_cache::{Hierarchy, HierarchyConfig, HierarchyImage};
use ltc_predictors::{PredictorImage, Prefetcher};
use ltc_sim::experiment::PredictorKind;
use ltc_sim::trace::suite;
use ltcords::LtCordsConfig;
use proptest::prelude::*;

/// Every standard predictor configuration, image-supporting or not.
fn kinds() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Baseline,
        PredictorKind::PerfectL1,
        PredictorKind::LtCords,
        PredictorKind::LtCordsWith(LtCordsConfig::paper()),
        PredictorKind::DbcpUnlimited,
        PredictorKind::Dbcp2Mb,
        PredictorKind::DbcpBytes(4 << 10),
        PredictorKind::SketchDbcp(32 << 10),
        PredictorKind::Ghb,
        PredictorKind::Stride,
        PredictorKind::BigL2,
    ]
}

/// Drives `n` accesses from `source` through the hierarchy and
/// predictor with the same request-application discipline as the
/// coverage driver.
fn drive(
    hierarchy: &mut Hierarchy,
    predictor: &mut dyn Prefetcher,
    source: &mut dyn ltc_trace::TraceSource,
    n: u64,
) {
    let mut requests = Vec::new();
    for _ in 0..n {
        let Some(a) = source.next_access() else { break };
        let out = hierarchy.access(a.addr, a.kind);
        predictor.on_access(&a, &out, &mut requests);
        for req in requests.drain(..) {
            if let Some((out, src)) = req.apply(hierarchy) {
                predictor.on_prefetch_applied(&req, &out, src);
            }
        }
    }
}

/// The continue-vs-restore experiment for one (kind, config, trace)
/// combination: warm an instance, image it, restore a twin from the
/// JSON-round-tripped images, drive both over the same continuation,
/// and demand identical final images.
fn assert_restore_parity(
    kind: PredictorKind,
    config: HierarchyConfig,
    benchmark: &str,
    seed: u64,
    warm_n: u64,
    cont_n: u64,
) {
    let entry = suite::by_name(benchmark).expect("suite benchmark");
    let mut source = entry.build(seed);
    let mut hierarchy = Hierarchy::new(config);
    let mut predictor = kind.build();
    drive(&mut hierarchy, predictor.as_mut(), source.as_mut(), warm_n);

    let h_image = hierarchy.to_image();
    let p_image = predictor.image();
    match kind {
        PredictorKind::LtCords | PredictorKind::LtCordsWith(_) => {
            assert!(p_image.is_none(), "LT-cords does not support warm images");
            assert!(predictor.restore_image(&PredictorImage::Null).is_err());
            return;
        }
        _ => assert!(p_image.is_some(), "{} must support warm images", kind.name()),
    }

    // Both images survive canonical JSON unchanged.
    let h_image: HierarchyImage =
        serde_json::from_str(&serde_json::to_string(&h_image)).expect("hierarchy image parses");
    let p_image: PredictorImage = serde_json::from_str(&serde_json::to_string(&p_image.unwrap()))
        .expect("predictor image parses");

    let mut twin_h = Hierarchy::from_image(config, &h_image).expect("hierarchy restores");
    let mut twin_p = kind.build();
    twin_p.restore_image(&p_image).expect("predictor restores");

    // The twin's source reaches the same position by plain skipping.
    let mut twin_source = entry.build(seed);
    for _ in 0..warm_n {
        twin_source.next_access();
    }

    drive(&mut hierarchy, predictor.as_mut(), source.as_mut(), cont_n);
    drive(&mut twin_h, twin_p.as_mut(), twin_source.as_mut(), cont_n);

    assert_eq!(
        hierarchy.to_image(),
        twin_h.to_image(),
        "{} hierarchy diverged after restore",
        kind.name()
    );
    assert_eq!(
        predictor.image(),
        twin_p.image(),
        "{} predictor diverged after restore",
        kind.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Continue-vs-restore parity over proptest-chosen predictor kind,
    /// hierarchy configuration, trace, seed, and cut point.
    #[test]
    fn restored_state_continues_byte_identically(
        kind_idx in 0usize..11,
        big_l2 in any::<bool>(),
        bench_idx in 0usize..3,
        seed in 1u64..500,
        warm_n in 500u64..3_000,
        cont_n in 200u64..1_500,
    ) {
        let kind = kinds()[kind_idx];
        let config =
            if big_l2 { HierarchyConfig::paper_4mb_l2() } else { HierarchyConfig::paper() };
        let benchmark = ["gcc", "mcf", "swim"][bench_idx];
        assert_restore_parity(kind, config, benchmark, seed, warm_n, cont_n);
    }
}

/// A deterministic smoke pass over every kind, so a single plain test
/// run exercises the full matrix even without proptest exploration.
#[test]
fn every_kind_round_trips_on_both_hierarchies() {
    for kind in kinds() {
        for config in [HierarchyConfig::paper(), HierarchyConfig::paper_4mb_l2()] {
            assert_restore_parity(kind, config, "gzip", 7, 1_500, 600);
        }
    }
}

/// A predictor image restored into a differently-shaped instance is a
/// typed error, never silent corruption.
#[test]
fn mismatched_restores_are_typed_errors() {
    let entry = suite::by_name("gcc").expect("suite benchmark");
    let mut source = entry.build(3);
    let mut hierarchy = Hierarchy::new(HierarchyConfig::paper());
    let mut ghb = PredictorKind::Ghb.build();
    drive(&mut hierarchy, ghb.as_mut(), source.as_mut(), 1_000);
    let ghb_image = ghb.image().expect("ghb images");

    // Wrong predictor kind.
    let mut stride = PredictorKind::Stride.build();
    assert!(stride.restore_image(&ghb_image).is_err(), "kind mismatch must be refused");

    // Wrong summary configuration for the sketch predictor.
    let small = PredictorKind::SketchDbcp(16 << 10).build();
    let mut big = PredictorKind::SketchDbcp(64 << 10).build();
    let image = small.image().expect("sketch images");
    assert!(big.restore_image(&image).is_err(), "budget mismatch must be refused");

    // Wrong hierarchy configuration for a cache image.
    let image = hierarchy.to_image();
    assert!(
        Hierarchy::from_image(HierarchyConfig::paper_4mb_l2(), &image).is_err(),
        "hierarchy config mismatch must be refused"
    );
}

/// Size accounting: `image_bytes` matches the documented per-entry
/// costs for the fixed-geometry predictors and stays under an asserted
/// ceiling for the largest standard configuration.
#[test]
fn image_sizes_are_accounted_and_bounded() {
    let entry = suite::by_name("mcf").expect("suite benchmark");

    // Fixed-geometry predictors: cold image sizes are exact functions of
    // their table shapes (256-entry tables, 512-frame history).
    let ghb = PredictorKind::Ghb.build().image().unwrap();
    assert_eq!(ghb.image_bytes(), 256 * 17 + 256 * 16 + 8);
    let stride = PredictorKind::Stride.build().image().unwrap();
    assert_eq!(stride.image_bytes(), 256 * 26);
    assert_eq!(PredictorImage::Null.image_bytes(), 0);

    // Trained images of budget-bounded predictors never outgrow their
    // cold image by more than the in-flight bookkeeping allowance: the
    // table and history snapshots are pre-sized by geometry, so training
    // fills slots in place instead of growing the image.
    for kind in [PredictorKind::SketchDbcp(64 << 10), PredictorKind::Dbcp2Mb] {
        let ceiling = kind.build().image().unwrap().image_bytes() + (64 << 10);
        let mut source = entry.build(11);
        let mut hierarchy = Hierarchy::new(HierarchyConfig::paper());
        let mut predictor = kind.build();
        drive(&mut hierarchy, predictor.as_mut(), source.as_mut(), 30_000);
        let bytes = predictor.image().unwrap().image_bytes();
        assert!(
            bytes <= ceiling,
            "{} image grew to {bytes} bytes (ceiling {ceiling})",
            kind.name()
        );
    }

    // The largest standard hierarchy image (4 MB L2) stays under the
    // ceiling the engine's disk stores are sized around.
    let big = Hierarchy::new(HierarchyConfig::paper_4mb_l2()).to_image();
    assert!(big.image_bytes() < 1_250_000, "4 MB-L2 image is {} bytes", big.image_bytes());
}

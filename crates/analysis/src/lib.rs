//! Trace analysis: coverage accounting and the paper's correlation metrics.
//!
//! This crate hosts the measurement machinery behind the paper's evaluation:
//!
//! * [`coverage`] — the trace-driven coverage simulator: a predictor-driven
//!   hierarchy run in lockstep with a shadow baseline hierarchy, classifying
//!   every baseline miss as *correct* (eliminated), *incorrect* (mispredicted
//!   replacement), or *train* (no prediction), plus predictor-induced *early*
//!   evictions (Figure 8's methodology).
//! * [`correlation`] — the temporal correlation distance metric of
//!   Section 5.1 (Figure 6 left) and correlated-sequence lengths (Figure 6
//!   right).
//! * [`lasttouch_order`] — the last-touch vs cache-miss order disparity of
//!   Section 5.2 (Figure 7).
//! * [`deadtime`] — block dead-time measurement (Figure 2).
//! * [`stream`] — the bounded-memory one-pass miss/heavy-hitter analysis
//!   built on the `ltc_stream` summaries (`ltsim stream`).
//! * [`cdf`] — logarithmic histograms and CDF helpers shared by the above.

pub mod cdf;
pub mod correlation;
pub mod coverage;
pub mod deadtime;
pub mod lasttouch_order;
pub mod stream;

pub use cdf::LogHistogram;
pub use correlation::{CorrelationAnalysis, SequenceLengths};
pub use coverage::{run_coverage, CoverageConfig, CoverageReport, CoverageStepper};
pub use deadtime::DeadTimeTracker;
pub use lasttouch_order::LastTouchOrderAnalysis;
pub use stream::{
    merge_partials, StreamAnalysis, StreamConfig, StreamPartial, StreamReport, WarmImage,
    SEGMENT_WARMUP,
};

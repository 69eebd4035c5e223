//! Pass-through adaptors that count and time calls into the trace and
//! predictor layers from outside the program.
//!
//! Both wrap a real implementation and forward every trait method to it
//! unchanged, so a run made through them produces the same report as a
//! run made without them (`tests/parity.rs` checks this byte for byte).
//! They add:
//!
//! * exact call counts, kept on every call;
//! * on the source, a time stamp at one chosen call (the first access
//!   after the warm-up window), which is how set-up time is taken;
//! * sampled timing ([`Sampler`]): one call in N is timed, and the
//!   layer's time is estimated as N × the sampled time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ltc_sim::cache::{HierarchyOutcome, ImageError, MemLevel, PrefetchOutcome};
use ltc_sim::predictors::{PredictorImage, PredictorTraffic, PrefetchRequest, Prefetcher};
use ltc_sim::trace::{MemoryAccess, RestoreError, SourceState, TraceSource};

/// Times one call in `every` (none when `every` is 0).
///
/// The calls timed here last tens of nanoseconds, about what a clock
/// read costs, so each sampled call is paired with an empty interval
/// timed the same way just before it, and the layer's estimate is
/// N × (call intervals − empty intervals). With no calibration, a call
/// that does nothing reads about 30 ns on a 2-vCPU Xeon VM, which would
/// credit the hierarchy's time to the layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampler {
    every: u64,
    countdown: u64,
    samples: u64,
    calls: Duration,
    empty: Duration,
}

impl Sampler {
    /// A sampler timing one call in `every`; the first timed call is
    /// the `every`-th.
    pub fn new(every: u64) -> Self {
        Sampler { every, countdown: every.saturating_sub(1), ..Sampler::default() }
    }

    /// Runs `f`, timing it when this call is a sampled one.
    #[inline]
    pub fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.every == 0 {
            return f();
        }
        if self.countdown > 0 {
            self.countdown -= 1;
            return f();
        }
        self.countdown = self.every - 1;
        let t0 = Instant::now();
        black_box(());
        let t1 = Instant::now();
        let out = black_box(f());
        let t2 = Instant::now();
        self.empty += t1 - t0;
        self.calls += t2 - t1;
        self.samples += 1;
        out
    }

    /// Calls that were timed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The estimated time of all calls, in seconds: `every` × (sampled
    /// call time − sampled empty time). It can read slightly below zero
    /// for a layer that does almost nothing.
    pub fn estimate_s(&self) -> f64 {
        (self.calls.as_secs_f64() - self.empty.as_secs_f64()) * self.every as f64
    }
}

/// A [`TraceSource`] that forwards to `inner`, counting `next_access`
/// calls, stamping the time call number `stamp_at` (0-based) is made,
/// and timing one call in `sample_every`.
pub struct TimedSource<S> {
    inner: S,
    calls: u64,
    stamp_at: u64,
    stamp: Option<Instant>,
    sampler: Sampler,
}

impl<S: TraceSource> TimedSource<S> {
    /// Wraps `inner`; see the type docs.
    pub fn new(inner: S, stamp_at: u64, sample_every: u64) -> Self {
        TimedSource { inner, calls: 0, stamp_at, stamp: None, sampler: Sampler::new(sample_every) }
    }

    /// `next_access` calls made so far (accesses requested, warm-up
    /// included).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// When call `stamp_at` was requested, if it has been.
    pub fn stamp(&self) -> Option<Instant> {
        self.stamp
    }

    /// The sampled timing of `next_access`.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    #[inline]
    fn next_access(&mut self) -> Option<MemoryAccess> {
        if self.calls == self.stamp_at {
            self.stamp = Some(Instant::now());
        }
        self.calls += 1;
        let inner = &mut self.inner;
        self.sampler.call(|| inner.next_access())
    }

    // `take_accesses` is a combinator that wraps `self` and so reaches
    // `next_access` above; the other defaulted methods forward.
    fn collect_accesses(&mut self, n: usize) -> Vec<MemoryAccess> {
        if (self.calls..self.calls + n as u64).contains(&self.stamp_at) {
            self.stamp = Some(Instant::now());
        }
        let v = self.inner.collect_accesses(n);
        self.calls += v.len() as u64;
        v
    }

    fn checkpoint(&self) -> Option<SourceState> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), RestoreError> {
        self.inner.restore(state)
    }
}

/// A [`Prefetcher`] that forwards to `inner`, counting calls and the
/// prefetch requests it makes, and timing one call in `sample_every`.
pub struct TimedPrefetcher<P: ?Sized> {
    calls: u64,
    requests: u64,
    applied: u64,
    sampler: Sampler,
    inner: Box<P>,
}

impl<P: Prefetcher + ?Sized> TimedPrefetcher<P> {
    /// Wraps `inner`; see the type docs.
    pub fn new(inner: Box<P>, sample_every: u64) -> Self {
        TimedPrefetcher {
            calls: 0,
            requests: 0,
            applied: 0,
            sampler: Sampler::new(sample_every),
            inner,
        }
    }

    /// `on_access` plus `on_prefetch_applied` calls.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Prefetch requests pushed by `on_access`.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// `on_prefetch_applied` calls (prefetches the simulator performed).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The sampled timing of `on_access` and `on_prefetch_applied`.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }
}

impl<P: Prefetcher + ?Sized> Prefetcher for TimedPrefetcher<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    #[inline]
    fn on_access(
        &mut self,
        access: &MemoryAccess,
        outcome: &HierarchyOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.calls += 1;
        let before = out.len();
        let inner = &mut self.inner;
        self.sampler.call(|| inner.on_access(access, outcome, out));
        self.requests += (out.len() - before) as u64;
    }

    #[inline]
    fn on_prefetch_applied(
        &mut self,
        req: &PrefetchRequest,
        outcome: &PrefetchOutcome,
        source: MemLevel,
    ) {
        self.calls += 1;
        self.applied += 1;
        let inner = &mut self.inner;
        self.sampler.call(|| inner.on_prefetch_applied(req, outcome, source));
    }

    fn traffic(&self) -> PredictorTraffic {
        self.inner.traffic()
    }

    fn storage_bytes(&self) -> u64 {
        self.inner.storage_bytes()
    }

    fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes()
    }

    fn is_passive(&self) -> bool {
        self.inner.is_passive()
    }

    fn image(&self) -> Option<PredictorImage> {
        self.inner.image()
    }

    fn restore_image(&mut self, image: &PredictorImage) -> Result<(), ImageError> {
        self.inner.restore_image(image)
    }
}

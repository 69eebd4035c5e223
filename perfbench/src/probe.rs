//! The host-drift probe: a fixed, memory-bound pointer chase owned by
//! the benchmark, so its time moves only with the host, never with the
//! code under test.

use std::time::{Duration, Instant};

/// Slots in the chased table (64 MiB of `u32`), well past any cache.
const SLOTS: usize = 1 << 24;
/// Dependent loads timed per probe.
const STEPS: u32 = 2_000_000;

/// Times [`STEPS`] dependent loads through a table whose links form one
/// full-period LCG cycle (`i -> 5i + 1 mod 2^24`, Hull–Dobell), so every
/// load depends on the previous one and lands on an unpredictable line.
pub fn run() -> Duration {
    let table: Vec<u32> = (0..SLOTS).map(|i| ((i * 5 + 1) % SLOTS) as u32).collect();
    let mut at = 0u32;
    let start = Instant::now();
    for _ in 0..STEPS {
        at = table[at as usize];
    }
    let elapsed = start.elapsed();
    std::hint::black_box(at);
    elapsed
}

//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by ±25% over
//! seconds to minutes, as neighbours load the same cores; a 10-s window
//! cannot average that out.  So every wall-clock and CPU time the benchmark
//! reports is scaled to a nominal host speed.  A fixed reference kernel,
//! owned by the benchmark and not by the program under test, is timed
//! between ops every [`INTERVAL`]; a time `t` measured while the kernel's
//! median duration was `r` is reported as `t · NOMINAL_NS / r`.  Host drift
//! moves the kernel and the program alike and cancels.  A program change
//! that moves the kernel too (its heap state, busy threads between ops,
//! evicted caches) is partly cancelled as well; it shows in the traced run's
//! `host.scale` and `raw.*` metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference kernel's duration at nominal host speed: its fastest
/// typical time on an otherwise idle 2-vCPU Xeon host.
pub const NOMINAL_NS: f64 = 200_000.0;

/// How often a window times the reference kernel.  At ≈0.2 ms a sample
/// this costs about 1% of a window, which the window's throughput and CPU
/// time leave out.
pub const INTERVAL: Duration = Duration::from_millis(20);

/// Integer work, branches, allocation and pointer chasing, like the
/// planner's and the migration planner's hot paths: sort 8192 pseudo-random
/// words and index every eighth in a `BTreeMap`.  It allocates from the
/// program's heap: a kernel on a heap region of its own tracked the host
/// worse (see `replanbench/README.md`).
fn reference_kernel() -> u64 {
    let mut state = black_box(0x1234_5678_u64);
    let mut words: Vec<u64> = (0..8192)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        })
        .collect();
    words.sort_unstable();
    let index: BTreeMap<u64, usize> = words.iter().step_by(8).copied().zip(0..).collect();
    index.values().sum::<usize>() as u64 ^ words[4096]
}

/// Samples the local host-speed estimate is the median of.
const LOCAL_SAMPLES: usize = 3;

/// Samples a phase keeps: the latest 1024, 20 s of a window.  Held inline,
/// so that timing the host allocates nothing.
const KEPT_SAMPLES: usize = 1024;

/// Reference-kernel timings taken over one phase of a run.
#[derive(Debug)]
pub struct Speed {
    /// The latest samples, ns, in a ring: sample `i` is at `i % KEPT_SAMPLES`.
    samples: [u64; KEPT_SAMPLES],
    taken: usize,
    spent: Duration,
    last: Option<Instant>,
    /// [`Speed::local_scale`], updated with each sample so that reading it
    /// per op costs nothing.
    local: f64,
}

impl Default for Speed {
    fn default() -> Self {
        Self::new()
    }
}

impl Speed {
    pub fn new() -> Self {
        Self {
            samples: [0; KEPT_SAMPLES],
            taken: 0,
            spent: Duration::ZERO,
            last: None,
            local: 1.0,
        }
    }

    /// Time the reference kernel once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(reference_kernel());
        let took = t0.elapsed();
        self.spent += took;
        self.record(took.as_nanos() as u64);
        self.last = Some(Instant::now());
    }

    /// Keep one kernel timing of `ns`.
    fn record(&mut self, ns: u64) {
        self.samples[self.taken % KEPT_SAMPLES] = ns;
        self.taken += 1;
        self.local = self.scale_of(LOCAL_SAMPLES);
    }

    /// Whether [`INTERVAL`] has passed since the last sample (or none was
    /// taken yet).
    pub fn due(&self) -> bool {
        self.last.is_none_or(|last| last.elapsed() >= INTERVAL)
    }

    /// Time the reference kernel if it is [`Speed::due`].
    pub fn tick(&mut self) {
        if self.due() {
            self.sample();
        }
    }

    /// Wall time spent in the reference kernel.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// The factor that scales a time measured over this phase to nominal
    /// host speed: below 1 on a host slower than nominal.
    pub fn scale(&self) -> f64 {
        self.scale_of(KEPT_SAMPLES)
    }

    /// The same factor from the latest [`LOCAL_SAMPLES`] samples only: the
    /// host's speed right now.
    pub fn local_scale(&self) -> f64 {
        self.local
    }

    /// `NOMINAL_NS` over the median of the latest `n` samples; 1 before the
    /// first sample.
    fn scale_of(&self, n: usize) -> f64 {
        let n = n.min(self.taken).min(KEPT_SAMPLES);
        if n == 0 {
            return 1.0;
        }
        let mut latest = [0; KEPT_SAMPLES];
        for (slot, i) in latest.iter_mut().zip(self.taken - n..self.taken) {
            *slot = self.samples[i % KEPT_SAMPLES];
        }
        let latest = &mut latest[..n];
        latest.sort_unstable();
        NOMINAL_NS / latest[n / 2] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
    }

    #[test]
    fn scale_is_nominal_over_the_median_sample() {
        let mut speed = Speed::new();
        assert_eq!(speed.scale(), 1.0);
        assert_eq!(speed.local_scale(), 1.0);
        for ns in [400_000, 100_000, 250_000, 200_000, 500_000] {
            speed.record(ns);
        }
        assert_eq!(speed.scale(), NOMINAL_NS / 250_000.0);
        // The latest three are 250, 200 and 500 µs.
        assert_eq!(speed.local_scale(), NOMINAL_NS / 250_000.0);
    }

    #[test]
    fn only_the_latest_samples_are_kept() {
        let mut speed = Speed::new();
        for i in 0..KEPT_SAMPLES + 10 {
            speed.record(if i < 10 { 1 } else { 100_000 });
        }
        assert_eq!(speed.scale(), 2.0);
    }

    #[test]
    fn sampling_times_the_kernel_at_most_once_per_interval() {
        let mut speed = Speed::new();
        speed.tick();
        speed.tick();
        assert_eq!(speed.taken, 1);
        assert!(speed.spent() > Duration::ZERO);
        std::thread::sleep(INTERVAL);
        speed.tick();
        assert_eq!(speed.taken, 2);
    }
}

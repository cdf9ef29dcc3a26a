//! The paper's 64-GPU LLaMA-110B testbed and the inputs drawn from the
//! seed.

use malleus_bench::{paper_workloads, PaperWorkload};
use malleus_cluster::{ClusterSnapshot, GpuId, PaperSituation};
use malleus_core::{Parallelism, PlanOutcome, Planner};
use malleus_wire::{Encoder, Wire};
use std::collections::HashSet;

/// Training iterations each straggler situation is held for when the
/// simulated goodput is computed.
pub const ITERATIONS_PER_EVENT: f64 = 100.0;

/// `paper_workloads()` "110B": 8 nodes × 8 GPUs, B = 64, default
/// `PlannerConfig`, with the planner pinned to one worker.
#[derive(Debug, Clone)]
pub struct Testbed {
    pub workload: PaperWorkload,
}

impl Testbed {
    pub fn new() -> Self {
        let workload = paper_workloads()
            .into_iter()
            .find(|w| w.label == "110B")
            .expect("paper_workloads() has the 110B testbed");
        Self { workload }
    }

    /// A fresh incremental planner (the default), one worker.
    pub fn planner(&self) -> Planner {
        self.workload
            .planner()
            .with_parallelism(Parallelism::Fixed(1))
    }

    /// A fresh full-enumeration planner: the serial oracle every adapted
    /// plan is checked against.
    pub fn oracle(&self) -> Planner {
        let mut planner = self.planner();
        planner.config.incremental = false;
        planner
    }

    pub fn snapshot(&self, situation: PaperSituation) -> ClusterSnapshot {
        self.workload.snapshot_for(situation)
    }
}

/// SplitMix64: the only source of randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// The paper's straggler trace (§7.1) as one cycle: Normal, S1 … S6, after
/// which the cluster returns to Normal.
pub fn paper_trace() -> Vec<PaperSituation> {
    std::iter::once(PaperSituation::Normal)
        .chain(PaperSituation::all())
        .collect()
}

/// Lowest and highest straggling rate a drift event draws: the range of the
/// paper's level-1 to level-3 stragglers, widened a little.
const DRIFT_RATES: (f64, f64) = (2.0, 6.0);

/// Drift events set-up replays before the seeded ones, as (GPU, rate):
/// the same in every run, so set-up time does not depend on the seed.
const WARMUP: [(u32, f64); 4] = [(0, 5.0), (8, 3.1), (0, 4.6), (8, 2.2)];

/// The replan-drift input stream: starting at S3, each event moves one of
/// the two S3 stragglers (GPU 0 or GPU 8) to a straggling rate never seen
/// before, more than the profiler's 5% away from its current rate.
#[derive(Debug, Clone)]
pub struct DriftInputs {
    rng: Rng,
    snapshot: ClusterSnapshot,
    seen: HashSet<u64>,
}

impl DriftInputs {
    pub fn new(seed: u64, s3: ClusterSnapshot) -> Self {
        let seen = s3.rates.iter().map(|r| r.to_bits()).collect();
        Self {
            rng: Rng::new(seed),
            snapshot: s3,
            seen,
        }
    }

    /// The snapshots after each of the fixed warm-up events.
    pub fn warm_up(&mut self) -> Vec<ClusterSnapshot> {
        WARMUP
            .iter()
            .map(|&(gpu, rate)| self.apply(GpuId(gpu), rate))
            .collect()
    }

    /// The snapshot after the next seeded event.
    pub fn next_snapshot(&mut self) -> ClusterSnapshot {
        let gpu = if self.rng.next_f64() < 0.5 {
            GpuId(0)
        } else {
            GpuId(8)
        };
        let current = self.snapshot.rate(gpu);
        let (lo, hi) = DRIFT_RATES;
        let rate = loop {
            let rate = lo + (hi - lo) * self.rng.next_f64();
            if (rate - current).abs() > 0.05 * current && !self.seen.contains(&rate.to_bits()) {
                break rate;
            }
        };
        self.apply(gpu, rate)
    }

    fn apply(&mut self, gpu: GpuId, rate: f64) -> ClusterSnapshot {
        debug_assert!((rate - self.snapshot.rate(gpu)).abs() > 0.05 * self.snapshot.rate(gpu));
        self.seen.insert(rate.to_bits());
        self.snapshot = self.snapshot.with_rate(gpu, rate);
        self.snapshot.clone()
    }
}

/// The decision part of an outcome as wire bytes: the plan, both
/// estimates, TP and DP.  Timing and the scored lattice are diagnostics
/// and left out.
pub fn decision_bytes(outcome: &PlanOutcome) -> Vec<u8> {
    let mut e = Encoder::new();
    outcome.plan.encode(&mut e);
    e.put_f64(outcome.estimated_step_time);
    e.put_f64(outcome.estimated_step_time_simplified);
    e.put_u32(outcome.chosen_tp);
    e.put_usize(outcome.dp);
    e.into_bytes()
}

/// Simulated goodput: global batch × iterations per event, over simulated
/// step time × iterations plus simulated migration time.  No wall-clock
/// term, so it moves only when plans change.
#[derive(Debug, Clone, Copy, Default)]
pub struct Goodput {
    samples: f64,
    sim_s: f64,
}

impl Goodput {
    pub fn add(&mut self, global_batch: u64, step_time_s: f64, migration_s: f64) {
        self.samples += global_batch as f64 * ITERATIONS_PER_EVENT;
        self.sim_s += step_time_s * ITERATIONS_PER_EVENT + migration_s;
    }

    pub fn samples_per_s(&self) -> f64 {
        self.samples / self.sim_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift_rates(seed: u64, n: usize) -> Vec<(GpuId, u64)> {
        let testbed = Testbed::new();
        let mut inputs = DriftInputs::new(seed, testbed.snapshot(PaperSituation::S3));
        let mut last = inputs.warm_up().pop().expect("set-up has warm-up events");
        (0..n)
            .map(|_| {
                let next = inputs.next_snapshot();
                let changed = (0..next.num_gpus())
                    .find(|&g| next.rates[g].to_bits() != last.rates[g].to_bits())
                    .expect("every event changes one rate");
                last = next;
                (GpuId(changed as u32), last.rates[changed].to_bits())
            })
            .collect()
    }

    #[test]
    fn drift_events_are_seeded_fresh_and_on_the_two_s3_stragglers() {
        let a = drift_rates(11, 200);
        assert_eq!(a, drift_rates(11, 200));
        let b = drift_rates(12, 200);
        assert_ne!(a, b, "another seed gives different rates");
        let mut seen = HashSet::new();
        for &(gpu, bits) in &a {
            assert!(gpu == GpuId(0) || gpu == GpuId(8));
            let rate = f64::from_bits(bits);
            assert!((DRIFT_RATES.0..DRIFT_RATES.1).contains(&rate));
            assert!(seen.insert(bits), "rate {rate} repeats");
            assert!(
                WARMUP.iter().all(|&(_, warm)| warm.to_bits() != bits),
                "rate {rate} repeats a warm-up rate"
            );
        }
    }
}

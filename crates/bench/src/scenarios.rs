//! Canonical experiment workloads (§7.1) and synthetic large-scale scenarios.
//!
//! The paper trains three LLaMA-2-architecture models: the 32B model on 32
//! GPUs (4 nodes) and the 70B / 110B models on 64 GPUs (8 nodes), with a
//! global batch of 64 sequences of 4K tokens.  Beyond the paper's testbed,
//! [`ScenarioMatrix`] generates deterministic 128/256/512-GPU clusters with
//! mixed straggler levels and whole-node failures, used by the
//! planning-scalability experiment and the parallel-planner benchmarks.

use malleus_cluster::{Cluster, ClusterSnapshot, GpuId, PaperSituation, StragglerLevel};
use malleus_core::{Planner, PlannerConfig};
use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};
use rand::prelude::*;
use rand::rngs::StdRng;

/// One of the paper's three end-to-end workloads.
#[derive(Debug, Clone)]
pub struct PaperWorkload {
    /// Short label (`"32B"`, `"70B"`, `"110B"`).
    pub label: &'static str,
    /// Model architecture.
    pub spec: ModelSpec,
    /// Number of 8-GPU nodes used for this workload.
    pub num_nodes: u32,
    /// Global batch size.
    pub global_batch_size: u64,
}

impl PaperWorkload {
    /// The simulated cluster for this workload (all GPUs healthy).
    pub fn cluster(&self) -> Cluster {
        Cluster::homogeneous(self.num_nodes, 8)
    }

    /// Profiled coefficients on A800-class hardware.
    pub fn coeffs(&self) -> ProfiledCoefficients {
        ProfiledCoefficients::derive(self.spec.clone(), HardwareParams::a800_cluster())
    }

    /// A Malleus planner with the default configuration for this workload.
    pub fn planner(&self) -> Planner {
        Planner::new(
            self.coeffs(),
            PlannerConfig {
                global_batch_size: self.global_batch_size,
                ..PlannerConfig::default()
            },
        )
    }

    /// Snapshot of the cluster under one of the paper's situations.
    pub fn snapshot_for(&self, situation: PaperSituation) -> ClusterSnapshot {
        let mut cluster = self.cluster();
        let sit = situation.situation(&cluster);
        cluster.apply_situation(&sit.rates);
        cluster.snapshot()
    }

    /// Total number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.num_nodes as usize * 8
    }
}

/// The three end-to-end workloads of §7.1.
pub fn paper_workloads() -> Vec<PaperWorkload> {
    vec![
        PaperWorkload {
            label: "32B",
            spec: ModelSpec::llama2_32b(),
            num_nodes: 4,
            global_batch_size: 64,
        },
        PaperWorkload {
            label: "70B",
            spec: ModelSpec::llama2_70b(),
            num_nodes: 8,
            global_batch_size: 64,
        },
        PaperWorkload {
            label: "110B",
            spec: ModelSpec::llama2_110b(),
            num_nodes: 8,
            global_batch_size: 64,
        },
    ]
}

/// A synthetic straggler scenario at a scale the paper never ran: a
/// homogeneous cluster with some whole nodes failed and a mix of level-1/2/3/8
/// stragglers scattered across the survivors, all derived deterministically
/// from a seed.
#[derive(Debug, Clone)]
pub struct SyntheticScenario {
    /// Short label (`"128-GPU"`, `"256-GPU"`, `"512-GPU"`).
    pub label: &'static str,
    /// Model architecture planned on this cluster.
    pub spec: ModelSpec,
    /// Number of 8-GPU nodes.
    pub num_nodes: u32,
    /// Whole nodes taken down (all 8 GPUs failed).
    pub failed_nodes: usize,
    /// Stragglers injected on surviving GPUs, cycling through levels
    /// 1 → 2 → 3 → 8.
    pub straggler_count: usize,
    /// Global batch size (scaled with the cluster, as in Appendix A.2).
    pub global_batch_size: u64,
    /// RNG seed; the same seed always yields the same cluster.
    pub seed: u64,
}

impl SyntheticScenario {
    /// Total number of GPUs (including failed ones).
    pub fn num_gpus(&self) -> usize {
        self.num_nodes as usize * 8
    }

    /// Build the degraded cluster for this scenario.
    pub fn cluster(&self) -> Cluster {
        let mut cluster = Cluster::homogeneous(self.num_nodes, 8);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut nodes: Vec<u32> = (0..self.num_nodes).collect();
        nodes.shuffle(&mut rng);
        for &node in nodes.iter().take(self.failed_nodes) {
            for gpu in cluster.gpus_on_node(node).to_vec() {
                cluster.set_rate(gpu, f64::INFINITY);
            }
        }
        let mut survivors: Vec<GpuId> = cluster
            .gpus()
            .iter()
            .map(|g| g.id)
            .filter(|&g| !cluster.is_failed(g))
            .collect();
        survivors.shuffle(&mut rng);
        for (i, gpu) in survivors.into_iter().take(self.straggler_count).enumerate() {
            let level = match i % 4 {
                0 => StragglerLevel::Level1,
                1 => StragglerLevel::Level2,
                2 => StragglerLevel::Level3,
                _ => StragglerLevel::Level8,
            };
            cluster.set_rate(gpu, level.rate());
        }
        cluster
    }

    /// Snapshot of the degraded cluster.
    pub fn snapshot(&self) -> ClusterSnapshot {
        self.cluster().snapshot()
    }

    /// Planner configuration: the Appendix A.2 scaling methodology (global
    /// batch grows linearly with the cluster), enumerating DP degrees around
    /// the maintained ZeRO-1 degree of 8 and micro-batches {1, 2}.
    pub fn planner_config(&self) -> PlannerConfig {
        PlannerConfig {
            global_batch_size: self.global_batch_size,
            candidate_micro_batch_sizes: vec![1, 2],
            candidate_dp: Some(vec![4, 8, 16]),
            ..PlannerConfig::default()
        }
    }

    /// A fresh planner for this scenario.
    pub fn planner(&self) -> Planner {
        let coeffs =
            ProfiledCoefficients::derive(self.spec.clone(), HardwareParams::a800_cluster());
        Planner::new(coeffs, self.planner_config())
    }
}

/// The matrix of synthetic large-scale scenarios exercised by
/// `exp_planning_scalability` and `planner_bench`.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// The scenarios, ordered by cluster size.
    pub scenarios: Vec<SyntheticScenario>,
}

impl ScenarioMatrix {
    /// 128/256/512-GPU clusters on the 110B model with mixed straggler levels
    /// and node failures.
    pub fn large_scale() -> Self {
        let spec = ModelSpec::llama2_110b();
        Self {
            scenarios: vec![
                SyntheticScenario {
                    label: "128-GPU",
                    spec: spec.clone(),
                    num_nodes: 16,
                    failed_nodes: 1,
                    straggler_count: 8,
                    global_batch_size: 128,
                    seed: 128,
                },
                SyntheticScenario {
                    label: "256-GPU",
                    spec: spec.clone(),
                    num_nodes: 32,
                    failed_nodes: 2,
                    straggler_count: 16,
                    global_batch_size: 256,
                    seed: 256,
                },
                SyntheticScenario {
                    label: "512-GPU",
                    spec,
                    num_nodes: 64,
                    failed_nodes: 3,
                    straggler_count: 24,
                    global_batch_size: 512,
                    seed: 512,
                },
            ],
        }
    }

    /// Look up a scenario by label.
    pub fn get(&self, label: &str) -> Option<&SyntheticScenario> {
        self.scenarios.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_the_paper_setup() {
        let w = paper_workloads();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].num_gpus(), 32);
        assert_eq!(w[1].num_gpus(), 64);
        assert_eq!(w[2].num_gpus(), 64);
        assert!(w.iter().all(|w| w.global_batch_size == 64));
    }

    #[test]
    fn snapshots_apply_situations() {
        let w = &paper_workloads()[0];
        let s = w.snapshot_for(PaperSituation::S4);
        assert_eq!(s.stragglers(1.05).len(), 3);
    }

    #[test]
    fn scenario_matrix_covers_the_advertised_scales() {
        let matrix = ScenarioMatrix::large_scale();
        let sizes: Vec<usize> = matrix.scenarios.iter().map(|s| s.num_gpus()).collect();
        assert_eq!(sizes, vec![128, 256, 512]);
        assert!(matrix.get("256-GPU").is_some());
        assert!(matrix.get("1024-GPU").is_none());
    }

    #[test]
    fn synthetic_scenarios_are_deterministic_per_seed() {
        let matrix = ScenarioMatrix::large_scale();
        for scenario in &matrix.scenarios {
            let a = scenario.snapshot();
            let b = scenario.snapshot();
            assert_eq!(a, b, "{} must be reproducible", scenario.label);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn synthetic_scenarios_inject_failures_and_mixed_stragglers() {
        let scenario = ScenarioMatrix::large_scale()
            .get("256-GPU")
            .cloned()
            .expect("256-GPU scenario");
        let snapshot = scenario.snapshot();
        let failed = snapshot.rates.iter().filter(|r| r.is_infinite()).count();
        assert_eq!(failed, scenario.failed_nodes * 8);
        let finite_stragglers = snapshot
            .rates
            .iter()
            .filter(|r| r.is_finite() && **r > 1.05)
            .count();
        assert_eq!(finite_stragglers, scenario.straggler_count);
        // Mixed severities: at least three distinct straggling rates.
        let mut rates: Vec<u64> = snapshot
            .rates
            .iter()
            .filter(|r| r.is_finite() && **r > 1.05)
            .map(|r| r.to_bits())
            .collect();
        rates.sort_unstable();
        rates.dedup();
        assert!(rates.len() >= 3, "straggler mix too uniform: {rates:?}");
    }
}

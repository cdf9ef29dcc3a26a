//! DeepSpeed-style ZeRO-3 (fully-sharded data parallel) baseline.
//!
//! Configuration search mirrors Table 7: the tunables are the Ulysses
//! sequence-parallel degree, the micro-batch size and activation
//! checkpointing.  The execution model lives in `malleus-sim::zero3`.

use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_core::PlanError;
use malleus_model::ProfiledCoefficients;
use malleus_sim::{simulate_zero3_step, Zero3Config};
use serde::{Deserialize, Serialize};

/// A concrete DeepSpeed configuration (cf. Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeepSpeedConfig {
    /// Data-parallel group count (GPUs / sequence-parallel degree).
    pub dp: usize,
    /// Ulysses sequence-parallel degree.
    pub sequence_parallel: u32,
    /// Micro-batch size.
    pub micro_batch_size: u64,
    /// Whether activation checkpointing is enabled.
    pub activation_checkpointing: bool,
}

impl std::fmt::Display for DeepSpeedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DP{}SP{}{}, mbs{}",
            self.dp,
            self.sequence_parallel,
            if self.activation_checkpointing {
                "+AC"
            } else {
                ""
            },
            self.micro_batch_size
        )
    }
}

impl DeepSpeedConfig {
    /// Convert to the simulator's configuration struct.
    pub fn zero3(&self) -> Zero3Config {
        Zero3Config {
            sequence_parallel: self.sequence_parallel,
            micro_batch_size: self.micro_batch_size,
            activation_checkpointing: self.activation_checkpointing,
        }
    }
}

/// Planner/searcher for the DeepSpeed baseline.
#[derive(Debug, Clone)]
pub struct DeepSpeedPlanner {
    /// Profiled coefficients.
    pub coeffs: ProfiledCoefficients,
    /// Global batch size.
    pub global_batch_size: u64,
}

impl DeepSpeedPlanner {
    /// Create a planner.
    pub fn new(coeffs: ProfiledCoefficients, global_batch_size: u64) -> Self {
        Self {
            coeffs,
            global_batch_size,
        }
    }

    /// Search the best configuration for the given GPU set on a healthy
    /// cluster.  Returns the configuration and its healthy step time.  An
    /// empty GPU set reports [`PlanError::NoUsableGpus`], a search with no
    /// memory-feasible setting [`PlanError::InfeasibleConfiguration`].
    pub fn search(
        &self,
        snapshot: &ClusterSnapshot,
        gpus: &[GpuId],
    ) -> Result<(DeepSpeedConfig, f64), PlanError> {
        if gpus.is_empty() {
            return Err(PlanError::NoUsableGpus);
        }
        let healthy = ClusterSnapshot {
            num_nodes: snapshot.num_nodes,
            node_of: snapshot.node_of.clone(),
            rates: vec![1.0; snapshot.num_gpus()],
        };
        let n = gpus.len();
        let mut best: Option<(DeepSpeedConfig, f64)> = None;
        for sp in [1u32, 2, 4, 8] {
            if !n.is_multiple_of(sp as usize) {
                continue;
            }
            let dp = n / sp as usize;
            for mbs in [1u64, 2, 4, 6, 8] {
                for ac in [false, true] {
                    let config = DeepSpeedConfig {
                        dp,
                        sequence_parallel: sp,
                        micro_batch_size: mbs,
                        activation_checkpointing: ac,
                    };
                    let Some(report) = simulate_zero3_step(
                        &self.coeffs,
                        &healthy,
                        gpus,
                        self.global_batch_size,
                        &config.zero3(),
                    ) else {
                        continue;
                    };
                    if !report.memory_feasible {
                        continue;
                    }
                    if best
                        .as_ref()
                        .map(|(_, t)| report.step_time < *t)
                        .unwrap_or(true)
                    {
                        best = Some((config, report.step_time));
                    }
                }
            }
        }
        best.ok_or_else(|| PlanError::InfeasibleConfiguration {
            backend: "deepspeed".into(),
            reason: format!(
                "no SP×mbs setting over {n} GPUs is memory-feasible for batch {}",
                self.global_batch_size
            ),
        })
    }

    /// Simulate one step with a fixed configuration under the given straggler
    /// situation.  Returns `None` when the configuration cannot run (e.g. a
    /// participating GPU has failed).
    pub fn simulate_step(
        &self,
        snapshot: &ClusterSnapshot,
        gpus: &[GpuId],
        config: &DeepSpeedConfig,
    ) -> Option<f64> {
        simulate_zero3_step(
            &self.coeffs,
            snapshot,
            gpus,
            self.global_batch_size,
            &config.zero3(),
        )
        .map(|r| r.step_time)
    }

    /// Simulated MFU on a healthy cluster.
    pub fn mfu(
        &self,
        snapshot: &ClusterSnapshot,
        gpus: &[GpuId],
        config: &DeepSpeedConfig,
    ) -> Option<f64> {
        simulate_zero3_step(
            &self.coeffs,
            snapshot,
            gpus,
            self.global_batch_size,
            &config.zero3(),
        )
        .map(|r| r.mfu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::Cluster;
    use malleus_model::{HardwareParams, ModelSpec};

    fn planner(spec: ModelSpec) -> DeepSpeedPlanner {
        DeepSpeedPlanner::new(
            ProfiledCoefficients::derive(spec, HardwareParams::a800_cluster()),
            64,
        )
    }

    fn gpu_ids(n: u32) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn search_finds_feasible_config_for_70b() {
        let p = planner(ModelSpec::llama2_70b());
        let cluster = Cluster::paper_testbed();
        let (config, time) = p.search(&cluster.snapshot(), &gpu_ids(64)).expect("config");
        assert_eq!(config.dp * config.sequence_parallel as usize, 64);
        assert!(time > 1.0 && time < 120.0, "step {time}");
    }

    #[test]
    fn deepspeed_is_more_straggler_sensitive_than_its_healthy_time() {
        let p = planner(ModelSpec::llama2_70b());
        let mut cluster = Cluster::paper_testbed();
        let (config, healthy) = p.search(&cluster.snapshot(), &gpu_ids(64)).unwrap();
        cluster.set_rate(GpuId(0), 5.42);
        let straggled = p
            .simulate_step(&cluster.snapshot(), &gpu_ids(64), &config)
            .unwrap();
        assert!(straggled / healthy > 2.0, "{straggled} vs {healthy}");
    }

    #[test]
    fn display_matches_paper_notation() {
        let c = DeepSpeedConfig {
            dp: 32,
            sequence_parallel: 2,
            micro_batch_size: 2,
            activation_checkpointing: true,
        };
        assert_eq!(c.to_string(), "DP32SP2+AC, mbs2");
    }

    #[test]
    fn degenerate_inputs_yield_typed_errors() {
        let p = planner(ModelSpec::llama2_110b());
        let snapshot = Cluster::homogeneous(1, 8).snapshot();
        assert_eq!(p.search(&snapshot, &[]), Err(PlanError::NoUsableGpus));
        // One GPU cannot shard a 110B model's optimizer state alone.
        match p.search(&snapshot, &gpu_ids(1)) {
            Err(PlanError::InfeasibleConfiguration { backend, .. }) => {
                assert_eq!(backend, "deepspeed");
            }
            other => panic!("expected InfeasibleConfiguration, got {other:?}"),
        }
    }

    #[test]
    fn failed_gpu_prevents_execution() {
        let p = planner(ModelSpec::llama2_7b());
        let mut cluster = Cluster::paper_testbed();
        let (config, _) = p.search(&cluster.snapshot(), &gpu_ids(64)).unwrap();
        cluster.set_rate(GpuId(3), f64::INFINITY);
        assert!(p
            .simulate_step(&cluster.snapshot(), &gpu_ids(64), &config)
            .is_none());
    }
}

//! Megatron-LM-style uniform 3D parallelism.
//!
//! Megatron-LM partitions the cluster into a `DP × PP × TP` grid, splits the
//! model layers evenly across pipeline stages and the global batch evenly
//! across data-parallel replicas.  The configuration is tuned for the healthy
//! cluster and never adapts to stragglers, so when one appears the whole job is
//! gated by the slowest participant — this is the behaviour Table 2 measures.

use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_core::{CostModel, ParallelizationPlan, PlanError};
use malleus_model::ProfiledCoefficients;
use malleus_sim::TrainingSimulator;
use serde::{Deserialize, Serialize};

/// A concrete Megatron-LM parallel configuration (cf. Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MegatronConfig {
    /// Data-parallel degree.
    pub dp: usize,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Pipeline-parallel degree.
    pub pp: usize,
    /// Micro-batch size.
    pub micro_batch_size: u64,
    /// Whether activation checkpointing is required to fit in memory.
    pub activation_checkpointing: bool,
}

impl std::fmt::Display for MegatronConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DP{}TP{}PP{}{}, mbs{}",
            self.dp,
            self.tp,
            self.pp,
            if self.activation_checkpointing {
                "+AC"
            } else {
                ""
            },
            self.micro_batch_size
        )
    }
}

/// Planner/searcher for uniform Megatron-LM configurations.
#[derive(Debug, Clone)]
pub struct MegatronPlanner {
    /// Profiled coefficients (shared with Malleus for a fair comparison).
    pub coeffs: ProfiledCoefficients,
    /// Global batch size.
    pub global_batch_size: u64,
    /// GPUs per node (TP must stay within a node).
    pub gpus_per_node: u32,
}

/// Extra compute factor paid when activation checkpointing recomputes the
/// forward pass during backward (4 passes instead of 3).
pub const ACTIVATION_CHECKPOINT_SLOWDOWN: f64 = 4.0 / 3.0;

impl MegatronPlanner {
    /// Create a planner.
    pub fn new(coeffs: ProfiledCoefficients, global_batch_size: u64, gpus_per_node: u32) -> Self {
        Self {
            coeffs,
            global_batch_size,
            gpus_per_node,
        }
    }

    fn cost_with_ac(&self, activation_checkpointing: bool) -> CostModel {
        let mut coeffs = self.coeffs.clone();
        if activation_checkpointing {
            coeffs.memory = malleus_model::MemoryModel::with_activation_checkpointing();
        }
        CostModel::new(coeffs)
    }

    /// Build the uniform plan for a given configuration over the given GPUs,
    /// returning `None` if the configuration is structurally or memory
    /// infeasible.
    pub fn plan_with_config(
        &self,
        gpus: &[GpuId],
        config: &MegatronConfig,
    ) -> Option<ParallelizationPlan> {
        let needed = config.dp * config.pp * config.tp as usize;
        if needed > gpus.len() || config.tp > self.gpus_per_node {
            return None;
        }
        if !self
            .global_batch_size
            .is_multiple_of(config.dp as u64 * config.micro_batch_size)
        {
            return None;
        }
        let plan = ParallelizationPlan::uniform(
            gpus,
            config.dp,
            config.pp,
            config.tp,
            self.coeffs.spec.num_layers,
            self.global_batch_size,
            config.micro_batch_size,
        )
        .ok()?;
        let cost = self.cost_with_ac(config.activation_checkpointing);
        if !cost.memory_feasible(&plan) {
            return None;
        }
        Some(plan)
    }

    /// Search the best configuration for a healthy cluster of `gpus` devices,
    /// exactly like an engineer tuning Megatron-LM offline (the paper tunes the
    /// baselines per task, Tables 6–7).  Returns the configuration, its plan
    /// and the simulated healthy step time.  An empty GPU set reports
    /// [`PlanError::NoUsableGpus`], an exhausted configuration grid
    /// [`PlanError::InfeasibleConfiguration`].
    pub fn search(
        &self,
        gpus: &[GpuId],
    ) -> Result<(MegatronConfig, ParallelizationPlan, f64), PlanError> {
        if gpus.is_empty() {
            return Err(PlanError::NoUsableGpus);
        }
        let n = gpus.len();
        // The snapshot must be indexable by the *global* GPU ids appearing in
        // the plan (the GPU set may be a subset of the cluster, e.g. after
        // excluding straggling nodes).
        let universe = gpus.iter().map(|g| g.index() + 1).max().unwrap_or(0);
        let healthy = ClusterSnapshot {
            num_nodes: universe.div_ceil(self.gpus_per_node as usize),
            node_of: (0..universe)
                .map(|i| (i / self.gpus_per_node as usize) as u32)
                .collect(),
            rates: vec![1.0; universe],
        };
        let mut best: Option<(MegatronConfig, ParallelizationPlan, f64)> = None;
        for tp in [1u32, 2, 4, 8] {
            if tp > self.gpus_per_node {
                continue;
            }
            for pp in 1..=(n / tp as usize).min(self.coeffs.spec.num_layers as usize) {
                let denom = tp as usize * pp;
                if !n.is_multiple_of(denom) {
                    continue;
                }
                let dp = n / denom;
                if !self.global_batch_size.is_multiple_of(dp as u64) {
                    continue;
                }
                for mbs in [1u64, 2, 4, 8] {
                    for ac in [false, true] {
                        let config = MegatronConfig {
                            dp,
                            tp,
                            pp,
                            micro_batch_size: mbs,
                            activation_checkpointing: ac,
                        };
                        let Some(plan) = self.plan_with_config(gpus, &config) else {
                            continue;
                        };
                        let Some(time) = self.simulate_step(&plan, &healthy, ac) else {
                            continue;
                        };
                        if best.as_ref().map(|(_, _, t)| time < *t).unwrap_or(true) {
                            best = Some((config, plan, time));
                        }
                        // Prefer the cheaper non-AC variant when both fit.
                        if !ac {
                            break;
                        }
                    }
                }
            }
        }
        best.ok_or_else(|| PlanError::InfeasibleConfiguration {
            backend: "megatron".into(),
            reason: format!(
                "no DP×TP×PP configuration over {n} GPUs fits batch {} in memory",
                self.global_batch_size
            ),
        })
    }

    /// Whether [`Self::search`] would have chosen activation checkpointing for
    /// this plan: the search prefers the cheaper non-AC variant and only
    /// enables AC when the plan does not fit in memory without it.
    pub fn requires_activation_checkpointing(&self, plan: &ParallelizationPlan) -> bool {
        !CostModel::new(self.coeffs.clone()).memory_feasible(plan)
    }

    /// Simulate one step of a uniform plan under a straggler situation.
    pub fn simulate_step(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
        activation_checkpointing: bool,
    ) -> Option<f64> {
        let mut coeffs = self.coeffs.clone();
        if activation_checkpointing {
            coeffs.memory = malleus_model::MemoryModel::with_activation_checkpointing();
        }
        let sim = TrainingSimulator::new(coeffs);
        let report = sim.step(plan, snapshot).ok()?;
        let factor = if activation_checkpointing {
            ACTIVATION_CHECKPOINT_SLOWDOWN
        } else {
            1.0
        };
        Some(report.step_time * factor)
    }

    /// Simulated MFU of a plan on a healthy cluster (reported in Table 2).
    pub fn mfu(&self, plan: &ParallelizationPlan, snapshot: &ClusterSnapshot) -> Option<f64> {
        let sim = TrainingSimulator::new(self.coeffs.clone());
        sim.step(plan, snapshot).ok().map(|r| r.mfu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::Cluster;
    use malleus_model::{HardwareParams, ModelSpec};

    fn planner(spec: ModelSpec, batch: u64) -> MegatronPlanner {
        MegatronPlanner::new(
            ProfiledCoefficients::derive(spec, HardwareParams::a800_cluster()),
            batch,
            8,
        )
    }

    fn gpu_ids(n: u32) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn search_finds_a_feasible_config_for_32b_on_32_gpus() {
        let p = planner(ModelSpec::llama2_32b(), 64);
        let (config, plan, time) = p.search(&gpu_ids(32)).expect("config");
        assert_eq!(config.dp * config.pp * config.tp as usize, 32);
        plan.validate(60, 64).unwrap();
        assert!(time > 1.0 && time < 60.0, "step {time}");
    }

    #[test]
    fn search_finds_a_feasible_config_for_110b_on_64_gpus() {
        // The paper's tuned config is DP2 TP8 PP4; our search should find
        // something with a comparable TP degree (the 110B model cannot fit with
        // tiny TP without activation checkpointing everywhere).
        let p = planner(ModelSpec::llama2_110b(), 64);
        let (config, plan, _) = p.search(&gpu_ids(64)).expect("config");
        assert!(config.tp >= 4, "chose {config}");
        plan.validate(80, 64).unwrap();
    }

    #[test]
    fn straggler_slows_uniform_plan_by_roughly_its_rate() {
        let p = planner(ModelSpec::llama2_32b(), 64);
        let (config, plan, healthy_time) = p.search(&gpu_ids(32)).unwrap();
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 5.42);
        let straggled = p
            .simulate_step(&plan, &cluster.snapshot(), config.activation_checkpointing)
            .unwrap();
        let slowdown = straggled / healthy_time;
        assert!(slowdown > 2.5, "slowdown {slowdown}");
        assert!(slowdown < 6.0, "slowdown {slowdown}");
    }

    #[test]
    fn infeasible_configs_are_rejected() {
        let p = planner(ModelSpec::llama2_110b(), 64);
        // TP1/PP1/DP64 cannot hold a 110B model on one GPU.
        let config = MegatronConfig {
            dp: 64,
            tp: 1,
            pp: 1,
            micro_batch_size: 1,
            activation_checkpointing: false,
        };
        assert!(p.plan_with_config(&gpu_ids(64), &config).is_none());
        // TP16 exceeds the node size.
        let config = MegatronConfig {
            dp: 2,
            tp: 16,
            pp: 2,
            micro_batch_size: 1,
            activation_checkpointing: false,
        };
        assert!(p.plan_with_config(&gpu_ids(64), &config).is_none());
    }

    #[test]
    fn degenerate_inputs_yield_typed_errors() {
        let p = planner(ModelSpec::llama2_110b(), 64);
        assert_eq!(p.search(&[]), Err(PlanError::NoUsableGpus));
        // A single GPU cannot hold the 110B model under any configuration.
        match p.search(&gpu_ids(1)) {
            Err(PlanError::InfeasibleConfiguration { backend, .. }) => {
                assert_eq!(backend, "megatron");
            }
            other => panic!("expected InfeasibleConfiguration, got {other:?}"),
        }
    }

    #[test]
    fn config_display_matches_paper_notation() {
        let config = MegatronConfig {
            dp: 2,
            tp: 8,
            pp: 4,
            micro_batch_size: 1,
            activation_checkpointing: true,
        };
        assert_eq!(config.to_string(), "DP2TP8PP4+AC, mbs1");
    }
}

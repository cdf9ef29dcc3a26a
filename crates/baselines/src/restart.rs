//! The "w/ Restart" baselines: exclude straggling nodes, re-tune the parallel
//! configuration and restart the job from a checkpoint (§7.2).
//!
//! This is the manual remediation the paper contrasts against Malleus: it
//! removes stragglers at *node* granularity (wasting the healthy GPUs that
//! share a node with a straggler), needs a fresh configuration search for every
//! new node count (Tables 6–7) and pays a restart overhead of minutes.

use crate::deepspeed::DeepSpeedPlanner;
use crate::megatron::MegatronPlanner;
use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_core::{PlanError, DEFAULT_STRAGGLER_THRESHOLD};
use malleus_model::ProfiledCoefficients;
use malleus_sim::restart_time;
use serde::{Deserialize, Serialize};

/// Nodes that contain no straggling GPU (rate above `threshold`).
pub fn nodes_without_stragglers(snapshot: &ClusterSnapshot, threshold: f64) -> Vec<u32> {
    (0..snapshot.num_nodes as u32)
        .filter(|&node| {
            snapshot
                .gpus_on_node(node)
                .iter()
                .all(|g| snapshot.rate(*g) <= threshold)
        })
        .collect()
}

/// GPUs hosted on the given nodes, in id order.
pub fn gpus_on_nodes(snapshot: &ClusterSnapshot, nodes: &[u32]) -> Vec<GpuId> {
    let mut gpus: Vec<GpuId> = nodes
        .iter()
        .flat_map(|&n| snapshot.gpus_on_node(n))
        .collect();
    gpus.sort();
    gpus
}

/// Which baseline family a restart planner retunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestartFamily {
    /// Megatron-LM (3D parallel).
    Megatron,
    /// DeepSpeed (ZeRO-3).
    DeepSpeed,
}

/// Outcome of handling one straggler situation with the restart strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestartOutcome {
    /// Nodes kept in the job.
    pub nodes_used: Vec<u32>,
    /// Human-readable configuration chosen after the restart.
    pub config: String,
    /// Step time after the restart (stragglers excluded).
    pub step_time: f64,
    /// One-off restart cost (checkpoint save + re-init + load), seconds.
    pub restart_cost: f64,
    /// Whether a restart was actually needed (the node set changed).
    pub restarted: bool,
}

/// Restart-based straggler handling for either baseline family.
#[derive(Debug, Clone)]
pub struct RestartPlanner {
    /// Which baseline is being restarted.
    pub family: RestartFamily,
    /// Profiled coefficients.
    pub coeffs: ProfiledCoefficients,
    /// Global batch size.
    pub global_batch_size: u64,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Straggler detection threshold.
    pub threshold: f64,
}

impl RestartPlanner {
    /// Create a restart planner.
    pub fn new(
        family: RestartFamily,
        coeffs: ProfiledCoefficients,
        global_batch_size: u64,
        gpus_per_node: u32,
    ) -> Self {
        Self {
            family,
            coeffs,
            global_batch_size,
            gpus_per_node,
            threshold: DEFAULT_STRAGGLER_THRESHOLD,
        }
    }

    /// Handle a straggler situation: exclude straggling nodes, re-tune, and
    /// report the resulting step time plus the restart cost.  `previous_nodes`
    /// is the node set used before the situation changed (to detect whether a
    /// restart is needed at all).  An all-straggler cluster reports
    /// [`PlanError::NoHealthyNodes`], an exhausted configuration search
    /// [`PlanError::InfeasibleConfiguration`].
    pub fn handle_situation(
        &self,
        snapshot: &ClusterSnapshot,
        previous_nodes: Option<&[u32]>,
    ) -> Result<RestartOutcome, PlanError> {
        let nodes = nodes_without_stragglers(snapshot, self.threshold);
        if nodes.is_empty() {
            return Err(PlanError::NoHealthyNodes);
        }
        // A failed re-tune is this restart backend's infeasibility, whatever
        // the inner search reported.
        let infeasible = || PlanError::InfeasibleConfiguration {
            backend: match self.family {
                RestartFamily::Megatron => "megatron-restart",
                RestartFamily::DeepSpeed => "deepspeed-restart",
            }
            .into(),
            reason: format!(
                "no tuned configuration over {} straggler-free nodes is feasible",
                nodes.len()
            ),
        };
        let restarted = previous_nodes
            .map(|p| p != nodes.as_slice())
            .unwrap_or(false);
        let gpus = gpus_on_nodes(snapshot, &nodes);
        // After excluding straggling nodes the remaining GPUs are all healthy,
        // so simulate on an all-healthy snapshot restricted to those GPUs.
        let healthy = ClusterSnapshot {
            num_nodes: snapshot.num_nodes,
            node_of: snapshot.node_of.clone(),
            rates: vec![1.0; snapshot.num_gpus()],
        };
        let restart_cost = if restarted {
            restart_time(&self.coeffs, nodes.len())
        } else {
            0.0
        };
        match self.family {
            RestartFamily::Megatron => {
                let planner = MegatronPlanner::new(
                    self.coeffs.clone(),
                    self.global_batch_size,
                    self.gpus_per_node,
                );
                let (config, plan, _) = planner.search(&gpus).map_err(|_| infeasible())?;
                let step_time = planner
                    .simulate_step(&plan, &healthy, config.activation_checkpointing)
                    .ok_or_else(infeasible)?;
                Ok(RestartOutcome {
                    nodes_used: nodes,
                    config: config.to_string(),
                    step_time,
                    restart_cost,
                    restarted,
                })
            }
            RestartFamily::DeepSpeed => {
                let planner = DeepSpeedPlanner::new(self.coeffs.clone(), self.global_batch_size);
                let (config, step_time) =
                    planner.search(&healthy, &gpus).map_err(|_| infeasible())?;
                Ok(RestartOutcome {
                    nodes_used: nodes,
                    config: config.to_string(),
                    step_time,
                    restart_cost,
                    restarted,
                })
            }
        }
    }

    /// The tuned configuration table across node counts (reproduces the shape
    /// of Tables 6–7: one entry per distinct number of excluded nodes).
    pub fn config_table(
        &self,
        snapshot: &ClusterSnapshot,
        excluded_node_counts: &[usize],
    ) -> Vec<(usize, String)> {
        let mut rows = Vec::new();
        for &excluded in excluded_node_counts {
            if excluded >= snapshot.num_nodes {
                continue;
            }
            let nodes: Vec<u32> = (excluded as u32..snapshot.num_nodes as u32).collect();
            let gpus = gpus_on_nodes(snapshot, &nodes);
            let healthy = ClusterSnapshot {
                num_nodes: snapshot.num_nodes,
                node_of: snapshot.node_of.clone(),
                rates: vec![1.0; snapshot.num_gpus()],
            };
            let config = match self.family {
                RestartFamily::Megatron => MegatronPlanner::new(
                    self.coeffs.clone(),
                    self.global_batch_size,
                    self.gpus_per_node,
                )
                .search(&gpus)
                .map(|(c, _, _)| c.to_string()),
                RestartFamily::DeepSpeed => {
                    DeepSpeedPlanner::new(self.coeffs.clone(), self.global_batch_size)
                        .search(&healthy, &gpus)
                        .map(|(c, _)| c.to_string())
                }
            };
            rows.push((
                excluded,
                config.unwrap_or_else(|_| "infeasible".to_string()),
            ));
        }
        rows
    }
}

pub use RestartFamily::{DeepSpeed, Megatron};

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, PaperSituation};
    use malleus_model::{HardwareParams, ModelSpec};

    fn snapshot_for(situation: PaperSituation) -> ClusterSnapshot {
        let mut cluster = Cluster::homogeneous(4, 8);
        let sit = situation.situation(&cluster);
        cluster.apply_situation(&sit.rates);
        cluster.snapshot()
    }

    #[test]
    fn straggling_nodes_are_identified() {
        let s = snapshot_for(PaperSituation::S3);
        // S3 places stragglers on nodes 0 and 1.
        assert_eq!(nodes_without_stragglers(&s, 1.05), vec![2, 3]);
        let healthy = snapshot_for(PaperSituation::Normal);
        assert_eq!(nodes_without_stragglers(&healthy, 1.05).len(), 4);
    }

    #[test]
    fn restart_excludes_straggling_nodes_and_pays_overhead() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let planner = RestartPlanner::new(RestartFamily::Megatron, coeffs, 64, 8);
        let s = snapshot_for(PaperSituation::S1);
        let outcome = planner
            .handle_situation(&s, Some(&[0, 1, 2, 3]))
            .expect("outcome");
        assert_eq!(outcome.nodes_used, vec![1, 2, 3]);
        assert!(outcome.restarted);
        assert!(
            outcome.restart_cost > 60.0,
            "restart {}",
            outcome.restart_cost
        );
        assert!(outcome.step_time > 1.0);
    }

    #[test]
    fn no_restart_when_node_set_is_unchanged() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let planner = RestartPlanner::new(RestartFamily::Megatron, coeffs, 64, 8);
        let s = snapshot_for(PaperSituation::S1);
        let outcome = planner.handle_situation(&s, Some(&[1, 2, 3])).unwrap();
        assert!(!outcome.restarted);
        assert_eq!(outcome.restart_cost, 0.0);
    }

    #[test]
    fn deepspeed_restart_also_works() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let planner = RestartPlanner::new(RestartFamily::DeepSpeed, coeffs, 64, 8);
        let s = snapshot_for(PaperSituation::S2);
        let outcome = planner.handle_situation(&s, None).unwrap();
        assert!(outcome.config.starts_with("DP"));
        assert!(outcome.step_time > 1.0);
    }

    #[test]
    fn degenerate_snapshots_yield_typed_errors() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let planner = RestartPlanner::new(RestartFamily::Megatron, coeffs, 64, 8);
        // Every node hosts a straggler: nothing survives node-level exclusion.
        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(0), 1.5);
        cluster.set_rate(GpuId(8), f64::INFINITY);
        let err = planner
            .handle_situation(&cluster.snapshot(), None)
            .unwrap_err();
        assert_eq!(err, PlanError::NoHealthyNodes);
        // A zero-GPU cluster has no healthy nodes either.
        let empty = ClusterSnapshot {
            num_nodes: 0,
            node_of: vec![],
            rates: vec![],
        };
        assert_eq!(
            planner.handle_situation(&empty, None).unwrap_err(),
            PlanError::NoHealthyNodes
        );
    }

    #[test]
    fn config_table_has_one_row_per_node_count() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let planner = RestartPlanner::new(RestartFamily::Megatron, coeffs, 64, 8);
        let s = snapshot_for(PaperSituation::Normal);
        let table = planner.config_table(&s, &[0, 1, 2, 3]);
        assert_eq!(table.len(), 4);
        assert!(table
            .iter()
            .all(|(_, c)| c.contains("TP") || c == "infeasible"));
    }
}

//! Oobleck-style fault-tolerant baseline (Figure 8).
//!
//! Oobleck (SOSP'23) prepares a set of *pipeline templates* ahead of time and
//! reconfigures among them when nodes fail.  Used for straggler mitigation (by
//! treating stragglers as faults), it has two structural handicaps the paper
//! measures:
//!
//! 1. it pays a standing efficiency tax even with no stragglers, because its
//!    parallelization is constrained to fault-tolerant templates rather than
//!    the throughput-optimal configuration;
//! 2. it can only migrate between precomputed templates — node counts outside
//!    the covered range, or re-admitting recovered nodes, force a full restart.

use crate::megatron::MegatronPlanner;
use crate::restart::{gpus_on_nodes, nodes_without_stragglers};
use malleus_cluster::ClusterSnapshot;
use malleus_core::{PlanError, DEFAULT_STRAGGLER_THRESHOLD};
use malleus_model::ProfiledCoefficients;
use malleus_sim::restart_time;
use serde::{Deserialize, Serialize};

/// How Oobleck handled a change in the straggler situation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OobleckTransition {
    /// The node set did not change; keep training.
    NoChange,
    /// Reconfigured by instantiating a smaller precomputed template.
    Migrated,
    /// No covering template exists (or nodes must be re-admitted); restart.
    Restarted,
}

/// Outcome of one Oobleck phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OobleckOutcome {
    /// Nodes participating after the transition.
    pub nodes_used: Vec<u32>,
    /// Step time during the phase.
    pub step_time: f64,
    /// How the transition was handled.
    pub transition: OobleckTransition,
    /// One-off transition cost in seconds (migration or restart).
    pub transition_cost: f64,
}

/// Oobleck baseline planner.
#[derive(Debug, Clone)]
pub struct OobleckPlanner {
    /// Profiled coefficients.
    pub coeffs: ProfiledCoefficients,
    /// Global batch size.
    pub global_batch_size: u64,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Standing efficiency tax of the fault-tolerant parallelization (Figure 8
    /// measures Oobleck at 1.8–2.5× the step time of Malleus).
    pub overhead_factor: f64,
    /// Templates cover losing up to this many nodes from the initial set.
    pub template_depth: usize,
    /// Straggler detection threshold.
    pub threshold: f64,
    /// Time of one template-based reconfiguration (migration), seconds.
    pub migration_seconds: f64,
}

impl OobleckPlanner {
    /// Create an Oobleck planner with the defaults used in Figure 8.
    pub fn new(coeffs: ProfiledCoefficients, global_batch_size: u64, gpus_per_node: u32) -> Self {
        Self {
            coeffs,
            global_batch_size,
            gpus_per_node,
            overhead_factor: 1.9,
            template_depth: 2,
            threshold: DEFAULT_STRAGGLER_THRESHOLD,
            migration_seconds: 7.5,
        }
    }

    /// Handle a straggler-situation change.  `previous_nodes` is the node set
    /// in use before the change and `initial_nodes` the original (healthy)
    /// node count the templates were generated for.  An all-straggler
    /// cluster reports [`PlanError::NoHealthyNodes`], an exhausted template
    /// search [`PlanError::InfeasibleConfiguration`].
    pub fn handle_situation(
        &self,
        snapshot: &ClusterSnapshot,
        previous_nodes: &[u32],
        initial_nodes: usize,
    ) -> Result<OobleckOutcome, PlanError> {
        let nodes = nodes_without_stragglers(snapshot, self.threshold);
        if nodes.is_empty() {
            return Err(PlanError::NoHealthyNodes);
        }
        let infeasible = || PlanError::InfeasibleConfiguration {
            backend: "oobleck".into(),
            reason: format!(
                "no pipeline template fits on {} straggler-free nodes",
                nodes.len()
            ),
        };
        let transition = if nodes == previous_nodes {
            OobleckTransition::NoChange
        } else {
            let lost_from_initial = initial_nodes.saturating_sub(nodes.len());
            let shrinking = nodes.len() < previous_nodes.len();
            if shrinking && lost_from_initial <= self.template_depth {
                OobleckTransition::Migrated
            } else {
                // Growing back (re-admitting recovered nodes) or falling outside
                // the template coverage requires a restart.
                OobleckTransition::Restarted
            }
        };
        let gpus = gpus_on_nodes(snapshot, &nodes);
        let healthy = ClusterSnapshot {
            num_nodes: snapshot.num_nodes,
            node_of: snapshot.node_of.clone(),
            rates: vec![1.0; snapshot.num_gpus()],
        };
        let planner = MegatronPlanner::new(
            self.coeffs.clone(),
            self.global_batch_size,
            self.gpus_per_node,
        );
        // A failed template search is Oobleck's infeasibility, whatever the
        // inner Megatron search reported.
        let (config, plan, _) = planner.search(&gpus).map_err(|_| infeasible())?;
        let base_time = planner
            .simulate_step(&plan, &healthy, config.activation_checkpointing)
            .ok_or_else(infeasible)?;
        let transition_cost = match transition {
            OobleckTransition::NoChange => 0.0,
            OobleckTransition::Migrated => self.migration_seconds,
            OobleckTransition::Restarted => restart_time(&self.coeffs, nodes.len()),
        };
        Ok(OobleckOutcome {
            nodes_used: nodes,
            step_time: base_time * self.overhead_factor,
            transition,
            transition_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, PaperSituation};
    use malleus_model::{HardwareParams, ModelSpec};

    fn planner() -> OobleckPlanner {
        OobleckPlanner::new(
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster()),
            64,
            8,
        )
    }

    fn snapshot_for(situation: PaperSituation) -> ClusterSnapshot {
        let mut cluster = Cluster::homogeneous(4, 8);
        let sit = situation.situation(&cluster);
        cluster.apply_situation(&sit.rates);
        cluster.snapshot()
    }

    #[test]
    fn oobleck_pays_a_standing_overhead() {
        let p = planner();
        let normal = snapshot_for(PaperSituation::Normal);
        let all_nodes = vec![0, 1, 2, 3];
        let outcome = p.handle_situation(&normal, &all_nodes, 4).unwrap();
        assert_eq!(outcome.transition, OobleckTransition::NoChange);
        // Compare against the plain Megatron search time: Oobleck must be slower.
        let mp = MegatronPlanner::new(p.coeffs.clone(), 64, 8);
        let gpus = gpus_on_nodes(&normal, &all_nodes);
        let (_, _, megatron_time) = mp.search(&gpus).unwrap();
        assert!(outcome.step_time > megatron_time * 1.5);
    }

    #[test]
    fn losing_one_or_two_nodes_migrates() {
        let p = planner();
        let s1 = snapshot_for(PaperSituation::S1);
        let outcome = p.handle_situation(&s1, &[0, 1, 2, 3], 4).unwrap();
        assert_eq!(outcome.transition, OobleckTransition::Migrated);
        assert!(outcome.transition_cost < 60.0);
        let s3 = snapshot_for(PaperSituation::S3);
        let outcome = p.handle_situation(&s3, &[1, 2, 3], 4).unwrap();
        assert_eq!(outcome.transition, OobleckTransition::Migrated);
    }

    #[test]
    fn all_straggler_cluster_yields_typed_error() {
        let p = planner();
        let mut cluster = Cluster::homogeneous(2, 8);
        for gpu in 0..16 {
            cluster.set_rate(malleus_cluster::GpuId(gpu), 1.5);
        }
        let err = p
            .handle_situation(&cluster.snapshot(), &[0, 1], 2)
            .unwrap_err();
        assert_eq!(err, PlanError::NoHealthyNodes);
    }

    #[test]
    fn losing_three_nodes_or_readding_nodes_restarts() {
        let p = planner();
        // S4 stragglers live on three different nodes: beyond template depth.
        let s4 = snapshot_for(PaperSituation::S4);
        let outcome = p.handle_situation(&s4, &[2, 3], 4).unwrap();
        assert_eq!(outcome.transition, OobleckTransition::Restarted);
        assert!(outcome.transition_cost > 100.0);
        // Recovering to Normal re-admits nodes, which also needs a restart.
        let normal = snapshot_for(PaperSituation::Normal);
        let outcome = p.handle_situation(&normal, &[1, 2, 3], 4).unwrap();
        assert_eq!(outcome.transition, OobleckTransition::Restarted);
    }
}

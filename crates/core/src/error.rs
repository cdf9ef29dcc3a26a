//! Error type shared by the planning modules.

use serde::{Deserialize, Serialize};

/// Errors produced while deducing or validating a parallelization plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// The cluster has no usable (non-failed) GPUs.
    NoUsableGpus,
    /// No feasible plan exists under the memory constraints for any candidate
    /// configuration.
    NoFeasiblePlan { reason: String },
    /// A plan failed validation.
    InvalidPlan { reason: String },
    /// The requested data-parallel degree cannot be realized.
    InfeasibleDataParallel { dp: usize, groups: usize },
    /// Every node hosts a straggler or failure, so a node-granularity backend
    /// (Oobleck, restart-on-failure) has nothing left to run on.
    NoHealthyNodes,
    /// A baseline backend exhausted its configuration grid without finding a
    /// runnable setting.
    InfeasibleConfiguration { backend: String, reason: String },
    /// A static backend cannot adapt to the observed cluster event (e.g.
    /// Megatron-LM after a participating GPU fails).
    CannotAdapt { backend: String, reason: String },
    /// The planning service a session routes through could not answer
    /// (transport failure, admission timeout, internal failure).
    Unavailable { reason: String },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoUsableGpus => write!(f, "no usable GPUs available for planning"),
            PlanError::NoFeasiblePlan { reason } => {
                write!(f, "no feasible parallelization plan: {reason}")
            }
            PlanError::InvalidPlan { reason } => {
                write!(f, "invalid parallelization plan: {reason}")
            }
            PlanError::InfeasibleDataParallel { dp, groups } => write!(
                f,
                "cannot build {dp} pipelines from {groups} tensor-parallel groups"
            ),
            PlanError::NoHealthyNodes => {
                write!(
                    f,
                    "no straggler-free nodes left for a node-granularity backend"
                )
            }
            PlanError::InfeasibleConfiguration { backend, reason } => {
                write!(f, "{backend}: no feasible configuration: {reason}")
            }
            PlanError::CannotAdapt { backend, reason } => {
                write!(f, "{backend}: cannot adapt to the cluster event: {reason}")
            }
            PlanError::Unavailable { reason } => {
                write!(f, "planning service unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(PlanError::NoUsableGpus.to_string().contains("no usable"));
        assert!(PlanError::NoFeasiblePlan {
            reason: "memory".into()
        }
        .to_string()
        .contains("memory"));
        assert!(PlanError::InfeasibleDataParallel { dp: 4, groups: 2 }
            .to_string()
            .contains("4"));
        assert!(PlanError::NoHealthyNodes
            .to_string()
            .contains("straggler-free"));
        assert!(PlanError::InfeasibleConfiguration {
            backend: "megatron".into(),
            reason: "grid exhausted".into()
        }
        .to_string()
        .contains("megatron"));
        assert!(PlanError::CannotAdapt {
            backend: "deepspeed".into(),
            reason: "participant failed".into()
        }
        .to_string()
        .contains("participant failed"));
        assert!(PlanError::Unavailable {
            reason: "connection reset".into()
        }
        .to_string()
        .contains("unavailable: connection reset"));
    }
}

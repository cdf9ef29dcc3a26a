//! [`PlanBackend`] implementations for the four baseline systems, so the
//! planning service, training runtime and benchmark arena can drive them
//! through the same interface as the Malleus planner.
//!
//! Semantics per backend:
//!
//! * **Megatron-LM** tunes once on the usable (non-failed) GPU set and keeps
//!   the same uniform plan across straggler drift — the step time is simply
//!   re-simulated and gated by the slowest participant.  A participant
//!   *failure* is unrecoverable ([`PlanError::CannotAdapt`]): that is exactly
//!   the behaviour the restart family exists to fix.
//! * **DeepSpeed** (ZeRO-3) behaves like Megatron-LM but produces no
//!   device-level [`ParallelizationPlan`]; its configuration is re-derived
//!   deterministically from the active GPU set, so the backend stays
//!   stateless.
//! * **Oobleck** excludes straggling nodes and reinstantiates pipeline
//!   templates; it survives failures (they look like lost nodes) but pays
//!   template migration or restart transition costs.
//! * **Restart (Megatron/DeepSpeed)** excludes straggling nodes, re-tunes the
//!   family configuration and charges a checkpoint-restart whenever the node
//!   set changes.

use std::sync::Arc;

use malleus_cluster::{ClusterSnapshot, Fnv1a, GpuId};
use malleus_core::{
    BackendConstructor, BackendId, ClusterEvent, ParallelizationPlan, PlanBackend, PlanError,
    PlannedOutcome, PlannerConfig,
};

use crate::deepspeed::DeepSpeedPlanner;
use crate::megatron::MegatronPlanner;
use crate::oobleck::OobleckPlanner;
use crate::restart::{gpus_on_nodes, RestartFamily, RestartPlanner};

/// GPUs with a finite straggling rate, in id order.
fn usable_gpus(snapshot: &ClusterSnapshot) -> Vec<GpuId> {
    (0..snapshot.num_gpus() as u32)
        .map(GpuId)
        .filter(|&g| snapshot.rate(g).is_finite())
        .collect()
}

/// The (sorted, deduplicated) nodes hosting the given GPUs.
fn nodes_of_gpus(snapshot: &ClusterSnapshot, gpus: &[GpuId]) -> Vec<u32> {
    let mut nodes: Vec<u32> = gpus
        .iter()
        .filter(|g| g.index() < snapshot.num_gpus())
        .map(|&g| snapshot.node_of(g))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

fn sorted(mut gpus: Vec<GpuId>) -> Vec<GpuId> {
    gpus.sort_unstable();
    gpus
}

impl PlanBackend for MegatronPlanner {
    fn id(&self) -> BackendId {
        BackendId::Megatron
    }

    fn fingerprint_config(&self) -> u64 {
        Fnv1a::new()
            .u64(BackendId::Megatron.code())
            .u64(u64::from(self.gpus_per_node))
            .u64(self.global_batch_size)
            .finish()
    }

    fn plan(
        &self,
        snapshot: &ClusterSnapshot,
        config: &PlannerConfig,
    ) -> Result<PlannedOutcome, PlanError> {
        let planner = MegatronPlanner {
            global_batch_size: config.global_batch_size,
            ..self.clone()
        };
        let gpus = usable_gpus(snapshot);
        let (mcfg, plan, _healthy_time) = planner.search(&gpus)?;
        let step = planner
            .simulate_step(&plan, snapshot, mcfg.activation_checkpointing)
            .ok_or_else(|| PlanError::InfeasibleConfiguration {
                backend: "megatron".into(),
                reason: "the tuned configuration cannot run on the current snapshot".into(),
            })?;
        Ok(PlannedOutcome {
            backend: BackendId::Megatron,
            active_gpus: sorted(plan.active_gpus()),
            plan: Some(plan),
            estimated_step_time: step,
            transition_cost: 0.0,
            description: mcfg.to_string(),
            malleus: None,
        })
    }

    fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &PlannedOutcome,
        event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError> {
        if event == ClusterEvent::Failure {
            return Err(PlanError::CannotAdapt {
                backend: "megatron".into(),
                reason: "a participating GPU failed; static Megatron-LM must restart".into(),
            });
        }
        let plan = previous
            .plan
            .as_ref()
            .ok_or_else(|| PlanError::CannotAdapt {
                backend: "megatron".into(),
                reason: "no device-level plan to keep running".into(),
            })?;
        let ac = self.requires_activation_checkpointing(plan);
        let step =
            self.simulate_step(plan, snapshot, ac)
                .ok_or_else(|| PlanError::CannotAdapt {
                    backend: "megatron".into(),
                    reason: "the kept plan cannot run on the current snapshot".into(),
                })?;
        Ok(PlannedOutcome {
            backend: BackendId::Megatron,
            plan: Some(plan.clone()),
            active_gpus: previous.active_gpus.clone(),
            estimated_step_time: step,
            transition_cost: 0.0,
            description: previous.description.clone(),
            malleus: None,
        })
    }

    fn estimate_step_time(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> Option<f64> {
        let ac = self.requires_activation_checkpointing(plan);
        self.simulate_step(plan, snapshot, ac)
    }
}

impl PlanBackend for DeepSpeedPlanner {
    fn id(&self) -> BackendId {
        BackendId::DeepSpeed
    }

    fn fingerprint_config(&self) -> u64 {
        Fnv1a::new()
            .u64(BackendId::DeepSpeed.code())
            .u64(self.global_batch_size)
            .finish()
    }

    fn plan(
        &self,
        snapshot: &ClusterSnapshot,
        config: &PlannerConfig,
    ) -> Result<PlannedOutcome, PlanError> {
        let planner = DeepSpeedPlanner {
            global_batch_size: config.global_batch_size,
            ..self.clone()
        };
        let gpus = usable_gpus(snapshot);
        let (dcfg, _healthy_time) = planner.search(snapshot, &gpus)?;
        let step = planner
            .simulate_step(snapshot, &gpus, &dcfg)
            .ok_or_else(|| PlanError::InfeasibleConfiguration {
                backend: "deepspeed".into(),
                reason: "the tuned configuration cannot run on the current snapshot".into(),
            })?;
        Ok(PlannedOutcome {
            backend: BackendId::DeepSpeed,
            plan: None,
            active_gpus: gpus,
            estimated_step_time: step,
            transition_cost: 0.0,
            description: dcfg.to_string(),
            malleus: None,
        })
    }

    fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &PlannedOutcome,
        event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError> {
        if event == ClusterEvent::Failure {
            return Err(PlanError::CannotAdapt {
                backend: "deepspeed".into(),
                reason: "a participating GPU failed; ZeRO-3 collectives cannot proceed".into(),
            });
        }
        // The tuned configuration is re-derived deterministically from the
        // active GPU set (same search as at plan time), keeping the backend
        // stateless.
        let gpus = previous.active_gpus.clone();
        let (dcfg, _healthy_time) = self.search(snapshot, &gpus)?;
        let step =
            self.simulate_step(snapshot, &gpus, &dcfg)
                .ok_or_else(|| PlanError::CannotAdapt {
                    backend: "deepspeed".into(),
                    reason: "the kept configuration cannot run on the current snapshot".into(),
                })?;
        Ok(PlannedOutcome {
            backend: BackendId::DeepSpeed,
            plan: None,
            active_gpus: gpus,
            estimated_step_time: step,
            transition_cost: 0.0,
            description: dcfg.to_string(),
            malleus: None,
        })
    }

    fn estimate_step_time(
        &self,
        _plan: &ParallelizationPlan,
        _snapshot: &ClusterSnapshot,
    ) -> Option<f64> {
        // ZeRO-3 has no notion of a device-level pipeline plan.
        None
    }
}

impl PlanBackend for OobleckPlanner {
    fn id(&self) -> BackendId {
        BackendId::Oobleck
    }

    fn fingerprint_config(&self) -> u64 {
        Fnv1a::new()
            .u64(BackendId::Oobleck.code())
            .u64(u64::from(self.gpus_per_node))
            .u64(self.global_batch_size)
            .f64(self.overhead_factor)
            .u64(self.template_depth as u64)
            .f64(self.threshold)
            .f64(self.migration_seconds)
            .finish()
    }

    fn plan(
        &self,
        snapshot: &ClusterSnapshot,
        config: &PlannerConfig,
    ) -> Result<PlannedOutcome, PlanError> {
        let planner = OobleckPlanner {
            global_batch_size: config.global_batch_size,
            ..self.clone()
        };
        let all_nodes: Vec<u32> = (0..snapshot.num_nodes as u32).collect();
        let outcome = planner.handle_situation(snapshot, &all_nodes, snapshot.num_nodes)?;
        Ok(PlannedOutcome {
            backend: BackendId::Oobleck,
            plan: None,
            active_gpus: gpus_on_nodes(snapshot, &outcome.nodes_used),
            estimated_step_time: outcome.step_time,
            // The first instantiation has no previous job to transition from.
            transition_cost: 0.0,
            description: format!(
                "Oobleck {} nodes ({:?})",
                outcome.nodes_used.len(),
                outcome.transition
            ),
            malleus: None,
        })
    }

    fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &PlannedOutcome,
        _event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError> {
        // Failures look like lost nodes to Oobleck: the template machinery
        // handles them the same way as straggling nodes.
        let previous_nodes = nodes_of_gpus(snapshot, &previous.active_gpus);
        let outcome = self.handle_situation(snapshot, &previous_nodes, snapshot.num_nodes)?;
        Ok(PlannedOutcome {
            backend: BackendId::Oobleck,
            plan: None,
            active_gpus: gpus_on_nodes(snapshot, &outcome.nodes_used),
            estimated_step_time: outcome.step_time,
            transition_cost: outcome.transition_cost,
            description: format!(
                "Oobleck {} nodes ({:?})",
                outcome.nodes_used.len(),
                outcome.transition
            ),
            malleus: None,
        })
    }

    fn estimate_step_time(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> Option<f64> {
        // Oobleck executes Megatron-style template plans with its standing
        // overhead on top.
        let megatron = MegatronPlanner::new(
            self.coeffs.clone(),
            self.global_batch_size,
            self.gpus_per_node,
        );
        let ac = megatron.requires_activation_checkpointing(plan);
        megatron
            .simulate_step(plan, snapshot, ac)
            .map(|t| t * self.overhead_factor)
    }
}

impl PlanBackend for RestartPlanner {
    fn id(&self) -> BackendId {
        match self.family {
            RestartFamily::Megatron => BackendId::MegatronRestart,
            RestartFamily::DeepSpeed => BackendId::DeepSpeedRestart,
        }
    }

    fn fingerprint_config(&self) -> u64 {
        Fnv1a::new()
            .u64(self.id().code())
            .u64(u64::from(self.gpus_per_node))
            .u64(self.global_batch_size)
            .f64(self.threshold)
            .finish()
    }

    fn plan(
        &self,
        snapshot: &ClusterSnapshot,
        config: &PlannerConfig,
    ) -> Result<PlannedOutcome, PlanError> {
        let planner = RestartPlanner {
            global_batch_size: config.global_batch_size,
            ..self.clone()
        };
        let outcome = planner.handle_situation(snapshot, None)?;
        Ok(PlannedOutcome {
            backend: self.id(),
            plan: None,
            active_gpus: gpus_on_nodes(snapshot, &outcome.nodes_used),
            estimated_step_time: outcome.step_time,
            transition_cost: 0.0,
            description: outcome.config,
            malleus: None,
        })
    }

    fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &PlannedOutcome,
        _event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError> {
        let previous_nodes = nodes_of_gpus(snapshot, &previous.active_gpus);
        let outcome = self.handle_situation(snapshot, Some(&previous_nodes))?;
        Ok(PlannedOutcome {
            backend: self.id(),
            plan: None,
            active_gpus: gpus_on_nodes(snapshot, &outcome.nodes_used),
            estimated_step_time: outcome.step_time,
            transition_cost: outcome.restart_cost,
            description: outcome.config,
            malleus: None,
        })
    }

    fn estimate_step_time(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> Option<f64> {
        match self.family {
            RestartFamily::Megatron => {
                let megatron = MegatronPlanner::new(
                    self.coeffs.clone(),
                    self.global_batch_size,
                    self.gpus_per_node,
                );
                let ac = megatron.requires_activation_checkpointing(plan);
                megatron.simulate_step(plan, snapshot, ac)
            }
            RestartFamily::DeepSpeed => None,
        }
    }
}

/// Registry constructors for all four baseline backends, ready to hand to
/// `PlanService::register_backend`.  `gpus_per_node` parameterizes the
/// node-granularity backends; thresholds follow the request's
/// `PlannerConfig::straggler_threshold`.
pub fn baseline_constructors(gpus_per_node: u32) -> Vec<(BackendId, Arc<BackendConstructor>)> {
    vec![
        (
            BackendId::Megatron,
            Arc::new(move |coeffs, config| {
                Box::new(MegatronPlanner::new(
                    coeffs.clone(),
                    config.global_batch_size,
                    gpus_per_node,
                )) as Box<dyn PlanBackend>
            }),
        ),
        (
            BackendId::DeepSpeed,
            Arc::new(move |coeffs, config| {
                Box::new(DeepSpeedPlanner::new(
                    coeffs.clone(),
                    config.global_batch_size,
                )) as Box<dyn PlanBackend>
            }),
        ),
        (
            BackendId::Oobleck,
            Arc::new(move |coeffs, config| {
                let mut planner =
                    OobleckPlanner::new(coeffs.clone(), config.global_batch_size, gpus_per_node);
                planner.threshold = config.straggler_threshold;
                Box::new(planner) as Box<dyn PlanBackend>
            }),
        ),
        (
            BackendId::MegatronRestart,
            Arc::new(move |coeffs, config| {
                let mut planner = RestartPlanner::new(
                    RestartFamily::Megatron,
                    coeffs.clone(),
                    config.global_batch_size,
                    gpus_per_node,
                );
                planner.threshold = config.straggler_threshold;
                Box::new(planner) as Box<dyn PlanBackend>
            }),
        ),
        (
            BackendId::DeepSpeedRestart,
            Arc::new(move |coeffs, config| {
                let mut planner = RestartPlanner::new(
                    RestartFamily::DeepSpeed,
                    coeffs.clone(),
                    config.global_batch_size,
                    gpus_per_node,
                );
                planner.threshold = config.straggler_threshold;
                Box::new(planner) as Box<dyn PlanBackend>
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, PaperSituation, StragglerLevel};
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};

    fn coeffs() -> ProfiledCoefficients {
        ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster())
    }

    fn config() -> PlannerConfig {
        PlannerConfig {
            global_batch_size: 64,
            ..PlannerConfig::default()
        }
    }

    fn snapshot_for(situation: PaperSituation) -> ClusterSnapshot {
        let mut cluster = Cluster::homogeneous(4, 8);
        let sit = situation.situation(&cluster);
        cluster.apply_situation(&sit.rates);
        cluster.snapshot()
    }

    fn all_backends() -> Vec<Box<dyn PlanBackend>> {
        baseline_constructors(8)
            .into_iter()
            .map(|(_, ctor)| ctor(&coeffs(), &config()))
            .collect()
    }

    #[test]
    fn constructors_build_backends_with_matching_ids() {
        for (id, ctor) in baseline_constructors(8) {
            let backend = ctor(&coeffs(), &config());
            assert_eq!(backend.id(), id);
        }
    }

    #[test]
    fn every_baseline_plans_a_healthy_cluster() {
        let snapshot = snapshot_for(PaperSituation::Normal);
        for backend in all_backends() {
            let outcome = backend
                .plan(&snapshot, &config())
                .unwrap_or_else(|e| panic!("{}: {e}", backend.id()));
            assert_eq!(outcome.backend, backend.id());
            assert!(
                outcome.estimated_step_time.is_finite() && outcome.estimated_step_time > 0.0,
                "{}: step {}",
                backend.id(),
                outcome.estimated_step_time
            );
            assert_eq!(outcome.transition_cost, 0.0);
            assert!(!outcome.active_gpus.is_empty());
            assert!(outcome.malleus.is_none());
        }
    }

    #[test]
    fn every_baseline_rejects_an_all_failed_cluster_with_typed_errors() {
        let mut cluster = Cluster::homogeneous(2, 8);
        for gpu in 0..16 {
            cluster.set_rate(GpuId(gpu), StragglerLevel::Failed.rate());
        }
        let snapshot = cluster.snapshot();
        for backend in all_backends() {
            let err = backend
                .plan(&snapshot, &config())
                .expect_err(backend.id().name());
            assert!(
                matches!(err, PlanError::NoUsableGpus | PlanError::NoHealthyNodes),
                "{}: {err:?}",
                backend.id()
            );
        }
    }

    #[test]
    fn static_backends_cannot_adapt_to_participant_failure() {
        let healthy = snapshot_for(PaperSituation::Normal);
        let mut failed = Cluster::homogeneous(4, 8);
        failed.set_rate(GpuId(0), StragglerLevel::Failed.rate());
        let failed_snapshot = failed.snapshot();
        for backend in all_backends() {
            let initial = backend.plan(&healthy, &config()).unwrap();
            let event = ClusterEvent::classify(&initial, &failed_snapshot, 1.05);
            assert_eq!(event, ClusterEvent::Failure, "{}", backend.id());
            let result = backend.replan(&failed_snapshot, &initial, event);
            match backend.id() {
                BackendId::Megatron | BackendId::DeepSpeed => {
                    assert!(
                        matches!(result, Err(PlanError::CannotAdapt { .. })),
                        "{}: {result:?}",
                        backend.id()
                    );
                }
                _ => {
                    // Node-granularity backends survive by dropping node 0.
                    let outcome = result.unwrap_or_else(|e| panic!("{}: {e}", backend.id()));
                    assert!(outcome.transition_cost > 0.0, "{}", backend.id());
                    assert!(!outcome.active_gpus.contains(&GpuId(0)));
                }
            }
        }
    }

    #[test]
    fn megatron_replan_keeps_the_plan_and_slows_with_stragglers() {
        let megatron = MegatronPlanner::new(coeffs(), 64, 8);
        let healthy = snapshot_for(PaperSituation::Normal);
        let initial = PlanBackend::plan(&megatron, &healthy, &config()).unwrap();
        let straggled = snapshot_for(PaperSituation::S1);
        let event = ClusterEvent::classify(&initial, &straggled, 1.05);
        let after = PlanBackend::replan(&megatron, &straggled, &initial, event).unwrap();
        assert_eq!(after.plan, initial.plan, "static plan must not change");
        assert!(
            after.estimated_step_time > initial.estimated_step_time * 1.5,
            "{} vs {}",
            after.estimated_step_time,
            initial.estimated_step_time
        );
    }

    #[test]
    fn restart_replan_charges_a_restart_when_nodes_change() {
        let restart = RestartPlanner::new(RestartFamily::Megatron, coeffs(), 64, 8);
        let healthy = snapshot_for(PaperSituation::Normal);
        let initial = PlanBackend::plan(&restart, &healthy, &config()).unwrap();
        let straggled = snapshot_for(PaperSituation::S1);
        let event = ClusterEvent::classify(&initial, &straggled, 1.05);
        let after = PlanBackend::replan(&restart, &straggled, &initial, event).unwrap();
        assert!(after.transition_cost > 60.0, "{}", after.transition_cost);
        assert!(after.active_gpus.len() < initial.active_gpus.len());
    }

    #[test]
    fn megatron_fingerprint_is_pinned() {
        // Part of the service cache key for Megatron plans; it must not move.
        let m = MegatronPlanner::new(coeffs(), 64, 8);
        assert_eq!(PlanBackend::fingerprint_config(&m), 0xa357_20cb_ac91_c90d);
    }

    #[test]
    fn fingerprints_distinguish_backend_knobs() {
        let a = OobleckPlanner::new(coeffs(), 64, 8);
        let mut b = a.clone();
        b.overhead_factor = 2.5;
        assert_ne!(
            PlanBackend::fingerprint_config(&a),
            PlanBackend::fingerprint_config(&b)
        );
        let m = MegatronPlanner::new(coeffs(), 64, 8);
        assert_ne!(
            PlanBackend::fingerprint_config(&a),
            PlanBackend::fingerprint_config(&m)
        );
    }
}

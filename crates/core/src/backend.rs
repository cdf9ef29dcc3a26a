//! The unified planning-backend abstraction.
//!
//! Every planner in the workspace — the Malleus [`Planner`] and the four
//! paper baselines in `malleus-baselines` — sits behind one [`PlanBackend`]
//! trait, so the planning service, the training runtime and the benchmark
//! arena can drive any of them through a single interface:
//!
//! * [`PlanBackend::plan`] produces an initial [`PlannedOutcome`] for a
//!   cluster snapshot;
//! * [`PlanBackend::replan`] adapts a previous outcome to a new snapshot
//!   given a classified [`ClusterEvent`], charging the backend's transition
//!   cost (migration, pipeline reinstantiation, checkpoint restart, …);
//! * [`PlanBackend::estimate_step_time`] prices an externally supplied plan
//!   under the backend's own cost model, when it has one.
//!
//! Backends are **stateless**: every method takes `&self` and all history
//! travels through the [`PlannedOutcome`] value.  That is what lets the
//! planning service cache and coalesce backend invocations — a cache key of
//! (snapshot, coefficients, config, [`BackendId`],
//! [`PlanBackend::fingerprint_config`]) fully determines the output.

use std::sync::Arc;

use malleus_cluster::{ClusterSnapshot, Fnv1a, GpuId};
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};

use crate::error::PlanError;
use crate::plan::ParallelizationPlan;
use crate::planner::{PlanOutcome, Planner, PlannerConfig};

/// Straggler-rate threshold (the paper's 5%): `PlannerConfig::default()`
/// and the baselines' straggler detection use it, and it classifies cluster
/// events for backends that do not carry their own threshold.
pub const DEFAULT_STRAGGLER_THRESHOLD: f64 = 1.05;

/// Stable identity of a planning backend.
///
/// The discriminants are part of the service cache-key format: [`Self::code`]
/// values must never be reused for a different backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BackendId {
    /// The Malleus straggler-resilient planner (this repo's [`Planner`]).
    Malleus,
    /// Static Megatron-LM 3D sharding (DP × TP × PP grid search).
    Megatron,
    /// DeepSpeed ZeRO-3 data parallelism.
    DeepSpeed,
    /// Oobleck-style pipeline-template reinstantiation.
    Oobleck,
    /// Restart-on-failure with Megatron-LM re-tuning.
    MegatronRestart,
    /// Restart-on-failure with DeepSpeed ZeRO-3 re-tuning.
    DeepSpeedRestart,
}

impl BackendId {
    /// Every backend the workspace knows about, in display order.
    pub const ALL: [BackendId; 6] = [
        BackendId::Malleus,
        BackendId::Megatron,
        BackendId::DeepSpeed,
        BackendId::Oobleck,
        BackendId::MegatronRestart,
        BackendId::DeepSpeedRestart,
    ];

    /// Human-readable name (also used in benchmark tables).
    pub fn name(&self) -> &'static str {
        match self {
            BackendId::Malleus => "Malleus",
            BackendId::Megatron => "Megatron-LM",
            BackendId::DeepSpeed => "DeepSpeed",
            BackendId::Oobleck => "Oobleck",
            BackendId::MegatronRestart => "Restart (Megatron)",
            BackendId::DeepSpeedRestart => "Restart (DeepSpeed)",
        }
    }

    /// Stable 64-bit code mixed into service cache keys.
    pub fn code(&self) -> u64 {
        match self {
            BackendId::Malleus => 0x4d41_4c4c_4555_5301,
            BackendId::Megatron => 0x4d45_4741_5452_4f02,
            BackendId::DeepSpeed => 0x4445_4550_5350_4403,
            BackendId::Oobleck => 0x4f4f_424c_4543_4b04,
            BackendId::MegatronRestart => 0x5253_544d_4547_4105,
            BackendId::DeepSpeedRestart => 0x5253_5444_5350_4406,
        }
    }

    /// Dense index into per-backend metric arrays (`0..ALL.len()`).
    pub fn index(&self) -> usize {
        match self {
            BackendId::Malleus => 0,
            BackendId::Megatron => 1,
            BackendId::DeepSpeed => 2,
            BackendId::Oobleck => 3,
            BackendId::MegatronRestart => 4,
            BackendId::DeepSpeedRestart => 5,
        }
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A cluster event classified relative to a previous planning outcome, fed to
/// [`PlanBackend::replan`] so backends can distinguish "keep going, maybe
/// rebalance" from "a participant died".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterEvent {
    /// Straggling rates moved, but every previously active GPU is alive.
    StragglerDrift,
    /// At least one previously active GPU has failed (infinite rate).
    Failure,
    /// A GPU the previous plan had set aside is healthy again.
    Recovery,
}

impl ClusterEvent {
    /// Classify a new snapshot relative to the previous outcome.  Failure of
    /// an active participant dominates; then a previously benched GPU back
    /// under `threshold` reads as a recovery; everything else is drift.
    /// Only the static baselines read the event (they cannot survive a
    /// `Failure`); Malleus plans every event through one route.
    pub fn classify(
        previous: &PlannedOutcome,
        snapshot: &ClusterSnapshot,
        threshold: f64,
    ) -> ClusterEvent {
        let failed = previous
            .active_gpus
            .iter()
            .any(|&gpu| gpu.index() < snapshot.num_gpus() && !snapshot.rate(gpu).is_finite());
        if failed {
            return ClusterEvent::Failure;
        }
        let active: std::collections::HashSet<GpuId> =
            previous.active_gpus.iter().copied().collect();
        let recovered = (0..snapshot.num_gpus() as u32).map(GpuId).any(|gpu| {
            !active.contains(&gpu) && {
                let rate = snapshot.rate(gpu);
                rate.is_finite() && rate <= threshold
            }
        });
        if recovered {
            ClusterEvent::Recovery
        } else {
            ClusterEvent::StragglerDrift
        }
    }
}

impl std::fmt::Display for ClusterEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterEvent::StragglerDrift => f.write_str("straggler drift"),
            ClusterEvent::Failure => f.write_str("failure"),
            ClusterEvent::Recovery => f.write_str("recovery"),
        }
    }
}

/// The backend-agnostic result of a [`PlanBackend::plan`] / `replan` call.
///
/// Backends that materialize a device-level [`ParallelizationPlan`] (Malleus,
/// Megatron-LM) populate `plan`; purely data-parallel or template-based
/// backends (DeepSpeed, Oobleck, the restart family) may leave it `None` and
/// describe their configuration in `description` instead.  The Malleus
/// backend additionally carries its full native [`PlanOutcome`] so the
/// service's legacy `plan()` entry point stays byte-identical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannedOutcome {
    /// Which backend produced this outcome.
    pub backend: BackendId,
    /// The device-level plan, when the backend materializes one.
    pub plan: Option<ParallelizationPlan>,
    /// GPUs participating in training under this outcome (sorted).
    pub active_gpus: Vec<GpuId>,
    /// Estimated steady-state training-step time under the planned
    /// configuration, in seconds.
    pub estimated_step_time: f64,
    /// One-off cost of adopting this outcome from the previous one (live
    /// migration, pipeline reinstantiation, checkpoint restart), in seconds.
    /// Zero for initial plans.
    pub transition_cost: f64,
    /// Human-readable configuration summary (e.g. `"DP2TP8PP2, mbs1"`).
    pub description: String,
    /// The native Malleus outcome, populated only by the Malleus backend.
    pub malleus: Option<Arc<PlanOutcome>>,
}

impl PartialEq for PlannedOutcome {
    /// Bitwise over the two floats, like [`PlanOutcome`]'s equality, which
    /// compares the native outcome (timing and lattice excluded).
    /// `clippy::float_cmp` skips `eq` bodies, so
    /// `planned_outcome_equality_is_bitwise` guards this one.
    fn eq(&self, other: &Self) -> bool {
        self.backend == other.backend
            && self.plan == other.plan
            && self.active_gpus == other.active_gpus
            && self.estimated_step_time.to_bits() == other.estimated_step_time.to_bits()
            && self.transition_cost.to_bits() == other.transition_cost.to_bits()
            && self.description == other.description
            && self.malleus == other.malleus
    }
}

impl PlannedOutcome {
    /// Wrap a native Malleus [`PlanOutcome`].
    pub fn from_malleus(outcome: PlanOutcome) -> Self {
        Self::from_malleus_arc(Arc::new(outcome))
    }

    /// Wrap an already shared native Malleus [`PlanOutcome`].
    pub fn from_malleus_arc(outcome: Arc<PlanOutcome>) -> Self {
        let mut active_gpus = outcome.plan.active_gpus();
        active_gpus.sort_unstable();
        PlannedOutcome {
            backend: BackendId::Malleus,
            estimated_step_time: outcome.estimated_step_time,
            transition_cost: 0.0,
            description: format!(
                "Malleus DP{} maxTP{} mbs{}",
                outcome.dp, outcome.chosen_tp, outcome.plan.micro_batch_size
            ),
            active_gpus,
            plan: Some(outcome.plan.clone()),
            malleus: Some(outcome),
        }
    }
}

/// A planning backend: one of the five systems compared in the paper, driven
/// through a uniform, stateless interface.  See the module docs for the
/// statelessness contract.
pub trait PlanBackend: Send + Sync + std::fmt::Debug {
    /// Stable identity, mixed into service cache keys.
    fn id(&self) -> BackendId;

    /// Fingerprint of every backend knob that is *not* captured by the
    /// `(snapshot, coefficients, PlannerConfig)` request key — e.g. Oobleck's
    /// overhead factor.  Two instances with equal fingerprints must plan
    /// identically on identical requests, or service caching is unsound.
    fn fingerprint_config(&self) -> u64;

    /// Produce an initial plan for the snapshot.
    fn plan(
        &self,
        snapshot: &ClusterSnapshot,
        config: &PlannerConfig,
    ) -> Result<PlannedOutcome, PlanError>;

    /// Adapt the previous outcome to a new snapshot.  `event` is the
    /// classification of the snapshot relative to `previous` (see
    /// [`ClusterEvent::classify`]); the returned outcome's
    /// `transition_cost` charges whatever the backend pays to switch.
    fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &PlannedOutcome,
        event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError>;

    /// Price an externally supplied plan under this backend's cost model, if
    /// it has one that applies.
    fn estimate_step_time(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> Option<f64>;
}

/// Constructor signature for backend registry entries: the service builds a
/// fresh (stateless) backend instance per request from the request's
/// coefficients and planner configuration.
pub type BackendConstructor =
    dyn Fn(&ProfiledCoefficients, &PlannerConfig) -> Box<dyn PlanBackend> + Send + Sync;

impl PlanBackend for Planner {
    fn id(&self) -> BackendId {
        BackendId::Malleus
    }

    fn fingerprint_config(&self) -> u64 {
        // Every Malleus knob lives in `PlannerConfig`, which the service
        // request key already covers; the fingerprint only pins the backend.
        Fnv1a::new().u64(BackendId::Malleus.code()).finish()
    }

    fn plan(
        &self,
        snapshot: &ClusterSnapshot,
        config: &PlannerConfig,
    ) -> Result<PlannedOutcome, PlanError> {
        let outcome = if *config == self.config {
            Planner::plan(self, snapshot)?
        } else {
            // Honor the requested configuration while sharing the grouping
            // memo, exactly as the planning service does.
            Planner::new(self.cost.coeffs.clone(), config.clone())
                .with_grouping_cache(self.grouping_cache().clone())
                .plan(snapshot)?
        };
        Ok(PlannedOutcome::from_malleus(outcome))
    }

    fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &PlannedOutcome,
        _event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError> {
        // Malleus adapts online whatever the event is, through one route
        // (the candidate memo replays whatever recurs); migration cost is
        // priced separately by the runtime/arena via `plan_migration`.
        let outcome = match &previous.plan {
            Some(plan) => Planner::replan(self, snapshot, plan)?,
            None => Planner::plan(self, snapshot)?,
        };
        Ok(PlannedOutcome::from_malleus(outcome))
    }

    fn estimate_step_time(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> Option<f64> {
        Some(self.cost.step_time(plan, snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, StragglerLevel};
    use malleus_model::{HardwareParams, ModelSpec};

    fn planner() -> Planner {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster());
        Planner::new(
            coeffs,
            PlannerConfig {
                global_batch_size: 16,
                ..PlannerConfig::default()
            },
        )
    }

    #[test]
    fn backend_ids_have_unique_codes_and_dense_indices() {
        let codes: std::collections::HashSet<u64> =
            BackendId::ALL.iter().map(|id| id.code()).collect();
        assert_eq!(codes.len(), BackendId::ALL.len());
        let mut indices: Vec<usize> = BackendId::ALL.iter().map(|id| id.index()).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..BackendId::ALL.len()).collect::<Vec<_>>());
    }

    #[test]
    fn malleus_backend_plan_is_byte_identical_to_direct_plan() {
        let planner = planner();
        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(3), StragglerLevel::Level2.rate());
        let snapshot = cluster.snapshot();

        let direct = Planner::plan(&planner, &snapshot).expect("direct plan");
        let via_trait =
            PlanBackend::plan(&planner, &snapshot, &planner.config.clone()).expect("trait plan");

        assert_eq!(via_trait, PlannedOutcome::from_malleus(direct));
    }

    #[test]
    fn planned_outcome_equality_is_bitwise() {
        let outcome = PlannedOutcome {
            backend: BackendId::DeepSpeed,
            plan: None,
            active_gpus: vec![GpuId(0)],
            estimated_step_time: f64::NAN,
            transition_cost: 0.0,
            description: "DP1".into(),
            malleus: None,
        };
        assert_eq!(outcome, outcome.clone(), "equal NaN bits compare equal");
        let mut neg_zero = outcome.clone();
        neg_zero.transition_cost = -0.0;
        assert_ne!(outcome, neg_zero, "+0.0 and -0.0 must not compare equal");
    }

    #[test]
    fn malleus_backend_replan_matches_direct_replan() {
        let planner = planner();
        let healthy = Cluster::homogeneous(2, 8).snapshot();
        let initial = PlanBackend::plan(&planner, &healthy, &planner.config.clone()).unwrap();

        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(0), StragglerLevel::Level3.rate());
        let snapshot = cluster.snapshot();
        let event = ClusterEvent::classify(&initial, &snapshot, DEFAULT_STRAGGLER_THRESHOLD);
        assert_eq!(event, ClusterEvent::StragglerDrift);

        let direct = Planner::replan(&planner, &snapshot, initial.plan.as_ref().unwrap()).unwrap();
        let via_trait = PlanBackend::replan(&planner, &snapshot, &initial, event).unwrap();
        assert_eq!(via_trait, PlannedOutcome::from_malleus(direct));
    }

    #[test]
    fn classify_detects_failure_and_recovery() {
        let planner = planner();
        let healthy = Cluster::homogeneous(2, 8).snapshot();
        let initial = PlanBackend::plan(&planner, &healthy, &planner.config.clone()).unwrap();

        let mut failed = Cluster::homogeneous(2, 8);
        failed.set_rate(GpuId(1), StragglerLevel::Failed.rate());
        assert_eq!(
            ClusterEvent::classify(&initial, &failed.snapshot(), DEFAULT_STRAGGLER_THRESHOLD),
            ClusterEvent::Failure
        );

        // Bench GPU 5 in the "previous" outcome, then show it healthy again.
        let mut benched = initial.clone();
        benched.active_gpus.retain(|&g| g != GpuId(5));
        assert_eq!(
            ClusterEvent::classify(&benched, &healthy, DEFAULT_STRAGGLER_THRESHOLD),
            ClusterEvent::Recovery
        );

        let mut drifting = Cluster::homogeneous(2, 8);
        drifting.set_rate(GpuId(2), StragglerLevel::Level2.rate());
        assert_eq!(
            ClusterEvent::classify(&initial, &drifting.snapshot(), DEFAULT_STRAGGLER_THRESHOLD),
            ClusterEvent::StragglerDrift
        );
    }

    #[test]
    fn simultaneous_drift_and_node_loss_classifies_as_failure() {
        let planner = planner();
        let healthy = Cluster::homogeneous(2, 8).snapshot();
        let initial = PlanBackend::plan(&planner, &healthy, &planner.config.clone()).unwrap();
        // GPU 2 drifts while GPU 5 dies in the same observation window: the
        // loss dominates.
        let mut c = Cluster::homogeneous(2, 8);
        c.set_rate(GpuId(2), StragglerLevel::Level2.rate());
        c.set_rate(GpuId(5), StragglerLevel::Failed.rate());
        let event = ClusterEvent::classify(&initial, &c.snapshot(), DEFAULT_STRAGGLER_THRESHOLD);
        assert_eq!(event, ClusterEvent::Failure);
        // The replan routed through the trait stays byte-identical to the
        // direct full replan.
        let via = PlanBackend::replan(&planner, &c.snapshot(), &initial, event).unwrap();
        let direct = Planner::replan(
            &planner,
            &c.snapshot(),
            initial.plan.as_ref().expect("plan"),
        )
        .unwrap();
        assert_eq!(via, PlannedOutcome::from_malleus(direct));
    }

    #[test]
    fn rejoin_of_failed_gpu_above_threshold_matches_a_fresh_replan() {
        let planner = planner();
        // Plan with GPU 5 failed, then let it rejoin while still straggling
        // well above the 1.05 threshold.
        let mut f = Cluster::homogeneous(2, 8);
        f.set_rate(GpuId(5), StragglerLevel::Failed.rate());
        let previous = PlanBackend::plan(&planner, &f.snapshot(), &planner.config.clone()).unwrap();
        let mut rejoined = Cluster::homogeneous(2, 8);
        rejoined.set_rate(GpuId(5), StragglerLevel::Level1.rate());
        let event =
            ClusterEvent::classify(&previous, &rejoined.snapshot(), DEFAULT_STRAGGLER_THRESHOLD);
        // The trait replan, served partly from this planner's memo, equals a
        // fresh planner's replan.
        let via = PlanBackend::replan(&planner, &rejoined.snapshot(), &previous, event).unwrap();
        let direct = Planner::replan(
            &self::planner(),
            &rejoined.snapshot(),
            previous.plan.as_ref().expect("plan"),
        )
        .unwrap();
        assert_eq!(via, PlannedOutcome::from_malleus(direct));
    }

    #[test]
    fn drift_exactly_at_threshold_stays_drift_and_routes_to_delta() {
        let planner = planner();
        let healthy = Cluster::homogeneous(2, 8).snapshot();
        let initial = PlanBackend::plan(&planner, &healthy, &planner.config.clone()).unwrap();
        // A GPU sitting exactly at the straggler threshold is a drift, not a
        // failure or a recovery.
        let drifted = healthy.with_rate(GpuId(2), DEFAULT_STRAGGLER_THRESHOLD);
        let event = ClusterEvent::classify(&initial, &drifted, DEFAULT_STRAGGLER_THRESHOLD);
        assert_eq!(event, ClusterEvent::StragglerDrift);
        // The memo is consulted and the replan stays byte-identical to the
        // direct replan.
        let via = PlanBackend::replan(&planner, &drifted, &initial, event).unwrap();
        let inner = via.malleus.as_ref().unwrap();
        assert!(inner.lattice.as_ref().unwrap().delta, "memo consulted");
        let direct =
            Planner::replan(&planner, &drifted, initial.plan.as_ref().expect("plan")).unwrap();
        assert_eq!(**inner, direct);
    }

    #[test]
    fn config_fingerprints_are_order_sensitive_and_stable() {
        let a = Fnv1a::new().u64(1).f64(1.9).finish();
        let b = Fnv1a::new().u64(1).f64(1.9).finish();
        let c = Fnv1a::new().f64(1.9).u64(1).finish();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

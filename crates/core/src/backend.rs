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

/// Straggler-rate threshold used when classifying cluster events for
/// backends that do not carry their own threshold (matches
/// `PlannerConfig::default().straggler_threshold`).
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
    /// an active participant dominates; then, when the previous outcome
    /// carries its scored lattice (and with it the snapshot it was planned
    /// against), the snapshot *diff* catches structural changes the
    /// outcome-level heuristics cannot — a standby GPU dying, or a
    /// previously-failed GPU rejoining while still straggling above
    /// `threshold`.  Otherwise a previously benched GPU back under
    /// `threshold` reads as a recovery; everything else is drift.
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
        if let Some(basis) = previous
            .malleus
            .as_ref()
            .and_then(|m| m.lattice.as_ref())
            .map(|lattice| &lattice.snapshot)
        {
            match Self::classify_snapshots(basis, snapshot) {
                ClusterEvent::StragglerDrift => {}
                structural => return structural,
            }
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

    /// Classify purely from a snapshot diff: node loss (any finite → infinite
    /// rate, or a shrunk cluster) dominates a simultaneous drift or join;
    /// then a node join (any infinite → finite rate, at *any* rate — a
    /// rejoining GPU may still straggle); everything else is drift.
    pub fn classify_snapshots(
        previous: &ClusterSnapshot,
        current: &ClusterSnapshot,
    ) -> ClusterEvent {
        if previous.num_gpus() != current.num_gpus() || previous.num_nodes != current.num_nodes {
            return if current.num_gpus() < previous.num_gpus() {
                ClusterEvent::Failure
            } else {
                ClusterEvent::Recovery
            };
        }
        let rates = previous.rates.iter().zip(current.rates.iter());
        if rates
            .clone()
            .any(|(prev, cur)| prev.is_finite() && !cur.is_finite())
        {
            return ClusterEvent::Failure;
        }
        if rates
            .clone()
            .any(|(prev, cur)| !prev.is_finite() && cur.is_finite())
        {
            return ClusterEvent::Recovery;
        }
        ClusterEvent::StragglerDrift
    }

    /// Whether the event changes cluster structure (availability or
    /// topology).  Structural events route to full enumeration; drift may
    /// warm-start the delta replanner.
    pub fn is_structural(&self) -> bool {
        !matches!(self, ClusterEvent::StragglerDrift)
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Registry constructor for the Malleus backend.
pub fn malleus_constructor() -> Arc<BackendConstructor> {
    Arc::new(|coeffs, config| Box::new(Planner::new(coeffs.clone(), config.clone())))
}

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
        event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError> {
        // Malleus adapts online whatever the event is; migration cost is
        // priced separately by the runtime/arena via `plan_migration`.
        // Drift-only events warm-start from the previous outcome's scored
        // lattice (`replan_delta` re-checks the snapshot diff itself and
        // falls back to full enumeration if it is structural after all);
        // structural events go straight to full enumeration.
        let outcome = match (&previous.malleus, &previous.plan) {
            (Some(prev), _) if !event.is_structural() => self.replan_delta(snapshot, prev)?,
            (_, Some(plan)) => Planner::replan(self, snapshot, plan)?,
            (Some(prev), None) => Planner::replan(self, snapshot, &prev.plan)?,
            (None, None) => Planner::plan(self, snapshot)?,
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

        let inner = via_trait.malleus.as_ref().expect("malleus outcome");
        assert_eq!(direct.plan, inner.plan);
        assert_eq!(direct.chosen_tp, inner.chosen_tp);
        assert_eq!(direct.dp, inner.dp);
        assert_eq!(
            direct.estimated_step_time.to_bits(),
            inner.estimated_step_time.to_bits()
        );
        assert_eq!(
            direct.estimated_step_time_simplified.to_bits(),
            inner.estimated_step_time_simplified.to_bits()
        );
        assert_eq!(via_trait.plan.as_ref(), Some(&direct.plan));
        assert_eq!(via_trait.backend, BackendId::Malleus);
        assert_eq!(via_trait.transition_cost, 0.0);
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
        assert_eq!(via_trait.plan.as_ref(), Some(&direct.plan));
        assert_eq!(
            via_trait.estimated_step_time.to_bits(),
            direct.estimated_step_time.to_bits()
        );
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
        // loss dominates and the event must route to full enumeration.
        let mut c = Cluster::homogeneous(2, 8);
        c.set_rate(GpuId(2), StragglerLevel::Level2.rate());
        c.set_rate(GpuId(5), StragglerLevel::Failed.rate());
        let event = ClusterEvent::classify(&initial, &c.snapshot(), DEFAULT_STRAGGLER_THRESHOLD);
        assert_eq!(event, ClusterEvent::Failure);
        assert!(event.is_structural());
        assert_eq!(
            ClusterEvent::classify_snapshots(&healthy, &c.snapshot()),
            ClusterEvent::Failure
        );
        // The replan routed through the trait stays byte-identical to the
        // direct full replan.
        let via = PlanBackend::replan(&planner, &c.snapshot(), &initial, event).unwrap();
        let direct = Planner::replan(
            &planner,
            &c.snapshot(),
            initial.plan.as_ref().expect("plan"),
        )
        .unwrap();
        assert_eq!(via.malleus.as_ref().unwrap().plan, direct.plan);
        assert_eq!(
            via.estimated_step_time.to_bits(),
            direct.estimated_step_time.to_bits()
        );
    }

    #[test]
    fn rejoin_of_failed_gpu_above_threshold_classifies_as_recovery() {
        let planner = planner();
        // Plan with GPU 5 failed: the outcome's lattice basis records the
        // infinite rate.
        let mut f = Cluster::homogeneous(2, 8);
        f.set_rate(GpuId(5), StragglerLevel::Failed.rate());
        let previous = PlanBackend::plan(&planner, &f.snapshot(), &planner.config.clone()).unwrap();
        // GPU 5 rejoins but still straggles well above the 1.05 threshold:
        // the outcome-level heuristic alone would call this drift, but the
        // snapshot diff sees the infinite → finite flip.
        let mut rejoined = Cluster::homogeneous(2, 8);
        rejoined.set_rate(GpuId(5), StragglerLevel::Level1.rate());
        let event =
            ClusterEvent::classify(&previous, &rejoined.snapshot(), DEFAULT_STRAGGLER_THRESHOLD);
        assert_eq!(event, ClusterEvent::Recovery);
        assert_eq!(
            ClusterEvent::classify_snapshots(&f.snapshot(), &rejoined.snapshot()),
            ClusterEvent::Recovery
        );
        // Structural: the replan must re-enumerate, and the rejoined GPU is
        // available to the new plan.
        let via = PlanBackend::replan(&planner, &rejoined.snapshot(), &previous, event).unwrap();
        let lattice = via.malleus.as_ref().unwrap().lattice.as_ref().unwrap();
        assert!(!lattice.delta, "join must not consult the memo");
    }

    #[test]
    fn drift_exactly_at_threshold_stays_drift_and_routes_to_delta() {
        let planner = planner();
        let healthy = Cluster::homogeneous(2, 8).snapshot();
        let initial = PlanBackend::plan(&planner, &healthy, &planner.config.clone()).unwrap();
        // A GPU sitting exactly at the straggler threshold is a drift, not a
        // structural event: same topology, same availability.
        let drifted = healthy.with_rate(GpuId(2), DEFAULT_STRAGGLER_THRESHOLD);
        let event = ClusterEvent::classify(&initial, &drifted, DEFAULT_STRAGGLER_THRESHOLD);
        assert_eq!(event, ClusterEvent::StragglerDrift);
        assert!(!event.is_structural());
        assert_eq!(
            ClusterEvent::classify_snapshots(&healthy, &drifted),
            ClusterEvent::StragglerDrift
        );
        // The delta path engages and stays byte-identical to the direct
        // full-enumeration replan.
        let via = PlanBackend::replan(&planner, &drifted, &initial, event).unwrap();
        let inner = via.malleus.as_ref().unwrap();
        assert!(inner.lattice.as_ref().unwrap().delta, "memo consulted");
        let direct =
            Planner::replan(&planner, &drifted, initial.plan.as_ref().expect("plan")).unwrap();
        assert_eq!(inner.plan, direct.plan);
        assert_eq!(
            inner.estimated_step_time.to_bits(),
            direct.estimated_step_time.to_bits()
        );
        assert_eq!(
            inner.estimated_step_time_simplified.to_bits(),
            direct.estimated_step_time_simplified.to_bits()
        );
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

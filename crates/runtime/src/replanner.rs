//! Asynchronous re-planning (§5.3).
//!
//! When the profiler reports a shift, Malleus keeps training with the current
//! plan while the planning algorithm runs on background CPU processes.  Only if
//! planning takes longer than the current training step does the job stall for
//! the remainder.  In the paper's experiments the planning time (10–30 s) is
//! always hidden behind one training step; the reproduction computes its own
//! planner wall-clock time and applies the same overlap rule.
//!
//! Re-planning inherits the planner's candidate-lattice parallelism
//! ([`malleus_core::Parallelism`], default `Auto`): the background planning
//! processes of §5.3 map to the scoped worker threads of
//! `malleus_core::parallel`, shrinking the window during which a stall can
//! occur.  The deterministic reduction guarantees the adapted plan is the same
//! whatever the worker count, so overlap never trades away plan quality.

use malleus_cluster::ClusterSnapshot;
use malleus_core::{
    BackendId, ClusterEvent, ParallelizationPlan, PlanBackend, PlanError, PlanOutcome,
    PlannedOutcome, Planner, PlannerConfig,
};
use malleus_model::ProfiledCoefficients;
use malleus_service::{PlanRequest, PlanTransport, ServiceError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Result of an overlapped re-planning round: the Malleus planner's
/// [`PlanOutcome`] by default, or a backend-neutral [`PlannedOutcome`]
/// ([`BackendReplan`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanOutcome<O = PlanOutcome> {
    /// The planner's output.
    pub outcome: O,
    /// Wall-clock planning time in seconds.
    pub planning_time: f64,
    /// Seconds of training stall not hidden by the overlap (usually zero).
    pub stall_time: f64,
    /// Whether the adapted plan (or active GPU set) differs from the previous
    /// one.
    pub plan_changed: bool,
}

/// Result of an overlapped re-planning round through a [`PlanBackend`] or a
/// [`PlanTransport`].
pub type BackendReplan = ReplanOutcome<PlannedOutcome>;

/// Run `plan`, overlapping it with one training step of `current_step_time`
/// seconds.
///
/// The stall computation uses the *wall-clock* time of the call, not
/// `PlanTiming::total()`: the per-phase breakdown sums candidate durations
/// across all workers (aggregate CPU time, what Table 5 accounts), which
/// overstates the elapsed time whenever the candidate fan-out runs on more
/// than one core — and the whole point of overlapped re-planning is that only
/// elapsed time can stall training.
fn overlapped<O, E>(
    current_step_time: f64,
    plan: impl FnOnce() -> Result<O, E>,
    changed: impl FnOnce(&O) -> bool,
) -> Result<ReplanOutcome<O>, E> {
    let t0 = std::time::Instant::now();
    let outcome = plan()?;
    let planning_time = t0.elapsed().as_secs_f64();
    Ok(ReplanOutcome {
        plan_changed: changed(&outcome),
        outcome,
        planning_time,
        stall_time: (planning_time - current_step_time).max(0.0),
    })
}

/// Overlapped re-planning from the previous [`PlanOutcome`] with
/// [`Planner::replan`]: with [`malleus_core::PlannerConfig::incremental`] on,
/// candidates whose inputs recur — after a drift, a failure or a rejoin —
/// are replayed from the planner's memo instead of re-evaluated, and the
/// adapted plan is byte-identical to a fresh planner's `replan`.
pub fn replan_overlapped_incremental(
    planner: &Planner,
    snapshot: &ClusterSnapshot,
    previous: &PlanOutcome,
    current_step_time: f64,
) -> Result<ReplanOutcome, PlanError> {
    overlapped(
        current_step_time,
        || planner.replan(snapshot, &previous.plan),
        |outcome| outcome.plan != previous.plan,
    )
}

/// Overlapped re-planning through an arbitrary [`PlanBackend`] handle.
///
/// The cluster event is classified from the previous outcome's active GPU set
/// against the observed snapshot ([`ClusterEvent::classify`]), then handed to
/// the backend's `replan`.  Static backends (plain Megatron-LM / DeepSpeed)
/// answer failures with `PlanError::CannotAdapt`, which propagates — the
/// caller decides whether that kills the run (it does, for them: that is the
/// paper's point).
pub fn replan_overlapped_backend(
    backend: &dyn PlanBackend,
    snapshot: &ClusterSnapshot,
    previous: &PlannedOutcome,
    current_step_time: f64,
) -> Result<BackendReplan, PlanError> {
    overlapped(
        current_step_time,
        || {
            let event = ClusterEvent::classify(previous, snapshot);
            backend.replan(snapshot, previous, event)
        },
        |outcome| outcome.plan != previous.plan || outcome.active_gpus != previous.active_gpus,
    )
}

/// Service-backed overlapped re-planning: the planner invocation goes through
/// a shared [`PlanTransport`] — an in-process [`malleus_service::PlanService`]
/// or a remote [`malleus_service::PlanClient`] dialing a standalone plan
/// daemon — so N sessions replanning after the same cluster event (same
/// snapshot, same coefficients, same configuration, same backend) pay for one
/// planner run and share the cached plan.
///
/// For [`BackendId::Malleus`] this mirrors `Planner::replan` exactly: first
/// request the plan with the previous DP degree pinned (the paper maintains
/// DP across adjustments, footnote 2); if no feasible plan exists with that
/// degree, fall back to the unconstrained search.  Other backends are
/// stateless over the snapshot, so a single request suffices.
/// Backpressure ([`ServiceError::Overloaded`]) is *not* treated as
/// infeasibility — it propagates so the session can back off rather than
/// silently re-running the expensive fallback.
pub fn replan_overlapped_shared(
    transport: &dyn PlanTransport,
    backend: BackendId,
    coeffs: &ProfiledCoefficients,
    config: &PlannerConfig,
    snapshot: &ClusterSnapshot,
    previous: &ParallelizationPlan,
    current_step_time: f64,
) -> Result<BackendReplan, ServiceError> {
    let pinned_dp = (backend == BackendId::Malleus).then(|| previous.dp());
    overlapped(
        current_step_time,
        || {
            request_replan(transport, backend, coeffs, config, snapshot, pinned_dp)
                .map(|outcome| (*outcome).clone())
        },
        |outcome| outcome.plan.as_ref() != Some(previous),
    )
}

/// Send one re-plan through `transport`: with `pinned_dp`, first the request
/// with that DP degree pinned, then — only if the pinned search is infeasible
/// — the unconstrained request `config` describes.
fn request_replan(
    transport: &dyn PlanTransport,
    backend: BackendId,
    coeffs: &ProfiledCoefficients,
    config: &PlannerConfig,
    snapshot: &ClusterSnapshot,
    pinned_dp: Option<usize>,
) -> Result<Arc<PlannedOutcome>, ServiceError> {
    let request =
        |config: PlannerConfig| PlanRequest::new(coeffs.clone(), snapshot.clone(), config);
    if let Some(dp) = pinned_dp {
        let pinned = PlannerConfig {
            fixed_dp: Some(dp),
            ..config.clone()
        };
        match transport.plan_routed(backend, &request(pinned)) {
            Err(ServiceError::Plan(_)) => {}
            served => return served,
        }
    }
    transport.plan_routed(backend, &request(config.clone()))
}

/// The Malleus [`PlanBackend`] a service-routed session plans through: every
/// plan and re-plan is a request over `transport` (the re-plan sends the
/// same pinned-then-unpinned sequence as [`replan_overlapped_shared`]).
///
/// Service backpressure ([`ServiceError::Overloaded`]) is transient and must
/// not kill a training session: the request is answered by the `local`
/// planner instead — the plan is byte-identical, it just forgoes the shared
/// cache for that one invocation.  Planner infeasibility comes back as the
/// planner's own [`PlanError`]; every other service failure (transport,
/// admission timeout, internal) is [`PlanError::Unavailable`].
#[derive(Debug)]
pub(crate) struct SharedPlanner {
    transport: Arc<dyn PlanTransport>,
    local: Planner,
}

impl SharedPlanner {
    pub(crate) fn new(transport: Arc<dyn PlanTransport>, local: Planner) -> Self {
        Self { transport, local }
    }

    fn served(
        served: Result<Arc<PlannedOutcome>, ServiceError>,
        local: impl FnOnce() -> Result<PlannedOutcome, PlanError>,
    ) -> Result<PlannedOutcome, PlanError> {
        match served {
            Ok(outcome) => Ok((*outcome).clone()),
            Err(ServiceError::Overloaded { .. }) => local(),
            Err(ServiceError::Plan(e)) => Err(e),
            Err(e) => Err(PlanError::Unavailable {
                reason: e.to_string(),
            }),
        }
    }
}

impl PlanBackend for SharedPlanner {
    fn id(&self) -> BackendId {
        BackendId::Malleus
    }

    fn fingerprint_config(&self) -> u64 {
        self.local.fingerprint_config()
    }

    fn plan(
        &self,
        snapshot: &ClusterSnapshot,
        config: &PlannerConfig,
    ) -> Result<PlannedOutcome, PlanError> {
        let request = PlanRequest::new(
            self.local.cost.coeffs.clone(),
            snapshot.clone(),
            config.clone(),
        );
        Self::served(
            self.transport.plan_routed(BackendId::Malleus, &request),
            || PlanBackend::plan(&self.local, snapshot, config),
        )
    }

    fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &PlannedOutcome,
        event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError> {
        let served = request_replan(
            self.transport.as_ref(),
            BackendId::Malleus,
            &self.local.cost.coeffs,
            &self.local.config,
            snapshot,
            previous.plan.as_ref().map(ParallelizationPlan::dp),
        );
        Self::served(served, || {
            PlanBackend::replan(&self.local, snapshot, previous, event)
        })
    }

    fn estimate_step_time(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> Option<f64> {
        self.local.estimate_step_time(plan, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_core::PlannerConfig;
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};

    fn planner() -> Planner {
        Planner::new(
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster()),
            PlannerConfig::default(),
        )
    }

    #[test]
    fn planning_is_hidden_behind_a_training_step() {
        let p = planner();
        let mut cluster = Cluster::homogeneous(4, 8);
        let initial = p.plan(&cluster.snapshot()).unwrap();
        cluster.set_rate(GpuId(0), 5.42);
        let replan =
            replan_overlapped_incremental(&p, &cluster.snapshot(), &initial, 12.0).unwrap();
        assert!(replan.plan_changed);
        assert!(
            replan.planning_time < 12.0,
            "planning {}",
            replan.planning_time
        );
        assert_eq!(replan.stall_time, 0.0);
    }

    #[test]
    fn unchanged_situation_can_keep_the_same_plan() {
        let p = planner();
        let cluster = Cluster::homogeneous(4, 8);
        let initial = p.plan(&cluster.snapshot()).unwrap();
        let replan =
            replan_overlapped_incremental(&p, &cluster.snapshot(), &initial, 12.0).unwrap();
        // With identical rates the planner should find a plan no better than
        // the current one; whether the exact plan object matches is not
        // guaranteed, but the estimated time must not regress.
        assert!(replan.outcome.estimated_step_time <= initial.estimated_step_time * 1.01);
    }

    #[test]
    fn parallel_replanning_adopts_the_serial_oracle_plan() {
        // The replanner routes through the planner's parallel candidate
        // fan-out; whatever the worker count, the adapted plan must be the
        // one the serial reference path picks.
        use malleus_core::Parallelism;
        let serial = planner().with_parallelism(Parallelism::Fixed(1));
        let parallel = planner().with_parallelism(Parallelism::Fixed(4));
        let mut cluster = Cluster::homogeneous(4, 8);
        let initial = serial.plan(&cluster.snapshot()).unwrap();
        cluster.set_rate(GpuId(2), 3.75);
        cluster.set_rate(GpuId(17), f64::INFINITY);
        let snapshot = cluster.snapshot();
        let a = replan_overlapped_incremental(&serial, &snapshot, &initial, 12.0).unwrap();
        let b = replan_overlapped_incremental(&parallel, &snapshot, &initial, 12.0).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.plan_changed, b.plan_changed);
    }

    #[test]
    fn shared_replanning_matches_direct_replanning_and_amortizes_work() {
        use malleus_service::{PlanService, ServiceConfig};
        let p = planner();
        let mut cluster = Cluster::homogeneous(4, 8);
        let initial = p.plan(&cluster.snapshot()).unwrap();
        cluster.set_rate(GpuId(0), 5.42);
        let snapshot = cluster.snapshot();
        let direct = p.replan(&snapshot, &initial.plan).unwrap();
        let service = PlanService::new(ServiceConfig::default());
        // Two tenants replanning after the same cluster event: one planner
        // invocation, bit-identical to the direct path for both.
        for _ in 0..2 {
            let shared = replan_overlapped_shared(
                &service,
                BackendId::Malleus,
                &p.cost.coeffs,
                &p.config,
                &snapshot,
                &initial.plan,
                12.0,
            )
            .unwrap();
            assert_eq!(shared.outcome, PlannedOutcome::from_malleus(direct.clone()));
            assert_eq!(shared.plan_changed, direct.plan != initial.plan);
        }
        let metrics = service.metrics();
        assert_eq!(metrics.planner_invocations, 1);
        assert_eq!(metrics.hits, 1);
    }

    #[test]
    fn backend_trait_replanning_matches_the_direct_path() {
        let p = planner();
        let mut cluster = Cluster::homogeneous(4, 8);
        let initial = p.plan(&cluster.snapshot()).unwrap();
        cluster.set_rate(GpuId(0), 5.42);
        let snapshot = cluster.snapshot();
        let direct = p.replan(&snapshot, &initial.plan).unwrap();
        let direct_changed = direct.plan != initial.plan;
        let previous = PlannedOutcome::from_malleus(initial);
        let via_trait = replan_overlapped_backend(&p, &snapshot, &previous, 12.0).unwrap();
        assert_eq!(via_trait.outcome, PlannedOutcome::from_malleus(direct));
        assert_eq!(via_trait.plan_changed, direct_changed);
    }

    #[test]
    fn shared_replanning_falls_back_when_pinned_dp_is_infeasible() {
        use malleus_service::{PlanService, ServiceConfig};
        let p = planner();
        let mut cluster = Cluster::homogeneous(4, 8);
        let initial = p.plan(&cluster.snapshot()).unwrap();
        // Fail three of four nodes: the previous DP degree cannot survive and
        // the documented fallback re-opens the DP enumeration.
        for g in 8..32 {
            cluster.set_rate(GpuId(g), f64::INFINITY);
        }
        let snapshot = cluster.snapshot();
        let direct = p.replan(&snapshot, &initial.plan).unwrap();
        let service = PlanService::new(ServiceConfig::default());
        let shared = replan_overlapped_shared(
            &service,
            BackendId::Malleus,
            &p.cost.coeffs,
            &p.config,
            &snapshot,
            &initial.plan,
            12.0,
        )
        .unwrap();
        assert_eq!(shared.outcome, PlannedOutcome::from_malleus(direct));
    }

    #[test]
    fn incremental_replanning_is_byte_identical_to_full_replanning() {
        let p = planner();
        let mut cluster = Cluster::homogeneous(4, 8);
        let initial = p.plan(&cluster.snapshot()).unwrap();
        cluster.set_rate(GpuId(0), 5.42);
        let snapshot = cluster.snapshot();
        // Fresh planner for the full path: its memo never saw the event.
        let full = planner().replan(&snapshot, &initial.plan).unwrap();
        let delta = replan_overlapped_incremental(&p, &snapshot, &initial, 12.0).unwrap();
        assert!(
            delta.outcome.lattice.as_ref().unwrap().delta,
            "the replan must consult the memo"
        );
        assert_eq!(delta.plan_changed, full.plan != initial.plan);
        assert_eq!(delta.outcome, full);
    }

    #[test]
    fn stall_is_charged_when_step_time_is_tiny() {
        let p = planner();
        let mut cluster = Cluster::homogeneous(4, 8);
        let initial = p.plan(&cluster.snapshot()).unwrap();
        cluster.set_rate(GpuId(0), 2.57);
        let replan = replan_overlapped_incremental(&p, &cluster.snapshot(), &initial, 0.0).unwrap();
        assert!(replan.stall_time > 0.0);
        assert!((replan.stall_time - replan.planning_time).abs() < 1e-12);
    }
}

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
    PlannedOutcome, Planner, PlannerConfig, DEFAULT_STRAGGLER_THRESHOLD,
};
use malleus_model::ProfiledCoefficients;
use malleus_service::{PlanRequest, PlanTransport, ServiceError};
use serde::{Deserialize, Serialize};

/// Result of an overlapped re-planning round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanOutcome {
    /// The planner's output.
    pub outcome: PlanOutcome,
    /// Wall-clock planning time in seconds.
    pub planning_time: f64,
    /// Seconds of training stall not hidden by the overlap (usually zero).
    pub stall_time: f64,
    /// Whether the new plan differs from the previous one.
    pub plan_changed: bool,
}

/// Result of an overlapped re-planning round through a backend-neutral
/// [`PlanBackend`] (the trait-path analogue of [`ReplanOutcome`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendReplan {
    /// The backend's output.
    pub outcome: PlannedOutcome,
    /// Wall-clock planning time in seconds.
    pub planning_time: f64,
    /// Seconds of training stall not hidden by the overlap (usually zero).
    pub stall_time: f64,
    /// Whether the adapted plan (or active GPU set) differs from the previous
    /// one.
    pub plan_changed: bool,
}

/// Run the planner for the observed rates, overlapping the planning time with
/// one training step of `current_step_time` seconds.
///
/// The stall computation uses the *wall-clock* time of the `replan` call, not
/// `PlanTiming::total()`: the per-phase breakdown sums candidate durations
/// across all workers (aggregate CPU time, what Table 5 accounts), which
/// overstates the elapsed time whenever the candidate fan-out runs on more
/// than one core — and the whole point of overlapped re-planning is that only
/// elapsed time can stall training.
pub fn replan_overlapped(
    planner: &Planner,
    snapshot: &ClusterSnapshot,
    previous: &ParallelizationPlan,
    current_step_time: f64,
) -> Result<ReplanOutcome, PlanError> {
    let t0 = std::time::Instant::now();
    let outcome = planner.replan(snapshot, previous)?;
    let planning_time = t0.elapsed().as_secs_f64();
    let stall_time = (planning_time - current_step_time).max(0.0);
    let plan_changed = outcome.plan != *previous;
    Ok(ReplanOutcome {
        outcome,
        planning_time,
        stall_time,
        plan_changed,
    })
}

/// Warm-start (delta) overlapped re-planning: like [`replan_overlapped`], but
/// threads the previous [`PlanOutcome`] — including its persisted scored
/// lattice — into [`Planner::replan_delta`], so drift-only events reuse
/// memoized candidate evaluations instead of re-enumerating the whole
/// lattice.  Structural events (node loss / node join) and planners with
/// [`malleus_core::PlannerConfig::incremental`] off fall back to full
/// enumeration inside `replan_delta`; either way the adapted plan is
/// byte-identical to what [`replan_overlapped`] would produce.
pub fn replan_overlapped_incremental(
    planner: &Planner,
    snapshot: &ClusterSnapshot,
    previous: &PlanOutcome,
    current_step_time: f64,
) -> Result<ReplanOutcome, PlanError> {
    let t0 = std::time::Instant::now();
    let outcome = planner.replan_delta(snapshot, previous)?;
    let planning_time = t0.elapsed().as_secs_f64();
    let stall_time = (planning_time - current_step_time).max(0.0);
    let plan_changed = outcome.plan != previous.plan;
    Ok(ReplanOutcome {
        outcome,
        planning_time,
        stall_time,
        plan_changed,
    })
}

/// Overlapped re-planning through an arbitrary [`PlanBackend`] handle.
///
/// The cluster event is classified from the previous outcome's active GPU set
/// against the observed snapshot ([`ClusterEvent::classify`] with the paper's
/// 5% threshold), then handed to the backend's `replan`.  Static backends
/// (plain Megatron-LM / DeepSpeed) answer failures with
/// `PlanError::CannotAdapt`, which propagates — the caller decides whether
/// that kills the run (it does, for them: that is the paper's point).
pub fn replan_overlapped_backend(
    backend: &dyn PlanBackend,
    snapshot: &ClusterSnapshot,
    previous: &PlannedOutcome,
    current_step_time: f64,
) -> Result<BackendReplan, PlanError> {
    let t0 = std::time::Instant::now();
    let event = ClusterEvent::classify(previous, snapshot, DEFAULT_STRAGGLER_THRESHOLD);
    let outcome = backend.replan(snapshot, previous, event)?;
    let planning_time = t0.elapsed().as_secs_f64();
    let stall_time = (planning_time - current_step_time).max(0.0);
    let plan_changed = outcome.plan != previous.plan || outcome.active_gpus != previous.active_gpus;
    Ok(BackendReplan {
        outcome,
        planning_time,
        stall_time,
        plan_changed,
    })
}

/// Service-backed overlapped re-planning: like [`replan_overlapped`], but the
/// planner invocation goes through a shared [`PlanTransport`] — an in-process
/// [`malleus_service::PlanService`] or a remote
/// [`malleus_service::PlanClient`] dialing a standalone plan daemon — so N
/// sessions replanning after the same cluster event (same snapshot, same
/// coefficients, same configuration, same backend) pay for one planner run
/// and share the cached plan.
///
/// For [`BackendId::Malleus`] this mirrors `Planner::replan` exactly: first
/// request the plan with the previous DP degree pinned (the paper maintains
/// DP across adjustments, footnote 2); if no feasible plan exists with that
/// degree, fall back to the unconstrained search.  Other backends are
/// stateless over the snapshot, so a single `plan_backend` request suffices.
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
    let t0 = std::time::Instant::now();
    let outcome = if backend == BackendId::Malleus {
        let mut pinned_config = config.clone();
        pinned_config.fixed_dp = Some(previous.dp());
        let pinned = PlanRequest::new(coeffs.clone(), snapshot.clone(), pinned_config);
        match transport.plan_routed(backend, &pinned) {
            Ok(outcome) => outcome,
            Err(ServiceError::Plan(_)) => transport.plan_routed(
                backend,
                &PlanRequest::new(coeffs.clone(), snapshot.clone(), config.clone()),
            )?,
            Err(e) => return Err(e),
        }
    } else {
        transport.plan_routed(
            backend,
            &PlanRequest::new(coeffs.clone(), snapshot.clone(), config.clone()),
        )?
    };
    let planning_time = t0.elapsed().as_secs_f64();
    let stall_time = (planning_time - current_step_time).max(0.0);
    let plan_changed = outcome.plan.as_ref() != Some(previous);
    Ok(BackendReplan {
        outcome: (*outcome).clone(),
        planning_time,
        stall_time,
        plan_changed,
    })
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
        let replan = replan_overlapped(&p, &cluster.snapshot(), &initial.plan, 12.0).unwrap();
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
        let replan = replan_overlapped(&p, &cluster.snapshot(), &initial.plan, 12.0).unwrap();
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
        let a = replan_overlapped(&serial, &snapshot, &initial.plan, 12.0).unwrap();
        let b = replan_overlapped(&parallel, &snapshot, &initial.plan, 12.0).unwrap();
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
        let direct = replan_overlapped(&p, &snapshot, &initial.plan, 12.0).unwrap();
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
            assert_eq!(
                shared.outcome,
                PlannedOutcome::from_malleus(direct.outcome.clone())
            );
            assert_eq!(shared.plan_changed, direct.plan_changed);
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
        let direct = replan_overlapped(&p, &snapshot, &initial.plan, 12.0).unwrap();
        let previous = PlannedOutcome::from_malleus(initial);
        let via_trait = replan_overlapped_backend(&p, &snapshot, &previous, 12.0).unwrap();
        assert_eq!(
            via_trait.outcome,
            PlannedOutcome::from_malleus(direct.outcome.clone())
        );
        assert_eq!(via_trait.plan_changed, direct.plan_changed);
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
        let full = replan_overlapped(&planner(), &snapshot, &initial.plan, 12.0).unwrap();
        let delta = replan_overlapped_incremental(&p, &snapshot, &initial, 12.0).unwrap();
        assert!(
            delta.outcome.lattice.as_ref().unwrap().delta,
            "drift-only event must consult the memo"
        );
        assert_eq!(delta.outcome, full.outcome);
        assert_eq!(delta.plan_changed, full.plan_changed);
    }

    #[test]
    fn stall_is_charged_when_step_time_is_tiny() {
        let p = planner();
        let mut cluster = Cluster::homogeneous(4, 8);
        let initial = p.plan(&cluster.snapshot()).unwrap();
        cluster.set_rate(GpuId(0), 2.57);
        let replan = replan_overlapped(&p, &cluster.snapshot(), &initial.plan, 0.0).unwrap();
        assert!(replan.stall_time > 0.0);
        assert!((replan.stall_time - replan.planning_time).abs() < 1e-12);
    }
}

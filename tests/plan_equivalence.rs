//! Deterministic-equivalence harness: every route to a plan returns
//! **byte-identical** plans — same `ParallelizationPlan`, same chosen TP/DP,
//! bit-equal cost estimates.
//!
//! The golden suite plans every paper workload (32B/70B/110B) under every
//! straggler situation S1–S6 on one direct planner, whose candidate memo
//! warms from situation to situation, and compares each plan with the
//! binary's shared planning service, which plans every request on a fresh
//! planner.  The service and backend suites then hold the service routes and
//! the `PlanBackend` trait to those plans.
//!
//! The incremental suite replays every situation against the memo-backed
//! replanner and demands byte-identity with the oracle, a fresh planner
//! built for each call, whose memo is empty — covering transitions from
//! Normal, chained S_i → S_{i+1} transitions, and the recurrent flap back to
//! an already-seen situation (full memo reuse).  Those hops are all-hit or
//! all-miss; the mixed suite at the end replays hops — drifts, failures and
//! rejoins — whose fold takes memo hits and fresh evaluations together.

mod common;

use malleus::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const SITUATIONS: [PaperSituation; 6] = [
    PaperSituation::S1,
    PaperSituation::S2,
    PaperSituation::S3,
    PaperSituation::S4,
    PaperSituation::S5,
    PaperSituation::S6,
];

fn assert_golden_equivalence(spec: ModelSpec, nodes: u32) {
    // The oracle side comes from the shared plan fixture (a binary-scoped
    // service planning each request on a fresh planner), so each oracle plan
    // is computed once per binary however many tests consult it.
    let direct = common::planner_for(&spec, 64);
    for situation in SITUATIONS {
        let snapshot = common::snapshot_for(nodes, situation);
        let oracle = common::planned(&spec, 64, nodes, situation);
        let candidate = direct
            .plan(&snapshot)
            .unwrap_or_else(|e| panic!("{} direct under {situation:?}: {e}", spec.name));
        assert_eq!(*oracle, candidate, "{} under {situation:?}", spec.name);
    }
}

#[test]
fn golden_plans_32b_match_serial_oracle_across_all_situations() {
    assert_golden_equivalence(ModelSpec::llama2_32b(), 4);
}

#[test]
fn golden_plans_70b_match_serial_oracle_across_all_situations() {
    assert_golden_equivalence(ModelSpec::llama2_70b(), 8);
}

#[test]
fn golden_plans_110b_match_serial_oracle_across_all_situations() {
    assert_golden_equivalence(ModelSpec::llama2_110b(), 8);
}

#[test]
fn service_plans_are_byte_identical_to_direct_planner() {
    // The multi-tenant planning service must be invisible in the output:
    // uncached (miss) and cached (hit) results byte-identical to a direct
    // `Planner::plan` call — the service only changes who pays for the
    // computation.  The direct reference is the shared oracle plan, which the
    // golden tests above prove bit-equal to the direct planner's.
    let service = PlanService::new(ServiceConfig::default());
    for (spec, nodes, situation) in [
        (ModelSpec::llama2_32b(), 4, PaperSituation::S3),
        (ModelSpec::llama2_70b(), 8, PaperSituation::S2),
    ] {
        let snapshot = common::snapshot_for(nodes, situation);
        let direct = common::planned(&spec, 64, nodes, situation);
        let request = PlanRequest::new(
            common::coeffs_for(&spec).clone(),
            snapshot,
            common::planner_for(&spec, 64).config,
        );
        let miss = service.plan(&request).expect("service plan (miss)");
        let hit = service.plan(&request).expect("service plan (hit)");
        for outcome in [&miss, &hit] {
            assert_eq!(direct, *outcome, "{} under {situation:?}", spec.name);
        }
    }
    let metrics = service.metrics();
    assert_eq!(metrics.planner_invocations, 2);
    assert_eq!(metrics.hits, 2);
    assert!(metrics.hit_rate() > 0.0);
}

#[test]
fn malleus_backend_trait_is_byte_identical_to_direct_planner() {
    // The PlanBackend trait path must be invisible for Malleus: identical
    // `ParallelizationPlan`, bit-equal estimates, for every golden situation.
    let spec = ModelSpec::llama2_32b();
    let planner = common::planner_for(&spec, 64);
    let config = planner.config.clone();
    for situation in SITUATIONS {
        let snapshot = common::snapshot_for(4, situation);
        let direct = planner
            .plan(&snapshot)
            .unwrap_or_else(|e| panic!("direct under {situation:?}: {e}"));
        let routed = PlanBackend::plan(&planner, &snapshot, &config)
            .unwrap_or_else(|e| panic!("trait under {situation:?}: {e}"));
        assert_eq!(
            routed,
            PlannedOutcome::from_malleus(direct),
            "under {situation:?}"
        );
    }
}

#[test]
fn service_backend_route_is_byte_identical_to_direct_planner() {
    // `plan_backend(Malleus, ...)` is `plan(...)` with a backend-neutral
    // envelope: the inner outcome must stay byte-identical to the direct
    // planner, and the legacy route must share the same cache entry.
    let service = PlanService::new(ServiceConfig::default());
    let spec = ModelSpec::llama2_32b();
    for situation in [PaperSituation::S1, PaperSituation::S5] {
        let snapshot = common::snapshot_for(4, situation);
        let direct = common::planned(&spec, 64, 4, situation);
        let request = PlanRequest::new(
            common::coeffs_for(&spec).clone(),
            snapshot,
            common::planner_for(&spec, 64).config,
        );
        let routed = service
            .plan_backend(BackendId::Malleus, &request)
            .expect("backend route");
        let legacy = service.plan(&request).expect("legacy route");
        let inner = routed.malleus.as_ref().expect("malleus outcome present");
        assert!(
            std::sync::Arc::ptr_eq(inner, &legacy),
            "both routes must serve the same cache entry"
        );
        assert_eq!(direct, legacy, "under {situation:?}");
    }
    let metrics = service.metrics();
    assert_eq!(metrics.planner_invocations, 2);
    assert_eq!(metrics.hits, 2);
    let per: Vec<_> = metrics.per_backend.iter().collect();
    assert_eq!(per.len(), 1, "only the Malleus backend saw traffic");
    assert_eq!(per[0].backend, BackendId::Malleus);
    assert_eq!(per[0].requests, 4);
    assert_eq!(per[0].planner_invocations, 2);
}

/// A fresh planner with `planner`'s coefficients and configuration: the
/// oracle, since its candidate memo is empty.
fn fresh(planner: &Planner) -> Planner {
    Planner::new(planner.cost.coeffs.clone(), planner.config.clone())
}

#[test]
fn incremental_replays_from_normal_match_the_full_enumeration_oracle() {
    // Every S1–S6 replay from the healthy plan: the memo-backed replanner
    // must be byte-identical to a fresh planner's replan, and attach its
    // lattice.
    let delta = common::planner_for(&ModelSpec::llama2_32b(), 64);
    let base = delta
        .plan(&common::snapshot_for(4, PaperSituation::Normal))
        .expect("healthy base plan");
    for situation in SITUATIONS {
        let snapshot = common::snapshot_for(4, situation);
        let warm = delta
            .replan(&snapshot, &base.plan)
            .unwrap_or_else(|e| panic!("delta replan under {situation:?}: {e}"));
        let full = fresh(&delta)
            .replan(&snapshot, &base.plan)
            .unwrap_or_else(|e| panic!("oracle replan under {situation:?}: {e}"));
        assert_eq!(warm, full, "under {situation:?}");
        assert!(
            warm.lattice.is_some(),
            "under {situation:?}: lattice attached"
        );
    }
}

#[test]
fn chained_incremental_replays_match_the_oracle_at_every_transition() {
    // Chained replay Normal → S1 → … → S6 → S2 → Normal, threading each
    // outcome's plan into the next replan.  The S2 and Normal revisits recur
    // to already-evaluated rate states, exercising the cross-invocation
    // candidate memo; byte-identity must hold at every hop.
    let delta = common::planner_for(&ModelSpec::llama2_32b(), 64);
    let replay = SITUATIONS
        .iter()
        .copied()
        .chain([PaperSituation::S2, PaperSituation::Normal]);
    let mut current = delta
        .plan(&common::snapshot_for(4, PaperSituation::Normal))
        .expect("healthy base plan");
    for situation in replay {
        let snapshot = common::snapshot_for(4, situation);
        let warm = delta
            .replan(&snapshot, &current.plan)
            .unwrap_or_else(|e| panic!("delta replan under {situation:?}: {e}"));
        let full = fresh(&delta)
            .replan(&snapshot, &current.plan)
            .unwrap_or_else(|e| panic!("oracle replan under {situation:?}: {e}"));
        assert_eq!(warm, full, "under {situation:?}");
        current = warm;
    }
}

/// Replay `hops` from the healthy 2×8 plan of the 13B model (global batch
/// 64) on one delta planner, checking every hop against a fresh planner;
/// returns the last hop's lattice.
fn replay_mixed_hops(hops: &[ClusterSnapshot]) -> Arc<ScoredLattice> {
    let delta = Planner::new(
        ProfiledCoefficients::derive(ModelSpec::llama2_13b(), HardwareParams::a800_cluster()),
        PlannerConfig {
            global_batch_size: 64,
            ..PlannerConfig::default()
        },
    );
    let healthy = Cluster::homogeneous(2, 8).snapshot();
    let mut current = delta.plan(&healthy).expect("healthy delta plan");
    let expected = fresh(&delta).plan(&healthy).expect("healthy oracle plan");
    assert_eq!(current, expected, "healthy plan");
    for (hop, snapshot) in hops.iter().enumerate() {
        let warm = delta
            .replan(snapshot, &current.plan)
            .unwrap_or_else(|e| panic!("delta replan at hop {hop}: {e}"));
        let expected = fresh(&delta)
            .replan(snapshot, &current.plan)
            .unwrap_or_else(|e| panic!("oracle replan at hop {hop}: {e}"));
        assert_eq!(warm, expected, "hop {hop}");
        let lattice = warm.lattice.as_ref().expect("lattice present");
        assert_eq!(
            lattice.reused + lattice.evaluated,
            lattice.entries.len(),
            "hop {hop}"
        );
        current = warm;
    }
    Arc::clone(current.lattice.as_ref().expect("lattice present"))
}

#[test]
fn mixed_memo_hits_and_fresh_evaluations_match_the_oracle() {
    // Normal → GPU 0 at 1.02 → GPUs 0 and 1 at 1.02.  Below the straggler
    // threshold nothing regroups, so on the last hop only the TP-1 grouping
    // (where GPU 1 is its own group) sees a new rate: its candidates are
    // evaluated afresh and every other candidate is a memo hit.
    let healthy = Cluster::homogeneous(2, 8).snapshot();
    let one = healthy.with_rate(GpuId(0), 1.02);
    let two = one.with_rate(GpuId(1), 1.02);
    let last = replay_mixed_hops(&[one, two]);
    assert_eq!(last.entries.len(), 18);
    assert_eq!(last.reused, 12);
    assert_eq!(last.evaluated, 6);
}

/// The straggling rates the mixed chains draw from, for GPUs 0, 1 and 9;
/// the infinite rate fails the GPU, and any finite rate after it rejoins it.
const MIXED_RATES: [f64; 6] = [1.0, 1.02, 1.3, 2.57, 5.42, f64::INFINITY];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random chains of drifts, failures and rejoins over GPUs 0, 1 (one
    /// node) and 9 (the other): whatever mix of memo hits and fresh
    /// evaluations a hop folds, it matches the oracle and accounts for every
    /// lattice entry.
    #[test]
    fn random_mixed_chains_match_the_oracle(
        chain in prop::collection::vec((0usize..6, 0usize..6, 0usize..6), 1..5),
    ) {
        let healthy = Cluster::homogeneous(2, 8).snapshot();
        let hops: Vec<ClusterSnapshot> = chain
            .iter()
            .map(|&(a, b, c)| {
                healthy
                    .with_rate(GpuId(0), MIXED_RATES[a])
                    .with_rate(GpuId(1), MIXED_RATES[b])
                    .with_rate(GpuId(9), MIXED_RATES[c])
            })
            .collect();
        replay_mixed_hops(&hops);
    }
}

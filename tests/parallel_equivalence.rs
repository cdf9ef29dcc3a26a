//! Deterministic-equivalence harness for the parallel candidate-lattice
//! planner.
//!
//! The serial path (`Parallelism::Fixed(1)`) is the reference oracle; the
//! parallel path must return **byte-identical** plans — same
//! `ParallelizationPlan`, same chosen TP/DP, bit-equal cost estimates — for
//! every golden workload (32B/70B/110B) under every paper straggler situation
//! S1–S6.  The candidate path is pinned to 4 workers so the fan-out is
//! exercised even on single-core hosts.
//!
//! The incremental suite below replays every situation against the
//! warm-start delta replanner and demands byte-identity with a fresh
//! `Fixed(1)` full-enumeration oracle — covering transitions from Normal,
//! chained S_i → S_{i+1} transitions, and the recurrent flap back to an
//! already-seen situation (full memo reuse).  Each replay runs at every
//! execution-policy cell: {`Fixed(1)`, `Fixed(4)`} × incremental {off, on}.

mod common;

use malleus::prelude::*;

const SITUATIONS: [PaperSituation; 6] = [
    PaperSituation::S1,
    PaperSituation::S2,
    PaperSituation::S3,
    PaperSituation::S4,
    PaperSituation::S5,
    PaperSituation::S6,
];

/// The worker knob for the candidate side: a fixed 4-worker fan-out.
const CANDIDATE_PARALLELISM: Parallelism = Parallelism::Fixed(4);

/// The execution-policy cells the incremental suite replays at: worker
/// count × incremental replanning.  Plans must not depend on either.
const POLICY_CELLS: [(Parallelism, bool); 4] = [
    (Parallelism::Fixed(1), false),
    (Parallelism::Fixed(1), true),
    (Parallelism::Fixed(4), false),
    (Parallelism::Fixed(4), true),
];

fn assert_golden_equivalence(spec: ModelSpec, nodes: u32) {
    // The serial side comes from the shared oracle fixture (a binary-scoped
    // service whose worker budget pins execution to `Fixed(1)`), so each
    // oracle plan is computed once per binary however many tests consult it.
    let parallel = common::planner_for(&spec, 64).with_parallelism(CANDIDATE_PARALLELISM);
    for situation in SITUATIONS {
        let snapshot = common::snapshot_for(nodes, situation);
        let oracle = common::oracle_planned(&spec, 64, nodes, situation);
        let candidate = parallel
            .plan(&snapshot)
            .unwrap_or_else(|e| panic!("{} parallel under {situation:?}: {e}", spec.name));
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
    // computation.  The direct reference is the shared serial-oracle plan,
    // which the golden tests above prove bit-equal to every other direct
    // planner configuration.
    let service = PlanService::new(ServiceConfig::default());
    for (spec, nodes, situation) in [
        (ModelSpec::llama2_32b(), 4, PaperSituation::S3),
        (ModelSpec::llama2_70b(), 8, PaperSituation::S2),
    ] {
        let snapshot = common::snapshot_for(nodes, situation);
        let direct = common::oracle_planned(&spec, 64, nodes, situation);
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
    let planner = common::planner_for(&spec, 64).with_parallelism(CANDIDATE_PARALLELISM);
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
        let direct = common::oracle_planned(&spec, 64, 4, situation);
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

/// The candidate-side planner for the incremental suite at one policy cell,
/// plus the cell's name for assertion messages.
fn delta_planner(
    spec: &ModelSpec,
    parallelism: Parallelism,
    incremental: bool,
) -> (Planner, String) {
    let mut config = common::planner_for(spec, 64).config;
    config.incremental = incremental;
    let planner =
        Planner::new(common::coeffs_for(spec).clone(), config).with_parallelism(parallelism);
    let cell = format!(
        "{parallelism:?}, incremental {}",
        if incremental { "on" } else { "off" }
    );
    (planner, cell)
}

#[test]
fn incremental_replays_from_normal_match_the_full_enumeration_oracle() {
    // Every S1–S6 replay from the healthy plan: the warm-start delta
    // replanner must be byte-identical to a fresh serial full-enumeration
    // replan, and its lattice must record whether the event was structural.
    let spec = ModelSpec::llama2_32b();
    let oracle = common::planner_for(&spec, 64).with_parallelism(Parallelism::Fixed(1));
    for (parallelism, incremental) in POLICY_CELLS {
        let (delta, cell) = delta_planner(&spec, parallelism, incremental);
        let base = delta
            .plan(&common::snapshot_for(4, PaperSituation::Normal))
            .unwrap_or_else(|e| panic!("{cell}: healthy base plan: {e}"));
        for situation in SITUATIONS {
            let snapshot = common::snapshot_for(4, situation);
            let warm = delta
                .replan_delta(&snapshot, &base)
                .unwrap_or_else(|e| panic!("{cell}: delta replan under {situation:?}: {e}"));
            let full = oracle
                .replan(&snapshot, &base.plan)
                .unwrap_or_else(|e| panic!("{cell}: oracle replan under {situation:?}: {e}"));
            assert_eq!(warm, full, "{cell} under {situation:?}");
            if let Some(base_lattice) = base.lattice.as_ref() {
                let expect_delta = !base_lattice.structural_change(&snapshot);
                assert_eq!(
                    warm.lattice.as_ref().expect("lattice present").delta,
                    expect_delta,
                    "{cell} under {situation:?}: wrong replanning route"
                );
            }
        }
    }
}

#[test]
fn chained_incremental_replays_match_the_oracle_at_every_transition() {
    // Chained replay Normal → S1 → … → S6 → S2 → Normal, threading each
    // outcome (and its lattice) into the next delta replan.  The S2 and
    // Normal revisits recur to already-evaluated rate states, exercising the
    // cross-invocation candidate memo; byte-identity must hold at every hop.
    let spec = ModelSpec::llama2_32b();
    let oracle = common::planner_for(&spec, 64).with_parallelism(Parallelism::Fixed(1));
    let replay: Vec<PaperSituation> = SITUATIONS
        .iter()
        .copied()
        .chain([PaperSituation::S2, PaperSituation::Normal])
        .collect();
    for (parallelism, incremental) in POLICY_CELLS {
        let (delta, cell) = delta_planner(&spec, parallelism, incremental);
        let mut current = delta
            .plan(&common::snapshot_for(4, PaperSituation::Normal))
            .unwrap_or_else(|e| panic!("{cell}: healthy base plan: {e}"));
        for &situation in &replay {
            let snapshot = common::snapshot_for(4, situation);
            let warm = delta
                .replan_delta(&snapshot, &current)
                .unwrap_or_else(|e| panic!("{cell}: delta replan under {situation:?}: {e}"));
            let full = oracle
                .replan(&snapshot, &current.plan)
                .unwrap_or_else(|e| panic!("{cell}: oracle replan under {situation:?}: {e}"));
            assert_eq!(warm, full, "{cell} under {situation:?}");
            current = warm;
        }
    }
}

#[test]
fn equivalence_holds_under_failures_and_forced_dp() {
    // Replanning fixes the DP degree; the parallel path must agree with the
    // oracle on the constrained lattice too, including when GPUs fail.
    let spec = ModelSpec::llama2_32b();
    let serial = common::planner_for(&spec, 64).with_parallelism(Parallelism::Fixed(1));
    let parallel = common::planner_for(&spec, 64).with_parallelism(CANDIDATE_PARALLELISM);
    let previous = common::healthy_plan_32b();
    let mut cluster = Cluster::homogeneous(4, 8);
    cluster.set_rate(GpuId(0), StragglerLevel::Level3.rate());
    cluster.set_rate(GpuId(13), StragglerLevel::Failed.rate());
    let snapshot = cluster.snapshot();
    let a = serial
        .replan(&snapshot, &previous.plan)
        .expect("serial replan");
    let b = parallel
        .replan(&snapshot, &previous.plan)
        .expect("parallel replan");
    assert_eq!(a, b);
}

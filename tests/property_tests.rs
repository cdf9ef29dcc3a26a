//! Cross-crate property-based tests on the planner, grouping and migration
//! invariants, driven by randomly generated straggler situations.

mod common;

use malleus::core::grouping::group_cluster;
use malleus::prelude::*;
use proptest::prelude::*;

/// A random straggler situation on a 4-node × 8-GPU cluster.
fn arb_rates() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((0u32..32, 1.0f64..16.0), 0..6)
}

fn snapshot_with(rates: &[(u32, f64)]) -> (Cluster, ClusterSnapshot) {
    let mut cluster = Cluster::homogeneous(4, 8);
    for &(gpu, rate) in rates {
        cluster.set_rate(GpuId(gpu), rate.max(1.0));
    }
    let snapshot = cluster.snapshot();
    (cluster, snapshot)
}

fn planner_32b() -> Planner {
    common::planner_for(&ModelSpec::llama2_32b(), 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever the straggler situation, the planner's output is a structurally
    /// valid plan covering all layers and the full global batch, fits in
    /// memory, and its estimated step time is finite.
    #[test]
    fn planner_always_produces_valid_plans(rates in arb_rates()) {
        let (_cluster, snapshot) = snapshot_with(&rates);
        let planner = planner_32b();
        let outcome = planner.plan(&snapshot).expect("a 32-GPU cluster always admits a plan");
        outcome.plan.validate(60, 64).expect("structurally valid");
        prop_assert!(planner.cost.memory_feasible(&outcome.plan));
        prop_assert!(outcome.estimated_step_time.is_finite());
        prop_assert!(outcome.estimated_step_time > 0.0);
        // Active + standby GPUs exactly cover the cluster.
        let active = outcome.plan.active_gpus().len();
        prop_assert_eq!(active + outcome.plan.removed_gpus.len(), 32);
    }

    /// The adapted plan is never (meaningfully) slower than the uniform
    /// Megatron-style plan evaluated under the same cost model.
    #[test]
    fn adapted_plan_never_loses_to_uniform(rates in arb_rates()) {
        let (_cluster, snapshot) = snapshot_with(&rates);
        let planner = planner_32b();
        let outcome = planner.plan(&snapshot).unwrap();
        let gpus: Vec<GpuId> = (0..32).map(GpuId).collect();
        let uniform = ParallelizationPlan::uniform(&gpus, 2, 4, 4, 60, 64, 1).unwrap();
        let uniform_time = planner.cost.step_time(&uniform, &snapshot);
        prop_assert!(
            outcome.estimated_step_time <= uniform_time * 1.05,
            "adapted {} vs uniform {}",
            outcome.estimated_step_time,
            uniform_time
        );
    }

    /// Grouping preserves every usable GPU exactly once and never crosses
    /// node boundaries, for every candidate TP degree.
    #[test]
    fn grouping_preserves_gpus(rates in arb_rates(), max_tp in prop::sample::select(vec![1u32, 2, 4, 8])) {
        let (_cluster, snapshot) = snapshot_with(&rates);
        let coeffs = ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let grouping = group_cluster(&snapshot, &coeffs, max_tp, 1, 1.05, true);
        let mut seen: Vec<GpuId> = grouping.groups.iter().flat_map(|g| g.gpus.clone()).collect();
        seen.sort();
        seen.dedup();
        prop_assert_eq!(seen.len(), 32, "every GPU appears exactly once");
        for group in &grouping.groups {
            let nodes: std::collections::HashSet<u32> =
                group.gpus.iter().map(|g| snapshot.node_of(*g)).collect();
            prop_assert_eq!(nodes.len(), 1, "TP groups stay within a node");
            prop_assert!(group.tp_degree() <= max_tp);
        }
    }

    /// Migration between any two planner outputs conserves traffic (bytes sent
    /// equal bytes received) and moves only layers that actually changed owner.
    #[test]
    fn migration_conserves_traffic(rates_a in arb_rates(), rates_b in arb_rates()) {
        let (_c1, snap_a) = snapshot_with(&rates_a);
        let (_c2, snap_b) = snapshot_with(&rates_b);
        let planner = planner_32b();
        let plan_a = planner.plan(&snap_a).unwrap().plan;
        let plan_b = planner.replan(&snap_b, &plan_a).unwrap().plan;
        let coeffs = common::coeffs_32b();
        let migration = plan_migration(&plan_a, &plan_b, coeffs);
        let traffic = migration.per_gpu_traffic(snap_a.num_gpus());
        let received: f64 = traffic.iter().map(|(r, _)| r).sum();
        let sent: f64 = traffic.iter().map(|(_, s)| s).sum();
        prop_assert!((received - sent).abs() < 1e-3);
        for mv in &migration.moves {
            prop_assert!(mv.src != mv.dst, "only real moves are recorded");
            prop_assert!(mv.bytes > 0.0);
        }
        // Migrating a plan onto itself is always free.
        prop_assert!(plan_migration(&plan_b, &plan_b, coeffs).is_empty());
    }

    /// The simulated step time never beats the theoretic optimum and a plan's
    /// simulated time is within sane bounds of the planner's estimate.
    #[test]
    fn simulated_time_brackets(rates in arb_rates()) {
        let (_cluster, snapshot) = snapshot_with(&rates);
        let planner = planner_32b();
        let coeffs = common::coeffs_32b();
        let outcome = planner.plan(&snapshot).unwrap();
        let report = simulate_step(coeffs, &outcome.plan, &snapshot).expect("plan fits");
        // Healthy reference for the theoretic optimum (shared fixture: planned
        // once per binary instead of once per case).
        let healthy = Cluster::homogeneous(4, 8).snapshot();
        let healthy_plan = common::healthy_plan_32b();
        let healthy_time = simulate_step(coeffs, &healthy_plan.plan, &healthy).unwrap().step_time;
        let optimum = malleus::baselines::theoretic_optimal_time(healthy_time, &snapshot);
        prop_assert!(report.step_time >= optimum * 0.95,
            "simulated {} cannot beat the theoretic optimum {}", report.step_time, optimum);
        let ratio = report.step_time / outcome.estimated_step_time;
        prop_assert!(ratio > 0.8 && ratio < 1.6, "estimate {} vs simulated {}", outcome.estimated_step_time, report.step_time);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Determinism across repeated runs: for random clusters, a planner's
    /// second `plan()` of a snapshot, served from its warm grouping and
    /// candidate memos, is bit-identical to its first.
    #[test]
    fn repeated_plans_are_bit_identical(rates in arb_rates()) {
        let (_cluster, snapshot) = snapshot_with(&rates);
        let planner = planner_32b();
        let first = planner.plan(&snapshot).unwrap();
        let second = planner.plan(&snapshot).unwrap();
        prop_assert_eq!(second.lattice.as_ref().unwrap().evaluated, 0);
        prop_assert_eq!(&first, &second);
    }
}

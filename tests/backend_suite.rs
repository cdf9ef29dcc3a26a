//! Backend golden + property suite.
//!
//! Pins the baseline planners' decisions on the paper's S1–S6 situations
//! (32B workload, 4×8 A800 cluster, batch 64) so refactors of the backend
//! layer cannot silently change what Megatron-LM or the restart remediation
//! would do, and property-checks the whole backend registry against the
//! theoretic lower bound of §2.3: no system — Malleus included — may claim a
//! step time below `theoretic_optimal_time` for its own healthy baseline.

mod common;

use malleus::prelude::*;
use proptest::prelude::*;

fn megatron_32b() -> MegatronPlanner {
    MegatronPlanner::new(common::coeffs_32b().clone(), 64, 8)
}

#[test]
fn megatron_search_is_pinned_on_the_32b_workload() {
    // The offline grid search over a healthy 32-GPU cluster must keep landing
    // on the Table-6-style configuration: full intra-node TP, no pipeline, no
    // activation checkpointing.
    let mega = megatron_32b();
    let all_gpus: Vec<GpuId> = (0..32).map(GpuId).collect();
    let (config, plan, healthy_time) = mega.search(&all_gpus).expect("megatron search");
    assert_eq!(config.to_string(), "DP4TP8PP1, mbs4");
    assert!(!config.activation_checkpointing);
    assert_eq!(plan.dp(), 4);
    assert_eq!(format!("{healthy_time:.6}"), "10.212093");
}

#[test]
fn megatron_step_times_are_pinned_across_situations() {
    // The tuned-but-static plan is gated by the slowest participant; these
    // are the Table-2 numbers the arena experiment reproduces.
    let mega = megatron_32b();
    let all_gpus: Vec<GpuId> = (0..32).map(GpuId).collect();
    let (config, plan, _) = mega.search(&all_gpus).expect("megatron search");
    let golden = [
        (PaperSituation::S1, "25.580498"),
        (PaperSituation::S2, "53.478557"),
        (PaperSituation::S3, "53.478557"),
        (PaperSituation::S4, "53.478557"),
        (PaperSituation::S5, "37.620713"),
        (PaperSituation::S6, "26.069937"),
    ];
    for (situation, expected) in golden {
        let snapshot = common::snapshot_for(4, situation);
        let t = mega
            .simulate_step(&plan, &snapshot, config.activation_checkpointing)
            .expect("simulate");
        assert_eq!(
            format!("{t:.6}"),
            expected,
            "megatron step time drifted under {situation:?}"
        );
    }
}

#[test]
fn restart_decisions_are_pinned_across_situations() {
    // Node-granularity exclusion: every situation needs a restart from the
    // full 4-node set, and identical straggler *placements* (S2/S3/S4 all
    // have their worst straggler on different nodes but the same survivor
    // count pattern) re-tune to identical configurations.
    let all_nodes: Vec<u32> = (0..4).collect();
    let golden_megatron = [
        (
            PaperSituation::S1,
            vec![1u32, 2, 3],
            "DP2TP4PP3, mbs1",
            "13.434451",
        ),
        (
            PaperSituation::S2,
            vec![1, 2, 3],
            "DP2TP4PP3, mbs1",
            "13.434451",
        ),
        (
            PaperSituation::S3,
            vec![2, 3],
            "DP4TP4PP1, mbs2",
            "19.377257",
        ),
        (PaperSituation::S4, vec![3], "DP1TP4PP2, mbs1", "37.804909"),
        (
            PaperSituation::S5,
            vec![2, 3],
            "DP4TP4PP1, mbs2",
            "19.377257",
        ),
        (
            PaperSituation::S6,
            vec![1, 2, 3],
            "DP2TP4PP3, mbs1",
            "13.434451",
        ),
    ];
    let golden_deepspeed = [
        (
            PaperSituation::S1,
            vec![1u32, 2, 3],
            "DP12SP2+AC, mbs6",
            "24.054821",
        ),
        (
            PaperSituation::S2,
            vec![1, 2, 3],
            "DP12SP2+AC, mbs6",
            "24.054821",
        ),
        (
            PaperSituation::S3,
            vec![2, 3],
            "DP16SP1+AC, mbs4",
            "29.818999",
        ),
        (PaperSituation::S4, vec![3], "DP8SP1+AC, mbs4", "58.809860"),
        (
            PaperSituation::S5,
            vec![2, 3],
            "DP16SP1+AC, mbs4",
            "29.818999",
        ),
        (
            PaperSituation::S6,
            vec![1, 2, 3],
            "DP12SP2+AC, mbs6",
            "24.054821",
        ),
    ];
    for (family, golden) in [
        (RestartFamily::Megatron, &golden_megatron),
        (RestartFamily::DeepSpeed, &golden_deepspeed),
    ] {
        let planner = RestartPlanner::new(family, common::coeffs_32b().clone(), 64, 8);
        for (situation, nodes, config, step) in golden {
            let snapshot = common::snapshot_for(4, *situation);
            let outcome = planner
                .handle_situation(&snapshot, Some(&all_nodes))
                .unwrap_or_else(|e| panic!("{family:?} under {situation:?}: {e}"));
            assert_eq!(&outcome.nodes_used, nodes, "{family:?} under {situation:?}");
            assert_eq!(&outcome.config, config, "{family:?} under {situation:?}");
            assert_eq!(
                format!("{:.6}", outcome.step_time),
                *step,
                "{family:?} step time drifted under {situation:?}"
            );
            assert!(outcome.restarted, "{family:?} under {situation:?}");
            assert!(outcome.restart_cost > 0.0);
        }
    }
}

/// Sparse stragglers on a 2-node × 8-GPU cluster (the 7B scale keeps every
/// backend's search fast enough for a property sweep).
fn arb_sparse_rates() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((0u32..16, 1.0f64..6.0), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// No backend — Malleus included — may report a step-time estimate below
    /// the theoretic optimum derived from its *own* healthy baseline: the
    /// bound assumes perfect fractional work splitting, which no concrete
    /// parallelization can beat.  Node-granularity backends are allowed to
    /// fail typed (`NoHealthyNodes`) when stragglers cover every node.
    #[test]
    fn no_backend_beats_the_theoretic_optimum(rates in arb_sparse_rates()) {
        let coeffs = common::coeffs_7b();
        let config = PlannerConfig {
            global_batch_size: 16,
            ..PlannerConfig::default()
        };
        let mut cluster = Cluster::homogeneous(2, 8);
        for &(gpu, rate) in &rates {
            cluster.set_rate(GpuId(gpu), rate.max(1.0));
        }
        let healthy = Cluster::homogeneous(2, 8).snapshot();
        let straggled = cluster.snapshot();

        let mut backends: Vec<Box<dyn PlanBackend>> = vec![Box::new(Planner::new(
            coeffs.clone(),
            config.clone(),
        ))];
        for (_, ctor) in baseline_constructors(8) {
            backends.push(ctor(coeffs, &config));
        }
        for backend in &backends {
            let healthy_outcome = backend
                .plan(&healthy, &config)
                .unwrap_or_else(|e| panic!("{} healthy plan: {e}", backend.id()));
            let optimum =
                theoretic_optimal_time(healthy_outcome.estimated_step_time, &straggled);
            match backend.plan(&straggled, &config) {
                Ok(outcome) => prop_assert!(
                    outcome.estimated_step_time >= optimum * 0.999,
                    "{} claims {} below optimum {}",
                    backend.id(),
                    outcome.estimated_step_time,
                    optimum
                ),
                Err(PlanError::NoHealthyNodes) => {
                    // Legal only when every node hosts a straggler.
                    let mut node_has_straggler = [false; 2];
                    for &(gpu, rate) in &rates {
                        if rate > 1.05 {
                            node_has_straggler[(gpu / 8) as usize] = true;
                        }
                    }
                    prop_assert!(node_has_straggler.iter().all(|&s| s));
                }
                Err(e) => panic!("{}: unexpected {e}", backend.id()),
            }
        }
    }
}

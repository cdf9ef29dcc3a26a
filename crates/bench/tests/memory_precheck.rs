//! The planner's memory pre-check (`Planner::memory_infeasible`) over the
//! paper's workloads and the large-scale scenario matrix.
//!
//! Test builds evaluate every proven candidate in full as well and assert
//! that it fails with the reason the proof gives, so each plan below checks
//! every proof it makes.  This sweep adds what that check cannot see: how
//! many candidates the bound proves, that none of them is feasible in its
//! plan's lattice, and which candidates of the 110B DP-4 lattice (the one
//! replan-drift replans) it proves.

use malleus_bench::{paper_workloads, ScenarioMatrix};
use malleus_cluster::{ClusterSnapshot, GpuId, PaperSituation};
use malleus_core::{GroupingResult, LatticeEntry, Planner, PlannerConfig};
use std::sync::Arc;

/// The grouping `planner` uses for `snapshot` at maximum TP degree `max_tp`.
fn grouping(planner: &Planner, snapshot: &ClusterSnapshot, max_tp: u32) -> Arc<GroupingResult> {
    planner.grouping_cache().get_or_compute(
        snapshot,
        snapshot.fingerprint(),
        &planner.cost.coeffs,
        max_tp,
        planner.config.straggler_threshold,
        planner.config.enable_group_splitting,
    )
}

/// Plan `snapshot` and return the lattice entries the pre-check proves,
/// after asserting that none of them is feasible; `None` when the plan
/// finds no feasible candidate.
fn proven(planner: &Planner, snapshot: &ClusterSnapshot) -> Option<Vec<LatticeEntry>> {
    let outcome = planner.plan(snapshot).ok()?;
    let lattice = outcome.lattice.expect("the candidate memo is on");
    let proven = lattice
        .entries
        .iter()
        .filter(|e| {
            planner.memory_infeasible(&grouping(planner, snapshot, e.max_tp), e.dp, e.micro_batch)
        })
        .inspect(|e| {
            assert!(
                e.estimated_step_time.is_none(),
                "proven memory-infeasible but feasible: {e:?}"
            );
        })
        .cloned()
        .collect();
    Some(proven)
}

/// Every situation of the paper's trace, Normal first.
fn situations() -> impl Iterator<Item = PaperSituation> {
    std::iter::once(PaperSituation::Normal).chain(PaperSituation::all())
}

/// 87 plans: the three paper workloads × Normal and S1–S6 × {free DP,
/// DP 4} × {all GPUs, node 0 failed}, then the 128-, 256- and 512-GPU
/// scenario matrix.  No proven candidate is feasible, and the number of
/// proofs is pinned, so a weaker bound fails here too: 2,492, of which
/// 2,396 are in the 83 plans that succeed.  Four plans find no feasible
/// candidate at all: the 110B model at DP 4 on the 56 GPUs left after node
/// 0 fails, in Normal, S1, S2 and S6.  The bound proves every candidate of
/// those four, 96 in all.
#[test]
fn no_proven_candidate_is_feasible() {
    let mut plans = 0;
    let mut proofs = 0;
    let mut infeasible = Vec::new();
    for workload in paper_workloads() {
        for fixed_dp in [None, Some(4)] {
            let planner = Planner::new(
                workload.coeffs(),
                PlannerConfig {
                    global_batch_size: workload.global_batch_size,
                    fixed_dp,
                    ..PlannerConfig::default()
                },
            );
            for situation in situations() {
                let snapshot = workload.snapshot_for(situation);
                let node0_failed = (0..8).fold(snapshot.clone(), |s, g| {
                    s.with_rate(GpuId(g), f64::INFINITY)
                });
                for (failed, snapshot) in [(false, snapshot), (true, node0_failed)] {
                    plans += 1;
                    if let Some(entries) = proven(&planner, &snapshot) {
                        proofs += entries.len();
                        continue;
                    }
                    infeasible.push((workload.label, fixed_dp, situation, failed));
                    let dp = fixed_dp.expect("every free-DP plan is feasible");
                    for &max_tp in &planner.config.candidate_tp_degrees {
                        let grouping = grouping(&planner, &snapshot, max_tp);
                        for &b in &planner.config.candidate_micro_batch_sizes {
                            assert!(
                                planner.memory_infeasible(&grouping, dp, b),
                                "{} {situation:?}: tp={max_tp} b={b} not proven",
                                workload.label
                            );
                            // One proof per division mode.
                            proofs += 2;
                        }
                    }
                }
            }
        }
    }
    for scenario in ScenarioMatrix::large_scale().scenarios {
        proofs += proven(&scenario.planner(), &scenario.snapshot())
            .expect("the scenario matrix plans")
            .len();
        plans += 1;
    }
    assert_eq!(plans, 87);
    assert_eq!(proofs, 2492, "candidates proven memory-infeasible");
    let at_dp4 = |situation| ("110B", Some(4), situation, true);
    assert_eq!(
        infeasible,
        [
            at_dp4(PaperSituation::Normal),
            at_dp4(PaperSituation::S1),
            at_dp4(PaperSituation::S2),
            at_dp4(PaperSituation::S6),
        ]
    );
}

/// The 110B model on its 64 GPUs at DP 4 has 24 candidates per plan.  In
/// Normal the bound proves 14: every TP-1 candidate, TP 2 at b 2 and 4, TP
/// 4 at b 4 and TP 8 at b 4, each in both division modes; the TP-8
/// grouping is 8 groups, at most two stages per pipeline, and two TP-8
/// stages cannot hold the model at b 4.  In S1–S6 it proves 18: a
/// straggler splits its node into TP-1 groups, which makes room for more
/// stages, but the groups counted per degree still prove TP 4 at b 2 and
/// TP 8 at b 2 and 4 (after S3 the TP-4 grouping is 14 TP-4 and 8 TP-1
/// groups, the TP-8 grouping 6 TP-8 and 16 TP-1).
#[test]
fn proven_set_of_the_110b_dp4_lattice_is_pinned() {
    let workload = paper_workloads()
        .into_iter()
        .find(|w| w.label == "110B")
        .expect("110B workload");
    let planner = Planner::new(
        workload.coeffs(),
        PlannerConfig {
            global_batch_size: workload.global_batch_size,
            fixed_dp: Some(4),
            ..PlannerConfig::default()
        },
    );
    let normal = [(1, 1), (1, 2), (1, 4), (2, 2), (2, 4), (4, 4), (8, 4)];
    let with_stragglers = [
        (1, 1),
        (1, 2),
        (1, 4),
        (2, 2),
        (2, 4),
        (4, 2),
        (4, 4),
        (8, 2),
        (8, 4),
    ];
    for situation in situations() {
        let expected: &[(u32, u64)] = if situation == PaperSituation::Normal {
            &normal
        } else {
            &with_stragglers
        };
        let expected: Vec<(u32, u64, bool)> = expected
            .iter()
            .copied()
            .flat_map(|(tp, b)| [(tp, b, true), (tp, b, false)])
            .collect();
        let got: Vec<(u32, u64, bool)> = proven(&planner, &workload.snapshot_for(situation))
            .expect("the 110B model plans at DP 4 on all 64 GPUs")
            .iter()
            .map(|e| {
                assert_eq!(e.dp, 4);
                (e.max_tp, e.micro_batch, e.nonuniform_division)
            })
            .collect();
        assert_eq!(got, expected, "{situation:?}");
    }
}

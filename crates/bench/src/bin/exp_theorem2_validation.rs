//! Figure 5 + Figure 11 (Appendix B.7): group splitting candidates and the
//! Theorem 2 ranking.
//!
//! One node of the 110B workload hosts three stragglers (x = 2.57, 5.42,
//! 12.53).  After isolating the heaviest straggler, the remaining seven GPUs
//! can be re-grouped into {4, 2, 1}-sized consecutive runs in several ways
//! (Appendix B.7).  For each grouping possibility the harness reports the
//! Theorem 2 estimate (relative, from the harmonic capacity) and the
//! end-to-end simulated step time of the full plan built on top of it,
//! verifying that the constant-time estimate ranks the candidates in the same
//! order as the expensive end-to-end evaluation.
//!
//! ```bash
//! cargo run --release -p malleus-bench --bin exp_theorem2_validation
//! ```

use malleus_bench::paper_workloads;
use malleus_bench::table::Table;
use malleus_cluster::{Cluster, GpuId};
use malleus_core::{
    assignment::assign_data, grouping::GroupingResult, orchestration, CostModel,
    ParallelizationPlan, PipelinePlan, TpGroup,
};
use malleus_sim::TrainingSimulator;
use malleus_solver::harmonic_capacity;
use std::collections::BTreeSet;

/// Build a full plan from a fixed grouping result by running the orchestration
/// and lower-level assignment stages of the planner.
fn plan_from_grouping(
    cost: &CostModel,
    grouping: &GroupingResult,
    snapshot: &malleus_cluster::ClusterSnapshot,
    dp: usize,
    global_batch: u64,
    num_layers: u64,
) -> Option<ParallelizationPlan> {
    let division =
        orchestration::divide_groups(cost, grouping, snapshot, dp, global_batch, 1, true).ok()?;
    let mut assignments = Vec::new();
    for groups in &division.pipelines {
        assignments.push(orchestration::order_and_assign_layers(
            cost, groups, snapshot, num_layers, 1, dp as u32, false,
        )?);
    }
    let objectives: Vec<f64> = assignments.iter().map(|a| a.objective).collect();
    let micro_batches = assign_data(&objectives, global_batch, false)?;
    let pipelines: Vec<PipelinePlan> = assignments
        .iter()
        .zip(micro_batches.iter())
        .map(|(a, &m)| PipelinePlan {
            stages: a.stages.clone(),
            num_micro_batches: m,
        })
        .collect();
    let active: BTreeSet<GpuId> = pipelines.iter().flat_map(|p| p.gpus()).collect();
    let removed = (0..snapshot.num_gpus() as u32)
        .map(GpuId)
        .filter(|g| !active.contains(g))
        .collect();
    Some(ParallelizationPlan {
        pipelines,
        micro_batch_size: 1,
        removed_gpus: removed,
    })
}

fn main() {
    println!("Experiment: Theorem 2 ranking of group-splitting candidates (Figures 5 and 11)");
    let workload = &paper_workloads()[2]; // 110B on 64 GPUs
    let coeffs = workload.coeffs();
    let cost = CostModel::new(coeffs.clone());
    let simulator = TrainingSimulator::new(coeffs.clone());

    let mut cluster = Cluster::homogeneous(workload.num_nodes, 8);
    cluster.set_rate(GpuId(0), 12.53);
    cluster.set_rate(GpuId(1), 5.42);
    cluster.set_rate(GpuId(2), 2.57);
    let snapshot = cluster.snapshot();

    // The heavy straggler (GPU 0) is isolated; the remaining 7 GPUs of node 0
    // are re-grouped into {4, 2, 1} in three representative orders (Figure 5).
    // GPUs of node 0 sorted by descending rate: 1 (5.42), 2 (2.57), 3..7 (1.0).
    let sorted: Vec<GpuId> = vec![1, 2, 3, 4, 5, 6, 7].into_iter().map(GpuId).collect();
    let candidates: Vec<(&str, Vec<usize>)> = vec![
        ("sizes [2,4,1]", vec![2, 4, 1]),
        ("sizes [2,1,4]", vec![2, 1, 4]),
        ("sizes [1,2,4]", vec![1, 2, 4]),
        ("sizes [4,2,1]", vec![4, 2, 1]),
    ];

    let mut table = Table::new([
        "grouping possibility",
        "Σ 1/y (node 0)",
        "Theorem 2 est. (rel)",
        "simulated step (s)",
    ]);
    let mut results: Vec<(f64, f64)> = Vec::new();
    for (label, sizes) in &candidates {
        // Build node 0's groups: the isolated heavy straggler + consecutive runs.
        let mut groups = vec![TpGroup::new(vec![GpuId(0)])];
        let mut offset = 0usize;
        for &size in sizes {
            groups.push(TpGroup::new(sorted[offset..offset + size].to_vec()));
            offset += size;
        }
        // Other nodes stay as full TP-8 groups.
        for node in 1..workload.num_nodes {
            groups.push(TpGroup::new((node * 8..node * 8 + 8).map(GpuId).collect()));
        }
        let grouping = GroupingResult { max_tp: 8, groups };
        let rates = grouping.group_rates(&snapshot, &coeffs, 1);
        let node0_capacity = harmonic_capacity(&rates[..sizes.len() + 1]);
        let total_capacity = harmonic_capacity(&rates);
        let theorem2_estimate = 1.0 / total_capacity;

        let simulated = plan_from_grouping(&cost, &grouping, &snapshot, 2, 64, 80)
            .and_then(|plan| simulator.step(&plan, &snapshot).ok())
            .map(|r| r.step_time)
            .unwrap_or(f64::NAN);
        results.push((theorem2_estimate, simulated));
        table.row([
            label.to_string(),
            format!("{node0_capacity:.3}"),
            format!("{theorem2_estimate:.4}"),
            format!("{simulated:.2}"),
        ]);
    }
    table.print();

    // Check rank agreement between the Theorem 2 estimate and the simulation.
    let best_by_estimate = results
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .map(|(i, _)| i)
        .unwrap();
    let best_by_simulation = results
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map(|(i, _)| i)
        .unwrap();
    println!(
        "\nTheorem 2 picks candidate #{best_by_estimate}, end-to-end simulation picks #{best_by_simulation} ({})",
        if best_by_estimate == best_by_simulation {
            "agreement"
        } else {
            "disagreement — see EXPERIMENTS.md discussion"
        }
    );
}

//! Pipeline orchestration (§4.3.2): divide the TP groups into `DP` pipelines
//! and order the groups within each pipeline.
//!
//! * **Pipeline division** treats the majority-rate groups as interchangeable
//!   "fast" groups and solves the Eq. (4) MINLP (via `malleus-solver`) to place
//!   the slow groups and balance the relaxed per-pipeline capacities.
//! * **Group ordering** applies Theorem 3 (equal-size groups are ordered by
//!   descending straggling rate — faster groups serve the later stages because
//!   later stages retain fewer in-flight activations and can therefore hold
//!   more layers) and enumerates the ≤ 4! orderings of the size *bundles* when
//!   groups of different TP degrees share a pipeline.  The search walks
//!   group indices and clones only the winning order's groups.

use crate::assignment::{LayerAssignment, LayerScratch};
use crate::cost::CostModel;
use crate::error::PlanError;
use crate::grouping::GroupingResult;
use crate::plan::TpGroup;
use malleus_cluster::ClusterSnapshot;
use malleus_solver::{divide_pipelines, DivisionProblem};
use serde::{Deserialize, Serialize};

/// The groups of each pipeline after division (not yet ordered).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineDivision {
    /// For each pipeline, the TP groups assigned to it.
    pub pipelines: Vec<Vec<TpGroup>>,
}

/// Relative tolerance used to decide whether two group rates are "the same"
/// (the majority-rate detection of §4.3.2).
const RATE_TOLERANCE: f64 = 1e-6;

/// Split the grouping result into `dp` pipelines.
///
/// When `nonuniform_stages` is false (Figure 9 ablation and the uniform
/// baselines) every pipeline receives the same number of groups, assigned
/// round-robin by descending rate so slow groups still spread out.
pub fn divide_groups(
    cost: &CostModel,
    grouping: &GroupingResult,
    snapshot: &ClusterSnapshot,
    dp: usize,
    total_micro_batches: u64,
    micro_batch_size: u64,
    nonuniform_stages: bool,
) -> Result<PipelineDivision, PlanError> {
    let groups = &grouping.groups;
    if dp == 0 || groups.len() < dp {
        return Err(PlanError::InfeasibleDataParallel {
            dp,
            groups: groups.len(),
        });
    }
    let rates = grouping.group_rates(snapshot, &cost.coeffs, micro_batch_size);

    if !nonuniform_stages {
        // Equal group counts per pipeline; distribute in descending-rate order
        // round-robin so each pipeline sees a similar mix.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]));
        let mut pipelines: Vec<Vec<TpGroup>> = vec![Vec::new(); dp];
        for (pos, gidx) in order.into_iter().enumerate() {
            pipelines[pos % dp].push(groups[gidx].clone());
        }
        return Ok(PipelineDivision { pipelines });
    }

    // Identify the majority ("fast") rate.
    let mut sorted_rates: Vec<f64> = rates.clone();
    sorted_rates.sort_by(|a, b| a.total_cmp(b));
    let mut best_value = sorted_rates[0];
    let mut best_count = 0usize;
    let mut i = 0usize;
    while i < sorted_rates.len() {
        let v = sorted_rates[i];
        let mut j = i;
        while j < sorted_rates.len() && (sorted_rates[j] - v).abs() <= RATE_TOLERANCE * v.max(1.0) {
            j += 1;
        }
        if j - i > best_count {
            best_count = j - i;
            best_value = v;
        }
        i = j;
    }
    let is_fast = |r: f64| (r - best_value).abs() <= RATE_TOLERANCE * best_value.max(1.0);

    let fast_indices: Vec<usize> = (0..groups.len()).filter(|&g| is_fast(rates[g])).collect();
    let slow_indices: Vec<usize> = (0..groups.len()).filter(|&g| !is_fast(rates[g])).collect();
    let slow_rates: Vec<f64> = slow_indices.iter().map(|&g| rates[g]).collect();

    let problem = DivisionProblem::new(
        dp,
        fast_indices.len(),
        best_value,
        slow_rates,
        total_micro_batches,
    );
    let division = divide_pipelines(&problem).map_err(|e| PlanError::NoFeasiblePlan {
        reason: format!("pipeline division failed: {e}"),
    })?;

    let mut pipelines: Vec<Vec<TpGroup>> = vec![Vec::new(); dp];
    let mut fast_iter = fast_indices.into_iter();
    for (i, &count) in division.fast_per_pipeline.iter().enumerate() {
        for _ in 0..count {
            let gidx = fast_iter.next().ok_or_else(|| PlanError::NoFeasiblePlan {
                reason: "division requested more fast groups than exist".into(),
            })?;
            pipelines[i].push(groups[gidx].clone());
        }
    }
    for (k, &p) in division.slow_assignment.iter().enumerate() {
        pipelines[p].push(groups[slow_indices[k]].clone());
    }
    if pipelines.iter().any(|p| p.is_empty()) {
        return Err(PlanError::InfeasibleDataParallel {
            dp,
            groups: groups.len(),
        });
    }
    Ok(PipelineDivision { pipelines })
}

/// Order the groups of one pipeline and assign layers to them.
///
/// Groups are bundled by TP degree; within a bundle Theorem 3 applies (sort by
/// descending rate).  All permutations of the bundles (≤ 4! since TP degrees
/// are in {1,2,4,8}) are evaluated through the layer-assignment ILP and the
/// best feasible ordering is returned.  Each group's TP degree and rate are
/// computed once, the orders are walked as group indices in a per-thread
/// scratch, and only the winning order's groups are cloned.
pub fn order_and_assign_layers(
    cost: &CostModel,
    pipeline_groups: &[TpGroup],
    snapshot: &ClusterSnapshot,
    num_layers: u64,
    micro_batch_size: u64,
    zero_dp: u32,
    uniform_layers: bool,
) -> Option<LayerAssignment> {
    LayerScratch::with(|s| {
        s.load(cost, pipeline_groups, snapshot, micro_batch_size);
        // Bundle by TP degree, ascending; Theorem 3 within a bundle:
        // descending group rate, ties in pipeline order (the sort is stable).
        s.bundled.clear();
        s.bundled.extend(0..pipeline_groups.len());
        let (degrees, rates) = (&s.degrees, &s.rates);
        s.bundled.sort_by(|&a, &b| {
            degrees[a]
                .cmp(&degrees[b])
                .then_with(|| rates[b].total_cmp(&rates[a]))
        });
        s.bundle_starts.clear();
        for (i, &g) in s.bundled.iter().enumerate() {
            if i == 0 || s.degrees[g] != s.degrees[s.bundled[i - 1]] {
                s.bundle_starts.push(i);
            }
        }
        s.bundle_starts.push(s.bundled.len());

        // Enumerate permutations of the bundles.
        let mut perm = std::mem::take(&mut s.perm);
        perm.clear();
        perm.extend(0..s.bundle_starts.len() - 1);
        permute(&mut perm, 0, &mut |perm| {
            s.order.clear();
            for &bi in perm {
                let bundle = s.bundle_starts[bi]..s.bundle_starts[bi + 1];
                s.order.extend_from_slice(&s.bundled[bundle]);
            }
            s.solve_order(cost, num_layers, micro_batch_size, zero_dp, uniform_layers);
        });
        s.perm = perm;
        s.best_assignment(pipeline_groups)
    })
}

/// In-place permutation enumeration (Heap's algorithm would also do; the bundle
/// count is at most 4 so simplicity wins).
fn permute<F: FnMut(&[usize])>(items: &mut Vec<usize>, start: usize, visit: &mut F) {
    if start == items.len() {
        visit(items);
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute(items, start + 1, visit);
        items.swap(start, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_cluster;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};

    fn cost_model(spec: ModelSpec) -> CostModel {
        CostModel::new(ProfiledCoefficients::derive(
            spec,
            HardwareParams::a800_cluster(),
        ))
    }

    #[test]
    fn healthy_cluster_divides_evenly() {
        let cost = cost_model(ModelSpec::llama2_32b());
        let cluster = Cluster::homogeneous(4, 8);
        let snapshot = cluster.snapshot();
        let grouping = group_cluster(&snapshot, &cost.coeffs, 8, 1, 1.05, true);
        let division =
            divide_groups(&cost, &grouping, &snapshot, 2, 64, 1, true).expect("division");
        assert_eq!(division.pipelines.len(), 2);
        assert_eq!(division.pipelines[0].len(), 2);
        assert_eq!(division.pipelines[1].len(), 2);
    }

    #[test]
    fn uniform_stage_division_gives_equal_counts() {
        let cost = cost_model(ModelSpec::llama2_32b());
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 5.42);
        let snapshot = cluster.snapshot();
        let grouping = group_cluster(&snapshot, &cost.coeffs, 4, 1, 1.05, false);
        let division =
            divide_groups(&cost, &grouping, &snapshot, 4, 64, 1, false).expect("division");
        assert!(division.pipelines.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn too_few_groups_for_dp_is_an_error() {
        let cost = cost_model(ModelSpec::llama2_32b());
        let cluster = Cluster::homogeneous(1, 8);
        let snapshot = cluster.snapshot();
        let grouping = group_cluster(&snapshot, &cost.coeffs, 8, 1, 1.05, true);
        assert!(matches!(
            divide_groups(&cost, &grouping, &snapshot, 4, 64, 1, true),
            Err(PlanError::InfeasibleDataParallel { .. })
        ));
    }

    #[test]
    fn theorem3_orders_slower_groups_first() {
        // Two equal-size groups, one containing a straggler: the straggling
        // group must serve the earlier stage (descending rate order).
        let cost = cost_model(ModelSpec::llama2_32b());
        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(0), 2.57);
        let snapshot = cluster.snapshot();
        let g_slow = TpGroup::new((0..8).map(GpuId).collect());
        let g_fast = TpGroup::new((8..16).map(GpuId).collect());
        let assignment = order_and_assign_layers(
            &cost,
            &[g_fast.clone(), g_slow.clone()],
            &snapshot,
            60,
            1,
            1,
            false,
        )
        .unwrap();
        assert_eq!(assignment.stages[0].group, g_slow);
        assert_eq!(assignment.stages[1].group, g_fast);
        // And the slower first stage holds fewer layers.
        assert!(assignment.stages[0].layers < assignment.stages[1].layers);
    }

    #[test]
    fn mixed_degree_bundles_are_all_tried() {
        // One TP-8 group, one TP-4 + TP-2 + TP-1 + TP-1 from a split node: the
        // ordering search must return a feasible assignment covering all
        // layers.
        let cost = cost_model(ModelSpec::llama2_7b());
        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(0), 12.53);
        let snapshot = cluster.snapshot();
        let grouping = group_cluster(&snapshot, &cost.coeffs, 8, 1, 1.05, true);
        // Use all groups as a single pipeline.
        let assignment =
            order_and_assign_layers(&cost, &grouping.groups, &snapshot, 32, 1, 1, false).unwrap();
        let total: u32 = assignment.stages.iter().map(|s| s.layers).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn division_keeps_every_group_exactly_once() {
        let cost = cost_model(ModelSpec::llama2_32b());
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(3), 5.42);
        cluster.set_rate(GpuId(9), 2.57);
        let snapshot = cluster.snapshot();
        let grouping = group_cluster(&snapshot, &cost.coeffs, 8, 1, 1.05, true);
        let division =
            divide_groups(&cost, &grouping, &snapshot, 2, 64, 1, true).expect("division");
        let mut seen: Vec<GpuId> = division
            .pipelines
            .iter()
            .flat_map(|p| p.iter().flat_map(|g| g.gpus.clone()))
            .collect();
        seen.sort();
        let mut expected: Vec<GpuId> = grouping
            .groups
            .iter()
            .flat_map(|g| g.gpus.clone())
            .collect();
        expected.sort();
        assert_eq!(seen, expected);
    }
}

//! Frozen clone-based group ordering and layer assignment: the
//! `order_and_assign_layers` and `assign_layers` that cloned every group of
//! every bundle permutation and recomputed group rates in each comparison
//! and each re-solve.  Kept verbatim as the oracle of
//! `ordering_matches_the_frozen_clone_based_search`; the planner's
//! equivalence suites compare the planner with itself, so this sweep is
//! what checks that the index-based ordering picks the same stages.
//!
//! Do not "improve" this module: its value is that it does not change.

use crate::assignment::LayerAssignment;
use crate::cost::CostModel;
use crate::plan::{StagePlan, TpGroup};
use malleus_cluster::ClusterSnapshot;
use malleus_solver::solve_minmax_allocation;

/// Assign `num_layers` layers to the ordered `groups` of one pipeline.
///
/// When `uniform` is set, layers are split evenly (the Megatron-style baseline
/// and the Figure 9 ablation); otherwise the Eq. (2) ILP is solved.  Returns
/// `None` when no feasible assignment exists under the memory model.
pub fn assign_layers(
    cost: &CostModel,
    groups: &[TpGroup],
    snapshot: &ClusterSnapshot,
    num_layers: u64,
    micro_batch_size: u64,
    zero_dp: u32,
    uniform: bool,
) -> Option<LayerAssignment> {
    let mut active: Vec<TpGroup> = groups.to_vec();
    let mut dropped: Vec<TpGroup> = Vec::new();
    loop {
        if active.is_empty() {
            return None;
        }
        let pp = active.len();
        let weights: Vec<f64> = active
            .iter()
            .map(|g| {
                cost.coeffs
                    .group_rate(g.tp_degree(), g.max_rate(snapshot), micro_batch_size)
            })
            .collect();
        let caps: Vec<Option<u64>> = active
            .iter()
            .enumerate()
            .map(|(j, g)| cost.max_layers(g.tp_degree(), j, pp, micro_batch_size, zero_dp))
            .collect();
        // A stage whose ν alone exceeds the budget is unusable in this position.
        if caps.iter().any(|c| c.is_none()) {
            return None;
        }
        let layers: Vec<u64> = if uniform {
            let base = num_layers / pp as u64;
            let extra = num_layers % pp as u64;
            let layers: Vec<u64> = (0..pp)
                .map(|j| base + if (j as u64) < extra { 1 } else { 0 })
                .collect();
            for (j, &l) in layers.iter().enumerate() {
                if let Some(cap) = caps[j] {
                    if l > cap {
                        return None;
                    }
                }
            }
            layers
        } else {
            match solve_minmax_allocation(&weights, num_layers, &caps) {
                Ok(result) => result.amounts,
                Err(_) => return None,
            }
        };

        if !uniform && layers.contains(&0) {
            // Drop zero-layer stages (their straggling rate is too high to be
            // worth any work) and re-solve with the shorter pipeline, whose
            // memory coefficients are more favourable.
            let mut next_active = Vec::new();
            for (g, &l) in active.iter().zip(layers.iter()) {
                if l == 0 {
                    dropped.push(g.clone());
                } else {
                    next_active.push(g.clone());
                }
            }
            active = next_active;
            continue;
        }

        let objective = layers
            .iter()
            .zip(weights.iter())
            .map(|(&l, &w)| l as f64 * w)
            .fold(0.0, f64::max);
        let stages = active
            .iter()
            .zip(layers.iter())
            .map(|(g, &l)| StagePlan {
                group: g.clone(),
                layers: l as u32,
            })
            .collect();
        return Some(LayerAssignment {
            stages,
            dropped_groups: dropped,
            objective,
        });
    }
}

/// Order the groups of one pipeline and assign layers to them.
///
/// Groups are bundled by TP degree; within a bundle Theorem 3 applies (sort by
/// descending rate).  All permutations of the bundles (≤ 4! since TP degrees
/// are in {1,2,4,8}) are evaluated through the layer-assignment ILP and the
/// best feasible ordering is returned.
pub fn order_and_assign_layers(
    cost: &CostModel,
    pipeline_groups: &[TpGroup],
    snapshot: &ClusterSnapshot,
    num_layers: u64,
    micro_batch_size: u64,
    zero_dp: u32,
    uniform_layers: bool,
) -> Option<LayerAssignment> {
    // Bundle by TP degree.
    let mut degrees: Vec<u32> = pipeline_groups.iter().map(|g| g.tp_degree()).collect();
    degrees.sort_unstable();
    degrees.dedup();

    let bundles: Vec<Vec<TpGroup>> = degrees
        .iter()
        .map(|&d| {
            let mut bundle: Vec<TpGroup> = pipeline_groups
                .iter()
                .filter(|g| g.tp_degree() == d)
                .cloned()
                .collect();
            // Theorem 3: descending group straggling rate within the bundle.
            bundle.sort_by(|a, b| {
                let ya =
                    cost.coeffs
                        .group_rate(a.tp_degree(), a.max_rate(snapshot), micro_batch_size);
                let yb =
                    cost.coeffs
                        .group_rate(b.tp_degree(), b.max_rate(snapshot), micro_batch_size);
                yb.total_cmp(&ya)
            });
            bundle
        })
        .collect();

    // Enumerate permutations of the bundles.
    let mut best: Option<LayerAssignment> = None;
    let mut indices: Vec<usize> = (0..bundles.len()).collect();
    permute(&mut indices, 0, &mut |perm| {
        let ordered: Vec<TpGroup> = perm
            .iter()
            .flat_map(|&bi| bundles[bi].iter().cloned())
            .collect();
        if let Some(assignment) = assign_layers(
            cost,
            &ordered,
            snapshot,
            num_layers,
            micro_batch_size,
            zero_dp,
            uniform_layers,
        ) {
            if best
                .as_ref()
                .map(|b| assignment.objective < b.objective - 1e-15)
                .unwrap_or(true)
            {
                best = Some(assignment);
            }
        }
    });
    best
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
    use crate::orchestration::divide_groups;
    use crate::DEFAULT_STRAGGLER_THRESHOLD;
    use malleus_cluster::{Cluster, PaperSituation};
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};

    #[test]
    fn ordering_matches_the_frozen_clone_based_search() {
        // Every pipeline `divide_groups` yields for the paper's three
        // workloads (global batch 64) under Normal and S1-S6, at max TP
        // {1, 2, 4, 8} with group splitting on and off, dp {1, 2, 4, 8, 16},
        // b {1, 2, 4} and both division modes, plus each whole grouping as
        // one pipeline; each ordered in both layer modes.
        let workloads = [
            (ModelSpec::llama2_32b(), 4),
            (ModelSpec::llama2_70b(), 8),
            (ModelSpec::llama2_110b(), 8),
        ];
        let mut situations = vec![PaperSituation::Normal];
        situations.extend(PaperSituation::all());
        let (mut checked, mut feasible) = (0_usize, 0_usize);
        for (spec, nodes) in workloads {
            let cost = CostModel::new(ProfiledCoefficients::derive(
                spec,
                HardwareParams::a800_cluster(),
            ));
            let num_layers = cost.coeffs.spec.num_layers as u64;
            for situation in &situations {
                let mut cluster = Cluster::homogeneous(nodes, 8);
                let rates = situation.situation(&cluster).rates;
                cluster.apply_situation(&rates);
                let snapshot = cluster.snapshot();
                // (groups, ZeRO degree, micro-batch size) of every pipeline.
                let mut pipelines: Vec<(Vec<TpGroup>, u32, u64)> = Vec::new();
                for max_tp in [1, 2, 4, 8] {
                    for splitting in [false, true] {
                        for b in [1, 2, 4] {
                            let grouping = group_cluster(
                                &snapshot,
                                &cost.coeffs,
                                max_tp,
                                b,
                                DEFAULT_STRAGGLER_THRESHOLD,
                                splitting,
                            );
                            pipelines.push((grouping.groups.clone(), 1, b));
                            for dp in [1, 2, 4, 8, 16] {
                                for nonuniform in [false, true] {
                                    if let Ok(division) = divide_groups(
                                        &cost,
                                        &grouping,
                                        &snapshot,
                                        dp,
                                        64 / b,
                                        b,
                                        nonuniform,
                                    ) {
                                        pipelines.extend(
                                            division
                                                .pipelines
                                                .into_iter()
                                                .map(|p| (p, dp as u32, b)),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                for (groups, zero_dp, b) in &pipelines {
                    for uniform in [false, true] {
                        let new = crate::orchestration::order_and_assign_layers(
                            &cost, groups, &snapshot, num_layers, *b, *zero_dp, uniform,
                        );
                        let old = order_and_assign_layers(
                            &cost, groups, &snapshot, num_layers, *b, *zero_dp, uniform,
                        );
                        assert_eq!(
                            new.as_ref().map(|a| a.objective.to_bits()),
                            old.as_ref().map(|a| a.objective.to_bits())
                        );
                        assert_eq!(new, old, "{groups:?} zero_dp={zero_dp} b={b}");
                        checked += 1;
                        feasible += usize::from(new.is_some());
                    }
                }
            }
        }
        assert!(
            checked > 50_000 && feasible > 10_000,
            "{checked} checked, {feasible} feasible"
        );
    }
}

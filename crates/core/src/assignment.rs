//! Lower-level work assignment (§4.2): layer assignment within each pipeline
//! (Eq. (2)) and training-data assignment across pipelines (Eq. (3)).
//!
//! Both problems are integer min-max allocations solved exactly by
//! `malleus-solver`.  Layer assignment additionally honours the Appendix B.4
//! memory constraints, and stages that receive zero layers are dropped from the
//! pipeline — this is the mechanism by which heavy stragglers are removed from
//! training and parked as standby devices.
//!
//! Layer assignment runs inside the ordering search of
//! [`crate::orchestration::order_and_assign_layers`], one
//! drop-and-re-solve loop per bundle order.  The loop runs on group indices
//! in a per-thread `LayerScratch`, reading each group's TP degree and group
//! rate computed once per call, and only the winning order's groups are
//! cloned into the returned [`LayerAssignment`].

use crate::cost::CostModel;
use crate::grouping::load_group_rates;
use crate::plan::{StagePlan, TpGroup};
use malleus_cluster::ClusterSnapshot;
use malleus_solver::{solve_minmax_allocation, solve_minmax_allocation_into};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Result of assigning layers to the stages of one pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerAssignment {
    /// The surviving stages (zero-layer stages removed), in pipeline order.
    pub stages: Vec<StagePlan>,
    /// TP groups whose stage received zero layers (their GPUs go to standby).
    pub dropped_groups: Vec<TpGroup>,
    /// The per-micro-batch bottleneck `o_i = max_j y_{i,j} · l_{i,j}`.
    pub objective: f64,
}

/// Reusable buffers of the layer assignment, one per thread.  A replan
/// orders every pipeline of every candidate through them, so a warm call
/// allocates only the assignment it returns.  Groups are named by their
/// index in the caller's slice.
#[derive(Debug, Default)]
pub(crate) struct LayerScratch {
    /// TP degree of each group.
    pub(crate) degrees: Vec<u32>,
    /// Group straggling rate `y` of each group.
    pub(crate) rates: Vec<f64>,
    /// The stage order `solve_order` solves.
    pub(crate) order: Vec<usize>,
    /// The groups in bundle order (see `order_and_assign_layers`).
    pub(crate) bundled: Vec<usize>,
    /// Where each bundle starts in `bundled`, then `bundled.len()`.
    pub(crate) bundle_starts: Vec<usize>,
    /// The bundle permutation being visited.
    pub(crate) perm: Vec<usize>,
    /// Groups still holding a stage, in stage order.
    active: Vec<usize>,
    /// Groups dropped with zero layers, in drop order.
    dropped: Vec<usize>,
    /// Weights, capacities and layers of the active stages.
    weights: Vec<f64>,
    caps: Vec<Option<u64>>,
    layers: Vec<u64>,
    /// The best feasible order so far: its objective, then its stages,
    /// their layers and its dropped groups.
    best: Option<f64>,
    best_active: Vec<usize>,
    best_layers: Vec<u64>,
    best_dropped: Vec<usize>,
}

thread_local! {
    static LAYER_SCRATCH: RefCell<LayerScratch> = RefCell::new(LayerScratch::default());
}

impl LayerScratch {
    /// Run `f` on this thread's scratch.
    pub(crate) fn with<R>(f: impl FnOnce(&mut LayerScratch) -> R) -> R {
        LAYER_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
    }

    /// Compute each group's TP degree and group rate, and forget the best
    /// order.
    pub(crate) fn load(
        &mut self,
        cost: &CostModel,
        groups: &[TpGroup],
        snapshot: &ClusterSnapshot,
        micro_batch_size: u64,
    ) {
        self.degrees.clear();
        self.degrees.extend(groups.iter().map(TpGroup::tp_degree));
        load_group_rates(
            &mut self.rates,
            groups,
            snapshot,
            &cost.coeffs,
            micro_batch_size,
        );
        self.best = None;
    }

    /// Assign layers to the groups of `order`, in that stage order, and
    /// keep the result as the best when it is feasible and the first, or
    /// its objective is below the best one's by more than 1e-15.
    pub(crate) fn solve_order(
        &mut self,
        cost: &CostModel,
        num_layers: u64,
        micro_batch_size: u64,
        zero_dp: u32,
        uniform: bool,
    ) {
        let Some(objective) = self.solve(cost, num_layers, micro_batch_size, zero_dp, uniform)
        else {
            return;
        };
        if self.best.is_none_or(|best| objective < best - 1e-15) {
            // `solve` refills all three buffers, so a swap keeps the best
            // without copying it.
            self.best = Some(objective);
            std::mem::swap(&mut self.best_active, &mut self.active);
            std::mem::swap(&mut self.best_layers, &mut self.layers);
            std::mem::swap(&mut self.best_dropped, &mut self.dropped);
        }
    }

    /// The drop-and-re-solve loop over `order`: returns the objective, with
    /// the surviving stages in `active`, their layers in `layers` and the
    /// dropped groups in `dropped`, or `None` when infeasible.
    fn solve(
        &mut self,
        cost: &CostModel,
        num_layers: u64,
        micro_batch_size: u64,
        zero_dp: u32,
        uniform: bool,
    ) -> Option<f64> {
        self.active.clone_from(&self.order);
        self.dropped.clear();
        loop {
            if self.active.is_empty() {
                return None;
            }
            let pp = self.active.len();
            self.weights.clear();
            self.weights
                .extend(self.active.iter().map(|&g| self.rates[g]));
            self.caps.clear();
            for (j, &g) in self.active.iter().enumerate() {
                // A stage whose ν alone exceeds the budget is unusable in
                // this position.
                let cap = cost.max_layers(self.degrees[g], j, pp, micro_batch_size, zero_dp)?;
                self.caps.push(Some(cap));
            }
            self.layers.clear();
            if uniform {
                let base = num_layers / pp as u64;
                let extra = num_layers % pp as u64;
                for (j, &cap) in self.caps.iter().enumerate() {
                    let l = base + if (j as u64) < extra { 1 } else { 0 };
                    if cap.is_some_and(|c| l > c) {
                        return None;
                    }
                    self.layers.push(l);
                }
            } else {
                solve_minmax_allocation_into(
                    &self.weights,
                    num_layers,
                    &self.caps,
                    &mut self.layers,
                )
                .ok()?;
                if self.layers.contains(&0) {
                    // Drop zero-layer stages (their straggling rate is too
                    // high to be worth any work) and re-solve with the
                    // shorter pipeline, whose memory coefficients are more
                    // favourable.
                    let mut kept = 0;
                    for j in 0..pp {
                        let g = self.active[j];
                        if self.layers[j] == 0 {
                            self.dropped.push(g);
                        } else {
                            self.active[kept] = g;
                            kept += 1;
                        }
                    }
                    self.active.truncate(kept);
                    continue;
                }
            }
            return Some(
                self.layers
                    .iter()
                    .zip(&self.weights)
                    .map(|(&l, &w)| l as f64 * w)
                    .fold(0.0, f64::max),
            );
        }
    }

    /// Clone the best order's groups out of `groups` into a
    /// [`LayerAssignment`], or `None` when no order was feasible.
    pub(crate) fn best_assignment(&self, groups: &[TpGroup]) -> Option<LayerAssignment> {
        let objective = self.best?;
        Some(LayerAssignment {
            stages: self
                .best_active
                .iter()
                .zip(&self.best_layers)
                .map(|(&g, &l)| StagePlan {
                    group: groups[g].clone(),
                    layers: l as u32,
                })
                .collect(),
            dropped_groups: self
                .best_dropped
                .iter()
                .map(|&g| groups[g].clone())
                .collect(),
            objective,
        })
    }
}

/// Assign `total_micro_batches` micro-batches across pipelines whose
/// per-micro-batch bottlenecks are `objectives` (Eq. (3)).
///
/// With `uniform` set, micro-batches are split evenly (remainder round-robin),
/// which is what the uniform-data baselines and the Figure 9 ablation do.
pub fn assign_data(
    objectives: &[f64],
    total_micro_batches: u64,
    uniform: bool,
) -> Option<Vec<u64>> {
    if objectives.is_empty() {
        return None;
    }
    if uniform {
        let dp = objectives.len() as u64;
        let base = total_micro_batches / dp;
        let extra = total_micro_batches % dp;
        return Some(
            (0..dp)
                .map(|i| base + if i < extra { 1 } else { 0 })
                .collect(),
        );
    }
    solve_minmax_allocation(objectives, total_micro_batches, &[])
        .ok()
        .map(|r| r.amounts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestration::order_and_assign_layers;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};

    fn cost_model(spec: ModelSpec) -> CostModel {
        CostModel::new(ProfiledCoefficients::derive(
            spec,
            HardwareParams::a800_cluster(),
        ))
    }

    fn groups_of(sizes: &[u32]) -> Vec<TpGroup> {
        let mut next = 0u32;
        sizes
            .iter()
            .map(|&s| {
                let gpus = (next..next + s).map(GpuId).collect();
                next += s;
                TpGroup::new(gpus)
            })
            .collect()
    }

    /// Order `groups` and assign them `num_layers` layers at micro-batch 1
    /// and ZeRO DP 1.
    fn assign(
        spec: ModelSpec,
        groups: &[TpGroup],
        cluster: &Cluster,
        num_layers: u64,
        uniform: bool,
    ) -> Option<LayerAssignment> {
        let cost = cost_model(spec);
        order_and_assign_layers(
            &cost,
            groups,
            &cluster.snapshot(),
            num_layers,
            1,
            1,
            uniform,
        )
    }

    /// The layers each of `groups` holds, 0 for a dropped group.  Theorem 3
    /// orders a bundle by rate, so a group's stage need not sit at its
    /// index.
    fn layers_per_group(a: &LayerAssignment, groups: &[TpGroup]) -> Vec<u32> {
        groups
            .iter()
            .map(|g| {
                a.stages
                    .iter()
                    .find(|s| s.group == *g)
                    .map_or(0, |s| s.layers)
            })
            .collect()
    }

    #[test]
    fn healthy_equal_groups_get_equal_layers() {
        let cluster = Cluster::homogeneous(4, 8);
        let groups = groups_of(&[8, 8, 8, 8]);
        let a = assign(ModelSpec::llama2_32b(), &groups, &cluster, 60, false).unwrap();
        assert_eq!(layers_per_group(&a, &groups), vec![15, 15, 15, 15]);
        assert!(a.dropped_groups.is_empty());
    }

    #[test]
    fn straggling_stage_receives_fewer_layers() {
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 2.57);
        let groups = groups_of(&[8, 8, 8, 8]);
        let a = assign(ModelSpec::llama2_32b(), &groups, &cluster, 60, false).unwrap();
        let layers = layers_per_group(&a, &groups);
        assert_eq!(layers.iter().sum::<u32>(), 60);
        assert!(
            layers[1..].iter().all(|&l| layers[0] < l),
            "straggling group got {layers:?}"
        );
    }

    #[test]
    fn heavy_straggler_stage_is_dropped() {
        // A TP-1 group with a very heavy straggler should end up with zero
        // layers and be removed from the pipeline.
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 100.0);
        let mut groups = groups_of(&[1]);
        groups.extend(groups_of(&[8, 8, 8]).into_iter().map(|g| {
            // shift ids to avoid overlap with the straggler group
            TpGroup::new(g.gpus.iter().map(|id| GpuId(id.0 + 8)).collect())
        }));
        let a = assign(ModelSpec::llama2_7b(), &groups, &cluster, 32, false).unwrap();
        assert_eq!(a.dropped_groups, groups[..1]);
        let layers = layers_per_group(&a, &groups);
        assert_eq!(layers[0], 0);
        assert_eq!(a.stages.len(), 3);
        assert_eq!(layers.iter().sum::<u32>(), 32);
    }

    #[test]
    fn uniform_assignment_ignores_rates() {
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 5.42);
        let groups = groups_of(&[8, 8, 8, 8]);
        let a = assign(ModelSpec::llama2_32b(), &groups, &cluster, 60, true).unwrap();
        assert_eq!(layers_per_group(&a, &groups), vec![15, 15, 15, 15]);
    }

    #[test]
    fn infeasible_when_memory_cannot_hold_model() {
        // 110B on a single 8-GPU group with micro-batch 1: one stage cannot
        // hold 80 layers of optimizer state.
        let cluster = Cluster::homogeneous(1, 8);
        let groups = groups_of(&[8]);
        assert!(assign(ModelSpec::llama2_110b(), &groups, &cluster, 80, false).is_none());
    }

    #[test]
    fn data_assignment_balances_by_objective() {
        let m = assign_data(&[2.0, 1.0, 1.0], 64, false).unwrap();
        assert_eq!(m.iter().sum::<u64>(), 64);
        assert!(m[0] < m[1]);
        let uniform = assign_data(&[2.0, 1.0, 1.0], 64, true).unwrap();
        assert_eq!(uniform, vec![22, 21, 21]);
    }

    #[test]
    fn data_assignment_rejects_empty_input() {
        assert!(assign_data(&[], 64, false).is_none());
    }
}

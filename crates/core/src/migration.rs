//! Model-state migration planning (§5.1).
//!
//! Model states are sharded following the paper's adjusted ZeRO-1 scheme: for a
//! given layer, let `TP_i` be the TP degree of the stage holding it in pipeline
//! `i` and `TP_max = max_i TP_i`.  The layer's states are cut into
//! `DP × TP_max` slices; each GPU of pipeline `i`'s owning group is responsible
//! for `TP_max / TP_i` slices.  When the plan changes, every slice whose owner
//! changed must be transferred — this module computes that (many-to-many) move
//! list; `malleus-sim` turns it into a migration time using the batched
//! send-recv model with 4-layer packing.
//!
//! [`plan_migration`] expands, per data-parallel rank, the source pipeline of
//! the old plan and the pipeline of the new plan into per-layer group tables:
//! entry `l` is the GPU list of the TP group owning layer `l` (its length is the
//! TP degree), or empty when the pipeline does not place the layer.  Slice
//! owners are then read off by index, so the walk over ranks × layers × slices
//! does no stage scans.  The two tables are reused across ranks.

use crate::plan::{ParallelizationPlan, PipelinePlan};
use malleus_cluster::GpuId;
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};

/// One model-state slice transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceMove {
    /// Model layer the slice belongs to.
    pub layer: u32,
    /// Data-parallel rank (pipeline index) of the replica.
    pub dp_rank: usize,
    /// Slice index within the layer's `TP_max` slices.
    pub slice: u32,
    /// Slice size in bytes.
    pub bytes: f64,
    /// Current owner.
    pub src: GpuId,
    /// New owner.
    pub dst: GpuId,
}

/// The full migration plan between two parallelization plans.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// All slice moves (src ≠ dst only).
    pub moves: Vec<SliceMove>,
}

impl MigrationPlan {
    /// Whether nothing needs to move.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Total bytes transferred.
    pub fn total_bytes(&self) -> f64 {
        self.moves.iter().map(|m| m.bytes).sum()
    }

    /// Per-GPU (received, sent) byte totals, indexed by [`GpuId::index`] over
    /// the first `num_gpus` GPUs.  Bytes are added in move order; a move end
    /// whose GPU index is `num_gpus` or more is dropped.
    pub fn per_gpu_traffic(&self, num_gpus: usize) -> Vec<(f64, f64)> {
        let mut traffic = vec![(0.0, 0.0); num_gpus];
        for m in &self.moves {
            if let Some(received) = traffic.get_mut(m.dst.index()) {
                received.0 += m.bytes;
            }
            if let Some(sent) = traffic.get_mut(m.src.index()) {
                sent.1 += m.bytes;
            }
        }
        traffic
    }

    /// Number of distinct layers touched by the migration.
    pub fn layers_touched(&self) -> usize {
        let mut seen: Vec<u64> = Vec::new();
        for m in &self.moves {
            let word = m.layer as usize / 64;
            if word >= seen.len() {
                seen.resize(word + 1, 0);
            }
            seen[word] |= 1 << (m.layer % 64);
        }
        seen.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Fill `groups` with the owning TP group of each of the first `num_layers`
/// layers of `pipeline`; layers it does not place (no pipeline, or past its
/// last stage) get an empty group.
fn layer_groups<'a>(
    pipeline: Option<&'a PipelinePlan>,
    num_layers: usize,
    groups: &mut Vec<&'a [GpuId]>,
) {
    groups.clear();
    for stage in pipeline.into_iter().flat_map(|p| &p.stages) {
        let layers = (stage.layers as usize).min(num_layers - groups.len());
        groups.extend(std::iter::repeat_n(stage.group.gpus.as_slice(), layers));
    }
    groups.resize(num_layers, &[]);
}

/// Compute the slice moves required to transform `old` into `new`.
///
/// When the DP degree changed, replicas beyond the old DP degree are sourced
/// from replica 0 (a broadcast-style re-instantiation).
pub fn plan_migration(
    old: &ParallelizationPlan,
    new: &ParallelizationPlan,
    coeffs: &ProfiledCoefficients,
) -> MigrationPlan {
    let num_layers = coeffs.spec.num_layers as usize;
    let layer_bytes = coeffs.state_bytes_per_layer();
    let mut moves = Vec::new();
    let (mut src_groups, mut dst_groups) = (Vec::new(), Vec::new());
    for (dp_rank, pipeline) in new.pipelines.iter().enumerate() {
        let src_rank = dp_rank.min(old.dp().saturating_sub(1));
        layer_groups(old.pipelines.get(src_rank), num_layers, &mut src_groups);
        layer_groups(Some(pipeline), num_layers, &mut dst_groups);
        for (layer, (src_group, dst_group)) in src_groups.iter().zip(&dst_groups).enumerate() {
            let (old_tp, new_tp) = (src_group.len(), dst_group.len());
            if old_tp == 0 || new_tp == 0 {
                continue; // a plan without this layer here has no slice to move
            }
            let tp_max = old_tp.max(new_tp);
            let slice_bytes = layer_bytes / tp_max as f64;
            for slice in 0..tp_max {
                let src = src_group[slice * old_tp / tp_max];
                let dst = dst_group[slice * new_tp / tp_max];
                if src != dst {
                    moves.push(SliceMove {
                        layer: layer as u32,
                        dp_rank,
                        slice: slice as u32,
                        bytes: slice_bytes,
                        src,
                        dst,
                    });
                }
            }
        }
    }
    MigrationPlan { moves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerConfig};
    use malleus_cluster::{Cluster, PaperSituation};
    use malleus_model::{HardwareParams, ModelSpec};

    fn coeffs() -> ProfiledCoefficients {
        ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster())
    }

    fn gpu_ids(range: std::ops::Range<u32>) -> Vec<GpuId> {
        range.map(GpuId).collect()
    }

    /// The seed's slice-owner lookup: rescans the stages for every slice.
    fn slice_owner(
        plan: &ParallelizationPlan,
        dp_rank: usize,
        layer: u32,
        slice: u32,
        tp_max: u32,
    ) -> Option<GpuId> {
        let pipeline = plan.pipelines.get(dp_rank)?;
        let ranges = pipeline.layer_ranges();
        for (stage, (start, end)) in pipeline.stages.iter().zip(ranges) {
            if layer >= start && layer < end {
                let tp = stage.group.tp_degree();
                let member = (slice as u64 * tp as u64 / tp_max as u64) as usize;
                return stage.group.gpus.get(member).copied();
            }
        }
        None
    }

    /// The seed's TP-degree lookup: 0 when the pipeline does not place `layer`.
    fn layer_tp(plan: &ParallelizationPlan, dp_rank: usize, layer: u32) -> u32 {
        let Some(pipeline) = plan.pipelines.get(dp_rank) else {
            return 0;
        };
        for (stage, (start, end)) in pipeline.stages.iter().zip(pipeline.layer_ranges()) {
            if layer >= start && layer < end {
                return stage.group.tp_degree();
            }
        }
        0
    }

    /// The seed's `plan_migration`: the oracle for the table-driven walk.
    fn oracle(
        old: &ParallelizationPlan,
        new: &ParallelizationPlan,
        coeffs: &ProfiledCoefficients,
    ) -> MigrationPlan {
        let num_layers = coeffs.spec.num_layers;
        let layer_bytes = coeffs.state_bytes_per_layer();
        let mut moves = Vec::new();
        for dp_rank in 0..new.dp() {
            let src_rank = dp_rank.min(old.dp().saturating_sub(1));
            for layer in 0..num_layers {
                let old_tp = layer_tp(old, src_rank, layer);
                let new_tp = layer_tp(new, dp_rank, layer);
                if new_tp == 0 {
                    continue;
                }
                let tp_max = old_tp.max(new_tp).max(1);
                let slice_bytes = layer_bytes / tp_max as f64;
                for slice in 0..tp_max {
                    let src = slice_owner(old, src_rank, layer, slice, tp_max);
                    let dst = slice_owner(new, dp_rank, layer, slice, tp_max);
                    match (src, dst) {
                        (Some(s), Some(d)) if s != d => moves.push(SliceMove {
                            layer,
                            dp_rank,
                            slice,
                            bytes: slice_bytes,
                            src: s,
                            dst: d,
                        }),
                        _ => {}
                    }
                }
            }
        }
        MigrationPlan { moves }
    }

    /// Asserts the move list equals the oracle's and returns its length.
    fn assert_matches_oracle(
        label: &str,
        old: &ParallelizationPlan,
        new: &ParallelizationPlan,
        coeffs: &ProfiledCoefficients,
    ) -> usize {
        let expected = oracle(old, new, coeffs);
        let got = plan_migration(old, new, coeffs);
        assert_eq!(got.moves.len(), expected.moves.len(), "{label}: move count");
        for (i, (g, e)) in got.moves.iter().zip(&expected.moves).enumerate() {
            assert_eq!(g, e, "{label}: move {i}");
            assert_eq!(
                g.bytes.to_bits(),
                e.bytes.to_bits(),
                "{label}: move {i} bytes"
            );
        }
        got.moves.len()
    }

    /// A 7B uniform plan over `gpus` (32 layers, global batch 64).
    fn uniform(gpus: std::ops::Range<u32>, dp: usize, pp: usize, tp: u32) -> ParallelizationPlan {
        ParallelizationPlan::uniform(&gpu_ids(gpus), dp, pp, tp, 32, 64, 1).unwrap()
    }

    /// Plans the paper's Normal and S1–S6 situations on the 110B 8×8 testbed
    /// (global batch 64) produce: every ordered pair matches the seed.
    #[test]
    fn matches_the_seed_oracle_on_every_paper_situation_pair() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_110b(), HardwareParams::a800_cluster());
        let planner = Planner::new(
            coeffs.clone(),
            PlannerConfig {
                global_batch_size: 64,
                ..PlannerConfig::default()
            },
        );
        let situations = std::iter::once(PaperSituation::Normal).chain(PaperSituation::all());
        let plans: Vec<(&str, ParallelizationPlan)> = situations
            .map(|situation| {
                let mut cluster = Cluster::homogeneous(8, 8);
                cluster.apply_situation(&situation.situation(&cluster).rates);
                let plan = planner.plan(&cluster.snapshot()).expect("plan").plan;
                (situation.name(), plan)
            })
            .collect();
        let mut moved = 0;
        for (from, old) in &plans {
            for (to, new) in &plans {
                moved += assert_matches_oracle(&format!("{from} -> {to}"), old, new, &coeffs);
            }
        }
        assert!(moved > 0, "the paper situations must move some slices");
    }

    #[test]
    fn matches_the_seed_oracle_on_edge_cases() {
        let c = coeffs();
        let base = uniform(0..16, 2, 2, 4);
        // Stages of 8, 0, 16 and 8 layers.
        let mut zero_stage = uniform(0..16, 1, 4, 4);
        zero_stage.pipelines[0].stages[1].layers = 0;
        zero_stage.pipelines[0].stages[2].layers = 16;
        // 28 of the model's 32 layers.
        let mut short = uniform(0..16, 2, 2, 4);
        short.pipelines[1].stages[1].layers -= 4;
        let no_pipelines = ParallelizationPlan {
            pipelines: Vec::new(),
            micro_batch_size: 1,
            removed_gpus: Vec::new(),
        };
        let one_rank = uniform(0..8, 1, 2, 4);
        let wide = uniform(0..16, 1, 2, 8);
        let elsewhere = uniform(16..32, 2, 2, 4);
        let cases = [
            ("identical", &base, &base),
            ("dp growth 1 -> 2", &one_rank, &base),
            ("dp shrink 2 -> 1", &base, &one_rank),
            ("tp reshard 8 -> 4", &uniform(0..8, 1, 1, 8), &one_rank),
            ("disjoint gpus", &one_rank, &uniform(8..16, 1, 2, 4)),
            ("zero-layer stage (old)", &zero_stage, &wide),
            ("zero-layer stage (new)", &wide, &zero_stage),
            ("short pipeline (old)", &short, &elsewhere),
            ("short pipeline (new)", &elsewhere, &short),
            ("old without pipelines", &no_pipelines, &base),
            ("new without pipelines", &base, &no_pipelines),
        ];
        for (label, old, new) in cases {
            assert_matches_oracle(label, old, new, &c);
        }
    }

    #[test]
    fn identical_plans_need_no_migration() {
        let plan = ParallelizationPlan::uniform(&gpu_ids(0..16), 2, 2, 4, 32, 64, 1).unwrap();
        let m = plan_migration(&plan, &plan, &coeffs());
        assert!(m.is_empty());
        assert_eq!(m.total_bytes(), 0.0);
    }

    #[test]
    fn moving_a_stage_to_new_gpus_moves_its_layers() {
        let old = ParallelizationPlan::uniform(&gpu_ids(0..16), 2, 2, 4, 32, 64, 1).unwrap();
        // New plan uses a different set of GPUs for the second pipeline.
        let mut gpus = gpu_ids(0..8);
        gpus.extend(gpu_ids(16..24));
        let new = ParallelizationPlan::uniform(&gpus, 2, 2, 4, 32, 64, 1).unwrap();
        let m = plan_migration(&old, &new, &coeffs());
        assert!(!m.is_empty());
        // Exactly the 32 layers of the relocated replica are touched.
        assert_eq!(m.layers_touched(), 32);
        // Everything flows into the new GPUs 16..24.
        for mv in &m.moves {
            assert!(mv.dst.0 >= 16 && mv.dst.0 < 24);
        }
    }

    #[test]
    fn tp_degree_change_reshards_layers() {
        let old = ParallelizationPlan::uniform(&gpu_ids(0..8), 1, 1, 8, 32, 8, 1).unwrap();
        let new = ParallelizationPlan::uniform(&gpu_ids(0..8), 1, 2, 4, 32, 8, 1).unwrap();
        let m = plan_migration(&old, &new, &coeffs());
        // The first 16 layers stay on GPUs 0..4 (subset of their old owners),
        // but layers 16..32 move from GPUs 4..8's slices to GPUs 4..8 as a
        // narrower group — some slices must move.
        assert!(!m.is_empty());
        let c = coeffs();
        assert!(m.total_bytes() < c.spec.num_layers as f64 * c.state_bytes_per_layer());
    }

    #[test]
    fn total_bytes_conserved_per_move_granularity() {
        let old = ParallelizationPlan::uniform(&gpu_ids(0..16), 2, 2, 4, 32, 64, 1).unwrap();
        let mut gpus = gpu_ids(8..16);
        gpus.extend(gpu_ids(0..8));
        let new = ParallelizationPlan::uniform(&gpus, 2, 2, 4, 32, 64, 1).unwrap();
        let m = plan_migration(&old, &new, &coeffs());
        let traffic = m.per_gpu_traffic(16);
        let received: f64 = traffic.iter().map(|(r, _)| r).sum();
        let sent: f64 = traffic.iter().map(|(_, s)| s).sum();
        assert!((received - sent).abs() < 1e-6);
        assert!((received - m.total_bytes()).abs() < 1e-6);
    }

    #[test]
    fn dp_growth_sources_from_replica_zero() {
        let old = ParallelizationPlan::uniform(&gpu_ids(0..8), 1, 2, 4, 32, 8, 1).unwrap();
        let new = ParallelizationPlan::uniform(&gpu_ids(0..16), 2, 2, 4, 32, 8, 1).unwrap();
        let m = plan_migration(&old, &new, &coeffs());
        // The new second replica (GPUs 8..16) must receive data from replica 0.
        assert!(m.moves.iter().any(|mv| mv.dst.0 >= 8 && mv.src.0 < 8));
    }
}

//! Migration and restart time models (§5.1, §7.2).
//!
//! Migration fuses the per-slice transfers into batched send-recv calls and
//! packs four layers per message; its wall-clock time is bounded by the busiest
//! GPU's total traffic over the inter-node fabric.  [`migration_time`] sums
//! each GPU's received and sent bytes into one dense vector indexed by GPU id,
//! in move order (moves naming a GPU outside the snapshot are dropped), and
//! counts the distinct layers touched with a dense bitmap.  The restart path
//! (used by the Megatron/DeepSpeed "w/ Restart" baselines and by failure
//! recovery) must save a checkpoint, re-initialize the framework and reload
//! the checkpoint — the paper measures 115–442 s for this, versus 1–5 s for
//! migration.

use crate::collective::batched_send_recv_time;
use malleus_cluster::ClusterSnapshot;
use malleus_core::MigrationPlan;
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};

/// Cost summary of a migration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationCost {
    /// Wall-clock migration time in seconds.
    pub time: f64,
    /// Total bytes moved.
    pub total_bytes: f64,
    /// Number of fused messages issued.
    pub messages: usize,
}

/// Number of layers packed into one fused migration message (§5.1 uses 4).
pub const LAYERS_PER_MESSAGE: usize = 4;

/// Estimate the wall-clock time of a migration plan.
pub fn migration_time(
    coeffs: &ProfiledCoefficients,
    snapshot: &ClusterSnapshot,
    migration: &MigrationPlan,
) -> MigrationCost {
    if migration.is_empty() {
        return MigrationCost {
            time: 0.0,
            total_bytes: 0.0,
            messages: 0,
        };
    }
    let per_gpu = migration.per_gpu_traffic(snapshot.num_gpus());
    let messages = migration.layers_touched().div_ceil(LAYERS_PER_MESSAGE);
    MigrationCost {
        time: batched_send_recv_time(&coeffs.hardware, &per_gpu, messages),
        total_bytes: migration.total_bytes(),
        messages,
    }
}

/// Estimate the time to restart a training job: save a checkpoint (sharded
/// across the nodes), re-initialize the framework (resource allocation,
/// process-group construction) and reload the checkpoint.
pub fn restart_time(coeffs: &ProfiledCoefficients, num_nodes: usize) -> f64 {
    let hw = &coeffs.hardware;
    let state_bytes = coeffs.memory.total_state_bytes(&coeffs.spec);
    let per_node_bytes = state_bytes / num_nodes.max(1) as f64;
    let save = per_node_bytes / hw.checkpoint_bandwidth;
    let load = per_node_bytes / hw.checkpoint_bandwidth;
    save + hw.restart_init_seconds + load
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId, PaperSituation};
    use malleus_core::{plan_migration, ParallelizationPlan, Planner, PlannerConfig};
    use malleus_model::{HardwareParams, ModelSpec};
    use std::collections::BTreeMap;

    fn coeffs(spec: ModelSpec) -> ProfiledCoefficients {
        ProfiledCoefficients::derive(spec, HardwareParams::a800_cluster())
    }

    /// The seed's time model: per-GPU traffic in a `BTreeMap`, copied into a
    /// vector over the snapshot's GPUs, layers counted by sort + dedup.
    fn oracle(
        coeffs: &ProfiledCoefficients,
        snapshot: &ClusterSnapshot,
        migration: &MigrationPlan,
    ) -> MigrationCost {
        if migration.is_empty() {
            return MigrationCost {
                time: 0.0,
                total_bytes: 0.0,
                messages: 0,
            };
        }
        let mut traffic_map: BTreeMap<GpuId, (f64, f64)> = BTreeMap::new();
        for m in &migration.moves {
            traffic_map.entry(m.dst).or_insert((0.0, 0.0)).0 += m.bytes;
            traffic_map.entry(m.src).or_insert((0.0, 0.0)).1 += m.bytes;
        }
        let mut per_gpu = vec![(0.0, 0.0); snapshot.num_gpus()];
        for (gpu, (received, sent)) in traffic_map {
            if gpu.index() < per_gpu.len() {
                per_gpu[gpu.index()] = (received, sent);
            }
        }
        let mut layers: Vec<u32> = migration.moves.iter().map(|m| m.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let messages = layers.len().div_ceil(LAYERS_PER_MESSAGE);
        MigrationCost {
            time: batched_send_recv_time(&coeffs.hardware, &per_gpu, messages),
            total_bytes: migration.total_bytes(),
            messages,
        }
    }

    fn assert_matches_oracle(
        label: &str,
        coeffs: &ProfiledCoefficients,
        snapshot: &ClusterSnapshot,
        old: &ParallelizationPlan,
        new: &ParallelizationPlan,
    ) {
        let migration = plan_migration(old, new, coeffs);
        let got = migration_time(coeffs, snapshot, &migration);
        let expected = oracle(coeffs, snapshot, &migration);
        assert_eq!(got.time.to_bits(), expected.time.to_bits(), "{label}: time");
        assert_eq!(
            got.total_bytes.to_bits(),
            expected.total_bytes.to_bits(),
            "{label}: total bytes"
        );
        assert_eq!(got.messages, expected.messages, "{label}: messages");
    }

    /// A 7B uniform plan over `gpus` (32 layers, global batch 64).
    fn uniform(gpus: std::ops::Range<u32>, dp: usize, pp: usize, tp: u32) -> ParallelizationPlan {
        let ids: Vec<GpuId> = gpus.map(GpuId).collect();
        ParallelizationPlan::uniform(&ids, dp, pp, tp, 32, 64, 1).unwrap()
    }

    /// Every ordered pair of the plans for Normal and S1–S6 on the 110B 8×8
    /// testbed (global batch 64), priced on the destination snapshot.
    #[test]
    fn matches_the_seed_oracle_on_every_paper_situation_pair() {
        let c = coeffs(ModelSpec::llama2_110b());
        let planner = Planner::new(
            c.clone(),
            PlannerConfig {
                global_batch_size: 64,
                ..PlannerConfig::default()
            },
        );
        let situations = std::iter::once(PaperSituation::Normal).chain(PaperSituation::all());
        let plans: Vec<_> = situations
            .map(|situation| {
                let mut cluster = Cluster::homogeneous(8, 8);
                cluster.apply_situation(&situation.situation(&cluster).rates);
                let snapshot = cluster.snapshot();
                let plan = planner.plan(&snapshot).expect("plan").plan;
                (situation.name(), snapshot, plan)
            })
            .collect();
        for (from, _, old) in &plans {
            for (to, snapshot, new) in &plans {
                assert_matches_oracle(&format!("{from} -> {to}"), &c, snapshot, old, new);
            }
        }
    }

    #[test]
    fn matches_the_seed_oracle_on_edge_cases() {
        let c = coeffs(ModelSpec::llama2_7b());
        let base = uniform(0..16, 2, 2, 4);
        let one_rank = uniform(0..8, 1, 2, 4);
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
        let cases = [
            ("identical", &base, &base),
            ("dp growth 1 -> 2", &one_rank, &base),
            ("dp shrink 2 -> 1", &base, &one_rank),
            ("tp reshard 8 -> 4", &uniform(0..8, 1, 1, 8), &one_rank),
            ("disjoint gpus", &one_rank, &uniform(8..16, 1, 2, 4)),
            ("overlapping gpus", &one_rank, &uniform(4..12, 1, 2, 4)),
            ("zero-layer stage", &zero_stage, &uniform(0..16, 1, 2, 8)),
            ("short pipeline", &short, &uniform(16..32, 2, 2, 4)),
            ("old without pipelines", &no_pipelines, &base),
        ];
        // The one-node snapshot drops every move end on GPUs 8 and up.
        let snapshots = [
            Cluster::homogeneous(4, 8).snapshot(),
            Cluster::homogeneous(1, 8).snapshot(),
        ];
        for (label, old, new) in cases {
            for snapshot in &snapshots {
                assert_matches_oracle(label, &c, snapshot, old, new);
            }
        }
    }

    #[test]
    fn empty_migration_is_free() {
        let c = coeffs(ModelSpec::llama2_7b());
        let snapshot = Cluster::homogeneous(2, 8).snapshot();
        let cost = migration_time(&c, &snapshot, &MigrationPlan::default());
        assert_eq!(cost.time, 0.0);
        assert_eq!(cost.messages, 0);
    }

    #[test]
    fn migration_is_orders_of_magnitude_cheaper_than_restart() {
        // §7.2: migration takes ~1–5 s while restarting takes hundreds of
        // seconds.  Verify the same separation holds in the reproduction.
        let c = coeffs(ModelSpec::llama2_32b());
        let snapshot = Cluster::homogeneous(4, 8).snapshot();
        let gpus_a: Vec<GpuId> = (0..32).map(GpuId).collect();
        let mut gpus_b: Vec<GpuId> = (8..32).map(GpuId).collect();
        gpus_b.extend((0..8).map(GpuId));
        let old = ParallelizationPlan::uniform(&gpus_a, 2, 4, 4, 60, 64, 1).unwrap();
        let new = ParallelizationPlan::uniform(&gpus_b, 2, 4, 4, 60, 64, 1).unwrap();
        let migration = plan_migration(&old, &new, &c);
        let cost = migration_time(&c, &snapshot, &migration);
        let restart = restart_time(&c, 4);
        assert!(cost.time > 0.0);
        assert!(
            restart > cost.time * 10.0,
            "restart {restart} vs migration {}",
            cost.time
        );
        assert!(
            restart > 100.0,
            "restart should take minutes, got {restart}"
        );
        assert!(
            cost.time < 30.0,
            "migration should take seconds, got {}",
            cost.time
        );
    }

    #[test]
    fn restart_time_grows_with_model_size() {
        let small = restart_time(&coeffs(ModelSpec::llama2_7b()), 8);
        let large = restart_time(&coeffs(ModelSpec::llama2_110b()), 8);
        assert!(large > small);
    }

    #[test]
    fn message_count_respects_layer_packing() {
        let c = coeffs(ModelSpec::llama2_7b());
        let snapshot = Cluster::homogeneous(2, 8).snapshot();
        let gpus_a: Vec<GpuId> = (0..8).map(GpuId).collect();
        let gpus_b: Vec<GpuId> = (8..16).map(GpuId).collect();
        let old = ParallelizationPlan::uniform(&gpus_a, 1, 2, 4, 32, 8, 1).unwrap();
        let new = ParallelizationPlan::uniform(&gpus_b, 1, 2, 4, 32, 8, 1).unwrap();
        let migration = plan_migration(&old, &new, &c);
        let cost = migration_time(&c, &snapshot, &migration);
        assert_eq!(cost.messages, 32usize.div_ceil(LAYERS_PER_MESSAGE));
    }
}

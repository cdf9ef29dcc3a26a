//! GPU grouping (§4.3.1): Theorem 1 even partitioning and heavy-straggler
//! splitting guided by the Theorem 2 harmonic-capacity estimate.
//!
//! Grouping is performed per node (tensor parallelism stays intra-node).  For a
//! candidate maximum TP degree `k ∈ {1, 2, 4, 8}`:
//!
//! 1. GPUs of each node are sorted by descending straggling rate and chunked
//!    into groups of `k` (Theorem 1: similar GPUs belong together).
//! 2. Straggling GPUs are visited in descending rate order; for each, the
//!    planner evaluates isolating it into its own TP-1 group and re-grouping
//!    the remaining members of its group into power-of-two-sized consecutive
//!    runs (Appendix B.7 enumerates these candidates).  A candidate is accepted
//!    if it increases the node's harmonic capacity `Σ_g 1/y_g` (Theorem 2).

use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};

use crate::plan::TpGroup;

/// TP groups under construction: each inner vec is one group's (gpu, rate) members.
type RatedGroups = Vec<Vec<(GpuId, f64)>>;

/// A grouping result: the TP groups formed over the whole cluster for one
/// candidate maximum TP degree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupingResult {
    /// The maximum TP degree this result was produced for.
    pub max_tp: u32,
    /// All TP groups across all nodes.
    pub groups: Vec<TpGroup>,
}

impl GroupingResult {
    /// Group straggling rates `y_g = ρ_{|g|} · max{x}` for every group.
    pub fn group_rates(
        &self,
        snapshot: &ClusterSnapshot,
        coeffs: &ProfiledCoefficients,
        micro_batch_size: u64,
    ) -> Vec<f64> {
        self.groups
            .iter()
            .map(|g| coeffs.group_rate(g.tp_degree(), g.max_rate(snapshot), micro_batch_size))
            .collect()
    }
}

/// Theorem 1: partition the (rate, gpu) pairs of one node — already sorted by
/// descending rate — into consecutive groups of exactly `k` GPUs.
pub fn even_partition(sorted_gpus: &[(GpuId, f64)], k: u32) -> Vec<TpGroup> {
    assert!(k >= 1);
    sorted_gpus
        .chunks(k as usize)
        .filter(|chunk| chunk.len() == k as usize)
        .map(|chunk| TpGroup::new(chunk.iter().map(|(g, _)| *g).collect()))
        .collect()
}

/// Enumerate the multisets of power-of-two group sizes (each `≤ max_tp`) that
/// sum to `remaining`, in every order (compositions).  Each composition maps to
/// one consecutive partition of the sorted remaining GPUs (Proposition 4 of
/// Appendix B.7 shows only consecutive partitions can be optimal).
pub fn power_of_two_compositions(remaining: usize, max_tp: u32) -> Vec<Vec<usize>> {
    let sizes: Vec<usize> = [1usize, 2, 4, 8]
        .iter()
        .copied()
        .filter(|&s| s <= max_tp as usize && s <= remaining.max(1))
        .collect();
    let mut results = Vec::new();
    let mut current = Vec::new();
    fn recurse(
        remaining: usize,
        sizes: &[usize],
        current: &mut Vec<usize>,
        results: &mut Vec<Vec<usize>>,
    ) {
        if remaining == 0 {
            results.push(current.clone());
            return;
        }
        for &s in sizes {
            if s <= remaining {
                current.push(s);
                recurse(remaining - s, sizes, current, results);
                current.pop();
            }
        }
    }
    if remaining == 0 {
        return vec![vec![]];
    }
    recurse(remaining, &sizes, &mut current, &mut results);
    results
}

/// Harmonic capacity `Σ 1/y` of a set of groups on one node.
fn node_capacity(
    groups: &[Vec<(GpuId, f64)>],
    coeffs: &ProfiledCoefficients,
    micro_batch_size: u64,
) -> f64 {
    groups
        .iter()
        .map(|g| {
            let max_rate = g.iter().map(|(_, r)| *r).fold(1.0_f64, f64::max);
            let y = coeffs.group_rate(g.len() as u32, max_rate, micro_batch_size);
            if y.is_finite() && y > 0.0 {
                1.0 / y
            } else {
                0.0
            }
        })
        .sum()
}

/// Group one node's GPUs for a maximum TP degree `max_tp`, optionally applying
/// heavy-straggler splitting.
fn group_node(
    gpus: &[(GpuId, f64)],
    max_tp: u32,
    coeffs: &ProfiledCoefficients,
    micro_batch_size: u64,
    straggler_threshold: f64,
    enable_splitting: bool,
) -> Vec<TpGroup> {
    let mut sorted: Vec<(GpuId, f64)> = gpus.to_vec();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    // Theorem 1: even partition into groups of size max_tp (node sizes are
    // powers of two in practice; trailing GPUs that do not fill a group become
    // singleton groups so no device is silently dropped).
    let k = max_tp.min(sorted.len() as u32).max(1);
    let mut groups: Vec<Vec<(GpuId, f64)>> =
        sorted.chunks(k as usize).map(|c| c.to_vec()).collect();

    if enable_splitting && k > 1 {
        // Visit straggling GPUs in descending rate order.
        let mut stragglers: Vec<(GpuId, f64)> = sorted
            .iter()
            .copied()
            .filter(|(_, r)| *r > straggler_threshold)
            .collect();
        stragglers.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (gpu, rate) in stragglers {
            // Locate the group currently holding this straggler.
            let Some(gidx) = groups
                .iter()
                .position(|g| g.iter().any(|(id, _)| *id == gpu))
            else {
                continue;
            };
            if groups[gidx].len() <= 1 {
                continue; // already isolated
            }
            let current_capacity = node_capacity(&groups, coeffs, micro_batch_size);
            // Candidate: isolate the straggler, re-partition the rest of its
            // group into consecutive power-of-two runs.
            let mut rest: Vec<(GpuId, f64)> = groups[gidx]
                .iter()
                .copied()
                .filter(|(id, _)| *id != gpu)
                .collect();
            rest.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut best: Option<(f64, RatedGroups)> = None;
            for composition in power_of_two_compositions(rest.len(), max_tp) {
                let mut candidate_groups: Vec<Vec<(GpuId, f64)>> = Vec::new();
                let mut offset = 0usize;
                for size in composition {
                    candidate_groups.push(rest[offset..offset + size].to_vec());
                    offset += size;
                }
                candidate_groups.push(vec![(gpu, rate)]);
                // Assemble the full node grouping with this candidate replacing
                // the original group.
                let mut full: Vec<Vec<(GpuId, f64)>> = groups
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != gidx)
                    .map(|(_, g)| g.clone())
                    .collect();
                full.extend(candidate_groups);
                let cap = node_capacity(&full, coeffs, micro_batch_size);
                if best.as_ref().map(|(c, _)| cap > *c + 1e-15).unwrap_or(true) {
                    best = Some((cap, full));
                }
            }
            if let Some((cap, full)) = best {
                if cap > current_capacity + 1e-15 {
                    groups = full;
                }
            }
        }
    }

    groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|g| TpGroup::new(g.into_iter().map(|(id, _)| id).collect()))
        .collect()
}

/// Group the whole cluster for one candidate maximum TP degree.
///
/// GPUs with infinite rates (failures) are excluded entirely.
pub fn group_cluster(
    snapshot: &ClusterSnapshot,
    coeffs: &ProfiledCoefficients,
    max_tp: u32,
    micro_batch_size: u64,
    straggler_threshold: f64,
    enable_splitting: bool,
) -> GroupingResult {
    let mut groups = Vec::new();
    for node in 0..snapshot.num_nodes as u32 {
        let gpus: Vec<(GpuId, f64)> = snapshot
            .gpus_on_node(node)
            .into_iter()
            .map(|g| (g, snapshot.rate(g)))
            .filter(|(_, r)| r.is_finite())
            .collect();
        if gpus.is_empty() {
            continue;
        }
        groups.extend(group_node(
            &gpus,
            max_tp,
            coeffs,
            micro_batch_size,
            straggler_threshold,
            enable_splitting,
        ));
    }
    GroupingResult { max_tp, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::Cluster;
    use malleus_model::{HardwareParams, ModelSpec};

    fn coeffs() -> ProfiledCoefficients {
        ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster())
    }

    #[test]
    fn even_partition_groups_similar_gpus_together() {
        // Theorem 1: sort desc and chunk.
        let gpus: Vec<(GpuId, f64)> = vec![
            (GpuId(0), 1.0),
            (GpuId(1), 5.42),
            (GpuId(2), 1.0),
            (GpuId(3), 2.57),
        ];
        let mut sorted = gpus.clone();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
        let groups = even_partition(&sorted, 2);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].gpus, vec![GpuId(1), GpuId(3)]);
        assert_eq!(groups[1].gpus, vec![GpuId(0), GpuId(2)]);
    }

    #[test]
    fn compositions_of_seven_into_1_2_4_contains_six_orderings() {
        // Appendix B.7: splitting one straggler out of an 8-GPU group leaves 7
        // GPUs; the size multiset {4,2,1} alone yields 6 orderings.
        let comps = power_of_two_compositions(7, 8);
        let with_multiset_421 = comps
            .iter()
            .filter(|c| {
                let mut s = (*c).clone();
                s.sort_unstable();
                s == vec![1, 2, 4]
            })
            .count();
        assert_eq!(with_multiset_421, 6);
        // All compositions sum to 7.
        assert!(comps.iter().all(|c| c.iter().sum::<usize>() == 7));
    }

    #[test]
    fn healthy_node_stays_evenly_grouped() {
        let cluster = Cluster::homogeneous(1, 8);
        let result = group_cluster(&cluster.snapshot(), &coeffs(), 8, 1, 1.05, true);
        assert_eq!(result.groups.len(), 1);
        assert_eq!(result.groups[0].tp_degree(), 8);
    }

    #[test]
    fn heavy_straggler_is_isolated() {
        let mut cluster = Cluster::homogeneous(1, 8);
        cluster.set_rate(GpuId(3), 12.53);
        let result = group_cluster(&cluster.snapshot(), &coeffs(), 8, 1, 1.05, true);
        // The straggler should sit alone in a TP-1 group.
        let iso = result
            .groups
            .iter()
            .find(|g| g.gpus.contains(&GpuId(3)))
            .unwrap();
        assert_eq!(iso.tp_degree(), 1, "groups: {:?}", result.groups);
        // The other 7 GPUs are re-grouped into power-of-two sizes.
        let sizes: Vec<u32> = result
            .groups
            .iter()
            .filter(|g| !g.gpus.contains(&GpuId(3)))
            .map(|g| g.tp_degree())
            .collect();
        assert_eq!(sizes.iter().sum::<u32>(), 7);
        assert!(sizes.iter().all(|s| [1, 2, 4, 8].contains(s)));
    }

    #[test]
    fn splitting_can_be_disabled() {
        let mut cluster = Cluster::homogeneous(1, 8);
        cluster.set_rate(GpuId(3), 12.53);
        let result = group_cluster(&cluster.snapshot(), &coeffs(), 8, 1, 1.05, false);
        assert_eq!(result.groups.len(), 1);
        assert_eq!(result.groups[0].tp_degree(), 8);
    }

    #[test]
    fn mild_stragglers_are_not_split_out_of_small_groups() {
        // With TP=2 and a mild straggler, isolating it cannot improve the
        // harmonic capacity enough to be worthwhile in every case; whatever the
        // decision, the total GPU count must be preserved.
        let mut cluster = Cluster::homogeneous(1, 8);
        cluster.set_rate(GpuId(0), 1.3);
        let result = group_cluster(&cluster.snapshot(), &coeffs(), 2, 1, 1.05, true);
        let total: u32 = result.groups.iter().map(|g| g.tp_degree()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn failed_gpus_are_excluded() {
        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(0), f64::INFINITY);
        let result = group_cluster(&cluster.snapshot(), &coeffs(), 8, 1, 1.05, true);
        let all: Vec<GpuId> = result.groups.iter().flat_map(|g| g.gpus.clone()).collect();
        assert!(!all.contains(&GpuId(0)));
        assert_eq!(all.len(), 15);
    }

    #[test]
    fn group_rates_use_rho_and_max_rate() {
        let mut cluster = Cluster::homogeneous(1, 8);
        cluster.set_rate(GpuId(2), 3.75);
        let c = coeffs();
        let result = group_cluster(&cluster.snapshot(), &c, 8, 1, 1.05, false);
        let rates = result.group_rates(&cluster.snapshot(), &c, 1);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - c.rho(8, 1) * 3.75).abs() < 1e-12);
    }

    #[test]
    fn per_node_grouping_never_crosses_nodes() {
        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(1), 5.42);
        cluster.set_rate(GpuId(9), 2.57);
        let snapshot = cluster.snapshot();
        let result = group_cluster(&snapshot, &coeffs(), 4, 1, 1.05, true);
        for g in &result.groups {
            let nodes: std::collections::HashSet<u32> =
                g.gpus.iter().map(|id| snapshot.node_of(*id)).collect();
            assert_eq!(nodes.len(), 1, "group spans nodes: {:?}", g.gpus);
        }
    }
}

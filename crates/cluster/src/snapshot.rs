//! Immutable cluster snapshots consumed by the profiler and planner.

use crate::fnv::Fnv1a;
use crate::topology::GpuId;
use serde::{Deserialize, Serialize};

/// A point-in-time view of the cluster topology and the (observed or true)
/// per-GPU straggling rates.  This is the planner's sole input about hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Node index of each GPU (indexed by GPU id).
    pub node_of: Vec<u32>,
    /// Straggling rate of each GPU (indexed by GPU id).
    pub rates: Vec<f64>,
}

impl ClusterSnapshot {
    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.rates.len()
    }

    /// The GPUs hosted on a node, in id order.
    pub fn gpus_on_node(&self, node: u32) -> Vec<GpuId> {
        self.node_of
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == node)
            .map(|(i, _)| GpuId(i as u32))
            .collect()
    }

    /// Straggling rate of a GPU.
    pub fn rate(&self, gpu: GpuId) -> f64 {
        self.rates[gpu.index()]
    }

    /// Node hosting a GPU.
    pub fn node_of(&self, gpu: GpuId) -> u32 {
        self.node_of[gpu.index()]
    }

    /// GPUs whose rate exceeds a threshold.
    pub fn stragglers(&self, threshold: f64) -> Vec<GpuId> {
        self.rates
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > threshold)
            .map(|(i, _)| GpuId(i as u32))
            .collect()
    }

    /// Replace the rate of one GPU, returning a new snapshot (used by what-if
    /// analyses and the re-planning tests).
    pub fn with_rate(&self, gpu: GpuId, rate: f64) -> Self {
        let mut next = self.clone();
        next.rates[gpu.index()] = rate;
        next
    }

    /// A cheap structural fingerprint of the snapshot: FNV-1a over the node
    /// topology and the exact bit patterns of the straggling rates.  Two equal
    /// snapshots always share a fingerprint, so it can key memoization caches
    /// (e.g. the planner's shared grouping memo); collisions are possible and
    /// callers must confirm hits with a full equality check.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.num_nodes as u64);
        for &n in &self.node_of {
            h.u64(u64::from(n));
        }
        for &r in &self.rates {
            h.f64(r);
        }
        h.finish()
    }

    /// Whether another snapshot shares this one's structure: same node
    /// topology and the same availability pattern (a rate flipping between
    /// finite and infinite is a node/GPU loss or join, not a drift).  The
    /// plan client's L1 drift eviction uses it: an entry whose snapshot
    /// differs structurally from the live one counts as drifted.
    pub fn same_structure(&self, other: &ClusterSnapshot) -> bool {
        self.num_nodes == other.num_nodes
            && self.node_of == other.node_of
            && self.rates.len() == other.rates.len()
            && self
                .rates
                .iter()
                .zip(other.rates.iter())
                .all(|(a, b)| a.is_finite() == b.is_finite())
    }

    /// Largest relative change of any GPU's rate w.r.t. another snapshot.
    /// The paper triggers re-planning when this exceeds 5%.
    pub fn max_relative_shift(&self, other: &ClusterSnapshot) -> f64 {
        self.rates
            .iter()
            .zip(other.rates.iter())
            .map(|(&a, &b)| {
                if a.is_infinite() && b.is_infinite() {
                    0.0
                } else if a.is_infinite() || b.is_infinite() {
                    f64::INFINITY
                } else {
                    (a - b).abs() / b.max(1e-12)
                }
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Cluster;

    #[test]
    fn snapshot_queries() {
        let mut c = Cluster::homogeneous(2, 4);
        c.set_rate(GpuId(5), 2.57);
        let s = c.snapshot();
        assert_eq!(s.num_gpus(), 8);
        assert_eq!(
            s.gpus_on_node(1),
            vec![GpuId(4), GpuId(5), GpuId(6), GpuId(7)]
        );
        assert_eq!(s.rate(GpuId(5)), 2.57);
        assert_eq!(s.node_of(GpuId(5)), 1);
        assert_eq!(s.stragglers(1.05), vec![GpuId(5)]);
    }

    #[test]
    fn relative_shift_detects_changes() {
        let c = Cluster::homogeneous(1, 4);
        let a = c.snapshot();
        let b = a.with_rate(GpuId(2), 1.04);
        assert!(a.max_relative_shift(&b) < 0.05);
        let b = a.with_rate(GpuId(2), 1.2);
        assert!(a.max_relative_shift(&b) > 0.05);
        let b = a.with_rate(GpuId(2), f64::INFINITY);
        assert!(a.max_relative_shift(&b).is_infinite());
    }

    #[test]
    fn fingerprint_tracks_equality() {
        let mut c = Cluster::homogeneous(2, 8);
        let a = c.snapshot();
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        c.set_rate(GpuId(3), 2.57);
        let b = c.snapshot();
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Failures (infinite rates) are representable and distinguishable.
        c.set_rate(GpuId(3), f64::INFINITY);
        assert_ne!(b.fingerprint(), c.snapshot().fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Cache and memo keys derive from this value; it must not move.
        let mut c = Cluster::homogeneous(2, 8);
        c.set_rate(GpuId(3), 2.57);
        c.set_rate(GpuId(9), f64::INFINITY);
        assert_eq!(c.snapshot().fingerprint(), 0x3504_21a6_8374_ac32);
    }

    #[test]
    fn same_structure_distinguishes_drift_from_availability_changes() {
        let c = Cluster::homogeneous(2, 4);
        let a = c.snapshot();
        // Drift — even a large one — is not structural.
        assert!(a.same_structure(&a.with_rate(GpuId(3), 12.53)));
        // A failure (finite → infinite) is structural, and so is the
        // subsequent join (infinite → finite), at any rate.
        let failed = a.with_rate(GpuId(3), f64::INFINITY);
        assert!(!a.same_structure(&failed));
        assert!(!failed.same_structure(&failed.with_rate(GpuId(3), 2.57)));
        // Two snapshots with the same failure pattern but different drifts
        // share structure.
        assert!(failed.same_structure(&failed.with_rate(GpuId(0), 3.75)));
    }

    #[test]
    fn identical_snapshots_have_zero_shift() {
        let c = Cluster::homogeneous(1, 8);
        let s = c.snapshot();
        assert_eq!(s.max_relative_shift(&s.clone()), 0.0);
    }
}

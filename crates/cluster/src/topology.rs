//! Cluster topology: GPUs, nodes and the dynamic per-GPU straggling rates.

use crate::snapshot::ClusterSnapshot;
use serde::{Deserialize, Serialize};

/// Globally unique identifier of a GPU (index into the cluster's GPU list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GpuId(pub u32);

impl GpuId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// A physical GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gpu {
    /// Global identifier.
    pub id: GpuId,
    /// Node (server) hosting this GPU.
    pub node: u32,
    /// Index of the GPU within its node (0..gpus_per_node).
    pub local_index: u32,
}

/// A server hosting several GPUs connected by NVLink.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Node index.
    pub index: u32,
    /// GPUs hosted by this node.
    pub gpus: Vec<GpuId>,
}

/// A GPU cluster with dynamic per-GPU straggling rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    nodes: Vec<Node>,
    gpus: Vec<Gpu>,
    /// Current true straggling rate of each GPU (`1.0` = healthy,
    /// `f64::INFINITY` = failed).
    rates: Vec<f64>,
}

impl Cluster {
    /// Build a homogeneous cluster of `num_nodes` servers with `gpus_per_node`
    /// GPUs each, all healthy.
    pub fn homogeneous(num_nodes: u32, gpus_per_node: u32) -> Self {
        assert!(num_nodes > 0 && gpus_per_node > 0);
        let mut nodes = Vec::with_capacity(num_nodes as usize);
        let mut gpus = Vec::with_capacity((num_nodes * gpus_per_node) as usize);
        for n in 0..num_nodes {
            let mut node_gpus = Vec::with_capacity(gpus_per_node as usize);
            for l in 0..gpus_per_node {
                let id = GpuId(n * gpus_per_node + l);
                node_gpus.push(id);
                gpus.push(Gpu {
                    id,
                    node: n,
                    local_index: l,
                });
            }
            nodes.push(Node {
                index: n,
                gpus: node_gpus,
            });
        }
        let rates = vec![1.0; gpus.len()];
        Self { nodes, gpus, rates }
    }

    /// The paper's testbed: 8 nodes × 8 A800 GPUs = 64 GPUs.
    pub fn paper_testbed() -> Self {
        Self::homogeneous(8, 8)
    }

    /// Number of GPUs in the cluster.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// GPUs per node (assumes a homogeneous layout).
    pub fn gpus_per_node(&self) -> usize {
        self.nodes.first().map(|n| n.gpus.len()).unwrap_or(0)
    }

    /// All GPUs.
    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node hosting a GPU.
    pub fn node_of(&self, gpu: GpuId) -> u32 {
        self.gpus[gpu.index()].node
    }

    /// GPU ids hosted on a node.
    pub fn gpus_on_node(&self, node: u32) -> &[GpuId] {
        &self.nodes[node as usize].gpus
    }

    /// Current true straggling rate of a GPU.
    pub fn rate(&self, gpu: GpuId) -> f64 {
        self.rates[gpu.index()]
    }

    /// All current rates, indexed by GPU id.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Set the straggling rate of a GPU (must be `>= 1` or infinite).
    pub fn set_rate(&mut self, gpu: GpuId, rate: f64) {
        assert!(
            rate >= 1.0 || rate.is_infinite(),
            "straggling rate must be >= 1 (or +inf for a failure), got {rate}"
        );
        self.rates[gpu.index()] = rate;
    }

    /// Reset every GPU to healthy (`rate = 1`).
    pub fn reset_rates(&mut self) {
        for r in &mut self.rates {
            *r = 1.0;
        }
    }

    /// Apply a whole set of rates (e.g. a trace situation), resetting all other
    /// GPUs to healthy first.
    pub fn apply_situation(&mut self, rates: &[(GpuId, f64)]) {
        self.reset_rates();
        for &(gpu, rate) in rates {
            self.set_rate(gpu, rate);
        }
    }

    /// Whether a GPU has failed (infinite rate).
    pub fn is_failed(&self, gpu: GpuId) -> bool {
        self.rates[gpu.index()].is_infinite()
    }

    /// GPUs whose rate exceeds the given threshold (the stragglers).
    pub fn stragglers(&self, threshold: f64) -> Vec<GpuId> {
        self.gpus
            .iter()
            .filter(|g| self.rates[g.id.index()] > threshold)
            .map(|g| g.id)
            .collect()
    }

    /// An immutable snapshot of the topology and current rates, as consumed by
    /// the profiler and the planner.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            num_nodes: self.num_nodes(),
            node_of: self.gpus.iter().map(|g| g.node).collect(),
            rates: self.rates.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_layout() {
        let c = Cluster::homogeneous(4, 8);
        assert_eq!(c.num_gpus(), 32);
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.gpus_per_node(), 8);
        assert_eq!(c.node_of(GpuId(9)), 1);
        assert_eq!(c.gpus_on_node(2).len(), 8);
        assert_eq!(c.gpus_on_node(3)[0], GpuId(24));
    }

    #[test]
    fn paper_testbed_has_64_gpus() {
        let c = Cluster::paper_testbed();
        assert_eq!(c.num_gpus(), 64);
        assert_eq!(c.num_nodes(), 8);
    }

    #[test]
    fn rates_default_to_healthy_and_can_be_set() {
        let mut c = Cluster::homogeneous(1, 8);
        assert!(c.rates().iter().all(|&r| r == 1.0));
        c.set_rate(GpuId(3), 5.42);
        assert_eq!(c.rate(GpuId(3)), 5.42);
        assert_eq!(c.stragglers(1.05), vec![GpuId(3)]);
        c.reset_rates();
        assert!(c.stragglers(1.05).is_empty());
    }

    #[test]
    fn failure_is_infinite_rate() {
        let mut c = Cluster::homogeneous(1, 4);
        c.set_rate(GpuId(1), f64::INFINITY);
        assert!(c.is_failed(GpuId(1)));
        assert!(!c.is_failed(GpuId(0)));
    }

    #[test]
    #[should_panic(expected = "straggling rate must be >= 1")]
    fn rates_below_one_are_rejected() {
        let mut c = Cluster::homogeneous(1, 2);
        c.set_rate(GpuId(0), 0.5);
    }

    #[test]
    fn apply_situation_resets_previous_stragglers() {
        let mut c = Cluster::homogeneous(2, 8);
        c.apply_situation(&[(GpuId(0), 2.57)]);
        c.apply_situation(&[(GpuId(5), 3.75)]);
        assert_eq!(c.rate(GpuId(0)), 1.0);
        assert_eq!(c.rate(GpuId(5)), 3.75);
    }

    #[test]
    fn snapshot_reflects_topology_and_rates() {
        let mut c = Cluster::homogeneous(2, 4);
        c.set_rate(GpuId(6), 2.57);
        let s = c.snapshot();
        assert_eq!(s.num_nodes, 2);
        assert_eq!(s.node_of[6], 1);
        assert_eq!(s.rates[6], 2.57);
    }
}

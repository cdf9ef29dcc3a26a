//! `malleus-cluster` — the simulated GPU cluster substrate.
//!
//! The paper runs on 8 servers × 8 A800 GPUs connected by NVLink (intra-node)
//! and InfiniBand (inter-node), and *simulates* stragglers by launching
//! interfering compute processes on victim GPUs.  This crate reproduces that
//! substrate: a [`topology::Cluster`] of nodes and GPUs, per-GPU dynamic
//! straggling rates, the paper's straggler levels and situations (S1–S6), and
//! trace generators that drive the end-to-end experiments.
//!
//! The straggling rate `x ≥ 1` of a GPU is the factor by which it is slower
//! than a healthy GPU (`x = 1` means healthy, `x = ∞` means failed). Rates are
//! the *only* channel through which stragglers influence the planner — exactly
//! as in the paper, where the profiler reduces all root causes (thermal
//! throttling, jitter, co-located jobs) to this one number.

pub mod fnv;
pub mod snapshot;
pub mod straggler;
pub mod topology;
pub mod trace;

pub use fnv::Fnv1a;
pub use snapshot::ClusterSnapshot;
pub use straggler::{StragglerEvent, StragglerLevel};
pub use topology::{Cluster, Gpu, GpuId, Node};
pub use trace::{PaperSituation, Situation, Trace, TracePhase};

//! `malleus-core` — the Malleus parallelization-planning algorithm.
//!
//! This crate implements the paper's primary contribution: given per-GPU
//! straggling rates, deduce a *parallelization plan* — a joint, non-uniform
//! partitioning of GPU devices into tensor-parallel groups, groups into
//! pipeline stages, model layers across stages and training data across
//! pipelines — that minimizes the training-step time (§4 of the paper).
//!
//! The planning routine is a bi-level optimization:
//!
//! * **Upper level** (`grouping` + `orchestration`): partition GPUs into TP
//!   groups (Theorem 1 even partitioning, heavy-straggler splitting guided by
//!   the Theorem 2 harmonic-capacity estimate), then orchestrate pipelines
//!   (pipeline division via the Eq. (4) MINLP, group ordering via Theorem 3).
//! * **Lower level** (`assignment`): assign model layers within each pipeline
//!   (Eq. (2) ILP) and micro-batches across pipelines (Eq. (3) ILP) under the
//!   memory model of Appendix B.4.
//!
//! The [`planner::Planner`] ties the two levels together, enumerating candidate
//! maximum TP degrees {1, 2, 4, 8} and micro-batch sizes exactly as §4.3.3
//! describes, and reports a per-phase timing breakdown (Appendix A.2).  A
//! plan runs on its caller's thread and folds the candidate lattice in order;
//! [`parallel`] holds what plans share across threads (the grouping memo and
//! the ranked locks).
//! [`migration`] computes the slice-level model-state movements needed to adopt
//! a new plan on the fly (§5.1).  [`delta`] holds the candidate memo: every
//! plan and replan, whatever the cluster event, reuses the candidate
//! evaluations it has seen before — confirmed bitwise, so memo-backed plans
//! stay byte-identical to full enumeration — and attaches its scored lattice
//! to the outcome as diagnostics.

// Floats are compared bitwise (`to_bits`), so plans stay byte-identical.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod assignment;
pub mod backend;
pub mod cost;
pub mod delta;
pub mod error;
pub mod grouping;
pub mod migration;
pub mod orchestration;
#[cfg(test)]
mod ordering_reference;
pub mod parallel;
pub mod plan;
pub mod planner;
mod precheck;

pub use backend::{
    BackendConstructor, BackendId, ClusterEvent, PlanBackend, PlannedOutcome,
    DEFAULT_STRAGGLER_THRESHOLD,
};
pub use cost::CostModel;
pub use delta::{CandidateMemo, LatticeEntry, ScoredLattice};
pub use error::PlanError;
pub use grouping::{group_cluster, GroupingResult};
pub use migration::{plan_migration, MigrationPlan, SliceMove};
pub use parallel::{lock_rank, GroupingCache, Parallelism, RankedGuard, RankedMutex};
pub use plan::{ParallelizationPlan, PipelinePlan, StagePlan, TpGroup};
pub use planner::{PlanOutcome, PlanTiming, Planner, PlannerConfig};

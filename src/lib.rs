//! **malleus** — a from-scratch Rust reproduction of
//! *"Malleus: Straggler-Resilient Hybrid Parallel Training of Large-scale
//! Models via Malleable Data and Model Parallelization"* (SIGMOD 2025).
//!
//! This facade crate re-exports the workspace crates and provides a small
//! [`prelude`] so the examples and downstream users can pull in the whole stack
//! with one import:
//!
//! ```
//! use malleus::prelude::*;
//!
//! // 32 GPUs (4 nodes × 8), one heavy straggler on GPU 0.
//! let mut cluster = Cluster::homogeneous(4, 8);
//! cluster.set_rate(GpuId(0), StragglerLevel::Level3.rate());
//!
//! // Profile the 32B model on A800-class hardware and plan.
//! let coeffs = ProfiledCoefficients::derive(
//!     ModelSpec::llama2_32b(),
//!     HardwareParams::a800_cluster(),
//! );
//! let planner = Planner::new(coeffs.clone(), PlannerConfig::default());
//! let outcome = planner.plan(&cluster.snapshot()).expect("feasible plan");
//!
//! // Execute one simulated training step with the adapted plan.
//! let report = simulate_step(&coeffs, &outcome.plan, &cluster.snapshot()).unwrap();
//! assert!(report.step_time > 0.0);
//! ```
//!
//! Crate map:
//!
//! | crate | contents |
//! |---|---|
//! | [`solver`] | exact min-max ILP and pipeline-division (MINLP) solvers |
//! | [`model`] | LLM architecture specs, memory/compute models, profiled coefficients |
//! | [`cluster`] | simulated GPU cluster, straggler levels, S1–S6 traces |
//! | [`core`] | the Malleus planner (grouping, orchestration, assignment, migration) |
//! | [`sim`] | 1F1B / ZeRO training-step simulator, migration & restart costs |
//! | [`runtime`] | profiler, executor, asynchronous re-planning, training sessions |
//! | [`service`] | multi-tenant planning service: sharded plan cache, coalescing, socket daemon |
//! | [`wire`] | hand-rolled length-prefixed binary codec for the standalone plan server |
//! | [`baselines`] | Megatron-LM, DeepSpeed, restart variants, Oobleck, theoretic optimum |

pub use malleus_baselines as baselines;
pub use malleus_cluster as cluster;
pub use malleus_core as core;
pub use malleus_model as model;
pub use malleus_runtime as runtime;
pub use malleus_service as service;
pub use malleus_sim as sim;
pub use malleus_solver as solver;
pub use malleus_wire as wire;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use malleus_baselines::{
        baseline_constructors, gap_from_optimum, theoretic_optimal_time, DeepSpeedPlanner,
        MegatronPlanner, OobleckPlanner, RestartFamily, RestartPlanner,
    };
    pub use malleus_cluster::{
        Cluster, ClusterSnapshot, GpuId, PaperSituation, Situation, StragglerEvent, StragglerLevel,
        Trace, TracePhase,
    };
    pub use malleus_core::{
        plan_migration, BackendId, ClusterEvent, CostModel, ParallelizationPlan, PlanBackend,
        PlanError, PlanOutcome, PlannedOutcome, Planner, PlannerConfig, ScoredLattice,
    };
    pub use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};
    pub use malleus_runtime::{
        replan_overlapped_backend, replan_overlapped_incremental, replan_overlapped_shared,
        BackendReplan, Executor, Profiler, SessionReport, TrainingSession,
    };
    pub use malleus_service::{
        BackendMetrics, ClientConfig, KeyedRequest, L1Stats, PlanClient, PlanRequest, PlanServer,
        PlanService, PlanTransport, ServerConfig, ServiceConfig, ServiceError, ServiceMetrics,
    };
    pub use malleus_sim::{
        migration_time, restart_time, simulate_step, simulate_zero3_step, StepReport,
        TrainingSimulator, Zero3Config,
    };
    pub use malleus_solver::{divide_pipelines, solve_minmax_allocation, DivisionProblem};
    pub use malleus_wire::{Wire, WireError};
}

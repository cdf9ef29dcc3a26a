//! `malleus-runtime` — the Malleus system loop (Figure 3).
//!
//! This crate ties together the three components of the paper's architecture:
//!
//! * the **profiler** (§5.2) monitors per-GPU efficiency from the executed
//!   steps, estimates straggling rates, probes standby devices, and raises a
//!   re-planning notification when any rate shifts by more than 5%;
//! * the **planner** (`malleus-core`) deduces a new parallelization plan;
//! * the **executor** (§5.1) instantiates plans on the simulated cluster,
//!   migrates model states on the fly and runs training steps.
//!
//! [`session::TrainingSession`] drives the full loop over a straggler trace,
//! with asynchronous (overlapped) re-planning and failure recovery, producing
//! the per-phase reports the end-to-end experiments (Figure 7 / Table 2) are
//! built from.  It plans through one [`malleus_core::PlanBackend`] handle:
//! its own planner, a shared planning service or daemon
//! ([`session::TrainingSession::with_service`]), or any baseline
//! ([`session::TrainingSession::with_backend`]).

pub mod executor;
pub mod profiler;
pub mod replanner;
pub mod session;

pub use executor::Executor;
pub use profiler::{Profiler, ProfilerObservation};
pub use replanner::{
    replan_overlapped_backend, replan_overlapped_incremental, replan_overlapped_shared,
    BackendReplan, ReplanOutcome,
};
pub use session::{PhaseReport, RuntimeError, SessionReport, TrainingSession};

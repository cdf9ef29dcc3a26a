//! End-to-end training sessions over a straggler trace.
//!
//! A [`TrainingSession`] reproduces the overall routine of §3.2: train with the
//! current plan, let the profiler watch per-GPU efficiency, trigger overlapped
//! re-planning when a >5% shift is detected, migrate the model states, and keep
//! going.  Failures (infinite rates on active GPUs) fall back to the
//! checkpoint-restart path with the failed GPUs excluded (§5.1).
//!
//! The session produces one [`PhaseReport`] per trace phase; the end-to-end
//! experiments (Figure 7 / Table 2 / Figure 8) are tabulated directly from
//! these reports.

use crate::executor::Executor;
use crate::profiler::Profiler;
use crate::replanner::{replan_overlapped_backend, SharedPlanner};
use malleus_cluster::{Cluster, Trace};
use malleus_core::{PlanBackend, PlanError, Planner, PlannerConfig};
use malleus_model::ProfiledCoefficients;
use malleus_service::PlanTransport;
use malleus_sim::restart_time;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Errors produced while driving a training session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RuntimeError {
    /// The planner could not produce any feasible plan.
    Planning(String),
    /// The executor ran out of memory with a plan that passed planning checks.
    OutOfMemory(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Planning(e) => write!(f, "planning failed: {e}"),
            RuntimeError::OutOfMemory(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PlanError> for RuntimeError {
    fn from(e: PlanError) -> Self {
        RuntimeError::Planning(e.to_string())
    }
}

/// Per-phase summary of a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Name of the straggler situation (e.g. `"S3"`).
    pub situation: String,
    /// Number of training iterations in the phase.
    pub steps: u32,
    /// Steady-state step time with the adapted plan (seconds).
    pub step_time: f64,
    /// Step time measured with the *previous* plan right after the shift (what
    /// the job would keep paying without re-planning).
    pub step_time_before_adaptation: f64,
    /// Planner's estimated step time for the adapted plan.
    pub estimated_step_time: f64,
    /// Whether re-planning was triggered during this phase.
    pub replanned: bool,
    /// Planning wall-clock time (overlapped with training).
    pub planning_time: f64,
    /// Training stall not hidden by the overlap.
    pub stall_time: f64,
    /// Model-state migration time paid when adopting the new plan.  Zero on
    /// failure recovery, whose restart reloads the checkpoint onto the new
    /// plan, unless the backend reports its own transition cost.
    pub migration_time: f64,
    /// Checkpoint-restart time paid (only on failure recovery).
    pub restart_time: f64,
    /// MFU of the adapted plan during this phase.
    pub mfu: f64,
    /// Data-parallel degree of the adapted plan.
    pub dp: usize,
    /// Number of standby (removed) GPUs under the adapted plan.
    pub standby_gpus: usize,
    /// Human-readable description of the adapted plan.
    pub plan_description: String,
}

/// Full session report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// One report per trace phase.
    pub phases: Vec<PhaseReport>,
    /// Total wall-clock training time across the trace (steady-state steps plus
    /// transition costs).
    pub total_time: f64,
}

impl SessionReport {
    /// Average step time across all phases, weighted by step counts.
    pub fn average_step_time(&self) -> f64 {
        let steps: f64 = self.phases.iter().map(|p| p.steps as f64).sum();
        if steps == 0.0 {
            return 0.0;
        }
        self.phases
            .iter()
            .map(|p| p.step_time * p.steps as f64)
            .sum::<f64>()
            / steps
    }
}

/// A Malleus training session: planner + executor + profiler over a cluster.
#[derive(Debug, Clone)]
pub struct TrainingSession {
    /// The parallelization planner.
    pub planner: Planner,
    /// The executor.
    pub executor: Executor,
    /// The profiler.
    pub profiler: Profiler,
    /// The simulated cluster (true straggling rates live here).
    pub cluster: Cluster,
    /// Planning override: when set, planning and re-planning go through this
    /// backend instead of `planner`.
    backend: Option<Arc<dyn PlanBackend>>,
}

impl TrainingSession {
    /// Create a session.
    pub fn new(coeffs: ProfiledCoefficients, config: PlannerConfig, cluster: Cluster) -> Self {
        Self {
            planner: Planner::new(coeffs.clone(), config),
            executor: Executor::new(coeffs),
            profiler: Profiler::default(),
            cluster,
            backend: None,
        }
    }

    /// Route this session's planning through a shared planning transport: an
    /// in-process [`malleus_service::PlanService`] (N sessions replanning
    /// after the same cluster event pay for one planner invocation) or a
    /// [`malleus_service::PlanClient`] dialing a standalone plan daemon (its
    /// L1 cache in front of the daemon's shared L2).  The wire codec
    /// preserves `f64` bit patterns, so the plans — and therefore the session
    /// reports, planning wall-clock aside — are byte-identical to the
    /// session's own planner.
    ///
    /// The adapter plans with a clone of `planner` as it is now (its
    /// coefficients and configuration go into every request), so edit
    /// `planner` before this call.  Service backpressure
    /// ([`malleus_service::ServiceError::Overloaded`]) degrades to that
    /// clone for the one request; any other service failure fails
    /// [`TrainingSession::run`] with [`RuntimeError::Planning`].
    pub fn with_service(self, transport: Arc<dyn PlanTransport>) -> Self {
        let shared = SharedPlanner::new(transport, self.planner.clone());
        self.with_backend(Arc::new(shared))
    }

    /// Drive this session's planning through an arbitrary [`PlanBackend`]
    /// (Malleus itself, or any baseline).  The backend must produce an
    /// executable [`malleus_core::ParallelizationPlan`] (`plan: Some`) —
    /// configuration-only backends like DeepSpeed cannot feed the executor
    /// and fail with [`RuntimeError::Planning`].  Replaces any earlier
    /// [`TrainingSession::with_service`].
    pub fn with_backend(mut self, backend: Arc<dyn PlanBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Run the session over a trace.
    pub fn run(&mut self, trace: &Trace) -> Result<SessionReport, RuntimeError> {
        let mut phases = Vec::with_capacity(trace.phases.len());
        let mut total_time = 0.0;
        let backend = self.backend.as_deref().unwrap_or(&self.planner);

        // Initial plan: deduced with the rates of the first phase's situation
        // already applied?  No — the paper starts from the healthy-cluster plan
        // and adapts; we instantiate with whatever the cluster currently shows.
        if let Some(first) = trace.phases.first() {
            self.cluster.apply_situation(&first.situation.rates);
        }
        // Each outcome is threaded into the next re-plan; the Malleus backend
        // keeps its DP degree and replays recurring candidates from its memo.
        let mut current = backend.plan(&self.cluster.snapshot(), &self.planner.config)?;
        let first_plan = current.plan.clone().ok_or_else(|| {
            RuntimeError::Planning(format!(
                "{} produced no executable plan for the initial snapshot",
                current.backend
            ))
        })?;
        self.executor.instantiate(first_plan);

        for (index, phase) in trace.phases.iter().enumerate() {
            self.cluster.apply_situation(&phase.situation.rates);
            // Observed snapshot: what the profiler believes (here: true
            // rates, since the simulator's measurements are exact).
            let snapshot = self.cluster.snapshot();

            // One detection step with the current (old) plan, if it can run.
            let mut restart_cost = 0.0;
            let mut step_before = f64::NAN;
            let runnable = self.executor.plan_runnable(&snapshot);
            if runnable {
                let report = self
                    .executor
                    .train_step(&snapshot)
                    .map_err(|e| RuntimeError::OutOfMemory(e.to_string()))?;
                step_before = report.step_time;
                self.profiler.observe(&report, &snapshot);
            } else {
                // Failure: recover from the latest checkpoint on the surviving
                // GPUs (the straggling rate of the failed GPUs is infinite, so
                // the planner excludes them).
                restart_cost = restart_time(&self.planner.cost.coeffs, snapshot.num_nodes);
                self.profiler.reset();
            }

            // Re-plan when the situation differs from what the current plan was
            // built for (first phase keeps the freshly planned initial plan).
            let mut replanned = false;
            let mut planning_time = 0.0;
            let mut stall_time = 0.0;
            let mut migration_time = 0.0;
            let mut estimated = current.estimated_step_time;
            if index > 0 || !runnable {
                let step = if step_before.is_finite() {
                    step_before
                } else {
                    0.0
                };
                let replan = replan_overlapped_backend(backend, &snapshot, &current, step)?;
                replanned = true;
                planning_time = replan.planning_time;
                stall_time = replan.stall_time;
                estimated = replan.outcome.estimated_step_time;
                if replan.plan_changed {
                    let new_plan = replan.outcome.plan.clone().ok_or_else(|| {
                        RuntimeError::Planning(format!(
                            "{} produced no executable plan after the cluster event",
                            replan.outcome.backend
                        ))
                    })?;
                    // After a failure the restart already reloads the
                    // checkpoint onto the new plan, so no slice moves live.
                    let live_migration = if runnable {
                        self.executor.migrate_to(new_plan, &snapshot).time
                    } else {
                        self.executor.instantiate(new_plan);
                        0.0
                    };
                    // Backends with their own transition model (restart,
                    // Oobleck) report the cost they pay; Malleus-style live
                    // migration is priced by the executor.
                    migration_time = if replan.outcome.transition_cost > 0.0 {
                        replan.outcome.transition_cost
                    } else {
                        live_migration
                    };
                }
                current = replan.outcome;
            }

            // Steady-state steps with the adapted plan.
            let report = self
                .executor
                .train_step(&snapshot)
                .map_err(|e| RuntimeError::OutOfMemory(e.to_string()))?;
            self.profiler.observe(&report, &snapshot);
            let plan = self.executor.current_plan().unwrap();
            let phase_time = report.step_time * phase.iterations as f64
                + migration_time
                + stall_time
                + restart_cost;
            total_time += phase_time;

            phases.push(PhaseReport {
                situation: phase.situation.name.clone(),
                steps: phase.iterations,
                step_time: report.step_time,
                step_time_before_adaptation: if step_before.is_finite() {
                    step_before
                } else {
                    report.step_time
                },
                estimated_step_time: estimated,
                replanned,
                planning_time,
                stall_time,
                migration_time,
                restart_time: restart_cost,
                mfu: report.mfu,
                dp: plan.dp(),
                standby_gpus: plan.removed_gpus.len(),
                plan_description: plan.describe(&snapshot),
            });
        }

        Ok(SessionReport { phases, total_time })
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only fixture locks sit outside the production lock ranks"
)]
mod tests {
    use super::*;
    use malleus_cluster::{ClusterSnapshot, GpuId, PaperSituation, Situation, TracePhase};
    use malleus_core::{BackendId, PlannedOutcome};
    use malleus_model::{HardwareParams, ModelSpec};
    use std::sync::{mpsc, Mutex};

    fn session(cluster: Cluster) -> TrainingSession {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        TrainingSession::new(coeffs, PlannerConfig::default(), cluster)
    }

    fn short_trace(cluster: &Cluster, situations: &[PaperSituation]) -> Trace {
        Trace {
            phases: situations
                .iter()
                .map(|s| TracePhase {
                    situation: s.situation(cluster),
                    iterations: 5,
                })
                .collect(),
        }
    }

    #[test]
    fn session_adapts_to_a_straggler_and_recovers() {
        let cluster = Cluster::homogeneous(4, 8);
        let trace = short_trace(
            &cluster,
            &[
                PaperSituation::Normal,
                PaperSituation::S2,
                PaperSituation::Normal,
            ],
        );
        let mut s = session(cluster);
        let report = s.run(&trace).expect("session");
        assert_eq!(report.phases.len(), 3);
        let normal = &report.phases[0];
        let straggled = &report.phases[1];
        let recovered = &report.phases[2];
        // Without adaptation the straggler would roughly multiply the step time;
        // with adaptation the loss must stay well below the straggling rate.
        assert!(straggled.replanned);
        assert!(straggled.step_time < straggled.step_time_before_adaptation * 0.7);
        assert!(straggled.step_time < normal.step_time * 2.0);
        // After the straggler disappears the step time returns close to normal.
        assert!((recovered.step_time - normal.step_time).abs() / normal.step_time < 0.1);
        // Migration happened and was cheap relative to a restart.
        assert!(straggled.migration_time > 0.0);
        assert!(straggled.migration_time < 60.0);
        assert_eq!(straggled.restart_time, 0.0);
    }

    #[test]
    fn session_handles_gpu_failure_with_restart() {
        let cluster = Cluster::homogeneous(4, 8);
        let mut failure = Situation::normal();
        failure.name = "failure".to_string();
        failure.rates = vec![(GpuId(3), f64::INFINITY)];
        let trace = Trace {
            phases: vec![
                TracePhase {
                    situation: Situation::normal(),
                    iterations: 3,
                },
                TracePhase {
                    situation: failure,
                    iterations: 3,
                },
            ],
        };
        let mut s = session(cluster);
        let report = s.run(&trace).expect("session");
        let failed_phase = &report.phases[1];
        assert!(failed_phase.restart_time > 0.0);
        assert_eq!(failed_phase.migration_time, 0.0);
        assert!(failed_phase.standby_gpus >= 1);
        assert!(failed_phase.step_time.is_finite());
    }

    #[test]
    fn sessions_sharing_a_service_replan_once_per_cluster_event() {
        use malleus_service::{PlanService, ServiceConfig};
        let cluster = Cluster::homogeneous(4, 8);
        let trace = short_trace(&cluster, &[PaperSituation::Normal, PaperSituation::S3]);
        // Reference: a serviceless session over the same trace.
        let baseline = session(cluster.clone()).run(&trace).expect("baseline");

        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let tenants = 3;
        let reports: Vec<SessionReport> = (0..tenants)
            .map(|_| {
                let mut s = session(cluster.clone()).with_service(service.clone());
                s.run(&trace).expect("service-backed session")
            })
            .collect();
        for report in &reports {
            assert_eq!(report.phases.len(), baseline.phases.len());
            for (ours, theirs) in report.phases.iter().zip(baseline.phases.iter()) {
                // Identical plans (and therefore simulated step times); only
                // planning wall-clock may differ between the paths.
                assert_eq!(ours.step_time, theirs.step_time);
                assert_eq!(ours.dp, theirs.dp);
                assert_eq!(ours.plan_description, theirs.plan_description);
            }
        }
        let metrics = service.metrics();
        // Each tenant plans the same (snapshot, config) sequence: every
        // distinct planning problem is computed once and shared.
        assert!(
            metrics.planner_invocations < metrics.requests,
            "invocations {} must be amortized over {} requests",
            metrics.planner_invocations,
            metrics.requests
        );
        assert!(metrics.hits + metrics.coalesced > 0);
    }

    /// Holds the service's only execution slot: `plan` reports that it has
    /// entered, then blocks until the test releases it.
    #[derive(Debug)]
    struct GatedBackend {
        entered: mpsc::Sender<()>,
        release: Arc<Mutex<mpsc::Receiver<()>>>,
    }

    impl PlanBackend for GatedBackend {
        fn id(&self) -> BackendId {
            BackendId::Megatron
        }

        fn fingerprint_config(&self) -> u64 {
            0
        }

        fn plan(
            &self,
            _snapshot: &ClusterSnapshot,
            _config: &PlannerConfig,
        ) -> Result<PlannedOutcome, PlanError> {
            self.entered.send(()).expect("test waits for entry");
            // Returns once the test releases the slot (or gives up on it).
            let _ = self.release.lock().unwrap().recv();
            Err(PlanError::NoUsableGpus)
        }

        fn replan(
            &self,
            snapshot: &ClusterSnapshot,
            _previous: &PlannedOutcome,
            _event: malleus_core::ClusterEvent,
        ) -> Result<PlannedOutcome, PlanError> {
            self.plan(snapshot, &PlannerConfig::default())
        }

        fn estimate_step_time(
            &self,
            _plan: &malleus_core::ParallelizationPlan,
            _snapshot: &ClusterSnapshot,
        ) -> Option<f64> {
            None
        }
    }

    #[test]
    fn session_survives_service_backpressure_by_planning_locally() {
        use malleus_service::{PlanRequest, PlanService, ServiceConfig};
        let cluster = Cluster::homogeneous(4, 8);
        let trace = short_trace(&cluster, &[PaperSituation::Normal, PaperSituation::S2]);
        let baseline = session(cluster.clone()).run(&trace).expect("baseline");
        // One execution slot, no wait queue: while a foreign tenant holds the
        // slot, every session request is shed with Overloaded.
        let service = Arc::new(PlanService::new(ServiceConfig {
            max_concurrent_plans: 1,
            max_queue_depth: 0,
            ..ServiceConfig::default()
        }));
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let release_rx = Arc::new(Mutex::new(release_rx));
        service.register_backend(
            BackendId::Megatron,
            Arc::new(move |_, _| {
                Box::new(GatedBackend {
                    entered: entered_tx.clone(),
                    release: Arc::clone(&release_rx),
                })
            }),
        );
        let blocker = {
            let service = Arc::clone(&service);
            let request = PlanRequest::new(
                ProfiledCoefficients::derive(
                    ModelSpec::llama2_7b(),
                    HardwareParams::a800_cluster(),
                ),
                cluster.snapshot(),
                PlannerConfig::default(),
            );
            std::thread::spawn(move || service.plan_backend(BackendId::Megatron, &request))
        };
        entered.recv().expect("the blocker holds the only slot");
        // The session must degrade to its own planner (byte-identical plans)
        // instead of dying on the transient overload.
        let report = session(cluster)
            .with_service(service.clone())
            .run(&trace)
            .expect("session must survive backpressure");
        release.send(()).expect("the blocker waits for release");
        blocker
            .join()
            .expect("blocker thread")
            .expect_err("gated backend");
        for (ours, theirs) in report.phases.iter().zip(baseline.phases.iter()) {
            assert_eq!(ours.step_time.to_bits(), theirs.step_time.to_bits());
            assert_eq!(ours.dp, theirs.dp);
        }
        assert!(
            service.metrics().rejected > 0,
            "the saturated service should have shed at least the first request"
        );
    }

    #[test]
    fn remote_session_matches_the_direct_session() {
        use malleus_service::{
            ClientConfig, PlanClient, PlanServer, PlanService, ServerConfig, ServiceConfig,
        };
        let cluster = Cluster::homogeneous(4, 8);
        let trace = short_trace(
            &cluster,
            &[
                PaperSituation::Normal,
                PaperSituation::S2,
                PaperSituation::Normal,
            ],
        );
        let direct = session(cluster.clone()).run(&trace).expect("direct");

        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let _server = PlanServer::bind_tcp(service, "127.0.0.1:0", ServerConfig::default())
            .expect("bind daemon");
        let addr = _server.tcp_addr().expect("tcp endpoint");
        let client =
            Arc::new(PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect"));
        let mut remote = session(cluster).with_service(client.clone());
        let via_socket = remote.run(&trace).expect("remote session");

        assert_eq!(via_socket.phases.len(), direct.phases.len());
        for (ours, theirs) in via_socket.phases.iter().zip(direct.phases.iter()) {
            // Byte-identical plans over the wire ⇒ bit-identical step times.
            assert_eq!(ours.step_time.to_bits(), theirs.step_time.to_bits());
            assert_eq!(ours.dp, theirs.dp);
            assert_eq!(ours.plan_description, theirs.plan_description);
            assert_eq!(ours.migration_time, theirs.migration_time);
        }
        let stats = client.l1_stats();
        assert!(stats.requests > 0, "planning went through the client");
    }

    #[test]
    fn unreachable_daemon_fails_the_session_typed() {
        use malleus_service::{ClientConfig, PlanClient};
        use std::net::TcpListener;
        let cluster = Cluster::homogeneous(4, 8);
        let trace = short_trace(&cluster, &[PaperSituation::Normal, PaperSituation::S2]);
        // A "daemon" that accepts the connection and hangs up: the first
        // request fails in the transport, not in the planner.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let hangup = std::thread::spawn(move || drop(listener.accept()));
        let client =
            Arc::new(PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect"));
        let result = session(cluster).with_service(client).run(&trace);
        hangup.join().expect("hang-up thread");
        // The session must fail typed instead of planning locally: only
        // backpressure degrades to the session's own planner.
        match result {
            Err(RuntimeError::Planning(reason)) => assert!(
                reason.contains("planning service unavailable"),
                "unexpected reason: {reason}"
            ),
            other => panic!("expected a typed planning failure, got {other:?}"),
        }
    }

    #[test]
    fn average_step_time_is_step_weighted() {
        let report = SessionReport {
            phases: vec![
                PhaseReport {
                    situation: "a".into(),
                    steps: 1,
                    step_time: 10.0,
                    step_time_before_adaptation: 10.0,
                    estimated_step_time: 10.0,
                    replanned: false,
                    planning_time: 0.0,
                    stall_time: 0.0,
                    migration_time: 0.0,
                    restart_time: 0.0,
                    mfu: 0.5,
                    dp: 2,
                    standby_gpus: 0,
                    plan_description: String::new(),
                },
                PhaseReport {
                    situation: "b".into(),
                    steps: 3,
                    step_time: 20.0,
                    step_time_before_adaptation: 20.0,
                    estimated_step_time: 20.0,
                    replanned: false,
                    planning_time: 0.0,
                    stall_time: 0.0,
                    migration_time: 0.0,
                    restart_time: 0.0,
                    mfu: 0.5,
                    dp: 2,
                    standby_gpus: 0,
                    plan_description: String::new(),
                },
            ],
            total_time: 70.0,
        };
        assert!((report.average_step_time() - 17.5).abs() < 1e-12);
    }
}

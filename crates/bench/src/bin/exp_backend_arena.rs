//! Online backend arena: every planning system behind the one
//! [`malleus_core::PlanBackend`] trait, replayed over identical cluster-event
//! sequences.
//!
//! Each backend — Malleus, Megatron-LM, DeepSpeed, Oobleck, and the two
//! restart remediations — starts from the healthy cluster and receives the
//! same S1–S6 event stream (20 iterations per phase).  Transitions are
//! replayed through `replan_overlapped_backend`, so each system pays its own
//! adaptation costs: Malleus migrates, the restart families checkpoint and
//! restart, plain Megatron-LM/DeepSpeed grind on with the stale plan.  The
//! table reports per-situation step times plus the aggregate wall-clock,
//! goodput, replan stall and gap from `theoretic_optimal_time`.
//!
//! The run is self-asserting: Malleus must achieve at least every baseline's
//! aggregate goodput on each workload, and the service route
//! (`PlanService::plan_backend`) must be byte-identical to driving a backend
//! directly.  Results land in `BENCH_arena.json`.
//!
//! ```bash
//! cargo run --release -p malleus-bench --bin exp_backend_arena            # full
//! cargo run --release -p malleus-bench --bin exp_backend_arena -- --smoke # 32B only
//! ```

use malleus_baselines::{baseline_constructors, gap_from_optimum, theoretic_optimal_time};
use malleus_bench::{paper_workloads, write_json, JsonValue, PaperWorkload, ScenarioMatrix, Table};
use malleus_cluster::{ClusterSnapshot, PaperSituation};
use malleus_core::{BackendId, PlanBackend, Planner, PlannerConfig};
use malleus_model::ProfiledCoefficients;
use malleus_runtime::replan_overlapped_backend;
use malleus_service::{PlanRequest, PlanService, ServiceConfig};

/// Iterations trained in each phase of the event stream.
const ITERS_PER_PHASE: f64 = 20.0;

const SITUATIONS: [PaperSituation; 7] = [
    PaperSituation::Normal,
    PaperSituation::S1,
    PaperSituation::S2,
    PaperSituation::S3,
    PaperSituation::S4,
    PaperSituation::S5,
    PaperSituation::S6,
];

/// One backend's result for one phase of the stream.
struct PhaseResult {
    situation: String,
    step_time: f64,
    transition: f64,
    stall: f64,
}

/// One backend's full replay (or the typed error that ended it).
struct ArenaRun {
    backend: BackendId,
    phases: Vec<PhaseResult>,
    error: Option<String>,
}

impl ArenaRun {
    fn total_time(&self) -> Option<f64> {
        if self.error.is_some() {
            return None;
        }
        Some(
            self.phases
                .iter()
                .map(|p| p.step_time * ITERS_PER_PHASE + p.transition + p.stall)
                .sum(),
        )
    }

    fn total_stall(&self) -> f64 {
        self.phases.iter().map(|p| p.stall).sum()
    }

    fn total_transition(&self) -> f64 {
        self.phases.iter().map(|p| p.transition).sum()
    }

    fn goodput(&self) -> Option<f64> {
        let total = self.total_time()?;
        (total > 0.0).then(|| self.phases.len() as f64 * ITERS_PER_PHASE / total)
    }
}

/// Every registered backend, instantiated for one (coefficients, config) pair:
/// Malleus first, then the five baselines.
fn arena_backends(
    coeffs: &ProfiledCoefficients,
    config: &PlannerConfig,
) -> Vec<Box<dyn PlanBackend>> {
    let mut backends: Vec<Box<dyn PlanBackend>> =
        vec![Box::new(Planner::new(coeffs.clone(), config.clone()))];
    for (_, ctor) in baseline_constructors(8) {
        backends.push(ctor(coeffs, config));
    }
    backends
}

/// Replay the event stream through one backend.  A typed planning error ends
/// the replay (that backend forfeits the workload — e.g. a baseline that
/// cannot fit the model at all).
fn replay(
    backend: &dyn PlanBackend,
    stream: &[(String, ClusterSnapshot)],
    config: &PlannerConfig,
) -> ArenaRun {
    let mut phases = Vec::with_capacity(stream.len());
    let mut previous = None;
    for (name, snapshot) in stream {
        let step = match &previous {
            None => match backend.plan(snapshot, config) {
                Ok(outcome) => {
                    phases.push(PhaseResult {
                        situation: name.clone(),
                        step_time: outcome.estimated_step_time,
                        transition: outcome.transition_cost,
                        stall: 0.0,
                    });
                    previous = Some(outcome);
                    continue;
                }
                Err(e) => Err(e),
            },
            Some(prev) => {
                let prev_step = prev.estimated_step_time;
                replan_overlapped_backend(backend, snapshot, prev, prev_step).map(|replan| {
                    phases.push(PhaseResult {
                        situation: name.clone(),
                        step_time: replan.outcome.estimated_step_time,
                        transition: replan.outcome.transition_cost,
                        stall: replan.stall_time,
                    });
                    previous = Some(replan.outcome);
                })
            }
        };
        if let Err(e) = step {
            return ArenaRun {
                backend: backend.id(),
                phases,
                error: Some(e.to_string()),
            };
        }
    }
    ArenaRun {
        backend: backend.id(),
        phases,
        error: None,
    }
}

fn fmt_gap(gap: f64) -> String {
    if gap.is_nan() {
        "n/a".to_string()
    } else {
        format!("{:.1}%", gap * 100.0)
    }
}

/// Replay one paper workload across all backends; returns the JSON record.
fn run_workload(workload: &PaperWorkload) -> JsonValue {
    println!(
        "\n=== {} ({} GPUs) ===",
        workload.label,
        workload.num_gpus()
    );
    let coeffs = workload.coeffs();
    let config = PlannerConfig {
        global_batch_size: workload.global_batch_size,
        ..PlannerConfig::default()
    };
    let stream: Vec<(String, ClusterSnapshot)> = SITUATIONS
        .iter()
        .map(|s| (format!("{s:?}"), workload.snapshot_for(*s)))
        .collect();

    let backends = arena_backends(&coeffs, &config);
    let runs: Vec<ArenaRun> = backends
        .iter()
        .map(|b| replay(b.as_ref(), &stream, &config))
        .collect();

    // The yardstick: Malleus's healthy step time stretched by the theoretic
    // optimal ratio of each situation (§2.3) — the best any system could do.
    let malleus_healthy = runs[0]
        .phases
        .first()
        .map(|p| p.step_time)
        .unwrap_or(f64::NAN);
    let optimal_total: f64 = stream
        .iter()
        .map(|(_, snapshot)| theoretic_optimal_time(malleus_healthy, snapshot) * ITERS_PER_PHASE)
        .sum();

    let mut header = vec!["situation".to_string()];
    header.extend(runs.iter().map(|r| r.backend.name().to_string()));
    let mut per_phase = Table::new(header);
    for (i, (name, _)) in stream.iter().enumerate() {
        let mut row = vec![name.clone()];
        for run in &runs {
            row.push(match run.phases.get(i) {
                Some(p) => format!("{:.2}", p.step_time),
                None => "n/a".to_string(),
            });
        }
        per_phase.row(row);
    }
    per_phase.print();

    let mut aggregate = Table::new([
        "backend",
        "total (s)",
        "goodput (steps/s)",
        "stall (s)",
        "transitions (s)",
        "gap vs optimum",
    ]);
    for run in &runs {
        let cells = match run.total_time() {
            Some(total) => [
                run.backend.name().to_string(),
                format!("{total:.1}"),
                format!("{:.4}", run.goodput().unwrap_or(f64::NAN)),
                format!("{:.1}", run.total_stall()),
                format!("{:.1}", run.total_transition()),
                fmt_gap(gap_from_optimum(total, optimal_total)),
            ],
            None => [
                run.backend.name().to_string(),
                "n/a".to_string(),
                "n/a".to_string(),
                "n/a".to_string(),
                "n/a".to_string(),
                run.error.clone().unwrap_or_default(),
            ],
        };
        aggregate.row(cells);
    }
    println!();
    aggregate.print();

    // Self-assertion: Malleus must not lose to any baseline on aggregate
    // goodput over the identical event stream.
    let malleus_total = runs[0]
        .total_time()
        .expect("Malleus must survive the full event stream");
    for run in &runs[1..] {
        if let Some(total) = run.total_time() {
            assert!(
                malleus_total <= total * 1.0001,
                "{}: Malleus total {malleus_total:.1}s must beat {} total {total:.1}s",
                workload.label,
                run.backend.name()
            );
        }
    }
    println!(
        "\nSELF-CHECK OK: Malleus aggregate {malleus_total:.1}s beats every baseline on {}",
        workload.label
    );

    JsonValue::obj(vec![
        ("label", JsonValue::str(workload.label)),
        ("num_gpus", JsonValue::Num(workload.num_gpus() as f64)),
        ("optimal_total", JsonValue::Num(optimal_total)),
        (
            "backends",
            JsonValue::Arr(
                runs.iter()
                    .map(|run| {
                        JsonValue::obj(vec![
                            ("backend", JsonValue::str(run.backend.name())),
                            (
                                "phases",
                                JsonValue::Arr(
                                    run.phases
                                        .iter()
                                        .map(|p| {
                                            JsonValue::obj(vec![
                                                ("situation", JsonValue::str(&*p.situation)),
                                                ("step_time", JsonValue::Num(p.step_time)),
                                                ("transition", JsonValue::Num(p.transition)),
                                                ("stall", JsonValue::Num(p.stall)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "total",
                                run.total_time()
                                    .map(JsonValue::Num)
                                    .unwrap_or(JsonValue::Null),
                            ),
                            (
                                "goodput",
                                run.goodput().map(JsonValue::Num).unwrap_or(JsonValue::Null),
                            ),
                            (
                                "gap",
                                run.total_time()
                                    .map(|t| JsonValue::Num(gap_from_optimum(t, optimal_total)))
                                    .unwrap_or(JsonValue::Null),
                            ),
                            (
                                "error",
                                run.error
                                    .as_deref()
                                    .map(JsonValue::str)
                                    .unwrap_or(JsonValue::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Every backend planned once against each large-scale synthetic scenario
/// (single-snapshot comparison; full mode only — 110B planning at 512 GPUs is
/// minutes of work).
fn run_scenario_matrix() -> JsonValue {
    println!("\n=== Scenario matrix (110B, synthetic large scale) ===");
    let mut records = Vec::new();
    for scenario in &ScenarioMatrix::large_scale().scenarios {
        println!("\n--- {} ---", scenario.label);
        let coeffs = ProfiledCoefficients::derive(
            scenario.spec.clone(),
            malleus_model::HardwareParams::a800_cluster(),
        );
        let config = scenario.planner_config();
        let degraded = scenario.snapshot();
        let healthy = malleus_cluster::Cluster::homogeneous(scenario.num_nodes, 8).snapshot();

        let backends = arena_backends(&coeffs, &config);
        let malleus_healthy = backends[0]
            .plan(&healthy, &config)
            .expect("Malleus healthy plan")
            .estimated_step_time;
        let optimum = theoretic_optimal_time(malleus_healthy, &degraded);

        let mut table = Table::new(["backend", "step time (s)", "gap vs optimum"]);
        let mut rows = Vec::new();
        for backend in &backends {
            let (cell, gap, step) = match backend.plan(&degraded, &config) {
                Ok(outcome) => {
                    let gap = gap_from_optimum(outcome.estimated_step_time, optimum);
                    (
                        format!("{:.2}", outcome.estimated_step_time),
                        gap,
                        Some(outcome.estimated_step_time),
                    )
                }
                Err(e) => (format!("n/a ({e})"), f64::NAN, None),
            };
            table.row([backend.id().name().to_string(), cell, fmt_gap(gap)]);
            rows.push(JsonValue::obj(vec![
                ("backend", JsonValue::str(backend.id().name())),
                (
                    "step_time",
                    step.map(JsonValue::Num).unwrap_or(JsonValue::Null),
                ),
                ("gap", JsonValue::Num(gap)),
            ]));
        }
        table.print();
        records.push(JsonValue::obj(vec![
            ("label", JsonValue::str(scenario.label)),
            ("optimum", JsonValue::Num(optimum)),
            ("backends", JsonValue::Arr(rows)),
        ]));
    }
    JsonValue::Arr(records)
}

/// The service route must be invisible: `plan_backend` through a shared
/// [`PlanService`] byte-identical to driving the backend instance directly.
fn check_service_route() {
    println!("\n=== Service route (plan_backend) byte-identity ===");
    let workload = &paper_workloads()[0]; // 32B
    let coeffs = workload.coeffs();
    let config = PlannerConfig {
        global_batch_size: workload.global_batch_size,
        ..PlannerConfig::default()
    };
    let service = PlanService::new(ServiceConfig::default());
    for (id, ctor) in baseline_constructors(8) {
        service.register_backend(id, ctor);
    }
    let snapshot = workload.snapshot_for(PaperSituation::S3);
    let request = PlanRequest::new(coeffs.clone(), snapshot.clone(), config.clone());
    for backend in arena_backends(&coeffs, &config) {
        let direct = backend.plan(&snapshot, &config);
        let routed = service.plan_backend(backend.id(), &request);
        match (direct, routed) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, *b, "{}: outcomes diverge", backend.id());
                // Second request: must be served from the cache.
                let again = service
                    .plan_backend(backend.id(), &request)
                    .expect("cached");
                assert_eq!(again, b);
            }
            (Err(a), Err(b)) => assert_eq!(
                format!("planning failed: {a}"),
                b.to_string(),
                "{}: errors diverge",
                backend.id()
            ),
            (a, b) => panic!(
                "{}: direct {:?} vs routed {:?} disagree on success",
                backend.id(),
                a.map(|o| o.estimated_step_time),
                b.map(|o| o.estimated_step_time)
            ),
        }
    }
    let metrics = service.metrics();
    let mut table = Table::new(["backend", "requests", "hits", "planner invocations"]);
    for m in &metrics.per_backend {
        table.row([
            m.backend.name().to_string(),
            m.requests.to_string(),
            m.hits.to_string(),
            m.planner_invocations.to_string(),
        ]);
    }
    table.print();
    println!(
        "SELF-CHECK OK: service route byte-identical for all {} backends",
        metrics.per_backend.len()
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "Experiment: online backend arena over the S1-S6 event stream{}",
        if smoke { " (smoke: 32B only)" } else { "" }
    );

    let workloads = paper_workloads();
    let selected: Vec<&PaperWorkload> = if smoke {
        workloads.iter().take(1).collect()
    } else {
        workloads.iter().collect()
    };

    let mut workload_records = Vec::new();
    for workload in selected {
        workload_records.push(run_workload(workload));
    }

    check_service_route();

    let matrix = if smoke {
        JsonValue::Arr(Vec::new())
    } else {
        run_scenario_matrix()
    };

    let artifact = JsonValue::obj(vec![
        ("experiment", JsonValue::str("backend_arena")),
        ("smoke", JsonValue::Bool(smoke)),
        ("iters_per_phase", JsonValue::Num(ITERS_PER_PHASE)),
        ("workloads", JsonValue::Arr(workload_records)),
        ("scenario_matrix", matrix),
    ]);
    match write_json("BENCH_arena.json", &artifact) {
        Ok(()) => println!("\nWrote BENCH_arena.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_arena.json: {e}"),
    }
}

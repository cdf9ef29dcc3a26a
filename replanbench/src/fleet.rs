//! daemon-fleet: an in-process `PlanServer` on TCP loopback whose L2 set-up
//! warms with one cycle of the paper's situations.  Two tenant `PlanClient`s,
//! on two connections driven from one load thread, cycle the same situations
//! through `replan_overlapped_shared`.  Per situation each tenant sends one
//! socket request (its L1 entry for the previous situation was
//! drift-evicted, so this is an L1 miss that hits L2) and then three L1 hits.
//! No planner runs in the timed window: p50 measures the client's L1 path
//! and p90 the wire, socket and L2 path.

use crate::report::{Layers, Measured, Report, Window};
use crate::setup::repeat_setup;
use crate::speed::Speed;
use crate::stats::Histogram;
use crate::testbed::{decision_bytes, paper_trace, Goodput, Testbed};
use crate::trace::Tracer;
use crate::trainer::phase_layers;
use malleus_cluster::ClusterSnapshot;
use malleus_core::{BackendId, ParallelizationPlan, PlanTiming, PlannedOutcome, PlannerConfig};
use malleus_model::ProfiledCoefficients;
use malleus_runtime::{replan_overlapped_shared, Executor};
use malleus_service::server::PlanResponse;
use malleus_service::{
    ClientConfig, KeyedRequest, L1Stats, PlanClient, PlanRequest, PlanServer, PlanService,
    ServerConfig, ServiceConfig, ServiceMetrics,
};
use malleus_wire::{from_bytes, to_bytes};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests each tenant sends per situation: one L1 miss, then L1 hits.
const REQUESTS_PER_SITUATION: u64 = 4;
const TENANTS: usize = 2;

struct Tenant {
    client: PlanClient,
    current: ParallelizationPlan,
    step_time: f64,
    /// The first outcome served for each situation of the cycle.
    served: Vec<Option<PlannedOutcome>>,
}

struct State {
    service: Arc<PlanService>,
    // Dropped after the tenants: shutting down joins the accept thread.
    tenants: Vec<Tenant>,
    _server: PlanServer,
    coeffs: ProfiledCoefficients,
    config: PlannerConfig,
    snapshots: Vec<ClusterSnapshot>,
    /// The plan the cycle starts from; every request pins its DP degree.
    initial: ParallelizationPlan,
    /// Planner phase timings of the cold plans that warmed L2.
    cold: Vec<PlanTiming>,
}

fn setup(testbed: &Testbed, speed: &mut Speed) -> Result<State, String> {
    let planner = testbed.planner();
    let (coeffs, config) = (planner.cost.coeffs, planner.config);
    // One plan at a time on one worker: the planner is pinned to Fixed(1).
    let service = Arc::new(PlanService::new(ServiceConfig {
        max_concurrent_plans: 1,
        worker_budget: 1,
        ..ServiceConfig::default()
    }));
    let server = PlanServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind plan server: {e}"))?;
    let snapshots: Vec<_> = paper_trace().iter().map(|s| testbed.snapshot(*s)).collect();
    let initial = service
        .plan(&PlanRequest::new(
            coeffs.clone(),
            snapshots[0].clone(),
            config.clone(),
        ))
        .map_err(|e| format!("initial plan: {e}"))?
        .plan
        .clone();
    speed.tick();
    let mut cold = Vec::new();
    for snapshot in &snapshots {
        let warmed = replan_overlapped_shared(
            &*service,
            BackendId::Malleus,
            &coeffs,
            &config,
            snapshot,
            &initial,
            0.0,
        )
        .map_err(|e| format!("warm L2: {e}"))?;
        speed.tick();
        cold.extend(warmed.outcome.malleus.map(|o| o.timing));
    }
    let addr = server.tcp_addr().expect("the server listens on TCP");
    let tenants = (0..TENANTS)
        .map(|_| {
            let client = PlanClient::connect_tcp(addr, ClientConfig::default())
                .map_err(|e| format!("connect: {e}"))?;
            Ok(Tenant {
                client,
                current: initial.clone(),
                step_time: 0.0,
                served: vec![None; snapshots.len()],
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(State {
        service,
        tenants,
        _server: server,
        coeffs,
        config,
        snapshots,
        initial,
        cold,
    })
}

/// L1 totals over every tenant.
fn l1_totals(tenants: &[Tenant]) -> L1Stats {
    let mut total = L1Stats::default();
    for t in tenants {
        let s = t.client.l1_stats();
        total.requests += s.requests;
        total.hits += s.hits;
        total.drift_evicted += s.drift_evicted;
    }
    total
}

/// What the shadow codec calls saw: encoded sizes and decode errors.
#[derive(Default)]
struct Codec {
    request_bytes: Histogram,
    response_bytes: Histogram,
    errors: u64,
}

/// Spans and sizes of the shadow codec calls on one miss's request and
/// response, made outside the op.
fn shadow_codec(
    request: PlanRequest,
    outcome: &PlannedOutcome,
    tracer: &mut Tracer,
    op: u64,
    codec: &mut Codec,
) {
    let keyed = KeyedRequest {
        backend: BackendId::Malleus,
        backend_fingerprint: 0,
        request,
    };
    let bytes = tracer.span("wire.encode_request", op, None, || to_bytes(&keyed));
    let request_ok = tracer
        .span("wire.decode_request", op, None, || {
            from_bytes::<KeyedRequest>(&bytes)
        })
        .is_ok_and(|decoded| decoded == keyed);
    codec.request_bytes.record(bytes.len() as u64);
    let response = PlanResponse::Outcome(outcome.clone());
    let bytes = tracer.span("wire.encode_response", op, None, || to_bytes(&response));
    let response_ok = tracer
        .span("wire.decode_response", op, None, || {
            from_bytes::<PlanResponse>(&bytes)
        })
        .is_ok_and(|decoded| to_bytes(&decoded) == bytes);
    codec.response_bytes.record(bytes.len() as u64);
    codec.errors += u64::from(!request_ok) + u64::from(!response_ok);
}

/// One timed window of whole cycles of situation blocks, at least one.  It
/// ends after the last situation, so that the next window's first block is
/// Normal again and its first request per tenant an L1 miss.
fn window(state: &mut State, limit: Duration, tracer: &mut Tracer, codec: &mut Codec) -> Measured {
    let n = state.snapshots.len();
    let mut window = Window::start();
    let mut op = 0;
    let mut block = 0;
    while block < n || block % n != 0 || (window.elapsed() < limit && !tracer.full()) {
        let situation = block % n;
        let snapshot = &state.snapshots[situation];
        for t in 0..state.tenants.len() {
            for _ in 0..REQUESTS_PER_SITUATION {
                let tenant = &state.tenants[t];
                let before = tracer.enabled().then(|| tenant.client.l1_stats());
                let span = tracer.open("service.request", op, None);
                let t0 = Instant::now();
                let result = replan_overlapped_shared(
                    &tenant.client,
                    BackendId::Malleus,
                    &state.coeffs,
                    &state.config,
                    snapshot,
                    &tenant.current,
                    tenant.step_time,
                );
                let ns = t0.elapsed().as_nanos() as u64;
                tracer.close(span);
                let Ok(replan) = result else {
                    window.fail();
                    op += 1;
                    continue;
                };
                window.record(ns);
                if let Some(before) = before {
                    let hit = tenant.client.l1_stats().hits > before.hits;
                    tracer.rename(
                        span,
                        if hit {
                            "service.l1_hit"
                        } else {
                            "service.l1_miss"
                        },
                    );
                    if !hit {
                        let mut pinned = state.config.clone();
                        pinned.fixed_dp = Some(tenant.current.dp());
                        let request =
                            PlanRequest::new(state.coeffs.clone(), snapshot.clone(), pinned);
                        shadow_codec(request, &replan.outcome, tracer, op, codec);
                    }
                }
                let tenant = &mut state.tenants[t];
                if tenant.served[situation].is_none() {
                    tenant.served[situation] = Some(replan.outcome.clone());
                }
                if replan.plan_changed {
                    if let Some(plan) = replan.outcome.plan {
                        tenant.current = plan;
                        tenant.step_time = replan.outcome.estimated_step_time;
                    }
                }
                op += 1;
            }
        }
        block += 1;
    }
    window.finish()
}

/// The daemon's and the clients' counters at one instant; a window's
/// numbers are the difference of two readings.
struct Counters {
    l1: L1Stats,
    service: ServiceMetrics,
}

fn counters(state: &State) -> Counters {
    Counters {
        l1: l1_totals(&state.tenants),
        service: state.service.metrics(),
    }
}

/// The self-check of one window: no planner ran, and exactly 3 of every 4
/// requests hit L1.
fn on_path(start: &Counters, end: &Counters, window: &str) -> Result<(), String> {
    let invocations = end.service.planner_invocations - start.service.planner_invocations;
    let requests = end.l1.requests - start.l1.requests;
    let hits = end.l1.hits - start.l1.hits;
    if invocations != 0 {
        Err(format!("{invocations} planner runs in the {window} window"))
    } else if hits * REQUESTS_PER_SITUATION != requests * (REQUESTS_PER_SITUATION - 1) {
        Err(format!(
            "L1 hit share {hits}/{requests} in the {window} window is not 3/4"
        ))
    } else {
        Ok(())
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

pub fn run(_seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let testbed = Testbed::new();
    let (setup, mut state) = repeat_setup(|speed| setup(&testbed, speed))?;
    let limit = Duration::from_secs(seconds);
    let mut codec = Codec::default();

    let start = counters(&state);
    let measured = window(&mut state, limit, &mut Tracer::new(false), &mut codec);
    let end = counters(&state);
    let mut path_check = on_path(&start, &end, "timed");

    let mut layers = Layers::new(1.0);
    let traced = trace.then(|| {
        let mut tracer = Tracer::new(true);
        let start = counters(&state);
        let traced = window(&mut state, limit, &mut tracer, &mut codec);
        let end = counters(&state);
        layers = Layers::new(traced.scale);
        let l1_requests = end.l1.requests - start.l1.requests;
        let l1_hits = end.l1.hits - start.l1.hits;
        let l2_requests = end.service.requests - start.service.requests;
        let l2_hits = end.service.hits - start.service.hits;
        let invocations = end.service.planner_invocations - start.service.planner_invocations;
        if path_check.is_ok() {
            path_check = on_path(&start, &end, "traced");
        }
        let hit = tracer.durations("service.l1_hit");
        let miss = tracer.durations("service.l1_miss");
        layers.time("service.l1_hit_us", &hit, 1e3);
        layers.time("service.l1_miss_us", &miss, 1e3);
        layers.put(
            "service.l1_hit_ratio",
            ratio(l1_hits, l1_requests),
            l1_requests,
        );
        let evicted = end.l1.drift_evicted - start.l1.drift_evicted;
        layers.put("service.l1_drift_evicted", evicted as f64, evicted);
        layers.put(
            "service.l2_hit_ratio",
            ratio(l2_hits, l2_requests),
            l2_requests,
        );
        layers.put(
            "service.planner_invocations",
            invocations as f64,
            l2_requests,
        );
        // The daemon's own p50 service time, over its last 4096 requests:
        // all L2 hits of this window.
        let server_us = end.service.p50_service_time * 1e6 * traced.scale;
        layers.put("service.server_us", server_us, l2_requests.min(4096));
        layers.median("wire.request_bytes", &codec.request_bytes, 1.0);
        layers.median("wire.response_bytes", &codec.response_bytes, 1.0);
        let mut codec_us = 0.0;
        for (name, span) in [
            ("wire.encode_request_us", "wire.encode_request"),
            ("wire.decode_request_us", "wire.decode_request"),
            ("wire.encode_response_us", "wire.encode_response"),
            ("wire.decode_response_us", "wire.decode_response"),
        ] {
            let ns = tracer.durations(span);
            codec_us += ns.percentile(0.5).unwrap_or(0.0) * traced.scale / 1e3;
            layers.time(name, &ns, 1e3);
        }
        let miss_us = miss.percentile(0.5).unwrap_or(0.0) * traced.scale / 1e3;
        layers.put(
            "socket.residual_us",
            miss_us - codec_us - server_us,
            miss.len(),
        );
        (traced, tracer)
    });

    // Output checks, outside the timed windows: every situation's socket
    // answer against the in-process service and against the serial oracle.
    // A shadow decode that failed or came back different is a failed check.
    let (mut checks, mut failed_checks) = (codec.request_bytes.len() * 2, codec.errors);
    let mut goodput = Goodput::default();
    let mut step = Histogram::default();
    let mut gb = 0.0;
    let n = state.snapshots.len();
    let mut executor = Executor::new(state.coeffs.clone());
    let last = state.tenants[0].served[n - 1]
        .as_ref()
        .and_then(|o| o.plan.clone());
    executor.instantiate(last.unwrap_or_else(|| state.initial.clone()));
    for (i, snapshot) in state.snapshots.iter().enumerate() {
        let mut pinned = state.config.clone();
        pinned.fixed_dp = Some(state.initial.dp());
        let request = PlanRequest::new(state.coeffs.clone(), snapshot.clone(), pinned);
        let local = state
            .service
            .plan_backend(BackendId::Malleus, &request)
            .map(|o| to_bytes(&*o));
        for tenant in &state.tenants {
            let served = tenant.served[i].as_ref().map(to_bytes);
            checks += 1;
            if local.is_err() || served.is_none() || served != local.clone().ok() {
                failed_checks += 1;
            }
        }
        let served = state.tenants[0].served[i].as_ref();
        let oracle = testbed.oracle().replan(snapshot, &state.initial);
        let agrees = match (served.and_then(|o| o.malleus.as_deref()), oracle) {
            (Some(served), Ok(oracle)) => decision_bytes(served) == decision_bytes(&oracle),
            _ => false,
        };
        checks += 1;
        failed_checks += u64::from(!agrees);
        if let Some(plan) = served.and_then(|o| o.plan.clone()) {
            let migration = executor.migrate_to(plan, snapshot);
            match executor.train_step(snapshot) {
                Ok(report) => {
                    goodput.add(
                        state.config.global_batch_size,
                        report.step_time,
                        migration.time,
                    );
                    step.record((report.step_time * 1e9) as u64);
                    gb += migration.total_bytes / 1e9;
                }
                Err(_) => failed_checks += 1,
            }
        }
    }
    if trace {
        phase_layers(&mut layers, &state.cold, setup.scale);
        // Simulated seconds: no host time, so never scaled.
        layers.median("sim.step_time_s", &step, 1e9);
        layers.put("sim.migration_gb", gb / n as f64, n as u64);
    }
    Ok(Report {
        setup,
        measured,
        traced,
        checks,
        failed_checks,
        path_check,
        goodput: goodput.samples_per_s(),
        layers,
    })
}

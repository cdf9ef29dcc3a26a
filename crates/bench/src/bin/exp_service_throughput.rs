//! Service-throughput experiment: closed-loop load over the planning service.
//!
//! Simulates many elastic training sessions asking for plans against
//! *overlapping* cluster snapshots: `CLIENTS` concurrent closed-loop clients
//! each issue `REQUESTS_PER_CLIENT` requests over a small set of distinct
//! snapshots derived from a `ScenarioMatrix` cluster.  For each client count
//! the harness reports plans/sec, cache hit rate, coalesced count and p50/p99
//! latencies, and compares against the serial-planner baseline (direct
//! `Planner::plan`, one tenant, no cache).
//!
//! With `--socket` the same closed loop additionally runs against a
//! standalone plan daemon (`PlanServer` on an ephemeral TCP port): every
//! tenant holds its own `PlanClient` whose per-tenant L1 cache sits in front
//! of the daemon's shared L2, and the local and socket paths are reported
//! side by side — L1 hit rate, L2 hit rate, and client-observed latencies.
//! Each socket tenant is pinned to one snapshot variant (its "live cluster"),
//! matching how real sessions use the daemon; a final heavy-drift request per
//! tenant exercises the drift-based L1 invalidation.
//!
//! ```bash
//! cargo run --release -p malleus-bench --bin exp_service_throughput                       # full: 1/4/16/64 clients, 128-GPU 110B scenario
//! cargo run --release -p malleus-bench --bin exp_service_throughput -- --smoke            # CI: 16-GPU 7B cluster, 1/4 clients
//! cargo run --release -p malleus-bench --bin exp_service_throughput -- --smoke --socket   # CI: + daemon path, writes BENCH_service.json
//! ```
//!
//! The harness asserts its own acceptance criteria (service throughput at
//! every client count ≥ the serial baseline on both paths; hit rate > 0 on
//! repeated snapshots; byte-identical plans straight from the planner, the
//! in-process service, and over the socket), so CI can run it in smoke mode
//! as a regression gate.  Results land in `BENCH_service.json`.

use malleus_bench::report::{write_json, JsonValue};
use malleus_bench::{ScenarioMatrix, Table};
use malleus_cluster::{Cluster, ClusterSnapshot, GpuId, StragglerLevel};
use malleus_core::{Planner, PlannerConfig};
use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};
use malleus_service::{
    ClientConfig, PlanClient, PlanRequest, PlanServer, PlanService, ServerConfig, ServiceConfig,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One workload: distinct planning problems the clients cycle over.
struct Workload {
    label: String,
    requests: Vec<PlanRequest>,
}

impl Workload {
    /// Derive `variants` distinct snapshots from a base cluster by straggling
    /// one additional healthy GPU per variant (deterministic).
    fn from_cluster(
        label: &str,
        cluster: &Cluster,
        coeffs: ProfiledCoefficients,
        config: PlannerConfig,
        variants: usize,
    ) -> Self {
        let base = cluster.snapshot();
        let healthy: Vec<GpuId> = (0..base.num_gpus() as u32)
            .map(GpuId)
            .filter(|&g| base.rate(g) == 1.0)
            .collect();
        let mut snapshots: Vec<ClusterSnapshot> = vec![base.clone()];
        for v in 1..variants {
            let gpu = healthy[(v * 7) % healthy.len()];
            snapshots.push(base.with_rate(gpu, StragglerLevel::Level2.rate()));
        }
        Self {
            label: label.to_string(),
            requests: snapshots
                .into_iter()
                .map(|s| PlanRequest::new(coeffs.clone(), s, config.clone()))
                .collect(),
        }
    }
}

/// Serial baseline: one tenant, direct `Planner::plan`, no cache — the floor
/// the service must beat even at a single client.  The baseline planner runs
/// at the *same per-plan worker width* the service grants its invocations,
/// so the comparison (and the acceptance assert) measures what the service
/// adds — caching and coalescing — rather than a thread-count mismatch that
/// would flip with the host's core count.
fn serial_baseline(workload: &Workload) -> (f64, Vec<malleus_core::PlanOutcome>) {
    let per_plan = ServiceConfig::default().per_plan_parallelism();
    let t0 = Instant::now();
    let outcomes: Vec<_> = workload
        .requests
        .iter()
        .map(|r| {
            Planner::new(r.coeffs.clone(), r.config.clone())
                .with_parallelism(per_plan)
                .plan(&r.snapshot)
                .expect("serial baseline plan")
        })
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    (workload.requests.len() as f64 / secs.max(1e-9), outcomes)
}

/// Nearest-rank percentile over unsorted client-observed latencies (seconds).
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Closed-loop run over the in-process service: `clients` threads each issue
/// `per_client` requests round-robin over the workload (offset by client
/// index so the first wave hits distinct keys and later waves coalesce/hit).
/// Returns (plans/sec, client-observed per-request latencies).
fn run_closed_loop(
    service: &Arc<PlanService>,
    workload: &Workload,
    clients: usize,
    per_client: usize,
) -> (f64, Vec<f64>) {
    let latencies = Mutex::new(Vec::with_capacity(clients * per_client));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = Arc::clone(service);
            let requests = &workload.requests;
            let latencies = &latencies;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let request = &requests[(client + i) % requests.len()];
                    let r0 = Instant::now();
                    service.plan(request).expect("service plan");
                    mine.push(r0.elapsed().as_secs_f64());
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let rate = (clients * per_client) as f64 / secs.max(1e-9);
    (rate, latencies.into_inner().unwrap())
}

/// Aggregated L1 counters across all socket tenants of one run.
#[derive(Debug, Default, Clone, Copy)]
struct L1Aggregate {
    requests: u64,
    hits: u64,
    drift_evicted: u64,
}

impl L1Aggregate {
    fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Closed-loop run over the socket: every tenant dials its own `PlanClient`
/// and is pinned to one snapshot variant (its live cluster) — repeated
/// requests are L1 hits, distinct tenants on the same variant share the
/// daemon's L2.  A final >5%-drift request per tenant exercises the L1
/// drift invalidation.
fn run_closed_loop_socket(
    addr: std::net::SocketAddr,
    workload: &Workload,
    clients: usize,
    per_client: usize,
) -> (f64, Vec<f64>, L1Aggregate) {
    let latencies = Mutex::new(Vec::with_capacity(clients * per_client));
    let aggregate = Mutex::new(L1Aggregate::default());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let requests = &workload.requests;
            let latencies = &latencies;
            let aggregate = &aggregate;
            scope.spawn(move || {
                let tenant =
                    PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect tenant");
                let request = &requests[client % requests.len()];
                let mut mine = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let r0 = Instant::now();
                    tenant.plan(request).expect("socket plan");
                    mine.push(r0.elapsed().as_secs_f64());
                }
                // The tenant's cluster drifts 20% past the threshold: the L1
                // entry for the stale snapshot must be invalidated.
                let drifted = PlanRequest::new(
                    request.coeffs.clone(),
                    request.snapshot.with_rate(GpuId(0), 1.2),
                    request.config.clone(),
                );
                tenant.plan(&drifted).expect("drifted socket plan");
                latencies.lock().unwrap().extend(mine);
                let stats = tenant.l1_stats();
                let mut agg = aggregate.lock().unwrap();
                agg.requests += stats.requests;
                agg.hits += stats.hits;
                agg.drift_evicted += stats.drift_evicted;
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    // The drift request is measured work too, but the headline rate counts
    // the pinned-loop requests only (comparable with the local path).
    let rate = (clients * per_client) as f64 / secs.max(1e-9);
    (
        rate,
        latencies.into_inner().unwrap(),
        aggregate.into_inner().unwrap(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let socket = args.iter().any(|a| a == "--socket");
    let (workload, client_counts, per_client) = if smoke {
        // CI smoke: a 16-GPU 7B cluster with one straggler, 4 clients max.
        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(5), StragglerLevel::Level1.rate());
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster());
        let config = PlannerConfig {
            global_batch_size: 16,
            ..PlannerConfig::default()
        };
        let workload = Workload::from_cluster("16-GPU 7B (smoke)", &cluster, coeffs, config, 2);
        (workload, vec![1usize, 4], 4usize)
    } else {
        // Full: the 128-GPU 110B synthetic scenario from the scenario matrix.
        let scenario = ScenarioMatrix::large_scale()
            .get("128-GPU")
            .cloned()
            .expect("128-GPU scenario");
        let coeffs =
            ProfiledCoefficients::derive(scenario.spec.clone(), HardwareParams::a800_cluster());
        let workload = Workload::from_cluster(
            "128-GPU 110B (scenario matrix)",
            &scenario.cluster(),
            coeffs,
            scenario.planner_config(),
            3,
        );
        (workload, vec![1usize, 4, 16, 64], 8usize)
    };

    println!("Experiment: multi-tenant planning-service throughput");
    println!(
        "workload: {} | {} distinct planning problems | {} requests/client | socket path: {}\n",
        workload.label,
        workload.requests.len(),
        per_client,
        if socket { "on" } else { "off" }
    );

    let (serial_rate, serial_outcomes) = serial_baseline(&workload);
    println!(
        "serial-planner baseline: {serial_rate:.2} plans/sec (direct Planner::plan, no cache, \
         matched per-plan worker width)\n"
    );

    let mut table = Table::new([
        "path",
        "clients",
        "plans/sec",
        "vs serial",
        "L1 hit",
        "L2 hit",
        "coalesced",
        "planner runs",
        "p50 (ms)",
        "p99 (ms)",
    ]);
    let mut local_rows = Vec::new();
    let mut socket_rows = Vec::new();
    for &clients in &client_counts {
        // --- Local (in-process) path: no L1, the service's cache IS the L2.
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let (rate, mut latencies) = run_closed_loop(&service, &workload, clients, per_client);
        let metrics = service.metrics();
        let (p50, p99) = (
            percentile(&mut latencies, 0.50),
            percentile(&mut latencies, 0.99),
        );

        // Acceptance: cached/coalesced service throughput must dominate the
        // serial baseline, repeated snapshots must hit the cache, and the
        // service must return byte-identical plans.
        assert!(
            rate >= serial_rate,
            "{clients} clients: {rate:.2} plans/sec below serial baseline {serial_rate:.2}"
        );
        assert!(
            metrics.hit_rate() > 0.0,
            "{clients} clients: no cache hits on repeated snapshots"
        );
        for (request, expected) in workload.requests.iter().zip(&serial_outcomes) {
            let served = service.plan(request).expect("verification plan");
            assert_eq!(*served, *expected, "service plan diverges");
        }

        table.row([
            "local".to_string(),
            clients.to_string(),
            format!("{rate:.2}"),
            format!("{:.1}x", rate / serial_rate.max(1e-9)),
            "-".to_string(),
            format!("{:.0}%", metrics.hit_rate() * 100.0),
            metrics.coalesced.to_string(),
            metrics.planner_invocations.to_string(),
            format!("{:.1}", p50 * 1e3),
            format!("{:.1}", p99 * 1e3),
        ]);
        local_rows.push(JsonValue::obj(vec![
            ("clients", JsonValue::Num(clients as f64)),
            ("plans_per_sec", JsonValue::Num(rate)),
            ("l2_hit_rate", JsonValue::Num(metrics.hit_rate())),
            ("coalesced", JsonValue::Num(metrics.coalesced as f64)),
            (
                "planner_runs",
                JsonValue::Num(metrics.planner_invocations as f64),
            ),
            ("p50_ms", JsonValue::Num(p50 * 1e3)),
            ("p99_ms", JsonValue::Num(p99 * 1e3)),
        ]));

        if !socket {
            continue;
        }

        // --- Socket path: a standalone daemon on an ephemeral port; every
        // tenant holds its own PlanClient (per-tenant L1 over shared L2).
        let daemon_service = Arc::new(PlanService::new(ServiceConfig::default()));
        let server = PlanServer::bind_tcp(
            Arc::clone(&daemon_service),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind daemon");
        let addr = server.tcp_addr().expect("tcp endpoint");
        let (socket_rate, mut socket_latencies, l1) =
            run_closed_loop_socket(addr, &workload, clients, per_client);
        let daemon_metrics = daemon_service.metrics();
        let (socket_p50, socket_p99) = (
            percentile(&mut socket_latencies, 0.50),
            percentile(&mut socket_latencies, 0.99),
        );

        // Acceptance on the socket path: the daemon must still beat the
        // serial baseline (L1 absorbs the repeats entirely), the L1 must
        // actually hit, drift invalidation must have fired, and plans over
        // the wire must be byte-identical to the direct planner.
        assert!(
            socket_rate >= serial_rate,
            "{clients} socket clients: {socket_rate:.2} plans/sec below serial \
             baseline {serial_rate:.2}"
        );
        assert!(
            l1.hit_rate() > 0.0,
            "{clients} socket clients: no L1 hits on a pinned snapshot"
        );
        assert!(
            l1.drift_evicted >= clients as u64,
            "each tenant's drifted cluster must invalidate its stale L1 entry"
        );
        let verifier =
            PlanClient::connect_tcp(addr, ClientConfig::default()).expect("verifier client");
        for (request, expected) in workload.requests.iter().zip(&serial_outcomes) {
            let served = verifier.plan(request).expect("socket verification plan");
            assert_eq!(*served, *expected, "socket plan diverges");
        }

        table.row([
            "socket".to_string(),
            clients.to_string(),
            format!("{socket_rate:.2}"),
            format!("{:.1}x", socket_rate / serial_rate.max(1e-9)),
            format!("{:.0}%", l1.hit_rate() * 100.0),
            format!("{:.0}%", daemon_metrics.hit_rate() * 100.0),
            daemon_metrics.coalesced.to_string(),
            daemon_metrics.planner_invocations.to_string(),
            format!("{:.1}", socket_p50 * 1e3),
            format!("{:.1}", socket_p99 * 1e3),
        ]);
        socket_rows.push(JsonValue::obj(vec![
            ("clients", JsonValue::Num(clients as f64)),
            ("plans_per_sec", JsonValue::Num(socket_rate)),
            ("l1_hit_rate", JsonValue::Num(l1.hit_rate())),
            ("l1_drift_evicted", JsonValue::Num(l1.drift_evicted as f64)),
            ("l2_hit_rate", JsonValue::Num(daemon_metrics.hit_rate())),
            (
                "planner_runs",
                JsonValue::Num(daemon_metrics.planner_invocations as f64),
            ),
            ("p50_ms", JsonValue::Num(socket_p50 * 1e3)),
            ("p99_ms", JsonValue::Num(socket_p99 * 1e3)),
        ]));
    }
    table.print();
    println!(
        "\n(Each client count uses a fresh service/daemon; 'planner runs' counts actual \
         Planner::plan invocations — everything else was served from a cache tier or coalesced \
         onto an in-flight computation. 'L1 hit' is the tenant-side client cache (socket path \
         only), 'L2 hit' the shared service cache. Plans are byte-identical to the direct \
         planner on both paths; verified above.)"
    );

    let artifact = JsonValue::obj(vec![
        ("experiment", JsonValue::str("service_throughput")),
        ("workload", JsonValue::str(workload.label.clone())),
        ("smoke", JsonValue::Bool(smoke)),
        ("socket", JsonValue::Bool(socket)),
        ("requests_per_client", JsonValue::Num(per_client as f64)),
        ("serial_plans_per_sec", JsonValue::Num(serial_rate)),
        ("local", JsonValue::Arr(local_rows)),
        ("socket_path", JsonValue::Arr(socket_rows)),
    ]);
    write_json("BENCH_service.json", &artifact).expect("write BENCH_service.json");
    println!("wrote BENCH_service.json");
    println!("service throughput acceptance checks passed");
}

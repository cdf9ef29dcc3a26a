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
//! cargo run --release -p malleus-bench --bin exp_service_throughput -- --smoke            # 16-GPU 7B cluster, 1/4 clients
//! cargo run --release -p malleus-bench --bin exp_service_throughput -- --smoke --socket   # CI: + daemon path, writes BENCH_service.json
//! ```
//!
//! The harness asserts its own acceptance criteria (service throughput at
//! every client count ≥ the serial baseline on both paths; hit rate > 0 on
//! repeated snapshots; the exact planner-run, hit and coalescing counts the
//! workload implies; byte-identical plans straight from the planner, the
//! in-process service, and over the socket), so CI can run it in smoke mode
//! as a regression gate.  Serial and service runs alternate for `REPS`
//! repetitions per client count, each service run on a fresh service, and the
//! throughput verdict compares the best run of each side, so one noisy run
//! cannot flip it.  Results land in `BENCH_service.json`.

use malleus_bench::report::{write_json, JsonValue};
use malleus_bench::{ScenarioMatrix, Table};
use malleus_cluster::{Cluster, ClusterSnapshot, GpuId, StragglerLevel};
use malleus_core::{Planner, PlannerConfig};
use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};
use malleus_service::{
    ClientConfig, L1Stats, PlanClient, PlanRequest, PlanServer, PlanService, ServerConfig,
    ServiceConfig, ServiceMetrics,
};
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions per side and client count.
const REPS: usize = 5;

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
/// the service must beat even at a single client.  Every plan runs on one
/// thread, in the baseline as in each service invocation, so the comparison
/// (and the acceptance assert) measures what the service adds: caching and
/// coalescing.
fn serial_baseline(workload: &Workload) -> (f64, Vec<malleus_core::PlanOutcome>) {
    let t0 = Instant::now();
    let outcomes: Vec<_> = workload
        .requests
        .iter()
        .map(|r| {
            Planner::new(r.coeffs.clone(), r.config.clone())
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
fn run_closed_loop(
    service: &Arc<PlanService>,
    workload: &Workload,
    clients: usize,
    per_client: usize,
) -> Run {
    let t0 = Instant::now();
    let latencies: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let tenants: Vec<_> = (0..clients)
            .map(|client| {
                let requests = &workload.requests;
                scope.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            let request = &requests[(client + i) % requests.len()];
                            let r0 = Instant::now();
                            service.plan(request).expect("service plan");
                            r0.elapsed().as_secs_f64()
                        })
                        .collect()
                })
            })
            .collect();
        tenants
            .into_iter()
            .map(|t| t.join().expect("tenant thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    Run::new(secs, clients * per_client, latencies.concat())
}

/// One timed closed-loop run: plans/sec and client-observed latencies.
struct Run {
    rate: f64,
    latencies: Vec<f64>,
}

impl Run {
    fn new(secs: f64, requests: usize, latencies: Vec<f64>) -> Self {
        let rate = requests as f64 / secs.max(1e-9);
        Self { rate, latencies }
    }
}

/// Closed-loop run over the socket: every tenant dials its own `PlanClient`
/// and is pinned to one snapshot variant (its live cluster) — repeated
/// requests are L1 hits, distinct tenants on the same variant share the
/// daemon's L2.  After the timed window each tenant sends one >5%-drift
/// request, which exercises the L1 drift invalidation; the rate counts the
/// pinned-loop requests only, so it is comparable with the local path.
/// Returns the run and the L1 counters summed over the tenants.
fn run_closed_loop_socket(
    addr: std::net::SocketAddr,
    workload: &Workload,
    clients: usize,
    per_client: usize,
) -> (Run, L1Stats) {
    let t0 = Instant::now();
    let tenants: Vec<(PlanClient, Vec<f64>)> = std::thread::scope(|scope| {
        let tenants: Vec<_> = (0..clients)
            .map(|client| {
                let request = &workload.requests[client % workload.requests.len()];
                scope.spawn(move || {
                    let tenant = PlanClient::connect_tcp(addr, ClientConfig::default())
                        .expect("connect tenant");
                    let latencies = (0..per_client)
                        .map(|_| {
                            let r0 = Instant::now();
                            tenant.plan(request).expect("socket plan");
                            r0.elapsed().as_secs_f64()
                        })
                        .collect();
                    (tenant, latencies)
                })
            })
            .collect();
        tenants
            .into_iter()
            .map(|t| t.join().expect("tenant thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::with_capacity(clients * per_client);
    let mut l1 = L1Stats::default();
    for (client, (tenant, mine)) in tenants.iter().enumerate() {
        latencies.extend(mine);
        // The tenant's cluster drifts 20% past the threshold: the L1 entry
        // for the stale snapshot must be invalidated.
        let request = &workload.requests[client % workload.requests.len()];
        let drifted = PlanRequest::new(
            request.coeffs.clone(),
            request.snapshot.with_rate(GpuId(0), 1.2),
            request.config.clone(),
        );
        tenant.plan(&drifted).expect("drifted socket plan");
        let stats = tenant.l1_stats();
        l1.requests += stats.requests;
        l1.hits += stats.hits;
        l1.drift_evicted += stats.drift_evicted;
    }
    (Run::new(secs, clients * per_client, latencies), l1)
}

/// Exact cache accounting of one fresh service: one planner run per distinct
/// problem, every other request a cache hit or coalesced onto an in-flight
/// run.
fn assert_counts(path: &str, metrics: &ServiceMetrics, requests: usize, distinct: usize) {
    let (requests, distinct) = (requests as u64, distinct as u64);
    assert_eq!(metrics.requests, requests, "{path}: requests");
    assert_eq!(
        metrics.planner_invocations, distinct,
        "{path}: one planner run per distinct problem"
    );
    assert_eq!(
        metrics.hits + metrics.coalesced,
        requests - distinct,
        "{path}: every repeated problem is a hit or coalesced"
    );
}

/// Assert that a path's best run beats the best serial run, then add its
/// table row and JSON record (`l1` only on the socket path).
fn report(
    table: &mut Table,
    rows: &mut Vec<JsonValue>,
    (path, clients, serial_rate): (&str, usize, f64),
    (mut run, metrics): (Run, ServiceMetrics),
    l1: Option<L1Stats>,
) {
    assert!(
        run.rate >= serial_rate,
        "{clients} {path} clients: {:.2} plans/sec below serial baseline {serial_rate:.2}",
        run.rate
    );
    let p50 = percentile(&mut run.latencies, 0.50) * 1e3;
    let p99 = percentile(&mut run.latencies, 0.99) * 1e3;
    table.row([
        path.to_string(),
        clients.to_string(),
        format!("{:.2}", run.rate),
        format!("{serial_rate:.2}"),
        format!("{:.1}x", run.rate / serial_rate.max(1e-9)),
        l1.map_or("-".to_string(), |l1| {
            format!("{:.0}%", l1.hit_rate() * 100.0)
        }),
        format!("{:.0}%", metrics.hit_rate() * 100.0),
        metrics.coalesced.to_string(),
        metrics.planner_invocations.to_string(),
        format!("{p50:.1}"),
        format!("{p99:.1}"),
    ]);
    let mut fields = vec![
        ("clients", JsonValue::Num(clients as f64)),
        ("plans_per_sec", JsonValue::Num(run.rate)),
        ("serial_plans_per_sec", JsonValue::Num(serial_rate)),
        ("l2_hit_rate", JsonValue::Num(metrics.hit_rate())),
        ("coalesced", JsonValue::Num(metrics.coalesced as f64)),
        (
            "planner_runs",
            JsonValue::Num(metrics.planner_invocations as f64),
        ),
        ("p50_ms", JsonValue::Num(p50)),
        ("p99_ms", JsonValue::Num(p99)),
    ];
    if let Some(l1) = l1 {
        fields.push(("l1_hit_rate", JsonValue::Num(l1.hit_rate())));
        fields.push(("l1_drift_evicted", JsonValue::Num(l1.drift_evicted as f64)));
    }
    rows.push(JsonValue::obj(fields));
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

    let mut table = Table::new([
        "path",
        "clients",
        "plans/sec",
        "serial/sec",
        "vs serial",
        "L1 hit",
        "L2 hit",
        "coalesced",
        "planner runs",
        "p50 (ms)",
        "p99 (ms)",
    ]);
    let distinct = workload.requests.len();
    let mut local_rows = Vec::new();
    let mut socket_rows = Vec::new();
    for &clients in &client_counts {
        let requests = clients * per_client;
        let mut serial_rate = 0.0_f64;
        let mut local: Option<(Run, ServiceMetrics)> = None;
        let mut remote: Option<((Run, ServiceMetrics), L1Stats)> = None;
        for _ in 0..REPS {
            let (rate, serial_outcomes) = serial_baseline(&workload);
            serial_rate = serial_rate.max(rate);

            // --- Local (in-process) path: no L1, the service's cache IS the L2.
            let service = Arc::new(PlanService::new(ServiceConfig::default()));
            let run = run_closed_loop(&service, &workload, clients, per_client);
            let metrics = service.metrics();
            // Repeated snapshots must hit the cache, and the service must
            // return byte-identical plans.
            assert_counts(&format!("{clients} clients"), &metrics, requests, distinct);
            assert!(
                metrics.hit_rate() > 0.0,
                "{clients} clients: no cache hits on repeated snapshots"
            );
            for (request, expected) in workload.requests.iter().zip(&serial_outcomes) {
                let served = service.plan(request).expect("verification plan");
                assert_eq!(*served, *expected, "service plan diverges");
            }
            if local.as_ref().is_none_or(|(best, _)| run.rate > best.rate) {
                local = Some((run, metrics));
            }

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
            let (run, l1) = run_closed_loop_socket(addr, &workload, clients, per_client);
            let daemon_metrics = daemon_service.metrics();

            // The L1 must actually hit (each tenant misses once on its pinned
            // snapshot, then hits), drift invalidation must fire once per
            // tenant, and the daemon sees each tenant's first pinned and
            // drifted request: one planner run per distinct pinned variant
            // and one per its drifted twin.  Plans over the wire must be
            // byte-identical to the direct planner.
            assert_eq!(
                (l1.requests, l1.hits),
                ((requests + clients) as u64, (requests - clients) as u64),
                "{clients} socket clients: L1 requests and hits"
            );
            assert!(
                l1.hit_rate() > 0.0,
                "{clients} socket clients: no L1 hits on a pinned snapshot"
            );
            assert_eq!(
                l1.drift_evicted, clients as u64,
                "each tenant's drifted cluster must invalidate its stale L1 entry"
            );
            assert_counts(
                &format!("{clients} socket clients"),
                &daemon_metrics,
                2 * clients,
                2 * clients.min(distinct),
            );
            let verifier =
                PlanClient::connect_tcp(addr, ClientConfig::default()).expect("verifier client");
            for (request, expected) in workload.requests.iter().zip(&serial_outcomes) {
                let served = verifier.plan(request).expect("socket verification plan");
                assert_eq!(*served, *expected, "socket plan diverges");
            }
            if remote
                .as_ref()
                .is_none_or(|((best, _), _)| run.rate > best.rate)
            {
                remote = Some(((run, daemon_metrics), l1));
            }
        }

        // Acceptance: the best cached/coalesced service run must beat the
        // best serial run on both paths (on the socket, L1 absorbs the
        // repeats entirely).
        let local = local.expect("REPS > 0");
        report(
            &mut table,
            &mut local_rows,
            ("local", clients, serial_rate),
            local,
            None,
        );
        if let Some((remote, l1)) = remote {
            report(
                &mut table,
                &mut socket_rows,
                ("socket", clients, serial_rate),
                remote,
                Some(l1),
            );
        }
    }
    table.print();
    println!(
        "\n(Each row is the fastest of {REPS} runs, each on a fresh service/daemon, alternating \
         with {REPS} serial-baseline runs whose fastest is 'serial/sec' (direct Planner::plan, no \
         cache). 'planner runs' counts actual Planner::plan \
         invocations — everything else was served from a cache tier or coalesced onto an \
         in-flight computation. 'L1 hit' is the tenant-side client cache (socket path only), \
         'L2 hit' the shared service cache; socket counts include each tenant's drift request, \
         sent after the timed window. Plans are byte-identical to the direct planner on both \
         paths; verified above.)"
    );

    let artifact = JsonValue::obj(vec![
        ("experiment", JsonValue::str("service_throughput")),
        ("workload", JsonValue::str(workload.label.clone())),
        ("smoke", JsonValue::Bool(smoke)),
        ("socket", JsonValue::Bool(socket)),
        ("requests_per_client", JsonValue::Num(per_client as f64)),
        ("reps", JsonValue::Num(REPS as f64)),
        ("local", JsonValue::Arr(local_rows)),
        ("socket_path", JsonValue::Arr(socket_rows)),
    ]);
    write_json("BENCH_service.json", &artifact).expect("write BENCH_service.json");
    println!("wrote BENCH_service.json");
    println!("service throughput acceptance checks passed");
}

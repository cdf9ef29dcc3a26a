//! Remote-equivalence harness for the standalone plan server.
//!
//! The daemon must be invisible in the output: a plan served over the socket
//! — encoded with `malleus_wire`, routed through the daemon's admission gate,
//! coalescer and shared L2 cache, decoded back in the client — must be
//! **byte-identical** to the direct serial `Planner::plan` oracle: same
//! `ParallelizationPlan`, same chosen TP/DP, bit-equal `f64` cost estimates.
//! The suite drives one shared TCP daemon across every paper straggler
//! situation S1–S6, replays chained replans through the `PlanTransport`
//! route, and exercises the client-side L1 tier (hits, TTL bookkeeping,
//! drift-based invalidation) plus the Unix-socket transport.

mod common;

use malleus::prelude::*;
use std::sync::{Arc, OnceLock};

const SITUATIONS: [PaperSituation; 6] = [
    PaperSituation::S1,
    PaperSituation::S2,
    PaperSituation::S3,
    PaperSituation::S4,
    PaperSituation::S5,
    PaperSituation::S6,
];

/// Binary-scoped daemon on an ephemeral TCP port (never dropped: the statics
/// outlive every test, so the accept loop serves the whole binary).
fn daemon() -> &'static (Arc<PlanService>, PlanServer) {
    static CACHE: OnceLock<(Arc<PlanService>, PlanServer)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let server =
            PlanServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
                .expect("bind plan daemon");
        (service, server)
    })
}

/// A fresh client (own connection, own L1) against the shared daemon.
fn fresh_client() -> PlanClient {
    let addr = daemon().1.tcp_addr().expect("tcp endpoint");
    PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect plan client")
}

fn request_for(spec: &ModelSpec, nodes: u32, situation: PaperSituation) -> PlanRequest {
    PlanRequest::new(
        common::coeffs_for(spec).clone(),
        common::snapshot_for(nodes, situation),
        common::planner_for(spec, 64).config,
    )
}

#[test]
fn socket_plans_match_the_serial_oracle_across_all_situations() {
    let spec = ModelSpec::llama2_32b();
    let client = fresh_client();
    for situation in SITUATIONS {
        let oracle = common::oracle_planned(&spec, 64, 4, situation);
        let served = client
            .plan(&request_for(&spec, 4, situation))
            .unwrap_or_else(|e| panic!("socket plan under {situation:?}: {e}"));
        assert_eq!(served, oracle, "under {situation:?}");
    }
}

#[test]
fn chained_replans_over_the_socket_match_the_direct_path() {
    // Replay Normal → S2 → S3 → Normal through `replan_overlapped_shared`
    // driving the remote client as a `PlanTransport`, against the direct
    // serial replanner threading the same previous plans.
    let spec = ModelSpec::llama2_32b();
    let client = fresh_client();
    let oracle = common::planner_for(&spec, 64).with_parallelism(Parallelism::Fixed(1));
    let config = common::planner_for(&spec, 64).config;
    let mut previous = common::oracle_planned(&spec, 64, 4, PaperSituation::Normal)
        .plan
        .clone();
    for situation in [
        PaperSituation::S2,
        PaperSituation::S3,
        PaperSituation::Normal,
    ] {
        let snapshot = common::snapshot_for(4, situation);
        let direct = oracle
            .replan(&snapshot, &previous)
            .unwrap_or_else(|e| panic!("direct replan under {situation:?}: {e}"));
        let remote = replan_overlapped_shared(
            &client,
            BackendId::Malleus,
            common::coeffs_for(&spec),
            &config,
            &snapshot,
            &previous,
            12.0,
        )
        .unwrap_or_else(|e| panic!("remote replan under {situation:?}: {e}"));
        assert_eq!(remote.plan_changed, direct.plan != previous);
        assert_eq!(
            remote.outcome,
            PlannedOutcome::from_malleus(direct.clone()),
            "under {situation:?}"
        );
        previous = direct.plan;
    }
}

#[test]
fn l1_absorbs_repeats_and_drift_invalidates() {
    let spec = ModelSpec::llama2_32b();
    let client = fresh_client();
    let request = request_for(&spec, 4, PaperSituation::S4);

    let first = client.plan(&request).expect("miss goes to the daemon");
    let second = client.plan(&request).expect("repeat");
    assert_eq!(first.plan, second.plan);
    let stats = client.l1_stats();
    assert_eq!(stats.misses, 1, "first call misses L1: {stats:?}");
    assert_eq!(stats.hits, 1, "repeat is served from L1: {stats:?}");
    assert_eq!(stats.resident, 1);

    // The live cluster drifts 2% on a GPU that is healthy under S4 (GPU 0 is
    // the S4 level-3 straggler): below the 5% replan threshold, the cached
    // entry stays valid.
    let mild = PlanRequest::new(
        request.coeffs.clone(),
        request.snapshot.with_rate(GpuId(1), 1.02),
        request.config.clone(),
    );
    client.plan(&mild).expect("mild-drift plan");
    assert_eq!(client.l1_stats().drift_evicted, 0);

    // The live cluster drifts 20%: every entry cached for the stale rates
    // must be invalidated before lookup.
    let heavy = PlanRequest::new(
        request.coeffs.clone(),
        request.snapshot.with_rate(GpuId(1), 1.2),
        request.config.clone(),
    );
    client.plan(&heavy).expect("heavy-drift plan");
    let stats = client.l1_stats();
    assert!(
        stats.drift_evicted >= 2,
        "stale entries survive a >5% drift: {stats:?}"
    );
    assert_eq!(stats.resident, 1, "only the live-snapshot plan remains");
}

#[cfg(unix)]
#[test]
fn unix_socket_daemon_matches_the_oracle() {
    let spec = ModelSpec::llama2_32b();
    let service = Arc::new(PlanService::new(ServiceConfig::default()));
    let path = std::env::temp_dir().join(format!(
        "malleus-remote-equivalence-{}.sock",
        std::process::id()
    ));
    let mut server = PlanServer::bind_unix(Arc::clone(&service), &path, ServerConfig::default())
        .expect("bind unix daemon");
    let client = PlanClient::connect_unix(&path, ClientConfig::default()).expect("connect");
    let situation = PaperSituation::S1;
    let oracle = common::oracle_planned(&spec, 64, 4, situation);
    let served = client
        .plan(&request_for(&spec, 4, situation))
        .expect("plan over the unix socket");
    assert_eq!(served, oracle);
    server.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

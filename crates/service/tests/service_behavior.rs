//! Behavioral tests of the planning service: LRU eviction order, coalescing
//! under concurrency (exactly one planner invocation per distinct key), and
//! byte-identical equivalence with a direct `Planner::plan` call.

use malleus_cluster::{Cluster, GpuId};
use malleus_core::{Planner, PlannerConfig};
use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};
use malleus_service::{PlanRequest, PlanService, ServiceConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn coeffs_7b() -> ProfiledCoefficients {
    ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster())
}

/// A distinct small request per variant index (variant 0 = healthy cluster;
/// variant k > 0 straggles GPU k%8 at a distinct rate).
fn request_variant(variant: usize) -> PlanRequest {
    let mut cluster = Cluster::homogeneous(1, 8);
    if variant > 0 {
        cluster.set_rate(GpuId((variant % 8) as u32), 1.5 + variant as f64 * 0.25);
    }
    PlanRequest::new(
        coeffs_7b(),
        cluster.snapshot(),
        PlannerConfig {
            global_batch_size: 8,
            ..PlannerConfig::default()
        },
    )
}

#[test]
fn lru_evicts_least_recently_used_entry() {
    // One shard of capacity 2 so the eviction order is fully observable.
    let service = PlanService::new(ServiceConfig {
        shards: 1,
        capacity_per_shard: 2,
        ..ServiceConfig::default()
    });
    let (a, b, c) = (request_variant(1), request_variant(2), request_variant(3));
    service.plan(&a).unwrap();
    service.plan(&b).unwrap();
    assert_eq!(service.metrics().planner_invocations, 2);
    // Touch A so B becomes the LRU entry, then insert C (evicts B).
    service.plan(&a).unwrap();
    service.plan(&c).unwrap();
    assert_eq!(service.metrics().evictions, 1);
    assert_eq!(service.cached_plans(), 2);
    // A survived the eviction (it was touched), B did not.
    service.plan(&a).unwrap();
    assert_eq!(service.metrics().planner_invocations, 3, "A must still hit");
    service.plan(&b).unwrap();
    assert_eq!(service.metrics().planner_invocations, 4, "B must re-plan");
}

#[test]
fn service_result_is_byte_identical_to_direct_planner() {
    let service = PlanService::new(ServiceConfig::default());
    for variant in [0, 1, 5] {
        let request = request_variant(variant);
        let direct = Planner::new(request.coeffs.clone(), request.config.clone())
            .plan(&request.snapshot)
            .expect("direct plan");
        let miss = service.plan(&request).expect("service plan (miss)");
        let hit = service.plan(&request).expect("service plan (hit)");
        for outcome in [&miss, &hit] {
            assert_eq!(**outcome, direct, "variant {variant}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Spawn N clients issuing an identical request plus M clients issuing
    /// distinct ones, all concurrently: the planner must run exactly once per
    /// distinct key (coalescing + caching), and the ledger must balance.
    #[test]
    fn concurrent_identical_requests_plan_exactly_once(
        identical in 2usize..6,
        distinct in 0usize..3,
    ) {
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        std::thread::scope(|scope| {
            for _ in 0..identical {
                let service = Arc::clone(&service);
                scope.spawn(move || service.plan(&request_variant(0)).expect("identical"));
            }
            for v in 0..distinct {
                let service = Arc::clone(&service);
                scope.spawn(move || service.plan(&request_variant(v + 1)).expect("distinct"));
            }
        });
        let m = service.metrics();
        prop_assert_eq!(m.requests, (identical + distinct) as u64);
        prop_assert_eq!(m.planner_invocations, 1 + distinct as u64);
        prop_assert_eq!(m.hits + m.misses + m.coalesced, m.requests);
        prop_assert_eq!(m.rejected, 0);
        prop_assert_eq!(service.cached_plans(), 1 + distinct);
        prop_assert_eq!(service.inflight_plans(), 0);
        // A later identical request is a pure cache hit: no new invocation.
        service.plan(&request_variant(0)).expect("cached");
        prop_assert_eq!(service.metrics().planner_invocations, 1 + distinct as u64);
    }
}

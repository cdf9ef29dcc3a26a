//! Shared fixtures for the facade integration suites.
//!
//! `ProfiledCoefficients::derive` results are memoized in `OnceLock` statics
//! so each test binary derives them once instead of once per test, and the
//! frequently repeated 70B/110B planning calls — the test-time hotspot
//! flagged in ROADMAP.md — are routed through a binary-scoped [`PlanService`]
//! ([`planned`]): every (snapshot, coefficients, config) planning problem is
//! solved once per binary and shared, with concurrent tests coalescing onto
//! one in-flight computation.  Service-returned plans are byte-identical to
//! direct `Planner::plan` calls (proven by `tests/plan_equivalence.rs`), so
//! fixtures never change what a test observes.

#![allow(dead_code)]

use malleus::prelude::*;
use std::sync::{Arc, OnceLock};

fn derive(spec: ModelSpec) -> ProfiledCoefficients {
    ProfiledCoefficients::derive(spec, HardwareParams::a800_cluster())
}

/// Profiled coefficients for the 7B model (lazily derived once per binary).
pub fn coeffs_7b() -> &'static ProfiledCoefficients {
    static CACHE: OnceLock<ProfiledCoefficients> = OnceLock::new();
    CACHE.get_or_init(|| derive(ModelSpec::llama2_7b()))
}

/// Profiled coefficients for the paper's 32B workload.
pub fn coeffs_32b() -> &'static ProfiledCoefficients {
    static CACHE: OnceLock<ProfiledCoefficients> = OnceLock::new();
    CACHE.get_or_init(|| derive(ModelSpec::llama2_32b()))
}

/// Profiled coefficients for the paper's 70B workload.
pub fn coeffs_70b() -> &'static ProfiledCoefficients {
    static CACHE: OnceLock<ProfiledCoefficients> = OnceLock::new();
    CACHE.get_or_init(|| derive(ModelSpec::llama2_70b()))
}

/// Profiled coefficients for the paper's 110B workload.
pub fn coeffs_110b() -> &'static ProfiledCoefficients {
    static CACHE: OnceLock<ProfiledCoefficients> = OnceLock::new();
    CACHE.get_or_init(|| derive(ModelSpec::llama2_110b()))
}

/// Coefficients for one of the paper presets, by spec.
pub fn coeffs_for(spec: &ModelSpec) -> &'static ProfiledCoefficients {
    match spec.name.as_str() {
        "llama2-7b" => coeffs_7b(),
        "llama2-32b" => coeffs_32b(),
        "llama2-70b" => coeffs_70b(),
        "llama2-110b" => coeffs_110b(),
        other => panic!("no shared fixture for spec {other}"),
    }
}

/// A planner over the shared coefficients with the default configuration and
/// the given global batch.
pub fn planner_for(spec: &ModelSpec, batch: u64) -> Planner {
    Planner::new(
        coeffs_for(spec).clone(),
        PlannerConfig {
            global_batch_size: batch,
            ..PlannerConfig::default()
        },
    )
}

/// Snapshot of an `nodes`×8 cluster under one of the paper's situations.
pub fn snapshot_for(nodes: u32, situation: PaperSituation) -> ClusterSnapshot {
    let mut cluster = Cluster::homogeneous(nodes, 8);
    let s = situation.situation(&cluster);
    cluster.apply_situation(&s.rates);
    cluster.snapshot()
}

/// Binary-scoped planning service: plan-level memoization shared by every
/// test in the binary (plus coalescing when tests run concurrently).
pub fn plan_service() -> &'static Arc<PlanService> {
    static CACHE: OnceLock<Arc<PlanService>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(PlanService::new(ServiceConfig::default())))
}

/// Plan one of the paper's workloads under a situation, memoized per binary
/// through the shared [`plan_service`].  Byte-identical to a direct
/// `Planner::plan` call with the [`planner_for`] configuration.
pub fn planned(
    spec: &ModelSpec,
    batch: u64,
    nodes: u32,
    situation: PaperSituation,
) -> Arc<PlanOutcome> {
    let request = PlanRequest::new(
        coeffs_for(spec).clone(),
        snapshot_for(nodes, situation),
        PlannerConfig {
            global_batch_size: batch,
            ..PlannerConfig::default()
        },
    );
    plan_service().plan(&request).unwrap_or_else(|e| {
        panic!(
            "shared plan fixture for {} under {situation:?}: {e}",
            spec.name
        )
    })
}

/// The healthy-cluster 32B plan (4×8 GPUs, batch 64), planned once per binary.
pub fn healthy_plan_32b() -> Arc<PlanOutcome> {
    planned(&ModelSpec::llama2_32b(), 64, 4, PaperSituation::Normal)
}

//! `malleus-service` — a concurrent, multi-tenant planning service.
//!
//! The paper invokes the planner once per straggler/failure event of a single
//! training job.  At production scale many elastic training sessions ask for
//! plans against *overlapping* cluster snapshots at once — N tenants replanning
//! after the same cluster event should pay for one planner invocation, not N.
//! [`PlanService`] is an in-process, thread-based front end over
//! `malleus_core::Planner` that amortizes identical work across tenants:
//!
//! * **Backend registry**: the service serves any registered
//!   [`malleus_core::PlanBackend`] — the Malleus planner is registered at
//!   construction, and baseline backends (Megatron-LM, DeepSpeed, Oobleck,
//!   restart) can be added with [`PlanService::register_backend`] so one
//!   deployment caches and coalesces plans for all five systems
//!   ([`PlanService::plan_backend`]).  Metrics are broken out per backend.
//! * **Sharded LRU plan cache** ([`cache`]) keyed by
//!   ([`ClusterSnapshot::fingerprint`], coefficients fingerprint, config
//!   fingerprint, [`malleus_core::BackendId`], backend config fingerprint)
//!   with full-equality confirmation on every hit — the same collision
//!   discipline as `malleus_core::GroupingCache`.
//! * **Request coalescing** ([`coalesce`]): concurrent identical requests
//!   block on one in-flight computation (singleflight) instead of re-planning.
//! * **Bounded admission** ([`admission`]): at most `max_concurrent_plans`
//!   planner invocations run at once, each fanning its candidate lattice over
//!   `worker_budget / max_concurrent_plans` threads via
//!   `malleus_core::parallel` — total planner threads stay capped however many
//!   tenants call in, and a bounded wait queue sheds load
//!   ([`ServiceError::Overloaded`]) past the backpressure knob.
//! * **[`ServiceMetrics`]**: hit/coalesce/eviction counters, queue depth, and
//!   p50/p99 service times.
//!
//! Because the planner's candidate-lattice reduction is deterministic in the
//! worker count (see `malleus_core::parallel`), the service's parallelism
//! override changes only wall-clock, never the plan: cached, coalesced and
//! freshly computed results are all byte-identical to a direct
//! `Planner::plan` call — `tests/parallel_equivalence.rs` in the facade crate
//! proves it against the serial oracle.

mod admission;
mod cache;
mod coalesce;
mod metrics;
pub mod server;

pub use metrics::{BackendMetrics, ServiceMetrics};
pub use server::{ClientConfig, Endpoint, L1Stats, PlanClient, PlanServer, ServerConfig};

use admission::AdmissionGate;
use cache::ShardedPlanCache;
use coalesce::{InFlightTable, Publication, Role};
use malleus_cluster::{ClusterSnapshot, Fnv1a};
use malleus_core::{
    lock_rank, BackendConstructor, BackendId, GroupingCache, Parallelism, PlanBackend, PlanError,
    PlanOutcome, PlannedOutcome, Planner, PlannerConfig, RankedMutex,
};
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tenant's planning request: the profiled coefficients (model spec +
/// hardware), the observed cluster snapshot, and the planner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Profiled coefficients (identify the model spec and hardware platform).
    pub coeffs: ProfiledCoefficients,
    /// The cluster snapshot to plan against.
    pub snapshot: ClusterSnapshot,
    /// Planner configuration.  The `parallelism` knob is *execution policy*,
    /// not plan identity — the planner's output is bit-identical across worker
    /// counts — so it is excluded from both the cache key and request
    /// equality, and the service substitutes its own per-plan thread budget.
    pub config: PlannerConfig,
}

impl PlanRequest {
    /// Build a request.
    pub fn new(
        coeffs: ProfiledCoefficients,
        snapshot: ClusterSnapshot,
        config: PlannerConfig,
    ) -> Self {
        Self {
            coeffs,
            snapshot,
            config,
        }
    }

    /// The 64-bit cache/coalescing key: FNV-1a over the snapshot fingerprint,
    /// the coefficients fingerprint and the (parallelism-less) config
    /// fingerprint.  Collisions are possible; every consumer confirms with
    /// [`PlanRequest::matches`].
    pub fn key(&self) -> u64 {
        Fnv1a::new()
            .u64(self.snapshot.fingerprint())
            .u64(coeffs_fingerprint(&self.coeffs))
            .u64(config_fingerprint(&self.config))
            .finish()
    }

    /// Full-equality confirmation for fingerprint hits: same coefficients,
    /// same snapshot, same configuration modulo the parallelism knob.
    pub fn matches(&self, other: &PlanRequest) -> bool {
        self.coeffs == other.coeffs
            && self.snapshot == other.snapshot
            && config_equivalent(&self.config, &other.config)
    }
}

/// A [`PlanRequest`] routed to a specific backend: what the cache and the
/// singleflight table actually key on.  The backend's own config fingerprint
/// is included so two instances of the same backend with different knobs
/// (e.g. Oobleck overhead factors) never share a cache line.
///
/// This is also the on-wire request shape of the standalone plan server (see
/// [`server`]): a remote client sends a `KeyedRequest` with
/// `backend_fingerprint = 0` — the fingerprint is advisory there, since the
/// daemon recomputes it from its own registered constructor before touching
/// the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedRequest {
    /// The backend the request is routed to.
    pub backend: BackendId,
    /// The backend instance's config fingerprint (0 = let the server derive
    /// it).
    pub backend_fingerprint: u64,
    /// The tenant's planning request.
    pub request: PlanRequest,
}

impl KeyedRequest {
    /// The 64-bit cache/coalescing key: the request key mixed with the
    /// backend identity.  Collisions are possible; every consumer confirms
    /// with [`KeyedRequest::matches`].
    pub fn key(&self) -> u64 {
        Fnv1a::new()
            .u64(self.request.key())
            .u64(self.backend.code())
            .u64(self.backend_fingerprint)
            .finish()
    }

    /// Full-equality confirmation for fingerprint hits.
    pub fn matches(&self, other: &KeyedRequest) -> bool {
        self.backend == other.backend
            && self.backend_fingerprint == other.backend_fingerprint
            && self.request.matches(&other.request)
    }
}

/// Configuration equality ignoring execution-policy knobs that cannot change
/// the produced plan: the worker count and the incremental-replanning flag
/// (delta replans are byte-identical to full enumeration by construction).
fn config_equivalent(a: &PlannerConfig, b: &PlannerConfig) -> bool {
    let mut a = a.clone();
    let mut b = b.clone();
    a.parallelism = Parallelism::Fixed(1);
    b.parallelism = Parallelism::Fixed(1);
    a.incremental = true;
    b.incremental = true;
    a == b
}

/// Structural fingerprint of a coefficient bundle (spec + hardware; the
/// memory model is derived from the spec, and equality confirmation covers
/// hand-constructed bundles anyway).
fn coeffs_fingerprint(c: &ProfiledCoefficients) -> u64 {
    let mut f = Fnv1a::new();
    f.bytes(c.spec.name.as_bytes());
    f.u64(c.spec.num_layers as u64);
    f.u64(c.spec.hidden_size);
    f.u64(c.spec.ffn_hidden_size);
    f.u64(c.spec.num_heads);
    f.u64(c.spec.num_kv_heads);
    f.u64(c.spec.vocab_size);
    f.u64(c.spec.seq_len);
    f.f64(c.hardware.gpu_peak_flops);
    f.f64(c.hardware.achievable_flops_fraction);
    f.f64(c.hardware.gpu_memory_bytes);
    f.f64(c.hardware.memory_reserve_bytes);
    f.f64(c.hardware.intra_node_bandwidth);
    f.f64(c.hardware.inter_node_bandwidth);
    f.f64(c.hardware.collective_latency);
    f.f64(c.hardware.checkpoint_bandwidth);
    f.f64(c.hardware.restart_init_seconds);
    f.finish()
}

/// Structural fingerprint of a planner configuration, excluding the
/// parallelism knob (see [`PlanRequest::config`]).
fn config_fingerprint(c: &PlannerConfig) -> u64 {
    let mut f = Fnv1a::new();
    f.u64(c.global_batch_size);
    f.u64(c.candidate_tp_degrees.len() as u64);
    for &tp in &c.candidate_tp_degrees {
        f.u64(tp as u64);
    }
    f.u64(c.candidate_micro_batch_sizes.len() as u64);
    for &b in &c.candidate_micro_batch_sizes {
        f.u64(b);
    }
    match &c.candidate_dp {
        None => {
            f.u64(0);
        }
        Some(dps) => {
            f.u64(1 + dps.len() as u64);
            for &dp in dps {
                f.u64(dp as u64);
            }
        }
    }
    match c.fixed_dp {
        None => {
            f.u64(0);
        }
        Some(dp) => {
            f.u64(1);
            f.u64(dp as u64);
        }
    }
    f.f64(c.straggler_threshold);
    f.u64(
        (c.enable_group_splitting as u64)
            | (c.nonuniform_layers as u64) << 1
            | (c.nonuniform_data as u64) << 2
            | (c.nonuniform_stages as u64) << 3,
    );
    f.finish()
}

/// Sizing and backpressure knobs of a [`PlanService`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Number of independent cache shards (lock granularity).
    pub shards: usize,
    /// LRU capacity of each shard; total cached plans ≤ `shards × capacity`.
    pub capacity_per_shard: usize,
    /// Maximum planner invocations executing at once.
    pub max_concurrent_plans: usize,
    /// Admission/backpressure knob: requests allowed to *wait* for an
    /// execution slot before the service sheds load with
    /// [`ServiceError::Overloaded`].
    pub max_queue_depth: usize,
    /// Total planner-thread budget, split evenly across concurrent
    /// invocations (each runs its candidate fan-out on
    /// `worker_budget / max_concurrent_plans` workers, minimum 1).
    pub worker_budget: usize,
    /// How long a queued request may wait for an execution slot before
    /// failing with [`ServiceError::AdmissionTimeout`].  `None` (the
    /// default) waits indefinitely, preserving the pre-timeout behavior.
    pub queue_wait_timeout: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            shards: 8,
            capacity_per_shard: 32,
            max_concurrent_plans: cores.clamp(1, 4),
            max_queue_depth: 1024,
            worker_budget: cores,
            queue_wait_timeout: None,
        }
    }
}

impl ServiceConfig {
    /// The worker count each admitted planner invocation runs with.
    pub fn per_plan_parallelism(&self) -> Parallelism {
        Parallelism::Fixed((self.worker_budget / self.max_concurrent_plans.max(1)).max(1))
    }
}

/// Errors returned by [`PlanService::plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceError {
    /// The planner itself failed (no feasible plan, no usable GPUs, ...).
    Plan(PlanError),
    /// The admission wait queue is full; the caller should back off and retry.
    Overloaded {
        /// Requests already queued when this one was rejected.
        queue_depth: usize,
        /// The configured `max_queue_depth`.
        limit: usize,
    },
    /// The service itself failed (a planning thread panicked before
    /// publishing).  Deliberately distinct from [`ServiceError::Plan`]:
    /// infeasibility is a normal, recoverable planner answer (e.g. the
    /// replanner's pinned-DP probe), while this is a bug surfacing — callers
    /// must not mask it behind infeasibility fallbacks.
    Internal {
        /// What went wrong.
        reason: String,
    },
    /// No constructor is registered for the requested backend; register one
    /// with `PlanService::register_backend`.
    UnknownBackend {
        /// The backend the request named.
        backend: BackendId,
    },
    /// The request waited in the admission queue past the configured
    /// `queue_wait_timeout` without being granted an execution slot.
    /// Distinct from [`ServiceError::Overloaded`] (the queue was *full* on
    /// arrival): this request was accepted but the planner never freed a
    /// slot in time.
    AdmissionTimeout {
        /// How long the request actually waited.
        waited: Duration,
        /// The configured bound it exceeded.
        timeout: Duration,
    },
    /// The transport between a remote client and the plan server failed
    /// (connection refused/reset, malformed or oversized frame, protocol
    /// version mismatch).  Only produced by the socket path in [`server`].
    Transport {
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Plan(e) => write!(f, "planning failed: {e}"),
            ServiceError::Overloaded { queue_depth, limit } => write!(
                f,
                "planning service overloaded: {queue_depth} requests queued (limit {limit})"
            ),
            ServiceError::Internal { reason } => {
                write!(f, "planning service internal failure: {reason}")
            }
            ServiceError::UnknownBackend { backend } => {
                write!(f, "no planning backend registered for {backend}")
            }
            ServiceError::AdmissionTimeout { waited, timeout } => write!(
                f,
                "request timed out in the admission queue after {waited:?} (limit {timeout:?})"
            ),
            ServiceError::Transport { reason } => {
                write!(f, "plan-server transport failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PlanError> for ServiceError {
    fn from(e: PlanError) -> Self {
        ServiceError::Plan(e)
    }
}

/// Leader-side unwind guard: if the leader panics before publishing, the
/// drop handler publishes [`coalesce::Publication::Aborted`] and retires the
/// slot, so followers wake and *recompute independently* instead of blocking
/// forever or inheriting a synthetic error for a plan that may be perfectly
/// computable (and the key is not wedged for future requests).
/// [`CompleteSlotOnDrop::disarm`] is the normal-path completion.
struct CompleteSlotOnDrop<'a> {
    inflight: &'a InFlightTable,
    key: u64,
    slot: &'a Arc<coalesce::InFlight>,
}

impl CompleteSlotOnDrop<'_> {
    fn disarm(self, result: Result<Arc<PlannedOutcome>, ServiceError>) {
        self.inflight.complete(self.key, self.slot, result);
        std::mem::forget(self);
    }
}

impl Drop for CompleteSlotOnDrop<'_> {
    fn drop(&mut self) {
        self.inflight.abort(self.key, self.slot);
    }
}

/// Constructors for every backend the service can serve, keyed by
/// [`BackendId`].  Constructors (not instances) are stored because a backend
/// instance is specific to one (coefficients, config) pair, while the service
/// is multi-tenant across both.
struct BackendRegistry {
    ctors: RankedMutex<BTreeMap<BackendId, Arc<BackendConstructor>>>,
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<BackendId> = self.ctors.lock().keys().copied().collect();
        f.debug_struct("BackendRegistry")
            .field("ids", &ids)
            .finish()
    }
}

/// The multi-tenant planning service.  Cheap to share: callers typically hold
/// it in an `Arc` and call [`PlanService::plan`] from many threads.
#[derive(Debug)]
pub struct PlanService {
    config: ServiceConfig,
    cache: ShardedPlanCache,
    inflight: InFlightTable,
    admission: AdmissionGate,
    registry: BackendRegistry,
    metrics: metrics::MetricsRecorder,
}

impl PlanService {
    /// Create a service.  The Malleus planner is pre-registered; baseline
    /// backends are opt-in via [`PlanService::register_backend`].
    pub fn new(config: ServiceConfig) -> Self {
        let service = Self {
            cache: ShardedPlanCache::new(config.shards, config.capacity_per_shard),
            inflight: InFlightTable::default(),
            admission: AdmissionGate::new(
                config.max_concurrent_plans,
                config.max_queue_depth,
                config.queue_wait_timeout,
            ),
            registry: BackendRegistry {
                ctors: RankedMutex::new(
                    lock_rank::BACKEND_REGISTRY_CTORS,
                    "BackendRegistry.ctors",
                    BTreeMap::new(),
                ),
            },
            metrics: metrics::MetricsRecorder::default(),
            config,
        };
        // Grouping memo shared across every tenant's planner instance
        // (confirmed per-hit against snapshot and coefficients, so
        // cross-model sharing is safe).
        let grouping = GroupingCache::default();
        service.register_backend(
            BackendId::Malleus,
            Arc::new(move |coeffs, config| {
                Box::new(
                    Planner::new(coeffs.clone(), config.clone())
                        .with_grouping_cache(grouping.clone()),
                )
            }),
        );
        service
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Register (or replace) the constructor serving `id`.  Plans cached under
    /// a previous constructor keep being served as long as the backend config
    /// fingerprint still matches — constructors with different knobs must
    /// fingerprint differently (see
    /// [`malleus_core::PlanBackend::fingerprint_config`]).  A client L1 (see
    /// [`server`]) keys its entries with backend fingerprint 0, so it keeps
    /// serving a replaced constructor's plans for requests it already holds
    /// until they are evicted.
    pub fn register_backend(&self, id: BackendId, ctor: Arc<BackendConstructor>) {
        self.registry.ctors.lock().insert(id, ctor);
    }

    /// The backends currently registered, in [`BackendId`] order.
    pub fn registered_backends(&self) -> Vec<BackendId> {
        self.registry.ctors.lock().keys().copied().collect()
    }

    /// Serve one planning request.
    ///
    /// Fast path: a confirmed cache hit returns the shared [`PlanOutcome`]
    /// without touching the planner.  Otherwise the request either coalesces
    /// onto an identical in-flight computation or becomes the leader: it
    /// acquires an admission permit (blocking in the bounded queue, shedding
    /// load past it), invokes the planner with the service's per-plan thread
    /// budget, stores the result in the cache and wakes every follower.
    ///
    /// The returned plan is byte-identical to what a direct
    /// `Planner::plan(&request.snapshot)` call with `request.config` would
    /// produce — caching and coalescing change who pays for the work, never
    /// the answer.  Planner *errors* are shared with coalesced followers but
    /// never cached, so a transient infeasibility is retried on the next
    /// request.
    pub fn plan(&self, request: &PlanRequest) -> Result<Arc<PlanOutcome>, ServiceError> {
        let planned = self.plan_backend(BackendId::Malleus, request)?;
        planned
            .malleus
            .clone()
            .ok_or_else(|| ServiceError::Internal {
                reason: "Malleus backend produced an outcome without a PlanOutcome".into(),
            })
    }

    /// Serve one planning request through an arbitrary registered backend.
    ///
    /// Same caching/coalescing/admission discipline as [`PlanService::plan`]
    /// (which is this method specialized to [`BackendId::Malleus`]), but the
    /// result is the backend-neutral [`PlannedOutcome`], and the cache key
    /// includes the backend id and its config fingerprint so backends never
    /// share cache lines.  Per-backend counters land in
    /// [`ServiceMetrics::per_backend`].
    pub fn plan_backend(
        &self,
        backend: BackendId,
        request: &PlanRequest,
    ) -> Result<Arc<PlannedOutcome>, ServiceError> {
        let start = Instant::now();
        metrics::MetricsRecorder::bump(&self.metrics.requests);
        metrics::MetricsRecorder::bump(&self.metrics.backend(backend).requests);

        let ctor = self
            .registry
            .ctors
            .lock()
            .get(&backend)
            .cloned()
            .ok_or(ServiceError::UnknownBackend { backend })?;
        let mut exec_config = request.config.clone();
        exec_config.parallelism = self.config.per_plan_parallelism();
        let instance = ctor(&request.coeffs, &exec_config);
        debug_assert_eq!(instance.id(), backend);
        let keyed = KeyedRequest {
            backend,
            backend_fingerprint: instance.fingerprint_config(),
            request: request.clone(),
        };
        let key = keyed.key();

        if let Some(outcome) = self.cache.get(key, &keyed) {
            metrics::MetricsRecorder::bump(&self.metrics.hits);
            metrics::MetricsRecorder::bump(&self.metrics.backend(backend).hits);
            self.metrics
                .record_service_time(start.elapsed().as_secs_f64());
            return Ok(outcome);
        }

        let result = match self.inflight.join(key, &keyed) {
            Role::Follower(slot) => {
                metrics::MetricsRecorder::bump(&self.metrics.coalesced);
                metrics::MetricsRecorder::bump(&self.metrics.backend(backend).coalesced);
                match slot.wait() {
                    Publication::Done(result) => result,
                    Publication::Aborted => {
                        // The leader unwound without completing; fall back to
                        // an independent computation rather than surfacing a
                        // synthetic error for a computable plan.
                        metrics::MetricsRecorder::bump(&self.metrics.misses);
                        self.compute_and_store(key, &keyed, instance.as_ref(), &exec_config)
                    }
                }
            }
            Role::Collision => {
                // A different request is in flight under our fingerprint;
                // compute independently (and let our result take the cache
                // slot) rather than waiting on — or corrupting — its slot.
                metrics::MetricsRecorder::bump(&self.metrics.misses);
                self.compute_and_store(key, &keyed, instance.as_ref(), &exec_config)
            }
            Role::Leader(slot) => {
                // Whatever happens below — including a panic unwinding out of
                // the planner — the slot must be published and retired, or
                // followers would block forever and the key would be wedged
                // for every future request.
                let guard = CompleteSlotOnDrop {
                    inflight: &self.inflight,
                    key,
                    slot: &slot,
                };
                // Between our unlocked cache miss and becoming leader, a
                // previous leader for this key may have completed (cache
                // insert happens before its slot is retired, and both sides
                // synchronize on the slot-table lock): re-check so the
                // singleflight invariant — one planner invocation per
                // distinct key — holds even across that race.
                let result = match self.cache.get(key, &keyed) {
                    Some(outcome) => {
                        metrics::MetricsRecorder::bump(&self.metrics.hits);
                        metrics::MetricsRecorder::bump(&self.metrics.backend(backend).hits);
                        Ok(outcome)
                    }
                    None => {
                        metrics::MetricsRecorder::bump(&self.metrics.misses);
                        self.compute_and_store(key, &keyed, instance.as_ref(), &exec_config)
                    }
                };
                guard.disarm(result.clone());
                result
            }
        };
        self.metrics
            .record_service_time(start.elapsed().as_secs_f64());
        result
    }

    fn compute_and_store(
        &self,
        key: u64,
        keyed: &KeyedRequest,
        instance: &dyn PlanBackend,
        exec_config: &PlannerConfig,
    ) -> Result<Arc<PlannedOutcome>, ServiceError> {
        let permit = self.admission.admit();
        let _permit = match permit {
            Ok(p) => p,
            Err(e) => {
                match &e {
                    ServiceError::AdmissionTimeout { .. } => {
                        metrics::MetricsRecorder::bump(&self.metrics.timed_out)
                    }
                    _ => metrics::MetricsRecorder::bump(&self.metrics.rejected),
                }
                return Err(e);
            }
        };
        metrics::MetricsRecorder::bump(&self.metrics.planner_invocations);
        metrics::MetricsRecorder::bump(&self.metrics.backend(keyed.backend).planner_invocations);
        match instance.plan(&keyed.request.snapshot, exec_config) {
            Ok(outcome) => {
                let outcome = Arc::new(outcome);
                let evicted = self.cache.insert(key, keyed.clone(), Arc::clone(&outcome));
                for _ in 0..evicted {
                    metrics::MetricsRecorder::bump(&self.metrics.evictions);
                }
                Ok(outcome)
            }
            Err(e) => Err(ServiceError::Plan(e)),
        }
    }

    /// Snapshot of the service counters and latency percentiles.
    pub fn metrics(&self) -> ServiceMetrics {
        let (active, waiting) = self.admission.depths();
        self.metrics.snapshot(waiting, active)
    }

    /// Number of plans currently cached (diagnostics / tests).
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Number of computations currently in flight (diagnostics / tests).
    pub fn inflight_plans(&self) -> usize {
        self.inflight.len()
    }
}

/// Transport-agnostic planning surface: the runtime's
/// `TrainingSession::with_service` and `replan_overlapped_shared` take a
/// `PlanTransport` and do not care whether the implementation is the
/// in-process [`PlanService`] or a socket-backed [`PlanClient`] talking to a
/// standalone daemon — both return byte-identical plans by the service's
/// determinism contract.
pub trait PlanTransport: Send + Sync + std::fmt::Debug {
    /// Serve one planning request through the named backend.
    fn plan_routed(
        &self,
        backend: BackendId,
        request: &PlanRequest,
    ) -> Result<Arc<PlannedOutcome>, ServiceError>;
}

impl PlanTransport for PlanService {
    fn plan_routed(
        &self,
        backend: BackendId,
        request: &PlanRequest,
    ) -> Result<Arc<PlannedOutcome>, ServiceError> {
        self.plan_backend(backend, request)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only fixture locks sit outside the production lock ranks"
)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_model::{HardwareParams, ModelSpec};
    use std::sync::Mutex;

    fn small_request(rate_on_gpu3: f64) -> PlanRequest {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster());
        let mut cluster = Cluster::homogeneous(1, 8);
        if rate_on_gpu3 > 1.0 {
            cluster.set_rate(GpuId(3), rate_on_gpu3);
        }
        PlanRequest::new(
            coeffs,
            cluster.snapshot(),
            PlannerConfig {
                global_batch_size: 8,
                ..PlannerConfig::default()
            },
        )
    }

    #[test]
    fn keyed_request_key_is_pinned() {
        // The L1/L2 cache and singleflight key; it must not move.
        let keyed = KeyedRequest {
            backend: BackendId::Oobleck,
            backend_fingerprint: 0xfeed,
            request: small_request(2.57),
        };
        assert_eq!(keyed.key(), 0x0be5_b03e_6413_76d4);
    }

    #[test]
    fn request_key_is_stable_and_parallelism_free() {
        let a = small_request(1.0);
        let mut b = a.clone();
        assert_eq!(a.key(), b.key());
        assert!(a.matches(&b));
        // The worker knob is execution policy, not identity.
        b.config.parallelism = Parallelism::Fixed(7);
        assert_eq!(a.key(), b.key());
        assert!(a.matches(&b));
        // So is the incremental-replanning flag: delta replans are
        // byte-identical to full enumeration.
        b.config.incremental = !a.config.incremental;
        assert_eq!(a.key(), b.key());
        assert!(a.matches(&b));
        b.config.incremental = a.config.incremental;
        // Any plan-relevant field changes the key.
        b.config.global_batch_size = 16;
        assert_ne!(a.key(), b.key());
        assert!(!a.matches(&b));
        let c = small_request(2.57);
        assert_ne!(a.key(), c.key());
        assert!(!a.matches(&c));
    }

    #[test]
    fn distinct_coefficients_change_the_key() {
        let a = small_request(1.0);
        let mut b = a.clone();
        b.coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_13b(), HardwareParams::a800_cluster());
        assert_ne!(a.key(), b.key());
        assert!(!a.matches(&b));
    }

    #[test]
    fn cache_hit_returns_the_same_arc() {
        let service = PlanService::new(ServiceConfig::default());
        let request = small_request(1.0);
        let first = service.plan(&request).expect("miss");
        let second = service.plan(&request).expect("hit");
        assert!(Arc::ptr_eq(&first, &second));
        let m = service.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(m.hits, 1);
        assert_eq!(m.misses, 1);
        assert_eq!(m.planner_invocations, 1);
        assert!(m.hit_rate() > 0.0);
        assert_eq!(service.cached_plans(), 1);
        assert_eq!(service.inflight_plans(), 0);
    }

    #[test]
    fn planner_errors_are_returned_and_not_cached() {
        let service = PlanService::new(ServiceConfig::default());
        let mut request = small_request(1.0);
        // No candidate micro-batch divides the global batch: planning fails.
        request.config.candidate_micro_batch_sizes = vec![3];
        let err = service.plan(&request).expect_err("infeasible");
        assert!(matches!(err, ServiceError::Plan(_)));
        assert_eq!(service.cached_plans(), 0);
        // The error is recomputed (not served from a poisoned cache entry).
        let err2 = service.plan(&request).expect_err("still infeasible");
        assert_eq!(err, err2);
        assert_eq!(service.metrics().planner_invocations, 2);
    }

    #[test]
    fn malleus_is_preregistered_and_unknown_backends_are_typed_errors() {
        let service = PlanService::new(ServiceConfig::default());
        assert_eq!(service.registered_backends(), vec![BackendId::Malleus]);
        let request = small_request(1.0);
        let err = service
            .plan_backend(BackendId::Oobleck, &request)
            .expect_err("not registered");
        assert_eq!(
            err,
            ServiceError::UnknownBackend {
                backend: BackendId::Oobleck
            }
        );
        // The rejected request still counts; nothing was planned or cached.
        let m = service.metrics();
        assert_eq!(m.requests, 1);
        assert_eq!(m.planner_invocations, 0);
        assert_eq!(service.cached_plans(), 0);
    }

    #[test]
    fn backend_route_shares_the_cache_line_with_plan() {
        let service = PlanService::new(ServiceConfig::default());
        let request = small_request(1.0);
        let direct = service.plan(&request).expect("plan");
        let routed = service
            .plan_backend(BackendId::Malleus, &request)
            .expect("backend route");
        // Same cache entry: the inner Malleus outcome is the same allocation.
        let inner = routed.malleus.as_ref().expect("malleus outcome");
        assert!(Arc::ptr_eq(&direct, inner));
        let m = service.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(m.hits, 1);
        assert_eq!(m.planner_invocations, 1);
        let per = &m.per_backend;
        assert_eq!(per.len(), 1);
        assert_eq!(per[0].backend, BackendId::Malleus);
        assert_eq!(per[0].requests, 2);
        assert_eq!(per[0].hits, 1);
        assert_eq!(per[0].planner_invocations, 1);
    }

    /// A mock backend whose *first* `plan` call blocks until released and
    /// then panics; every later call returns a small valid outcome.  Used to
    /// inject a leader panic while a follower is coalesced onto its slot.
    #[derive(Debug)]
    struct PanicOnFirstPlan {
        release: Arc<(Mutex<bool>, std::sync::Condvar)>,
        calls: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl PlanBackend for PanicOnFirstPlan {
        fn id(&self) -> BackendId {
            BackendId::Megatron
        }

        fn fingerprint_config(&self) -> u64 {
            0xfeed
        }

        fn plan(
            &self,
            _snapshot: &ClusterSnapshot,
            _config: &PlannerConfig,
        ) -> Result<PlannedOutcome, PlanError> {
            use std::sync::atomic::Ordering;
            if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                let (flag, released) = &*self.release;
                let mut go = flag.lock().unwrap();
                while !*go {
                    go = released.wait(go).unwrap();
                }
                panic!("injected leader panic mid-plan");
            }
            Ok(PlannedOutcome {
                backend: BackendId::Megatron,
                plan: None,
                active_gpus: Vec::new(),
                estimated_step_time: 1.0,
                transition_cost: 0.0,
                description: "mock".to_string(),
                malleus: None,
            })
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

    /// Regression (leader-failure hardening): a leader panicking mid-plan
    /// used to publish a synthetic `Internal` error to every coalesced
    /// follower.  Followers must instead observe the abort and fall back to
    /// an independent computation that succeeds.
    #[test]
    fn followers_survive_a_leader_panic_by_recomputing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let release = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let calls = Arc::new(AtomicUsize::new(0));
        {
            let (release, calls) = (Arc::clone(&release), Arc::clone(&calls));
            service.register_backend(
                BackendId::Megatron,
                Arc::new(move |_, _| {
                    Box::new(PanicOnFirstPlan {
                        release: Arc::clone(&release),
                        calls: Arc::clone(&calls),
                    })
                }),
            );
        }
        let request = small_request(1.0);

        let leader = {
            let (service, request) = (Arc::clone(&service), request.clone());
            std::thread::spawn(move || service.plan_backend(BackendId::Megatron, &request))
        };
        // Wait until the leader is inside the mock planner (its slot is in
        // flight), then attach the follower.
        while calls.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let follower = {
            let (service, request) = (Arc::clone(&service), request.clone());
            std::thread::spawn(move || service.plan_backend(BackendId::Megatron, &request))
        };
        // Wait until the follower has coalesced onto the leader's slot, then
        // release the leader into its panic.
        while service.metrics().coalesced == 0 {
            std::thread::yield_now();
        }
        {
            let (flag, released) = &*release;
            *flag.lock().unwrap() = true;
            released.notify_all();
        }

        assert!(leader.join().is_err(), "leader must have panicked");
        let outcome = follower
            .join()
            .unwrap()
            .expect("follower must recompute after the leader aborts, not inherit an error");
        assert_eq!(outcome.description, "mock");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "leader + follower fallback"
        );
        // The slot is retired and the follower's recomputation is cached.
        assert_eq!(service.inflight_plans(), 0);
        let served = service
            .plan_backend(BackendId::Megatron, &request)
            .expect("cached");
        assert!(Arc::ptr_eq(&served, &outcome));
    }

    #[test]
    fn per_plan_parallelism_splits_the_worker_budget() {
        let config = ServiceConfig {
            worker_budget: 8,
            max_concurrent_plans: 4,
            ..ServiceConfig::default()
        };
        assert_eq!(config.per_plan_parallelism(), Parallelism::Fixed(2));
        let starved = ServiceConfig {
            worker_budget: 1,
            max_concurrent_plans: 16,
            ..ServiceConfig::default()
        };
        assert_eq!(starved.per_plan_parallelism(), Parallelism::Fixed(1));
    }
}

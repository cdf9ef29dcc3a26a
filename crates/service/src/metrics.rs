//! Service-level counters and latency percentiles.
//!
//! Counters are lock-free atomics bumped on the request path; service-time
//! samples land in a fixed-size ring (bounded memory under sustained load).
//! [`ServiceMetrics`] is a consistent-enough point-in-time snapshot for
//! dashboards and the throughput experiment — the counters are read
//! individually, so a snapshot taken while requests are in flight may be off
//! by the requests that completed mid-read.

use malleus_core::{lock_rank, BackendId, RankedMutex};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of service-time samples retained for the percentile estimates.
const LATENCY_WINDOW: usize = 4096;

/// Independent latency stripes: one global sample mutex would re-serialize
/// the cache-hit fast path the sharded cache keeps contention-free, and
/// inflate the very hit latencies it measures.  Recording picks a stripe
/// round-robin; the snapshot merges all stripes.
const LATENCY_STRIPES: usize = 8;

/// Internal recorder owned by the service.
#[derive(Debug)]
pub(crate) struct MetricsRecorder {
    pub requests: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub coalesced: AtomicU64,
    pub planner_invocations: AtomicU64,
    pub evictions: AtomicU64,
    pub rejected: AtomicU64,
    pub timed_out: AtomicU64,
    /// Per-backend counter breakout, indexed by [`BackendId::index`].
    per_backend: Vec<BackendCounters>,
    next_stripe: AtomicU64,
    latencies: Vec<RankedMutex<LatencyRing>>,
}

/// Lock-free counters for one registered backend.
#[derive(Debug, Default)]
pub(crate) struct BackendCounters {
    pub requests: AtomicU64,
    pub hits: AtomicU64,
    pub coalesced: AtomicU64,
    pub planner_invocations: AtomicU64,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self {
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            planner_invocations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            per_backend: (0..BackendId::ALL.len())
                .map(|_| BackendCounters::default())
                .collect(),
            next_stripe: AtomicU64::new(0),
            latencies: (0..LATENCY_STRIPES)
                .map(|_| {
                    RankedMutex::new(
                        lock_rank::METRICS_RECORDER_LATENCIES,
                        "MetricsRecorder.latencies",
                        LatencyRing::default(),
                    )
                })
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<f64>,
    next: usize,
}

impl LatencyRing {
    fn record(&mut self, seconds: f64) {
        if self.samples.len() < LATENCY_WINDOW / LATENCY_STRIPES {
            self.samples.push(seconds);
        } else {
            let slot = self.next;
            self.samples[slot] = seconds;
        }
        self.next = (self.next + 1) % (LATENCY_WINDOW / LATENCY_STRIPES);
    }
}

impl MetricsRecorder {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The counter block for one backend.
    pub fn backend(&self, id: BackendId) -> &BackendCounters {
        &self.per_backend[id.index()]
    }

    /// Record the end-to-end service time of one request (seconds).
    pub fn record_service_time(&self, seconds: f64) {
        let stripe = self.next_stripe.fetch_add(1, Ordering::Relaxed) as usize % LATENCY_STRIPES;
        self.latencies[stripe].lock().record(seconds);
    }

    pub fn snapshot(&self, queue_depth: usize, active_plans: usize) -> ServiceMetrics {
        let mut samples: Vec<f64> = self
            .latencies
            .iter()
            .flat_map(|stripe| stripe.lock().samples.clone())
            .collect();
        samples.sort_by(f64::total_cmp);
        ServiceMetrics {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            planner_invocations: self.planner_invocations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            queue_depth,
            active_plans,
            p50_service_time: percentile(&samples, 0.50),
            p99_service_time: percentile(&samples, 0.99),
            per_backend: BackendId::ALL
                .iter()
                .filter_map(|&id| {
                    let counters = &self.per_backend[id.index()];
                    let requests = counters.requests.load(Ordering::Relaxed);
                    (requests > 0).then(|| BackendMetrics {
                        backend: id,
                        requests,
                        hits: counters.hits.load(Ordering::Relaxed),
                        coalesced: counters.coalesced.load(Ordering::Relaxed),
                        planner_invocations: counters.planner_invocations.load(Ordering::Relaxed),
                    })
                })
                .collect(),
        }
    }
}

/// Per-backend slice of the service counters (only backends that have seen at
/// least one request appear in [`ServiceMetrics::per_backend`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendMetrics {
    /// Which backend these counters describe.
    pub backend: BackendId,
    /// Requests routed to this backend.
    pub requests: u64,
    /// Requests answered from the plan cache.
    pub hits: u64,
    /// Requests coalesced onto an identical in-flight computation.
    pub coalesced: u64,
    /// Actual backend `plan` invocations.
    pub planner_invocations: u64,
}

/// Nearest-rank percentile over an ascending sample set (0.0 when empty): the
/// smallest sample whose cumulative frequency reaches `q`, i.e. the
/// `ceil(q · n)`-th order statistic (1-indexed).  No interpolation — the
/// estimate is always an observed sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Point-in-time snapshot of the service's health and cache effectiveness.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceMetrics {
    /// Total requests accepted by [`crate::PlanService::plan`].
    pub requests: u64,
    /// Requests answered from the plan cache.
    pub hits: u64,
    /// Requests that had to invoke (or wait to invoke) the planner.
    pub misses: u64,
    /// Requests that blocked on another tenant's identical in-flight
    /// computation instead of re-planning.
    pub coalesced: u64,
    /// Actual `Planner::plan` invocations (≤ misses; fingerprint-collision
    /// recomputations are counted here too).
    pub planner_invocations: u64,
    /// Cache entries displaced by capacity LRU eviction.
    pub evictions: u64,
    /// Requests rejected by the admission gate (backpressure).
    pub rejected: u64,
    /// Requests that timed out waiting in the admission queue
    /// (`queue_wait_timeout`).
    pub timed_out: u64,
    /// Requests currently waiting for an admission permit.
    pub queue_depth: usize,
    /// Planner invocations currently executing.
    pub active_plans: usize,
    /// Median end-to-end service time over the recent sample window (s).
    pub p50_service_time: f64,
    /// 99th-percentile end-to-end service time over the window (s).
    pub p99_service_time: f64,
    /// Counter breakout per registered backend (empty until a backend-routed
    /// request arrives).
    pub per_backend: Vec<BackendMetrics>,
}

impl ServiceMetrics {
    /// Fraction of requests answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let recorder = MetricsRecorder::default();
        for i in 1..=100 {
            recorder.record_service_time(i as f64);
        }
        let snap = recorder.snapshot(0, 0);
        assert!((snap.p50_service_time - 50.0).abs() <= 1.0);
        assert!(snap.p99_service_time >= 99.0);
    }

    #[test]
    fn percentile_is_true_nearest_rank_at_boundaries() {
        // n = 1: every quantile is the single sample.
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // n = 2: nearest rank of the median is ceil(0.5 · 2) = 1st sample
        // (the rounded-interpolation index picked the 2nd here).
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
        // n = 100 over 1..=100: p50 is the 50th order statistic, exactly 50
        // (the rounded-interpolation index produced 51), and p99 the 99th.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        // Degenerate quantiles stay in range.
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
    }

    #[test]
    fn latency_rings_are_bounded() {
        let recorder = MetricsRecorder::default();
        for i in 0..(LATENCY_WINDOW * 2) {
            recorder.record_service_time(i as f64);
        }
        let total: usize = recorder
            .latencies
            .iter()
            .map(|stripe| stripe.lock().samples.len())
            .sum();
        assert_eq!(total, LATENCY_WINDOW);
    }

    #[test]
    fn rates_handle_zero_requests() {
        let m = ServiceMetrics::default();
        assert_eq!(m.hit_rate(), 0.0);
    }
}

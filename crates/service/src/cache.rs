//! LRU cache of completed plans, for both tiers: [`PlanCache`] is one
//! client's L1 (see `server.rs`) or one shard of the shared L2
//! ([`ShardedPlanCache`]).
//!
//! Keys are the 64-bit [`crate::KeyedRequest::key`] fingerprint (request
//! fingerprint mixed with the backend id and the backend's config
//! fingerprint); every hit is confirmed with a full-equality check of the
//! stored keyed request (the same discipline as
//! `malleus_core::GroupingCache`), so fingerprint collisions degrade to
//! recomputation, never to serving another tenant's — or another backend's —
//! plan.  Distinct requests that share a fingerprint coexist in a small
//! per-key bucket: each occupies its own LRU slot instead of perpetually
//! replacing the other (which would deny one tenant cache hits forever).
//! Shards are independent mutexes selected by key, so concurrent tenants
//! touching different plans do not contend on one lock.
//!
//! A plan is a pure function of its request, so a confirmed hit is never
//! stale and nothing expires by age.  Eviction is by entry count only: each
//! cache holds at most `capacity` entries, and overflow evicts the
//! least-recently-used entry (ties on the cache-local use clock break on the
//! smaller key, then the older bucket position).

use crate::KeyedRequest;
use malleus_core::{lock_rank, PlannedOutcome, RankedMutex};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug)]
struct CacheEntry {
    /// The keyed request the plan was computed for (full-equality
    /// confirmation).
    request: KeyedRequest,
    outcome: Arc<PlannedOutcome>,
    /// Cache-local logical timestamp of the last hit or insertion.
    last_used: u64,
}

/// One bucketed LRU plan cache: an L2 shard, or a client's whole L1
/// (`server.rs`).
#[derive(Debug)]
pub(crate) struct PlanCache {
    /// Fingerprint → bucket of colliding entries (almost always length 1).
    entries: HashMap<u64, Vec<CacheEntry>>,
    clock: u64,
    /// Maximum entries; 0 disables caching.
    capacity: usize,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            clock: 0,
            capacity,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Confirmed lookup: only the bucket entry whose stored request fully
    /// matches `request` counts as a hit; colliding co-residents are left
    /// untouched.
    pub fn get(&mut self, key: u64, request: &KeyedRequest) -> Option<Arc<PlannedOutcome>> {
        self.clock += 1;
        let now = self.clock;
        self.entries
            .get_mut(&key)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.request.matches(request)))
            .map(|entry| {
                entry.last_used = now;
                Arc::clone(&entry.outcome)
            })
    }

    /// Insert a freshly computed plan, returning the number of entries
    /// evicted to make room.  A request already resident (same fingerprint
    /// *and* matching request) is replaced in place; a colliding request gets
    /// its own bucket slot so both survive.
    pub fn insert(&mut self, key: u64, request: KeyedRequest, outcome: Arc<PlannedOutcome>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.clock += 1;
        let now = self.clock;
        let resident = self
            .entries
            .get_mut(&key)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.request.matches(&request)));
        if let Some(entry) = resident {
            entry.outcome = outcome;
            entry.last_used = now;
            return 0;
        }
        let mut evicted = 0;
        while self.len() >= self.capacity && self.evict_lru() {
            evicted += 1;
        }
        self.entries.entry(key).or_default().push(CacheEntry {
            request,
            outcome,
            last_used: now,
        });
        evicted
    }

    /// Drop every entry whose request fails `keep`, returning how many were
    /// dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&KeyedRequest) -> bool) -> u64 {
        let mut dropped = 0;
        for bucket in self.entries.values_mut() {
            bucket.retain(|e| {
                let kept = keep(&e.request);
                dropped += u64::from(!kept);
                kept
            });
        }
        self.entries.retain(|_, bucket| !bucket.is_empty());
        dropped
    }

    /// Evict the least-recently-used entry across all buckets (deterministic
    /// tie-break: clock, then key, then bucket position).
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .flat_map(|(k, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (e.last_used, *k, i))
            })
            .min();
        let Some((_, key, index)) = victim else {
            return false;
        };
        let Some(bucket) = self.entries.get_mut(&key) else {
            return false;
        };
        bucket.remove(index);
        if bucket.is_empty() {
            self.entries.remove(&key);
        }
        true
    }
}

/// The sharded L2 plan cache.
#[derive(Debug)]
pub(crate) struct ShardedPlanCache {
    shards: Vec<RankedMutex<PlanCache>>,
}

impl ShardedPlanCache {
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| {
                    RankedMutex::new(
                        lock_rank::SHARDED_PLAN_CACHE_SHARDS,
                        "ShardedPlanCache.shards",
                        PlanCache::new(capacity_per_shard),
                    )
                })
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &RankedMutex<PlanCache> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// [`PlanCache::get`] on the key's shard.
    pub fn get(&self, key: u64, request: &KeyedRequest) -> Option<Arc<PlannedOutcome>> {
        self.shard(key).lock().get(key, request)
    }

    /// [`PlanCache::insert`] on the key's shard; returns the entries evicted.
    pub fn insert(&self, key: u64, request: KeyedRequest, outcome: Arc<PlannedOutcome>) -> u64 {
        self.shard(key).lock().insert(key, request, outcome)
    }

    /// Total number of cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanRequest;
    use malleus_cluster::Cluster;
    use malleus_core::{BackendId, PlannerConfig};
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};
    use proptest::prelude::*;

    fn keyed(batch: u64) -> KeyedRequest {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster());
        KeyedRequest {
            backend: BackendId::Malleus,
            backend_fingerprint: 0,
            request: PlanRequest::new(
                coeffs,
                Cluster::homogeneous(1, 8).snapshot(),
                PlannerConfig {
                    global_batch_size: batch,
                    ..PlannerConfig::default()
                },
            ),
        }
    }

    fn outcome(step_time: f64) -> Arc<PlannedOutcome> {
        Arc::new(PlannedOutcome {
            backend: BackendId::Malleus,
            plan: None,
            active_gpus: Vec::new(),
            estimated_step_time: step_time,
            transition_cost: 0.0,
            description: "test".to_string(),
            malleus: None,
        })
    }

    /// Regression: two distinct requests sharing a 64-bit fingerprint used to
    /// perpetually replace each other's entry — after warm-up, each lookup of
    /// one evicted the other, so one tenant never got cache hits.  The cache
    /// API takes the fingerprint as a parameter, so the collision is forced
    /// directly with distinct requests under one key.
    #[test]
    fn colliding_requests_coexist_and_both_hit_after_warmup() {
        let cache = ShardedPlanCache::new(1, 8);
        let key = 0xdead_beef;
        let a = keyed(8);
        let b = keyed(16);
        assert!(!a.matches(&b), "fixture requests must be distinct");
        // Warm-up: both tenants insert under the colliding fingerprint.
        cache.insert(key, a.clone(), outcome(1.0));
        cache.insert(key, b.clone(), outcome(2.0));
        assert_eq!(cache.len(), 2, "collision must not replace the survivor");
        // Steady state: both hit, repeatedly, with their own outcomes.
        for _ in 0..3 {
            let hit_a = cache.get(key, &a).expect("tenant A hits");
            let hit_b = cache.get(key, &b).expect("tenant B hits");
            assert_eq!(hit_a.estimated_step_time, 1.0);
            assert_eq!(hit_b.estimated_step_time, 2.0);
        }
        // Re-inserting a resident request replaces in place, never a
        // co-resident.
        cache.insert(key, a.clone(), outcome(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(key, &a).unwrap().estimated_step_time, 3.0);
        assert_eq!(cache.get(key, &b).unwrap().estimated_step_time, 2.0);
    }

    #[test]
    fn lru_eviction_spans_collision_buckets() {
        let cache = ShardedPlanCache::new(1, 2);
        let a = keyed(8);
        let b = keyed(16);
        let c = keyed(32);
        cache.insert(1, a.clone(), outcome(1.0));
        cache.insert(1, b.clone(), outcome(2.0));
        // Touch A so B is the LRU entry, then overflow with C on another key.
        cache.get(1, &a).expect("A resident");
        let evicted = cache.insert(2, c.clone(), outcome(3.0));
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, &a).is_some());
        assert!(cache.get(1, &b).is_none(), "LRU bucket entry evicted");
        assert!(cache.get(2, &c).is_some());
    }

    /// Distinct requests the property below draws from.
    const REQUESTS: usize = 5;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert (op 0), get (op 1) and retain (op 2, dropping the
        /// requests in `mask`) sequences over a few requests, some forced
        /// onto one fingerprint by `keys`, checked against a recency list
        /// (least recently used first) after every operation: the cache
        /// holds at most `capacity` entries, every hit is the outcome last
        /// inserted for that exact request, and resident = distinct inserts
        /// − evictions reported by `insert` − `retain` drops.
        #[test]
        fn count_lru_keeps_its_bound_and_serves_the_last_insert(
            capacity in 0usize..5,
            keys in prop::collection::vec(0u64..3, REQUESTS..REQUESTS + 1),
            ops in prop::collection::vec((0u8..3, 0usize..REQUESTS, 0u32..32), 1..64),
        ) {
            let requests: Vec<KeyedRequest> = (0..REQUESTS).map(|i| keyed(8 << i)).collect();
            let index_of = |r: &KeyedRequest| requests.iter().position(|q| q.matches(r));
            let mut cache = PlanCache::new(capacity);
            let mut recency: Vec<usize> = Vec::new();
            let mut last_inserted: Vec<Option<f64>> = vec![None; REQUESTS];
            let (mut distinct_inserts, mut evicted, mut dropped) = (0u64, 0u64, 0u64);
            for (step, (op, i, mask)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        let reported = cache.insert(keys[i], requests[i].clone(), outcome(step as f64));
                        evicted += reported;
                        let mut expected = 0;
                        if capacity > 0 {
                            last_inserted[i] = Some(step as f64);
                            match recency.iter().position(|&r| r == i) {
                                Some(pos) => {
                                    recency.remove(pos);
                                }
                                None => {
                                    distinct_inserts += 1;
                                    while recency.len() >= capacity {
                                        recency.remove(0);
                                        expected += 1;
                                    }
                                }
                            }
                            recency.push(i);
                        }
                        prop_assert_eq!(reported, expected, "step {}: insert of request {}", step, i);
                    }
                    1 => {
                        let hit = cache.get(keys[i], &requests[i]);
                        let resident = recency.iter().position(|&r| r == i);
                        prop_assert_eq!(hit.is_some(), resident.is_some(), "step {}: get of request {}", step, i);
                        if let (Some(hit), Some(pos)) = (hit, resident) {
                            prop_assert_eq!(Some(hit.estimated_step_time), last_inserted[i], "step {}: request {}", step, i);
                            recency.remove(pos);
                            recency.push(i);
                        }
                    }
                    _ => {
                        let drops = |j: usize| mask & (1 << j) != 0;
                        let n = cache.retain(|r| !drops(index_of(r).expect("a drawn request")));
                        dropped += n;
                        let before = recency.len();
                        recency.retain(|&j| !drops(j));
                        prop_assert_eq!(n, (before - recency.len()) as u64, "step {}: retain", step);
                    }
                }
                prop_assert!(cache.len() <= capacity, "step {}: {} > {}", step, cache.len(), capacity);
                prop_assert_eq!(cache.len() as u64, distinct_inserts - evicted - dropped, "step {}", step);
            }
        }
    }
}

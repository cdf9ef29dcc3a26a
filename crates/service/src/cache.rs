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
//! Eviction is three-pronged and deterministic:
//! * **LRU capacity**: each cache holds at most `capacity` entries; overflow
//!   evicts the least-recently-used entry (ties on the cache-local use clock
//!   break on the smaller key, then the older bucket position).
//! * **TTL**: entries older than the optional `ttl` are purged lazily on the
//!   next touch of their bucket — a plan computed for a cluster state nobody
//!   has asked about in ten minutes is stale by construction.
//! * **Byte budget**: each cache tracks the caller-supplied sizes of its
//!   outcomes (in the L2, [`approx_outcome_size`]) and evicts LRU-first until
//!   under the optional `max_bytes`, so a handful of 512-GPU lattice-bearing
//!   plans cannot squeeze out every small tenant.

use crate::KeyedRequest;
use malleus_core::{lock_rank, PlannedOutcome, RankedMutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Approximate resident bytes of a planned outcome — the variable-size parts
/// (plan topology, lattice, snapshot, description) plus a fixed overhead for
/// the struct itself.  Used for the byte-budget eviction tier; it does not
/// need to be exact, only monotone in the real footprint.
pub(crate) fn approx_outcome_size(outcome: &PlannedOutcome) -> usize {
    let mut size = 128 + outcome.description.len() + outcome.active_gpus.len() * 4;
    if let Some(plan) = &outcome.plan {
        size += plan.removed_gpus.len() * 4;
        for pipeline in &plan.pipelines {
            size += 32;
            for stage in &pipeline.stages {
                size += 16 + stage.group.gpus.len() * 4;
            }
        }
    }
    if let Some(malleus) = &outcome.malleus {
        size += 192;
        size += malleus.plan.removed_gpus.len() * 4;
        for pipeline in &malleus.plan.pipelines {
            size += 32;
            for stage in &pipeline.stages {
                size += 16 + stage.group.gpus.len() * 4;
            }
        }
        if let Some(lattice) = &malleus.lattice {
            size += 64
                + lattice.entries.len() * 40
                + lattice.snapshot.rates.len() * 12
                + lattice.snapshot.node_of.len() * 4;
        }
    }
    size
}

#[derive(Debug)]
struct CacheEntry {
    /// The keyed request the plan was computed for (full-equality
    /// confirmation).
    request: KeyedRequest,
    outcome: Arc<PlannedOutcome>,
    /// Cache-local logical timestamp of the last hit or insertion.
    last_used: u64,
    /// Wall-clock insertion time, for TTL expiry (refreshed on in-place
    /// replacement, *not* on hits — a hit on stale data would otherwise keep
    /// it alive forever).
    inserted: Instant,
    /// Caller-supplied size in bytes, for the byte budget.
    size: usize,
}

/// One bucketed LRU plan cache with lazy TTL expiry and a byte budget: an L2
/// shard, or a client's whole L1 (`server.rs`).  Entry sizes come from the
/// caller: [`approx_outcome_size`] in the L2, the encoded response length
/// in the L1.
#[derive(Debug)]
pub(crate) struct PlanCache {
    /// Fingerprint → bucket of colliding entries (almost always length 1).
    entries: HashMap<u64, Vec<CacheEntry>>,
    clock: u64,
    /// Sum of `CacheEntry::size` across all buckets.
    bytes: usize,
    /// Maximum entries; 0 disables caching.
    capacity: usize,
    ttl: Option<Duration>,
    max_bytes: Option<usize>,
}

impl PlanCache {
    pub fn new(capacity: usize, ttl: Option<Duration>, max_bytes: Option<usize>) -> Self {
        Self {
            entries: HashMap::new(),
            clock: 0,
            bytes: 0,
            capacity,
            ttl,
            max_bytes,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Sum of the cached entries' sizes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Confirmed lookup: only the bucket entry whose stored request fully
    /// matches `request` counts as a hit; colliding co-residents are left
    /// untouched.  Returns the outcome (if any) and the number of expired
    /// entries purged from the touched bucket along the way.
    pub fn get(&mut self, key: u64, request: &KeyedRequest) -> (Option<Arc<PlannedOutcome>>, u64) {
        self.clock += 1;
        let now = self.clock;
        let expired = self.purge_expired(key);
        let hit = self
            .entries
            .get_mut(&key)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.request.matches(request)))
            .map(|entry| {
                entry.last_used = now;
                Arc::clone(&entry.outcome)
            });
        (hit, expired)
    }

    /// Insert a freshly computed plan of `size` bytes, returning the number
    /// of entries expired from the touched bucket and the number evicted to
    /// make room.  A request already resident (same fingerprint *and*
    /// matching request) is replaced in place; a colliding request gets its
    /// own bucket slot so both survive.
    pub fn insert(
        &mut self,
        key: u64,
        request: KeyedRequest,
        outcome: Arc<PlannedOutcome>,
        size: usize,
    ) -> (u64, u64) {
        if self.capacity == 0 {
            return (0, 0);
        }
        self.clock += 1;
        let now = self.clock;
        let expired = self.purge_expired(key);
        let resident = self
            .entries
            .get_mut(&key)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.request.matches(&request)));
        if let Some(entry) = resident {
            self.bytes = self.bytes - entry.size + size;
            entry.outcome = outcome;
            entry.last_used = now;
            entry.inserted = Instant::now();
            entry.size = size;
            return (expired, 0);
        }
        let mut evicted = 0;
        while self.len() >= self.capacity && self.evict_lru() {
            evicted += 1;
        }
        if let Some(budget) = self.max_bytes {
            // The incoming entry counts against the budget too; an outcome
            // larger than the whole budget still gets one slot (evicting all
            // co-residents), otherwise huge plans would be uncacheable and
            // replanned every time.
            while self.len() > 0 && self.bytes + size > budget && self.evict_lru() {
                evicted += 1;
            }
        }
        self.bytes += size;
        self.entries.entry(key).or_default().push(CacheEntry {
            request,
            outcome,
            last_used: now,
            inserted: Instant::now(),
            size,
        });
        (expired, evicted)
    }

    /// Drop every entry whose request fails `keep`, returning how many were
    /// dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&KeyedRequest) -> bool) -> u64 {
        let mut dropped = 0;
        let mut freed = 0;
        for bucket in self.entries.values_mut() {
            bucket.retain(|e| {
                let kept = keep(&e.request);
                if !kept {
                    dropped += 1;
                    freed += e.size;
                }
                kept
            });
        }
        self.entries.retain(|_, bucket| !bucket.is_empty());
        self.bytes -= freed;
        dropped
    }

    /// Drop expired entries from the bucket under `key`, returning how many
    /// were purged.
    fn purge_expired(&mut self, key: u64) -> u64 {
        let Some(ttl) = self.ttl else {
            return 0;
        };
        let Some(bucket) = self.entries.get_mut(&key) else {
            return 0;
        };
        let now = Instant::now();
        let before = bucket.len();
        let mut freed = 0;
        bucket.retain(|e| {
            let live = now.duration_since(e.inserted) < ttl;
            if !live {
                freed += e.size;
            }
            live
        });
        let purged = before - bucket.len();
        if bucket.is_empty() {
            self.entries.remove(&key);
        }
        self.bytes -= freed;
        purged as u64
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
        let removed = bucket.remove(index);
        self.bytes -= removed.size;
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
    pub fn new(
        shards: usize,
        capacity_per_shard: usize,
        ttl: Option<Duration>,
        max_bytes_per_shard: Option<usize>,
    ) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| {
                    RankedMutex::new(
                        lock_rank::SHARDED_PLAN_CACHE_SHARDS,
                        "ShardedPlanCache.shards",
                        PlanCache::new(capacity_per_shard, ttl, max_bytes_per_shard),
                    )
                })
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &RankedMutex<PlanCache> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// [`PlanCache::get`] on the key's shard.
    pub fn get(&self, key: u64, request: &KeyedRequest) -> (Option<Arc<PlannedOutcome>>, u64) {
        self.shard(key).lock().get(key, request)
    }

    /// [`PlanCache::insert`] on the key's shard, sized by
    /// [`approx_outcome_size`]; returns the entries expired or evicted.
    pub fn insert(&self, key: u64, request: KeyedRequest, outcome: Arc<PlannedOutcome>) -> u64 {
        let size = approx_outcome_size(&outcome);
        let (expired, evicted) = self.shard(key).lock().insert(key, request, outcome, size);
        expired + evicted
    }

    /// Total number of cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Approximate resident bytes across all shards (diagnostics).
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanRequest;
    use malleus_cluster::Cluster;
    use malleus_core::{BackendId, PlannerConfig};
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};

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
        let cache = ShardedPlanCache::new(1, 8, None, None);
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
            let hit_a = cache.get(key, &a).0.expect("tenant A hits");
            let hit_b = cache.get(key, &b).0.expect("tenant B hits");
            assert_eq!(hit_a.estimated_step_time, 1.0);
            assert_eq!(hit_b.estimated_step_time, 2.0);
        }
        // Re-inserting a resident request replaces in place, never a
        // co-resident.
        cache.insert(key, a.clone(), outcome(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(key, &a).0.unwrap().estimated_step_time, 3.0);
        assert_eq!(cache.get(key, &b).0.unwrap().estimated_step_time, 2.0);
    }

    #[test]
    fn lru_eviction_spans_collision_buckets() {
        let cache = ShardedPlanCache::new(1, 2, None, None);
        let a = keyed(8);
        let b = keyed(16);
        let c = keyed(32);
        cache.insert(1, a.clone(), outcome(1.0));
        cache.insert(1, b.clone(), outcome(2.0));
        // Touch A so B is the LRU entry, then overflow with C on another key.
        cache.get(1, &a).0.expect("A resident");
        let evicted = cache.insert(2, c.clone(), outcome(3.0));
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, &a).0.is_some());
        assert!(cache.get(1, &b).0.is_none(), "LRU bucket entry evicted");
        assert!(cache.get(2, &c).0.is_some());
    }

    #[test]
    fn expired_entries_are_purged_on_the_next_touch() {
        let ttl = Duration::from_millis(20);
        let cache = ShardedPlanCache::new(1, 8, Some(ttl), None);
        let a = keyed(8);
        cache.insert(1, a.clone(), outcome(1.0));
        assert!(cache.get(1, &a).0.is_some(), "fresh entry hits");
        std::thread::sleep(ttl + Duration::from_millis(20));
        let (hit, expired) = cache.get(1, &a);
        assert!(hit.is_none(), "expired entry must not be served");
        assert_eq!(expired, 1, "expiry is reported for the eviction counter");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.approx_bytes(), 0, "byte accounting survives expiry");
        // Reinsertion after expiry behaves like a fresh entry.
        cache.insert(1, a.clone(), outcome(2.0));
        assert_eq!(cache.get(1, &a).0.unwrap().estimated_step_time, 2.0);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let a = keyed(8);
        let b = keyed(16);
        let c = keyed(32);
        let per_entry = approx_outcome_size(&outcome(0.0));
        // Budget fits exactly two fixture outcomes.
        let cache = ShardedPlanCache::new(1, 64, None, Some(per_entry * 2));
        cache.insert(1, a.clone(), outcome(1.0));
        cache.insert(2, b.clone(), outcome(2.0));
        assert_eq!(cache.approx_bytes(), per_entry * 2);
        // Touch A so B is LRU, then overflow the byte budget with C.
        cache.get(1, &a).0.expect("A resident");
        let evicted = cache.insert(3, c.clone(), outcome(3.0));
        assert_eq!(evicted, 1, "byte budget forced one LRU eviction");
        assert!(cache.get(1, &a).0.is_some());
        assert!(cache.get(2, &b).0.is_none(), "LRU entry paid for the bytes");
        assert!(cache.get(3, &c).0.is_some());
        assert!(cache.approx_bytes() <= per_entry * 2);
    }

    #[test]
    fn an_outcome_larger_than_the_budget_still_gets_one_slot() {
        let huge = Arc::new(PlannedOutcome {
            description: "x".repeat(4096),
            ..(*outcome(1.0)).clone()
        });
        let cache = ShardedPlanCache::new(1, 64, None, Some(256));
        let a = keyed(8);
        cache.insert(1, a.clone(), Arc::clone(&huge));
        assert!(
            cache.get(1, &a).0.is_some(),
            "oversized outcomes are cached (evicting everything else) rather than thrashing"
        );
        assert_eq!(cache.len(), 1);
    }
}

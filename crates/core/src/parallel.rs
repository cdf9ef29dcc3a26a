//! Parallel evaluation of the planner's candidate lattice.
//!
//! The Malleus planner (§4.3.3) enumerates a lattice of candidate
//! configurations — every (maximum TP degree, DP degree, micro-batch size,
//! division mode) tuple — and evaluates each candidate independently through
//! grouping, pipeline division, group ordering and work assignment.  The
//! evaluations share no mutable state, so the lattice is embarrassingly
//! parallel.  This module provides the pieces the planner uses to fan the
//! lattice across threads without changing its output:
//!
//! * [`Parallelism`] — the `PlannerConfig` knob selecting the worker count
//!   (`Auto` uses [`std::thread::available_parallelism`], `Fixed(1)` keeps the
//!   serial reference path that the equivalence test-suite treats as the
//!   oracle).
//! * [`GroupingCache`] — a memo cache for [`group_cluster`] results keyed by
//!   ([`ClusterSnapshot::fingerprint`], max TP degree), with hits confirmed
//!   against the full snapshot and coefficients.  Grouping is independent of
//!   the rest of the lattice, so the cache is filled once per plan invocation
//!   and then shared *read-only* by every worker (and by subsequent
//!   re-planning rounds on an unchanged snapshot).
//! * [`fan_out`] — a scoped-thread work queue (`std::thread::scope`, no
//!   external dependencies) that evaluates `num_items` closures on `workers`
//!   threads and returns the results **indexed by item**, not by completion
//!   order.
//! * [`RankedMutex`] and [`lock_rank`] — the workspace's only lock type and
//!   the table of lock ranks it checks in debug builds.
//!
//! # Deterministic tie-break
//!
//! Thread scheduling must never influence the chosen plan.  The planner
//! guarantees this by assigning every candidate a lattice index equal to its
//! position in the serial enumeration order and *reducing the results in index
//! order* with exactly the serial comparison: a candidate replaces the current
//! best only if its estimated step time is smaller by more than `1e-12`
//! seconds.  Ties (and near-ties within the epsilon) therefore always resolve
//! to the candidate with the smallest lattice index — i.e. the same winner the
//! serial oracle picks — no matter which worker finished first.  Because each
//! candidate's floating-point evaluation is self-contained (no cross-candidate
//! accumulation), the reduction is bit-identical to the serial fold.

use crate::grouping::{group_cluster, GroupingResult};
use malleus_cluster::ClusterSnapshot;
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "RankedMutex wraps the raw lock; everything else locks through it"
)]
use std::sync::Mutex;
use std::sync::{Arc, Condvar, OnceLock};
use std::time::Duration;

/// Worker-count knob for the candidate-lattice fan-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Use every available core (`std::thread::available_parallelism`).
    #[default]
    Auto,
    /// Use exactly this many workers.  `Fixed(1)` is the serial reference
    /// path — the oracle the deterministic-equivalence harness compares
    /// against.
    Fixed(usize),
}

impl Parallelism {
    /// Resolve the knob to a concrete worker count (≥ 1).
    pub fn workers(&self) -> usize {
        match self {
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// A memoized grouping: the snapshot and coefficients it was computed for
/// (kept to confirm fingerprint hits) plus the result.
#[derive(Debug)]
struct CachedGrouping {
    snapshot: ClusterSnapshot,
    coeffs: ProfiledCoefficients,
    grouping: Arc<GroupingResult>,
}

impl CachedGrouping {
    fn matches(&self, snapshot: &ClusterSnapshot, coeffs: &ProfiledCoefficients) -> bool {
        self.snapshot == *snapshot && self.coeffs == *coeffs
    }
}

/// Shared read-only memo cache for [`group_cluster`] results, keyed by
/// (snapshot fingerprint, max TP degree, straggler threshold bits, splitting
/// flag).  Entries are immutable once inserted; cloning the cache shares the
/// underlying storage, so every clone of a `Planner` (and every worker thread)
/// sees the same memo.
#[derive(Debug, Clone)]
pub struct GroupingCache {
    entries: Arc<RankedMutex<GroupingMap>>,
}

impl Default for GroupingCache {
    fn default() -> Self {
        Self {
            entries: Arc::new(RankedMutex::new(
                lock_rank::GROUPING_CACHE_ENTRIES,
                "GroupingCache.entries",
                HashMap::new(),
            )),
        }
    }
}

/// Memo key: (snapshot fingerprint, max TP degree, straggler threshold bits,
/// splitting flag).
type GroupingKey = (u64, u32, u64, bool);
type GroupingMap = HashMap<GroupingKey, Arc<CachedGrouping>>;

/// Entries beyond this count flush the cache: re-planning traces revisit only
/// a handful of recent snapshots, so an unbounded memo would just leak.
const CACHE_CAPACITY: usize = 256;

impl GroupingCache {
    /// Fetch the grouping for (snapshot, `max_tp`), computing and memoizing it
    /// on a miss.  `fingerprint` is `snapshot.fingerprint()`, which a planner
    /// takes once per plan rather than once per TP degree.  Hits are
    /// confirmed with a full equality check of the snapshot *and* the
    /// coefficients (grouping decisions depend on both), so fingerprint
    /// collisions and planners sharing one memo across different cost models
    /// degrade to recomputation, never wrong results.
    pub fn get_or_compute(
        &self,
        snapshot: &ClusterSnapshot,
        fingerprint: u64,
        coeffs: &ProfiledCoefficients,
        max_tp: u32,
        straggler_threshold: f64,
        enable_splitting: bool,
    ) -> Arc<GroupingResult> {
        let key = (
            fingerprint,
            max_tp,
            straggler_threshold.to_bits(),
            enable_splitting,
        );
        if let Some(hit) = self.entries.lock().get(&key) {
            if hit.matches(snapshot, coeffs) {
                return Arc::clone(&hit.grouping);
            }
        }
        // Compute outside the lock so concurrent misses on different TP
        // degrees proceed in parallel.
        let grouping = Arc::new(group_cluster(
            snapshot,
            coeffs,
            max_tp,
            1,
            straggler_threshold,
            enable_splitting,
        ));
        let mut entries = self.entries.lock();
        if entries.len() >= CACHE_CAPACITY {
            entries.clear();
        }
        match entries.get(&key) {
            // A racing worker inserted the same key meanwhile; reuse its
            // result only if it was computed for the same inputs.
            Some(existing) if existing.matches(snapshot, coeffs) => Arc::clone(&existing.grouping),
            // Empty slot, a fingerprint collision, or a stale entry for other
            // coefficients: our freshly computed grouping takes the slot and
            // is returned, so the caller never sees another input's result.
            _ => {
                entries.insert(
                    key,
                    Arc::new(CachedGrouping {
                        snapshot: snapshot.clone(),
                        coeffs: coeffs.clone(),
                        grouping: Arc::clone(&grouping),
                    }),
                );
                grouping
            }
        }
    }

    /// Number of memoized groupings (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluate `num_items` independent tasks on `workers` scoped threads and
/// return the results in item order.
///
/// Work is distributed through a single atomic cursor, so threads self-balance
/// over items of uneven cost.  Results land in per-item slots; completion
/// order is irrelevant to the caller, which is what keeps the planner's
/// reduction deterministic.  With `workers <= 1` (or one item) the tasks run
/// inline on the calling thread — the serial reference path.
pub fn fan_out<T, F>(num_items: usize, workers: usize, eval: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || num_items <= 1 {
        return (0..num_items).map(eval).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..num_items).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(num_items) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= num_items {
                    break;
                }
                // Each slot is set exactly once: indices are handed out
                // uniquely by the cursor.
                let _ = slots[i].set(eval(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index was claimed"))
        .collect()
}

// ---------------------------------------------------------------------------
// RankedMutex: the workspace's only lock type, with a debug-mode lock-rank
// runtime checker.
//
// Every lock is built with a rank from `lock_rank` (`clippy::disallowed_types`
// rejects a raw `Mutex` or `RwLock` anywhere else in core, service and
// runtime).  In debug builds each thread records its acquisition stack;
// taking a lock whose rank is not strictly greater than the rank on top of
// the stack panics immediately, turning a potential deadlock into a
// deterministic test failure.  Release builds compile the checks out
// entirely.
// ---------------------------------------------------------------------------

/// The workspace lock order: the rank of every [`RankedMutex`].  A thread
/// may only acquire locks in strictly increasing rank while it holds others.
/// Ranks are spaced by 10 so new locks can slot in without a renumber.
/// Every `Condvar` pairs with the mutex its wait loop re-acquires through
/// [`RankedMutex::wait`].
pub mod lock_rank {
    /// Admission gate: outermost — held while blocking on capacity (its
    /// `freed` condvar waits on it).
    pub const ADMISSION_GATE_STATE: u32 = 10;
    /// Request coalescer: the in-flight table, then each slot's result
    /// (whose `ready` condvar waits on it).
    pub const IN_FLIGHT_TABLE_SLOTS: u32 = 20;
    /// See [`IN_FLIGHT_TABLE_SLOTS`].
    pub const IN_FLIGHT_RESULT: u32 = 30;
    /// Plan cache shards (leaf for the serving path).
    pub const SHARDED_PLAN_CACHE_SHARDS: u32 = 40;
    /// Backend registry (constructor table; short critical sections).
    pub const BACKEND_REGISTRY_CTORS: u32 = 50;
    /// Metrics stripes (leaf; never held across another acquisition).
    pub const METRICS_RECORDER_LATENCIES: u32 = 60;
    /// Server connection accounting (its `freed` condvar waits on it).
    pub const CONN_SLOTS_LIVE: u32 = 70;
    /// Client-side state: the per-tenant L1 cache, then the connection.
    pub const L1_CACHE_INNER: u32 = 80;
    /// See [`L1_CACHE_INNER`].
    pub const PLAN_CLIENT_STREAM: u32 = 90;
    /// Core planner caches (leaf-level memoization).
    pub const GROUPING_CACHE_ENTRIES: u32 = 100;
    /// See [`GROUPING_CACHE_ENTRIES`].
    pub const CANDIDATE_MEMO_ENTRIES: u32 = 110;
}

#[cfg(debug_assertions)]
thread_local! {
    /// Stack of (rank, name) for every `RankedMutex` this thread holds.
    static HELD_RANKS: std::cell::RefCell<Vec<(u32, &'static str)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(debug_assertions)]
fn check_and_push_rank(rank: u32, name: &'static str) {
    HELD_RANKS.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(&(top_rank, top_name)) = held.last() {
            assert!(
                top_rank < rank,
                "lock-rank violation: acquiring `{name}` (rank {rank}) while holding \
                 `{top_name}` (rank {top_rank}); ranks must strictly increase \
                 (see `malleus_core::parallel::lock_rank`)"
            );
        }
        held.push((rank, name));
    });
}

#[cfg(debug_assertions)]
fn pop_rank(rank: u32, name: &'static str) {
    HELD_RANKS.with(|held| {
        let mut held = held.borrow_mut();
        // Guards may be released out of LIFO order (that is legal); remove
        // the most recent matching entry rather than blindly popping.
        if let Some(i) = held.iter().rposition(|&(r, n)| r == rank && n == name) {
            held.remove(i);
        }
    });
}

/// A `Mutex` that participates in the workspace lock ranking.
///
/// `lock()` recovers from poisoning and, in debug builds only, panics when
/// acquired out of rank order.  Recovery is sound for every current user:
/// each critical section mutates its state with plain assignments and
/// collection ops that cannot be observed half-applied, and the planner
/// memos confirm every hit by full equality.  A lock whose state a panic can
/// leave torn (the client connection mid-frame) checks
/// [`RankedMutex::is_poisoned`] while holding the guard and fails closed.
/// Condvar interaction goes through [`RankedMutex::wait`] /
/// [`RankedMutex::wait_timeout`], which model the wait as a release +
/// rank-checked reacquisition — exactly what the OS does.
#[derive(Debug)]
pub struct RankedMutex<T> {
    /// Read only by the debug-build rank checker.
    #[cfg_attr(
        not(debug_assertions),
        expect(dead_code, reason = "release builds compile the rank checker out")
    )]
    rank: u32,
    name: &'static str,
    #[expect(
        clippy::disallowed_types,
        reason = "the one raw lock behind RankedMutex"
    )]
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// `rank` is the lock's [`lock_rank`] constant; `name` (`"Struct.field"`)
    /// labels it in rank-violation panics.
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            #[expect(
                clippy::disallowed_types,
                reason = "the one raw lock behind RankedMutex"
            )]
            inner: Mutex::new(value),
        }
    }

    /// Acquire, recovering from poisoning.  Panics in debug builds if the
    /// calling thread already holds a lock of equal or greater rank.
    pub fn lock(&self) -> RankedGuard<'_, T> {
        #[cfg(debug_assertions)]
        check_and_push_rank(self.rank, self.name);
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        RankedGuard {
            lock: self,
            guard: Some(guard),
        }
    }

    /// Whether a holder panicked while holding the lock.  Check it while
    /// holding the guard to fail closed on state a panic may have torn.
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Condvar wait: releases the lock (popping the rank stack), parks on
    /// `condvar`, and re-acquires with a fresh rank check on wake.
    pub fn wait<'a>(&'a self, condvar: &Condvar, guard: RankedGuard<'a, T>) -> RankedGuard<'a, T> {
        let inner = guard.release_for_wait(self);
        let inner = condvar
            .wait(inner)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.adopt(inner)
    }

    /// [`wait`](Self::wait) with a timeout; the boolean is `true` when the
    /// wait timed out.
    pub fn wait_timeout<'a>(
        &'a self,
        condvar: &Condvar,
        guard: RankedGuard<'a, T>,
        timeout: Duration,
    ) -> (RankedGuard<'a, T>, bool) {
        let inner = guard.release_for_wait(self);
        let (inner, result) = condvar
            .wait_timeout(inner, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (self.adopt(inner), result.timed_out())
    }

    /// Wrap a bare guard re-acquired after a condvar wait, re-running the
    /// rank check.
    fn adopt<'a>(&'a self, guard: std::sync::MutexGuard<'a, T>) -> RankedGuard<'a, T> {
        #[cfg(debug_assertions)]
        check_and_push_rank(self.rank, self.name);
        RankedGuard {
            lock: self,
            guard: Some(guard),
        }
    }
}

/// RAII guard for a [`RankedMutex`]; releasing it pops the thread's rank
/// stack in debug builds.
#[derive(Debug)]
pub struct RankedGuard<'a, T> {
    lock: &'a RankedMutex<T>,
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<'a, T> RankedGuard<'a, T> {
    /// Hand the inner guard to a condvar wait, popping the rank stack (the
    /// mutex is genuinely unlocked while the thread is parked).
    fn release_for_wait(mut self, owner: &RankedMutex<T>) -> std::sync::MutexGuard<'a, T> {
        assert!(
            std::ptr::eq(self.lock, owner),
            "guard for `{}` passed to wait on `{}`",
            self.lock.name,
            owner.name
        );
        #[cfg(debug_assertions)]
        pop_rank(self.lock.rank, self.lock.name);
        self.guard.take().expect("guard present until released")
    }
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until released")
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until released")
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.take().is_some() {
            #[cfg(debug_assertions)]
            pop_rank(self.lock.rank, self.lock.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_model::{HardwareParams, ModelSpec};

    #[test]
    fn fan_out_returns_results_in_item_order() {
        for workers in [1, 2, 4, 8] {
            let out = fan_out(37, workers, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_handles_empty_and_single_item() {
        assert_eq!(fan_out(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn fan_out_balances_uneven_work() {
        // Tasks of wildly different cost still come back correctly indexed.
        let out = fan_out(16, 4, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn parallelism_resolves_to_at_least_one_worker() {
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert_eq!(Parallelism::Fixed(3).workers(), 3);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn grouping_cache_hits_return_equal_results() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let mut cluster = Cluster::homogeneous(2, 8);
        cluster.set_rate(GpuId(3), 5.42);
        let snapshot = cluster.snapshot();
        let fp = snapshot.fingerprint();
        let cache = GroupingCache::default();
        let a = cache.get_or_compute(&snapshot, fp, &coeffs, 8, 1.05, true);
        assert_eq!(cache.len(), 1);
        let b = cache.get_or_compute(&snapshot, fp, &coeffs, 8, 1.05, true);
        assert_eq!(*a, *b);
        let direct = group_cluster(&snapshot, &coeffs, 8, 1, 1.05, true);
        assert_eq!(*a, direct);
        // A different TP degree is a distinct entry.
        let c = cache.get_or_compute(&snapshot, fp, &coeffs, 4, 1.05, true);
        assert_eq!(cache.len(), 2);
        assert_ne!(*a, *c);
    }

    #[test]
    fn grouping_cache_never_serves_another_models_grouping() {
        // One memo queried under two coefficient sets: each answer must match
        // a direct computation with the coefficients actually passed, even
        // though the (fingerprint, tp, threshold, splitting) key is identical.
        let coeffs_32b =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let coeffs_70b =
            ProfiledCoefficients::derive(ModelSpec::llama2_70b(), HardwareParams::a800_cluster());
        let mut cluster = Cluster::homogeneous(1, 8);
        cluster.set_rate(GpuId(1), 2.57);
        cluster.set_rate(GpuId(2), 1.3);
        let snapshot = cluster.snapshot();
        let fp = snapshot.fingerprint();
        let cache = GroupingCache::default();
        let a = cache.get_or_compute(&snapshot, fp, &coeffs_32b, 8, 1.05, true);
        let b = cache.get_or_compute(&snapshot, fp, &coeffs_70b, 8, 1.05, true);
        assert_eq!(*a, group_cluster(&snapshot, &coeffs_32b, 8, 1, 1.05, true));
        assert_eq!(*b, group_cluster(&snapshot, &coeffs_70b, 8, 1, 1.05, true));
    }

    #[test]
    fn grouping_cache_distinguishes_snapshots() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let cache = GroupingCache::default();
        let group = |snapshot: &ClusterSnapshot, fingerprint: u64| {
            cache.get_or_compute(snapshot, fingerprint, &coeffs, 8, 1.05, true)
        };
        let mut cluster = Cluster::homogeneous(2, 8);
        let healthy = cluster.snapshot();
        let a = group(&healthy, healthy.fingerprint());
        cluster.set_rate(GpuId(0), 12.53);
        let straggling = cluster.snapshot();
        let b = group(&straggling, straggling.fingerprint());
        assert_ne!(*a, *b);
        assert_eq!(cache.len(), 2);
        // A hit is confirmed against the snapshot itself, so even a
        // fingerprint that belongs to another snapshot never serves that
        // snapshot's grouping.
        assert_eq!(*group(&straggling, healthy.fingerprint()), *b);
    }

    #[test]
    fn ranked_mutex_allows_increasing_ranks() {
        let low = RankedMutex::new(10, "test.low", 1u32);
        let high = RankedMutex::new(20, "test.high", 2u32);
        let a = low.lock();
        let b = high.lock();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn ranked_mutex_panics_on_inverted_acquisition() {
        let result = std::panic::catch_unwind(|| {
            let low = RankedMutex::new(10, "test.low", ());
            let high = RankedMutex::new(20, "test.high", ());
            let _b = high.lock();
            let _a = low.lock(); // rank 10 while holding rank 20: inversion
        });
        assert!(result.is_err(), "inverted acquisition must panic in debug");
        // The unwinding must have cleaned the thread-local stack: a fresh
        // well-ordered acquisition on this thread still works.
        let low = RankedMutex::new(10, "test.low", ());
        let _a = low.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn ranked_mutex_panics_on_same_rank_reentry() {
        let result = std::panic::catch_unwind(|| {
            let a = RankedMutex::new(10, "test.a", ());
            let b = RankedMutex::new(10, "test.b", ());
            let _ga = a.lock();
            let _gb = b.lock(); // equal rank: would deadlock under contention
        });
        assert!(result.is_err(), "equal-rank nesting must panic in debug");
    }

    #[test]
    fn ranked_mutex_wait_timeout_releases_and_reacquires() {
        let lock = Arc::new(RankedMutex::new(10, "test.waited", 0u32));
        let cv = Arc::new(Condvar::new());
        let guard = lock.lock();
        let (guard, timed_out) = lock.wait_timeout(&cv, guard, Duration::from_millis(5));
        assert!(timed_out);
        drop(guard);

        // A notified wait observes the other thread's mutation: the lock was
        // genuinely released while parked.
        let waiter = {
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            std::thread::spawn(move || {
                let mut guard = lock.lock();
                while *guard == 0 {
                    guard = lock.wait(&cv, guard);
                }
                *guard
            })
        };
        // Spin until the waiter holds/parks, then publish.
        loop {
            let mut guard = lock.lock();
            *guard = 7;
            drop(guard);
            cv.notify_all();
            if waiter.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(waiter.join().expect("waiter"), 7);
    }

    #[test]
    fn ranked_mutex_recovers_from_poison() {
        let lock = Arc::new(RankedMutex::new(10, "test.poisoned", 5u32));
        let lock2 = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _guard = lock2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*lock.lock(), 5, "poisoned lock recovers to valid state");
    }
}

//! `malleus-solver` — small exact optimizers used by the Malleus planner.
//!
//! The Malleus paper (SIGMOD 2025) formulates its parallelization planning as a
//! bi-level optimization problem whose lower level decomposes into integer
//! linear programs (Eq. (2) layer assignment, Eq. (3) data assignment) and whose
//! upper level contains a small mixed-integer non-linear program (Eq. (4),
//! pipeline division).  The original implementation relies on PuLP and Pyomo;
//! this crate provides self-contained exact solvers tailored to those problem
//! shapes so the reproduction has no external solver dependency.
//!
//! The three problem families are:
//!
//! * **Min-max allocation** ([`minmax::solve_minmax_allocation`]): distribute an
//!   integer `total` across weighted slots, minimizing the largest
//!   `weight * amount`, subject to per-slot capacities.  Both the layer ILP and
//!   the data ILP are instances of this problem.
//! * **Pipeline division** ([`division::divide_pipelines`]): split a pool of
//!   "fast" and "slow" tensor-parallel groups across `DP` pipelines together
//!   with the micro-batch counts, minimizing the slowest pipeline.
//! * **Continuous relaxations** ([`relax`]): the harmonic-capacity estimates
//!   used by Theorem 2 to rank grouping results in constant time.
//!
//! The division search is the planner's hot path and is implemented
//! allocation-free over a reusable scratch arena with incremental enumeration
//! that skips permutations of bitwise-tied slow groups and, while the
//! descriptor memo below is on, relabellings of the pipelines (restarting
//! in counter order after a candidate that memo declines to record), bound
//! pruning, and two per-walk objective memos: one keyed on the multiset of
//! per-pipeline slot descriptors (the class ids of a pipeline's slow groups
//! in ascending order), consulted before the fast-group greedy runs, and
//! behind it one keyed on the weight multiset (the min-max objective is the
//! exact float optimum, so slot order cannot change it).  Together they keep
//! at most 768 KiB per thread between walks.  A miss in both is scored as
//! an order statistic of the weights' loads, without running the allocator.
//! A thread also keeps, per walk shape (`dp` and the slow groups' class
//! ids), the assignments its first complete relabelling walk scored past
//! the descriptor memo; later walks of that shape score only those, at
//! most 64 KiB of lists per thread.
//! It is serial and spawns no threads: the planner runs each division on the
//! worker of its candidate.  The [`reference`](mod@reference) module keeps
//! the original straightforward implementations frozen as the byte-identity
//! oracle for those optimizations.

// Floats are compared bitwise (`to_bits`), so plans stay byte-identical.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod division;
pub mod minmax;
pub mod reference;
pub mod relax;

pub use division::{divide_pipelines, Division, DivisionProblem};
pub use minmax::{
    solve_minmax_allocation, solve_minmax_allocation_into, AllocationError, AllocationResult,
};
pub use relax::{harmonic_capacity, relaxed_minmax_objective, theorem2_ratio};

/// Counting global allocator for the crate's unit tests: verifies that the
/// steady-state division search performs zero per-candidate heap allocations.
/// Only compiled into the test binary.
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub struct CountingAllocator;

    // The thread-locals are const-initialized so reading them never allocates
    // (a lazily-initialized TLS slot would recurse into the allocator).
    // `try_with` guards against access during thread teardown.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ENABLED.try_with(|e| {
                if e.get() {
                    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
                }
            });
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ENABLED.try_with(|e| {
                if e.get() {
                    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
                }
            });
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Run `f` with allocation counting enabled on this thread; returns the
    /// number of heap allocations (including reallocations) it performed.
    pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
        ALLOCS.with(|c| c.set(0));
        ENABLED.with(|e| e.set(true));
        let result = f();
        ENABLED.with(|e| e.set(false));
        let allocs = ALLOCS.with(|c| c.get());
        (allocs, result)
    }
}

//! Pipeline-division solver (Eq. (4) of the paper).
//!
//! After GPU grouping, the planner must split the tensor-parallel groups across
//! `DP` training pipelines and decide how many micro-batches each pipeline
//! receives.  Most groups share the majority straggling rate `ŷ` ("fast"
//! groups) while a handful of groups are slower ("slow" groups).  The paper
//! formulates the division as a MINLP over
//!
//! * `h_i ∈ ℕ` — number of fast groups in pipeline `i`,
//! * `q_{i,k} ∈ {0,1}` — whether slow group `k` lands in pipeline `i`,
//! * `m_i ∈ ℕ` — micro-batches of pipeline `i`,
//!
//! minimizing `max_i m_i / W_i` where `W_i = h_i / ŷ + Σ_k q_{i,k} / y_k` is the
//! relaxed per-pipeline throughput (harmonic capacity of its groups).
//!
//! The solver enumerates slow-group assignments exactly when the search space
//! is small (the common case: at most a handful of slow groups) and falls back
//! to a deterministic local search otherwise (used by the 1024-GPU scalability
//! experiment of Appendix A.2).  Fast groups are then distributed greedily to
//! balance the capacities, and the winner's micro-batches are split with the
//! exact min-max allocator.
//!
//! # Hot-path structure
//!
//! This is where the planner spends essentially all of its time (the smoke
//! profile attributes >99% of planning to this search), so the inner loop is
//! engineered around nine ideas, each proven byte-identical to the frozen
//! seed implementation in [`crate::reference`]:
//!
//! * **Scratch arena** (`DivisionScratch`): every buffer the per-candidate
//!   scoring needs (counts, capacities, weights, micro-batch amounts) lives in
//!   flat reusable vectors sized by `dp`/`ms`, so the steady-state loop
//!   performs zero heap allocations.
//! * **Incremental enumeration**: advancing the mixed-radix assignment counter
//!   updates `slow_counts` exactly (±1) and recomputes the slow capacity of
//!   only the touched pipelines — by re-folding their `1/y_k` contributions in
//!   ascending-`k` order, which reproduces the seed's per-slot summation order
//!   bit for bit.
//! * **Canonical walk over tied slow groups**: permuting the digits inside a
//!   contiguous run of slow groups whose units `1/y_k` are bitwise equal
//!   leaves every pipeline's ascending-`k` fold of units the same sequence of
//!   values, so counts, capacities, the greedy, the weights, the allocation
//!   and the objective bits are all unchanged.  The walk scores only the
//!   first such permutation in counter order — the one whose digits are
//!   non-increasing in `k` inside every run.  The others could never pass the
//!   strict-improvement test after it, so the fold picks the seed's winner.
//!   Without adjacent ties this is the plain counter.
//! * **Bound pruning**: the relaxed optimum `M / Σ_i W_i` is an
//!   assignment-invariant lower bound; once the incumbent objective reaches
//!   it (modulo a margin strictly larger than the float noise), no remaining
//!   candidate can pass the strict-improvement test, so enumeration stops
//!   early.
//! * **Objective memo** (`ObjectiveMemo`): within one walk `M` is fixed,
//!   and the min-max objective of weights that are all finite and positive
//!   is a function of their multiset.  The allocator's last loop stops only
//!   when no unit can leave the bottleneck slot `j` for another slot `k`
//!   with `fl(w_k·(a_k + 1))` below the maximum `V`; an allocation with a
//!   smaller maximum would need `b_j < a_j`, hence `b_k >= a_k + 1` for some
//!   `k`, and `fl(w·x)` is monotone in `x`, so `fl(w_k·b_k) >= V`.  The
//!   returned bits are therefore the float optimum of `max_j fl(w_j·a_j)`
//!   over `Σ a_j = M`, which ignores slot order.  The walk reads nothing
//!   but objective bits, so a table from sorted weight bits to objective
//!   bits serves every repeat: a drift replan's twelve walks score ~24k
//!   candidates with ~98% repeats.  The memo is reset when a search starts
//!   (its key omits `M`), and `rebuild`, which needs the amounts, bypasses
//!   it.
//! * **Descriptor memo** (a second `ObjectiveMemo`, consulted before the
//!   greedy runs): each distinct bit pattern of a unit `1/y_k` gets a class
//!   id from 1, and a pipeline's *slot descriptor* packs the class ids of
//!   its slow groups in ascending `k` into one `u64`, maintained in the
//!   same loop that re-folds `slow_capacity`.  A pipeline's state is its
//!   (descriptor, fast count), and the weights follow from the multiset of
//!   states:
//!   1. its greedy level is `fold(units) + need·(1/ŷ)`, plus `1/ŷ` per
//!      unit the greedy gives it, and `need` depends only on its count;
//!   2. its capacity is `fast_prefix[f]` followed by its units in
//!      ascending `k`;
//!   3. the min-groups infeasibility test depends only on the multiset of
//!      counts;
//!   4. if every greedy pick among bitwise-equal levels picks among
//!      pipelines of one state, each pick turns the state multiset into
//!      the same successor whichever index wins, so induction over the
//!      picks carries the state multiset, and with it the weight multiset,
//!      from one candidate to any candidate with the same descriptor
//!      multiset (where the picks meet the same levels, so no ties
//!      either);
//!   5. the packing is unique because class ids are never 0: the highest
//!      field is non-zero, so the bit length fixes the number of fields.
//!
//!   The objective memo's argument then gives equal objective bits, so a
//!   table from sorted descriptors (one word per pipeline) to objective
//!   bits skips the greedy, the folds and the scoring: in a replan-drift
//!   run ~97% of the scorings that reach it are hits.  `fill_weights`
//!   reports a pick among equal levels held by different states, and such
//!   a candidate is scored but not recorded.  The key cannot be
//!   per-pipeline `(count, slow_capacity)`: equal slow sums of differently
//!   ordered units can still fold to different capacity bits after the
//!   fast prefix.  A walk whose descriptors could exceed 64 bits (`ms ×
//!   bits > 64`) keeps this memo empty; misses, like such walks, go on to
//!   the objective memo.
//! * **Relabelling walk** (only while the descriptor memo is on): the `dp`
//!   pipelines are interchangeable, and relabelling them, like permuting a
//!   tied run, keeps the descriptor multiset.  Counter order compares
//!   assignments from the top digit down, so the counter-first member of
//!   each orbit under relabelling × tied-run permutation is tie-canonical
//!   and *restricted-growth* read from the top digit: the top digit is 0,
//!   and no digit exceeds 1 + the largest label above it (else relabelling
//!   the pipelines in order of first appearance, or sorting a tied run,
//!   gives an earlier member).  `advance` keeps a per-digit ceiling and
//!   visits only such assignments: 486 of the TP-4 S3 walk's 6,400, 375 of
//!   TP-8's 1,344, and 15 of the 4,096 of `dp = 8` over four untied groups.
//!   Every skipped assignment comes after a visited member of its orbit,
//!   whose scoring had one of three outcomes:
//!   1. recorded in, or served by, the descriptor memo: the memo's argument
//!      gives every member of the orbit the same objective bits, so the
//!      skipped one could never pass `obj < best − 1e-12`;
//!   2. infeasible (`fill_weights` returns `None`), which holds for the
//!      whole orbit: the min-groups test reads the count multiset, and a
//!      capacity is zero exactly when more pipelines sit at greedy level 0
//!      (no required fast group, only zero units) than there are fast
//!      groups left to hand out, or, when `1/ŷ` is 0, when some pipeline
//!      holds only zero units, both functions of the descriptor multiset;
//!   3. declined: a reported greedy tie, or weights not all finite and
//!      positive, so the objective may depend on pipeline indices.  The
//!      walk then restarts from the all-zero assignment in counter order
//!      and folds afresh; both memos stay, as their entries hold for the
//!      whole walk.
//!
//!   Walks with the memo off keep the counter order, since they neither
//!   look for ties nor tell pipeline states apart.  Only a white-box test
//!   guards the restart: a tie between different states leaves the
//!   multiset of greedy levels unchanged, so members of a tied orbit differ
//!   only by rounding, far under the fold's 1e-12 margin, and a walk
//!   without the restart still matches the reference on every sweep.
//! * **Order-statistic objective** (the weight memo's miss path): for
//!   weights that are all finite and positive, the allocator returns the
//!   float optimum of `max_j fl(w_j·a_j)` over `Σ a_j = M` (the objective
//!   memo's argument), and that optimum is the `M`-th smallest element of
//!   the multiset `{fl(w_j·k) : j, k >= 1}`:
//!   1. lower bound: a split's `M` loads `fl(w_j·k)`, `k <= a_j`, are
//!      elements of the multiset, and none is larger than its maximum;
//!   2. attained: `fl(w·k)` is nondecreasing in `k`, so the `M` smallest
//!      elements form a prefix of each slot's sequence, which is a split.
//!
//!   `minmax_objective` (in `minmax.rs`) computes it on two `dp`-long
//!   buffers of the scratch.  With `t = fl(M / Σ_j 1/w_j)·(1 − 1e-9)`, it
//!   counts each slot's loads below `t` exactly, starting at `⌊t/w_j⌋`,
//!   stepping down while `fl(w_j·k) >= t` and up while `fl(w_j·(k + 1)) <
//!   t`; then it takes the slot with the smallest next load until `M`
//!   loads are placed, and the last load taken is the objective.  If `t`
//!   is at most the optimum, every counted load is below it, so fewer than
//!   `M` are counted; a count of `M` or more therefore sets every count
//!   back to 0, and exactness never rests on the margin.  The merge takes
//!   about `dp + 1` steps, whatever `M` is.  The allocator still serves
//!   `rebuild`, which needs the amounts, and candidates whose weights are
//!   not all finite and positive (the declined path); debug builds also
//!   check every order statistic against it, bit for bit.
//! * **Replayed walks** (`ReplayCache`, per thread): the relabelling walk's
//!   order (per-digit ceilings and tied runs) and every slot descriptor
//!   depend only on the walk's *shape*, `dp` and the class-id sequence of
//!   the slow groups: adjacent equal ids are exactly the tied runs,
//!   `class_bits` follows from the largest id and `ms`, and ids are
//!   numbered by first appearance, so the sequence is canonical.  A
//!   relabelling walk that visits every assignment, with no restart and no
//!   bound exit, records the list `L` of the assignments the descriptor
//!   memo did not serve, in visit order, and every later walk of its shape
//!   (other rates, `M` or fast count) scores only `L`, in order, with the
//!   same fold, bound exit and restart.  An assignment `X` not in `L` was
//!   served, so an earlier member `R` of `L` has its descriptor multiset
//!   and was scored feasible and undeclined.  On the later walk `R` has one
//!   of three outcomes:
//!   1. scored and undeclined: the descriptor memo's argument gives `X`
//!      `R`'s objective bits, which cannot pass `obj < best − 1e-12`;
//!   2. infeasible: then so is `X` (outcome 2 of the relabelling walk);
//!   3. declined: the walk restarts at `R` in counter order, as the
//!      unreplayed walk does, and never reaches `X`.
//!
//!   So the fold, the bound exit and the restart point all match the
//!   unreplayed walk, and `rebuild` gets the same `best_assignment`.
//!   Members infeasible on the recording walk may appear more than once,
//!   since their repeats were not served; scoring them again is harmless.
//!   A replay scores through the miss path (greedy, weight memo, order
//!   statistic) and never reads or writes the descriptor memo; a restart
//!   walks the counter through it, as on any walk.  The first walk of a
//!   shape pays one append per miss, and a warm drift walk scores 158
//!   (TP-4) or 73 (TP-8) members instead of visiting 486 or 375
//!   assignments.  Debug builds re-derive every replayed walk by the full
//!   relabelling walk, through the same loop, and assert the same winner
//!   and objective bits.
//!
//! A thread keeps both memos' buffers between walks, at most 384 KiB each
//! (see `MEMO_MAX_WORDS`), 768 KiB in all, and its replay lists, at most
//! 64 KiB of lists and keys (see `REPLAY_MAX_BYTES`), plus as much for the
//! list being recorded.  The lists outlive the walk, but only the thread
//! that recorded one replays it.  A plan runs on its caller's thread, so a
//! later plan on that thread replays the lists earlier plans recorded.
//!
//! The search is serial, and runs on the thread of the plan that asks for
//! it.

use crate::minmax::{minmax_objective, solve_minmax_allocation_into};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;

/// Input description of a pipeline-division problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivisionProblem {
    /// Number of pipelines (the data-parallel degree).
    pub dp: usize,
    /// Number of "fast" (majority-rate) groups available.
    pub fast_count: usize,
    /// The majority group straggling rate `ŷ`.
    pub fast_rate: f64,
    /// Straggling rates of the slow groups.
    pub slow_rates: Vec<f64>,
    /// Total number of micro-batches to distribute (`B / b`).
    pub num_micro_batches: u64,
    /// Minimum number of groups each pipeline must receive (each pipeline needs
    /// at least one stage; memory considerations can raise this bound).
    pub min_groups_per_pipeline: usize,
    /// Upper bound on enumeration work before switching to local search.
    pub exact_enumeration_limit: u64,
}

impl DivisionProblem {
    /// Convenience constructor with sensible defaults for the enumeration limit
    /// and the one-group-per-pipeline lower bound.
    pub fn new(
        dp: usize,
        fast_count: usize,
        fast_rate: f64,
        slow_rates: Vec<f64>,
        num_micro_batches: u64,
    ) -> Self {
        Self {
            dp,
            fast_count,
            fast_rate,
            slow_rates,
            num_micro_batches,
            min_groups_per_pipeline: 1,
            exact_enumeration_limit: 200_000,
        }
    }

    fn total_groups(&self) -> usize {
        self.fast_count + self.slow_rates.len()
    }
}

/// A solution to the pipeline-division problem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Division {
    /// Number of fast groups assigned to each pipeline.
    pub fast_per_pipeline: Vec<usize>,
    /// For each slow group, the index of the pipeline it is assigned to.
    pub slow_assignment: Vec<usize>,
    /// Micro-batches assigned to each pipeline.
    pub micro_batches: Vec<u64>,
    /// Relaxed per-pipeline capacities `W_i` (for diagnostics).
    pub capacities: Vec<f64>,
    /// Objective value `max_i m_i / W_i` (relative units; multiply by
    /// `L * τ(b)` outside to obtain a time).
    pub objective: f64,
}

impl PartialEq for Division {
    /// Bitwise equality over every field: the byte-identity oracles compare
    /// divisions, and float `==` would call +0.0 and -0.0 equal and NaN
    /// unequal to itself.  `clippy::float_cmp` skips `eq` bodies, so
    /// `division_equality_is_bitwise` guards this one.
    fn eq(&self, other: &Self) -> bool {
        self.fast_per_pipeline == other.fast_per_pipeline
            && self.slow_assignment == other.slow_assignment
            && self.micro_batches == other.micro_batches
            && self.capacities.len() == other.capacities.len()
            && self
                .capacities
                .iter()
                .zip(&other.capacities)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.objective.to_bits() == other.objective.to_bits()
    }
}

impl Division {
    /// Groups (fast + slow counts) per pipeline.
    pub fn groups_per_pipeline(&self) -> Vec<usize> {
        let mut counts = self.fast_per_pipeline.clone();
        for &p in &self.slow_assignment {
            counts[p] += 1;
        }
        counts
    }
}

/// Errors from the division solver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DivisionError {
    /// `dp` was zero.
    ZeroPipelines,
    /// There are fewer groups than `dp * min_groups_per_pipeline`.
    NotEnoughGroups { groups: usize, required: usize },
}

impl std::fmt::Display for DivisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivisionError::ZeroPipelines => write!(f, "cannot divide groups into zero pipelines"),
            DivisionError::NotEnoughGroups { groups, required } => write!(
                f,
                "only {groups} groups available but {required} are required"
            ),
        }
    }
}

impl std::error::Error for DivisionError {}

/// Reusable flat buffers for the division search.
///
/// All vectors are sized by `dp`, `ms` (= number of slow groups) or
/// `fast_count` in [`DivisionScratch::prepare`], and the objective memo
/// keeps the capacity of the largest walk so far; after a warm-up call on a
/// thread, scoring a candidate touches no heap at all.
#[derive(Debug, Default)]
struct DivisionScratch {
    /// Current slow-group assignment (the mixed-radix counter), length `ms`.
    assignment: Vec<usize>,
    /// Best assignment found so far, length `ms`.
    best_assignment: Vec<usize>,
    /// Slow groups per pipeline for `assignment`, length `dp`.
    slow_counts: Vec<usize>,
    /// Σ 1/y_k of the slow groups in each pipeline (seed summation order),
    /// length `dp`.
    slow_capacity: Vec<f64>,
    /// Fast groups per pipeline for the current candidate, length `dp`.
    fast: Vec<usize>,
    /// Working capacities for the greedy fast-group distribution, length `dp`.
    greedy_capacity: Vec<f64>,
    /// Final harmonic capacities `W_i` of the current candidate, length `dp`.
    capacities: Vec<f64>,
    /// Micro-batch weights `1/W_i`, length `dp`.
    weights: Vec<f64>,
    /// Micro-batch amounts from the min-max allocator, length `dp`.
    amounts: Vec<u64>,
    /// Loads counted per pipeline by the order-statistic objective, length
    /// `dp`.
    counts: Vec<u64>,
    /// Each pipeline's next uncounted load in the order-statistic merge,
    /// length `dp`.
    next_load: Vec<f64>,
    /// `fast_prefix[h]` = harmonic capacity of `h` fast groups, computed by the
    /// same repeated addition as `harmonic_capacity`, length `fast_count + 1`.
    fast_prefix: Vec<f64>,
    /// `slow_units[k]` = `1/y_k` when `y_k` is finite and positive, else `0.0`
    /// (adding `+0.0` is bit-identical to the seed's skip), length `ms`.
    slow_units: Vec<f64>,
    /// `tied_to_next[k]`: slow groups `k` and `k + 1` have bitwise-equal
    /// units, so the canonical walk keeps `assignment[k] >= assignment[k +
    /// 1]`; length `ms - 1` (empty when `ms == 0`).
    tied_to_next: Vec<bool>,
    /// `slow_class[k]`: the class id of `slow_units[k]`'s bit pattern,
    /// numbered from 1 in order of first appearance, or 0 for every group
    /// when the descriptor memo is off; length `ms`.
    slow_class: Vec<u64>,
    /// Bits per class id in a descriptor; 0 turns the descriptor memo off.
    class_bits: u32,
    /// Slot descriptor per pipeline: the class ids of its slow groups in
    /// ascending `k`, `class_bits` each; length `dp`.
    descriptors: Vec<u64>,
    /// Whether the walk visits only restricted-growth assignments (see
    /// "Relabelling walk" in the module doc).
    relabelling: bool,
    /// `ceiling[k]`: the largest label digit `k` may take, `dp - 1` on the
    /// counter walk; on the relabelling walk `min(dp - 1, 1 + the largest
    /// label above k)`, and 0 for the top digit; length `ms`.
    ceiling: Vec<usize>,
    /// A candidate scored since the walk started had weights the
    /// descriptor memo declines to record: a reported greedy tie, or
    /// weights not all finite and positive.
    declined: bool,
    /// Whether scoring appends each descriptor-memo miss to `recorded`;
    /// cleared by a restart, a bound exit or a list over
    /// `REPLAY_MAX_BYTES`, so it is still set after a walk exactly when
    /// `recorded` is the walk's whole replay list.
    recording: bool,
    /// The assignments the descriptor memo did not serve on this walk, in
    /// visit order, one byte per digit (a relabelling label is below `ms
    /// <= 64`).
    recorded: Vec<u8>,
    /// Debug builds: a replayed walk's winner, which the full walk must
    /// re-derive; length `ms`.
    #[cfg(debug_assertions)]
    replayed_best: Vec<usize>,
    /// `1/ŷ` when `ŷ` is finite and positive, else `0.0`.
    fast_unit: f64,
    /// Pipelines whose slow capacity must be re-folded after a counter step.
    touched: Vec<usize>,
    /// Dense membership mask for `touched`, length `dp`.
    touched_mask: Vec<bool>,
    /// Slow-group visit order for the local-search seeding, length `ms`.
    order: Vec<usize>,
    /// Objectives already computed in this walk, by descriptor multiset.
    descriptor_memo: ObjectiveMemo,
    /// Objectives already computed in this walk, by weight multiset.
    weight_memo: ObjectiveMemo,
}

/// Most words of keys and objectives one memo holds (256 KiB).  Its index
/// then has at most as many 4-byte slots (128 KiB), so 384 KiB is the most
/// a thread retains per memo between walks, 768 KiB for the two.
const MEMO_MAX_WORDS: usize = 1 << 15;
/// Slots of the memo's index when a walk starts.
const MEMO_INITIAL_SLOTS: usize = 1 << 8;

/// Per-walk objective memo: a sorted multiset of words (a candidate's
/// weight bits or slot descriptors) to the bits of its min-max objective
/// (see "Objective memo" and "Descriptor memo" in the module doc).  Flat
/// open addressing with linear probing; the index doubles at half load, and
/// once the entries fill `MEMO_MAX_WORDS` the memo records nothing more for
/// the rest of the walk.
#[derive(Debug, Default)]
struct ObjectiveMemo {
    /// Words per key: the walk's `dp`.
    width: usize,
    /// Sorted keys, `width` words per entry.
    keys: Vec<u64>,
    /// Objective bits, one per entry.
    objectives: Vec<u64>,
    /// Entry index + 1 per slot, 0 when empty; a power of two in length.
    slots: Vec<u32>,
    /// The current candidate's key.
    key: Vec<u64>,
}

impl ObjectiveMemo {
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.keys.clear();
        self.objectives.clear();
        self.slots.clear();
        self.slots.resize(MEMO_INITIAL_SLOTS, 0);
    }

    /// Make the sorted `words` the current key.
    fn load(&mut self, words: impl Iterator<Item = u64>) {
        self.key.clear();
        self.key.extend(words);
        self.key.sort_unstable();
    }

    /// The slot holding `key`'s entry, or the empty slot where it belongs.
    fn find(&self, key: &[u64]) -> usize {
        let hash = key.iter().fold(0_u64, |h, &word| {
            (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let mask = self.slots.len() - 1;
        let mut i = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[i] as usize {
                0 => return i,
                e if self.keys[(e - 1) * self.width..e * self.width] == *key => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The objective recorded for the current key.
    fn get(&self) -> Option<f64> {
        let e = self.slots[self.find(&self.key)] as usize;
        (e > 0).then(|| f64::from_bits(self.objectives[e - 1]))
    }

    /// Record `objective` for the current key, which must be absent.
    fn insert(&mut self, objective: f64) {
        let entries = self.objectives.len() + 1;
        if entries * (self.width + 1) > MEMO_MAX_WORDS {
            return;
        }
        if 2 * entries > self.slots.len() {
            let len = 2 * self.slots.len();
            self.slots.clear();
            self.slots.resize(len, 0);
            for e in 0..entries - 1 {
                let slot = self.find(&self.keys[e * self.width..(e + 1) * self.width]);
                self.slots[slot] = e as u32 + 1;
            }
        }
        let slot = self.find(&self.key);
        self.slots[slot] = entries as u32;
        self.keys.extend_from_slice(&self.key);
        self.objectives.push(objective.to_bits());
    }
}

/// Most bytes of lists and keys one thread's replay cache holds (64 KiB).
const REPLAY_MAX_BYTES: usize = 1 << 16;

/// Per-thread replay lists (see "Replayed walks" in the module doc): for
/// each walk shape, the assignments its recording walk scored past the
/// descriptor memo, in visit order.  A list whose bytes and key exceed
/// `REPLAY_MAX_BYTES` is not kept, and the cache clears wholesale when the
/// next list would not fit.
#[derive(Debug, Default)]
struct ReplayCache {
    /// Shape key to list, `ms` digits per member.
    lists: HashMap<Box<[u64]>, Box<[u8]>>,
    /// Bytes of the kept lists and keys.
    bytes: usize,
    /// The shape of the current walk: `dp`, then the class ids.
    key: Vec<u64>,
}

impl ReplayCache {
    /// Make `dp` and `classes` the current shape and return its list.
    fn find(&mut self, dp: usize, classes: &[u64]) -> Option<&[u8]> {
        self.key.clear();
        self.key.push(dp as u64);
        self.key.extend_from_slice(classes);
        self.lists.get(self.key.as_slice()).map(|list| &list[..])
    }

    /// Keep `list` for the current shape, if it fits the budget.
    fn keep(&mut self, list: &[u8]) {
        let bytes = list.len() + std::mem::size_of_val(self.key.as_slice());
        if bytes > REPLAY_MAX_BYTES {
            return;
        }
        if self.bytes + bytes > REPLAY_MAX_BYTES {
            self.lists.clear();
            self.bytes = 0;
        }
        self.bytes += bytes;
        self.lists.insert(self.key.as_slice().into(), list.into());
    }
}

thread_local! {
    static SCRATCH: RefCell<DivisionScratch> = RefCell::new(DivisionScratch::default());
    static REPLAYS: RefCell<ReplayCache> = RefCell::new(ReplayCache::default());
}

impl DivisionScratch {
    /// Size every buffer for `problem` and precompute the per-group capacity
    /// contributions.  Existing heap capacity is reused.
    fn prepare(&mut self, problem: &DivisionProblem) {
        let dp = problem.dp;
        let ms = problem.slow_rates.len();
        self.assignment.clear();
        self.assignment.resize(ms, 0);
        self.best_assignment.clear();
        self.best_assignment.resize(ms, 0);
        self.slow_counts.clear();
        self.slow_counts.resize(dp, 0);
        self.slow_capacity.clear();
        self.slow_capacity.resize(dp, 0.0);
        self.fast.clear();
        self.fast.resize(dp, 0);
        self.greedy_capacity.clear();
        self.greedy_capacity.resize(dp, 0.0);
        self.capacities.clear();
        self.capacities.resize(dp, 0.0);
        self.weights.clear();
        self.weights.resize(dp, 0.0);
        self.counts.clear();
        self.counts.resize(dp, 0);
        self.next_load.clear();
        self.next_load.resize(dp, 0.0);
        self.touched.clear();
        self.touched.reserve(dp);
        self.touched_mask.clear();
        self.touched_mask.resize(dp, false);
        self.order.clear();
        self.descriptors.clear();
        self.descriptors.resize(dp, 0);
        self.ceiling.clear();
        self.ceiling.resize(ms, 0);
        self.recording = false;
        #[cfg(debug_assertions)]
        self.replayed_best.resize(ms, 0);
        self.weight_memo.reset(dp);
        self.descriptor_memo.reset(dp);

        // The greedy's unit and `harmonic_capacity` filter the fast rate
        // alike (finite and positive), so one value serves both.
        // `fast_prefix[h]` reproduces the harmonic left fold for `h` copies
        // of the fast rate by the same repeated addition.
        self.fast_unit = if problem.fast_rate.is_finite() && problem.fast_rate > 0.0 {
            1.0 / problem.fast_rate
        } else {
            0.0
        };
        self.fast_prefix.clear();
        self.fast_prefix.reserve(problem.fast_count + 1);
        let mut acc = 0.0_f64;
        self.fast_prefix.push(acc);
        for _ in 0..problem.fast_count {
            acc += self.fast_unit;
            self.fast_prefix.push(acc);
        }
        self.slow_units.clear();
        self.slow_units.extend(problem.slow_rates.iter().map(|&y| {
            if y.is_finite() && y > 0.0 {
                1.0 / y
            } else {
                0.0
            }
        }));
        self.tied_to_next.clear();
        self.tied_to_next.extend(
            self.slow_units
                .windows(2)
                .map(|pair| pair[0].to_bits() == pair[1].to_bits()),
        );
        // A pipeline holds at most `ms` slow groups, so its descriptor fits
        // in 64 bits when `ms × class_bits` does; this also rules out any
        // `ms > 64` before the quadratic class scan.
        self.slow_class.clear();
        self.class_bits = 0;
        if ms <= 64 {
            let mut classes = 0_u64;
            for (k, u) in self.slow_units.iter().enumerate() {
                let class = match self.slow_units[..k]
                    .iter()
                    .position(|v| v.to_bits() == u.to_bits())
                {
                    Some(j) => self.slow_class[j],
                    None => {
                        classes += 1;
                        classes
                    }
                };
                self.slow_class.push(class);
            }
            let bits = u64::BITS - classes.leading_zeros();
            if ms as u32 * bits <= u64::BITS {
                self.class_bits = bits;
            }
        }
        if self.class_bits == 0 {
            // Zero ids at a zero shift keep every descriptor 0.
            self.slow_class.clear();
            self.slow_class.resize(ms, 0);
        }
    }

    /// Assignment-invariant lower bound on the objective: the total capacity
    /// `Σ_i W_i` does not depend on where the groups land, so no candidate can
    /// beat `M / Σ_i W_i` (the relaxed optimum).  Shrunk by a relative margin
    /// far above the float noise of any per-candidate fold so pruning on it can
    /// never reject a candidate the exact fold would have accepted.
    fn lower_bound(&self, problem: &DivisionProblem) -> f64 {
        let total_capacity =
            self.fast_prefix[problem.fast_count] + self.slow_units.iter().sum::<f64>();
        if !(total_capacity.is_finite() && total_capacity > 0.0) {
            return f64::NEG_INFINITY;
        }
        let lb = problem.num_micro_batches as f64 / total_capacity;
        if !lb.is_finite() {
            return f64::NEG_INFINITY;
        }
        lb * (1.0 - 1e-9)
    }

    /// Derive `slow_counts`/`slow_capacity`/`descriptors` from `assignment`
    /// from scratch (ascending-`k` fold, the seed's summation order).
    fn init_slots(&mut self) {
        self.slow_counts.fill(0);
        self.slow_capacity.fill(0.0);
        self.descriptors.fill(0);
        for ((&p, &u), &c) in self
            .assignment
            .iter()
            .zip(&self.slow_units)
            .zip(&self.slow_class)
        {
            self.slow_counts[p] += 1;
            self.slow_capacity[p] += u;
            self.descriptors[p] = (self.descriptors[p] << self.class_bits) | c;
        }
    }

    /// Put the walk at the all-zero assignment, on the relabelling walk when
    /// `relabelling`, else on the counter walk, and stop any recording.  The
    /// memos are left alone.
    fn start_walk(&mut self, dp: usize, relabelling: bool) {
        self.relabelling = relabelling;
        self.declined = false;
        self.recording = false;
        self.recorded.clear();
        // Below an all-zero top, every digit may rise to label 1.
        let ceiling = if relabelling { 1.min(dp - 1) } else { dp - 1 };
        self.ceiling.fill(ceiling);
        if relabelling {
            if let Some(top) = self.ceiling.last_mut() {
                *top = 0;
            }
        }
        self.assignment.fill(0);
        self.init_slots();
    }

    /// Overwrite `assignment` with the mixed-radix decoding of `idx`
    /// (digit `k` is the least significant after `k` divisions, matching the
    /// enumeration counter which increments position 0 first).
    #[cfg(test)]
    fn set_counter(&mut self, mut idx: u64, dp: usize) {
        let radix = dp as u64;
        for slot in self.assignment.iter_mut() {
            *slot = (idx % radix) as usize;
            idx /= radix;
        }
    }

    /// The counter index of `assignment` (the inverse of `set_counter`).
    #[cfg(test)]
    fn counter_index(&self, dp: usize) -> u64 {
        self.assignment
            .iter()
            .rev()
            .fold(0, |idx, &p| idx * dp as u64 + p as u64)
    }

    fn mark_touched(&mut self, p: usize) {
        if !self.touched_mask[p] {
            self.touched_mask[p] = true;
            self.touched.push(p);
        }
    }

    /// Re-fold the slow capacities and descriptors of the touched pipelines
    /// in ascending-`k` order — bit-identical to rebuilding them from
    /// scratch — then clear the touched set.
    fn recompute_touched_capacities(&mut self) {
        for &t in &self.touched {
            self.slow_capacity[t] = 0.0;
            self.descriptors[t] = 0;
        }
        for ((&p, &u), &c) in self
            .assignment
            .iter()
            .zip(&self.slow_units)
            .zip(&self.slow_class)
        {
            if self.touched_mask[p] {
                self.slow_capacity[p] += u;
                self.descriptors[p] = (self.descriptors[p] << self.class_bits) | c;
            }
        }
        for &t in &self.touched {
            self.touched_mask[t] = false;
        }
        self.touched.clear();
    }

    /// Put slow group `k` on pipeline `p`, keeping `slow_counts` exact and
    /// marking both pipelines for the next capacity re-fold.
    fn set_digit(&mut self, k: usize, p: usize) {
        let old = self.assignment[k];
        if old == p {
            return;
        }
        self.assignment[k] = p;
        self.slow_counts[old] -= 1;
        self.slow_counts[p] += 1;
        self.mark_touched(old);
        self.mark_touched(p);
    }

    /// Give the digits below `pos` their smallest canonical values, top
    /// down: a digit tied to its higher neighbour copies it, any other digit
    /// restarts at pipeline 0.
    fn reset_below(&mut self, pos: usize) {
        for k in (0..pos).rev() {
            let p = if self.tied_to_next[k] {
                self.assignment[k + 1]
            } else {
                0
            };
            self.set_digit(k, p);
        }
    }

    /// Step to the walk's next assignment in counter order, incrementally
    /// maintaining `slow_counts`, `slow_capacity` and `descriptors`:
    /// increment the lowest digit below its ceiling and reset the digits
    /// below it.  Returns `false` when the walk is exhausted.
    fn advance(&mut self, dp: usize) -> bool {
        let Some(pos) = self
            .assignment
            .iter()
            .zip(&self.ceiling)
            .position(|(&p, &c)| p < c)
        else {
            return false;
        };
        self.set_digit(pos, self.assignment[pos] + 1);
        self.reset_below(pos);
        if self.relabelling {
            // Each reset digit is 0 or a copy of digit `pos`, so every digit
            // below `pos` sees the same largest label above it.
            let c = self.ceiling[pos].max((self.assignment[pos] + 1).min(dp - 1));
            self.ceiling[..pos].fill(c);
        }
        self.recompute_touched_capacities();
        true
    }

    /// Reassign slow group `k` to pipeline `p` (local-search move),
    /// incrementally maintaining the slot state.
    fn move_digit(&mut self, k: usize, p: usize) {
        self.set_digit(k, p);
        self.recompute_touched_capacities();
    }

    /// Put the walk at a replayed list member, one label per slow group.
    fn load_member(&mut self, labels: &[u8]) {
        for (p, &label) in self.assignment.iter_mut().zip(labels) {
            *p = usize::from(label);
        }
        self.init_slots();
    }

    /// Score the current assignment: the objective of the exact micro-batch
    /// split, from the walk's descriptor memo when the descriptor multiset
    /// was seen before, else by `score_miss`, recording the objective in
    /// the memo unless the candidate declines it.  While `recording`, each
    /// miss is appended to `recorded`.
    ///
    /// Returns the objective, or NaN when the candidate is infeasible (cannot
    /// satisfy the minimum-groups bound, has a zero-capacity pipeline, or the
    /// allocator rejects it).  Every arithmetic step replicates the seed's
    /// expressions so the returned bits are identical.  Scoring never reads
    /// `amounts`; only `rebuild` does.
    fn score_current(&mut self, problem: &DivisionProblem, min_groups: usize) -> f64 {
        if self.class_bits == 0 {
            return self.score_miss(problem, min_groups).0;
        }
        self.descriptor_memo.load(self.descriptors.iter().copied());
        if let Some(objective) = self.descriptor_memo.get() {
            return objective;
        }
        if self.recording {
            if self.recorded.len() + self.assignment.len() > REPLAY_MAX_BYTES {
                self.recording = false;
            } else {
                self.recorded
                    .extend(self.assignment.iter().map(|&p| p as u8));
            }
        }
        let (objective, recordable) = self.score_miss(problem, min_groups);
        if recordable {
            self.descriptor_memo.insert(objective);
        }
        objective
    }

    /// Score the current assignment from its weights: through the weight
    /// memo when the weight multiset was seen before, else as an order
    /// statistic of the weights' loads.  Only weights that are not all
    /// finite and positive go to the allocator.  Returns the objective (NaN
    /// when infeasible) and whether the descriptor memo may record it: not
    /// after a reported greedy tie or for weights not all finite and
    /// positive, which mark the walk `declined` while the memo is on.
    fn score_miss(&mut self, problem: &DivisionProblem, min_groups: usize) -> (f64, bool) {
        let Some(tied) = self.fill_weights(problem, min_groups) else {
            return (f64::NAN, false);
        };
        // Only for finite, positive weights is the objective a function of
        // their multiset.
        let by_multiset = self.weights.iter().all(|w| w.is_finite() && *w > 0.0);
        self.declined |= self.class_bits > 0 && (tied || !by_multiset);
        if !by_multiset {
            return (self.allocate(problem.num_micro_batches), false);
        }
        self.weight_memo
            .load(self.weights.iter().map(|w| w.to_bits()));
        let objective = match self.weight_memo.get() {
            Some(objective) => objective,
            None => {
                let total = problem.num_micro_batches;
                let objective =
                    minmax_objective(&self.weights, total, &mut self.counts, &mut self.next_load);
                debug_assert_eq!(
                    objective.to_bits(),
                    self.allocate(total).to_bits(),
                    "order statistic against the allocator for {:?} at M = {total}",
                    self.weights
                );
                self.weight_memo.insert(objective);
                objective
            }
        };
        (objective, !tied)
    }

    /// Split `total` micro-batches over the current weights into `amounts`;
    /// returns the objective, or NaN when the allocator rejects the weights.
    fn allocate(&mut self, total: u64) -> f64 {
        solve_minmax_allocation_into(&self.weights, total, &[], &mut self.amounts)
            .unwrap_or(f64::NAN)
    }

    /// Distribute the fast groups greedily and derive the harmonic
    /// capacities and micro-batch weights of the current assignment.
    /// Returns `None` when the candidate is infeasible, else whether the
    /// greedy met a tie: a pick among bitwise-equal levels held by pipelines
    /// in different (descriptor, fast count) states, after which the weight
    /// multiset may depend on pipeline indices.  Ties are looked for only
    /// while the descriptor memo is on.
    fn fill_weights(&mut self, problem: &DivisionProblem, min_groups: usize) -> Option<bool> {
        // Minimum-groups fill (seed: `distribute_fast_groups` preamble).
        let mut remaining = problem.fast_count;
        for (f, &have_slow) in self.fast.iter_mut().zip(self.slow_counts.iter()) {
            let need = min_groups.saturating_sub(have_slow);
            if need > remaining {
                return None;
            }
            *f = need;
            remaining -= need;
        }
        // Greedy balancing on the seed's working capacity expression.
        let unit = self.fast_unit;
        for ((g, &s), &f) in self
            .greedy_capacity
            .iter_mut()
            .zip(self.slow_capacity.iter())
            .zip(self.fast.iter())
        {
            *g = s + f as f64 * unit;
        }
        // The seed re-scanned all `dp` slots for every fast group.  The argmin
        // (`min_by(total_cmp)`, first among ties) is the lexicographic minimum
        // of `(level, slot)`; assigning a unit only changes the winner's level,
        // so the winner keeps winning — no rescan — until its updated `(level,
        // slot)` pair stops comparing below the runner-up from the last scan.
        // The runner-up's level is the least among the other slots, so a pick
        // is among equal levels exactly when the winner's level has the
        // runner-up's bits: the first pick after a scan, or an `Equal` keep.
        // Ties matter only to the descriptor memo, and only the first one.
        let mut look_for_ties = self.class_bits > 0;
        let mut tied = false;
        while remaining > 0 {
            let mut imin = 0usize;
            let mut min_lvl = self.greedy_capacity[0];
            let mut isec = usize::MAX;
            let mut sec_lvl = f64::INFINITY;
            for (i, &l) in self.greedy_capacity.iter().enumerate().skip(1) {
                if l.total_cmp(&min_lvl) == std::cmp::Ordering::Less {
                    isec = imin;
                    sec_lvl = min_lvl;
                    imin = i;
                    min_lvl = l;
                } else if l.total_cmp(&sec_lvl) == std::cmp::Ordering::Less {
                    isec = i;
                    sec_lvl = l;
                }
            }
            if look_for_ties && min_lvl.to_bits() == sec_lvl.to_bits() {
                tied = self.tie_at(imin);
                look_for_ties = !tied;
            }
            loop {
                self.fast[imin] += 1;
                self.greedy_capacity[imin] += unit;
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
                let l = self.greedy_capacity[imin];
                let still_winner = match l.total_cmp(&sec_lvl) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal if imin < isec => {
                        if look_for_ties {
                            tied = self.tie_at(imin);
                            look_for_ties = !tied;
                        }
                        true
                    }
                    std::cmp::Ordering::Equal | std::cmp::Ordering::Greater => false,
                };
                if !still_winner {
                    break;
                }
            }
        }
        // Canonical capacities in the seed's `evaluate` fold order: all fast
        // contributions first (prefix table), then slow groups ascending in k.
        for (c, &f) in self.capacities.iter_mut().zip(self.fast.iter()) {
            *c = self.fast_prefix[f];
        }
        for (&p, &u) in self.assignment.iter().zip(self.slow_units.iter()) {
            self.capacities[p] += u;
        }
        for (w, &c) in self.weights.iter_mut().zip(self.capacities.iter()) {
            if c <= 0.0 {
                return None;
            }
            *w = 1.0 / c;
        }
        debug_assert_eq!(self.weights.len(), problem.dp);
        Some(tied)
    }

    /// Whether another pipeline at slot `i`'s greedy level is in a different
    /// (descriptor, fast count) state, so that which of them the greedy
    /// picks could change the resulting multiset of states.
    fn tie_at(&self, i: usize) -> bool {
        let level = self.greedy_capacity[i].to_bits();
        let state = (self.descriptors[i], self.fast[i]);
        self.greedy_capacity
            .iter()
            .zip(&self.descriptors)
            .zip(&self.fast)
            .any(|((g, &d), &f)| g.to_bits() == level && (d, f) != state)
    }

    /// Materialize the winning candidate: restore `best_assignment`, rescore it
    /// (deterministic, so the bits match the accepted evaluation) and clone the
    /// arena buffers into an owned [`Division`].  The amounts come from the
    /// allocator itself: the memos keep only objectives.
    fn rebuild(&mut self, problem: &DivisionProblem, min_groups: usize) -> Division {
        self.assignment.copy_from_slice(&self.best_assignment);
        self.init_slots();
        let objective = if self.fill_weights(problem, min_groups).is_some() {
            self.allocate(problem.num_micro_batches)
        } else {
            f64::NAN
        };
        debug_assert!(
            !objective.is_nan(),
            "the accepted best assignment must rescore as feasible"
        );
        Division {
            fast_per_pipeline: self.fast.clone(),
            slow_assignment: self.best_assignment.clone(),
            micro_batches: self.amounts.clone(),
            capacities: self.capacities.clone(),
            objective,
        }
    }
}

/// Sequential exact enumeration with incremental counter maintenance and
/// lower-bound early exit: the relabelling walk while the descriptor memo is
/// on, replayed from the thread's list for its shape once a complete walk
/// recorded one, else the counter walk.  Expects `prepare` to have run.
/// Returns whether any feasible candidate was found; the winner is left in
/// `scratch.best_assignment`.
fn enumerate_serial(
    scratch: &mut DivisionScratch,
    replays: &mut ReplayCache,
    problem: &DivisionProblem,
    min_groups: usize,
    lb: f64,
) -> bool {
    if scratch.class_bits == 0 {
        scratch.start_walk(problem.dp, false);
        return walk(scratch, problem, min_groups, lb, None).is_some();
    }
    scratch.start_walk(problem.dp, true);
    if let Some(list) = replays.find(problem.dp, &scratch.slow_class) {
        let best = walk(scratch, problem, min_groups, lb, Some(list));
        #[cfg(debug_assertions)]
        {
            scratch
                .replayed_best
                .copy_from_slice(&scratch.best_assignment);
            scratch.start_walk(problem.dp, true);
            let full = walk(scratch, problem, min_groups, lb, None);
            assert_eq!(
                full.map(f64::to_bits),
                best.map(f64::to_bits),
                "replayed walk of {problem:?}"
            );
            assert_eq!(
                scratch.best_assignment, scratch.replayed_best,
                "replayed walk of {problem:?}"
            );
        }
        return best.is_some();
    }
    scratch.recording = true;
    let best = walk(scratch, problem, min_groups, lb, None);
    if scratch.recording {
        replays.keep(&scratch.recorded);
    }
    best.is_some()
}

/// The fold of an exact walk from the all-zero assignment `start_walk` put
/// it at: score, keep a strict improvement, step.  With a `replay` list the
/// walk scores the list's members in order through the miss path instead
/// of stepping (see "Replayed walks" in the module doc).  A declined
/// candidate on the relabelling walk, replayed or not, restarts the walk in
/// counter order.  Returns the best objective, `None` when no candidate is
/// feasible; the winner is left in `scratch.best_assignment`.
fn walk(
    scratch: &mut DivisionScratch,
    problem: &DivisionProblem,
    min_groups: usize,
    lb: f64,
    replay: Option<&[u8]>,
) -> Option<f64> {
    // A list starts with the all-zero assignment the walk starts at.
    let mut replay = replay.map(|list| list.chunks_exact(problem.slow_rates.len()).skip(1));
    let mut best: Option<f64> = None;
    loop {
        // Once the incumbent touches the relaxed optimum no candidate can pass
        // `obj < best - 1e-12` (every objective is >= the margined bound), so
        // the holes this break leaves behind cannot change the fold result.
        if best.is_some_and(|best| best <= lb) {
            scratch.recording = false;
            break;
        }
        let obj = match replay {
            Some(_) => scratch.score_miss(problem, min_groups).0,
            None => scratch.score_current(problem, min_groups),
        };
        if scratch.relabelling && scratch.declined {
            scratch.start_walk(problem.dp, false);
            replay = None;
            best = None;
            continue;
        }
        if !obj.is_nan() && best.is_none_or(|best| obj < best - 1e-12) {
            best = Some(obj);
            scratch.best_assignment.copy_from_slice(&scratch.assignment);
        }
        let stepped = match &mut replay {
            Some(members) => members.next().map(|m| scratch.load_member(m)).is_some(),
            None => scratch.advance(problem.dp),
        };
        if !stepped {
            break;
        }
    }
    best
}

/// Deterministic local search for oversized search spaces: greedy seeding
/// (heaviest slow group to the emptiest pipeline) followed by single-move hill
/// climbing, replicating the seed's move acceptance (including its
/// revert-to-round-start-value behavior) exactly.
fn local_search(
    scratch: &mut DivisionScratch,
    problem: &DivisionProblem,
    min_groups: usize,
    lb: f64,
) -> bool {
    let dp = problem.dp;
    let ms = problem.slow_rates.len();
    // Greedy seeding: visit slow groups from slowest to fastest (stable order
    // on ties), round-robin over the pipelines with the fewest slow groups.
    scratch.order.clear();
    scratch.order.extend(0..ms);
    let rates = &problem.slow_rates;
    scratch
        .order
        .sort_by(|&a, &b| rates[b].total_cmp(&rates[a]));
    scratch.slow_counts.fill(0);
    for &k in scratch.order.iter() {
        let (p, _) = scratch
            .slow_counts
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .expect("dp >= 1 is validated at entry");
        scratch.assignment[k] = p;
        scratch.slow_counts[p] += 1;
    }
    scratch.init_slots();
    let mut have = false;
    let mut best = 0.0_f64;
    let obj = scratch.score_current(problem, min_groups);
    if !obj.is_nan() {
        have = true;
        best = obj;
        scratch.best_assignment.copy_from_slice(&scratch.assignment);
    }
    // Hill climbing over single reassignments.
    let mut improved = true;
    let mut rounds = 0_usize;
    'outer: while improved && rounds < 64 {
        improved = false;
        rounds += 1;
        for k in 0..ms {
            let original = scratch.assignment[k];
            for p in 0..dp {
                if p == original {
                    continue;
                }
                // At the bound no further move can be accepted, so skipping
                // them leaves `best_assignment` (the result) unchanged.
                if have && best <= lb {
                    break 'outer;
                }
                scratch.move_digit(k, p);
                let before = if have { best } else { f64::INFINITY };
                let obj = scratch.score_current(problem, min_groups);
                if !obj.is_nan() && (!have || obj < best - 1e-12) {
                    have = true;
                    best = obj;
                    scratch.best_assignment.copy_from_slice(&scratch.assignment);
                }
                let after = if have { best } else { f64::INFINITY };
                if after < before - 1e-12 {
                    improved = true;
                } else {
                    // The seed reverts to the value `assignment[k]` held at the
                    // start of the k-loop, even if an earlier p was accepted.
                    scratch.move_digit(k, original);
                }
            }
        }
    }
    have
}

/// Solve the pipeline-division problem.
pub fn divide_pipelines(problem: &DivisionProblem) -> Result<Division, DivisionError> {
    let dp = problem.dp;
    if dp == 0 {
        return Err(DivisionError::ZeroPipelines);
    }
    let min_groups = problem.min_groups_per_pipeline.max(1);
    let required = dp * min_groups;
    if problem.total_groups() < required {
        return Err(DivisionError::NotEnoughGroups {
            groups: problem.total_groups(),
            required,
        });
    }

    let ms = problem.slow_rates.len();
    let search_space = (dp as u64).checked_pow(ms as u32).unwrap_or(u64::MAX);

    SCRATCH.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let scratch = &mut *borrow;
        scratch.prepare(problem);
        let lb = scratch.lower_bound(problem);
        let found = if search_space <= problem.exact_enumeration_limit {
            REPLAYS.with(|replays| {
                enumerate_serial(scratch, &mut replays.borrow_mut(), problem, min_groups, lb)
            })
        } else {
            local_search(scratch, problem, min_groups, lb)
        };
        if !found {
            return Err(DivisionError::NotEnoughGroups {
                groups: problem.total_groups(),
                required,
            });
        }
        Ok(scratch.rebuild(problem, min_groups))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::divide_pipelines_reference;
    use proptest::prelude::*;

    #[test]
    fn homogeneous_groups_split_evenly() {
        let p = DivisionProblem::new(4, 16, 1.0, vec![], 64);
        let d = divide_pipelines(&p).unwrap();
        assert_eq!(d.fast_per_pipeline, vec![4, 4, 4, 4]);
        assert_eq!(d.micro_batches, vec![16, 16, 16, 16]);
        assert!((d.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn slow_group_attracts_fewer_micro_batches() {
        // 2 pipelines, 7 fast groups + 1 group 4x slower.
        let p = DivisionProblem::new(2, 7, 1.0, vec![4.0], 64);
        let d = divide_pipelines(&p).unwrap();
        let slow_pipeline = d.slow_assignment[0];
        let fast_pipeline = 1 - slow_pipeline;
        assert!(d.micro_batches[slow_pipeline] <= d.micro_batches[fast_pipeline]);
        assert_eq!(d.micro_batches.iter().sum::<u64>(), 64);
    }

    #[test]
    fn capacities_are_balanced_by_fast_groups() {
        // Pipeline receiving the slow group should receive more fast groups so
        // its overall capacity stays close to its peer.
        let p = DivisionProblem::new(2, 6, 1.0, vec![3.0, 3.0], 64);
        let d = divide_pipelines(&p).unwrap();
        let spread = (d.capacities[0] - d.capacities[1]).abs();
        assert!(spread <= 1.0 + 1e-9, "capacities should be nearly balanced");
    }

    #[test]
    fn min_groups_constraint_is_enforced() {
        let mut p = DivisionProblem::new(2, 2, 1.0, vec![2.0, 2.0], 16);
        p.min_groups_per_pipeline = 2;
        let d = divide_pipelines(&p).unwrap();
        for count in d.groups_per_pipeline() {
            assert!(count >= 2);
        }
    }

    #[test]
    fn errors_on_impossible_instances() {
        let p = DivisionProblem::new(0, 4, 1.0, vec![], 16);
        assert!(matches!(
            divide_pipelines(&p),
            Err(DivisionError::ZeroPipelines)
        ));
        let p = DivisionProblem::new(8, 2, 1.0, vec![], 16);
        assert!(matches!(
            divide_pipelines(&p),
            Err(DivisionError::NotEnoughGroups { .. })
        ));
    }

    #[test]
    fn local_search_path_matches_exact_on_small_instance() {
        let mut exact = DivisionProblem::new(3, 6, 1.0, vec![2.0, 3.0, 5.0], 48);
        let mut heuristic = exact.clone();
        exact.exact_enumeration_limit = 1_000_000;
        heuristic.exact_enumeration_limit = 1; // force local search
        let de = divide_pipelines(&exact).unwrap();
        let dh = divide_pipelines(&heuristic).unwrap();
        // Local search must be within a few percent of the exact optimum here.
        assert!(dh.objective <= de.objective * 1.10 + 1e-9);
    }

    #[test]
    fn many_slow_groups_large_instance_completes() {
        // 1024-GPU style instance: 128 fast groups, 16 slow groups, DP 8.
        let slow: Vec<f64> = (0..16).map(|i| 2.0 + (i as f64) * 0.25).collect();
        let p = DivisionProblem::new(8, 120, 1.0, slow, 1024);
        let d = divide_pipelines(&p).unwrap();
        assert_eq!(d.micro_batches.iter().sum::<u64>(), 1024);
        assert_eq!(d.slow_assignment.len(), 16);
    }

    #[test]
    fn division_equality_is_bitwise() {
        let d = divide_pipelines(&DivisionProblem::new(2, 7, 1.0, vec![4.0], 64)).unwrap();
        let mut nan = d.clone();
        nan.objective = f64::NAN;
        assert_eq!(
            nan,
            nan.clone(),
            "bit-identical NaN divisions must be equal"
        );
        let mut pos_zero = d.clone();
        pos_zero.capacities[0] = 0.0;
        let mut neg_zero = d;
        neg_zero.capacities[0] = -0.0;
        assert_ne!(
            pos_zero, neg_zero,
            "+0.0 and -0.0 encode differently and must not compare equal"
        );
    }

    /// The TP-8 `dp = 4` division of the 64-GPU LLaMA-110B S3 plan at 64
    /// micro-batches: tied runs of 1, 1 and 6 slow groups.
    fn s3_tp8() -> DivisionProblem {
        let tied = 0.1328328240067972;
        let slow = vec![5.42, 2.57, tied, tied, tied, tied, tied, tied];
        DivisionProblem::new(4, 14, 1.0, slow, 64)
    }

    /// The TP-4 `dp = 4` division of the same plan: the 5.42 and 2.57
    /// stragglers split the 1.0 groups into tied runs of 3, 1, 3 and 1.
    fn s3_tp4() -> DivisionProblem {
        let slow = vec![1.0, 1.0, 1.0, 5.42, 1.0, 1.0, 1.0, 2.57];
        DivisionProblem::new(4, 14, 0.25679840610196364, slow, 64)
    }

    /// Walk `p` from the all-zero counter, on the relabelling walk when
    /// `relabelling`, checking the incrementally maintained slot state
    /// against a from-scratch rebuild after every step; returns the visited
    /// counter indices.
    fn walk_order(p: &DivisionProblem, relabelling: bool) -> Vec<u64> {
        let mut s = DivisionScratch::default();
        s.prepare(p);
        s.start_walk(p.dp, relabelling);
        let mut visited = vec![s.counter_index(p.dp)];
        while s.advance(p.dp) {
            assert_slots_match_rebuild(&mut s);
            visited.push(s.counter_index(p.dp));
        }
        visited
    }

    fn assert_slots_match_rebuild(s: &mut DivisionScratch) {
        let counts = s.slow_counts.clone();
        let capacity: Vec<u64> = s.slow_capacity.iter().map(|c| c.to_bits()).collect();
        let descriptors = s.descriptors.clone();
        s.init_slots();
        assert_eq!(counts, s.slow_counts);
        let rebuilt: Vec<u64> = s.slow_capacity.iter().map(|c| c.to_bits()).collect();
        assert_eq!(capacity, rebuilt);
        assert_eq!(descriptors, s.descriptors);
    }

    /// Brute force: the counter indices whose digits are non-increasing in
    /// `k` inside every run of bitwise-tied units and, when `relabelling`,
    /// restricted-growth read from the top digit: 0 at the top, and no digit
    /// above 1 + the largest label above it.
    fn walk_indices(p: &DivisionProblem, relabelling: bool) -> Vec<u64> {
        let mut s = DivisionScratch::default();
        s.prepare(p);
        let n = (p.dp as u64).pow(p.slow_rates.len() as u32);
        (0..n)
            .filter(|&idx| {
                s.set_counter(idx, p.dp);
                let mut labels = 0;
                let restricted_growth = s.assignment.iter().rev().all(|&d| {
                    let fits = d <= labels;
                    labels = labels.max(d + 1);
                    fits
                });
                (0..s.tied_to_next.len())
                    .all(|k| !s.tied_to_next[k] || s.assignment[k] >= s.assignment[k + 1])
                    && (restricted_growth || !relabelling)
            })
            .collect()
    }

    fn untied() -> DivisionProblem {
        DivisionProblem::new(4, 12, 1.0, vec![2.0, 2.5, 3.0, 3.5, 4.0, 4.5], 256)
    }

    /// Distinct rates whose units tie bitwise, next to a failed group and a
    /// zero rate (both unit 0.0).
    fn unit_ties() -> DivisionProblem {
        DivisionProblem::new(
            3,
            4,
            1.0,
            vec![3.5, 3.5000000000000004, f64::INFINITY, 0.0, 2.0, 2.0],
            32,
        )
    }

    #[test]
    fn canonical_walk_visits_the_first_assignment_of_each_tied_permutation_class() {
        for p in [s3_tp8(), s3_tp4(), untied(), unit_ties()] {
            assert_eq!(walk_order(&p, false), walk_indices(&p, false), "{p:?}");
        }
        // 4 * 4 * C(9, 6) and C(6, 3) * 4 * C(6, 3) * 4 of the 4^8 = 65,536;
        // three tied pairs at dp 3: C(4, 2)^3 of 3^6 = 729.
        assert_eq!(walk_order(&s3_tp8(), false).len(), 1_344);
        assert_eq!(walk_order(&s3_tp4(), false).len(), 6_400);
        assert_eq!(walk_order(&unit_ties(), false).len(), 216);
    }

    #[test]
    fn relabelling_walk_visits_the_restricted_growth_assignments_of_the_canonical_walk() {
        for p in [s3_tp8(), s3_tp4(), untied(), unit_ties()] {
            assert_eq!(walk_order(&p, true), walk_indices(&p, true), "{p:?}");
        }
        assert_eq!(walk_order(&s3_tp8(), true).len(), 375);
        assert_eq!(walk_order(&s3_tp4(), true).len(), 486);
        // Six untied groups over at most four labels: the set partitions of
        // six items into at most four blocks, 1 + 31 + 90 + 65.
        assert_eq!(walk_order(&untied(), true).len(), 187);
    }

    fn assert_matches_reference(p: &DivisionProblem) {
        assert_eq!(divide_pipelines(p), divide_pipelines_reference(p), "{p:?}");
    }

    /// Run `p`'s exact walk on a fresh scratch and replay cache and return
    /// the scratch, memos and all.
    fn walked(p: &DivisionProblem) -> DivisionScratch {
        walked_with(p, &mut ReplayCache::default())
    }

    /// Run `p`'s exact walk on a fresh scratch against `replays`.
    fn walked_with(p: &DivisionProblem, replays: &mut ReplayCache) -> DivisionScratch {
        let mut s = DivisionScratch::default();
        s.prepare(p);
        let lb = s.lower_bound(p);
        assert!(enumerate_serial(
            &mut s,
            replays,
            p,
            p.min_groups_per_pipeline.max(1),
            lb
        ));
        s
    }

    /// The division `walked_with` leaves in `s`, which must be the seed's.
    fn assert_rebuilds_reference(s: &mut DivisionScratch, p: &DivisionProblem) {
        let d = s.rebuild(p, p.min_groups_per_pipeline.max(1));
        assert_eq!(Ok(d), divide_pipelines_reference(p), "{p:?}");
    }

    #[test]
    fn greedy_tie_between_different_states_is_reported_and_not_recorded() {
        // The slow group (unit 2.0) puts pipeline 0 at level 2.0; pipeline 1
        // needs one fast group (level 1.0), and the first pick lifts it to
        // 1.0 + 1.0.  The second pick then chooses by index between two
        // different states at one level.
        let p = DivisionProblem::new(2, 3, 1.0, vec![0.5], 16);
        let mut s = DivisionScratch::default();
        s.prepare(&p);
        s.init_slots();
        assert_eq!(s.fill_weights(&p, 1), Some(true));
        assert_eq!(s.fast, [1, 2]);
        // Scoring loads the candidate's key and leaves it unrecorded.
        assert!(!s.score_current(&p, 1).is_nan());
        assert_eq!(s.descriptor_memo.get(), None);
        assert!(walked(&p).descriptor_memo.objectives.is_empty());
        assert_matches_reference(&p);
        // One fast group fewer ends the greedy before the tie, and the
        // candidate is recorded.
        let p = DivisionProblem::new(2, 2, 1.0, vec![0.5], 16);
        s.prepare(&p);
        s.init_slots();
        assert_eq!(s.fill_weights(&p, 1), Some(false));
        assert!(!s.score_current(&p, 1).is_nan());
        assert!(s.descriptor_memo.get().is_some());
    }

    /// `dp = 4` over alternating units 1/2 and 1/4: dyadic levels meet
    /// bitwise, so greedy picks tie between different states.
    fn dyadic() -> DivisionProblem {
        DivisionProblem::new(
            4,
            12,
            1.0,
            vec![2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0],
            256,
        )
    }

    #[test]
    fn relabelling_walk_restarts_in_counter_order_after_a_declined_candidate() {
        // A greedy tie; recurring greedy ties; a unit of +inf (rate
        // 5e-324), whose pipeline gets weight 0; and zero units, which leave
        // a pipeline at an empty pipeline's greedy level.
        for p in [
            DivisionProblem::new(2, 3, 1.0, vec![0.5], 16),
            dyadic(),
            DivisionProblem::new(3, 4, 1.0, vec![5e-324, 2.0, 3.0], 32),
            unit_ties(),
        ] {
            let mut replays = ReplayCache::default();
            let s = walked_with(&p, &mut replays);
            assert!(s.class_bits > 0 && !s.relabelling, "{p:?}");
            assert_eq!(s.ceiling, vec![p.dp - 1; p.slow_rates.len()], "{p:?}");
            // A walk that restarts keeps no replay list.
            assert!(replays.lists.is_empty(), "{p:?}");
            assert_matches_reference(&p);
        }
        // Walks that meet no declined candidate stay restricted-growth.
        for p in [s3_tp4(), s3_tp8(), untied()] {
            let s = walked(&p);
            assert!(!s.declined && s.relabelling, "{p:?}");
        }
        // With the descriptor memo off, the walk keeps the counter order.
        assert!(!walked(&dp2_ms17()).relabelling);
    }

    #[test]
    fn descriptors_keep_the_order_of_units_in_a_pipeline() {
        // Units a = 1/3, b = 2/3, a, b.  Assignment [0, 0, 1, 1] puts (a, b)
        // on both pipelines; [0, 1, 1, 0] puts (a, b) on pipeline 0 and
        // (b, a) on pipeline 1.
        let p = DivisionProblem::new(2, 2, 1.0, vec![3.0, 1.5, 3.0, 1.5], 16);
        let mut s = DivisionScratch::default();
        s.prepare(&p);
        // The descriptors, and the descriptor-memo key scoring loads.
        let mut score = |assignment: [usize; 4]| {
            s.assignment.copy_from_slice(&assignment);
            s.init_slots();
            s.score_current(&p, 1);
            (s.descriptors.clone(), s.descriptor_memo.key.clone())
        };
        let (same, same_key) = score([0, 0, 1, 1]);
        let (mixed, mixed_key) = score([0, 1, 1, 0]);
        assert_eq!(same[0], same[1]);
        assert_ne!(mixed[0], mixed[1]);
        assert_ne!(same_key, mixed_key);
        // The slow sums agree, but after the fast prefix the two orders fold
        // to different capacities: 1 + 1/3 + 2/3 = 2, 1 + 2/3 + 1/3 < 2.
        assert_eq!(s.slow_capacity[0].to_bits(), s.slow_capacity[1].to_bits());
        assert_eq!(s.fill_weights(&p, 1), Some(true));
        assert_eq!(s.fast, [1, 1]);
        assert_ne!(s.capacities[0].to_bits(), s.capacities[1].to_bits());
    }

    /// Brute force: the first assignment of each descriptor multiset on the
    /// relabelling walk, in walk order, one byte per digit.
    fn first_visits(p: &DivisionProblem) -> Vec<u8> {
        let mut s = DivisionScratch::default();
        s.prepare(p);
        let mut seen = std::collections::HashSet::new();
        let mut list = Vec::new();
        for idx in walk_indices(p, true) {
            s.set_counter(idx, p.dp);
            s.init_slots();
            let mut multiset = s.descriptors.clone();
            multiset.sort_unstable();
            if seen.insert(multiset) {
                list.extend(s.assignment.iter().map(|&d| d as u8));
            }
        }
        list
    }

    #[test]
    fn replay_list_holds_the_first_visit_of_each_descriptor_multiset() {
        // Every member is feasible and undeclined here, so the recording
        // walk's descriptor memo holds one entry per member too.
        // `unit_ties` restarts (a pipeline of zero units sits at an empty
        // pipeline's greedy level) and keeps no list, so its bitwise-tied
        // distinct rates stand here beside rate 6.0 instead of its zero
        // units.
        let tied_units = DivisionProblem {
            slow_rates: vec![3.5, 3.5000000000000004, 6.0, 2.2, 2.2],
            ..unit_ties()
        };
        for (p, members) in [
            (s3_tp4(), 158),
            (s3_tp8(), 73),
            (untied(), 187),
            (tied_units, 20),
        ] {
            let mut replays = ReplayCache::default();
            let s = walked_with(&p, &mut replays);
            let list = replays.find(p.dp, &s.slow_class).expect("a kept list");
            assert_eq!(list, first_visits(&p), "{p:?}");
            assert_eq!(list.len(), members * p.slow_rates.len(), "{p:?}");
            assert_eq!(s.descriptor_memo.objectives.len(), members, "{p:?}");
        }
    }

    /// `s3_tp4` with its tied runs of three shortened to two: 4^6
    /// assignments, so the seed reference stays cheap.
    fn short_tp4() -> DivisionProblem {
        let slow = vec![1.0, 1.0, 5.42, 1.0, 1.0, 2.57];
        DivisionProblem::new(4, 10, 0.25679840610196364, slow, 64)
    }

    #[test]
    fn replayed_walks_match_the_reference() {
        // The first walk of the shape records; the others replay it at the
        // drift replan's other rates and sizes, with more fast groups, and
        // with a second minimum group per pipeline.
        let mut replays = ReplayCache::default();
        for (fast_rate, m, fast_count, min_groups) in [
            (0.25679840610196364, 64, 10, 1),
            (0.2565024567654825, 32, 10, 1),
            (0.2563544820972419, 16, 10, 1),
            (0.25679840610196364, 64, 18, 1),
            (0.3, 48, 16, 2),
        ] {
            let p = DivisionProblem {
                fast_rate,
                num_micro_batches: m,
                fast_count,
                min_groups_per_pipeline: min_groups,
                ..short_tp4()
            };
            let mut s = walked_with(&p, &mut replays);
            assert!(s.relabelling, "{p:?}");
            assert_rebuilds_reference(&mut s, &p);
        }
        assert_eq!(replays.lists.len(), 1);
    }

    #[test]
    fn replayed_walk_restarts_in_counter_order_at_a_declined_member() {
        // Two tied runs at rates whose greedy levels never meet between
        // different states: the walk keeps a list of nine members.
        let p = DivisionProblem::new(4, 12, 1.0, vec![3.0, 3.0, 7.0, 7.0], 256);
        let mut replays = ReplayCache::default();
        let s = walked_with(&p, &mut replays);
        assert!(s.relabelling);
        assert_eq!(replays.find(p.dp, &s.slow_class).map(<[u8]>::len), Some(36));
        // Dyadic rates of the same shape tie the greedy on the fifth member
        // (a fresh walk records four memo entries first).  The replay runs
        // without the debug-build re-derivation, which would walk again.
        let list = replays.find(p.dp, &s.slow_class).unwrap().to_vec();
        let p = DivisionProblem::new(4, 12, 1.0, vec![2.0, 2.0, 4.0, 4.0], 256);
        let mut s = DivisionScratch::default();
        s.prepare(&p);
        let lb = s.lower_bound(&p);
        s.start_walk(p.dp, true);
        assert!(walk(&mut s, &p, 1, lb, Some(&list)).is_some());
        assert!(s.declined && !s.relabelling);
        assert_eq!(s.ceiling, vec![p.dp - 1; p.slow_rates.len()]);
        // The replay wrote no memo entry; the counter walk after the
        // restart recorded the four an unreplayed walk ends with.
        assert_eq!(s.descriptor_memo.objectives.len(), 4);
        assert_eq!(walked(&p).descriptor_memo.objectives.len(), 4);
        assert_rebuilds_reference(&mut s, &p);
    }

    #[test]
    fn walk_shape_keys_on_dp() {
        // One class sequence at dp 2 and at dp 4, interleaved: the lists
        // differ, and neither serves the other.
        let at = |dp| DivisionProblem { dp, ..short_tp4() };
        let expected = [2, 4].map(|dp| divide_pipelines_reference(&at(dp)).unwrap());
        let mut replays = ReplayCache::default();
        for dp in [2, 4, 2, 4, 4, 2] {
            let p = at(dp);
            let want = &expected[dp / 4];
            let mut s = walked_with(&p, &mut replays);
            assert_eq!(&s.rebuild(&p, 1), want, "{p:?}");
            assert_eq!(divide_pipelines(&p).as_ref(), Ok(want), "{p:?}");
        }
        assert_eq!(replays.lists.len(), 2);
    }

    #[test]
    fn replay_cache_keeps_lists_within_its_budget() {
        let mut replays = ReplayCache::default();
        let _ = replays.find(4, &[1, 2]);
        replays.keep(&[0; REPLAY_MAX_BYTES]);
        assert!(
            replays.lists.is_empty(),
            "a list over the budget is not kept"
        );
        // Three quarter-budget lists and their keys fit; a fourth clears
        // the cache first.
        let quarter = [0; REPLAY_MAX_BYTES / 4];
        for (dp, kept) in [(1, 1), (2, 2), (3, 3), (4, 1)] {
            let _ = replays.find(dp, &[1]);
            replays.keep(&quarter);
            assert_eq!(replays.lists.len(), kept);
            assert!(replays.find(dp, &[1]).is_some());
        }
        assert_eq!(replays.bytes, REPLAY_MAX_BYTES / 4 + 16);
    }

    /// `dp = 2` over 17 slow groups of 9 unit classes: descriptors would
    /// need 17 × 4 = 68 bits.
    fn dp2_ms17() -> DivisionProblem {
        let slow = (0..17).map(|k| 2.0 + 0.25 * (k % 9) as f64).collect();
        DivisionProblem::new(2, 6, 1.0, slow, 128)
    }

    #[test]
    fn walk_whose_descriptors_do_not_fit_keeps_the_descriptor_memo_empty() {
        let p = dp2_ms17();
        let s = walked(&p);
        assert_eq!(s.class_bits, 0);
        assert!(s.descriptor_memo.objectives.is_empty());
        assert!(!s.weight_memo.objectives.is_empty());
        assert_matches_reference(&p);
    }

    #[test]
    fn objective_memo_state_never_leaks_across_walks() {
        // The three TP-4 divisions of a drift replan: the slow rates of
        // `s3_tp4`, and the fast rate moving with M.  Neither memo's key
        // holds M, and the descriptor memo's holds no rate either, so the
        // last case repeats the first walk's keys at another M: a memo kept
        // across walks would replay its objectives.  (Not at M = 32: there
        // every objective is exactly half the M = 64 one, and the stale
        // fold would pick the right winner.)
        let drift = [
            (0.25679840610196364, 64),
            (0.2565024567654825, 32),
            (0.2563544820972419, 16),
            (0.25679840610196364, 16),
        ]
        .map(|(fast_rate, m)| {
            let mut p = s3_tp4();
            p.fast_rate = fast_rate;
            p.num_micro_batches = m;
            p
        });
        let expected: Vec<Division> = drift
            .iter()
            .map(|p| divide_pipelines_reference(p).unwrap())
            .collect();
        // Back to back, then interleaved with other shapes and sizes.
        for (p, want) in drift.iter().zip(&expected) {
            assert_eq!(divide_pipelines(p).as_ref(), Ok(want), "{p:?}");
        }
        for i in [2, 0, 3, 1, 0, 2] {
            let _ = divide_pipelines(&s3_tp8());
            assert_eq!(divide_pipelines(&drift[i]).as_ref(), Ok(&expected[i]));
        }
    }

    #[test]
    fn optimized_division_is_bitwise_equal_to_seed_reference_on_fixed_cases() {
        let mut cases: Vec<DivisionProblem> = vec![
            DivisionProblem::new(4, 16, 1.0, vec![], 64),
            DivisionProblem::new(2, 7, 1.0, vec![4.0], 64),
            DivisionProblem::new(3, 6, 1.0, vec![2.0, 3.0, 5.0], 48),
            DivisionProblem::new(1, 3, 2.0, vec![1.0, 9.0], 17),
            DivisionProblem::new(5, 0, 1.0, vec![1.0, 2.0, 3.0, 4.0, 5.0], 100),
            // Degenerate rates: infinite fast rate (fast groups contribute no
            // capacity) and an infinite slow rate (skipped by the harmonic sum).
            DivisionProblem::new(2, 2, f64::INFINITY, vec![2.0, 2.0], 16),
            DivisionProblem::new(3, 4, 1.0, vec![f64::INFINITY, 2.0], 32),
            // Zero micro-batches: the bound prune fires immediately (lb = 0).
            DivisionProblem::new(4, 4, 1.0, vec![2.0], 0),
            // Equal rates everywhere: maximal 1e-12 tie pressure on the fold.
            DivisionProblem::new(4, 8, 1.0, vec![1.0, 1.0, 1.0], 96),
            // A subnormal rate: its unit is +inf, so one weight is 0.
            DivisionProblem::new(3, 4, 1.0, vec![5e-324, 2.0, 3.0], 32),
            // Two such rates on different pipelines: two zero weights, whose
            // threshold shares of `u64::MAX` units each overflow a `u64` sum.
            DivisionProblem::new(3, 9, 2.0, vec![5e-324, 5e-324], 82),
        ];
        let mut min2 = DivisionProblem::new(2, 2, 1.0, vec![2.0, 2.0], 16);
        min2.min_groups_per_pipeline = 2;
        cases.push(min2);
        let mut ls = DivisionProblem::new(3, 6, 1.0, vec![2.0, 3.0, 5.0, 1.5], 48);
        ls.exact_enumeration_limit = 4; // force the local-search path
        cases.push(ls);
        for p in &cases {
            assert_matches_reference(p);
        }
    }

    #[test]
    fn optimized_division_matches_reference_on_pseudorandom_sweep() {
        // Deterministic xorshift sweep for breadth beyond the fixed cases.
        let mut state = 0x243f_6a88_85a3_08d3_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..80 {
            let dp = 1 + (next() % 4) as usize;
            let fast_count = (next() % 12) as usize;
            let ms = (next() % 5) as usize;
            let fast_rate = ((next() % 380) + 20) as f64 / 100.0;
            let slow: Vec<f64> = (0..ms)
                .map(|_| ((next() % 900) + 100) as f64 / 100.0)
                .collect();
            let total = next() % 256;
            let mut p = DivisionProblem::new(dp, fast_count, fast_rate, slow, total);
            if next() % 4 == 0 {
                p.min_groups_per_pipeline = 1 + (next() % 2) as usize;
            }
            if next() % 5 == 0 {
                p.exact_enumeration_limit = 2; // exercise local search
            }
            assert_matches_reference(&p);
        }
    }

    #[test]
    fn tied_palette_sweep_matches_reference_exhaustively() {
        // Every slow-rate vector of length <= 6 over a three-rate palette (a
        // failed group's unit is 0.0), for dp 1..=4 and both minimum-group
        // bounds, while the walk has at most 256 assignments: the seed alone
        // needs ~13 s on a 2-core host for the 3^6 vectors at dp 4.  That
        // gives ties at every position and fast pools from empty to 2 * dp + 1
        // groups.
        const PALETTE: [f64; 3] = [2.0, 3.5, f64::INFINITY];
        let mut case = 0_u64;
        for dp in 1..=4_usize {
            for ms in (0..=6).take_while(|&ms| dp.pow(ms) <= 256) {
                for code in 0..3_usize.pow(ms) {
                    let slow: Vec<f64> = (0..ms)
                        .map(|k| PALETTE[code / 3_usize.pow(k) % 3])
                        .collect();
                    for min_groups in 1..=2 {
                        case += 1;
                        let fast_count = case as usize % (2 * dp + 2);
                        let mut p =
                            DivisionProblem::new(dp, fast_count, 1.5, slow.clone(), 8 + case % 57);
                        p.min_groups_per_pipeline = min_groups;
                        assert_matches_reference(&p);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bound-pruned, incrementally-enumerated search returns a
        /// `Division` bitwise-equal to an unpruned seed-reference run.
        #[test]
        fn pruned_search_is_bitwise_equal_to_unpruned_reference(
            dp in 1usize..5,
            fast_count in 0usize..12,
            fast_rate in 0.2f64..4.0,
            slow in prop::collection::vec(0.5f64..10.0, 0..5),
            total in 1u64..512,
        ) {
            let p = DivisionProblem::new(dp, fast_count, fast_rate, slow, total);
            prop_assert_eq!(divide_pipelines(&p), divide_pipelines_reference(&p));
        }

        /// The same identity when the slow rates come from a small palette,
        /// so adjacent groups tie: equal rates, distinct rates with bitwise-
        /// equal units, and non-finite or zero rates (unit 0.0).
        #[test]
        fn canonical_walk_on_tied_palette_rates_is_bitwise_equal_to_reference(
            dp in 1usize..5,
            fast_count in 0usize..12,
            fast_rate in 0.2f64..4.0,
            slow in prop::collection::vec(
                prop::sample::select(vec![2.0, 3.5, 3.5000000000000004, f64::INFINITY, 0.0]),
                0..8,
            ),
            total in 1u64..512,
        ) {
            let p = DivisionProblem::new(dp, fast_count, fast_rate, slow, total);
            prop_assert_eq!(divide_pipelines(&p), divide_pipelines_reference(&p));
        }
    }

    #[test]
    fn steady_state_enumeration_is_allocation_free() {
        // After a warm call on this thread, a full search may only allocate
        // O(1) times (the returned Division's four owned vectors and small
        // bookkeeping) — nothing per candidate.  The relabelling walk visits
        // 15 of dp8_ms4's 8^4 = 4096 assignments, 52 of dp8_ms5_fast120's
        // 32k (the paper's fast pool, 120 greedy picks per miss), and 375
        // and 486 of the tied S3 shapes' 4^8; the warm call records each
        // walk's replay list and the counted call replays it (debug builds
        // then re-derive it by the full walk on the same buffers).  The
        // untied dp4_ms8_fast12 walk visits 2,795 assignments, one per
        // descriptor multiset, with as many weight multisets, so both memos
        // outgrow the first table and must regrow within the capacity the
        // warm call left.  The dyadic shape restarts in counter order after
        // a greedy tie, and dp2_ms17 walks its 2^17 assignments in counter
        // order with the descriptor memo off, scoring every weight-memo miss
        // by order statistic.
        for p in [
            DivisionProblem::new(8, 24, 1.0, vec![2.0, 2.5, 3.0, 3.5], 256),
            DivisionProblem::new(8, 120, 0.17, vec![0.4, 0.45, 0.5, 0.55, 0.6], 1024),
            s3_tp8(),
            s3_tp4(),
            DivisionProblem::new(
                4,
                12,
                1.0,
                vec![2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5],
                256,
            ),
            dyadic(),
            dp2_ms17(),
        ] {
            let warm = divide_pipelines(&p).unwrap();
            let (allocs, d) = crate::alloc_counter::count_allocations(|| divide_pipelines(&p));
            let d = d.unwrap();
            assert_eq!(d, warm);
            assert!(
                allocs <= 32,
                "steady-state solve of {p:?} allocated {allocs} times"
            );
        }
    }
}

//! Exact solver for integer min-max allocation problems.
//!
//! Problem: given `n` slots with positive weights `w_j` and optional integer
//! capacities `cap_j`, find non-negative integers `a_j` with `Σ a_j = total`
//! minimizing `max_j (w_j * a_j)`.
//!
//! Both the layer-assignment ILP (Eq. (2) in the paper, weights are group
//! straggling rates, capacities come from the memory model) and the
//! data-assignment ILP (Eq. (3), weights are per-pipeline per-micro-batch
//! costs, no capacity) are instances of this problem.
//!
//! The solver exploits the classic threshold structure: for a target objective
//! `T`, slot `j` can absorb at most `min(cap_j, floor(T / w_j))` units, so
//! feasibility of `T` is monotone.  The optimal objective is therefore the
//! smallest feasible value among the candidate set `{ w_j * k }`, which we find
//! by binary search over the feasibility predicate followed by a local
//! tightening pass that makes the reconstruction exactly optimal.
//!
//! The division walk scores its candidates without this allocator: it reads
//! only objective bits, which `minmax_objective` computes as an order
//! statistic (see "Order-statistic objective" in the `division` module doc).
//! The allocator still splits the micro-batches of each division's winner,
//! scores the division's candidates whose weights are not all finite and
//! positive, and solves every layer and data assignment.  The entry point
//! for those repeated calls is [`solve_minmax_allocation_into`]: it writes
//! into a caller-owned buffer, never clones a dense `caps` vector,
//! collapses bitwise-tied weights into classes and re-evaluates only the
//! classes still unpinned per halving.  It keeps no state between calls
//! beyond reusable buffers.
//! Every shortcut is bit-for-bit equivalent to the seed implementation kept in
//! [`crate::reference::solve_minmax_allocation_reference`].

use serde::{Deserialize, Serialize};

/// Errors returned by [`solve_minmax_allocation`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationError {
    /// No slots were provided but a positive total must be placed.
    NoSlots,
    /// A weight was negative or NaN.
    InvalidWeight { index: usize },
    /// The sum of capacities is smaller than the requested total.
    Infeasible { total_capacity: u64, requested: u64 },
}

impl std::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationError::NoSlots => write!(f, "no slots available for allocation"),
            AllocationError::InvalidWeight { index } => {
                write!(f, "weight at index {index} is negative or NaN")
            }
            AllocationError::Infeasible {
                total_capacity,
                requested,
            } => write!(
                f,
                "total capacity {total_capacity} cannot hold requested {requested} units"
            ),
        }
    }
}

impl std::error::Error for AllocationError {}

/// Result of a min-max allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationResult {
    /// Units assigned to each slot (same order as the input weights).
    pub amounts: Vec<u64>,
    /// The achieved objective `max_j w_j * amounts_j`.
    pub objective: f64,
}

impl AllocationResult {
    /// Index and load of the bottleneck slot (the slot attaining the maximum).
    pub fn bottleneck(&self, weights: &[f64]) -> Option<(usize, f64)> {
        self.amounts
            .iter()
            .enumerate()
            .map(|(j, &a)| (j, weights[j] * a as f64))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Per-slot capacity lookup that treats an empty `caps` slice as "uncapped"
/// without materializing a dense `Vec<Option<u64>>`.
#[inline]
fn cap_of(caps: &[Option<u64>], j: usize) -> Option<u64> {
    caps.get(j).copied().flatten()
}

/// How many units slot `j` may take when the objective must stay `<= threshold`.
fn max_units(weight: f64, cap: Option<u64>, threshold: f64) -> u64 {
    let by_weight = if weight <= 0.0 {
        u64::MAX
    } else if weight.is_infinite() {
        0
    } else {
        // Guard against floating point edge: add a tiny epsilon so that an exact
        // multiple of the weight is counted as feasible.
        let raw = (threshold / weight) * (1.0 + 1e-12) + 1e-9;
        if raw >= u64::MAX as f64 {
            u64::MAX
        } else {
            raw.floor().max(0.0) as u64
        }
    };
    match cap {
        Some(c) => by_weight.min(c),
        None => by_weight,
    }
}

/// Reusable buffers for the grouped threshold search.  One instance per
/// thread: a division walk calls the solver once per weight multiset it has
/// not seen, so the buffers warm up on the first call and steady-state calls
/// perform zero heap allocations.
#[derive(Default)]
struct SearchScratch {
    /// One entry per distinct `(weight bits, capacity)` class.
    w: Vec<f64>,
    cap: Vec<Option<u64>>,
    mult: Vec<u64>,
    /// Unit counts of each class at the current `lo` / `hi` endpoints.
    u_lo: Vec<u64>,
    u_hi: Vec<u64>,
    /// Midpoint unit counts, parallel to `active`.
    u_mid: Vec<u64>,
    /// Classes whose unit count is not yet pinned on `[lo, hi]`.
    active: Vec<usize>,
    /// Class index of each input slot.
    class_of: Vec<usize>,
}

thread_local! {
    static SEARCH_SCRATCH: std::cell::RefCell<SearchScratch> =
        std::cell::RefCell::new(SearchScratch::default());
}

/// Solve the integer min-max allocation problem exactly.
///
/// * `weights` — positive cost per unit for each slot.  A weight of
///   `f64::INFINITY` forces the slot to receive zero units; a weight of `0.0`
///   means the slot is free (it will greedily absorb surplus units).
/// * `total` — number of units to distribute (`Σ a_j = total`).
/// * `caps` — optional per-slot upper bounds.  Pass `&[]` for "no capacities".
///
/// Returns the allocation and the achieved objective.  When `total == 0` the
/// all-zero allocation with objective `0.0` is returned.
pub fn solve_minmax_allocation(
    weights: &[f64],
    total: u64,
    caps: &[Option<u64>],
) -> Result<AllocationResult, AllocationError> {
    let mut amounts = Vec::new();
    let objective = solve_minmax_allocation_into(weights, total, caps, &mut amounts)?;
    Ok(AllocationResult { amounts, objective })
}

/// Allocation-free variant of [`solve_minmax_allocation`]: writes the amounts
/// into `amounts` (cleared first; its capacity is reused across calls) and
/// returns the objective.  Once `amounts` has been sized by a warm-up call,
/// steady-state invocations perform zero heap allocations.
pub fn solve_minmax_allocation_into(
    weights: &[f64],
    total: u64,
    caps: &[Option<u64>],
    amounts: &mut Vec<u64>,
) -> Result<f64, AllocationError> {
    amounts.clear();
    if weights.is_empty() {
        if total == 0 {
            return Ok(0.0);
        }
        return Err(AllocationError::NoSlots);
    }
    for (j, &w) in weights.iter().enumerate() {
        if w.is_nan() || w < 0.0 {
            return Err(AllocationError::InvalidWeight { index: j });
        }
    }
    if !caps.is_empty() {
        assert_eq!(
            caps.len(),
            weights.len(),
            "caps must be empty or match the number of weights"
        );
    }

    if total == 0 {
        amounts.resize(weights.len(), 0);
        return Ok(0.0);
    }

    // The seed evaluated `capacity_at` — a per-slot saturating fold of
    // `max_units` — on every binary-search iteration.  Two exact identities
    // let us do strictly less arithmetic for the same bits:
    //
    // * Slots with identical `(weight bits, capacity)` have identical
    //   `max_units` at every threshold, so they collapse into one class with a
    //   multiplicity.  A saturating fold of non-negative `u64`s equals
    //   `min(u64::MAX, Σ)` in any summation order, so the grouped `u128` sum
    //   decides `>= total` exactly as the seed's fold does.
    // * `max_units` is weakly monotone in the threshold (float division and
    //   multiplication by positive constants preserve `<=`, as do the `+ 1e-9`
    //   shift, `floor`, and the capacity clamp).  A class whose unit count is
    //   equal at `lo` and `hi` is therefore pinned at that value for every
    //   midpoint the search can still visit and never needs re-evaluation.
    SEARCH_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.w.clear();
        s.cap.clear();
        s.mult.clear();
        s.class_of.clear();
        for (j, &wj) in weights.iter().enumerate() {
            let cj = cap_of(caps, j);
            let class =
                s.w.iter()
                    .zip(s.cap.iter())
                    .position(|(&wg, &cg)| wg.to_bits() == wj.to_bits() && cg == cj);
            match class {
                Some(g) => {
                    s.mult[g] += 1;
                    s.class_of.push(g);
                }
                None => {
                    s.class_of.push(s.w.len());
                    s.w.push(wj);
                    s.cap.push(cj);
                    s.mult.push(1);
                }
            }
        }
        let classes = s.w.len();

        // Quick infeasibility check at an unbounded threshold.  The running
        // sum is monotone non-decreasing, so stopping once it reaches `total`
        // cannot change the comparison; the exact (saturating) capacity is
        // only needed for the error payload, and only when it stays below
        // `total` — in which case the sum fits a `u64` untruncated.
        let mut hard: u128 = 0;
        for g in 0..classes {
            hard += s.mult[g] as u128 * max_units(s.w[g], s.cap[g], f64::MAX) as u128;
            if hard >= total as u128 {
                break;
            }
        }
        if hard < total as u128 {
            return Err(AllocationError::Infeasible {
                total_capacity: hard as u64,
                requested: total,
            });
        }

        // Binary search for the minimal feasible threshold.  (`finite_max_w`
        // is a fold of `f64::max` over positive values seeded with +0.0, so
        // `<= 0.0` is exactly the seed's `== 0.0` check.)
        let finite_max_w = weights
            .iter()
            .copied()
            .filter(|w| w.is_finite() && *w > 0.0)
            .fold(0.0_f64, f64::max);
        let mut lo = 0.0_f64;
        // Upper bound: put everything on the cheapest finite-weight slot.
        let mut hi = if finite_max_w <= 0.0 {
            1.0
        } else {
            finite_max_w * total as f64
        };
        s.u_lo.clear();
        s.u_hi.clear();
        for g in 0..classes {
            s.u_lo.push(max_units(s.w[g], s.cap[g], lo));
            s.u_hi.push(max_units(s.w[g], s.cap[g], hi));
        }
        let cap_lo: u128 = (0..classes)
            .map(|g| s.mult[g] as u128 * s.u_lo[g] as u128)
            .sum();
        if cap_lo >= total as u128 {
            hi = lo;
            s.u_hi.copy_from_slice(&s.u_lo);
        }

        // Classes pinned on the current interval contribute a constant to the
        // feasibility sum; only `active` classes are re-evaluated per halving.
        let mut frozen: u128 = 0;
        s.active.clear();
        for g in 0..classes {
            if s.u_lo[g] == s.u_hi[g] {
                frozen += s.mult[g] as u128 * s.u_lo[g] as u128;
            } else {
                s.active.push(g);
            }
        }
        // The halving budget (200) and the convergence test are shared across
        // the three phases below, which peel work off as classes pin:
        // multi-class phase → single binding class (register-local state, the
        // ~50-iteration steady state) → constant predicate (pure halvings).
        let mut it = 0;
        while it < 200 && s.active.len() > 1 {
            if hi - lo <= f64::EPSILON * hi.max(1.0) {
                break;
            }
            let mid = 0.5 * (lo + hi);
            s.u_mid.clear();
            let mut sum = frozen;
            for &g in &s.active {
                let u = max_units(s.w[g], s.cap[g], mid);
                s.u_mid.push(u);
                sum += s.mult[g] as u128 * u as u128;
            }
            if sum >= total as u128 {
                hi = mid;
                for (i, &g) in s.active.iter().enumerate() {
                    s.u_hi[g] = s.u_mid[i];
                }
            } else {
                lo = mid;
                for (i, &g) in s.active.iter().enumerate() {
                    s.u_lo[g] = s.u_mid[i];
                }
            }
            let mut kept = 0;
            for i in 0..s.active.len() {
                let g = s.active[i];
                if s.u_lo[g] == s.u_hi[g] {
                    frozen += s.mult[g] as u128 * s.u_lo[g] as u128;
                } else {
                    s.active[kept] = g;
                    kept += 1;
                }
            }
            s.active.truncate(kept);
            it += 1;
        }
        if s.active.len() == 1 {
            let g = s.active[0];
            let (wg, cg, mg) = (s.w[g], s.cap[g], s.mult[g] as u128);
            let mut ulo = s.u_lo[g];
            let mut uhi = s.u_hi[g];
            while it < 200 && ulo != uhi {
                if hi - lo <= f64::EPSILON * hi.max(1.0) {
                    break;
                }
                let mid = 0.5 * (lo + hi);
                let u = max_units(wg, cg, mid);
                if frozen + mg * u as u128 >= total as u128 {
                    hi = mid;
                    uhi = u;
                } else {
                    lo = mid;
                    ulo = u;
                }
                it += 1;
            }
            s.u_lo[g] = ulo;
            s.u_hi[g] = uhi;
            if ulo == uhi {
                frozen += mg * ulo as u128;
                s.active.clear();
            }
        }
        if s.active.is_empty() {
            // Every class is pinned, so the feasibility sum — and with it the
            // branch taken — is the same at every midpoint still reachable.
            let feasible = frozen >= total as u128;
            while it < 200 {
                if hi - lo <= f64::EPSILON * hi.max(1.0) {
                    break;
                }
                let mid = 0.5 * (lo + hi);
                if feasible {
                    hi = mid;
                } else {
                    lo = mid;
                }
                it += 1;
            }
        }

        // Reconstruct: fill each slot to its threshold capacity (`u_hi` holds
        // each class's exact unit count at the final `hi` — refreshed on every
        // `hi` move for active classes, pinned on the remaining interval for
        // frozen ones), then shed surplus from the currently most loaded slots
        // so the maximum only decreases.
        amounts.extend(s.class_of.iter().map(|&g| s.u_hi[g]));
        Ok(())
    })?;
    // Two free slots each take `u64::MAX` units, so the count is a `u128`.
    let mut assigned: u128 = amounts.iter().map(|&a| a as u128).sum();
    let total_units = total as u128;
    debug_assert!(assigned >= total_units);
    while assigned > total_units {
        // Shed one unit from the most loaded positive slot (`max_by` keeps
        // the *last* among ties), so the maximum only decreases; a free slot
        // sheds its whole share of the surplus in one step, and a surplus of
        // more than one unit per slot leaves the positive weights in one
        // step too, the units this loop would shed one by one.
        let (j, _) = amounts
            .iter()
            .enumerate()
            .filter(|(_, &a)| a > 0)
            .map(|(j, &a)| (j, weights[j] * a as f64))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("assigned > total implies a positive slot exists");
        let surplus = assigned - total_units;
        if weights[j] <= 0.0 {
            let shed = surplus.min(amounts[j] as u128) as u64;
            amounts[j] -= shed;
            assigned -= shed as u128;
        } else if surplus > weights.len() as u128 {
            shed_largest_loads(weights, amounts, surplus);
            assigned = total_units;
        } else {
            amounts[j] -= 1;
            assigned -= 1;
        }
    }

    // Local improvement: move single units away from the bottleneck slot if that
    // strictly lowers the objective.  This turns the (already near-optimal)
    // reconstruction into an exact optimum.  (`cur_obj` is a max over
    // non-negative loads, so `<= 0.0` is exactly the seed's `== 0.0` check.)
    //
    // Exact optimum: with uncapped weights that are all finite and positive
    // and `total > 0`, the loop ends only when no slot `k` other than the
    // bottleneck `jmax` has `fl(w_k·(a_k + 1)) < V`, `V` the maximum load.
    // Any allocation `b` with a smaller maximum has `b_jmax < a_jmax`, since
    // `fl(w·x)` is monotone in `x`, so some `k` has `b_k >= a_k + 1` and a
    // load `>= V`.  The returned objective is thus the float optimum of
    // `max_j fl(w_j·a_j)` over `Σ a_j = total`, which depends only on the
    // weight multiset and `total`; the division walk's objective memo relies
    // on this.  (The amounts are not: ties make them order-sensitive.)
    loop {
        let (jmax, cur_obj) = amounts
            .iter()
            .enumerate()
            .map(|(j, &a)| (j, weights[j] * a as f64))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        if amounts[jmax] == 0 || cur_obj <= 0.0 {
            break;
        }
        // Find a recipient whose load after +1 stays strictly below cur_obj.
        let mut best: Option<(usize, f64)> = None;
        for (j, &a) in amounts.iter().enumerate() {
            if j == jmax {
                continue;
            }
            if let Some(c) = cap_of(caps, j) {
                if a >= c {
                    continue;
                }
            }
            let new_load = weights[j] * (a + 1) as f64;
            if new_load < cur_obj {
                match best {
                    Some((_, l)) if l <= new_load => {}
                    _ => best = Some((j, new_load)),
                }
            }
        }
        match best {
            Some((j, _)) => {
                amounts[jmax] -= 1;
                amounts[j] += 1;
            }
            None => break,
        }
    }

    let objective = amounts
        .iter()
        .enumerate()
        .map(|(j, &a)| weights[j] * a as f64)
        .fold(0.0_f64, f64::max);
    Ok(objective)
}

/// Shed `surplus` units from the positive-weight slots, the units the shed
/// loop of [`solve_minmax_allocation_into`] sheds one per pass.  A pass
/// sheds the largest key `(fl(w_j·a_j), j)` (loads by `total_cmp`, ties to
/// the later slot), and `fl(w·x)` is monotone in `x`, so the passes shed
/// the `surplus` largest keys `(fl(w_j·x), j)`, `1 <= x <= a_j`.  The loop
/// calls this only while a positive slot holds units, and then the free
/// slots hold fewer than `total` between them (an uncapped one, or caps
/// summing to `total` or more, pin the threshold at 0, where no positive
/// slot gets a unit), so the surplus is below the positive slots' units; a
/// free slot's load, 0, is below theirs, so none of its units is among
/// the keys shed.  The last key shed has the least load `level` with fewer
/// than `surplus` loads above it, found by bisecting the bits of the
/// non-negative floats, which order them.  Every load above `level` goes,
/// then the loads equal to it, from the latest slot down.  After a
/// threshold search that stops at an absolute width of `f64::EPSILON`, a
/// slot of weight `w` far below it holds about `EPSILON / w` surplus units,
/// which one unit per pass would take that many passes to shed.
fn shed_largest_loads(weights: &[f64], amounts: &mut [u64], surplus: u128) {
    let positive = |j: &usize| weights[*j] > 0.0;
    let above = |t: f64| -> u128 {
        (0..weights.len())
            .filter(positive)
            .map(|j| (amounts[j] - loads_at_most(weights[j], amounts[j], t)) as u128)
            .sum()
    };
    // Every load is above 0.0, and none above +inf.
    debug_assert!(above(0.0) > surplus, "the positive slots hold the surplus");
    let (mut below, mut level) = (0.0_f64.to_bits(), f64::INFINITY.to_bits());
    while level - below > 1 {
        let mid = below + (level - below) / 2;
        if above(f64::from_bits(mid)) < surplus {
            level = mid;
        } else {
            below = mid;
        }
    }
    let (below, level) = (f64::from_bits(below), f64::from_bits(level));
    let mut left = surplus - above(level);
    for j in (0..weights.len()).rev().filter(positive) {
        let keep = loads_at_most(weights[j], amounts[j], level);
        let at_level = keep - loads_at_most(weights[j], amounts[j], below);
        let take = left.min(at_level as u128) as u64;
        left -= take as u128;
        amounts[j] = keep - take;
    }
}

/// How many of the loads `fl(w·x)`, `1 <= x <= amount`, are at most `t`
/// (`w > 0`): a prefix, since `fl(w·x)` is monotone in `x`, counted as
/// `minmax_objective_from` counts loads, by an estimate from division and
/// exact steps.
fn loads_at_most(w: f64, amount: u64, t: f64) -> u64 {
    let mut k = ((t / w) as u64).min(amount);
    while k > 0 && w * k as f64 > t {
        k -= 1;
    }
    while k < amount && w * (k + 1) as f64 <= t {
        k += 1;
    }
    k
}

/// The objective [`solve_minmax_allocation_into`] returns for `total` units
/// over uncapped `weights` that are all finite and positive, without running
/// the allocator: the `total`-th smallest load `fl(w_j·k)`, `k >= 1` (see
/// "Order-statistic objective" in the `division` module doc).  `counts` and
/// `next` are scratch buffers of `weights.len()` entries; no heap is touched.
pub(crate) fn minmax_objective(
    weights: &[f64],
    total: u64,
    counts: &mut [u64],
    next: &mut [f64],
) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let inverse_sum: f64 = weights.iter().map(|w| 1.0 / w).sum();
    let start = total as f64 / inverse_sum * (1.0 - 1e-9);
    minmax_objective_from(weights, total, start, counts, next)
}

/// [`minmax_objective`] counting from the loads below `start`: exact for any
/// `start`, and about `weights.len()` merge steps while `start` sits just
/// below the optimum.
fn minmax_objective_from(
    weights: &[f64],
    total: u64,
    start: f64,
    counts: &mut [u64],
    next: &mut [f64],
) -> f64 {
    debug_assert!(total > 0 && weights.iter().all(|w| w.is_finite() && *w > 0.0));
    // Count each slot's loads below `start` exactly: `fl(w·k)` is monotone
    // in `k`, so the count is a prefix, and `floor(start / w)` is within a
    // step or two of its end.
    let mut placed: u64 = 0;
    for ((count, load), &w) in counts.iter_mut().zip(next.iter_mut()).zip(weights) {
        let mut k = (start / w) as u64;
        while k > 0 && w * k as f64 >= start {
            k -= 1;
        }
        while w * ((k + 1) as f64) < start {
            k += 1;
        }
        *count = k;
        *load = w * (k + 1) as f64;
        placed = placed.saturating_add(k);
    }
    if placed >= total {
        // `start` was above the optimum: the counted loads need not be among
        // the `total` smallest, so merge from the first load of every slot.
        placed = 0;
        for ((count, load), &w) in counts.iter_mut().zip(next.iter_mut()).zip(weights) {
            *count = 0;
            *load = w;
        }
    }
    // Merge the slots' remaining loads in nondecreasing order up to the
    // `total`-th.
    let mut objective = 0.0;
    while placed < total {
        let mut j = 0;
        for (i, load) in next.iter().enumerate().skip(1) {
            if load.total_cmp(&next[j]).is_lt() {
                j = i;
            }
        }
        objective = next[j];
        counts[j] += 1;
        next[j] = weights[j] * (counts[j] + 1) as f64;
        placed += 1;
    }
    objective
}

/// Exhaustive reference solver used in tests (exponential, tiny inputs only).
pub fn brute_force_minmax(
    weights: &[f64],
    total: u64,
    caps: &[Option<u64>],
) -> Option<(Vec<u64>, f64)> {
    let n = weights.len();
    if n == 0 {
        return if total == 0 {
            Some((Vec::new(), 0.0))
        } else {
            None
        };
    }
    let caps_vec: Vec<u64> = (0..n)
        .map(|j| caps.get(j).copied().flatten().unwrap_or(total).min(total))
        .collect();
    let mut best: Option<(Vec<u64>, f64)> = None;
    let mut current = vec![0u64; n];
    fn recurse(
        j: usize,
        remaining: u64,
        weights: &[f64],
        caps: &[u64],
        current: &mut Vec<u64>,
        best: &mut Option<(Vec<u64>, f64)>,
    ) {
        if j == weights.len() {
            if remaining == 0 {
                let obj = current
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| weights[i] * a as f64)
                    .fold(0.0_f64, f64::max);
                if best.as_ref().map(|(_, b)| obj < *b).unwrap_or(true) {
                    *best = Some((current.clone(), obj));
                }
            }
            return;
        }
        let max_here = caps[j].min(remaining);
        for a in 0..=max_here {
            current[j] = a;
            recurse(j + 1, remaining - a, weights, caps, current, best);
        }
        current[j] = 0;
    }
    recurse(0, total, weights, &caps_vec, &mut current, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::solve_minmax_allocation_reference;
    use proptest::prelude::*;

    #[test]
    fn zero_total_yields_zero_allocation() {
        let r = solve_minmax_allocation(&[1.0, 2.0], 0, &[]).unwrap();
        assert_eq!(r.amounts, vec![0, 0]);
        assert_eq!(r.objective, 0.0);
    }

    #[test]
    fn single_slot_takes_everything() {
        let r = solve_minmax_allocation(&[3.0], 7, &[]).unwrap();
        assert_eq!(r.amounts, vec![7]);
        assert!((r.objective - 21.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let r = solve_minmax_allocation(&[1.0, 1.0, 1.0, 1.0], 64, &[]).unwrap();
        assert_eq!(r.amounts.iter().sum::<u64>(), 64);
        assert!((r.objective - 16.0).abs() < 1e-9);
    }

    #[test]
    fn straggler_gets_fewer_units() {
        // One slot is 4x slower: it should receive roughly a quarter of the load.
        let r = solve_minmax_allocation(&[4.0, 1.0, 1.0, 1.0], 65, &[]).unwrap();
        assert_eq!(r.amounts.iter().sum::<u64>(), 65);
        assert!(r.amounts[0] < r.amounts[1]);
        let brute = brute_force_minmax(&[4.0, 1.0, 1.0, 1.0], 65, &[]).unwrap();
        assert!((r.objective - brute.1).abs() < 1e-6);
    }

    #[test]
    fn infinite_weight_forces_zero() {
        let r = solve_minmax_allocation(&[f64::INFINITY, 1.0, 1.0], 10, &[]).unwrap();
        assert_eq!(r.amounts[0], 0);
        assert_eq!(r.amounts.iter().sum::<u64>(), 10);
    }

    #[test]
    fn capacity_is_respected() {
        let caps = [Some(2u64), None, None];
        let r = solve_minmax_allocation(&[1.0, 1.0, 1.0], 12, &caps).unwrap();
        assert!(r.amounts[0] <= 2);
        assert_eq!(r.amounts.iter().sum::<u64>(), 12);
    }

    #[test]
    fn infeasible_when_caps_too_small() {
        let caps = [Some(2u64), Some(3u64)];
        let err = solve_minmax_allocation(&[1.0, 1.0], 12, &caps).unwrap_err();
        assert!(matches!(err, AllocationError::Infeasible { .. }));
    }

    #[test]
    fn heavy_straggler_is_dropped_entirely() {
        // When the rest of the slots can hold the full load under a better
        // objective, the very slow slot should receive zero units (this is how
        // the planner removes heavy stragglers from the training job).
        let r = solve_minmax_allocation(&[50.0, 1.0, 1.0, 1.0, 1.0], 8, &[]).unwrap();
        assert_eq!(r.amounts[0], 0);
        assert!((r.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_on_assorted_instances() {
        let cases: Vec<(Vec<f64>, u64, Vec<Option<u64>>)> = vec![
            (vec![1.0, 2.0, 3.0], 10, vec![]),
            (vec![2.5, 1.0, 1.0, 4.0], 9, vec![]),
            (vec![1.0, 1.0], 5, vec![Some(1), None]),
            (vec![3.0, 1.5, 1.0], 7, vec![None, Some(3), None]),
            (vec![1.2, 1.2, 5.4, 1.2], 12, vec![]),
            (vec![2.62, 2.62, 1.0, 1.0], 11, vec![]),
            // Large-surplus instances: the threshold reconstruction overshoots
            // badly (free or tied slots), pinning the surplus shed.  Two
            // uncapped free slots each take `u64::MAX` units at first.
            (vec![0.0, 1.0, 1.0], 14, vec![]),
            (vec![0.0, 0.0, 1.0], 5, vec![]),
            (vec![0.0, 2.0, 2.0], 13, vec![Some(4), None, None]),
            (vec![1.0, 1.0, 1.0, 1.0, 1.0], 17, vec![]),
            (vec![0.5, 0.5, 0.5, 4.0], 15, vec![]),
            (vec![2.0, 2.0, 2.0], 16, vec![Some(6), Some(6), Some(6)]),
        ];
        for (w, total, caps) in cases {
            let fast = solve_minmax_allocation(&w, total, &caps).unwrap();
            let brute = brute_force_minmax(&w, total, &caps).unwrap();
            assert!(
                (fast.objective - brute.1).abs() < 1e-6,
                "weights={w:?} total={total} fast={} brute={}",
                fast.objective,
                brute.1
            );
            assert_eq!(fast.amounts.iter().sum::<u64>(), total);
        }
    }

    #[test]
    fn bulk_shed_is_bitwise_identical_to_the_seed_unit_shed() {
        // Deterministic sweep over instances with heavy reconstruction
        // surpluses (ties, zero weights, caps): amounts and objective must
        // match the frozen seed solver bit for bit.
        let mut cases: Vec<(Vec<f64>, u64, Vec<Option<u64>>)> = vec![
            (vec![0.0, 1.0], 100, vec![]),
            (vec![0.0, 1.0, 1.0], 257, vec![]),
            (vec![1.0, 1.0, 1.0, 1.0], 1023, vec![]),
            (
                vec![2.0, 2.0, 1.0, 1.0],
                511,
                vec![None, Some(3), None, None],
            ),
            (vec![f64::INFINITY, 1.0, 0.0], 64, vec![]),
            (vec![0.0, 0.0, 1.0], 5, vec![]),
            (
                vec![0.0, 2.0, 0.0, 0.0],
                37,
                vec![None, None, Some(3), None],
            ),
            // Weights far below `f64::EPSILON`: the threshold search leaves
            // such a slot ~`EPSILON / w` surplus units (~22k at 1e-20),
            // which the seed sheds one per pass.
            (vec![1e-20, 1.0], 1, vec![]),
            (vec![1e-18, 1.0, 2.0], 7, vec![]),
            (vec![3e-19, 3e-19, 1.0], 5, vec![]),
            (vec![1.0, 1e-19, 0.5], 9, vec![None, Some(4), None]),
            (vec![2e-20, 1e-20, 0.0], 3, vec![]),
        ];
        // A pseudo-random (but fixed-seed) family for breadth.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let n = 1 + (next() % 6) as usize;
            // At most one zero-weight slot (always slot 0 when present); the
            // fixed cases above hold several.
            let mut weights: Vec<f64> = (0..n)
                .map(|_| ((next() % 900) + 100) as f64 / 250.0)
                .collect();
            if next() % 3 == 0 {
                weights[0] = 0.0;
            }
            let caps: Vec<Option<u64>> = if next() % 2 == 0 {
                Vec::new()
            } else {
                (0..n)
                    .map(|_| {
                        if next() % 3 == 0 {
                            Some(next() % 40)
                        } else {
                            None
                        }
                    })
                    .collect()
            };
            let total = next() % 300;
            cases.push((weights, total, caps));
        }
        // A second family with one or two weights between 1e-15 and 1e-20,
        // whose surpluses the seed still sheds within milliseconds.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let n = 2 + (next() % 4) as usize;
            let mut weights: Vec<f64> = (0..n)
                .map(|_| ((next() % 900) + 100) as f64 / 250.0)
                .collect();
            for _ in 0..1 + next() % 2 {
                let slot = (next() % n as u64) as usize;
                weights[slot] = 10f64.powi(-15 - (next() % 6) as i32) * (1 + next() % 9) as f64;
            }
            cases.push((weights, 1 + next() % 40, Vec::new()));
        }
        for (w, total, caps) in cases {
            let new = solve_minmax_allocation(&w, total, &caps);
            let old = solve_minmax_allocation_reference(&w, total, &caps);
            match (new, old) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.amounts, b.amounts, "w={w:?} total={total} caps={caps:?}");
                    assert_eq!(
                        a.objective.to_bits(),
                        b.objective.to_bits(),
                        "w={w:?} total={total} caps={caps:?}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("divergent outcomes: new={a:?} old={b:?} for w={w:?}"),
            }
        }
    }

    #[test]
    fn permuted_weights_match_the_seed_reference() {
        // Each group permutes one weight multiset.  Every solve matches the
        // frozen seed bit for bit, and within a group the objective bits
        // agree (the amounts follow the slots).
        let groups: Vec<(Vec<Vec<f64>>, u64)> = vec![
            (
                vec![
                    vec![0.25, 0.5, 0.25, 0.125],
                    vec![0.5, 0.25, 0.125, 0.25],
                    vec![0.125, 0.25, 0.25, 0.5],
                ],
                97,
            ),
            (
                vec![
                    vec![1.0 / 3.0, 1.0 / 3.0, 0.2],
                    vec![0.2, 1.0 / 3.0, 1.0 / 3.0],
                ],
                41,
            ),
            (
                vec![
                    vec![f64::INFINITY, 0.75, 0.75],
                    vec![0.75, f64::INFINITY, 0.75],
                ],
                29,
            ),
        ];
        for (orders, total) in groups {
            let objectives: Vec<u64> = orders
                .iter()
                .map(|w| {
                    let fast = solve_minmax_allocation(w, total, &[]).unwrap();
                    let seed = solve_minmax_allocation_reference(w, total, &[]).unwrap();
                    assert_eq!(fast.amounts, seed.amounts, "w={w:?}");
                    assert_eq!(fast.objective.to_bits(), seed.objective.to_bits());
                    fast.objective.to_bits()
                })
                .collect();
            assert!(objectives.windows(2).all(|o| o[0] == o[1]), "{orders:?}");
        }
    }

    #[test]
    fn into_variant_reuses_the_buffer_without_reallocating() {
        let mut buf = Vec::new();
        let obj1 = solve_minmax_allocation_into(&[1.0, 2.0, 3.0], 10, &[], &mut buf).unwrap();
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let obj2 = solve_minmax_allocation_into(&[1.0, 2.0, 3.0], 10, &[], &mut buf).unwrap();
        assert_eq!(obj1.to_bits(), obj2.to_bits());
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
        assert_eq!(buf.iter().sum::<u64>(), 10);
    }

    /// `solve_minmax_allocation` on a spawned thread: a call that does not
    /// return within 10 s fails the test instead of hanging it.
    fn solve_or_time_out(weights: &[f64], total: u64) -> AllocationResult {
        let (tx, rx) = std::sync::mpsc::channel();
        let owned = weights.to_vec();
        let solver =
            std::thread::spawn(move || tx.send(solve_minmax_allocation(&owned, total, &[])));
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{weights:?} at total {total}: {e}"));
        solver.join().unwrap().unwrap();
        result.unwrap()
    }

    #[test]
    fn tiny_weights_return_the_optimum() {
        // The threshold search leaves a slot of weight `w` far below
        // `f64::EPSILON` ~`EPSILON / w` surplus units, which the shed loop
        // removes in one step while the slot stays the most loaded.
        for w in [1e-20, 1e-25, 1e-30, 1e-300, 5e-324] {
            for (weights, total) in [
                (vec![w, 1.0], 1),
                (vec![w, 1.0], 5),
                (vec![1.0, w, w], 4),
                (vec![w, 2.0 * w, 1.0], 3),
                (vec![0.5, w, 0.0], 2),
            ] {
                let r = solve_or_time_out(&weights, total);
                let (_, objective) = brute_force_minmax(&weights, total, &[]).unwrap();
                assert_eq!(r.objective.to_bits(), objective.to_bits(), "{weights:?}");
                assert_eq!(r.amounts.iter().sum::<u64>(), total, "{weights:?}");
                assert_eq!(
                    r.amounts
                        .iter()
                        .zip(&weights)
                        .map(|(&a, &w)| w * a as f64)
                        .fold(0.0, f64::max)
                        .to_bits(),
                    objective.to_bits(),
                    "{weights:?}"
                );
            }
        }
    }

    #[test]
    fn two_free_slots_count_their_surplus_without_overflow() {
        // Both zero weights take `u64::MAX` units in the reconstruction; the
        // later one sheds its whole share first.
        let r = solve_minmax_allocation(&[0.0, 0.0, 1.0], 5, &[]).unwrap();
        assert_eq!(r.amounts, vec![5, 0, 0]);
        assert_eq!(r.objective.to_bits(), 0.0_f64.to_bits());
        assert_eq!(
            Ok(r),
            solve_minmax_allocation_reference(&[0.0, 0.0, 1.0], 5, &[])
        );
    }

    /// The `total`-th smallest of the loads `w_j·k`, `1 <= k <= total`, by
    /// sorting all of them.
    fn sorted_loads_statistic(weights: &[f64], total: u64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let mut loads: Vec<f64> = weights
            .iter()
            .flat_map(|&w| (1..=total).map(move |k| w * k as f64))
            .collect();
        loads.sort_by(f64::total_cmp);
        loads[total as usize - 1]
    }

    fn order_statistic(weights: &[f64], total: u64) -> f64 {
        let (mut counts, mut next) = (vec![0; weights.len()], vec![0.0; weights.len()]);
        let objective = minmax_objective(weights, total, &mut counts, &mut next);
        assert_eq!(counts.iter().sum::<u64>(), total, "{weights:?}");
        objective
    }

    /// Palettes of the order-statistic proptest: tied weights, dyadic
    /// weights, whose loads meet bitwise across slots, and weights spread
    /// over 2^-19..2^19 (a ratio under 1e12, where the allocator's threshold
    /// search stays fast).
    fn palette_weight(palette: usize, code: u64) -> f64 {
        match palette {
            0 => [0.25, 1.0 / 3.0, 0.75, 1.0 / 3.0][code as usize % 4],
            1 => 0.5_f64.powi((code % 8) as i32),
            _ => 2.0_f64.powf((code % (1 << 20)) as f64 / (1 << 20) as f64 * 38.0 - 19.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The order statistic's bits are those of the sorted loads and of
        /// the allocator's objective.
        #[test]
        fn order_statistic_is_the_sorted_loads_statistic_and_the_allocator_objective(
            palette in 0usize..3,
            codes in prop::collection::vec(0u64..1 << 20, 1..17),
            total in 0u64..4097,
        ) {
            let weights: Vec<f64> = codes.iter().map(|&c| palette_weight(palette, c)).collect();
            let objective = order_statistic(&weights, total).to_bits();
            prop_assert_eq!(
                objective,
                sorted_loads_statistic(&weights, total).to_bits()
            );
            prop_assert_eq!(
                objective,
                solve_minmax_allocation(&weights, total, &[]).unwrap().objective.to_bits()
            );
        }
    }

    #[test]
    fn order_statistic_counts_from_below_the_optimum() {
        for (weights, total) in [
            (vec![1.0, 2.0, 3.0], 10),
            (vec![0.25, 0.5, 0.25, 0.125], 97),
            (vec![1.0 / 3.0, 1.0 / 3.0, 0.2], 41),
            (vec![0.75], 29),
        ] {
            let objective = order_statistic(&weights, total);
            assert_eq!(
                objective.to_bits(),
                sorted_loads_statistic(&weights, total).to_bits()
            );
            let allocated = solve_minmax_allocation(&weights, total, &[]).unwrap();
            assert_eq!(objective.to_bits(), allocated.objective.to_bits());
            // Counting from the optimum itself stays below `total`.
            let (mut counts, mut next) = (vec![0; weights.len()], vec![0.0; weights.len()]);
            let at = minmax_objective_from(&weights, total, objective, &mut counts, &mut next);
            assert_eq!(at.to_bits(), objective.to_bits());
        }
    }

    #[test]
    fn order_statistic_restarts_from_zero_when_the_count_reaches_the_total() {
        // A start above the optimum counts `total` or more loads, so the
        // merge starts over from every slot's first load.
        for (weights, total) in [(vec![1.0, 2.0, 3.0], 10), (vec![0.5, 0.5, 0.25], 64)] {
            let objective = order_statistic(&weights, total);
            for start in [
                f64::from_bits(objective.to_bits() + 1),
                2.0 * objective,
                4.0 * objective,
            ] {
                let (mut counts, mut next) = (vec![0; weights.len()], vec![0.0; weights.len()]);
                let from = minmax_objective_from(&weights, total, start, &mut counts, &mut next);
                assert_eq!(
                    from.to_bits(),
                    objective.to_bits(),
                    "{weights:?} from {start}"
                );
                assert_eq!(counts.iter().sum::<u64>(), total);
            }
        }
        // A weight below 1 / f64::MAX has an infinite inverse, so the start
        // is 0 and no load is counted before the merge.
        for (weights, total) in [(vec![1e-309, 1.0], 5), (vec![4e-310, 1e-309, 2.0], 12)] {
            let objective = order_statistic(&weights, total);
            assert_eq!(
                objective.to_bits(),
                sorted_loads_statistic(&weights, total).to_bits(),
                "{weights:?}"
            );
            let allocated = solve_or_time_out(&weights, total);
            assert_eq!(objective.to_bits(), allocated.objective.to_bits());
        }
    }

    #[test]
    fn zero_weight_slot_absorbs_surplus() {
        let r = solve_minmax_allocation(&[0.0, 1.0], 100, &[]).unwrap();
        assert_eq!(r.amounts.iter().sum::<u64>(), 100);
        assert!(r.amounts[0] >= 99);
        assert!(r.objective <= 1.0 + 1e-9);
    }

    #[test]
    fn error_display_is_informative() {
        let e = AllocationError::Infeasible {
            total_capacity: 4,
            requested: 10,
        };
        assert!(e.to_string().contains("capacity"));
        assert!(AllocationError::NoSlots.to_string().contains("no slots"));
        assert!(AllocationError::InvalidWeight { index: 3 }
            .to_string()
            .contains("3"));
    }
}

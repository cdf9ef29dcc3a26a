//! Frozen seed implementations of the division and min-max solvers.
//!
//! These are the pre-optimization (per-candidate allocating) versions of
//! [`crate::division::divide_pipelines`] and
//! [`crate::minmax::solve_minmax_allocation`], kept verbatim as the
//! behavioral oracle for the allocation-free rewrites:
//!
//! * the bitwise-equality proptests in `division.rs`/`minmax.rs` compare every
//!   optimized result (`objective`/`capacities` via `to_bits`, all integer
//!   fields exactly) against these functions, and
//! * `division_bench` / `exp_planning_scalability` measure the speedup-vs-seed
//!   gate against their wall clock.
//!
//! Do not "improve" this module: its value is that it does not change.
//! The only edits vs the seed:
//! * three `== 0.0` comparisons rewritten to the equivalent `<= 0.0` —
//!   weights are validated non-negative, and the folds that produce
//!   `finite_max_w`/`cur_obj` start at `+0.0` — so the module holds no float
//!   `==` at all; `clippy::float_cmp`, denied crate-wide, exempts zero;
//! * the allocator's surplus count is a `u128`: two zero weights each take
//!   `u64::MAX` units, which overflowed the seed's `u64` sum.  Every input
//!   the seed could count keeps its amounts.

use crate::division::{Division, DivisionError, DivisionProblem};
use crate::minmax::{AllocationError, AllocationResult};
use crate::relax::harmonic_capacity;

/// How many units slot `j` may take when the objective must stay `<= threshold`.
fn max_units(weight: f64, cap: Option<u64>, threshold: f64) -> u64 {
    let by_weight = if weight <= 0.0 {
        u64::MAX
    } else if weight.is_infinite() {
        0
    } else {
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

/// Total units that can be absorbed under an objective threshold.
fn capacity_at(weights: &[f64], caps: &[Option<u64>], threshold: f64) -> u64 {
    let mut sum: u64 = 0;
    for (j, &w) in weights.iter().enumerate() {
        sum = sum.saturating_add(max_units(w, caps[j], threshold));
    }
    sum
}

/// The seed min-max allocator: binary search on the threshold, a dense
/// `caps_vec` clone, and a one-unit-at-a-time surplus shed loop.
pub fn solve_minmax_allocation_reference(
    weights: &[f64],
    total: u64,
    caps: &[Option<u64>],
) -> Result<AllocationResult, AllocationError> {
    if weights.is_empty() {
        if total == 0 {
            return Ok(AllocationResult {
                amounts: Vec::new(),
                objective: 0.0,
            });
        }
        return Err(AllocationError::NoSlots);
    }
    for (j, &w) in weights.iter().enumerate() {
        if w.is_nan() || w < 0.0 {
            return Err(AllocationError::InvalidWeight { index: j });
        }
    }
    let caps_vec: Vec<Option<u64>> = if caps.is_empty() {
        vec![None; weights.len()]
    } else {
        assert_eq!(
            caps.len(),
            weights.len(),
            "caps must be empty or match the number of weights"
        );
        caps.to_vec()
    };

    if total == 0 {
        return Ok(AllocationResult {
            amounts: vec![0; weights.len()],
            objective: 0.0,
        });
    }

    let hard_capacity = capacity_at(weights, &caps_vec, f64::MAX);
    if hard_capacity < total {
        return Err(AllocationError::Infeasible {
            total_capacity: hard_capacity,
            requested: total,
        });
    }

    let finite_max_w = weights
        .iter()
        .copied()
        .filter(|w| w.is_finite() && *w > 0.0)
        .fold(0.0_f64, f64::max);
    let mut lo = 0.0_f64;
    let mut hi = if finite_max_w <= 0.0 {
        1.0
    } else {
        finite_max_w * total as f64
    };
    if capacity_at(weights, &caps_vec, lo) >= total {
        hi = lo;
    }
    for _ in 0..200 {
        if hi - lo <= f64::EPSILON * hi.max(1.0) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if capacity_at(weights, &caps_vec, mid) >= total {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let threshold = hi;

    let mut amounts: Vec<u64> = weights
        .iter()
        .enumerate()
        .map(|(j, &w)| max_units(w, caps_vec[j], threshold))
        .collect();
    let mut assigned: u128 = amounts.iter().map(|&a| a as u128).sum();
    debug_assert!(assigned >= total as u128);
    while assigned > total as u128 {
        let (j, _) = amounts
            .iter()
            .enumerate()
            .filter(|(_, &a)| a > 0)
            .map(|(j, &a)| (j, weights[j] * a as f64))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("assigned > total implies a positive slot exists");
        let surplus = assigned - total as u128;
        let shed = if weights[j] <= 0.0 {
            surplus.min(amounts[j] as u128) as u64
        } else {
            1
        };
        amounts[j] -= shed;
        assigned -= shed as u128;
    }

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
        let mut best: Option<(usize, f64)> = None;
        for (j, &a) in amounts.iter().enumerate() {
            if j == jmax {
                continue;
            }
            if let Some(c) = caps_vec[j] {
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
    Ok(AllocationResult { amounts, objective })
}

/// The seed greedy fast-group distributor (fresh `fast` + `capacity` vectors
/// per candidate).
fn distribute_fast_groups(
    dp: usize,
    fast_count: usize,
    fast_rate: f64,
    slow_capacity: &[f64],
    slow_counts: &[usize],
    min_groups: usize,
) -> Option<Vec<usize>> {
    let mut fast = vec![0usize; dp];
    let mut remaining = fast_count;
    for i in 0..dp {
        let need = min_groups.saturating_sub(slow_counts[i]);
        if need > remaining {
            return None;
        }
        fast[i] = need;
        remaining -= need;
    }
    let unit = if fast_rate > 0.0 && fast_rate.is_finite() {
        1.0 / fast_rate
    } else {
        0.0
    };
    let mut capacity: Vec<f64> = (0..dp)
        .map(|i| slow_capacity[i] + fast[i] as f64 * unit)
        .collect();
    for _ in 0..remaining {
        let (imin, _) = capacity
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        fast[imin] += 1;
        capacity[imin] += unit;
    }
    Some(fast)
}

/// The seed evaluator: materializes a nested `Vec<Vec<f64>>` of per-pipeline
/// rates just to recompute harmonic capacities.
fn evaluate(
    problem: &DivisionProblem,
    fast_per_pipeline: &[usize],
    slow_assignment: &[usize],
) -> Option<Division> {
    let dp = problem.dp;
    let mut rates_per_pipeline: Vec<Vec<f64>> = vec![Vec::new(); dp];
    for (i, &count) in fast_per_pipeline.iter().enumerate() {
        for _ in 0..count {
            rates_per_pipeline[i].push(problem.fast_rate);
        }
    }
    for (k, &p) in slow_assignment.iter().enumerate() {
        rates_per_pipeline[p].push(problem.slow_rates[k]);
    }
    let capacities: Vec<f64> = rates_per_pipeline
        .iter()
        .map(|r| harmonic_capacity(r))
        .collect();
    if capacities.iter().any(|&c| c <= 0.0) {
        return None;
    }
    let weights: Vec<f64> = capacities.iter().map(|&c| 1.0 / c).collect();
    let alloc = solve_minmax_allocation_reference(&weights, problem.num_micro_batches, &[]).ok()?;
    Some(Division {
        fast_per_pipeline: fast_per_pipeline.to_vec(),
        slow_assignment: slow_assignment.to_vec(),
        micro_batches: alloc.amounts,
        capacities,
        objective: alloc.objective,
    })
}

/// The seed division solver: full per-candidate rebuild of
/// `slow_counts`/`slow_capacity`, no pruning, the `ms == 0` double-`consider`,
/// and the one-unit minmax shed — exactly what shipped before the
/// allocation-free rewrite.
pub fn divide_pipelines_reference(problem: &DivisionProblem) -> Result<Division, DivisionError> {
    let dp = problem.dp;
    if dp == 0 {
        return Err(DivisionError::ZeroPipelines);
    }
    let total_groups = problem.fast_count + problem.slow_rates.len();
    let required = dp * problem.min_groups_per_pipeline.max(1);
    if total_groups < required {
        return Err(DivisionError::NotEnoughGroups {
            groups: total_groups,
            required,
        });
    }

    let ms = problem.slow_rates.len();
    let search_space = (dp as u64).checked_pow(ms as u32).unwrap_or(u64::MAX);

    let mut best: Option<Division> = None;
    let consider = |assignment: &[usize], best: &mut Option<Division>| {
        let mut slow_counts = vec![0usize; dp];
        let mut slow_capacity = vec![0.0f64; dp];
        for (k, &p) in assignment.iter().enumerate() {
            slow_counts[p] += 1;
            let y = problem.slow_rates[k];
            if y.is_finite() && y > 0.0 {
                slow_capacity[p] += 1.0 / y;
            }
        }
        if let Some(fast) = distribute_fast_groups(
            dp,
            problem.fast_count,
            problem.fast_rate,
            &slow_capacity,
            &slow_counts,
            problem.min_groups_per_pipeline.max(1),
        ) {
            if let Some(candidate) = evaluate(problem, &fast, assignment) {
                if best
                    .as_ref()
                    .map(|b| candidate.objective < b.objective - 1e-12)
                    .unwrap_or(true)
                {
                    *best = Some(candidate);
                }
            }
        }
    };

    if search_space <= problem.exact_enumeration_limit {
        let mut assignment = vec![0usize; ms];
        loop {
            consider(&assignment, &mut best);
            let mut pos = 0;
            loop {
                if pos == ms {
                    break;
                }
                assignment[pos] += 1;
                if assignment[pos] < dp {
                    break;
                }
                assignment[pos] = 0;
                pos += 1;
            }
            if pos == ms {
                break;
            }
            if ms == 0 {
                break;
            }
        }
        if ms == 0 {
            consider(&[], &mut best);
        }
    } else {
        let mut order: Vec<usize> = (0..ms).collect();
        order.sort_by(|&a, &b| problem.slow_rates[b].total_cmp(&problem.slow_rates[a]));
        let mut assignment = vec![0usize; ms];
        let mut counts = vec![0usize; dp];
        for &k in &order {
            let (p, _) = counts.iter().enumerate().min_by_key(|(_, &c)| c).unwrap();
            assignment[k] = p;
            counts[p] += 1;
        }
        consider(&assignment, &mut best);
        let mut improved = true;
        let mut rounds = 0usize;
        while improved && rounds < 64 {
            improved = false;
            rounds += 1;
            for k in 0..ms {
                let original = assignment[k];
                for p in 0..dp {
                    if p == original {
                        continue;
                    }
                    assignment[k] = p;
                    let before = best.as_ref().map(|b| b.objective).unwrap_or(f64::INFINITY);
                    consider(&assignment, &mut best);
                    let after = best.as_ref().map(|b| b.objective).unwrap_or(f64::INFINITY);
                    if after < before - 1e-12 {
                        improved = true;
                    } else {
                        assignment[k] = original;
                    }
                }
            }
        }
    }

    best.ok_or(DivisionError::NotEnoughGroups {
        groups: total_groups,
        required,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_solves_the_seed_fixtures() {
        let p = DivisionProblem::new(4, 16, 1.0, vec![], 64);
        let d = divide_pipelines_reference(&p).unwrap();
        assert_eq!(d.fast_per_pipeline, vec![4, 4, 4, 4]);
        assert_eq!(d.micro_batches, vec![16, 16, 16, 16]);
        assert!((d.objective - 4.0).abs() < 1e-9);

        let r = solve_minmax_allocation_reference(&[4.0, 1.0, 1.0, 1.0], 65, &[]).unwrap();
        assert_eq!(r.amounts.iter().sum::<u64>(), 65);
        assert!(r.amounts[0] < r.amounts[1]);
    }
}

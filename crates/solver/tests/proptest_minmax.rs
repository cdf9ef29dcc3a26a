//! Property-based tests for the min-max allocation solver.

use malleus_solver::minmax::{brute_force_minmax, solve_minmax_allocation};
use proptest::prelude::*;

proptest! {
    // Bounded to 64 cases per property (tier-1 policy; the shim runner is
    // deterministic either way).
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver always returns a feasible allocation: amounts sum to the
    /// requested total and every capacity is respected.
    #[test]
    fn allocation_is_feasible(
        weights in prop::collection::vec(0.1f64..20.0, 1..12),
        total in 0u64..200,
        cap_seed in prop::collection::vec(prop::option::of(1u64..100), 0..12),
    ) {
        let caps: Vec<Option<u64>> = if cap_seed.len() == weights.len() {
            cap_seed
        } else {
            vec![None; weights.len()]
        };
        match solve_minmax_allocation(&weights, total, &caps) {
            Ok(result) => {
                prop_assert_eq!(result.amounts.iter().sum::<u64>(), total);
                for (j, &a) in result.amounts.iter().enumerate() {
                    if let Some(c) = caps[j] {
                        prop_assert!(a <= c);
                    }
                }
                let objective = result
                    .amounts
                    .iter()
                    .enumerate()
                    .map(|(j, &a)| weights[j] * a as f64)
                    .fold(0.0_f64, f64::max);
                prop_assert!((objective - result.objective).abs() < 1e-6);
            }
            Err(_) => {
                // Only allowed when the capacities genuinely cannot hold the total.
                let capacity: u64 = caps
                    .iter()
                    .map(|c| c.unwrap_or(u64::MAX / 16))
                    .fold(0u64, |acc, c| acc.saturating_add(c));
                prop_assert!(capacity < total);
            }
        }
    }

    /// On small instances the solver is exactly optimal: its objective has
    /// the bits of the float optimum that brute force finds.
    #[test]
    fn matches_brute_force_on_small_instances(
        weights in prop::collection::vec(0.25f64..8.0, 1..5),
        total in 0u64..12,
    ) {
        let fast = solve_minmax_allocation(&weights, total, &[]).unwrap();
        let brute = brute_force_minmax(&weights, total, &[]).unwrap();
        prop_assert_eq!(fast.objective.to_bits(), brute.1.to_bits(),
            "weights={:?} total={} fast={} brute={}", weights, total, fast.objective, brute.1);
    }

    /// The objective bits depend on the weight multiset only, not on the
    /// slot order: the division walk memoizes objectives by sorted weights.
    /// The palette makes ties, where slot order decides the amounts, common.
    #[test]
    fn permuting_weights_keeps_the_objective_bits(
        weights in prop::collection::vec(
            prop::sample::select(vec![0.25, 1.0 / 3.0, 0.2, 1.0 / 7.0, 0.1328328240067972]),
            1..5,
        ),
        total in 0u64..64,
    ) {
        let bits = solve_minmax_allocation(&weights, total, &[]).unwrap().objective.to_bits();
        for order in permutations(weights.len()) {
            let permuted: Vec<f64> = order.iter().map(|&j| weights[j]).collect();
            let objective = solve_minmax_allocation(&permuted, total, &[]).unwrap().objective;
            prop_assert_eq!(objective.to_bits(), bits, "permuted={:?} total={}", permuted, total);
        }
    }

    /// Scaling every weight by a constant scales the objective by the same
    /// constant and leaves an optimal allocation optimal.
    #[test]
    fn objective_scales_linearly_with_weights(
        weights in prop::collection::vec(0.1f64..10.0, 1..8),
        total in 1u64..64,
        scale in 0.5f64..4.0,
    ) {
        let base = solve_minmax_allocation(&weights, total, &[]).unwrap();
        let scaled_weights: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let scaled = solve_minmax_allocation(&scaled_weights, total, &[]).unwrap();
        prop_assert!((scaled.objective - base.objective * scale).abs() < 1e-6 * scale.max(1.0));
    }

    /// Adding one more unit of work can never decrease the objective.
    #[test]
    fn objective_is_monotone_in_total(
        weights in prop::collection::vec(0.1f64..10.0, 1..8),
        total in 0u64..64,
    ) {
        let a = solve_minmax_allocation(&weights, total, &[]).unwrap();
        let b = solve_minmax_allocation(&weights, total + 1, &[]).unwrap();
        prop_assert!(b.objective >= a.objective - 1e-9);
    }
}

/// Every ordering of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    permutations(n - 1)
        .into_iter()
        .flat_map(|order| {
            (0..n).map(move |at| {
                let mut longer = order.clone();
                longer.insert(at, n - 1);
                longer
            })
        })
        .collect()
}

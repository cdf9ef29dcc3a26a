//! Division-solver micro-benchmark: the frozen seed reference
//! (`malleus_solver::reference`) vs the allocation-free scratch-arena solver,
//! with byte-identity asserted on every instance.
//!
//! ```bash
//! cargo bench -p malleus-bench --bench division_bench            # full
//! cargo bench -p malleus-bench --bench division_bench -- --smoke # CI mode
//! ```
//!
//! The solver is timed cold and warm.  A cold call runs on a fresh thread,
//! so it is the first walk of its shape there and, on a relabelling walk,
//! records the thread's replay list; a warm call follows one on the same
//! thread, so a relabelling walk replays that list.  Warm calls alternate
//! with the reference's, so a shift in host speed hits both sides alike.
//! `--smoke` runs one timing iteration per cell instead of taking the best
//! of several, except in the gated cells; the identity assertions run in
//! both modes, on the cold and the warm result.
//!
//! Two gates read the warm speed-up over the seed reference, in both modes:
//! the best over the gated cells must reach 5x, and so must each cell that
//! walks in counter order (the dyadic restart and `dp2_ms17_fast6`), where
//! the relabelling walk saves nothing.  A gated cell takes the best of at
//! least three rounds.

use malleus_bench::table::Table;
use malleus_solver::reference::divide_pipelines_reference;
use malleus_solver::{divide_pipelines, Division, DivisionProblem};
use std::hint::black_box;
use std::time::Instant;

/// The least warm speed-up over the seed reference each gate accepts.
const GATE: f64 = 5.0;

/// Which gates read a cell's warm speed-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// No gate.
    Off,
    /// The best speed-up over the gated cells must reach `GATE`.
    Best,
    /// As `Best`, and this cell's own speed-up must reach `GATE` too: a
    /// walk in counter order.
    Each,
}

struct Case {
    label: &'static str,
    problem: DivisionProblem,
    gate: Gate,
}

fn cases() -> Vec<Case> {
    let tied = 0.1328328240067972;
    vec![
        // The two dp = 4 divisions that dominate the 64-GPU LLaMA-110B S3
        // plan, at 64 micro-batches: 65k assignments each, 1,344 and 6,400
        // once bitwise-tied slow groups are collapsed, walked as 375 and 486
        // once relabelled pipelines are too.
        Case {
            label: "dp4_ms8_fast14 TP-8 (64-GPU S3 shape, tied)",
            problem: DivisionProblem::new(
                4,
                14,
                1.0,
                vec![5.42, 2.57, tied, tied, tied, tied, tied, tied],
                64,
            ),
            gate: Gate::Off,
        },
        Case {
            label: "dp4_ms8_fast14 TP-4 (64-GPU S3 shape, tied)",
            problem: DivisionProblem::new(
                4,
                14,
                0.25679840610196364,
                vec![1.0, 1.0, 1.0, 5.42, 1.0, 1.0, 1.0, 2.57],
                64,
            ),
            gate: Gate::Off,
        },
        Case {
            label: "dp8_ms4_fast24 (4k candidates)",
            problem: DivisionProblem::new(8, 24, 1.0, vec![2.0, 3.0, 2.5, 4.0], 256),
            gate: Gate::Best,
        },
        Case {
            label: "dp8_ms5_fast120 (32k candidates, paper fast pool)",
            problem: DivisionProblem::new(8, 120, 0.17, vec![0.4, 0.45, 0.5, 0.55, 0.6], 1024),
            gate: Gate::Off,
        },
        Case {
            label: "dp16_ms4_fast48 (65k candidates)",
            problem: DivisionProblem::new(16, 48, 1.0, vec![2.0, 2.5, 3.0, 3.5], 512),
            gate: Gate::Best,
        },
        Case {
            label: "dp4_ms8_fast12 (65k candidates, slow-heavy)",
            problem: DivisionProblem::new(
                4,
                12,
                1.0,
                vec![2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5],
                256,
            ),
            gate: Gate::Off,
        },
        // Units 1/2 and 1/4 alternate, so dyadic greedy levels meet bitwise
        // between different pipeline states: the relabelling walk declines
        // and restarts in counter order.
        Case {
            label: "dp4_ms8_fast12 dyadic (65k candidates, restart)",
            problem: DivisionProblem::new(
                4,
                12,
                1.0,
                vec![2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0],
                256,
            ),
            gate: Gate::Each,
        },
        // Nine unit classes need 4 bits each, and 17 × 4 > 64, so this walk
        // keeps the descriptor memo off, walks in counter order and scores
        // through the weight memo.
        Case {
            label: "dp2_ms17_fast6 (131k candidates, descriptor memo off)",
            problem: DivisionProblem::new(
                2,
                6,
                1.0,
                (0..17).map(|k| 2.0 + 0.25 * (k % 9) as f64).collect(),
                128,
            ),
            gate: Gate::Each,
        },
        Case {
            label: "dp8_ms16_fast120 (local search)",
            problem: DivisionProblem::new(
                8,
                120,
                1.0,
                (0..16).map(|i| 2.0 + i as f64 * 0.25).collect(),
                1024,
            ),
            gate: Gate::Off,
        },
    ]
}

/// The wall time of one call of `f`, and its result.
fn timed(f: impl FnOnce() -> Division) -> (f64, Division) {
    let t0 = Instant::now();
    let d = black_box(f());
    (t0.elapsed().as_secs_f64(), d)
}

/// The least time of `iters` runs, and the last run's result.
fn best_of(iters: usize, mut run: impl FnMut() -> (f64, Division)) -> (f64, Division) {
    (0..iters)
        .map(|_| run())
        .reduce(|(best, _), (secs, d)| (best.min(secs), d))
        .expect("at least one iteration")
}

/// The least time of each of `reference` and `optimized` over `iters`
/// rounds that call one and then the other, and each side's last result.
fn interleaved_best_of(
    iters: usize,
    reference: impl Fn() -> Division,
    optimized: impl Fn() -> Division,
) -> ((f64, Division), (f64, Division)) {
    (0..iters)
        .map(|_| (timed(&reference), timed(&optimized)))
        .reduce(|((r_best, _), (o_best, _)), ((r, r_d), (o, o_d))| {
            ((r_best.min(r), r_d), (o_best.min(o), o_d))
        })
        .expect("at least one iteration")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 1 } else { 5 };
    let gated_iters = iters.max(3);
    println!(
        "Division-solver micro-benchmark (best of {iters}, gated cells {gated_iters}){}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut table = Table::new([
        "instance",
        "seed ref (ms)",
        "cold (ms)",
        "warm (ms)",
        "speedup (cold)",
        "speedup (warm)",
    ]);
    let mut worst = (f64::INFINITY, f64::INFINITY);
    let (mut best_gated, mut worst_counter_walk) = (0.0f64, f64::INFINITY);
    for case in cases() {
        let p = &case.problem;
        let optimized = || divide_pipelines(p).expect("optimized");
        let (cold_secs, cold_d) = best_of(iters, || {
            std::thread::scope(|s| s.spawn(|| timed(optimized)).join().expect("cold call"))
        });
        optimized();
        let rounds = if case.gate == Gate::Off {
            iters
        } else {
            gated_iters
        };
        let ((ref_secs, ref_d), (warm_secs, warm_d)) = interleaved_best_of(
            rounds,
            || divide_pipelines_reference(p).expect("reference"),
            optimized,
        );
        assert_eq!(cold_d, ref_d, "{} (cold)", case.label);
        assert_eq!(warm_d, ref_d, "{} (warm)", case.label);
        let cold = ref_secs / cold_secs.max(1e-12);
        let warm = ref_secs / warm_secs.max(1e-12);
        worst = (worst.0.min(cold), worst.1.min(warm));
        if case.gate != Gate::Off {
            best_gated = best_gated.max(warm);
        }
        if case.gate == Gate::Each {
            worst_counter_walk = worst_counter_walk.min(warm);
        }
        table.row([
            case.label.to_string(),
            format!("{:.2}", ref_secs * 1e3),
            format!("{:.3}", cold_secs * 1e3),
            format!("{:.3}", warm_secs * 1e3),
            format!("{cold:.2}x"),
            format!("{warm:.2}x"),
        ]);
    }
    table.print();
    println!(
        "\nAll instances byte-identical to the seed reference, cold and warm. \
         Worst-case speedup: {:.2}x cold, {:.2}x warm.",
        worst.0, worst.1
    );
    println!(
        "Best gated speedup (warm): {best_gated:.2}x (gate: >= {GATE}x). \
         Worst counter-walk speedup (warm): {worst_counter_walk:.2}x (gate: >= {GATE}x each)."
    );
    assert!(
        best_gated >= GATE,
        "division solver speedup regressed: best {best_gated:.2}x < {GATE}x vs the seed reference"
    );
    assert!(
        worst_counter_walk >= GATE,
        "counter-walk division speedup regressed: {worst_counter_walk:.2}x < {GATE}x vs the seed reference"
    );
}

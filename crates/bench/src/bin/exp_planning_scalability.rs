//! Table 5 (Appendix A.2): planning-time breakdown and scalability.
//!
//! The harness times the four phases of the planning algorithm — GPU grouping,
//! pipeline division, group ordering and work assignment — for the paper's
//! 64-GPU S3 scenario and for a simulated 1024-GPU cluster (128 nodes) with 32
//! stragglers (~3% of the fleet) and a global batch scaled to 1024, both on the
//! 110B model.  Results also land in `BENCH_planning.json` for CI to upload.
//!
//! ```bash
//! cargo run --release -p malleus-bench --bin exp_planning_scalability            # full
//! cargo run --release -p malleus-bench --bin exp_planning_scalability -- --smoke # 64-GPU only
//! ```
//!
//! `--smoke` runs only the 64-GPU S3 breakdown (the 1024-GPU plan and the
//! scenario matrix are minutes of planner work); the JSON artifact is written
//! in both modes.  The phase table prints milliseconds, and its 64-GPU row is
//! the median of five cold plans, each from a fresh planner; the JSON keeps
//! seconds.  A fresh planner replays no candidate, but the division walks
//! keep their replay lists per thread, so whenever the plans run on one
//! thread (one CPU, as under `taskset`), every plan after the first replays
//! the lists of the walks it repeats.

use malleus_bench::paper_workloads;
use malleus_bench::table::Table;
use malleus_bench::{write_json, JsonValue, ScenarioMatrix};
use malleus_cluster::{Cluster, GpuId, PaperSituation, StragglerLevel};
use malleus_core::{Parallelism, PlanTiming, Planner, PlannerConfig};
use malleus_model::{HardwareParams, ProfiledCoefficients};
use malleus_solver::reference::divide_pipelines_reference;
use malleus_solver::{divide_pipelines, Division, DivisionProblem};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::Instant;

fn row(label: &str, timing: &PlanTiming, table: &mut Table) {
    let ms = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    table.row([
        label.to_string(),
        ms(timing.grouping),
        ms(timing.division),
        ms(timing.ordering),
        ms(timing.assignment),
        ms(timing.total()),
    ]);
}

fn timing_json(label: &str, timing: &PlanTiming) -> JsonValue {
    JsonValue::obj(vec![
        ("scenario", JsonValue::str(label)),
        ("grouping", JsonValue::Num(timing.grouping.as_secs_f64())),
        ("division", JsonValue::Num(timing.division.as_secs_f64())),
        ("ordering", JsonValue::Num(timing.ordering.as_secs_f64())),
        (
            "assignment",
            JsonValue::Num(timing.assignment.as_secs_f64()),
        ),
        ("total", JsonValue::Num(timing.total().as_secs_f64())),
    ])
}

/// Best-of-`iters` wall clock of the seed reference and of the optimized
/// solver on one instance, timed in alternation (reference, optimized,
/// reference, ...) so a shift in host speed hits both sides alike.  Returns
/// each side's division so the caller can assert byte-identity.
fn interleaved_best_secs(
    iters: usize,
    problem: &DivisionProblem,
) -> ((f64, Division), (f64, Division)) {
    let (mut ref_best, mut opt_best) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let reference = black_box(divide_pipelines_reference(problem).expect("reference division"));
        ref_best = ref_best.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let optimized = black_box(divide_pipelines(problem).expect("optimized division"));
        opt_best = opt_best.min(t0.elapsed().as_secs_f64());
        last = Some((reference, optimized));
    }
    let (reference, optimized) = last.expect("at least one iteration");
    ((ref_best, reference), (opt_best, optimized))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "Experiment: planning-time breakdown and scalability (Table 5, Appendix A.2){}",
        if smoke { " (smoke: 64-GPU only)" } else { "" }
    );
    let workload = &paper_workloads()[2]; // 110B
    let mut table = Table::new([
        "scenario",
        "GPU grouping (ms)",
        "pipeline division (ms)",
        "group ordering (ms)",
        "work assignment (ms)",
        "total (ms)",
    ]);
    let mut breakdowns = Vec::new();

    // ---- 64 GPUs, S3: the median of five cold plans ----
    // Each plan comes from a fresh planner, so no candidate memo replays an
    // earlier plan; the row is the plan with the median total.  Plans on one
    // thread share its division replay lists, which the first plan records.
    let snapshot = workload.snapshot_for(PaperSituation::S3);
    let mut cold: Vec<PlanTiming> = (0..5)
        .map(|_| {
            workload
                .planner()
                .plan(&snapshot)
                .expect("64-GPU plan")
                .timing
        })
        .collect();
    cold.sort_by_key(PlanTiming::total);
    row("64 GPUs (S3, B=64)", &cold[2], &mut table);
    breakdowns.push(timing_json("64 GPUs (S3, B=64)", &cold[2]));

    // ---- 1024 GPUs, 32 random stragglers, B = 1024 (full mode only) ----
    if !smoke {
        let mut cluster = Cluster::homogeneous(128, 8);
        let mut rng = StdRng::seed_from_u64(2025);
        let mut ids: Vec<u32> = (0..1024).collect();
        ids.shuffle(&mut rng);
        for (i, gpu) in ids.into_iter().take(32).enumerate() {
            let level = match i % 3 {
                0 => StragglerLevel::Level1,
                1 => StragglerLevel::Level2,
                _ => StragglerLevel::Level3,
            };
            cluster.set_rate(GpuId(gpu), level.rate());
        }
        let coeffs =
            ProfiledCoefficients::derive(workload.spec.clone(), HardwareParams::a800_cluster());
        // The paper keeps the DP degree fixed when scaling out (the global batch
        // is scaled linearly); we fix DP = 8 and micro-batch 1 to match the
        // analysis.
        let planner = Planner::new(
            coeffs,
            PlannerConfig {
                global_batch_size: 1024,
                candidate_micro_batch_sizes: vec![1],
                fixed_dp: Some(8),
                ..PlannerConfig::default()
            },
        );
        match planner.plan(&cluster.snapshot()) {
            Ok(outcome) => {
                row(
                    "1024 GPUs (32 stragglers, B=1024)",
                    &outcome.timing,
                    &mut table,
                );
                breakdowns.push(timing_json(
                    "1024 GPUs (32 stragglers, B=1024)",
                    &outcome.timing,
                ));
                println!(
                    "1024-GPU plan: DP {} | max TP {} | estimated {:.2} s/step | {} standby GPUs",
                    outcome.dp,
                    outcome.chosen_tp,
                    outcome.estimated_step_time,
                    outcome.plan.removed_gpus.len()
                );
            }
            Err(e) => println!("1024-GPU planning failed: {e}"),
        }
    }

    println!();
    table.print();
    println!(
        "\n(64-GPU row: the median of 5 cold plans, each from a fresh planner; plans \
         on one thread reuse the division replay lists after the first.)"
    );
    println!("(The planner runs on background CPU processes and is overlapped with one training step, §5.3.)");

    // ---- Scenario matrix: serial oracle vs parallel candidate fan-out ----
    let mut matrix_records = Vec::new();
    if !smoke {
        let workers = Parallelism::Auto.workers();
        println!(
            "\nScenario matrix: serial vs parallel planning wall-clock ({workers} workers at auto)"
        );
        let mut table = Table::new([
            "scenario",
            "serial (s)",
            "parallel (s)",
            "speedup",
            "plans identical",
        ]);
        for scenario in &ScenarioMatrix::large_scale().scenarios {
            let snapshot = scenario.snapshot();
            let serial_planner = scenario.planner(Parallelism::Fixed(1));
            let t0 = Instant::now();
            let serial = serial_planner.plan(&snapshot);
            let serial_secs = t0.elapsed().as_secs_f64();

            let parallel_planner = scenario.planner(Parallelism::Auto);
            let t0 = Instant::now();
            let parallel = parallel_planner.plan(&snapshot);
            let parallel_secs = t0.elapsed().as_secs_f64();

            let identical = match (&serial, &parallel) {
                (Ok(a), Ok(b)) => a == b,
                (Err(_), Err(_)) => true,
                _ => false,
            };
            table.row([
                scenario.label.to_string(),
                format!("{serial_secs:.2}"),
                format!("{parallel_secs:.2}"),
                format!("{:.2}x", serial_secs / parallel_secs.max(1e-9)),
                identical.to_string(),
            ]);
            matrix_records.push(JsonValue::obj(vec![
                ("scenario", JsonValue::str(scenario.label)),
                ("serial_secs", JsonValue::Num(serial_secs)),
                ("parallel_secs", JsonValue::Num(parallel_secs)),
                ("identical", JsonValue::Bool(identical)),
            ]));
            if let Ok(outcome) = &parallel {
                println!(
                    "{}: DP {} | max TP {} | estimated {:.2} s/step | {} standby GPUs",
                    scenario.label,
                    outcome.dp,
                    outcome.chosen_tp,
                    outcome.estimated_step_time,
                    outcome.plan.removed_gpus.len()
                );
            }
        }
        println!();
        table.print();
        println!("\n(Speedups require a multi-core host; at auto=1 worker both columns run the serial path.)");
    }

    // ---- Division micro-breakdown: frozen seed reference vs scratch-arena solver ----
    // Runs in both modes: the pipeline-division phase dominates planning time on
    // straggler-heavy fleets, so this is where the solver rework must pay off.
    // Every optimized plan is asserted byte-identical to the seed reference, the
    // best speedup over the division-dominated instances must clear 5x, and so
    // must each instance walked in counter order (`true` below): the first two
    // walk 15 relabelling-canonical assignments each, so only the last two
    // time the counter walk and its order-statistic scoring.
    let division_iters = if smoke { 3 } else { 7 };
    let division_cases: Vec<(&str, DivisionProblem, bool)> = vec![
        (
            "dp8_ms4_fast24 (4k candidates)",
            DivisionProblem::new(8, 24, 1.0, vec![2.0, 3.0, 2.5, 4.0], 256),
            false,
        ),
        (
            "dp16_ms4_fast48 (65k candidates)",
            DivisionProblem::new(16, 48, 1.0, vec![2.0, 2.5, 3.0, 3.5], 512),
            false,
        ),
        // Nine unit classes need 4 bits each, and 17 × 4 > 64: the descriptor
        // memo stays off and the walk keeps counter order.
        (
            "dp2_ms17_fast6 (131k candidates, descriptor memo off)",
            DivisionProblem::new(
                2,
                6,
                1.0,
                (0..17).map(|k| 2.0 + 0.25 * (k % 9) as f64).collect(),
                128,
            ),
            true,
        ),
        // Dyadic greedy levels tie between different pipeline states, so the
        // relabelling walk restarts in counter order.
        (
            "dp4_ms8_fast12 dyadic (65k candidates, restart)",
            DivisionProblem::new(
                4,
                12,
                1.0,
                vec![2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0],
                256,
            ),
            true,
        ),
    ];
    println!("\nDivision micro-breakdown: seed reference vs scratch-arena solver (best of {division_iters}, interleaved)");
    let mut division_table = Table::new([
        "instance",
        "seed ref (ms)",
        "optimized (ms)",
        "speedup",
        "identical",
    ]);
    let mut division_records = Vec::new();
    let mut best_division_speedup = 0.0f64;
    let mut counter_walk_speedup = f64::INFINITY;
    for (label, problem, counter_walk) in &division_cases {
        let ((ref_secs, ref_d), (opt_secs, opt_d)) = interleaved_best_secs(division_iters, problem);
        assert_eq!(opt_d, ref_d, "{label}");
        let speedup = ref_secs / opt_secs.max(1e-12);
        best_division_speedup = best_division_speedup.max(speedup);
        if *counter_walk {
            counter_walk_speedup = counter_walk_speedup.min(speedup);
        }
        division_table.row([
            label.to_string(),
            format!("{:.2}", ref_secs * 1e3),
            format!("{:.2}", opt_secs * 1e3),
            format!("{speedup:.2}x"),
            "true".to_string(),
        ]);
        division_records.push(JsonValue::obj(vec![
            ("instance", JsonValue::str(*label)),
            ("reference_secs", JsonValue::Num(ref_secs)),
            ("optimized_secs", JsonValue::Num(opt_secs)),
            ("speedup", JsonValue::Num(speedup)),
            ("identical", JsonValue::Bool(true)),
        ]));
    }
    division_table.print();
    println!(
        "\nBest division speedup vs seed: {best_division_speedup:.2}x (gate: >= 5x on division-dominated instances)"
    );
    println!(
        "Worst counter-walk speedup vs seed: {counter_walk_speedup:.2}x (gate: >= 5x on each counter-order walk)"
    );
    assert!(
        best_division_speedup >= 5.0,
        "division solver speedup regressed: best {best_division_speedup:.2}x < 5x vs seed reference"
    );
    assert!(
        counter_walk_speedup >= 5.0,
        "counter-walk division speedup regressed: {counter_walk_speedup:.2}x < 5x vs seed reference"
    );

    let artifact = JsonValue::obj(vec![
        ("experiment", JsonValue::str("planning_scalability")),
        ("smoke", JsonValue::Bool(smoke)),
        ("breakdowns", JsonValue::Arr(breakdowns)),
        ("scenario_matrix", JsonValue::Arr(matrix_records)),
        ("division", JsonValue::Arr(division_records)),
        (
            "division_speedup_vs_seed",
            JsonValue::Num(best_division_speedup),
        ),
        (
            "counter_walk_speedup_vs_seed",
            JsonValue::Num(counter_walk_speedup),
        ),
    ]);
    match write_json("BENCH_planning.json", &artifact) {
        Ok(()) => println!("\nWrote BENCH_planning.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_planning.json: {e}"),
    }
}

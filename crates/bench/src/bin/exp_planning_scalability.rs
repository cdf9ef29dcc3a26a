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
//! `--smoke` runs only the 64-GPU S3 breakdown (it skips the 1024-GPU plan
//! and the scenario matrix of cold 128/256/512-GPU plans); the JSON artifact
//! is written in both modes.  The phase table prints
//! milliseconds of wall-clock time — a plan runs its phases one after another
//! on the calling thread, so a row's total is at most that plan's elapsed
//! time — and the JSON keeps seconds.  The 64-GPU row is the median of five
//! cold plans, each from a fresh planner.  A fresh planner replays no
//! candidate, but the division walks keep their replay lists per thread, and
//! every plan runs on the harness's thread, so every plan after the first
//! replays the lists of the walks it repeats.

use malleus_bench::paper_workloads;
use malleus_bench::table::Table;
use malleus_bench::{write_json, JsonValue, ScenarioMatrix};
use malleus_cluster::{Cluster, GpuId, PaperSituation, StragglerLevel};
use malleus_core::{PlanTiming, Planner, PlannerConfig};
use malleus_model::{HardwareParams, ProfiledCoefficients};
use rand::prelude::*;
use rand::rngs::StdRng;
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
    // earlier plan; the row is the plan with the median total.  The plans
    // share this thread's division replay lists, which the first records.
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
        "\n(64-GPU row: the median of 5 cold plans, each from a fresh planner; every \
         plan after the first reuses the division replay lists the first recorded.)"
    );
    println!("(The planner runs on background CPU processes and is overlapped with one training step, §5.3.)");

    // ---- Scenario matrix: one cold plan per large-scale scenario ----
    let mut matrix_records = Vec::new();
    if !smoke {
        println!("\nScenario matrix: cold-plan wall-clock");
        let mut table = Table::new(["scenario", "cold plan (ms)"]);
        for scenario in &ScenarioMatrix::large_scale().scenarios {
            let snapshot = scenario.snapshot();
            let planner = scenario.planner();
            let t0 = Instant::now();
            let planned = planner.plan(&snapshot);
            let cold_secs = t0.elapsed().as_secs_f64();
            table.row([
                scenario.label.to_string(),
                format!("{:.1}", cold_secs * 1e3),
            ]);
            matrix_records.push(JsonValue::obj(vec![
                ("scenario", JsonValue::str(scenario.label)),
                ("cold_secs", JsonValue::Num(cold_secs)),
            ]));
            match &planned {
                Ok(outcome) => println!(
                    "{}: DP {} | max TP {} | estimated {:.2} s/step | {} standby GPUs",
                    scenario.label,
                    outcome.dp,
                    outcome.chosen_tp,
                    outcome.estimated_step_time,
                    outcome.plan.removed_gpus.len()
                ),
                Err(e) => println!("{}: planning failed: {e}", scenario.label),
            }
        }
        println!();
        table.print();
    }

    let artifact = JsonValue::obj(vec![
        ("experiment", JsonValue::str("planning_scalability")),
        ("smoke", JsonValue::Bool(smoke)),
        ("breakdowns", JsonValue::Arr(breakdowns)),
        ("scenario_matrix", JsonValue::Arr(matrix_records)),
    ]);
    match write_json("BENCH_planning.json", &artifact) {
        Ok(()) => println!("\nWrote BENCH_planning.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_planning.json: {e}"),
    }
}

//! Figure 7 + Table 2: end-to-end evaluation over the six straggler situations.
//!
//! For each of the paper's three workloads (32B / 70B / 110B) this harness
//! reports the per-step training time of Malleus, Megatron-LM and DeepSpeed
//! (with and without node-exclusion restarts) under Normal and S1–S6, the MFU
//! of each system on the healthy cluster, the theoretic optimum, the average
//! improvement of Malleus (geometric mean, as in Table 2), and the transition
//! costs (Malleus migrations vs. baseline restarts, as annotated in Figure 7).
//!
//! ```bash
//! cargo run --release -p malleus-bench --bin exp_end_to_end
//! ```

use malleus_baselines::{
    restart::RestartFamily, theoretic_optimal_time, DeepSpeedPlanner, MegatronPlanner,
    RestartPlanner,
};
use malleus_bench::table::{secs, times, Table};
use malleus_bench::{paper_workloads, PaperWorkload};
use malleus_cluster::{GpuId, PaperSituation, Trace};
use malleus_core::PlannerConfig;
use malleus_runtime::TrainingSession;

const SITUATIONS: [PaperSituation; 7] = [
    PaperSituation::Normal,
    PaperSituation::S1,
    PaperSituation::S2,
    PaperSituation::S3,
    PaperSituation::S4,
    PaperSituation::S5,
    PaperSituation::S6,
];

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

struct SystemRow {
    name: String,
    normal: f64,
    mfu: Option<f64>,
    times: Vec<f64>,       // per situation S1..S6
    transitions: Vec<f64>, // restart / migration costs per situation S1..S6
}

fn run_workload(workload: &PaperWorkload) {
    println!(
        "\n##### {} model on {} GPUs #####",
        workload.label,
        workload.num_gpus()
    );
    let coeffs = workload.coeffs();
    let all_gpus: Vec<GpuId> = (0..workload.num_gpus() as u32).map(GpuId).collect();

    // ---- Malleus: full session over the paper trace ----
    let cluster = workload.cluster();
    let trace = Trace::paper_trace(&cluster, 20);
    let mut session = TrainingSession::new(
        coeffs.clone(),
        PlannerConfig {
            global_batch_size: workload.global_batch_size,
            ..PlannerConfig::default()
        },
        cluster,
    );
    let report = session.run(&trace).expect("Malleus session");
    let malleus_normal = report.phases[0].step_time;
    let malleus_mfu = report.phases[0].mfu;
    let malleus_times: Vec<f64> = report.phases[1..7].iter().map(|p| p.step_time).collect();
    let malleus_migrations: Vec<f64> = report.phases[1..7]
        .iter()
        .map(|p| p.migration_time)
        .collect();

    // ---- Megatron-LM and DeepSpeed without restarts ----
    let megatron = MegatronPlanner::new(coeffs.clone(), workload.global_batch_size, 8);
    let (mega_config, mega_plan, mega_normal) = megatron.search(&all_gpus).expect("megatron cfg");
    let deepspeed = DeepSpeedPlanner::new(coeffs.clone(), workload.global_batch_size);
    let healthy_snapshot = workload.snapshot_for(PaperSituation::Normal);
    let (ds_config, ds_normal) = deepspeed
        .search(&healthy_snapshot, &all_gpus)
        .expect("deepspeed cfg");

    let mut mega_times = Vec::new();
    let mut ds_times = Vec::new();
    for situation in &SITUATIONS[1..] {
        let snapshot = workload.snapshot_for(*situation);
        mega_times.push(
            megatron
                .simulate_step(&mega_plan, &snapshot, mega_config.activation_checkpointing)
                .unwrap_or(f64::NAN),
        );
        ds_times.push(
            deepspeed
                .simulate_step(&snapshot, &all_gpus, &ds_config)
                .unwrap_or(f64::NAN),
        );
    }

    // ---- Restart variants ----
    let mut restart_rows = Vec::new();
    for (family, name, normal, mfu) in [
        (
            RestartFamily::Megatron,
            "Megatron-LM w/ Restart",
            mega_normal,
            megatron.mfu(&mega_plan, &healthy_snapshot),
        ),
        (
            RestartFamily::DeepSpeed,
            "DeepSpeed w/ Restart",
            ds_normal,
            deepspeed.mfu(&healthy_snapshot, &all_gpus, &ds_config),
        ),
    ] {
        let planner = RestartPlanner::new(family, coeffs.clone(), workload.global_batch_size, 8);
        let mut prev_nodes: Option<Vec<u32>> = Some((0..workload.num_nodes).collect());
        let mut step_times = Vec::new();
        let mut restart_costs = Vec::new();
        for situation in &SITUATIONS[1..] {
            let snapshot = workload.snapshot_for(*situation);
            match planner.handle_situation(&snapshot, prev_nodes.as_deref()) {
                Ok(outcome) => {
                    step_times.push(outcome.step_time);
                    restart_costs.push(outcome.restart_cost);
                    prev_nodes = Some(outcome.nodes_used);
                }
                Err(_) => {
                    step_times.push(f64::NAN);
                    restart_costs.push(f64::NAN);
                }
            }
        }
        restart_rows.push(SystemRow {
            name: name.to_string(),
            normal,
            mfu,
            times: step_times,
            transitions: restart_costs,
        });
    }

    // ---- Theoretic optimum ----
    let optimum: Vec<f64> = SITUATIONS[1..]
        .iter()
        .map(|s| theoretic_optimal_time(malleus_normal, &workload.snapshot_for(*s)))
        .collect();

    let rows = vec![
        SystemRow {
            name: "DeepSpeed w/o Restart".to_string(),
            normal: ds_normal,
            mfu: deepspeed.mfu(&healthy_snapshot, &all_gpus, &ds_config),
            times: ds_times,
            transitions: vec![f64::NAN; 6],
        },
        SystemRow {
            name: "Megatron-LM w/o Restart".to_string(),
            normal: mega_normal,
            mfu: megatron.mfu(&mega_plan, &healthy_snapshot),
            times: mega_times,
            transitions: vec![f64::NAN; 6],
        },
        restart_rows.remove(1),
        restart_rows.remove(0),
        SystemRow {
            name: "Malleus".to_string(),
            normal: malleus_normal,
            mfu: Some(malleus_mfu),
            times: malleus_times.clone(),
            transitions: malleus_migrations,
        },
        SystemRow {
            name: "Theoretic Opt.".to_string(),
            normal: malleus_normal,
            mfu: None,
            times: optimum,
            transitions: vec![f64::NAN; 6],
        },
    ];

    // ---- Table 2 ----
    let mut table = Table::new([
        "system",
        "Normal",
        "MFU",
        "S1",
        "S2",
        "S3",
        "S4",
        "S5",
        "S6",
        "Avg. Improv.",
    ]);
    for row in &rows {
        let improvements: Vec<f64> = row
            .times
            .iter()
            .zip(malleus_times.iter())
            .filter(|(t, _)| t.is_finite())
            .map(|(t, m)| t / m)
            .collect();
        let avg = if row.name == "Malleus" || row.name == "Theoretic Opt." {
            "-".to_string()
        } else {
            times(geomean(&improvements))
        };
        let mut cells = vec![
            row.name.clone(),
            secs(row.normal),
            row.mfu
                .map(|m| format!("{:.1}%", m * 100.0))
                .unwrap_or_else(|| "-".to_string()),
        ];
        cells.extend(row.times.iter().map(|t| {
            if t.is_finite() {
                secs(*t)
            } else {
                "n/a".to_string()
            }
        }));
        cells.push(avg);
        table.row(cells);
    }
    println!("\nTable 2 — averaged running time per step (seconds):");
    table.print();

    // ---- Figure 7 annotations: transition costs ----
    let mut costs = Table::new(["system", "S1", "S2", "S3", "S4", "S5", "S6"]);
    for row in rows
        .iter()
        .filter(|r| r.transitions.iter().any(|c| c.is_finite()))
    {
        let mut cells = vec![row.name.clone()];
        cells.extend(row.transitions.iter().map(|c| {
            if c.is_finite() {
                format!("{c:.1}s")
            } else {
                "-".to_string()
            }
        }));
        costs.row(cells);
    }
    println!("\nFigure 7 — transition costs when entering each situation (Malleus: migration, baselines: restart):");
    costs.print();

    println!("\nconfigurations: Megatron-LM = {mega_config}, DeepSpeed = {ds_config}");
}

fn main() {
    println!("Experiment: end-to-end evaluation (Figure 7, Table 2)");
    for workload in paper_workloads() {
        run_workload(&workload);
    }
}

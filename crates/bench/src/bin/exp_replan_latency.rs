//! Incremental (delta) replanning latency vs full enumeration.
//!
//! A 256-GPU cluster whose stragglers flap between discrete severity levels
//! is the worst case the paper's §5.3 overlap has to hide: every drift
//! re-triggers planning.  The warm-start delta replanner persists the scored
//! candidate lattice with each outcome and memoizes candidate evaluations, so
//! a *recurrent* drift state replans from memo hits instead of re-evaluating
//! the lattice.  This harness is self-asserting:
//!
//! * every event — drift or structural — must produce a plan **byte-identical**
//!   to the full-enumeration (`incremental = false`) reference;
//! * on the warm flap cycle every delta replan must be fully memoized
//!   (`evaluated == 0`) and, in full mode, at least **10x** faster in
//!   aggregate than the full-enumeration reference;
//! * structural events (GPU failure, rejoin) must fall back to full
//!   enumeration (`lattice.delta == false`).
//!
//! ```bash
//! cargo run --release -p malleus-bench --bin exp_replan_latency            # 256-GPU, asserts ≥10x
//! cargo run --release -p malleus-bench --bin exp_replan_latency -- --smoke # 128-GPU, identity/reuse only
//! ```
//!
//! `--smoke` keeps the run CI-cheap (smaller cluster) and skips only the
//! wall-clock ratio assertion — timing on shared runners is noisy, while the
//! byte-identity and full-reuse assertions are deterministic.  The
//! `BENCH_replan.json` artifact is written in both modes.

use malleus_bench::table::Table;
use malleus_bench::{write_json, JsonValue, ScenarioMatrix};
use malleus_cluster::{GpuId, StragglerLevel};
use malleus_core::Parallelism;
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let label = if smoke { "128-GPU" } else { "256-GPU" };
    println!(
        "Experiment: incremental replanning latency ({label}{})",
        if smoke { ", smoke" } else { "" }
    );
    let scenario = ScenarioMatrix::large_scale()
        .get(label)
        .cloned()
        .unwrap_or_else(|| panic!("no {label} scenario"));
    let base = scenario.snapshot();

    // Delta side: incremental replanning (the default).  Full side: the same
    // planner with the flag off — every replan re-enumerates the lattice.
    let delta_planner = scenario.planner(Parallelism::Fixed(1));
    assert!(
        delta_planner.config.incremental,
        "incremental replanning must default on"
    );
    let mut full_planner = scenario.planner(Parallelism::Fixed(1));
    full_planner.config.incremental = false;

    let mut delta_prev = delta_planner.plan(&base).expect("initial delta plan");
    let mut full_prev = full_planner.plan(&base).expect("initial full plan");
    assert_eq!(delta_prev, full_prev, "initial plan");
    assert!(
        delta_prev.lattice.is_some(),
        "incremental planner must attach the scored lattice"
    );
    assert!(
        full_prev.lattice.is_none(),
        "non-incremental planner must not attach a lattice"
    );

    // The flapping straggler: one of the scenario's baked-in stragglers
    // cycles through two foreign severity levels and back to its base rate.
    let straggler = base
        .rates
        .iter()
        .position(|r| r.is_finite() && *r > 1.05)
        .expect("scenario has stragglers");
    let gpu = GpuId(straggler as u32);
    let original = base.rates[straggler];
    let mut flaps: Vec<f64> = [
        StragglerLevel::Level1,
        StragglerLevel::Level2,
        StragglerLevel::Level3,
        StragglerLevel::Level8,
    ]
    .iter()
    .map(|l| l.rate())
    .filter(|r| r.to_bits() != original.to_bits())
    .take(2)
    .collect();
    flaps.push(original);

    let mut table = Table::new([
        "event",
        "phase",
        "delta (ms)",
        "full (ms)",
        "reused",
        "evaluated",
    ]);
    let mut events = Vec::new();
    let mut warm_delta = 0.0;
    let mut warm_full = 0.0;
    let cycles = 2;
    for cycle in 0..cycles {
        // Last cycle replays rate states the memo has already seen.
        let phase = if cycle + 1 == cycles { "warm" } else { "cold" };
        for &rate in &flaps {
            let snapshot = base.with_rate(gpu, rate);
            let event = format!("drift gpu{} -> {rate:.2}", gpu.0);
            let t0 = Instant::now();
            let delta_out = delta_planner
                .replan_delta(&snapshot, &delta_prev)
                .unwrap_or_else(|e| panic!("{event}: delta replan: {e}"));
            let delta_secs = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let full_out = full_planner
                .replan(&snapshot, &full_prev.plan)
                .unwrap_or_else(|e| panic!("{event}: full replan: {e}"));
            let full_secs = t0.elapsed().as_secs_f64();

            assert_eq!(delta_out, full_out, "{event}");
            let lattice = delta_out.lattice.clone().expect("delta lattice");
            assert!(
                lattice.delta,
                "{event}: drift-only event must take the delta route"
            );
            if phase == "warm" {
                assert_eq!(
                    lattice.evaluated, 0,
                    "{event}: recurrent drift state must be fully memoized"
                );
                assert_eq!(lattice.reused, lattice.entries.len());
                warm_delta += delta_secs;
                warm_full += full_secs;
            }
            table.row([
                event.clone(),
                phase.to_string(),
                format!("{:.2}", delta_secs * 1e3),
                format!("{:.2}", full_secs * 1e3),
                lattice.reused.to_string(),
                lattice.evaluated.to_string(),
            ]);
            events.push(JsonValue::obj(vec![
                ("event", JsonValue::str(event)),
                ("phase", JsonValue::str(phase)),
                ("delta_secs", JsonValue::Num(delta_secs)),
                ("full_secs", JsonValue::Num(full_secs)),
                ("reused", JsonValue::Num(lattice.reused as f64)),
                ("evaluated", JsonValue::Num(lattice.evaluated as f64)),
                ("delta_route", JsonValue::Bool(lattice.delta)),
            ]));
            delta_prev = delta_out;
            full_prev = full_out;
        }
    }

    // Structural events: the flapping GPU fails outright, then rejoins.
    // Both must bypass the memo and fall back to full enumeration — and stay
    // byte-identical to the reference while doing so.
    let failed = base.with_rate(gpu, f64::INFINITY);
    let rejoined = failed.with_rate(gpu, StragglerLevel::Level1.rate());
    for (event, snapshot) in [
        (format!("failure gpu{}", gpu.0), failed.clone()),
        (format!("rejoin gpu{} -> Level1", gpu.0), rejoined),
    ] {
        let t0 = Instant::now();
        let delta_out = delta_planner
            .replan_delta(&snapshot, &delta_prev)
            .unwrap_or_else(|e| panic!("{event}: delta replan: {e}"));
        let delta_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let full_out = full_planner
            .replan(&snapshot, &full_prev.plan)
            .unwrap_or_else(|e| panic!("{event}: full replan: {e}"));
        let full_secs = t0.elapsed().as_secs_f64();
        assert_eq!(delta_out, full_out, "{event}");
        let lattice = delta_out.lattice.clone().expect("delta lattice");
        assert!(
            !lattice.delta,
            "{event}: structural event must fall back to full enumeration"
        );
        table.row([
            event.clone(),
            "structural".to_string(),
            format!("{:.2}", delta_secs * 1e3),
            format!("{:.2}", full_secs * 1e3),
            lattice.reused.to_string(),
            lattice.evaluated.to_string(),
        ]);
        events.push(JsonValue::obj(vec![
            ("event", JsonValue::str(event)),
            ("phase", JsonValue::str("structural")),
            ("delta_secs", JsonValue::Num(delta_secs)),
            ("full_secs", JsonValue::Num(full_secs)),
            ("reused", JsonValue::Num(lattice.reused as f64)),
            ("evaluated", JsonValue::Num(lattice.evaluated as f64)),
            ("delta_route", JsonValue::Bool(lattice.delta)),
        ]));
        delta_prev = delta_out;
        full_prev = full_out;
    }

    println!();
    table.print();
    let speedup = warm_full / warm_delta.max(1e-9);
    println!(
        "\nWarm flap cycle: delta {:.2} ms vs full {:.2} ms -> {speedup:.1}x",
        warm_delta * 1e3,
        warm_full * 1e3
    );
    println!("(Every event above was byte-identical to full enumeration.)");
    if !smoke {
        assert!(
            speedup >= 10.0,
            "warm drift-only replans must be at least 10x faster than full \
             enumeration at {label} (got {speedup:.1}x)"
        );
    }

    let artifact = JsonValue::obj(vec![
        ("experiment", JsonValue::str("replan_latency")),
        ("smoke", JsonValue::Bool(smoke)),
        ("scenario", JsonValue::str(label)),
        ("num_gpus", JsonValue::Num(scenario.num_gpus() as f64)),
        ("warm_delta_secs", JsonValue::Num(warm_delta)),
        ("warm_full_secs", JsonValue::Num(warm_full)),
        ("warm_speedup", JsonValue::Num(speedup)),
        ("events", JsonValue::Arr(events)),
    ]);
    match write_json("BENCH_replan.json", &artifact) {
        Ok(()) => println!("\nWrote BENCH_replan.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_replan.json: {e}"),
    }
}

//! End-to-end and per-layer benchmark of Malleus replanning and the plan
//! daemon, on the paper's 64-GPU LLaMA-110B testbed.
//!
//! ```text
//! cargo run --release --offline --manifest-path replanbench/Cargo.toml -- \
//!     --workload replan-drift --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Human-readable tables go to standard error; the last line of standard
//! output is one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`).  See `replanbench/README.md`.

mod drift;
mod flap;
mod fleet;
mod process;
mod report;
mod setup;
mod speed;
mod stats;
mod testbed;
mod trace;
mod trainer;

use malleus_bench::JsonValue;
use report::Report;
use std::path::Path;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["replan-drift", "replan-flap", "daemon-fleet"];

/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    process::one_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("replanbench: {e}");
            return ExitCode::from(2);
        }
    };
    match process::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("pinned to CPU {cpu}"),
        Err(e) => {
            eprintln!("replanbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let run = match args.workload.as_str() {
        "replan-drift" => drift::run,
        "replan-flap" => flap::run,
        _ => fleet::run,
    };
    let report = match run(args.seed, args.seconds, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("replanbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = report.tracer() {
        let path = Path::new(TRACE_DIR).join(format!("{}-seed{}.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| tracer.write_tsv(&path));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("replanbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    eprint!("{}", report.table(&args.workload));
    println!("{}", result_json(&report, args.trace));
    ExitCode::SUCCESS
}

/// The result line: `correct`, `attempted`, `failed` and the end-to-end
/// (untraced) or per-layer (traced) metrics.  A non-finite value renders as
/// `null`.
fn result_json(report: &Report, traced: bool) -> String {
    let metrics = if traced {
        report.layer_metrics()
    } else {
        report.end_to_end()
    };
    let (attempted, failed) = report.attempted_failed();
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let metric = JsonValue::obj(vec![
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::str(unit)),
            ]);
            (name, metric)
        })
        .collect();
    JsonValue::obj(vec![
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::Num(attempted as f64)),
        ("failed", JsonValue::Num(failed as f64)),
        ("metrics", JsonValue::obj(metrics)),
    ])
    .render()
}

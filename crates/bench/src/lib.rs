//! `malleus-bench` — experiment harnesses and benchmarks.
//!
//! Every table and figure in the paper's evaluation (§7 and Appendices A–B)
//! has a corresponding binary under `src/bin/` that regenerates it on the
//! simulated substrate; `EXPERIMENTS.md` at the repository root records the
//! paper-reported values next to the reproduced ones.  `benches/division_bench`
//! times the division solver against the frozen seed reference.
//!
//! This library holds the shared pieces: canonical workload setups
//! ([`scenarios`]), minimal text-table rendering ([`table`]), and a
//! hand-rolled JSON writer for the machine-readable `BENCH_*.json` artifacts
//! CI uploads ([`report`]).

pub mod report;
pub mod scenarios;
pub mod table;

pub use report::{write_json, JsonValue};
pub use scenarios::{paper_workloads, PaperWorkload, ScenarioMatrix, SyntheticScenario};
pub use table::Table;

//! Golden paper tables: the stdout of every deterministic `exp_*` harness,
//! pinned byte for byte.
//!
//! These nine binaries regenerate the reproduction's tables and figures from
//! seeded inputs and print no wall-clock reading, so two runs print the same
//! bytes. Each test runs one binary and compares its stdout with
//! `tests/golden/<bin>.txt`; a mismatch prints the first lines that differ.
//! The tables round to two decimals, so `exp_backend_arena`'s
//! `BENCH_arena.json`, which keeps every step time at full precision, is
//! pinned too. A golden file changes only by a reviewed edit that names its
//! reason.
//!
//! Each binary runs in a fresh directory of its own under the target's
//! scratch directory, because some write artifacts into their working
//! directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Lines shown on either side after the first difference.
const SHOWN: usize = 6;

/// Characters shown on either side of the first differing column.
const WINDOW: usize = 40;

/// Run `exe` with `args` in a fresh directory named after `bin`, compare
/// its stdout with `golden`, and return the directory.
fn run_golden(bin: &str, exe: &str, args: &[&str], golden: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("golden_tables")
        .join(bin);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the harness directory");
    }
    std::fs::create_dir_all(&dir).expect("create the harness directory");
    let output = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("{bin} did not start: {e}"));
    assert!(
        output.status.success(),
        "{bin} {args:?} failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert_same(&format!("{bin}.txt"), golden, &stdout);
    dir
}

/// Panic unless `actual` equals `golden` (the content of
/// `tests/golden/<file>`), showing the first lines that differ and the
/// first differing column.
fn assert_same(file: &str, golden: &str, actual: &str) {
    if actual == golden {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let first = want
        .iter()
        .zip(&got)
        .position(|(w, g)| w != g)
        .unwrap_or(want.len().min(got.len()));
    let excerpt = |lines: &[&str]| {
        lines
            .iter()
            .enumerate()
            .skip(first)
            .take(SHOWN)
            .map(|(i, line)| {
                let shown: String = line.chars().take(2 * WINDOW).collect();
                let cut = if shown.len() < line.len() { " …" } else { "" };
                format!("{:>5} | {shown}{cut}\n", i + 1)
            })
            .collect::<String>()
    };
    let (w, g) = (
        want.get(first).copied().unwrap_or(""),
        got.get(first).copied().unwrap_or(""),
    );
    let column = w
        .chars()
        .zip(g.chars())
        .position(|(a, b)| a != b)
        .unwrap_or(w.chars().count().min(g.chars().count()));
    let window = |line: &str| {
        line.chars()
            .skip(column.saturating_sub(WINDOW))
            .take(2 * WINDOW)
            .collect::<String>()
    };
    panic!(
        "output moved from tests/golden/{file} at line {}, column {} \
         ({} golden lines, {} printed)\n--- golden\n{}+++ printed\n{}\
         around the column:\n  golden  {}\n  printed {}",
        first + 1,
        column + 1,
        want.len(),
        got.len(),
        excerpt(&want),
        excerpt(&got),
        window(w),
        window(g),
    );
}

macro_rules! golden_tables {
    ($($test:ident: $bin:literal;)*) => {$(
        #[test]
        fn $test() {
            run_golden(
                $bin,
                env!(concat!("CARGO_BIN_EXE_", $bin)),
                &[],
                include_str!(concat!("golden/", $bin, ".txt")),
            );
        }
    )*};
}

golden_tables! {
    ablation_figure_9: "exp_ablation";
    case_studies_table_4: "exp_case_studies";
    cost_model_accuracy_table_3: "exp_cost_model_accuracy";
    end_to_end_table_2_and_figure_7: "exp_end_to_end";
    enumeration_figure_10: "exp_enumeration";
    oobleck_figure_8: "exp_oobleck";
    restart_configs_tables_6_and_7: "exp_restart_configs";
    theorem2_validation_figures_5_and_11: "exp_theorem2_validation";
}

#[test]
fn backend_arena_smoke() {
    let dir = run_golden(
        "exp_backend_arena",
        env!("CARGO_BIN_EXE_exp_backend_arena"),
        &["--smoke"],
        include_str!("golden/exp_backend_arena.txt"),
    );
    let artifact =
        std::fs::read_to_string(dir.join("BENCH_arena.json")).expect("BENCH_arena.json written");
    assert_same(
        "BENCH_arena.json",
        include_str!("golden/BENCH_arena.json"),
        &artifact,
    );
}

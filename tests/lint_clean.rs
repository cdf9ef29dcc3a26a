//! Tier-1 gate: `cargo clippy --workspace --all-targets -- -D warnings` must
//! report zero findings.
//!
//! The workspace's static invariants are clippy lints configured in the crate
//! manifests, crate roots and per-crate `clippy.toml` files: ranked locks,
//! panic-free serving paths, bitwise float comparison, no wall clock in plan
//! scoring, and a reason on every suppression (see the README's "Static
//! analysis"). This test is where they are enforced: CI's `check` job
//! installs clippy and runs it as part of `cargo test -q`; there is no
//! separate lint job. A toolchain without clippy fails it rather than skipping.

use std::path::Path;
use std::process::Command;

#[test]
fn workspace_has_zero_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // A target directory of its own, so this run never waits on the build
    // lock held by the enclosing `cargo test`.
    let output = Command::new(env!("CARGO"))
        .current_dir(root)
        .args([
            "clippy",
            "--offline",
            "--workspace",
            "--all-targets",
            "--target-dir",
            "target/lint-clean",
            "--",
            "-D",
            "warnings",
        ])
        .output()
        .expect("cargo runs");
    assert!(
        output.status.success(),
        "cargo clippy failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}

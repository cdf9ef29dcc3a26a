//! Tier-1 gate: `malleus-lint --workspace` must report zero findings.
//!
//! This keeps the concurrency and byte-identity invariants (ranked locks,
//! panic-free serving paths, bitwise float comparisons, deterministic
//! scoring) enforced by `cargo test -q`, not just by the CI lint job — a
//! regression in any of them fails the suite with the exact diagnostic.

use std::path::Path;

#[test]
fn workspace_has_zero_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = malleus_lint::run_workspace(root).expect("lint scan runs");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); did the source walk break?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.findings.is_empty(),
        "malleus-lint found {} violation(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}

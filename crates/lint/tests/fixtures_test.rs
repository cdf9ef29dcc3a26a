//! Fixture self-tests: each fixture under `tests/fixtures/` must produce
//! exactly the expected diagnostic codes, so every rule has a pinned
//! positive and negative example that fails loudly if a heuristic drifts.

use malleus_lint::{run_source, Finding};

fn check(name: &str, source: &str, expected_codes: &[&str]) {
    let findings: Vec<Finding> = run_source(name, source);
    let codes: Vec<&str> = findings.iter().map(|f| f.code.as_str()).collect();
    assert_eq!(
        codes, expected_codes,
        "fixture {name} produced unexpected findings: {findings:#?}"
    );
}

#[test]
fn ml001_raw_mutex_field_is_flagged() {
    let src = include_str!("fixtures/ml001_raw_mutex.rs");
    check("ml001_raw_mutex.rs", src, &["ML001"]);
    let findings = run_source("ml001_raw_mutex.rs", src);
    assert!(findings[0].message.contains("RankedMutex"));
}

#[test]
fn ml001_ranked_mutex_and_condvar_are_clean() {
    check(
        "ml001_ranked.rs",
        include_str!("fixtures/ml001_ranked.rs"),
        &[],
    );
}

#[test]
fn ml002_panic_paths_are_flagged() {
    check(
        "ml002_panics.rs",
        include_str!("fixtures/ml002_panics.rs"),
        &["ML002", "ML002", "ML002", "ML002"],
    );
}

#[test]
fn ml002_typed_errors_are_clean() {
    check(
        "ml002_typed.rs",
        include_str!("fixtures/ml002_typed.rs"),
        &[],
    );
}

#[test]
fn ml003_float_identity_breaks_are_flagged() {
    check(
        "ml003_float_eq.rs",
        include_str!("fixtures/ml003_float_eq.rs"),
        &["ML003", "ML003", "ML003"],
    );
}

#[test]
fn ml003_to_bits_comparisons_are_clean() {
    check(
        "ml003_to_bits.rs",
        include_str!("fixtures/ml003_to_bits.rs"),
        &[],
    );
}

#[test]
fn ml004_nondeterminism_sources_are_flagged() {
    check(
        "ml004_wallclock.rs",
        include_str!("fixtures/ml004_wallclock.rs"),
        &["ML004", "ML004", "ML004"],
    );
}

#[test]
fn ml004_seeded_randomness_is_clean() {
    check(
        "ml004_seeded.rs",
        include_str!("fixtures/ml004_seeded.rs"),
        &[],
    );
}

#[test]
fn ml005_reasoned_pragma_suppresses_and_reasonless_is_flagged() {
    let src = include_str!("fixtures/ml005_pragmas.rs");
    check("ml005_pragmas.rs", src, &["ML005", "ML004"]);
    let findings = run_source("ml005_pragmas.rs", src);
    assert!(findings[0].message.contains("reason"));
}

//! Fixture self-tests for the clippy lints that carry the workspace's static
//! invariants (README "Static analysis"). Each rule has a positive and a
//! negative fixture, checked by `clippy-driver` as if it were part of a file
//! the rule guards: under that crate's `clippy.toml`, the `#![cfg_attr(..)]`
//! lint levels of the crate root and the file, and the workspace `[lints]`.
//! A config edit that stops a rule firing fails here.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

/// Clippy's findings on `fixture` placed in `host` (a workspace source file),
/// as sorted `(lint, JSON diagnostic)` pairs. `name` keeps the outputs of
/// concurrent tests apart.
fn clippy(name: &str, host: &str, fixture: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &str| std::fs::read_to_string(root.join(path)).expect("readable");
    let crate_dir = &host[..host.find("/src/").expect("a crate source file")];
    let mut files = vec![format!("{crate_dir}/src/lib.rs")];
    if files[0] != host {
        files.push(host.to_string());
    }
    let mut source = String::new();
    for file in &files {
        let text = read(file);
        for (at, _) in text.match_indices("#![cfg_attr(") {
            source.push_str(&text[at..at + text[at..].find(")]").expect("closed") + 2]);
        }
    }
    source.push_str(fixture);
    let manifest = read("Cargo.toml");
    let workspace_lints = manifest.split("[workspace.lints.clippy]").nth(1);
    let denied = workspace_lints
        .expect("workspace lints")
        .lines()
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.strip_suffix(" = \"deny\""))
        .map(|lint| format!("-Dclippy::{lint}"));
    let mut child = Command::new(Path::new(env!("CARGO")).with_file_name("clippy-driver"))
        .env("CLIPPY_CONF_DIR", root.join(crate_dir))
        .args(["-", "--crate-type=lib", "--edition=2021", "--emit=metadata"])
        .args(["--error-format=json", "-Dwarnings", "--crate-name", name])
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .args(denied)
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("clippy-driver runs (rustup component add clippy)");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(source.as_bytes()).expect("fixture sent");
    drop(stdin);
    let output = child.wait_with_output().expect("clippy-driver exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let mut found: Vec<(String, String)> = stderr
        .lines()
        .filter_map(|line| {
            let code = line.split("\"code\":{\"code\":\"").nth(1)?;
            let code = code[..code.find('"')?].trim_start_matches("clippy::");
            Some((code.to_string(), line.to_string()))
        })
        .collect();
    found.sort();
    // A fixture that does not parse fails without a lint code.
    let clean = output.status.success();
    assert_eq!(clean, found.is_empty(), "{name}:\n{stderr}");
    found
}

fn lints(found: &[(String, String)]) -> Vec<&str> {
    found.iter().map(|(lint, _)| lint.as_str()).collect()
}

#[test]
fn ml001_raw_mutex_field_is_flagged() {
    let src = "pub struct Table { pub a: std::sync::Mutex<u8>, pub b: std::sync::RwLock<u8> }";
    let found = clippy("ml001_raw_mutex", "crates/service/src/cache.rs", src);
    assert_eq!(lints(&found), ["disallowed_types"; 2]);
    assert!(found[0].1.contains("RankedMutex"));
}

#[test]
fn ml001_ranked_mutex_and_condvar_are_clean() {
    let src = r#"
        #[expect(clippy::disallowed_types, reason = "the ranked wrapper owns the raw lock")]
        pub struct RankedMutex<T>(std::sync::Mutex<T>);
        pub struct AdmissionGate { pub state: RankedMutex<u32>, pub freed: std::sync::Condvar }
    "#;
    let found = clippy("ml001_ranked", "crates/service/src/admission.rs", src);
    assert_eq!(found, []);
}

#[test]
fn ml002_panic_paths_are_flagged() {
    let src = r#"
        pub fn decode(buf: &[u8], idx: usize) -> u8 {
            let first = buf.first().copied().unwrap();
            let second = buf.get(1).copied().expect("short frame");
            if first == 0 { panic!("zero magic"); }
            first ^ second ^ buf[idx]
        }
    "#;
    let found = clippy("ml002_panics", "crates/service/src/server.rs", src);
    let expected = ["expect_used", "indexing_slicing", "panic", "unwrap_used"];
    assert_eq!(lints(&found), expected);
}

// A literal index such as `buf[0]` is a finding too, so the clean shape is
// `first()`.
#[test]
fn ml002_typed_errors_are_clean() {
    let src = r#"
        pub enum WireError { Truncated, BadMagic }
        pub fn decode(buf: &[u8], idx: usize) -> Result<u8, WireError> {
            let Some(&magic) = buf.first() else { return Err(WireError::Truncated) };
            if magic != 0x4d { return Err(WireError::BadMagic); }
            buf.get(idx).copied().ok_or(WireError::Truncated)
        }
    "#;
    let found = clippy("ml002_typed", "crates/wire/src/lib.rs", src);
    assert_eq!(found, []);
}

// Hashing an `f64` does not compile (`f64: !Hash`), so only `==`/`!=` need a
// lint.
#[test]
fn ml003_float_identity_breaks_are_flagged() {
    let src = r#"
        pub struct Outcome { pub step_time: f64 }
        pub fn same(a: &Outcome, b: &Outcome) -> bool { a.step_time == b.step_time }
        pub fn drifted(a: &Outcome) -> bool { a.step_time != 1.05 }
    "#;
    let found = clippy("ml003_float_eq", "crates/core/src/planner.rs", src);
    assert_eq!(lints(&found), ["float_cmp"; 2]);
}

#[test]
fn ml003_to_bits_comparisons_are_clean() {
    let src = r#"
        pub struct Outcome { pub step_time: f64, pub dp: u32 }
        pub fn same(a: &Outcome, b: &Outcome) -> bool {
            a.step_time.to_bits() == b.step_time.to_bits() && a.dp == b.dp
        }
    "#;
    let found = clippy("ml003_to_bits", "crates/solver/src/lib.rs", src);
    assert_eq!(found, []);
}

// Neither `core` nor `solver` depends on `rand`, so no entropy-seeded RNG is
// reachable from plan scoring; only the wall clock needs a lint.
#[test]
fn ml004_nondeterminism_sources_are_flagged() {
    let src = r#"
        use std::time::{Instant, SystemTime};
        pub fn score(candidates: &[u64]) -> (usize, Instant, SystemTime) {
            (candidates.len(), Instant::now(), SystemTime::now())
        }
    "#;
    let found = clippy("ml004_wallclock", "crates/solver/src/lib.rs", src);
    assert_eq!(lints(&found), ["disallowed_methods"; 2]);
}

#[test]
fn ml004_seeded_randomness_is_clean() {
    let src = r#"
        use std::time::{Duration, Instant};
        pub fn score(candidates: &[u64], seed: u64, t0: Instant) -> (u64, Duration) {
            let draw = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (candidates.iter().fold(draw, |acc, c| acc ^ c), t0.elapsed())
        }
    "#;
    let found = clippy("ml004_seeded", "crates/core/src/planner.rs", src);
    assert_eq!(found, []);
}

#[test]
fn ml005_reasoned_pragma_suppresses_and_reasonless_is_flagged() {
    let src = r#"
        use std::time::Instant;
        #[expect(clippy::disallowed_methods, reason = "observability timestamp, not scored")]
        pub fn observe() -> Instant { Instant::now() }
        #[expect(clippy::disallowed_methods)]
        pub fn leak() -> Instant { Instant::now() }
        #[allow(clippy::disallowed_methods, reason = "an allow never reports going stale")]
        pub fn stale() -> Instant { Instant::now() }
    "#;
    let found = clippy("ml005_pragmas", "crates/core/src/planner.rs", src);
    let expected = ["allow_attributes", "allow_attributes_without_reason"];
    assert_eq!(lints(&found), expected);
    assert!(found[1].1.contains("without specifying a reason"));
}

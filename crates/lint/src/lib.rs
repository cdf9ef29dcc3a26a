//! malleus-lint: workspace-native static analysis for the Malleus planner.
//!
//! Four invariants that `rustc` cannot see end-to-end, checked over a
//! hand-rolled lexer (no crates.io dependencies, so the lint runs in the
//! same offline environment as tier-1):
//!
//! | code  | invariant |
//! |-------|-----------|
//! | ML001 | no raw `Mutex`/`RwLock` outside `core::parallel`: every lock is a `RankedMutex`, whose rank comes from `lock_rank` and is checked at runtime in debug builds |
//! | ML002 | no panic paths (`unwrap`/`expect`/`panic!`/computed indexing) in request-serving code |
//! | ML003 | no float `==`/`!=`/hash outside `to_bits()` byte-identity helpers |
//! | ML004 | no wall-clock or entropy reads in planner-scoring code |
//! | ML005 | `// malleus-lint: allow(MLnnn, reason = "...")` pragmas must be well-formed with a non-empty reason |
//!
//! Suppression: a well-formed allow pragma suppresses the named codes on
//! its target line.  ML005 itself is never suppressible.

pub mod lexer;
pub mod pragma;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pragma::Allow;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub code: String,
    /// Workspace-relative path (`crates/service/src/server.rs`).
    pub file: String,
    /// 1-based; 0 for file- or workspace-level findings.
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn new(code: &str, file: &str, line: u32, message: String) -> Self {
        Finding {
            code: code.to_string(),
            file: file.to_string(),
            line,
            message,
        }
    }

    /// `path:line: [MLnnn] message` (the line elided when 0).
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: [{}] {}", self.file, self.code, self.message)
        } else {
            format!(
                "{}:{}: [{}] {}",
                self.file, self.line, self.code, self.message
            )
        }
    }

    /// GitHub Actions annotation form.
    pub fn render_github(&self) -> String {
        format!(
            "::error file={},line={}::[{}] {}",
            self.file,
            self.line.max(1),
            self.code,
            self.message
        )
    }
}

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

// Rule scopes, as workspace-relative path prefixes (ML002's scope includes
// one exact file).  Code outside a rule's scope is exempt from that rule —
// e.g. benches construct `Instant::now()` legitimately, and CLI examples
// may unwrap.
const ML001_SCOPE: [&str; 3] = [
    "crates/core/src",
    "crates/service/src",
    "crates/runtime/src",
];
/// `RankedMutex` itself wraps the one raw `Mutex` ML001 allows.
const ML001_EXEMPT: &str = "crates/core/src/parallel.rs";
const ML002_SCOPE: [&str; 2] = ["crates/service/src/server.rs", "crates/wire/src"];
const ML003_SCOPE: [&str; 3] = ["crates/core/src", "crates/solver/src", "crates/wire/src"];
const ML004_SCOPE: [&str; 7] = [
    "crates/core/src/planner.rs",
    "crates/core/src/cost.rs",
    "crates/core/src/grouping.rs",
    "crates/core/src/assignment.rs",
    "crates/core/src/delta.rs",
    "crates/core/src/orchestration.rs",
    "crates/solver/src",
];

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope
        .iter()
        .any(|s| rel == *s || (rel.starts_with(s) && rel.as_bytes().get(s.len()) == Some(&b'/')))
}

struct SourceFile {
    rel: String,
    tokens: Vec<lexer::Token>,
    allows: Vec<Allow>,
}

fn load_file(rel: String, source: &str, findings: &mut Vec<Finding>) -> SourceFile {
    let lexed = lexer::lex(source);
    let (allows, pragma_errors) = pragma::parse_pragmas(&lexed);
    for e in pragma_errors {
        findings.push(Finding::new("ML005", &rel, e.line, e.message));
    }
    SourceFile {
        rel,
        tokens: rules::strip_cfg_test(&lexed.tokens),
        allows,
    }
}

/// Drop findings covered by a well-formed allow pragma on their line.
/// ML005 findings survive unconditionally.
fn apply_allows(
    findings: Vec<Finding>,
    allows_by_file: &BTreeMap<String, Vec<Allow>>,
) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            if f.code == "ML005" {
                return true;
            }
            let Some(allows) = allows_by_file.get(&f.file) else {
                return true;
            };
            !allows
                .iter()
                .any(|a| a.target_line == f.line && a.codes.contains(&f.code))
        })
        .collect()
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.code.as_str(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.code.as_str(),
            b.message.as_str(),
        ))
    });
}

/// Scan the workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    for rel in collect_sources(root)? {
        let abs = root.join(&rel);
        let source = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        files.push(load_file(rel, &source, &mut findings));
    }
    let files_scanned = files.len();

    // Float fields are harvested across the whole ML003 scope so that a
    // comparison in one file sees fields declared in another.
    let mut float_fields = std::collections::BTreeSet::new();
    for f in files.iter().filter(|f| in_scope(&f.rel, &ML003_SCOPE)) {
        float_fields.extend(rules::ml003::collect_float_fields(&f.tokens));
    }

    for f in &files {
        if in_scope(&f.rel, &ML001_SCOPE) && f.rel != ML001_EXEMPT {
            rules::ml001::run(&f.rel, &f.tokens, &mut findings);
        }
        if in_scope(&f.rel, &ML002_SCOPE) {
            rules::ml002::run(&f.rel, &f.tokens, &mut findings);
        }
        if in_scope(&f.rel, &ML003_SCOPE) {
            rules::ml003::run(&f.rel, &f.tokens, &float_fields, &mut findings);
        }
        if in_scope(&f.rel, &ML004_SCOPE) {
            rules::ml004::run(&f.rel, &f.tokens, &mut findings);
        }
    }

    let allows_by_file: BTreeMap<String, Vec<Allow>> =
        files.into_iter().map(|f| (f.rel, f.allows)).collect();
    let mut findings = apply_allows(findings, &allows_by_file);
    sort_findings(&mut findings);
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// Run every rule, unscoped, over a single in-memory source file.  Fixture
/// tests use this to assert exact expected codes.
pub fn run_source(rel: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let file = load_file(rel.to_string(), source, &mut findings);

    rules::ml001::run(&file.rel, &file.tokens, &mut findings);
    rules::ml002::run(&file.rel, &file.tokens, &mut findings);
    let float_fields = rules::ml003::collect_float_fields(&file.tokens);
    rules::ml003::run(&file.rel, &file.tokens, &float_fields, &mut findings);
    rules::ml004::run(&file.rel, &file.tokens, &mut findings);

    let allows_by_file: BTreeMap<String, Vec<Allow>> =
        [(file.rel, file.allows)].into_iter().collect();
    let mut findings = apply_allows(findings, &allows_by_file);
    sort_findings(&mut findings);
    findings
}

/// Workspace-relative paths of every `.rs` file under `crates/*/src`,
/// excluding the lint crate itself (its fixtures are deliberately findable).
fn collect_sources(root: &Path) -> Result<Vec<String>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "lint" || !entry.path().is_dir() {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out)?;
        }
    }
    let mut rels: Vec<String> = out
        .into_iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir: {e}"))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching_requires_path_boundaries() {
        assert!(in_scope("crates/core/src/planner.rs", &ML001_SCOPE));
        assert!(in_scope("crates/service/src/server.rs", &ML002_SCOPE));
        assert!(!in_scope("crates/core/src2/evil.rs", &ML001_SCOPE));
        // The rewritten division hot path is float-comparison heavy, so the
        // solver sits inside the ML003 byte-identity scope.
        assert!(in_scope("crates/solver/src/lib.rs", &ML003_SCOPE));
        assert!(!in_scope("crates/baselines/src/lib.rs", &ML003_SCOPE));
    }

    #[test]
    fn allow_pragma_suppresses_on_target_line_only() {
        let src = "fn f(x: f64) -> bool {\n    // malleus-lint: allow(ML003, reason = \"sentinel\")\n    x == 1.5\n}\nfn g(x: f64) -> bool { x == 2.5 }\n";
        let findings = run_source("t.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn malformed_pragma_is_ml005_and_suppresses_nothing() {
        let src = "fn f(x: f64) -> bool {\n    // malleus-lint: allow(ML003)\n    x == 1.5\n}\n";
        let findings = run_source("t.rs", src);
        let codes: Vec<&str> = findings.iter().map(|f| f.code.as_str()).collect();
        assert_eq!(codes, ["ML005", "ML003"], "{findings:?}");
    }

    #[test]
    fn render_formats() {
        let f = Finding::new("ML002", "crates/wire/src/lib.rs", 42, "boom".into());
        assert_eq!(f.render(), "crates/wire/src/lib.rs:42: [ML002] boom");
        assert_eq!(
            f.render_github(),
            "::error file=crates/wire/src/lib.rs,line=42::[ML002] boom"
        );
    }
}

//! malleus-lint CLI.
//!
//! ```text
//! malleus-lint --workspace [--root PATH] [--github]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut workspace = false;
    let mut github = false;
    let mut root = PathBuf::from(".");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--github" => github = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root requires a path"),
            },
            "--help" | "-h" => {
                println!(
                    "malleus-lint --workspace [--root PATH] [--github]\n\n\
                     Checks raw locks that bypass the lock-rank checker (ML001), panic paths\n\
                     (ML002), float byte-identity (ML003), nondeterminism sources (ML004), and\n\
                     allow-pragma hygiene (ML005).\n\
                     Exit codes: 0 clean, 1 findings, 2 usage/IO error."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return usage("missing required mode: --workspace");
    }

    match malleus_lint::run_workspace(&root) {
        Ok(report) => {
            for finding in &report.findings {
                if github {
                    println!("{}", finding.render_github());
                } else {
                    println!("{}", finding.render());
                }
            }
            eprintln!(
                "malleus-lint: {} finding(s) across {} file(s)",
                report.findings.len(),
                report.files_scanned
            );
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("malleus-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("malleus-lint: {message}\nusage: malleus-lint --workspace [--root PATH] [--github]");
    ExitCode::from(2)
}

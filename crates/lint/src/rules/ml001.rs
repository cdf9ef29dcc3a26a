//! ML001 — every lock is a `RankedMutex`.
//!
//! The lock order lives in one place, `malleus_core::parallel::lock_rank`,
//! and `RankedMutex` enforces it on every acquisition in debug builds.  A
//! raw `Mutex` or `RwLock` would bypass that checker, so this pass flags
//! every `Mutex` or `RwLock` identifier in its scope.  `Condvar` stays
//! allowed: with no raw mutex in scope it can only wait through
//! `RankedMutex::wait`, which re-checks the rank on wake.

use crate::lexer::{Token, TokenKind};
use crate::Finding;

const RAW_LOCKS: [&str; 2] = ["Mutex", "RwLock"];

pub fn run(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for tok in tokens {
        if tok.kind == TokenKind::Ident && RAW_LOCKS.contains(&tok.text.as_str()) {
            findings.push(Finding::new(
                "ML001",
                file,
                tok.line,
                format!(
                    "raw `{}` bypasses the lock-rank checker; use `RankedMutex` with a \
                     `lock_rank` constant",
                    tok.text
                ),
            ));
        }
    }
}

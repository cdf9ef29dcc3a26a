//! ML002 — panic paths in request-serving code.
//!
//! The plan server must survive arbitrary bytes from the wire: a panic
//! mid-request poisons shared state and kills the connection for every
//! multiplexed client.  In the serving scope (`crates/service/src/server.rs`
//! and `crates/wire/src`), this pass flags:
//!
//! - `.unwrap()` / `.expect(..)` — locks recover from poisoning through
//!   `RankedMutex::lock`, and decoded input must surface typed
//!   `WireError`/`ServiceError` values;
//! - `panic!(..)` / `unreachable!(..)` / `todo!(..)` / `unimplemented!(..)`;
//! - postfix slice indexing `buf[i]` / `buf[a..b]` with a non-literal
//!   index, which panics out-of-bounds — `get()` returns an Option.

use crate::lexer::{Token, TokenKind};
use crate::rules::skip_delimited;
use crate::Finding;

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can directly precede `[` without forming an index
/// expression (type syntax or array literals).
const NON_INDEX_KEYWORDS: [&str; 8] = ["mut", "in", "return", "break", "as", "ref", "move", "dyn"];

pub fn run(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.kind == TokenKind::Ident {
            let next_is = |text: &str| tokens.get(i + 1).is_some_and(|t| t.text == text);
            let prev_is = |text: &str| i >= 1 && tokens[i - 1].text == text;

            if (tok.text == "unwrap" || tok.text == "expect") && prev_is(".") && next_is("(") {
                findings.push(Finding::new(
                    "ML002",
                    file,
                    tok.line,
                    format!(
                        "`.{}()` in request-serving code can panic and poison shared state; \
                         return a typed error (`RankedMutex::lock` already recovers from poisoning)",
                        tok.text
                    ),
                ));
                i += 1;
                continue;
            }
            if PANIC_MACROS.contains(&tok.text.as_str()) && next_is("!") && !prev_is(".") {
                findings.push(Finding::new(
                    "ML002",
                    file,
                    tok.line,
                    format!(
                        "`{}!` in request-serving code aborts the connection for every \
                         multiplexed client; return a typed error instead",
                        tok.text
                    ),
                ));
                i += 2;
                continue;
            }
        }
        // Postfix indexing: `expr[i]` where `[` follows an ident, `)`, or
        // `]`.  Attribute (`#[..]`) and macro-bracket (`vec![..]`) openers
        // are excluded because `#` and `!` match neither form; keyword
        // idents (`&mut [u8]`, `for x in [..]`) open types or array
        // literals, not index expressions.
        let prev_opens_index = i >= 1
            && ((tokens[i - 1].kind == TokenKind::Ident
                && !NON_INDEX_KEYWORDS.contains(&tokens[i - 1].text.as_str()))
                || tokens[i - 1].text == ")"
                || tokens[i - 1].text == "]");
        if tok.text == "[" && prev_opens_index {
            let end = skip_delimited(tokens, i);
            let inner = &tokens[i + 1..end.saturating_sub(1)];
            if !inner.is_empty() && !is_literal_index(inner) {
                findings.push(Finding::new(
                    "ML002",
                    file,
                    tok.line,
                    "slice indexing with a computed index panics out of bounds on \
                     malformed input; use `.get(..)` and handle the miss"
                        .to_string(),
                ));
            }
            i = end;
            continue;
        }
        i += 1;
    }
}

/// Literal-only indexes (`frame[0]`, `header[4..8]`) cannot be attacker
/// controlled; anything containing an identifier or call can.
fn is_literal_index(inner: &[Token]) -> bool {
    inner
        .iter()
        .all(|t| t.kind == TokenKind::Number || t.text == ".." || t.text == "..=")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::strip_cfg_test;

    fn run_on(src: &str) -> Vec<Finding> {
        let tokens = strip_cfg_test(&lex(src).tokens);
        let mut findings = Vec::new();
        run("test.rs", &tokens, &mut findings);
        findings
    }

    #[test]
    fn unwrap_and_expect_are_flagged() {
        let f = run_on("fn f() { x.unwrap(); y.expect(\"msg\"); }");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.code == "ML002"));
    }

    #[test]
    fn panic_macros_are_flagged() {
        let f = run_on("fn f() { panic!(\"boom\"); unreachable!(); }");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn computed_index_is_flagged_but_literal_is_not() {
        let f = run_on("fn f(b: &[u8], i: usize) { let x = b[i]; let y = b[0]; let z = b[4..8]; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("get"));
    }

    #[test]
    fn type_position_and_array_literals_are_not_indexing() {
        let f = run_on("fn f(buf: &mut [u8]) { for x in [1, 2] { let _ = x; } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn attributes_and_macros_are_not_indexing() {
        let f = run_on("#[derive(Debug)]\nstruct S;\nfn f() { let v = vec![1, 2]; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn typed_error_handling_is_clean() {
        let f = run_on("fn f(b: &[u8]) -> Result<u8, E> { b.first().copied().ok_or(E::Short) }");
        assert!(f.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run_on("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        assert!(f.is_empty());
    }
}

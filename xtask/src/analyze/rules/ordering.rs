//! Rule `ordering`: every atomic call site is justified.
//!
//! Extends the SAFETY-comment discipline from unsafe blocks to atomics
//! (DESIGN.md §9): an atomic read-modify-write or message-passing site
//! is exactly as dangerous as an unsafe block — it compiles fine with
//! the wrong ordering and corrupts results under contention years
//! later. Each call site must therefore
//!
//! 1. name one of the audited `pcd_util::sync` ordering constants
//!    (`RELAXED` / `ACQUIRE` / `ACQ_REL`) in its argument list, and
//! 2. sit in a *paragraph* (contiguous non-blank lines) that contains
//!    an `// ORDERING:` comment explaining why that ordering is
//!    sufficient — one rationale may cover a cluster of related
//!    operations (a CAS loop, a publish/consume pair).
//!
//! Method-name matching: `fetch_add`-family names are unambiguously
//! atomic and always checked. `load`/`store`/`swap` also exist on
//! non-atomic types (`slice::swap`), so those only count as atomic
//! sites when an ordering constant appears among the arguments — a
//! `load` that smuggles its ordering through a variable is caught by
//! the `atomics` shim rule banning raw `Ordering::` variants instead.
//!
//! Scope: library crates (`crates/**`, `src/**`) outside test and
//! debug-guard code. The sync shim itself is the audited definition
//! site and is exempt.

use crate::analyze::structure::{IN_DEBUG, IN_TEST};
use crate::analyze::{lexer::TokenKind, FileCtx, Violation};

/// Method names that are atomic operations wherever they appear.
const ATOMIC_ALWAYS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_or",
    "fetch_sub",
    "fetch_update",
    "fetch_xor",
];

/// Method names that are atomic only when an ordering constant appears
/// in the argument list (they also exist on non-atomic types).
const ATOMIC_WITH_CONST: &[&str] = &["load", "store", "swap"];

/// The audited ordering constants exported by `pcd_util::sync`.
const ORDERING_CONSTS: &[&str] = &["RELAXED", "ACQUIRE", "ACQ_REL"];

pub(crate) fn in_scope(rel: &str) -> bool {
    (rel.starts_with("crates/") || rel.starts_with("src/")) && rel != super::atomics::SHIM
}

pub(crate) fn check(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !in_scope(ctx.rel) {
        return;
    }
    // Lines covered by an `ORDERING:` comment, and blank lines, both
    // 1-based. Block comments cover every line they span.
    let lines: Vec<&str> = ctx.src.lines().collect();
    let blank: Vec<bool> = lines.iter().map(|l| l.trim().is_empty()).collect();
    let mut ordering_comment = vec![false; lines.len() + 2];
    for t in ctx.tokens {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
            && t.text(ctx.src).contains("ORDERING:")
        {
            let span_lines = t.text(ctx.src).matches('\n').count() as u32;
            for l in t.line..=t.line + span_lines {
                if (l as usize) < ordering_comment.len() {
                    ordering_comment[l as usize] = true;
                }
            }
        }
    }
    let covered = |call_line: u32| -> bool {
        let mut l = call_line as usize;
        loop {
            if ordering_comment.get(l).copied().unwrap_or(false) {
                return true;
            }
            // Stop at the top of the paragraph (blank line above) or
            // after a sane lookback window.
            if l <= 1 || blank.get(l - 2).copied().unwrap_or(true) || call_line as usize - l >= 30 {
                return false;
            }
            l -= 1;
        }
    };

    for &i in ctx.code {
        if ctx.structure.flags_at(i) & (IN_TEST | IN_DEBUG) != 0 {
            continue;
        }
        let text = ctx.text(i);
        let always = ATOMIC_ALWAYS.contains(&text);
        let maybe = ATOMIC_WITH_CONST.contains(&text);
        if !always && !maybe {
            continue;
        }
        if ctx.prev_code(i).is_none_or(|p| ctx.text(p) != ".") {
            continue; // free function, not a method call
        }
        let Some(open) = ctx.next_code(i).filter(|&n| ctx.text(n) == "(") else {
            continue;
        };
        // Scan the argument list for an ordering constant.
        let mut depth = 0usize;
        let mut has_const = false;
        let mut j = open;
        while let Some(t) = ctx.tokens.get(j) {
            if t.kind == TokenKind::Punct {
                match t.text(ctx.src) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            } else if t.kind == TokenKind::Ident && ORDERING_CONSTS.contains(&t.text(ctx.src)) {
                has_const = true;
            }
            j += 1;
        }
        if !always && !has_const {
            continue; // `load`/`store`/`swap` on a non-atomic type
        }
        if !has_const {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "ordering",
                msg: format!(
                    "atomic `.{text}(...)` names no pcd_util::sync ordering constant \
                     (RELAXED / ACQUIRE / ACQ_REL)"
                ),
            });
        }
        if !covered(ctx.line(i)) {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "ordering",
                msg: format!(
                    "atomic `.{text}(...)` has no `// ORDERING:` rationale in its \
                     paragraph — say why this ordering is sufficient (DESIGN.md §9)"
                ),
            });
        }
    }
}

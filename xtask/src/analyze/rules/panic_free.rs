//! Rule `panic`: library code must not panic on purpose.
//!
//! Detection runs inside long-lived services (`detect_many` batch
//! workers, the future serving mode); a stray `unwrap()` in library
//! code turns a recoverable error into a worker death. Library crates
//! return `PcdError` instead. This pass bans `.unwrap()` / `.expect()`
//! method calls and the `panic!` / `todo!` / `unimplemented!` /
//! `unreachable!` macros in library sources, outside `#[cfg(test)]`
//! items and debug-guard blocks (`debug_assert…!` arguments,
//! `#[cfg(debug_assertions)]`, `if cfg!(debug_assertions)`).
//!
//! `assert!`/`assert_eq!` remain allowed: they state documented
//! invariants and are part of the paranoia-guard design, not ad-hoc
//! control flow. Infallible-by-construction sites (e.g. an `expect` on
//! a value the same function just inserted) carry
//! `// analyze: allow(panic, reason = "...")` waivers.
//!
//! Scope: `crates/*/src/**` and the root `src/**` library tree,
//! excluding `bin/` directories (CLI binaries may exit loudly) — see
//! [`in_scope`].

use crate::analyze::structure::{IN_DEBUG, IN_TEST};
use crate::analyze::{FileCtx, Violation};

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Library sources: crate `src/` trees minus binary targets.
pub(crate) fn in_scope(rel: &str) -> bool {
    let lib = (rel.starts_with("crates/") && rel.contains("/src/"))
        || (rel.starts_with("src/") || rel == "src/lib.rs");
    lib && !rel.contains("/bin/")
}

pub(crate) fn check(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !in_scope(ctx.rel) {
        return;
    }
    for &i in ctx.code {
        if ctx.structure.flags_at(i) & (IN_TEST | IN_DEBUG) != 0 {
            continue;
        }
        let text = ctx.text(i);
        if PANIC_METHODS.contains(&text)
            && ctx.prev_code(i).is_some_and(|p| ctx.text(p) == ".")
            && ctx.next_code(i).is_some_and(|n| ctx.text(n) == "(")
        {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "panic",
                msg: format!(
                    "`.{text}()` in library code — return PcdError (or waive with a \
                     reason if infallible by construction)"
                ),
            });
        }
        if PANIC_MACROS.contains(&text) && ctx.next_code(i).is_some_and(|n| ctx.text(n) == "!") {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "panic",
                msg: format!("`{text}!` in library code — return PcdError instead"),
            });
        }
    }
}

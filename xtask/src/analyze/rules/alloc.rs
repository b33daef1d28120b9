//! Rule `alloc`: no allocating constructs on the hot paths.
//!
//! PR 3 made the level loop allocation-free (`LevelScratch` arenas,
//! `contract_into` ping-pong recycling) and proved it dynamically with
//! the `alloc-stats` counting allocator. This pass is the **static**
//! counterpart: inside the kernel hot paths, constructs that allocate —
//! or may reallocate on growth — are banned at review time, so a
//! regression is caught before anyone has to run the runtime gate.
//!
//! Scope: the parallel/sequential kernel implementation files listed in
//! [`HOT_FILES`] and the `Detector` phase functions listed in
//! [`HOT_FNS`], excluding `#[cfg(test)]` and debug-guard code. Cold
//! convenience entry points that allocate by design (the non-`scratch`
//! wrappers, the watchdog's sequential fallback) carry
//! `// analyze: allow(alloc, reason = "...")` waivers against the
//! per-file budgets in `WAIVER_BUDGETS`.

use crate::analyze::structure::{IN_DEBUG, IN_TEST};
use crate::analyze::{FileCtx, Violation};

/// Whole files that are kernel hot paths (non-test code).
///
/// Deliberately *not* listed: `contract/linked.rs`, `contract/seq.rs`
/// and `matching/seq.rs` — those are the 2011-baseline and sequential
/// oracle backends, documented as allocating-by-design reference
/// implementations that only run in comparisons and tests; listing
/// them would bury the signal under blanket waivers.
pub(crate) const HOT_FILES: &[&str] = &[
    "crates/contract/src/bucket.rs",
    "crates/core/src/follow.rs",
    "crates/core/src/louvain.rs",
    "crates/core/src/scorer.rs",
    "crates/matching/src/edge_sweep.rs",
    "crates/matching/src/labelprop.rs",
    "crates/matching/src/parallel.rs",
];

/// (file, fn) pairs: only those function bodies are in scope.
pub(crate) const HOT_FNS: &[(&str, &str)] = &[
    ("crates/core/src/engine.rs", "score_phase"),
    ("crates/core/src/engine.rs", "match_phase"),
    ("crates/core/src/engine.rs", "contract_phase"),
];

/// Methods that allocate fresh storage or append-grow their receiver.
///
/// `reserve` / `resize` / `clear` are *not* banned: reserving or
/// resizing a recycled buffer to a level-derived ceiling is the
/// sanctioned scratch idiom (amortized to zero across levels, proven
/// dynamically by the alloc-stats gate); what this rule catches is
/// per-element growth and fresh containers.
const ALLOC_METHODS: &[&str] = &[
    "clone",
    "collect",
    "extend",
    "extend_from_slice",
    "insert",
    "push",
    "to_owned",
    "to_string",
    "to_vec",
];

/// `Type::ctor` paths that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Arc", "new"),
    ("Rc", "new"),
];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

pub(crate) fn check(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let whole_file = HOT_FILES.contains(&ctx.rel);
    let hot_fns: Vec<&str> = HOT_FNS
        .iter()
        .filter(|(f, _)| *f == ctx.rel)
        .map(|(_, name)| *name)
        .collect();
    if !whole_file && hot_fns.is_empty() {
        return;
    }

    for &i in ctx.code {
        if ctx.structure.flags_at(i) & (IN_TEST | IN_DEBUG) != 0 {
            continue;
        }
        if !whole_file {
            match ctx.structure.fn_at(i) {
                Some(name) if hot_fns.contains(&name) => {}
                _ => continue,
            }
        }
        let text = ctx.text(i);
        let mut flag = |what: &str| {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "alloc",
                msg: format!(
                    "{what} on a hot path — use the LevelScratch arenas / recycled \
                     GraphParts instead (static counterpart of the alloc-stats gate)"
                ),
            });
        };
        // `recv.method(...)`: previous code token is `.`.
        if ALLOC_METHODS.contains(&text)
            && ctx.prev_code(i).is_some_and(|p| ctx.text(p) == ".")
            && ctx.next_code(i).is_some_and(|n| ctx.text(n) == "(")
        {
            flag(&format!("allocating call `.{text}(...)`"));
            continue;
        }
        for (ty, ctor) in ALLOC_PATHS {
            if ctx.is_path_seq(i, &[ty, ctor]) {
                flag(&format!("allocating constructor `{ty}::{ctor}`"));
            }
        }
        if ALLOC_MACROS.contains(&text) && ctx.next_code(i).is_some_and(|n| ctx.text(n) == "!") {
            flag(&format!("allocating macro `{text}!`"));
        }
    }
}

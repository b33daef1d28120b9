//! Rule `kernel-fence` (ported): drivers dispatch through the trait
//! layer only.
//!
//! The files that hold or route the level loop
//! (`crates/core/src/driver.rs`, `engine.rs`, `shard.rs`) may not call
//! concrete kernel functions or name the concrete kernel modules of
//! `pcd-matching`/`pcd-contract` — all score/match/contract work must
//! go through the `pcd_core::kernel` trait layer, so a backend swap is
//! one registry entry, never a driver edit. The trait impls under
//! `crates/core/src/kernel/` are the one sanctioned wrapper site and
//! are exempt (they are simply not in [`KERNEL_CALLERS`]).
//!
//! Identifier-token matching makes this boundary-aware for free:
//! `contract_secs` never matches the `contract_seq` ban, and commented
//! or quoted mentions don't count.

use crate::analyze::{FileCtx, Violation};

/// Driver files fenced off from concrete kernels.
pub(crate) const KERNEL_CALLERS: &[&str] = &[
    "crates/core/src/driver.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/shard.rs",
];

/// Concrete kernel entry points (whole-identifier match).
pub(crate) const CONCRETE_KERNEL_FNS: &[&str] = &[
    "score_edge",
    "score_all_into",
    "match_unmatched_list",
    "match_unmatched_list_scratch",
    "match_edge_sweep",
    "match_edge_sweep_stats",
    "match_sequential_greedy",
    "contract_into",
    "contract_with_policy",
    "contract_linked",
    "contract_seq",
];

/// Concrete kernel module paths (`crate::module` token-path match).
pub(crate) const CONCRETE_KERNEL_PATHS: &[(&str, &str)] = &[
    ("pcd_matching", "parallel"),
    ("pcd_matching", "edge_sweep"),
    ("pcd_matching", "seq"),
    ("pcd_contract", "bucket"),
    ("pcd_contract", "linked"),
    ("pcd_contract", "seq"),
];

pub(crate) fn check(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !KERNEL_CALLERS.contains(&ctx.rel) {
        return;
    }
    for &i in ctx.code {
        let text = ctx.text(i);
        if CONCRETE_KERNEL_FNS.contains(&text) {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "kernel-fence",
                msg: format!(
                    "direct concrete-kernel call `{text}` — dispatch through the \
                     pcd_core::kernel trait layer"
                ),
            });
        }
        for (krate, module) in CONCRETE_KERNEL_PATHS {
            if ctx.is_path_seq(i, &[krate, module]) {
                out.push(Violation {
                    file: ctx.rel.to_string(),
                    line: ctx.line(i),
                    rule: "kernel-fence",
                    msg: format!(
                        "concrete kernel module `{krate}::{module}` — drivers use the \
                         pcd_core::kernel trait layer"
                    ),
                });
            }
        }
    }
}

//! Kernel trait layer: pluggable score/match/contract backends.
//!
//! The paper's algorithm is three swappable data-parallel primitives
//! inside one fixed skeleton. This module gives each primitive a trait —
//! [`Scorer`], [`Matcher`], [`Contractor`] — whose impls wrap the concrete
//! kernels in `pcd-core::scorer`, `pcd-matching`, and `pcd-contract`, plus
//! a static registry so a [`Config`](crate::Config)'s enum kinds resolve
//! **once** (at [`Config::resolve`](crate::Config::resolve) /
//! [`Detector::new`](crate::Detector::new)) into a [`KernelSet`] of
//! `&'static dyn` handles, instead of re-matching on the kind enums every
//! level.
//!
//! Contracts (see DESIGN.md §11 for the full statement):
//!
//! - Kernels are stateless units; all per-level mutable state lives in the
//!   scratch arguments, so one `&'static` instance serves every thread.
//! - A kernel must be a pure wrapper: byte-for-byte the same output as
//!   calling the underlying concrete function directly. The dispatch-parity
//!   suite (`tests/dispatch_parity.rs`) holds this to zero output bits.
//! - The engine owns policy. Masking, fault injection, paranoia guards,
//!   and timing happen around the trait calls, never inside them.

pub mod contractors;
pub mod matchers;
pub mod scorers;

use crate::config::{ContractorKind, MatcherKind, ScorerKind};
use crate::scorer::ScoreContext;
use pcd_contract::ContractScratch;
use pcd_graph::{Graph, GraphParts};
use pcd_matching::{MatchOutcome, MatchScratch, Matching};
use pcd_util::PcdError;

/// Edge-scoring backend (§III step 1). Writes one `f64` per community-graph
/// edge into `out` (cleared and resized by the impl; capacity is retained
/// so steady-state scoring allocates nothing).
///
/// May assume `ctx` is fresh for `g` — volumes indexed by `g`'s vertices
/// and `m` equal to the original graph's total weight. Must not read
/// `out`'s previous contents.
pub trait Scorer: Send + Sync {
    /// The enum kind this backend implements.
    fn kind(&self) -> ScorerKind;
    /// Stable registry name (what `--list-kernels` prints and
    /// [`scorer_by_name`] resolves).
    fn name(&self) -> &'static str;
    /// One-line human description for the registry listing.
    fn description(&self) -> &'static str;
    /// Scores every edge of `g` into `out`.
    fn score_into(&self, g: &Graph, ctx: &ScoreContext, out: &mut Vec<f64>);
}

/// Matching backend (§III step 2). Produces a valid matching over `g`'s
/// edges given per-edge `scores`.
///
/// May assume `scores.len() == g.num_edges()` and every score finite (the
/// engine guards that under cheap paranoia). `round_cap` is the watchdog
/// bound on parallel rounds; kernels with statically bounded pass counts
/// ignore it and must report `degraded: false`. Scratch is recycled by the
/// engine between levels; impls must not assume it is empty, only that
/// its buffers are theirs to overwrite.
pub trait Matcher: Send + Sync {
    /// The enum kind this backend implements.
    fn kind(&self) -> MatcherKind;
    /// Stable registry name.
    fn name(&self) -> &'static str;
    /// One-line human description for the registry listing.
    fn description(&self) -> &'static str;
    /// Matches communities to merge, reporting rounds used and whether the
    /// watchdog degraded the kernel to its sequential fallback.
    fn match_level(
        &self,
        g: &Graph,
        scores: &[f64],
        round_cap: usize,
        scratch: &mut MatchScratch,
    ) -> MatchOutcome;
}

/// Contraction backend (§III step 3). Builds the next community graph from
/// `g` and a matching, returning `(next_graph, num_new_vertices)`.
///
/// Must leave the dense old→new vertex map in `scratch` (the engine folds
/// assignments, counts, and volumes through it). `parts` is the storage of
/// the graph retired two levels ago (possibly empty); impls either scatter
/// into it or drop it — both are correct, recycling is an optimisation.
pub trait Contractor: Send + Sync {
    /// The enum kind this backend implements.
    fn kind(&self) -> ContractorKind;
    /// Stable registry name.
    fn name(&self) -> &'static str;
    /// One-line human description for the registry listing.
    fn description(&self) -> &'static str;
    /// Contracts `g` along `matching` into the next community graph.
    fn contract_level(
        &self,
        g: &Graph,
        matching: &Matching,
        scratch: &mut ContractScratch,
        parts: GraphParts,
    ) -> (Graph, usize);
}

/// All registered scorers, in listing order.
pub static SCORERS: [&dyn Scorer; 3] = [
    &scorers::Modularity,
    &scorers::Conductance,
    &scorers::HeavyEdge,
];

/// All registered matchers, in listing order.
pub static MATCHERS: [&dyn Matcher; 5] = [
    &matchers::UnmatchedList,
    &matchers::EdgeSweep,
    &matchers::SequentialGreedy,
    &matchers::LabelProp,
    &matchers::MoveMatcher,
];

/// All registered contractors, in listing order.
pub static CONTRACTORS: [&dyn Contractor; 4] = [
    &contractors::Bucket,
    &contractors::BucketFetchAdd,
    &contractors::Linked,
    &contractors::SequentialOracle,
];

/// Resolves a [`ScorerKind`] to its registered backend.
pub fn scorer_for(kind: ScorerKind) -> &'static dyn Scorer {
    registry_lookup(&SCORERS, |s| s.kind() == kind)
}

/// Resolves a [`MatcherKind`] to its registered backend.
pub fn matcher_for(kind: MatcherKind) -> &'static dyn Matcher {
    registry_lookup(&MATCHERS, |m| m.kind() == kind)
}

/// Resolves a [`ContractorKind`] to its registered backend.
pub fn contractor_for(kind: ContractorKind) -> &'static dyn Contractor {
    registry_lookup(&CONTRACTORS, |c| c.kind() == kind)
}

fn registry_lookup<T: Copy>(registry: &[T], mut pred: impl FnMut(&T) -> bool) -> T {
    *registry
        .iter()
        .find(|item| pred(item))
        // analyze: allow(panic, reason = "registries are exhaustive static tables; coverage is self-tested")
        .expect("registry covers every kind variant")
}

/// Looks a scorer up by its registry [`Scorer::name`].
pub fn scorer_by_name(name: &str) -> Option<&'static dyn Scorer> {
    SCORERS.iter().copied().find(|s| s.name() == name)
}

/// Looks a matcher up by its registry [`Matcher::name`].
pub fn matcher_by_name(name: &str) -> Option<&'static dyn Matcher> {
    MATCHERS.iter().copied().find(|m| m.name() == name)
}

/// Looks a contractor up by its registry [`Contractor::name`].
pub fn contractor_by_name(name: &str) -> Option<&'static dyn Contractor> {
    CONTRACTORS.iter().copied().find(|c| c.name() == name)
}

/// One resolved kernel per phase — what the engine dispatches through.
///
/// `Copy`: three `&'static` pointers, resolved once per
/// [`Detector`](crate::Detector) and never re-matched inside the level
/// loop.
#[derive(Clone, Copy)]
pub struct KernelSet {
    /// Edge-scoring backend.
    pub scorer: &'static dyn Scorer,
    /// Matching backend.
    pub matcher: &'static dyn Matcher,
    /// Contraction backend.
    pub contractor: &'static dyn Contractor,
}

impl std::fmt::Debug for KernelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSet")
            .field("scorer", &self.scorer.name())
            .field("matcher", &self.matcher.name())
            .field("contractor", &self.contractor.name())
            .finish()
    }
}

impl KernelSet {
    /// Resolves three enum kinds against the static registry.
    pub fn from_kinds(
        scorer: ScorerKind,
        matcher: MatcherKind,
        contractor: ContractorKind,
    ) -> Self {
        KernelSet {
            scorer: scorer_for(scorer),
            matcher: matcher_for(matcher),
            contractor: contractor_for(contractor),
        }
    }

    /// Resolves three registry names (as printed by `--list-kernels`),
    /// failing with a [`PcdError::Config`] naming the valid spellings.
    pub fn by_names(scorer: &str, matcher: &str, contractor: &str) -> Result<Self, PcdError> {
        let unknown = |what: &str, got: &str, names: Vec<&str>| {
            PcdError::config(format!(
                "unknown {what} '{got}' (expected one of: {})",
                names.join(", ")
            ))
        };
        Ok(KernelSet {
            scorer: scorer_by_name(scorer).ok_or_else(|| {
                unknown("scorer", scorer, SCORERS.iter().map(|s| s.name()).collect())
            })?,
            matcher: matcher_by_name(matcher).ok_or_else(|| {
                unknown(
                    "matcher",
                    matcher,
                    MATCHERS.iter().map(|m| m.name()).collect(),
                )
            })?,
            contractor: contractor_by_name(contractor).ok_or_else(|| {
                unknown(
                    "contractor",
                    contractor,
                    CONTRACTORS.iter().map(|c| c.name()).collect(),
                )
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_kind() {
        for kind in [
            ScorerKind::Modularity,
            ScorerKind::Conductance,
            ScorerKind::HeavyEdge,
        ] {
            assert_eq!(scorer_for(kind).kind(), kind);
        }
        for kind in [
            MatcherKind::UnmatchedList,
            MatcherKind::EdgeSweep,
            MatcherKind::Sequential,
            MatcherKind::LabelProp,
            MatcherKind::LouvainMove,
        ] {
            assert_eq!(matcher_for(kind).kind(), kind);
        }
        for kind in [
            ContractorKind::Bucket,
            ContractorKind::BucketFetchAdd,
            ContractorKind::Linked,
            ContractorKind::Sequential,
        ] {
            assert_eq!(contractor_for(kind).kind(), kind);
        }
    }

    #[test]
    fn names_are_unique_per_registry_and_resolvable() {
        // Each registry is queried separately (a matcher and a contractor
        // may both be called "sequential"), but within one registry names
        // must be unique or by-name lookup is ambiguous.
        fn assert_unique(names: &[&str]) {
            for (i, a) in names.iter().enumerate() {
                assert!(!names[i + 1..].contains(a), "duplicate kernel name {a}");
            }
        }
        assert_unique(&SCORERS.map(|s| s.name()));
        assert_unique(&MATCHERS.map(|m| m.name()));
        assert_unique(&CONTRACTORS.map(|c| c.name()));
        for s in SCORERS {
            assert!(std::ptr::eq(scorer_by_name(s.name()).unwrap(), s));
        }
        for m in MATCHERS {
            assert!(std::ptr::eq(matcher_by_name(m.name()).unwrap(), m));
        }
        for c in CONTRACTORS {
            assert!(std::ptr::eq(contractor_by_name(c.name()).unwrap(), c));
        }
    }

    #[test]
    fn by_names_round_trips_and_rejects() {
        let set = KernelSet::by_names("modularity", "unmatched-list", "bucket").unwrap();
        assert_eq!(set.scorer.kind(), ScorerKind::Modularity);
        assert_eq!(set.matcher.kind(), MatcherKind::UnmatchedList);
        assert_eq!(set.contractor.kind(), ContractorKind::Bucket);
        let err = KernelSet::by_names("modularity", "nope", "bucket").unwrap_err();
        assert!(err.to_string().contains("unknown matcher"), "{err}");
        assert!(err.to_string().contains("unmatched-list"), "{err}");
    }

    #[test]
    fn descriptions_are_single_line_and_nonempty() {
        for s in SCORERS {
            assert!(!s.description().is_empty() && !s.description().contains('\n'));
        }
        for m in MATCHERS {
            assert!(!m.description().is_empty() && !m.description().contains('\n'));
        }
        for c in CONTRACTORS {
            assert!(!c.description().is_empty() && !c.description().contains('\n'));
        }
    }

    #[test]
    fn kernel_set_debug_prints_names() {
        let set = KernelSet::from_kinds(
            ScorerKind::Modularity,
            MatcherKind::EdgeSweep,
            ContractorKind::Linked,
        );
        let dbg = format!("{set:?}");
        assert!(
            dbg.contains("modularity") && dbg.contains("edge-sweep"),
            "{dbg}"
        );
    }
}

//! Fault-injection harness (`--features fault-injection` only).
//!
//! Production guards are worthless if nothing proves they fire. A
//! [`FaultPlan`] rides inside [`crate::Config`] and deliberately corrupts
//! one phase's output at one hierarchy level, so tests can assert that the
//! matching paranoia guard converts the corruption into a structured
//! [`pcd_util::PcdError::InvariantViolation`] — and that with paranoia off
//! the corruption sails through (i.e. the guards really are the thing
//! doing the catching).
//!
//! The whole module is compiled out of normal builds: it exists only under
//! `cfg(feature = "fault-injection")`, and nothing here is reachable from
//! a release binary.

use pcd_contract::Contraction;
use pcd_graph::builder;
use pcd_matching::Matching;

/// Which corruptions to inject, and at which hierarchy level (1-based,
/// matching [`crate::LevelStats::level`]). `None` everywhere — the default
/// — injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Overwrite `scores[0]` with NaN at this level (caught by the Cheap
    /// finiteness guard in the score phase).
    pub nan_score_at_level: Option<usize>,
    /// Duplicate the first matched edge at this level, breaking the
    /// each-vertex-matched-once invariant (caught by the Full
    /// `verify_matching` guard in the match phase).
    pub duplicate_match_at_level: Option<usize>,
    /// Rebuild the contracted graph with one edge's weight reduced by 1 at
    /// this level, breaking weight conservation (caught by the Cheap
    /// conservation guard in the contract phase).
    pub drop_weight_at_level: Option<usize>,
    /// Sleep for the given milliseconds inside the match phase at this
    /// level — a deterministic "wedged matcher" that lets tests drive a
    /// [`crate::Budget`] deadline breach without timing races.
    pub stall_match_at_level: Option<(usize, u64)>,
    /// Panic at the top of the contract phase at this level — the
    /// poisoned-engine drill for [`crate::Detector::run_observed`]'s
    /// isolation and rebuild path, which every entry point goes through.
    pub panic_contract_at_level: Option<usize>,
}

impl FaultPlan {
    /// True if any fault is armed (at any level).
    pub fn is_armed(&self) -> bool {
        self.nan_score_at_level.is_some()
            || self.duplicate_match_at_level.is_some()
            || self.drop_weight_at_level.is_some()
            || self.stall_match_at_level.is_some()
            || self.panic_contract_at_level.is_some()
    }

    /// Injects the NaN-score fault if armed for `level`.
    pub fn corrupt_scores(&self, level: usize, scores: &mut [f64]) {
        if self.nan_score_at_level == Some(level) && !scores.is_empty() {
            scores[0] = f64::NAN;
        }
    }

    /// Sleeps inside the match phase if the stall fault is armed for
    /// `level`.
    pub fn stall_match(&self, level: usize) {
        if let Some((at, ms)) = self.stall_match_at_level {
            if at == level {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
    }

    /// Panics at the top of the contract phase if armed for `level`.
    pub fn panic_contract(&self, level: usize) {
        if self.panic_contract_at_level == Some(level) {
            // analyze: allow(panic, reason = "fault injection exists to panic on purpose; only armed by tests")
            panic!("fault-injection: contract-phase panic at level {level}");
        }
    }

    /// Injects the duplicate-match fault if armed for `level`.
    pub fn corrupt_matching(&self, level: usize, m: &mut Matching) {
        if self.duplicate_match_at_level != Some(level) || m.is_empty() {
            return;
        }
        let mut edges = m.matched_edges().to_vec();
        edges.push(edges[0]);
        *m = Matching::from_raw_parts(m.mates().to_vec(), edges);
    }

    /// Injects the weight-drop fault if armed for `level`: rebuilds the
    /// contracted graph from its own edges and self-loops with the last
    /// weight reduced by one. The result is a perfectly valid graph — only
    /// the conservation ledger against the parent graph can tell.
    pub fn corrupt_contraction(&self, level: usize, c: &mut Contraction) {
        if self.drop_weight_at_level != Some(level) {
            return;
        }
        let g = &c.graph;
        let mut edges: Vec<(u32, u32, u64)> = g.edges().collect();
        edges.extend(
            g.self_loops()
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0)
                .map(|(v, &w)| (v as u32, v as u32, w)),
        );
        if let Some(last) = edges.last_mut() {
            last.2 -= 1;
        } else {
            return; // Nothing to drop; fault is a no-op on an empty graph.
        }
        c.graph = builder::from_edges(g.num_vertices(), edges);
    }
}

//! Detection results: final assignment, per-level statistics, hierarchy.

use pcd_contract::ContractSteps;
use pcd_graph::Graph;
use pcd_util::VertexId;

/// Why the agglomeration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No edge had a positive score — a local maximum of the metric.
    LocalMaximum,
    /// An external [`crate::Criterion`] fired.
    Criterion,
    /// The matcher returned no pairs despite positive scores (only
    /// possible when constraints mask every positive edge).
    NoMatches,
    /// A [`crate::Budget`] limit fired at a phase boundary;
    /// [`DetectionResult::termination`] records which one.
    Budget,
}

/// How a detection run ended — the caller-facing termination contract
/// (DESIGN.md §13). [`StopReason`] records which *exit test* of the
/// agglomeration loop fired; `Termination` classifies the *outcome*:
/// whether the partition is the converged answer, a best-effort prefix cut
/// short by a [`crate::Budget`] limit, or a converged answer produced with
/// degraded (sequential-fallback) matching.
///
/// Precedence: a budget breach always wins (the run is incomplete), then
/// [`WatchdogDegraded`](Termination::WatchdogDegraded) (complete, but a
/// parallel matcher fell back to sequential), then
/// [`Converged`](Termination::Converged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The run finished on its own terms: local maximum, explicit
    /// criterion, or no matchable pairs.
    Converged,
    /// The wall-clock deadline expired; the partition is the best-effort
    /// prefix from completed levels.
    Deadline,
    /// A [`pcd_util::sync::CancelToken`] was cancelled; best-effort prefix.
    Cancelled,
    /// The scratch-memory ceiling was breached; best-effort prefix.
    MemoryCeiling,
    /// The budget's level cap was reached; best-effort prefix.
    MaxLevels,
    /// The run completed, but at least one level's matcher watchdog
    /// expired and the matching was finished by the sequential fallback
    /// (see [`LevelStats::matcher_degraded`]).
    WatchdogDegraded,
}

impl Termination {
    /// True when the run was cut short by a budget limit (the partition is
    /// a best-effort prefix rather than a converged answer).
    pub fn is_budget_breach(self) -> bool {
        matches!(
            self,
            Termination::Deadline
                | Termination::Cancelled
                | Termination::MemoryCeiling
                | Termination::MaxLevels
        )
    }

    /// Stable lower-case label (metric label values, CLI output).
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::MemoryCeiling => "memory-ceiling",
            Termination::MaxLevels => "max-levels",
            Termination::WatchdogDegraded => "watchdog-degraded",
        }
    }

    /// Every variant, in a stable order (metric registration).
    pub const ALL: [Termination; 6] = [
        Termination::Converged,
        Termination::Deadline,
        Termination::Cancelled,
        Termination::MemoryCeiling,
        Termination::MaxLevels,
        Termination::WatchdogDegraded,
    ];
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Statistics recorded for one contraction level.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Level index, starting at 1 for the first contraction.
    pub level: usize,
    /// Community-graph size *before* this contraction.
    pub num_vertices: usize,
    /// Community-graph edge count before this contraction.
    pub num_edges: usize,
    /// Pairs merged by this level's matching.
    pub pairs_merged: usize,
    /// Matching rounds (the paper argues this stays small).
    pub match_rounds: usize,
    /// True if the matcher watchdog expired at this level and the matching
    /// was completed by the sequential greedy fallback.
    pub matcher_degraded: bool,
    /// Quality after this contraction.
    pub modularity: f64,
    /// Coverage after this contraction.
    pub coverage: f64,
    /// Phase wall-clock seconds.
    pub score_secs: f64,
    /// Wall-clock seconds in the matching phase.
    pub match_secs: f64,
    /// Wall-clock seconds in the contraction phase.
    pub contract_secs: f64,
    /// The contraction's relabel / scatter / sort-accumulate / copy-back
    /// seconds (paper §IV-C), within `contract_secs`; zero for the
    /// contractors outside the bucket pipeline (`linked`, `sequential`).
    pub contract_steps: ContractSteps,
}

impl LevelStats {
    /// Total kernel seconds for this level.
    pub fn total_secs(&self) -> f64 {
        self.score_secs + self.match_secs + self.contract_secs
    }
}

/// The outcome of [`crate::detect`].
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// Community of every original vertex, dense ids `0..num_communities`.
    pub assignment: Vec<VertexId>,
    /// Number of detected communities.
    pub num_communities: usize,
    /// The final contracted community graph (one vertex per community).
    pub community_graph: Graph,
    /// Original vertices per final community.
    pub community_vertex_counts: Vec<u64>,
    /// Modularity of the final assignment over the input graph.
    pub modularity: f64,
    /// Coverage of the final assignment (fraction of edge weight inside
    /// communities).
    pub coverage: f64,
    /// Vertices of the input graph (level 0 of the hierarchy).
    pub input_vertices: usize,
    /// Edges of the input graph (level 0 of the hierarchy).
    pub input_edges: usize,
    /// Per-level statistics, in contraction order.
    pub levels: Vec<LevelStats>,
    /// When `Config::record_levels` is set: the old→new community map of
    /// every contraction level (the dendrogram). Empty otherwise.
    pub level_maps: Vec<Vec<VertexId>>,
    /// Why agglomeration stopped.
    pub stop_reason: StopReason,
    /// How the run ended: converged, cut short by a [`crate::Budget`]
    /// limit (best-effort prefix partition), or converged with degraded
    /// matching. See [`Termination`] for the precedence rules.
    pub termination: Termination,
    /// Total wall-clock seconds of the whole detection.
    pub total_secs: f64,
}

impl DetectionResult {
    /// Reconstructs the partition after `level` contractions from the
    /// recorded dendrogram (0 = singletons). Requires
    /// `Config::record_levels`; panics if levels were not recorded or
    /// `level` exceeds the recorded depth.
    pub fn assignment_at_level(&self, level: usize) -> Vec<VertexId> {
        assert!(
            level <= self.level_maps.len(),
            "level {level} beyond recorded depth {}",
            self.level_maps.len()
        );
        let n0 = self.assignment.len();
        let mut a: Vec<VertexId> = (0..n0 as u32).collect();
        for map in &self.level_maps[..level] {
            for x in a.iter_mut() {
                *x = map[*x as usize];
            }
        }
        a
    }

    /// Input edges processed per second of total wall clock — the paper's
    /// Table III rate. Zero when `total_secs` is zero.
    pub fn edges_per_sec(&self) -> f64 {
        if self.total_secs > 0.0 {
            self.input_edges as f64 / self.total_secs
        } else {
            0.0
        }
    }

    /// Sum of phase times across levels, `(score, match, contract)`.
    pub fn phase_totals(&self) -> (f64, f64, f64) {
        self.levels.iter().fold((0.0, 0.0, 0.0), |(s, m, c), l| {
            (s + l.score_secs, m + l.match_secs, c + l.contract_secs)
        })
    }

    /// Fraction of kernel time spent contracting — the paper reports
    /// "from 40% to 80%".
    pub fn contraction_fraction(&self) -> f64 {
        let (s, m, c) = self.phase_totals();
        let total = s + m + c;
        if total == 0.0 {
            0.0
        } else {
            c / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_totals_sum_levels() {
        let lvl = |s, m, c| LevelStats {
            level: 1,
            num_vertices: 0,
            num_edges: 0,
            pairs_merged: 0,
            match_rounds: 0,
            matcher_degraded: false,
            modularity: 0.0,
            coverage: 0.0,
            score_secs: s,
            match_secs: m,
            contract_secs: c,
            contract_steps: ContractSteps::default(),
        };
        let r = DetectionResult {
            assignment: vec![],
            num_communities: 0,
            community_graph: Graph::empty(0),
            community_vertex_counts: vec![],
            modularity: 0.0,
            coverage: 0.0,
            input_vertices: 8,
            input_edges: 16,
            levels: vec![lvl(1.0, 2.0, 3.0), lvl(0.5, 0.5, 1.0)],
            level_maps: Vec::new(),
            stop_reason: StopReason::LocalMaximum,
            termination: Termination::Converged,
            total_secs: 8.0,
        };
        assert_eq!(r.phase_totals(), (1.5, 2.5, 4.0));
        assert!((r.contraction_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.levels[0].total_secs(), 6.0);
        assert_eq!(r.edges_per_sec(), 2.0);
    }

    #[test]
    fn termination_labels_and_breach_classification() {
        assert_eq!(Termination::ALL.len(), 6);
        let labels: Vec<&str> = Termination::ALL.iter().map(|t| t.as_str()).collect();
        assert_eq!(
            labels,
            [
                "converged",
                "deadline",
                "cancelled",
                "memory-ceiling",
                "max-levels",
                "watchdog-degraded"
            ]
        );
        for t in Termination::ALL {
            assert_eq!(
                t.is_budget_breach(),
                !matches!(t, Termination::Converged | Termination::WatchdogDegraded),
                "{t}"
            );
            assert_eq!(t.to_string(), t.as_str());
        }
    }
}

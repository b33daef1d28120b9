//! Edge scoring (§III step 1, §IV-B).
//!
//! "Each edge's score is an independent calculation for our metrics. An
//! edge {i, j} requires its weight, the self-loop weights for i and j, and
//! the total weight of the graph." Scores land in an `|E|`-long `f64`
//! array, exactly as in the paper.

use crate::config::ScorerKind;
use pcd_graph::Graph;
use pcd_metrics::conductance::neg_delta_conductance;
use pcd_metrics::modularity::delta_modularity;
use pcd_util::par::prelude::*;
use pcd_util::Weight;

/// Precomputed per-level quantities shared by all edge scores.
#[derive(Debug)]
pub struct ScoreContext {
    /// Per-community volume (`2·self + incident weight`).
    pub vol: Vec<Weight>,
    /// Total weight `m` of the original graph.
    pub m: Weight,
}

impl ScoreContext {
    /// Precomputes volumes and the total weight of `g`.
    pub fn new(g: &Graph) -> Self {
        let mut ctx = ScoreContext::default();
        ctx.refresh(g);
        ctx
    }

    /// Recomputes the context for `g` in place, reusing the volume
    /// buffer's capacity. The driver calls this once per run; later levels
    /// fold volumes through the contraction map instead (volume is
    /// conserved exactly under pair merges).
    pub fn refresh(&mut self, g: &Graph) {
        g.volumes_into(&mut self.vol);
        self.m = g.total_weight();
    }
}

impl Default for ScoreContext {
    /// An empty context (no volumes, zero weight);
    /// [`refresh`](ScoreContext::refresh) before use.
    fn default() -> Self {
        ScoreContext {
            // analyze: allow(alloc, reason = "cold constructor: Vec::new is capacity-0 and refresh() sizes it once")
            vol: Vec::new(),
            m: 0,
        }
    }
}

/// Scores a single edge `(i, j, w)` under the chosen metric.
#[inline]
pub fn score_edge(kind: ScorerKind, g: &Graph, ctx: &ScoreContext, e: usize) -> f64 {
    let (i, j, w) = g.edge(e);
    let (vi, vj) = (ctx.vol[i as usize], ctx.vol[j as usize]);
    match kind {
        ScorerKind::Modularity => delta_modularity(ctx.m, w, vi, vj),
        ScorerKind::Conductance => {
            // cut(v) = vol(v) − 2·self(v): the weight leaving community v.
            let cut_i = vi - 2 * g.self_loop(i);
            let cut_j = vj - 2 * g.self_loop(j);
            neg_delta_conductance(2 * ctx.m, w, cut_i, cut_j, vi, vj)
        }
        ScorerKind::HeavyEdge => w as f64,
    }
}

/// Scores every edge in parallel, writing into a reused buffer (cleared
/// first; capacity is retained, so steady-state scoring allocates
/// nothing). The old allocating `score_all` was removed — callers that
/// want a fresh `Vec` pass `&mut Vec::new()`.
pub fn score_all_into(kind: ScorerKind, g: &Graph, ctx: &ScoreContext, out: &mut Vec<f64>) {
    out.clear();
    out.resize(g.num_edges(), 0.0);
    out.par_iter_mut()
        .enumerate()
        .for_each(|(e, s)| *s = score_edge(kind, g, ctx, e));
}

/// Masks (sets to `-1.0`) the score of any edge whose merge would create a
/// community with more than `max_size` original vertices — the paper's
/// "maximum community size" external constraint.
pub fn mask_oversized(g: &Graph, scores: &mut [f64], counts: &[u64], max_size: usize) {
    scores.par_iter_mut().enumerate().for_each(|(e, s)| {
        let (i, j, _) = g.edge(e);
        if counts[i as usize] + counts[j as usize] > max_size as u64 {
            *s = -1.0;
        }
    });
}

/// True if any score is positive — the local-maximum exit test.
pub fn any_positive(scores: &[f64]) -> bool {
    scores.par_iter().any(|&s| s > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcd_graph::GraphBuilder;

    // Test-local convenience over the buffer-reusing entry point.
    fn score_all(kind: ScorerKind, g: &Graph, ctx: &ScoreContext) -> Vec<f64> {
        let mut out = Vec::new();
        score_all_into(kind, g, ctx, &mut out);
        out
    }

    #[test]
    fn modularity_scores_match_delta_formula() {
        let g = pcd_gen::classic::two_cliques(4);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        for ((i, j, w), &score) in g.edges().zip(&scores) {
            let expect = delta_modularity(ctx.m, w, ctx.vol[i as usize], ctx.vol[j as usize]);
            assert_eq!(score, expect);
        }
    }

    #[test]
    fn modularity_telescopes_through_one_merge() {
        // Q(after merging i,j) == Q(before) + score(i,j): validated by the
        // driver's property tests at scale; here a minimal hand case.
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 4)
            .add_edge(1, 2, 1)
            .build();
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let q0 = pcd_metrics::community_graph_modularity(&g);
        // Merge along the (0,1) edge.
        let e01 = (0..g.num_edges())
            .find(|&e| {
                let (i, j, _) = g.edge(e);
                (i.min(j), i.max(j)) == (0, 1)
            })
            .unwrap();
        let merged = pcd_graph::builder::from_edges(
            2,
            vec![(0, 0, 4), (0, 1, 1)], // new vertex 0 = {0,1} with self 4
        );
        let q1 = pcd_metrics::community_graph_modularity(&merged);
        assert!((q1 - q0 - scores[e01]).abs() < 1e-12);
    }

    #[test]
    fn heavy_edge_scores_are_weights() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 7)
            .add_edge(1, 2, 2)
            .build();
        let ctx = ScoreContext::new(&g);
        let s = score_all(ScorerKind::HeavyEdge, &g, &ctx);
        let mut ws: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let mut got = s.clone();
        ws.sort_by(f64::total_cmp);
        got.sort_by(f64::total_cmp);
        assert_eq!(got, ws);
    }

    #[test]
    fn conductance_scorer_rewards_dense_merges() {
        let g = pcd_gen::classic::two_cliques(5);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Conductance, &g, &ctx);
        // Intra-clique merges must beat the bridge merge.
        let bridge = (0..g.num_edges())
            .find(|&e| {
                let (i, j, _) = g.edge(e);
                (i.min(j), i.max(j)) == (0, 5)
            })
            .unwrap();
        let best_intra = (0..g.num_edges())
            .filter(|&e| e != bridge)
            .map(|e| scores[e])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best_intra > scores[bridge]);
    }

    #[test]
    fn mask_oversized_blocks_merges() {
        let g = GraphBuilder::new(2).add_edge(0, 1, 1).build();
        let ctx = ScoreContext::new(&g);
        let mut s = score_all(ScorerKind::HeavyEdge, &g, &ctx);
        assert!(any_positive(&s));
        mask_oversized(&g, &mut s, &[3, 3], 5);
        assert!(!any_positive(&s));
    }

    #[test]
    fn any_positive_detects() {
        assert!(!any_positive(&[]));
        assert!(!any_positive(&[-1.0, 0.0]));
        assert!(any_positive(&[-1.0, 0.1]));
    }
}

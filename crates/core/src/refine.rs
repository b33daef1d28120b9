//! Local-move refinement — the paper's declared "area of active work"
//! (§II: "Incorporating refinement into our parallel algorithm").
//!
//! After agglomeration, single vertices can often improve the metric by
//! switching to a neighbouring community (matching merges whole pairs and
//! cannot fix individual misplacements). Each sweep:
//!
//! 1. **Propose (parallel):** against a frozen partition, every vertex
//!    tallies its edge weight into each adjacent community and computes
//!    the best move's modularity gain.
//! 2. **Apply (sequential, deterministic):** candidate moves are replayed
//!    in vertex order, re-validating the gain against the *current* state,
//!    so the refined modularity is monotonically non-decreasing —
//!    something fully concurrent moves cannot guarantee.
//!
//! The expensive tally work happens in phase 1; phase 2 touches only the
//! few vertices whose frozen-state gain was positive.

use pcd_graph::{Csr, Graph};
use pcd_util::par::prelude::*;
use pcd_util::{VertexId, Weight};
use std::collections::HashMap;

/// Outcome of a refinement pass.
#[derive(Debug, Clone)]
pub struct Refinement {
    /// Refined assignment (same labels as the input, possibly emptied
    /// communities are *not* re-compacted — use
    /// [`pcd_metrics::compact_labels`] if dense ids are needed).
    pub assignment: Vec<VertexId>,
    /// Vertices moved per sweep.
    pub moves_per_sweep: Vec<usize>,
    /// Modularity before and after.
    pub q_before: f64,
    /// Modularity after refinement.
    pub q_after: f64,
}

/// Refines `assignment` over the original graph `g` with up to
/// `max_sweeps` propose/apply rounds. Stops early when a sweep moves no
/// vertex.
pub fn refine(g: &Graph, assignment: &[VertexId], max_sweeps: usize) -> Refinement {
    assert_eq!(assignment.len(), g.num_vertices());
    let csr = Csr::from_graph(g);
    let nv = csr.num_vertices();
    let m = g.total_weight();
    let q_before = pcd_metrics::modularity(g, assignment);
    let mut assignment = assignment.to_vec();
    let mut moves_per_sweep = Vec::new();
    if m == 0 || nv == 0 {
        return Refinement {
            assignment,
            moves_per_sweep,
            q_before,
            q_after: q_before,
        };
    }
    let mf = m as f64;

    // Per-vertex volumes and community volumes.
    let vol_v: Vec<Weight> = (0..nv as u32).map(|v| csr.volume(v)).collect();
    let k = assignment.iter().copied().max().unwrap_or(0) as usize + 1;
    let mut vol_c: Vec<i64> = vec![0; k];
    for v in 0..nv {
        vol_c[assignment[v] as usize] += vol_v[v] as i64;
    }

    for _ in 0..max_sweeps {
        let frozen = assignment.clone();
        let frozen_vol = vol_c.clone();

        // Phase 1: parallel proposals against the frozen partition.
        let candidates: Vec<(u32, u32)> = (0..nv as u32)
            .into_par_iter()
            .filter_map(|v| best_move(&csr, &frozen, &frozen_vol, &vol_v, mf, v).map(|c| (v, c)))
            .collect();

        // Phase 2: deterministic sequential apply with revalidation.
        let mut moved = 0usize;
        for (v, _) in candidates {
            if let Some(target) = best_move(&csr, &assignment, &vol_c, &vol_v, mf, v) {
                let cur = assignment[v as usize] as usize;
                vol_c[cur] -= vol_v[v as usize] as i64;
                vol_c[target as usize] += vol_v[v as usize] as i64;
                assignment[v as usize] = target;
                moved += 1;
            }
        }
        moves_per_sweep.push(moved);
        if moved == 0 {
            break;
        }
    }

    let q_after = pcd_metrics::modularity(g, &assignment);
    Refinement {
        assignment,
        moves_per_sweep,
        q_before,
        q_after,
    }
}

/// The best strictly-improving move for `v`, if any: the community (among
/// neighbours) maximising `ΔQ = w_vc/m − k_v·vol_c'/(2m²)` over staying.
fn best_move(
    csr: &Csr,
    assignment: &[VertexId],
    vol_c: &[i64],
    vol_v: &[Weight],
    mf: f64,
    v: u32,
) -> Option<VertexId> {
    let vu = v as usize;
    if csr.degree(v) == 0 {
        return None;
    }
    let mut links: HashMap<u32, u64> = HashMap::new();
    for (u, w) in csr.neighbors(v) {
        *links.entry(assignment[u as usize]).or_insert(0) += w;
    }
    let cur = assignment[vu];
    let kv = vol_v[vu] as f64;
    let score = |w_c: f64, vol: f64| w_c / mf - kv * vol / (2.0 * mf * mf);
    let w_cur = *links.get(&cur).unwrap_or(&0) as f64;
    let stay = score(w_cur, vol_c[cur as usize] as f64 - kv);
    let mut cands: Vec<u32> = links.keys().copied().filter(|&c| c != cur).collect();
    cands.sort_unstable();
    let mut best = None;
    let mut best_score = stay + 1e-15;
    for c in cands {
        let s = score(links[&c] as f64, vol_c[c as usize] as f64);
        if s > best_score {
            best_score = s;
            best = Some(c);
        }
    }
    best
}

/// Refines an already-computed detection of `original` (e.g. one produced
/// by an observed [`crate::Detector`] run), folding the refined partition
/// back into the result's assignment, counts, and quality fields.
pub fn refine_detected(
    original: &Graph,
    mut result: crate::DetectionResult,
    refine_sweeps: usize,
) -> (crate::DetectionResult, Refinement) {
    let refinement = refine(original, &result.assignment, refine_sweeps);
    let (dense, k) = pcd_metrics::compact_labels(&refinement.assignment);
    result.assignment = dense;
    result.num_communities = k;
    result.modularity = refinement.q_after;
    result.coverage = pcd_metrics::coverage(original, &result.assignment);
    // Recompute vertex counts for the refined assignment.
    let mut counts = vec![0u64; k];
    for &a in &result.assignment {
        counts[a as usize] += 1;
    }
    result.community_vertex_counts = counts;
    (result, refinement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    #[test]
    fn refinement_never_decreases_modularity() {
        for seed in [1u64, 7, 19] {
            let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, seed));
            let r = crate::detect(g.clone(), &Config::default());
            let ref_out = refine(&g, &r.assignment, 5);
            assert!(
                ref_out.q_after >= ref_out.q_before - 1e-12,
                "seed {seed}: {} -> {}",
                ref_out.q_before,
                ref_out.q_after
            );
        }
    }

    #[test]
    fn refinement_fixes_misplaced_vertex() {
        // Two cliques; deliberately misassign one vertex across the bridge.
        let g = pcd_gen::classic::two_cliques(6);
        let mut a: Vec<u32> = (0..12).map(|v| (v / 6) as u32).collect();
        a[3] = 1; // vertex 3 belongs with clique 0
        let out = refine(&g, &a, 3);
        assert_eq!(out.assignment[3], 0);
        assert!(out.q_after > out.q_before);
    }

    #[test]
    fn refinement_is_idempotent_at_fixpoint() {
        let g = pcd_gen::classic::clique_ring(6, 6);
        let truth = pcd_gen::classic::clique_ring_truth(6, 6);
        let out = refine(&g, &truth, 3);
        // The planted partition is locally optimal: nothing moves.
        assert_eq!(out.assignment, truth);
        assert_eq!(out.moves_per_sweep, vec![0]);
    }

    #[test]
    fn refine_detected_improves_or_matches() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, 31));
        let plain = crate::detect(g.clone(), &Config::default());
        let (refined, refinement) = refine_detected(&g, plain.clone(), 5);
        assert!(refined.modularity >= plain.modularity - 1e-12);
        assert_eq!(refinement.q_after, refined.modularity);
        assert_eq!(
            refined.community_vertex_counts.iter().sum::<u64>() as usize,
            refined.assignment.len()
        );
    }

    #[test]
    fn empty_graph_is_noop() {
        let g = Graph::empty(4);
        let out = refine(&g, &[0, 1, 2, 3], 2);
        assert_eq!(out.assignment, vec![0, 1, 2, 3]);
        assert_eq!(out.q_before, out.q_after);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 5));
        let r = crate::detect(g.clone(), &Config::default());
        let a1 = pcd_util::pool::with_threads(1, || refine(&g, &r.assignment, 4).assignment);
        let a4 = pcd_util::pool::with_threads(4, || refine(&g, &r.assignment, 4).assignment);
        assert_eq!(a1, a4);
    }
}

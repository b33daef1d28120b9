//! Multilevel (V-cycle) refinement.
//!
//! The paper relates its approach to multilevel graph partitioners that
//! use matchings for contraction (Karypis–Kumar; Holtgrewe–Sanders–Schulz)
//! "but differ\[s\] in … not enforcing that the partitions must be of
//! balanced size", and names refinement an area of active work. The
//! natural multilevel completion is the partitioner's V-cycle: walk the
//! recorded dendrogram from the coarsest graph back down, *projecting*
//! the partition to each finer level and running local-move refinement
//! there, so coarse-grained moves (whole sub-communities) happen cheaply
//! on small graphs and fine-grained fixes on the original.

use crate::engine::Detector;
use crate::refine::refine;
use crate::{Config, DetectionResult};
use pcd_contract::{contract_map_into, ContractScratch};
use pcd_graph::{Graph, GraphParts};
use pcd_util::par::prelude::*;
use pcd_util::VertexId;

/// Outcome of a multilevel refinement pass.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// Refined assignment on the original vertices (dense labels).
    pub assignment: Vec<VertexId>,
    /// Number of communities after refinement.
    pub num_communities: usize,
    /// Modularity trajectory: value after refining at each level,
    /// coarsest first; the last entry is the final modularity.
    pub q_trajectory: Vec<f64>,
}

/// Runs detection with recorded levels, then refines the partition at
/// every level of the dendrogram from coarse to fine.
///
/// `sweeps_per_level` bounds the local-move sweeps at each level.
pub fn detect_multilevel(
    graph: Graph,
    config: &Config,
    sweeps_per_level: usize,
) -> (DetectionResult, MultilevelOutcome) {
    let mut cfg = config.clone();
    cfg.record_levels = true;
    let original = graph.clone();
    // Same panic semantics as `detect`, routed through the engine so the
    // kernel kinds resolve once for the whole V-cycle's base detection.
    let result = Detector::new(cfg)
        .and_then(|mut det| det.run(graph))
        // analyze: allow(panic, reason = "documented detect-style panic semantics (see comment above)")
        .unwrap_or_else(|e| panic!("community detection failed: {e}"));
    let outcome = refine_multilevel(&original, &result, sweeps_per_level);
    (result, outcome)
}

/// Refines an existing recorded-level result over its dendrogram.
pub fn refine_multilevel(
    original: &Graph,
    result: &DetectionResult,
    sweeps_per_level: usize,
) -> MultilevelOutcome {
    let depth = result.level_maps.len();
    // Partition expressed over the *level-k* vertices: start at the
    // coarsest with the identity (every coarse vertex its own community).
    let coarse_n = result.num_communities;
    let mut part_at_level: Vec<VertexId> = (0..coarse_n as u32).collect();
    let mut q_trajectory = Vec::with_capacity(depth + 1);
    let mut scratch = ContractScratch::new();

    // Walk levels from coarsest (k = depth) down to the original (k = 0).
    for k in (0..=depth).rev() {
        // Vertices of level k are communities after k contractions; the
        // graph at level k is the aggregation of the original by the
        // level-k assignment.
        let level_assignment = result.assignment_at_level(k);
        let num_level_vertices = if k == depth {
            coarse_n
        } else {
            level_count(&level_assignment)
        };
        let level_graph = if k == 0 {
            original.clone()
        } else {
            contract_map_into(
                original,
                &level_assignment,
                num_level_vertices,
                &mut scratch,
                GraphParts::default(),
            )
        };
        // Project the running partition onto this level's vertices: at the
        // coarsest it is the identity; at finer levels each vertex
        // inherits its coarse parent's community.
        if k < depth {
            let map = &result.level_maps[k]; // level-k vertex -> level-k+1 vertex
            part_at_level = (0..num_level_vertices as u32)
                .into_par_iter()
                .map(|v| part_at_level[map[v as usize] as usize])
                .collect();
        }
        let refined = refine(&level_graph, &part_at_level, sweeps_per_level);
        part_at_level = refined.assignment;
        q_trajectory.push(refined.q_after);
    }

    let (dense, num_communities) = pcd_metrics::compact_labels(&part_at_level);
    MultilevelOutcome {
        assignment: dense,
        num_communities,
        q_trajectory,
    }
}

fn level_count(assignment: &[VertexId]) -> usize {
    assignment
        .par_iter()
        .copied()
        .max()
        .map_or(0, |x| x as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect;

    #[test]
    fn multilevel_never_hurts() {
        for seed in [2u64, 13] {
            let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, seed));
            let plain = detect(g.clone(), &Config::default());
            let (_, ml) = detect_multilevel(g.clone(), &Config::default(), 5);
            let q_ml = pcd_metrics::modularity(&g, &ml.assignment);
            assert!(
                q_ml >= plain.modularity - 1e-9,
                "seed {seed}: {q_ml} < {}",
                plain.modularity
            );
            // The trajectory is the per-level Q *of that level's graph*;
            // the final entry must equal the fine-level modularity.
            assert!((ml.q_trajectory.last().unwrap() - q_ml).abs() < 1e-9);
        }
    }

    #[test]
    fn multilevel_beats_flat_refinement_or_ties() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, 5));
        let plain = detect(g.clone(), &Config::default());
        let flat = crate::refine::refine(&g, &plain.assignment, 5);
        let (_, ml) = detect_multilevel(g.clone(), &Config::default(), 5);
        let q_ml = pcd_metrics::modularity(&g, &ml.assignment);
        // Multilevel explores strictly more moves than one flat pass.
        assert!(q_ml >= flat.q_after - 1e-6, "{q_ml} vs {}", flat.q_after);
    }

    #[test]
    fn trajectory_length_matches_depth() {
        let g = pcd_gen::classic::clique_ring(6, 5);
        let (r, ml) = detect_multilevel(g, &Config::default(), 3);
        assert_eq!(ml.q_trajectory.len(), r.level_maps.len() + 1);
        assert!(ml.num_communities >= 1);
    }

    #[test]
    fn works_on_graph_with_no_levels() {
        // All-negative scores (clique ring fully merged is impossible at
        // size 2 cliques? use an edgeless graph): detection does nothing.
        let g = Graph::empty(4);
        let (r, ml) = detect_multilevel(g, &Config::default(), 2);
        assert!(r.levels.is_empty());
        assert_eq!(ml.num_communities, 4);
        assert_eq!(ml.q_trajectory.len(), 1);
    }
}

//! Louvain (Blondel et al. 2008): local moving + aggregation.
//!
//! The paper cites this as a related approach "not designed with
//! parallelism in mind"; it is the standard quality yardstick for
//! modularity methods. Deterministic: vertices are visited in index order.

use pcd_graph::{builder, Csr, Graph};
use pcd_util::{VertexId, Weight};
use std::collections::HashMap;

/// Runs Louvain to convergence; returns the final assignment over the
/// original vertices.
pub fn louvain(g: &Graph) -> Vec<VertexId> {
    let mut assignment: Vec<VertexId> = (0..g.num_vertices() as u32).collect();
    let mut current = g.clone();
    loop {
        let local = local_move(&current);
        let (compact, k) = pcd_metrics::compact_labels(&local);
        // Project onto original vertices.
        assignment
            .iter_mut()
            .for_each(|a| *a = compact[*a as usize]);
        if k == current.num_vertices() {
            break; // no merge happened anywhere
        }
        current = aggregate(&current, &compact, k);
    }
    assignment
}

/// One Louvain phase: repeatedly sweep vertices, moving each to the
/// neighbouring community with the highest positive modularity gain.
fn local_move(g: &Graph) -> Vec<VertexId> {
    let csr = Csr::from_graph(g);
    let nv = csr.num_vertices();
    let m = g.total_weight();
    let mut comm: Vec<u32> = (0..nv as u32).collect();
    if m == 0 {
        return comm;
    }
    // Community total volumes; vertex volumes.
    let vol_v: Vec<Weight> = (0..nv as u32).map(|v| csr.volume(v)).collect();
    let mut vol_c: Vec<i64> = vol_v.iter().map(|&v| v as i64).collect();

    let mut improved = true;
    let mut guard = 0;
    while improved && guard < 100 {
        improved = false;
        guard += 1;
        let mut links: HashMap<u32, u64> = HashMap::new();
        for v in 0..nv {
            links.clear();
            // Weight from v to each adjacent community.
            for (u, w) in csr.neighbors(v as u32) {
                links
                    .entry(comm[u as usize])
                    .and_modify(|x| *x += w)
                    .or_insert(w);
            }
            let cur = comm[v];
            let kv = vol_v[v] as f64;
            // Gain of moving v from its community (volume excluding v) to c:
            //   Δ = (w_vc − w_v,cur') / m − kv (vol_c − vol_cur') / (2 m²)
            // Standard formulation: compare each candidate's
            //   w_vc/m − kv·vol_c'/(2m²), with vol' excluding v.
            let base_vol_cur = vol_c[cur as usize] as f64 - kv;
            let w_cur = *links.get(&cur).unwrap_or(&0) as f64;
            let mf = m as f64;
            // ΔQ of joining community c (volume excluding v):
            //   w_vc / m − k_v · vol_c / (2 m²)
            let score = |w_c: f64, vol: f64| w_c / mf - kv * vol / (2.0 * mf * mf);
            let cur_score = score(w_cur, base_vol_cur);
            let mut best_c = cur;
            let mut best_score = cur_score;
            let mut cands: Vec<u32> = links.keys().copied().collect();
            cands.sort_unstable(); // deterministic tie-breaking
            for c in cands {
                if c == cur {
                    continue;
                }
                let w_c = links[&c] as f64;
                let s = score(w_c, vol_c[c as usize] as f64);
                if s > best_score + 1e-15 {
                    best_score = s;
                    best_c = c;
                }
            }
            if best_c != cur {
                vol_c[cur as usize] -= vol_v[v] as i64;
                vol_c[best_c as usize] += vol_v[v] as i64;
                comm[v] = best_c;
                improved = true;
            }
        }
    }
    comm
}

/// Builds the aggregated community graph of an assignment.
pub(crate) fn aggregate(g: &Graph, assignment: &[VertexId], k: usize) -> Graph {
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::with_capacity(g.num_edges() + k);
    for (i, j, w) in g.edges() {
        edges.push((assignment[i as usize], assignment[j as usize], w));
    }
    for (&s, &c) in g.self_loops().iter().zip(assignment) {
        if s > 0 {
            edges.push((c, c, s));
        }
    }
    builder::from_edges(k, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn karate_high_modularity() {
        let g = pcd_gen::classic::karate_club();
        let a = louvain(&g);
        let q = pcd_metrics::modularity(&g, &a);
        // Louvain's published karate modularity is ~0.41-0.42.
        assert!(q > 0.38, "q = {q}");
    }

    #[test]
    fn clique_ring_recovers_exactly() {
        let g = pcd_gen::classic::clique_ring(8, 6);
        let truth = pcd_gen::classic::clique_ring_truth(8, 6);
        let a = louvain(&g);
        let nmi = pcd_metrics::normalized_mutual_information(&a, &truth);
        assert!(nmi > 0.95, "nmi = {nmi}");
    }

    #[test]
    fn sbm_recovers_planted_partition() {
        let p = pcd_gen::SbmParams {
            num_vertices: 600,
            min_community: 20,
            max_community: 60,
            size_exponent: 1.6,
            internal_degree: 12.0,
            external_degree: 1.0,
            seed: 4,
        };
        let s = pcd_gen::sbm_graph(&p);
        let a = louvain(&s.graph);
        let nmi = pcd_metrics::normalized_mutual_information(&a, &s.ground_truth);
        assert!(nmi > 0.8, "nmi = {nmi}");
    }

    #[test]
    fn edgeless_graph_stays_singleton() {
        let g = Graph::empty(5);
        let a = louvain(&g);
        assert_eq!(a, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn beats_or_matches_cnm_on_karate() {
        let g = pcd_gen::classic::karate_club();
        let ql = pcd_metrics::modularity(&g, &louvain(&g));
        let qc = pcd_metrics::modularity(&g, &crate::cnm(&g));
        assert!(ql >= qc - 0.02, "louvain {ql} vs cnm {qc}");
    }
}

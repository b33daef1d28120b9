//! Exact maximum-weight matching by bitmask dynamic programming — the
//! oracle that lets tests *verify* the paper's claim that the greedy
//! matching's weight is "within a factor of two of the maximum possible
//! value" (Preis), instead of taking it on faith.
//!
//! Exponential in `|V|`; restricted to tiny graphs (≤ ~20 vertices).

use crate::Matching;
use pcd_graph::Graph;
use pcd_util::NO_VERTEX;

/// Computes the maximum total score over all matchings of the
/// positive-score subgraph. Panics if the graph has more than 24 vertices.
pub fn max_weight_matching_score(g: &Graph, scores: &[f64]) -> f64 {
    assert!(g.num_vertices() <= 24, "brute force limited to tiny graphs");
    assert_eq!(scores.len(), g.num_edges());
    let edges: Vec<(u32, u32, f64)> = (0..g.num_edges())
        .filter(|&e| scores[e] > 0.0)
        .map(|e| {
            let (i, j, _) = g.edge(e);
            (i, j, scores[e])
        })
        .collect();
    // dp over used-vertex bitmask, memoised on the set of used vertices is
    // too large; instead recurse over edges with branch and bound-free
    // plain DFS (positive edge counts are tiny in the proptest sizes).
    fn dfs(edges: &[(u32, u32, f64)], used: u32) -> f64 {
        match edges.split_first() {
            None => 0.0,
            Some((&(i, j, w), rest)) => {
                // Skip this edge.
                let skip = dfs(rest, used);
                // Take it if both endpoints are free.
                if used & (1 << i) == 0 && used & (1 << j) == 0 {
                    let take = w + dfs(rest, used | (1 << i) | (1 << j));
                    skip.max(take)
                } else {
                    skip
                }
            }
        }
    }
    dfs(&edges, 0)
}

/// Exact maximum-weight matching (edge set), same restrictions.
pub fn max_weight_matching(g: &Graph, scores: &[f64]) -> Matching {
    assert!(g.num_vertices() <= 24, "brute force limited to tiny graphs");
    let edges: Vec<usize> = (0..g.num_edges()).filter(|&e| scores[e] > 0.0).collect();
    fn dfs(g: &Graph, scores: &[f64], edges: &[usize], used: u32) -> (f64, Vec<usize>) {
        match edges.split_first() {
            None => (0.0, Vec::new()),
            Some((&e, rest)) => {
                let (skip_w, skip_set) = dfs(g, scores, rest, used);
                let (i, j, _) = g.edge(e);
                if used & (1 << i) == 0 && used & (1 << j) == 0 {
                    let (mut take_w, mut take_set) =
                        dfs(g, scores, rest, used | (1 << i) | (1 << j));
                    take_w += scores[e];
                    if take_w > skip_w {
                        take_set.push(e);
                        return (take_w, take_set);
                    }
                }
                (skip_w, skip_set)
            }
        }
    }
    let (_, set) = dfs(g, scores, &edges, 0);
    let mut mate = vec![NO_VERTEX; g.num_vertices()];
    for &e in &set {
        let (i, j, _) = g.edge(e);
        mate[i as usize] = j;
        mate[j as usize] = i;
    }
    Matching::new(mate, set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::match_unmatched_list;
    use crate::seq::match_sequential_greedy;

    #[test]
    fn path_optimum_beats_greedy_trap() {
        // Path a-b-c-d with scores 1, 1.5, 1: greedy takes the middle
        // (1.5); optimum takes the outer pair (2.0).
        let g = pcd_gen::classic::path(4);
        let s: Vec<f64> = g
            .edges()
            .map(|(i, j, _)| {
                if (i.min(j), i.max(j)) == (1, 2) {
                    1.5
                } else {
                    1.0
                }
            })
            .collect();
        assert_eq!(max_weight_matching_score(&g, &s), 2.0);
        let greedy = match_sequential_greedy(&g, &s);
        assert_eq!(greedy.total_score(&s), 1.5);
        // Factor-2 bound holds (1.5 >= 2.0 / 2).
        assert!(greedy.total_score(&s) >= 0.5 * 2.0);
    }

    #[test]
    fn exact_matching_is_valid() {
        let g = pcd_gen::classic::clique(6);
        let s = vec![1.0; g.num_edges()];
        let m = max_weight_matching(&g, &s);
        assert_eq!(crate::verify::verify_matching(&g, &s, &m), Ok(()));
        assert_eq!(m.len(), 3); // perfect matching of K6
    }

    #[test]
    fn all_negative_scores_empty_optimum() {
        let g = pcd_gen::classic::ring(5);
        let s = vec![-1.0; g.num_edges()];
        assert_eq!(max_weight_matching_score(&g, &s), 0.0);
        assert!(max_weight_matching(&g, &s).is_empty());
    }

    #[test]
    fn greedy_half_approximation_spot_checks() {
        use pcd_util::rng::Rng;
        let mut rng = pcd_util::rng::ChaCha8Rng::seed_from_u64(77);
        for trial in 0..30 {
            let nv = rng.gen_range(4..12usize);
            let ne = rng.gen_range(3..20usize);
            let edges: Vec<_> = (0..ne)
                .map(|_| {
                    (
                        rng.gen_range(0..nv as u32),
                        rng.gen_range(0..nv as u32),
                        1u64,
                    )
                })
                .collect();
            let g = pcd_graph::builder::from_edges(nv, edges);
            let s: Vec<f64> = (0..g.num_edges())
                .map(|_| rng.gen_range(0.1..10.0f64))
                .collect();
            let opt = max_weight_matching_score(&g, &s);
            for (name, m) in [
                ("greedy", match_sequential_greedy(&g, &s)),
                ("parallel", match_unmatched_list(&g, &s)),
            ] {
                let w = m.total_score(&s);
                assert!(
                    w >= 0.5 * opt - 1e-9 && w <= opt + 1e-9,
                    "trial {trial} {name}: {w} vs opt {opt}"
                );
            }
        }
    }
}

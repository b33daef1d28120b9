#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Community-graph contraction (§IV-C) — the phase the paper says takes
//! "from 40% to 80% of the execution time".
//!
//! Given a matching, every matched pair becomes one new vertex. Edges are
//! relabelled to new ids, re-canonicalised under the parity hash, bucketed
//! by their new stored-first endpoint, sorted and accumulated within each
//! bucket, and emitted as the next community graph. Matched edges (and any
//! edge whose endpoints land in the same new vertex) fold into self-loops.
//!
//! Implementations:
//!
//! * [`bucket`] — the paper's bucket-sort contraction, the one parallel
//!   pipeline: relabel into packed keys, block-local counting and scatter
//!   without shared cursors, per-bucket sort-accumulate, copy-back
//!   (DESIGN.md §15). It takes both bucket placement policies the paper
//!   discusses: a racy global fetch-and-add and a prefix-sum placement
//!   (the paper "ha\[s\] not timed the difference"; our ablation bench
//!   does); the output graph is bit-identical under either. The same
//!   pipeline serves [`contract_map_into`], the generic map-based
//!   contraction the vertex-following pre-pass uses.
//! * [`linked`] — the 2011 baseline: hash-chain merging in the style of
//!   John T. Feo's full/empty-bit linked lists, rendered honestly on Intel
//!   hardware as mutex-guarded chains ("infeasible" under OpenMP — the
//!   benches quantify how much slower it is).
//! * [`seq`] — a sequential hash-map oracle for differential testing.

pub mod bucket;
pub mod linked;
pub mod seq;

pub use bucket::{
    contract, contract_into, contract_map_into, contract_with_policy, ContractScratch,
    ContractSteps, Placement,
};

use pcd_graph::Graph;
use pcd_matching::Matching;
use pcd_util::par::prelude::*;
use pcd_util::sync::{as_atomic_u64, RELAXED};
use pcd_util::{VertexId, Weight};

/// Result of contracting a community graph along a matching.
#[derive(Debug, Clone)]
pub struct Contraction {
    /// The contracted community graph over `num_new` vertices.
    pub graph: Graph,
    /// `new_of_old[old] = new` community id; every old vertex maps
    /// somewhere (unmatched vertices survive as singletons).
    pub new_of_old: Vec<VertexId>,
    /// Number of vertices in the contracted graph.
    pub num_new: usize,
}

/// Computes the old→new vertex relabelling induced by a matching: each
/// matched pair collapses onto one id, unmatched vertices keep their own.
/// New ids are assigned in ascending order of the pair's smaller old id
/// (deterministic). Returns `(new_of_old, num_new)`.
pub fn relabel_from_matching(g: &Graph, m: &Matching) -> (Vec<VertexId>, usize) {
    let mut is_leader = Vec::new();
    let mut new_of_old = Vec::new();
    let num_new = relabel_into(g, m, &mut is_leader, &mut new_of_old);
    (new_of_old, num_new)
}

/// As [`relabel_from_matching`], writing into reused buffers (`is_leader`
/// is working storage for the prefix sum; `new_of_old` the result). Both
/// are cleared first and retain capacity. Returns `num_new`.
pub fn relabel_into(
    g: &Graph,
    m: &Matching,
    is_leader: &mut Vec<usize>,
    new_of_old: &mut Vec<VertexId>,
) -> usize {
    let nv = g.num_vertices();
    assert_eq!(m.mates().len(), nv);
    // Leaders: unmatched vertices and the smaller endpoint of each pair.
    is_leader.clear();
    is_leader.resize(nv, 0);
    is_leader.par_iter_mut().enumerate().for_each(|(v, l)| {
        *l = match m.mate(v as u32) {
            Some(p) => (v < p as usize) as usize,
            None => 1,
        };
    });
    let num_new = pcd_util::scan::exclusive_prefix_sum(is_leader);
    new_of_old.clear();
    new_of_old.resize(nv, 0);
    {
        let is_leader: &[usize] = is_leader;
        new_of_old.par_iter_mut().enumerate().for_each(|(v, n)| {
            let leader = match m.mate(v as u32) {
                Some(p) => v.min(p as usize),
                None => v,
            };
            *n = is_leader[leader] as VertexId;
        });
    }
    num_new
}

/// Accumulates the self-loop weights of the contracted graph: each new
/// vertex inherits its members' self-loops plus the weight of the matched
/// edge joining them.
pub fn contracted_self_loops(
    g: &Graph,
    m: &Matching,
    new_of_old: &[VertexId],
    num_new: usize,
) -> Vec<Weight> {
    let mut self_loop = Vec::new();
    contracted_self_loops_into(g, m, new_of_old, num_new, &mut self_loop);
    self_loop
}

/// As [`contracted_self_loops`], writing into a reused buffer (cleared
/// first; capacity is retained).
pub fn contracted_self_loops_into(
    g: &Graph,
    m: &Matching,
    new_of_old: &[VertexId],
    num_new: usize,
    self_loop: &mut Vec<Weight>,
) {
    self_loop.clear();
    self_loop.resize(num_new, 0);
    {
        let cells = as_atomic_u64(self_loop);
        // ORDERING: RELAXED — both loops are pure weight accumulations
        // (atomicity only, no cross-thread publication through the cells);
        // the par_iter join barriers publish the totals to the caller.
        (0..g.num_vertices()).into_par_iter().for_each(|v| {
            let s = g.self_loop(v as u32);
            if s > 0 {
                cells[new_of_old[v] as usize].fetch_add(s, RELAXED);
            }
        });
        m.matched_edges().par_iter().for_each(|&e| {
            let (i, _, w) = g.edge(e);
            cells[new_of_old[i as usize] as usize].fetch_add(w, RELAXED);
        });
    }
}

/// Canonical multiset of a graph's edges as `(min, max, w)` sorted — a
/// layout-independent fingerprint used to compare contraction
/// implementations.
pub fn edge_fingerprint(g: &Graph) -> Vec<(VertexId, VertexId, Weight)> {
    let mut edges: Vec<_> = g
        .par_edges()
        .map(|(i, j, w)| (i.min(j), i.max(j), w))
        .collect();
    edges.sort_unstable();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcd_matching::seq::match_sequential_greedy;

    #[test]
    fn relabel_pairs_and_singletons() {
        // Path 0-1-2-3, match (0,1) and (2,3) by uniform scores.
        let g = pcd_gen::classic::path(4);
        let s = vec![1.0; g.num_edges()];
        let m = match_sequential_greedy(&g, &s);
        let (map, n) = relabel_from_matching(&g, &m);
        assert_eq!(n, 4 - m.len());
        // Pair members share an id; ids are dense.
        for v in 0..4u32 {
            if let Some(p) = m.mate(v) {
                assert_eq!(map[v as usize], map[p as usize]);
            }
            assert!((map[v as usize] as usize) < n);
        }
    }

    #[test]
    fn relabel_empty_matching_is_identity() {
        let g = pcd_gen::classic::ring(5);
        let m = pcd_matching::Matching::empty(5);
        let (map, n) = relabel_from_matching(&g, &m);
        assert_eq!(n, 5);
        assert_eq!(map, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn self_loops_absorb_matched_edge() {
        let g = pcd_graph::GraphBuilder::new(2)
            .add_edge(0, 1, 3)
            .add_self_loop(0, 2)
            .build();
        let s = vec![1.0; g.num_edges()];
        let m = match_sequential_greedy(&g, &s);
        assert_eq!(m.len(), 1);
        let (map, n) = relabel_from_matching(&g, &m);
        let sl = contracted_self_loops(&g, &m, &map, n);
        assert_eq!(n, 1);
        assert_eq!(sl, vec![5]); // 2 (old self) + 3 (matched edge)
    }

    #[test]
    fn fingerprint_is_layout_independent() {
        let a = pcd_graph::GraphBuilder::new(4)
            .add_pairs([(0, 1), (2, 3)])
            .build();
        let b = pcd_graph::GraphBuilder::new(4)
            .add_pairs([(2, 3), (0, 1)])
            .build();
        assert_eq!(edge_fingerprint(&a), edge_fingerprint(&b));
    }
}

//! Community subgraph extraction — the paper's motivating use case:
//! "Finding communities … open\[s\] smaller portions of the data to current
//! analysis tools." Given an assignment, carve every community out as an
//! independent graph with its own dense vertex numbering.

use crate::{builder, Graph};
use pcd_util::par::prelude::*;
use pcd_util::scan::offsets_from_counts;
use pcd_util::VertexId;

/// One extracted community subgraph.
#[derive(Debug)]
pub struct CommunitySubgraph {
    /// Community id this subgraph was carved from.
    pub community: VertexId,
    /// Induced subgraph over the members (internal edges only).
    pub graph: Graph,
    /// `old_of_new[new] = old` vertex id in the parent graph.
    pub old_of_new: Vec<VertexId>,
    /// Edge weight crossing out of this community (lost by induction).
    pub external_weight: u64,
}

/// Extracts all communities of `assignment` (dense ids `0..k`) as
/// independent subgraphs, in parallel across communities.
pub fn extract_communities(g: &Graph, assignment: &[VertexId]) -> Vec<CommunitySubgraph> {
    assert_eq!(assignment.len(), g.num_vertices());
    let k = assignment
        .par_iter()
        .copied()
        .max()
        .map_or(0, |x| x as usize + 1);

    // Group member lists per community.
    let counts = {
        use pcd_util::sync::{AtomicUsize, RELAXED};
        let c: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
        assignment.par_iter().for_each(|&a| {
            // ORDERING: RELAXED — counter increment, atomicity only; the
            // join barrier orders the into_inner() reads after it.
            c[a as usize].fetch_add(1, RELAXED);
        });
        c.into_iter().map(|x| x.into_inner()).collect::<Vec<_>>()
    };
    let offsets = offsets_from_counts(&counts);
    // Members sorted by (community, old id): stable grouping via sort.
    let mut members: Vec<(VertexId, VertexId)> = (0..g.num_vertices() as u32)
        .into_par_iter()
        .map(|v| (assignment[v as usize], v))
        .collect();
    members.sort_unstable();

    // New id of each old vertex inside its community.
    let mut new_of_old = vec![0u32; g.num_vertices()];
    for (idx, &(c, old)) in members.iter().enumerate() {
        new_of_old[old as usize] = (idx - offsets[c as usize]) as u32;
    }

    // Partition edges by community (cross edges tallied separately).
    let mut internal: Vec<Vec<(VertexId, VertexId, u64)>> = vec![Vec::new(); k];
    let mut external = vec![0u64; k];
    for (i, j, w) in g.edges() {
        let (ci, cj) = (assignment[i as usize], assignment[j as usize]);
        if ci == cj {
            internal[ci as usize].push((new_of_old[i as usize], new_of_old[j as usize], w));
        } else {
            external[ci as usize] += w;
            external[cj as usize] += w;
        }
    }
    // Self-loops stay with their vertex.
    for (v, &s) in g.self_loops().iter().enumerate() {
        if s > 0 {
            let c = assignment[v] as usize;
            let nv = new_of_old[v];
            internal[c].push((nv, nv, s));
        }
    }

    internal
        .into_par_iter()
        .with_min_len(1)
        .enumerate()
        .map(|(c, edges)| {
            let size = counts[c];
            let old_of_new: Vec<VertexId> = members[offsets[c]..offsets[c] + size]
                .iter()
                .map(|&(_, old)| old)
                .collect();
            CommunitySubgraph {
                community: c as u32,
                graph: builder::from_edges(size, edges),
                old_of_new,
                external_weight: external[c],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn two_cliques_split_cleanly() {
        // Two triangles joined by a bridge.
        let g = GraphBuilder::new(6)
            .add_pairs([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .build();
        let a = vec![0u32, 0, 0, 1, 1, 1];
        let subs = extract_communities(&g, &a);
        assert_eq!(subs.len(), 2);
        for s in &subs {
            assert_eq!(s.graph.num_vertices(), 3);
            assert_eq!(s.graph.num_edges(), 3);
            assert_eq!(s.external_weight, 1);
            assert_eq!(s.graph.validate(), Ok(()));
        }
        assert_eq!(subs[0].old_of_new, vec![0, 1, 2]);
        assert_eq!(subs[1].old_of_new, vec![3, 4, 5]);
    }

    #[test]
    fn weights_partition_exactly() {
        let g = crate::builder::from_edges(
            8,
            (0..30u32)
                .map(|i| ((i * 7) % 8, (i * 5 + 1) % 8, 1u64))
                .collect(),
        );
        let a = vec![0u32, 1, 0, 1, 0, 1, 0, 1];
        let subs = extract_communities(&g, &a);
        let internal: u64 = subs.iter().map(|s| s.graph.total_weight()).sum();
        let external: u64 = subs.iter().map(|s| s.external_weight).sum();
        // Every cross edge is counted once per side.
        assert_eq!(internal + external / 2, g.total_weight());
    }

    #[test]
    fn self_loops_follow_members() {
        let g = GraphBuilder::new(2)
            .add_self_loop(1, 7)
            .add_edge(0, 1, 1)
            .build();
        let subs = extract_communities(&g, &[0, 1]);
        assert_eq!(subs[1].graph.self_loop(0), 7);
        assert_eq!(subs[0].graph.total_weight(), 0);
    }

    #[test]
    fn singleton_communities() {
        let g = GraphBuilder::new(3).add_pairs([(0, 1)]).build();
        let subs = extract_communities(&g, &[0, 1, 2]);
        assert_eq!(subs.len(), 3);
        assert!(subs.iter().all(|s| s.graph.num_vertices() == 1));
        assert_eq!(subs[0].external_weight, 1);
        assert_eq!(subs[2].external_weight, 0);
    }

    #[test]
    fn mapping_roundtrips() {
        let g = GraphBuilder::new(5)
            .add_pairs([(0, 2), (2, 4), (1, 3)])
            .build();
        let a = vec![0u32, 1, 0, 1, 0];
        let subs = extract_communities(&g, &a);
        for s in &subs {
            for (new, &old) in s.old_of_new.iter().enumerate() {
                assert_eq!(a[old as usize], s.community);
                assert!(new < s.graph.num_vertices());
            }
        }
    }
}

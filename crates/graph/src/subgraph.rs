//! Induced subgraphs and vertex relabelling.
//!
//! Used to extract the largest connected component of generated R-MAT graphs
//! (§V-B) and to build arbitrary vertex-subset views for analysis.

use crate::components::{components, largest_component_label};
use crate::{builder, Graph};
use pcd_util::par::prelude::*;
use pcd_util::scan::offsets_from_counts;
use pcd_util::{VertexId, NO_VERTEX};

/// Result of extracting a vertex-induced subgraph.
#[derive(Debug)]
pub struct Extracted {
    /// The induced subgraph with dense new ids `0..n'`.
    pub graph: Graph,
    /// `old_of_new[new] = old` vertex id.
    pub old_of_new: Vec<VertexId>,
    /// `new_of_old[old] = new` id, or [`NO_VERTEX`] if dropped.
    pub new_of_old: Vec<VertexId>,
}

/// Induces the subgraph on the vertices where `keep[v]` is true,
/// relabelling them densely in ascending old-id order (deterministic).
pub fn induce(g: &Graph, keep: &[bool]) -> Extracted {
    assert_eq!(keep.len(), g.num_vertices());
    let mut new_of_old = vec![NO_VERTEX; g.num_vertices()];
    let mut old_of_new = Vec::new();
    for (old, &k) in keep.iter().enumerate() {
        if k {
            new_of_old[old] = old_of_new.len() as VertexId;
            old_of_new.push(old as VertexId);
        }
    }
    let nv = old_of_new.len();

    let mut edges: Vec<(VertexId, VertexId, u64)> = g
        .par_edges()
        .filter_map(|(i, j, w)| {
            let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
            (ni != NO_VERTEX && nj != NO_VERTEX).then_some((ni, nj, w))
        })
        .collect();
    // Carry surviving self-loops through as (v, v, w) entries.
    edges.extend(old_of_new.iter().enumerate().filter_map(|(new, &old)| {
        let w = g.self_loop(old);
        (w > 0).then_some((new as VertexId, new as VertexId, w))
    }));

    Extracted {
        graph: builder::from_edges(nv, edges),
        old_of_new,
        new_of_old,
    }
}

/// Extracts the largest connected component, as the paper's R-MAT pipeline
/// does before measuring.
pub fn largest_component(g: &Graph) -> Extracted {
    let label = components(g);
    let (rep, _) = largest_component_label(&label);
    let keep: Vec<bool> = label.par_iter().map(|&l| l == rep).collect();
    induce(g, &keep)
}

/// One connected component carved out by [`split_components`]: the induced
/// subgraph with dense new ids `0..nᵢ`, plus the map back to parent ids.
#[derive(Debug)]
pub struct ComponentPart {
    /// The component's induced subgraph — bit-identical to
    /// `induce(g, keep).graph` for this component's membership mask.
    pub graph: Graph,
    /// `old_of_new[new] = old` parent vertex id, strictly ascending.
    pub old_of_new: Vec<VertexId>,
}

/// A whole graph decomposed into its connected components.
///
/// Component order is canonical: parts are sorted by their representative —
/// the smallest parent vertex id in the component (the label the
/// [`components`] contract hands out) — so the decomposition is identical
/// for any thread count. Within a part, vertices keep ascending parent-id
/// order, exactly matching [`induce`]'s dense relabelling; detection on
/// `parts[i].graph` is therefore bit-identical to detection on the
/// `induce`-extracted component.
#[derive(Debug)]
pub struct ComponentSplit {
    /// Per-component subgraphs in ascending-representative order.
    pub parts: Vec<ComponentPart>,
    /// `part_of_old[old]` = index into `parts` for each parent vertex.
    pub part_of_old: Vec<u32>,
    /// `new_of_old[old]` = the vertex's dense id inside its part.
    pub new_of_old: Vec<VertexId>,
}

/// Decomposes `g` into its connected components (see [`ComponentSplit`]
/// for the ordering contract). Computes the labels internally; use
/// [`split_by_labels`] to reuse an existing [`components`] pass.
pub fn split_components(g: &Graph) -> ComponentSplit {
    let label = components(g);
    split_by_labels(g, &label)
}

/// As [`split_components`], with the component labels supplied by the
/// caller. `label` must be the output of [`components`] (or
/// [`crate::components::components_seq`]) on `g`: `label[v]` is the
/// smallest vertex id in `v`'s component.
pub fn split_by_labels(g: &Graph, label: &[VertexId]) -> ComponentSplit {
    let nv = g.num_vertices();
    assert_eq!(label.len(), nv);

    // Compact component ids in ascending-representative order. The
    // canonical label is the component's smallest vertex id, so
    // `label[v] == v` exactly at representatives, and scanning vertices in
    // ascending order visits representatives in ascending order.
    let mut part_of_rep = vec![u32::MAX; nv];
    let mut num_parts = 0u32;
    for v in 0..nv {
        if label[v] == v as VertexId {
            part_of_rep[v] = num_parts;
            num_parts += 1;
        }
    }
    let part_of_old: Vec<u32> = label.par_iter().map(|&l| part_of_rep[l as usize]).collect();

    // Group members per part: counts → offsets → dense new ids. Members
    // stay in ascending parent-id order inside each part, matching
    // `induce`'s relabelling bit for bit.
    let mut counts = vec![0usize; num_parts as usize];
    for &p in &part_of_old {
        counts[p as usize] += 1;
    }
    let offsets = offsets_from_counts(&counts);
    let mut next = offsets.clone();
    let mut new_of_old = vec![0u32; nv];
    let mut old_of_new = vec![0u32; nv];
    for (old, &p) in part_of_old.iter().enumerate() {
        let slot = next[p as usize];
        next[p as usize] += 1;
        new_of_old[old] = (slot - offsets[p as usize]) as VertexId;
        old_of_new[slot] = old as VertexId;
    }

    // Partition edges by part. Components have no cross edges, so every
    // edge is internal; the per-part lists keep the parent graph's edge
    // order — the order `induce`'s filter produces.
    let mut internal: Vec<Vec<(VertexId, VertexId, u64)>> = vec![Vec::new(); num_parts as usize];
    for (i, j, w) in g.edges() {
        let p = part_of_old[i as usize];
        debug_assert_eq!(p, part_of_old[j as usize], "edge crosses components");
        internal[p as usize].push((new_of_old[i as usize], new_of_old[j as usize], w));
    }
    // Self-loops follow their vertex, appended after the edges in
    // ascending order — again `induce`'s layout.
    for (v, &s) in g.self_loops().iter().enumerate() {
        if s > 0 {
            let nvid = new_of_old[v];
            internal[part_of_old[v] as usize].push((nvid, nvid, s));
        }
    }

    // Parts are built in order, each builder's own loops parallel: a
    // graph holds at most a few big components, and building them side by
    // side would only stack their builder temporaries.
    let parts = internal
        .into_iter()
        .enumerate()
        .map(|(p, edges)| ComponentPart {
            graph: builder::from_edges(counts[p], edges),
            old_of_new: old_of_new[offsets[p]..offsets[p] + counts[p]].to_vec(),
        })
        .collect();

    ComponentSplit {
        parts,
        part_of_old,
        new_of_old,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn induce_keeps_internal_edges_only() {
        let g = GraphBuilder::new(5)
            .add_pairs([(0, 1), (1, 2), (2, 3), (3, 4)])
            .build();
        let keep = vec![true, true, true, false, false];
        let ex = induce(&g, &keep);
        assert_eq!(ex.graph.num_vertices(), 3);
        assert_eq!(ex.graph.num_edges(), 2); // 0-1, 1-2 survive
        assert_eq!(ex.old_of_new, vec![0, 1, 2]);
        assert_eq!(ex.new_of_old[3], NO_VERTEX);
    }

    #[test]
    fn induce_preserves_weights_and_self_loops() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 7)
            .add_self_loop(1, 5)
            .add_edge(1, 2, 2)
            .build();
        let ex = induce(&g, &[true, true, false]);
        assert_eq!(ex.graph.total_weight(), 12); // 7 + self 5
        assert_eq!(ex.graph.self_loop(ex.new_of_old[1]), 5);
    }

    #[test]
    fn largest_component_picks_biggest() {
        let g = GraphBuilder::new(8)
            .add_pairs([(0, 1), (2, 3), (3, 4), (4, 5), (5, 2), (6, 7)])
            .build();
        let ex = largest_component(&g);
        assert_eq!(ex.graph.num_vertices(), 4);
        assert_eq!(ex.graph.num_edges(), 4);
        assert_eq!(ex.old_of_new, vec![2, 3, 4, 5]);
    }

    #[test]
    fn mapping_roundtrips() {
        let g = GraphBuilder::new(6).add_pairs([(1, 3), (3, 5)]).build();
        let ex = induce(&g, &[false, true, false, true, false, true]);
        for (new, &old) in ex.old_of_new.iter().enumerate() {
            assert_eq!(ex.new_of_old[old as usize] as usize, new);
        }
    }

    /// Field-level graph equality: `Graph` has no `PartialEq` on purpose,
    /// so the split tests compare the full stored representation.
    fn assert_graphs_identical(a: &Graph, b: &Graph, what: &str) {
        assert_eq!(a.num_vertices(), b.num_vertices(), "{what}: |V|");
        assert_eq!(
            a.edges().collect::<Vec<_>>(),
            b.edges().collect::<Vec<_>>(),
            "{what}: edges"
        );
        assert_eq!(a.self_loops(), b.self_loops(), "{what}: self-loops");
        assert_eq!(a.total_weight(), b.total_weight(), "{what}: total weight");
    }

    /// Two triangles, an isolated edge, an isolated vertex, and a
    /// self-loop vertex — five components with mixed shapes.
    fn disconnected_graph() -> Graph {
        GraphBuilder::new(10)
            .add_pairs([(0, 1), (1, 2), (2, 0)])
            .add_edge(4, 5, 3)
            .add_pairs([(6, 7), (7, 8), (8, 6)])
            .add_self_loop(9, 2)
            .add_self_loop(1, 4)
            .build()
    }

    #[test]
    fn split_components_matches_induce_per_component() {
        let g = disconnected_graph();
        let label = components(&g);
        let split = split_components(&g);
        assert_eq!(split.parts.len(), 5);
        // Parts come out in ascending-representative order; each one is
        // bit-identical to the induce-extracted component.
        let mut reps: Vec<u32> = label.to_vec();
        reps.sort_unstable();
        reps.dedup();
        for (p, part) in split.parts.iter().enumerate() {
            let rep = reps[p];
            assert_eq!(part.old_of_new[0], rep, "part {p} representative");
            let keep: Vec<bool> = label.iter().map(|&l| l == rep).collect();
            let ex = induce(&g, &keep);
            assert_graphs_identical(&part.graph, &ex.graph, &format!("part {p}"));
            assert_eq!(part.old_of_new, ex.old_of_new, "part {p} old_of_new");
        }
    }

    #[test]
    fn split_components_maps_are_consistent() {
        let g = disconnected_graph();
        let split = split_components(&g);
        for old in 0..g.num_vertices() {
            let p = split.part_of_old[old] as usize;
            let new = split.new_of_old[old] as usize;
            assert_eq!(split.parts[p].old_of_new[new] as usize, old);
        }
        let total: usize = split.parts.iter().map(|p| p.graph.num_vertices()).sum();
        assert_eq!(total, g.num_vertices(), "parts partition the vertices");
        let weight: u64 = split.parts.iter().map(|p| p.graph.total_weight()).sum();
        assert_eq!(weight, g.total_weight(), "weight conserved across parts");
    }

    #[test]
    fn split_components_handles_degenerate_graphs() {
        let empty = split_components(&Graph::empty(0));
        assert!(empty.parts.is_empty());
        let singleton = split_components(&Graph::empty(1));
        assert_eq!(singleton.parts.len(), 1);
        assert_eq!(singleton.parts[0].graph.num_vertices(), 1);
        let connected = split_components(&GraphBuilder::new(3).add_pairs([(0, 1), (1, 2)]).build());
        assert_eq!(connected.parts.len(), 1);
        assert_eq!(connected.parts[0].old_of_new, vec![0, 1, 2]);
    }
}

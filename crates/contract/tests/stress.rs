//! Stress tests for the bucket contraction pipeline: adversarial bucket
//! shapes, degenerate graphs, both placements and several pool widths.
//! Every output must equal, array for array, `from_edges` of the mapped
//! edge list: the builder canonicalises, sorts and merges on its own, so
//! it is an independent reference for layout as well as content.
//!
//! Destinations near `u32::MAX` are covered by the per-bucket unit test
//! in `src/bucket.rs`; a whole graph with ids that large would need 2^32
//! vertices.

use pcd_contract::{
    contract_into, contract_map_into, relabel_from_matching, ContractScratch, Placement,
};
use pcd_graph::builder::from_edges;
use pcd_graph::edge::bucket_owner;
use pcd_graph::{Graph, GraphParts};
use pcd_matching::seq::match_sequential_greedy;
use pcd_matching::Matching;
use pcd_util::pool::with_threads;
use pcd_util::VertexId;

const THREADS: [usize; 3] = [1, 2, 4];
const PLACEMENTS: [Placement; 2] = [Placement::PrefixSum, Placement::FetchAdd];

/// `from_edges` of every edge and self-loop of `g` mapped through `map`.
fn mapped_reference(g: &Graph, map: &[VertexId], num_new: usize) -> Graph {
    let mut edges: Vec<_> = g
        .edges()
        .map(|(i, j, w)| (map[i as usize], map[j as usize], w))
        .collect();
    for (v, &s) in g.self_loops().iter().enumerate() {
        if s > 0 {
            edges.push((map[v], map[v], s));
        }
    }
    from_edges(num_new, edges)
}

fn assert_bit_equal(got: &Graph, want: &Graph, what: &str) {
    assert_eq!(got.num_vertices(), want.num_vertices(), "{what}: |V|");
    assert_eq!(got.srcs(), want.srcs(), "{what}: srcs");
    assert_eq!(got.dsts(), want.dsts(), "{what}: dsts");
    assert_eq!(got.weights(), want.weights(), "{what}: weights");
    assert_eq!(got.self_loops(), want.self_loops(), "{what}: self-loops");
    for v in 0..want.num_vertices() as VertexId {
        assert_eq!(got.bucket(v), want.bucket(v), "{what}: bucket {v}");
    }
    assert_eq!(got.total_weight(), want.total_weight(), "{what}: total");
    assert_eq!(got.validate(), Ok(()), "{what}");
}

/// Contracts `g` through `map` on every pool width, with a fresh and a
/// reused scratch, and checks each result against the reference.
fn check_map(g: &Graph, map: &[VertexId], num_new: usize, what: &str) {
    let want = mapped_reference(g, map, num_new);
    let mut warm = ContractScratch::new();
    for threads in THREADS {
        let got = with_threads(threads, || {
            contract_map_into(
                g,
                map,
                num_new,
                &mut ContractScratch::new(),
                GraphParts::default(),
            )
        });
        assert_bit_equal(&got, &want, &format!("{what} map t={threads}"));
        let got = with_threads(threads, || {
            contract_map_into(g, map, num_new, &mut warm, GraphParts::default())
        });
        assert_bit_equal(&got, &want, &format!("{what} map warm t={threads}"));
    }
}

/// Contracts `g` along `m` for both placements on every pool width and
/// checks the graph and the old→new map against the reference.
fn check_matching(g: &Graph, m: &Matching, what: &str) {
    let (map, num_new) = relabel_from_matching(g, m);
    let want = mapped_reference(g, &map, num_new);
    let mut warm = ContractScratch::new();
    for placement in PLACEMENTS {
        for threads in THREADS {
            let tag = format!("{what} {placement:?} t={threads}");
            let (got, n) = with_threads(threads, || {
                contract_into(g, m, placement, &mut warm, GraphParts::default())
            });
            assert_eq!(n, num_new, "{tag}");
            assert_eq!(warm.new_of_old(), &map[..], "{tag}");
            assert_bit_equal(&got, &want, &tag);
        }
    }
}

/// Deterministic xorshift stream.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A hub joined to `leaves` leaves (weights 1..=7), plus edges between
/// every fourth leaf and the next, so the hub's bucket is not the only one.
fn hub_graph(leaves: u32) -> Graph {
    let mut edges: Vec<_> = (1..=leaves).map(|v| (0, v, u64::from(v % 7 + 1))).collect();
    edges.extend((1..=leaves).step_by(4).map(|v| (v, v % leaves + 1, 1)));
    from_edges(leaves as usize + 1, edges)
}

#[test]
fn hub_bucket_holding_most_edges() {
    // The hub maps to 0 and every leaf to an even id: all hub edges stay
    // in bucket 0 (same parity, so 0 is the stored first endpoint), a
    // single bucket of 100 000 edges over 1 000 distinct destinations.
    let g = hub_graph(100_000);
    let map: Vec<VertexId> = (0..g.num_vertices() as u32)
        .map(|v| if v == 0 { 0 } else { 2 * (1 + v % 1000) })
        .collect();
    let in_hub = g
        .edges()
        .filter(|&(i, j, _)| {
            let (a, b) = (map[i as usize], map[j as usize]);
            a != b && bucket_owner(a, b) == 0
        })
        .count();
    assert!(
        in_hub * 4 > g.num_edges() * 3,
        "{in_hub} of {}",
        g.num_edges()
    );
    check_map(&g, &map, 2 * 1000 + 1, "hub");
}

#[test]
fn hub_star_along_a_matching() {
    // Matching contraction of a hub star: one matched leaf merges with
    // the hub, and the hub's bucket keeps most edges.
    let g = hub_graph(40_000);
    let m = match_sequential_greedy(&g, &vec![1.0; g.num_edges()]);
    check_matching(&g, &m, "hub-star");
}

#[test]
fn long_buckets_with_repeated_destinations() {
    // 60 000 random edges over 2 000 vertices, mapped onto 40 new ids:
    // buckets of ~1 500 edges, all repeats of at most 39 destinations.
    let mut next = xorshift(0x243F_6A88_85A3_08D3);
    let edges: Vec<_> = (0..60_000)
        .map(|_| {
            let i = (next() % 2000) as u32;
            let j = (next() % 2000) as u32;
            (i, j, next() % 9 + 1)
        })
        .collect();
    let g = from_edges(2000, edges);
    let map: Vec<VertexId> = (0..2000u32).map(|v| (v * 7) % 40).collect();
    check_map(&g, &map, 40, "repeats");
}

#[test]
fn rmat_levels_along_matchings() {
    // Several levels of a skewed graph: long hub buckets, many blocks.
    let mut g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(13, 11));
    for level in 0..4 {
        let scores: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let m = match_sequential_greedy(&g, &scores);
        check_matching(&g, &m, &format!("rmat level {level}"));
        g = pcd_contract::bucket::contract(&g, &m).graph;
    }
}

#[test]
fn empty_and_single_vertex_graphs() {
    let none = Graph::empty(5);
    check_matching(&none, &Matching::empty(5), "0-edge");
    check_map(&none, &[0, 0, 1, 1, 2], 3, "0-edge");
    let one = from_edges(1, vec![(0, 0, 4)]);
    check_matching(&one, &Matching::empty(1), "1-vertex");
    check_map(&one, &[0], 1, "1-vertex");
    let zero = Graph::empty(0);
    check_matching(&zero, &Matching::empty(0), "0-vertex");
    check_map(&zero, &[], 0, "0-vertex");
}

#[test]
fn scratch_stays_linear_in_the_input() {
    // Many new vertices with few edges each is where an uncapped
    // per-block counter table would outgrow the edge arrays.
    let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
    let nv = 200_000u32;
    let edges: Vec<_> = (0..400_000)
        .map(|_| {
            (
                (next() % u64::from(nv)) as u32,
                (next() % u64::from(nv)) as u32,
                1,
            )
        })
        .collect();
    let g = from_edges(nv as usize, edges);
    let m = match_sequential_greedy(&g, &vec![1.0; g.num_edges()]);
    let mut scratch = ContractScratch::new();
    contract_into(
        &g,
        &m,
        Placement::PrefixSum,
        &mut scratch,
        GraphParts::default(),
    );
    // 20 bytes per edge for the packed keys and bucketed arrays, 28 per
    // vertex for the per-vertex arrays, and at most half a byte per edge
    // for the counter table. Without the table's cap this input needs
    // about 8 more bytes per edge.
    let (ne, nv) = (g.num_edges(), g.num_vertices());
    let bound = 21 * ne + 28 * nv + 64;
    assert!(
        scratch.scratch_bytes() <= bound,
        "{} scratch bytes for {ne} edges, {nv} vertices (bound {bound})",
        scratch.scratch_bytes()
    );
}

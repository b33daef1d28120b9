//! Sharded parity: the WCC-sharded pipeline (decompose → per-component
//! warm engines → deterministic merge) must be bit-identical, component
//! by component, to whole-graph detection on each *extracted* component
//! — for bucket and radix contractor kernels and for every pool size.
//! The comparison is deliberately per-component: a component detected
//! solo sees its own total weight in the modularity normalizer, so the
//! whole-graph partition may legitimately differ, but detection on
//! `parts[i].graph` and on `induce(g, component_mask).graph` must not
//! differ by a single bit.

use parcomm::core::{detect_sharded_outcomes, try_detect_sharded_observed, DetectionResult};
use parcomm::gen::{rmat_graph, RmatParams};
use parcomm::graph::subgraph::induce;
use parcomm::prelude::*;
use parcomm::util::pool::with_threads;

const POOLS: [usize; 3] = [1, 2, 8];
const CONTRACTORS: [ContractorKind; 2] = [ContractorKind::Bucket, ContractorKind::Radix];

/// Bit-exact equality on every non-timing field.
fn assert_same(a: &DetectionResult, b: &DetectionResult, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignment");
    assert_eq!(
        a.num_communities, b.num_communities,
        "{what}: num_communities"
    );
    assert_eq!(a.input_vertices, b.input_vertices, "{what}: input |V|");
    assert_eq!(a.input_edges, b.input_edges, "{what}: input |E|");
    assert_eq!(
        a.community_vertex_counts, b.community_vertex_counts,
        "{what}: counts"
    );
    assert_eq!(a.modularity, b.modularity, "{what}: modularity");
    assert_eq!(a.coverage, b.coverage, "{what}: coverage");
    assert_eq!(a.level_maps, b.level_maps, "{what}: level_maps");
    assert_eq!(a.stop_reason, b.stop_reason, "{what}: stop_reason");
    assert_eq!(a.termination, b.termination, "{what}: termination");
    assert_eq!(a.levels.len(), b.levels.len(), "{what}: level count");
    for (la, lb) in a.levels.iter().zip(&b.levels) {
        assert_eq!(la.num_vertices, lb.num_vertices, "{what}: level |V|");
        assert_eq!(la.num_edges, lb.num_edges, "{what}: level |E|");
        assert_eq!(la.pairs_merged, lb.pairs_merged, "{what}: pairs merged");
        assert_eq!(la.match_rounds, lb.match_rounds, "{what}: match rounds");
        assert_eq!(la.matcher_degraded, lb.matcher_degraded, "{what}: degraded");
        assert_eq!(la.modularity, lb.modularity, "{what}: level Q");
        assert_eq!(la.coverage, lb.coverage, "{what}: level coverage");
    }
}

/// A graph with many components of very different shapes: a clique ring,
/// an R-MAT fragment cloud (isolated vertices included), a weighted pair,
/// a vertex carrying only a self-loop, and a bare isolated vertex.
fn disconnected_graph() -> Graph {
    let parts: Vec<Graph> = vec![
        parcomm::gen::classic::clique_ring(6, 5),
        rmat_graph(&RmatParams::paper(7, 13)),
        parcomm::graph::builder::from_edges(2, vec![(0, 1, 3)]),
        parcomm::graph::builder::from_edges(1, vec![(0, 0, 2)]),
        Graph::empty(1),
    ];
    let nv: usize = parts.iter().map(Graph::num_vertices).sum();
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    let mut off = 0u32;
    for g in &parts {
        edges.extend(g.edges().map(|(u, v, w)| (u + off, v + off, w)));
        edges.extend(
            g.self_loops()
                .iter()
                .enumerate()
                .filter_map(|(v, &w)| (w > 0).then_some((v as u32 + off, v as u32 + off, w))),
        );
        off += g.num_vertices() as u32;
    }
    parcomm::graph::builder::from_edges(nv, edges)
}

#[test]
fn components_match_solo_detection_for_all_kernels_and_pools() {
    let g = disconnected_graph();
    for contractor in CONTRACTORS {
        let cfg = Config::default()
            .with_contractor(contractor)
            .with_recorded_levels();
        for threads in POOLS {
            let what = format!("{contractor:?} t={threads}");
            let outcomes = {
                let (g, cfg) = (g.clone(), cfg.clone());
                with_threads(threads, move || detect_sharded_outcomes(g, &cfg))
            }
            .expect("valid config");
            // The decomposition covers every vertex exactly once, in
            // ascending-representative order.
            let covered: usize = outcomes.iter().map(|o| o.vertices()).sum();
            assert_eq!(covered, g.num_vertices(), "{what}: vertex cover");
            assert!(
                outcomes
                    .windows(2)
                    .all(|w| w[0].representative() < w[1].representative()),
                "{what}: component order"
            );
            for o in &outcomes {
                let mut keep = vec![false; g.num_vertices()];
                for &old in &o.old_of_new {
                    keep[old as usize] = true;
                }
                let solo = try_detect(induce(&g, &keep).graph, &cfg).expect("solo run");
                let sharded = o
                    .outcome
                    .as_ref()
                    .expect("no component fails without faults");
                assert_same(
                    sharded,
                    &solo,
                    &format!("{what} component rep={}", o.representative()),
                );
            }
        }
    }
}

#[test]
fn merged_result_is_pool_size_independent() {
    let g = disconnected_graph();
    for contractor in CONTRACTORS {
        let cfg = Config::default()
            .with_contractor(contractor)
            .with_recorded_levels()
            .with_sharding(true);
        let runs: Vec<DetectionResult> = POOLS
            .iter()
            .map(|&threads| {
                let (g, cfg) = (g.clone(), cfg.clone());
                with_threads(threads, move || try_detect(g, &cfg)).expect("sharded run")
            })
            .collect();
        for (r, &threads) in runs[1..].iter().zip(&POOLS[1..]) {
            assert_same(
                &runs[0],
                r,
                &format!("{contractor:?} t={} vs t={threads}", POOLS[0]),
            );
        }
        // The merged quality numbers really describe the merged
        // assignment on the original graph.
        let q = parcomm::metrics::modularity(&g, &runs[0].assignment);
        assert!(
            (q - runs[0].modularity).abs() < 1e-9,
            "{contractor:?}: reported Q {} vs direct {q}",
            runs[0].modularity
        );
    }
}

#[test]
fn connected_graph_takes_the_fast_path_bit_for_bit() {
    // Single component: `with_sharding(true)` must route through the
    // exact pre-refactor path — same bits as plain detection, at every
    // pool size.
    let g = parcomm::gen::classic::clique_ring(8, 6);
    let cfg = Config::default().with_recorded_levels();
    let plain = try_detect(g.clone(), &cfg).expect("plain run");
    for threads in POOLS {
        let sharded = {
            let (g, cfg) = (g.clone(), cfg.clone().with_sharding(true));
            with_threads(threads, move || try_detect(g, &cfg))
        }
        .expect("sharded run");
        assert_same(&plain, &sharded, &format!("fast path t={threads}"));
    }
}

#[test]
fn traced_registries_are_pool_size_independent() {
    let g = disconnected_graph();
    let cfg = Config::default().with_recorded_levels();
    let traced: Vec<_> = POOLS
        .iter()
        .map(|&threads| {
            let (g, cfg) = (g.clone(), cfg.clone());
            let (result, observers) = with_threads(threads, move || {
                try_detect_sharded_observed(g, &cfg, TraceObserver::new)
            })
            .expect("traced run");
            (result, merge_registries(&observers))
        })
        .collect();
    let counter_sum = |reg: &parcomm::trace::Registry, name: &str| {
        reg.counters_of(name).map(|c| c.value).sum::<u64>()
    };
    let (base_result, base_reg) = &traced[0];
    assert!(
        counter_sum(base_reg, "pcd_runs_total") > 1,
        "multiple shards traced"
    );
    for ((result, reg), &threads) in traced[1..].iter().zip(&POOLS[1..]) {
        let what = format!("traced t={} vs t={threads}", POOLS[0]);
        assert_same(base_result, result, &what);
        for name in [
            "pcd_runs_total",
            "pcd_levels_total",
            "pcd_edges_scored_total",
        ] {
            assert_eq!(
                counter_sum(base_reg, name),
                counter_sum(reg, name),
                "{what}: {name}"
            );
        }
    }
}

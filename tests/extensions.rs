//! Integration tests for the extension features: multilevel refinement,
//! vertex reordering, community extraction, seed expansion, and
//! arbitrary-map aggregation — all wired through the public facade.

use parcomm::core::multilevel::detect_multilevel;
use parcomm::graph::extract::extract_communities;
use parcomm::graph::reorder;
use parcomm::prelude::*;

#[test]
fn multilevel_improves_lfr_quality() {
    let lfr = parcomm::gen::lfr_graph(&parcomm::gen::LfrParams::benchmark(5_000, 0.3, 3));
    let plain = detect(lfr.graph.clone(), &Config::default());
    let (_, ml) = detect_multilevel(lfr.graph.clone(), &Config::default(), 5);
    let q_plain = plain.modularity;
    let q_ml = parcomm::metrics::modularity(&lfr.graph, &ml.assignment);
    assert!(q_ml >= q_plain - 1e-9, "{q_ml} vs {q_plain}");
    let nmi_plain = normalized_mutual_information(&plain.assignment, &lfr.ground_truth);
    let nmi_ml = normalized_mutual_information(&ml.assignment, &lfr.ground_truth);
    assert!(
        nmi_ml >= nmi_plain - 0.05,
        "multilevel hurt NMI badly: {nmi_ml} vs {nmi_plain}"
    );
}

#[test]
fn detection_quality_is_numbering_invariant() {
    // Relabel the graph with hub-first and BFS orders: detected community
    // *structure* must agree up to label names with the original run.
    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(3_000, 5));
    let g = sbm.graph;
    let base = detect(g.clone(), &Config::default());

    for (name, perm) in [
        ("degree", reorder::degree_descending(&g)),
        ("bfs", reorder::bfs_order(&g)),
    ] {
        let h = reorder::apply(&g, &perm);
        let r = detect(h, &Config::default());
        // Translate the permuted assignment back to original numbering.
        let back: Vec<u32> = (0..g.num_vertices())
            .map(|old| r.assignment[perm.new_of_old[old] as usize])
            .collect();
        // Vertex numbering feeds the parity hash and every tie-break, so
        // the matching legitimately differs — but the recovered structure
        // and its quality must stay in the same neighbourhood.
        let nmi = normalized_mutual_information(&base.assignment, &back);
        assert!(nmi > 0.6, "{name}: structure drifted, NMI = {nmi}");
        assert!(
            (r.modularity - base.modularity).abs() < 0.08,
            "{name}: Q drifted: {} vs {}",
            r.modularity,
            base.modularity
        );
    }
}

#[test]
fn extracted_subgraphs_have_low_conductance() {
    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(4_000, 7));
    let r = detect(sbm.graph.clone(), &Config::default());
    let subs = extract_communities(&sbm.graph, &r.assignment);
    assert_eq!(subs.len(), r.num_communities);
    // Members count matches the driver's accounting.
    for s in &subs {
        assert_eq!(
            s.graph.num_vertices() as u64,
            r.community_vertex_counts[s.community as usize]
        );
    }
    // Detected communities are denser inside than out, in aggregate.
    let internal: u64 = subs.iter().map(|s| s.graph.total_weight()).sum();
    let external: u64 = subs.iter().map(|s| s.external_weight).sum();
    assert!(
        internal > external,
        "internal {internal} external {external}"
    );
}

#[test]
fn seed_expansion_returns_whole_cliques() {
    // On a ring of cliques the conductance of j consecutive cliques is
    // 2/vol(j), which *decreases* with j up to half the ring — so the
    // sweep legitimately returns a union of consecutive whole cliques
    // containing the seed's. Partial cliques would raise the cut and are
    // never optimal.
    let g = parcomm::gen::classic::clique_ring(8, 8);
    let local = parcomm::baseline::seed_expand(&g, 3, 40);
    // The seed's own clique (vertices 0..8) is fully inside.
    for v in 0..8u32 {
        assert!(local.members.contains(&v), "clique member {v} missing");
    }
    // Whole cliques only.
    assert_eq!(local.members.len() % 8, 0, "partial clique returned");
    // And the cut is the two ring bridges.
    let vol = local.members.len() as f64 / 8.0 * 58.0; // per-clique volume
    assert!(
        (local.conductance - 2.0 / vol).abs() < 1e-9,
        "phi = {}",
        local.conductance
    );
}

#[test]
fn map_contraction_usable_as_louvain_aggregation() {
    // Aggregate an SBM by its planted truth through the generic map
    // contraction (Louvain's aggregation step): modularity of the planted
    // partition must be preserved by aggregation.
    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(2_000, 9));
    let (truth, k) = parcomm::metrics::compact_labels(&sbm.ground_truth);
    let agg = parcomm::contract::contract_map_into(
        &sbm.graph,
        &truth,
        k,
        &mut parcomm::contract::ContractScratch::new(),
        parcomm::graph::GraphParts::default(),
    );
    let q_fine = parcomm::metrics::modularity(&sbm.graph, &truth);
    let q_coarse = parcomm::metrics::community_graph_modularity(&agg);
    assert!((q_fine - q_coarse).abs() < 1e-9);
}

//! End-to-end integration tests across the whole stack:
//! generators → graph → scoring → matching → contraction → metrics.

use parcomm::core::{Criterion as Stop, MatcherKind};
use parcomm::prelude::*;

#[test]
fn level_prefixes_are_consistent() {
    // Detection is deterministic, so stopping at MaxLevels(k) must
    // reproduce exactly the first k levels of the full run.
    let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(11, 3));
    let full = detect(g.clone(), &Config::default());
    for k in 1..=3.min(full.levels.len()) {
        let partial = detect(
            g.clone(),
            &Config::default().with_criterion(Stop::MaxLevels(k)),
        );
        assert_eq!(partial.levels.len(), k);
        for (a, b) in partial.levels.iter().zip(full.levels.iter()) {
            assert_eq!(a.pairs_merged, b.pairs_merged, "level {}", a.level);
            assert_eq!(a.num_vertices, b.num_vertices);
            assert_eq!(a.num_edges, b.num_edges);
            assert_eq!(a.modularity, b.modularity);
        }
    }
}

#[test]
fn contract_step_timings_fit_inside_the_contract_phase() {
    // Each level's relabel/scatter/sort/copy seconds (paper sec. IV-C) are
    // non-negative and sum to at most the phase they split; contractors
    // outside the bucket pipeline report zeros, and the vertex-following
    // pre-pass (no level of its own) leaks into no level's row.
    let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(11, 3));
    for (kind, vf) in [
        (ContractorKind::Bucket, false),
        (ContractorKind::BucketFetchAdd, true),
        (ContractorKind::Linked, true),
    ] {
        let cfg = Config::default()
            .with_contractor(kind)
            .with_vertex_following(vf);
        let r = detect(g.clone(), &cfg);
        assert!(!r.levels.is_empty());
        for l in &r.levels {
            let s = &l.contract_steps;
            for x in [s.relabel_secs, s.scatter_secs, s.sort_secs, s.copy_secs] {
                assert!(x >= 0.0, "{kind:?} level {}: {s:?}", l.level);
            }
            assert!(
                s.total_secs() <= l.contract_secs,
                "{kind:?} level {}: {s:?} > {}",
                l.level,
                l.contract_secs
            );
            if kind == ContractorKind::Linked {
                assert_eq!(s.total_secs(), 0.0, "level {}", l.level);
            }
        }
    }
}

#[test]
fn assignment_matches_community_graph() {
    // Modularity computed from the original graph + assignment must equal
    // modularity of the final community graph: the hierarchy bookkeeping
    // is lossless.
    for seed in [1u64, 5, 9] {
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, seed));
        let r = detect(g.clone(), &Config::default());
        let q_direct = modularity(&g, &r.assignment);
        assert!(
            (q_direct - r.modularity).abs() < 1e-9,
            "seed {seed}: {q_direct} vs {}",
            r.modularity
        );
        let cov_direct = coverage(&g, &r.assignment);
        assert!((cov_direct - r.coverage).abs() < 1e-9);
    }
}

#[test]
fn weight_conserved_at_every_level() {
    let g = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(3_000, 8)).graph;
    let m0 = g.total_weight();
    // Run level by level and verify the community graph at each stop.
    for k in 1..=4 {
        let r = detect(
            g.clone(),
            &Config::default().with_criterion(Stop::MaxLevels(k)),
        );
        assert_eq!(r.community_graph.total_weight(), m0, "level {k}");
        assert_eq!(r.community_graph.validate(), Ok(()));
        if r.levels.len() < k {
            break; // reached local maximum earlier
        }
    }
}

#[test]
fn sbm_ground_truth_recovered_reasonably() {
    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams {
        num_vertices: 4_000,
        min_community: 15,
        max_community: 60,
        size_exponent: 1.6,
        internal_degree: 12.0,
        external_degree: 1.0,
        seed: 17,
    });
    let r = detect(sbm.graph.clone(), &Config::default());
    let nmi = normalized_mutual_information(&r.assignment, &sbm.ground_truth);
    assert!(nmi > 0.7, "nmi = {nmi}");
    assert!(r.modularity > 0.6, "q = {}", r.modularity);
}

#[test]
fn matchers_give_same_quality_class() {
    // Different matching kernels find different matchings but must land in
    // the same quality neighbourhood.
    let g = parcomm::gen::web_graph(&parcomm::gen::WebParams::uk_like(5_000, 3)).graph;
    let q_new = detect(g.clone(), &Config::default()).modularity;
    let q_old = detect(
        g.clone(),
        &Config::default().with_matcher(MatcherKind::EdgeSweep),
    )
    .modularity;
    let q_seq = detect(g, &Config::default().with_matcher(MatcherKind::Sequential)).modularity;
    for (name, q) in [("old", q_old), ("seq", q_seq)] {
        assert!(
            (q - q_new).abs() < 0.15,
            "{name} diverged: {q} vs new {q_new}"
        );
    }
}

#[test]
fn isolated_vertices_survive_as_singletons() {
    // 10 isolated vertices + one clique.
    let mut b = GraphBuilder::new(16);
    for i in 10..16u32 {
        for j in (i + 1)..16 {
            b = b.add_edge(i, j, 1);
        }
    }
    let r = detect(b.build(), &Config::default());
    for v in 0..10 {
        let c = r.assignment[v] as usize;
        assert_eq!(r.community_vertex_counts[c], 1, "vertex {v} not singleton");
    }
}

#[test]
fn legacy_2011_pipeline_still_correct() {
    let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, 4));
    let new = detect(g.clone(), &Config::paper_performance());
    let old = detect(g, &Config::legacy_2011());
    // Same coverage rule, comparable result sizes.
    assert!(old.coverage >= 0.5 || old.stop_reason != parcomm::core::result::StopReason::Criterion);
    let ratio = old.num_communities as f64 / new.num_communities.max(1) as f64;
    assert!((0.2..5.0).contains(&ratio), "ratio {ratio}");
}

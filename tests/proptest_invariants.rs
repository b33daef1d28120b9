//! Property-based tests over the core invariants, on arbitrary random
//! multigraphs (duplicates, self-loops, weights included).

use parcomm::contract::{bucket, edge_fingerprint, linked, seq as cseq, Placement};
use parcomm::core::{score_all_into, ScoreContext, ScorerKind};
use parcomm::graph::{builder, components};
use parcomm::matching::{edge_sweep, parallel, seq as mseq, verify::verify_matching};
use parcomm::util::rng::{check_cases, ChaCha8Rng, Rng};

fn score_all(kind: ScorerKind, g: &parcomm::graph::Graph, ctx: &ScoreContext) -> Vec<f64> {
    let mut scores = Vec::new();
    score_all_into(kind, g, ctx, &mut scores);
    scores
}

/// A vertex count and an arbitrary weighted edge multiset.
fn arb_graph_input(rng: &mut ChaCha8Rng) -> (usize, Vec<(u32, u32, u64)>) {
    let nv = rng.gen_range(2usize..40);
    let len = rng.gen_range(0usize..120);
    let edges = (0..len)
        .map(|_| {
            (
                rng.gen_range(0..nv as u32),
                rng.gen_range(0..nv as u32),
                rng.gen_range(1u64..4),
            )
        })
        .collect();
    (nv, edges)
}

const CASES: usize = 64;

#[test]
fn built_graphs_satisfy_all_invariants() {
    check_cases("built_graphs_satisfy_all_invariants", CASES, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let expected: u64 = edges.iter().map(|e| e.2).sum();
        let g = builder::from_edges(nv, edges);
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(g.total_weight(), expected);
        // Volumes always sum to 2m.
        let vols: u64 = g.volumes().iter().sum();
        assert_eq!(vols, 2 * g.total_weight());
    });
}

#[test]
fn parallel_components_match_union_find() {
    check_cases("parallel_components_match_union_find", CASES, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        assert_eq!(components::components(&g), components::components_seq(&g));
    });
}

#[test]
fn all_matchers_produce_valid_maximal_matchings() {
    check_cases(
        "all_matchers_produce_valid_maximal_matchings",
        CASES,
        |rng| {
            let (nv, edges) = arb_graph_input(rng);
            let g = builder::from_edges(nv, edges);
            let ctx = ScoreContext::new(&g);
            let scores = score_all(ScorerKind::Modularity, &g, &ctx);
            for (name, m) in [
                (
                    "unmatched-list",
                    parallel::match_unmatched_list(&g, &scores),
                ),
                ("edge-sweep", edge_sweep::match_edge_sweep(&g, &scores)),
                ("sequential", mseq::match_sequential_greedy(&g, &scores)),
            ] {
                assert_eq!(verify_matching(&g, &scores, &m), Ok(()), "{}", name);
            }
        },
    );
}

#[test]
fn edge_sweep_equals_sequential_greedy() {
    check_cases("edge_sweep_equals_sequential_greedy", CASES, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let a = edge_sweep::match_edge_sweep(&g, &scores);
        let b = mseq::match_sequential_greedy(&g, &scores);
        assert_eq!(a, b);
    });
}

#[test]
fn contractors_agree_and_conserve_weight() {
    check_cases("contractors_agree_and_conserve_weight", CASES, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let m = parallel::match_unmatched_list(&g, &scores);

        let a = bucket::contract_with_policy(&g, &m, Placement::PrefixSum);
        let b = bucket::contract_with_policy(&g, &m, Placement::FetchAdd);
        let c = linked::contract_linked(&g, &m);
        let d = cseq::contract_seq(&g, &m);

        let fp = edge_fingerprint(&a.graph);
        assert_eq!(&fp, &edge_fingerprint(&b.graph));
        assert_eq!(&fp, &edge_fingerprint(&c.graph));
        assert_eq!(&fp, &edge_fingerprint(&d.graph));
        assert_eq!(a.graph.self_loops(), b.graph.self_loops());
        assert_eq!(a.graph.self_loops(), c.graph.self_loops());
        assert_eq!(a.graph.self_loops(), d.graph.self_loops());
        assert_eq!(a.graph.total_weight(), g.total_weight());
        assert_eq!(a.graph.validate(), Ok(()));
        assert_eq!(a.num_new, g.num_vertices() - m.len());
    });
}

#[test]
fn modularity_telescopes_through_contraction() {
    check_cases("modularity_telescopes_through_contraction", CASES, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        // Q(contracted) == Q(current) + Σ ΔQ of matched edges — the single
        // invariant that exercises scorer, matcher and contractor together.
        let g = builder::from_edges(nv, edges);
        if g.total_weight() == 0 {
            return;
        }
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let m = parallel::match_unmatched_list(&g, &scores);
        let q0 = parcomm::metrics::community_graph_modularity(&g);
        let dq: f64 = m.matched_edges().iter().map(|&e| scores[e]).sum();
        let contracted = bucket::contract(&g, &m);
        let q1 = parcomm::metrics::community_graph_modularity(&contracted.graph);
        assert!(
            (q1 - (q0 + dq)).abs() < 1e-9,
            "q0 {} + dq {} != q1 {}",
            q0,
            dq,
            q1
        );
    });
}

#[test]
fn detection_never_panics_and_is_consistent() {
    check_cases("detection_never_panics_and_is_consistent", CASES, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        let r = parcomm::detect(g.clone(), &parcomm::Config::default());
        assert_eq!(r.assignment.len(), nv);
        assert_eq!(r.community_vertex_counts.iter().sum::<u64>(), nv as u64);
        let q_direct = parcomm::metrics::modularity(&g, &r.assignment);
        assert!((q_direct - r.modularity).abs() < 1e-9);
        // Agglomeration along positive scores can only improve modularity
        // over the singleton partition.
        let singles: Vec<u32> = (0..nv as u32).collect();
        let q_single = parcomm::metrics::modularity(&g, &singles);
        assert!(r.modularity >= q_single - 1e-12);
    });
}

#[test]
fn bucket_contractor_is_bit_identical_to_seq() {
    check_cases("bucket_contractor_is_bit_identical_to_seq", CASES, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let m = parallel::match_unmatched_list(&g, &scores);

        // The oracle builds through `from_edges`, so layout and all.
        let s = cseq::contract_seq(&g, &m);
        for placement in [Placement::PrefixSum, Placement::FetchAdd] {
            let b = bucket::contract_with_policy(&g, &m, placement);
            assert_eq!(b.graph.srcs(), s.graph.srcs(), "{placement:?}");
            assert_eq!(b.graph.dsts(), s.graph.dsts(), "{placement:?}");
            assert_eq!(b.graph.weights(), s.graph.weights(), "{placement:?}");
            assert_eq!(b.graph.self_loops(), s.graph.self_loops(), "{placement:?}");
            assert_eq!(b.new_of_old, s.new_of_old, "{placement:?}");
            assert_eq!(b.graph.validate(), Ok(()));
        }
    });
}

#[test]
fn follow_map_is_a_dense_weight_conserving_surjection() {
    check_cases(
        "follow_map_is_a_dense_weight_conserving_surjection",
        CASES,
        |rng| {
            let (nv, edges) = arb_graph_input(rng);
            let g = builder::from_edges(nv, edges);
            let mut fs = parcomm::core::FollowScratch::new();
            let num_new = parcomm::core::follow_map_into(&g, &mut fs);
            assert_eq!(fs.new_of_old.len(), nv);
            assert!(num_new >= 1 && num_new <= nv);
            // Dense surjection onto 0..num_new.
            let mut hit = vec![false; num_new];
            for &n in &fs.new_of_old {
                assert!((n as usize) < num_new);
                hit[n as usize] = true;
            }
            assert!(hit.iter().all(|&h| h));
            // Contracting through the map conserves weight and validity.
            let mut cs = parcomm::contract::ContractScratch::new();
            let pruned = parcomm::contract::contract_map_into(
                &g,
                &fs.new_of_old,
                num_new,
                &mut cs,
                Default::default(),
            );
            assert_eq!(pruned.num_vertices(), num_new);
            assert_eq!(pruned.total_weight(), g.total_weight());
            assert_eq!(pruned.validate(), Ok(()));
        },
    );
}

#[test]
fn map_contraction_conserves_weight() {
    check_cases("map_contraction_conserves_weight", CASES, |rng| {
        // Arbitrary many-to-one maps (not necessarily onto), including
        // the empty graph, edgeless graphs and k = 1.
        let (nv, edges) = match rng.gen_range(0u32..8) {
            0 => (0, Vec::new()),
            1 => (rng.gen_range(1usize..10), Vec::new()),
            _ => arb_graph_input(rng),
        };
        let g = builder::from_edges(nv, edges);
        let k = match nv {
            0 => 0,
            _ if rng.gen_range(0u32..4) == 0 => 1,
            _ => rng.gen_range(1..nv + 1),
        };
        let map: Vec<u32> = (0..nv).map(|_| rng.gen_range(0..k as u32)).collect();
        let mut scratch = parcomm::contract::ContractScratch::new();
        let c = parcomm::contract::contract_map_into(&g, &map, k, &mut scratch, Default::default());
        assert_eq!(c.num_vertices(), k);
        assert_eq!(c.total_weight(), g.total_weight());
        assert_eq!(c.validate(), Ok(()));
        // Modularity is invariant under aggregation of the same partition.
        let q_orig = parcomm::metrics::modularity(&g, &map);
        let q_agg = parcomm::metrics::community_graph_modularity(&c);
        assert!((q_orig - q_agg).abs() < 1e-9, "{q_orig} vs {q_agg}");
        // Bit-identical to building the mapped edge list from scratch.
        let mapped = g
            .edges()
            .map(|(u, v, w)| (map[u as usize], map[v as usize], w))
            .chain(
                g.self_loops()
                    .iter()
                    .enumerate()
                    .map(|(v, &s)| (map[v], map[v], s)),
            )
            .collect();
        let expect = builder::from_edges(k, mapped);
        assert_eq!(c.srcs(), expect.srcs());
        assert_eq!(c.dsts(), expect.dsts());
        assert_eq!(c.weights(), expect.weights());
        assert_eq!(c.self_loops(), expect.self_loops());
    });
}

#[test]
fn vertex_following_detection_yields_valid_partition() {
    check_cases(
        "vertex_following_detection_yields_valid_partition",
        CASES,
        |rng| {
            let (nv, edges) = arb_graph_input(rng);
            let g = builder::from_edges(nv, edges);
            let cfg = parcomm::Config::default().with_vertex_following(true);
            let r = parcomm::detect(g.clone(), &cfg);
            assert_eq!(r.assignment.len(), nv);
            assert_eq!(r.community_vertex_counts.iter().sum::<u64>(), nv as u64);
            for &c in &r.assignment {
                assert!((c as usize) < r.num_communities);
            }
            // Reported quality is the expanded assignment's quality on the
            // original graph — the expansion can't drift from the metrics.
            let q_direct = parcomm::metrics::modularity(&g, &r.assignment);
            assert!((q_direct - r.modularity).abs() < 1e-9);
            let cov_direct = parcomm::metrics::coverage(&g, &r.assignment);
            assert!((cov_direct - r.coverage).abs() < 1e-9);
        },
    );
}

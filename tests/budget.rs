//! Integration tests for the budget subsystem: deadlines, level caps,
//! memory ceilings, cooperative cancellation, strict mode, and the
//! best-effort-partition guarantee on every breach path.

use parcomm::core::NoopObserver;
use parcomm::prelude::*;
use parcomm::util::rng::{check_cases, ChaCha8Rng, Rng};

/// Every partition the engine returns — converged or best-effort — must
/// be complete and self-consistent: one community id per input vertex,
/// dense ids, counts that sum to the input, and quality numbers that
/// match a direct recomputation on the assignment.
fn assert_valid_partition(g: &Graph, r: &parcomm::core::DetectionResult) {
    let nv = g.num_vertices();
    assert_eq!(r.assignment.len(), nv);
    assert_eq!(r.input_vertices, nv);
    assert_eq!(r.community_vertex_counts.len(), r.num_communities);
    assert_eq!(
        r.community_vertex_counts.iter().sum::<u64>(),
        nv as u64,
        "community counts must cover every input vertex"
    );
    assert!(r
        .assignment
        .iter()
        .all(|&c| (c as usize) < r.num_communities));
    let q = parcomm::metrics::modularity(g, &r.assignment);
    assert!(
        (q - r.modularity).abs() < 1e-9,
        "reported modularity {} != recomputed {q}",
        r.modularity
    );
    assert!((0.0..=1.0).contains(&r.coverage));
}

fn paper_graph() -> Graph {
    parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(9, 17))
}

#[test]
fn unbudgeted_run_terminates_converged() {
    let r = parcomm::detect(paper_graph(), &Config::default());
    assert_eq!(r.termination, Termination::Converged);
    assert!(!r.termination.is_budget_breach());
}

#[test]
fn pre_cancelled_token_returns_singletons() {
    let g = paper_graph();
    let token = CancelToken::new();
    token.cancel();
    let cfg = Config::default().with_budget(Budget::unarmed().with_cancel_token(token));
    let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
    assert_eq!(r.termination, Termination::Cancelled);
    assert_eq!(r.levels.len(), 0);
    assert_eq!(r.num_communities, g.num_vertices());
    let identity: Vec<u32> = (0..g.num_vertices() as u32).collect();
    assert_eq!(r.assignment, identity);
    assert_valid_partition(&g, &r);
}

#[test]
fn expired_deadline_returns_best_effort() {
    let g = paper_graph();
    let cfg = Config::default().with_budget(Budget::unarmed().with_deadline_ms(0));
    let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
    // A zero deadline has expired by the very first level-start check.
    assert_eq!(r.termination, Termination::Deadline);
    assert_eq!(r.levels.len(), 0);
    assert_valid_partition(&g, &r);
}

#[test]
fn level_cap_matches_the_criterion_partition() {
    // Capping levels through the budget must yield the same partition as
    // the pre-existing MaxLevels stop criterion — only the reported
    // termination differs (breach vs ordinary convergence).
    let g = paper_graph();
    let via_budget =
        Detector::new(Config::default().with_budget(Budget::unarmed().with_max_levels(1)))
            .unwrap()
            .run(g.clone())
            .unwrap();
    let via_criterion = Detector::new(Config::default().with_criterion(Criterion::MaxLevels(1)))
        .unwrap()
        .run(g.clone())
        .unwrap();
    assert_eq!(via_budget.termination, Termination::MaxLevels);
    assert_eq!(via_criterion.termination, Termination::Converged);
    assert_eq!(via_budget.levels.len(), 1);
    assert_eq!(via_criterion.levels.len(), 1);
    assert_eq!(via_budget.assignment, via_criterion.assignment);
    assert_eq!(via_budget.modularity, via_criterion.modularity);
    assert_eq!(
        via_budget.community_vertex_counts,
        via_criterion.community_vertex_counts
    );
    assert_valid_partition(&g, &via_budget);
}

#[test]
fn level_cap_zero_returns_singletons() {
    let g = parcomm::gen::classic::clique_ring(6, 5);
    let cfg = Config::default().with_budget(Budget::unarmed().with_max_levels(0));
    let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
    assert_eq!(r.termination, Termination::MaxLevels);
    assert_eq!(r.levels.len(), 0);
    assert_eq!(r.num_communities, g.num_vertices());
    assert_valid_partition(&g, &r);
}

#[test]
fn tiny_memory_ceiling_stops_after_one_level() {
    // The ceiling is checked after each level's fold, so even a 1-byte
    // ceiling lets exactly one level complete before the breach.
    let g = paper_graph();
    let cfg = Config::default().with_budget(Budget::unarmed().with_max_scratch_bytes(1));
    let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
    assert_eq!(r.termination, Termination::MemoryCeiling);
    assert_eq!(r.levels.len(), 1);
    assert_valid_partition(&g, &r);
}

#[test]
fn memory_ceiling_fires_under_bucket_counter_table() {
    // The scratch-bytes ledger must account for the bucket kernel's
    // scatter counter table (and the vertex-following scratch): the
    // ceiling must still terminate cleanly with a best-effort partition
    // under the racy placement and the map-contraction pre-pass.
    let g = paper_graph();
    let cfg = Config::default()
        .with_contractor(ContractorKind::BucketFetchAdd)
        .with_vertex_following(true)
        .with_budget(Budget::unarmed().with_max_scratch_bytes(1));
    let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
    assert_eq!(r.termination, Termination::MemoryCeiling);
    assert_eq!(r.levels.len(), 1);
    assert_valid_partition(&g, &r);
}

#[test]
fn strict_mode_turns_breach_into_error() {
    let cfg = Config::default().with_budget(Budget::unarmed().with_deadline_ms(0).strict());
    let err = Detector::new(cfg)
        .unwrap()
        .run(paper_graph())
        .expect_err("a strict expired deadline must error");
    assert!(err.is_budget_exceeded());
    assert!(err.to_string().contains("deadline"));
    // Strict mode without any limit never errors.
    let cfg = Config::default().with_budget(Budget::unarmed().strict());
    assert!(!cfg.budget.is_armed());
    let r = Detector::new(cfg).unwrap().run(paper_graph()).unwrap();
    assert_eq!(r.termination, Termination::Converged);
}

#[test]
fn shared_token_cancels_a_whole_batch() {
    let graphs: Vec<Graph> = [3u64, 5, 7]
        .iter()
        .map(|&s| parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(8, s)))
        .collect();
    let token = CancelToken::new();
    token.cancel();
    let cfg = Config::default().with_budget(Budget::unarmed().with_cancel_token(token));
    let outcomes = detect_many_observed(graphs.clone(), &cfg, || NoopObserver).unwrap();
    assert_eq!(outcomes.len(), graphs.len());
    for (g, (outcome, _)) in graphs.iter().zip(outcomes) {
        let r = outcome.expect("non-strict cancellation is a best-effort result");
        assert_eq!(r.termination, Termination::Cancelled);
        assert_eq!(r.levels.len(), 0);
        assert_valid_partition(g, &r);
    }
    // The same batch under a strict budget fails every graph instead.
    let token = CancelToken::new();
    token.cancel();
    let cfg = Config::default().with_budget(Budget::unarmed().with_cancel_token(token).strict());
    for (outcome, _) in detect_many_observed(graphs, &cfg, || NoopObserver).unwrap() {
        assert!(outcome.expect_err("strict breach").is_budget_exceeded());
    }
}

#[test]
fn engine_stays_usable_after_a_breach() {
    // One engine, alternating budgeted and effectively-unbudgeted runs:
    // a breach must not leave stale state behind.
    let cfg = Config::default().with_budget(Budget::unarmed().with_max_levels(1));
    let mut engine = Detector::new(cfg).unwrap();
    let first = engine.run(paper_graph()).unwrap();
    assert_eq!(first.termination, Termination::MaxLevels);
    let second = engine.run(paper_graph()).unwrap();
    assert_eq!(second.assignment, first.assignment);
    assert_eq!(second.modularity, first.modularity);
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

/// The termination contract's core promise: whatever the breach —
/// deadline, cancellation, or level cap — the returned best-effort
/// partition is a complete, valid partition of the input.
#[test]
fn breached_runs_return_complete_valid_partitions() {
    check_cases(
        "breached_runs_return_complete_valid_partitions",
        CASES,
        |rng| {
            let (nv, edges) = arb_graph_input(rng);
            let g = parcomm::graph::builder::from_edges(nv, edges);

            let cfg = Config::default().with_budget(Budget::unarmed().with_deadline_ms(0));
            let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
            assert_eq!(r.termination, Termination::Deadline);
            assert_valid_partition(&g, &r);

            let token = CancelToken::new();
            token.cancel();
            let cfg = Config::default().with_budget(Budget::unarmed().with_cancel_token(token));
            let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
            assert_eq!(r.termination, Termination::Cancelled);
            assert_valid_partition(&g, &r);

            let cfg = Config::default().with_budget(Budget::unarmed().with_max_levels(1));
            let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
            // Graphs that stop naturally within one level report that stop;
            // everything else is the cap.
            assert!(r.levels.len() <= 1);
            assert!(r.termination == Termination::MaxLevels || !r.termination.is_budget_breach());
            assert_valid_partition(&g, &r);
        },
    );
}

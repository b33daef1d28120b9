//! Guard-coverage tests: inject a fault into each phase and prove the
//! matching paranoia guard converts it into a structured
//! `InvariantViolation` — and that with paranoia off the same fault is
//! *not* caught (i.e. the guards, not some other machinery, do the work).
//!
//! Compiled only under `--features fault-injection`.
#![cfg(feature = "fault-injection")]

use parcomm::core::{FaultPlan, NoopObserver};
use parcomm::prelude::*;
use parcomm::util::Phase;

fn test_graph() -> Graph {
    parcomm::gen::classic::clique_ring(6, 5)
}

/// CI's budget-faults matrix re-runs this whole wall once per contraction
/// kernel: `PARCOMM_TEST_CONTRACTOR=<name>` (any `--list-kernels`
/// spelling, e.g. `bucket-fetch-add`) swaps the contractor every test here
/// dispatches through; unset runs the default bucket kernel. The guards
/// under test sit outside the contractors, so every kernel must convert
/// the same faults into the same structured errors.
///
/// A second axis, `PARCOMM_TEST_SHARDED=1`, routes every `try_detect`
/// here through the component-sharded pipeline. [`test_graph`] is
/// connected, so that axis proves the sharded fast path propagates the
/// same structured errors as the plain path; the multi-component case is
/// covered explicitly below.
///
/// A third axis, `PARCOMM_TEST_MATCHER=<name>` (any `--list-kernels`
/// spelling, e.g. `labelprop`), swaps the matching kernel the same way —
/// the guards also sit outside the matchers, so every matching backend
/// must surface the same faults identically.
fn base_config() -> Config {
    let mut cfg = Config::default();
    if let Ok(name) = std::env::var("PARCOMM_TEST_CONTRACTOR") {
        let c = parcomm::core::kernel::contractor_by_name(&name)
            .unwrap_or_else(|| panic!("PARCOMM_TEST_CONTRACTOR: unknown contractor '{name}'"));
        cfg = cfg.with_contractor(c.kind());
    }
    if let Ok(name) = std::env::var("PARCOMM_TEST_MATCHER") {
        let m = parcomm::core::kernel::matcher_by_name(&name)
            .unwrap_or_else(|| panic!("PARCOMM_TEST_MATCHER: unknown matcher '{name}'"));
        cfg = cfg.with_matcher(m.kind());
    }
    if std::env::var("PARCOMM_TEST_SHARDED").as_deref() == Ok("1") {
        cfg = cfg.with_sharding(true);
    }
    cfg
}

fn faulted(fault: FaultPlan, paranoia: Paranoia) -> Result<(), (usize, Phase, String)> {
    let mut cfg = base_config().with_paranoia(paranoia);
    cfg.fault = fault;
    match try_detect(test_graph(), &cfg) {
        Ok(_) => Ok(()),
        Err(PcdError::InvariantViolation {
            level,
            phase,
            detail,
        }) => Err((level, phase, detail)),
        Err(other) => panic!("expected an invariant violation, got: {other}"),
    }
}

#[test]
fn nan_score_caught_by_cheap_guard() {
    let fault = FaultPlan {
        nan_score_at_level: Some(1),
        ..FaultPlan::default()
    };
    let (level, phase, detail) =
        faulted(fault, Paranoia::Cheap).expect_err("NaN score must trip the finiteness guard");
    assert_eq!(level, 1);
    assert_eq!(phase, Phase::Score);
    assert!(detail.contains("NaN"), "{detail}");
}

#[test]
fn nan_score_at_deeper_level_reports_that_level() {
    let fault = FaultPlan {
        nan_score_at_level: Some(2),
        ..FaultPlan::default()
    };
    let (level, phase, _) =
        faulted(fault, Paranoia::Full).expect_err("NaN score at level 2 must trip the guard there");
    assert_eq!(level, 2);
    assert_eq!(phase, Phase::Score);
}

#[test]
fn duplicate_match_caught_by_full_guard() {
    let fault = FaultPlan {
        duplicate_match_at_level: Some(1),
        ..FaultPlan::default()
    };
    let (level, phase, detail) = faulted(fault, Paranoia::Full)
        .expect_err("a duplicated matched edge must fail matching verification");
    assert_eq!(level, 1);
    assert_eq!(phase, Phase::Match);
    assert!(!detail.is_empty());
}

#[test]
fn duplicate_match_also_caught_downstream_by_cheap_conservation() {
    // Cheap paranoia skips verify_matching, but the duplicated edge's
    // weight is folded into the contracted self-loops twice — the
    // conservation ledger in the contract phase still notices.
    let fault = FaultPlan {
        duplicate_match_at_level: Some(1),
        ..FaultPlan::default()
    };
    let (level, phase, _) =
        faulted(fault, Paranoia::Cheap).expect_err("double-folded weight must break conservation");
    assert_eq!(level, 1);
    assert_eq!(phase, Phase::Contract);
}

#[test]
fn dropped_weight_caught_by_cheap_guard() {
    let fault = FaultPlan {
        drop_weight_at_level: Some(1),
        ..FaultPlan::default()
    };
    let (level, phase, detail) = faulted(fault, Paranoia::Cheap)
        .expect_err("a lost unit of edge weight must break conservation");
    assert_eq!(level, 1);
    assert_eq!(phase, Phase::Contract);
    assert!(
        detail.contains("conserved") || detail.contains("internal"),
        "{detail}"
    );
}

#[test]
fn faults_sail_through_with_paranoia_off() {
    // The guards — not the kernels or debug assertions — are what catches
    // these faults: with paranoia off the corrupted run completes. (The
    // NaN-score fault is excluded: un-guarded NaN poisons the matcher's
    // maximality debug assertion, which is exactly why the Cheap guard
    // exists.)
    for fault in [
        FaultPlan {
            duplicate_match_at_level: Some(1),
            ..FaultPlan::default()
        },
        FaultPlan {
            drop_weight_at_level: Some(1),
            ..FaultPlan::default()
        },
    ] {
        let mut cfg = base_config();
        cfg.fault = fault.clone();
        let r = try_detect(test_graph(), &cfg);
        assert!(
            r.is_ok(),
            "paranoia off must not catch {fault:?}: {:?}",
            r.err()
        );
    }
}

#[test]
fn unarmed_plan_is_inert() {
    let plan = FaultPlan::default();
    assert!(!plan.is_armed());
    let mut cfg = base_config().with_paranoia(Paranoia::Full);
    cfg.fault = plan;
    let clean = try_detect(test_graph(), &cfg).unwrap();
    let reference = detect(test_graph(), &base_config());
    assert_eq!(clean.assignment, reference.assignment);
}

#[test]
fn injected_stall_deterministically_breaches_a_deadline() {
    // A 50ms stall inside the level-1 match phase against a 5ms deadline:
    // the post-match boundary check (or, if the host already burned the
    // 5ms, the level-start check) must fire before any level completes,
    // so the run returns the untouched singleton partition as Deadline.
    let mut cfg = base_config()
        .with_budget(Budget::unarmed().with_deadline(std::time::Duration::from_millis(5)));
    cfg.fault = FaultPlan {
        stall_match_at_level: Some((1, 50)),
        ..FaultPlan::default()
    };
    let g = test_graph();
    let r = try_detect(g.clone(), &cfg).unwrap();
    assert_eq!(r.termination, Termination::Deadline);
    assert_eq!(r.levels.len(), 0);
    assert_eq!(r.num_communities, g.num_vertices());
    let identity: Vec<u32> = (0..g.num_vertices() as u32).collect();
    assert_eq!(r.assignment, identity);
    assert_eq!(
        r.community_vertex_counts.iter().sum::<u64>(),
        g.num_vertices() as u64
    );

    // The same stall under a strict budget is a structured error.
    let mut strict = base_config().with_budget(
        Budget::unarmed()
            .with_deadline(std::time::Duration::from_millis(5))
            .strict(),
    );
    strict.fault = FaultPlan {
        stall_match_at_level: Some((1, 50)),
        ..FaultPlan::default()
    };
    let err = try_detect(test_graph(), &strict).expect_err("strict deadline breach");
    assert!(err.is_budget_exceeded());
}

#[test]
fn injected_panic_poisons_only_the_isolated_engine() {
    let mut cfg = base_config();
    cfg.fault = FaultPlan {
        panic_contract_at_level: Some(1),
        ..FaultPlan::default()
    };
    let mut engine = Detector::new(cfg.clone()).unwrap();
    let err = engine
        .run(test_graph())
        .expect_err("injected contract panic");
    assert!(err.is_engine_poisoned());
    assert!(err.to_string().contains("contract-phase panic"), "{err}");
    // The rebuilt engine is usable again — the same run yields the same
    // structured error, never a propagated panic.
    let again = engine.run(test_graph()).expect_err("still faulted");
    assert!(again.is_engine_poisoned());
    // The one-shot router surfaces the same structured error. The test
    // graph is connected, so under `PARCOMM_TEST_SHARDED=1` this also
    // covers the sharded single-component path.
    let routed = try_detect(test_graph(), &cfg).expect_err("routed run is poisoned too");
    assert!(routed.is_engine_poisoned(), "{routed}");
    // And a run on a clean engine with the same graph still works,
    // proving the poison never leaked into shared state.
    let clean = detect(test_graph(), &base_config());
    assert!(clean.num_communities < test_graph().num_vertices());
}

#[test]
fn batch_panic_fails_exactly_the_graph_that_reaches_the_faulted_level() {
    // Pick a level only the big graph reaches: panic there, and the batch
    // must return one poisoned slot while every other graph's result is
    // bit-identical to its solo run.
    let big = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(9, 17));
    let smalls = vec![
        parcomm::gen::classic::clique_ring(3, 3),
        parcomm::gen::classic::clique_ring(4, 3),
    ];
    let clean = base_config();
    let deep = detect(big.clone(), &clean).levels.len();
    let solo: Vec<_> = smalls.iter().map(|g| detect(g.clone(), &clean)).collect();
    for (i, r) in solo.iter().enumerate() {
        assert!(
            r.levels.len() < deep,
            "small graph #{i} reaches level {deep} too; pick a smaller one"
        );
    }

    let mut cfg = base_config();
    cfg.fault = FaultPlan {
        panic_contract_at_level: Some(deep),
        ..FaultPlan::default()
    };
    let mut graphs = vec![big];
    graphs.extend(smalls);
    let outcomes: Vec<_> = detect_many_observed(graphs, &cfg, || NoopObserver)
        .unwrap()
        .into_iter()
        .map(|(outcome, _)| outcome)
        .collect();
    assert_eq!(outcomes.len(), 3);
    assert!(
        outcomes[0]
            .as_ref()
            .expect_err("big graph panics")
            .is_engine_poisoned(),
        "only the big graph reaches level {deep}"
    );
    for (r, lone) in outcomes[1..].iter().zip(&solo) {
        let r = r.as_ref().expect("small graphs complete");
        assert_eq!(r.assignment, lone.assignment);
        assert_eq!(r.modularity, lone.modularity);
        assert_eq!(r.levels.len(), lone.levels.len());
    }

    // A level-1 panic fails every graph — but as per-graph errors, never
    // a propagated panic out of the batch call.
    let mut all_fault = base_config();
    all_fault.fault = FaultPlan {
        panic_contract_at_level: Some(1),
        ..FaultPlan::default()
    };
    let graphs = vec![test_graph(), test_graph()];
    for (outcome, _) in detect_many_observed(graphs, &all_fault, || NoopObserver).unwrap() {
        assert!(outcome
            .expect_err("every graph panics at level 1")
            .is_engine_poisoned());
    }
}

#[test]
fn sharded_panic_poisons_only_the_component_that_reaches_the_faulted_level() {
    // Same shape as the batch test, but the "graphs" are connected
    // components of ONE disconnected input: a contract-phase panic at a
    // level only the big component reaches must fail exactly that
    // component's shard, with the survivors bit-identical to solo runs.
    let big = parcomm::graph::subgraph::largest_component(&parcomm::gen::rmat_graph(
        &parcomm::gen::RmatParams::paper(9, 17),
    ))
    .graph;
    let smalls = vec![
        parcomm::gen::classic::clique_ring(3, 3),
        parcomm::gen::classic::clique_ring(4, 3),
    ];
    let clean = base_config();
    let deep = detect(big.clone(), &clean).levels.len();
    let solo: Vec<_> = smalls.iter().map(|g| detect(g.clone(), &clean)).collect();
    for (i, r) in solo.iter().enumerate() {
        assert!(
            r.levels.len() < deep,
            "small component #{i} reaches level {deep} too; pick a smaller one"
        );
    }

    // Disjoint id-offset union, big component first so it holds vertex 0
    // and leads the canonical component order.
    let mut parts = vec![big];
    parts.extend(smalls);
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
    let union = parcomm::graph::builder::from_edges(nv, edges);

    let mut cfg = base_config();
    cfg.fault = FaultPlan {
        panic_contract_at_level: Some(deep),
        ..FaultPlan::default()
    };
    let outcomes = detect_sharded_outcomes(union.clone(), &cfg).unwrap();
    assert_eq!(outcomes.len(), 3);
    assert!(
        outcomes[0]
            .outcome
            .as_ref()
            .expect_err("big component panics")
            .is_engine_poisoned(),
        "only the big component reaches level {deep}"
    );
    for (o, lone) in outcomes[1..].iter().zip(&solo) {
        let r = o.outcome.as_ref().expect("small components complete");
        assert_eq!(r.assignment, lone.assignment);
        assert_eq!(r.modularity, lone.modularity);
        assert_eq!(r.levels.len(), lone.levels.len());
    }

    // The merged entry points surface the poisoning as a structured,
    // deterministic error (the first failing component in component
    // order) — never a propagated panic, and never a half-merged result.
    let err = try_detect_sharded(union.clone(), &cfg).expect_err("merged run fails");
    assert!(err.is_engine_poisoned());
    let err =
        try_detect(union, &cfg.clone().with_sharding(true)).expect_err("routed run fails too");
    assert!(err.is_engine_poisoned());
}

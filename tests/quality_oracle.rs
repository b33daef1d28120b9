//! Differential quality oracle: every registered matching backend is
//! measured against (a) planted ground truth on an easy SBM — NMI must
//! clear 0.9 — and (b) the dependency-free sequential Louvain reference
//! in `pcd-baseline` — the detect + refine pipeline must hold 95% of the
//! reference modularity on every fixture. The same thresholds gate CI
//! through `cargo xtask bench --min-quality-ratio` (see EXPERIMENTS.md);
//! this test is the always-on, fixture-pinned edition.

use parcomm::core::refine::refine;
use parcomm::gen::{rmat_graph, sbm_graph, RmatParams, SbmParams};
use parcomm::metrics::{adjusted_rand_index, modularity, normalized_mutual_information};
use parcomm::prelude::*;

/// Every matcher in the kernel registry, spelled as `MatcherKind` so a
/// registry addition that forgets this list fails `registry_is_covered`.
const BACKENDS: [MatcherKind; 5] = [
    MatcherKind::UnmatchedList,
    MatcherKind::EdgeSweep,
    MatcherKind::Sequential,
    MatcherKind::LabelProp,
    MatcherKind::LouvainMove,
];

#[test]
fn registry_is_covered() {
    assert_eq!(
        BACKENDS.len(),
        parcomm::core::kernel::MATCHERS.len(),
        "a registered matcher is missing from the quality oracle"
    );
}

#[test]
fn every_backend_recovers_the_planted_partition() {
    let s = sbm_graph(&SbmParams::planted_partition(1_024, 16, 42));
    let truth = &s.ground_truth;
    for backend in BACKENDS {
        let cfg = Config::default().with_matcher(backend);
        let r = detect(s.graph.clone(), &cfg);
        let nmi = normalized_mutual_information(&r.assignment, truth);
        let ari = adjusted_rand_index(&r.assignment, truth);
        eprintln!(
            "planted-1024 {backend:?}: {} communities, NMI {nmi:.4}, ARI {ari:.4}",
            r.num_communities
        );
        assert!(
            nmi >= 0.9,
            "{backend:?}: NMI {nmi:.4} below 0.9 on an easy planted SBM"
        );
        assert!(
            ari >= 0.8,
            "{backend:?}: ARI {ari:.4} below 0.8 on an easy planted SBM"
        );
    }
}

#[test]
fn every_backend_holds_95pct_of_the_sequential_reference() {
    // The measured pipeline is detect + the repo's refinement sweeps —
    // the same configuration EXPERIMENTS.md reports — because raw
    // pairwise agglomeration legitimately trails a full Louvain on
    // R-MAT-style graphs (it merges at most pairs per level) and the
    // refinement pass is the system's own answer to that gap.
    let fixtures: Vec<(String, Graph)> = vec![
        ("rmat-10".into(), rmat_graph(&RmatParams::paper(10, 42))),
        (
            "sbm-lj-2000".into(),
            sbm_graph(&SbmParams::livejournal_like(2_000, 7)).graph,
        ),
        (
            "planted-1024".into(),
            sbm_graph(&SbmParams::planted_partition(1_024, 16, 42)).graph,
        ),
    ];
    for (name, g) in &fixtures {
        let reference = modularity(g, &parcomm::baseline::louvain(g));
        assert!(reference > 0.0, "{name}: degenerate reference");
        for backend in BACKENDS {
            let cfg = Config::default().with_matcher(backend);
            let r = detect(g.clone(), &cfg);
            let refined = refine(g, &r.assignment, 10);
            let q = modularity(g, &refined.assignment);
            let ratio = q / reference;
            eprintln!(
                "{name} {backend:?}: Q {q:.4} vs reference {reference:.4} (ratio {ratio:.3})"
            );
            assert!(
                ratio >= 0.95,
                "{name} {backend:?}: Q {q:.4} is below 95% of the sequential \
                 reference {reference:.4} (ratio {ratio:.3})"
            );
        }
    }
}

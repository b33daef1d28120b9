//! Allocation-regression harness (`--features alloc-stats`).
//!
//! Drives the level loop's three kernels directly through a
//! [`LevelScratch`] arena on a pinned R-MAT instance and asserts that
//! every level after the first performs **zero** heap allocations in
//! score, match, contract, and the volume/ping-pong fold: level 1 sizes
//! every buffer to its high-water mark, and the community graph only
//! shrinks from there.
//!
//! The contract-phase assertion is release-only: debug builds run
//! `Graph::validate` inside `from_recycled_parts` (a `debug_assert!`),
//! which allocates scratch of its own. CI runs this test with
//! `--release`, where the full zero-allocation claim is enforced.

#![cfg(feature = "alloc-stats")]

use parcomm::contract::{bucket, Placement};
use parcomm::core::scorer::{any_positive, score_all_into};
use parcomm::core::{LevelScratch, ScorerKind};
use parcomm::matching::parallel::match_unmatched_list_scratch;
use parcomm::util::alloc_stats::{snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-global, so the checks run in sequence from
/// one test: with several tests, libtest's main thread allocates while
/// starting the next test's thread, and those allocations would land in
/// whichever window another test is measuring.
#[test]
fn allocation_checks() {
    counting_allocator_observes_traffic();
    steady_state_levels_allocate_nothing();
    trace_observer_adds_zero_steady_state_allocations();
    recorder_primitives_never_allocate_after_construction();
}

fn steady_state_levels_allocate_nothing() {
    // Single worker: the counters are process-global, so other pool
    // workers' bookkeeping must not pollute the phase windows.
    parcomm::util::pool::with_threads(1, || {
        let mut g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, 3));
        let mut scratch = LevelScratch::new();
        scratch.ctx.refresh(&g);
        let mut steady_levels = 0usize;

        for level in 1.. {
            let warm = level >= 2;

            let before = snapshot();
            score_all_into(
                ScorerKind::Modularity,
                &g,
                &scratch.ctx,
                &mut scratch.scores,
            );
            let scored = snapshot();
            if warm {
                assert_eq!(
                    scored.allocations_since(&before),
                    0,
                    "score allocated at level {level}"
                );
            }
            if !any_positive(&scratch.scores) {
                break;
            }

            let before = snapshot();
            let outcome = match_unmatched_list_scratch(
                &g,
                &scratch.scores,
                usize::MAX,
                &mut scratch.matching,
            );
            let matched = snapshot();
            if warm {
                assert_eq!(
                    matched.allocations_since(&before),
                    0,
                    "match allocated at level {level}"
                );
            }
            let matching = outcome.matching;
            if matching.is_empty() {
                break;
            }

            let before = snapshot();
            let parts = scratch.take_parts();
            let (next, num_new) = bucket::contract_into(
                &g,
                &matching,
                Placement::PrefixSum,
                &mut scratch.contract,
                parts,
            );
            let contracted = snapshot();
            if warm && !cfg!(debug_assertions) {
                assert_eq!(
                    contracted.allocations_since(&before),
                    0,
                    "contract allocated at level {level}"
                );
            }

            // The driver's fold: carry volumes through the contraction map,
            // recycle the matching's storage, ping-pong the graphs.
            let before = snapshot();
            {
                let new_of_old = scratch.contract.new_of_old();
                scratch.vol_next.clear();
                scratch.vol_next.resize(num_new, 0);
                for (old, &v) in scratch.ctx.vol.iter().enumerate() {
                    scratch.vol_next[new_of_old[old] as usize] += v;
                }
            }
            std::mem::swap(&mut scratch.ctx.vol, &mut scratch.vol_next);
            scratch.matching.recycle(matching);
            let retired = std::mem::replace(&mut g, next);
            scratch.store_parts(retired);
            let folded = snapshot();
            if warm {
                assert_eq!(
                    folded.allocations_since(&before),
                    0,
                    "level fold allocated at level {level}"
                );
                steady_levels += 1;
            }
        }

        assert!(
            steady_levels >= 2,
            "instance too small: only {steady_levels} steady-state levels measured"
        );
    });
}

fn trace_observer_adds_zero_steady_state_allocations() {
    // Differential form of the zero-overhead claim: a warm engine run with
    // the full recorder attached performs exactly as many heap allocations
    // as the same run with the NoopObserver — the recorder itself adds
    // none. (The engine's own result vectors allocate in both arms, so the
    // comparison isolates the observer hooks.)
    use parcomm::prelude::*;
    parcomm::util::pool::with_threads(1, || {
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(9, 5));
        let (g_warm, g_plain, g_observed) = (g.clone(), g.clone(), g);
        let mut engine = Detector::new(Config::default()).expect("valid config");
        engine.run(g_warm).expect("warm-up run");

        let before = snapshot();
        engine.run(g_plain).expect("plain run");
        let plain = snapshot().allocations_since(&before);

        let mut tracer = parcomm::trace::TraceObserver::new(); // allocates up front
        let before = snapshot();
        engine
            .run_observed(g_observed, &mut tracer)
            .expect("observed run");
        let observed = snapshot().allocations_since(&before);

        assert!(!tracer.ring().is_empty(), "recorder saw no spans");
        assert_eq!(
            observed, plain,
            "attached recorder allocated during the run"
        );
    });
}

fn recorder_primitives_never_allocate_after_construction() {
    use parcomm::trace::{Registry, SpanKind, SpanRecord, SpanRing};
    let mut ring = SpanRing::with_capacity(64);
    let mut reg = Registry::new();
    let c = reg.counter("c", "", &[]);
    let h = reg.histogram("h", "", &[], &[1e-3, 1.0, 1e3]);
    let span = SpanRecord {
        kind: SpanKind::Score,
        level: 0,
        start_ticks: 1,
        end_ticks: 2,
        thread: 0,
        vertices: 4,
        edges: 8,
        kernel_secs: 1e-6,
    };
    let before = snapshot();
    // Far past the ring capacity: overwriting the oldest span must not
    // reallocate, and registry writes are plain index updates.
    for i in 0..10_000u64 {
        ring.push(span);
        reg.inc(c, 1);
        reg.observe(h, i as f64);
        reg.observe(h, f64::NAN); // dropped, still no allocation
    }
    assert_eq!(
        snapshot().allocations_since(&before),
        0,
        "recorder primitives allocated in steady state"
    );
    assert_eq!(ring.dropped(), 10_000 - 64);
    assert_eq!(reg.dropped_observations(), 10_000);
}

fn counting_allocator_observes_traffic() {
    // Sanity-check the harness itself: a fresh Vec must register.
    let before = snapshot();
    let v: Vec<u64> = Vec::with_capacity(1024);
    let after = snapshot();
    assert!(after.allocations_since(&before) >= 1);
    assert!(after.bytes_since(&before) >= 8 * 1024);
    drop(v);
    let dropped = snapshot();
    assert!(dropped.deallocations > after.deallocations.saturating_sub(1));
}

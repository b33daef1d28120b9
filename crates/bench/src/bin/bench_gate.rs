//! JSON benchmark gate for the zero-allocation level loop.
//!
//! Runs end-to-end detection on pinned R-MAT and SBM instances across a
//! set of thread counts, with three level-loop arms — **reuse** (the
//! default engine: retained arenas + graph ping-pong), **observed**
//! (reuse plus a full `pcd-trace` recorder attached, gating the
//! observability layer's end-to-end overhead against the plain reuse
//! arm), and **budgeted-unarmed** (reuse plus an armed but non-binding
//! [`Budget`] — hour-long deadline, `usize::MAX` caps, a live cancel
//! token nobody cancels — gating the budget sentinel's phase-boundary
//! checks the same way) — and writes a single machine-readable JSON report. Two sharding cells
//! ride along: a **sharded** arm (the component-sharded pipeline behind
//! `Config::with_sharding`) interleaved against plain reuse on a
//! multi-component `union-*` instance (disjoint R-MAT + SBM union, where
//! per-component engines can win) and on a connected `ring-*` instance
//! (where sharding must take the single-component fast path and cost
//! nothing — `cargo xtask bench --min-sharded-speedup` /
//! `--max-sharded-overhead` gate the two cases by instance-name prefix).
//! A batched section measures the engine's
//! `detect_many` entry point (**batch-warm**: one long-lived [`Detector`]
//! per parallel task, arenas stay warm across graphs) against a fresh
//! engine per graph under the same pool (**batch-cold**), so warm-arena
//! reuse across independent inputs is a gated number. `cargo xtask bench`
//! wraps this binary, validates the schema, and compares the report
//! against the previous checked-in `BENCH_*.json` with a configurable
//! regression threshold.
//!
//! Per-kernel phase sums come from a [`LevelObserver`] attached to the
//! measured run — the same hook the CLI's `--progress` uses — rather than
//! from post-hoc `LevelStats` summation, so they also include the score
//! phase of the terminal level that stops the loop.
//!
//! A **quality** section rides every report: fixed-size instances (a
//! planted-partition SBM with ground truth, an R-MAT-10, a 2000-vertex
//! LiveJournal-flavoured SBM — deliberately independent of `--scale`, so
//! the numbers are exact even under `--smoke`) are detected once per
//! registered matching backend, refined with the repo's own sweeps, and
//! scored: modularity, coverage, NMI against ground truth where planted,
//! and the sequential-Louvain reference modularity from `pcd-baseline`.
//! `cargo xtask bench --min-quality-ratio` gates each backend's
//! geomean(modularity / reference) and the planted instances' NMI.
//!
//! Schema (`parcomm-bench-v3`; v2 predates the `quality` section, v1
//! additionally predates the host `rayon_threads` field — `cargo xtask
//! bench` still loads both as comparison baselines, along with older
//! reports' retired `contract-radix` cells): one top-level object with
//! `schema`, `label`, `created_unix`, `host` (available parallelism,
//! the global worker count — pinned at startup to the widest `--threads` entry
//! via [`pin_global`], recorded as both `rayon_threads` (the field name
//! predates the in-repo pool) and `pinned_threads` so reports stop
//! silently describing a 1-core default — and alloc-stats on/off),
//! `quality` — an array keyed by
//! (`instance`, `backend`) carrying modularity, coverage, `nmi` (`null`
//! on instances without planted ground truth), and the sequential
//! reference modularity — and
//! `results`, an array of records keyed by (`instance`, `threads`, `arm`)
//! carrying min/median/max end-to-end seconds, per-kernel phase sums
//! (score/match/contract), level count, modularity, peak RSS, and — when
//! built with `--features alloc-stats` — the heap allocation count of the
//! measured run (`null` otherwise). The `observed` and `budgeted-unarmed`
//! records additionally carry `overhead_vs_reuse` (`null` on every other
//! arm): the ratio of that arm's and the reuse arm's fastest samples,
//! drawn from rounds that interleave the arms so the minima see the same
//! machine epochs. `cargo xtask bench --max-observed-overhead` /
//! `--max-budget-overhead` pool these per-cell ratios by geometric mean
//! and gate the pool — additive host noise falls out of a min/min ratio
//! while real recorder or sentinel cost does not, and pooling across
//! cells averages out what noise remains.
//!
//! Everything is emitted by hand: the harness must build without serde or
//! any other registry dependency.

use std::fmt::Write as _;
use std::process::ExitCode;

use pcd_core::{
    detect_many, kernel, refine::refine, try_detect_sharded_observed, Budget, CancelToken, Config,
    DetectionResult, Detector, LevelObserver, Tee,
};
use pcd_gen::classic::clique_ring;
use pcd_gen::{rmat_graph, sbm_graph, RmatParams, SbmParams};
use pcd_graph::{builder, Graph};
use pcd_metrics::{coverage, modularity, normalized_mutual_information};
use pcd_trace::{metrics_json, Registry, TraceObserver};
use pcd_util::par::prelude::*;
use pcd_util::pool::{pin_global, with_threads};
use pcd_util::timing::{RunStats, Timer};
use pcd_util::Phase;
use pcd_util::VertexId;

#[cfg(feature = "alloc-stats")]
#[global_allocator]
static ALLOC: pcd_util::alloc_stats::CountingAlloc = pcd_util::alloc_stats::CountingAlloc;

/// Pinned instance seed: every report benchmarks bit-identical graphs.
const SEED: u64 = 42;

/// Graphs per batched `detect_many` cell.
const BATCH_SIZE: usize = 4;

struct Args {
    /// R-MAT scale (2^scale vertices); the acceptance run uses 20.
    rmat_scale: u32,
    /// SBM vertex count.
    sbm_vertices: usize,
    threads: Vec<usize>,
    runs: usize,
    label: String,
    out: String,
    /// When non-empty: write the last observed cell's metrics registry as
    /// a `parcomm-metrics-v1` document to this path.
    metrics_out: String,
    /// Tiny instances, one thread, one run: schema/plumbing check only.
    smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            rmat_scale: 16,
            sbm_vertices: 60_000,
            threads: vec![1, 2, 8],
            runs: 3,
            label: "pr3".into(),
            out: String::new(),
            metrics_out: String::new(),
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--scale" => a.rmat_scale = num(&val("--scale")?)?,
                "--sbm-vertices" => a.sbm_vertices = num(&val("--sbm-vertices")?)?,
                "--threads" => {
                    a.threads = val("--threads")?
                        .split(',')
                        .map(num)
                        .collect::<Result<_, _>>()?;
                }
                "--runs" => a.runs = num(&val("--runs")?)?,
                "--label" => a.label = val("--label")?,
                "--out" => a.out = val("--out")?,
                "--metrics-out" => a.metrics_out = val("--metrics-out")?,
                "--smoke" => a.smoke = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if a.smoke {
            a.rmat_scale = 8;
            a.sbm_vertices = 600;
            a.threads = vec![1];
            a.runs = 1;
        }
        if a.out.is_empty() {
            a.out = format!("BENCH_{}.json", a.label);
        }
        if a.threads.is_empty() || a.runs == 0 {
            return Err("need at least one thread count and one run".into());
        }
        Ok(a)
    }

    /// Batch graphs are two scales smaller than the headline R-MAT so one
    /// batch costs about as much as one single-instance cell.
    fn batch_scale(&self) -> u32 {
        self.rmat_scale.saturating_sub(2).max(4)
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number: {s}"))
}

/// One measured (instance, threads, arm) cell.
struct Record {
    instance: String,
    input_edges: usize,
    threads: usize,
    arm: &'static str,
    end_to_end: RunStats,
    score_secs: f64,
    match_secs: f64,
    contract_secs: f64,
    levels: usize,
    modularity: f64,
    peak_rss_bytes: Option<u64>,
    allocations: Option<u64>,
    /// Overhead of the arm's extra machinery: the ratio of this arm's and
    /// the reuse arm's fastest samples; `Some` only on the `observed`
    /// (trace recorder) and `budgeted-unarmed` (armed budget sentinel)
    /// arms. Host noise is additive so each minimum approaches that arm's
    /// true cost, while a real recorder/sentinel cost shifts that arm's
    /// minimum with it; the arms are interleaved within every round so
    /// the minima are drawn from the same machine epochs.
    overhead_vs_reuse: Option<f64>,
}

/// Refinement sweeps applied to every quality cell. The measured pipeline
/// is detect + refine — the configuration EXPERIMENTS.md reports — because
/// raw pairwise agglomeration legitimately trails a full Louvain on
/// R-MAT-style graphs (it merges at most pairs per level) and the
/// refinement pass is the system's own answer to that gap. The quality
/// oracle in `tests/quality_oracle.rs` pins the same pipeline.
const REFINE_SWEEPS: usize = 10;

/// One (quality instance, backend) measurement. `reference_modularity` is
/// the dependency-free sequential Louvain from `pcd-baseline` on the same
/// graph; `nmi` is `Some` only on planted instances with ground truth.
struct QualityCell {
    instance: String,
    backend: &'static str,
    modularity: f64,
    coverage: f64,
    nmi: Option<f64>,
    reference_modularity: f64,
}

/// Measures every matcher in the kernel registry on the fixed quality
/// instances. Instance sizes are pinned — deliberately independent of
/// `--scale`, `--sbm-vertices`, and `--smoke` — so the quality numbers
/// `cargo xtask bench --min-quality-ratio` gates are exact in every
/// report, including CI's smoke runs.
fn measure_quality() -> Vec<QualityCell> {
    eprintln!("bench_gate: measuring quality cells (fixed-size instances)...");
    let planted = sbm_graph(&SbmParams::planted_partition(1_024, 16, SEED));
    let fixtures: [(String, Graph, Option<Vec<VertexId>>); 3] = [
        (
            "planted-1024-16".into(),
            planted.graph,
            Some(planted.ground_truth),
        ),
        (
            "rmat-10-16".into(),
            rmat_graph(&RmatParams::paper(10, SEED)),
            None,
        ),
        (
            "sbm-lj-2000".into(),
            sbm_graph(&SbmParams::livejournal_like(2_000, SEED + 1)).graph,
            None,
        ),
    ];
    let mut cells = Vec::new();
    for (name, g, truth) in &fixtures {
        let reference_modularity = modularity(g, &pcd_baseline::louvain(g));
        for m in kernel::MATCHERS {
            let cfg = Config::default().with_matcher(m.kind());
            let result = Detector::new(cfg)
                .expect("quality config is valid")
                .run(g.clone())
                .expect("quality instance detects cleanly");
            let refined = refine(g, &result.assignment, REFINE_SWEEPS);
            let q = modularity(g, &refined.assignment);
            let nmi = truth
                .as_ref()
                .map(|t| normalized_mutual_information(&refined.assignment, t));
            eprintln!(
                "  {name} {}: Q {q:.4} (reference {reference_modularity:.4}, ratio {:.3}){}",
                m.name(),
                q / reference_modularity,
                nmi.map_or(String::new(), |v| format!(", NMI {v:.4}"))
            );
            cells.push(QualityCell {
                instance: name.clone(),
                backend: m.name(),
                modularity: q,
                coverage: coverage(g, &refined.assignment),
                nmi,
                reference_modularity,
            });
        }
    }
    cells
}

/// Accumulates per-phase seconds through the engine's observer hook.
#[derive(Default)]
struct PhaseTimes {
    score: f64,
    matching: f64,
    contract: f64,
}

impl LevelObserver for PhaseTimes {
    fn on_phase_end(&mut self, _level: usize, phase: Phase, secs: f64) {
        match phase {
            Phase::Score => self.score += secs,
            Phase::Match => self.matching += secs,
            Phase::Contract => self.contract += secs,
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            eprintln!(
                "usage: bench_gate [--scale N] [--sbm-vertices N] [--threads 1,2,8] \
                 [--runs N] [--label L] [--out FILE] [--metrics-out FILE] [--smoke]"
            );
            return ExitCode::FAILURE;
        }
    };

    // Pin the process-wide worker count to the widest swept width before
    // any parallel work (instance generation included), so the host
    // stanza records the width the run actually used instead of the
    // silent per-host default.
    let pin_width = args.threads.iter().copied().max().unwrap_or(0);
    if !pin_global(pin_width) {
        eprintln!(
            "bench_gate: the global worker count was already pinned; \
             could not pin to {pin_width} threads"
        );
    }

    eprintln!(
        "bench_gate: building instances (rmat scale {}, sbm {} vertices)...",
        args.rmat_scale, args.sbm_vertices
    );
    let instances: Vec<(String, Graph)> = vec![
        (
            format!("rmat-{}-16", args.rmat_scale),
            rmat_graph(&RmatParams::paper(args.rmat_scale, SEED)),
        ),
        (
            format!("sbm-lj-{}", args.sbm_vertices),
            sbm_graph(&SbmParams::livejournal_like(args.sbm_vertices, SEED + 1)).graph,
        ),
    ];
    let batch_scale = args.batch_scale();
    let batch: Vec<Graph> = (0..BATCH_SIZE)
        .map(|i| rmat_graph(&RmatParams::paper(batch_scale, SEED + 100 + i as u64)))
        .collect();
    let batch_name = format!("rmat-{batch_scale}-16-x{BATCH_SIZE}");

    // Sharding instances. The union graph is a disjoint id-offset union of
    // a smaller R-MAT (many isolated vertices and fragments) and a smaller
    // SBM — the multi-component shape `try_detect_sharded` exists for. The
    // clique ring is connected, so its sharded cell must take the
    // single-component fast path; `--max-sharded-overhead` gates that path
    // at roughly the noise floor.
    let union_name = format!("union-rmat{}-sbm{}", batch_scale, args.sbm_vertices / 2);
    let union_g = disjoint_union(&[
        rmat_graph(&RmatParams::paper(batch_scale, SEED + 7)),
        sbm_graph(&SbmParams::livejournal_like(
            args.sbm_vertices / 2,
            SEED + 8,
        ))
        .graph,
    ]);
    let ring_cliques = 1usize << args.rmat_scale.saturating_sub(4).max(4);
    let ring_name = format!("ring-{ring_cliques}x8");
    let ring_g = clique_ring(ring_cliques, 8);

    let mut records = Vec::new();
    let mut observed_registry: Option<Registry> = None;
    for (name, g) in &instances {
        for &t in &args.threads {
            let (cell, registry) = measure_cell(name, g, t, args.runs);
            if registry.is_some() {
                observed_registry = registry;
            }
            for record in cell {
                records.push(record);
                report_cell(records.last().unwrap());
            }
        }
    }
    for (name, g) in [(&union_name, &union_g), (&ring_name, &ring_g)] {
        for &t in &args.threads {
            for record in measure_sharded_cell(name, g, t, args.runs) {
                records.push(record);
                report_cell(records.last().unwrap());
            }
        }
    }
    for &t in &args.threads {
        for (arm, warm) in [("batch-warm", true), ("batch-cold", false)] {
            records.push(measure_batch(&batch_name, &batch, t, arm, warm, args.runs));
            report_cell(records.last().unwrap());
        }
    }

    let quality = measure_quality();

    // Instance table: the headline graphs, the sharding pair, plus the
    // batch as one entry (vertex/edge totals across its graphs).
    let mut summaries: Vec<(String, usize, usize)> = instances
        .iter()
        .map(|(name, g)| (name.clone(), g.num_vertices(), g.num_edges()))
        .collect();
    summaries.push((union_name, union_g.num_vertices(), union_g.num_edges()));
    summaries.push((ring_name, ring_g.num_vertices(), ring_g.num_edges()));
    summaries.push((
        batch_name,
        batch.iter().map(Graph::num_vertices).sum(),
        batch.iter().map(Graph::num_edges).sum(),
    ));

    let json = render(&args, &summaries, &records, &quality);
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("bench_gate: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("bench_gate: wrote {}", args.out);
    if !args.metrics_out.is_empty() {
        let reg = observed_registry.expect("observed arm always runs");
        let doc = metrics_json(&reg, &args.label, unix_now());
        if let Err(e) = std::fs::write(&args.metrics_out, doc) {
            eprintln!("bench_gate: cannot write {}: {e}", args.metrics_out);
            return ExitCode::FAILURE;
        }
        eprintln!("bench_gate: wrote {}", args.metrics_out);
    }
    ExitCode::SUCCESS
}

fn report_cell(r: &Record) {
    eprintln!(
        "  {} t={} {}: median {:.4}s (score {:.4} match {:.4} contract {:.4})",
        r.instance,
        r.threads,
        r.arm,
        r.end_to_end.median(),
        r.score_secs,
        r.match_secs,
        r.contract_secs
    );
}

/// The three single-instance arms as (name, observed, budgeted).
/// "reuse" is the default engine; "observed" is "reuse" with the full
/// pcd-trace recorder attached; "budgeted-unarmed" is "reuse" with an
/// armed but non-binding budget. Each pair with "reuse" gates that subsystem's end-to-end
/// overhead.
const CELL_ARMS: [(&str, bool, bool); 3] = [
    ("reuse", false, false),
    ("observed", true, false),
    ("budgeted-unarmed", false, true),
];

/// Arms whose record carries `overhead_vs_reuse`.
const GATED_ARMS: [&str; 2] = ["observed", "budgeted-unarmed"];

/// Measures the four single-instance arms of one (instance, threads)
/// cell round-robin: every round takes one sample of each arm back to
/// back, so slow machine epochs (frequency drift, noisy neighbours) land
/// on all arms alike instead of biasing whichever arm ran later. The
/// per-arm overhead ratios `cargo xtask bench` gates are only meaningful
/// under this pairing.
fn measure_cell(
    name: &str,
    g: &Graph,
    threads: usize,
    runs: usize,
) -> (Vec<Record>, Option<Registry>) {
    debug_assert_eq!(
        CELL_ARMS.map(|(a, _, _)| a),
        ["reuse", "observed", "budgeted-unarmed"]
    );
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); CELL_ARMS.len()];
    let mut lasts: Vec<Option<(DetectionResult, PhaseTimes, Option<Registry>)>> =
        (0..CELL_ARMS.len()).map(|_| None).collect();
    let mut allocations: Vec<Option<u64>> = vec![None; CELL_ARMS.len()];
    for round in 0..runs {
        // The gated arms (observed, budgeted-unarmed) alternate which of
        // them brackets reuse, so every gated arm spends half its rounds adjacent to reuse on each side and
        // none systematically occupies the warmer late position.
        let order: [usize; 3] = if round % 2 == 0 { [0, 1, 2] } else { [2, 0, 1] };
        for i in order {
            let (_, observed, budgeted) = CELL_ARMS[i];
            let (secs, allocs, outcome) = run_once(g, threads, observed, budgeted);
            samples[i].push(secs);
            allocations[i] = allocs;
            lasts[i] = Some(outcome);
        }
    }
    // Recorder/sentinel overhead is deterministic work while host noise
    // (drift, warmup, neighbours) is strictly additive, so the fastest
    // sample of each arm is the least-contaminated estimate of its true
    // cost and the min/min ratio is the lowest-variance overhead
    // estimator available here — real extra cost shifts that arm's
    // minimum just the same. The interleaving above is what makes the
    // minima comparable: every arm gets an equal shot at the fast
    // machine epochs within the cell.
    let fastest = |xs: &[f64]| xs.iter().copied().min_by(f64::total_cmp);
    let reuse_min = CELL_ARMS
        .iter()
        .position(|&(a, _, _)| a == "reuse")
        .and_then(|r| fastest(&samples[r]));
    let mut registry = None;
    let mut records = Vec::with_capacity(CELL_ARMS.len());
    for (i, &(arm, _, _)) in CELL_ARMS.iter().enumerate() {
        let (result, phases, reg) = lasts[i].take().expect("runs >= 1");
        if reg.is_some() {
            registry = reg;
        }
        let overhead = (GATED_ARMS.contains(&arm))
            .then(|| fastest(&samples[i]).zip(reuse_min).map(|(a, r)| a / r))
            .flatten();
        records.push(Record {
            instance: name.into(),
            input_edges: g.num_edges(),
            threads,
            arm,
            end_to_end: RunStats::new(std::mem::take(&mut samples[i])),
            score_secs: phases.score,
            match_secs: phases.matching,
            contract_secs: phases.contract,
            levels: result.levels.len(),
            modularity: result.modularity,
            peak_rss_bytes: peak_rss_bytes(),
            allocations: allocations[i],
            overhead_vs_reuse: overhead,
        });
    }
    (records, registry)
}

/// Disjoint id-offset union of `parts`: each part's vertices are shifted
/// past its predecessors' and no cross-part edges are added, so the
/// result's connected components are exactly the parts' components.
fn disjoint_union(parts: &[Graph]) -> Graph {
    let nv: usize = parts.iter().map(Graph::num_vertices).sum();
    let mut edges = Vec::new();
    let mut off: VertexId = 0;
    for g in parts {
        edges.extend(g.edges().map(|(u, v, w)| (u + off, v + off, w)));
        for (v, &w) in g.self_loops().iter().enumerate() {
            if w > 0 {
                edges.push((v as VertexId + off, v as VertexId + off, w));
            }
        }
        off += g.num_vertices() as VertexId;
    }
    builder::from_edges(nv, edges)
}

/// Measures the sharding pair on one (instance, threads) cell: plain
/// `reuse` against the component-`sharded` pipeline, alternating which
/// arm leads each round so both sample the same machine epochs. Neither
/// record carries `overhead_vs_reuse` (the schema reserves that field
/// for the observed/budgeted arms); `cargo xtask bench` pairs the two
/// arms' medians itself, gating `union-*` instances for speedup and
/// everything else (the connected ring) for fast-path overhead.
fn measure_sharded_cell(name: &str, g: &Graph, threads: usize, runs: usize) -> Vec<Record> {
    const ARMS: [&str; 2] = ["reuse", "sharded"];
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); ARMS.len()];
    let mut lasts: Vec<Option<(DetectionResult, PhaseTimes)>> = vec![None, None];
    let mut allocations: Vec<Option<u64>> = vec![None; ARMS.len()];
    for round in 0..runs {
        let order: [usize; 2] = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            let (secs, allocs, outcome) = run_once_sharded(g, threads, ARMS[i] == "sharded");
            samples[i].push(secs);
            allocations[i] = allocs;
            lasts[i] = Some(outcome);
        }
    }
    ARMS.iter()
        .enumerate()
        .map(|(i, &arm)| {
            let (result, phases) = lasts[i].take().expect("runs >= 1");
            Record {
                instance: name.into(),
                input_edges: g.num_edges(),
                threads,
                arm,
                end_to_end: RunStats::new(std::mem::take(&mut samples[i])),
                score_secs: phases.score,
                match_secs: phases.matching,
                contract_secs: phases.contract,
                levels: result.levels.len(),
                modularity: result.modularity,
                peak_rss_bytes: peak_rss_bytes(),
                allocations: allocations[i],
                overhead_vs_reuse: None,
            }
        })
        .collect()
}

/// One timed run of the sharding pair. The sharded arm goes through
/// [`try_detect_sharded_observed`] — decompose, per-component warm
/// engines, deterministic merge — with one [`PhaseTimes`] observer per
/// component whose phase sums are added together, so its per-kernel
/// columns stay comparable to the plain arm's single observer.
fn run_once_sharded(
    g: &Graph,
    threads: usize,
    sharded: bool,
) -> (f64, Option<u64>, (DetectionResult, PhaseTimes)) {
    let graph = g.clone();
    let cfg = Config::default().with_sharding(sharded);
    let before = alloc_count();
    let timer = Timer::start();
    let outcome = with_threads(threads, move || {
        if sharded {
            let (result, observers) = try_detect_sharded_observed(graph, &cfg, PhaseTimes::default)
                .expect("bench instance detects cleanly");
            let mut phases = PhaseTimes::default();
            for o in observers {
                phases.score += o.score;
                phases.matching += o.matching;
                phases.contract += o.contract;
            }
            (result, phases)
        } else {
            let mut phases = PhaseTimes::default();
            let result = Detector::new(cfg)
                .expect("default config is valid")
                .run_observed(graph, &mut phases)
                .expect("bench instance detects cleanly");
            (result, phases)
        }
    });
    let secs = timer.elapsed_secs();
    let allocs = alloc_count().zip(before).map(|(a, b)| a - b);
    (secs, allocs, outcome)
}

/// One timed end-to-end detection; the graph clone happens outside the
/// timed region, the engine build inside it (both arms pay it equally).
/// The recorder is also constructed outside the timer: a recorder is
/// one-time setup that outlives many runs in real use (the CLI holds one
/// per process), so the observed arm times exactly the steady-state
/// recording cost — every span push, counter bump, and histogram
/// observation — not the arena allocation.
/// `budgeted` attaches an armed but non-binding budget (hour deadline,
/// `usize::MAX` caps, a shared cancel token nobody cancels), so the arm
/// times the sentinel's phase-boundary checks with every limit live.
fn run_once(
    g: &Graph,
    threads: usize,
    observed: bool,
    budgeted: bool,
) -> (
    f64,
    Option<u64>,
    (DetectionResult, PhaseTimes, Option<Registry>),
) {
    let graph = g.clone();
    let mut cfg = Config::default();
    if budgeted {
        cfg = cfg.with_budget(
            Budget::unarmed()
                .with_deadline(std::time::Duration::from_secs(3600))
                .with_max_levels(usize::MAX)
                .with_max_scratch_bytes(usize::MAX)
                .with_cancel_token(CancelToken::new()),
        );
    }
    let tracer = observed.then(TraceObserver::new);
    let before = alloc_count();
    let timer = Timer::start();
    let outcome = with_threads(threads, move || {
        let mut engine = Detector::new(cfg).expect("default config is valid");
        let mut phases = PhaseTimes::default();
        if let Some(mut tracer) = tracer {
            let result = engine
                .run_observed(graph, &mut Tee::new(&mut phases, &mut tracer))
                .expect("bench instance detects cleanly");
            (result, phases, Some(tracer.into_registry()))
        } else {
            let result = engine
                .run_observed(graph, &mut phases)
                .expect("bench instance detects cleanly");
            (result, phases, None)
        }
    });
    let secs = timer.elapsed_secs();
    let allocs = alloc_count().zip(before).map(|(a, b)| a - b);
    (secs, allocs, outcome)
}

/// One batched cell: all graphs detected under one `with_threads` pool.
/// `warm` routes through [`detect_many`] (per-worker engines, arenas
/// reused across graphs); cold builds a fresh engine per graph with the
/// same parallel structure, so the only difference is arena reuse.
fn measure_batch(
    name: &str,
    graphs: &[Graph],
    threads: usize,
    arm: &'static str,
    warm: bool,
    runs: usize,
) -> Record {
    let cfg = Config::default();
    let mut samples = Vec::with_capacity(runs);
    let mut last: Option<Vec<DetectionResult>> = None;
    let mut allocations = None;
    for _ in 0..runs {
        let batch: Vec<Graph> = graphs.to_vec();
        let cfg = cfg.clone();
        let before = alloc_count();
        let timer = Timer::start();
        let results = with_threads(threads, move || {
            if warm {
                detect_many(batch, &cfg).expect("bench batch detects cleanly")
            } else {
                batch
                    .into_par_iter()
                    .with_min_len(1)
                    .map(|g| {
                        Detector::new(cfg.clone())
                            .expect("default config is valid")
                            .run(g)
                            .expect("bench batch detects cleanly")
                    })
                    .collect()
            }
        });
        samples.push(timer.elapsed_secs());
        allocations = alloc_count().zip(before).map(|(a, b)| a - b);
        last = Some(results);
    }
    let results = last.expect("runs >= 1");
    Record {
        instance: name.into(),
        input_edges: graphs.iter().map(Graph::num_edges).sum(),
        threads,
        arm,
        end_to_end: RunStats::new(samples),
        score_secs: sum_levels(&results, |l| l.score_secs),
        match_secs: sum_levels(&results, |l| l.match_secs),
        contract_secs: sum_levels(&results, |l| l.contract_secs),
        levels: results.iter().map(|r| r.levels.len()).sum(),
        modularity: results.iter().map(|r| r.modularity).sum::<f64>() / results.len() as f64,
        peak_rss_bytes: peak_rss_bytes(),
        allocations,
        overhead_vs_reuse: None,
    }
}

fn sum_levels(results: &[DetectionResult], f: impl Fn(&pcd_core::LevelStats) -> f64) -> f64 {
    results.iter().flat_map(|r| r.levels.iter()).map(f).sum()
}

/// Heap allocation count so far, when the counting allocator is installed.
fn alloc_count() -> Option<u64> {
    #[cfg(feature = "alloc-stats")]
    {
        Some(pcd_util::alloc_stats::snapshot().allocations)
    }
    #[cfg(not(feature = "alloc-stats"))]
    {
        None
    }
}

/// Peak resident set size from `/proc/self/status` (`VmHWM`, kibibytes).
/// Process-global high-water mark: later cells can only report values at
/// least as large as earlier ones, so cross-cell RSS comparisons within
/// one report are upper bounds, not deltas.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn render(
    args: &Args,
    instances: &[(String, usize, usize)],
    records: &[Record],
    quality: &[QualityCell],
) -> String {
    let created = unix_now();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"parcomm-bench-v3\",");
    let _ = writeln!(s, "  \"label\": {},", json_str(&args.label));
    let _ = writeln!(s, "  \"created_unix\": {created},");
    let _ = writeln!(s, "  \"smoke\": {},", args.smoke);
    s.push_str("  \"host\": {\n");
    let _ = writeln!(
        s,
        "    \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // The default worker count the cells' `with_threads` scopes fall
    // back to; together with available_parallelism this pins down the thread
    // environment, so `cargo xtask bench` can refuse to silently compare
    // reports taken at different widths.
    let _ = writeln!(
        s,
        "    \"rayon_threads\": {},",
        pcd_util::par::current_num_threads()
    );
    // The width main() asked pin_global for (the widest --threads entry);
    // when it matches rayon_threads the pin took, otherwise an earlier
    // pin won.
    let _ = writeln!(
        s,
        "    \"pinned_threads\": {},",
        args.threads.iter().copied().max().unwrap_or(0)
    );
    let _ = writeln!(s, "    \"alloc_stats\": {}", cfg!(feature = "alloc-stats"));
    s.push_str("  },\n");
    s.push_str("  \"instances\": [\n");
    for (i, (name, vertices, edges)) in instances.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": {}, \"vertices\": {vertices}, \"edges\": {edges}}}",
            json_str(name)
        );
        s.push_str(if i + 1 < instances.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"instance\": {},", json_str(&r.instance));
        let _ = writeln!(s, "      \"threads\": {},", r.threads);
        let _ = writeln!(s, "      \"arm\": {},", json_str(r.arm));
        let _ = writeln!(s, "      \"runs\": {},", r.end_to_end.samples.len());
        let _ = writeln!(
            s,
            "      \"end_to_end_secs\": {{\"min\": {}, \"median\": {}, \"max\": {}}},",
            json_f64(r.end_to_end.min()),
            json_f64(r.end_to_end.median()),
            json_f64(r.end_to_end.max())
        );
        let _ = writeln!(s, "      \"score_secs\": {},", json_f64(r.score_secs));
        let _ = writeln!(s, "      \"match_secs\": {},", json_f64(r.match_secs));
        let _ = writeln!(s, "      \"contract_secs\": {},", json_f64(r.contract_secs));
        let _ = writeln!(s, "      \"levels\": {},", r.levels);
        let _ = writeln!(s, "      \"modularity\": {},", json_f64(r.modularity));
        let _ = writeln!(
            s,
            "      \"input_edges_per_sec\": {},",
            json_f64(r.input_edges as f64 / r.end_to_end.min())
        );
        let _ = writeln!(
            s,
            "      \"peak_rss_bytes\": {},",
            json_opt(r.peak_rss_bytes)
        );
        let _ = writeln!(s, "      \"allocations\": {},", json_opt(r.allocations));
        let _ = writeln!(
            s,
            "      \"overhead_vs_reuse\": {}",
            r.overhead_vs_reuse.map_or("null".into(), json_f64)
        );
        s.push_str("    }");
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"quality\": [\n");
    for (i, c) in quality.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"instance\": {},", json_str(&c.instance));
        let _ = writeln!(s, "      \"backend\": {},", json_str(c.backend));
        let _ = writeln!(s, "      \"modularity\": {},", json_f64(c.modularity));
        let _ = writeln!(s, "      \"coverage\": {},", json_f64(c.coverage));
        let _ = writeln!(
            s,
            "      \"nmi\": {},",
            c.nmi.map_or("null".into(), json_f64)
        );
        let _ = writeln!(
            s,
            "      \"reference_modularity\": {}",
            json_f64(c.reference_modularity)
        );
        s.push_str("    }");
        s.push_str(if i + 1 < quality.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// JSON string literal (the harness only emits ASCII names, but escape
/// defensively anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats only: JSON has no NaN/Inf, map them to null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |n| n.to_string())
}

//! WCC-sharded detection: decompose → per-component warm engines →
//! deterministic merge (DESIGN.md §16).
//!
//! Social graphs are disconnected, and the agglomerative level loop
//! synchronizes every component at every phase barrier. This module
//! decomposes the input into its weakly connected components
//! ([`pcd_graph::subgraph::split_components`]), detects each component
//! independently (largest component first; big components one at a time
//! with parallel levels, small ones side by side with one warm
//! [`Detector`] per task, each run panic-isolated by
//! [`Detector::run_observed`]), and recombines the per-component results
//! into one [`DetectionResult`] indexed by original vertex ids.
//!
//! Every merge decision is **input-order-deterministic**: components are
//! ordered by their canonical representative (the smallest original vertex
//! id — the [`pcd_graph::components::components`] contract), community ids
//! are offset by prefix sums of per-component community counts in that
//! order, and observers/registries are folded in the same order. Nothing
//! depends on the pool size or the completion schedule.
//!
//! [`crate::try_detect`] routes here when [`Config::sharding`] is on; a
//! single-component graph then takes the exact unsharded path through one
//! [`Detector`].

use crate::config::Config;
use crate::engine::{run_each, Detector};
use crate::observer::{LevelObserver, NoopObserver};
use crate::result::{DetectionResult, LevelStats, StopReason, Termination};
use pcd_contract::ContractSteps;
use pcd_graph::components::components;
use pcd_graph::subgraph::{split_by_labels, ComponentPart};
use pcd_graph::{builder, Graph};
use pcd_util::par::prelude::*;
use pcd_util::timing::Timer;
use pcd_util::{PcdError, VertexId};

/// Per-component record from [`detect_sharded_outcomes`]: the component's
/// own detection result (or the structured error that felled it) plus the
/// map back to original vertex ids.
#[derive(Debug)]
pub struct ComponentOutcome {
    /// `old_of_new[new] = old` original vertex id, strictly ascending; the
    /// first entry is the component's canonical representative.
    pub old_of_new: Vec<VertexId>,
    /// The component's detection result in component-local dense ids, or
    /// the error (budget breach under strict mode, paranoia trip, poisoned
    /// engine) that stopped it. Other components are unaffected.
    pub outcome: Result<DetectionResult, PcdError>,
}

impl ComponentOutcome {
    /// The component's canonical representative: its smallest original
    /// vertex id.
    pub fn representative(&self) -> VertexId {
        self.old_of_new[0]
    }

    /// Number of vertices in the component.
    pub fn vertices(&self) -> usize {
        self.old_of_new.len()
    }
}

/// Runs WCC-sharded community detection over `graph` under `config`,
/// regardless of [`Config::sharding`] (calling this *is* the opt-in).
///
/// Validates the configuration up front and returns the first failing
/// component's error *in component order* (a deterministic choice), or
/// the merged result when every component completes. See
/// [`detect_sharded_outcomes`] to keep the survivors of a partial failure.
pub fn try_detect_sharded(graph: Graph, config: &Config) -> Result<DetectionResult, PcdError> {
    let (result, _observers) = try_detect_sharded_observed(graph, config, || NoopObserver)?;
    Ok(result)
}

/// As [`try_detect_sharded`], firing one observer (from `make_observer`)
/// per engine-run component, returned in component order so recorders can
/// be folded deterministically (the pool size never shows). Trivial
/// components (a single vertex with no weight) are synthesized without an
/// engine run and contribute no observer. On error the partial recordings
/// are discarded.
pub fn try_detect_sharded_observed<O, F>(
    graph: Graph,
    config: &Config,
    make_observer: F,
) -> Result<(DetectionResult, Vec<O>), PcdError>
where
    O: LevelObserver + Send,
    F: Fn() -> O + Sync,
{
    let mut engine = Detector::new(config.clone())?;
    let t_total = Timer::start();
    let (nv, ne) = (graph.num_vertices(), graph.num_edges());
    let label = components(&graph);
    let num_components = (0..nv)
        .into_par_iter()
        .filter(|&v| label[v] == v as VertexId)
        .count();
    if num_components <= 1 {
        // Exact pre-refactor path: one engine over the whole graph, no
        // split, no merge — the decompose pass above is the only cost.
        let mut observer = make_observer();
        let result = engine.run_observed(graph, &mut observer)?;
        return Ok((result, vec![observer]));
    }
    let split = split_by_labels(&graph, &label);
    drop(graph); // the parts own their storage now; release the parent
    let ran = run_components(split.parts, engine, &make_observer);

    let mut maps = Vec::with_capacity(ran.len());
    let mut results = Vec::with_capacity(ran.len());
    let mut observers = Vec::new();
    for (old_of_new, outcome, observer) in ran {
        if let Some(o) = observer {
            observers.push(o);
        }
        maps.push(old_of_new);
        results.push(outcome?);
    }
    let mut merged = merge_results(nv, ne, &maps, &results, config.record_levels);
    merged.total_secs = t_total.elapsed_secs();
    Ok((merged, observers))
}

/// Decomposes `graph` and detects every component with panic isolation,
/// returning each component's outcome — success or error — individually
/// in component order. One poisoned component never sinks the rest: the
/// survivors' results are bit-identical to solo runs on the extracted
/// components.
pub fn detect_sharded_outcomes(
    graph: Graph,
    config: &Config,
) -> Result<Vec<ComponentOutcome>, PcdError> {
    let engine = Detector::new(config.clone())?;
    let label = components(&graph);
    let split = split_by_labels(&graph, &label);
    drop(graph);
    Ok(run_components(split.parts, engine, &|| NoopObserver)
        .into_iter()
        .map(|(old_of_new, outcome, _)| ComponentOutcome {
            old_of_new,
            outcome,
        })
        .collect())
}

/// One part's `(old_of_new, outcome, observer)`.
type ComponentRun<O> = (Vec<VertexId>, Result<DetectionResult, PcdError>, Option<O>);

/// Detect stage: runs every part largest component first (classic LPT
/// scheduling — the longest-running shard starts earliest, minimizing the
/// tail), panic-isolated per component: big components one at a time with
/// parallel levels on `engine`, then the small ones side by side through
/// the batch loop (one warm copy of `engine` per task). `engine` is
/// dropped on return, before the merge allocates. Trivial components (one
/// vertex, zero weight) are synthesized without touching an engine when no
/// budget is armed (an armed budget can breach even a trivial run — e.g.
/// `max_levels: 0` or an expired deadline — so those go through the
/// engine for bit-faithful termination reporting).
///
/// Returns `(old_of_new, outcome, observer)` per part, in component
/// order; synthesized parts carry no observer.
fn run_components<O, F>(
    parts: Vec<ComponentPart>,
    mut engine: Detector,
    make_observer: &F,
) -> Vec<ComponentRun<O>>
where
    O: LevelObserver + Send,
    F: Fn() -> O + Sync,
{
    let may_synthesize = !engine.config().budget.is_armed();
    let mut maps = Vec::with_capacity(parts.len());
    let mut slots: Vec<Option<Graph>> = Vec::with_capacity(parts.len());
    let mut schedule: Vec<(usize, usize)> = Vec::new(); // (work estimate, part index)
    for (i, part) in parts.into_iter().enumerate() {
        let trivial =
            may_synthesize && part.graph.num_vertices() == 1 && part.graph.total_weight() == 0;
        if !trivial {
            schedule.push((part.graph.num_vertices() + part.graph.num_edges(), i));
        }
        maps.push(part.old_of_new);
        slots.push(Some(part.graph));
    }
    schedule.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    // Components big enough for the engine's own loops to go parallel
    // (at least one fork-join grain of work) run one at a time on a single
    // warm engine, each using every worker inside its levels; only the
    // small rest run side by side, one engine per task. Running big
    // components concurrently would hold several big-component scratch
    // arenas at once for no gain in parallelism.
    let n_large = schedule.partition_point(|&(work, _)| work >= pcd_util::par::GRAIN);
    let mut work = schedule.iter().map(|&(_, i)| {
        // analyze: allow(panic, reason = "non-trivial slots were filled two loops above and taken exactly once")
        (i, slots[i].take().expect("slot filled above"))
    });
    let mut ran: Vec<(usize, Result<DetectionResult, PcdError>, O)> = Vec::new();
    for (i, g) in work.by_ref().take(n_large) {
        let mut observer = make_observer();
        let outcome = engine.run_observed(g, &mut observer);
        ran.push((i, outcome, observer));
    }
    let (small_ids, small): (Vec<usize>, Vec<Graph>) = work.unzip();
    ran.extend(
        small_ids
            .into_iter()
            .zip(run_each(&engine, small, make_observer))
            .map(|(i, (outcome, observer))| (i, outcome, observer)),
    );
    // Results come in schedule (size) order; component order is the contract.
    ran.sort_unstable_by_key(|&(i, _, _)| i);

    let mut ran = ran.into_iter().peekable();
    maps.into_iter()
        .enumerate()
        .map(|(i, old_of_new)| {
            if ran.peek().is_some_and(|&(j, _, _)| j == i) {
                // analyze: allow(panic, reason = "peek above proved the next element exists")
                let (_, outcome, observer) = ran.next().expect("peeked");
                (old_of_new, outcome, Some(observer))
            } else {
                // analyze: allow(panic, reason = "trivial slots are exactly those the schedule skipped")
                let g = slots[i].take().expect("trivial slot untouched");
                (old_of_new, Ok(trivial_result(g)), None)
            }
        })
        .collect()
}

/// What one [`Detector`] run produces on a single-vertex, zero-weight
/// graph, synthesized without the engine: the score phase finds no
/// positive pair and exits at level 0 with the singleton partition.
/// `shard::tests::trivial_result_matches_an_engine_run` pins every field
/// against a real run.
fn trivial_result(graph: Graph) -> DetectionResult {
    DetectionResult {
        assignment: vec![0],
        num_communities: 1,
        community_graph: graph,
        community_vertex_counts: vec![1],
        modularity: 0.0,
        coverage: 1.0,
        input_vertices: 1,
        input_edges: 0,
        levels: Vec::new(),
        level_maps: Vec::new(),
        stop_reason: StopReason::LocalMaximum,
        termination: Termination::Converged,
        total_secs: 0.0,
    }
}

/// Merge-precedence rank of a stop reason: a budget breach anywhere wins
/// (the merged partition is best-effort somewhere), then an external
/// criterion, then the natural convergence flavors.
fn stop_rank(s: StopReason) -> u8 {
    match s {
        StopReason::LocalMaximum => 0,
        StopReason::NoMatches => 1,
        StopReason::Criterion => 2,
        StopReason::Budget => 3,
    }
}

/// Merge-severity rank of a termination, extending the engine's
/// precedence (breach > watchdog > converged) with a fixed order among
/// breach flavors so the merged verdict is deterministic.
fn termination_rank(t: Termination) -> u8 {
    match t {
        Termination::Converged => 0,
        Termination::WatchdogDegraded => 1,
        Termination::MaxLevels => 2,
        Termination::MemoryCeiling => 3,
        Termination::Cancelled => 4,
        Termination::Deadline => 5,
    }
}

/// Merge stage: recombines per-component results (component order, with
/// `maps[c]` the component's `old_of_new`) into one [`DetectionResult`]
/// over the original vertex ids. Community ids are offset by prefix sums
/// of per-component community counts, the community graph is the disjoint
/// union, final modularity/coverage are recomputed from it (the engine's
/// own formulas), level stats fold work-sums plus the exact union quality
/// (derivable from per-component `(Q, coverage, weight)` — DESIGN.md
/// §16), and level maps are padded with identity tails so the merged
/// dendrogram chains end to end.
fn merge_results(
    input_vertices: usize,
    input_edges: usize,
    maps: &[Vec<VertexId>],
    results: &[DetectionResult],
    record_levels: bool,
) -> DetectionResult {
    // Community-id offsets: prefix sums in component order.
    let mut community_offset = Vec::with_capacity(results.len());
    let mut num_communities = 0usize;
    for r in results {
        community_offset.push(num_communities);
        num_communities += r.num_communities;
    }

    let mut assignment = vec![0 as VertexId; input_vertices];
    for (c, r) in results.iter().enumerate() {
        let off = community_offset[c] as VertexId;
        for (new, &old) in maps[c].iter().enumerate() {
            assignment[old as usize] = r.assignment[new] + off;
        }
    }

    let community_vertex_counts: Vec<u64> = results
        .iter()
        .flat_map(|r| r.community_vertex_counts.iter().copied())
        .collect();

    // Disjoint union of the per-component community graphs. Components
    // share no edges, so the union is a plain id-offset concatenation.
    let mut union_edges: Vec<(VertexId, VertexId, u64)> = Vec::new();
    for (c, r) in results.iter().enumerate() {
        let off = community_offset[c] as VertexId;
        union_edges.extend(
            r.community_graph
                .edges()
                .map(|(i, j, w)| (i + off, j + off, w)),
        );
        union_edges.extend(
            r.community_graph
                .self_loops()
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0)
                .map(|(v, &w)| (v as VertexId + off, v as VertexId + off, w)),
        );
    }
    let community_graph = builder::from_edges(num_communities, union_edges);
    let modularity = pcd_metrics::community_graph_modularity(&community_graph);
    let coverage = community_graph.coverage();

    let levels = merge_level_stats(results);
    let level_maps = if record_levels {
        merge_level_maps(input_vertices, maps, results)
    } else {
        Vec::new()
    };

    let stop_reason = results
        .iter()
        .map(|r| r.stop_reason)
        .max_by_key(|&s| stop_rank(s))
        .unwrap_or(StopReason::LocalMaximum);
    let termination = results
        .iter()
        .map(|r| r.termination)
        .max_by_key(|&t| termination_rank(t))
        .unwrap_or(Termination::Converged);

    DetectionResult {
        assignment,
        num_communities,
        community_graph,
        community_vertex_counts,
        modularity,
        coverage,
        input_vertices,
        input_edges,
        levels,
        level_maps,
        stop_reason,
        termination,
        // Stamped by the caller once the merge itself has finished.
        total_secs: 0.0,
    }
}

/// Folds per-component [`LevelStats`] rows into merged rows, one per
/// hierarchy depth up to the deepest component. Work fields
/// (vertices/edges/pairs/phase seconds) sum over the components still
/// agglomerating at that depth; `match_rounds` takes the max and
/// `matcher_degraded` the OR. The quality fields are the *exact* union
/// values: with `s_c = W_c / W` the component's weight share, coverage is
/// `Σ s_c·cov_c` and modularity is `Σ s_c·cov_c − s_c²·(cov_c − Q_c)`
/// (in-weight and squared-volume terms rescale independently), where a
/// component converged above this depth contributes its final — frozen —
/// partition's values.
fn merge_level_stats(results: &[DetectionResult]) -> Vec<LevelStats> {
    let depth = results.iter().map(|r| r.levels.len()).max().unwrap_or(0);
    let total_weight: u64 = results
        .iter()
        .map(|r| r.community_graph.total_weight())
        .sum();
    let mut merged = Vec::with_capacity(depth);
    for l in 0..depth {
        let mut row = LevelStats {
            level: l + 1,
            num_vertices: 0,
            num_edges: 0,
            pairs_merged: 0,
            match_rounds: 0,
            matcher_degraded: false,
            modularity: 0.0,
            coverage: 0.0,
            score_secs: 0.0,
            match_secs: 0.0,
            contract_secs: 0.0,
            contract_steps: ContractSteps::default(),
        };
        for r in results {
            if let Some(ls) = r.levels.get(l) {
                row.num_vertices += ls.num_vertices;
                row.num_edges += ls.num_edges;
                row.pairs_merged += ls.pairs_merged;
                row.match_rounds = row.match_rounds.max(ls.match_rounds);
                row.matcher_degraded |= ls.matcher_degraded;
                row.score_secs += ls.score_secs;
                row.match_secs += ls.match_secs;
                row.contract_secs += ls.contract_secs;
                row.contract_steps += ls.contract_steps;
            }
            let w_c = r.community_graph.total_weight();
            if total_weight > 0 && w_c > 0 {
                let (q_c, cov_c) = match r.levels.get(l).or_else(|| r.levels.last()) {
                    Some(ls) => (ls.modularity, ls.coverage),
                    None => (r.modularity, r.coverage),
                };
                let share = w_c as f64 / total_weight as f64;
                row.coverage += share * cov_c;
                row.modularity += share * cov_c - share * share * (cov_c - q_c);
            }
        }
        merged.push(row);
    }
    merged
}

/// Number of vertex ids component `r` has at dendrogram stage `i`: the
/// recorded map's domain while the component is still agglomerating, its
/// final community count once it has converged (the identity-padding
/// tail).
fn stage_size(r: &DetectionResult, i: usize) -> usize {
    r.level_maps.get(i).map_or(r.num_communities, Vec::len)
}

/// Folds per-component dendrogram maps into merged maps over original
/// ids. Stage 0 is indexed by original vertex id; deeper stages are
/// indexed component-blocked (each component's stage-`i` ids shifted by
/// the prefix sum of stage-`i` sizes). Components that converged early
/// are padded with identity maps, so chaining every merged map reproduces
/// the merged assignment — `DetectionResult::assignment_at_level` keeps
/// its contract. The merged chain can be one longer than the merged level
/// count when any component recorded a vertex-following pre-pass map.
fn merge_level_maps(
    input_vertices: usize,
    maps: &[Vec<VertexId>],
    results: &[DetectionResult],
) -> Vec<Vec<VertexId>> {
    let chain_len = results
        .iter()
        .map(|r| r.level_maps.len())
        .max()
        .unwrap_or(0);
    let mut merged = Vec::with_capacity(chain_len);
    for i in 0..chain_len {
        // Offsets into the *next* stage's merged id space.
        let mut next_offset = Vec::with_capacity(results.len());
        let mut acc = 0usize;
        for r in results {
            next_offset.push(acc as VertexId);
            acc += stage_size(r, i + 1);
        }
        let map = if i == 0 {
            // Stage 0 stays indexed by original vertex id.
            let mut map = vec![0 as VertexId; input_vertices];
            for (c, r) in results.iter().enumerate() {
                let off = next_offset[c];
                for (new, &old) in maps[c].iter().enumerate() {
                    let target = r.level_maps.first().map_or(new as VertexId, |m| m[new]);
                    map[old as usize] = target + off;
                }
            }
            map
        } else {
            let mut map = Vec::with_capacity(results.iter().map(|r| stage_size(r, i)).sum());
            for (c, r) in results.iter().enumerate() {
                let off = next_offset[c];
                match r.level_maps.get(i) {
                    Some(m) => map.extend(m.iter().map(|&x| x + off)),
                    None => map.extend((0..stage_size(r, i) as VertexId).map(|x| x + off)),
                }
            }
            map
        };
        merged.push(map);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcd_graph::subgraph::induce;
    use pcd_graph::GraphBuilder;

    /// Two triangles, a weighted edge pair, a self-loop vertex, and an
    /// isolated vertex — five components exercising every merge path.
    fn disconnected_graph() -> Graph {
        GraphBuilder::new(10)
            .add_pairs([(0, 1), (1, 2), (2, 0)])
            .add_edge(4, 5, 3)
            .add_pairs([(6, 7), (7, 8), (8, 6)])
            .add_self_loop(9, 2)
            .add_self_loop(1, 4)
            .build()
        // vertex 3 isolated
    }

    #[test]
    fn trivial_result_matches_an_engine_run() {
        let engine = Detector::new(Config::default())
            .unwrap()
            .run(Graph::empty(1))
            .unwrap();
        let synth = trivial_result(Graph::empty(1));
        assert_eq!(synth.assignment, engine.assignment);
        assert_eq!(synth.num_communities, engine.num_communities);
        assert_eq!(
            synth.community_vertex_counts,
            engine.community_vertex_counts
        );
        assert_eq!(synth.modularity, engine.modularity);
        assert_eq!(synth.coverage, engine.coverage);
        assert_eq!(synth.input_vertices, engine.input_vertices);
        assert_eq!(synth.input_edges, engine.input_edges);
        assert_eq!(synth.levels.len(), engine.levels.len());
        assert_eq!(synth.level_maps, engine.level_maps);
        assert_eq!(synth.stop_reason, engine.stop_reason);
        assert_eq!(synth.termination, engine.termination);
        assert_eq!(
            synth.community_graph.num_vertices(),
            engine.community_graph.num_vertices()
        );
        assert_eq!(
            synth.community_graph.total_weight(),
            engine.community_graph.total_weight()
        );
    }

    #[test]
    fn single_component_takes_the_plain_path() {
        let g = pcd_gen::classic::clique_ring(6, 5);
        let plain = crate::detect(g.clone(), &Config::default());
        let sharded = try_detect_sharded(g, &Config::default()).unwrap();
        assert_eq!(plain.assignment, sharded.assignment);
        assert_eq!(plain.num_communities, sharded.num_communities);
        assert_eq!(plain.modularity, sharded.modularity);
        assert_eq!(plain.coverage, sharded.coverage);
        assert_eq!(plain.levels.len(), sharded.levels.len());
        assert_eq!(plain.stop_reason, sharded.stop_reason);
    }

    #[test]
    fn config_sharding_routes_detect() {
        let g = disconnected_graph();
        let via_flag = crate::detect(g.clone(), &Config::default().with_sharding(true));
        let direct = try_detect_sharded(g.clone(), &Config::default()).unwrap();
        assert_eq!(via_flag.assignment, direct.assignment);
        assert_eq!(via_flag.modularity, direct.modularity);
        // Sharded and unsharded runs normalize scores differently (a
        // component sees its own total weight, not the union's), so the
        // partitions may legitimately differ — but both must be valid and
        // land in the same quality neighbourhood.
        let plain = crate::detect(g, &Config::default());
        let nmi =
            pcd_metrics::normalized_mutual_information(&plain.assignment, &via_flag.assignment);
        assert!(nmi > 0.85, "nmi = {nmi}");
    }

    #[test]
    fn merged_result_is_valid_and_pool_independent() {
        let g = disconnected_graph();
        let cfg = Config::default().with_recorded_levels();
        let r1 = pcd_util::pool::with_threads(1, {
            let g = g.clone();
            let cfg = cfg.clone();
            move || try_detect_sharded(g, &cfg).unwrap()
        });
        let r4 = pcd_util::pool::with_threads(4, {
            let g = g.clone();
            let cfg = cfg.clone();
            move || try_detect_sharded(g, &cfg).unwrap()
        });
        assert_eq!(r1.assignment, r4.assignment);
        assert_eq!(r1.modularity, r4.modularity);
        assert_eq!(r1.level_maps, r4.level_maps);
        assert_eq!(r1.community_vertex_counts, r4.community_vertex_counts);

        // Validity of the merged partition.
        assert_eq!(r1.assignment.len(), g.num_vertices());
        assert_eq!(r1.input_vertices, g.num_vertices());
        assert_eq!(r1.input_edges, g.num_edges());
        assert_eq!(
            r1.community_vertex_counts.iter().sum::<u64>(),
            g.num_vertices() as u64
        );
        for &a in &r1.assignment {
            assert!((a as usize) < r1.num_communities);
        }
        // Merged modularity is the real modularity of the merged
        // assignment on the original graph.
        let q_direct = pcd_metrics::modularity(&g, &r1.assignment);
        assert!(
            (q_direct - r1.modularity).abs() < 1e-9,
            "direct {q_direct} vs merged {}",
            r1.modularity
        );
        // Chaining every merged dendrogram map reproduces the merged
        // assignment.
        let deepest = r1.assignment_at_level(r1.level_maps.len());
        assert_eq!(deepest, r1.assignment);
        let a0 = r1.assignment_at_level(0);
        assert_eq!(a0, (0..g.num_vertices() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn outcomes_match_solo_runs_per_component() {
        let g = disconnected_graph();
        let label = components(&g);
        let cfg = Config::default().with_recorded_levels();
        let outcomes = detect_sharded_outcomes(g.clone(), &cfg).unwrap();
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            let rep = o.representative();
            let keep: Vec<bool> = label.iter().map(|&l| l == rep).collect();
            let ex = induce(&g, &keep);
            assert_eq!(o.old_of_new, ex.old_of_new);
            let solo = crate::try_detect(ex.graph, &cfg).unwrap();
            let r = o.outcome.as_ref().unwrap();
            assert_eq!(r.assignment, solo.assignment, "component {rep}");
            assert_eq!(r.modularity, solo.modularity, "component {rep}");
            assert_eq!(r.level_maps, solo.level_maps, "component {rep}");
            assert_eq!(r.num_communities, solo.num_communities);
        }
    }

    #[test]
    fn merged_level_quality_is_exact() {
        // Union of two clique rings with different sizes: deep hierarchies
        // of different depths, so the frozen-component branch is hit.
        let a = pcd_gen::classic::clique_ring(8, 6);
        let b = pcd_gen::classic::clique_ring(4, 4);
        let na = a.num_vertices();
        let mut edges: Vec<(VertexId, VertexId, u64)> = a.edges().collect();
        edges.extend(
            b.edges()
                .map(|(i, j, w)| (i + na as VertexId, j + na as VertexId, w)),
        );
        let g = builder::from_edges(na + b.num_vertices(), edges);
        let cfg = Config::default().with_recorded_levels();
        let r = try_detect_sharded(g.clone(), &cfg).unwrap();
        // Every merged level's quality must equal the true quality of the
        // partition recorded at that depth.
        for (l, row) in r.levels.iter().enumerate() {
            let at = r.assignment_at_level((l + 1).min(r.level_maps.len()));
            let q = pcd_metrics::modularity(&g, &at);
            assert!(
                (q - row.modularity).abs() < 1e-9,
                "level {}: true {q} vs merged {}",
                l + 1,
                row.modularity
            );
        }
        let q_final = pcd_metrics::modularity(&g, &r.assignment);
        assert!((q_final - r.modularity).abs() < 1e-9);
    }

    #[test]
    fn strict_budget_error_is_component_deterministic() {
        use crate::budget::Budget;
        let g = disconnected_graph();
        let cfg = Config::default().with_budget(Budget::unarmed().with_max_levels(0).strict());
        let err = try_detect_sharded(g, &cfg).unwrap_err();
        assert!(err.to_string().contains("level"), "{err}");
    }

    #[test]
    fn zero_weight_graph_shards_to_singletons() {
        let g = Graph::empty(4);
        let r = try_detect_sharded(g, &Config::default()).unwrap();
        assert_eq!(r.num_communities, 4);
        assert_eq!(r.assignment, vec![0, 1, 2, 3]);
        assert_eq!(r.modularity, 0.0);
        assert_eq!(r.coverage, 1.0);
        assert_eq!(r.stop_reason, StopReason::LocalMaximum);
        assert_eq!(r.termination, Termination::Converged);
        assert!(r.levels.is_empty());
    }
}

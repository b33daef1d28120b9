//! `parcomm` — command-line community detection.
//!
//! Run `parcomm --help` for the full usage text (mirrored in [`USAGE`]).
//! Files ending in `.bin` use the compact binary format; anything else is
//! a whitespace edge list. All input is treated as untrusted: malformed
//! files, out-of-range ids and bad flags produce structured errors, never
//! panics.

#![deny(unsafe_op_in_unsafe_fn)]

use parcomm::core::refine::refine_detected;
use parcomm::core::result::LevelStats;
use parcomm::core::{kernel, DetectionResult, Paranoia, Tee};
use parcomm::prelude::*;
use parcomm::trace::TraceObserver;
use parcomm::util::PcdError;
use parcomm::util::Phase;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: parcomm <command> [options]
       parcomm --list-kernels [--json]   enumerate registered kernel backends

commands:
  gen <rmat|sbm|planted|web|lfr|clique-ring|karate> [options] -o <file>
                                generate a graph
  detect <graph-file> [options] run community detection
  stats <graph-file>            structural statistics
  convert <in-file> <out-file>  convert between edge-list and .bin
  compare <graph-file>          vs CNM / Louvain / label propagation
  seed <graph-file> <vertex>    Andersen-Lang seed-set expansion
  communities <graph-file>      per-community report

gen options:
  --scale N        R-MAT scale (rmat; default 14)
  --vertices N     vertex count (sbm / planted / web / lfr)
  --communities K  planted community count (planted; default 16)
  --truth FILE     also write the planted ground-truth labels (planted)
  --cliques K --size S   ring of K cliques of S vertices (clique-ring)
  --mixing F       LFR mixing parameter (default 0.2)
  --seed N         RNG seed (default 42)
  -o, --out FILE   output path (required)

detect options:
  --scorer modularity|conductance|heavy
  --matcher NAME   matching kernel (see --list-kernels; default unmatched-list)
  --contractor NAME  contraction kernel (see --list-kernels; default bucket)
  --sharded        detect each connected component independently (warm
                   engines across the pool) and merge deterministically;
                   incompatible with --trace (no value)
  --vertex-following merge degree-1 vertices into their sole neighbor
                   before level 1 (no value)
  --coverage F     stop at coverage >= F (paper rule: 0.5)
  --max-levels N   budget: stop after N contraction levels
  --deadline-ms N  budget: wall-clock deadline; on expiry the best-effort
                   partition from completed levels is returned
  --strict-budget  treat a budget breach as an error (exit code 3) instead
                   of returning the best-effort partition (no value)
  --max-size N     mask merges creating communities above N vertices
  --refine N       run N refinement sweeps afterwards
  --threads N      worker threads (0 = default: all cores)
  --paranoia off|cheap|full   runtime invariant guards (default off)
  --max-match-rounds N        matcher watchdog cap (default 4*ceil(log2 nv)+64)
  --progress       print per-level phase progress to stderr (no value)
  --assignments FILE   write \"vertex community\" lines
  --metrics FILE   write run metrics; .prom = Prometheus text exposition,
                   anything else = parcomm-metrics-v1 JSON
  --trace FILE     write the span trace (parcomm-trace-v1 JSON)

seed options:
  --max-size N     expansion budget (default 1000)

communities options:
  --top N          how many largest communities to print (default 20)

common options:
  --threads N      worker threads for the command's parallel work
                   (gen, detect, stats, compare, communities; 0 = default)

Files ending in .bin use the compact binary format; anything else is a
whitespace edge list.

exit codes:
  0  success (including best-effort partitions under a non-strict budget)
  1  internal error (invariant violation, poisoned engine)
  2  invalid input or usage (bad flags, unreadable or corrupt graphs)
  3  budget exceeded under --strict-budget";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h")
        || args.first().map(String::as_str) == Some("help")
    {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("--list-kernels") {
        // Strict parse: the only argument accepted after the flag is an
        // optional `--json`; anything else is a usage error (exit 2), so
        // scripts never silently get the human format they didn't ask for.
        return match &args[1..] {
            [] => {
                print_kernels();
                ExitCode::SUCCESS
            }
            [flag] if flag == "--json" => {
                print_kernels_json();
                ExitCode::SUCCESS
            }
            rest => {
                eprintln!(
                    "error: --list-kernels takes at most `--json`, got '{}'",
                    rest.join(" ")
                );
                eprintln!("run parcomm --help for usage");
                ExitCode::from(2)
            }
        };
    }
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "detect" => cmd_detect(rest),
        "stats" => cmd_stats(rest),
        "convert" => cmd_convert(rest),
        "compare" => cmd_compare(rest),
        "seed" => cmd_seed(rest),
        "communities" => cmd_communities(rest),
        other => Err(PcdError::usage(format!(
            "unknown command '{other}' (run parcomm --help)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, PcdError::Usage { .. }) {
                eprintln!("run parcomm --help for usage");
            }
            exit_code_for(&e)
        }
    }
}

/// The CLI's exit-code contract (documented in `USAGE`): 2 for anything the
/// caller can fix (bad flags, unreadable or corrupt inputs), 3 for a strict
/// budget breach, 1 for genuine internal failures. Classification looks at
/// the root cause so a `Context`-wrapped parse error still exits 2.
fn exit_code_for(e: &PcdError) -> ExitCode {
    match e.root() {
        PcdError::Usage { .. }
        | PcdError::Parse { .. }
        | PcdError::Corrupt { .. }
        | PcdError::Config { .. }
        | PcdError::Io(_) => ExitCode::from(2),
        PcdError::BudgetExceeded { .. } => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    }
}

/// Enumerates the kernel registry (`parcomm --list-kernels`): one line per
/// backend, grouped by phase, names matching the `detect` flag spellings.
fn print_kernels() {
    println!("scorers (--scorer):");
    for s in kernel::SCORERS {
        println!("  {:<18} {}", s.name(), s.description());
    }
    println!("matchers:");
    for m in kernel::MATCHERS {
        println!("  {:<18} {}", m.name(), m.description());
    }
    println!("contractors:");
    for c in kernel::CONTRACTORS {
        println!("  {:<18} {}", c.name(), c.description());
    }
}

/// `parcomm --list-kernels --json`: the same inventory as a single JSON
/// object `{"scorers": [{"name", "description"}, ...], "matchers": ...,
/// "contractors": ...}`, for scripts (the CI quality-smoke job iterates
/// the matcher list). Registry names and descriptions are static ASCII
/// without quotes or backslashes — asserted here so the hand-rolled
/// serialization stays honest.
fn print_kernels_json() {
    fn arr(out: &mut String, key: &str, entries: &[(&str, &str)]) {
        out.push_str(&format!("  \"{key}\": [\n"));
        for (i, (name, desc)) in entries.iter().enumerate() {
            for s in [name, desc] {
                assert!(
                    !s.contains(['"', '\\']) && s.is_ascii(),
                    "kernel registry strings must be plain ASCII"
                );
            }
            let comma = if i + 1 == entries.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"description\": \"{desc}\"}}{comma}\n"
            ));
        }
        out.push_str("  ]");
    }
    let mut out = String::from("{\n");
    let scorers: Vec<(&str, &str)> = kernel::SCORERS
        .iter()
        .map(|s| (s.name(), s.description()))
        .collect();
    let matchers: Vec<(&str, &str)> = kernel::MATCHERS
        .iter()
        .map(|m| (m.name(), m.description()))
        .collect();
    let contractors: Vec<(&str, &str)> = kernel::CONTRACTORS
        .iter()
        .map(|c| (c.name(), c.description()))
        .collect();
    arr(&mut out, "scorers", &scorers);
    out.push_str(",\n");
    arr(&mut out, "matchers", &matchers);
    out.push_str(",\n");
    arr(&mut out, "contractors", &contractors);
    out.push_str("\n}");
    println!("{out}");
}

/// Flags that take no value (presence-only switches). Everything else in
/// this CLI takes exactly one value.
const BOOL_FLAGS: &[&str] = &[
    "--progress",
    "--strict-budget",
    "--vertex-following",
    "--sharded",
];

struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    /// Rejects any `--flag` (or `-x` shorthand) not in `allowed`, so a
    /// typo like `--converage 0.5` fails loudly instead of being silently
    /// ignored (and then treated as two positionals). Every flag outside
    /// [`BOOL_FLAGS`] takes a value, so a flag with nothing after it is
    /// also an error.
    fn check_allowed(&self, cmd: &str, allowed: &[&str]) -> Result<(), PcdError> {
        let mut i = 0;
        while i < self.0.len() {
            let a = &self.0[i];
            if a.starts_with("--") || a == "-o" {
                if !allowed.contains(&a.as_str()) {
                    return Err(PcdError::usage(format!(
                        "{cmd}: unknown flag '{a}' (allowed: {})",
                        if allowed.is_empty() {
                            "none".to_string()
                        } else {
                            allowed.join(", ")
                        }
                    )));
                }
                if BOOL_FLAGS.contains(&a.as_str()) {
                    i += 1;
                    continue;
                }
                if i + 1 >= self.0.len() {
                    return Err(PcdError::usage(format!("{cmd}: {a} requires a value")));
                }
                i += 2;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// True if the presence-only flag `name` (a [`BOOL_FLAGS`] member) was
    /// given.
    fn has(&self, name: &str) -> bool {
        debug_assert!(BOOL_FLAGS.contains(&name));
        self.0.iter().any(|a| a == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    /// A flag's value parsed into `T`, or `default` when absent. A flag at
    /// the end of the line with no value, or an unparsable value, is a
    /// usage error.
    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, PcdError> {
        if self.0.iter().any(|a| a == name) && self.get(name).is_none() {
            return Err(PcdError::usage(format!("{name} requires a value")));
        }
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| PcdError::usage(format!("bad value for {name}: '{v}'"))),
        }
    }

    fn positional(&self, idx: usize) -> Option<&str> {
        // Positionals are arguments not consumed as a flag or flag value.
        let mut skip_next = false;
        let mut seen = 0;
        for a in self.0 {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a.starts_with("--") || a == "-o" {
                skip_next = !BOOL_FLAGS.contains(&a.as_str());
                continue;
            }
            if seen == idx {
                return Some(a);
            }
            seen += 1;
        }
        None
    }
}

fn usage(msg: impl Into<String>) -> PcdError {
    PcdError::usage(msg)
}

/// Runs `f` with every parallel loop using `threads` workers, or the
/// default (all cores) when `threads` is 0 — the `--threads` contract
/// shared by every parallel subcommand.
fn with_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    if threads > 0 {
        parcomm::util::pool::with_threads(threads, f)
    } else {
        f()
    }
}

fn cmd_gen(args: &[String]) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed(
        "gen",
        &[
            "-o",
            "--out",
            "--seed",
            "--scale",
            "--vertices",
            "--cliques",
            "--size",
            "--mixing",
            "--communities",
            "--truth",
            "--threads",
        ],
    )?;
    let kind = f
        .positional(0)
        .ok_or_else(|| usage("gen: missing kind"))?
        .to_string();
    let out: PathBuf = f
        .get("-o")
        .or(f.get("--out"))
        .ok_or_else(|| usage("gen: missing -o <file>"))?
        .into();
    let seed: u64 = f.parse("--seed", 42)?;
    let threads: usize = f.parse("--threads", 0)?;
    let f = &f;
    type GenOut = (Graph, Option<Vec<u32>>);
    let (graph, truth) = with_pool(threads, move || -> Result<GenOut, PcdError> {
        Ok(match kind.as_str() {
            "rmat" => {
                let scale: u32 = f.parse("--scale", 14)?;
                (
                    parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(scale, seed)),
                    None,
                )
            }
            "sbm" => {
                let n: usize = f.parse("--vertices", 100_000)?;
                (
                    parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(n, seed))
                        .graph,
                    None,
                )
            }
            "planted" => {
                let n: usize = f.parse("--vertices", 1_024)?;
                let k: usize = f.parse("--communities", 16)?;
                if k == 0 || n < 2 * k {
                    return Err(usage(format!(
                        "planted: need --communities >= 1 and --vertices >= 2*communities \
                         (got {n} vertices, {k} communities)"
                    )));
                }
                let s = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::planted_partition(
                    n, k, seed,
                ));
                (s.graph, Some(s.ground_truth))
            }
            "web" => {
                let n: usize = f.parse("--vertices", 100_000)?;
                (
                    parcomm::gen::web_graph(&parcomm::gen::WebParams::uk_like(n, seed)).graph,
                    None,
                )
            }
            "clique-ring" => {
                let k: usize = f.parse("--cliques", 8)?;
                let s: usize = f.parse("--size", 8)?;
                (parcomm::gen::classic::clique_ring(k, s), None)
            }
            "karate" => (parcomm::gen::classic::karate_club(), None),
            "lfr" => {
                let n: usize = f.parse("--vertices", 10_000)?;
                let mu: f64 = f.parse("--mixing", 0.2)?;
                (
                    parcomm::gen::lfr_graph(&parcomm::gen::LfrParams::benchmark(n, mu, seed)).graph,
                    None,
                )
            }
            other => return Err(usage(format!("gen: unknown kind '{other}'"))),
        })
    })?;
    if let Some(path) = f.get("--truth") {
        let labels = truth.ok_or_else(|| usage("--truth is only meaningful for gen planted"))?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (v, &c) in labels.iter().enumerate() {
            writeln!(w, "{v} {c}")?;
        }
        println!("truth:        {path}");
    }
    parcomm::graph::io::save(&graph, &out).map_err(PcdError::from)?;
    println!(
        "wrote {} ({} vertices, {} edges)",
        out.display(),
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

fn load(path: &str) -> Result<Graph, PcdError> {
    parcomm::graph::io::load(std::path::Path::new(path)).map_err(|e| e.context(path))
}

/// `--progress` observer: one block per level on stderr, fed by the
/// engine's phase-boundary hooks (outside the phase timers, so printing
/// never perturbs the recorded timings).
struct Progress;

impl LevelObserver for Progress {
    fn on_level_start(&mut self, level: usize, num_vertices: usize, num_edges: usize) {
        eprintln!("level {level}: {num_vertices} communities, {num_edges} edges");
    }
    fn on_phase_end(&mut self, _level: usize, phase: Phase, secs: f64) {
        eprintln!("  {phase}: {secs:.3}s");
    }
    fn on_level_end(&mut self, stats: &LevelStats) {
        eprintln!(
            "  -> {} communities, Q {:.4}, coverage {:.3}{}",
            stats.num_vertices - stats.pairs_merged,
            stats.modularity,
            stats.coverage,
            if stats.matcher_degraded {
                " (matcher degraded)"
            } else {
                ""
            }
        );
    }
}

fn cmd_detect(args: &[String]) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed(
        "detect",
        &[
            "--scorer",
            "--matcher",
            "--contractor",
            "--sharded",
            "--vertex-following",
            "--coverage",
            "--max-levels",
            "--deadline-ms",
            "--strict-budget",
            "--max-size",
            "--refine",
            "--threads",
            "--paranoia",
            "--max-match-rounds",
            "--progress",
            "--assignments",
            "--metrics",
            "--trace",
        ],
    )?;
    let path = f
        .positional(0)
        .ok_or_else(|| usage("detect: missing graph file"))?;
    let g = load(path)?;

    let mut config = Config::default();
    match f.get("--scorer").unwrap_or("modularity") {
        "modularity" => {}
        "conductance" => config = config.with_scorer(ScorerKind::Conductance),
        "heavy" => config = config.with_scorer(ScorerKind::HeavyEdge),
        other => return Err(usage(format!("unknown scorer '{other}'"))),
    }
    if let Some(name) = f.get("--matcher") {
        let m = kernel::matcher_by_name(name).ok_or_else(|| {
            let known: Vec<&str> = kernel::MATCHERS.iter().map(|m| m.name()).collect();
            usage(format!(
                "unknown matcher '{name}' (known: {})",
                known.join(", ")
            ))
        })?;
        config = config.with_matcher(m.kind());
    }
    if let Some(name) = f.get("--contractor") {
        let c = kernel::contractor_by_name(name).ok_or_else(|| {
            let known: Vec<&str> = kernel::CONTRACTORS.iter().map(|c| c.name()).collect();
            usage(format!(
                "unknown contractor '{name}' (known: {})",
                known.join(", ")
            ))
        })?;
        config = config.with_contractor(c.kind());
    }
    if f.has("--vertex-following") {
        config = config.with_vertex_following(true);
    }
    if let Some(c) = f.get("--coverage") {
        let c: f64 = c
            .parse()
            .map_err(|_| usage(format!("bad value for --coverage: '{c}'")))?;
        config = config.with_criterion(Criterion::Coverage(c));
    }
    // Budget limits ride the Budget subsystem, not Criterion: breaches are
    // reported via `termination` (or exit 3 under --strict-budget) instead
    // of looking like ordinary convergence.
    let mut budget = Budget::unarmed();
    if let Some(n) = f.get("--max-levels") {
        budget = budget.with_max_levels(
            n.parse()
                .map_err(|_| usage(format!("bad value for --max-levels: '{n}'")))?,
        );
    }
    if let Some(ms) = f.get("--deadline-ms") {
        budget = budget.with_deadline_ms(
            ms.parse()
                .map_err(|_| usage(format!("bad value for --deadline-ms: '{ms}'")))?,
        );
    }
    if f.has("--strict-budget") {
        budget = budget.strict();
    }
    config = config.with_budget(budget);
    if let Some(n) = f.get("--max-size") {
        config = config.with_max_community_size(
            n.parse()
                .map_err(|_| usage(format!("bad value for --max-size: '{n}'")))?,
        );
    }
    if let Some(p) = f.get("--paranoia") {
        config = config.with_paranoia(p.parse::<Paranoia>()?);
    }
    if let Some(n) = f.get("--max-match-rounds") {
        config = config.with_max_match_rounds(
            n.parse()
                .map_err(|_| usage(format!("bad value for --max-match-rounds: '{n}'")))?,
        );
    }
    let sharded = f.has("--sharded");
    if sharded {
        config = config.with_sharding(true);
    }
    let refine_sweeps: usize = f.parse("--refine", 0)?;
    let threads: usize = f.parse("--threads", 0)?;
    let progress = f.has("--progress");
    let metrics_out = f.get("--metrics").map(str::to_string);
    let trace_out = f.get("--trace").map(str::to_string);
    if sharded && trace_out.is_some() {
        // Per-component span rings are not merged; metrics registries are.
        return Err(usage("detect: --trace is not supported with --sharded"));
    }
    let tracing = metrics_out.is_some() || trace_out.is_some();
    // Fail on bad knob combinations before spinning up a thread pool.
    config.validate()?;

    /// What a detect run hands back for the `--metrics`/`--trace` writers:
    /// a full span-recording observer on the unsharded path, the merged
    /// per-component registry on the sharded one.
    enum Recorded {
        None,
        Observer(Box<TraceObserver>),
        Registry(parcomm::trace::Registry),
    }

    let run = move || -> Result<(DetectionResult, Recorded), PcdError> {
        // Refinement needs the original graph back after detection
        // consumes it; only pay for the clone when it will be used.
        let original = (refine_sweeps > 0).then(|| g.clone());
        let (result, recorded) = if sharded {
            if tracing {
                let (r, observers) =
                    parcomm::core::try_detect_sharded_observed(g, &config, TraceObserver::new)?;
                (
                    r,
                    Recorded::Registry(parcomm::trace::merge_registries(&observers)),
                )
            } else if progress {
                // One Progress block per component engine run, folded in
                // component order.
                let (r, _) = parcomm::core::try_detect_sharded_observed(g, &config, || Progress)?;
                (r, Recorded::None)
            } else {
                (try_detect(g, &config)?, Recorded::None)
            }
        } else {
            let mut engine = Detector::new(config)?;
            let mut tracer = tracing.then(TraceObserver::new);
            let result = match (&mut tracer, progress) {
                (Some(t), true) => {
                    let mut p = Progress;
                    engine.run_observed(g, &mut Tee::new(&mut p, t))?
                }
                (Some(t), false) => engine.run_observed(g, t)?,
                (None, true) => engine.run_observed(g, &mut Progress)?,
                (None, false) => engine.run(g)?,
            };
            match tracer {
                Some(t) => (result, Recorded::Observer(Box::new(t))),
                None => (result, Recorded::None),
            }
        };
        let result = match original {
            Some(orig) => refine_detected(&orig, result, refine_sweeps).0,
            None => result,
        };
        Ok((result, recorded))
    };
    let (r, recorded) = with_pool(threads, run)?;

    println!("communities:  {}", r.num_communities);
    println!("modularity:   {:.4}", r.modularity);
    println!("coverage:     {:.3}", r.coverage);
    println!("levels:       {}", r.levels.len());
    println!("time:         {:.3}s", r.total_secs);
    let (s, m, c) = r.phase_totals();
    if s + m + c > 0.0 {
        println!(
            "phases:       score {:.0}% / match {:.0}% / contract {:.0}%",
            100.0 * s / (s + m + c),
            100.0 * m / (s + m + c),
            100.0 * c / (s + m + c)
        );
    }
    if r.termination.is_budget_breach() {
        println!(
            "termination:  {} (best-effort partition from {} completed level(s))",
            r.termination,
            r.levels.len()
        );
    } else if r.termination != Termination::Converged {
        println!("termination:  {}", r.termination);
    }
    let degraded = r.levels.iter().filter(|l| l.matcher_degraded).count();
    if degraded > 0 {
        println!(
            "warning:      matcher watchdog degraded {degraded} level(s) to sequential completion"
        );
    }
    if let Some(out) = f.get("--assignments") {
        let mut w = std::io::BufWriter::new(std::fs::File::create(out)?);
        for (v, &cid) in r.assignment.iter().enumerate() {
            writeln!(w, "{v} {cid}")?;
        }
        println!("assignments:  {out}");
    }
    if !matches!(recorded, Recorded::None) {
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let registry = match &recorded {
            Recorded::Observer(obs) => Some(obs.registry()),
            Recorded::Registry(reg) => Some(reg),
            Recorded::None => None,
        };
        if let (Some(out), Some(reg)) = (metrics_out, registry) {
            let doc = if out.ends_with(".prom") {
                parcomm::trace::prometheus_text(reg)
            } else {
                parcomm::trace::metrics_json(reg, path, created_unix)
            };
            std::fs::write(&out, doc)?;
            println!("metrics:      {out}");
        }
        if let (Some(out), Recorded::Observer(obs)) = (trace_out, &recorded) {
            std::fs::write(
                &out,
                parcomm::trace::trace_json(obs.ring(), path, created_unix),
            )?;
            println!("trace:        {out}");
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed("stats", &["--threads"])?;
    let path = f
        .positional(0)
        .ok_or_else(|| usage("stats: missing graph file"))?;
    let threads: usize = f.parse("--threads", 0)?;
    let g = load(path)?;
    with_pool(threads, move || stats_report(&g))
}

fn stats_report(g: &Graph) -> Result<(), PcdError> {
    let csr = parcomm::graph::Csr::from_graph(g);
    let d = parcomm::graph::stats::degree_stats(&csr);
    let labels = parcomm::graph::components::components(g);
    let ncomp = parcomm::graph::components::count_components(&labels);
    println!("vertices:      {}", g.num_vertices());
    println!("edges:         {}", g.num_edges());
    println!("total weight:  {}", g.total_weight());
    println!(
        "degree:        min {} / mean {:.2} / max {}",
        d.min, d.mean, d.max
    );
    println!("isolated:      {}", d.isolated);
    println!("components:    {ncomp}");
    let tri = parcomm::graph::triangles::count_triangles(&csr);
    let cc = parcomm::graph::triangles::global_clustering_coefficient(&csr);
    println!("triangles:     {}", tri.total);
    println!("clustering:    {cc:.4}");
    let hist = parcomm::graph::stats::degree_histogram_log2(&csr);
    println!("degree histogram (log2 bins):");
    for (bin, count) in hist.iter().enumerate() {
        if *count > 0 {
            println!(
                "  [{:>6}, {:>6}): {count}",
                1usize << bin,
                1usize << (bin + 1)
            );
        }
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed("convert", &[])?;
    let input = f
        .positional(0)
        .ok_or_else(|| usage("convert: missing input"))?;
    let output = f
        .positional(1)
        .ok_or_else(|| usage("convert: missing output"))?;
    let g = load(input)?;
    parcomm::graph::io::save(&g, std::path::Path::new(output)).map_err(PcdError::from)?;
    println!("converted {input} -> {output}");
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed("compare", &["--threads"])?;
    let path = f
        .positional(0)
        .ok_or_else(|| usage("compare: missing graph file"))?;
    let threads: usize = f.parse("--threads", 0)?;
    let g = load(path)?;
    with_pool(threads, move || compare_report(g))
}

fn compare_report(g: Graph) -> Result<(), PcdError> {
    println!(
        "{:<20} {:>8} {:>8} {:>9} {:>9}",
        "method", "Q", "cover", "#comm", "time"
    );
    let report = |label: &str, a: &[u32], secs: f64| {
        let (dense, k) = parcomm::metrics::compact_labels(a);
        println!(
            "{:<20} {:>8.4} {:>8.3} {:>9} {:>8.3}s",
            label,
            parcomm::metrics::modularity(&g, &dense),
            parcomm::metrics::coverage(&g, &dense),
            k,
            secs
        );
    };
    let t = std::time::Instant::now();
    let r = detect(g.clone(), &Config::default());
    report("parallel-agglom", &r.assignment, t.elapsed().as_secs_f64());
    let t = std::time::Instant::now();
    let refined = parcomm::core::refine::refine(&g, &r.assignment, 10);
    report(
        "  + refinement",
        &refined.assignment,
        t.elapsed().as_secs_f64(),
    );
    let t = std::time::Instant::now();
    let a = parcomm::baseline::louvain(&g);
    report("louvain (seq)", &a, t.elapsed().as_secs_f64());
    let t = std::time::Instant::now();
    let r = detect(
        g.clone(),
        &Config::default().with_matcher(MatcherKind::LouvainMove),
    );
    report(
        "louvain (backend)",
        &r.assignment,
        t.elapsed().as_secs_f64(),
    );
    let t = std::time::Instant::now();
    let a = parcomm::baseline::label_propagation(&g, 30);
    report("labelprop", &a, t.elapsed().as_secs_f64());
    if g.num_edges() <= 500_000 {
        let t = std::time::Instant::now();
        let a = parcomm::baseline::cnm(&g);
        report("cnm", &a, t.elapsed().as_secs_f64());
    }
    Ok(())
}

fn cmd_seed(args: &[String]) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed("seed", &["--max-size"])?;
    let path = f
        .positional(0)
        .ok_or_else(|| usage("seed: missing graph file"))?;
    let seed: u32 = f
        .positional(1)
        .ok_or_else(|| usage("seed: missing seed vertex"))?
        .parse()
        .map_err(|_| usage("bad seed vertex"))?;
    let max_size: usize = f.parse("--max-size", 1000)?;
    let g = load(path)?;
    if seed as usize >= g.num_vertices() {
        return Err(usage(format!(
            "seed {seed} out of range (|V| = {})",
            g.num_vertices()
        )));
    }
    let c = parcomm::baseline::seed_expand(&g, seed, max_size);
    println!(
        "community of vertex {seed}: {} members, conductance {:.4}",
        c.members.len(),
        c.conductance
    );
    let mut members = c.members;
    members.sort_unstable();
    println!("{members:?}");
    Ok(())
}

fn cmd_communities(args: &[String]) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed("communities", &["--top", "--threads"])?;
    let path = f
        .positional(0)
        .ok_or_else(|| usage("communities: missing graph file"))?;
    let top: usize = f.parse("--top", 20)?;
    let threads: usize = f.parse("--threads", 0)?;
    let g = load(path)?;
    with_pool(threads, move || {
        let r = detect(g.clone(), &Config::default());
        let reports = parcomm::metrics::community_reports(&g, &r.assignment);
        println!(
            "{} communities, Q = {:.4}, coverage {:.3}; largest {top}:",
            r.num_communities, r.modularity, r.coverage
        );
        for rep in parcomm::metrics::largest_communities(&reports, top) {
            println!("{rep}");
        }
        Ok(())
    })
}

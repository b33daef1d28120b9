//! Detection configuration: metric, kernel implementations, constraints,
//! resource budget, and termination criteria.

use crate::budget::Budget;
use crate::termination::Criterion;
use pcd_util::PcdError;

/// Which optimisation metric scores edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScorerKind {
    /// Change in Newman–Girvan modularity (the paper's primary metric).
    #[default]
    Modularity,
    /// Negated change in conductance (minimisation turned maximisation).
    Conductance,
    /// Raw edge weight — plain heavy-edge coarsening, a useful ablation.
    HeavyEdge,
}

/// Which matching kernel merges communities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatcherKind {
    /// The paper's improved unmatched-vertex-list matching (§IV-B).
    #[default]
    UnmatchedList,
    /// The 2011 full-edge-sweep baseline.
    EdgeSweep,
    /// Sequential greedy (oracle / single-thread reference).
    Sequential,
    /// Synchronous label propagation guiding an unmatched-list matching:
    /// labels converge (or hit the watchdog round cap) and the matcher
    /// then prefers intra-label edges.
    LabelProp,
    /// Louvain-style synchronous move phase guiding an unmatched-list
    /// matching: parallel best-neighbor moves with deterministic
    /// tie-breaking and sequential conflict-free commits.
    LouvainMove,
}

/// Which contraction kernel builds the next community graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContractorKind {
    /// The paper's bucket-sort contraction, deterministic prefix-sum
    /// placement (§IV-C).
    #[default]
    Bucket,
    /// Bucket-sort with the racy fetch-and-add placement the paper
    /// mentions but never timed.
    BucketFetchAdd,
    /// The 2011 linked-list hash-chain baseline.
    Linked,
    /// Sequential hash-map oracle.
    Sequential,
}

/// How much the driver distrusts its own kernels at runtime.
///
/// Ordered: a level implies every check of the levels below it, so guards
/// are gated with `config.paranoia >= Paranoia::Cheap` etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Paranoia {
    /// No runtime guards (production default — correctness is covered by
    /// tests and debug assertions).
    #[default]
    Off,
    /// O(V + E) per-level spot checks: scores finite, contraction
    /// conserves total edge weight and maps onto a dense range.
    Cheap,
    /// Everything in `Cheap` plus full matching verification and complete
    /// structural validation of each contracted graph.
    Full,
}

impl std::str::FromStr for Paranoia {
    type Err = PcdError;

    fn from_str(s: &str) -> Result<Self, PcdError> {
        match s {
            "off" => Ok(Paranoia::Off),
            "cheap" => Ok(Paranoia::Cheap),
            "full" => Ok(Paranoia::Full),
            other => Err(PcdError::config(format!(
                "unknown paranoia level '{other}' (expected off, cheap, or full)"
            ))),
        }
    }
}

/// Default matcher round cap for a graph of `nv` vertices:
/// `4·⌈log₂ nv⌉ + 64`. The paper observes round counts far below even
/// log₂ nv on social networks; the slack keeps the watchdog out of the way
/// on anything but a genuinely wedged matcher.
pub fn default_match_round_cap(nv: usize) -> usize {
    let ceil_log2 = if nv <= 1 {
        0
    } else {
        (nv - 1).ilog2() as usize + 1
    };
    4 * ceil_log2 + 64
}

/// Full configuration for [`crate::detect`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Metric used to score candidate merges.
    pub scorer: ScorerKind,
    /// Matching kernel implementation.
    pub matcher: MatcherKind,
    /// Contraction kernel implementation.
    pub contractor: ContractorKind,
    /// Extra termination criteria; the local-maximum exit (no positive
    /// edge score) always applies.
    pub criteria: Vec<Criterion>,
    /// If set, merges that would grow a community past this many original
    /// vertices are masked out — the paper's "maximum community size"
    /// external constraint.
    pub max_community_size: Option<usize>,
    /// Record each level's old→new community map so any intermediate
    /// partition of the dendrogram can be reconstructed afterwards.
    pub record_levels: bool,
    /// Runtime invariant-guard level (see [`Paranoia`]).
    pub paranoia: Paranoia,
    /// Watchdog cap on parallel matching rounds per level. `None` uses
    /// [`default_match_round_cap`]. On expiry the matcher degrades to
    /// sequential greedy completion and the level is flagged in
    /// [`crate::LevelStats::matcher_degraded`].
    pub max_match_rounds: Option<usize>,
    /// Merge every degree-1 vertex into its sole neighbor before the level
    /// loop starts (Lu & Halappanavar's *vertex following* heuristic):
    /// detection then runs on the pruned graph and assignments expand back
    /// through the follow map. Shrinks the first — largest — contraction
    /// dramatically on hairy social graphs; off by default because it
    /// changes which partition the greedy agglomeration converges to
    /// (quality stays within the gated band, see `tests/dispatch_parity.rs`).
    pub vertex_following: bool,
    /// Resource budget: wall-clock deadline, level cap, scratch-memory
    /// ceiling, cancellation. Unarmed by default — zero overhead and
    /// bit-identical results (see [`Budget`]).
    pub budget: Budget,
    /// Route [`crate::detect`]/[`crate::try_detect`] through the
    /// WCC-sharded pipeline ([`crate::try_detect_sharded`]): decompose into
    /// connected components, detect each (big ones one at a time with
    /// parallel levels, small ones side by side with warm per-task
    /// engines), merge deterministically. Off by default; a
    /// single-component graph takes the exact unsharded path either way
    /// (DESIGN.md §16). [`crate::Detector::run`] is one engine run and
    /// ignores this flag.
    pub sharding: bool,
    /// Fault plan for the injection harness (test builds only).
    #[cfg(feature = "fault-injection")]
    pub fault: crate::fault::FaultPlan,
}

impl Default for Config {
    /// Quality defaults: modularity, the paper's improved kernels, run to
    /// the local maximum.
    fn default() -> Self {
        Config {
            scorer: ScorerKind::default(),
            matcher: MatcherKind::default(),
            contractor: ContractorKind::default(),
            criteria: Vec::new(),
            max_community_size: None,
            record_levels: false,
            paranoia: Paranoia::Off,
            max_match_rounds: None,
            vertex_following: false,
            budget: Budget::unarmed(),
            sharding: false,
            #[cfg(feature = "fault-injection")]
            fault: crate::fault::FaultPlan::default(),
        }
    }
}

impl Config {
    /// The paper's §V performance configuration: stop once coverage
    /// reaches 0.5 (the DIMACS-challenge-style rule).
    pub fn paper_performance() -> Self {
        Config {
            criteria: vec![Criterion::Coverage(0.5)],
            ..Config::default()
        }
    }

    /// The 2011-algorithm configuration (edge-sweep matching + linked-list
    /// contraction) used by the "20% improvement" ablation.
    pub fn legacy_2011() -> Self {
        Config {
            matcher: MatcherKind::EdgeSweep,
            contractor: ContractorKind::Linked,
            ..Config::paper_performance()
        }
    }

    #[must_use]
    /// Replaces the scoring metric.
    pub fn with_scorer(mut self, s: ScorerKind) -> Self {
        self.scorer = s;
        self
    }

    #[must_use]
    /// Replaces the matching kernel.
    pub fn with_matcher(mut self, m: MatcherKind) -> Self {
        self.matcher = m;
        self
    }

    #[must_use]
    /// Replaces the contraction kernel.
    pub fn with_contractor(mut self, c: ContractorKind) -> Self {
        self.contractor = c;
        self
    }

    #[must_use]
    /// Adds an external termination criterion.
    pub fn with_criterion(mut self, c: Criterion) -> Self {
        self.criteria.push(c);
        self
    }

    #[must_use]
    /// Masks merges that would exceed `s` original vertices per community.
    pub fn with_max_community_size(mut self, s: usize) -> Self {
        self.max_community_size = Some(s);
        self
    }

    #[must_use]
    /// Records every level map for dendrogram reconstruction.
    pub fn with_recorded_levels(mut self) -> Self {
        self.record_levels = true;
        self
    }

    #[must_use]
    /// Sets the runtime invariant-guard level.
    pub fn with_paranoia(mut self, p: Paranoia) -> Self {
        self.paranoia = p;
        self
    }

    #[must_use]
    /// Overrides the matcher watchdog's round cap.
    pub fn with_max_match_rounds(mut self, n: usize) -> Self {
        self.max_match_rounds = Some(n);
        self
    }

    #[must_use]
    /// Enables or disables the vertex-following pre-pass (off by default):
    /// degree-1 vertices merge into their sole neighbor before level 1,
    /// and assignments expand back through the follow map afterwards.
    pub fn with_vertex_following(mut self, on: bool) -> Self {
        self.vertex_following = on;
        self
    }

    #[must_use]
    /// Replaces the resource budget (see [`Budget`]).
    pub fn with_budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    #[must_use]
    /// Enables or disables WCC-sharded detection (off by default): the
    /// detect entry points decompose the graph into connected components,
    /// run them concurrently on warm per-worker engines, and merge the
    /// results deterministically (see [`crate::try_detect_sharded`]).
    /// [`crate::Detector::run`] ignores the flag.
    pub fn with_sharding(mut self, on: bool) -> Self {
        self.sharding = on;
        self
    }

    /// Checks the configuration for values that would make detection
    /// meaningless or non-terminating, so bad CLI/API input fails up front
    /// with a [`PcdError::Config`] instead of looping or panicking deep in
    /// a kernel.
    pub fn validate(&self) -> Result<(), PcdError> {
        for c in &self.criteria {
            match *c {
                Criterion::Coverage(f) => {
                    if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                        return Err(PcdError::config(format!(
                            "coverage threshold {f} must be a finite fraction in [0, 1]"
                        )));
                    }
                }
                Criterion::MaxLevels(n) => {
                    if n == 0 {
                        return Err(PcdError::config("max-levels criterion must be at least 1"));
                    }
                }
                Criterion::MinCommunities(n) => {
                    if n == 0 {
                        return Err(PcdError::config(
                            "min-communities criterion must be at least 1",
                        ));
                    }
                }
                Criterion::MaxCommunitySize(n) => {
                    if n == 0 {
                        return Err(PcdError::config(
                            "max-community-size criterion must be at least 1",
                        ));
                    }
                }
            }
        }
        if self.max_community_size == Some(0) {
            return Err(PcdError::config(
                "max community size 0 would forbid every merge; use at least 1",
            ));
        }
        if self.max_match_rounds == Some(0) {
            return Err(PcdError::config(
                "max match rounds 0 would disable parallel matching entirely; \
                 use at least 1",
            ));
        }
        Ok(())
    }

    /// Validates, then resolves the three kernel kinds against the static
    /// registry ([`crate::kernel`]) — once, up front. The engine dispatches
    /// through the returned [`KernelSet`](crate::kernel::KernelSet) for the
    /// whole run instead of re-matching on the enums every level.
    pub fn resolve(&self) -> Result<crate::kernel::KernelSet, PcdError> {
        self.validate()?;
        Ok(crate::kernel::KernelSet::from_kinds(
            self.scorer,
            self.matcher,
            self.contractor,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_improved_kernels() {
        let c = Config::default();
        assert_eq!(c.scorer, ScorerKind::Modularity);
        assert_eq!(c.matcher, MatcherKind::UnmatchedList);
        assert_eq!(c.contractor, ContractorKind::Bucket);
        assert!(c.criteria.is_empty());
        assert!(!c.budget.is_armed());
    }

    #[test]
    fn budget_rides_the_builder_and_validates() {
        let c = Config::default().with_budget(Budget::unarmed().with_max_levels(2).strict());
        assert!(c.budget.is_armed());
        assert!(c.budget.strict);
        assert_eq!(c.budget.max_levels, Some(2));
        // Any budget — even max_levels 0 (return singletons) — is valid.
        assert!(c.validate().is_ok());
        assert!(Config::default()
            .with_budget(Budget::unarmed().with_max_levels(0))
            .validate()
            .is_ok());
    }

    #[test]
    fn paper_performance_sets_coverage() {
        let c = Config::paper_performance();
        assert_eq!(c.criteria, vec![Criterion::Coverage(0.5)]);
    }

    #[test]
    fn validate_accepts_defaults_and_presets() {
        assert!(Config::default().validate().is_ok());
        assert!(Config::paper_performance().validate().is_ok());
        assert!(Config::legacy_2011().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_coverage() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let c = Config::default().with_criterion(Criterion::Coverage(bad));
            let err = c.validate().unwrap_err();
            assert!(err.to_string().contains("coverage"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_zero_knobs() {
        assert!(Config::default()
            .with_criterion(Criterion::MaxLevels(0))
            .validate()
            .is_err());
        assert!(Config::default()
            .with_criterion(Criterion::MinCommunities(0))
            .validate()
            .is_err());
        assert!(Config::default()
            .with_criterion(Criterion::MaxCommunitySize(0))
            .validate()
            .is_err());
        assert!(Config::default()
            .with_max_community_size(0)
            .validate()
            .is_err());
        assert!(Config::default()
            .with_max_match_rounds(0)
            .validate()
            .is_err());
        assert!(Config::default()
            .with_max_match_rounds(1)
            .validate()
            .is_ok());
    }

    #[test]
    fn paranoia_parses_and_orders() {
        assert_eq!("off".parse::<Paranoia>().unwrap(), Paranoia::Off);
        assert_eq!("cheap".parse::<Paranoia>().unwrap(), Paranoia::Cheap);
        assert_eq!("full".parse::<Paranoia>().unwrap(), Paranoia::Full);
        assert!("loud".parse::<Paranoia>().is_err());
        assert!(Paranoia::Full > Paranoia::Cheap);
        assert!(Paranoia::Cheap > Paranoia::Off);
        assert_eq!(Paranoia::default(), Paranoia::Off);
    }

    #[test]
    fn resolve_yields_matching_kernels_and_validates() {
        let set = Config::legacy_2011().resolve().unwrap();
        assert_eq!(set.scorer.kind(), ScorerKind::Modularity);
        assert_eq!(set.matcher.kind(), MatcherKind::EdgeSweep);
        assert_eq!(set.contractor.kind(), ContractorKind::Linked);
        assert!(Config::default()
            .with_max_match_rounds(0)
            .resolve()
            .is_err());
    }

    #[test]
    fn round_cap_formula() {
        assert_eq!(default_match_round_cap(0), 64);
        assert_eq!(default_match_round_cap(1), 64);
        assert_eq!(default_match_round_cap(2), 68);
        assert_eq!(default_match_round_cap(1024), 104);
        assert_eq!(default_match_round_cap(1025), 108);
    }

    #[test]
    fn builder_chain() {
        let c = Config::default()
            .with_scorer(ScorerKind::Conductance)
            .with_matcher(MatcherKind::Sequential)
            .with_contractor(ContractorKind::Linked)
            .with_criterion(Criterion::MaxLevels(3))
            .with_max_community_size(100);
        assert_eq!(c.scorer, ScorerKind::Conductance);
        assert_eq!(c.max_community_size, Some(100));
        assert_eq!(c.criteria.len(), 1);
    }

    #[test]
    fn vertex_following_rides_the_builder() {
        assert!(!Config::default().vertex_following);
        let c = Config::default()
            .with_vertex_following(true)
            .with_contractor(ContractorKind::BucketFetchAdd);
        assert!(c.vertex_following);
        assert_eq!(c.contractor, ContractorKind::BucketFetchAdd);
        assert!(c.validate().is_ok());
        assert_eq!(
            c.resolve().unwrap().contractor.kind(),
            ContractorKind::BucketFetchAdd
        );
        assert!(!c.with_vertex_following(false).vertex_following);
    }

    #[test]
    fn sharding_rides_the_builder() {
        assert!(!Config::default().sharding);
        let c = Config::default()
            .with_sharding(true)
            .with_contractor(ContractorKind::BucketFetchAdd);
        assert!(c.sharding);
        assert!(c.validate().is_ok());
        assert!(!c.with_sharding(false).sharding);
    }
}

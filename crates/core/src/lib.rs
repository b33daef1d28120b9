#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Parallel agglomerative community detection — the paper's contribution.
//!
//! Starting from the singleton partition, the driver repeats the three
//! primitives of §III until a termination criterion fires:
//!
//! 1. **score** every community-graph edge ([`scorer`]),
//! 2. **match** communities to merge (`pcd-matching`),
//! 3. **contract** the community graph (`pcd-contract`),
//!
//! while tracking the original-vertex → community mapping, per-community
//! vertex counts, per-level quality and phase timings.
//!
//! The loop dispatches through the [`kernel`] trait layer: a [`Config`]'s
//! kind enums resolve once into a [`kernel::KernelSet`], and the
//! [`engine::Detector`] owns that set plus the warm scratch arenas so
//! repeated detections reuse buffers.
//!
//! The detection surface has one plain and one `_observed` form per
//! execution shape, and every engine run is panic-isolated:
//!
//! | shape | plain | observed |
//! |---|---|---|
//! | one engine run | [`Detector::run`] | [`Detector::run_observed`] |
//! | a batch of graphs | [`detect_many`] | [`detect_many_observed`] |
//! | a sharded graph | [`try_detect_sharded`] | [`try_detect_sharded_observed`] |
//!
//! [`detect`] / [`try_detect`] are the one-shot pair (`try_detect` honours
//! [`Config::sharding`]), [`detect_sharded_outcomes`] reports every
//! component's outcome, and [`refine::refine_detected`] adds local-move
//! refinement.
//!
//! ```
//! use pcd_core::{Config, Detector};
//!
//! let mut engine = Detector::new(Config::default()).unwrap();
//! let graph = pcd_gen::classic::clique_ring(8, 6);
//! let result = engine.run(graph).unwrap();
//! assert!(result.modularity > 0.5);
//! ```

pub mod budget;
pub mod config;
pub mod driver;
pub mod engine;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod follow;
pub mod kernel;
pub mod louvain;
pub mod observer;
pub mod refine;
pub mod result;
pub mod scorer;
pub mod scratch;
pub mod shard;
pub mod termination;

pub use budget::Budget;
pub use config::{
    default_match_round_cap, Config, ContractorKind, MatcherKind, Paranoia, ScorerKind,
};
pub use driver::{detect, try_detect};
pub use engine::{detect_many, detect_many_observed, Detector};
#[cfg(feature = "fault-injection")]
pub use fault::FaultPlan;
pub use follow::{follow_map_into, FollowScratch};
pub use kernel::{Contractor, KernelSet, Matcher, Scorer};
pub use louvain::{synchronous_move_phase, MoveStats};
pub use observer::{LevelObserver, NoopObserver, Tee};
pub use pcd_util::sync::CancelToken;
pub use result::{DetectionResult, LevelStats, StopReason, Termination};
pub use scorer::{score_all_into, ScoreContext};
pub use scratch::LevelScratch;
pub use shard::{
    detect_sharded_outcomes, try_detect_sharded, try_detect_sharded_observed, ComponentOutcome,
};
pub use termination::Criterion;

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! # parcomm — scalable multi-threaded community detection
//!
//! A from-scratch Rust reproduction of *Riedy, Meyerhenke, Bader:
//! "Scalable Multi-threaded Community Detection in Social Networks"*
//! (IEEE IPDPSW/MTAAP 2012), including every substrate its evaluation
//! depends on: the bucketed edge-array graph, parallel greedy matching,
//! parallel bucket-sort contraction, graph generators, sequential
//! baselines, quality metrics and the full benchmark harness.
//!
//! ## Quickstart
//!
//! ```
//! use parcomm::prelude::*;
//!
//! // Build a reusable engine, then detect planted communities.
//! let mut engine = Detector::new(Config::default()).unwrap();
//! let graph = parcomm::gen::classic::clique_ring(8, 6);
//! let result = engine.run(graph).unwrap();
//! println!("{} communities, Q = {:.3}", result.num_communities, result.modularity);
//! assert!(result.modularity > 0.5);
//! ```
//!
//! The engine owns the resolved kernel set and the warm scratch arenas, so
//! further `engine.run(...)` calls reuse buffers; `detect(graph, &config)`
//! remains as a one-shot wrapper, and `detect_many` batches independent
//! graphs across the worker threads with one warm engine per task. Each
//! shape (one run, a batch, a sharded graph) also has an `_observed` form
//! taking a [`LevelObserver`](pcd_core::LevelObserver); tracing a batch
//! passes `TraceObserver::new` and folds the observers with
//! `merge_registries`. Every engine run is panic-isolated.
//!
//! See the `examples/` directory for realistic end-to-end scenarios and
//! `pcd-bench`'s `repro` binary for the paper's tables and figures.

pub use pcd_baseline as baseline;
pub use pcd_contract as contract;
pub use pcd_core as core;
pub use pcd_gen as gen;
pub use pcd_graph as graph;
pub use pcd_matching as matching;
pub use pcd_metrics as metrics;
pub use pcd_trace as trace;
pub use pcd_util as util;

/// The names most programs need.
pub mod prelude {
    pub use pcd_core::{
        detect, detect_many, detect_many_observed, detect_sharded_outcomes, try_detect,
        try_detect_sharded, Budget, CancelToken, ComponentOutcome, Config, ContractorKind,
        Criterion, Detector, LevelObserver, MatcherKind, Paranoia, ScorerKind, Termination,
    };
    pub use pcd_graph::{Graph, GraphBuilder};
    pub use pcd_metrics::{coverage, modularity, normalized_mutual_information};
    pub use pcd_trace::{merge_registries, TraceObserver};
    pub use pcd_util::{PcdError, VertexId, Weight};
}

pub use pcd_core::{detect, detect_many, Config, Detector};

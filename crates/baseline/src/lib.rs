#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Sequential community-detection baselines.
//!
//! The paper replaces the sequential priority-queue agglomeration of
//! Clauset–Newman–Moore with a parallel matching, and cross-checks quality
//! against SNAP's sequential implementation. This crate supplies the
//! sequential reference points:
//!
//! * [`cnm`] — greedy modularity maximisation with a lazy priority queue
//!   (CNM \[13\]/\[28\]): merge the single best pair per step.
//! * [`louvain`] — Blondel et al.'s local-moving + aggregation heuristic
//!   \[17\], the strongest quality baseline.
//! * [`labelprop`] — weighted label propagation, a cheap extra baseline.
//! * [`seedset`] — Andersen–Lang seed-set expansion via approximate
//!   personalised PageRank and a conductance sweep (paper reference \[22\]).
//!
//! All return assignment vectors compatible with `pcd-metrics` and are
//! deterministic. The parallel Louvain comparison is the registry's
//! synchronous `louvain` matching backend in `pcd-core`.

pub mod cnm;
pub mod labelprop;
pub mod louvain;
pub mod seedset;

pub use cnm::cnm;
pub use labelprop::label_propagation;
pub use louvain::louvain;
pub use seedset::{approximate_ppr, seed_expand, SeedCommunity};

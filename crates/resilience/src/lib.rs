//! # inet-resilience — percolation and targeted-attack engine
//!
//! Answers the robustness question the topology-validation literature asks
//! of every Internet model: *what happens to connectivity when nodes fail
//! or are attacked?* Models that match degree distributions can still
//! diverge wildly under targeted removal, so attack response is a
//! validation axis in its own right.
//!
//! The pipeline has three layers:
//!
//! * [`strategy`] — node-removal orders: uniform-random failure and
//!   degree / k-core / betweenness attacks, each in a *static-ranking*
//!   (score the intact graph once) and a *recalculated* (re-score the
//!   damaged graph as the attack proceeds) variant. Every order is a pure
//!   function of `(graph, strategy, seed)`.
//! * [`percolation`] — the curve engine: instead of recomputing components
//!   after each removal (`O(N·E)`), nodes are *re-added* in reverse order
//!   and merged with a union-find, giving giant component, mean finite
//!   component size `⟨s⟩`, and surviving-edge count at every step in
//!   `O(E·α(N))` total, plus the critical fraction `f_c` (smallest removal
//!   fraction with giant `< ⌈√N⌉`).
//! * [`sweep`] — robust parallel orchestration of `strategies × replicas`
//!   cells on the work-stealing pool: per-cell panic isolation with one
//!   resample (a crash degrades to a [`checkpoint::FailureRecord`], never
//!   a process abort), and an append-only checkpoint log ([`checkpoint`])
//!   so an interrupted sweep resumes instead of restarting.
//!
//! [`encode`] is the curve CSV encoder the pipeline writes curve files
//! with, and its shortest-digits `⟨s⟩` formatter; the CSV rows and the
//! checkpoint's records share `inet_graph::io`'s decimal writer.
//!
//! Everything is bit-identical for any thread count: cell seeds derive
//! from the cell's position in the configuration, curves are integer
//! union-find arithmetic, and outputs are canonically ordered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod encode;
pub mod percolation;
pub mod strategy;
pub mod sweep;

pub use checkpoint::{
    fingerprint, CellRecord, Checkpoint, CheckpointError, FailureRecord, LoadedCheckpoint,
    RetryPolicy,
};
pub use encode::write_points;
pub use percolation::{percolation_curve, AttackCurve, CurvePoint};
pub use strategy::{Strategy, STRATEGY_NAMES};
pub use sweep::{run_sweep, SweepConfig, SweepError, SweepResult};

//! # inet-metrics — topology measures for Internet maps
//!
//! Implements the full measurement battery used to validate Internet
//! topology models, on [`inet_graph::Csr`] snapshots:
//!
//! | Module | Measures |
//! |---|---|
//! | [`degree`] | degree distribution, CCDF, moments, power-law tail fit |
//! | [`clustering`] | triangles per node, local clustering, `c(k)` spectrum, transitivity |
//! | [`knn`] | average nearest-neighbors degree `k̄_nn(k)`, assortativity coefficient |
//! | [`kcore`] | k-core decomposition (Batagelj–Zaveršnik), shell sizes, coreness |
//! | [`mod@betweenness`] | Brandes betweenness centrality, exact and sampled, optionally parallel |
//! | [`centrality`] | closeness, harmonic, eigenvector centralities |
//! | [`paths`] | shortest-path-length distribution, average path length, diameter, efficiency |
//! | [`loops`] | census of simple cycles of length 3, 4, 5 (the `N_h(N)` scaling observable) |
//! | [`richclub`] | rich-club connectivity `φ(k)` and its rewired-null normalization |
//! | [`tiers`] | heuristic backbone/transit/fringe stratification from the core hierarchy |
//! | [`randomize`] | degree-preserving double-edge-swap rewiring |
//! | [`weighted`] | strength distribution, degree–strength scaling `k ∝ b^μ` |
//! | [`report`] | one-call [`report::TopologyReport`] aggregating the headline scalars |
//! | [`robust`] | panic-isolated, deadline-annotated battery ([`robust::measure_robust`]) with per-kernel [`robust::KernelStatus`] |
//!
//! Algorithmic notes:
//!
//! * Everything runs on sorted CSR neighbor lists; triangle counting is an
//!   edge-iterator merge, `O(Σ_(u,v)∈E (d_u + d_v))`.
//! * The cycle census uses exact combinatorial formulas (Harary–Manvel) with
//!   sparse per-node `A²` rows — no dense matrix is ever formed; the test
//!   suite cross-validates against brute-force enumeration on small graphs.
//! * Betweenness, path statistics, closeness, clustering, `k̄_nn`, the cycle
//!   census and rich-club fan their work out over threads through the
//!   dependency-free work-stealing module [`inet_exec::parallel`]; partial
//!   results fold in a fixed chunk order, so every number is **bit-identical
//!   for any thread count**.
//! * [`mod@engine`] fuses path statistics, betweenness, and closeness into
//!   one Brandes BFS sweep per sampled source instead of one sweep per
//!   metric.
//!
//! Measures are defined on the *simple* topology (distinct neighbors), the
//! convention of the Internet-topology literature; weighted observables live
//! in [`weighted`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod betweenness;
pub mod centrality;
pub mod clustering;
pub mod degree;
pub mod engine;
pub mod kcore;
pub mod knn;
pub mod loops;
pub mod paths;
pub mod randomize;
pub mod report;
pub mod richclub;
pub mod robust;
pub mod tiers;
pub mod weighted;

pub use betweenness::{betweenness, betweenness_sampled};
pub use clustering::ClusteringStats;
pub use degree::DegreeStats;
pub use engine::{paths_and_betweenness, FusedReport};
pub use kcore::KCoreDecomposition;
pub use knn::KnnStats;
pub use loops::CycleCensus;
pub use paths::PathStats;
pub use report::{ReportOptions, TopologyReport};
pub use robust::{
    measure_robust, measure_robust_cancellable, KernelSelection, KernelStatus, RobustOptions,
    RobustReport,
};

/// Serializes the unit tests that run the battery through its fence: the
/// fault plan a `fault-inject` test installs is process-global, so its
/// injected kernel failure must never fire inside another test's run.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

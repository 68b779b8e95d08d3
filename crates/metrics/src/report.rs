//! One-call aggregate report of the headline topology scalars.

use crate::robust::{measure_robust, RobustOptions};
use inet_graph::Csr;

/// Aggregated headline measures of a topology — the row a comparison table
/// prints per network.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyReport {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of distinct edges.
    pub edges: usize,
    /// Mean degree `⟨k⟩`.
    pub mean_degree: f64,
    /// Largest degree.
    pub max_degree: u64,
    /// Power-law tail exponent `γ` from the CSN automatic fit (`None` when
    /// unfittable).
    pub gamma: Option<f64>,
    /// Mean local clustering (degree ≥ 2 nodes).
    pub mean_clustering: f64,
    /// Global transitivity.
    pub transitivity: f64,
    /// Newman assortativity coefficient.
    pub assortativity: f64,
    /// Mean shortest path length (sampled for big graphs).
    pub mean_path_length: f64,
    /// Largest sampled shortest-path distance.
    pub diameter: u32,
    /// Maximum core number.
    pub coreness: u32,
    /// Fraction of nodes in the giant component.
    pub giant_fraction: f64,
    /// Total number of triangles.
    pub triangles: u64,
    /// Maximum betweenness value (sampled estimate).
    pub max_betweenness: f64,
}

/// Sampling effort for [`TopologyReport::measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportOptions {
    /// BFS sources used for path statistics (exact if ≥ node count).
    pub path_sources: usize,
    /// Sources for the betweenness estimate (exact if ≥ node count).
    pub betweenness_sources: usize,
    /// Worker threads for the parallelized measures. The default is the
    /// machine's available parallelism (clamped to at least 1), not a
    /// hardcoded constant; results are bit-identical for any value.
    pub threads: usize,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            path_sources: 400,
            betweenness_sources: 200,
            threads: inet_exec::parallel::default_threads(),
        }
    }
}

impl TopologyReport {
    /// Measures everything with default sampling effort.
    pub fn measure(g: &Csr) -> Self {
        Self::measure_with(g, ReportOptions::default())
    }

    /// Measures everything with explicit effort options.
    ///
    /// This is [`measure_robust`] with every kernel selected and no
    /// deadline, so the plain and the robust battery run the same six
    /// kernels by construction. Path statistics and betweenness come from
    /// **one** fused BFS sweep over the union of the two source sets
    /// ([`crate::engine::paths_and_betweenness`]); clustering and degree
    /// correlations fan out over the same work-stealing pool.
    ///
    /// # Panics
    ///
    /// A kernel that panics is re-raised here, naming the kernel; use
    /// [`measure_robust`] to get the other kernels' numbers instead.
    pub fn measure_with(g: &Csr, opt: ReportOptions) -> Self {
        let robust = measure_robust(
            g,
            RobustOptions {
                report: opt,
                ..RobustOptions::default()
            },
        );
        // Not a new failure mode: the plain battery has no status channel,
        // so a kernel's caught panic propagates as it did unfenced.
        #[allow(clippy::panic)]
        if let Some((name, reason)) = robust.failures().first() {
            panic!("metric kernel '{name}' failed: {reason}");
        }
        robust.report
    }

    /// Renders the report as aligned `name: value` lines.
    pub fn render(&self) -> String {
        let gamma = self
            .gamma
            .map(|g| format!("{g:.2}"))
            .unwrap_or_else(|| "n/a".to_string());
        format!(
            "nodes            : {}\n\
             edges            : {}\n\
             mean degree      : {:.3}\n\
             max degree       : {}\n\
             gamma (P(k) tail): {}\n\
             mean clustering  : {:.4}\n\
             transitivity     : {:.4}\n\
             assortativity    : {:+.4}\n\
             mean path length : {:.3}\n\
             diameter (est)   : {}\n\
             coreness         : {}\n\
             giant fraction   : {:.4}\n\
             triangles        : {}\n\
             max betweenness  : {:.1}",
            self.nodes,
            self.edges,
            self.mean_degree,
            self.max_degree,
            gamma,
            self.mean_clustering,
            self.transitivity,
            self.assortativity,
            self.mean_path_length,
            self.diameter,
            self.coreness,
            self.giant_fraction,
            self.triangles,
            self.max_betweenness,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn er_graph(n: usize, p: f64, seed: u64) -> Csr {
        let mut rng = inet_stats::rng::seeded_rng(seed);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < p {
                    edges.push((i, j));
                }
            }
        }
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn report_on_er_graph_is_sane() {
        let _l = crate::test_lock();
        let g = er_graph(300, 0.03, 1);
        let r = TopologyReport::measure(&g);
        assert_eq!(r.nodes, 300);
        assert!(r.edges > 0);
        assert!((r.mean_degree - 2.0 * r.edges as f64 / 300.0).abs() < 1e-12);
        assert!(r.mean_clustering >= 0.0 && r.mean_clustering <= 1.0);
        assert!(r.mean_path_length > 1.0);
        assert!(r.coreness >= 1);
        assert!(r.giant_fraction > 0.5);
        assert!(r.max_betweenness > 0.0);
    }

    #[test]
    fn exact_options_on_small_graph() {
        let _l = crate::test_lock();
        let g = er_graph(40, 0.15, 2);
        let exact = TopologyReport::measure_with(
            &g,
            ReportOptions {
                path_sources: 1000,
                betweenness_sources: 1000,
                threads: 1,
            },
        );
        let threaded = TopologyReport::measure_with(
            &g,
            ReportOptions {
                path_sources: 1000,
                betweenness_sources: 1000,
                threads: 4,
            },
        );
        // All discrete fields must be identical; float accumulations may
        // differ in the last bits with a different thread split.
        assert_eq!(exact.nodes, threaded.nodes);
        assert_eq!(exact.edges, threaded.edges);
        assert_eq!(exact.max_degree, threaded.max_degree);
        assert_eq!(exact.diameter, threaded.diameter);
        assert_eq!(exact.coreness, threaded.coreness);
        assert_eq!(exact.triangles, threaded.triangles);
        assert!((exact.mean_path_length - threaded.mean_path_length).abs() < 1e-9);
        assert!((exact.max_betweenness - threaded.max_betweenness).abs() < 1e-9);
    }

    #[test]
    fn fused_report_matches_seed_two_pass() {
        let _l = crate::test_lock();
        // Acceptance check: the single fused sweep behind measure_with must
        // reproduce the seed's two independent passes (paths, then Brandes).
        let g = er_graph(120, 0.05, 7);
        let opt = ReportOptions {
            path_sources: 24,
            betweenness_sources: 12,
            threads: 3,
        };
        let r = TopologyReport::measure_with(&g, opt);
        let paths = crate::paths::PathStats::measure_sampled_unfused(&g, opt.path_sources);
        let bc = crate::betweenness::betweenness_sampled_unfused(&g, opt.betweenness_sources);
        assert!((r.mean_path_length - paths.mean).abs() < 1e-12);
        assert_eq!(r.diameter, paths.diameter);
        let max_bc = bc.iter().copied().fold(0.0, f64::max);
        assert!((r.max_betweenness - max_bc).abs() < 1e-9);
    }

    #[test]
    fn report_is_bit_identical_across_thread_counts() {
        let _l = crate::test_lock();
        let g = er_graph(150, 0.04, 4);
        let base = TopologyReport::measure_with(
            &g,
            ReportOptions {
                path_sources: 30,
                betweenness_sources: 15,
                threads: 1,
            },
        );
        for threads in [2, 7] {
            let other = TopologyReport::measure_with(
                &g,
                ReportOptions {
                    path_sources: 30,
                    betweenness_sources: 15,
                    threads,
                },
            );
            assert_eq!(base, other, "threads {threads}");
        }
    }

    #[test]
    fn default_threads_tracks_available_parallelism() {
        let opt = ReportOptions::default();
        assert!(opt.threads >= 1);
        assert_eq!(opt.threads, inet_exec::parallel::default_threads());
    }

    #[test]
    fn render_contains_all_fields() {
        let _l = crate::test_lock();
        let g = er_graph(50, 0.1, 3);
        let text = TopologyReport::measure(&g).render();
        for needle in [
            "nodes",
            "edges",
            "mean degree",
            "gamma",
            "clustering",
            "assortativity",
            "path length",
            "coreness",
            "giant fraction",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn empty_graph_report() {
        let _l = crate::test_lock();
        let r = TopologyReport::measure(&Csr::from_edges(0, &[]));
        assert_eq!(r.nodes, 0);
        assert_eq!(r.edges, 0);
        assert_eq!(r.gamma, None);
        assert!(r.render().contains("n/a"));
    }

    /// Every float field of a report — all measures have divide-by-count
    /// denominators somewhere.
    fn float_fields(r: &TopologyReport) -> [(&'static str, f64); 7] {
        [
            ("mean_degree", r.mean_degree),
            ("mean_clustering", r.mean_clustering),
            ("transitivity", r.transitivity),
            ("assortativity", r.assortativity),
            ("mean_path_length", r.mean_path_length),
            ("giant_fraction", r.giant_fraction),
            ("max_betweenness", r.max_betweenness),
        ]
    }

    #[test]
    fn empty_graph_report_is_zero_not_nan() {
        let _l = crate::test_lock();
        // Regression: the percolation engine hands `measure` exactly these
        // degenerate graphs. Every float must be finite (no 0/0), and the
        // natural zeros must actually be zero.
        let r = TopologyReport::measure(&Csr::from_edges(0, &[]));
        for (name, v) in float_fields(&r) {
            assert!(v.is_finite(), "{name} = {v} on the empty graph");
        }
        assert_eq!(r.mean_degree, 0.0);
        assert_eq!(r.mean_path_length, 0.0);
        assert_eq!(r.max_betweenness, 0.0);
        assert_eq!(r.diameter, 0);
        assert_eq!(r.coreness, 0);
        assert!(!r.render().contains("NaN"));
    }

    #[test]
    fn fully_disconnected_graph_report_is_zero_not_nan() {
        let _l = crate::test_lock();
        // 40 isolated nodes: no edges, no paths, no triangles, no core.
        let r = TopologyReport::measure(&Csr::from_edges(40, &[]));
        assert_eq!(r.nodes, 40);
        assert_eq!(r.edges, 0);
        for (name, v) in float_fields(&r) {
            assert!(v.is_finite(), "{name} = {v} on the edgeless graph");
        }
        assert_eq!(r.mean_degree, 0.0);
        assert_eq!(r.mean_clustering, 0.0);
        assert_eq!(r.transitivity, 0.0);
        assert_eq!(r.mean_path_length, 0.0);
        assert_eq!(r.triangles, 0);
        assert_eq!(r.gamma, None);
        assert!(!r.render().contains("NaN"));
    }

    #[test]
    fn disconnected_components_report_stays_finite() {
        let _l = crate::test_lock();
        // Two components + isolated nodes, measured WITHOUT extracting the
        // giant first — unreachable BFS targets must not poison the means.
        let g = Csr::from_edges(12, &[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)]);
        for threads in [1, 3] {
            let r = TopologyReport::measure_with(
                &g,
                ReportOptions {
                    path_sources: 100,
                    betweenness_sources: 100,
                    threads,
                },
            );
            for (name, v) in float_fields(&r) {
                assert!(v.is_finite(), "{name} = {v} on the disconnected graph");
            }
            assert!(r.mean_path_length >= 1.0, "paths exist within components");
            assert!((r.giant_fraction - 4.0 / 12.0).abs() < 1e-12);
            assert!(!r.render().contains("NaN"));
        }
    }
}

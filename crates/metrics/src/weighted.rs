//! Weighted (bandwidth) observables.
//!
//! In weighted Internet models each node carries a *strength* `b_v` (total
//! incident edge weight — its provisioned bandwidth). The key scaling ansatz
//! of competition–adaptation models is `k ∝ b^μ` with `μ < 1`: bandwidth
//! grows faster than the number of distinct peers, so rich ASs hold multiple
//! parallel connections. This module measures that relation.

use inet_graph::Csr;
use inet_stats::binned::{binned_mean_log, BinnedSpectrum};
use inet_stats::regression::{loglog_fit, LinearFit};

/// Strength/bandwidth statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedStats {
    /// Strength (total incident weight) per node.
    pub strengths: Vec<u64>,
    /// Mean strength `⟨b⟩`.
    pub mean_strength: f64,
    /// Largest strength.
    pub max_strength: u64,
    /// Ratio of total weight to edge count (mean edge multiplicity ≥ 1).
    pub mean_multiplicity: f64,
}

impl WeightedStats {
    /// Measures strength statistics of `g`.
    pub fn measure(g: &Csr) -> Self {
        let strengths = g.strengths();
        let n = strengths.len().max(1) as f64;
        let mean_strength = strengths.iter().sum::<u64>() as f64 / n;
        let max_strength = strengths.iter().copied().max().unwrap_or(0);
        let mean_multiplicity = if g.edge_count() > 0 {
            g.total_weight() as f64 / g.edge_count() as f64
        } else {
            0.0
        };
        WeightedStats {
            strengths,
            mean_strength,
            max_strength,
            mean_multiplicity,
        }
    }
}

/// Log-binned spectrum of mean degree versus strength — the empirical
/// `k(b)` curve (plotted as the Fig. 2 inset of the source text).
pub fn degree_vs_strength(g: &Csr, bins_per_decade: usize) -> BinnedSpectrum {
    let (b, k): (Vec<f64>, Vec<f64>) = (0..g.node_count())
        .filter(|&v| g.degree(v) > 0)
        .map(|v| (g.strength(v) as f64, g.degree(v) as f64))
        .unzip();
    binned_mean_log(&b, &k, bins_per_decade)
}

/// Fits the scaling exponent `μ` of `k ∝ b^μ` by log–log regression on the
/// binned `k(b)` spectrum. `None` when there is not enough spread in `b`.
pub fn fit_mu(g: &Csr, bins_per_decade: usize) -> Option<LinearFit> {
    let spectrum = degree_vs_strength(g, bins_per_decade);
    if spectrum.x.len() < 3 {
        return None;
    }
    loglog_fit(&spectrum.x, &spectrum.y)
}

/// Barrat weighted clustering coefficient per node
/// (Barrat, Barthélemy, Pastor-Satorras & Vespignani, PNAS 101, 3747):
///
/// ```text
/// c^w(v) = 1 / (s_v (k_v − 1)) · Σ_{(u,x) triangle at v} (w_vu + w_vx) / 2
/// ```
///
/// Reduces to the topological coefficient on an unweighted graph. Nodes of
/// degree < 2 get 0.
pub fn weighted_clustering(g: &Csr) -> Vec<f64> {
    let n = g.node_count();
    let mut cw = vec![0.0f64; n];
    for (v, slot) in cw.iter_mut().enumerate() {
        let k = g.degree(v);
        if k < 2 {
            continue;
        }
        let s = g.strength(v) as f64;
        if s <= 0.0 {
            continue;
        }
        let neighbors = g.neighbors(v);
        let weights = g.neighbor_weights(v);
        let mut acc = 0.0f64;
        for i in 0..neighbors.len() {
            for j in (i + 1)..neighbors.len() {
                let (u, x) = (neighbors[i] as usize, neighbors[j] as usize);
                if g.has_edge(u, x) {
                    // Barrat's sum runs over ordered neighbor pairs; the
                    // weight term is symmetric, so count unordered pairs
                    // twice.
                    acc += (weights[i] + weights[j]) as f64;
                }
            }
        }
        *slot = acc / (s * (k as f64 - 1.0));
    }
    cw
}

/// Barrat weighted average nearest-neighbors degree per node:
///
/// ```text
/// k̄ⁿⁿ_w(v) = (1/s_v) Σ_{u ∈ N(v)} w_vu · k_u
/// ```
///
/// Weighs each neighbor's degree by the bandwidth committed to it — the
/// natural correlation measure for a multigraph Internet.
pub fn weighted_knn(g: &Csr) -> Vec<f64> {
    let n = g.node_count();
    let mut out = vec![0.0f64; n];
    for (v, slot) in out.iter_mut().enumerate() {
        let s = g.strength(v) as f64;
        if s <= 0.0 {
            continue;
        }
        let sum: f64 = g
            .neighbors(v)
            .iter()
            .zip(g.neighbor_weights(v))
            .map(|(&u, &w)| w as f64 * g.degree(u as usize) as f64)
            .sum();
        *slot = sum / s;
    }
    out
}

/// Weight disparity `Y(v) = Σ_u (w_vu / s_v)²` (Barthélemy et al.):
/// `Y ≈ 1/k` when a node spreads bandwidth evenly over its peers and
/// `Y → 1` when a single fat pipe dominates. The product `k·Y(k)` spectrum
/// discriminates "many equal customers" hubs from "one big transit" nodes.
/// Isolated nodes get 0.
pub fn disparity(g: &Csr) -> Vec<f64> {
    let n = g.node_count();
    let mut out = vec![0.0f64; n];
    for (v, slot) in out.iter_mut().enumerate() {
        let s = g.strength(v) as f64;
        if s <= 0.0 {
            continue;
        }
        *slot = g
            .neighbor_weights(v)
            .iter()
            .map(|&w| {
                let f = w as f64 / s;
                f * f
            })
            .sum();
    }
    out
}

/// Mean Barrat weighted clustering over nodes of degree ≥ 2; 0 when none.
pub fn mean_weighted_clustering(g: &Csr) -> f64 {
    let cw = weighted_clustering(g);
    let eligible: Vec<f64> = (0..g.node_count())
        .filter(|&v| g.degree(v) >= 2)
        .map(|v| cw[v])
        .collect();
    if eligible.is_empty() {
        0.0
    } else {
        eligible.iter().sum::<f64>() / eligible.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_graph::{MultiGraph, NodeId};

    #[test]
    fn unweighted_graph_strength_equals_degree() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let w = WeightedStats::measure(&g);
        assert_eq!(w.strengths, vec![1, 2, 2, 1]);
        assert_eq!(w.mean_multiplicity, 1.0);
        assert_eq!(w.max_strength, 2);
    }

    #[test]
    fn multiplicities_raise_strength_not_degree() {
        let mut g = MultiGraph::new();
        g.add_nodes(3);
        let n = NodeId::new;
        g.add_edge_weighted(n(0), n(1), 5).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        let csr = g.to_csr();
        let w = WeightedStats::measure(&csr);
        assert_eq!(w.strengths, vec![5, 6, 1]);
        assert_eq!(w.mean_multiplicity, 3.0);
        assert_eq!(csr.degree(1), 2);
    }

    #[test]
    fn mu_recovered_from_planted_scaling() {
        // Construct a graph family where k = b^0.75 exactly: node i gets
        // degree k_i toward fresh leaves and one heavy edge making up the
        // remaining bandwidth.
        let mut g = MultiGraph::new();
        let hubs = 30usize;
        g.add_nodes(hubs);
        for i in 0..hubs {
            let b = (i + 2).pow(2) as u64; // strengths 4..1024
            let k = (b as f64).powf(0.75).round().max(2.0) as u64;
            // k - 1 unit edges to fresh leaves.
            for _ in 0..(k - 1) {
                let leaf = g.add_node();
                g.add_edge(NodeId::new(i), leaf).unwrap();
            }
            // One fat edge with the remaining weight.
            let leaf = g.add_node();
            g.add_edge_weighted(NodeId::new(i), leaf, b - (k - 1))
                .unwrap();
        }
        let csr = g.to_csr();
        let fit = fit_mu(&csr, 6).unwrap();
        assert!((fit.slope - 0.75).abs() < 0.12, "mu = {}", fit.slope);
    }

    #[test]
    fn degenerate_graphs() {
        let empty = Csr::from_edges(0, &[]);
        let w = WeightedStats::measure(&empty);
        assert_eq!(w.mean_strength, 0.0);
        assert_eq!(w.mean_multiplicity, 0.0);
        assert!(fit_mu(&empty, 5).is_none());

        let single = Csr::from_edges(2, &[(0, 1)]);
        assert!(fit_mu(&single, 5).is_none(), "no spread in b");
    }

    #[test]
    fn weighted_clustering_reduces_to_topological_on_unit_weights() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let cw = weighted_clustering(&g);
        let topo = crate::clustering::ClusteringStats::measure(&g).local;
        for (a, b) in cw.iter().zip(&topo) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn weighted_clustering_emphasizes_heavy_triangles() {
        // Node 0 sits in one triangle (with 1, 2) and has a heavy edge to a
        // non-triangle neighbor 3: the heavy non-triangle edge dilutes c^w
        // below the topological value.
        let mut g = MultiGraph::new();
        g.add_nodes(4);
        let n = NodeId::new;
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge_weighted(n(0), n(3), 10).unwrap();
        let csr = g.to_csr();
        let cw = weighted_clustering(&csr);
        let topo = crate::clustering::ClusteringStats::measure(&csr).local;
        assert!(cw[0] < topo[0], "cw {} !< topo {}", cw[0], topo[0]);
        // Conversely, making the triangle edges heavy raises c^w above topo.
        let mut g2 = MultiGraph::new();
        g2.add_nodes(4);
        g2.add_edge_weighted(n(0), n(1), 10).unwrap();
        g2.add_edge_weighted(n(0), n(2), 10).unwrap();
        g2.add_edge(n(1), n(2)).unwrap();
        g2.add_edge(n(0), n(3)).unwrap();
        let csr2 = g2.to_csr();
        let cw2 = weighted_clustering(&csr2);
        let topo2 = crate::clustering::ClusteringStats::measure(&csr2).local;
        assert!(cw2[0] > topo2[0], "cw {} !> topo {}", cw2[0], topo2[0]);
    }

    #[test]
    fn weighted_clustering_bounds() {
        // c^w lies in [0, 1] like its topological counterpart.
        let mut rng = inet_stats::rng::seeded_rng(9);
        let mut g = MultiGraph::new();
        g.add_nodes(30);
        for _ in 0..120 {
            let u = rng.gen_range(0..30);
            let v = rng.gen_range(0..30);
            if u != v {
                let _ = g.add_edge_weighted(NodeId::new(u), NodeId::new(v), rng.gen_range(1..5));
            }
        }
        let csr = g.to_csr();
        for &c in &weighted_clustering(&csr) {
            assert!((0.0..=1.0 + 1e-12).contains(&c), "c^w = {c}");
        }
    }

    #[test]
    fn weighted_knn_weights_neighbors_by_bandwidth() {
        // Node 0: light edge to a hub (degree 3), heavy edge to a leaf.
        let mut g = MultiGraph::new();
        g.add_nodes(6);
        let n = NodeId::new;
        g.add_edge(n(0), n(1)).unwrap(); // 1 is the hub
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(1), n(3)).unwrap();
        g.add_edge_weighted(n(0), n(4), 9).unwrap(); // 4 is a leaf
        let csr = g.to_csr();
        let knn_w = weighted_knn(&csr);
        // Unweighted knn of 0 = (3 + 1)/2 = 2; weighted = (1*3 + 9*1)/10 = 1.2.
        assert!((knn_w[0] - 1.2).abs() < 1e-12, "knn_w = {}", knn_w[0]);
        let knn_topo = crate::knn::KnnStats::measure(&csr).knn[0];
        assert!((knn_topo - 2.0).abs() < 1e-12);
        // Isolated node 5 stays 0.
        assert_eq!(knn_w[5], 0.0);
    }

    #[test]
    fn mean_weighted_clustering_handles_degenerates() {
        assert_eq!(mean_weighted_clustering(&Csr::from_edges(0, &[])), 0.0);
        assert_eq!(
            mean_weighted_clustering(&Csr::from_edges(3, &[(0, 1)])),
            0.0
        );
        let tri = Csr::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((mean_weighted_clustering(&tri) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disparity_even_vs_dominated() {
        // Even split over 4 unit edges: Y = 4 * (1/4)^2 = 1/4 = 1/k.
        let mut g = MultiGraph::new();
        g.add_nodes(6);
        let n = NodeId::new;
        for i in 1..=4 {
            g.add_edge(n(0), n(i)).unwrap();
        }
        let even = disparity(&g.to_csr());
        assert!((even[0] - 0.25).abs() < 1e-12);
        // One dominating fat pipe: Y -> close to 1.
        let mut g2 = MultiGraph::new();
        g2.add_nodes(6);
        g2.add_edge_weighted(n(0), n(1), 97).unwrap();
        for i in 2..=4 {
            g2.add_edge(n(0), n(i)).unwrap();
        }
        let dom = disparity(&g2.to_csr());
        assert!(dom[0] > 0.9, "Y = {}", dom[0]);
        // Isolated node: 0.
        assert_eq!(even[5], 0.0);
    }

    #[test]
    fn disparity_bounds() {
        let mut rng = inet_stats::rng::seeded_rng(19);
        let mut g = MultiGraph::new();
        g.add_nodes(25);
        for _ in 0..80 {
            let u = rng.gen_range(0..25);
            let v = rng.gen_range(0..25);
            if u != v {
                let _ = g.add_edge_weighted(NodeId::new(u), NodeId::new(v), rng.gen_range(1..9));
            }
        }
        let csr = g.to_csr();
        for (v, &y) in disparity(&csr).iter().enumerate() {
            let k = csr.degree(v);
            if k > 0 {
                assert!(y >= 1.0 / k as f64 - 1e-12, "Y below 1/k at {v}");
                assert!(y <= 1.0 + 1e-12, "Y above 1 at {v}");
            }
        }
    }
}

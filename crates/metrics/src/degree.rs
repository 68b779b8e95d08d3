//! Degree distribution statistics.

use inet_graph::Csr;
use inet_stats::ccdf::{ccdf_u64, Ccdf};
use inet_stats::powerlaw::{fit_discrete_auto, PowerLawFit};

/// Degree distribution of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Degree sequence indexed by node.
    pub degrees: Vec<u64>,
    /// First moment `⟨k⟩`.
    pub mean: f64,
    /// Second moment `⟨k²⟩` (drives the normalization of `k̄_nn`).
    pub second_moment: f64,
    /// Largest degree.
    pub max: u64,
    /// Number of isolated nodes (degree 0).
    pub isolated: usize,
}

impl DegreeStats {
    /// Measures the degree distribution of `g`.
    pub fn measure(g: &Csr) -> Self {
        let degrees: Vec<u64> = (0..g.node_count()).map(|v| g.degree(v) as u64).collect();
        let n = degrees.len().max(1) as f64;
        let mean = degrees.iter().sum::<u64>() as f64 / n;
        let second_moment = degrees.iter().map(|&d| (d * d) as f64).sum::<f64>() / n;
        let max = degrees.iter().copied().max().unwrap_or(0);
        let isolated = degrees.iter().filter(|&&d| d == 0).count();
        DegreeStats {
            degrees,
            mean,
            second_moment,
            max,
            isolated,
        }
    }

    /// Empirical CCDF `P(K ≥ k)` — the standard presentation of Internet
    /// degree distributions (cumulation suppresses tail noise).
    pub fn ccdf(&self) -> Ccdf {
        ccdf_u64(&self.degrees)
    }

    /// Histogram of degree values: `counts[k]` is the number of nodes of
    /// degree `k`.
    pub fn histogram(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.max as usize + 1];
        for &d in &self.degrees {
            counts[d as usize] += 1;
        }
        counts
    }

    /// Power-law tail fit with automatic `x_min` (CSN). `None` when the
    /// graph is too small or too regular to fit.
    pub fn powerlaw_fit(&self) -> Option<PowerLawFit> {
        fit_discrete_auto(&self.degrees)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn star_degrees() {
        let s = DegreeStats::measure(&star(11));
        assert_eq!(s.max, 10);
        assert_eq!(s.degrees[0], 10);
        assert!(s.degrees[1..].iter().all(|&d| d == 1));
        assert!((s.mean - 20.0 / 11.0).abs() < 1e-12);
        assert!((s.second_moment - 110.0 / 11.0).abs() < 1e-12);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn histogram_counts_by_degree() {
        let s = DegreeStats::measure(&star(5));
        let h = s.histogram();
        assert_eq!(h, vec![0, 4, 0, 0, 1]);
    }

    #[test]
    fn isolated_nodes_are_counted() {
        let g = Csr::from_edges(5, &[(0, 1)]);
        let s = DegreeStats::measure(&g);
        assert_eq!(s.isolated, 3);
        assert_eq!(s.max, 1);
    }

    #[test]
    fn empty_graph() {
        let s = DegreeStats::measure(&Csr::from_edges(0, &[]));
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0);
        assert!(s.powerlaw_fit().is_none());
    }

    #[test]
    fn ccdf_of_regular_graph() {
        // 4-cycle: all degrees 2.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let c = DegreeStats::measure(&g).ccdf();
        assert_eq!(c.values, vec![2.0]);
        assert_eq!(c.ccdf, vec![1.0]);
    }

    #[test]
    fn powerlaw_fit_on_planted_sequence() {
        // Build a graph whose degree sequence is a planted power law using a
        // star-forest construction (degrees realized approximately).
        let mut rng = inet_stats::rng::seeded_rng(9);
        let seq: Vec<u64> = (0..4000)
            .map(|_| inet_stats::powerlaw::sample_discrete(2.3, 2, &mut rng))
            .collect();
        // Not a real graph fit — just exercise the plumbing on the sequence.
        let stats = DegreeStats {
            degrees: seq,
            mean: 0.0,
            second_moment: 0.0,
            max: 0,
            isolated: 0,
        };
        let fit = stats.powerlaw_fit().unwrap();
        assert!((fit.gamma - 2.3).abs() < 0.25, "gamma {}", fit.gamma);
    }
}

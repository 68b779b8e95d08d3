//! Degree–degree correlations: average nearest-neighbors degree and the
//! assortativity coefficient.
//!
//! The Internet AS map is **disassortative**: high-degree providers connect
//! predominantly to low-degree customers, so `k̄_nn(k)` decays with `k` and
//! Newman's assortativity coefficient is negative (≈ −0.19 for the 2001 AS
//! map). Papers usually plot the *normalized* spectrum
//! `k̄_nn(k) ⟨k⟩ / ⟨k²⟩`, which is flat at 1 for uncorrelated networks.

use inet_exec::Executor;
use inet_graph::Csr;
use inet_stats::binned::{binned_mean_by_int, BinnedSpectrum};

/// Degree-correlation statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnStats {
    /// Per-node average degree of neighbors (0 for isolated nodes).
    pub knn: Vec<f64>,
    /// Newman assortativity coefficient `r ∈ [−1, 1]`; 0 when undefined
    /// (fewer than 2 edges or zero variance).
    pub assortativity: f64,
    /// `⟨k⟩ / ⟨k²⟩` normalization constant for the spectrum.
    pub normalization: f64,
}

impl KnnStats {
    /// Measures degree correlations of `g`.
    pub fn measure(g: &Csr) -> Self {
        Self::measure_threaded(g, 1)
    }

    /// [`KnnStats::measure`] with the per-node and per-edge passes fanned
    /// out over `threads` work-stealing workers. Chunk partials merge in
    /// chunk order, so results are bit-identical for any thread count.
    pub fn measure_threaded(g: &Csr, threads: usize) -> Self {
        let n = g.node_count();
        let deg: Vec<f64> = (0..n).map(|v| g.degree(v) as f64).collect();
        // Each chunk produces its own slice of knn (per-node, independent)
        // plus Newman edge sums over the edges (u, v) with u in the chunk
        // and v > u (each edge owned by its smaller endpoint exactly once).
        let partials = Executor::new(threads).map_ordered(
            n,
            || (),
            |(), range| {
                let mut knn_seg = Vec::with_capacity(range.len());
                let (mut m2, mut sum_prod, mut sum_mean, mut sum_sq) = (0.0f64, 0.0, 0.0, 0.0);
                for v in range {
                    knn_seg.push(if deg[v] > 0.0 {
                        let sum: f64 = g.neighbors(v).iter().map(|&u| deg[u as usize]).sum();
                        sum / deg[v]
                    } else {
                        0.0
                    });
                    for &w in g.neighbors(v) {
                        let w = w as usize;
                        if w <= v {
                            continue;
                        }
                        // Newman's r over edges (both orientations counted).
                        let (ju, kv) = (deg[v], deg[w]);
                        m2 += 2.0;
                        sum_prod += 2.0 * ju * kv;
                        sum_mean += ju + kv;
                        sum_sq += ju * ju + kv * kv;
                    }
                }
                (knn_seg, m2, sum_prod, sum_mean, sum_sq)
            },
        );
        let mut knn = Vec::with_capacity(n);
        let (mut m2, mut sum_prod, mut sum_mean, mut sum_sq) = (0.0f64, 0.0, 0.0, 0.0);
        for (seg, pm2, pprod, pmean, psq) in partials {
            knn.extend(seg);
            m2 += pm2;
            sum_prod += pprod;
            sum_mean += pmean;
            sum_sq += psq;
        }
        let assortativity = if m2 >= 4.0 {
            let mean = sum_mean / m2;
            let num = sum_prod / m2 - mean * mean;
            let den = sum_sq / m2 - mean * mean;
            if den.abs() < 1e-12 {
                0.0
            } else {
                num / den
            }
        } else {
            0.0
        };
        let mean_k = deg.iter().sum::<f64>() / n.max(1) as f64;
        let mean_k2 = deg.iter().map(|&d| d * d).sum::<f64>() / n.max(1) as f64;
        let normalization = if mean_k2 > 0.0 { mean_k / mean_k2 } else { 0.0 };
        KnnStats {
            knn,
            assortativity,
            normalization,
        }
    }

    /// Spectrum `k̄_nn(k)`: mean neighbor degree per exact degree value
    /// (`k ≥ 1`).
    pub fn spectrum(&self, g: &Csr) -> BinnedSpectrum {
        let (ks, ys): (Vec<u64>, Vec<f64>) = (0..g.node_count())
            .filter(|&v| g.degree(v) >= 1)
            .map(|v| (g.degree(v) as u64, self.knn[v]))
            .unzip();
        binned_mean_by_int(&ks, &ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_maximally_disassortative() {
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        let g = Csr::from_edges(6, &edges);
        let s = KnnStats::measure(&g);
        // Center sees only degree-1 leaves; leaves see only the degree-5 hub.
        assert_eq!(s.knn[0], 1.0);
        assert!(s.knn[1..].iter().all(|&x| x == 5.0));
        assert!(
            (s.assortativity + 1.0).abs() < 1e-9,
            "r = {}",
            s.assortativity
        );
    }

    #[test]
    fn regular_graph_r_is_zero_degenerate() {
        // Cycle: all degrees equal, correlation undefined -> 0 by convention.
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let s = KnnStats::measure(&g);
        assert_eq!(s.assortativity, 0.0);
        assert!(s.knn.iter().all(|&x| (x - 2.0).abs() < 1e-12));
    }

    #[test]
    fn assortative_pairing_is_positive() {
        // Two K3s joined weakly vs star: here two triangles plus a 2-chain.
        // Triangle of degree-2 nodes and path attaching degree-1 to degree-1:
        // Use: K4 (degrees 3) + K2 (degrees 1), disconnected: like-with-like.
        let mut edges = vec![(4, 5)];
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((i, j));
            }
        }
        let g = Csr::from_edges(6, &edges);
        let s = KnnStats::measure(&g);
        assert!(
            (s.assortativity - 1.0).abs() < 1e-9,
            "r = {}",
            s.assortativity
        );
    }

    #[test]
    fn knn_values_on_path() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let s = KnnStats::measure(&g);
        assert_eq!(s.knn, vec![2.0, 1.0, 2.0]);
        // <k> = 4/3, <k^2> = 2 -> normalization = 2/3.
        assert!((s.normalization - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn spectrum_and_normalized() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let s = KnnStats::measure(&g);
        let sp = s.spectrum(&g);
        assert_eq!(sp.x, vec![1.0, 2.0]);
        assert_eq!(sp.y, vec![2.0, 1.0]);
    }

    #[test]
    fn threaded_matches_serial_bitwise() {
        let mut rng = inet_stats::rng::seeded_rng(13);
        let n = 90;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.08 {
                    edges.push((i, j));
                }
            }
        }
        let g = Csr::from_edges(n, &edges);
        let serial = KnnStats::measure(&g);
        for threads in [2, 7] {
            let par = KnnStats::measure_threaded(&g, threads);
            assert_eq!(serial.assortativity.to_bits(), par.assortativity.to_bits());
            let a: Vec<u64> = serial.knn.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = par.knn.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "threads {threads}");
        }
    }

    #[test]
    fn empty_graph_defaults() {
        let s = KnnStats::measure(&Csr::from_edges(0, &[]));
        assert_eq!(s.assortativity, 0.0);
        assert_eq!(s.normalization, 0.0);
        assert!(s.knn.is_empty());
    }

    #[test]
    fn isolated_nodes_have_zero_knn() {
        let g = Csr::from_edges(3, &[(0, 1)]);
        let s = KnnStats::measure(&g);
        assert_eq!(s.knn[2], 0.0);
    }
}

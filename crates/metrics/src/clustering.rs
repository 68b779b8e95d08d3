//! Triangles and clustering coefficients.
//!
//! The clustering spectrum `c(k)` — mean local clustering of degree-`k`
//! nodes — is one of the discriminating observables for Internet models: the
//! AS map shows high clustering with a decaying, roughly power-law `c(k)`,
//! the signature of degree hierarchy.

use inet_exec::Executor;
use inet_graph::Csr;
use inet_stats::binned::{binned_mean_by_int, BinnedSpectrum};

/// Triangle and clustering statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringStats {
    /// Number of triangles through each node.
    pub triangles: Vec<u64>,
    /// Local clustering coefficient of each node (0 for degree < 2).
    pub local: Vec<f64>,
    /// Total number of distinct triangles in the graph.
    pub triangle_count: u64,
    /// Average of the local coefficients over nodes with degree ≥ 2.
    pub mean_local: f64,
    /// Global transitivity: `3 × triangles / paths of length 2`.
    pub transitivity: f64,
}

impl ClusteringStats {
    /// Counts triangles with the forward (degree-ordered) algorithm and
    /// derives the clustering coefficients.
    pub fn measure(g: &Csr) -> Self {
        Self::measure_threaded(g, 1)
    }

    /// [`ClusteringStats::measure`] with the triangle pass fanned out over
    /// `threads` work-stealing workers (node ranges). Triangle counts are
    /// integers, so the folded result is identical for any thread count.
    ///
    /// Edges are oriented from lower to higher degree rank, so each
    /// triangle `r < s < t` is discovered exactly once by intersecting the
    /// out-lists of `r` and `s`. Hubs end up with tiny out-lists, which
    /// turns the seed's `O(Σ_v d_v²)` edge-merge — dominated by hub rows on
    /// heavy-tailed graphs — into roughly `O(E^{3/2})` with small
    /// constants. The per-node counts are identical integers, so every
    /// derived coefficient matches the seed bit-for-bit.
    pub fn measure_threaded(g: &Csr, threads: usize) -> Self {
        let n = g.node_count();
        // rank r of node v: position in (degree asc, id asc) order. The
        // oriented adjacency lives entirely in rank space.
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        by_rank.sort_by_key(|&v| (g.degree(v as usize), v));
        let mut rank_of = vec![0u32; n];
        for (r, &v) in by_rank.iter().enumerate() {
            rank_of[v as usize] = r as u32;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            let rv = rank_of[v];
            offsets[rv as usize + 1] = g
                .neighbors(v)
                .iter()
                .filter(|&&u| rank_of[u as usize] > rv)
                .count();
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut out = vec![0u32; offsets[n]];
        let mut cursor = offsets.clone();
        for v in 0..n {
            let rv = rank_of[v] as usize;
            for &u in g.neighbors(v) {
                let ru = rank_of[u as usize];
                if ru as usize > rv {
                    out[cursor[rv]] = ru;
                    cursor[rv] += 1;
                }
            }
            out[offsets[rv]..cursor[rv]].sort_unstable();
        }
        let out = &out[..];
        let offsets = &offsets[..];

        // Every corner of a found triangle can be any rank, so each chunk
        // accumulates into a full-length partial. The streaming fold adds
        // each into the totals as it finishes, in chunk order, so about
        // `threads` partials (about `threads × n` counts) are alive at once.
        let tri_rank = Executor::new(threads).fold_ordered(
            n,
            vec![0u64; n],
            || (),
            |(), range| {
                let mut tri = vec![0u64; n];
                for r in range {
                    let a = &out[offsets[r]..offsets[r + 1]];
                    for (ai, &s) in a.iter().enumerate() {
                        let b = &out[offsets[s as usize]..offsets[s as usize + 1]];
                        // Common out-neighbors t satisfy t > s, so skip the
                        // prefix of `a` up to and including s.
                        let (mut i, mut j) = (ai + 1, 0usize);
                        while i < a.len() && j < b.len() {
                            match a[i].cmp(&b[j]) {
                                std::cmp::Ordering::Less => i += 1,
                                std::cmp::Ordering::Greater => j += 1,
                                std::cmp::Ordering::Equal => {
                                    tri[r] += 1;
                                    tri[s as usize] += 1;
                                    tri[a[i] as usize] += 1;
                                    i += 1;
                                    j += 1;
                                }
                            }
                        }
                    }
                }
                tri
            },
            |tri_rank, part| {
                for (slot, t) in tri_rank.iter_mut().zip(part) {
                    *slot += t;
                }
            },
        );
        let triangles: Vec<u64> = (0..n).map(|v| tri_rank[rank_of[v] as usize]).collect();
        let triangle_count: u64 = triangles.iter().sum::<u64>() / 3;
        Self::derive(g, triangles, triangle_count)
    }

    /// Derives the coefficient fields from per-node triangle counts.
    fn derive(g: &Csr, triangles: Vec<u64>, triangle_count: u64) -> Self {
        let n = g.node_count();
        let mut local = vec![0.0f64; n];
        let mut sum_local = 0.0;
        let mut n_eligible = 0usize;
        let mut paths2: u64 = 0;
        for v in 0..n {
            let d = g.degree(v) as u64;
            paths2 += d * d.saturating_sub(1) / 2;
            if d >= 2 {
                local[v] = 2.0 * triangles[v] as f64 / (d * (d - 1)) as f64;
                sum_local += local[v];
                n_eligible += 1;
            }
        }
        let mean_local = if n_eligible > 0 {
            sum_local / n_eligible as f64
        } else {
            0.0
        };
        let transitivity = if paths2 > 0 {
            3.0 * triangle_count as f64 / paths2 as f64
        } else {
            0.0
        };
        ClusteringStats {
            triangles,
            local,
            triangle_count,
            mean_local,
            transitivity,
        }
    }

    /// Clustering spectrum `c(k)`: mean local clustering per exact degree
    /// value, for `k ≥ 2`.
    pub fn spectrum(&self, g: &Csr) -> BinnedSpectrum {
        let (ks, cs): (Vec<u64>, Vec<f64>) = (0..g.node_count())
            .filter(|&v| g.degree(v) >= 2)
            .map(|v| (g.degree(v) as u64, self.local[v]))
            .unzip();
        binned_mean_by_int(&ks, &cs)
    }
}

#[cfg(test)]
impl ClusteringStats {
    /// The seed's sequential edge-iterator merge algorithm
    /// (`O(Σ_(u,v)∈E (d_u + d_v))` on sorted CSR rows): the oracle of the
    /// forward-equals-seed tests.
    pub(crate) fn measure_unfused(g: &Csr) -> Self {
        let n = g.node_count();
        let mut triangles = vec![0u64; n];
        for u in 0..n {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if v <= u {
                    continue;
                }
                // For every edge (u, v) with u < v, every common neighbor x
                // closes one triangle {u, v, x}; crediting only x makes each
                // triangle credit each of its corners exactly once (via its
                // opposite edge).
                let (a, b) = (g.neighbors(u), g.neighbors(v));
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            triangles[a[i] as usize] += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        let triangle_count: u64 = triangles.iter().sum::<u64>() / 3;
        Self::derive(g, triangles, triangle_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_graph() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let c = ClusteringStats::measure(&g);
        assert_eq!(c.triangle_count, 1);
        assert_eq!(c.triangles, vec![1, 1, 1]);
        assert_eq!(c.local, vec![1.0, 1.0, 1.0]);
        assert!((c.mean_local - 1.0).abs() < 1e-12);
        assert!((c.transitivity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = ClusteringStats::measure(&g);
        assert_eq!(c.triangle_count, 0);
        assert!(c.local.iter().all(|&x| x == 0.0));
        assert_eq!(c.transitivity, 0.0);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let c = ClusteringStats::measure(&Csr::from_edges(5, &edges));
        assert_eq!(c.triangle_count, 10); // C(5,3)
        assert!(c.triangles.iter().all(|&t| t == 6)); // C(4,2)
        assert!((c.mean_local - 1.0).abs() < 1e-12);
        assert!((c.transitivity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_with_tail_mixes_values() {
        // Triangle 0-1-2 plus tail 2-3.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let c = ClusteringStats::measure(&g);
        assert_eq!(c.triangle_count, 1);
        assert_eq!(c.local[0], 1.0);
        assert_eq!(c.local[1], 1.0);
        assert!((c.local[2] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            c.local[3], 0.0,
            "degree-1 node has clustering 0 by convention"
        );
        // mean over eligible (deg >= 2) nodes: (1 + 1 + 1/3)/3.
        assert!((c.mean_local - (7.0 / 3.0) / 3.0).abs() < 1e-12);
        // transitivity: 3*1 / (1 + 1 + 3 + 0) = 3/5.
        assert!((c.transitivity - 0.6).abs() < 1e-12);
    }

    #[test]
    fn spectrum_groups_by_degree() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let c = ClusteringStats::measure(&g);
        let s = c.spectrum(&g);
        assert_eq!(s.x, vec![2.0, 3.0]);
        assert_eq!(s.y[0], 1.0);
        assert!((s.y[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_node() {
        let c = ClusteringStats::measure(&Csr::from_edges(0, &[]));
        assert_eq!(c.triangle_count, 0);
        assert_eq!(c.mean_local, 0.0);
        let c = ClusteringStats::measure(&Csr::from_edges(1, &[]));
        assert_eq!(c.local, vec![0.0]);
    }

    #[test]
    fn threaded_matches_serial_bitwise() {
        let mut rng = inet_stats::rng::seeded_rng(31);
        let n = 80;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.1 {
                    edges.push((i, j));
                }
            }
        }
        let g = Csr::from_edges(n, &edges);
        let serial = ClusteringStats::measure(&g);
        for threads in [2, 5] {
            assert_eq!(serial, ClusteringStats::measure_threaded(&g, threads));
        }
    }

    #[test]
    fn forward_matches_seed_edge_merge_exactly() {
        let mut rng = inet_stats::rng::seeded_rng(41);
        for (n, p) in [(60, 0.08), (40, 0.2), (25, 0.5)] {
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_range(0.0..1.0) < p {
                        edges.push((i, j));
                    }
                }
            }
            let g = Csr::from_edges(n, &edges);
            // Integer triangle counts, so full struct equality — not just
            // approximate coefficients.
            assert_eq!(
                ClusteringStats::measure(&g),
                ClusteringStats::measure_unfused(&g)
            );
        }
    }

    /// Brute-force cross-check on a random graph.
    #[test]
    fn matches_brute_force_enumeration() {
        let mut rng = inet_stats::rng::seeded_rng(77);
        let n = 30;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.2 {
                    edges.push((i, j));
                }
            }
        }
        let g = Csr::from_edges(n, &edges);
        let c = ClusteringStats::measure(&g);
        let mut brute = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    if g.has_edge(i, j) && g.has_edge(j, k) && g.has_edge(i, k) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(c.triangle_count, brute);
    }
}

//! Census of short simple cycles (loops of size 3, 4, 5).
//!
//! Bianconi, Caldarelli & Capocci (PRE 71, 066116, 2005) measured the
//! scaling of the number of `h`-cycles with system size on Internet AS maps,
//! `N_h(N) ∼ N^{ξ(h)}`, and found it a sharp discriminator between models.
//! This module computes the exact counts:
//!
//! * `C₃` — from the per-node triangle counts.
//! * `C₄ = ½ Σ_{u<w} C(p₂(u,w), 2)` where `p₂` counts common neighbors:
//!   every 4-cycle is identified by its two diagonals.
//! * `C₅ = [tr(A⁵) − 30·C₃ − 10·Σ_v t_v (d_v − 2)] / 10` (Harary–Manvel):
//!   closed 5-walks decompose into 5-cycles plus triangle excursions.
//!
//! `tr(A⁵)` is evaluated with one sparse `A²` row per node — no dense matrix
//! — via `(A⁵)_vv = Σ_{x,y} (A²)_{vx} A_{xy} (A²)_{yv}`. Costs grow with the
//! square of hub degrees; exact counting up to `N ≈ 2·10⁴` heavy-tailed
//! nodes is practical in release builds. The test suite validates every
//! formula against brute-force cycle enumeration.

use crate::clustering::ClusteringStats;
use inet_exec::Executor;
use inet_graph::Csr;

/// Exact counts of simple cycles of length 3, 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleCensus {
    /// Number of triangles.
    pub c3: u64,
    /// Number of simple 4-cycles.
    pub c4: u64,
    /// Number of simple 5-cycles.
    pub c5: u64,
}

impl CycleCensus {
    /// Counts 3-, 4- and 5-cycles of `g`.
    pub fn measure(g: &Csr) -> Self {
        Self::measure_threaded(g, 1)
    }

    /// [`CycleCensus::measure`] with the per-node `A²`-row pass fanned out
    /// over `threads` work-stealing workers.
    pub fn measure_threaded(g: &Csr, threads: usize) -> Self {
        let clustering = ClusteringStats::measure_threaded(g, threads);
        Self::measure_with_clustering_threaded(g, &clustering, threads)
    }

    /// [`CycleCensus::measure_threaded`], reusing already-computed
    /// clustering statistics (triangle counts). All accumulations are
    /// integers, so the census is identical for any thread count.
    pub fn measure_with_clustering_threaded(
        g: &Csr,
        clustering: &ClusteringStats,
        threads: usize,
    ) -> Self {
        let n = g.node_count();
        let c3 = clustering.triangle_count;

        // Per-worker scratch: counts[w] = (A²)_{vw} for the current v;
        // touched tracks the nonzero support for O(support) reset.
        let partials = Executor::new(threads).map_ordered(
            n,
            || (vec![0u32; n], Vec::<u32>::new()),
            |(counts, touched), range| {
                let mut c4_ordered: u128 = 0;
                let mut tr5: u128 = 0;
                for v in range {
                    // Build the sparse A² row of v (including the diagonal
                    // d_v).
                    for &u in g.neighbors(v) {
                        for &w in g.neighbors(u as usize) {
                            if counts[w as usize] == 0 {
                                touched.push(w);
                            }
                            counts[w as usize] += 1;
                        }
                    }
                    // C4: ordered-pair accumulation over w != v.
                    for &w in touched.iter() {
                        let c = counts[w as usize] as u128;
                        if w as usize != v && c >= 2 {
                            c4_ordered += c * (c - 1) / 2;
                        }
                    }
                    // tr(A⁵): Σ_x counts[x] Σ_{y ∈ N(x)} counts[y].
                    for &x in touched.iter() {
                        let cx = counts[x as usize] as u128;
                        if cx == 0 {
                            continue;
                        }
                        let mut inner: u128 = 0;
                        for &y in g.neighbors(x as usize) {
                            inner += counts[y as usize] as u128;
                        }
                        tr5 += cx * inner;
                    }
                    for &w in touched.iter() {
                        counts[w as usize] = 0;
                    }
                    touched.clear();
                }
                (c4_ordered, tr5)
            },
        );
        let (c4_ordered, tr5) = partials
            .into_iter()
            .fold((0u128, 0u128), |(a, b), (pa, pb)| (a + pa, b + pb));

        let c4 = (c4_ordered / 4) as u64;

        // Harary–Manvel correction terms.
        let mut excursions: u128 = 0; // Σ_v t_v (d_v − 2)
        for v in 0..n {
            let d = g.degree(v) as i128;
            let t = clustering.triangles[v] as i128;
            let term = t * (d - 2);
            debug_assert!(term >= 0, "t_v > 0 implies d_v >= 2");
            excursions += term as u128;
        }
        let numerator = tr5 as i128 - 30 * c3 as i128 - 10 * excursions as i128;
        debug_assert!(
            numerator >= 0 && numerator % 10 == 0,
            "tr(A^5) bookkeeping broke"
        );
        let c5 = (numerator / 10) as u64;

        CycleCensus { c3, c4, c5 }
    }

    /// Count for cycle length `h ∈ {3, 4, 5}`.
    pub fn count(&self, h: u32) -> Option<u64> {
        match h {
            3 => Some(self.c3),
            4 => Some(self.c4),
            5 => Some(self.c5),
            _ => None,
        }
    }
}

/// Brute-force census by exhaustive enumeration — exponential; intended for
/// validation on graphs with at most ~16 nodes.
///
/// # Panics
///
/// Panics if the graph has more than 24 nodes (would take forever).
pub fn brute_force_census(g: &Csr) -> CycleCensus {
    let n = g.node_count();
    assert!(n <= 24, "brute force is for tiny validation graphs only");
    let adj = |a: usize, b: usize| g.has_edge(a, b);

    let mut c3 = 0u64;
    for a in 0..n {
        for b in (a + 1)..n {
            if !adj(a, b) {
                continue;
            }
            for c in (b + 1)..n {
                if adj(a, c) && adj(b, c) {
                    c3 += 1;
                }
            }
        }
    }

    // 4-cycles: choose the smallest vertex a, then an ordered pair of its
    // cycle-neighbors (b, d) with b < d, and the opposite vertex c.
    let mut c4 = 0u64;
    for a in 0..n {
        for b in (a + 1)..n {
            if !adj(a, b) {
                continue;
            }
            for d in (b + 1)..n {
                if !adj(a, d) {
                    continue;
                }
                for c in (a + 1)..n {
                    if c != b && c != d && adj(b, c) && adj(d, c) {
                        c4 += 1;
                    }
                }
            }
        }
    }

    // 5-cycles: smallest vertex a, neighbors b < e on the cycle, middle
    // path b-c-d-e.
    let mut c5 = 0u64;
    for a in 0..n {
        for b in (a + 1)..n {
            if !adj(a, b) {
                continue;
            }
            for e in (b + 1)..n {
                if !adj(a, e) {
                    continue;
                }
                for c in (a + 1)..n {
                    if c == b || c == e || !adj(b, c) {
                        continue;
                    }
                    for d in (a + 1)..n {
                        if d != b && d != c && d != e && adj(c, d) && adj(d, e) {
                            c5 += 1;
                        }
                    }
                }
            }
        }
    }
    CycleCensus { c3, c4, c5 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Csr::from_edges(n, &edges)
    }

    fn complete(n: usize) -> Csr {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn pure_cycles() {
        assert_eq!(
            CycleCensus::measure(&cycle(3)),
            CycleCensus {
                c3: 1,
                c4: 0,
                c5: 0
            }
        );
        assert_eq!(
            CycleCensus::measure(&cycle(4)),
            CycleCensus {
                c3: 0,
                c4: 1,
                c5: 0
            }
        );
        assert_eq!(
            CycleCensus::measure(&cycle(5)),
            CycleCensus {
                c3: 0,
                c4: 0,
                c5: 1
            }
        );
        assert_eq!(
            CycleCensus::measure(&cycle(6)),
            CycleCensus {
                c3: 0,
                c4: 0,
                c5: 0
            }
        );
    }

    #[test]
    fn trees_have_no_cycles() {
        let g = Csr::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        assert_eq!(
            CycleCensus::measure(&g),
            CycleCensus {
                c3: 0,
                c4: 0,
                c5: 0
            }
        );
    }

    #[test]
    fn complete_graph_closed_forms() {
        // K_n: C3 = C(n,3), C4 = 3·C(n,4), C5 = 12·C(n,5).
        for n in 4..=7 {
            let census = CycleCensus::measure(&complete(n));
            let choose =
                |n: u64, k: u64| -> u64 { (0..k).fold(1u64, |acc, i| acc * (n - i) / (i + 1)) };
            assert_eq!(census.c3, choose(n as u64, 3), "K{n} triangles");
            assert_eq!(census.c4, 3 * choose(n as u64, 4), "K{n} squares");
            assert_eq!(census.c5, 12 * choose(n as u64, 5), "K{n} pentagons");
        }
    }

    #[test]
    fn petersen_graph() {
        // Petersen graph: girth 5, exactly 12 5-cycles, no 3- or 4-cycles.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0), // outer C5
            (5, 7),
            (7, 9),
            (9, 6),
            (6, 8),
            (8, 5), // inner pentagram
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9), // spokes
        ];
        let g = Csr::from_edges(10, &edges);
        let census = CycleCensus::measure(&g);
        assert_eq!(
            census,
            CycleCensus {
                c3: 0,
                c4: 0,
                c5: 12
            }
        );
    }

    #[test]
    fn complete_bipartite_k23() {
        // K_{2,3}: no odd cycles; C4 = C(2,2)*C(3,2) = 3.
        let g = Csr::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]);
        let census = CycleCensus::measure(&g);
        assert_eq!(
            census,
            CycleCensus {
                c3: 0,
                c4: 3,
                c5: 0
            }
        );
    }

    #[test]
    fn count_accessor() {
        let c = CycleCensus {
            c3: 1,
            c4: 2,
            c5: 3,
        };
        assert_eq!(c.count(3), Some(1));
        assert_eq!(c.count(4), Some(2));
        assert_eq!(c.count(5), Some(3));
        assert_eq!(c.count(6), None);
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(
            CycleCensus::measure(&Csr::from_edges(0, &[])),
            CycleCensus {
                c3: 0,
                c4: 0,
                c5: 0
            }
        );
        assert_eq!(
            CycleCensus::measure(&Csr::from_edges(2, &[(0, 1)])),
            CycleCensus {
                c3: 0,
                c4: 0,
                c5: 0
            }
        );
    }

    #[test]
    fn threaded_matches_serial() {
        let mut rng = inet_stats::rng::seeded_rng(19);
        let n = 60;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.12 {
                    edges.push((i, j));
                }
            }
        }
        let g = Csr::from_edges(n, &edges);
        let serial = CycleCensus::measure(&g);
        for threads in [2, 5] {
            assert_eq!(serial, CycleCensus::measure_threaded(&g, threads));
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..12u64 {
            let mut rng = inet_stats::rng::seeded_rng(seed);
            let n = rng.gen_range(5..13);
            let p = rng.gen_range(0.15..0.6);
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_range(0.0..1.0) < p {
                        edges.push((i, j));
                    }
                }
            }
            let g = Csr::from_edges(n, &edges);
            let fast = CycleCensus::measure(&g);
            let brute = brute_force_census(&g);
            assert_eq!(fast, brute, "seed {seed}, n {n}, p {p}");
        }
    }
}

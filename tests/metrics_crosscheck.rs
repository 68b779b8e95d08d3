//! Cross-module consistency checks: independent code paths must agree on
//! the same quantities.

use inet_model::metrics::{
    betweenness, ClusteringStats, CycleCensus, DegreeStats, KCoreDecomposition, PathStats,
};
use inet_model::prelude::*;

fn as_like(n: usize, seed: u64) -> Csr {
    let mut rng = seeded_rng(seed);
    let net = InetLike::as_map_2001(n).generate(&mut rng);
    let (giant, _) = inet_model::graph::traversal::giant_component(&net.graph.to_csr());
    giant
}

#[test]
fn triangle_counts_agree_between_clustering_and_census() {
    let g = as_like(800, 1);
    let clustering = ClusteringStats::measure(&g);
    let census = CycleCensus::measure(&g);
    assert_eq!(clustering.triangle_count, census.c3);
    // And the census path that reuses clustering agrees with the fresh one.
    let reused = CycleCensus::measure_with_clustering_threaded(&g, &clustering, 1);
    assert_eq!(census, reused);
}

#[test]
fn degree_moments_agree_with_graph_counts() {
    let g = as_like(600, 2);
    let stats = DegreeStats::measure(&g);
    assert!((stats.mean - g.mean_degree()).abs() < 1e-12);
    assert_eq!(stats.max as usize, g.max_degree());
    let handshake: u64 = stats.degrees.iter().sum();
    assert_eq!(handshake as usize, 2 * g.edge_count());
}

#[test]
fn betweenness_and_paths_agree_on_a_line() {
    // On a path graph both are closed-form; check the two modules against
    // each other and the formulas.
    let n = 30;
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let g = Csr::from_edges(n, &edges);
    let bc = betweenness(&g);
    let paths = PathStats::measure(&g);
    // Sum of betweenness = sum over pairs of (path length - 1) since every
    // interior vertex of the unique shortest path gains 1.
    let bc_sum: f64 = bc.iter().sum();
    let interior_sum: f64 = paths
        .counts
        .iter()
        .enumerate()
        .map(|(d, &c)| (d.saturating_sub(1)) as f64 * c as f64 / 2.0)
        .sum();
    assert!(
        (bc_sum - interior_sum).abs() < 1e-6,
        "betweenness mass {bc_sum} vs path interior mass {interior_sum}"
    );
}

#[test]
fn kcore_of_giant_is_bounded_by_degrees() {
    let g = as_like(700, 3);
    let core = KCoreDecomposition::measure(&g);
    let stats = DegreeStats::measure(&g);
    assert!(core.coreness() as u64 <= stats.max);
    for v in 0..g.node_count() {
        assert!(core.core[v] as usize <= g.degree(v));
    }
    // Shell sizes partition the graph.
    assert_eq!(core.shell_sizes.iter().sum::<usize>(), g.node_count());
}

#[test]
fn rewired_null_model_keeps_degrees_but_moves_edges() {
    let g = as_like(900, 4);
    let mut rng = seeded_rng(5);
    let rewired = inet_model::metrics::randomize::rewire_degree_preserving(&g, 10, &mut rng);
    let before = DegreeStats::measure(&g);
    let after = DegreeStats::measure(&rewired);
    assert_eq!(before.degrees, after.degrees, "degrees are invariant");
    assert_eq!(g.edge_count(), rewired.edge_count());
    assert!(rewired.validate());
    // The edge *set* must actually change (structure destroyed). Note:
    // mean local clustering is NOT guaranteed to drop under rewiring of a
    // heavy-tailed graph — chance hub-hub triangles can raise it — so we
    // assert edge movement, not a clustering direction.
    let set = |g: &Csr| {
        g.edges()
            .map(|(u, v, _)| (u, v))
            .collect::<std::collections::HashSet<_>>()
    };
    let overlap = set(&g).intersection(&set(&rewired)).count();
    assert!(
        (overlap as f64) < 0.8 * g.edge_count() as f64,
        "only {overlap}/{} edges moved",
        g.edge_count()
    );
}

#[test]
fn csr_and_multigraph_agree_through_reports() {
    let mut rng = seeded_rng(6);
    let net = Pfp::internet(500).generate(&mut rng);
    let g = &net.graph;
    let csr = g.to_csr();
    // The snapshot keeps every neighbour list and weight of the multigraph.
    for v in 0..g.node_count() {
        let want: Vec<(u32, u64)> = g
            .neighbors(NodeId::new(v))
            .map(|(u, w)| (u.index() as u32, w))
            .collect();
        let got: Vec<(u32, u64)> = csr
            .neighbors(v)
            .iter()
            .copied()
            .zip(csr.neighbor_weights(v).iter().copied())
            .collect();
        assert_eq!(got, want, "node {v}");
    }
    let r = TopologyReport::measure(&csr);
    assert_eq!(r.nodes, g.node_count());
    assert_eq!(r.edges, g.edge_count());
    assert!((r.mean_degree - g.mean_degree()).abs() < 1e-12);
}

//! Property-based tests for the graph substrate.

use inet_graph::{traversal, Csr, MultiGraph, NodeId};
use inet_stats::rng::{check, StdRng};

/// A random edge set over `n` nodes (possibly with duplicates, never
/// self-loops), n in 2..40.
fn edge_set(rng: &mut StdRng) -> (usize, Vec<(usize, usize)>) {
    let n = rng.gen_range(2..40usize);
    let len = rng.gen_range(0..120usize);
    let mut edges = Vec::with_capacity(len);
    while edges.len() < len {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            edges.push((u, v));
        }
    }
    (n, edges)
}

/// Sum of degrees equals twice the edge count; sum of strengths equals
/// twice the total weight.
#[test]
fn handshake_lemma() {
    check(256, |rng| {
        let (n, edges) = edge_set(rng);
        let g = MultiGraph::from_edges(n, edges).unwrap();
        let deg_sum: usize = g.degrees().iter().sum();
        assert_eq!(deg_sum, 2 * g.edge_count());
        let strength_sum: u64 = g.strengths().iter().sum();
        assert_eq!(strength_sum, 2 * g.total_weight());
        assert!(g.validate().is_ok());
    });
}

/// CSR snapshot and the multigraph agree on every query and on every
/// neighbour list.
#[test]
fn csr_round_trip() {
    check(256, |rng| {
        let (n, edges) = edge_set(rng);
        let g = MultiGraph::from_edges(n, edges).unwrap();
        let csr = g.to_csr();
        assert!(csr.validate());
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.total_weight(), g.total_weight());
        for v in 0..n {
            assert_eq!(csr.degree(v), g.degree(NodeId::new(v)));
            assert_eq!(csr.strength(v), g.strength(NodeId::new(v)));
            for u in 0..n {
                assert_eq!(
                    csr.edge_weight(v, u),
                    g.weight(NodeId::new(v), NodeId::new(u))
                );
            }
        }
        for v in 0..n {
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
    });
}

/// Edge-list serialization round-trips exactly (non-empty graphs keep their
/// trailing isolated nodes only if they carry edges; we compare on a graph
/// whose last node is guaranteed to touch an edge).
#[test]
fn io_round_trip() {
    check(256, |rng| {
        let (n, mut edges) = edge_set(rng);
        // Anchor the max node so the parsed node count matches.
        edges.push((0, n - 1));
        let g = MultiGraph::from_edges(n, edges).unwrap();
        let mut buf = Vec::new();
        inet_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let parsed = inet_graph::io::read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(parsed, g);
    });
}

/// BFS distances satisfy the triangle property along edges:
/// |d(u) - d(v)| <= 1 for every edge (u, v), and d is 0 only at source.
#[test]
fn bfs_distance_is_lipschitz_on_edges() {
    check(256, |rng| {
        let (n, edges) = edge_set(rng);
        let csr = Csr::from_edges(n, &edges);
        let dist = traversal::bfs_distances(&csr, 0);
        assert_eq!(dist[0], 0);
        for (u, v, _) in csr.edges() {
            let du = dist[u];
            let dv = dist[v];
            if du != traversal::UNREACHABLE || dv != traversal::UNREACHABLE {
                assert!(
                    du != traversal::UNREACHABLE && dv != traversal::UNREACHABLE,
                    "an edge cannot cross the reachable boundary"
                );
                assert!(du.abs_diff(dv) <= 1);
            }
        }
        for (v, &d) in dist.iter().enumerate() {
            if v != 0 {
                assert!(d != 0);
            }
        }
    });
}

/// Component labels partition the nodes: every edge stays within one
/// component, sizes sum to N, and the giant component is the biggest.
#[test]
fn components_partition() {
    check(256, |rng| {
        let (n, edges) = edge_set(rng);
        let csr = Csr::from_edges(n, &edges);
        let comps = traversal::connected_components(&csr);
        assert_eq!(comps.labels.len(), n);
        assert_eq!(comps.sizes.iter().sum::<usize>(), n);
        for (u, v, _) in csr.edges() {
            assert_eq!(comps.labels[u], comps.labels[v]);
        }
        let (giant, map) = traversal::giant_component(&csr);
        assert!(giant.validate());
        let giant_label = comps.giant_label().unwrap();
        assert_eq!(giant.node_count(), comps.sizes[giant_label as usize]);
        for (new, &old) in map.iter().enumerate() {
            assert_eq!(giant.degree(new), csr.degree(old));
        }
    });
}

/// The edge-list reader is total over arbitrary (including malformed and
/// adversarial) input lines: every line shape either parses or returns a
/// structured error — never a panic, and never an attempted giant
/// allocation from an oversized id.
#[test]
fn reader_is_total_on_arbitrary_lines() {
    check(256, |rng| {
        let text = (0..rng.gen_range(0..24usize))
            .map(|_| {
                let (u, v) = (rng.next_u64(), rng.next_u64());
                match rng.gen_range(0..8usize) {
                    0 => format!("{u} {v}"),
                    1 => format!("{u} {v} {}", v.wrapping_add(1)),
                    2 => format!("{u}"),
                    3 => format!("x{u} {v}"),
                    4 => format!("# nodes {u}"),
                    5 => format!("{u} {v} 0"),
                    6 => format!("{u} {v} {v} {u}"),
                    _ => format!("   # junk {u}"),
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        // Must return (Ok or Err) promptly; a parsed graph respects the cap.
        if let Ok(g) = inet_graph::io::read_edge_list(text.as_bytes()) {
            assert!(g.node_count() <= inet_graph::io::MAX_NODES);
        }
    });
}

/// Any node id at or above the cap is rejected with a parse error that
/// names the offending line.
#[test]
fn oversized_ids_always_error() {
    check(256, |rng| {
        let small = rng.gen_range(0..1000u64);
        let huge = rng.gen_range(inet_graph::io::MAX_NODES as u64..u64::MAX);
        let line = if rng.gen_bool(0.5) {
            format!("{small} {huge}")
        } else {
            format!("{huge} {small}")
        };
        let err = inet_graph::io::read_edge_list(line.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    });
}

/// Removing an edge then re-adding it with the same weight restores the
/// exact graph.
#[test]
fn remove_then_readd_is_identity() {
    check(256, |rng| {
        let (n, mut edges) = edge_set(rng);
        edges.push((0, 1)); // guarantee at least one edge
        let g0 = MultiGraph::from_edges(n, edges).unwrap();
        let mut g = g0.clone();
        let (u, v, w) = g0.edges().next().unwrap();
        let removed = g.remove_edge(u, v).unwrap();
        assert_eq!(removed, w);
        g.add_edge_weighted(u, v, w).unwrap();
        assert_eq!(g, g0);
    });
}

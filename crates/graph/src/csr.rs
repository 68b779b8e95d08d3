//! Immutable compressed-sparse-row snapshot.

use crate::{MultiGraph, NodeId};

/// Immutable undirected graph in compressed-sparse-row form.
///
/// Each undirected edge is stored twice (once per direction). Neighbor lists
/// are sorted ascending, so membership tests are `O(log d)` binary searches
/// and set intersections (triangle counting) are linear merges.
///
/// `Csr` keeps the multigraph's weights but exposes the *simple* topology:
/// `degree` counts distinct neighbors, which is the quantity all standard
/// Internet-topology measures are defined on. Weighted measures read the
/// parallel `weights` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `targets`/`weights` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    targets: Vec<u32>,
    /// Weight of the edge to the corresponding target.
    weights: Vec<u64>,
    /// Number of distinct undirected edges.
    edge_count: usize,
    /// Sum of weights over distinct undirected edges.
    total_weight: u64,
}

impl Csr {
    /// Builds a snapshot from a [`MultiGraph`].
    pub fn from_multigraph(g: &MultiGraph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        let mut weights = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for v in 0..n {
            for (u, w) in g.neighbors(NodeId::new(v)) {
                targets.push(u.as_u32());
                weights.push(w);
            }
            offsets.push(targets.len());
        }
        Csr {
            offsets,
            targets,
            weights,
            edge_count: g.edge_count(),
            total_weight: g.total_weight(),
        }
    }

    /// Builds a snapshot directly from unit-weight undirected edges over
    /// `nodes` nodes. Duplicate pairs accumulate weight; self-loops are
    /// skipped (callers that must *detect* them should use [`MultiGraph`]).
    pub fn from_edges(nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = MultiGraph::with_capacity(nodes);
        g.add_nodes(nodes);
        for &(u, v) in edges {
            if u != v && u < nodes && v < nodes {
                let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        g.to_csr()
    }

    /// Relabels the nodes: node `v` becomes `new_of[v]`. Each adjacency
    /// list is mapped and re-sorted, its weights travelling with their
    /// targets, so the result equals [`Csr::from_edges`] over the mapped
    /// edges without building a [`MultiGraph`] on the way.
    ///
    /// # Panics
    ///
    /// Panics if `new_of` is not a permutation of `0..node_count()`.
    pub fn permuted(&self, new_of: &[u32]) -> Csr {
        let n = self.node_count();
        assert_eq!(new_of.len(), n, "permutation length mismatch");
        let mut old_of = vec![u32::MAX; n];
        for (old, &new) in new_of.iter().enumerate() {
            let slot = std::mem::replace(&mut old_of[new as usize], old as u32);
            assert_eq!(slot, u32::MAX, "not a permutation");
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len());
        let mut weights = Vec::with_capacity(self.weights.len());
        let mut list: Vec<(u32, u64)> = Vec::new();
        offsets.push(0);
        for &old in &old_of {
            let old = old as usize;
            let mapped = self.neighbors(old).iter().map(|&t| new_of[t as usize]);
            list.clear();
            list.extend(mapped.zip(self.neighbor_weights(old).iter().copied()));
            list.sort_unstable_by_key(|&(t, _)| t);
            targets.extend(list.iter().map(|&(t, _)| t));
            weights.extend(list.iter().map(|&(_, w)| w));
            offsets.push(targets.len());
        }
        Csr {
            offsets,
            targets,
            weights,
            edge_count: self.edge_count,
            total_weight: self.total_weight,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sum of weights over distinct undirected edges (total bandwidth `B`).
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Sorted slice of distinct neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count()`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights parallel to [`Csr::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: usize) -> &[u64] {
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Topological degree of `v` (distinct neighbors).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Strength of `v`: sum of incident edge weights.
    #[inline]
    pub fn strength(&self, v: usize) -> u64 {
        self.neighbor_weights(v).iter().sum()
    }

    /// `true` when `u` and `v` are adjacent. `O(log d_u)`.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Weight of edge `(u, v)`; 0 when absent.
    #[inline]
    pub fn edge_weight(&self, u: usize, v: usize) -> u64 {
        match self.neighbors(u).binary_search(&(v as u32)) {
            Ok(i) => self.neighbor_weights(u)[i],
            Err(_) => 0,
        }
    }

    /// Degree sequence indexed by node.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.node_count()).map(|v| self.degree(v)).collect()
    }

    /// Strength sequence indexed by node.
    pub fn strengths(&self) -> Vec<u64> {
        (0..self.node_count()).map(|v| self.strength(v)).collect()
    }

    /// Largest degree in the graph; 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2E / N`; 0 for an empty graph.
    pub fn mean_degree(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            0.0
        } else {
            2.0 * self.edge_count as f64 / n as f64
        }
    }

    /// Iterates over distinct undirected edges as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.neighbor_weights(u))
                .filter(move |(&t, _)| (t as usize) > u)
                .map(move |(&t, &w)| (u, t as usize, w))
        })
    }

    /// Extracts the subgraph induced by the nodes where `keep[v]` is true.
    ///
    /// Returns the subgraph plus the mapping `new index -> old index`.
    /// Weights are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != node_count()`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Csr, Vec<usize>) {
        assert_eq!(keep.len(), self.node_count(), "keep mask length mismatch");
        let mut old_to_new = vec![u32::MAX; self.node_count()];
        let mut new_to_old = Vec::new();
        for (old, &k) in keep.iter().enumerate() {
            if k {
                old_to_new[old] = new_to_old.len() as u32;
                new_to_old.push(old);
            }
        }
        let mut offsets = Vec::with_capacity(new_to_old.len() + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut edge_count = 0usize;
        let mut total_weight = 0u64;
        offsets.push(0);
        for &old in &new_to_old {
            for (i, &t) in self.neighbors(old).iter().enumerate() {
                let nt = old_to_new[t as usize];
                if nt != u32::MAX {
                    let w = self.neighbor_weights(old)[i];
                    targets.push(nt);
                    weights.push(w);
                    if (t as usize) > old {
                        edge_count += 1;
                        total_weight += w;
                    }
                }
            }
            offsets.push(targets.len());
        }
        (
            Csr {
                offsets,
                targets,
                weights,
                edge_count,
                total_weight,
            },
            new_to_old,
        )
    }

    /// Checks structural invariants (sortedness, symmetry, counts). `O(E log d)`.
    pub fn validate(&self) -> bool {
        let n = self.node_count();
        let mut edge_count = 0usize;
        let mut total_weight = 0u64;
        for v in 0..n {
            let ns = self.neighbors(v);
            if !ns.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            for (i, &t) in ns.iter().enumerate() {
                let t = t as usize;
                if t >= n || t == v {
                    return false;
                }
                if self.edge_weight(t, v) != self.neighbor_weights(v)[i] {
                    return false;
                }
                if t > v {
                    edge_count += 1;
                    total_weight += self.neighbor_weights(v)[i];
                }
            }
        }
        edge_count == self.edge_count && total_weight == self.total_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Csr {
        // 0-1, 1-2, 0-2 (triangle), 2-3 (tail); edge 0-1 has weight 3.
        let mut g = MultiGraph::new();
        g.add_nodes(4);
        let n = |i| NodeId::new(i);
        g.add_edge_weighted(n(0), n(1), 3).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g.to_csr()
    }

    #[test]
    fn counts_match_source_multigraph() {
        let csr = triangle_plus_tail();
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.total_weight(), 6);
        assert!(csr.validate());
    }

    #[test]
    fn neighbors_are_sorted_and_weighted() {
        let csr = triangle_plus_tail();
        assert_eq!(csr.neighbors(2), &[0, 1, 3]);
        assert_eq!(csr.neighbor_weights(0), &[3, 1]);
        assert_eq!(csr.degree(2), 3);
        assert_eq!(csr.strength(0), 4);
    }

    #[test]
    fn edge_queries() {
        let csr = triangle_plus_tail();
        assert!(csr.has_edge(0, 1));
        assert!(csr.has_edge(1, 0));
        assert!(!csr.has_edge(0, 3));
        assert_eq!(csr.edge_weight(0, 1), 3);
        assert_eq!(csr.edge_weight(3, 2), 1);
        assert_eq!(csr.edge_weight(0, 3), 0);
    }

    #[test]
    fn edges_iterator_and_round_trip() {
        let csr = triangle_plus_tail();
        let edges: Vec<_> = csr.edges().collect();
        assert_eq!(edges, vec![(0, 1, 3), (0, 2, 1), (1, 2, 1), (2, 3, 1)]);
        // `to_csr` keeps each neighbour list in ascending order, with its
        // weights.
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbor_weights(0), &[3, 1]);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert_eq!(csr.neighbor_weights(1), &[3, 1]);
        assert_eq!(csr.neighbors(2), &[0, 1, 3]);
        assert_eq!(csr.neighbor_weights(2), &[1, 1, 1]);
        assert_eq!(csr.neighbors(3), &[2]);
    }

    #[test]
    fn from_edges_skips_self_loops_and_out_of_range() {
        let csr = Csr::from_edges(3, &[(0, 1), (1, 1), (1, 2), (2, 9), (0, 1)]);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 2);
        assert_eq!(csr.edge_weight(0, 1), 2, "duplicates accumulate weight");
    }

    #[test]
    fn induced_subgraph_remaps_and_preserves_weights() {
        let csr = triangle_plus_tail();
        let (sub, map) = csr.induced_subgraph(&[true, false, true, true]);
        assert_eq!(map, vec![0, 2, 3]);
        assert_eq!(sub.node_count(), 3);
        // Surviving edges: (0,2) and (2,3) -> new (0,1), (1,2).
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
        assert!(sub.validate());
    }

    #[test]
    fn empty_and_single_node() {
        let empty = Csr::from_edges(0, &[]);
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.max_degree(), 0);
        assert_eq!(empty.mean_degree(), 0.0);
        assert!(empty.validate());

        let one = Csr::from_edges(1, &[]);
        assert_eq!(one.node_count(), 1);
        assert_eq!(one.degree(0), 0);
        assert!(one.validate());
    }

    #[test]
    fn permuted_equals_from_edges_over_the_mapped_edges() {
        inet_stats::rng::check(64, |rng| {
            let n = rng.gen_range(1..40usize);
            // Few node pairs, many draws: parallel edges accumulate weight.
            let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..3 * n))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let g = Csr::from_edges(n, &edges);
            let mut new_of: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut new_of);
            let mapped: Vec<(usize, usize)> = edges
                .iter()
                .map(|&(u, v)| (new_of[u] as usize, new_of[v] as usize))
                .collect();
            let p = g.permuted(&new_of);
            assert!(p.validate());
            assert_eq!(p, Csr::from_edges(n, &mapped));
            let identity: Vec<u32> = (0..n as u32).collect();
            assert_eq!(g.permuted(&identity), g);
        });
        assert_eq!(
            Csr::from_edges(0, &[]).permuted(&[]),
            Csr::from_edges(0, &[])
        );
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permuted_rejects_a_repeated_label() {
        let _ = triangle_plus_tail().permuted(&[0, 1, 1, 3]);
    }

    #[test]
    fn degree_and_strength_sequences() {
        let csr = triangle_plus_tail();
        assert_eq!(csr.degrees(), vec![2, 2, 3, 1]);
        assert_eq!(csr.strengths(), vec![4, 4, 3, 1]);
        assert_eq!(csr.max_degree(), 3);
        assert!((csr.mean_degree() - 2.0).abs() < 1e-12);
    }
}

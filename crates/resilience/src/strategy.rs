//! Node-removal strategies: who dies first?
//!
//! Each strategy turns a graph into a deterministic removal order (a
//! permutation of node ids). Two families:
//!
//! * **Static ranking** — score every node once on the intact graph and
//!   remove in descending score order. Cheap, and the classic protocol of
//!   Albert–Jeong–Barabási attack studies.
//! * **Recalculated** — re-score the *damaged* graph as the attack
//!   proceeds. Degree recalculation is exact per removal (a lazy max-heap);
//!   k-core and betweenness re-rank in batches of `⌈N/64⌉` removals. The
//!   k-core order keeps the survivors' core numbers exact as nodes die (a
//!   worklist descent over the original graph); betweenness re-scores the
//!   survivors' induced subgraph 64 times.
//!
//! Ties always break toward the smaller node id, and the only randomness
//! (uniform failure) comes from an explicit seed, so every order is a pure
//! function of `(graph, strategy, seed)`.

use inet_graph::Csr;
use inet_metrics::betweenness::betweenness_sampled;
use inet_metrics::kcore::KCoreDecomposition;

/// Batches between recalculations for the batched adaptive strategies.
const RECALC_BATCHES: usize = 64;

/// A node-removal strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uniform random failure (the seeded replica axis of a sweep).
    Random,
    /// Remove highest-degree nodes first.
    Degree {
        /// Re-rank on the damaged graph (exact, per removal).
        recalc: bool,
    },
    /// Remove highest-core-number nodes first (degree breaks score ties).
    KCore {
        /// Re-rank on the damaged graph (batched).
        recalc: bool,
    },
    /// Remove highest-betweenness nodes first (sampled Brandes scores).
    Betweenness {
        /// Re-rank on the damaged graph (batched).
        recalc: bool,
    },
}

/// Every strategy name accepted by [`Strategy::parse`], in display order.
pub const STRATEGY_NAMES: [&str; 7] = [
    "random",
    "degree",
    "degree-recalc",
    "kcore",
    "kcore-recalc",
    "betweenness",
    "betweenness-recalc",
];

impl Strategy {
    /// Parses a CLI strategy name.
    pub fn parse(name: &str) -> Result<Strategy, String> {
        Ok(match name {
            "random" => Strategy::Random,
            "degree" => Strategy::Degree { recalc: false },
            "degree-recalc" => Strategy::Degree { recalc: true },
            "kcore" => Strategy::KCore { recalc: false },
            "kcore-recalc" => Strategy::KCore { recalc: true },
            "betweenness" => Strategy::Betweenness { recalc: false },
            "betweenness-recalc" => Strategy::Betweenness { recalc: true },
            other => {
                return Err(format!(
                    "unknown strategy '{other}' (known: {})",
                    STRATEGY_NAMES.join(" ")
                ))
            }
        })
    }

    /// The canonical name, inverse of [`Strategy::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Degree { recalc: false } => "degree",
            Strategy::Degree { recalc: true } => "degree-recalc",
            Strategy::KCore { recalc: false } => "kcore",
            Strategy::KCore { recalc: true } => "kcore-recalc",
            Strategy::Betweenness { recalc: false } => "betweenness",
            Strategy::Betweenness { recalc: true } => "betweenness-recalc",
        }
    }

    /// `true` when the order depends on the seed (replicas are meaningful).
    pub fn stochastic(&self) -> bool {
        matches!(self, Strategy::Random)
    }

    /// Computes the removal order for `g`. `seed` feeds only the stochastic
    /// strategies; `bc_sources` bounds the Brandes source sample for the
    /// betweenness rankings.
    pub fn removal_order(&self, g: &Csr, seed: u64, bc_sources: usize) -> Vec<u32> {
        match *self {
            Strategy::Random => random_order(g, seed),
            Strategy::Degree { recalc: false } => static_order(g, |g| {
                (0..g.node_count()).map(|v| g.degree(v) as u64).collect()
            }),
            Strategy::Degree { recalc: true } => adaptive_degree_order(g),
            Strategy::KCore { recalc: false } => static_order(g, kcore_score),
            Strategy::KCore { recalc: true } => kcore_recalc_order(g),
            Strategy::Betweenness { recalc: false } => {
                static_order(g, |g| betweenness_score(g, bc_sources))
            }
            Strategy::Betweenness { recalc: true } => {
                batched_order(g, |g| betweenness_score(g, bc_sources))
            }
        }
    }
}

/// Core number first, degree breaking ties within a shell.
fn kcore_score(g: &Csr) -> Vec<u64> {
    let cores = KCoreDecomposition::measure(g).core;
    (0..g.node_count())
        .map(|v| ((cores[v] as u64) << 32) | g.degree(v) as u64)
        .collect()
}

/// Sampled Brandes betweenness as a monotone f64 → u64 key (scores are
/// always ≥ 0).
fn betweenness_score(g: &Csr, bc_sources: usize) -> Vec<u64> {
    betweenness_sampled(g, bc_sources.max(1), 1)
        .into_iter()
        .map(|b| b.to_bits())
        .collect()
}

/// Seeded uniform permutation.
fn random_order(g: &Csr, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..g.node_count() as u32).collect();
    inet_stats::rng::seeded_rng(seed).shuffle(&mut order);
    order
}

/// Rank once on the intact graph: descending score, ascending id on ties.
fn static_order(g: &Csr, score: impl Fn(&Csr) -> Vec<u64>) -> Vec<u32> {
    let scores = score(g);
    let mut order: Vec<u32> = (0..g.node_count() as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(scores[v as usize]), v));
    order
}

/// Exact adaptive highest-degree-first order via a lazy max-heap: each
/// degree decrement pushes a fresh `(degree, node)` entry, and stale entries
/// are discarded on pop. `O(E log E)`.
fn adaptive_degree_order(g: &Csr) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.node_count();
    let mut degree: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
    let mut removed = vec![false; n];
    let mut heap: BinaryHeap<(u32, Reverse<u32>)> = (0..n as u32)
        .map(|v| (degree[v as usize], Reverse(v)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some((d, Reverse(v))) = heap.pop() {
        if removed[v as usize] || degree[v as usize] != d {
            continue; // stale entry
        }
        removed[v as usize] = true;
        order.push(v);
        for &u in g.neighbors(v as usize) {
            let ui = u as usize;
            if !removed[ui] {
                degree[ui] -= 1;
                heap.push((degree[ui], Reverse(u)));
            }
        }
    }
    order
}

/// Batched adaptive order: re-score the surviving induced subgraph every
/// `⌈N/RECALC_BATCHES⌉` removals and take the next batch from the fresh
/// ranking (descending score, ascending original id on ties).
///
/// Only the batch is sorted: `select_nth_unstable_by_key` moves the
/// `batch` best survivors to the front first. Original ids are distinct,
/// so the keys are too, and the batch comes out exactly as a full sort
/// would order it.
fn batched_order(g: &Csr, score: impl Fn(&Csr) -> Vec<u64>) -> Vec<u32> {
    let n = g.node_count();
    let batch = n.div_ceil(RECALC_BATCHES).max(1);
    let mut alive = vec![true; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    while order.len() < n {
        let (sub, map) = g.induced_subgraph(&alive);
        let sub_scores = score(&sub);
        let key = |&v: &u32| (std::cmp::Reverse(sub_scores[v as usize]), map[v as usize]);
        let mut ranked: Vec<u32> = (0..sub.node_count() as u32).collect();
        let take = batch.min(ranked.len());
        if take < ranked.len() {
            ranked.select_nth_unstable_by_key(take, key);
        }
        ranked[..take].sort_unstable_by_key(key);
        for &v in &ranked[..take] {
            let old = map[v as usize];
            alive[old] = false;
            order.push(old as u32);
        }
    }
    order
}

/// The batched adaptive k-core order: the order `batched_order(g,
/// kcore_score)` gives, without building a subgraph. Each batch is picked
/// by the same key, `(Reverse(core << 32 | alive degree), original id)`,
/// from core numbers that [`LiveCores`] keeps exact as nodes die.
fn kcore_recalc_order(g: &Csr) -> Vec<u32> {
    let n = g.node_count();
    let batch = n.div_ceil(RECALC_BATCHES).max(1);
    let mut live = LiveCores::new(g);
    let mut survivors: Vec<u32> = (0..n as u32).collect();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    while !survivors.is_empty() {
        let key = |&v: &u32| (std::cmp::Reverse(live.score(v as usize)), v);
        let take = batch.min(survivors.len());
        if take < survivors.len() {
            survivors.select_nth_unstable_by_key(take, key);
        }
        survivors[..take].sort_unstable_by_key(key);
        live.remove(&survivors[..take]);
        order.extend(survivors.drain(..take));
    }
    order
}

/// Core numbers of the subgraph induced by the surviving nodes, kept exact
/// under batched deletions over the original CSR.
///
/// Deletions only lower core numbers, so the old values are upper bounds.
/// From any upper bound, replacing a node's value by the h-index of its
/// alive neighbours' values (capped at its own) converges to the exact
/// core numbers (Lü et al., Nat. Commun. 7:10168, 2016; Montresor et al.,
/// IEEE TPDS 2013). A worklist holds every node whose value may exceed
/// that h-index, so only the nodes a batch can affect are evaluated.
struct LiveCores<'g> {
    g: &'g Csr,
    alive: Vec<bool>,
    /// Alive neighbours of each alive node.
    degree: Vec<u32>,
    /// Core number of each alive node in the survivors' induced subgraph.
    core: Vec<u32>,
    queued: Vec<bool>,
    work: Vec<u32>,
    /// `count[k]`: alive neighbours whose core, capped, is `k` (h-index
    /// scratch, zeroed after each use).
    count: Vec<u32>,
}

impl<'g> LiveCores<'g> {
    fn new(g: &'g Csr) -> Self {
        let n = g.node_count();
        let degree: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
        let max_degree = degree.iter().copied().max().unwrap_or(0) as usize;
        LiveCores {
            g,
            alive: vec![true; n],
            degree,
            core: KCoreDecomposition::measure(g).core,
            queued: vec![false; n],
            work: Vec::new(),
            count: vec![0; max_degree + 1],
        }
    }

    /// The ranking score of alive node `v`: core number, then alive degree.
    fn score(&self, v: usize) -> u64 {
        (u64::from(self.core[v]) << 32) | u64::from(self.degree[v])
    }

    /// Deletes `batch` (alive, distinct nodes) and lowers the survivors'
    /// core numbers to their new exact values.
    fn remove(&mut self, batch: &[u32]) {
        for &v in batch {
            self.alive[v as usize] = false;
        }
        for &v in batch {
            let c = self.core[v as usize];
            for &u in self.g.neighbors(v as usize) {
                let ui = u as usize;
                if self.alive[ui] {
                    self.degree[ui] -= 1;
                    if self.core[ui] <= c {
                        self.enqueue(u);
                    }
                }
            }
        }
        while let Some(u) = self.work.pop() {
            let ui = u as usize;
            self.queued[ui] = false;
            let a = self.core[ui];
            let b = self.h_index(ui, a);
            if b < a {
                self.core[ui] = b;
                for &w in self.g.neighbors(ui) {
                    let wi = w as usize;
                    if self.alive[wi] && b < self.core[wi] && self.core[wi] <= a {
                        self.enqueue(w);
                    }
                }
            }
        }
    }

    fn enqueue(&mut self, u: u32) {
        if !std::mem::replace(&mut self.queued[u as usize], true) {
            self.work.push(u);
        }
    }

    /// The h-index of `u`'s alive neighbours' core numbers, capped at
    /// `cap`: the largest `k ≤ cap` with at least `k` of them `≥ k`.
    fn h_index(&mut self, u: usize, cap: u32) -> u32 {
        let cap = cap.min(self.degree[u]);
        for &w in self.g.neighbors(u) {
            let wi = w as usize;
            if self.alive[wi] {
                self.count[self.core[wi].min(cap) as usize] += 1;
            }
        }
        let mut k = cap;
        let mut at_least = 0;
        loop {
            at_least += std::mem::take(&mut self.count[k as usize]);
            if at_least >= k {
                break;
            }
            k -= 1;
        }
        for c in &mut self.count[..k as usize] {
            *c = 0;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(order: &[u32], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order
                .iter()
                .all(|&v| (v as usize) < n && !std::mem::replace(&mut seen[v as usize], true))
    }

    fn sample_graph() -> Csr {
        // Hub 0 (degree 5), a triangle 1-2-3, leaves.
        Csr::from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (0, 4),
                (0, 5),
                (0, 6),
                (1, 2),
                (1, 3),
                (2, 3),
                (6, 7),
            ],
        )
    }

    #[test]
    fn parse_and_name_round_trip() {
        for name in STRATEGY_NAMES {
            assert_eq!(Strategy::parse(name).unwrap().name(), name);
        }
        assert!(Strategy::parse("voodoo").is_err());
        assert!(Strategy::parse("voodoo").unwrap_err().contains("random"));
    }

    #[test]
    fn every_strategy_yields_a_permutation() {
        let g = sample_graph();
        for name in STRATEGY_NAMES {
            let s = Strategy::parse(name).unwrap();
            let order = s.removal_order(&g, 7, 4);
            assert!(is_permutation(&order, 8), "{name}: {order:?}");
        }
    }

    #[test]
    fn degree_attack_hits_the_hub_first() {
        let g = sample_graph();
        for s in [
            Strategy::Degree { recalc: false },
            Strategy::Degree { recalc: true },
        ] {
            assert_eq!(s.removal_order(&g, 0, 4)[0], 0, "{}", s.name());
        }
    }

    #[test]
    fn static_ties_break_by_id() {
        // 4 isolated nodes: all scores equal.
        let g = Csr::from_edges(4, &[]);
        let order = Strategy::Degree { recalc: false }.removal_order(&g, 0, 4);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn adaptive_degree_reranks_after_damage() {
        // Hub A (0) degree 4, hub B (5) degree 3 + shared leaf: after A is
        // removed, B's degree drops; a static rank keeps B second, but so
        // does the adaptive one here — build a case where they differ:
        // star A = 0 with leaves 1..5 (degree 5), clique 6-7-8-9 (degrees 3).
        let mut edges: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        for i in 6..10 {
            for j in (i + 1)..10 {
                edges.push((i, j));
            }
        }
        let g = Csr::from_edges(10, &edges);
        let adaptive = Strategy::Degree { recalc: true }.removal_order(&g, 0, 4);
        // After removing hub 0, leaves have degree 0 but the clique still
        // has degree 3: adaptive keeps dismantling the clique until its
        // remnant ties with the leaves (degree 1, id order takes over).
        assert_eq!(adaptive[0], 0);
        assert_eq!(&adaptive[1..4], &[6, 7, 8]);
        // Static ranking instead removes by intact degree: clique first too
        // (3 > 1), so compare against a chain where recalc matters:
        let chain = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let adaptive = Strategy::Degree { recalc: true }.removal_order(&chain, 0, 4);
        // Interior 1 goes first (degree 2, smallest id); 3 keeps degree 2 in
        // the damaged graph so it goes next — not id order.
        assert_eq!(&adaptive[..2], &[1, 3]);
    }

    #[test]
    fn random_orders_differ_by_seed_and_reproduce() {
        let g = sample_graph();
        let a = Strategy::Random.removal_order(&g, 1, 4);
        let b = Strategy::Random.removal_order(&g, 1, 4);
        let c = Strategy::Random.removal_order(&g, 2, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(is_permutation(&c, 8));
    }

    #[test]
    fn deterministic_strategies_ignore_the_seed() {
        let g = sample_graph();
        for name in STRATEGY_NAMES.iter().filter(|&&s| s != "random") {
            let s = Strategy::parse(name).unwrap();
            assert_eq!(
                s.removal_order(&g, 1, 4),
                s.removal_order(&g, 99, 4),
                "{name}"
            );
        }
    }

    #[test]
    fn kcore_attack_targets_the_core() {
        // K4 core (0..4) + long tail: core members die first.
        let mut edges = vec![(3, 4), (4, 5), (5, 6)];
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((i, j));
            }
        }
        let g = Csr::from_edges(7, &edges);
        let order = Strategy::KCore { recalc: false }.removal_order(&g, 0, 4);
        let first4: Vec<u32> = order[..4].to_vec();
        for v in 0..4u32 {
            assert!(first4.contains(&v), "core node {v} not removed early");
        }
    }

    #[test]
    fn betweenness_attack_finds_the_bridge() {
        // Two K4s joined by a single bridge node 8.
        let mut edges = Vec::new();
        for base in [0usize, 4] {
            for i in base..base + 4 {
                for j in (i + 1)..base + 4 {
                    edges.push((i, j));
                }
            }
        }
        edges.push((0, 8));
        edges.push((4, 8));
        let g = Csr::from_edges(9, &edges);
        for recalc in [false, true] {
            let order = Strategy::Betweenness { recalc }.removal_order(&g, 0, 16);
            assert_eq!(order[0], 8, "recalc {recalc}: bridge must die first");
        }
    }

    /// `batched_order` as it was before the partial selection: a full sort
    /// of every survivor in each round, kept as the oracle.
    fn batched_order_full_sort(g: &Csr, score: impl Fn(&Csr) -> Vec<u64>) -> Vec<u32> {
        let n = g.node_count();
        let batch = n.div_ceil(RECALC_BATCHES).max(1);
        let mut alive = vec![true; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        while order.len() < n {
            let (sub, map) = g.induced_subgraph(&alive);
            let sub_scores = score(&sub);
            let mut ranked: Vec<u32> = (0..sub.node_count() as u32).collect();
            ranked.sort_by_key(|&v| (std::cmp::Reverse(sub_scores[v as usize]), map[v as usize]));
            for &v in ranked.iter().take(batch.min(ranked.len())) {
                let old = map[v as usize];
                alive[old] = false;
                order.push(old as u32);
            }
        }
        order
    }

    #[test]
    fn batch_selection_matches_the_full_sort() {
        let degree =
            |g: &Csr| -> Vec<u64> { (0..g.node_count()).map(|v| g.degree(v) as u64).collect() };
        inet_stats::rng::check(8, |rng| {
            // Random attachment with a few hubs: plenty of tied scores, and
            // batches of several nodes once n exceeds 64.
            let n = rng.gen_range(1..1500usize);
            let mut edges = Vec::new();
            for v in 1..n {
                edges.push((v, rng.gen_range(0..v)));
                if rng.gen_bool(0.5) {
                    edges.push((v, rng.gen_range(0..v.min(4))));
                }
            }
            let g = Csr::from_edges(n, &edges);
            assert_eq!(
                batched_order(&g, degree),
                batched_order_full_sort(&g, degree)
            );
            assert_eq!(
                Strategy::KCore { recalc: true }.removal_order(&g, 0, 8),
                batched_order_full_sort(&g, kcore_score)
            );
            assert_eq!(
                Strategy::Betweenness { recalc: true }.removal_order(&g, 0, 8),
                batched_order_full_sort(&g, |g| betweenness_score(g, 8))
            );
        });
    }

    /// A random graph mixing the shapes a descent must get right: isolated
    /// nodes, pairs, stars and cliques of 2 to 15 nodes, and a dense random
    /// part whose shells run deep.
    fn shell_graph(rng: &mut inet_stats::rng::StdRng) -> Csr {
        let n = rng.gen_range(1..150usize);
        let mut edges = Vec::new();
        let p = [0.0, 0.02, 0.1, 0.4][rng.gen_range(0..4usize)];
        let dense = rng.gen_range(0..=n);
        for i in 0..dense {
            for j in (i + 1)..dense {
                if rng.gen_bool(p) {
                    edges.push((i, j));
                }
            }
        }
        for _ in 0..rng.gen_range(0..6usize) {
            let size = rng.gen_range(2..=15usize).min(n);
            let mut members: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut members);
            let members = &members[..size];
            if rng.gen_bool(0.5) {
                for (i, &a) in members.iter().enumerate() {
                    edges.extend(members[i + 1..].iter().map(|&b| (a, b)));
                }
            } else {
                edges.extend(members[1..].iter().map(|&b| (members[0], b)));
            }
        }
        Csr::from_edges(n, &edges)
    }

    /// After every batch, the maintained core numbers and alive degrees
    /// equal a fresh decomposition of the survivors' induced subgraph, for
    /// the attack's own batches and for random ones.
    #[test]
    fn live_cores_stay_exact_after_every_batch() {
        inet_stats::rng::check(240, |rng| {
            let g = shell_graph(rng);
            let n = g.node_count();
            let own = kcore_recalc_order(&g);
            let mut shuffled: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut shuffled);
            let own_batch = n.div_ceil(RECALC_BATCHES).max(1);
            let random_batch = rng.gen_range(1..=n.div_ceil(4));
            for (order, batch) in [(own, own_batch), (shuffled, random_batch)] {
                let mut live = LiveCores::new(&g);
                for chunk in order.chunks(batch) {
                    live.remove(chunk);
                    let (sub, map) = g.induced_subgraph(&live.alive);
                    let fresh = KCoreDecomposition::measure(&sub).core;
                    for (new, &old) in map.iter().enumerate() {
                        assert_eq!(live.core[old], fresh[new], "core of {old}");
                        assert_eq!(live.degree[old] as usize, sub.degree(new));
                    }
                }
                assert!(live.count.iter().all(|&c| c == 0));
            }
        });
    }

    /// FNV-64 of the `random`, `degree`, `degree-recalc`, `kcore` and
    /// `kcore-recalc` orders (each id as a little-endian u64, strategies in
    /// that sequence). BA with m = 2 never has a core above 2; the PFP and
    /// Serrano graphs have many shells.
    #[test]
    fn orders_match_their_known_answers() {
        use inet_generators::{BarabasiAlbert, Generator, Pfp, SerranoModel, SerranoParams};
        let digest = |gen: &dyn Generator, seed: u64| {
            let g = gen
                .generate(&mut inet_stats::rng::seeded_rng(seed))
                .graph
                .to_csr();
            let mut h = inet_exec::durable::Fnv64::default();
            for name in ["random", "degree", "degree-recalc", "kcore", "kcore-recalc"] {
                let order = Strategy::parse(name).unwrap().removal_order(&g, seed, 0);
                for v in order {
                    h.write_u64(u64::from(v));
                }
            }
            h.finish()
        };
        let ba = BarabasiAlbert::new(2000, 2);
        let got = [
            digest(&ba, 1),
            digest(&ba, 2),
            digest(&ba, 3),
            digest(&Pfp::internet(2000), 1),
            digest(&SerranoModel::new(SerranoParams::small(2000)), 1),
        ];
        let want: [u64; 5] = [
            0xa241_d1b3_4929_d24d,
            0x9ce5_710e_6093_5565,
            0xc182_0088_1e10_65c9,
            0x1353_cabf_6fc2_28c1,
            0x66e4_1106_96d6_dc79,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    #[test]
    fn empty_graph_orders_are_empty() {
        let g = Csr::from_edges(0, &[]);
        for name in STRATEGY_NAMES {
            let s = Strategy::parse(name).unwrap();
            assert!(s.removal_order(&g, 0, 4).is_empty(), "{name}");
        }
    }
}

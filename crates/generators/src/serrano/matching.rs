//! Bandwidth-deficit matching: the adaptation step.
//!
//! After each growth step every AS computes its bandwidth deficit
//! `Δb_i = max(0, b_target(ω_i) − b_current)`. Pairs of *active* nodes
//! (deficit ≥ 1) are drawn with probability proportional to their deficits —
//! nodes hungrier for bandwidth search harder for peers — and connect with
//! an acceptance probability (the distance-cost kernel, or always). A
//! connecting pair reinforces its link with probability `r` per extra unit
//! while both stay active, trading partner diversification against
//! connection setup costs.
//!
//! Under the distance kernel most draws are rejected, and the rejections
//! bunch into storms at the end of a round, when a few active nodes far
//! apart keep drawing each other until the attempt budget runs out. The
//! loop takes a fast path through them that consumes the same random
//! numbers and leaves the same state bit for bit (DESIGN §4j). A draw is
//! rejected on its drawer's cached bound without locating the peer. Once
//! every active node has its bound and its weight round trip settled, a
//! storm loop rejects on the largest of those bounds without locating the
//! drawer either, drawing only the random numbers, until a draw passes.

use inet_graph::{MultiGraph, NodeId};
use inet_stats::rng::StdRng;
use inet_stats::DynamicWeightedSampler;

/// Outcome counters of one matching round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MatchStats {
    /// Candidate pair draws (including rejected ones).
    pub attempts: u64,
    /// Draws the acceptance probability rejected.
    pub rejected: u64,
    /// Rejected draws decided on the drawer's cached acceptance bound,
    /// without locating the peer.
    pub bounded: u64,
    /// Of the `bounded` draws, those rejected on the round-wide bound in a
    /// storm, without locating the drawer either.
    pub stormed: u64,
    /// New edges created between previously unconnected pairs.
    pub new_edges: u64,
    /// Reinforcement units added to existing pairs (including the `r`-loop).
    pub reinforcements: u64,
    /// Total deficit unmet when the round ended.
    pub leftover: f64,
}

/// Runs one matching round, mutating the graph and the deficits in place.
///
/// Each draw takes three random numbers in this order: a target that picks
/// `i` by deficit, a target that picks `j ≠ i` by deficit, and, when `prob`
/// is given, a uniform `u`; the pair connects when `u < prob(i, j)`. `None`
/// connects every drawn pair and draws no `u`. `prob` must be a pure
/// function of its arguments for the length of the round.
///
/// The round ends when fewer than two nodes are active or after
/// `max_attempts` draws. A draw whose `u` is at least `i`'s bound — the
/// largest `prob(i, k)` over the round's active `k ≠ i` — is rejected
/// without locating `j`. A bound costs one `prob` call per active node, so
/// one is taken only after as many draws have passed since the last
/// connection or the last bound. Once every active node has its bound
/// taken at the current active count and its round trip proven a no-op, a
/// draw whose `u` is at least the largest of those bounds is rejected
/// without locating `i` either. The graph, the deficits, the counters
/// other than `bounded` and `stormed`, and the random stream are the same
/// as when every pair is located and tested.
pub fn match_deficits(
    g: &mut MultiGraph,
    deficits: &mut [f64],
    r: f64,
    max_attempts: u64,
    rng: &mut StdRng,
    prob: Option<&dyn Fn(usize, usize) -> f64>,
) -> MatchStats {
    match_round(g, deficits, r, max_attempts, rng, prob).0
}

/// [`match_deficits`], also returning its deficit sampler as the round left
/// it.
fn match_round(
    g: &mut MultiGraph,
    deficits: &mut [f64],
    r: f64,
    max_attempts: u64,
    rng: &mut StdRng,
    prob: Option<&dyn Fn(usize, usize) -> f64>,
) -> (MatchStats, DynamicWeightedSampler) {
    let mut stats = MatchStats::default();
    // Active weight = deficit where >= 1 unit is wanted, else 0.
    let active = |d: f64| if d >= 1.0 { d } else { 0.0 };
    let weights: Vec<f64> = deficits.iter().map(|&d| active(d)).collect();
    let mut sampler = DynamicWeightedSampler::from_weights(&weights);
    let mut active_count = deficits.iter().filter(|&&d| d >= 1.0).count();

    // The sampler's tree changes only on a connection or on a round trip
    // that changes a bit; `epoch` counts those changes. Within one epoch a
    // round trip proven a no-op stays one, and the first draw's index can be
    // read off the targets already located.
    let mut epoch = 1u64;
    let mut clean = vec![0u64; deficits.len()];
    // The epoch of the last `clean` mark, and the active nodes marked in it.
    let mut cleaned = (epoch, 0usize);
    let mut located = Located::default();
    let mut bounds = Bounds::new(deficits.len());
    // Draws since the last connection or the last bound taken.
    let mut draws_since = 0usize;
    // The epoch the storm bound was last sought in, and the bound.
    let mut storm = (0u64, None);

    while active_count >= 2 && stats.attempts < max_attempts {
        // Once every active node is clean and has its bound taken at the
        // active count, a rejected draw changes nothing (`draws_since` only
        // gates retakes, which stay no-ops until a connection resets it), so
        // the draws before the first that passes the storm bound only take
        // their random numbers.
        let mut passed = None;
        if prob.is_some() && cleaned == (epoch, active_count) && bounds.all_taken(active_count) {
            if storm.0 != epoch {
                storm = (epoch, bounds.storm_bound(&sampler));
            }
            if let Some(bound) = storm.1 {
                passed = storm_draws(rng, &mut stats, max_attempts, sampler.total(), bound);
                if passed.is_none() {
                    break;
                }
            }
        }
        stats.attempts += 1;
        draws_since += 1;
        let (i, target) = match passed {
            // A normal masked total makes `gen_range(0.0..masked)` exactly
            // `masked * unit` (DESIGN §4j, invariant 4).
            Some((at, unit, _)) => {
                let i = located.find(&sampler, epoch, at);
                (i, sampler.masked_total(i) * unit)
            }
            None => {
                if sampler.total() <= 0.0 {
                    break;
                }
                let i = located.find(&sampler, epoch, rng.gen_range(0.0..sampler.total()));
                let masked = sampler.masked_total(i);
                if masked <= 0.0 {
                    break;
                }
                (i, rng.gen_range(0.0..masked))
            }
        };
        let peer = match prob {
            None => Some(sampler.find_masked(i, target)),
            Some(prob) => {
                let u = passed.map_or_else(|| rng.gen_range(0.0..1.0), |(_, _, u)| u);
                if draws_since >= active_count && bounds.retake(i, deficits, active_count, prob) {
                    draws_since = 0;
                }
                if u >= bounds.of[i].0 {
                    stats.bounded += 1;
                    None
                } else {
                    let j = sampler.find_masked(i, target);
                    (u < prob(i, j)).then_some(j)
                }
            }
        };
        // The masked draw stands for zeroing i's weight and restoring it;
        // apply that pair's rounding unless it is known to change nothing.
        if clean[i] != epoch {
            if sampler.round_trip(i) {
                epoch += 1;
            } else {
                clean[i] = epoch;
                if cleaned.0 != epoch {
                    cleaned = (epoch, 0);
                }
                cleaned.1 += 1;
            }
        }
        let Some(j) = peer else {
            stats.rejected += 1;
            continue;
        };
        epoch += 1;
        draws_since = 0;
        // First unit unconditionally, then extra units each with
        // probability `r` while both peers remain active.
        let (ni, nj) = (NodeId::new(i), NodeId::new(j));
        loop {
            match g.add_edge(ni, nj).expect("i != j by masking") {
                inet_graph::EdgeUpdate::Created => stats.new_edges += 1,
                inet_graph::EdgeUpdate::Reinforced(_) => stats.reinforcements += 1,
            }
            for &v in &[i, j] {
                let was_active = deficits[v] >= 1.0;
                deficits[v] -= 1.0;
                let now_active = deficits[v] >= 1.0;
                sampler.set_weight(v, active(deficits[v]));
                if was_active && !now_active {
                    active_count -= 1;
                }
            }
            if !(deficits[i] >= 1.0 && deficits[j] >= 1.0) {
                break;
            }
            if rng.gen_range(0.0..1.0) >= r {
                break;
            }
        }
    }
    stats.leftover = deficits.iter().filter(|&&d| d >= 1.0).sum();
    (stats, sampler)
}

/// Takes draws until one has `u < bound`, counting each one before it as
/// rejected on the bound; returns that draw's numbers (i's target, the unit
/// of j's target, and `u`), or `None` when the attempt budget runs out
/// first. Each draw takes its numbers in the order and from the ranges of
/// the full path, whose masked totals are normal, so the stream is the
/// same.
fn storm_draws(
    rng: &mut StdRng,
    stats: &mut MatchStats,
    max_attempts: u64,
    total: f64,
    bound: f64,
) -> Option<(f64, f64, f64)> {
    let mut passed = None;
    let mut stormed = 0;
    while stats.attempts + stormed < max_attempts {
        let at = rng.gen_range(0.0..total);
        let unit = rng.gen_range(0.0..1.0);
        let u = rng.gen_range(0.0..1.0);
        if u < bound {
            passed = Some((at, unit, u));
            break;
        }
        stormed += 1;
    }
    stats.attempts += stormed;
    stats.rejected += stormed;
    stats.bounded += stormed;
    stats.stormed += stormed;
    passed
}

/// The first draw's index for the targets located in one epoch, as
/// disjoint target intervals `[lo, hi]` in increasing order. `find` is
/// monotone in its target, so every target inside an interval whose ends
/// both located item `k` locates `k` too.
#[derive(Default)]
struct Located {
    epoch: u64,
    spans: Vec<(f64, f64, usize)>,
}

impl Located {
    /// `sampler.find(target)`, from the intervals when they cover `target`.
    fn find(&mut self, sampler: &DynamicWeightedSampler, epoch: u64, target: f64) -> usize {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.spans.clear();
        }
        let at = self.spans.partition_point(|&(lo, _, _)| lo <= target);
        if at > 0 && target <= self.spans[at - 1].1 {
            return self.spans[at - 1].2;
        }
        let k = sampler.find(target);
        if at > 0 && self.spans[at - 1].2 == k {
            self.spans[at - 1].1 = target;
        } else if at < self.spans.len() && self.spans[at].2 == k {
            self.spans[at].0 = target;
        } else {
            self.spans.insert(at, (target, target, k));
        }
        k
    }
}

/// Per-node upper bounds on the acceptance probability. Deficits only fall
/// within a round, so the active set only shrinks and a bound taken over
/// it stays valid for the rest of the round.
struct Bounds {
    /// A superset of the active nodes, trimmed when the active count falls.
    pool: Vec<usize>,
    /// Each node's bound and the active count it was taken at; infinite
    /// and 0 before the first.
    of: Vec<(f64, usize)>,
    /// The active count of the last bound taken, and the bounds taken at it.
    taken: (usize, usize),
}

impl Bounds {
    fn new(n: usize) -> Self {
        Bounds {
            pool: Vec::new(),
            of: vec![(f64::INFINITY, 0); n],
            taken: (0, 0),
        }
    }

    /// Takes `i`'s bound, the largest `prob(i, k)` over the active `k ≠ i`,
    /// unless it was taken at the current active count; reports whether it
    /// did.
    fn retake(
        &mut self,
        i: usize,
        deficits: &[f64],
        active_count: usize,
        prob: &dyn Fn(usize, usize) -> f64,
    ) -> bool {
        if self.of[i].1 == active_count {
            return false;
        }
        if self.pool.is_empty() {
            self.pool = (0..deficits.len())
                .filter(|&k| deficits[k] >= 1.0)
                .collect();
        } else if self.pool.len() != active_count {
            self.pool.retain(|&k| deficits[k] >= 1.0);
        }
        // A NaN probability never accepts, so `max` may skip it.
        let bound = self
            .pool
            .iter()
            .filter(|&&k| k != i)
            .map(|&k| prob(i, k))
            .fold(f64::NEG_INFINITY, f64::max);
        self.of[i] = (bound, active_count);
        if self.taken.0 != active_count {
            self.taken = (active_count, 0);
        }
        self.taken.1 += 1;
        true
    }

    /// Whether every active node has its bound taken at `active_count`.
    /// The pool is then trimmed to the active set.
    fn all_taken(&self, active_count: usize) -> bool {
        self.taken == (active_count, active_count)
    }

    /// The largest bound over the active nodes, which rejects every draw
    /// while [`all_taken`](Self::all_taken) holds; `None` when some active
    /// node's masked total is below 1, so that `masked_total * unit` could
    /// differ from a masked draw.
    fn storm_bound(&self, sampler: &DynamicWeightedSampler) -> Option<f64> {
        if !(sampler.total() > 0.0 && self.pool.iter().all(|&k| sampler.masked_total(k) >= 1.0)) {
            return None;
        }
        Some(
            self.pool
                .iter()
                .map(|&k| self.of[k].0)
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_stats::rng::seeded_rng;

    const ALWAYS: Option<&dyn Fn(usize, usize) -> f64> = Some(&|_, _| 1.0);

    /// The matching loop before the fast path, kept verbatim except that it
    /// also returns its sampler: every draw zeroes i's weight, samples j,
    /// restores i's weight and asks `accept`.
    fn match_deficits_oracle(
        g: &mut MultiGraph,
        deficits: &mut [f64],
        r: f64,
        max_attempts: u64,
        rng: &mut StdRng,
        mut accept: impl FnMut(usize, usize, &mut StdRng) -> bool,
    ) -> (MatchStats, DynamicWeightedSampler) {
        let mut stats = MatchStats::default();
        // Active weight = deficit where >= 1 unit is wanted, else 0.
        let weights: Vec<f64> = deficits
            .iter()
            .map(|&d| if d >= 1.0 { d } else { 0.0 })
            .collect();
        let mut sampler = DynamicWeightedSampler::from_weights(&weights);
        let active = |d: f64| if d >= 1.0 { d } else { 0.0 };
        let mut active_count = deficits.iter().filter(|&&d| d >= 1.0).count();

        while active_count >= 2 && stats.attempts < max_attempts {
            stats.attempts += 1;
            let i = match sampler.sample(rng) {
                Some(i) => i,
                None => break,
            };
            let wi = sampler.weight(i);
            sampler.set_weight(i, 0.0);
            let j = match sampler.sample(rng) {
                Some(j) => j,
                None => {
                    sampler.set_weight(i, wi);
                    break;
                }
            };
            sampler.set_weight(i, wi);
            if !accept(i, j, rng) {
                continue;
            }
            // First unit unconditionally, then extra units each with
            // probability `r` while both peers remain active.
            let (ni, nj) = (NodeId::new(i), NodeId::new(j));
            loop {
                match g.add_edge(ni, nj).expect("i != j by masking") {
                    inet_graph::EdgeUpdate::Created => stats.new_edges += 1,
                    inet_graph::EdgeUpdate::Reinforced(_) => stats.reinforcements += 1,
                }
                for &v in &[i, j] {
                    let was_active = deficits[v] >= 1.0;
                    deficits[v] -= 1.0;
                    let now_active = deficits[v] >= 1.0;
                    sampler.set_weight(v, active(deficits[v]));
                    if was_active && !now_active {
                        active_count -= 1;
                    }
                }
                if !(deficits[i] >= 1.0 && deficits[j] >= 1.0) {
                    break;
                }
                if rng.gen_range(0.0..1.0) >= r {
                    break;
                }
            }
        }
        stats.leftover = deficits.iter().filter(|&&d| d >= 1.0).sum();
        (stats, sampler)
    }

    /// Runs one random round through the fast path and the oracle, asserts
    /// they agree bit for bit, and returns the fast path's counters. A
    /// `storm` case uses the distance kernel at a small reach with the full
    /// budget, so its rounds end in rejection storms. A `huge` case mixes
    /// deficits near 1e16 with ones from 1e10 to 1e16 plus a small odd
    /// value, so that `(x − w) + w ≠ x` in the sampler's sums and weight
    /// round trips change bits.
    fn fast_path_case(rng: &mut StdRng, storm: bool, huge: bool) -> MatchStats {
        let n = rng.gen_range(2..48usize);
        let deficits: Vec<f64> = (0..n)
            .map(|_| match (huge, rng.gen_range(0..4usize)) {
                (false, 0) => rng.gen_range(0.0..1.0),
                (false, 1) => rng.gen_range(0..8usize) as f64,
                (_, 2) => rng.gen_range(1.0..12.0),
                (true, 0) => 1e16 * rng.gen_range(0.5..2.0),
                (true, 1) => {
                    let scale = 10f64.powi(rng.gen_range(10..16usize) as i32);
                    scale * rng.gen_range(1.0..2.0) + (2 * rng.gen_range(0..8usize) + 1) as f64
                }
                _ => 0.0,
            })
            .collect();
        let r = [0.0, 0.5, 0.99][rng.gen_range(0..3usize)];
        let budget = if storm {
            20_000
        } else {
            [rng.gen_range(0..64u64), 20_000][rng.gen_range(0..2usize)]
        };
        let at: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let reach = rng.gen_range(1e-4..if storm { 0.01 } else { 0.3 });
        let one = |_: usize, _: usize| 1.0;
        let zero = |_: usize, _: usize| 0.0;
        let parity = |i: usize, j: usize| if (i + j) % 2 == 0 { 1.0 } else { 0.0 };
        // Far pairs get vanishing probabilities: rejection storms.
        let distance = |i: usize, j: usize| (-(at[i] - at[j]).abs() / reach).exp();
        let kinds: [Option<&dyn Fn(usize, usize) -> f64>; 5] = [
            Some(&one),
            Some(&zero),
            Some(&parity),
            Some(&distance),
            None,
        ];
        let prob = kinds[if storm {
            3
        } else {
            rng.gen_range(0..kinds.len())
        }];
        let seed = rng.next_u64();

        let mut g = MultiGraph::new();
        g.add_nodes(n);
        let (mut fast_g, mut fast_d, mut fast_rng) =
            (g.clone(), deficits.clone(), seeded_rng(seed));
        let (fast, fast_sampler) =
            match_round(&mut fast_g, &mut fast_d, r, budget, &mut fast_rng, prob);
        let (mut slow_g, mut slow_d, mut slow_rng) = (g, deficits, seeded_rng(seed));
        let (slow, slow_sampler) = match_deficits_oracle(
            &mut slow_g,
            &mut slow_d,
            r,
            budget,
            &mut slow_rng,
            |i, j, rng| prob.map_or(true, |p| rng.gen_range(0.0..1.0) < p(i, j)),
        );

        assert_eq!(fast_g, slow_g);
        // Every rounding the oracle's weight round trips left behind.
        assert_eq!(fast_sampler, slow_sampler);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast_d), bits(&slow_d));
        // The oracle does not count rejections.
        let parent_fields = MatchStats {
            rejected: 0,
            bounded: 0,
            stormed: 0,
            ..fast
        };
        assert_eq!(parent_fields, slow);
        assert_eq!(fast.leftover.to_bits(), slow.leftover.to_bits());
        assert!(fast.stormed <= fast.bounded);
        assert!(fast.bounded <= fast.rejected && fast.rejected <= fast.attempts);
        assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
        fast
    }

    #[test]
    fn fast_path_matches_the_oracle_bit_for_bit() {
        // Rejections decided on a drawer's bound and on the storm bound,
        // over all cases.
        let (mut bounded, mut stormed) = (0, 0);
        let mut tally = |stats: MatchStats| {
            bounded += stats.bounded;
            stormed += stats.stormed;
        };
        inet_stats::rng::check(160, |rng| tally(fast_path_case(rng, false, false)));
        inet_stats::rng::check(60, |rng| tally(fast_path_case(rng, true, false)));
        inet_stats::rng::check(60, |rng| tally(fast_path_case(rng, true, true)));
        assert!(bounded > 0, "no case took the bound");
        assert!(stormed > 0, "no case took the storm bound");
    }

    #[test]
    fn two_nodes_pair_up() {
        let mut g = MultiGraph::new();
        g.add_nodes(2);
        let mut deficits = vec![3.0, 3.0];
        let mut rng = seeded_rng(1);
        let stats = match_deficits(&mut g, &mut deficits, 0.99, 1000, &mut rng, ALWAYS);
        // With r ~ 1 both burn their full deficit into one multi-edge.
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_weight(), 3);
        assert_eq!(stats.new_edges, 1);
        assert_eq!(stats.reinforcements, 2);
        assert!(deficits.iter().all(|&d| d < 1.0));
        assert_eq!(stats.leftover, 0.0);
    }

    #[test]
    fn r_zero_diversifies_partners() {
        let mut g = MultiGraph::new();
        g.add_nodes(6);
        let mut deficits = vec![4.0; 6];
        let mut rng = seeded_rng(2);
        let _ = match_deficits(&mut g, &mut deficits, 0.0, 10_000, &mut rng, ALWAYS);
        // With no reinforcement the same pair can still be drawn twice, but
        // most links should be distinct edges.
        assert!(g.edge_count() as u64 >= g.total_weight() / 2);
        assert!(g.edge_count() >= 4);
    }

    #[test]
    fn inactive_nodes_never_connect() {
        let mut g = MultiGraph::new();
        g.add_nodes(4);
        let mut deficits = vec![5.0, 5.0, 0.4, 0.0];
        let mut rng = seeded_rng(3);
        let _ = match_deficits(&mut g, &mut deficits, 0.5, 10_000, &mut rng, ALWAYS);
        for v in 2..4 {
            assert_eq!(
                g.degree(NodeId::new(v)),
                0,
                "inactive node {v} got a connection"
            );
        }
    }

    #[test]
    fn attempt_budget_bounds_rejection_storms() {
        let mut g = MultiGraph::new();
        g.add_nodes(10);
        let mut deficits = vec![2.0; 10];
        let mut rng = seeded_rng(4);
        let stats = match_deficits(&mut g, &mut deficits, 0.5, 100, &mut rng, Some(&|_, _| 0.0));
        assert_eq!(stats.attempts, 100);
        assert_eq!(g.edge_count(), 0);
        assert!(stats.leftover > 0.0);
    }

    #[test]
    fn single_active_node_cannot_pair() {
        let mut g = MultiGraph::new();
        g.add_nodes(3);
        let mut deficits = vec![5.0, 0.0, 0.0];
        let mut rng = seeded_rng(5);
        let stats = match_deficits(&mut g, &mut deficits, 0.5, 1000, &mut rng, ALWAYS);
        assert_eq!(stats.attempts, 0);
        assert_eq!(stats.leftover, 5.0);
    }

    #[test]
    fn deficits_decrease_monotonically() {
        let mut g = MultiGraph::new();
        g.add_nodes(8);
        let mut deficits = vec![3.7; 8];
        let before: f64 = deficits.iter().sum();
        let mut rng = seeded_rng(6);
        let _ = match_deficits(&mut g, &mut deficits, 0.8, 10_000, &mut rng, ALWAYS);
        let after: f64 = deficits.iter().sum();
        assert!(after < before);
        // Each edge unit consumed exactly two units of deficit.
        assert!((before - after - 2.0 * g.total_weight() as f64).abs() < 1e-9);
    }

    #[test]
    fn selective_acceptance_steers_topology() {
        // Only pairs (even, even) may connect.
        let mut g = MultiGraph::new();
        g.add_nodes(6);
        let mut deficits = vec![2.0; 6];
        let mut rng = seeded_rng(7);
        let even = |a: usize, b: usize| f64::from(u8::from(a % 2 == 0 && b % 2 == 0));
        let _ = match_deficits(&mut g, &mut deficits, 0.5, 50_000, &mut rng, Some(&even));
        for (u, v, _) in g.edges() {
            assert!(u.index() % 2 == 0 && v.index() % 2 == 0);
        }
        assert!(g.edge_count() > 0);
    }
}

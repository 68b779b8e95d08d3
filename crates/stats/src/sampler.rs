//! Weighted random sampling.
//!
//! Preferential-attachment dynamics need to repeatedly (a) draw an index with
//! probability proportional to a weight and (b) *update* weights as the
//! network grows. [`DynamicWeightedSampler`] supports both in `O(log n)` via
//! a Fenwick (binary indexed) tree over the weights. [`CumulativeSampler`]
//! is the cheaper static variant for one-shot multinomial draws.

use crate::rng::StdRng;

/// Weighted sampler over a dynamic set of items, Fenwick-tree backed.
///
/// Weights are `f64 ≥ 0`. Items are addressed by their insertion index.
/// Draws run in `O(log n)`, as do weight updates and appends.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicWeightedSampler {
    /// Fenwick tree of prefix sums (1-based internally).
    tree: Vec<f64>,
    /// Raw weights for exact reads and total-maintenance.
    weights: Vec<f64>,
    total: f64,
}

impl DynamicWeightedSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        DynamicWeightedSampler {
            tree: vec![0.0],
            weights: Vec::new(),
            total: 0.0,
        }
    }

    /// Creates a sampler from initial weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn from_weights(weights: &[f64]) -> Self {
        let mut s = Self::new();
        for &w in weights {
            s.push(w);
        }
        s
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when no items have been added.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Current weight of item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Appends an item with weight `w`; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or non-finite.
    pub fn push(&mut self, w: f64) -> usize {
        assert!(
            w.is_finite() && w >= 0.0,
            "weight must be finite and non-negative"
        );
        let i = self.weights.len();
        self.weights.push(0.0);
        self.tree.push(0.0);
        // Fenwick append: initialize node with sums of covered range (all 0).
        let idx = i + 1;
        let lsb = idx & idx.wrapping_neg();
        let mut covered = 0.0;
        let mut j = idx - 1;
        let stop = idx - lsb;
        while j > stop {
            covered += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        self.tree[idx] = covered;
        self.set_weight(i, w);
        i
    }

    /// Sets the weight of item `i` to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, or `w` is negative or non-finite.
    pub fn set_weight(&mut self, i: usize, w: f64) {
        assert!(
            w.is_finite() && w >= 0.0,
            "weight must be finite and non-negative"
        );
        let delta = w - self.weights[i];
        self.weights[i] = w;
        self.total += delta;
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
        // Guard against drift making the total slightly negative.
        if self.total < 0.0 {
            self.total = self.weights.iter().sum();
        }
    }

    /// Draws an index with probability proportional to its weight.
    ///
    /// Returns `None` when the total weight is zero (or no items exist).
    pub fn sample(&self, rng: &mut StdRng) -> Option<usize> {
        if self.total <= 0.0 || self.weights.is_empty() {
            return None;
        }
        let target = rng.gen_range(0.0..self.total);
        Some(self.find(target))
    }

    /// Finds the smallest index whose prefix sum exceeds `target`: the item
    /// [`sample`](Self::sample) returns for a drawn `target`.
    ///
    /// Monotone: `a <= b` implies `find(a) <= find(b)`, because the descent
    /// only ever subtracts the same tree values from both targets.
    ///
    /// # Panics
    ///
    /// Panics if the sampler is empty.
    pub fn find(&self, target: f64) -> usize {
        self.descend(target, |_, node| self.tree[node], |k| self.weights[k])
    }

    /// The total that `set_weight(i, 0.0)` would leave, computed without the
    /// write, with the same negative-total guard.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn masked_total(&self, i: usize) -> f64 {
        let total = self.total + (0.0 - self.weights[i]);
        if total < 0.0 {
            self.weights
                .iter()
                .enumerate()
                .map(|(k, &w)| if k == i { 0.0 } else { w })
                .sum()
        } else {
            total
        }
    }

    /// `find(target)` as it would run after `set_weight(i, 0.0)`, computed
    /// without the write: `i`'s weight is subtracted from the tree nodes on
    /// its update path as they are read, and `i` reads as weight 0.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn find_masked(&self, i: usize, target: f64) -> usize {
        let down = 0.0 - self.weights[i];
        // Node `node` of the descent covers items `pos..node` (0-based), so
        // it lies on `i`'s update path exactly when `i` is in that range.
        let node = |pos: usize, node: usize| {
            if pos <= i && i < node {
                self.tree[node] + down
            } else {
                self.tree[node]
            }
        };
        self.descend(target, node, |k| if k == i { 0.0 } else { self.weights[k] })
    }

    /// Applies the rounding of `set_weight(i, 0.0)` followed by
    /// `set_weight(i, w)`, with `w` item `i`'s weight, and reports whether
    /// any bit of the tree or the total changed. `(x − w) + w` need not give
    /// back `x`, so the pair is not a no-op in general.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn round_trip(&mut self, i: usize) -> bool {
        let w = self.weights[i];
        let (down, up) = (0.0 - w, w - 0.0);
        let mut changed = false;
        let mut idx = i + 1;
        while idx < self.tree.len() {
            let x = self.tree[idx];
            let y = (x + down) + up;
            changed |= x.to_bits() != y.to_bits();
            self.tree[idx] = y;
            idx += idx & idx.wrapping_neg();
        }
        // The masked total is not negative, so `set_weight`'s guard cannot
        // fire on the way back up.
        let total = self.masked_total(i) + up;
        changed |= total.to_bits() != self.total.to_bits();
        self.total = total;
        changed
    }

    /// The Fenwick descent behind [`find`](Self::find) and
    /// [`find_masked`](Self::find_masked): `node(pos, next)` reads tree node
    /// `next` with `pos` walked so far, and `weight(k)` reads item `k`.
    fn descend(
        &self,
        mut target: f64,
        node: impl Fn(usize, usize) -> f64,
        weight: impl Fn(usize) -> f64,
    ) -> usize {
        let n = self.weights.len();
        let mut pos = 0usize; // 1-based position walked so far
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            // Node `next` holds the sum of the range (pos, next] at this
            // point of the descent; skip the whole range when the target
            // lies beyond it.
            if next <= n {
                let sum = node(pos, next);
                if sum <= target {
                    target -= sum;
                    pos = next;
                }
            }
            step >>= 1;
        }
        // pos is the count of items fully skipped; item index = pos, but
        // floating-point edge cases can land one past the end or on a
        // zero-weight item — walk forward to the next positive weight.
        let mut i = pos.min(n - 1);
        while weight(i) <= 0.0 && i + 1 < n {
            i += 1;
        }
        // If everything to the right is zero-weight, walk back.
        while weight(i) <= 0.0 && i > 0 {
            i -= 1;
        }
        i
    }
}

impl Default for DynamicWeightedSampler {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot weighted sampler over a fixed weight table (binary search on the
/// cumulative sum). Construction is `O(n)`, each draw `O(log n)`.
#[derive(Debug, Clone)]
pub struct CumulativeSampler {
    cumulative: Vec<f64>,
}

impl CumulativeSampler {
    /// Builds the cumulative table. Returns `None` when the total weight is
    /// not strictly positive or any weight is negative/non-finite.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return None;
            }
            acc += w;
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            return None;
        }
        Some(CumulativeSampler { cumulative })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// `true` when there are no items.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws an index with probability proportional to its weight.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let target = rng.gen_range(0.0..total);
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).expect("finite"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn empty_sampler_returns_none() {
        let s = DynamicWeightedSampler::new();
        let mut rng = seeded_rng(0);
        assert!(s.sample(&mut rng).is_none());
        assert!(s.is_empty());
        assert_eq!(s.total(), 0.0);
    }

    #[test]
    fn zero_total_returns_none() {
        let s = DynamicWeightedSampler::from_weights(&[0.0, 0.0]);
        let mut rng = seeded_rng(0);
        assert!(s.sample(&mut rng).is_none());
    }

    #[test]
    fn single_item_always_selected() {
        let s = DynamicWeightedSampler::from_weights(&[0.3]);
        let mut rng = seeded_rng(1);
        for _ in 0..50 {
            assert_eq!(s.sample(&mut rng), Some(0));
        }
    }

    #[test]
    fn zero_weight_items_never_selected() {
        let s = DynamicWeightedSampler::from_weights(&[0.0, 1.0, 0.0, 2.0, 0.0]);
        let mut rng = seeded_rng(2);
        for _ in 0..2000 {
            let i = s.sample(&mut rng).unwrap();
            assert!(i == 1 || i == 3, "selected zero-weight item {i}");
        }
    }

    #[test]
    fn frequencies_match_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let s = DynamicWeightedSampler::from_weights(&weights);
        let mut rng = seeded_rng(3);
        let mut counts = [0usize; 4];
        let draws = 100_000;
        for _ in 0..draws {
            counts[s.sample(&mut rng).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = weights[i] / 10.0;
            let got = c as f64 / draws as f64;
            assert!((got - expect).abs() < 0.01, "item {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn updates_shift_frequencies() {
        let mut s = DynamicWeightedSampler::from_weights(&[1.0, 1.0]);
        s.set_weight(0, 9.0);
        let mut rng = seeded_rng(4);
        let mut zero = 0usize;
        for _ in 0..20_000 {
            if s.sample(&mut rng).unwrap() == 0 {
                zero += 1;
            }
        }
        let frac = zero as f64 / 20_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac = {frac}");
        assert!((s.total() - 10.0).abs() < 1e-12);
        assert_eq!(s.weight(0), 9.0);
    }

    #[test]
    fn push_grows_sampler_incrementally() {
        let mut s = DynamicWeightedSampler::new();
        for i in 0..100 {
            assert_eq!(s.push(i as f64 + 1.0), i);
        }
        assert_eq!(s.len(), 100);
        let expected: f64 = (1..=100).map(|i| i as f64).sum();
        assert!((s.total() - expected).abs() < 1e-9);
        // Spot-check sampling still matches weights after many pushes.
        let mut rng = seeded_rng(6);
        let mut high = 0usize;
        for _ in 0..20_000 {
            if s.sample(&mut rng).unwrap() >= 50 {
                high += 1;
            }
        }
        // Items 50..100 carry weights 51..=100 = 3775 of 5050 total.
        let frac = high as f64 / 20_000.0;
        assert!((frac - 3775.0 / 5050.0).abs() < 0.02, "frac = {frac}");
    }

    /// Tree and total bits: the whole state that a draw reads besides the
    /// weights.
    fn bits(s: &DynamicWeightedSampler) -> (Vec<u64>, u64) {
        (
            s.tree.iter().map(|x| x.to_bits()).collect(),
            s.total.to_bits(),
        )
    }

    /// A sampler with zero weights that has carried 10 000 random weight
    /// changes, so its tree and total hold rounding residues.
    fn worn_sampler(rng: &mut StdRng) -> DynamicWeightedSampler {
        let n = rng.gen_range(2..120usize);
        let weight = |rng: &mut StdRng| match rng.gen_range(0..4usize) {
            0 => 0.0,
            1 => rng.gen_range(0.0..1.0),
            2 => rng.gen_range(1.0..1e3),
            _ => rng.gen_range(0..40usize) as f64 + 1.0,
        };
        let initial: Vec<f64> = (0..n).map(|_| weight(rng)).collect();
        let mut s = DynamicWeightedSampler::from_weights(&initial);
        for _ in 0..10_000 {
            let i = rng.gen_range(0..n);
            let w = weight(rng);
            s.set_weight(i, w);
        }
        s
    }

    #[test]
    fn masked_reads_equal_mutate_sample_restore() {
        // Round trips seen that changed a bit, and that changed none.
        let mut seen = [0usize; 2];
        crate::rng::check(24, |rng| {
            let s = worn_sampler(rng);
            let mut forced = s.clone();
            // A drifted total below one weight exercises the negative-total
            // guard of both paths.
            let heaviest = (0..s.len())
                .max_by(|&a, &b| s.weight(a).total_cmp(&s.weight(b)))
                .unwrap();
            forced.total = s.weight(heaviest) * 0.5;
            for s in [s, forced] {
                for i in 0..s.len() {
                    let mut mutated = s.clone();
                    mutated.set_weight(i, 0.0);
                    let masked = s.masked_total(i);
                    assert_eq!(masked.to_bits(), mutated.total().to_bits(), "item {i}");
                    if masked > 0.0 {
                        let mut targets: Vec<f64> =
                            (0..64).map(|_| rng.gen_range(0.0..masked)).collect();
                        targets.extend([0.0, masked * (1.0 - f64::EPSILON)]);
                        for x in targets {
                            assert_eq!(s.find_masked(i, x), mutated.find(x), "item {i} x {x}");
                        }
                    }
                    mutated.set_weight(i, s.weight(i));
                    let mut tripped = s.clone();
                    let changed = tripped.round_trip(i);
                    assert_eq!(bits(&tripped), bits(&mutated), "item {i}");
                    assert_eq!(changed, bits(&tripped) != bits(&s), "item {i}");
                    assert_eq!(tripped.weights, s.weights);
                    seen[usize::from(changed)] += 1;
                }
            }
        });
        assert!(seen[0] > 0 && seen[1] > 0, "{seen:?}");
    }

    #[test]
    fn find_is_monotone_in_its_target() {
        crate::rng::check(24, |rng| {
            let s = worn_sampler(rng);
            let mut targets: Vec<f64> = (0..2_000)
                .map(|_| rng.gen_range(0.0..s.total().max(1.0)))
                .collect();
            targets.sort_by(f64::total_cmp);
            for pair in targets.windows(2) {
                assert!(s.find(pair[0]) <= s.find(pair[1]), "{pair:?}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        let _ = DynamicWeightedSampler::from_weights(&[-1.0]);
    }

    #[test]
    fn cumulative_sampler_basics() {
        assert!(CumulativeSampler::new(&[]).is_none());
        assert!(CumulativeSampler::new(&[0.0]).is_none());
        assert!(CumulativeSampler::new(&[-1.0, 2.0]).is_none());
        assert!(CumulativeSampler::new(&[f64::NAN]).is_none());

        let s = CumulativeSampler::new(&[1.0, 0.0, 3.0]).unwrap();
        assert_eq!(s.len(), 3);
        let mut rng = seeded_rng(7);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[s.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac0 = counts[0] as f64 / 40_000.0;
        assert!((frac0 - 0.25).abs() < 0.01, "frac0 = {frac0}");
    }
}

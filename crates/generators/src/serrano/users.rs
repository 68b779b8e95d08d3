//! The environment: a growing pool of users competing for by ASs.
//!
//! Users are not simulated individually — at the paper's scales the pool
//! reaches `~10⁸` users, so the pool evolves node-level aggregates `ω_i`:
//!
//! * **Growth** distributes `ΔW` new users by the linear preference
//!   `Π_i = ω_i / W` (rich get richer), optionally with the multinomial
//!   noise restored as a Gaussian diffusion term.
//! * **Reallocation** at rate `λ` moves users between ASs; under linear
//!   preference its drift cancels exactly (Eq. 2 of the source text) and
//!   only diffusion remains.
//! * **Node birth** is funded by an equal-share [`UserPool::levy`] on the
//!   existing nodes; each newborn takes `ω₀` of it
//!   ([`UserPool::add_node_funded`]).

use inet_stats::dist::standard_normal;
use inet_stats::rng::StdRng;

/// Per-node user counts plus their exact total.
#[derive(Debug, Clone)]
pub struct UserPool {
    omega: Vec<f64>,
    total: f64,
}

impl UserPool {
    /// Seeds the pool with `n0` nodes of `omega0` users each.
    pub fn new(n0: usize, omega0: f64) -> Self {
        UserPool {
            omega: vec![omega0; n0],
            total: omega0 * n0 as f64,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.omega.len()
    }

    /// `true` when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.omega.is_empty()
    }

    /// Total users `W`.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Users of node `i`.
    pub fn users(&self, i: usize) -> f64 {
        self.omega[i]
    }

    /// Borrow the full vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.omega
    }

    /// Distributes `delta_w ≥ 0` new users by linear preference. With
    /// `noise`, each share receives its multinomial fluctuation
    /// `√(ΔW π_i (1−π_i)) ξ` (clamped so no node loses users during
    /// growth), then the total is renormalized to be exact.
    pub fn grow(&mut self, delta_w: f64, noise: bool, rng: &mut StdRng) {
        self.grow_with_preference(delta_w, 1.0, noise, rng);
    }

    /// Like [`UserPool::grow`], but with the generalized preference kernel
    /// `Π_i ∝ ω_i^θ` (`θ = 1` is the paper's linear competition; `θ < 1`
    /// damps and `θ > 1` sharpens the rich-get-richer effect — the
    /// preference-function ablation).
    pub fn grow_with_preference(
        &mut self,
        delta_w: f64,
        theta: f64,
        noise: bool,
        rng: &mut StdRng,
    ) {
        debug_assert!(delta_w >= 0.0);
        assert!(theta >= 0.0, "preference exponent must be non-negative");
        if self.total <= 0.0 || delta_w <= 0.0 {
            return;
        }
        let w = self.total;
        let linear = (theta - 1.0).abs() < 1e-12;
        if !noise && linear {
            let factor = 1.0 + delta_w / w;
            for o in &mut self.omega {
                *o *= factor;
            }
            self.total += delta_w;
            return;
        }
        let z: f64 = if linear {
            w
        } else {
            self.omega.iter().map(|&o| o.powf(theta)).sum()
        };
        let mut new_total = 0.0;
        for o in &mut self.omega {
            let pi = if linear { *o / z } else { o.powf(theta) / z };
            let mean = delta_w * pi;
            let gain = if noise {
                let sd = (delta_w * pi * (1.0 - pi)).max(0.0).sqrt();
                (mean + sd * standard_normal(rng)).max(0.0)
            } else {
                mean
            };
            *o += gain;
            new_total += *o;
        }
        // Renormalize: the pool total is a model invariant.
        let target = w + delta_w;
        let scale = target / new_total;
        for o in &mut self.omega {
            *o *= scale;
        }
        self.total = target;
    }

    /// Applies the `λ`-reallocation step. Drift cancels under linear
    /// preference; with `noise` the diffusion term `√(2λω_i) ξ` is applied
    /// (and the total preserved). Without noise this is a no-op.
    pub fn reallocate(&mut self, lambda: f64, noise: bool, rng: &mut StdRng) {
        debug_assert!(lambda >= 0.0);
        if lambda <= 0.0 || !noise || self.omega.is_empty() {
            return;
        }
        let w = self.total;
        let mut new_total = 0.0;
        for o in &mut self.omega {
            let sd = (2.0 * lambda * *o).max(0.0).sqrt();
            *o = (*o + sd * standard_normal(rng)).max(1.0);
            new_total += *o;
        }
        let scale = w / new_total;
        for o in &mut self.omega {
            *o *= scale;
        }
        self.total = w;
    }

    /// Charges a levy of `amount` users from the pool, capped at half of
    /// the users above the reflecting boundary `ω = 1`, and returns the
    /// amount actually collected. The pool total decreases by exactly the
    /// returned value.
    ///
    /// The levy is an **equal share per node**, clamped at the boundary,
    /// with any clamped shortfall taken proportionally from the nodes above
    /// it. This realizes the constant `−βω₀` drift term of the source
    /// text's Eq. (2): with a *proportional* withdrawal the early nodes
    /// would grow at `α − β` instead of `α` and the size distribution's
    /// heavy tail collapses — a subtle but order-of-magnitude modeling
    /// difference.
    ///
    /// Used by the model driver to realize the continuum `−βω₀` withdrawal
    /// *smoothly*: the expected birth mass `ΔN·ω₀` is collected every
    /// iteration into a reserve that funds node births, instead of hitting
    /// the (initially tiny) population with rare `ω₀`-sized slugs whose
    /// timing would make early trajectories path-dependent.
    pub fn levy(&mut self, amount: f64) -> f64 {
        if amount <= 0.0 || self.omega.is_empty() {
            return 0.0;
        }
        let floor = 1.0f64;
        let available: f64 = self.omega.iter().map(|&o| (o - floor).max(0.0)).sum();
        let amount = amount.min(0.5 * available);
        if amount <= 0.0 {
            return 0.0;
        }
        let share = amount / self.omega.len() as f64;
        let mut collected = 0.0;
        for o in &mut self.omega {
            let take = share.min((*o - floor).max(0.0));
            *o -= take;
            collected += take;
        }
        if collected < amount - 1e-9 {
            let deficit = amount - collected;
            let excess: f64 = self.omega.iter().map(|&o| (o - floor).max(0.0)).sum();
            if excess > deficit {
                for o in &mut self.omega {
                    let frac = (*o - floor).max(0.0) / excess;
                    *o -= deficit * frac;
                }
                collected = amount;
            }
        }
        self.total -= collected;
        collected
    }

    /// Adds a node holding `omega` users supplied by the caller (funded
    /// from a levy reserve); the pool total increases by `omega`. Returns
    /// the new node's index.
    pub fn add_node_funded(&mut self, omega: f64) -> usize {
        debug_assert!(omega > 0.0);
        self.omega.push(omega);
        self.total += omega;
        self.omega.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_stats::rng::seeded_rng;

    #[test]
    fn seed_pool() {
        let p = UserPool::new(2, 5000.0);
        assert_eq!(p.len(), 2);
        assert_eq!(p.total(), 10_000.0);
        assert_eq!(p.users(0), 5000.0);
    }

    #[test]
    fn deterministic_growth_is_proportional() {
        let mut rng = seeded_rng(1);
        let mut p = UserPool::new(2, 5000.0);
        // Make them unequal first.
        p.add_node_funded(1000.0);
        let before: Vec<f64> = p.as_slice().to_vec();
        let w0 = p.total();
        p.grow(1000.0, false, &mut rng);
        assert!((p.total() - (w0 + 1000.0)).abs() < 1e-6);
        for (i, &b) in before.iter().enumerate() {
            let expect = b * (1.0 + 1000.0 / w0);
            assert!((p.users(i) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn noisy_growth_preserves_total_and_positivity() {
        let mut rng = seeded_rng(2);
        let mut p = UserPool::new(4, 2500.0);
        for _ in 0..50 {
            let w = p.total();
            p.grow(0.04 * w, true, &mut rng);
            assert!((p.total() - 1.04 * w).abs() < 1e-6 * w);
            assert!(p.as_slice().iter().all(|&o| o > 0.0));
        }
    }

    #[test]
    fn noisy_growth_fluctuates_shares() {
        let mut rng = seeded_rng(3);
        let mut a = UserPool::new(2, 5000.0);
        let mut b = UserPool::new(2, 5000.0);
        a.grow(10_000.0, true, &mut rng);
        b.grow(10_000.0, false, &mut rng);
        assert!((a.users(0) - b.users(0)).abs() > 1.0, "noise had no effect");
    }

    #[test]
    fn reallocation_preserves_total() {
        let mut rng = seeded_rng(4);
        let mut p = UserPool::new(5, 2000.0);
        let w = p.total();
        p.reallocate(0.05, true, &mut rng);
        assert!((p.total() - w).abs() < 1e-6 * w);
        assert!(p.as_slice().iter().all(|&o| o > 0.0));
        // Without noise: exact no-op.
        let before = p.as_slice().to_vec();
        p.reallocate(0.05, false, &mut rng);
        assert_eq!(p.as_slice(), &before[..]);
    }

    #[test]
    fn spawn_withdraws_equal_shares() {
        let mut p = UserPool::new(2, 1000.0);
        // Give the pool enough headroom above the boundary.
        let mut rng = seeded_rng(0);
        p.grow(8000.0, false, &mut rng); // both nodes now at 5000
        assert_eq!(p.levy(1000.0), 1000.0);
        assert!((p.total() - 9000.0).abs() < 1e-9);
        // Equal share: each of the two donors lost 500.
        assert!(
            (p.users(0) - 4500.0).abs() < 1e-9,
            "users(0) = {}",
            p.users(0)
        );
        assert!((p.users(1) - 4500.0).abs() < 1e-9);
        // The levied users fund the newborn.
        assert_eq!(p.add_node_funded(1000.0), 2);
        assert_eq!(p.len(), 3);
        assert!((p.total() - 10_000.0).abs() < 1e-9);
        assert_eq!(p.users(2), 1000.0);
    }

    #[test]
    fn spawn_clamps_at_boundary_and_shifts_burden() {
        // One poor node half a user above the boundary, one rich node: the
        // poor node gives its half user and the rich node pays the rest.
        let mut p = UserPool::new(1, 100.0);
        let mut rng = seeded_rng(0);
        p.grow(9900.0, false, &mut rng); // node 0 at 10_000
        p.add_node_funded(1.5);
        let (rich_before, total_before) = (p.users(0), p.total());
        let collected = p.levy(100.0);
        assert_eq!(collected, 100.0);
        assert_eq!(p.users(1), 1.0, "the poor node sits at the floor");
        assert!((p.users(0) - (rich_before - 99.5)).abs() < 1e-9);
        assert_eq!(p.total(), total_before - collected);
    }

    #[test]
    fn spawn_refuses_to_drain_pool() {
        // 20 users above the boundary: at most 10 are taken.
        let mut p = UserPool::new(2, 11.0);
        let collected = p.levy(1000.0);
        assert_eq!(collected, 10.0);
        assert_eq!(p.as_slice(), &[6.0, 6.0]);
        assert_eq!(p.total(), 22.0 - collected);
        // A pool at the boundary gives nothing.
        let mut floor = UserPool::new(3, 1.0);
        assert_eq!(floor.levy(5.0), 0.0);
        assert_eq!(floor.total(), 3.0);
        assert_eq!(floor.as_slice(), &[1.0; 3]);
    }
}

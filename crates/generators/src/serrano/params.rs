//! Parameters of the competition–adaptation model.

use crate::error::require;
use crate::ModelError;

/// Distance-constraint configuration (the model's "with distance" variant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceConstraint {
    /// Fractal dimension of the node-placement set (routers: ≈ 1.5).
    pub fractal_dimension: f64,
    /// Subdivision depth of the fractal set.
    pub depth: u32,
    /// Multiplier on the default cost density
    /// `κ₀ = ω₀ / (N₀ · √2)`; larger values shrink the characteristic
    /// distance `d_c(ω_i, ω_j) = ω_i ω_j / (κ W)` and localize small peers
    /// harder.
    ///
    /// The default 0.03 is calibrated so that at the paper's size
    /// (`N ≈ 11 000`) seed-sized peers can still reach their fractal
    /// neighborhood: it reproduces the AS map's clustering (≈ 0.3),
    /// disassortativity (≈ −0.2) and a > 90% giant component. With
    /// `kappa_scale = 1` the kernel is so strict late in the run that the
    /// youngest half of the ASs cannot find any acceptable peer and the
    /// network fragments.
    pub kappa_scale: f64,
}

impl Default for DistanceConstraint {
    fn default() -> Self {
        DistanceConstraint {
            fractal_dimension: 1.5,
            depth: 8,
            kappa_scale: 0.03,
        }
    }
}

/// Full parameter set of the Serrano–Boguñá–Díaz-Guilera model.
///
/// Rates are per iteration ("month"): the paper's empirical values are
/// `α = 0.035`, `β = 0.03`, `δ′ = 0.04`. Derived quantities:
///
/// * `τ = β/α` — size-distribution exponent is `1 + τ`;
/// * `μ = β/δ′` — degree–bandwidth scaling `k = b^μ`;
/// * `δ = 2β − αβ/δ′` — edge growth rate;
/// * `γ = 1 + 1/(2 − δ/β)` — predicted degree exponent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerranoParams {
    /// Users brought by (and withdrawn for) each new node (`ω₀`).
    pub omega0: f64,
    /// Seed node count (`N₀`).
    pub n0: usize,
    /// Seed total bandwidth (`B₀`).
    pub b0: f64,
    /// User growth rate `α` per iteration.
    pub alpha: f64,
    /// Node growth rate `β` per iteration.
    pub beta: f64,
    /// Bandwidth growth rate `δ′` per iteration.
    pub delta_prime: f64,
    /// User reallocation rate `λ` (pure diffusion; zero drift).
    pub lambda: f64,
    /// Reinforcement probability `r`: after a pair connects, each extra
    /// parallel unit forms with probability `r` while both still need
    /// bandwidth.
    pub r: f64,
    /// Preference-kernel exponent `θ` of the competition `Π_i ∝ ω_i^θ`
    /// (1 = the paper's linear preference).
    pub theta: f64,
    /// Stop once this many nodes exist.
    pub target_n: usize,
    /// Optional distance constraint (`None` = "without distance" variant).
    pub distance: Option<DistanceConstraint>,
    /// Model the multinomial/reallocation noise of user dynamics (Gaussian
    /// diffusion approximation). `false` gives the exact zero-noise drift
    /// trajectories of Eq. (3).
    pub stochastic_users: bool,
    /// Matching-loop guard: abort the per-iteration pairing after
    /// `max_attempts_factor × (⌈total deficit⌉ + 2)` candidate draws. With
    /// the distance constraint on, this budget does bind: at `paper_2001`
    /// it ends 14–30% of the matching rounds with deficit left unmet, more
    /// often as `n` grows.
    pub max_attempts_factor: usize,
}

impl SerranoParams {
    /// The paper's simulation parameterization (`ω₀ = 5000`, `N₀ = 2`,
    /// `B₀ = 1`, `α = 0.035`, `β = 0.03`, `δ′ = 0.04`, `r = 0.8`), with the
    /// distance constraint on a `D_f = 1.5` fractal, targeting the 2001 AS
    /// map size `N ≈ 11 000`.
    pub fn paper_2001() -> Self {
        SerranoParams {
            omega0: 5000.0,
            n0: 2,
            b0: 1.0,
            alpha: 0.035,
            beta: 0.03,
            delta_prime: 0.04,
            lambda: 0.0,
            r: 0.8,
            theta: 1.0,
            target_n: 11_000,
            distance: Some(DistanceConstraint::default()),
            stochastic_users: true,
            max_attempts_factor: 50,
        }
    }

    /// Same as [`SerranoParams::paper_2001`] but without the distance
    /// constraint (the paper's dashed-line variant).
    pub fn paper_2001_no_distance() -> Self {
        SerranoParams {
            distance: None,
            ..Self::paper_2001()
        }
    }

    /// A scaled-down variant for fast tests and examples.
    pub fn small(target_n: usize) -> Self {
        SerranoParams {
            target_n,
            ..Self::paper_2001()
        }
    }

    /// Validates parameter coherence. Called by the model constructor.
    ///
    /// # Panics
    ///
    /// Panics when rates are non-positive, `α ≤ β` (demand could not keep up
    /// with supply), `δ′ ≤ α` (bandwidth would fall behind traffic),
    /// `r ∉ [0, 1)`, or sizes are degenerate;
    /// [`SerranoParams::try_validate`] is the panic-free form.
    #[allow(clippy::panic)] // documented fail-fast validator
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Checks the same coherence constraints as
    /// [`SerranoParams::validate`], but reports the first violation as a
    /// typed [`ModelError`] instead of panicking.
    pub fn try_validate(&self) -> Result<(), ModelError> {
        const M: &str = "serrano";
        require(
            self.omega0 > 0.0,
            M,
            "omega0 must be positive",
            format!("omega0 = {}", self.omega0),
        )?;
        require(
            self.n0 >= 1,
            M,
            "need at least one seed node",
            format!("n0 = {}", self.n0),
        )?;
        require(
            self.b0 > 0.0,
            M,
            "b0 must be positive",
            format!("b0 = {}", self.b0),
        )?;
        require(
            self.alpha > 0.0 && self.beta > 0.0 && self.delta_prime > 0.0,
            M,
            "growth rates must be positive",
            format!(
                "alpha = {}, beta = {}, delta' = {}",
                self.alpha, self.beta, self.delta_prime
            ),
        )?;
        require(
            self.alpha > self.beta,
            M,
            "alpha > beta required: users must outgrow nodes (demand/supply balance)",
            format!("alpha = {}, beta = {}", self.alpha, self.beta),
        )?;
        require(
            self.delta_prime > self.alpha,
            M,
            "delta' > alpha required: bandwidth adapts to growing per-user traffic",
            format!("delta' = {}, alpha = {}", self.delta_prime, self.alpha),
        )?;
        require(
            self.lambda >= 0.0,
            M,
            "lambda must be non-negative",
            format!("lambda = {}", self.lambda),
        )?;
        require(
            (0.0..1.0).contains(&self.r),
            M,
            "r must lie in [0, 1)",
            format!("r = {}", self.r),
        )?;
        require(
            self.theta >= 0.0,
            M,
            "preference exponent must be non-negative",
            format!("theta = {}", self.theta),
        )?;
        require(
            self.target_n >= self.n0,
            M,
            "target size below seed size",
            format!("target_n = {}, n0 = {}", self.target_n, self.n0),
        )?;
        require(
            self.max_attempts_factor >= 1,
            M,
            "need a positive attempt budget",
            format!("max_attempts_factor = {}", self.max_attempts_factor),
        )
    }

    /// `τ = β/α` (AS size-distribution tail is `ω^-(1+τ)`).
    pub fn tau(&self) -> f64 {
        self.beta / self.alpha
    }

    /// `μ = β/δ′` — predicted degree–bandwidth exponent.
    pub fn mu(&self) -> f64 {
        self.beta / self.delta_prime
    }

    /// Edge growth rate `δ = 2β − αβ/δ′` implied by the closure
    /// `δ′ = αβ/(2β − δ)`.
    pub fn delta(&self) -> f64 {
        2.0 * self.beta - self.alpha * self.beta / self.delta_prime
    }

    /// Predicted degree exponent `γ = 1 + 1/(2 − δ/β)`.
    pub fn gamma(&self) -> f64 {
        1.0 + 1.0 / (2.0 - self.delta() / self.beta)
    }

    /// Total users `W(t) = ω₀ N₀ e^{αt}`.
    pub fn users_at(&self, t: f64) -> f64 {
        self.omega0 * self.n0 as f64 * (self.alpha * t).exp()
    }

    /// Expected node count `N(t) = N₀ e^{βt}`.
    pub fn nodes_at(&self, t: f64) -> f64 {
        self.n0 as f64 * (self.beta * t).exp()
    }

    /// Prescribed total bandwidth `B(t) = B₀ e^{δ′t}`.
    pub fn bandwidth_at(&self, t: f64) -> f64 {
        self.b0 * (self.delta_prime * t).exp()
    }

    /// Number of iterations needed to reach `target_n` nodes.
    pub fn horizon(&self) -> u32 {
        ((self.target_n as f64 / self.n0 as f64).ln() / self.beta).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_derived_quantities() {
        let p = SerranoParams::paper_2001();
        p.validate();
        assert!((p.tau() - 0.03 / 0.035).abs() < 1e-12);
        assert!((p.mu() - 0.75).abs() < 1e-12);
        // delta = 2*0.03 - 0.035*0.03/0.04 = 0.03375.
        assert!((p.delta() - 0.03375).abs() < 1e-12);
        // gamma = 1 + 1/(2 - 1.125) = 2.142857...
        assert!((p.gamma() - (1.0 + 1.0 / 0.875)).abs() < 1e-12);
        // The paper quotes gamma = 2.2 +- 0.1 from empirical rates; the
        // simulation parameterization sits inside that band.
        assert!((p.gamma() - 2.2).abs() < 0.1);
    }

    #[test]
    fn growth_curves() {
        let p = SerranoParams::paper_2001();
        assert!((p.users_at(0.0) - 10_000.0).abs() < 1e-9);
        assert!((p.nodes_at(0.0) - 2.0).abs() < 1e-12);
        assert!((p.bandwidth_at(0.0) - 1.0).abs() < 1e-12);
        let t = p.horizon() as f64;
        assert!(p.nodes_at(t) >= p.target_n as f64);
        assert!(p.nodes_at(t - 1.0) < p.target_n as f64 * 1.05);
    }

    #[test]
    fn horizon_for_paper_size() {
        let p = SerranoParams::paper_2001();
        // ln(5500)/0.03 ~ 287 iterations.
        assert!((280..300).contains(&p.horizon()), "horizon {}", p.horizon());
    }

    #[test]
    #[should_panic(expected = "alpha > beta")]
    fn rejects_supply_outrunning_demand() {
        let p = SerranoParams {
            alpha: 0.02,
            ..SerranoParams::paper_2001()
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "delta' > alpha")]
    fn rejects_lagging_bandwidth() {
        let p = SerranoParams {
            delta_prime: 0.03,
            ..SerranoParams::paper_2001()
        };
        p.validate();
    }

    #[test]
    fn small_preset_is_valid() {
        let p = SerranoParams::small(500);
        p.validate();
        assert_eq!(p.target_n, 500);
    }
}

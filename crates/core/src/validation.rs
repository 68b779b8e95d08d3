//! Validation of generated topologies against reference targets.

use crate::reference::ReferenceTargets;
use inet_graph::Csr;
use inet_metrics::report::{ReportOptions, TopologyReport};

/// Outcome of one metric check.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationOutcome {
    /// Metric name.
    pub metric: String,
    /// Value measured on the candidate topology.
    pub measured: f64,
    /// Target value.
    pub target: f64,
    /// Acceptable absolute deviation.
    pub tolerance: f64,
    /// Whether the measurement lies within tolerance.
    pub pass: bool,
}

/// Per-metric comparison of a topology against a reference target set.
///
/// Tolerances are deliberately generous — the point is to detect the
/// *category* failures that disqualify a model (light tails, assortative
/// mixing, missing small world), not to fine-tune constants.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// All checks, in a stable order.
    pub outcomes: Vec<ValidationOutcome>,
    /// The headline report the checks were computed from.
    pub report: TopologyReport,
}

impl ValidationReport {
    /// Measures `g` and compares it against `targets`.
    pub fn run(g: &Csr, targets: &ReferenceTargets) -> Self {
        Self::run_with(g, targets, ReportOptions::default())
    }

    /// Like [`ValidationReport::run`] with explicit sampling effort.
    pub fn run_with(g: &Csr, targets: &ReferenceTargets, opt: ReportOptions) -> Self {
        let report = TopologyReport::measure_with(g, opt);
        let mut outcomes = Vec::new();
        let mut check = |metric: &str, measured: f64, target: f64, tolerance: f64| {
            outcomes.push(ValidationOutcome {
                metric: metric.to_string(),
                measured,
                target,
                tolerance,
                pass: (measured - target).abs() <= tolerance,
            });
        };
        check(
            "mean degree",
            report.mean_degree,
            targets.mean_degree,
            0.5 * targets.mean_degree,
        );
        // An unfittable tail reports 0 (a guaranteed FAIL against any real
        // gamma target) rather than NaN, which would poison downstream
        // arithmetic and render as "NaN" in the table.
        check(
            "gamma",
            report.gamma.unwrap_or(0.0),
            targets.gamma,
            3.0 * targets.gamma_tolerance,
        );
        check(
            "mean clustering",
            report.mean_clustering,
            targets.mean_clustering,
            0.7 * targets.mean_clustering,
        );
        check(
            "mean path length",
            report.mean_path_length,
            targets.mean_path_length,
            1.5,
        );
        // Sign matters more than magnitude for assortativity.
        check(
            "assortativity",
            report.assortativity,
            targets.assortativity,
            0.2,
        );
        check(
            "coreness",
            report.coreness as f64,
            targets.coreness as f64,
            0.6 * targets.coreness as f64,
        );
        ValidationReport { outcomes, report }
    }

    /// Number of passing checks.
    pub fn pass_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.pass).count()
    }

    /// Renders an aligned pass/fail table.
    pub fn render(&self) -> String {
        let mut out =
            String::from("metric              measured    target      tol      verdict\n");
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:<18} {:>9.3} {:>9.3} {:>8.3}   {}\n",
                o.metric,
                o.measured,
                o.target,
                o.tolerance,
                if o.pass { "PASS" } else { "FAIL" }
            ));
        }
        out.push_str(&format!(
            "overall: {}/{} checks passed\n",
            self.pass_count(),
            self.outcomes.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{build_reference_csr, AS_MAP_2001};
    use inet_generators::{Generator, Gnp};
    use inet_stats::rng::seeded_rng;

    #[test]
    fn reference_map_validates_against_its_own_targets() {
        let mut rng = seeded_rng(1);
        let csr = build_reference_csr(&AS_MAP_2001, &mut rng);
        let v = ValidationReport::run(&csr, &AS_MAP_2001);
        // The Inet-style reference hits tail/degree/paths/assortativity;
        // clustering is its known weak spot, so demand >= 4 of 6.
        assert!(
            v.pass_count() >= 4,
            "only {}/{} passed:\n{}",
            v.pass_count(),
            v.outcomes.len(),
            v.render()
        );
        // gamma specifically must pass.
        assert!(v.outcomes.iter().any(|o| o.metric == "gamma" && o.pass));
    }

    #[test]
    fn er_graph_fails_category_checks() {
        let mut rng = seeded_rng(2);
        let net = Gnp::with_mean_degree(4000, 4.2).generate(&mut rng);
        let (giant, _) = inet_graph::traversal::giant_component(&net.graph.to_csr());
        let v = ValidationReport::run(&giant, &AS_MAP_2001);
        assert!(
            v.pass_count() < v.outcomes.len(),
            "an ER graph must not validate as the Internet"
        );
        // It should fail the heavy-tail check in particular.
        let gamma = v.outcomes.iter().find(|o| o.metric == "gamma").unwrap();
        assert!(!gamma.pass, "ER graph passed the gamma check: {gamma:?}");
    }

    #[test]
    fn unfittable_gamma_yields_finite_fail_not_nan() {
        // A tiny triangle has no power-law tail to fit: the gamma check
        // must come back as a finite-valued FAIL, never NaN.
        let g = Csr::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let v = ValidationReport::run(&g, &AS_MAP_2001);
        for o in &v.outcomes {
            assert!(
                o.measured.is_finite(),
                "{}: measured {} is not finite",
                o.metric,
                o.measured
            );
        }
        let gamma = v.outcomes.iter().find(|o| o.metric == "gamma").unwrap();
        assert!(!gamma.pass);
        assert!(!v.render().contains("NaN"));
    }

    #[test]
    fn render_is_a_table() {
        let mut rng = seeded_rng(3);
        let net = Gnp::new(200, 0.03).generate(&mut rng);
        let v = ValidationReport::run(&net.graph.to_csr(), &AS_MAP_2001);
        let text = v.render();
        assert!(text.contains("verdict"));
        assert!(text.contains("overall:"));
        assert_eq!(text.lines().count(), v.outcomes.len() + 2);
    }
}

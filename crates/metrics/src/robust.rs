//! Panic-isolated, deadline-aware wrapper around the metrics battery.
//!
//! [`measure_robust`] runs the six kernels of the metrics battery, each
//! one fenced ([`TopologyReport::measure_with`] is this battery with every
//! kernel selected, re-raising a failed kernel's panic):
//!
//! * a panic inside one kernel is caught and surfaced as
//!   [`KernelStatus::Failed`] while every other kernel still reports its
//!   numbers (the failing kernel's fields fall back to the same neutral
//!   values an empty graph produces);
//! * a kernel that finishes but overruns the configured soft deadline is
//!   annotated [`KernelStatus::Degraded`] — the numbers are still exact,
//!   the status tells the operator the budget was blown;
//! * the `metrics.kernel` failpoint (scope = kernel index) lets the chaos
//!   suite force any single kernel to fail deterministically;
//! * a [`KernelSelection`] in the options can deselect kernels entirely
//!   (scenario pipelines measure only what they ask for); deselected
//!   kernels are annotated [`KernelStatus::Skipped`].
//!
//! The numeric content of the report is bit-identical to the kernels
//! called directly, for every thread count; only the status annotations
//! carry timing, so determinism checks compare [`RobustReport::report`].

use crate::clustering::ClusteringStats;
use crate::degree::DegreeStats;
use crate::engine::paths_and_betweenness;
use crate::kcore::KCoreDecomposition;
use crate::knn::KnnStats;
use crate::report::{ReportOptions, TopologyReport};
use inet_exec::{run_fenced, CancelToken, StopWatch, Task, TaskError};
use inet_graph::traversal::giant_fraction;
use inet_graph::Csr;

/// Kernel names, indexed by the `metrics.kernel` failpoint scope.
pub const KERNEL_NAMES: [&str; 6] = [
    "degree",
    "clustering",
    "knn",
    "kcore",
    "paths+betweenness",
    "giant",
];

/// Outcome of one metric kernel inside [`measure_robust`].
#[derive(Debug, Clone, PartialEq)]
pub enum KernelStatus {
    /// Finished within budget; wall-clock spent.
    Ok {
        /// Elapsed milliseconds.
        millis: u64,
    },
    /// Finished, but past the soft deadline — results are exact, the
    /// budget was not.
    Degraded {
        /// Elapsed milliseconds.
        millis: u64,
        /// The soft deadline that was overrun.
        deadline_millis: u64,
    },
    /// The kernel died (caught panic) or an injected fault fired; its
    /// fields in the report hold neutral fallback values.
    Failed {
        /// Best-effort failure description.
        reason: String,
    },
    /// The kernel was deselected by [`RobustOptions::selection`] and never
    /// ran; its fields hold the same neutral fallback values a failure
    /// would leave.
    Skipped,
    /// A cancel token fired before this kernel started
    /// ([`measure_robust_cancellable`]); its fields hold neutral values and
    /// a resumed run recomputes them.
    Cancelled,
}

impl KernelStatus {
    /// True when the kernel ran to completion (its report fields are real
    /// measurements, not neutral fallbacks).
    pub fn produced_values(&self) -> bool {
        matches!(
            self,
            KernelStatus::Ok { .. } | KernelStatus::Degraded { .. }
        )
    }
}

/// Which of the six kernels [`measure_robust`] should run, indexed like
/// [`KERNEL_NAMES`]. The default selects all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSelection(pub [bool; 6]);

impl Default for KernelSelection {
    fn default() -> Self {
        KernelSelection([true; 6])
    }
}

impl KernelSelection {
    /// Selects every kernel (the default).
    pub fn all() -> Self {
        Self::default()
    }

    /// Selects exactly the named kernels (names from [`KERNEL_NAMES`]).
    /// Rejects unknown names so scenario typos fail loudly.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<Self, String> {
        let mut mask = [false; 6];
        for name in names {
            let name = name.as_ref();
            match KERNEL_NAMES.iter().position(|&k| k == name) {
                Some(i) => mask[i] = true,
                None => {
                    return Err(format!(
                        "unknown metric kernel '{name}' (kernels: {})",
                        KERNEL_NAMES.join(" ")
                    ))
                }
            }
        }
        Ok(KernelSelection(mask))
    }

    /// Whether the kernel at `index` is selected.
    pub fn is_selected(&self, index: usize) -> bool {
        self.0.get(index).copied().unwrap_or(false)
    }
}

/// Options for [`measure_robust`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RobustOptions {
    /// Sampling effort, forwarded to the kernels.
    pub report: ReportOptions,
    /// Per-kernel soft deadline in milliseconds. A kernel that overruns it
    /// still completes (results stay deterministic) but is annotated
    /// [`KernelStatus::Degraded`]. `None` disables the check.
    pub soft_deadline_millis: Option<u64>,
    /// Which kernels to run; deselected kernels are annotated
    /// [`KernelStatus::Skipped`] and leave neutral values in the report.
    pub selection: KernelSelection,
}

/// A [`TopologyReport`] plus per-kernel status annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustReport {
    /// The aggregate report. Fields owned by a failed kernel hold the same
    /// neutral values an empty graph would produce.
    pub report: TopologyReport,
    /// One `(kernel name, status)` entry per kernel, in
    /// [`KERNEL_NAMES`] order.
    pub kernels: Vec<(&'static str, KernelStatus)>,
}

impl RobustReport {
    /// True when no kernel failed (skipped kernels are fine: they were
    /// deselected on purpose, not lost).
    pub fn fully_ok(&self) -> bool {
        !self
            .kernels
            .iter()
            .any(|(_, s)| matches!(s, KernelStatus::Failed { .. }))
    }

    /// The failed kernels, `(name, reason)` pairs.
    pub fn failures(&self) -> Vec<(&'static str, &str)> {
        self.kernels
            .iter()
            .filter_map(|(name, s)| match s {
                KernelStatus::Failed { reason } => Some((*name, reason.as_str())),
                _ => None,
            })
            .collect()
    }

    /// The kernels that overran their soft deadline:
    /// `(name, elapsed ms, deadline ms)` triples. Their numbers are exact;
    /// only the budget was blown — report sinks surface these instead of
    /// silently omitting the overrun.
    pub fn deadline_exceeded(&self) -> Vec<(&'static str, u64, u64)> {
        self.kernels
            .iter()
            .filter_map(|(name, s)| match s {
                KernelStatus::Degraded {
                    millis,
                    deadline_millis,
                } => Some((*name, *millis, *deadline_millis)),
                _ => None,
            })
            .collect()
    }

    /// True when a cancel token stopped at least one kernel from running.
    pub fn interrupted(&self) -> bool {
        self.kernels
            .iter()
            .any(|(_, s)| matches!(s, KernelStatus::Cancelled))
    }

    /// Renders one `kernel: status` line per kernel.
    pub fn render_status(&self) -> String {
        self.kernels
            .iter()
            .map(|(name, s)| match s {
                KernelStatus::Ok { millis } => format!("{name}: ok ({millis} ms)"),
                KernelStatus::Degraded {
                    millis,
                    deadline_millis,
                } => format!("{name}: degraded ({millis} ms > {deadline_millis} ms deadline)"),
                KernelStatus::Failed { reason } => format!("{name}: FAILED ({reason})"),
                KernelStatus::Skipped => format!("{name}: skipped"),
                KernelStatus::Cancelled => format!("{name}: cancelled"),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs one kernel behind the shared `inet-exec` fence. A deselected
/// kernel never runs (no failpoint consultation either — it cannot fail).
fn run_kernel<T>(
    index: usize,
    opt: &RobustOptions,
    cancel: &CancelToken,
    f: impl FnOnce() -> T,
) -> (Option<T>, KernelStatus) {
    if !opt.selection.is_selected(index) {
        return (None, KernelStatus::Skipped);
    }
    // Cancellation is polled per kernel: an in-flight kernel finishes (its
    // numbers stay exact), the remaining ones are marked Cancelled.
    if cancel.is_cancelled() {
        return (None, KernelStatus::Cancelled);
    }
    let watch = StopWatch::start(opt.soft_deadline_millis);
    // Both failpoints sit inside the fence so a Panic action is contained
    // exactly like a real kernel panic: the layer-specific `metrics.kernel`
    // (kept for existing chaos plans) and the shared `exec.task` consulted
    // by `run_fenced` itself, both keyed by the kernel index.
    let task = Task::new("metrics.kernel", index as u64);
    match run_fenced(&task, || {
        inet_fault::check("metrics.kernel", index as u64).map(|()| f())
    }) {
        Ok(Ok(value)) => {
            let reading = watch.read();
            let status = match reading.overrun {
                Some(deadline_millis) => KernelStatus::Degraded {
                    millis: reading.millis,
                    deadline_millis,
                },
                None => KernelStatus::Ok {
                    millis: reading.millis,
                },
            };
            (Some(value), status)
        }
        Ok(Err(e)) => (
            None,
            KernelStatus::Failed {
                reason: e.to_string(),
            },
        ),
        Err(TaskError::Fault(e)) => (
            None,
            KernelStatus::Failed {
                reason: e.to_string(),
            },
        ),
        Err(TaskError::Panicked(reason)) => (None, KernelStatus::Failed { reason }),
    }
}

/// Measures the full battery with per-kernel panic isolation and deadline
/// annotation. A kernel that fails (panic or injected fault) zeroes only
/// its own fields; the other kernels' numbers are reported normally.
pub fn measure_robust(g: &Csr, opt: RobustOptions) -> RobustReport {
    measure_robust_cancellable(g, opt, &CancelToken::new())
}

/// [`measure_robust`] with cooperative cancellation: `cancel` is polled
/// before each kernel starts, so cancel latency is bounded by one kernel.
/// Kernels that never ran are annotated [`KernelStatus::Cancelled`]; the
/// ones that finished keep their exact (bit-identical) numbers.
pub fn measure_robust_cancellable(
    g: &Csr,
    opt: RobustOptions,
    cancel: &CancelToken,
) -> RobustReport {
    let o = opt.report;

    // The power-law x_min scan runs inside the degree kernel's fence, so
    // its time and any panic belong to that kernel.
    let (degree, s_degree) = run_kernel(0, &opt, cancel, || {
        let stats = DegreeStats::measure(g);
        let fit = stats.powerlaw_fit();
        (stats, fit)
    });
    let (clustering, s_clustering) = run_kernel(1, &opt, cancel, || {
        ClusteringStats::measure_threaded(g, o.threads)
    });
    let (knn, s_knn) = run_kernel(2, &opt, cancel, || KnnStats::measure_threaded(g, o.threads));
    let (kcore, s_kcore) = run_kernel(3, &opt, cancel, || KCoreDecomposition::measure(g));
    let (fused, s_fused) = run_kernel(4, &opt, cancel, || {
        paths_and_betweenness(g, o.path_sources, o.betweenness_sources, o.threads)
    });
    let (giant, s_giant) = run_kernel(5, &opt, cancel, || giant_fraction(g));

    let (mean_degree, max_degree, gamma) = match &degree {
        Some((d, fit)) => (d.mean, d.max, fit.map(|f| f.gamma)),
        None => (0.0, 0, None),
    };
    let (mean_clustering, transitivity, triangles) = match &clustering {
        Some(c) => (c.mean_local, c.transitivity, c.triangle_count),
        None => (0.0, 0.0, 0),
    };
    let assortativity = knn.as_ref().map(|k| k.assortativity).unwrap_or(0.0);
    let coreness = kcore.as_ref().map(|k| k.coreness()).unwrap_or(0);
    let (mean_path_length, diameter, max_betweenness) = match &fused {
        Some(f) => (
            f.paths.mean,
            f.paths.diameter,
            f.betweenness.iter().copied().fold(0.0, f64::max),
        ),
        None => (0.0, 0, 0.0),
    };
    let giant_fraction = giant.unwrap_or(0.0);

    RobustReport {
        report: TopologyReport {
            nodes: g.node_count(),
            edges: g.edge_count(),
            mean_degree,
            max_degree,
            gamma,
            mean_clustering,
            transitivity,
            assortativity,
            mean_path_length,
            diameter,
            coreness,
            giant_fraction,
            triangles,
            max_betweenness,
        },
        kernels: vec![
            (KERNEL_NAMES[0], s_degree),
            (KERNEL_NAMES[1], s_clustering),
            (KERNEL_NAMES[2], s_knn),
            (KERNEL_NAMES[3], s_kcore),
            (KERNEL_NAMES[4], s_fused),
            (KERNEL_NAMES[5], s_giant),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Csr::from_edges(n, &edges)
    }

    /// The battery with every kernel called directly, outside any fence:
    /// the oracle the fenced runs must match bit for bit.
    fn direct(g: &Csr, o: ReportOptions) -> TopologyReport {
        let degree = DegreeStats::measure(g);
        let clustering = ClusteringStats::measure_threaded(g, o.threads);
        let knn = KnnStats::measure_threaded(g, o.threads);
        let kcore = KCoreDecomposition::measure(g);
        let fused = paths_and_betweenness(g, o.path_sources, o.betweenness_sources, o.threads);
        TopologyReport {
            nodes: g.node_count(),
            edges: g.edge_count(),
            mean_degree: degree.mean,
            max_degree: degree.max,
            gamma: degree.powerlaw_fit().map(|f| f.gamma),
            mean_clustering: clustering.mean_local,
            transitivity: clustering.transitivity,
            assortativity: knn.assortativity,
            mean_path_length: fused.paths.mean,
            diameter: fused.paths.diameter,
            coreness: kcore.coreness(),
            giant_fraction: giant_fraction(g),
            triangles: clustering.triangle_count,
            max_betweenness: fused.betweenness.iter().copied().fold(0.0, f64::max),
        }
    }

    #[test]
    fn matches_the_plain_battery_when_nothing_fails() {
        let _l = crate::test_lock();
        let g = ring(60);
        let opt = ReportOptions {
            path_sources: 20,
            betweenness_sources: 10,
            threads: 2,
        };
        let plain = direct(&g, opt);
        let robust = measure_robust(
            &g,
            RobustOptions {
                report: opt,
                soft_deadline_millis: None,
                selection: KernelSelection::all(),
            },
        );
        assert_eq!(robust.report, plain);
        assert!(robust.fully_ok());
        assert_eq!(robust.kernels.len(), KERNEL_NAMES.len());
    }

    #[test]
    fn matches_the_plain_battery_on_a_stub_heavy_graph() {
        let _l = crate::test_lock();
        // A ring whose node i carries i % 5 pendant nodes: a third of the
        // nodes are leaves, and the degrees spread enough for a tail fit.
        let mut edges: Vec<(usize, usize)> = (0..30).map(|i| (i, (i + 1) % 30)).collect();
        let mut n = 30;
        for i in 0..30 {
            for _ in 0..i % 5 {
                edges.push((i, n));
                n += 1;
            }
        }
        let g = Csr::from_edges(n, &edges);
        for threads in [1, 2, 7] {
            let opt = ReportOptions {
                path_sources: 40,
                betweenness_sources: 25,
                threads,
            };
            let robust = measure_robust(
                &g,
                RobustOptions {
                    report: opt,
                    soft_deadline_millis: None,
                    selection: KernelSelection::all(),
                },
            );
            let plain = direct(&g, opt);
            assert!(plain.gamma.is_some());
            assert_eq!(robust.report, plain, "threads {threads}");
        }
    }

    #[test]
    fn report_field_is_thread_count_invariant() {
        let _l = crate::test_lock();
        let g = ring(80);
        let make = |threads| {
            measure_robust(
                &g,
                RobustOptions {
                    report: ReportOptions {
                        path_sources: 16,
                        betweenness_sources: 8,
                        threads,
                    },
                    soft_deadline_millis: None,
                    selection: KernelSelection::all(),
                },
            )
            .report
        };
        let base = make(1);
        for threads in [2, 7] {
            assert_eq!(base, make(threads), "threads {threads}");
        }
    }

    #[test]
    fn zero_deadline_marks_kernels_degraded_not_failed() {
        let _l = crate::test_lock();
        // With a 0 ms soft deadline every kernel overruns, but all values
        // must still be exact — degradation is an annotation, not a cut.
        let g = ring(40);
        let opt = ReportOptions {
            path_sources: 10,
            betweenness_sources: 5,
            threads: 1,
        };
        let robust = measure_robust(
            &g,
            RobustOptions {
                report: opt,
                soft_deadline_millis: Some(0),
                selection: KernelSelection::all(),
            },
        );
        assert!(robust.fully_ok());
        assert_eq!(robust.report, direct(&g, opt));
        assert!(robust
            .kernels
            .iter()
            .any(|(_, s)| matches!(s, KernelStatus::Degraded { .. })));
        assert!(robust.render_status().contains("degraded"));
    }

    /// Acceptance check: force one kernel to fail through the failpoint —
    /// the report must still carry every other kernel's numbers, with the
    /// failing kernel marked and its fields neutral.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_kernel_failure_yields_partial_report() {
        let _l = crate::test_lock();
        let g = ring(50);
        let opt = ReportOptions {
            path_sources: 10,
            betweenness_sources: 5,
            threads: 2,
        };
        let plain = direct(&g, opt);
        let _guard = inet_fault::install(inet_fault::FaultPlan::single(
            "metrics.kernel",
            Some(1), // the clustering kernel
            inet_fault::FaultAction::Error,
        ));
        let robust = measure_robust(
            &g,
            RobustOptions {
                report: opt,
                soft_deadline_millis: None,
                selection: KernelSelection::all(),
            },
        );
        assert!(!robust.fully_ok());
        let failures = robust.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "clustering");
        // Clustering fields fall back to neutral values...
        assert_eq!(robust.report.mean_clustering, 0.0);
        assert_eq!(robust.report.triangles, 0);
        // ...while every other kernel's numbers survive.
        assert_eq!(robust.report.mean_degree, plain.mean_degree);
        assert_eq!(robust.report.coreness, plain.coreness);
        assert_eq!(robust.report.diameter, plain.diameter);
        assert_eq!(robust.report.giant_fraction, plain.giant_fraction);
        assert!(robust.render_status().contains("FAILED"));
        // The plain battery has no status channel: it re-raises instead.
        let _guard = inet_fault::install(inet_fault::FaultPlan::single(
            "metrics.kernel",
            Some(1),
            inet_fault::FaultAction::Error,
        ));
        let raised = std::panic::catch_unwind(|| TopologyReport::measure_with(&g, opt))
            .expect_err("measure_with must re-raise a failed kernel");
        assert!(inet_exec::PanicFence::message(&*raised)
            .starts_with("metric kernel 'clustering' failed: "));
    }

    #[test]
    fn status_render_lists_every_kernel() {
        let _l = crate::test_lock();
        let g = ring(20);
        let text = measure_robust(&g, RobustOptions::default()).render_status();
        for name in KERNEL_NAMES {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn selection_skips_kernels_without_losing_the_rest() {
        let _l = crate::test_lock();
        let g = ring(60);
        let opt = ReportOptions {
            path_sources: 20,
            betweenness_sources: 10,
            threads: 2,
        };
        let plain = direct(&g, opt);
        let selection = KernelSelection::from_names(&["degree", "giant"]).expect("known kernels");
        let robust = measure_robust(
            &g,
            RobustOptions {
                report: opt,
                soft_deadline_millis: None,
                selection,
            },
        );
        // Skipping is not failing.
        assert!(robust.fully_ok());
        assert!(robust.failures().is_empty());
        // Selected kernels keep their exact numbers.
        assert_eq!(robust.report.mean_degree, plain.mean_degree);
        assert_eq!(robust.report.giant_fraction, plain.giant_fraction);
        // Deselected kernels report Skipped and neutral values.
        assert_eq!(robust.report.mean_clustering, 0.0);
        assert_eq!(robust.report.diameter, 0);
        let skipped: Vec<&str> = robust
            .kernels
            .iter()
            .filter(|(_, s)| matches!(s, KernelStatus::Skipped))
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(
            skipped,
            vec!["clustering", "knn", "kcore", "paths+betweenness"]
        );
        assert!(robust.render_status().contains("skipped"));
    }

    #[test]
    fn pre_cancelled_measurement_marks_every_kernel_cancelled() {
        let _l = crate::test_lock();
        let g = ring(30);
        let token = CancelToken::new();
        token.cancel();
        let robust = measure_robust_cancellable(&g, RobustOptions::default(), &token);
        assert!(robust.interrupted());
        assert!(robust.fully_ok(), "cancelled is not failed");
        for (name, s) in &robust.kernels {
            assert_eq!(s, &KernelStatus::Cancelled, "{name}");
        }
        assert!(robust.render_status().contains("cancelled"));
        // Neutral values throughout, like an all-skipped run.
        assert_eq!(robust.report.mean_degree, 0.0);
        assert_eq!(robust.report.diameter, 0);
    }

    #[test]
    fn fresh_token_changes_nothing() {
        let _l = crate::test_lock();
        let g = ring(40);
        let opt = RobustOptions::default();
        let plain = measure_robust(&g, opt);
        let tokened = measure_robust_cancellable(&g, opt, &CancelToken::new());
        assert!(!tokened.interrupted());
        assert_eq!(tokened.report, plain.report);
    }

    #[test]
    fn deadline_exceeded_lists_degraded_kernels() {
        let _l = crate::test_lock();
        let g = ring(40);
        let robust = measure_robust(
            &g,
            RobustOptions {
                report: ReportOptions {
                    path_sources: 10,
                    betweenness_sources: 5,
                    threads: 1,
                },
                soft_deadline_millis: Some(0),
                selection: KernelSelection::all(),
            },
        );
        let over = robust.deadline_exceeded();
        assert!(!over.is_empty(), "a 0 ms deadline must be overrun");
        for (name, _millis, deadline) in &over {
            assert!(KERNEL_NAMES.contains(name));
            assert_eq!(*deadline, 0);
        }
        // Without a deadline nothing is reported.
        assert!(measure_robust(&g, RobustOptions::default())
            .deadline_exceeded()
            .is_empty());
    }

    #[test]
    fn selection_rejects_unknown_kernel_names() {
        let err = KernelSelection::from_names(&["degree", "bogus"]).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("kernels:"), "{err}");
    }
}

//! Report rendering and sinks: the summary text, the attack response
//! table, and per-cell curve CSVs.
//!
//! The table and CSV formats are byte-for-byte the legacy `inet attack`
//! output, so scripts that scraped the old CLI keep working and the CLI's
//! thin builders can share this code with `inet run`.

use std::fmt::Write as _;
use std::path::Path;

use inet_exec::Executor;
use inet_metrics::RobustReport;
use inet_resilience::{write_points, AttackCurve, SweepResult};

use crate::run::RunOutcome;
use crate::scenario::Scenario;
use crate::PipelineError;

/// The per-cell response table, exactly as the legacy CLI printed it:
/// header plus one line per cell, each `\n`-terminated.
pub fn attack_table(result: &SweepResult) -> String {
    let mut out = String::from("strategy             rep    f_c   S(.05)  S(.20)  S(.50)\n");
    for cell in &result.cells {
        let _ = writeln!(
            out,
            "{:<20} {:>3}  {:>5.3}   {:>5.3}   {:>5.3}   {:>5.3}{}",
            cell.strategy,
            cell.replica,
            cell.curve.critical_fraction,
            cell.curve.giant_fraction_at(0.05),
            cell.curve.giant_fraction_at(0.20),
            cell.curve.giant_fraction_at(0.50),
            if cell.resampled { "  (resampled)" } else { "" }
        );
    }
    out
}

/// The "resumed N finished cell(s) from X" line, when the sweep resumed.
pub fn resumed_line(result: &SweepResult, checkpoint: Option<&Path>) -> Option<String> {
    (result.resumed > 0).then(|| {
        format!(
            "resumed {} finished cell(s) from {}",
            result.resumed,
            checkpoint
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "checkpoint".to_string())
        )
    })
}

/// One attack curve as CSV, with the legacy header.
pub fn curve_csv(curve: &AttackCurve) -> String {
    let mut csv = String::new();
    push_curve_csv(&mut csv, curve);
    csv
}

/// Appends `curve` to `out` as [`curve_csv`] renders it.
fn push_curve_csv(out: &mut String, curve: &AttackCurve) {
    out.push_str("removed,giant,edges,mean_component\n");
    write_points(out, &curve.points);
}

/// Writes one `{strategy}-r{replica}.csv` per cell into `dir`, rendering
/// and writing the files on `threads` workers. Each worker reuses one
/// buffer, so about `threads` CSVs are in memory at once. On failure the
/// error names the first failing cell in canonical order.
pub fn write_curves(dir: &Path, result: &SweepResult, threads: usize) -> Result<(), PipelineError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| PipelineError::Data(format!("curves: {}: {e}", dir.display())))?;
    Executor::new(threads).fold_ordered(
        result.cells.len(),
        Ok(()),
        String::new,
        |csv, range| {
            result.cells[range].iter().try_for_each(|cell| {
                let path = dir.join(format!("{}-r{}.csv", cell.strategy, cell.replica));
                csv.clear();
                push_curve_csv(csv, &cell.curve);
                std::fs::write(&path, csv.as_bytes())
                    .map_err(|e| PipelineError::Data(format!("curves: {}: {e}", path.display())))
            })
        },
        |first, chunk| {
            if first.is_ok() {
                *first = chunk;
            }
        },
    )
}

/// Creates the parent directory of a file sink, so scenarios can point
/// sinks into not-yet-existing figure directories.
fn ensure_parent(path: &Path) -> Result<(), PipelineError> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent)
            .map_err(|e| PipelineError::Data(format!("{}: {e}", parent.display()))),
        _ => Ok(()),
    }
}

/// Appends `text` ensuring exactly one trailing newline.
fn push_block(out: &mut String, text: &str) {
    out.push_str(text.trim_end_matches('\n'));
    out.push('\n');
}

/// Renders the measurement section of the summary: the metrics report
/// plus (when interesting) the kernel-status block and any soft-deadline
/// overruns — the overruns go into the report sink itself, not only onto
/// stderr. This exact string is also the stage-1 artifact, replayed
/// verbatim on resume.
pub fn render_measure_block(scenario: &Scenario, r: &RobustReport) -> String {
    let mut s = String::new();
    s.push('\n');
    push_block(&mut s, &r.report.render());
    let deadline = scenario.measure.and_then(|m| m.deadline_ms);
    if !r.fully_ok() || deadline.is_some() {
        push_block(&mut s, "# kernel status");
        push_block(&mut s, &r.render_status());
    }
    for (kernel, elapsed, limit) in r.deadline_exceeded() {
        push_block(
            &mut s,
            &format!("# deadline exceeded: {kernel} ran {elapsed} ms against a {limit} ms budget"),
        );
    }
    s
}

/// Renders the run summary: source line, measurement report, attack table.
pub fn render_summary(scenario: &Scenario, outcome: &RunOutcome) -> String {
    let mut s = String::new();
    push_block(&mut s, &format!("scenario: {}", outcome.name));
    if !scenario.description.is_empty() {
        push_block(&mut s, &scenario.description);
    }
    push_block(&mut s, &format!("# {}", outcome.source));
    if let Some(block) = &outcome.measure_replay {
        s.push_str(block);
    } else if let Some(r) = &outcome.robust {
        s.push_str(&render_measure_block(scenario, r));
    }
    if let Some(sweep) = &outcome.sweep {
        s.push('\n');
        let checkpoint = scenario
            .attack
            .as_ref()
            .and_then(|a| a.checkpoint.as_deref());
        if let Some(line) = resumed_line(sweep, checkpoint) {
            push_block(&mut s, &line);
        }
        push_block(&mut s, &attack_table(sweep));
    }
    s
}

/// Validates every configured sink *before* any compute runs: parent
/// directories are created and probed for writability, so a typo'd or
/// read-only output path fails in milliseconds with a usage error (exit
/// 2) instead of after a long sweep.
pub fn preflight(scenario: &Scenario) -> Result<(), PipelineError> {
    let unwritable = |label: &str, path: &Path, e: std::io::Error| {
        PipelineError::Scenario(format!(
            "[report] {label}: '{}' is not writable: {e}",
            path.display()
        ))
    };
    let probe_file = |label: &str, path: &Path| -> Result<(), PipelineError> {
        let existed = path.exists();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| unwritable(label, path, e))?;
        }
        // Append mode never truncates a pre-existing sink; a probe that
        // had to create the file is removed again.
        std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| unwritable(label, path, e))?;
        if !existed {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    };
    if let Some(path) = scenario.report.edge_list.as_deref().filter(|p| *p != "-") {
        probe_file("edge_list", Path::new(path))?;
    }
    if let Some(dir) = &scenario.report.curves {
        std::fs::create_dir_all(dir).map_err(|e| unwritable("curves", dir, e))?;
        probe_file("curves", &dir.join(".inet-preflight"))?;
    }
    if let Some(path) = &scenario.report.summary {
        probe_file("summary", path)?;
    }
    Ok(())
}

/// Stage 3: fills `outcome.summary` and writes the configured sinks.
pub(crate) fn emit(
    scenario: &Scenario,
    graph: &inet_graph::MultiGraph,
    outcome: &mut RunOutcome,
    threads: usize,
) -> Result<(), PipelineError> {
    outcome.summary = render_summary(scenario, outcome);
    if let Some(path) = &scenario.report.edge_list {
        let mut buf = Vec::new();
        inet_graph::io::write_edge_list(graph, &mut buf)
            .map_err(|e| PipelineError::Data(format!("edge_list: {e}")))?;
        if path == "-" {
            print!("{}", String::from_utf8_lossy(&buf));
            outcome.written.push("edge list -> stdout".to_string());
        } else {
            ensure_parent(Path::new(path))?;
            std::fs::write(path, &buf)
                .map_err(|e| PipelineError::Data(format!("edge_list: {path}: {e}")))?;
            outcome.written.push(format!("edge list -> {path}"));
        }
    }
    if let (Some(dir), Some(sweep)) = (&scenario.report.curves, &outcome.sweep) {
        write_curves(dir, sweep, threads)?;
        outcome.written.push(format!("curves -> {}", dir.display()));
    }
    if let Some(path) = &scenario.report.summary {
        ensure_parent(path)?;
        std::fs::write(path, &outcome.summary)
            .map_err(|e| PipelineError::Data(format!("summary: {}: {e}", path.display())))?;
        outcome
            .written
            .push(format!("summary -> {}", path.display()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_resilience::{CellRecord, CurvePoint};

    fn sweep_with_one_cell() -> SweepResult {
        SweepResult {
            cells: vec![CellRecord {
                strategy: "random".to_string(),
                replica: 0,
                resampled: true,
                curve: AttackCurve {
                    nodes: 10,
                    edges: 20,
                    points: vec![CurvePoint {
                        removed: 1,
                        giant: 9,
                        edges: 15,
                        mean_component: 4.5,
                    }],
                    critical_fraction: 0.5,
                },
            }],
            failures: Vec::new(),
            resumed: 1,
            warnings: Vec::new(),
            interrupted: false,
        }
    }

    #[test]
    fn attack_table_matches_the_legacy_format() {
        let table = attack_table(&sweep_with_one_cell());
        let mut lines = table.lines();
        assert_eq!(
            lines.next().unwrap(),
            "strategy             rep    f_c   S(.05)  S(.20)  S(.50)"
        );
        // nodes=10 with a single recorded point at giant=9 → S = 0.900
        // everywhere; f_c comes straight from the struct.
        assert_eq!(
            lines.next().unwrap(),
            "random                 0  0.500   0.900   0.900   0.900  (resampled)"
        );
        assert!(lines.next().is_none());
    }

    #[test]
    fn curve_csv_has_header_and_rows() {
        let csv = curve_csv(&sweep_with_one_cell().cells[0].curve);
        assert_eq!(csv, "removed,giant,edges,mean_component\n1,9,15,4.5\n");
    }

    /// `curve_csv` as it was written before the shared encoder, kept
    /// verbatim as the byte-identity oracle.
    fn curve_csv_oracle(curve: &AttackCurve) -> String {
        let mut csv = String::from("removed,giant,edges,mean_component\n");
        for p in &curve.points {
            let _ = writeln!(
                csv,
                "{},{},{},{}",
                p.removed, p.giant, p.edges, p.mean_component
            );
        }
        csv
    }

    /// A random curve: empty, one-point or long; counts up to `usize::MAX`;
    /// `⟨s⟩` mixing 0.0, integral values, fractions below 1e-4, values at
    /// and above 1e16, and long runs of one value.
    fn random_curve(rng: &mut inet_stats::rng::StdRng) -> AttackCurve {
        let len = [0, 1, rng.gen_range(2..400usize)][rng.gen_range(0..3usize)];
        let mut mean = 0.0;
        let count = |rng: &mut inet_stats::rng::StdRng| match rng.gen_range(0..3usize) {
            0 => usize::MAX - rng.gen_range(0..3usize),
            _ => (rng.next_u64() >> rng.gen_range(0..64u64)) as usize,
        };
        let points = (0..len)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    mean = match rng.gen_range(0..6usize) {
                        0 => 0.0,
                        1 => rng.gen_range(1..100_000usize) as f64,
                        2 => rng.gen_range(0.0..1e-4) / rng.gen_range(1..1000usize) as f64,
                        3 => 1e16 * rng.gen_range(1.0..1e6),
                        4 => [1e16, 9.999_999_999_999_998e15, 1e-4][rng.gen_range(0..3usize)],
                        _ => rng.gen_range(0.0..500.0),
                    };
                }
                CurvePoint {
                    removed: count(rng),
                    giant: count(rng),
                    edges: count(rng),
                    mean_component: mean,
                }
            })
            .collect();
        AttackCurve {
            nodes: len,
            edges: 0,
            points,
            critical_fraction: 0.0,
        }
    }

    #[test]
    fn curve_csv_matches_the_write_oracle_on_random_curves() {
        inet_stats::rng::check(300, |rng| {
            let curve = random_curve(rng);
            assert_eq!(curve_csv(&curve), curve_csv_oracle(&curve));
        });
    }

    fn sweep_of(cells: usize) -> SweepResult {
        let mut rng = inet_stats::rng::seeded_rng(5);
        SweepResult {
            cells: (0..cells)
                .map(|replica| CellRecord {
                    strategy: "random".to_string(),
                    replica,
                    resampled: false,
                    curve: random_curve(&mut rng),
                })
                .collect(),
            ..sweep_with_one_cell()
        }
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("inet-pipeline-report-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parallel_curve_files_equal_curve_csv_at_any_thread_count() {
        let sweep = sweep_of(40);
        for threads in [1, 2, 7] {
            let dir = tmp_dir(&format!("curves-{threads}"));
            write_curves(&dir, &sweep, threads).unwrap();
            for cell in &sweep.cells {
                let path = dir.join(format!("random-r{}.csv", cell.replica));
                assert_eq!(
                    std::fs::read_to_string(&path).unwrap(),
                    curve_csv(&cell.curve),
                    "threads {threads}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn curve_write_failure_names_the_first_failing_cell() {
        let sweep = sweep_of(40);
        for threads in [1, 2, 7] {
            let dir = tmp_dir(&format!("failing-{threads}"));
            // A directory where a file should go makes that write fail.
            for replica in [37, 9, 21] {
                std::fs::create_dir_all(dir.join(format!("random-r{replica}.csv"))).unwrap();
            }
            let err = write_curves(&dir, &sweep, threads).unwrap_err().to_string();
            assert!(err.contains("random-r9.csv"), "threads {threads}: {err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resumed_line_names_the_checkpoint() {
        let sweep = sweep_with_one_cell();
        assert_eq!(
            resumed_line(&sweep, Some(Path::new("ck.json"))).unwrap(),
            "resumed 1 finished cell(s) from ck.json"
        );
        assert_eq!(
            resumed_line(&sweep, None).unwrap(),
            "resumed 1 finished cell(s) from checkpoint"
        );
        let fresh = SweepResult {
            resumed: 0,
            ..sweep
        };
        assert!(resumed_line(&fresh, None).is_none());
    }
}

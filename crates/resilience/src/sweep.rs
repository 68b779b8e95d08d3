//! Robust parallel attack sweeps over `strategies × replicas`.
//!
//! A sweep's unit of work is a **cell**: one `(strategy, replica)` pair,
//! computed as `removal_order → percolation_curve`. Cells fan out over the
//! deterministic work-stealing pool behind [`inet_exec::Executor`], and the
//! sweep is hardened in two ways the plain pool is not:
//!
//! * **Panic isolation** — each cell runs behind the shared
//!   [`inet_exec::PanicFence`] (via `run_fenced`). A worker panic becomes a
//!   [`FailureRecord`], the cell is resampled once with a fresh derived
//!   seed, and the sweep carries on; only a second failure leaves a hole
//!   (still recorded, never a process abort).
//! * **Checkpointing** — with [`SweepConfig::checkpoint`] set, every
//!   finished cell (and every caught failure) is appended once to an
//!   append-only log ([`crate::checkpoint`]). A worker serializes its record
//!   before it takes the shared state lock; under the lock it only pushes
//!   the record and appends the bytes. Re-running the same configuration
//!   with the same file resumes: done cells are loaded, not recomputed
//!   (enforced in tests via the panic hook — a resumed cell never trips
//!   it).
//!
//! Results are deterministic for any thread count: each cell's seed is a
//! pure function of `(base_seed, cell index)`, the curve math is integer
//! union-find, and the output ordering is canonical (configuration order),
//! not completion order.

use crate::checkpoint::{
    fingerprint, CellRecord, Checkpoint, CheckpointError, FailureRecord, RetryPolicy,
};
use crate::percolation::percolation_curve;
use crate::strategy::Strategy;
use inet_exec::{run_fenced, CancelToken, Executor, Task, TaskError};
use inet_graph::Csr;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

/// Configuration of one attack sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Strategies to run, in report order.
    pub strategies: Vec<Strategy>,
    /// Replicas per *stochastic* strategy (deterministic strategies always
    /// run exactly one replica; extra copies would be identical).
    pub replicas: usize,
    /// Base seed; each cell derives its own stream via
    /// [`inet_stats::rng::child_seed`].
    pub base_seed: u64,
    /// Worker threads for the cell fan-out.
    pub threads: usize,
    /// Record a curve point every this many removals (0/1 = every step).
    pub record_every: usize,
    /// Brandes source-sample size for the betweenness strategies.
    pub bc_sources: usize,
    /// Checkpoint log: load/skip completed cells on entry, append each cell
    /// on completion.
    pub checkpoint: Option<PathBuf>,
    /// Cooperative cancellation: workers poll this token **between cells**
    /// and stop claiming work once it fires, so cancel latency is bounded
    /// by one cell and every completed cell is already checkpointed. The
    /// default token never fires.
    pub cancel: CancelToken,
    /// Test-only failure injection: cells whose index is listed here panic
    /// on their first attempt (the resample attempt runs clean). Leave
    /// empty outside tests.
    #[doc(hidden)]
    pub fail_cells: Vec<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            strategies: vec![Strategy::Random],
            replicas: 1,
            base_seed: 0,
            threads: 1,
            record_every: 1,
            bc_sources: 64,
            checkpoint: None,
            cancel: CancelToken::new(),
            fail_cells: Vec::new(),
        }
    }
}

/// One unit of sweep work.
#[derive(Debug, Clone)]
struct Cell {
    strategy: Strategy,
    replica: usize,
    /// Position in the canonical cell list; seeds derive from this, so a
    /// cell's curve is independent of how many cells were resumed.
    index: usize,
}

impl SweepConfig {
    /// The canonical cell list: strategies in configuration order, replicas
    /// ascending; deterministic strategies contribute one cell each.
    pub fn cells(&self) -> Vec<(Strategy, usize)> {
        let mut out = Vec::new();
        for &s in &self.strategies {
            let reps = if s.stochastic() {
                self.replicas.max(1)
            } else {
                1
            };
            for r in 0..reps {
                out.push((s, r));
            }
        }
        out
    }

    /// The configuration part of the checkpoint fingerprint. Thread count
    /// and the test hook are deliberately excluded: neither changes any
    /// result, so resuming with a different `--threads` is legal.
    fn config_string(&self) -> String {
        let names: Vec<&str> = self.strategies.iter().map(|s| s.name()).collect();
        format!(
            "v1 strategies=[{}] replicas={} seed={} record={} bc_sources={}",
            names.join(","),
            self.replicas,
            self.base_seed,
            self.record_every,
            self.bc_sources
        )
    }
}

/// The outcome of [`run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Completed cells in canonical order (configuration order, replicas
    /// ascending) — one entry per cell that succeeded on either attempt,
    /// including cells loaded from the checkpoint.
    pub cells: Vec<CellRecord>,
    /// Every caught worker panic, canonically ordered; a cell with a
    /// failure at attempt 0 and a cell entry was rescued by the resample.
    pub failures: Vec<FailureRecord>,
    /// Cells skipped because the checkpoint already contained them.
    pub resumed: usize,
    /// Non-fatal problems (e.g. a checkpoint write that failed).
    pub warnings: Vec<String>,
    /// `true` when the cancel token fired before every cell completed:
    /// `cells` holds only the finished (and checkpointed) cells, and a
    /// re-run against the same checkpoint finishes the rest.
    pub interrupted: bool,
}

/// Why a sweep could not start. Worker-level problems never surface here —
/// they degrade to [`FailureRecord`]s — so every variant is a checkpoint
/// problem.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The checkpoint exists but belongs to a different
    /// `(graph, configuration)`; `source` names the differing field.
    IncompatibleCheckpoint {
        /// The offending checkpoint file.
        path: PathBuf,
        /// The field-level diagnosis
        /// ([`CheckpointError::Incompatible`]).
        source: CheckpointError,
    },
    /// The checkpoint could not be read, or is not a version-3 log.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::IncompatibleCheckpoint { path, source } => write!(
                f,
                "checkpoint {} belongs to a different graph or sweep configuration — {source} \
                 (refusing to mix results; delete it or change --resume)",
                path.display()
            ),
            SweepError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::IncompatibleCheckpoint { source, .. } => Some(source),
            SweepError::Checkpoint(e) => Some(e),
        }
    }
}

/// Mutex-guarded mutable sweep state shared by workers.
struct SweepState {
    ckpt: Checkpoint,
    warnings: Vec<String>,
}

/// Runs a full attack sweep on `g`. Errors only on configuration problems
/// (unusable checkpoint); worker panics degrade per-cell instead.
pub fn run_sweep(g: &Csr, cfg: &SweepConfig) -> Result<SweepResult, SweepError> {
    let config = cfg.config_string();
    let fp = fingerprint(g, &config);
    let retry = RetryPolicy::default();
    let mut warnings: Vec<String> = Vec::new();
    let ckpt = match &cfg.checkpoint {
        Some(path) => {
            match Checkpoint::load_recovering(path, &retry).map_err(SweepError::Checkpoint)? {
                Some(loaded) => {
                    if let Some(diag) = loaded.checkpoint.diagnose_incompatibility(fp, &config) {
                        return Err(SweepError::IncompatibleCheckpoint {
                            path: path.clone(),
                            source: diag,
                        });
                    }
                    if let Some(tail) = loaded.dropped_tail {
                        warnings.push(format!(
                            "checkpoint {}: dropped a torn or corrupt tail, {tail}; \
                             its cells are recomputed",
                            path.display()
                        ));
                    }
                    loaded.checkpoint
                }
                None => Checkpoint::new(fp, config),
            }
        }
        None => Checkpoint::new(fp, config),
    };
    let all: Vec<Cell> = cfg
        .cells()
        .into_iter()
        .enumerate()
        .map(|(index, (strategy, replica))| Cell {
            strategy,
            replica,
            index,
        })
        .collect();
    let total = all.len();
    let recorded = locate(&all, &ckpt.cells);
    let mut pending: Vec<Cell> = all
        .iter()
        .filter(|c| recorded[c.index].is_none())
        .cloned()
        .collect();
    let resumed = total - pending.len();
    // Longest first: a deterministic strategy's single cell (a recalc order
    // re-scores the graph 64 times) is handed out before the stochastic
    // replicas, so it overlaps them instead of running alone at the end.
    // Seeds, failpoints and the test hook key on the canonical index, and
    // results are gathered in canonical order, so nothing else changes.
    pending.sort_by_key(|c| c.strategy.stochastic());

    let state = Mutex::new(SweepState { ckpt, warnings });

    // One pass over `cells`; returns the cells whose attempt panicked.
    // Workers poll the cancel token between cells: once it fires they stop
    // picking up cells (and the pool stops handing out chunks), so the
    // in-flight cells finish, get checkpointed, and the sweep winds down.
    let pool = Executor::with_cancel(cfg.threads, cfg.cancel.clone());
    let run_pass = |cells: &[Cell], attempt: usize| -> Vec<Cell> {
        let failed_chunks = pool.try_map_ordered(
            cells.len(),
            || (),
            |_scratch, range| {
                let mut failed = Vec::new();
                for cell in &cells[range] {
                    if cfg.cancel.is_cancelled() {
                        break;
                    }
                    // The shared fence contains both the test hook's panic
                    // and anything compute_cell raises; the `exec.task`
                    // failpoint it consults is keyed by the canonical cell
                    // index, like the in-cell `sweep.cell` failpoint.
                    let task = Task::new("sweep.cell", cell.index as u64);
                    let started = std::time::Instant::now();
                    let outcome = run_fenced(&task, || {
                        if attempt == 0 && cfg.fail_cells.contains(&cell.index) {
                            // Test-only hook, caught by this very fence.
                            #[allow(clippy::panic)]
                            {
                                panic!("injected worker failure (test hook)");
                            }
                        }
                        compute_cell(g, cfg, cell, attempt, total)
                    });
                    // Per-cell wall time, overall and per strategy — wall
                    // clock only, so results stay bit-identical.
                    let cell_us = started.elapsed().as_micros() as u64;
                    let registry = inet_obs::default_registry();
                    registry
                        .histogram("inet_sweep_cell_us", &[])
                        .observe(cell_us);
                    registry
                        .histogram("inet_sweep_cell_us", &[("strategy", cell.strategy.name())])
                        .observe(cell_us);
                    // An injected (or future, real) structured error takes
                    // the same degradation path as a panic.
                    let finished = match outcome {
                        Ok(Ok(record)) => Ok(record),
                        Ok(Err(message)) => Err(message),
                        Err(TaskError::Fault(e)) => Err(e.to_string()),
                        Err(TaskError::Panicked(message)) => Err(message),
                    }
                    .map_err(|message| FailureRecord {
                        strategy: cell.strategy.name().to_string(),
                        replica: cell.replica,
                        attempt,
                        message,
                    });
                    if finished.is_err() {
                        failed.push(cell.clone());
                    }
                    // Serialize outside the lock: under it, only the push
                    // and the append of ready bytes. A journaled sweep
                    // times both under one span per cell.
                    let _span = cfg
                        .checkpoint
                        .is_some()
                        .then(|| inet_obs::span::enter("sweep.checkpoint", cell.index as u64));
                    let line = cfg.checkpoint.as_ref().map(|_| match &finished {
                        Ok(record) => record.log_line(),
                        Err(failure) => failure.log_line(),
                    });
                    let mut guard = state.lock().unwrap_or_else(|p| p.into_inner());
                    let st = &mut *guard;
                    if let (Some(path), Some(line)) = (cfg.checkpoint.as_deref(), line) {
                        if let Err(e) = st.ckpt.append(path, &line, &retry) {
                            st.warnings.push(format!("checkpoint append failed: {e}"));
                        }
                    }
                    match finished {
                        Ok(record) => st.ckpt.cells.push(record),
                        Err(failure) => st.ckpt.failures.push(failure),
                    }
                }
                failed
            },
        );
        match failed_chunks {
            Ok(chunks) => chunks.into_iter().flatten().collect(),
            // Cancelled before every chunk was claimed: the resample list
            // is moot — the pass after a cancellation never runs.
            Err(_) => Vec::new(),
        }
    };

    let failed_once = run_pass(&pending, 0);
    // The resample pass is skipped once cancellation fired: its cells are
    // not checkpointed as done, so a resume retries them cleanly.
    if !cfg.cancel.is_cancelled() {
        let _failed_twice = run_pass(&failed_once, 1);
    }

    let SweepState { ckpt, warnings } = state.into_inner().unwrap_or_else(|p| p.into_inner());

    // Canonical ordering for deterministic output regardless of which
    // worker finished which cell first.
    let strategy_pos = |name: &str| {
        cfg.strategies
            .iter()
            .position(|s| s.name() == name)
            .unwrap_or(usize::MAX)
    };
    let recorded = locate(&all, &ckpt.cells);
    let mut records: Vec<Option<CellRecord>> = ckpt.cells.into_iter().map(Some).collect();
    let cells: Vec<CellRecord> = recorded
        .into_iter()
        .flatten()
        .filter_map(|at| records[at].take())
        .collect();
    let mut failures = ckpt.failures;
    failures.sort_by_key(|f| (strategy_pos(&f.strategy), f.replica, f.attempt));

    // Interrupted = the token fired AND work is actually missing; a token
    // that fires after the last cell finished changes nothing.
    let interrupted = cfg.cancel.is_cancelled() && cells.len() < total;

    Ok(SweepResult {
        cells,
        failures,
        resumed,
        warnings,
        interrupted,
    })
}

/// For each cell of the canonical list `all`, the position in `records` of
/// the first record for its `(strategy, replica)`, or `None`. One hash
/// lookup per record, so resuming and gathering stay linear in the cells.
fn locate(all: &[Cell], records: &[CellRecord]) -> Vec<Option<usize>> {
    let canonical: HashMap<(&str, usize), usize> = all
        .iter()
        .map(|c| ((c.strategy.name(), c.replica), c.index))
        .collect();
    let mut found = vec![None; all.len()];
    for (at, r) in records.iter().enumerate() {
        if let Some(&index) = canonical.get(&(r.strategy.as_str(), r.replica)) {
            found[index].get_or_insert(at);
        }
    }
    found
}

/// Computes one cell (may panic; the caller catches). The `sweep.cell`
/// failpoint fires at entry, keyed by the cell's canonical index, so an
/// injected failure hits the same cell at any thread count; an `Err` takes
/// the same degrade-and-resample path as a caught panic.
fn compute_cell(
    g: &Csr,
    cfg: &SweepConfig,
    cell: &Cell,
    attempt: usize,
    total: usize,
) -> Result<CellRecord, String> {
    inet_fault::check("sweep.cell", cell.index as u64).map_err(|e| e.to_string())?;
    let seed = inet_stats::rng::child_seed(cfg.base_seed, (attempt * total + cell.index) as u64);
    let order = cell.strategy.removal_order(g, seed, cfg.bc_sources);
    let curve = percolation_curve(g, &order, cfg.record_every);
    Ok(CellRecord {
        strategy: cell.strategy.name().to_string(),
        replica: cell.replica,
        resampled: attempt > 0,
        curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_graph() -> Csr {
        // Two hubs bridged: rich structure for every strategy, small enough
        // for exact betweenness recalcs in tests.
        let mut edges: Vec<(usize, usize)> = (1..7).map(|i| (0, i)).collect();
        edges.extend((8..14).map(|i| (7, i)));
        edges.push((6, 8));
        edges.push((1, 2));
        edges.push((9, 10));
        Csr::from_edges(14, &edges)
    }

    fn base_cfg() -> SweepConfig {
        SweepConfig {
            strategies: vec![
                Strategy::Random,
                Strategy::Degree { recalc: false },
                Strategy::Degree { recalc: true },
            ],
            replicas: 3,
            base_seed: 42,
            threads: 2,
            record_every: 1,
            bc_sources: 8,
            checkpoint: None,
            cancel: CancelToken::new(),
            fail_cells: Vec::new(),
        }
    }

    fn tmp_ckpt(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("inet-resilience-sweep-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("tmp"));
        path
    }

    #[test]
    fn cell_list_shape() {
        let cfg = base_cfg();
        let cells = cfg.cells();
        // random gets 3 replicas, the two deterministic strategies 1 each.
        assert_eq!(cells.len(), 5);
        assert_eq!(
            cells.iter().filter(|(s, _)| s.stochastic()).count(),
            3,
            "{cells:?}"
        );
    }

    #[test]
    fn sweep_completes_every_cell() {
        let g = test_graph();
        let cfg = base_cfg();
        let result = run_sweep(&g, &cfg).unwrap();
        assert_eq!(result.cells.len(), 5);
        assert!(result.failures.is_empty());
        assert_eq!(result.resumed, 0);
        for cell in &result.cells {
            assert_eq!(cell.curve.nodes, 14);
            assert!(!cell.resampled);
        }
        // Random replicas use distinct seeds → (almost surely) distinct curves.
        assert_ne!(result.cells[0].curve, result.cells[1].curve);
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let g = test_graph();
        let mut reference = None;
        for threads in [1, 2, 7] {
            let cfg = SweepConfig {
                threads,
                ..base_cfg()
            };
            let result = run_sweep(&g, &cfg).unwrap();
            match &reference {
                None => reference = Some(result),
                Some(r) => assert_eq!(&result, r, "threads {threads}"),
            }
        }
    }

    #[test]
    fn injected_panic_degrades_to_recorded_resample() {
        let g = test_graph();
        let cfg = SweepConfig {
            fail_cells: vec![1, 3],
            ..base_cfg()
        };
        let result = run_sweep(&g, &cfg).unwrap();
        // Still every cell completed — the resample pass rescued both.
        assert_eq!(result.cells.len(), 5);
        assert_eq!(result.failures.len(), 2);
        for f in &result.failures {
            assert_eq!(f.attempt, 0);
            assert!(f.message.contains("injected"));
        }
        let resampled: Vec<_> = result.cells.iter().filter(|c| c.resampled).collect();
        assert_eq!(resampled.len(), 2);
        // A clean run and the failing run agree on the unaffected cells.
        let clean = run_sweep(&g, &base_cfg()).unwrap();
        for (a, b) in result.cells.iter().zip(&clean.cells) {
            if !a.resampled {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn checkpoint_resume_skips_finished_cells() {
        let g = test_graph();
        let path = tmp_ckpt("resume.json");
        let cfg = SweepConfig {
            checkpoint: Some(path.clone()),
            ..base_cfg()
        };
        let first = run_sweep(&g, &cfg).unwrap();
        assert_eq!(first.resumed, 0);
        assert!(path.exists());

        // Simulate an interrupted run: drop the last two finished cells.
        let mut ckpt = Checkpoint::load(&path).unwrap().unwrap();
        ckpt.cells.truncate(3);
        ckpt.save_with_retry(&path, &RetryPolicy::no_delay())
            .unwrap();

        // Resume with the panic hook armed on EVERY cell: only recomputed
        // cells could trip it, so zero failures proves the three loaded
        // cells were not recomputed, and the two missing ones were (their
        // failures got resampled).
        let resume_cfg = SweepConfig {
            checkpoint: Some(path.clone()),
            fail_cells: (0..5).collect(),
            ..base_cfg()
        };
        let second = run_sweep(&g, &resume_cfg).unwrap();
        assert_eq!(second.resumed, 3);
        assert_eq!(second.cells.len(), 5);
        assert_eq!(
            second.failures.len(),
            2,
            "only the 2 recomputed cells may trip the hook: {:?}",
            second.failures
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_results_match_uninterrupted_run() {
        let g = test_graph();
        let path = tmp_ckpt("resume-match.json");
        let cfg = SweepConfig {
            checkpoint: Some(path.clone()),
            ..base_cfg()
        };
        let full = run_sweep(&g, &cfg).unwrap();
        let mut ckpt = Checkpoint::load(&path).unwrap().unwrap();
        ckpt.cells.truncate(2);
        ckpt.save_with_retry(&path, &RetryPolicy::no_delay())
            .unwrap();
        let resumed = run_sweep(&g, &cfg).unwrap();
        assert_eq!(resumed.cells, full.cells);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hundreds_of_replicas_gather_canonically_and_resume() {
        let g = test_graph();
        let path = tmp_ckpt("many-replicas.ckpt");
        let cfg = SweepConfig {
            replicas: 300,
            record_every: 4,
            checkpoint: Some(path.clone()),
            ..base_cfg()
        };
        let canonical: Vec<(String, usize)> = cfg
            .cells()
            .into_iter()
            .map(|(s, r)| (s.name().to_string(), r))
            .collect();
        assert_eq!(canonical.len(), 302);
        let full = run_sweep(&g, &cfg).unwrap();
        let keys: Vec<(String, usize)> = full
            .cells
            .iter()
            .map(|c| (c.strategy.clone(), c.replica))
            .collect();
        assert_eq!(keys, canonical);

        // Keep every third record, reversed, then a conflicting copy of
        // the first kept one: the first record of a cell is the one used.
        let mut ckpt = Checkpoint::load(&path).unwrap().unwrap();
        ckpt.cells = ckpt.cells.iter().rev().step_by(3).cloned().collect();
        let kept = ckpt.cells.len();
        let mut conflicting = ckpt.cells[0].clone();
        conflicting.curve.critical_fraction += 1.0;
        ckpt.cells.push(conflicting);
        ckpt.save_with_retry(&path, &RetryPolicy::no_delay())
            .unwrap();
        let resumed = run_sweep(&g, &cfg).unwrap();
        assert_eq!(resumed.resumed, kept);
        assert_eq!(resumed.cells, full.cells);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deterministic_cells_are_handed_out_before_the_replicas() {
        let g = test_graph();
        let path = tmp_ckpt("dispatch-order.ckpt");
        let cfg = SweepConfig {
            threads: 1,
            checkpoint: Some(path.clone()),
            ..base_cfg()
        };
        let result = run_sweep(&g, &cfg).unwrap();
        // At one thread the log's completion order is the dispatch order.
        let logged: Vec<String> = Checkpoint::load(&path)
            .unwrap()
            .unwrap()
            .cells
            .iter()
            .map(|c| format!("{}/{}", c.strategy, c.replica))
            .collect();
        assert_eq!(
            logged,
            [
                "degree/0",
                "degree-recalc/0",
                "random/0",
                "random/1",
                "random/2"
            ]
        );
        // The result stays in canonical order.
        let canonical: Vec<String> = result
            .cells
            .iter()
            .map(|c| format!("{}/{}", c.strategy, c.replica))
            .collect();
        assert_eq!(
            canonical,
            [
                "random/0",
                "random/1",
                "random/2",
                "degree/0",
                "degree-recalc/0"
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let g = test_graph();
        let path = tmp_ckpt("mismatch.json");
        let cfg = SweepConfig {
            checkpoint: Some(path.clone()),
            ..base_cfg()
        };
        run_sweep(&g, &cfg).unwrap();
        // Same file, different seed → different fingerprint.
        let other = SweepConfig {
            base_seed: 1,
            ..cfg.clone()
        };
        let err = run_sweep(&g, &other).unwrap_err();
        assert!(matches!(err, SweepError::IncompatibleCheckpoint { .. }));
        let text = err.to_string();
        assert!(
            text.contains("different graph or sweep configuration"),
            "{text}"
        );
        // The stored config string lets the error name the exact field.
        assert!(text.contains("checkpoint incompatible: seed"), "{text}");
        // And a different graph is refused too — configs match, so the
        // diagnosis blames the graph.
        let g2 = Csr::from_edges(3, &[(0, 1)]);
        let err2 = run_sweep(&g2, &cfg).unwrap_err();
        assert!(matches!(err2, SweepError::IncompatibleCheckpoint { .. }));
        assert!(
            err2.to_string().contains("checkpoint incompatible: graph"),
            "{err2}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_checkpoint_tail_is_dropped_with_warning() {
        let g = test_graph();
        let path = tmp_ckpt("torn-resume.json");
        let cfg = SweepConfig {
            checkpoint: Some(path.clone()),
            ..base_cfg()
        };
        let full = run_sweep(&g, &cfg).unwrap();
        // Tear the last record mid-write: keep half of its bytes.
        let text = std::fs::read(&path).unwrap();
        let last_start = text[..text.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let cut = last_start + (text.len() - last_start) / 2;
        std::fs::write(&path, &text[..cut]).unwrap();

        let recovered = run_sweep(&g, &cfg).unwrap();
        assert_eq!(recovered.cells, full.cells, "recovery must reconverge");
        let warning = recovered
            .warnings
            .iter()
            .find(|w| w.contains("torn or corrupt"))
            .unwrap_or_else(|| panic!("{:?}", recovered.warnings));
        // The warning names the dropped record, its cell and where it was.
        let record = full.cells.len(); // header is record 0
        assert!(
            warning.contains(&format!("record {record} (cell "))
                && warning.contains(&format!("at offset {last_start}")),
            "{warning}"
        );
        // Only the torn cell is recomputed.
        assert_eq!(recovered.resumed, full.cells.len() - 1);
        // The resumed run appended its cell after the cut: the log is whole.
        let log = Checkpoint::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(log.cells.len(), full.cells.len());
        let _ = std::fs::remove_file(&path);
    }

    /// Crash-prefix enumeration: the log of a 3-cell sweep cut at every
    /// byte offset. At each cut, loading yields exactly the records that
    /// were complete before it, a following append yields a loadable log,
    /// and a resumed sweep is bit-identical to the uninterrupted one at
    /// threads 1, 2 and 7.
    #[test]
    fn every_crash_prefix_resumes_bit_identically() {
        let g = test_graph();
        let path = tmp_ckpt("crash-prefix.json");
        let cfg = SweepConfig {
            strategies: vec![
                Strategy::Random,
                Strategy::Degree { recalc: false },
                Strategy::Degree { recalc: true },
            ],
            replicas: 1,
            threads: 1,
            record_every: 3,
            checkpoint: Some(path.clone()),
            ..base_cfg()
        };
        let full = run_sweep(&g, &cfg).unwrap();
        assert_eq!(full.cells.len(), 3);
        let text = std::fs::read(&path).unwrap();
        let logged = Checkpoint::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let ends: Vec<usize> = (0..text.len()).filter(|&i| text[i] == b'\n').collect();
        assert_eq!(ends.len(), 4, "header + 3 cells");
        let extra = FailureRecord {
            strategy: "random".to_string(),
            replica: 9,
            attempt: 1,
            message: "appended after the crash".to_string(),
        };
        let retry = RetryPolicy::no_delay();
        for cut in 0..=text.len() {
            // Records whose newline survived the cut are complete.
            let complete = ends.iter().filter(|&&e| e < cut).count();
            let valid = if complete == 0 {
                0
            } else {
                ends[complete - 1] + 1
            };
            let cells = &logged.cells[..complete.max(1) - 1];

            std::fs::write(&path, &text[..cut]).unwrap();
            let loaded = Checkpoint::load_recovering(&path, &retry).unwrap();
            assert_eq!(
                loaded.as_ref().map(|l| &l.checkpoint.cells[..]),
                (complete > 0).then_some(cells),
                "cut {cut}"
            );
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, valid);

            let header = Checkpoint::new(logged.fingerprint, logged.config.clone());
            header.append(&path, &extra.log_line(), &retry).unwrap();
            let after = Checkpoint::parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(
                (&after.cells[..], &after.failures[..]),
                (cells, &[extra.clone()][..])
            );

            for threads in [1, 2, 7] {
                std::fs::write(&path, &text[..cut]).unwrap();
                let resumed = run_sweep(
                    &g,
                    &SweepConfig {
                        threads,
                        ..cfg.clone()
                    },
                )
                .unwrap();
                assert_eq!(resumed.cells, full.cells, "cut {cut} threads {threads}");
                assert_eq!(
                    resumed.failures, full.failures,
                    "cut {cut} threads {threads}"
                );
                assert_eq!(resumed.resumed, cells.len(), "cut {cut} threads {threads}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_cell_fault_degrades_and_resamples() {
        use inet_fault::{FaultAction, FaultPlan};
        let g = test_graph();
        // 10 cells (8 random replicas + 2 deterministic); pin the fault to
        // canonical index 7 — a scope no other test's 5-cell sweeps reach,
        // so concurrent tests cannot consume or trip it.
        let cfg = SweepConfig {
            replicas: 8,
            ..base_cfg()
        };
        assert_eq!(cfg.cells().len(), 10);
        let clean = run_sweep(&g, &cfg).unwrap();
        let result = {
            let _guard =
                inet_fault::install(FaultPlan::single("sweep.cell", Some(7), FaultAction::Error));
            run_sweep(&g, &cfg).unwrap()
        };
        assert_eq!(result.cells.len(), 10, "resample must rescue the cell");
        assert_eq!(result.failures.len(), 1);
        assert_eq!(result.failures[0].attempt, 0);
        assert!(
            result.failures[0].message.contains("sweep.cell"),
            "{}",
            result.failures[0].message
        );
        let resampled: Vec<_> = result.cells.iter().filter(|c| c.resampled).collect();
        assert_eq!(resampled.len(), 1);
        // Every unaffected cell is bit-identical to the clean run.
        for (a, b) in result.cells.iter().zip(&clean.cells) {
            if !a.resampled {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn pre_cancelled_sweep_completes_nothing_and_flags_interrupted() {
        let g = test_graph();
        let token = CancelToken::new();
        token.cancel();
        let cfg = SweepConfig {
            cancel: token,
            ..base_cfg()
        };
        let result = run_sweep(&g, &cfg).unwrap();
        assert!(result.interrupted);
        assert!(result.cells.is_empty());
        assert!(result.failures.is_empty(), "cancel is not a failure");
    }

    #[test]
    fn cancelled_sweep_resumes_to_identical_results() {
        let g = test_graph();
        for threads in [1, 2, 7] {
            let path = tmp_ckpt(&format!("cancel-resume-{threads}.json"));
            let cfg = SweepConfig {
                threads,
                checkpoint: Some(path.clone()),
                ..base_cfg()
            };
            let full = run_sweep(&g, &cfg).unwrap();
            assert!(!full.interrupted);
            let _ = std::fs::remove_file(&path);

            // Interrupt a fresh run immediately; whatever cells completed
            // before the poll landed are checkpointed.
            let token = CancelToken::new();
            token.cancel();
            let cut = run_sweep(
                &g,
                &SweepConfig {
                    cancel: token,
                    ..cfg.clone()
                },
            )
            .unwrap();
            assert!(cut.interrupted, "threads {threads}");

            // Resume with a fresh token: the union must be bit-identical to
            // the uninterrupted run.
            let resumed = run_sweep(&g, &cfg).unwrap();
            assert!(!resumed.interrupted);
            assert_eq!(resumed.cells, full.cells, "threads {threads}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn empty_strategy_list_yields_empty_result() {
        let g = test_graph();
        let cfg = SweepConfig {
            strategies: Vec::new(),
            ..base_cfg()
        };
        let result = run_sweep(&g, &cfg).unwrap();
        assert!(result.cells.is_empty());
        assert!(result.failures.is_empty());
    }
}

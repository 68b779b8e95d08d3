//! The staged executor: source → measure → attack → report.
//!
//! Each stage runs behind the `pipeline.stage` failpoint (scope = stage
//! index) *and* a panic fence, so an injected fault or a kernel bug aborts
//! the run with a typed [`PipelineError`] — never a crash — and earlier
//! stages' results are still described in the error path (checkpoints on
//! disk, sinks already written).
//!
//! The stages reuse the existing engines verbatim: generation goes through
//! the registry builder and [`Generator::try_generate`]'s containment,
//! measurement through [`inet_metrics::measure_robust`] on the giant
//! component, attacks through [`inet_resilience::run_sweep`] on the full
//! graph — so scenario runs are bit-identical to the legacy subcommands
//! for any thread count.
//!
//! [`Generator::try_generate`]: inet_generators::Generator::try_generate

use std::io::Read;

use inet_exec::{run_fenced, CancelToken, Task, TaskError};
use inet_graph::MultiGraph;
use inet_metrics::{measure_robust_cancellable, ReportOptions, RobustOptions, RobustReport};
use inet_resilience::{run_sweep, CheckpointError, SweepConfig, SweepError, SweepResult};
use inet_stats::rng::seeded_rng;

use crate::report;
use crate::runstore::RunStore;
use crate::scenario::{Scenario, Source};
use crate::telemetry;
use crate::PipelineError;

/// Stage names, indexed by their `pipeline.stage` failpoint scope.
pub const STAGE_NAMES: [&str; 4] = ["source", "measure", "attack", "report"];

/// Everything a finished run produced, for the caller to print or persist.
#[derive(Debug)]
pub struct RunOutcome {
    /// Scenario display name.
    pub name: String,
    /// One-line description of the topology source (model + sizes, or the
    /// loaded path).
    pub source: String,
    /// Node count of the topology under study.
    pub nodes: usize,
    /// Edge count of the topology under study.
    pub edges: usize,
    /// The measurement stage's report, when the stage ran.
    pub robust: Option<RobustReport>,
    /// The attack stage's sweep result, when the stage ran.
    pub sweep: Option<SweepResult>,
    /// The rendered summary text (also written to the summary sink).
    pub summary: String,
    /// Non-fatal warnings collected across stages (kernel failures,
    /// resampled replicas, sweep warnings) for the caller's stderr.
    pub warnings: Vec<String>,
    /// One line per report sink actually written.
    pub written: Vec<String>,
    /// The run-store id, when the run was journaled.
    pub run_id: Option<String>,
    /// The measurement block replayed verbatim from a committed stage-1
    /// artifact; set instead of `robust` on resume, so the summary is
    /// byte-identical to the interrupted run's.
    pub measure_replay: Option<String>,
}

/// Runs one stage behind the failpoint and a panic fence. The failpoint
/// sits *inside* the fence so an injected `Panic` action is contained
/// exactly like an organic stage panic.
fn stage<T>(index: u64, f: impl FnOnce() -> Result<T, PipelineError>) -> Result<T, PipelineError> {
    let name = STAGE_NAMES[index as usize];
    let task = Task::new("pipeline.stage", index);
    match run_fenced(&task, || {
        inet_fault::check("pipeline.stage", index)
            .map_err(|e| PipelineError::Stage(format!("{name} stage aborted: {e}")))
            .and_then(|()| f())
    }) {
        Ok(result) => result,
        Err(TaskError::Fault(e)) => Err(PipelineError::Stage(format!("{name} stage aborted: {e}"))),
        Err(TaskError::Panicked(msg)) => Err(PipelineError::Stage(format!(
            "{name} stage panicked: {msg}"
        ))),
    }
}

/// Execution options for [`run_scenario_with`]: cooperative cancellation
/// plus the optional crash-safe run store.
#[derive(Debug, Default)]
pub struct ExecOptions {
    /// Polled between pool chunks, sweep cells, and metric kernels. Once
    /// fired, the run stops after the in-flight batch with
    /// [`PipelineError::Interrupted`]; completed work is already
    /// journaled/checkpointed.
    pub cancel: CancelToken,
    /// When present, every stage journals a commit record, with a
    /// checksummed artifact when a resume replays it; on resume, committed
    /// stages replay from their artifacts instead of re-executing.
    pub store: Option<RunStore>,
}

/// Executes a scenario start to finish and returns what it produced —
/// the legacy single-shot path (no journal, no cancellation), which stays
/// byte-identical to earlier releases.
pub fn run_scenario(scenario: &Scenario) -> Result<RunOutcome, PipelineError> {
    run_scenario_with(scenario, &ExecOptions::default())
}

/// The [`PipelineError::Interrupted`] for this run, carrying the exact
/// resume command when a run store exists.
fn interrupted_error(store: Option<&RunStore>) -> PipelineError {
    PipelineError::Interrupted(match store {
        Some(st) => format!(
            "interrupted; committed stages are journaled — resume with: inet run --resume {}",
            st.id()
        ),
        None => "interrupted (no run store; re-run the same command — an attack checkpoint, \
                 if configured, resumes finished cells)"
            .to_string(),
    })
}

/// Per-kernel warning lines, shared between the caller's stderr and the
/// stage-1 journal detail: failures plus soft-deadline overruns (which
/// used to be visible only in the kernel-status block).
fn measure_warnings(r: &RobustReport) -> Vec<String> {
    let mut out: Vec<String> = r
        .failures()
        .iter()
        .map(|(kernel, reason)| format!("kernel '{kernel}' failed: {reason}"))
        .collect();
    for (kernel, elapsed, limit) in r.deadline_exceeded() {
        out.push(format!(
            "kernel '{kernel}' overran the {limit} ms soft deadline ({elapsed} ms); \
             its numbers are exact but the budget was blown"
        ));
    }
    out
}

/// Executes a scenario with cancellation and (optionally) the journaled
/// run store: stage-level resume replays committed stages from their
/// artifacts and re-executes from the first uncommitted one.
///
/// The whole run executes under a captured `run` span; for journaled runs
/// the captured subtree is appended to the run's `telemetry.log` as one
/// session. Telemetry is inert: a persist failure is swallowed, and the
/// spans never influence the outcome.
pub fn run_scenario_with(
    scenario: &Scenario,
    opts: &ExecOptions,
) -> Result<RunOutcome, PipelineError> {
    let (result, spans) = inet_obs::span::capture("run", 0, || run_scenario_inner(scenario, opts));
    if let Some(st) = opts.store.as_ref() {
        let _ = telemetry::append_session(st, &spans);
    }
    result
}

fn run_scenario_inner(
    scenario: &Scenario,
    opts: &ExecOptions,
) -> Result<RunOutcome, PipelineError> {
    let threads = scenario
        .threads
        .unwrap_or_else(inet_exec::parallel::default_threads);
    let store = opts.store.as_ref();
    let cancel = &opts.cancel;

    // Fail fast on unwritable sinks — before any compute, not after.
    report::preflight(scenario)?;

    let committed = match store {
        Some(st) => st.start_session()?,
        None => vec![None; STAGE_NAMES.len()],
    };
    let mut warnings = Vec::new();
    if cancel.is_cancelled() {
        return Err(interrupted_error(store));
    }

    // Stage 0: source — replay the committed edge list when possible (the
    // adjacency is canonical, so the round trip rebuilds the identical
    // graph), otherwise execute and commit.
    let mut replayed_source = None;
    if let (Some(st), Some(rec)) = (store, committed[0].as_ref()) {
        let _replay = inet_obs::span::enter("pipeline.replay", 0);
        match st.load_artifact(rec).and_then(|bytes| {
            inet_graph::io::read_edge_list(&bytes[..])
                .map_err(|e| PipelineError::Data(format!("source artifact: {e}")))
        }) {
            Ok(g) => replayed_source = Some((g, rec.detail.clone())),
            Err(e) => warnings.push(format!("{e}; re-executing the source stage")),
        }
    }
    let (graph, source_desc) = match replayed_source {
        Some(pair) => pair,
        None => stage(0, || {
            let (graph, desc) = build_source(scenario)?;
            if let Some(st) = store {
                let mut buf = Vec::new();
                inet_graph::io::write_edge_list(&graph, &mut buf)
                    .map_err(|e| PipelineError::Data(format!("source artifact: {e}")))?;
                st.commit_bytes(0, "source.edges", &buf, &desc)?;
            }
            Ok((graph, desc))
        })?,
    };
    if cancel.is_cancelled() {
        return Err(interrupted_error(store));
    }

    // Stage 1: measure — replay the committed rendered block verbatim, or
    // run the (cancellable) kernel battery and commit it.
    let mut robust = None;
    let mut measure_replay = None;
    if let Some(m) = scenario.measure {
        let mut replayed = false;
        if let (Some(st), Some(rec)) = (store, committed[1].as_ref()) {
            let _replay = inet_obs::span::enter("pipeline.replay", 1);
            match st.load_artifact(rec) {
                Ok(bytes) => {
                    measure_replay = Some(String::from_utf8_lossy(&bytes).into_owned());
                    warnings.extend(rec.detail.lines().map(str::to_string));
                    replayed = true;
                }
                Err(e) => warnings.push(format!("{e}; re-executing the measure stage")),
            }
        }
        if !replayed {
            let r = stage(1, || {
                let giant = inet_graph::traversal::giant_component(&graph.to_csr()).0;
                let opt = RobustOptions {
                    report: ReportOptions {
                        path_sources: m.path_sources,
                        betweenness_sources: m.betweenness_sources,
                        threads,
                    },
                    soft_deadline_millis: m.deadline_ms,
                    selection: m.selection,
                };
                let r = measure_robust_cancellable(&giant, opt, cancel);
                if !r.interrupted() {
                    if let Some(st) = store {
                        st.commit_bytes(
                            1,
                            "measure.txt",
                            report::render_measure_block(scenario, &r).as_bytes(),
                            &measure_warnings(&r).join("\n"),
                        )?;
                    }
                }
                Ok(r)
            })?;
            if r.interrupted() {
                return Err(interrupted_error(store));
            }
            robust = Some(r);
        }
    } else if let (Some(st), None) = (store, committed[1].as_ref()) {
        // The scenario has no measure section: journal the skip so the
        // run's progress reads "complete" once the later stages land.
        st.commit(1)?;
    }
    if cancel.is_cancelled() {
        return Err(interrupted_error(store));
    }

    // Stage 2: attack — the checkpoint holds the stage's state, at cell
    // granularity, and checks its own records: journaled runs auto-wire
    // one into the run directory, and resume (committed or mid-sweep)
    // picks finished cells back up from it bit-identically. The commit
    // record carries no artifact.
    let mut sweep = None;
    if let Some(a) = &scenario.attack {
        let checkpoint = match (&a.checkpoint, store) {
            (Some(path), _) => Some(path.clone()),
            (None, Some(st)) => Some(st.path("attack.ckpt")),
            (None, None) => None,
        };
        let s = stage(2, || {
            let csr = graph.to_csr();
            let record_every = if a.record_every == 0 {
                (csr.node_count() / 200).max(1)
            } else {
                a.record_every
            };
            let cfg = SweepConfig {
                strategies: a.strategies.clone(),
                replicas: a.replicas,
                base_seed: a.seed,
                threads,
                record_every,
                bc_sources: a.bc_sources,
                checkpoint,
                cancel: cancel.clone(),
                ..SweepConfig::default()
            };
            let result = run_sweep(&csr, &cfg).map_err(attack_error)?;
            if !result.interrupted {
                if let Some(st) = store {
                    st.commit(2)?;
                }
            }
            Ok(result)
        })?;
        if s.interrupted {
            return Err(interrupted_error(store));
        }
        sweep = Some(s);
    } else if let (Some(st), None) = (store, committed[2].as_ref()) {
        st.commit(2)?;
    }
    if cancel.is_cancelled() {
        return Err(interrupted_error(store));
    }

    if let Some(r) = &robust {
        warnings.extend(measure_warnings(r));
    }
    if let Some(s) = &sweep {
        for f in &s.failures {
            warnings.push(format!(
                "{} replica {} failed on attempt {}: {}",
                f.strategy, f.replica, f.attempt, f.message
            ));
        }
        warnings.extend(s.warnings.iter().cloned());
    }

    let mut outcome = RunOutcome {
        name: scenario.name.clone(),
        source: source_desc,
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        robust,
        sweep,
        summary: String::new(),
        warnings,
        written: Vec::new(),
        run_id: store.map(|st| st.id().to_string()),
        measure_replay,
    };
    stage(3, || {
        report::emit(scenario, &graph, &mut outcome, threads)?;
        if let Some(st) = store {
            st.commit_bytes(
                3,
                "summary.txt",
                outcome.summary.as_bytes(),
                &outcome.written.join("\n"),
            )?;
        }
        Ok(())
    })?;
    Ok(outcome)
}

/// Classifies a sweep failure. A checkpoint that cannot be read or cut
/// even after the sweep's own retries is a store failure, which a served
/// job retries; one that cannot be parsed is bad data, and one from
/// another run is its own exit code. (A failed append never gets here: the
/// sweep turns it into a warning.)
fn attack_error(e: SweepError) -> PipelineError {
    let message = format!("attack: {e}");
    match e {
        SweepError::IncompatibleCheckpoint { .. } => PipelineError::CheckpointIncompatible(message),
        SweepError::Checkpoint(CheckpointError::Io { .. }) => PipelineError::Store(message),
        SweepError::Checkpoint(_) => PipelineError::Data(message),
    }
}

/// Stage 0: grow or load the topology, with the invariant check the legacy
/// CLI ran (always in debug builds, opt-in in release).
fn build_source(scenario: &Scenario) -> Result<(MultiGraph, String), PipelineError> {
    match &scenario.source {
        Source::Generator(g) => {
            let generator =
                (g.spec.build)(&g.params).map_err(|e| PipelineError::Model(e.to_string()))?;
            let mut rng = seeded_rng(g.seed);
            let net = generator
                .try_generate(&mut rng)
                .map_err(|e| PipelineError::Model(e.to_string()))?;
            check_graph(&net.graph, scenario.check_invariants, "generate")?;
            let desc = format!(
                "generated {} ({} nodes, {} edges, weight {})",
                net.name,
                net.graph.node_count(),
                net.graph.edge_count(),
                net.graph.total_weight()
            );
            Ok((net.graph, desc))
        }
        Source::Input { path } => {
            let graph = load_graph(path)?;
            check_graph(&graph, scenario.check_invariants, "input")?;
            let desc = format!(
                "loaded {} ({} nodes, {} edges)",
                path,
                graph.node_count(),
                graph.edge_count()
            );
            Ok((graph, desc))
        }
    }
}

/// Reads an edge list from a file, or stdin when `path` is `-`.
pub fn load_graph(path: &str) -> Result<MultiGraph, PipelineError> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| PipelineError::Data(format!("stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| PipelineError::Data(format!("{path}: {e}")))?
    };
    inet_graph::io::read_edge_list(text.as_bytes())
        .map_err(|e| PipelineError::Data(format!("{path}: {e}")))
}

/// Runs the full `O(E log d)` [`MultiGraph::validate`] invariant check:
/// always in debug builds, in release builds only when `enabled`
/// (`--check-invariants`). A violation is a one-line data error, not a panic.
pub fn check_graph(g: &MultiGraph, enabled: bool, what: &str) -> Result<(), PipelineError> {
    if enabled || cfg!(debug_assertions) {
        g.validate().map_err(|e| {
            PipelineError::Data(format!("{what}: graph invariant check failed: {e}"))
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runstore::CommitRecord;
    use crate::scenario::Scenario;
    use inet_generators::ParamValue;
    use inet_resilience::Strategy;
    use std::collections::BTreeMap;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("inet_pipeline_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generator_scenario_measures_and_attacks() {
        let _lock = crate::test_lock();
        let scenario = Scenario::parse(
            r#"
            [generator]
            model = "ba"
            n = 80
            seed = 11
            [measure]
            metrics = ["degree", "giant"]
            [attack]
            strategies = ["random"]
            replicas = 1
            record = 1
            "#,
        )
        .unwrap();
        let outcome = run_scenario(&scenario).unwrap();
        assert_eq!(outcome.nodes, 80);
        assert!(outcome.edges > 0);
        let robust = outcome.robust.as_ref().unwrap();
        assert!(robust.fully_ok());
        let sweep = outcome.sweep.as_ref().unwrap();
        assert_eq!(sweep.cells.len(), 1);
        assert!(outcome.summary.contains("generated"), "{}", outcome.summary);
        assert!(outcome.summary.contains("strategy"), "{}", outcome.summary);
    }

    #[test]
    fn scenario_attack_is_bit_identical_to_a_direct_sweep() {
        let _lock = crate::test_lock();
        // The pipeline must add nothing to the numbers: same generator call,
        // same sweep config => identical cells, for any thread count.
        let direct = {
            let spec = inet_generators::lookup("ba").unwrap();
            let params = spec
                .resolve(&BTreeMap::from([("n".to_string(), ParamValue::Int(80))]))
                .unwrap();
            let generator = (spec.build)(&params).unwrap();
            let mut rng = seeded_rng(11);
            let csr = generator.try_generate(&mut rng).unwrap().graph.to_csr();
            let cfg = SweepConfig {
                strategies: vec![Strategy::Random, Strategy::Degree { recalc: false }],
                replicas: 2,
                base_seed: 11,
                threads: 1,
                record_every: 1,
                bc_sources: 64,
                ..SweepConfig::default()
            };
            run_sweep(&csr, &cfg).unwrap()
        };
        for threads in [1usize, 2, 7] {
            let scenario = Scenario::parse(&format!(
                "threads = {threads}\n[generator]\nmodel = \"ba\"\nn = 80\nseed = 11\n\
                 [attack]\nreplicas = 2\nrecord = 1"
            ))
            .unwrap();
            let outcome = run_scenario(&scenario).unwrap();
            assert_eq!(
                outcome.sweep.unwrap().cells,
                direct.cells,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn input_scenario_round_trips_through_sinks() {
        let _lock = crate::test_lock();
        let dir = temp_dir("sinks");
        let edge_list = dir.join("graph.txt");
        let generated = Scenario::parse(&format!(
            "[generator]\nmodel = \"glp\"\nn = 120\nseed = 3\n[report]\nedge_list = \"{}\"",
            edge_list.display()
        ))
        .unwrap();
        let first = run_scenario(&generated).unwrap();
        assert!(edge_list.exists());
        assert_eq!(first.written.len(), 1);

        let summary = dir.join("summary.txt");
        let curves = dir.join("curves");
        let measured = Scenario::parse(&format!(
            "[input]\npath = \"{}\"\n[measure]\nmetrics = [\"degree\"]\n\
             [attack]\nstrategies = [\"degree\"]\nreplicas = 1\n\
             [report]\nsummary = \"{}\"\ncurves = \"{}\"",
            edge_list.display(),
            summary.display(),
            curves.display()
        ))
        .unwrap();
        let outcome = run_scenario(&measured).unwrap();
        assert_eq!(outcome.nodes, first.nodes);
        assert_eq!(outcome.edges, first.edges);
        let summary_text = std::fs::read_to_string(&summary).unwrap();
        assert_eq!(summary_text, outcome.summary);
        assert!(curves.join("degree-r0.csv").exists());
        let csv = std::fs::read_to_string(curves.join("degree-r0.csv")).unwrap();
        assert!(
            csv.starts_with("removed,giant,edges,mean_component\n"),
            "{csv}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_errors_keep_their_exit_codes() {
        let _lock = crate::test_lock();
        // Unreadable input is a data error (4).
        let scenario = Scenario::parse("[input]\npath = \"/nonexistent/g.txt\"").unwrap();
        assert_eq!(run_scenario(&scenario).unwrap_err().exit_code(), 4);
        // A generator rejecting its parameters is a model error (3): the
        // schema accepts any positive m, the builder enforces m <= n.
        let scenario = Scenario::parse("[generator]\nmodel = \"ba\"\nn = 10\nm = 50").unwrap();
        let e = run_scenario(&scenario).unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e}");
    }

    #[test]
    fn incompatible_checkpoint_exits_5() {
        let _lock = crate::test_lock();
        let dir = temp_dir("ckpt");
        let ckpt = dir.join("state.json");
        let mk = |seed: u64| {
            Scenario::parse(&format!(
                "[generator]\nmodel = \"ba\"\nn = 60\nseed = {seed}\n\
                 [attack]\nstrategies = [\"random\"]\nreplicas = 1\ncheckpoint = \"{}\"",
                ckpt.display()
            ))
            .unwrap()
        };
        run_scenario(&mk(11)).unwrap();
        let resumed = run_scenario(&mk(11)).unwrap();
        assert_eq!(resumed.sweep.as_ref().unwrap().resumed, 1);
        assert!(resumed.summary.contains("resumed 1 finished cell(s)"));
        let e = run_scenario(&mk(12)).unwrap_err();
        assert_eq!(e.exit_code(), 5, "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_run_commits_every_stage_and_resumes_from_artifacts() {
        let _lock = crate::test_lock();
        let dir = temp_dir("journal");
        let runs = dir.join("runs");
        let curves = dir.join("curves");
        let text = format!(
            "[generator]\nmodel = \"ba\"\nn = 80\nseed = 11\n\
             [measure]\nmetrics = [\"degree\", \"giant\"]\n\
             [attack]\nstrategies = [\"random\"]\nreplicas = 2\nrecord = 1\n\
             [report]\ncurves = \"{}\"",
            curves.display()
        );
        let scenario = Scenario::parse(&text).unwrap();
        let store = RunStore::create(&runs, &scenario.name, &text, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let clean = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(store),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(clean.run_id.as_deref(), Some(id.as_str()));
        let clean_cells = clean.sweep.as_ref().unwrap().cells.clone();
        let csv_before = std::fs::read_to_string(curves.join("random-r0.csv")).unwrap();

        // Every stage committed; every artifact passes its checksum, and
        // the attack, whose checkpoint checks itself, has none.
        let store = RunStore::open(&runs, &id).unwrap();
        let committed = store.committed();
        assert!(committed.iter().all(Option::is_some), "{committed:?}");
        for rec in committed.iter().flatten() {
            assert_eq!(rec.artifact.is_none(), rec.stage == 2, "{rec:?}");
            if rec.artifact.is_some() {
                store.load_artifact(rec).unwrap();
            }
        }
        assert!(store.path("attack.ckpt").exists());

        // Resume replays source + measure from artifacts, the attack from
        // its checkpoint — cells and curve CSVs bit-identical.
        let resumed = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(RunStore::open(&runs, &id).unwrap()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(resumed.robust.is_none(), "measure must replay, not re-run");
        assert!(resumed.measure_replay.is_some());
        assert_eq!(resumed.source, clean.source);
        let resumed_sweep = resumed.sweep.as_ref().unwrap();
        assert_eq!(resumed_sweep.cells, clean_cells);
        assert_eq!(
            resumed_sweep.resumed, 2,
            "both cells come from the checkpoint"
        );
        assert_eq!(
            std::fs::read_to_string(curves.join("random-r0.csv")).unwrap(),
            csv_before
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The bytes of every file in `dir`, by name.
    fn read_dir_bytes(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    /// The names of the files in `dir`, sorted.
    fn file_names(dir: &std::path::Path) -> Vec<String> {
        read_dir_bytes(dir).into_keys().collect()
    }

    #[test]
    fn a_run_directory_holds_only_what_a_reader_reads() {
        let _lock = crate::test_lock();
        let dir = temp_dir("listing");
        let runs = dir.join("runs");
        let run = |sections: &str| {
            let text = format!("[generator]\nmodel = \"ba\"\nn = 60\nseed = 3\n{sections}");
            let scenario = Scenario::parse(&text).unwrap();
            let store = RunStore::create(&runs, &scenario.name, &text, "s.toml", &[]).unwrap();
            let store_dir = store.dir().to_path_buf();
            let opts = ExecOptions {
                store: Some(store),
                ..Default::default()
            };
            run_scenario_with(&scenario, &opts).unwrap();
            file_names(&store_dir)
        };
        let all = run("[measure]\nmetrics = [\"degree\"]\n[attack]\nreplicas = 1\n");
        assert_eq!(
            all,
            [
                "attack.ckpt",
                "journal.log",
                "manifest.json",
                "measure.txt",
                "source.edges",
                "summary.txt",
                "telemetry.log"
            ]
        );
        // Skipped stages commit a record and leave no file.
        let bare = run("");
        assert_eq!(
            bare,
            [
                "journal.log",
                "manifest.json",
                "source.edges",
                "summary.txt",
                "telemetry.log"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The journal builds before this layout wrote for [`OLDER_SCENARIO`] at
    /// one thread, byte for byte: `begin` records, the skipped measure
    /// stage committed as the empty `measure.skip`, and the attack
    /// committed as `attack.ckpt` with its checksum.
    const OLDER_JOURNAL: &str = "inet-run-journal\t1\t1d35a1c087524a4b\n\
        begin\t0\tsource\tedfcd4f7b6d6689f\n\
        commit\t0\tsource\tsource.edges\t23d4fe5a8fa93f5a\t\
        generated BA m=2 (40 nodes, 77 edges, weight 77)\td5a7e23696d9d8b4\n\
        begin\t1\tmeasure\td9e85c255ee77c8d\n\
        commit\t1\tmeasure\tmeasure.skip\tcbf29ce484222325\tskipped\t0a50ec9af71fcca9\n\
        begin\t2\tattack\t3374e372903760f0\n\
        commit\t2\tattack\tattack.ckpt\teae73d9f0fe4de1b\t\t5134cafcd3787e5a\n\
        begin\t3\treport\t98e489063967782f\n\
        commit\t3\treport\tsummary.txt\t74ac15c2f6833ea5\t\t70b33fcda2863751\n";

    const OLDER_SCENARIO: &str = "[generator]\nmodel = \"ba\"\nn = 40\nseed = 5\n\
        [attack]\nstrategies = [\"random\", \"degree\"]\nreplicas = 1\nrecord = 2\n";

    #[test]
    fn an_older_journal_reads_as_committed_and_resumes_identically() {
        use inet_exec::durable::fnv64;
        let _lock = crate::test_lock();
        let dir = temp_dir("older_journal");
        let runs = dir.join("runs");
        let scenario = |threads: usize| {
            let mut s = Scenario::parse(OLDER_SCENARIO).unwrap();
            s.threads = Some(threads);
            s
        };
        let store = RunStore::create(&runs, "ba", OLDER_SCENARIO, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let opts = |store| ExecOptions {
            store: Some(store),
            ..Default::default()
        };
        let clean = run_scenario_with(&scenario(1), &opts(store)).unwrap();
        let store = RunStore::open(&runs, &id).unwrap();
        // The artifacts this build wrote are the ones the journal names.
        for (artifact, sum) in [
            ("source.edges", 0x23d4_fe5a_8fa9_3f5a_u64),
            ("attack.ckpt", 0xeae7_3d9f_0fe4_de1b),
            ("summary.txt", 0x74ac_15c2_f683_3ea5),
        ] {
            let bytes = std::fs::read(store.path(artifact)).unwrap();
            assert_eq!(fnv64(&bytes), sum, "{artifact}");
        }
        let without_resumed = |summary: &str| -> String {
            summary
                .lines()
                .filter(|l| !l.starts_with("resumed "))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        let commit = |stage, artifact: &str, sum, detail: &str| {
            Some(CommitRecord {
                stage,
                artifact: Some((artifact.to_string(), sum)),
                detail: detail.to_string(),
            })
        };
        for threads in [1usize, 2, 7] {
            std::fs::write(store.path("journal.log"), OLDER_JOURNAL).unwrap();
            std::fs::write(store.path("measure.skip"), b"").unwrap();
            assert_eq!(
                store.committed(),
                [
                    commit(
                        0,
                        "source.edges",
                        0x23d4_fe5a_8fa9_3f5a,
                        "generated BA m=2 (40 nodes, 77 edges, weight 77)"
                    ),
                    commit(1, "measure.skip", 0xcbf2_9ce4_8422_2325, "skipped"),
                    commit(2, "attack.ckpt", 0xeae7_3d9f_0fe4_de1b, ""),
                    commit(3, "summary.txt", 0x74ac_15c2_f683_3ea5, ""),
                ]
            );
            assert_eq!(
                crate::runstore::scan_runs(&runs).runs[0].status(),
                "complete"
            );
            let resumed = run_scenario_with(
                &scenario(threads),
                &opts(RunStore::open(&runs, &id).unwrap()),
            )
            .unwrap();
            assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
            assert_eq!(resumed.source, clean.source);
            let sweep = resumed.sweep.as_ref().unwrap();
            assert_eq!(sweep.resumed, 2, "threads {threads}");
            assert_eq!(sweep.cells, clean.sweep.as_ref().unwrap().cells);
            assert_eq!(
                without_resumed(&resumed.summary),
                without_resumed(&clean.summary),
                "threads {threads}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_v3_run_directory_recomputes_the_sweep_bit_identically() {
        use inet_exec::durable::{fnv64, seal};
        let _lock = crate::test_lock();
        let dir = temp_dir("pre_v3");
        let runs = dir.join("runs");
        let curves = dir.join("curves");
        let text = format!(
            "[generator]\nmodel = \"ba\"\nn = 120\nseed = 5\n\
             [attack]\nstrategies = [\"random\", \"degree\"]\nreplicas = 2\nrecord = 1\n\
             [report]\ncurves = \"{}\"",
            curves.display()
        );
        let scenario = Scenario::parse(&text).unwrap();
        let store = RunStore::create(&runs, &scenario.name, &text, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let opts = |store| ExecOptions {
            store: Some(store),
            ..Default::default()
        };
        let clean = run_scenario_with(&scenario, &opts(store)).unwrap();
        let clean_curves = read_dir_bytes(&curves);
        assert_eq!(clean_curves.len(), 3, "{:?}", clean_curves.keys());

        // Turn the run directory into one an older build left: the
        // checkpoint is a version-2 log named `attack.ckpt.json`, and the
        // journal's attack commit names that file with its checksum.
        let store = RunStore::open(&runs, &id).unwrap();
        let v3 = std::fs::read_to_string(store.path("attack.ckpt")).unwrap();
        let header = v3.lines().next().unwrap();
        let header = &header[..header.len() - 17];
        let v2 = seal(header.replacen("\t3\t", "\t2\t", 1))
            + &seal("cell\trandom\t0\t0\t120\t237\t0.5\t0 120 237 0.0".to_string());
        std::fs::remove_file(store.path("attack.ckpt")).unwrap();
        std::fs::write(store.path("attack.ckpt.json"), &v2).unwrap();
        let journal = std::fs::read_to_string(store.path("journal.log")).unwrap();
        let journal: String = journal
            .lines()
            .map(|line| {
                let mut fields: Vec<String> = line[..line.len() - 17]
                    .split('\t')
                    .map(str::to_string)
                    .collect();
                if fields[..2] == ["commit", "2"] {
                    fields.push("attack.ckpt.json".to_string());
                    fields.push(format!("{:016x}", fnv64(v2.as_bytes())));
                    fields.push(String::new());
                }
                seal(fields.join("\t"))
            })
            .collect();
        assert!(journal.contains("\tattack.ckpt.json\t"), "{journal}");
        std::fs::write(store.path("journal.log"), journal).unwrap();
        std::fs::remove_dir_all(&curves).unwrap();

        // Resuming recomputes every cell (the old file is not read, and not
        // touched) and writes the same curves byte for byte.
        let resumed =
            run_scenario_with(&scenario, &opts(RunStore::open(&runs, &id).unwrap())).unwrap();
        let sweep = resumed.sweep.as_ref().unwrap();
        assert_eq!(sweep.resumed, 0, "no cell comes from the old checkpoint");
        assert_eq!(sweep.cells, clean.sweep.as_ref().unwrap().cells);
        assert_eq!(read_dir_bytes(&curves), clean_curves);
        assert_eq!(resumed.summary, clean.summary);
        let store = RunStore::open(&runs, &id).unwrap();
        assert_eq!(
            std::fs::read_to_string(store.path("attack.ckpt.json")).unwrap(),
            v2
        );
        // The new checkpoint holds the same records, in completion order.
        let sorted = |text: String| {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines.sort();
            lines
        };
        let recomputed = std::fs::read_to_string(store.path("attack.ckpt")).unwrap();
        assert_eq!(sorted(recomputed), sorted(v3));
        assert_eq!(store.committed()[2].as_ref().unwrap().artifact, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_errors_map_to_their_pipeline_classes() {
        let _lock = crate::test_lock();
        let dir = temp_dir("ckpt_classes");
        let run = |checkpoint: &std::path::Path| {
            let scenario = Scenario::parse(&format!(
                "[generator]\nmodel = \"ba\"\nn = 40\nseed = 3\n\
                 [attack]\nstrategies = [\"random\"]\nreplicas = 1\ncheckpoint = \"{}\"",
                checkpoint.display()
            ))
            .unwrap();
            run_scenario(&scenario).unwrap_err()
        };
        // A checkpoint that cannot be read, even after retries, is a store
        // failure: a served job retries it.
        let unreadable = dir.join("a-directory");
        std::fs::create_dir_all(&unreadable).unwrap();
        let e = run(&unreadable);
        assert!(matches!(e, PipelineError::Store(_)), "{e:?}");
        assert!(e.message().contains("cannot access checkpoint"), "{e}");
        // One that cannot be parsed is bad data, refused in one line.
        let foreign = dir.join("v2.ckpt");
        std::fs::write(
            &foreign,
            inet_exec::durable::seal("inet-sweep-checkpoint\t2\t00\tcfg".to_string()),
        )
        .unwrap();
        let e = run(&foreign);
        assert!(matches!(e, PipelineError::Data(_)), "{e:?}");
        assert!(e.message().contains("format version 2"), "{e}");
        assert_eq!(e.message().lines().count(), 1, "{e}");
        // Both exit 4; a checkpoint of another run keeps its exit 5
        // (`incompatible_checkpoint_exits_5`).
        assert_eq!(e.exit_code(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifact_degrades_to_re_execution_with_a_warning() {
        let _lock = crate::test_lock();
        let dir = temp_dir("degrade");
        let runs = dir.join("runs");
        let text = "[generator]\nmodel = \"ba\"\nn = 60\nseed = 7\n\
                    [measure]\nmetrics = [\"degree\"]";
        let scenario = Scenario::parse(text).unwrap();
        let store = RunStore::create(&runs, &scenario.name, text, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let clean = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(store),
                ..Default::default()
            },
        )
        .unwrap();
        let store = RunStore::open(&runs, &id).unwrap();
        std::fs::write(store.path("measure.txt"), "tampered").unwrap();
        let resumed = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(store),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            resumed
                .warnings
                .iter()
                .any(|w| w.contains("failed its checksum") && w.contains("re-executing")),
            "{:?}",
            resumed.warnings
        );
        assert!(resumed.robust.is_some(), "stage must re-execute");
        assert_eq!(
            resumed.summary, clean.summary,
            "re-execution is deterministic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_run_exits_6_and_names_the_resume_command() {
        let _lock = crate::test_lock();
        let dir = temp_dir("cancel");
        let text = "[generator]\nmodel = \"ba\"\nn = 60";
        let scenario = Scenario::parse(text).unwrap();
        let store =
            RunStore::create(&dir.join("runs"), &scenario.name, text, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let cancel = CancelToken::new();
        cancel.cancel();
        let e = run_scenario_with(
            &scenario,
            &ExecOptions {
                cancel,
                store: Some(store),
            },
        )
        .unwrap_err();
        assert_eq!(e.exit_code(), 6, "{e}");
        assert!(
            e.message().contains(&format!("inet run --resume {id}")),
            "{e}"
        );
        // Without a store the class is the same, just without the command.
        let cancel = CancelToken::new();
        cancel.cancel();
        let e = run_scenario_with(
            &scenario,
            &ExecOptions {
                cancel,
                store: None,
            },
        )
        .unwrap_err();
        assert_eq!(e.exit_code(), 6, "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_sinks_fail_fast_with_exit_2_before_any_compute() {
        let _lock = crate::test_lock();
        let dir = temp_dir("preflight");
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "x").unwrap();
        // The parent of each sink is a *file*, so no directory can be made.
        for section in [
            format!("summary = \"{}\"", blocker.join("sub/out.txt").display()),
            format!("edge_list = \"{}\"", blocker.join("sub/g.txt").display()),
        ] {
            let scenario = Scenario::parse(&format!(
                "[generator]\nmodel = \"ba\"\nn = 60\n[report]\n{section}"
            ))
            .unwrap();
            let e = run_scenario(&scenario).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{section}: {e}");
            assert!(e.message().contains("not writable"), "{e}");
        }
        let scenario = Scenario::parse(&format!(
            "[generator]\nmodel = \"ba\"\nn = 60\n[attack]\nreplicas = 1\n\
             [report]\ncurves = \"{}\"",
            blocker.join("curves").display()
        ))
        .unwrap();
        let e = run_scenario(&scenario).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    mod faults {
        use super::*;
        use inet_fault::{install, FaultAction, FaultPlan};

        fn scenario() -> Scenario {
            Scenario::parse(
                "[generator]\nmodel = \"ba\"\nn = 60\n\
                 [measure]\nmetrics = [\"degree\"]\n\
                 [attack]\nstrategies = [\"random\"]\nreplicas = 1",
            )
            .unwrap()
        }

        #[test]
        fn injected_stage_faults_abort_with_exit_1() {
            let _lock = crate::test_lock();
            for (scope, name) in STAGE_NAMES.iter().enumerate() {
                let _guard = install(FaultPlan::single(
                    "pipeline.stage",
                    Some(scope as u64),
                    FaultAction::Error,
                ));
                let e = run_scenario(&scenario()).unwrap_err();
                assert_eq!(e.exit_code(), 1, "{name}: {e}");
                assert!(
                    e.message().contains(&format!("{name} stage aborted")),
                    "{name}: {e}"
                );
            }
        }

        #[test]
        fn panics_inside_a_stage_are_contained() {
            let _lock = crate::test_lock();
            // The failpoint sits inside the fence, so an injected panic
            // becomes a Stage error instead of unwinding through the run.
            let _guard = install(FaultPlan::single(
                "pipeline.stage",
                Some(3),
                FaultAction::Panic,
            ));
            let e = run_scenario(&scenario()).unwrap_err();
            assert_eq!(e.exit_code(), 1, "{e}");
            assert!(e.message().contains("report stage panicked"), "{e}");
        }

        /// Copies a directory tree (a run-store root) file by file.
        fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
            std::fs::create_dir_all(to).unwrap();
            for entry in std::fs::read_dir(from).unwrap() {
                let entry = entry.unwrap();
                let dest = to.join(entry.file_name());
                if entry.file_type().unwrap().is_dir() {
                    copy_tree(&entry.path(), &dest);
                } else {
                    std::fs::copy(entry.path(), dest).unwrap();
                }
            }
        }

        /// Crash-point enumeration in the style of ALICE (Pillai et al.,
        /// OSDI '14). A fault-free journaled run performs `n` durable
        /// operations. For each k < n, a 1-thread run fails exactly the
        /// k-th one; copies of what it left on disk then resume with no
        /// faults at threads 1, 2 and 7, and each must produce the
        /// fault-free output byte for byte.
        #[test]
        fn every_durable_operation_fails_and_resumes_bit_identically() {
            use inet_exec::durable;
            let _lock = crate::test_lock();
            let dir = temp_dir("crash_points");
            let curves = dir.join("curves");
            let text = format!(
                "[generator]\nmodel = \"ba\"\nn = 40\nseed = 5\n\
                 [measure]\nmetrics = [\"degree\"]\n\
                 [attack]\nstrategies = [\"random\", \"degree\"]\nreplicas = 1\nrecord = 2\n\
                 [report]\ncurves = \"{}\"",
                curves.display()
            );
            let scenario = |threads: usize| {
                let mut s = Scenario::parse(&text).unwrap();
                s.threads = Some(threads);
                s
            };
            let exec = |store: RunStore| ExecOptions {
                store: Some(store),
                ..Default::default()
            };
            // What a run produced: the summary (minus the line saying it
            // resumed cells), the cells, the curve CSVs and the source and
            // measure artifacts.
            let output = |outcome: &RunOutcome, store_dir: &std::path::Path| {
                let summary: String = outcome
                    .summary
                    .lines()
                    .filter(|l| !l.starts_with("resumed "))
                    .map(|l| format!("{l}\n"))
                    .collect();
                let mut out = vec![
                    ("summary".to_string(), summary.into_bytes()),
                    (
                        "cells".to_string(),
                        format!("{:?}", outcome.sweep.as_ref().unwrap().cells).into_bytes(),
                    ),
                ];
                let mut csvs: Vec<_> = std::fs::read_dir(&curves)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .collect();
                csvs.sort();
                for path in csvs.into_iter().chain([
                    store_dir.join("source.edges"),
                    store_dir.join("measure.txt"),
                ]) {
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    out.push((name, std::fs::read(&path).unwrap()));
                }
                out
            };

            let mut reference = None;
            let mut n = 0;
            for threads in [1usize, 2, 7] {
                let base = durable::ops();
                let store = RunStore::create(
                    &dir.join(format!("ref-{threads}")),
                    "crash",
                    &text,
                    "s.toml",
                    &[],
                )
                .unwrap();
                let store_dir = store.dir().to_path_buf();
                let outcome = run_scenario_with(&scenario(threads), &exec(store)).unwrap();
                let got = output(&outcome, &store_dir);
                if threads == 1 {
                    n = durable::ops() - base;
                    reference = Some(got);
                } else {
                    assert_eq!(Some(got), reference, "fault-free run at threads {threads}");
                }
            }
            let reference = reference.unwrap();
            // Run directory fsync, then the manifest, which holds the
            // scenario text (tmp write, rename, directory fsync): 4.
            // Source: the artifact's three steps, then the commit append
            // that creates the journal, with its directory fsync: 5.
            // Measure: the artifact's three steps and the commit: 4.
            // Attack: one append per cell plus the checkpoint's directory
            // fsync, then the commit: cells + 2. Report: 4. Telemetry: the
            // append that creates the log, with its directory fsync: 2.
            let cells = 2;
            assert_eq!(
                n,
                4 + 5 + 4 + (cells + 2) + 4 + 2,
                "durable operations per run"
            );

            for k in 0..n {
                let root = dir.join(format!("k{k}"));
                let base = durable::ops();
                let id = {
                    let _guard = install(FaultPlan::single(
                        "durable.op",
                        Some(base + k),
                        FaultAction::Error,
                    ));
                    RunStore::create(&root, "crash", &text, "s.toml", &[])
                        .ok()
                        .map(|store| {
                            let id = store.id().to_string();
                            // Failing or not, the run must return, not panic.
                            let _ = run_scenario_with(&scenario(1), &exec(store));
                            id
                        })
                };
                assert!(durable::ops() > base + k, "operation {k} was never reached");
                for threads in [1usize, 2, 7] {
                    let copy = dir.join(format!("k{k}-t{threads}"));
                    copy_tree(&root, &copy);
                    // A run whose creation failed has nothing to resume:
                    // the user starts it again.
                    let store = match &id {
                        Some(id) => RunStore::open(&copy, id).unwrap(),
                        None => RunStore::create(&copy, "crash", &text, "s.toml", &[]).unwrap(),
                    };
                    let store_dir = store.dir().to_path_buf();
                    let outcome = run_scenario_with(&scenario(threads), &exec(store))
                        .unwrap_or_else(|e| panic!("op {k}, threads {threads}: {e}"));
                    assert_eq!(
                        output(&outcome, &store_dir),
                        reference,
                        "operation {k} failed, resumed at threads {threads}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

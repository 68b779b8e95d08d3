//! Chaos suite: runs the toolkit's pipelines with the `inet-fault`
//! failpoints live and proves the robustness contract end to end —
//!
//! * every injected fault either recovers (retry, resample, torn-tail
//!   truncation) or surfaces as a structured error; **no injected fault
//!   escapes as an uncaught panic**;
//! * recovered results are bit-identical for the same `(seed, plan)` at
//!   any worker-thread count.
//!
//! Build with `--features fault-inject`; without the feature this file
//! compiles to an empty test binary (the failpoints are inlined `Ok(())`
//! in that configuration, so there is nothing to exercise).
#![cfg(feature = "fault-inject")]

use inet_suite::inet_model::fault::{self, FaultAction, FaultPlan, FaultSpec};
use inet_suite::inet_model::generators::ModelError;
use inet_suite::inet_model::graph::io::{read_edge_list, write_edge_list};
use inet_suite::inet_model::graph::GraphError;
use inet_suite::inet_model::metrics::robust::{measure_robust, RobustOptions};
use inet_suite::inet_model::prelude::*;
use std::sync::Mutex;

/// The fault registry is process-global, so every test that installs a
/// plan serializes on this lock (poisoning from an earlier test failure
/// must not cascade).
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn small_net(seed: u64) -> GeneratedNetwork {
    BarabasiAlbert::new(60, 2)
        .try_generate(&mut seeded_rng(seed))
        .expect("clean generation")
}

#[test]
fn injected_io_faults_surface_as_structured_errors() {
    let _l = lock();
    let net = small_net(1);

    // Error action on read: first call structured error, second clean.
    let _g = fault::install(FaultPlan::single("io.read", Some(0), FaultAction::Error));
    let err = read_edge_list("0 1\n".as_bytes()).unwrap_err();
    assert!(
        matches!(&err, GraphError::Io(m) if m.contains("io.read")),
        "{err}"
    );
    assert!(read_edge_list("0 1\n".as_bytes()).is_ok());
    drop(_g);

    // Error action on write: nothing is emitted past the failpoint.
    let _g = fault::install(FaultPlan::single("io.write", Some(0), FaultAction::Error));
    let mut buf = Vec::new();
    let err = write_edge_list(&net.graph, &mut buf).unwrap_err();
    assert!(
        matches!(&err, GraphError::Io(m) if m.contains("io.write")),
        "{err}"
    );
    assert!(buf.is_empty(), "nothing may be written past the failpoint");
    assert!(write_edge_list(&net.graph, &mut buf).is_ok());
    drop(_g);

    // Panic action: io has no enclosing recovery layer, so the failpoint
    // itself contains the panic and hands the site a structured error.
    let _g = fault::install(FaultPlan::single("io.read", Some(0), FaultAction::Panic));
    let err = read_edge_list("0 1\n".as_bytes()).unwrap_err();
    assert!(matches!(&err, GraphError::Io(_)), "{err}");
}

#[test]
fn injected_generator_faults_become_model_errors() {
    let _l = lock();
    let clean = small_net(7).graph;

    let ba = BarabasiAlbert::new(60, 2);
    let _g = fault::install(FaultPlan::single(
        "generator.generate",
        Some(0),
        FaultAction::Error,
    ));
    let err = ba.try_generate(&mut seeded_rng(7)).unwrap_err();
    assert!(err.to_string().contains("generator.generate"), "{err}");
    // The fault is one-shot: the next call recovers, bit-identically.
    let net = ba.try_generate(&mut seeded_rng(7)).unwrap();
    assert_eq!(net.graph, clean);
    drop(_g);

    let _g = fault::install(FaultPlan::single(
        "generator.generate",
        Some(0),
        FaultAction::Panic,
    ));
    let err = ba.try_generate(&mut seeded_rng(7)).unwrap_err();
    assert!(
        matches!(&err, ModelError::Internal { .. }),
        "injected panic must be contained as Internal, got {err}"
    );
    assert!(err.to_string().contains(fault::PANIC_PREFIX), "{err}");
    let net = ba.try_generate(&mut seeded_rng(7)).unwrap();
    assert_eq!(net.graph, clean);
}

#[test]
fn injected_kernel_panic_yields_partial_report_with_clean_numbers() {
    let _l = lock();
    let csr = small_net(3).graph.to_csr();
    let clean = measure_robust(&csr, RobustOptions::default());
    assert!(clean.fully_ok());

    // Kill the fused paths/betweenness kernel (index 4) with a panic; the
    // other kernels' numbers must match the clean run exactly.
    let _g = fault::install(FaultPlan::single(
        "metrics.kernel",
        Some(4),
        FaultAction::Panic,
    ));
    let partial = measure_robust(&csr, RobustOptions::default());
    drop(_g);
    assert!(!partial.fully_ok());
    let failures = partial.failures();
    assert_eq!(failures.len(), 1, "{}", partial.render_status());
    assert!(
        failures[0].1.contains(fault::PANIC_PREFIX),
        "{}",
        failures[0].1
    );
    // Fields owned by the surviving kernels carry the clean numbers.
    assert_eq!(partial.report.mean_degree, clean.report.mean_degree);
    assert_eq!(partial.report.max_degree, clean.report.max_degree);
    assert_eq!(partial.report.mean_clustering, clean.report.mean_clustering);
    assert_eq!(partial.report.transitivity, clean.report.transitivity);
    assert_eq!(partial.report.coreness, clean.report.coreness);
    assert_eq!(partial.report.giant_fraction, clean.report.giant_fraction);
}

fn sweep_under(
    plan: &FaultPlan,
    threads: usize,
    checkpoint: Option<std::path::PathBuf>,
) -> SweepResult {
    let csr = small_net(5).graph.to_csr();
    let cfg = SweepConfig {
        strategies: vec![Strategy::Random, Strategy::Degree { recalc: false }],
        replicas: 2,
        base_seed: 17,
        threads,
        record_every: 4,
        bc_sources: 8,
        checkpoint,
        fail_cells: Vec::new(),
        cancel: CancelToken::new(),
    };
    let _g = fault::install(plan.clone());
    let result = run_sweep(&csr, &cfg).expect("sweep starts");
    fault::clear();
    result
}

#[test]
fn faulted_sweep_is_bit_identical_at_any_thread_count() {
    let _l = lock();
    // Error one cell, panic another, delay a third: every recovery path at
    // once, pinned by canonical cell index so scheduling cannot move them.
    let plan = FaultPlan {
        specs: vec![
            FaultSpec {
                failpoint: "sweep.cell",
                scope: Some(0),
                max_hits: 1,
                action: FaultAction::Error,
            },
            FaultSpec {
                failpoint: "sweep.cell",
                scope: Some(2),
                max_hits: 1,
                action: FaultAction::Panic,
            },
            FaultSpec {
                failpoint: "sweep.cell",
                scope: Some(1),
                max_hits: 1,
                action: FaultAction::Delay(2),
            },
        ],
    };
    let baseline = sweep_under(&plan, 1, None);
    assert_eq!(
        baseline.failures.len(),
        2,
        "error + panic each resampled once"
    );
    for threads in [2, 7] {
        let other = sweep_under(&plan, threads, None);
        assert_eq!(other.cells, baseline.cells, "threads={threads}");
        assert_eq!(other.failures, baseline.failures, "threads={threads}");
    }
    // Against a clean run: the resampled cells (0 and 2) reran on their
    // attempt-1 seed, but delay-only and untouched cells carry exactly the
    // clean numbers.
    let clean = sweep_under(&FaultPlan::default(), 2, None);
    assert_eq!(clean.cells.len(), baseline.cells.len());
    for (i, (c, b)) in clean.cells.iter().zip(&baseline.cells).enumerate() {
        if i != 0 && i != 2 {
            assert_eq!(c, b, "cell {i} must be untouched by injection");
        }
    }
    assert!(clean.failures.is_empty());
}

#[test]
fn seeded_fault_plans_never_escape_as_panics() {
    let _l = lock();
    let dir = std::env::temp_dir().join("inet_chaos_storm");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for seed in 0..24u64 {
        let plan = FaultPlan::from_seed(seed);
        let ckpt = dir.join(format!("storm-{seed}.json"));
        let outcome = std::panic::catch_unwind(|| {
            // Generation: a fault is a ModelError; fall back to a clean
            // graph so the later stages always have input.
            let generated = {
                let _g = fault::install(plan.clone());
                BarabasiAlbert::new(40, 2).try_generate(&mut seeded_rng(seed))
            };
            let net = generated.unwrap_or_else(|_| small_net(seed));
            // Fresh install (hit counters reset) for the downstream stages.
            let _guard = fault::install(plan.clone());
            // Edge-list round trip: faults are structured GraphError::Io.
            let mut buf = Vec::new();
            if write_edge_list(&net.graph, &mut buf).is_ok() {
                let _ = read_edge_list(buf.as_slice());
            }
            // Metrics: kernel faults degrade to KernelStatus::Failed.
            let _ = measure_robust(&net.graph.to_csr(), RobustOptions::default());
            // Attack sweep with checkpointing: cell faults resample,
            // checkpoint faults retry, and an append that still fails
            // leaves the log's intact prefix for a resume.
            let cfg = SweepConfig {
                strategies: vec![Strategy::Random],
                replicas: 2,
                base_seed: seed,
                threads: 2,
                record_every: 4,
                bc_sources: 8,
                checkpoint: Some(ckpt.clone()),
                fail_cells: Vec::new(),
                cancel: CancelToken::new(),
            };
            let _ = run_sweep(&net.graph.to_csr(), &cfg);
        });
        fault::clear();
        assert!(
            outcome.is_ok(),
            "seed {seed} plan [{}] escaped as a panic",
            plan.describe()
        );
        // Whatever the plan hit, the log left on disk loads.
        if let Err(e) = inet_suite::inet_model::resilience::Checkpoint::load(&ckpt) {
            panic!(
                "seed {seed} plan [{}] left an unloadable log: {e}",
                plan.describe()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delay_faults_change_nothing_but_time() {
    let _l = lock();
    let csr = small_net(9).graph.to_csr();
    let clean = measure_robust(&csr, RobustOptions::default());
    let _g = fault::install(FaultPlan {
        specs: vec![FaultSpec {
            failpoint: "metrics.kernel",
            scope: None,
            max_hits: 0,
            action: FaultAction::Delay(1),
        }],
    });
    let delayed = measure_robust(&csr, RobustOptions::default());
    drop(_g);
    assert!(delayed.fully_ok(), "{}", delayed.render_status());
    assert_eq!(delayed.report, clean.report);
}

/// Tentpole chaos: the crash-safe run store under injected journal and
/// artifact faults. Each fault aborts the run with a structured data error
/// (exit 4), and resuming the same run store completes to results
/// bit-identical to an uninterrupted run — at any thread count.
#[test]
fn journal_faults_abort_cleanly_and_resume_bit_identically() {
    use inet_suite::inet_model::pipeline::{run_scenario_with, ExecOptions, RunStore, Scenario};

    let _l = lock();
    let dir = std::env::temp_dir().join("inet_chaos_journal_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let text = "[generator]\nmodel = \"ba\"\nn = 90\nseed = 5\n\
                [measure]\nmetrics = [\"degree\", \"giant\"]\n\
                [attack]\nstrategies = [\"random\", \"degree-recalc\"]\nreplicas = 2\nrecord = 2";
    let scenario = Scenario::parse(text).unwrap();
    let expected = run_scenario_with(&scenario, &ExecOptions::default()).unwrap();
    let expected_cells = expected.sweep.as_ref().unwrap().cells.clone();

    for threads in [1usize, 2, 7] {
        let mut scenario = Scenario::parse(text).unwrap();
        scenario.threads = Some(threads);
        // Scope = stage index: hit the journal on stage 0 (its commit
        // record), the artifact rename on stage 0, the journal again on
        // stage 2 (the attack's commit, after every cell is checkpointed)
        // so the resume also exercises artifact replay of stages 0 and 1
        // and takes the cells from the checkpoint, and an injected *panic*
        // in the attack stage (contained by the stage fence as exit 1,
        // then resumed).
        for (fail, scope, action, want_code) in [
            ("journal.write", 0u64, FaultAction::Error, 4),
            ("artifact.rename", 0, FaultAction::Error, 4),
            ("journal.write", 2, FaultAction::Error, 4),
            ("pipeline.stage", 2, FaultAction::Panic, 1),
        ] {
            let runs = dir.join(format!("runs-{threads}-{fail}-{scope}"));
            let store = RunStore::create(&runs, &scenario.name, text, "s.toml", &[]).unwrap();
            let id = store.id().to_string();
            let guard = fault::install(FaultPlan::single(fail, Some(scope), action));
            let err = run_scenario_with(
                &scenario,
                &ExecOptions {
                    store: Some(store),
                    ..Default::default()
                },
            )
            .unwrap_err();
            drop(guard);
            assert_eq!(err.exit_code(), want_code, "{fail}@{scope}: {err}");
            if want_code == 4 {
                assert!(err.message().contains(fail), "{err}");
            }
            let resumed = run_scenario_with(
                &scenario,
                &ExecOptions {
                    store: Some(RunStore::open(&runs, &id).unwrap()),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                resumed.sweep.unwrap().cells,
                expected_cells,
                "{fail}@{scope} threads={threads}"
            );
            // The summary says how many cells came from the checkpoint;
            // everything else is the uninterrupted run's.
            let without_resumed = |summary: &str| -> String {
                summary
                    .lines()
                    .filter(|l| !l.starts_with("resumed "))
                    .map(|l| format!("{l}\n"))
                    .collect()
            };
            assert_eq!(
                without_resumed(&resumed.summary),
                expected.summary,
                "{fail}@{scope} threads={threads}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancelling a journaled run mid-sweep (the token fires once the first
/// checkpoint write lands) exits with the resumable class, and the resumed
/// run finishes to bit-identical cells — at thread counts 1, 2, and 7.
/// If the sweep wins the race and completes first, the results must be
/// identical anyway; both outcomes are asserted.
#[test]
fn mid_sweep_cancellation_exits_resumable_and_resumes_bit_identically() {
    use inet_suite::inet_model::pipeline::{run_scenario_with, ExecOptions, RunStore, Scenario};

    let _l = lock();
    let dir = std::env::temp_dir().join("inet_chaos_cancel_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let text = "[generator]\nmodel = \"ba\"\nn = 120\nseed = 9\n\
                [attack]\nstrategies = [\"random\", \"degree-recalc\"]\nreplicas = 2\nrecord = 1";
    let scenario = Scenario::parse(text).unwrap();
    let expected_cells = run_scenario_with(&scenario, &ExecOptions::default())
        .unwrap()
        .sweep
        .unwrap()
        .cells;

    for threads in [1usize, 2, 7] {
        let mut scenario = Scenario::parse(text).unwrap();
        scenario.threads = Some(threads);
        let runs = dir.join(format!("runs-{threads}"));
        let store = RunStore::create(&runs, &scenario.name, text, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let ckpt = store.path("attack.ckpt");
        let cancel = CancelToken::new();
        let watcher = {
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                for _ in 0..5000 {
                    if ckpt.exists() {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                cancel.cancel();
            })
        };
        let outcome = run_scenario_with(
            &scenario,
            &ExecOptions {
                cancel,
                store: Some(store),
            },
        );
        watcher.join().unwrap();
        match outcome {
            Err(e) => {
                assert_eq!(e.exit_code(), 6, "threads={threads}: {e}");
                assert!(e.message().contains(&format!("--resume {id}")), "{e}");
                let resumed = run_scenario_with(
                    &scenario,
                    &ExecOptions {
                        store: Some(RunStore::open(&runs, &id).unwrap()),
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    resumed.sweep.unwrap().cells,
                    expected_cells,
                    "threads={threads}"
                );
            }
            Ok(done) => {
                assert_eq!(
                    done.sweep.unwrap().cells,
                    expected_cells,
                    "threads={threads}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Telemetry is provably inert: an unlimited *panic* plan on the
/// `obs.record` failpoint (the gate in front of every span, counter, and
/// histogram recording site) must change no output bit anywhere. Pipeline
/// runs at thread counts 1, 2, and 7 produce summaries and sweep cells
/// identical to the clean run, and a served job still completes — a
/// panicking recorder never kills a job.
#[test]
fn panicking_telemetry_recorder_changes_nothing_and_kills_nothing() {
    use inet_suite::inet_model::pipeline::service::{
        encode_cmd, encode_submit, request, response_field, Service, ServiceConfig,
    };
    use inet_suite::inet_model::pipeline::{run_scenario_with, ExecOptions, RunStore, Scenario};
    use std::time::{Duration, Instant};

    let _l = lock();
    let dir = std::env::temp_dir().join("inet_chaos_obs_record");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let text = "[generator]\nmodel = \"ba\"\nn = 90\nseed = 5\n\
                [measure]\nmetrics = [\"degree\", \"giant\"]\n\
                [attack]\nstrategies = [\"random\", \"degree-recalc\"]\nreplicas = 2\nrecord = 2";
    let clean =
        run_scenario_with(&Scenario::parse(text).unwrap(), &ExecOptions::default()).unwrap();
    let clean_cells = clean.sweep.as_ref().unwrap().cells.clone();

    // Unlimited hits, every scope: every recording attempt panics.
    let plan = FaultPlan {
        specs: vec![FaultSpec {
            failpoint: "obs.record",
            scope: None,
            max_hits: 0,
            action: FaultAction::Panic,
        }],
    };
    for threads in [1usize, 2, 7] {
        let mut scenario = Scenario::parse(text).unwrap();
        scenario.threads = Some(threads);
        let runs = dir.join(format!("runs-{threads}"));
        let store = RunStore::create(&runs, &scenario.name, text, "s.toml", &[]).unwrap();
        let guard = fault::install(plan.clone());
        let stormed = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(store),
                ..Default::default()
            },
        )
        .unwrap();
        drop(guard);
        assert_eq!(stormed.summary, clean.summary, "threads={threads}");
        assert_eq!(
            stormed.sweep.unwrap().cells,
            clean_cells,
            "threads={threads}"
        );
    }

    // A served job survives a panicking recorder end to end.
    const TINY: &str = "[generator]\nmodel = \"ba\"\nn = 60\nseed = 7\n\
                        [measure]\nmetrics = [\"degree\"]\n";
    let reference = inet_suite::inet_model::pipeline::run_scenario(&Scenario::parse(TINY).unwrap())
        .unwrap()
        .summary;
    let service = Service::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        runs_dir: dir.join("runs-served"),
        read_timeout_ms: 1_000,
        quiet: true,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || service.run().unwrap());
    let guard = fault::install(plan);
    let resp = request(&addr, &encode_submit(TINY, "t.toml", &[], None), 5_000).unwrap();
    assert_eq!(response_field(&resp, "status").as_deref(), Some("accepted"));
    let id = response_field(&resp, "job").unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let summary = loop {
        assert!(
            Instant::now() < deadline,
            "job {id} never completed under the obs.record panic plan"
        );
        let resp = request(&addr, &encode_cmd("result", Some(&id)), 5_000).unwrap();
        match response_field(&resp, "status").unwrap_or_default().as_str() {
            "done" => break response_field(&resp, "summary").unwrap(),
            "queued" | "running" | "error" | "" => {}
            other => panic!("job {id} ended {other}: {resp}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(summary, reference, "served job must match the clean run");
    drop(guard);
    request(&addr, &encode_cmd("drain", None), 5_000).unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serving-layer storm: 24 seeded single-spec plans across the three
/// `service.*` failpoints (connection handling, admission, worker
/// execution) with every action (error, panic, delay). The no-job-lost
/// invariant under fire:
///
/// * every submission receives a structured response — accepted,
///   rejected, or error; never a silent drop or an uncaught panic;
/// * every *accepted* job runs to completion with a summary identical to
///   a fault-free run (worker faults retry, admission faults reject
///   up front, connection faults answer with structured errors).
#[test]
fn service_fault_storm_never_loses_an_accepted_job() {
    use inet_suite::inet_model::pipeline::service::{
        encode_cmd, encode_submit, request, response_field, Service, ServiceConfig,
    };
    use inet_suite::inet_model::pipeline::{run_scenario, Scenario};
    use std::time::{Duration, Instant};

    let _l = lock();
    const TINY: &str = "[generator]\nmodel = \"ba\"\nn = 60\nseed = 7\n\
                        [measure]\nmetrics = [\"degree\"]\n";
    // The fault-free reference, computed before any plan is installed.
    let reference = run_scenario(&Scenario::parse(TINY).unwrap())
        .unwrap()
        .summary;

    let failpoints = ["service.accept", "service.queue", "service.worker"];
    let actions = [
        FaultAction::Error,
        FaultAction::Panic,
        FaultAction::Delay(3),
    ];
    let dir = std::env::temp_dir().join("inet_chaos_service_storm");
    let _ = std::fs::remove_dir_all(&dir);
    for seed in 0..24u64 {
        let spec = FaultSpec {
            failpoint: failpoints[(seed % 3) as usize],
            scope: Some((seed / 3) % 2),
            max_hits: 1 + seed % 2,
            action: actions[((seed / 6) % 3) as usize],
        };
        let plan = FaultPlan { specs: vec![spec] };
        let service = Service::bind(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 8,
            runs_dir: dir.join(format!("runs-{seed}")),
            read_timeout_ms: 1_000,
            quiet: true,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || service.run().unwrap());

        // The plan goes live only once the daemon is up, so every hit
        // lands on the service.* sites the storm is aimed at.
        let guard = fault::install(plan.clone());
        let mut accepted = Vec::new();
        for j in 0..3 {
            // The invariant under test: the transport never fails — even
            // a faulted connection answers with a structured line.
            let resp = request(&addr, &encode_submit(TINY, "t.toml", &[], None), 5_000)
                .unwrap_or_else(|e| panic!("seed {seed}: submission {j} got no response: {e}"));
            let status = response_field(&resp, "status").unwrap_or_default();
            match status.as_str() {
                "accepted" => accepted.push(response_field(&resp, "job").unwrap()),
                "rejected" | "error" => {
                    assert!(
                        response_field(&resp, "error").is_some(),
                        "seed {seed}: rejection without a reason: {resp}"
                    );
                }
                other => panic!("seed {seed}: submission {j} got status {other:?}: {resp}"),
            }
        }
        // Every accepted job must finish — worker faults retry — and
        // match the fault-free reference bit for bit.
        for id in &accepted {
            let deadline = Instant::now() + Duration::from_secs(60);
            let summary = loop {
                assert!(
                    Instant::now() < deadline,
                    "seed {seed}: job {id} never completed under plan {plan:?}"
                );
                // Status polls share the faulted accept path; transient
                // structured errors are part of the storm, retry them.
                if let Ok(resp) = request(&addr, &encode_cmd("result", Some(id)), 5_000) {
                    match response_field(&resp, "status").unwrap_or_default().as_str() {
                        "done" => break response_field(&resp, "summary").unwrap(),
                        "queued" | "running" | "error" | "" => {}
                        other => panic!("seed {seed}: job {id} ended {other}: {resp}"),
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            assert_eq!(
                summary, reference,
                "seed {seed}: accepted job must match the fault-free run"
            );
        }
        drop(guard);
        request(&addr, &encode_cmd("drain", None), 5_000).unwrap();
        handle.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

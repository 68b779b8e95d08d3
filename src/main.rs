//! `inet` — command-line front end of the toolkit.
//!
//! ```text
//! inet run      <scenario.toml>         # execute a declarative scenario file
//! inet run      --resume <run-id>       # resume an interrupted journaled run
//! inet runs     list                    # list journaled runs and their progress
//! inet generate <model> <n> [seed]      # grow a topology, write edge list to stdout
//! inet measure  <edge-list-file|->      # headline report of a topology
//! inet validate <edge-list-file|->      # compare against the 2001 AS-map targets
//! inet tiers    <edge-list-file|->      # backbone/transit/fringe stratification
//! inet trace    [months]                # synthetic growth trace + fitted rates
//! inet trace    <run-id>                # span tree of a journaled run
//! inet attack   <model|file|->          # percolation / targeted-attack sweep
//! inet list-models                      # the model registry: params + defaults
//! inet serve    [addr]                  # bounded-queue scenario-job daemon
//! inet submit   <scenario.toml>         # submit a job to a running daemon
//! inet job      <status|result|...>     # query / control daemon jobs
//! ```
//!
//! `run` journals by default: each invocation gets a `runs/<run-id>/`
//! directory (override with `--runs-dir`, disable with `--no-journal`)
//! holding a content-hashed manifest with the scenario text, an
//! append-only stage journal, and checksummed per-stage artifacts. SIGINT cancels
//! cooperatively — in-flight sweep cells checkpoint, the journal stays
//! consistent, the exact resume command is printed, and the process exits
//! with code 6. A second SIGINT aborts immediately.
//!
//! The CLI is a thin shell over `inet-pipeline`: `run` executes a TOML
//! scenario directly (`--set key=value` overrides any setting), and
//! `generate`/`measure`/`attack` build tiny scenarios in memory, so every
//! command goes through the same staged source → measure → attack → report
//! engine. Model dispatch happens exactly once, in the generator registry —
//! `list-models` prints its names, parameters, and defaults.
//!
//! `attack` removes nodes under one or more strategies (`--strategy
//! random,degree-recalc,...`), reports the critical fraction `f_c` and the
//! giant-component response `S(f)` per cell, and with `--resume <file>`
//! checkpoints completed cells so an interrupted sweep picks up where it
//! stopped.
//!
//! `run`, `measure`, `validate` and `attack` accept `--threads N` (anywhere
//! on the command line) to set the worker-thread count of the parallel
//! kernels; the default is the machine's available parallelism. Results are
//! bit-identical for any thread count.
//!
//! Edge lists use the workspace's `# nodes N` + `u v w` format; `-` reads
//! stdin.

use inet_suite::inet_model::generators::{model_names, registry, ParamValue};
use inet_suite::inet_model::growth::fit::FittedRates;
use inet_suite::inet_model::metrics::tiers::TierDecomposition;
use inet_suite::inet_model::pipeline::run::{check_graph, load_graph};
use inet_suite::inet_model::pipeline::runstore::DEFAULT_RUNS_DIR;
use inet_suite::inet_model::pipeline::service::{self, ServeExit, Service, ServiceConfig};
use inet_suite::inet_model::pipeline::{
    report, run_scenario_with, scan_runs, AttackSpec, ExecOptions, MeasureSpec, PipelineError,
    RunStore, Scenario, Source, Telemetry, TELEMETRY_FILE,
};
use inet_suite::inet_model::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;

/// Set by the SIGINT handler; every [`CancelToken`] handed to the pipeline
/// is linked to it, so one Ctrl-C cancels the whole run cooperatively.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use std::io::Read as _;
    use std::net::SocketAddr;
    use std::os::fd::IntoRawFd as _;
    use std::sync::atomic::{AtomicI32, Ordering};

    use super::service;

    // Minimal libc surface, declared by hand so the binary stays
    // dependency-free: installing the handlers needs nothing more.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn _exit(code: i32) -> !;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Write end of `inet serve`'s drain pipe; -1 in every other command.
    static DRAIN_PIPE: AtomicI32 = AtomicI32::new(-1);

    /// Asks the drain bridge for a drain. `write(2)` is async-signal-safe,
    /// and the bridge reads each byte as it arrives, so the write does not
    /// block on a full pipe.
    fn request_drain() {
        let fd = DRAIN_PIPE.load(Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: `fd` is the pipe's write end, which is never closed,
            // and the buffer is one live byte.
            unsafe { write(fd, [1u8].as_ptr(), 1) };
        }
    }

    extern "C" fn on_sigint(_: i32) {
        if super::INTERRUPTED.swap(true, Ordering::SeqCst) {
            // Second Ctrl-C: the user means it — skip the cooperative
            // unwind and die the way the default handler would.
            unsafe { _exit(130) }
        }
        request_drain();
    }

    extern "C" fn on_sigterm(_: i32) {
        // SIGTERM never escalates: service managers may deliver it more
        // than once while the drain runs its course.
        super::INTERRUPTED.store(true, Ordering::SeqCst);
        request_drain();
    }

    /// Installs the cooperative SIGINT handler.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    /// Serve mode: SIGTERM and the first SIGINT become the protocol's
    /// `drain` command. The handlers write one byte to a pipe; a bridge
    /// thread blocks on its read end and sends `{"cmd":"drain"}` to the
    /// daemon at `addr` for each byte, so SIGTERM is the drain command
    /// itself. The write end is never closed, so the read end stays open
    /// and a repeated signal only sends one more, harmless, drain. The
    /// bridge is never joined: it blocks on the pipe for the life of the
    /// process. Batch commands keep the default die-on-TERM behavior.
    pub fn install_drain(addr: SocketAddr, timeout_ms: u64) -> std::io::Result<()> {
        let (mut signals, writer) = std::io::pipe()?;
        let addr = addr.to_string();
        let request = service::encode_cmd("drain", None);
        std::thread::Builder::new()
            .name("inet-serve-signals".to_string())
            .spawn(move || {
                let mut byte = [0u8; 1];
                while let Ok(1) = signals.read(&mut byte) {
                    // Refused once the daemon has stopped listening.
                    let _ = service::request(&addr, &request, timeout_ms);
                }
            })?;
        DRAIN_PIPE.store(writer.into_raw_fd(), Ordering::SeqCst);
        // SAFETY: `on_sigterm` touches only atomics and `write(2)`, all
        // async-signal-safe.
        unsafe { signal(SIGTERM, on_sigterm) };
        // A first Ctrl-C that landed before the pipe existed still drains.
        if super::INTERRUPTED.load(Ordering::SeqCst) {
            request_drain();
        }
        Ok(())
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn install_drain(_: std::net::SocketAddr, _: u64) -> std::io::Result<()> {
        Ok(())
    }
}

/// Executes a scenario with the SIGINT-linked cancel token (and, for
/// journaled `inet run`, the run store).
fn exec(
    scenario: &Scenario,
    store: Option<RunStore>,
) -> Result<inet_suite::inet_model::pipeline::RunOutcome, PipelineError> {
    run_scenario_with(
        scenario,
        &ExecOptions {
            cancel: CancelToken::linked(&INTERRUPTED),
            store,
        },
    )
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        /// Scenario file; `None` when resuming.
        path: Option<String>,
        /// Run id to resume (`--resume`); scenario + overrides replay from
        /// the run's manifest.
        resume: Option<String>,
        sets: Vec<String>,
        threads: Option<usize>,
        check_invariants: bool,
        /// Journal into the run store (`false` under `--no-journal`).
        journal: bool,
        /// Run-store root (`--runs-dir`), default `runs/`.
        runs_dir: Option<String>,
    },
    /// `inet runs list` — the journaled runs and their progress.
    Runs {
        runs_dir: Option<String>,
        /// `--stats`: wall time and stage count per run from the
        /// telemetry log (dash for runs without one).
        stats: bool,
    },
    Generate {
        model: String,
        n: usize,
        seed: u64,
        check_invariants: bool,
    },
    Measure {
        path: String,
        threads: usize,
        check_invariants: bool,
        deadline_ms: Option<u64>,
    },
    Validate {
        path: String,
        threads: usize,
        check_invariants: bool,
    },
    Tiers {
        path: String,
        check_invariants: bool,
    },
    Trace {
        months: usize,
    },
    /// `inet trace <run-id>` — the stored span tree of a journaled run.
    TraceRun {
        run_id: String,
        runs_dir: Option<String>,
    },
    Attack(AttackArgs),
    ListModels,
    /// `inet serve [addr]` — the bounded-queue scenario-job daemon.
    Serve(ServeArgs),
    /// `inet submit <scenario.toml>` — submit a job to a running daemon.
    Submit {
        path: String,
        addr: String,
        sets: Vec<String>,
        deadline_ms: Option<u64>,
    },
    /// `inet job <action> [id]` — query / control daemon jobs.
    Job {
        action: String,
        id: Option<String>,
        addr: String,
    },
    Help,
}

/// Arguments of the `serve` subcommand.
#[derive(Debug, PartialEq)]
struct ServeArgs {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    addr: String,
    /// Worker-pool size.
    workers: usize,
    /// Bounded-queue capacity; submissions beyond it are load-shed.
    queue: usize,
    /// Run-store root shared by daemon incarnations.
    runs_dir: Option<String>,
    /// Default per-job deadline (`--deadline-ms`).
    deadline_ms: Option<u64>,
    /// Graceful-drain budget before in-flight jobs are cancelled.
    drain_timeout_ms: u64,
    /// Per-connection socket read and write timeout.
    read_timeout_ms: u64,
    /// Oversized-request rejection threshold.
    max_request_bytes: usize,
    /// `--threads` forwarded to jobs that do not pin their own.
    job_threads: Option<usize>,
}

/// Arguments of the `attack` subcommand.
#[derive(Debug, PartialEq)]
struct AttackArgs {
    /// Model name, edge-list path, or `-` for stdin.
    source: String,
    /// Nodes when `source` is a model.
    n: usize,
    /// Base seed: model generation and replica streams derive from it.
    seed: u64,
    /// Removal strategies, in report order.
    strategies: Vec<Strategy>,
    /// Replicas per stochastic strategy.
    replicas: usize,
    /// Curve recording stride (0 = auto: ~200 points per curve).
    record: usize,
    /// Checkpoint file for resumable sweeps.
    resume: Option<String>,
    /// Directory for per-cell curve CSVs.
    curves: Option<String>,
    /// Worker threads.
    threads: usize,
    /// Run the full `O(E log d)` graph-invariant check on the input.
    check_invariants: bool,
}

/// One recognized option: flag name, value metavar (`None` = bare flag),
/// and whether it may be given more than once.
#[derive(Debug, Clone, Copy)]
struct OptSpec {
    name: &'static str,
    metavar: Option<&'static str>,
    repeatable: bool,
}

const fn flag(name: &'static str) -> OptSpec {
    OptSpec {
        name,
        metavar: None,
        repeatable: false,
    }
}

const fn opt(name: &'static str, metavar: &'static str) -> OptSpec {
    OptSpec {
        name,
        metavar: Some(metavar),
        repeatable: false,
    }
}

const fn opt_many(name: &'static str, metavar: &'static str) -> OptSpec {
    OptSpec {
        name,
        metavar: Some(metavar),
        repeatable: true,
    }
}

/// Options recognized in any position of any command line.
const GLOBAL_OPTS: &[OptSpec] = &[
    opt("--threads", "<N>"),
    flag("--check-invariants"),
    opt("--deadline-ms", "<ms>"),
    opt_many("--set", "<key=value>"),
];

/// Options of the `run` subcommand.
const RUN_OPTS: &[OptSpec] = &[
    opt("--resume", "<run-id>"),
    flag("--no-journal"),
    opt("--runs-dir", "<dir>"),
];

/// Options of the `runs` subcommand.
const RUNS_OPTS: &[OptSpec] = &[opt("--runs-dir", "<dir>"), flag("--stats")];

/// Options of the `trace <run-id>` form.
const TRACE_OPTS: &[OptSpec] = &[opt("--runs-dir", "<dir>")];

/// Options of the `serve` subcommand.
const SERVE_OPTS: &[OptSpec] = &[
    opt("--workers", "<N>"),
    opt("--queue", "<N>"),
    opt("--runs-dir", "<dir>"),
    opt("--drain-timeout-ms", "<ms>"),
    opt("--read-timeout-ms", "<ms>"),
    opt("--max-request-bytes", "<B>"),
];

/// Options of the `submit` and `job` subcommands.
const CLIENT_OPTS: &[OptSpec] = &[opt("--addr", "<host:port>")];

/// Default daemon address shared by `serve`, `submit`, and `job`.
const DEFAULT_ADDR: &str = "127.0.0.1:4590";

/// Client-side socket timeout for `submit`/`job` requests.
const CLIENT_TIMEOUT_MS: u64 = 10_000;

/// Options of the `attack` subcommand.
const ATTACK_OPTS: &[OptSpec] = &[
    opt("--n", "<N>"),
    opt("--seed", "<S>"),
    opt("--strategy", "<a,b,...>"),
    opt("--replicas", "<R>"),
    opt("--record", "<K>"),
    opt("--resume", "<file>"),
    opt("--curves", "<dir>"),
];

/// The scan result: extracted option values plus the remaining arguments
/// in their original order. Bare flags record an empty string per hit.
#[derive(Debug, Default)]
struct Scanned {
    rest: Vec<String>,
    seen: BTreeMap<&'static str, Vec<String>>,
}

impl Scanned {
    fn flag(&self, name: &str) -> bool {
        self.seen.contains_key(name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.seen
            .get(name)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    fn values(&self, name: &str) -> Vec<String> {
        self.seen.get(name).cloned().unwrap_or_default()
    }

    fn integer<T: std::str::FromStr>(
        &self,
        name: &str,
        metavar: &str,
    ) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("{name}: {metavar} must be an integer")),
        }
    }
}

/// The table-driven option scanner every subcommand shares: pulls the
/// listed options out of `args` (any position), rejects repeats of
/// non-repeatable flags and missing values, and leaves everything it does
/// not recognize in `rest` for positional parsing.
fn scan_options(args: &[String], specs: &[OptSpec]) -> Result<Scanned, String> {
    let mut out = Scanned::default();
    let mut i = 0;
    while i < args.len() {
        let Some(spec) = specs.iter().find(|s| s.name == args[i]) else {
            out.rest.push(args[i].clone());
            i += 1;
            continue;
        };
        let entry = out.seen.entry(spec.name).or_default();
        if !spec.repeatable && !entry.is_empty() {
            return Err(format!("{}: given more than once", spec.name));
        }
        match spec.metavar {
            Some(metavar) => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{}: missing {metavar}", spec.name))?;
                entry.push(v.clone());
                i += 2;
            }
            None => {
                entry.push(String::new());
                i += 1;
            }
        }
    }
    Ok(out)
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let scanned = scan_options(args, GLOBAL_OPTS)?;
    let threads_flag: Option<usize> = scanned.integer("--threads", "<N>")?;
    if threads_flag == Some(0) {
        return Err("--threads: <N> must be at least 1".into());
    }
    let threads =
        threads_flag.unwrap_or_else(inet_suite::inet_model::exec::parallel::default_threads);
    let check_invariants = scanned.flag("--check-invariants");
    let deadline_ms: Option<u64> = scanned.integer("--deadline-ms", "<ms>")?;
    let sets = scanned.values("--set");
    let args = scanned.rest;
    let first = args.first().map(String::as_str);
    if deadline_ms.is_some() && !matches!(first, Some("measure" | "serve" | "submit")) {
        return Err("--deadline-ms only applies to 'measure', 'serve', and 'submit'".into());
    }
    if !sets.is_empty() && !matches!(first, Some("run" | "submit")) {
        return Err("--set only applies to 'run' and 'submit'".into());
    }
    match first {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("run") => {
            let scanned = scan_options(&args[1..], RUN_OPTS).map_err(|e| format!("run: {e}"))?;
            let resume = scanned.value("--resume").map(str::to_string);
            let runs_dir = scanned.value("--runs-dir").map(str::to_string);
            let mut path: Option<String> = None;
            for arg in &scanned.rest {
                if arg.starts_with("--") {
                    return Err(format!("run: unknown option '{arg}'"));
                }
                if path.replace(arg.clone()).is_some() {
                    return Err("run: more than one <scenario.toml> given".into());
                }
            }
            if resume.is_some() {
                if path.is_some() {
                    return Err(
                        "run: give either <scenario.toml> or --resume <run-id>, not both".into(),
                    );
                }
                if !sets.is_empty() {
                    return Err(
                        "run: --set cannot combine with --resume (overrides replay from the \
                         run's manifest)"
                            .into(),
                    );
                }
                if scanned.flag("--no-journal") {
                    return Err("run: --no-journal cannot combine with --resume".into());
                }
            } else if path.is_none() {
                return Err("run: missing <scenario.toml>".into());
            }
            Ok(Command::Run {
                path,
                resume,
                sets,
                threads: threads_flag,
                check_invariants,
                journal: !scanned.flag("--no-journal"),
                runs_dir,
            })
        }
        Some("runs") => {
            let scanned = scan_options(&args[1..], RUNS_OPTS).map_err(|e| format!("runs: {e}"))?;
            if scanned.rest.len() != 1 || scanned.rest[0] != "list" {
                return Err("runs: usage: inet runs list [--runs-dir <dir>] [--stats]".into());
            }
            Ok(Command::Runs {
                runs_dir: scanned.value("--runs-dir").map(str::to_string),
                stats: scanned.flag("--stats"),
            })
        }
        Some("list-models") => Ok(Command::ListModels),
        Some("generate") => {
            let model = args.get(1).ok_or("generate: missing <model>")?.clone();
            let n = args
                .get(2)
                .ok_or("generate: missing <n>")?
                .parse::<usize>()
                .map_err(|_| "generate: <n> must be an integer".to_string())?;
            let seed = match args.get(3) {
                Some(s) => s
                    .parse::<u64>()
                    .map_err(|_| "generate: [seed] must be an integer".to_string())?,
                None => 42,
            };
            if !(8..=500_000).contains(&n) {
                return Err("generate: <n> must lie in 8..=500000".into());
            }
            Ok(Command::Generate {
                model,
                n,
                seed,
                check_invariants,
            })
        }
        Some("measure") => Ok(Command::Measure {
            path: args.get(1).ok_or("measure: missing <file>")?.clone(),
            threads,
            check_invariants,
            deadline_ms,
        }),
        Some("validate") => Ok(Command::Validate {
            path: args.get(1).ok_or("validate: missing <file>")?.clone(),
            threads,
            check_invariants,
        }),
        Some("tiers") => Ok(Command::Tiers {
            path: args.get(1).ok_or("tiers: missing <file>")?.clone(),
            check_invariants,
        }),
        Some("attack") => parse_attack(&args[1..], threads, check_invariants).map(Command::Attack),
        Some("serve") => {
            let scanned =
                scan_options(&args[1..], SERVE_OPTS).map_err(|e| format!("serve: {e}"))?;
            let mut addr: Option<String> = None;
            for arg in &scanned.rest {
                if arg.starts_with("--") {
                    return Err(format!("serve: unknown option '{arg}'"));
                }
                if addr.replace(arg.clone()).is_some() {
                    return Err("serve: more than one [addr] given".into());
                }
            }
            let serve_err = |e: String| format!("serve: {e}");
            let workers = scanned
                .integer::<usize>("--workers", "<N>")
                .map_err(serve_err)?
                .unwrap_or(2);
            if !(1..=256).contains(&workers) {
                return Err("serve: --workers must lie in 1..=256".into());
            }
            let queue = scanned
                .integer::<usize>("--queue", "<N>")
                .map_err(serve_err)?
                .unwrap_or(32);
            if !(1..=100_000).contains(&queue) {
                return Err("serve: --queue must lie in 1..=100000".into());
            }
            let drain_timeout_ms = scanned
                .integer::<u64>("--drain-timeout-ms", "<ms>")
                .map_err(serve_err)?
                .unwrap_or(20_000);
            let read_timeout_ms = scanned
                .integer::<u64>("--read-timeout-ms", "<ms>")
                .map_err(serve_err)?
                .unwrap_or(5_000);
            if read_timeout_ms == 0 {
                return Err("serve: --read-timeout-ms must be at least 1".into());
            }
            let max_request_bytes = scanned
                .integer::<usize>("--max-request-bytes", "<B>")
                .map_err(serve_err)?
                .unwrap_or(1 << 20);
            if max_request_bytes < 64 {
                return Err("serve: --max-request-bytes must be at least 64".into());
            }
            Ok(Command::Serve(ServeArgs {
                addr: addr.unwrap_or_else(|| DEFAULT_ADDR.to_string()),
                workers,
                queue,
                runs_dir: scanned.value("--runs-dir").map(str::to_string),
                deadline_ms,
                drain_timeout_ms,
                read_timeout_ms,
                max_request_bytes,
                job_threads: threads_flag,
            }))
        }
        Some("submit") => {
            let scanned =
                scan_options(&args[1..], CLIENT_OPTS).map_err(|e| format!("submit: {e}"))?;
            let mut path: Option<String> = None;
            for arg in &scanned.rest {
                if arg.starts_with("--") {
                    return Err(format!("submit: unknown option '{arg}'"));
                }
                if path.replace(arg.clone()).is_some() {
                    return Err("submit: more than one <scenario.toml> given".into());
                }
            }
            Ok(Command::Submit {
                path: path.ok_or("submit: missing <scenario.toml>")?,
                addr: scanned.value("--addr").unwrap_or(DEFAULT_ADDR).to_string(),
                sets,
                deadline_ms,
            })
        }
        Some("job") => {
            let scanned = scan_options(&args[1..], CLIENT_OPTS).map_err(|e| format!("job: {e}"))?;
            for arg in &scanned.rest {
                if arg.starts_with("--") {
                    return Err(format!("job: unknown option '{arg}'"));
                }
            }
            let action = scanned
                .rest
                .first()
                .ok_or(
                    "job: usage: inet job <status|result|cancel> <id> | \
                     inet job <stats|metrics|drain>",
                )?
                .clone();
            let id = scanned.rest.get(1).cloned();
            if scanned.rest.len() > 2 {
                return Err("job: too many arguments".into());
            }
            match action.as_str() {
                "status" | "result" | "cancel" => {
                    if id.is_none() {
                        return Err(format!("job: {action} needs a <job-id>"));
                    }
                }
                "stats" | "metrics" | "drain" => {
                    if id.is_some() {
                        return Err(format!("job: {action} takes no <job-id>"));
                    }
                }
                other => {
                    return Err(format!(
                        "job: unknown action '{other}' (expected \
                         status/result/cancel/stats/metrics/drain)"
                    ))
                }
            }
            Ok(Command::Job {
                action,
                id,
                addr: scanned.value("--addr").unwrap_or(DEFAULT_ADDR).to_string(),
            })
        }
        Some("trace") => {
            let scanned =
                scan_options(&args[1..], TRACE_OPTS).map_err(|e| format!("trace: {e}"))?;
            let mut target: Option<String> = None;
            for arg in &scanned.rest {
                if arg.starts_with("--") {
                    return Err(format!("trace: unknown option '{arg}'"));
                }
                if target.replace(arg.clone()).is_some() {
                    return Err("trace: more than one argument given".into());
                }
            }
            let runs_dir = scanned.value("--runs-dir").map(str::to_string);
            // An integer is the legacy synthetic growth trace over that
            // many months; anything else is a journaled run id whose
            // stored span tree prints.
            match target {
                Some(arg) => match arg.parse::<usize>() {
                    Ok(months) => {
                        if runs_dir.is_some() {
                            return Err("trace: --runs-dir only applies to a <run-id>".into());
                        }
                        if !(2..=2000).contains(&months) {
                            return Err("trace: [months] must lie in 2..=2000".into());
                        }
                        Ok(Command::Trace { months })
                    }
                    Err(_) => Ok(Command::TraceRun {
                        run_id: arg,
                        runs_dir,
                    }),
                },
                None => {
                    if runs_dir.is_some() {
                        return Err("trace: --runs-dir only applies to a <run-id>".into());
                    }
                    Ok(Command::Trace { months: 55 })
                }
            }
        }
        Some(other) => Err(format!("unknown command '{other}' (try 'inet help')")),
    }
}

/// Parses the `attack` arguments (everything after the subcommand word;
/// the global options were already extracted).
fn parse_attack(
    args: &[String],
    threads: usize,
    check_invariants: bool,
) -> Result<AttackArgs, String> {
    let scanned = scan_options(args, ATTACK_OPTS).map_err(|e| format!("attack: {e}"))?;
    let mut source: Option<String> = None;
    for arg in &scanned.rest {
        if arg.starts_with("--") {
            return Err(format!("attack: unknown option '{arg}'"));
        }
        if source.replace(arg.clone()).is_some() {
            return Err("attack: more than one <model|file> given".into());
        }
    }
    let attack_err = |e: String| format!("attack: {e}");
    let n = scanned
        .integer::<usize>("--n", "<N>")
        .map_err(attack_err)?
        .unwrap_or(1000);
    if !(8..=500_000).contains(&n) {
        return Err("attack: --n must lie in 8..=500000".into());
    }
    let seed = scanned
        .integer::<u64>("--seed", "<S>")
        .map_err(attack_err)?
        .unwrap_or(42);
    let strategies = match scanned.value("--strategy") {
        None => vec![Strategy::Random, Strategy::Degree { recalc: false }],
        Some(list) => {
            let parsed = list
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| Strategy::parse(s.trim()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(attack_err)?;
            if parsed.is_empty() {
                return Err("attack: --strategy needs at least one strategy".into());
            }
            parsed
        }
    };
    let replicas = scanned
        .integer::<usize>("--replicas", "<R>")
        .map_err(attack_err)?
        .unwrap_or(4);
    if !(1..=10_000).contains(&replicas) {
        return Err("attack: --replicas must lie in 1..=10000".into());
    }
    let record = scanned
        .integer::<usize>("--record", "<K>")
        .map_err(attack_err)?
        .unwrap_or(0);
    Ok(AttackArgs {
        source: source.ok_or("attack: missing <model|file|->")?,
        n,
        seed,
        strategies,
        replicas,
        record,
        resume: scanned.value("--resume").map(str::to_string),
        curves: scanned.value("--curves").map(str::to_string),
        threads,
        check_invariants,
    })
}

fn giant(g: &MultiGraph) -> Csr {
    inet_suite::inet_model::graph::traversal::giant_component(&g.to_csr()).0
}

/// The `--help` text. Model names come from the registry so the listing
/// can never drift from what `generate`/`attack` accept.
fn help_text() -> String {
    format!(
        "inet — Internet topology modeling toolkit\n\n\
         usage:\n  \
         inet run      <scenario.toml>      execute a declarative scenario file\n  \
         inet run      --resume <run-id>    resume an interrupted journaled run\n  \
         inet runs     list [--stats]      journaled runs and their progress\n  \
         inet generate <model> <n> [seed]   grow a topology (edge list on stdout)\n  \
         inet measure  <file|->             headline report\n  \
         inet validate <file|->             compare vs the 2001 AS-map targets\n  \
         inet tiers    <file|->             backbone/transit/fringe split\n  \
         inet trace    [months]             synthetic growth trace + rate fits\n  \
         inet trace    <run-id>             span tree of a journaled run\n  \
         inet attack   <model|file|->       percolation / targeted-attack sweep\n  \
         inet list-models                   model registry: parameters + defaults\n  \
         inet serve    [addr]               scenario-job daemon (default {DEFAULT_ADDR})\n  \
         inet submit   <scenario.toml>      submit a job; prints the job id\n  \
         inet job      <action> [id]        status/result/cancel <id>;\n  \
         \u{20}                                  stats/metrics/drain\n\n\
         run options:\n  \
         --set <key=value>                  override a scenario setting (repeatable);\n  \
         \u{20}                                  bare keys tune [generator] parameters\n  \
         --resume <run-id>                  resume from the first uncommitted stage\n  \
         --no-journal                       skip the run store (no resume possible)\n  \
         --runs-dir <dir>                   run-store root (default: runs/)\n\n\
         attack options:\n  \
         --strategy <a,b,...>               random degree degree-recalc kcore\n  \
         \u{20}                                  kcore-recalc betweenness betweenness-recalc\n  \
         --n <N> --seed <S>                 model size / base seed\n  \
         --replicas <R>                     replicas per stochastic strategy\n  \
         --record <K>                       curve point every K removals (0 = auto)\n  \
         --resume <file>                    checkpoint: resume interrupted sweeps\n  \
         --curves <dir>                     write per-cell curve CSVs\n\n\
         serve options:\n  \
         --workers <N> --queue <N>          worker pool size / bounded-queue capacity\n  \
         --runs-dir <dir>                   job journal root (shared across restarts)\n  \
         --deadline-ms <ms>                 default per-job deadline\n  \
         --drain-timeout-ms <ms>            drain budget before in-flight jobs cancel\n  \
         --read-timeout-ms <ms>             per-connection socket read/write timeout\n  \
         --max-request-bytes <B>            oversized-request rejection threshold\n  \
         --addr <host:port>                 submit/job: daemon address\n\n\
         options:\n  \
         --threads <N>                      worker threads (run/measure/validate/attack)\n  \
         \u{20}                                  (default: available parallelism;\n  \
         \u{20}                                  results are identical for any N)\n  \
         --check-invariants                 full graph-invariant check on the input\n  \
         --deadline-ms <ms>                 measure: flag kernels that overrun <ms>\n\n\
         exit codes: 0 ok, 1 other, 2 usage, 3 model parameters, 4 data/io,\n\
         \u{20}           5 incompatible checkpoint, 6 interrupted (resumable)\n\
         serve:      0 clean drain (SIGTERM/first ^C/'job drain'), 6 drain timeout\n\
         \u{20}           (in-flight jobs checkpointed, resume on restart), 130 second ^C\n\n\
         models: {}",
        model_names().join(" ")
    )
}

/// The `list-models` listing: every registered model with its parameter
/// schema, defaults, and one-line docs.
fn list_models_text() -> String {
    let mut out = String::new();
    for spec in registry() {
        let _ = writeln!(out, "{} — {}", spec.name, spec.summary);
        for p in &spec.schema {
            let _ = writeln!(
                out,
                "    {:<22} = {:<12} {}",
                p.key,
                p.default.to_string(),
                p.doc
            );
        }
    }
    out
}

fn run(cmd: Command) -> Result<(), PipelineError> {
    match cmd {
        Command::Help => {
            println!("{}", help_text());
            Ok(())
        }
        Command::ListModels => {
            print!("{}", list_models_text());
            Ok(())
        }
        Command::Run {
            path,
            resume,
            sets,
            threads,
            check_invariants,
            journal,
            runs_dir,
        } => {
            let root = std::path::PathBuf::from(runs_dir.as_deref().unwrap_or(DEFAULT_RUNS_DIR));
            let (mut scenario, store) = if let Some(id) = &resume {
                let store = RunStore::open(&root, id)?;
                let scenario =
                    Scenario::parse_with_overrides(store.scenario_text(), store.overrides())
                        .map_err(|e| match e {
                            PipelineError::Scenario(m) => {
                                PipelineError::Scenario(format!("run '{id}': stored scenario: {m}"))
                            }
                            other => other,
                        })?;
                eprintln!("# resuming run {id}");
                (scenario, Some(store))
            } else {
                let path = path.as_deref().unwrap_or_default();
                // One read serves both parsing and the journaled copy, so
                // the stored scenario can never diverge from what ran.
                let text = std::fs::read_to_string(path).map_err(|e| {
                    PipelineError::Data(format!("cannot read scenario '{path}': {e}"))
                })?;
                let scenario =
                    Scenario::parse_with_overrides(&text, &sets).map_err(|e| match e {
                        PipelineError::Scenario(m) => {
                            PipelineError::Scenario(format!("{path}: {m}"))
                        }
                        other => other,
                    })?;
                let store = if journal {
                    Some(RunStore::create(&root, &scenario.name, &text, path, &sets)?)
                } else {
                    None
                };
                (scenario, store)
            };
            if let Some(t) = threads {
                scenario.threads = Some(t);
            }
            if check_invariants {
                scenario.check_invariants = true;
            }
            let outcome = exec(&scenario, store)?;
            print!("{}", outcome.summary);
            for w in &outcome.warnings {
                eprintln!("warning: {w}");
            }
            for sink in &outcome.written {
                eprintln!("# {sink}");
            }
            if let Some(id) = &outcome.run_id {
                eprintln!("# run {id} complete");
            }
            Ok(())
        }
        Command::Runs { runs_dir, stats } => {
            let root = std::path::PathBuf::from(runs_dir.as_deref().unwrap_or(DEFAULT_RUNS_DIR));
            // Corrupted or partial run directories must not abort the
            // listing — each gets a one-line warning, the rest still print.
            let scan = scan_runs(&root);
            for skipped in &scan.skipped {
                eprintln!("warning: skipping run {skipped}");
            }
            if scan.runs.is_empty() {
                println!("no runs under {}", root.display());
            } else {
                for info in scan.runs {
                    if stats {
                        // A run without a telemetry log prints dashes,
                        // never an error — old runs stay listable.
                        let (wall, stages) =
                            match Telemetry::load_path(&root.join(&info.id).join(TELEMETRY_FILE)) {
                                Some(t) => {
                                    let (us, stages) = t.totals();
                                    (format!("{:.3}s", us as f64 / 1e6), stages.to_string())
                                }
                                None => ("-".to_string(), "-".to_string()),
                            };
                        println!(
                            "{:<44} {:<24} {:<12} {:>10} {:>7}",
                            info.id,
                            info.name,
                            info.status(),
                            wall,
                            stages
                        );
                    } else {
                        println!("{:<44} {:<24} {}", info.id, info.name, info.status());
                    }
                }
            }
            Ok(())
        }
        Command::Generate {
            model,
            n,
            seed,
            check_invariants,
        } => {
            let mut overrides = BTreeMap::new();
            overrides.insert("n".to_string(), ParamValue::Int(n as i64));
            let mut scenario = Scenario::from_generator(&model, &overrides, seed)?;
            scenario.check_invariants = check_invariants;
            scenario.report.edge_list = Some("-".to_string());
            let outcome = exec(&scenario, None)?;
            eprintln!("# {}", outcome.source);
            Ok(())
        }
        Command::Measure {
            path,
            threads,
            check_invariants,
            deadline_ms,
        } => {
            let mut scenario = Scenario::new(path.clone(), Source::Input { path });
            scenario.threads = Some(threads);
            scenario.check_invariants = check_invariants;
            scenario.measure = Some(MeasureSpec {
                deadline_ms,
                ..MeasureSpec::default()
            });
            let outcome = exec(&scenario, None)?;
            let Some(robust) = outcome.robust else {
                return Err(PipelineError::Stage("measure produced no report".into()));
            };
            println!("{}", robust.report.render());
            if !robust.fully_ok() || deadline_ms.is_some() {
                eprintln!("# kernel status\n{}", robust.render_status());
            }
            for w in &outcome.warnings {
                eprintln!("warning: {w}");
            }
            Ok(())
        }
        Command::Validate {
            path,
            threads,
            check_invariants,
        } => {
            let g = load_graph(&path)?;
            check_graph(&g, check_invariants, "validate")?;
            let opt = inet_suite::inet_model::metrics::ReportOptions {
                threads,
                ..Default::default()
            };
            let v = ValidationReport::run_with(
                &giant(&g),
                &inet_suite::inet_model::reference::AS_MAP_2001,
                opt,
            );
            println!("{}", v.render());
            if v.pass_count() * 2 >= v.outcomes.len() {
                Ok(())
            } else {
                Err(PipelineError::Stage(
                    "validation failed on most checks".into(),
                ))
            }
        }
        Command::Tiers {
            path,
            check_invariants,
        } => {
            let g = load_graph(&path)?;
            check_graph(&g, check_invariants, "tiers")?;
            let t = TierDecomposition::measure(&giant(&g));
            println!(
                "backbone (core {}): {}\ntransit           : {}\nfringe            : {} ({:.1}%)",
                t.backbone_core,
                t.backbone,
                t.transit,
                t.fringe,
                100.0 * t.fringe_fraction()
            );
            Ok(())
        }
        Command::Attack(args) => run_attack(args),
        Command::Serve(args) => run_serve(args),
        Command::Submit {
            path,
            addr,
            sets,
            deadline_ms,
        } => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| PipelineError::Data(format!("cannot read scenario '{path}': {e}")))?;
            // Validate locally first so obvious mistakes fail with the
            // usual exit classes before a daemon round-trip.
            Scenario::parse_with_overrides(&text, &sets).map_err(|e| match e {
                PipelineError::Scenario(m) => PipelineError::Scenario(format!("{path}: {m}")),
                other => other,
            })?;
            let line = service::encode_submit(&text, &path, &sets, deadline_ms);
            let resp = service::request(&addr, &line, CLIENT_TIMEOUT_MS)?;
            let status = service::response_field(&resp, "status").unwrap_or_default();
            match status.as_str() {
                "accepted" => {
                    let id = service::response_field(&resp, "job").ok_or_else(|| {
                        PipelineError::Data(format!("daemon response missing job id: {resp}"))
                    })?;
                    let position = service::response_field(&resp, "position").unwrap_or_default();
                    eprintln!("# accepted at queue position {position}");
                    println!("{id}");
                    Ok(())
                }
                "rejected" => {
                    let why = service::response_field(&resp, "error").unwrap_or_default();
                    let hint = service::response_field(&resp, "retry_after_ms").unwrap_or_default();
                    Err(PipelineError::Data(format!(
                        "submission rejected: {why} (retry after {hint} ms)"
                    )))
                }
                _ => Err(PipelineError::Data(format!(
                    "submit failed: {}",
                    service::response_field(&resp, "error").unwrap_or(resp)
                ))),
            }
        }
        Command::Job { action, id, addr } => {
            let line = service::encode_cmd(&action, id.as_deref());
            let resp = service::request(&addr, &line, CLIENT_TIMEOUT_MS)?;
            let status = service::response_field(&resp, "status").unwrap_or_default();
            if status == "error" {
                return Err(PipelineError::Data(format!(
                    "daemon: {}",
                    service::response_field(&resp, "error").unwrap_or(resp)
                )));
            }
            if action == "result" {
                // Print the stage-3 summary verbatim so the output diffs
                // cleanly against a one-shot `inet run` of the same file.
                return match status.as_str() {
                    "done" => {
                        let summary =
                            service::response_field(&resp, "summary").ok_or_else(|| {
                                PipelineError::Data(format!(
                                    "daemon response missing summary: {resp}"
                                ))
                            })?;
                        print!("{summary}");
                        Ok(())
                    }
                    other => Err(PipelineError::Stage(format!(
                        "job is {other}: {}",
                        service::response_field(&resp, "error").unwrap_or_default()
                    ))),
                };
            }
            if action == "metrics" {
                // Print the raw Prometheus exposition (the response field
                // is JSON-escaped for the one-line protocol) so the output
                // pipes straight into a scraper or promtool.
                let expo = service::response_field(&resp, "metrics").ok_or_else(|| {
                    PipelineError::Data(format!("daemon response missing metrics: {resp}"))
                })?;
                print!("{expo}");
                return Ok(());
            }
            println!("{resp}");
            Ok(())
        }
        Command::TraceRun { run_id, runs_dir } => {
            let root = std::path::PathBuf::from(runs_dir.as_deref().unwrap_or(DEFAULT_RUNS_DIR));
            // Open validates the run exists (typo-friendly error with the
            // 'runs list' hint); the telemetry log itself is optional.
            let store = RunStore::open(&root, &run_id)?;
            let telemetry = Telemetry::load(&store);
            if telemetry.spans.is_empty() {
                println!("run {run_id}: no telemetry recorded (pre-telemetry run?)");
            } else {
                let (wall, _) = telemetry.totals();
                println!(
                    "run {run_id}: {} session(s), {:.3}s total",
                    telemetry.sessions,
                    wall as f64 / 1e6
                );
                print!("{}", telemetry.render_trace());
            }
            Ok(())
        }
        Command::Trace { months } => {
            let mut rng = seeded_rng(2001);
            let config = TraceConfig {
                months,
                ..TraceConfig::oregon_era()
            };
            let trace = InternetTrace::generate(config, &mut rng);
            let fits =
                FittedRates::fit(&trace).ok_or(PipelineError::Stage("trace unfittable".into()))?;
            println!("{}", fits.render());
            Ok(())
        }
    }
}

/// Runs the scenario-job daemon until a drain trigger (SIGTERM, first
/// SIGINT, or the protocol `drain` command) completes. Exit codes follow
/// the documented table: clean drain 0, drain timeout 6 (in-flight jobs
/// are checkpointed and resume on restart), second SIGINT 130.
fn run_serve(args: ServeArgs) -> Result<(), PipelineError> {
    let cfg = ServiceConfig {
        addr: args.addr,
        workers: args.workers,
        queue_capacity: args.queue,
        runs_dir: std::path::PathBuf::from(args.runs_dir.as_deref().unwrap_or(DEFAULT_RUNS_DIR)),
        default_deadline_ms: args.deadline_ms,
        drain_timeout_ms: args.drain_timeout_ms,
        read_timeout_ms: args.read_timeout_ms,
        max_request_bytes: args.max_request_bytes,
        job_threads: args.job_threads,
        quiet: false,
        ..ServiceConfig::default()
    };
    let service = Service::bind(cfg)?;
    sig::install_drain(service.loopback_addr(), args.read_timeout_ms)
        .map_err(|e| PipelineError::Data(format!("serve: signal bridge: {e}")))?;
    // Scripts parse this line for the resolved (possibly ephemeral) port.
    println!("# serving on {}", service.local_addr()?);
    match service.run()? {
        ServeExit::Clean => Ok(()),
        ServeExit::DrainTimeout => Err(PipelineError::Interrupted(
            "drain timed out; in-flight jobs are checkpointed and resume on the next \
             'inet serve'"
                .into(),
        )),
    }
}

/// Executes an attack sweep (as a one-stage scenario) and prints the
/// per-cell response summary in the legacy format.
fn run_attack(args: AttackArgs) -> Result<(), PipelineError> {
    // `-`, an existing file, or anything path-like loads from disk;
    // otherwise the source names a generator model.
    let is_file = args.source == "-"
        || args.source.contains('/')
        || std::path::Path::new(&args.source).exists();
    let mut scenario = if is_file {
        Scenario::new(
            args.source.clone(),
            Source::Input {
                path: args.source.clone(),
            },
        )
    } else {
        let mut overrides = BTreeMap::new();
        overrides.insert("n".to_string(), ParamValue::Int(args.n as i64));
        Scenario::from_generator(&args.source, &overrides, args.seed).map_err(|e| match e {
            PipelineError::Scenario(m) => PipelineError::Scenario(format!(
                "attack: {m} (models double as sources; or pass a file path)"
            )),
            other => other,
        })?
    };
    scenario.threads = Some(args.threads);
    scenario.check_invariants = args.check_invariants;
    scenario.attack = Some(AttackSpec {
        strategies: args.strategies.clone(),
        replicas: args.replicas,
        record_every: args.record,
        seed: args.seed,
        checkpoint: args.resume.clone().map(std::path::PathBuf::from),
        bc_sources: 64,
    });
    if let Some(dir) = &args.curves {
        scenario.report.curves = Some(std::path::PathBuf::from(dir));
    }
    let outcome = exec(&scenario, None)?;
    if !is_file {
        eprintln!("# attacking {}", outcome.source);
    }
    let Some(sweep) = outcome.sweep else {
        return Err(PipelineError::Stage("attack produced no sweep".into()));
    };
    let checkpoint = args.resume.as_deref().map(std::path::Path::new);
    if let Some(line) = report::resumed_line(&sweep, checkpoint) {
        println!("{line}");
    }
    print!("{}", report::attack_table(&sweep));
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    if let Some(dir) = &args.curves {
        println!("curves written to {}", std::path::Path::new(dir).display());
    }
    Ok(())
}

fn main() {
    sig::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args)
        .map_err(PipelineError::Scenario)
        .and_then(run)
    {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {}", e.message());
            std::process::exit(e.exit_code());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_suite::inet_model::generators::lookup;
    use inet_suite::inet_model::pipeline::run::RunOutcome;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_help_variants() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["--help"])).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&strs(&["list-models"])).unwrap(),
            Command::ListModels
        );
    }

    #[test]
    fn parses_generate() {
        assert_eq!(
            parse_args(&strs(&["generate", "ba", "100", "7"])).unwrap(),
            Command::Generate {
                model: "ba".into(),
                n: 100,
                seed: 7,
                check_invariants: false
            }
        );
        assert_eq!(
            parse_args(&strs(&["generate", "glp", "100"])).unwrap(),
            Command::Generate {
                model: "glp".into(),
                n: 100,
                seed: 42,
                check_invariants: false
            }
        );
        assert!(parse_args(&strs(&["generate", "ba"])).is_err());
        assert!(parse_args(&strs(&["generate", "ba", "x"])).is_err());
        assert!(
            parse_args(&strs(&["generate", "ba", "4"])).is_err(),
            "n too small"
        );
    }

    #[test]
    fn parses_file_commands_and_trace() {
        let default = inet_suite::inet_model::exec::parallel::default_threads();
        assert_eq!(
            parse_args(&strs(&["measure", "g.txt"])).unwrap(),
            Command::Measure {
                path: "g.txt".into(),
                threads: default,
                check_invariants: false,
                deadline_ms: None
            }
        );
        assert!(parse_args(&strs(&["measure"])).is_err());
        assert_eq!(
            parse_args(&strs(&["trace"])).unwrap(),
            Command::Trace { months: 55 }
        );
        assert!(parse_args(&strs(&["trace", "1"])).is_err());
        // A non-integer argument is a run id; --runs-dir rides along.
        assert_eq!(
            parse_args(&strs(&["trace", "demo-1a2b3c4d"])).unwrap(),
            Command::TraceRun {
                run_id: "demo-1a2b3c4d".into(),
                runs_dir: None
            }
        );
        assert_eq!(
            parse_args(&strs(&["trace", "demo-1a2b3c4d", "--runs-dir", "rr"])).unwrap(),
            Command::TraceRun {
                run_id: "demo-1a2b3c4d".into(),
                runs_dir: Some("rr".into())
            }
        );
        assert!(parse_args(&strs(&["trace", "--runs-dir", "rr"])).is_err());
        assert!(parse_args(&strs(&["trace", "20", "--runs-dir", "rr"])).is_err());
        assert!(parse_args(&strs(&["trace", "a", "b"])).is_err());
        assert!(parse_args(&strs(&["nonsense"])).is_err());
    }

    #[test]
    fn parses_threads_flag_in_any_position() {
        assert_eq!(
            parse_args(&strs(&["measure", "g.txt", "--threads", "3"])).unwrap(),
            Command::Measure {
                path: "g.txt".into(),
                threads: 3,
                check_invariants: false,
                deadline_ms: None
            }
        );
        assert_eq!(
            parse_args(&strs(&["--threads", "8", "validate", "g.txt"])).unwrap(),
            Command::Validate {
                path: "g.txt".into(),
                threads: 8,
                check_invariants: false
            }
        );
        assert!(parse_args(&strs(&["measure", "g.txt", "--threads"])).is_err());
        assert!(parse_args(&strs(&["measure", "g.txt", "--threads", "x"])).is_err());
        assert!(parse_args(&strs(&["measure", "g.txt", "--threads", "0"])).is_err());
    }

    #[test]
    fn option_scanner_rejects_missing_values_non_integers_and_repeats() {
        for (args, needle) in [
            (vec!["measure", "g.txt", "--threads"], "missing <N>"),
            (
                vec!["measure", "g.txt", "--threads", "x"],
                "must be an integer",
            ),
            (
                vec!["measure", "g.txt", "--threads", "2", "--threads", "3"],
                "given more than once",
            ),
            (
                vec![
                    "measure",
                    "g.txt",
                    "--check-invariants",
                    "--check-invariants",
                ],
                "given more than once",
            ),
            (vec!["measure", "g.txt", "--deadline-ms"], "missing <ms>"),
            (
                vec!["attack", "ba", "--replicas", "two"],
                "must be an integer",
            ),
            (
                vec!["attack", "ba", "--resume", "a", "--resume", "b"],
                "given more than once",
            ),
        ] {
            let e = parse_args(&strs(&args)).unwrap_err();
            assert!(e.contains(needle), "{args:?}: {e}");
        }
    }

    #[test]
    fn parses_run_with_repeatable_set_overrides() {
        match parse_args(&strs(&[
            "run",
            "s.toml",
            "--set",
            "n=100",
            "--set",
            "seed=1",
            "--threads",
            "2",
        ]))
        .unwrap()
        {
            Command::Run {
                path,
                resume,
                sets,
                threads,
                check_invariants,
                journal,
                runs_dir,
            } => {
                assert_eq!(path.as_deref(), Some("s.toml"));
                assert_eq!(resume, None);
                assert_eq!(sets, strs(&["n=100", "seed=1"]));
                assert_eq!(threads, Some(2));
                assert!(!check_invariants);
                assert!(journal, "journaling is the default");
                assert_eq!(runs_dir, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&strs(&["run"])).is_err());
        // --set is a run-only option.
        let e = parse_args(&strs(&["measure", "g.txt", "--set", "n=1"])).unwrap_err();
        assert!(e.contains("run"), "{e}");
    }

    #[test]
    fn parses_resume_no_journal_and_runs_list() {
        match parse_args(&strs(&["run", "--resume", "demo-1a2b3c4d"])).unwrap() {
            Command::Run { path, resume, .. } => {
                assert_eq!(path, None);
                assert_eq!(resume.as_deref(), Some("demo-1a2b3c4d"));
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&strs(&[
            "run",
            "s.toml",
            "--no-journal",
            "--runs-dir",
            "rr",
        ]))
        .unwrap()
        {
            Command::Run {
                journal, runs_dir, ..
            } => {
                assert!(!journal);
                assert_eq!(runs_dir.as_deref(), Some("rr"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_args(&strs(&["runs", "list"])).unwrap(),
            Command::Runs {
                runs_dir: None,
                stats: false
            }
        );
        assert_eq!(
            parse_args(&strs(&["runs", "list", "--stats"])).unwrap(),
            Command::Runs {
                runs_dir: None,
                stats: true
            }
        );
        // The rejections, each with a one-line reason.
        for (bad, needle) in [
            (vec!["run", "s.toml", "--resume", "id"], "not both"),
            (vec!["run", "--resume", "id", "--set", "n=1"], "--set"),
            (
                vec!["run", "--resume", "id", "--no-journal"],
                "--no-journal",
            ),
            (vec!["run", "a.toml", "b.toml"], "more than one"),
            (vec!["run", "--bogus", "s.toml"], "unknown option"),
            (vec!["runs"], "usage"),
            (vec!["runs", "prune"], "usage"),
        ] {
            let e = parse_args(&strs(&bad)).unwrap_err();
            assert!(e.contains(needle), "{bad:?}: {e}");
        }
    }

    #[test]
    fn help_and_list_models_name_every_registered_model() {
        let names = model_names();
        assert_eq!(names.len(), 15, "{names:?}");
        let help = help_text();
        assert!(help.contains(&names.join(" ")), "help models line drifted");
        assert!(help.contains("inet run"), "run missing from help");
        assert!(help.contains("--set"), "--set missing from help");
        let listing = list_models_text();
        for spec in registry() {
            assert!(listing.contains(spec.name), "{} not listed", spec.name);
            assert!(
                listing.contains(spec.summary),
                "{} summary not listed",
                spec.name
            );
            for p in &spec.schema {
                assert!(
                    listing.contains(p.key),
                    "{}.{} not listed",
                    spec.name,
                    p.key
                );
            }
        }
        run(Command::Help).unwrap();
        run(Command::ListModels).unwrap();
        assert!(parse_args(&strs(&["--threads", "2", "help"])).is_ok());
    }

    #[test]
    fn parses_attack_with_defaults_and_flags() {
        let default = inet_suite::inet_model::exec::parallel::default_threads();
        assert_eq!(
            parse_args(&strs(&["attack", "ba"])).unwrap(),
            Command::Attack(AttackArgs {
                source: "ba".into(),
                n: 1000,
                seed: 42,
                strategies: vec![Strategy::Random, Strategy::Degree { recalc: false }],
                replicas: 4,
                record: 0,
                resume: None,
                curves: None,
                threads: default,
                check_invariants: false,
            })
        );
        assert_eq!(
            parse_args(&strs(&[
                "attack",
                "serrano",
                "--n",
                "500",
                "--seed",
                "9",
                "--strategy",
                "kcore-recalc,betweenness",
                "--replicas",
                "2",
                "--record",
                "5",
                "--resume",
                "ck.json",
                "--curves",
                "out",
                "--threads",
                "3",
            ]))
            .unwrap(),
            Command::Attack(AttackArgs {
                source: "serrano".into(),
                n: 500,
                seed: 9,
                strategies: vec![
                    Strategy::KCore { recalc: true },
                    Strategy::Betweenness { recalc: false },
                ],
                replicas: 2,
                record: 5,
                resume: Some("ck.json".into()),
                curves: Some("out".into()),
                threads: 3,
                check_invariants: false,
            })
        );
    }

    #[test]
    fn attack_parse_errors_are_one_line_not_panics() {
        // Every malformed invocation must come back as Err, never panic.
        for bad in [
            vec!["attack"],
            vec!["attack", "ba", "--strategy", "voodoo"],
            vec!["attack", "ba", "--strategy", ","],
            vec!["attack", "ba", "--n", "x"],
            vec!["attack", "ba", "--n", "4"],
            vec!["attack", "ba", "--replicas", "0"],
            vec!["attack", "ba", "--replicas"],
            vec!["attack", "ba", "--seed", "-3"],
            vec!["attack", "ba", "--record", "many"],
            vec!["attack", "ba", "--bogus"],
            vec!["attack", "ba", "glp"],
        ] {
            let err = parse_args(&strs(&bad)).unwrap_err();
            assert!(!err.is_empty() && !err.contains('\n'), "{bad:?}: {err}");
        }
        // The unknown-strategy message lists the valid names.
        let err = parse_args(&strs(&["attack", "ba", "--strategy", "voodoo"])).unwrap_err();
        assert!(
            err.contains("unknown strategy") && err.contains("degree-recalc"),
            "{err}"
        );
    }

    #[test]
    fn attack_end_to_end_with_resume_and_curves() {
        let dir = std::env::temp_dir().join("inet_cli_attack_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("state.json");
        let curves = dir.join("curves");
        let mk = || AttackArgs {
            source: "ba".into(),
            n: 80,
            seed: 11,
            strategies: vec![Strategy::Random, Strategy::Degree { recalc: true }],
            replicas: 2,
            record: 1,
            resume: Some(ckpt.to_str().unwrap().into()),
            curves: Some(curves.to_str().unwrap().into()),
            threads: 2,
            check_invariants: false,
        };
        run_attack(mk()).unwrap();
        assert!(ckpt.exists(), "checkpoint must be written");
        assert!(curves.join("random-r0.csv").exists());
        assert!(curves.join("degree-recalc-r0.csv").exists());
        // Second invocation resumes from the finished checkpoint.
        run_attack(mk()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_check_invariants_and_deadline_flags() {
        match parse_args(&strs(&["measure", "g.txt", "--check-invariants"])).unwrap() {
            Command::Measure {
                check_invariants, ..
            } => assert!(check_invariants),
            other => panic!("{other:?}"),
        }
        match parse_args(&strs(&["--check-invariants", "generate", "ba", "100"])).unwrap() {
            Command::Generate {
                check_invariants, ..
            } => assert!(check_invariants),
            other => panic!("{other:?}"),
        }
        match parse_args(&strs(&["attack", "ba", "--check-invariants"])).unwrap() {
            Command::Attack(args) => assert!(args.check_invariants),
            other => panic!("{other:?}"),
        }
        match parse_args(&strs(&["measure", "g.txt", "--deadline-ms", "250"])).unwrap() {
            Command::Measure { deadline_ms, .. } => assert_eq!(deadline_ms, Some(250)),
            other => panic!("{other:?}"),
        }
        // --deadline-ms is a measure-only concept.
        let err = parse_args(&strs(&["validate", "g.txt", "--deadline-ms", "250"])).unwrap_err();
        assert!(err.contains("measure"), "{err}");
        assert!(parse_args(&strs(&["measure", "g.txt", "--deadline-ms"])).is_err());
        assert!(parse_args(&strs(&["measure", "g.txt", "--deadline-ms", "x"])).is_err());
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        let cases = [
            (PipelineError::Stage("x".into()), 1),
            (PipelineError::Scenario("x".into()), 2),
            (PipelineError::Model("x".into()), 3),
            (PipelineError::Data("x".into()), 4),
            (PipelineError::CheckpointIncompatible("x".into()), 5),
            (PipelineError::Interrupted("x".into()), 6),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (err, want) in cases {
            assert_eq!(err.exit_code(), want, "{}", err.message());
            assert!(seen.insert(err.exit_code()), "duplicate exit code {want}");
        }
    }

    #[test]
    fn bad_model_parameters_map_to_model_error() {
        // An unknown model is a usage-class error (exit 2, with a
        // did-you-mean suggestion from the registry)...
        let err = run(Command::Generate {
            model: "zzz".into(),
            n: 100,
            seed: 1,
            check_invariants: false,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{}", err.message());
        // ...while a model rejecting its own parameters is a Model error
        // (exit 3), not a panic: parse_args forbids tiny n, but run() is
        // the safety net.
        let err = run(Command::Generate {
            model: "ba".into(),
            n: 2,
            seed: 1,
            check_invariants: false,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{}", err.message());
        assert!(!err.message().contains('\n'), "{}", err.message());
        let err = run(Command::Measure {
            path: "/nonexistent/inet-graph.txt".into(),
            threads: 1,
            check_invariants: false,
            deadline_ms: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{}", err.message());
    }

    #[test]
    fn incompatible_resume_checkpoint_names_field_and_exits_5() {
        let dir = std::env::temp_dir().join("inet_cli_incompat_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("state.json");
        let mk = |seed: u64| AttackArgs {
            source: "ba".into(),
            n: 60,
            seed,
            strategies: vec![Strategy::Random],
            replicas: 1,
            record: 0,
            resume: Some(ckpt.to_str().unwrap().into()),
            curves: None,
            threads: 1,
            check_invariants: false,
        };
        run_attack(mk(11)).unwrap();
        let err = run_attack(mk(12)).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{}", err.message());
        assert!(
            err.message().contains("checkpoint incompatible: seed"),
            "{}",
            err.message()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_registered_model_builds() {
        // The registry is the single dispatch point; every entry's builder
        // must accept its own defaults at a small size.
        assert_eq!(registry().len(), 15);
        for spec in registry() {
            let params = spec.resolve_n(100).unwrap();
            assert!((spec.build)(&params).is_ok(), "{}", spec.name);
        }
        let err = lookup("zzz").unwrap_err();
        assert!(err.to_string().contains("unknown model"), "{err}");
    }

    #[test]
    fn generate_and_measure_round_trip_through_files() {
        let spec = lookup("glp").unwrap();
        let generator = (spec.build)(&spec.resolve_n(200).unwrap()).unwrap();
        let mut rng = seeded_rng(1);
        let net = generator.generate(&mut rng);
        let dir = std::env::temp_dir().join("inet_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let mut out = Vec::new();
        inet_suite::inet_model::graph::io::write_edge_list(&net.graph, &mut out).unwrap();
        std::fs::write(&path, out).unwrap();
        let loaded = load_graph(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, net.graph);
        // run() paths execute without error.
        run(Command::Measure {
            path: path.to_str().unwrap().into(),
            threads: 2,
            check_invariants: true,
            deadline_ms: None,
        })
        .unwrap();
        run(Command::Tiers {
            path: path.to_str().unwrap().into(),
            check_invariants: false,
        })
        .unwrap();
        run(Command::Trace { months: 20 }).unwrap();
    }

    #[test]
    fn run_subcommand_executes_scenario_files_with_overrides() {
        let dir = std::env::temp_dir().join("inet_cli_run_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = dir.join("demo.toml");
        let summary = dir.join("summary.txt");
        std::fs::write(
            &scenario,
            format!(
                "[generator]\nmodel = \"ba\"\nn = 500\nseed = 1\n\
                 [measure]\nmetrics = [\"degree\", \"giant\"]\n\
                 [report]\nsummary = \"{}\"\n",
                summary.display()
            ),
        )
        .unwrap();
        run(Command::Run {
            path: Some(scenario.to_str().unwrap().into()),
            resume: None,
            sets: vec!["n=60".into()],
            threads: Some(2),
            check_invariants: false,
            journal: false,
            runs_dir: None,
        })
        .unwrap();
        let text = std::fs::read_to_string(&summary).unwrap();
        assert!(text.contains("scenario: ba"), "{text}");
        assert!(text.contains("generated BA"), "{text}");
        // A missing scenario file is a data error (exit 4).
        let err = run(Command::Run {
            path: Some(dir.join("absent.toml").to_str().unwrap().into()),
            resume: None,
            sets: Vec::new(),
            threads: None,
            check_invariants: false,
            journal: false,
            runs_dir: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{}", err.message());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_run_resumes_through_the_cli_to_an_identical_summary() {
        let dir = std::env::temp_dir().join("inet_cli_journal_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = dir.join("demo.toml");
        let summary = dir.join("summary.txt");
        let runs = dir.join("runs");
        std::fs::write(
            &scenario,
            format!(
                "[generator]\nmodel = \"ba\"\nn = 80\nseed = 3\n\
                 [measure]\nmetrics = [\"degree\", \"giant\"]\n\
                 [report]\nsummary = \"{}\"\n",
                summary.display()
            ),
        )
        .unwrap();
        let mk = |resume: Option<String>| Command::Run {
            path: resume.is_none().then(|| scenario.to_str().unwrap().into()),
            resume,
            sets: Vec::new(),
            threads: Some(1),
            check_invariants: false,
            journal: true,
            runs_dir: Some(runs.to_str().unwrap().into()),
        };
        run(mk(None)).unwrap();
        let first = std::fs::read_to_string(&summary).unwrap();
        let infos = scan_runs(&runs).runs;
        assert_eq!(infos.len(), 1, "{infos:?}");
        assert_eq!(infos[0].status(), "complete");
        // `inet runs list` renders without error on the same store, with
        // and without the telemetry columns.
        run(Command::Runs {
            runs_dir: Some(runs.to_str().unwrap().into()),
            stats: false,
        })
        .unwrap();
        run(Command::Runs {
            runs_dir: Some(runs.to_str().unwrap().into()),
            stats: true,
        })
        .unwrap();
        // The journaled run stored its span tree; `inet trace <run-id>`
        // renders it.
        let store = RunStore::open(&runs, &infos[0].id).unwrap();
        let telemetry = Telemetry::load(&store);
        assert!(
            !telemetry.spans.is_empty(),
            "journaled run must persist telemetry"
        );
        assert!(telemetry.render_trace().contains("run[0]"));
        run(Command::TraceRun {
            run_id: infos[0].id.clone(),
            runs_dir: Some(runs.to_str().unwrap().into()),
        })
        .unwrap();
        // Resume of a complete run replays every stage byte-identically,
        // and the replayed session accumulates into the telemetry.
        run(mk(Some(infos[0].id.clone()))).unwrap();
        assert_eq!(std::fs::read_to_string(&summary).unwrap(), first);
        let resumed = Telemetry::load(&store);
        assert_eq!(resumed.sessions, telemetry.sessions + 1);
        assert!(resumed.spans.len() > telemetry.spans.len());
        // Resuming an unknown id is a data error naming `runs list`.
        let err = run(mk(Some("nope-00000000".into()))).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{}", err.message());
        assert!(err.message().contains("runs list"), "{}", err.message());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance check of the scenario pipeline: running the shipped
    /// `scenarios/serrano_attack.toml` must reproduce the legacy
    /// `inet attack serrano` sweep bit-identically, for any thread count.
    /// (`--set` shrinks the run so the test stays fast; the override path
    /// is itself part of what is being proven.)
    #[test]
    fn serrano_attack_scenario_is_bit_identical_to_the_legacy_attack_path() {
        let sets = ["n=150", "attack.replicas=2"];
        let expected = {
            // The legacy path, spelled out: SerranoParams::small(n), the
            // base seed for generation and sweep, auto record granularity.
            let model = SerranoModel::try_new(SerranoParams::small(150)).unwrap();
            let mut rng = seeded_rng(42);
            let csr = model.try_generate(&mut rng).unwrap().graph.to_csr();
            let cfg = SweepConfig {
                strategies: vec![Strategy::Random, Strategy::Degree { recalc: true }],
                replicas: 2,
                base_seed: 42,
                threads: 1,
                record_every: (csr.node_count() / 200).max(1),
                bc_sources: 64,
                ..SweepConfig::default()
            };
            run_sweep(&csr, &cfg).unwrap()
        };
        for threads in [1usize, 2, 7] {
            let mut scenario =
                Scenario::load(std::path::Path::new("scenarios/serrano_attack.toml"), &sets)
                    .unwrap();
            scenario.threads = Some(threads);
            // Skip the figure sinks; only the numbers are under test.
            scenario.report = Default::default();
            let outcome: RunOutcome = exec(&scenario, None).unwrap();
            assert_eq!(
                outcome.sweep.unwrap().cells,
                expected.cells,
                "threads={threads}"
            );
        }
    }
}

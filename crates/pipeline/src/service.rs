//! The `inet serve` daemon: a robust, single-process scenario service.
//!
//! The rest of the workspace is batch: one CLI invocation, one run. This
//! module turns the same staged pipeline into a long-lived **job service**
//! over a plain [`std::net::TcpListener`] — no async runtime, no protocol
//! dependencies, the same hand-rolled philosophy as the TOML reader. The
//! robustness headline is the **no-job-lost invariant**:
//!
//! > Every *accepted* submission either runs to completion or is resumed —
//! > cell-granular, bit-identically — by the next daemon incarnation; and
//! > every submission that is *not* accepted receives an explicit
//! > rejection response, never a silent drop.
//!
//! The invariant holds because admission *is* journaling: a submission is
//! accepted exactly when its [`RunStore`] manifest and a `job accepted`
//! record in the run's own journal are on disk; each phase change is one
//! more `job` record. Workers execute the job through [`run_scenario_with`],
//! so a SIGKILL at any instant leaves a journal the recovery scan
//! re-enqueues on restart, and resume replays committed stages from
//! checksummed artifacts.
//!
//! ## Architecture
//!
//! ```text
//!            accept loop (blocking accept; service.accept failpoint)
//!                 │  one thread per connection, panic-fenced,
//!                 │  read/write timeouts, bounded request size
//!                 ▼
//!  admission control ──reject──▶ {"status":"rejected", retry_after_ms}
//!    │  full validation (scenario parse + sink preflight),
//!    │  bounded queue, service.queue failpoint
//!    ▼
//!  RunStore::create + `job accepted` record   ◀── recovery scan re-enqueues
//!    │                                            interrupted jobs here
//!    ▼
//!  bounded FIFO queue ──▶ worker pool (fixed threads, service.worker
//!                          failpoint, panic fence, bounded retries)
//!                            │ per-job CancelToken: expires at the job
//!                            │ deadline; cancel or drain timeout fires it
//!                            ▼
//!                          run_scenario_with(ExecOptions{cancel, store})
//! ```
//!
//! ## Protocol
//!
//! One request per connection: the client sends a single line containing a
//! flat JSON object (the same subset the run store's own documents use) and
//! receives a single JSON line back. Commands:
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"submit","scenario":"<toml text>","sets":[..],"deadline_ms":N}` | `{"status":"accepted","job":"<id>","position":k}` or `{"status":"rejected","error":..,"retry_after_ms":N}` |
//! | `{"cmd":"status","job":"<id>","wait_ms":N}` | `{"status":"queued"\|"running"\|"done"\|"failed"\|"deadline"\|"cancelled", ...}`; with the optional `wait_ms` the daemon long-polls — it parks the connection (condvar, no busy wait) until the job reaches a terminal state or the wait (capped at 30 s) elapses |
//! | `{"cmd":"result","job":"<id>"}` | `{"status":"done","summary":"<text>"}` (the stage-3 artifact) |
//! | `{"cmd":"cancel","job":"<id>"}` | `{"status":"ok"}` — queued jobs unqueue, running jobs get their token fired |
//! | `{"cmd":"stats"}` | queue depth, capacity, workers, counters, draining flag |
//! | `{"cmd":"metrics"}` | `{"status":"ok","queued":N,"running":N,"metrics":"<Prometheus text exposition, JSON-escaped>"}` — job counters, queue-wait/run-time histograms, plus the process-wide task/retry/sweep metrics |
//! | `{"cmd":"drain"}` | `{"status":"ok","draining":1}` — protocol equivalent of SIGTERM |
//!
//! Oversized requests, read timeouts, and malformed JSON all get a
//! structured `{"status":"error",...}` line — a misbehaving client can
//! slow down only its own connection thread, never the accept loop.
//!
//! ## Shutdown semantics
//!
//! The `drain` command starts a **graceful drain**; the CLI turns SIGTERM
//! and the first SIGINT into that same command. Admission stops (new
//! submissions are rejected with a `draining` error), workers finish their
//! in-flight jobs, and still-queued jobs stay journaled on disk for the
//! next incarnation. The drain routine wakes every waiter it concerns — the
//! workers, the control-plane observers, and the blocked `accept` (with one
//! loopback connection) — so no thread polls for it. A drain that completes
//! within [`ServiceConfig::drain_timeout_ms`] exits the daemon with code 0;
//! on timeout the in-flight jobs' cancel tokens fire, their progress
//! checkpoints cooperatively, and the daemon exits 6 (interrupted,
//! resumable) — the same contract as an interrupted `inet run`.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use inet_exec::{run_fenced, CancelToken, Deadline, PanicFence, RetryPolicy, Task, TaskError};
use inet_obs::{render_prometheus, Counter, Registry};

use crate::report;
use crate::run::{run_scenario_with, ExecOptions};
use crate::runstore::{escape_json, parse_flat, scan_runs, JobRecord, JsonVal, RunStore};
use crate::scenario::Scenario;
use crate::PipelineError;

/// Default total attempts for a job hit by an infrastructure fault (a
/// worker panic, an injected `service.worker` fault or a failed run-store
/// write) before it is marked failed — the `attempts` of
/// [`ServiceConfig::retry`]'s default. Pipeline errors from the scenario
/// itself never retry.
pub const MAX_ATTEMPTS: u64 = 3;

/// Everything the daemon needs to know; every field has a conservative
/// default so `ServiceConfig::default()` is a runnable local service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address, `host:port`; port 0 binds an ephemeral port
    /// (printed by the CLI, queryable via [`Service::local_addr`]).
    pub addr: String,
    /// Fixed worker-pool size (at least 1).
    pub workers: usize,
    /// Bounded queue capacity: submissions beyond it are rejected with a
    /// `retry_after_ms` hint, never silently dropped.
    pub queue_capacity: usize,
    /// Run-store root; every accepted job journals under it.
    pub runs_dir: PathBuf,
    /// Default per-job deadline (from job start, not submission), applied
    /// when a submission does not carry its own `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// How long a drain waits for in-flight jobs before firing their
    /// cancel tokens and exiting 6 instead of 0.
    pub drain_timeout_ms: u64,
    /// Socket read and write timeout per connection; a stalled client gets
    /// a structured timeout error on its own thread.
    pub read_timeout_ms: u64,
    /// Maximum request-line size in bytes; larger requests are rejected
    /// with a structured error before any parsing.
    pub max_request_bytes: usize,
    /// Worker-thread count handed to scenarios that do not pin their own
    /// `threads`; `None` leaves the pipeline default (all cores).
    pub job_threads: Option<usize>,
    /// Retry schedule for jobs hit by infrastructure faults (worker panics,
    /// injected `service.worker` faults, failed run-store writes):
    /// `attempts` bounds the total tries per job, and the capped-backoff
    /// delay is slept before each requeue.
    /// Deterministic scenario errors never retry regardless.
    pub retry: RetryPolicy,
    /// Suppress the daemon's stderr log lines (tests).
    pub quiet: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:4590".to_string(),
            workers: 2,
            queue_capacity: 32,
            runs_dir: PathBuf::from(crate::runstore::DEFAULT_RUNS_DIR),
            default_deadline_ms: None,
            drain_timeout_ms: 20_000,
            read_timeout_ms: 5_000,
            max_request_bytes: 1 << 20,
            job_threads: None,
            retry: RetryPolicy {
                attempts: MAX_ATTEMPTS as u32,
                base_delay_ms: 10,
                max_delay_ms: 200,
            },
            quiet: false,
        }
    }
}

/// How a completed [`Service::run`] ended, mapped by the CLI onto the
/// documented exit-code table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// Every in-flight job finished before the drain timeout — exit 0.
    /// Jobs still queued at drain time stay journaled for the next
    /// incarnation.
    Clean,
    /// The drain timeout fired: in-flight jobs were cancelled
    /// cooperatively (their progress is checkpointed and resumable) —
    /// exit 6.
    DrainTimeout,
}

/// Lifecycle of one job. `Queued` and `Running` are journaled as
/// `accepted` — both are interrupted-and-resumable states for the recovery
/// scan; the rest are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Failed,
    Deadline,
    Cancelled,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
            Phase::Deadline => "deadline",
            Phase::Cancelled => "cancelled",
        }
    }
}

/// In-memory record of one job (the run id doubles as the job id).
#[derive(Debug, Default)]
struct Job {
    phase: Option<Phase>,
    error: String,
    attempts: u64,
    deadline_ms: Option<u64>,
    /// Wall-clock deadline, armed when the job starts running.
    deadline_at: Option<Deadline>,
    /// Token of the running execution; it expires at `deadline_at`, and
    /// the `cancel` command and the drain timeout fire it.
    cancel: Option<CancelToken>,
    cancel_requested: bool,
    /// When the job (re-)entered the queue; consumed into the
    /// `inet_job_queue_wait_ms` histogram when a worker picks it up.
    queued_at: Option<std::time::Instant>,
}

impl Job {
    fn phase(&self) -> Phase {
        self.phase.unwrap_or(Phase::Queued)
    }

    fn record(&self) -> JobRecord {
        JobRecord {
            state: match self.phase() {
                Phase::Queued | Phase::Running => "accepted",
                terminal => terminal.as_str(),
            }
            .to_string(),
            attempts: self.attempts,
            deadline_ms: self.deadline_ms,
            error: self.error.clone(),
        }
    }
}

/// Shared daemon state.
struct State {
    cfg: ServiceConfig,
    queue: Mutex<VecDeque<String>>,
    wake: Condvar,
    jobs: Mutex<BTreeMap<String, Job>>,
    /// Control-plane event generation, bumped by [`State::notify_control`]
    /// on every observable change (job phase transition, drain trigger,
    /// handler exit). Paired with `control_wake`; a separate mutex from
    /// `queue` because a `std::sync::Condvar` may only ever be used with
    /// one mutex.
    control: Mutex<u64>,
    /// Parks [`State::wait_for`]: the drain wait, the linger, and status
    /// long-polls.
    control_wake: Condvar,
    draining: AtomicBool,
    /// Where a local client reaches the listener: the bound address, with
    /// an unspecified IP replaced by loopback. [`State::drain`] connects
    /// here once to wake the blocked `accept`.
    loopback: SocketAddr,
    /// Connection-handler threads still running. The drain path lingers
    /// (bounded) until this reaches zero so the response to the very
    /// request that triggered the drain is not severed by process exit —
    /// the condvar wakeups make shutdown fast enough to lose that race
    /// otherwise.
    conns: AtomicU64,
    conn_seq: AtomicU64,
    submit_seq: AtomicU64,
    /// This daemon's own metrics registry (job counters, queue-wait and
    /// run-time histograms). Per-instance, not the process default, so the
    /// `stats` and `metrics` commands read the *same* counters — they can
    /// never disagree — and in-process tests see only their own daemon.
    registry: Registry,
    accepted: Counter,
    rejected: Counter,
    completed: Counter,
    failed: Counter,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl State {
    fn log(&self, line: &str) {
        if !self.cfg.quiet {
            eprintln!("# serve: {line}");
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The one drain routine, behind the `drain` command (and so behind
    /// the CLI's SIGTERM and first SIGINT). The flag is set and the
    /// workers notified under the queue lock, so a worker between its
    /// `draining()` check and its park cannot miss the notify. Then a
    /// control event wakes the control-plane observers, and one loopback
    /// connection wakes the blocked `accept`. Later calls do nothing.
    fn drain(&self) {
        {
            let _queue = lock(&self.queue);
            if self.draining.swap(true, Ordering::SeqCst) {
                return;
            }
            self.wake.notify_all();
        }
        self.notify_control();
        if let Err(e) = TcpStream::connect(self.loopback) {
            self.log(&format!("cannot wake the accept loop: {e}"));
        }
    }

    /// A deterministic back-off hint for rejected submissions, scaled by
    /// the backlog a worker slot has to chew through first.
    fn retry_after_ms(&self) -> u64 {
        let backlog = lock(&self.queue).len() as u64;
        250 + 500 * backlog / self.cfg.workers.max(1) as u64
    }

    /// Journals a phase change after admission: one `job` record appended
    /// to the run's journal. A failure is logged but never unseats the
    /// in-memory state: the worst case is a stale `accepted` record, which
    /// only means the next incarnation replays an idempotent,
    /// already-committed run.
    fn persist(&self, id: &str, job: &Job) {
        let appended = RunStore::open(&self.cfg.runs_dir, id)
            .and_then(|store| store.append_job(&job.record()));
        if let Err(e) = appended {
            self.log(&format!("job {id}: cannot persist state: {}", e.message()));
        }
    }

    fn set_phase(&self, id: &str, phase: Phase, error: &str) {
        {
            let mut jobs = lock(&self.jobs);
            let job = jobs.entry(id.to_string()).or_default();
            job.phase = Some(phase);
            job.error = error.to_string();
            if phase != Phase::Running {
                job.cancel = None;
                job.deadline_at = None;
            }
            self.persist(id, job);
        }
        self.notify_control();
    }

    /// Publishes a control-plane event: bumps the generation and wakes
    /// every [`State::wait_for`]. Cheap enough to call on every job
    /// transition.
    fn notify_control(&self) {
        *lock(&self.control) += 1;
        self.control_wake.notify_all();
    }

    /// Parks on the control plane until `done()` holds (true) or `until`
    /// passes (false). The generation is read before each check, so an
    /// event published between the check and the park still wakes it.
    fn wait_for(&self, until: Deadline, mut done: impl FnMut() -> bool) -> bool {
        loop {
            let seen = *lock(&self.control);
            if done() {
                return true;
            }
            if until.is_expired() {
                return false;
            }
            let gen = lock(&self.control);
            if *gen == seen {
                let _ = self.control_wake.wait_timeout(gen, until.remaining());
            }
        }
    }

    fn running(&self) -> usize {
        let jobs = lock(&self.jobs);
        jobs.values()
            .filter(|j| j.phase() == Phase::Running)
            .count()
    }
}

/// A bound, not-yet-running scenario service. [`Service::bind`] claims
/// the socket (so tests and scripts can read the ephemeral port before
/// anything happens); [`Service::run`] blocks until drain.
pub struct Service {
    listener: TcpListener,
    state: Arc<State>,
}

impl Service {
    /// Binds the listener and prepares shared state. No thread starts
    /// and no recovery scan happens until [`Service::run`].
    pub fn bind(cfg: ServiceConfig) -> Result<Service, PipelineError> {
        std::fs::create_dir_all(&cfg.runs_dir).map_err(|e| {
            PipelineError::Data(format!("serve: runs dir {}: {e}", cfg.runs_dir.display()))
        })?;
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| PipelineError::Data(format!("serve: cannot bind {}: {e}", cfg.addr)))?;
        let mut loopback = listener
            .local_addr()
            .map_err(|e| PipelineError::Data(format!("serve: local_addr: {e}")))?;
        if loopback.ip().is_unspecified() {
            loopback.set_ip(match loopback {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let registry = Registry::new();
        let state = Arc::new(State {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            control: Mutex::new(0),
            control_wake: Condvar::new(),
            draining: AtomicBool::new(false),
            loopback,
            conns: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            submit_seq: AtomicU64::new(0),
            accepted: registry.counter("inet_jobs_accepted_total", &[]),
            rejected: registry.counter("inet_jobs_rejected_total", &[]),
            completed: registry.counter("inet_jobs_completed_total", &[]),
            failed: registry.counter("inet_jobs_failed_total", &[]),
            registry,
        });
        Ok(Service { listener, state })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> Result<SocketAddr, PipelineError> {
        self.listener
            .local_addr()
            .map_err(|e| PipelineError::Data(format!("serve: local_addr: {e}")))
    }

    /// The address a local client dials to reach this daemon: the bound
    /// address, with an unspecified IP (`0.0.0.0`, `::`) replaced by
    /// loopback.
    pub fn loopback_addr(&self) -> SocketAddr {
        self.state.loopback
    }

    /// Runs the daemon: crash-recovery scan, worker pool, then the accept
    /// loop until a drain trigger fires. Returns how the drain ended; the
    /// CLI maps that onto exit 0 / exit 6.
    pub fn run(self) -> Result<ServeExit, PipelineError> {
        let state = self.state;
        let recovered = recover(&state);
        if recovered > 0 {
            state.log(&format!(
                "recovered {recovered} interrupted job(s) from {}",
                state.cfg.runs_dir.display()
            ));
        }
        let mut workers = Vec::new();
        for w in 0..state.cfg.workers.max(1) {
            let st = Arc::clone(&state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("inet-serve-worker-{w}"))
                    .spawn(move || worker_loop(&st))
                    .map_err(|e| PipelineError::Data(format!("serve: spawn worker: {e}")))?,
            );
        }

        // Accept loop. `accept` blocks; [`State::drain`] wakes it with one
        // loopback connection, which is served like any other and reads
        // as a closed request.
        while !state.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let seq = state.conn_seq.fetch_add(1, Ordering::SeqCst);
                    let st = Arc::clone(&state);
                    // Counted on the accept thread, before the handler can
                    // possibly run, so the drain linger below never misses
                    // a connection that was accepted but not yet scheduled.
                    state.conns.fetch_add(1, Ordering::SeqCst);
                    let spawned = std::thread::Builder::new()
                        .name(format!("inet-serve-conn-{seq}"))
                        .spawn(move || {
                            // Per-connection panic fence: a bug (or an
                            // injected panic) in one handler must never
                            // take the daemon down.
                            let _ = PanicFence::run(|| {
                                handle_connection(&st, stream, seq);
                            });
                            st.conns.fetch_sub(1, Ordering::SeqCst);
                            st.notify_control();
                        });
                    if let Err(e) = spawned {
                        state.conns.fetch_sub(1, Ordering::SeqCst);
                        state.log(&format!("cannot spawn connection thread: {e}"));
                    }
                }
                Err(e) => {
                    // Transient accept failure (EMFILE, ECONNABORTED...):
                    // log and keep serving, after a short pause so a
                    // persistent error cannot spin the loop.
                    state.log(&format!("accept error: {e}"));
                    std::thread::sleep(Duration::from_millis(15));
                }
            }
        }
        drop(self.listener);
        state.log("draining: admission stopped, waiting for in-flight jobs");

        let drain_deadline = Deadline::after_millis(state.cfg.drain_timeout_ms);
        let timed_out = !state.wait_for(drain_deadline, || state.running() == 0);
        if timed_out {
            state.log(&format!(
                "drain timeout after {} ms: cancelling {} in-flight job(s) \
                 (progress is checkpointed; they resume on restart)",
                state.cfg.drain_timeout_ms,
                state.running()
            ));
            for job in lock(&state.jobs).values() {
                if let Some(token) = &job.cancel {
                    token.cancel();
                }
            }
        }
        // After a forced cancel the workers still need a moment to unwind
        // cooperatively; join covers both paths.
        for handle in workers {
            let _ = handle.join();
        }
        // Linger (bounded) for in-flight connection handlers — above all
        // the one whose `drain` request triggered this shutdown: exiting
        // before its response line is flushed would sever the very reply
        // that reports the drain succeeded. Stalled clients cannot hold
        // the exit hostage past their socket timeouts.
        let linger = Deadline::after_millis(state.cfg.read_timeout_ms.saturating_mul(2).max(250));
        state.wait_for(linger, || state.conns.load(Ordering::SeqCst) == 0);
        let left = lock(&state.queue).len();
        if left > 0 {
            state.log(&format!(
                "{left} queued job(s) stay journaled and resume on the next 'inet serve'"
            ));
        }
        state.log(if timed_out {
            "drain timed out (exit 6)"
        } else {
            "drain complete (exit 0)"
        });
        Ok(if timed_out {
            ServeExit::DrainTimeout
        } else {
            ServeExit::Clean
        })
    }
}

/// The crash-recovery scan: every run whose journal holds a `job` record
/// is a service job, in the state of its last intact one. Non-terminal
/// (`accepted`) jobs are re-enqueued in sorted order; terminal ones are
/// loaded so `status` and `result` keep answering across daemon restarts.
/// Runs before any worker starts. Returns how many jobs were re-enqueued.
fn recover(state: &State) -> usize {
    for run in scan_runs(&state.cfg.runs_dir).runs {
        let Some(rec) = run.job else { continue };
        let phase = match rec.state.as_str() {
            "done" => Phase::Done,
            "failed" => Phase::Failed,
            "deadline" => Phase::Deadline,
            "cancelled" => Phase::Cancelled,
            _ => Phase::Queued,
        };
        let mut job = Job {
            phase: Some(phase),
            attempts: rec.attempts,
            deadline_ms: rec.deadline_ms,
            error: rec.error,
            ..Job::default()
        };
        if phase == Phase::Queued {
            // `accepted`: interrupted, so resume it. An interrupted attempt
            // must not burn the retry budget.
            job.attempts = 0;
            job.queued_at = Some(std::time::Instant::now());
            lock(&state.queue).push_back(run.id.clone());
        }
        lock(&state.jobs).insert(run.id, job);
    }
    lock(&state.queue).len()
}

/// One worker: pop → execute → classify, until drain.
fn worker_loop(state: &Arc<State>) {
    loop {
        let id = {
            let mut q = lock(&state.queue);
            loop {
                if state.draining() {
                    return;
                }
                if let Some(id) = q.pop_front() {
                    break id;
                }
                // Pushes and the drain flag change only under this lock,
                // and each is notified, so this unbounded wait misses none.
                q = state.wake.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        run_job(state, &id);
    }
}

/// Executes one job with the worker failpoint and a panic fence around
/// the whole attempt. Infrastructure faults (failpoint, panic, a failed
/// run-store write) retry up to [`ServiceConfig::retry`]'s attempt budget
/// with its deterministic capped backoff; scenario errors, unreadable
/// input included, fail the job with its message; interruptions are
/// classified by their cause (deadline, cancel, drain).
fn run_job(state: &Arc<State>, id: &str) {
    let (attempt, queued_at) = {
        let mut jobs = lock(&state.jobs);
        let job = jobs.entry(id.to_string()).or_default();
        if job.phase() != Phase::Queued {
            return; // cancelled while queued
        }
        job.phase = Some(Phase::Running);
        job.deadline_at = job.deadline_ms.map(Deadline::after_millis);
        job.cancel = Some(CancelToken::expiring(job.deadline_at));
        job.attempts += 1;
        (job.attempts - 1, job.queued_at.take())
    };
    if let Some(at) = queued_at {
        state
            .registry
            .histogram("inet_job_queue_wait_ms", &[])
            .observe(at.elapsed().as_millis() as u64);
    }
    let run_started = std::time::Instant::now();
    let outcome = run_fenced(&Task::new("service.worker", attempt), || {
        inet_fault::check("service.worker", attempt)
            .map_err(|e| PipelineError::Stage(format!("worker: {e}")))?;
        execute(state, id)
    });
    // Per-attempt wall time, whatever the outcome.
    state
        .registry
        .histogram("inet_job_run_ms", &[])
        .observe(run_started.elapsed().as_millis() as u64);
    let retryable_error = match outcome {
        // Counters move before the phase: a poller that sees the terminal
        // phase must also see it counted.
        Ok(Ok(())) => {
            state.completed.inc();
            state.set_phase(id, Phase::Done, "");
            state.log(&format!("job {id}: done"));
            return;
        }
        Ok(Err(PipelineError::Interrupted(_))) => {
            let (deadline_passed, cancel_requested) = {
                let jobs = lock(&state.jobs);
                let job = jobs.get(id);
                (
                    job.and_then(|j| j.deadline_at)
                        .is_some_and(|d| d.is_expired()),
                    job.is_some_and(|j| j.cancel_requested),
                )
            };
            if deadline_passed {
                state.failed.inc();
                state.set_phase(id, Phase::Deadline, "deadline exceeded; job cancelled");
                state.log(&format!("job {id}: deadline exceeded"));
            } else if cancel_requested {
                state.set_phase(id, Phase::Cancelled, "cancelled by request");
                state.log(&format!("job {id}: cancelled"));
            } else {
                // Drain (or a spurious interruption): back to accepted on
                // disk; the next incarnation's recovery scan resumes it.
                state.set_phase(id, Phase::Queued, "");
                state.log(&format!("job {id}: interrupted; resumes on restart"));
            }
            return;
        }
        Ok(Err(PipelineError::Stage(msg))) if msg.starts_with("worker:") => Some(msg),
        // The journal holds everything committed before the failed write,
        // so another attempt resumes the run rather than repeating it.
        Ok(Err(PipelineError::Store(msg))) => Some(msg),
        Ok(Err(e)) => {
            // A real pipeline failure: deterministic, so retrying cannot
            // help — record it and inform the next status/result poll.
            state.failed.inc();
            state.set_phase(id, Phase::Failed, e.message());
            state.log(&format!("job {id}: failed: {}", e.message()));
            return;
        }
        // An `exec.task` fault injected at the fence boundary: same
        // infrastructure-failure class as the worker failpoint.
        Err(TaskError::Fault(e)) => Some(format!("worker: {e}")),
        Err(TaskError::Panicked(msg)) => Some(format!("worker panicked: {msg}")),
    };
    if let Some(msg) = retryable_error {
        let max_attempts = u64::from(state.cfg.retry.attempts.max(1));
        let attempts = lock(&state.jobs)
            .get(id)
            .map(|j| j.attempts)
            .unwrap_or(max_attempts);
        if attempts >= max_attempts {
            state.failed.inc();
            state.set_phase(
                id,
                Phase::Failed,
                &format!("{msg} ({attempts} attempts exhausted)"),
            );
            state.log(&format!(
                "job {id}: failed after {attempts} attempts: {msg}"
            ));
        } else {
            // Deterministic capped backoff before the requeue, so a flapping
            // dependency is not hammered by back-to-back retries.
            state.cfg.retry.pause((attempts - 1) as u32);
            state.set_phase(id, Phase::Queued, "");
            if let Some(job) = lock(&state.jobs).get_mut(id) {
                job.queued_at = Some(std::time::Instant::now());
            }
            lock(&state.queue).push_back(id.to_string());
            state.wake.notify_one();
            state.log(&format!(
                "job {id}: attempt {attempts} hit '{msg}'; requeued"
            ));
        }
    }
}

/// Opens the job's run store, re-parses its stored scenario + overrides,
/// and executes it with the job's cancel token. Fresh submissions and
/// recovered jobs take exactly the same path — `run_scenario_with`
/// replays whatever the journal already committed.
fn execute(state: &Arc<State>, id: &str) -> Result<(), PipelineError> {
    let store = RunStore::open(&state.cfg.runs_dir, id)?;
    let mut scenario = Scenario::parse_with_overrides(store.scenario_text(), store.overrides())?;
    if scenario.threads.is_none() {
        scenario.threads = state.cfg.job_threads;
    }
    let cancel = lock(&state.jobs)
        .get(id)
        .and_then(|j| j.cancel.clone())
        .unwrap_or_default();
    run_scenario_with(
        &scenario,
        &ExecOptions {
            cancel,
            store: Some(store),
        },
    )
    .map(|_| ())
}

// ---------------------------------------------------------------------
// Protocol: connection handling, request parsing, command dispatch.

enum ReadLine {
    Line(String),
    TooLarge,
    TimedOut,
    Closed,
}

/// Reads one `\n`-terminated request line, bounded by
/// `max_request_bytes`; the socket's read timeout bounds stalls.
fn read_request(stream: &mut TcpStream, max: usize) -> ReadLine {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadLine::Closed
                } else {
                    // EOF without a newline still frames the request.
                    ReadLine::Line(String::from_utf8_lossy(&buf).into_owned())
                };
            }
            Ok(n) => {
                if let Some(pos) = chunk[..n].iter().position(|b| *b == b'\n') {
                    buf.extend_from_slice(&chunk[..pos]);
                    if buf.len() > max {
                        return ReadLine::TooLarge;
                    }
                    return ReadLine::Line(String::from_utf8_lossy(&buf).into_owned());
                }
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > max {
                    // Drain what the client already has in flight before
                    // answering: closing with unread data queued provokes
                    // a TCP reset that would destroy the error response.
                    drain_excess(stream, max);
                    return ReadLine::TooLarge;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return ReadLine::TimedOut;
            }
            Err(_) => return ReadLine::Closed,
        }
    }
}

/// Discards the tail of an oversized request up to the end of its line
/// (or EOF), so the rejection response survives delivery. Hard-bounded:
/// a client streaming garbage forever stops being read after 8× the
/// request cap, response delivery be damned.
fn drain_excess(stream: &mut TcpStream, max: usize) {
    let mut chunk = [0u8; 4096];
    let mut drained = 0usize;
    while drained <= max.saturating_mul(8) {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if chunk[..n].contains(&b'\n') {
                    return;
                }
                drained += n;
            }
            Err(_) => return,
        }
    }
}

fn error_response(msg: &str) -> String {
    format!(r#"{{"status":"error","error":"{}"}}"#, escape_json(msg))
}

/// Serves one connection: one bounded request line in, one response line
/// out. Every failure mode a client can trigger — oversized request,
/// stall, malformed JSON, unknown command — produces a structured error
/// on this connection's own thread.
fn handle_connection(state: &Arc<State>, mut stream: TcpStream, seq: u64) {
    let timeout = Some(Duration::from_millis(state.cfg.read_timeout_ms.max(1)));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    // The accept failpoint is checked on the connection's own thread with
    // panic containment, so even a Panic action yields a structured error
    // response instead of a silently dropped connection.
    let response = match inet_fault::check_contained("service.accept", seq) {
        Err(e) => {
            // Consume the client's pending request before answering:
            // closing a socket with unread data provokes an RST that
            // destroys the queued error response on many stacks.
            let _ = read_request(&mut stream, state.cfg.max_request_bytes);
            error_response(&e.to_string())
        }
        Ok(()) => match read_request(&mut stream, state.cfg.max_request_bytes) {
            ReadLine::Closed => return,
            ReadLine::TooLarge => error_response(&format!(
                "request too large (over {} bytes)",
                state.cfg.max_request_bytes
            )),
            ReadLine::TimedOut => error_response(&format!(
                "read timeout after {} ms",
                state.cfg.read_timeout_ms
            )),
            ReadLine::Line(line) => match parse_flat(&line) {
                None => error_response("malformed request: expected one flat JSON object per line"),
                Some(req) => dispatch(state, &req),
            },
        },
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

fn dispatch(state: &Arc<State>, req: &BTreeMap<String, JsonVal>) -> String {
    match req.get("cmd").and_then(JsonVal::as_str) {
        Some("submit") => submit(state, req),
        Some("status") => status(state, req),
        Some("result") => result(state, req),
        Some("cancel") => cancel(state, req),
        Some("stats") => stats(state),
        Some("metrics") => metrics(state),
        Some("drain") => {
            state.drain();
            r#"{"status":"ok","draining":1}"#.to_string()
        }
        Some(other) => error_response(&format!(
            "unknown command '{other}' (expected submit/status/result/cancel/stats/metrics/drain)"
        )),
        None => error_response("missing 'cmd'"),
    }
}

fn rejected_response(state: &Arc<State>, msg: &str) -> String {
    state.rejected.inc();
    format!(
        r#"{{"status":"rejected","error":"{}","retry_after_ms":{}}}"#,
        escape_json(msg),
        state.retry_after_ms()
    )
}

/// Admission control. A submission is **accepted** only after (in order):
/// drain check, queue-capacity check, the `service.queue` failpoint, full
/// scenario validation, sink preflight, run-store creation, and the
/// `job accepted` journal append — so every accepted job is already
/// journaled, and everything that fails any of those gates gets an
/// explicit rejection/error response.
fn submit(state: &Arc<State>, req: &BTreeMap<String, JsonVal>) -> String {
    if state.draining() {
        return rejected_response(state, "draining; not admitting new jobs");
    }
    {
        let q = lock(&state.queue);
        if q.len() >= state.cfg.queue_capacity {
            let msg = format!("queue full ({} of {})", q.len(), state.cfg.queue_capacity);
            drop(q);
            return rejected_response(state, &msg);
        }
    }
    let admission = state.submit_seq.fetch_add(1, Ordering::SeqCst);
    if let Err(e) = inet_fault::check_contained("service.queue", admission) {
        return rejected_response(state, &e.to_string());
    }
    let Some(text) = req.get("scenario").and_then(JsonVal::as_str) else {
        return error_response("submit: missing 'scenario' (the TOML text)");
    };
    let sets: Vec<String> = match req.get("sets") {
        Some(JsonVal::Arr(items)) => items.clone(),
        Some(_) => return error_response("submit: 'sets' must be an array of strings"),
        None => Vec::new(),
    };
    let deadline_ms = match req.get("deadline_ms") {
        Some(v) => match v.as_int().and_then(|x| u64::try_from(x).ok()) {
            Some(ms) => Some(ms),
            None => return error_response("submit: 'deadline_ms' must be a non-negative integer"),
        },
        None => state.cfg.default_deadline_ms,
    };
    let scenario = match Scenario::parse_with_overrides(text, &sets) {
        Ok(s) => s,
        Err(e) => return error_response(&format!("submit: {}", e.message())),
    };
    if let Err(e) = report::preflight(&scenario) {
        return error_response(&format!("submit: {}", e.message()));
    }
    let path = req
        .get("path")
        .and_then(JsonVal::as_str)
        .unwrap_or("<submitted>");
    let store = match RunStore::create(&state.cfg.runs_dir, &scenario.name, text, path, &sets) {
        Ok(st) => st,
        Err(e) => return error_response(&format!("submit: {}", e.message())),
    };
    let id = store.id().to_string();
    let position = {
        let job = Job {
            phase: Some(Phase::Queued),
            deadline_ms,
            queued_at: Some(std::time::Instant::now()),
            ..Job::default()
        };
        if let Err(e) = store.append_job(&job.record()) {
            store.discard();
            return error_response(&format!("submit: {}", e.message()));
        }
        lock(&state.jobs).insert(id.clone(), job);
        let mut q = lock(&state.queue);
        q.push_back(id.clone());
        q.len()
    };
    state.wake.notify_one();
    state.accepted.inc();
    state.log(&format!("job {id}: accepted (queue position {position})"));
    format!(
        r#"{{"status":"accepted","job":"{}","position":{position}}}"#,
        escape_json(&id)
    )
}

fn job_or_error<'j>(
    jobs: &'j BTreeMap<String, Job>,
    req: &BTreeMap<String, JsonVal>,
) -> Result<(&'j str, &'j Job), String> {
    let Some(id) = req.get("job").and_then(JsonVal::as_str) else {
        return Err(error_response("missing 'job'"));
    };
    match jobs.get_key_value(id) {
        Some((id, job)) => Ok((id, job)),
        None => Err(error_response(&format!(
            "unknown job '{id}' (it may belong to a different --runs-dir)"
        ))),
    }
}

fn status(state: &Arc<State>, req: &BTreeMap<String, JsonVal>) -> String {
    // Optional long-poll: with `wait_ms` the connection parks on the
    // control condvar until the job goes terminal or the wait (capped at
    // 30 s) elapses — no busy polling on either side of the socket.
    let wait = Deadline::after_millis(
        req.get("wait_ms")
            .and_then(JsonVal::as_int)
            .and_then(|x| u64::try_from(x).ok())
            .unwrap_or(0)
            .min(30_000),
    );
    state.wait_for(wait, || {
        job_or_error(&lock(&state.jobs), req).map_or(true, |(_, job)| {
            !matches!(job.phase(), Phase::Queued | Phase::Running)
        })
    });
    let jobs = lock(&state.jobs);
    let (id, job) = match job_or_error(&jobs, req) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let mut out = format!(
        r#"{{"status":"{}","job":"{}","attempts":{}"#,
        job.phase().as_str(),
        escape_json(id),
        job.attempts
    );
    if job.phase() == Phase::Queued {
        if let Some(pos) = lock(&state.queue).iter().position(|q| q == id) {
            let _ = write!(out, r#","position":{}"#, pos + 1);
        }
    }
    if !job.error.is_empty() {
        let _ = write!(out, r#","error":"{}""#, escape_json(&job.error));
    }
    out.push('}');
    out
}

fn result(state: &Arc<State>, req: &BTreeMap<String, JsonVal>) -> String {
    let (id, phase, error) = {
        let jobs = lock(&state.jobs);
        match job_or_error(&jobs, req) {
            Ok((id, job)) => (id.to_string(), job.phase(), job.error.clone()),
            Err(resp) => return resp,
        }
    };
    match phase {
        Phase::Done => {}
        Phase::Queued | Phase::Running => {
            return format!(
                r#"{{"status":"{}","job":"{}","error":"job not finished; poll status"}}"#,
                phase.as_str(),
                escape_json(&id)
            )
        }
        Phase::Failed | Phase::Deadline | Phase::Cancelled => {
            return format!(
                r#"{{"status":"{}","job":"{}","error":"{}"}}"#,
                phase.as_str(),
                escape_json(&id),
                escape_json(&error)
            )
        }
    }
    // The summary is the stage-3 artifact, checksum-verified by the store.
    let summary = RunStore::open(&state.cfg.runs_dir, &id)
        .and_then(|store| {
            let committed = store.committed();
            let rec = committed
                .get(3)
                .and_then(|r| r.as_ref())
                .cloned()
                .ok_or_else(|| {
                    PipelineError::Data(format!("job {id}: summary artifact not committed"))
                })?;
            store.load_artifact(&rec)
        })
        .map(|bytes| String::from_utf8_lossy(&bytes).into_owned());
    match summary {
        Ok(text) => format!(
            r#"{{"status":"done","job":"{}","summary":"{}"}}"#,
            escape_json(&id),
            escape_json(&text)
        ),
        Err(e) => error_response(e.message()),
    }
}

fn cancel(state: &Arc<State>, req: &BTreeMap<String, JsonVal>) -> String {
    let mut jobs = lock(&state.jobs);
    let Some(id) = req.get("job").and_then(JsonVal::as_str) else {
        return error_response("missing 'job'");
    };
    let Some(job) = jobs.get_mut(id) else {
        return error_response(&format!("unknown job '{id}'"));
    };
    let id = id.to_string();
    match job.phase() {
        Phase::Queued => {
            job.phase = Some(Phase::Cancelled);
            job.error = "cancelled by request".to_string();
            state.persist(&id, job);
            lock(&state.queue).retain(|q| *q != id);
            // Terminal transition outside set_phase: wake long-pollers.
            state.notify_control();
            format!(
                r#"{{"status":"ok","job":"{}","note":"unqueued"}}"#,
                escape_json(&id)
            )
        }
        Phase::Running => {
            job.cancel_requested = true;
            if let Some(token) = &job.cancel {
                token.cancel();
            }
            format!(
                r#"{{"status":"ok","job":"{}","note":"cancellation requested"}}"#,
                escape_json(&id)
            )
        }
        phase => format!(
            r#"{{"status":"ok","job":"{}","note":"already {}"}}"#,
            escape_json(&id),
            phase.as_str()
        ),
    }
}

fn stats(state: &Arc<State>) -> String {
    let queued = lock(&state.queue).len();
    let running = state.running();
    format!(
        r#"{{"status":"ok","queued":{queued},"running":{running},"capacity":{},"workers":{},"accepted":{},"rejected":{},"completed":{},"failed":{},"draining":{}}}"#,
        state.cfg.queue_capacity,
        state.cfg.workers,
        state.accepted.value(),
        state.rejected.value(),
        state.completed.value(),
        state.failed.value(),
        u8::from(state.draining())
    )
}

/// The `metrics` command: Prometheus text exposition of the daemon's own
/// registry (job counters, queue-wait/run-time histograms) followed by the
/// process-wide default registry (task latency, retries, sweep cells).
/// The exposition travels as an escaped JSON string because the protocol
/// is one line per response; `inet job metrics` unescapes and prints it.
fn metrics(state: &Arc<State>) -> String {
    let queued = lock(&state.queue).len();
    let running = state.running();
    state
        .registry
        .gauge("inet_jobs_queued", &[])
        .set(queued as i64);
    state
        .registry
        .gauge("inet_jobs_running", &[])
        .set(running as i64);
    let expo =
        render_prometheus(&state.registry) + &render_prometheus(inet_obs::default_registry());
    format!(
        r#"{{"status":"ok","queued":{queued},"running":{running},"metrics":"{}"}}"#,
        escape_json(&expo)
    )
}

// ---------------------------------------------------------------------
// Client helpers: the CLI's submit/status/result subcommands and the
// tests speak the protocol through these.

/// Sends one request line to a daemon and returns its one-line response.
pub fn request(addr: &str, line: &str, timeout_ms: u64) -> Result<String, PipelineError> {
    let target = addr
        .to_socket_addrs()
        .map_err(|e| PipelineError::Data(format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| PipelineError::Data(format!("{addr}: no address")))?;
    let mut stream = TcpStream::connect_timeout(&target, Duration::from_millis(timeout_ms))
        .map_err(|e| PipelineError::Data(format!("cannot reach daemon at {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(timeout_ms)));
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| PipelineError::Data(format!("{addr}: send: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| PipelineError::Data(format!("{addr}: no response: {e}")))?;
    let line = response.lines().next().unwrap_or_default().to_string();
    if line.is_empty() {
        return Err(PipelineError::Data(format!(
            "{addr}: daemon closed the connection without a response"
        )));
    }
    Ok(line)
}

/// Extracts one field of a one-line protocol response; integers are
/// rendered in decimal. `None` when the response is not a flat JSON
/// object or lacks the key.
pub fn response_field(response: &str, key: &str) -> Option<String> {
    match parse_flat(response)?.remove(key)? {
        JsonVal::Str(s) => Some(s),
        JsonVal::Int(v) => Some(v.to_string()),
        JsonVal::Arr(items) => Some(items.join(",")),
    }
}

/// Builds a `submit` request line from a scenario document.
pub fn encode_submit(
    scenario_text: &str,
    path: &str,
    sets: &[String],
    deadline_ms: Option<u64>,
) -> String {
    let mut line = format!(
        r#"{{"cmd":"submit","scenario":"{}","path":"{}""#,
        escape_json(scenario_text),
        escape_json(path)
    );
    if !sets.is_empty() {
        let encoded: Vec<String> = sets
            .iter()
            .map(|s| format!("\"{}\"", escape_json(s)))
            .collect();
        let _ = write!(line, r#","sets":[{}]"#, encoded.join(","));
    }
    if let Some(ms) = deadline_ms {
        let _ = write!(line, r#","deadline_ms":{ms}"#);
    }
    line.push('}');
    line
}

/// Builds a job-addressed request line (`status`, `result`, `cancel`) or
/// a bare command (`stats`, `drain`).
pub fn encode_cmd(cmd: &str, job: Option<&str>) -> String {
    match job {
        Some(id) => format!(
            r#"{{"cmd":"{}","job":"{}"}}"#,
            escape_json(cmd),
            escape_json(id)
        ),
        None => format!(r#"{{"cmd":"{}"}}"#, escape_json(cmd)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_exec::durable;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("inet_service_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_config(runs: PathBuf) -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 4,
            runs_dir: runs,
            read_timeout_ms: 500,
            drain_timeout_ms: 10_000,
            quiet: true,
            ..ServiceConfig::default()
        }
    }

    /// Starts a daemon on an ephemeral port; returns its address and the
    /// run() join handle.
    fn start(
        cfg: ServiceConfig,
    ) -> (
        String,
        std::thread::JoinHandle<Result<ServeExit, PipelineError>>,
    ) {
        let service = Service::bind(cfg).unwrap();
        let addr = service.local_addr().unwrap().to_string();
        (addr, std::thread::spawn(move || service.run()))
    }

    const TINY: &str = "[generator]\nmodel = \"ba\"\nn = 60\nseed = 7\n\
                        [measure]\nmetrics = [\"degree\"]\n";

    /// Waits for a job to leave queued/running via the status long-poll:
    /// the daemon parks each request on its control condvar (up to 1 s per
    /// round), so this helper makes a handful of requests instead of
    /// sleep-polling. Returns the final status response.
    fn poll_terminal(addr: &str, id: &str) -> String {
        for _ in 0..12 {
            let line = format!(r#"{{"cmd":"status","job":"{id}","wait_ms":1000}}"#);
            let resp = request(addr, &line, 5_000).unwrap();
            if !matches!(
                response_field(&resp, "status").unwrap().as_str(),
                "queued" | "running"
            ) {
                return resp;
            }
        }
        panic!("job {id} never finished");
    }

    fn poll_done(addr: &str, id: &str) {
        let resp = poll_terminal(addr, id);
        assert_eq!(
            response_field(&resp, "status").as_deref(),
            Some("done"),
            "job {id}: {resp}"
        );
    }

    fn submit_tiny(state: &Arc<State>) -> String {
        submit(
            state,
            &parse_flat(&encode_submit(TINY, "t.toml", &[], None)).unwrap(),
        )
    }

    /// The summary the served `tiny` job must produce: a direct run's.
    fn tiny_summary() -> String {
        crate::run::run_scenario(&Scenario::parse(TINY).unwrap())
            .unwrap()
            .summary
    }

    /// An input that cannot be read is the scenario's own fault, not the
    /// store's: the job fails on its first attempt, with no retry.
    #[test]
    fn an_unreadable_input_fails_without_a_retry() {
        let _lock = crate::test_lock();
        let dir = temp_dir("unreadable_input");
        let (addr, handle) = start(test_config(dir.join("runs")));
        let missing = dir.join("missing.edges");
        let text = format!("[input]\npath = {:?}\n", missing.display().to_string());
        let resp = request(&addr, &encode_submit(&text, "in.toml", &[], None), 2_000).unwrap();
        let id = response_field(&resp, "job").unwrap();
        let resp = poll_terminal(&addr, &id);
        assert_eq!(
            response_field(&resp, "status").as_deref(),
            Some("failed"),
            "{resp}"
        );
        assert_eq!(
            response_field(&resp, "attempts").as_deref(),
            Some("1"),
            "{resp}"
        );
        request(&addr, &encode_cmd("drain", None), 2_000).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_status_result_round_trip_matches_a_direct_run() {
        let _lock = crate::test_lock();
        let dir = temp_dir("roundtrip");
        let (addr, handle) = start(test_config(dir.join("runs")));
        let resp = request(&addr, &encode_submit(TINY, "tiny.toml", &[], None), 2_000).unwrap();
        assert_eq!(
            response_field(&resp, "status").as_deref(),
            Some("accepted"),
            "{resp}"
        );
        let id = response_field(&resp, "job").unwrap();
        poll_done(&addr, &id);
        let resp = request(&addr, &encode_cmd("result", Some(&id)), 2_000).unwrap();
        let summary = response_field(&resp, "summary").unwrap();
        assert_eq!(
            summary,
            tiny_summary(),
            "served summary must be bit-identical"
        );
        // `result` only reads the journal: a torn tail changes neither the
        // answer nor the journal's bytes.
        let journal = dir
            .join("runs")
            .join(&id)
            .join(crate::runstore::JOURNAL_FILE);
        let mut torn = std::fs::read(&journal).unwrap();
        torn.extend_from_slice(b"commit\t3\trep");
        std::fs::write(&journal, &torn).unwrap();
        let again = request(&addr, &encode_cmd("result", Some(&id)), 2_000).unwrap();
        assert_eq!(again, resp);
        assert_eq!(std::fs::read(&journal).unwrap(), torn);
        // Stats counted the job; drain exits clean.
        let stats = request(&addr, &encode_cmd("stats", None), 2_000).unwrap();
        assert_eq!(
            response_field(&stats, "completed").as_deref(),
            Some("1"),
            "{stats}"
        );
        request(&addr, &encode_cmd("drain", None), 2_000).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), ServeExit::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_command_serves_valid_exposition_agreeing_with_stats() {
        let _lock = crate::test_lock();
        let dir = temp_dir("metrics");
        let (addr, handle) = start(test_config(dir.join("runs")));
        let resp = request(&addr, &encode_submit(TINY, "tiny.toml", &[], None), 2_000).unwrap();
        let id = response_field(&resp, "job").unwrap();
        poll_done(&addr, &id);
        let resp = request(&addr, &encode_cmd("metrics", None), 2_000).unwrap();
        assert_eq!(
            response_field(&resp, "status").as_deref(),
            Some("ok"),
            "{resp}"
        );
        let expo = response_field(&resp, "metrics").unwrap();
        inet_obs::validate_prometheus(&expo).unwrap();
        assert!(expo.contains("inet_jobs_accepted_total 1"), "{expo}");
        assert!(expo.contains("inet_jobs_completed_total 1"), "{expo}");
        assert!(expo.contains("inet_job_queue_wait_ms"), "{expo}");
        assert!(expo.contains("inet_job_run_ms"), "{expo}");
        // The process-wide registry rides along: the worker ran the job
        // through the fenced executor, which records task latency.
        assert!(expo.contains("inet_task_latency_us"), "{expo}");
        // stats reads the very same counters, so the two views agree.
        let stats = request(&addr, &encode_cmd("stats", None), 2_000).unwrap();
        assert_eq!(
            response_field(&stats, "completed").as_deref(),
            Some("1"),
            "{stats}"
        );
        assert_eq!(response_field(&stats, "accepted").as_deref(), Some("1"));
        request(&addr, &encode_cmd("drain", None), 2_000).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), ServeExit::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_submissions_get_structured_errors_not_jobs() {
        let _lock = crate::test_lock();
        let dir = temp_dir("invalid");
        let (addr, handle) = start(test_config(dir.join("runs")));
        // Unknown model: scenario validation rejects at admission.
        let bad = "[generator]\nmodel = \"zzz\"\nn = 60\n";
        let resp = request(&addr, &encode_submit(bad, "bad.toml", &[], None), 2_000).unwrap();
        assert_eq!(
            response_field(&resp, "status").as_deref(),
            Some("error"),
            "{resp}"
        );
        assert!(response_field(&resp, "error")
            .unwrap()
            .contains("unknown model"));
        // Missing scenario text.
        let resp = request(&addr, r#"{"cmd":"submit"}"#, 2_000).unwrap();
        assert!(response_field(&resp, "error")
            .unwrap()
            .contains("missing 'scenario'"));
        // Unknown job id.
        let resp = request(&addr, &encode_cmd("status", Some("nope-1234")), 2_000).unwrap();
        assert!(response_field(&resp, "error")
            .unwrap()
            .contains("unknown job"));
        // Unknown command.
        let resp = request(&addr, r#"{"cmd":"frobnicate"}"#, 2_000).unwrap();
        assert!(response_field(&resp, "error")
            .unwrap()
            .contains("unknown command"));
        // Nothing was admitted.
        let stats = request(&addr, &encode_cmd("stats", None), 2_000).unwrap();
        assert_eq!(
            response_field(&stats, "accepted").as_deref(),
            Some("0"),
            "{stats}"
        );
        request(&addr, &encode_cmd("drain", None), 2_000).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), ServeExit::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_daemon_rejects_new_submissions() {
        let _lock = crate::test_lock();
        let dir = temp_dir("drainreject");
        let cfg = test_config(dir.join("runs"));
        let service = Service::bind(cfg).unwrap();
        // Flip draining before run() so the accept loop exits immediately;
        // the admission path must still answer an in-flight connection.
        service.state.draining.store(true, Ordering::SeqCst);
        let resp = submit_tiny(&service.state);
        assert_eq!(
            response_field(&resp, "status").as_deref(),
            Some("rejected"),
            "{resp}"
        );
        assert!(response_field(&resp, "error").unwrap().contains("draining"));
        assert!(response_field(&resp, "retry_after_ms").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_capacity_rejections_carry_a_retry_hint() {
        let _lock = crate::test_lock();
        let dir = temp_dir("capacity");
        let cfg = ServiceConfig {
            queue_capacity: 2,
            ..test_config(dir.join("runs"))
        };
        let service = Service::bind(cfg).unwrap();
        // Fill the queue directly (no workers are running yet, so nothing
        // drains it) and push one more submission through admission.
        lock(&service.state.queue).push_back("a".to_string());
        lock(&service.state.queue).push_back("b".to_string());
        let resp = submit_tiny(&service.state);
        assert_eq!(
            response_field(&resp, "status").as_deref(),
            Some("rejected"),
            "{resp}"
        );
        assert!(response_field(&resp, "error")
            .unwrap()
            .contains("queue full (2 of 2)"));
        let hint: u64 = response_field(&resp, "retry_after_ms")
            .unwrap()
            .parse()
            .unwrap();
        assert!(hint >= 250, "{hint}");
        assert_eq!(service.state.rejected.value(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// No wait in the daemon has a fallback timeout, so a missed notify
    /// would hang `run()` forever. Fifty bind–submit–drain rounds with four
    /// workers turn such a hang into a failure: each `run()` must return
    /// within 5 s.
    #[test]
    fn drain_never_loses_a_wakeup() {
        let _lock = crate::test_lock();
        for round in 0..50 {
            let dir = temp_dir("wakeup");
            let (addr, handle) = start(ServiceConfig {
                workers: 4,
                ..test_config(dir.join("runs"))
            });
            let (done, exited) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = done.send(handle.join());
            });
            if round % 2 == 0 {
                let resp = request(&addr, &encode_submit(TINY, "t.toml", &[], None), 2_000);
                assert!(resp.unwrap().contains("accepted"), "round {round}");
            }
            request(&addr, &encode_cmd("drain", None), 2_000).unwrap();
            let exit = exited
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("round {round}: run() still blocked 5 s after drain"));
            assert_eq!(exit.unwrap().unwrap(), ServeExit::Clean, "round {round}");
        }
        let _ = std::fs::remove_dir_all(temp_dir("wakeup"));
    }

    #[test]
    fn accepted_job_from_a_crashed_daemon_is_recovered_and_completed() {
        let _lock = crate::test_lock();
        let dir = temp_dir("recover");
        let runs = dir.join("runs");
        // A daemon that crashed right after admission: the run store and
        // its `job accepted` record exist, but nothing ran.
        let store = RunStore::create(&runs, "tiny", TINY, "tiny.toml", &[]).unwrap();
        store.append_job(&Job::default().record()).unwrap();
        let (addr, handle) = start(test_config(runs));
        poll_done(&addr, store.id());
        let resp = request(&addr, &encode_cmd("result", Some(store.id())), 2_000).unwrap();
        assert_eq!(
            response_field(&resp, "summary").unwrap(),
            tiny_summary(),
            "recovered job summary must match a clean run"
        );
        request(&addr, &encode_cmd("drain", None), 2_000).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), ServeExit::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Admission is the run directory's fsync, the manifest's atomic write
    /// (tmp write, rename, directory fsync) and the append that creates
    /// the journal (write, directory fsync): 6 durable operations, 5 of
    /// them fsyncs and 1 a rename. A phase change is one append.
    #[test]
    fn admission_costs_6_durable_operations_and_a_phase_change_1() {
        let _lock = crate::test_lock();
        let dir = temp_dir("op_counts");
        let service = Service::bind(test_config(dir.join("runs"))).unwrap();
        let base = durable::ops();
        let resp = submit_tiny(&service.state);
        assert_eq!(durable::ops() - base, 6, "{resp}");
        let id = response_field(&resp, "job").unwrap();
        let base = durable::ops();
        service.state.set_phase(&id, Phase::Done, "");
        assert_eq!(durable::ops() - base, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash mid-append leaves a torn fragment at the end of a queued
    /// job's journal. Cancelling the recovered job must cut it before
    /// appending, or the `cancelled` record is glued onto the fragment and
    /// lost, and the next daemon runs a cancelled job.
    #[test]
    fn cancel_after_a_torn_tail_survives_a_restart() {
        let _lock = crate::test_lock();
        let dir = temp_dir("torn_cancel");
        let runs = dir.join("runs");
        let store = RunStore::create(&runs, "tiny", TINY, "tiny.toml", &[]).unwrap();
        store.append_job(&Job::default().record()).unwrap();
        let journal = store.path(crate::runstore::JOURNAL_FILE);
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(b"job\tdone\t1\t-");
        std::fs::write(&journal, bytes).unwrap();
        // Recovery without workers, so the job stays queued.
        let recovered = || {
            let service = Service::bind(test_config(runs.clone())).unwrap();
            assert_eq!(recover(&service.state), 1);
            service
        };
        let first = recovered();
        let req = |cmd| parse_flat(&encode_cmd(cmd, Some(store.id()))).unwrap();
        let resp = cancel(&first.state, &req("cancel"));
        assert!(resp.contains("unqueued"), "{resp}");
        let second = Service::bind(test_config(runs.clone())).unwrap();
        assert_eq!(recover(&second.state), 0);
        let resp = status(&second.state, &req("status"));
        assert_eq!(
            response_field(&resp, "status").as_deref(),
            Some("cancelled"),
            "{resp}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_round_trips_through_the_flat_reader() {
        let line = encode_submit("a = \"x\"\n", "p.toml", &["n=9".to_string()], Some(125));
        let obj = parse_flat(&line).unwrap();
        assert_eq!(obj.get("cmd").unwrap().as_str(), Some("submit"));
        assert_eq!(obj.get("scenario").unwrap().as_str(), Some("a = \"x\"\n"));
        assert_eq!(obj.get("deadline_ms").unwrap().as_int(), Some(125));
        assert_eq!(
            obj.get("sets"),
            Some(&JsonVal::Arr(vec!["n=9".to_string()]))
        );
        let line = encode_cmd("status", Some("id-1"));
        let obj = parse_flat(&line).unwrap();
        assert_eq!(obj.get("job").unwrap().as_str(), Some("id-1"));
    }

    #[cfg(feature = "fault-inject")]
    mod faults {
        use super::*;
        use inet_fault::{install, FaultAction, FaultPlan};

        /// Fails the `k`-th durable operation from now while `f` runs.
        fn failing_op<T>(k: u64, f: impl FnOnce() -> T) -> T {
            let _guard = install(FaultPlan::single(
                "durable.op",
                Some(durable::ops() + k),
                FaultAction::Error,
            ));
            f()
        }

        /// Operations 4 and 5 of admission are the `job accepted` append's
        /// write and its directory fsync. A submission whose append fails
        /// is refused: not queued, not counted, unknown after a restart.
        #[test]
        fn a_failed_admission_append_refuses_the_job() {
            let _lock = crate::test_lock();
            let dir = temp_dir("lost_job");
            let service = Service::bind(test_config(dir.join("runs"))).unwrap();
            for k in [4, 5] {
                let resp = failing_op(k, || submit_tiny(&service.state));
                assert_eq!(
                    response_field(&resp, "status").as_deref(),
                    Some("error"),
                    "op {k}: {resp}"
                );
                assert!(resp.contains("journal"), "op {k}: {resp}");
            }
            assert_eq!(service.state.accepted.value(), 0);
            assert!(lock(&service.state.queue).is_empty());
            assert!(lock(&service.state.jobs).is_empty());
            let restarted = Service::bind(test_config(dir.join("runs"))).unwrap();
            assert_eq!(recover(&restarted.state), 0);
            assert!(lock(&restarted.state.jobs).is_empty());
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Operation 3 of admission is the manifest's directory fsync;
        /// 4 and 5 are the `job accepted` append's write and its directory
        /// fsync. A submission refused at any of them removes the run
        /// directory it created: `runs list` shows nothing, and the next
        /// submission of the same scenario gets the unsuffixed id.
        #[test]
        fn a_refused_submission_leaves_no_run_directory() {
            let _lock = crate::test_lock();
            let dir = temp_dir("refused_dirs");
            let reference = Service::bind(test_config(dir.join("ref"))).unwrap();
            let base_id = response_field(&submit_tiny(&reference.state), "job").unwrap();
            let runs = dir.join("runs");
            let service = Service::bind(test_config(runs.clone())).unwrap();
            for k in [3, 4, 5] {
                let resp = failing_op(k, || submit_tiny(&service.state));
                assert_eq!(
                    response_field(&resp, "status").as_deref(),
                    Some("error"),
                    "op {k}: {resp}"
                );
            }
            let scan = scan_runs(&runs);
            assert!(scan.runs.is_empty(), "{:?}", scan.runs);
            assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
            let resp = submit_tiny(&service.state);
            assert_eq!(response_field(&resp, "job"), Some(base_id), "{resp}");
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Crash points of one served `tiny` job, error-return form: each
        /// durable operation of its admission, its run and its `done`
        /// record fails in turn. After a drain and a restart on the same
        /// runs directory, either the submission was refused and left no
        /// run directory, or the new daemon knows the job and it ended
        /// `done` with the fault-free summary: a failed write inside the
        /// run is retried, and the retry resumes from the journal.
        #[test]
        fn every_durable_operation_of_a_served_job_is_refused_or_recovered() {
            let _lock = crate::test_lock();
            let dir = temp_dir("served_crash_points");
            let summary = tiny_summary();
            let submit_line = encode_submit(TINY, "tiny.toml", &[], None);
            let drain = |addr: &str, handle: std::thread::JoinHandle<Result<ServeExit, _>>| {
                request(addr, &encode_cmd("drain", None), 2_000).unwrap();
                assert_eq!(handle.join().unwrap().unwrap(), ServeExit::Clean);
            };
            let (addr, handle) = start(test_config(dir.join("ref")));
            let base = durable::ops();
            let resp = request(&addr, &submit_line, 5_000).unwrap();
            poll_done(&addr, &response_field(&resp, "job").unwrap());
            let n = durable::ops() - base;
            drain(&addr, handle);
            // Admission: 6. The run, on a journal that exists: source and
            // measure each write an artifact (three steps) and commit (4),
            // the skipped attack commits (1), the report as the source
            // (4), and the telemetry append creates its log (2). The
            // `done` record: 1.
            assert_eq!(n, 6 + (4 + 4 + 1 + 4 + 2) + 1, "durable operations per job");

            for k in 0..n {
                let runs = dir.join(format!("k{k}"));
                let (addr, handle) = start(test_config(runs.clone()));
                let base = durable::ops();
                let id = failing_op(k, || {
                    let resp = request(&addr, &submit_line, 5_000).unwrap();
                    let id = response_field(&resp, "job");
                    assert_eq!(id.is_some(), resp.contains("accepted"), "op {k}: {resp}");
                    if let Some(id) = &id {
                        poll_terminal(&addr, id);
                    }
                    id
                });
                assert!(durable::ops() > base + k, "operation {k} was never reached");
                drain(&addr, handle);

                let (addr, handle) = start(test_config(runs.clone()));
                match id {
                    None => assert!(
                        scan_runs(&runs).runs.is_empty(),
                        "op {k}: a refused submission left a run directory"
                    ),
                    Some(id) => {
                        let resp = poll_terminal(&addr, &id);
                        assert_eq!(
                            response_field(&resp, "status").as_deref(),
                            Some("done"),
                            "op {k}: accepted job {id} ended as {resp}"
                        );
                        let line = encode_cmd("result", Some(&id));
                        let result = request(&addr, &line, 2_000).unwrap();
                        assert_eq!(
                            response_field(&result, "summary").as_deref(),
                            Some(summary.as_str()),
                            "op {k}"
                        );
                    }
                }
                drain(&addr, handle);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

//! Integration suite for the `inet serve` daemon: protocol robustness
//! (oversized requests, stalled clients, malformed JSON), per-job
//! deadlines, crash recovery of interrupted jobs, request latency, drains
//! by real SIGTERM and SIGINT, the `inet submit` / `inet job` round trip
//! against a one-shot run, and the headline chaos scenario — SIGKILL
//! the daemon binary mid-job and prove the restarted daemon resumes the
//! accepted job to output identical to a clean run.

use inet_suite::inet_model::obs::validate_prometheus;
use inet_suite::inet_model::pipeline::service::{
    self, encode_cmd, encode_submit, Service, ServiceConfig,
};
use inet_suite::inet_model::pipeline::{run_scenario, Scenario};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::{Duration, Instant};

mod common;
use common::Reaped;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("inet_serve_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_config(runs: PathBuf) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 8,
        runs_dir: runs,
        read_timeout_ms: 400,
        max_request_bytes: 4 * 1024,
        quiet: true,
        ..ServiceConfig::default()
    }
}

/// Binds a daemon on an ephemeral port and runs it on its own thread;
/// `drain(&addr)` shuts it down.
fn start(cfg: ServiceConfig) -> (String, std::thread::JoinHandle<()>) {
    let service = Service::bind(cfg).unwrap();
    let addr = service.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        service.run().unwrap();
    });
    (addr, handle)
}

fn drain(addr: &str) {
    service::request(addr, &encode_cmd("drain", None), 2_000).unwrap();
}

/// A scenario long enough (hundreds of checkpointed sweep cells on one
/// thread) that a kill or deadline reliably lands mid-attack, yet each
/// cell is cheap, so cancellation and resume latency stay tiny.
const SLOW: &str = "threads = 1\n\
                    [generator]\nmodel = \"ba\"\nn = 2000\nseed = 11\n\
                    [attack]\nstrategies = [\"random\"]\nreplicas = 400\nrecord = 0\n";

/// Polls a job until it leaves queued/running; tolerates transient error
/// responses (chaos plans can reject individual connections).
fn poll_terminal(addr: &str, id: &str, budget: Duration) -> String {
    let deadline = Instant::now() + budget;
    loop {
        if let Ok(resp) = service::request(addr, &encode_cmd("status", Some(id)), 2_000) {
            match service::response_field(&resp, "status")
                .unwrap_or_default()
                .as_str()
            {
                "queued" | "running" | "error" | "" => {}
                _ => return resp,
            }
        }
        assert!(
            Instant::now() < deadline,
            "job {id} did not reach a terminal state"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The summary with "resumed N finished cell(s)" progress notes dropped:
/// the only line that legitimately differs between a clean run and a
/// crash-resumed run of the same job.
fn strip_resume_notes(summary: &str) -> String {
    summary
        .lines()
        .filter(|l| !l.starts_with("resumed "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn oversized_request_is_rejected_with_a_structured_error() {
    let dir = temp_dir("oversized");
    let (addr, handle) = start(test_config(dir.join("runs")));
    let mut stream = TcpStream::connect(&addr).unwrap();
    // 24 KiB of garbage without a newline — well past the 4 KiB
    // max_request_bytes, within the server's 8× drain allowance (beyond
    // that the daemon stops reading a garbage stream entirely).
    let blob = vec![b'x'; 24 * 1024];
    let _ = stream.write_all(&blob);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut resp = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("request too large"), "{resp}");
    assert!(resp.contains(r#""status":"error""#), "{resp}");
    drain(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_client_hits_the_read_timeout_without_blocking_the_accept_loop() {
    let dir = temp_dir("stalled");
    let (addr, handle) = start(test_config(dir.join("runs")));
    // Connection A connects and then says nothing.
    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Connection B completes a full round trip while A is stalling —
    // the accept loop and handler pool are not blocked.
    let t0 = Instant::now();
    let resp = service::request(&addr, &encode_cmd("stats", None), 2_000).unwrap();
    assert!(resp.contains(r#""status":"ok""#), "{resp}");
    assert!(
        t0.elapsed() < Duration::from_millis(1_500),
        "stats round trip blocked behind a stalled client: {:?}",
        t0.elapsed()
    );
    // A eventually receives a structured timeout error, not a bare hangup.
    let mut timeout_resp = String::new();
    stalled.read_to_string(&mut timeout_resp).unwrap();
    assert!(timeout_resp.contains("read timeout"), "{timeout_resp}");
    drain(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_json_gets_a_structured_error_not_a_dropped_connection() {
    let dir = temp_dir("malformed");
    let (addr, handle) = start(test_config(dir.join("runs")));
    for bad in ["this is not json", "{\"cmd\":", "[1,2,3]", "{}"] {
        let resp = service::request(&addr, bad, 2_000).unwrap();
        assert_eq!(
            service::response_field(&resp, "status").as_deref(),
            Some("error"),
            "request {bad:?} got {resp}"
        );
        assert!(
            service::response_field(&resp, "error").is_some(),
            "request {bad:?} got {resp}"
        );
    }
    drain(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_job_deadline_cancels_the_job_and_reports_deadline_status() {
    let dir = temp_dir("deadline");
    let (addr, handle) = start(test_config(dir.join("runs")));
    let resp = service::request(
        &addr,
        &encode_submit(SLOW, "slow.toml", &[], Some(60)),
        2_000,
    )
    .unwrap();
    assert_eq!(
        service::response_field(&resp, "status").as_deref(),
        Some("accepted"),
        "{resp}"
    );
    let id = service::response_field(&resp, "job").unwrap();
    let terminal = poll_terminal(&addr, &id, Duration::from_secs(60));
    assert_eq!(
        service::response_field(&terminal, "status").as_deref(),
        Some("deadline"),
        "{terminal}"
    );
    // `result` reports the same classification instead of a summary.
    let resp = service::request(&addr, &encode_cmd("result", Some(&id)), 2_000).unwrap();
    assert_eq!(
        service::response_field(&resp, "status").as_deref(),
        Some("deadline"),
        "{resp}"
    );
    drain(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns the real `inet` binary as a daemon with `workers` workers, in
/// the directory that holds `runs`, and returns (child, addr). The child
/// is killed when dropped, so a failing test leaves no daemon behind.
fn spawn_daemon(runs: &Path, workers: &str, stderr: Stdio) -> (Reaped, String) {
    let mut child = Reaped(
        std::process::Command::new(env!("CARGO_BIN_EXE_inet"))
            .args([
                "serve",
                "127.0.0.1:0",
                "--workers",
                workers,
                "--runs-dir",
                runs.to_str().unwrap(),
            ])
            .current_dir(runs.parent().unwrap())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .unwrap(),
    );
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("# serving on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// The no-job-lost acceptance scenario: SIGKILL the daemon process while
/// a checkpointed sweep is mid-flight, restart it on the same runs dir,
/// and require the job to finish with output identical to a clean run
/// (modulo the "resumed N cell(s)" progress note).
#[test]
fn sigkill_mid_job_restarted_daemon_resumes_to_identical_output() {
    let dir = temp_dir("sigkill");
    let runs = dir.join("runs");
    let (mut child, addr) = spawn_daemon(&runs, "1", Stdio::null());
    let resp =
        service::request(&addr, &encode_submit(SLOW, "slow.toml", &[], None), 5_000).unwrap();
    assert_eq!(
        service::response_field(&resp, "status").as_deref(),
        Some("accepted"),
        "{resp}"
    );
    let id = service::response_field(&resp, "job").unwrap();
    // Wait for the attack stage to commit its first checkpoint, then
    // SIGKILL — no drain, no cleanup, mid-job by construction.
    let ckpt = runs.join(&id).join("attack.ckpt");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ckpt.exists() {
        assert!(
            Instant::now() < deadline,
            "attack checkpoint never appeared"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    // The restarted daemon must rediscover the accepted job from its
    // journal and resume it cell-granularly to completion.
    let (mut child, addr) = spawn_daemon(&runs, "1", Stdio::null());
    let terminal = poll_terminal(&addr, &id, Duration::from_secs(120));
    assert_eq!(
        service::response_field(&terminal, "status").as_deref(),
        Some("done"),
        "{terminal}"
    );
    let resp = service::request(&addr, &encode_cmd("result", Some(&id)), 5_000).unwrap();
    let served = service::response_field(&resp, "summary").unwrap();
    let clean = run_scenario(&Scenario::parse(SLOW).unwrap()).unwrap();
    assert_eq!(
        strip_resume_notes(&served),
        strip_resume_notes(&clean.summary),
        "resumed job output must be identical to a clean run"
    );
    assert!(
        served.contains("resumed "),
        "the sweep should actually have resumed from the checkpoint, not re-run: {served}"
    );
    // The `drain` command → graceful drain → clean exit 0.
    drain(&addr);
    let status = child.wait().unwrap();
    assert!(status.success(), "drained daemon must exit 0, got {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends `signal` to `child` with the real `kill` command and waits for
/// it to exit; a child still running 5 s later is killed and the test
/// fails.
#[cfg(unix)]
fn signal_and_wait(child: &mut std::process::Child, signal: &str) -> std::process::ExitStatus {
    let sent = std::process::Command::new("kill")
        .args([signal, &child.id().to_string()])
        .status()
        .unwrap();
    assert!(sent.success(), "kill {signal} failed: {sent}");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon still running 5 s after kill {signal}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sends `signal` to an idle `inet serve` process and requires a clean
/// drain: exit 0 within 5 s, with the drain reported on stderr.
#[cfg(unix)]
fn signal_drains_an_idle_daemon(signal: &str) {
    let dir = temp_dir(&format!("signal_{}", signal.trim_start_matches('-')));
    let log = dir.join("serve.err");
    let (mut child, _addr) = spawn_daemon(
        &dir.join("runs"),
        "1",
        std::fs::File::create(&log).unwrap().into(),
    );
    let status = signal_and_wait(&mut child, signal);
    let stderr = std::fs::read_to_string(&log).unwrap();
    assert!(
        status.success(),
        "kill {signal}: exit {status}; stderr:\n{stderr}"
    );
    assert!(stderr.contains("drain complete"), "kill {signal}: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_an_idle_daemon_to_exit_0() {
    signal_drains_an_idle_daemon("-TERM");
}

#[cfg(unix)]
#[test]
fn first_sigint_drains_an_idle_daemon_to_exit_0() {
    signal_drains_an_idle_daemon("-INT");
}

/// A trivial request to an idle daemon is answered as soon as it arrives:
/// the accept loop blocks in `accept` rather than polling, so no request
/// waits out a park. The idle gaps before the requests differ, so the
/// arrivals fall at every phase of any poll period up to 15 ms.
#[test]
fn stats_round_trip_median_is_under_5_ms() {
    let dir = temp_dir("latency");
    let (addr, handle) = start(test_config(dir.join("runs")));
    let stats = encode_cmd("stats", None);
    let mut times: Vec<Duration> = (0..21u64)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(20 + i * 7 % 15));
            let t0 = Instant::now();
            service::request(&addr, &stats, 2_000).unwrap();
            t0.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median stats round trip {median:?} (all: {times:?})"
    );
    drain(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `inet <args>` in `dir`, requires exit 0, and returns its stdout.
fn inet(dir: &Path, args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_inet"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "inet {}: {}\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The client commands against a live two-worker daemon, end to end:
/// `inet submit` the demo scenario, scrape `inet job metrics` (each scrape
/// must pass `validate_prometheus`), poll `inet job status` until the job
/// is done, and require `inet job result` to be byte-identical to a
/// one-shot `inet run` of the same file. SIGTERM then drains the daemon to
/// exit 0 within 5 s.
#[cfg(unix)]
#[test]
fn cli_submit_result_is_byte_identical_to_a_one_shot_run() {
    let dir = temp_dir("cli_round_trip");
    let log = dir.join("serve.err");
    let (mut child, addr) = spawn_daemon(
        &dir.join("runs"),
        "2",
        std::fs::File::create(&log).unwrap().into(),
    );
    let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/serve_demo.toml");
    let client = |args: &[&str]| inet(&dir, &[args, &["--addr", &addr]].concat());
    let has_line = |text: &str, prefix: &str| text.lines().any(|l| l.starts_with(prefix));

    let id = client(&["submit", demo]).trim().to_string();
    assert!(!id.is_empty(), "submit printed no job id");
    let metrics = client(&["job", "metrics"]);
    validate_prometheus(&metrics).unwrap();
    assert!(
        has_line(&metrics, "# TYPE inet_jobs_accepted_total counter"),
        "{metrics}"
    );
    assert!(
        has_line(&metrics, "inet_jobs_accepted_total 1"),
        "{metrics}"
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client(&["job", "status", &id]);
        if status.contains(r#""status":"done""#) {
            break;
        }
        assert!(Instant::now() < deadline, "job {id} not done: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }
    // After completion the exposition also carries the executor's
    // task-latency histogram and the job timing histograms.
    let metrics = client(&["job", "metrics"]);
    validate_prometheus(&metrics).unwrap();
    assert!(
        has_line(&metrics, "# TYPE inet_task_latency_us histogram"),
        "{metrics}"
    );
    assert!(metrics.contains("inet_task_latency_us_bucket"), "{metrics}");
    assert!(
        has_line(&metrics, "inet_jobs_completed_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("inet_job_queue_wait_ms_bucket"),
        "{metrics}"
    );

    let served = client(&["job", "result", &id]);
    let oneshot_dir = dir.join("oneshot");
    std::fs::create_dir(&oneshot_dir).unwrap();
    let oneshot = inet(&oneshot_dir, &["run", demo]);
    assert_eq!(served, oneshot, "served result differs from a one-shot run");

    let status = signal_and_wait(&mut child, "-TERM");
    let stderr = std::fs::read_to_string(&log).unwrap();
    assert!(
        status.success(),
        "kill -TERM: exit {status}; stderr:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

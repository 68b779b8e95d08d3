//! End-to-end checks of the `inet` binary: every shipped scenario runs at
//! smoke size, attack sweeps and measure summaries are byte-identical at
//! threads 1, 2 and 7, and a journaled sweep interrupted by a real SIGINT
//! resumes to the curves of a clean run.
//!
//! Each spawned `inet` runs in a fresh temp dir, so relative sinks
//! (`target/figures/…`, `runs/`) never land in the checkout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

mod common;
use common::Reaped;

/// The worker-thread counts every determinism check compares.
const THREADS: [&str; 3] = ["1", "2", "7"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("inet_cli_it_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scenario(file: &str) -> String {
    format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// `inet run <scenario> <line>`: the scenario path is one argument, and
/// `line` splits on whitespace like a shell command line.
fn run_args<'a>(scenario: &'a str, line: &'a str) -> Vec<&'a str> {
    ["run", scenario]
        .into_iter()
        .chain(line.split_whitespace())
        .collect()
}

fn inet_cmd(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_inet"));
    cmd.args(args).current_dir(dir);
    cmd
}

/// Runs `inet <args>` in `dir`, requires exit 0, and returns its stdout.
fn inet(dir: &Path, args: &[&str]) -> String {
    let out = inet_cmd(dir, args).output().unwrap();
    assert!(
        out.status.success(),
        "inet {}: {}\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// [`inet`] with a whitespace-split command line.
fn inet_line(dir: &Path, line: &str) -> String {
    inet(dir, &line.split_whitespace().collect::<Vec<_>>())
}

/// Every file under `root`, keyed by its path relative to `root`.
fn tree(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, files: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, files);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
            }
        }
    }
    let mut files = BTreeMap::new();
    walk(root, root, &mut files);
    files
}

/// `diff -r a b`: the same relative paths with the same bytes. Two empty
/// trees would compare equal while checking nothing, so `a` must hold a
/// file.
fn assert_same_tree(a: &Path, b: &Path) {
    let (ta, tb) = (tree(a), tree(b));
    assert!(!ta.is_empty(), "{} holds no files", a.display());
    let only_b = tb.keys().filter(|k| !ta.contains_key(*k));
    let differ: Vec<_> = ta
        .keys()
        .chain(only_b)
        .filter(|k| ta.get(*k) != tb.get(*k))
        .collect();
    assert!(
        differ.is_empty(),
        "{} and {} differ at {differ:?}",
        a.display(),
        b.display()
    );
}

#[test]
fn every_shipped_scenario_runs_at_tiny_n() {
    let dir = temp_dir("smoke");
    let mut scenarios: Vec<String> = std::fs::read_dir(scenario(""))
        .unwrap()
        .map(|e| e.unwrap().path().to_str().unwrap().to_string())
        .filter(|p| p.ends_with(".toml"))
        .collect();
    scenarios.sort();
    assert!(!scenarios.is_empty(), "no scenarios/*.toml found");
    for path in &scenarios {
        let stdout = inet(&dir, &run_args(path, "--set n=200"));
        assert!(!stdout.is_empty(), "{path}: empty report");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// BA with m = 2 has no core above 2; the PFP run puts the k-core recalc
/// order's core-number descent through many shells. The journaled run at
/// full resolution (`record = 1`) drives the checkpoint log, the curve
/// encoder's repeated-value path and the parallel CSV writer.
#[test]
fn attack_sweeps_are_byte_identical_at_threads_1_2_7() {
    let dir = temp_dir("sweeps");
    let ba_attack = scenario("ba_attack.toml");
    let mut journaled = Vec::new();
    for t in THREADS {
        inet_line(
            &dir,
            &format!(
                "attack ba --n 600 --seed 7 --strategy random,degree,degree-recalc,kcore-recalc \
                 --replicas 3 --threads {t} --curves curves-{t}"
            ),
        );
        inet_line(
            &dir,
            &format!(
                "attack pfp --n 3000 --seed 7 --strategy kcore,kcore-recalc,degree-recalc \
                 --replicas 1 --threads {t} --curves kcore-{t}"
            ),
        );
        let sets = format!(
            "--set n=2000 --set attack.record=1 --set report.curves=\"journaled-{t}\" \
             --runs-dir runs-{t} --threads {t}"
        );
        journaled.push(inet(&dir, &run_args(&ba_attack, &sets)));
    }
    for kind in ["curves", "kcore", "journaled"] {
        for t in ["2", "7"] {
            let (one, other) = (format!("{kind}-1"), format!("{kind}-{t}"));
            assert_same_tree(&dir.join(one), &dir.join(other));
        }
    }
    assert_eq!(journaled[0], journaled[1], "journaled stdout, threads 1, 2");
    assert_eq!(journaled[0], journaled[2], "journaled stdout, threads 1, 7");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kernels fold their chunk partials in chunk order as chunks finish,
/// so the battery's summary must not depend on the thread count. The
/// Serrano graph is about half degree-1 nodes, which the fused engine
/// folds in without visiting.
#[test]
fn measure_summaries_are_byte_identical_at_threads_1_2_7() {
    let dir = temp_dir("measure");
    for (file, n) in [("pfp_measure.toml", 3000), ("serrano_measure.toml", 2000)] {
        let path = scenario(file);
        let summaries: Vec<String> = THREADS
            .iter()
            .map(|t| {
                let sets = format!("--set n={n} --no-journal --threads {t}");
                inet(&dir, &run_args(&path, &sets))
            })
            .collect();
        assert!(!summaries[0].is_empty(), "{file}: empty summary");
        assert_eq!(summaries[0], summaries[1], "{file}: threads 1, 2");
        assert_eq!(summaries[0], summaries[2], "{file}: threads 1, 7");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records in `attack.ckpt` (the header counts as one) of every run under
/// `runs`.
fn checkpoint_records(runs: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(runs) else {
        return 0;
    };
    entries
        .filter_map(|e| std::fs::read(e.unwrap().path().join("attack.ckpt")).ok())
        .map(|bytes| bytes.iter().filter(|&&b| b == b'\n').count())
        .sum()
}

/// Starts a journaled one-thread `serrano_attack.toml` run, SIGINTs it
/// once the checkpoint holds its first cell, and requires exit 6
/// (interrupted, resumable). It resumes the run at two threads with the id
/// the run printed, requires the resume to take at least one finished cell
/// from the checkpoint but not all of them, and the trace to hold both
/// sessions, and compares the final curve CSVs byte for byte with an
/// uninterrupted two-thread run. A run whose sweep ends before the SIGINT
/// fails the test: it would check no mid-sweep interruption at all.
fn sigint_resume_round_trip(tag: &str, sets: &str) {
    let dir = temp_dir(tag);
    let runs = dir.join("runs");
    let serrano_attack = scenario("serrano_attack.toml");
    let log = dir.join("stderr.log");
    let first = format!("{sets} --threads 1 --runs-dir runs");
    // Killed when dropped, so a failed assertion leaves no run behind.
    let mut child = Reaped(
        inet_cmd(&dir, &run_args(&serrano_attack, &first))
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log).unwrap())
            .spawn()
            .unwrap(),
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    while checkpoint_records(&runs) < 2 {
        if let Some(status) = child.try_wait().unwrap() {
            let stderr = std::fs::read_to_string(&log).unwrap();
            panic!("the run ended ({status}) before the SIGINT:\n{stderr}");
        }
        assert!(Instant::now() < deadline, "no cell checkpointed in 60 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let pid = child.id().to_string();
    let sent = Command::new("kill").args(["-INT", &pid]).status().unwrap();
    assert!(sent.success(), "kill -INT failed: {sent}");
    let status = child.wait().unwrap();
    let stderr = std::fs::read_to_string(&log).unwrap();
    assert_eq!(status.code(), Some(6), "{status}; stderr:\n{stderr}");
    let id: String = stderr
        .lines()
        .find_map(|l| l.split_once("--resume ").map(|(_, rest)| rest))
        .unwrap_or_default()
        .chars()
        .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
        .collect();
    assert!(!id.is_empty(), "no resume command on stderr:\n{stderr}");

    let resumed = inet_line(
        &dir,
        &format!("run --resume {id} --threads 2 --runs-dir runs"),
    );
    let taken = resumed.lines().find_map(|l| {
        let (n, rest) = l.strip_prefix("resumed ")?.split_once(' ')?;
        rest.starts_with("finished cell")
            .then(|| n.parse::<usize>().ok())?
    });
    let taken = taken.unwrap_or(0);
    assert!(
        taken >= 1,
        "the resume took no finished cell from the checkpoint:\n{resumed}"
    );
    // The checkpoint now holds every cell once, after its header.
    let cells = checkpoint_records(&runs) - 1;
    assert!(
        taken < cells,
        "the SIGINT landed after the sweep: all {cells} cells came from the checkpoint"
    );
    let trace = inet_line(&dir, &format!("trace {id} --runs-dir runs"));
    let head = trace.lines().next().unwrap_or_default();
    assert!(head.contains(": 2 session(s)"), "{trace}");
    inet_line(&dir, "runs list --runs-dir runs");

    let clean = dir.join("clean");
    std::fs::create_dir(&clean).unwrap();
    let again = format!("{sets} --threads 2 --no-journal");
    inet(&clean, &run_args(&serrano_attack, &again));
    let curves = Path::new("target/figures/serrano_attack");
    assert_same_tree(&clean.join(curves), &dir.join(curves));
    let _ = std::fs::remove_dir_all(&dir);
}

// Each size leaves a few hundred milliseconds of one-thread sweep after
// the first checkpointed cell in a debug build (about 0.38 s, after about
// 0.2 s of generation, on a 2-core x86-64 host), so the SIGINT lands
// mid-sweep. A much smaller run (`--set n=200`: five cells, about 2 ms of
// sweep) often ends, or finishes its sweep, before the SIGINT lands, and
// the test then fails.

/// At the scenario's own curve resolution.
#[cfg(unix)]
#[test]
fn sigint_mid_sweep_resumes_to_the_curves_of_a_clean_run() {
    sigint_resume_round_trip("resume", "--set n=2000 --set attack.replicas=200");
}

/// At full resolution: one checkpointed point per removed node.
#[cfg(unix)]
#[test]
fn sigint_mid_full_resolution_sweep_resumes_to_the_curves_of_a_clean_run() {
    sigint_resume_round_trip(
        "resume_record1",
        "--set n=2000 --set attack.replicas=150 --set attack.record=1",
    );
}

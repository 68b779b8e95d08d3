//! The crash-safe run store: `runs/<run-id>/` with a content-hashed
//! manifest, an append-only journal, and atomically written, checksummed
//! artifacts for the stages a resume replays.
//!
//! ## Layout
//!
//! ```text
//! runs/<run-id>/
//!   manifest.json      identity: the scenario text, overrides and version, FNV-hashed
//!   journal.log        append-only commit (and service job) records, each sealed with its checksum
//!   source.edges       stage-0 artifact (edge list of the topology)
//!   measure.txt        stage-1 artifact (rendered measurement block), when the scenario measures
//!   attack.ckpt        the sweep checkpoint (cell-level), when the scenario attacks
//!   summary.txt        stage-3 artifact (the rendered run summary)
//!   telemetry.log      the run's spans, one session appended per run or resume
//! ```
//!
//! ## Commit protocol
//!
//! Every write goes through [`inet_exec::durable`]. [`RunStore::create`]
//! fsyncs the new run directory's entry, then writes the manifest (scenario
//! text included) atomically, so a listed run always has it whole. A stage
//! is *committed* when its commit record is in the journal. A stage that a
//! resume replays (source, measure, report) first writes its artifact
//! atomically (the `artifact.rename` failpoint fires just before), then
//! appends the record carrying the artifact's FNV-64 checksum; the
//! `journal.write` failpoint sits on every append. A stage with nothing to
//! replay — a skipped stage, or the attack, whose checkpoint checks its own
//! records — commits a record with no artifact. A crash or failure at
//! any step before the commit record leaves the stage uncommitted and
//! resume re-executes it; after it, the stage replays from its artifact.
//! Artifacts are trusted only when a commit record with a matching checksum
//! exists. The journal is a record log in [`inet_exec::durable`]'s format:
//! the header `inet-run-journal 1`, then
//! `commit <stage> <name> <artifact> <checksum> <detail>` and
//! `commit <stage> <name>` records; a job
//! served by `inet serve` adds `job <state> <attempts> <deadline_ms|->
//! <error>` records, the last intact one being its state. Journals written
//! by older builds also hold `begin <stage> <name>` records, which the
//! reader skips, and artifact commits of skipped stages. Readers never
//! write; a run session, and each job record, cuts a torn tail first.
//! DESIGN.md §4f tabulates the crash points; a test fails every
//! durable operation of a journaled run in turn and resumes it.
//!
//! The manifest hash covers the scenario text, every `--set` override, and
//! the crate version; [`RunStore::open`] refuses to resume when it no
//! longer matches, so a resumed run can never silently mix state from two
//! different experiments.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use inet_exec::durable::{self, escape, fnv64, seal, unescape, Fnv64};

use crate::run::STAGE_NAMES;
use crate::PipelineError;

/// Default directory the CLI keeps run stores under.
pub const DEFAULT_RUNS_DIR: &str = "runs";
/// Manifest file name inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Journal file name inside a run directory.
pub const JOURNAL_FILE: &str = "journal.log";
/// The journal's header record: its magic, then the format version.
const JOURNAL_MAGIC: &str = "inet-run-journal";
const JOURNAL_VERSION: &str = "1";
/// Version stamped into (and hashed into) every manifest.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// One committed stage, as recorded in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Stage index (`pipeline.stage` scope).
    pub stage: usize,
    /// The artifact file name (relative to the run directory) and the
    /// FNV-64 checksum of its bytes at commit time; `None` for a stage
    /// with nothing to replay.
    pub artifact: Option<(String, u64)>,
    /// Free-form stage detail replayed on resume (source description,
    /// warning lines, sink list).
    pub detail: String,
}

/// A service job's lifecycle, as its last `job` journal record says.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobRecord {
    /// `accepted`, `done`, `failed`, `deadline` or `cancelled`.
    pub(crate) state: String,
    pub(crate) attempts: u64,
    pub(crate) deadline_ms: Option<u64>,
    pub(crate) error: String,
}

/// The parsed identity block of a run.
#[derive(Debug, Clone)]
struct Manifest {
    version: String,
    name: String,
    scenario_file: String,
    overrides: Vec<String>,
    content_hash: u64,
    /// The scenario document, verbatim.
    scenario: String,
}

/// A handle on one `runs/<run-id>/` directory.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    id: String,
    manifest: Manifest,
}

fn data(msg: impl Into<String>) -> PipelineError {
    PipelineError::Data(msg.into())
}

fn store_err(msg: impl Into<String>) -> PipelineError {
    PipelineError::Store(msg.into())
}

/// The manifest content hash: scenario text, every override, and the
/// crate version, NUL-separated so field boundaries cannot collide.
fn content_hash(scenario_text: &str, overrides: &[String]) -> u64 {
    let mut h = Fnv64::default();
    for field in std::iter::once(scenario_text).chain(overrides.iter().map(String::as_str)) {
        h.write(field.as_bytes());
        h.write(&[0]);
    }
    h.write(VERSION.as_bytes());
    h.finish()
}

/// Lowercases a scenario name into a directory-safe id stem.
fn sanitize(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars().take(32) {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    let trimmed = out.trim_matches('-');
    if trimmed.is_empty() {
        "run".to_string()
    } else {
        trimmed.to_string()
    }
}

impl RunStore {
    /// Creates a fresh run directory under `root` and writes its manifest,
    /// scenario text included, durably. The id is
    /// `<name>-<hash8>`, with a numeric suffix on collision, so re-running
    /// the same scenario never clobbers an earlier run.
    pub fn create(
        root: &Path,
        name: &str,
        scenario_text: &str,
        scenario_file: &str,
        overrides: &[String],
    ) -> Result<RunStore, PipelineError> {
        fs::create_dir_all(root)
            .map_err(|e| data(format!("run store: {}: {e}", root.display())))?;
        let hash = content_hash(scenario_text, overrides);
        let base = format!("{}-{:08x}", sanitize(name), (hash >> 32) as u32);
        let mut id = base.clone();
        let mut k = 1usize;
        let dir = loop {
            let dir = root.join(&id);
            match fs::create_dir(&dir) {
                Ok(()) => break dir,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    k += 1;
                    if k > 10_000 {
                        return Err(data(format!("run store: cannot allocate an id for {base}")));
                    }
                    id = format!("{base}-{k}");
                }
                Err(e) => return Err(data(format!("run store: {}: {e}", dir.display()))),
            }
        };
        let manifest = Manifest {
            version: VERSION.to_string(),
            name: name.to_string(),
            scenario_file: scenario_file.to_string(),
            overrides: overrides.to_vec(),
            content_hash: hash,
            scenario: scenario_text.to_string(),
        };
        let store = RunStore { dir, id, manifest };
        let written = durable::sync_dir(&store.dir)
            .map_err(|e| store_err(format!("run store: {}: {e}", store.dir.display())))
            .and_then(|()| {
                durable::write_atomic(
                    &store.dir.join(MANIFEST_FILE),
                    store.render_manifest().as_bytes(),
                )
                .map_err(|e| store_err(format!("run store: manifest: {e}")))
            });
        match written {
            Ok(()) => Ok(store),
            Err(e) => {
                store.discard();
                Err(e)
            }
        }
    }

    /// Removes a run directory this process just created and never
    /// admitted, so a refused submission leaves nothing for `runs list`
    /// and does not push the next run's id to a suffix. Best effort: a
    /// directory that outlives a crash here is a run at `source`, as
    /// before.
    pub(crate) fn discard(self) {
        let _ = fs::remove_dir_all(&self.dir);
    }

    /// Opens an existing run for resumption, verifying the manifest's
    /// content hash against its scenario text, overrides, and this
    /// binary's version. A mismatch refuses with a diagnostic rather than
    /// resuming into a different experiment.
    pub fn open(root: &Path, id: &str) -> Result<RunStore, PipelineError> {
        let dir = root.join(id);
        if !dir.join(MANIFEST_FILE).is_file() {
            return Err(data(format!(
                "no run '{id}' under {} (try 'inet runs list')",
                root.display()
            )));
        }
        let manifest_text = fs::read_to_string(dir.join(MANIFEST_FILE))
            .map_err(|e| data(format!("run '{id}': manifest: {e}")))?;
        let manifest = parse_manifest(&manifest_text)
            .ok_or_else(|| data(format!("run '{id}': manifest.json is malformed")))?;
        let actual = content_hash(&manifest.scenario, &manifest.overrides);
        if actual != manifest.content_hash {
            let mut msg = format!(
                "run '{id}' refuses to resume: manifest hash {:016x} no longer matches the \
                 stored scenario + overrides (which hash to {actual:016x})",
                manifest.content_hash
            );
            if manifest.version != VERSION {
                let _ = write!(
                    msg,
                    "; the run was created by inet {} but this binary is {VERSION}",
                    manifest.version
                );
            }
            msg.push_str("; start a fresh run instead");
            return Err(PipelineError::CheckpointIncompatible(msg));
        }
        Ok(RunStore {
            dir,
            id: id.to_string(),
            manifest,
        })
    }

    /// The run id (`runs list` / `--resume` handle).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A path inside the run directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// The stored scenario document, verbatim.
    pub fn scenario_text(&self) -> &str {
        &self.manifest.scenario
    }

    /// The `--set` overrides recorded at creation, replayed on resume.
    pub fn overrides(&self) -> &[String] {
        &self.manifest.overrides
    }

    fn render_manifest(&self) -> String {
        let overrides = self
            .manifest
            .overrides
            .iter()
            .map(|o| format!("\"{}\"", escape_json(o)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"version\": \"{}\",\n  \"run\": \"{}\",\n  \"name\": \"{}\",\n  \
             \"scenario_file\": \"{}\",\n  \"overrides\": [{overrides}],\n  \
             \"content_hash\": \"{:016x}\",\n  \"scenario\": \"{}\"\n}}\n",
            escape_json(&self.manifest.version),
            escape_json(&self.id),
            escape_json(&self.manifest.name),
            escape_json(&self.manifest.scenario_file),
            self.manifest.content_hash,
            escape_json(&self.manifest.scenario),
        )
    }

    /// Appends one sealed stage record to the journal, behind the
    /// `journal.write` failpoint (scope = stage index).
    fn append(&self, stage: usize, body: String) -> Result<(), PipelineError> {
        inet_fault::check("journal.write", stage as u64)
            .map_err(|e| store_err(format!("run '{}': journal: {e}", self.id)))?;
        self.append_record(body)
    }

    /// Appends one sealed record to the journal, synced. A missing or
    /// empty journal gets its header first.
    fn append_record(&self, body: String) -> Result<(), PipelineError> {
        durable::append(
            &self.dir.join(JOURNAL_FILE),
            seal(format!("{JOURNAL_MAGIC}\t{JOURNAL_VERSION}")).as_bytes(),
            seal(body).as_bytes(),
        )
        .map_err(|e| store_err(format!("run '{}': journal: {e}", self.id)))
    }

    /// Appends a service job's lifecycle record. A torn tail is cut first,
    /// by [`RunStore::start_session`]'s rule, so the record is never glued
    /// onto a fragment and lost with it. Only the `durable.op` failpoint
    /// fires. The caller guarantees one writer per journal: the worker
    /// while it runs the job, `cancel` only while the job is queued.
    pub(crate) fn append_job(&self, job: &JobRecord) -> Result<(), PipelineError> {
        self.start_session()?;
        let deadline = job.deadline_ms.map_or("-".to_string(), |ms| ms.to_string());
        self.append_record(format!(
            "job\t{}\t{}\t{deadline}\t{}",
            job.state,
            job.attempts,
            escape(&job.error)
        ))
    }

    /// Journals the start of a stage. The pipeline itself writes no such
    /// record, and the reader skips them.
    pub fn begin(&self, stage: usize) -> Result<(), PipelineError> {
        self.append(stage, format!("begin\t{stage}\t{}", STAGE_NAMES[stage]))
    }

    /// Commits a stage whose artifact is `bytes`: an atomic write (the
    /// `artifact.rename` failpoint fires just before it), then the journal
    /// record with the content checksum.
    pub fn commit_bytes(
        &self,
        stage: usize,
        artifact: &str,
        bytes: &[u8],
        detail: &str,
    ) -> Result<(), PipelineError> {
        inet_fault::check("artifact.rename", stage as u64)
            .map_err(|e| store_err(format!("run '{}': artifact '{artifact}': {e}", self.id)))?;
        durable::write_atomic(&self.dir.join(artifact), bytes)
            .map_err(|e| store_err(format!("run '{}': artifact '{artifact}': {e}", self.id)))?;
        self.append(
            stage,
            format!(
                "commit\t{stage}\t{}\t{}\t{:016x}\t{}",
                STAGE_NAMES[stage],
                escape(artifact),
                fnv64(bytes),
                escape(detail)
            ),
        )
    }

    /// Commits a stage with nothing to replay: one journal record, no
    /// artifact.
    pub fn commit(&self, stage: usize) -> Result<(), PipelineError> {
        self.append(stage, format!("commit\t{stage}\t{}", STAGE_NAMES[stage]))
    }

    /// The latest commit record per stage among the journal's intact
    /// records. Read-only: a torn tail stays on disk.
    pub fn committed(&self) -> Vec<Option<CommitRecord>> {
        read_journal(&durable::read_log(&self.path(JOURNAL_FILE)).unwrap_or_default()).0
    }

    /// Starts a run session: cuts a torn journal tail, so this session's
    /// records are never glued onto a torn fragment, then returns
    /// [`RunStore::committed`]. Refuses a file that is not a journal.
    pub(crate) fn start_session(&self) -> Result<Vec<Option<CommitRecord>>, PipelineError> {
        let journal_err = |e: String| data(format!("run '{}': {JOURNAL_FILE}: {e}", self.id));
        let path = self.path(JOURNAL_FILE);
        let bytes = durable::read_log(&path).map_err(|e| journal_err(e.to_string()))?;
        let (committed, _, scan) = read_journal(&bytes);
        scan.map_err(journal_err)?
            .cut_tail(&path)
            .map_err(|e| store_err(format!("run '{}': {JOURNAL_FILE}: {e}", self.id)))?;
        Ok(committed)
    }

    /// Loads a committed artifact and verifies its checksum. A mismatch
    /// (silent corruption, or a crash that journaled before the rename
    /// landed) is an error the caller degrades to re-execution.
    pub fn load_artifact(&self, rec: &CommitRecord) -> Result<Vec<u8>, PipelineError> {
        let Some((artifact, checksum)) = &rec.artifact else {
            return Err(data(format!(
                "run '{}': the {} stage committed no artifact",
                self.id, STAGE_NAMES[rec.stage]
            )));
        };
        let bytes = fs::read(self.dir.join(artifact))
            .map_err(|e| data(format!("run '{}': artifact '{artifact}': {e}", self.id)))?;
        let actual = fnv64(&bytes);
        if actual != *checksum {
            return Err(data(format!(
                "run '{}': artifact '{artifact}' failed its checksum (journal {checksum:016x}, \
                 file {actual:016x})",
                self.id
            )));
        }
        Ok(bytes)
    }
}

type Journal<'a> = (
    Vec<Option<CommitRecord>>,
    Option<JobRecord>,
    Result<durable::Scan<'a>, String>,
);

/// Reads a journal's bytes: the latest commit record per stage and the
/// last job record among its intact records, and the [`durable::scan`] of
/// them (whose torn tail a session cuts) or why the bytes are not a journal.
fn read_journal(bytes: &[u8]) -> Journal<'_> {
    let mut committed: Vec<Option<CommitRecord>> = vec![None; STAGE_NAMES.len()];
    let mut job = None;
    let scan = durable::scan(bytes, JOURNAL_MAGIC, |index, body| {
        let fields: Vec<&str> = body.split('\t').collect();
        if index == 0 {
            // `scan` checked the magic; the version is left.
            return match fields[..] {
                [_, JOURNAL_VERSION] => Ok(()),
                _ => Err(format!("unsupported journal header {body:?}")),
            };
        }
        if let ["job", state, attempts, deadline, error] = fields[..] {
            job = Some(JobRecord {
                state: state.to_string(),
                attempts: attempts.parse().map_err(|_| "bad attempts")?,
                deadline_ms: deadline.parse().ok(),
                error: unescape(error)?,
            });
            return Ok(());
        }
        let stage = fields
            .get(1)
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&stage| stage < STAGE_NAMES.len())
            .ok_or("bad stage")?;
        committed[stage] = Some(match fields.as_slice() {
            // Written by older builds at each stage's start.
            ["begin", _, _name] => return Ok(()),
            ["commit", _, _name] => CommitRecord {
                stage,
                artifact: None,
                detail: String::new(),
            },
            ["commit", _, _name, artifact, checksum, detail] => CommitRecord {
                stage,
                artifact: Some((
                    unescape(artifact)?,
                    u64::from_str_radix(checksum, 16).map_err(|e| e.to_string())?,
                )),
                detail: unescape(detail)?,
            },
            _ => return Err("unknown journal record".to_string()),
        });
        Ok(())
    });
    (committed, job, scan)
}

/// One run's identity + progress, for `inet runs list`.
#[derive(Debug)]
pub struct RunInfo {
    /// The run id (the directory name).
    pub id: String,
    /// The scenario display name from the manifest.
    pub name: String,
    /// Which stages have commit records.
    pub committed: Vec<bool>,
    /// The last intact `job` record: present exactly for service jobs.
    pub(crate) job: Option<JobRecord>,
}

impl RunInfo {
    /// `complete`, or `at <stage>` naming the first uncommitted stage.
    pub fn status(&self) -> String {
        match self.committed.iter().position(|c| !c) {
            None => "complete".to_string(),
            Some(i) => format!("at {}", STAGE_NAMES[i]),
        }
    }
}

/// The result of scanning a runs directory: the readable runs plus one
/// warning line per directory that had to be skipped (missing, torn, or
/// malformed manifest; a journal that cannot be read or is not a journal)
/// — a single corrupted run must degrade to a warning, never abort the
/// whole listing.
#[derive(Debug, Default)]
pub struct RunScan {
    /// Every run with a readable, well-formed manifest, sorted by id.
    pub runs: Vec<RunInfo>,
    /// One human-readable line per skipped directory.
    pub skipped: Vec<String>,
}

/// Scans every entry under `root`: directories with a parseable manifest
/// and a readable journal become [`RunInfo`]s; other directories are
/// reported in [`RunScan::skipped`] with a one-line reason. Read-only: a
/// torn journal tail stays on disk. Plain files (editor droppings, lock
/// files) are ignored silently.
pub fn scan_runs(root: &Path) -> RunScan {
    let Ok(entries) = fs::read_dir(root) else {
        return RunScan::default();
    };
    let mut scan = RunScan::default();
    for entry in entries.flatten() {
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        let id = entry.file_name().to_string_lossy().into_owned();
        match fs::read_to_string(dir.join(MANIFEST_FILE)) {
            Err(e) => scan
                .skipped
                .push(format!("{id}: unreadable {MANIFEST_FILE}: {e}")),
            Ok(text) => match parse_manifest(&text) {
                None => scan
                    .skipped
                    .push(format!("{id}: {MANIFEST_FILE} is torn or malformed")),
                Some(manifest) => {
                    let bytes = durable::read_log(&dir.join(JOURNAL_FILE));
                    let (committed, job, journal) =
                        read_journal(bytes.as_deref().unwrap_or_default());
                    match bytes.as_ref().map_err(|e| e.to_string()).and(journal) {
                        Err(e) => scan.skipped.push(format!("{id}: {JOURNAL_FILE}: {e}")),
                        Ok(_) => scan.runs.push(RunInfo {
                            id,
                            name: manifest.name,
                            committed: committed.iter().map(Option::is_some).collect(),
                            job,
                        }),
                    }
                }
            },
        }
    }
    scan.runs.sort_by(|a, b| a.id.cmp(&b.id));
    scan.skipped.sort();
    scan
}

fn parse_manifest(text: &str) -> Option<Manifest> {
    let obj = parse_flat(text)?;
    Some(Manifest {
        version: obj.get("version").and_then(JsonVal::as_str)?.to_string(),
        name: obj.get("name").and_then(JsonVal::as_str)?.to_string(),
        scenario_file: obj
            .get("scenario_file")
            .and_then(JsonVal::as_str)
            .unwrap_or_default()
            .to_string(),
        overrides: match obj.get("overrides")? {
            JsonVal::Arr(items) => items.clone(),
            _ => return None,
        },
        content_hash: obj
            .get("content_hash")
            .and_then(JsonVal::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())?,
        scenario: obj.get("scenario").and_then(JsonVal::as_str)?.to_string(),
    })
}

// ---------------------------------------------------------------------
// Minimal flat-JSON reader for the manifest and the serve protocol: one
// object of string / integer / string-array values.
// Anything else is `None`.

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonVal {
    Str(String),
    Int(i64),
    Arr(Vec<String>),
}

impl JsonVal {
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            JsonVal::Int(v) => Some(*v),
            _ => None,
        }
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next_byte(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn eat(&mut self, want: u8) -> Option<()> {
        (self.next_byte()? == want).then_some(())
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.next_byte()? {
                b'"' => return Some(out),
                b'\\' => match self.next_byte()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = (self.next_byte()? as char).to_digit(16)?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c if c < 0x80 => out.push(c as char),
                c => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.i - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self.b.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.i = start + len;
                }
            }
        }
    }

    fn int(&mut self) -> Option<i64> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
    }
}

/// Parses one flat JSON object (string, integer, or string-array values).
pub(crate) fn parse_flat(text: &str) -> Option<BTreeMap<String, JsonVal>> {
    let mut r = Reader {
        b: text.as_bytes(),
        i: 0,
    };
    r.ws();
    r.eat(b'{')?;
    let mut map = BTreeMap::new();
    r.ws();
    if r.peek() == Some(b'}') {
        return Some(map);
    }
    loop {
        r.ws();
        let key = r.string()?;
        r.ws();
        r.eat(b':')?;
        r.ws();
        let val = match r.peek()? {
            b'"' => JsonVal::Str(r.string()?),
            b'[' => {
                r.i += 1;
                let mut items = Vec::new();
                r.ws();
                if r.peek() == Some(b']') {
                    r.i += 1;
                } else {
                    loop {
                        r.ws();
                        items.push(r.string()?);
                        r.ws();
                        match r.next_byte()? {
                            b',' => continue,
                            b']' => break,
                            _ => return None,
                        }
                    }
                }
                JsonVal::Arr(items)
            }
            _ => JsonVal::Int(r.int()?),
        };
        map.insert(key, val);
        r.ws();
        match r.next_byte()? {
            b',' => continue,
            b'}' => return Some(map),
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("inet_runstore_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    const DOC: &str = "[generator]\nmodel = \"ba\"\nn = 60\n";

    #[test]
    fn create_open_round_trips_the_manifest() {
        let _lock = crate::test_lock();
        let root = temp_root("roundtrip");
        let sets = vec!["n=200".to_string(), "attack.replicas=2".to_string()];
        let store = RunStore::create(&root, "serrano attack", DOC, "s.toml", &sets).unwrap();
        assert!(store.id().starts_with("serrano-attack-"), "{}", store.id());
        let reopened = RunStore::open(&root, store.id()).unwrap();
        assert_eq!(reopened.overrides(), &sets[..]);
        assert_eq!(reopened.manifest.scenario_file, "s.toml");
        assert_eq!(reopened.scenario_text(), DOC);
        let _ = fs::remove_dir_all(&root);
    }

    /// A run id depends only on the hash inputs (scenario text, overrides,
    /// version), never on how the manifest stores them: one id, pinned.
    #[test]
    fn run_ids_are_unchanged_by_the_manifest_layout() {
        let _lock = crate::test_lock();
        let root = temp_root("known_id");
        let sets = ["n=200".to_string()];
        let store = RunStore::create(&root, "Serrano attack", DOC, "s.toml", &sets).unwrap();
        assert_eq!(store.id(), "serrano-attack-4a336bea");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn same_scenario_twice_gets_distinct_ids() {
        let _lock = crate::test_lock();
        let root = temp_root("collision");
        let a = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        let b = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        assert_ne!(a.id(), b.id());
        assert!(b.id().starts_with(a.id()), "{} vs {}", a.id(), b.id());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tampered_scenario_refuses_to_resume_with_exit_5() {
        let _lock = crate::test_lock();
        let root = temp_root("tamper");
        let store = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        let manifest = fs::read_to_string(store.path(MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.matches("n = 60").count(), 1, "{manifest}");
        fs::write(
            store.path(MANIFEST_FILE),
            manifest.replace("n = 60", "n = 61"),
        )
        .unwrap();
        let e = RunStore::open(&root, store.id()).unwrap_err();
        assert_eq!(e.exit_code(), 5, "{e}");
        assert!(e.message().contains("refuses to resume"), "{e}");
        assert!(e.message().contains("hash"), "{e}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_run_is_a_data_error_naming_runs_list() {
        let root = temp_root("missing");
        let e = RunStore::open(&root, "nope-12345678").unwrap_err();
        assert_eq!(e.exit_code(), 4, "{e}");
        assert!(e.message().contains("inet runs list"), "{e}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn commit_journal_and_artifact_round_trip() {
        let _lock = crate::test_lock();
        let root = temp_root("commit");
        let store = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        assert_eq!(store.committed(), vec![None, None, None, None]);
        store.begin(0).unwrap();
        let detail = "generated \"BA\"\nwith newline\tand tab";
        store
            .commit_bytes(0, "source.edges", b"0 1 1\n", detail)
            .unwrap();
        let committed = store.committed();
        let rec = committed[0].as_ref().unwrap();
        assert_eq!(rec.stage, 0);
        assert_eq!(rec.artifact.as_ref().unwrap().0, "source.edges");
        assert_eq!(rec.detail, detail, "detail must survive escaping");
        assert_eq!(store.load_artifact(rec).unwrap(), b"0 1 1\n");
        assert!(committed[1].is_none());
        // A stage with nothing to replay commits a record alone.
        store.commit(2).unwrap();
        let committed = store.committed();
        let rec = committed[2].as_ref().unwrap();
        assert_eq!((rec.artifact.as_ref(), rec.detail.as_str()), (None, ""));
        let e = store.load_artifact(rec).unwrap_err();
        assert!(
            e.message().contains("attack stage committed no artifact"),
            "{e}"
        );
        assert!(committed[1].is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_artifact_fails_its_checksum() {
        let _lock = crate::test_lock();
        let root = temp_root("corrupt");
        let store = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        store
            .commit_bytes(0, "source.edges", b"0 1 1\n", "d")
            .unwrap();
        fs::write(store.path("source.edges"), b"9 9 9\n").unwrap();
        let committed = store.committed();
        let e = store
            .load_artifact(committed[0].as_ref().unwrap())
            .unwrap_err();
        assert_eq!(e.exit_code(), 4);
        assert!(e.message().contains("failed its checksum"), "{e}");
        let _ = fs::remove_dir_all(&root);
    }

    /// The first half of a sealed stage-1 commit record: what a crash
    /// mid-append leaves at the end of the journal.
    fn torn_commit_record() -> Vec<u8> {
        let record = seal("commit\t1\tmeasure\tmeasure.txt\t0123456789abcdef\t".to_string());
        record.as_bytes()[..record.len() / 2].to_vec()
    }

    fn append_raw(path: &Path, bytes: &[u8]) {
        let mut f = fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn torn_journal_tail_leaves_the_stage_uncommitted() {
        let _lock = crate::test_lock();
        let root = temp_root("torn");
        let store = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        store
            .commit_bytes(0, "source.edges", b"0 1 1\n", "")
            .unwrap();
        // Simulate a crash mid-append of the stage-1 commit record.
        let journal = store.path(JOURNAL_FILE);
        append_raw(&journal, &torn_commit_record());
        let torn = fs::read(&journal).unwrap();
        let committed = store.committed();
        assert!(committed[0].is_some());
        assert!(committed[1].is_none(), "torn record must not count");
        // Only a session start cuts the tail; every other reader leaves
        // the bytes alone.
        let reopened = RunStore::open(&root, store.id()).unwrap();
        assert_eq!(reopened.committed(), committed);
        assert_eq!(scan_runs(&root).runs[0].status(), "at measure");
        assert_eq!(fs::read(&journal).unwrap(), torn);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn new_session_commits_directly_after_a_torn_fragment() {
        let _lock = crate::test_lock();
        let root = temp_root("torn_session");
        let store = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        store
            .commit_bytes(0, "source.edges", b"0 1 1\n", "")
            .unwrap();
        let journal = store.path(JOURNAL_FILE);
        let intact = fs::read(&journal).unwrap();
        append_raw(&journal, &torn_commit_record());
        // The next session appends no begin record first: its commit
        // must still land on a clean record boundary.
        let session = RunStore::open(&root, store.id()).unwrap();
        let committed = session.start_session().unwrap();
        assert!(committed[0].is_some() && committed[1].is_none());
        assert_eq!(fs::read(&journal).unwrap(), intact, "torn tail cut");
        session
            .commit_bytes(1, "measure.txt", b"block\n", "")
            .unwrap();
        let committed = session.committed();
        assert!(committed[0].is_some());
        assert_eq!(
            committed[1].as_ref().unwrap().artifact.as_ref().unwrap().0,
            "measure.txt"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_with_a_torn_header_gets_a_fresh_one() {
        let _lock = crate::test_lock();
        let root = temp_root("torn_header");
        let store = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        let journal = store.path(JOURNAL_FILE);
        let header = seal(format!("{JOURNAL_MAGIC}\t{JOURNAL_VERSION}"));
        for cut in 1..header.len() {
            fs::write(&journal, &header.as_bytes()[..cut]).unwrap();
            assert_eq!(store.start_session().unwrap(), vec![None; 4]);
            store.commit_bytes(0, "a.bin", b"x", "").unwrap();
            let bytes = fs::read(&journal).unwrap();
            let scan = durable::scan(&bytes, JOURNAL_MAGIC, |_, _| Ok(())).unwrap();
            assert_eq!((scan.records, scan.tail), (2, &b""[..]), "cut at {cut}");
            assert!(bytes.starts_with(header.as_bytes()), "cut at {cut}");
            assert!(store.committed()[0].is_some(), "cut at {cut}");
        }
        // A file whose first record is not a journal header is refused,
        // never cut.
        let foreign = b"{\"event\":\"begin\",\"stage\":0}\n";
        fs::write(&journal, foreign).unwrap();
        let e = store.start_session().unwrap_err();
        assert!(e.message().contains(JOURNAL_FILE), "{e}");
        assert_eq!(fs::read(&journal).unwrap(), foreign);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_runs_reports_progress() {
        let _lock = crate::test_lock();
        let root = temp_root("list");
        let void = scan_runs(&root.join("void"));
        assert!(void.runs.is_empty() && void.skipped.is_empty());
        let a = RunStore::create(&root, "Alpha Run", DOC, "s.toml", &[]).unwrap();
        let b = RunStore::create(&root, "beta", DOC, "s.toml", &[]).unwrap();
        a.commit_bytes(0, "source.edges", b"x", "").unwrap();
        for stage in 0..STAGE_NAMES.len() {
            b.commit_bytes(stage, "a.bin", b"x", "").unwrap();
        }
        let infos = scan_runs(&root).runs;
        assert_eq!(infos.len(), 2);
        let alpha = infos.iter().find(|i| i.id == a.id()).unwrap();
        assert_eq!(alpha.name, "Alpha Run");
        assert_eq!(alpha.status(), "at measure");
        let beta = infos.iter().find(|i| i.id == b.id()).unwrap();
        assert_eq!(beta.status(), "complete");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_runs_warns_about_corrupted_directories_instead_of_aborting() {
        let _lock = crate::test_lock();
        let root = temp_root("scan");
        let good = RunStore::create(&root, "good", DOC, "s.toml", &[]).unwrap();
        // A torn manifest (crash mid-write), a directory with no manifest
        // at all, and a stray plain file must all leave the listing alive.
        let torn = RunStore::create(&root, "torn", DOC, "s.toml", &[]).unwrap();
        fs::write(torn.path(MANIFEST_FILE), "{\"version\": \"0.").unwrap();
        fs::create_dir(root.join("empty-dir")).unwrap();
        fs::write(root.join("stray.txt"), "not a run").unwrap();
        let scan = scan_runs(&root);
        assert_eq!(scan.runs.len(), 1, "{:?}", scan.runs);
        assert_eq!(scan.runs[0].id, good.id());
        assert_eq!(scan.skipped.len(), 2, "{:?}", scan.skipped);
        assert!(
            scan.skipped.iter().any(|w| w.contains("empty-dir")),
            "{:?}",
            scan.skipped
        );
        assert!(
            scan.skipped
                .iter()
                .any(|w| w.contains(torn.id()) && w.contains("torn or malformed")),
            "{:?}",
            scan.skipped
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_runs_skips_a_run_whose_journal_is_not_a_journal() {
        let _lock = crate::test_lock();
        let root = temp_root("scan_journal");
        let good = RunStore::create(&root, "good", DOC, "s.toml", &[]).unwrap();
        let bad = RunStore::create(&root, "bad", DOC, "s.toml", &[]).unwrap();
        let foreign = seal("inet-run-journal\t2".to_string());
        fs::write(bad.path(JOURNAL_FILE), &foreign).unwrap();
        let scan = scan_runs(&root);
        assert_eq!(scan.runs.len(), 1, "{:?}", scan.runs);
        assert_eq!(scan.runs[0].id, good.id());
        assert!(
            matches!(&scan.skipped[..], [w] if w.contains(bad.id()) && w.contains(JOURNAL_FILE)),
            "{:?}",
            scan.skipped
        );
        assert_eq!(fs::read_to_string(bad.path(JOURNAL_FILE)).unwrap(), foreign);
        let _ = fs::remove_dir_all(&root);
    }

    fn job(state: &str, attempts: u64, deadline_ms: Option<u64>, error: &str) -> JobRecord {
        JobRecord {
            state: state.to_string(),
            attempts,
            deadline_ms,
            error: error.to_string(),
        }
    }

    #[test]
    fn job_records_share_the_journal_with_stage_records() {
        let _lock = crate::test_lock();
        let root = temp_root("job");
        let store = RunStore::create(&root, "ba", DOC, "s.toml", &[]).unwrap();
        let plain = RunStore::create(&root, "plain", DOC, "s.toml", &[]).unwrap();
        plain.commit_bytes(0, "source.edges", b"x", "").unwrap();
        store.append_job(&job("accepted", 0, None, "")).unwrap();
        store.commit_bytes(0, "source.edges", b"x", "").unwrap();
        let last = job("failed", 2, Some(250), "worker:\tinjected\nfault");
        store.append_job(&last).unwrap();
        assert!(store.committed()[0].is_some(), "job records hide no commit");
        let scan = scan_runs(&root);
        assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
        let info = |id: &str| scan.runs.iter().find(|r| r.id == id).unwrap();
        assert_eq!(info(store.id()).job, Some(last));
        assert_eq!(info(store.id()).status(), "at measure");
        assert_eq!(info(plain.id()).job, None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flat_json_reader_handles_escapes_and_rejects_junk() {
        let obj =
            parse_flat(r#"{"a": "x\n\"y\"", "b": 42, "c": ["p", "q"], "d": "\u0007"}"#).unwrap();
        assert_eq!(obj.get("a").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(obj.get("b").unwrap().as_int(), Some(42));
        assert_eq!(
            obj.get("c"),
            Some(&JsonVal::Arr(vec!["p".to_string(), "q".to_string()]))
        );
        assert_eq!(obj.get("d").unwrap().as_str(), Some("\u{7}"));
        assert!(parse_flat("{\"a\": ").is_none());
        assert!(parse_flat("not json").is_none());
        assert_eq!(
            parse_flat(&format!("{{\"s\": \"{}\"}}", escape_json("ü—\u{1}")))
                .unwrap()
                .get("s")
                .unwrap()
                .as_str(),
            Some("ü—\u{1}")
        );
    }
}

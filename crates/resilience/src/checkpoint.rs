//! Sweep checkpoints: an append-only, crash-safe progress log for long
//! attack sweeps.
//!
//! A sweep over `strategies × replicas` cells records its progress in one
//! log file. The first record is a header holding the format version, the
//! `(graph, configuration)` fingerprint and the configuration string; every
//! later record is one finished cell or one caught worker failure, written
//! once, when it happens. Re-running with the same file resumes: the loader
//! checks the fingerprint, and every cell already recorded is skipped
//! instead of recomputed.
//!
//! **Format (version 3).** A record log in [`inet_exec::durable`]'s format
//! (tab-separated fields, each record sealed with its own checksum):
//!
//! ```text
//! inet-sweep-checkpoint  3  9a3c…  v1 strategies=[…] …  <fnv64>
//! cell  degree  0  0  500  1234  3fafbe76c8b43958  0,0,0 1,-1,-9 1,-1,-4,3ff0000000000000 …  <fnv64>
//! fail  random  3  0  injected worker failure  <fnv64>
//! ```
//!
//! A `cell` record holds strategy, replica, resampled (0/1), nodes, edges,
//! the critical fraction's [`f64::to_bits`] in lowercase hex, and the curve
//! as a space-separated run of points. A `fail` record holds strategy,
//! replica, attempt and the panic message.
//!
//! A point is `Δremoved,Δgiant,Δedges[,bits]`. Each `Δ` is the wrapping
//! difference from the previous point's count, read as a signed integer
//! and printed in decimal; the first point's "previous" is
//! `(0, nodes, edges)`. `bits` is `⟨s⟩`'s [`f64::to_bits`] in lowercase
//! hex, written only when it differs from the previous point's (the first
//! point's "previous" `⟨s⟩` is `0.0`). No float is printed or parsed, so
//! any curve round-trips bit for bit, non-monotone counts up to
//! `usize::MAX` included, and a full-resolution point costs a few bytes
//! instead of a `{:?}` float.
//!
//! **Durability.** Every write goes through [`inet_exec::durable`]:
//!
//! * *Append* — [`Checkpoint::append`] writes one synced record; the first
//!   one creates the file with the header. The sweep serializes a record
//!   before it takes its state lock; under the lock it only appends.
//! * *Torn tails* — [`Checkpoint::load_recovering`] keeps the records
//!   [`inet_exec::durable::scan`] finds intact, truncates the file after
//!   them so the next append starts on a clean line, and names what it
//!   dropped in [`LoadedCheckpoint::dropped_tail`]. Only the dropped cells
//!   are recomputed. A file whose first record is not a checkpoint header
//!   is refused, never cut.
//! * *Snapshots* — [`Checkpoint::save_with_retry`] writes the whole state in
//!   the same format with [`inet_exec::durable::write_atomic`]: `<name>.tmp`,
//!   fsync, rename over `<name>`, fsync the directory. The same loader
//!   reads it.
//! * *Retries* — appends, snapshots and loads retry transient IO failures
//!   under a [`RetryPolicy`]: capped exponential backoff with deterministic
//!   jitter (SplitMix64 of the attempt index), so chaos runs replay
//!   identically. The `checkpoint.write` and `checkpoint.read` failpoints
//!   fire at the start of every attempt, keyed by the attempt index.
//! * *Diagnosis* — the header keeps the human-readable config string next
//!   to the fingerprint, so resuming against the wrong sweep names the
//!   differing field (`checkpoint incompatible: seed (...)`).
//!
//! Files of older versions are refused with a one-line error: version 1
//! (one whole JSON document, rewritten after every cell) and version 2
//! (the same log with `{:?}`-printed curves). Delete them to start over.

use crate::percolation::{AttackCurve, CurvePoint};
/// Re-exported from [`inet_exec::durable`], where the checksum lives.
pub use inet_exec::durable::fnv64;
use inet_exec::durable::{self, escape, parse_hex, seal, unescape, Fnv64, RecordWriter};
pub use inet_exec::{RetryExhausted, RetryPolicy};
use inet_graph::io::{Row, MAX_DECIMAL_DIGITS};
use inet_graph::Csr;
use std::fmt;
use std::path::{Path, PathBuf};

/// Format version written by this build; files of other versions are
/// refused.
pub const CHECKPOINT_VERSION: u64 = 3;

/// First field of the header record.
const MAGIC: &str = "inet-sweep-checkpoint";

/// A typed checkpoint failure. `Display` is one line and stable enough for
/// the CLI to show verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written, even after retries.
    Io {
        /// Checkpoint path.
        path: PathBuf,
        /// Last OS error, annotated with the attempt count.
        message: String,
    },
    /// The file is not a readable version-3 checkpoint.
    Parse {
        /// Checkpoint path.
        path: PathBuf,
        /// What is wrong with the header.
        message: String,
    },
    /// The checkpoint belongs to a different `(graph, configuration)`.
    Incompatible {
        /// The first differing configuration field (`seed`, `strategies`,
        /// …), or `graph` when the configs match and the graph itself
        /// differs.
        field: String,
        /// What this run expects for that field.
        expected: String,
        /// What the checkpoint holds.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "cannot access checkpoint {}: {message}", path.display())
            }
            CheckpointError::Parse { path, message } => {
                write!(f, "cannot read checkpoint {}: {message}", path.display())
            }
            CheckpointError::Incompatible {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint incompatible: {field} (checkpoint has {found}, this run has {expected})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A successfully loaded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedCheckpoint {
    /// The intact records.
    pub checkpoint: Checkpoint,
    /// The torn or corrupt tail the loader cut from the file, described as
    /// `record N (cell strategy/replica): B byte(s) at offset O`; `None`
    /// when every record was intact.
    pub dropped_tail: Option<String>,
}

/// One finished `(strategy, replica)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Canonical strategy name (see [`crate::strategy::Strategy::name`]).
    pub strategy: String,
    /// Replica index within the strategy.
    pub replica: usize,
    /// `true` when the first attempt panicked and this curve comes from the
    /// resample pass.
    pub resampled: bool,
    /// The completed attack curve.
    pub curve: AttackCurve,
}

/// One worker failure (a caught panic), kept for the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Canonical strategy name of the failing cell.
    pub strategy: String,
    /// Replica index of the failing cell.
    pub replica: usize,
    /// 0 for the first attempt, 1 for the resample.
    pub attempt: usize,
    /// The panic message.
    pub message: String,
}

/// The persisted state of a sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Graph+config fingerprint the cells belong to.
    pub fingerprint: u64,
    /// Human-readable configuration string the fingerprint was computed
    /// over. Lets a mismatch name the differing field instead of just the
    /// hash.
    pub config: String,
    /// Completed cells, in completion order.
    pub cells: Vec<CellRecord>,
    /// Caught worker panics, in occurrence order.
    pub failures: Vec<FailureRecord>,
}

/// FNV-1a 64 fingerprint binding a checkpoint to one `(graph, config)`
/// pair: node count, edge count, every edge, and the config description
/// all feed the hash, so resuming against a different graph or sweep shape
/// is rejected instead of silently mixing results.
pub fn fingerprint(g: &Csr, config: &str) -> u64 {
    let mut h = Fnv64::default();
    h.write_u64(g.node_count() as u64);
    h.write_u64(g.edge_count() as u64);
    for (u, v, w) in g.edges() {
        h.write_u64(u as u64);
        h.write_u64(v as u64);
        h.write_u64(w);
    }
    h.write(config.as_bytes());
    h.finish()
}

impl CellRecord {
    /// This cell as one checksummed log record, newline included.
    pub fn log_line(&self) -> String {
        let c = &self.curve;
        let head = format!(
            "cell\t{}\t{}\t{}\t{}\t{}\t{:x}\t",
            escape(&self.strategy),
            self.replica,
            u8::from(self.resampled),
            c.nodes,
            c.edges,
            c.critical_fraction.to_bits(),
        );
        let mut record = RecordWriter::with_capacity(head.len() + 16 * c.points.len() + 18);
        record.push(head.as_bytes());
        write_curve(c, |piece| record.push(piece));
        record.seal()
    }
}

/// Hands `curve`'s points in the version-3 layout (see the module doc) to
/// `push`, one stack row per point.
fn write_curve(curve: &AttackCurve, mut push: impl FnMut(&[u8])) {
    let mut row = Row::<{ 1 + 3 * (2 + MAX_DECIMAL_DIGITS) + 16 }>::default();
    let (mut removed, mut giant, mut edges, mut bits) = (0, curve.nodes, curve.edges, 0);
    for (j, p) in curve.points.iter().enumerate() {
        row.clear();
        if j > 0 {
            row.byte(b' ');
        }
        push_delta(&mut row, removed, p.removed);
        row.byte(b',');
        push_delta(&mut row, giant, p.giant);
        row.byte(b',');
        push_delta(&mut row, edges, p.edges);
        (removed, giant, edges) = (p.removed, p.giant, p.edges);
        let next = p.mean_component.to_bits();
        if next != bits {
            bits = next;
            push_hex(row.byte(b','), bits);
        }
        push(row.as_bytes());
    }
}

/// `{:02x}` of every byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut pairs = [[0; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [b"0123456789abcdef"[b >> 4], b"0123456789abcdef"[b & 0xf]];
        b += 1;
    }
    pairs
};

/// Appends `n` in lowercase hex, exactly as `{:x}` prints it; two digits
/// per table lookup.
fn push_hex<const N: usize>(row: &mut Row<N>, n: u64) {
    let mut text = [0; 16];
    for (digits, byte) in text.chunks_exact_mut(2).zip(n.to_be_bytes()) {
        digits.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
    }
    // Every `⟨s⟩ ≥ 1` has all 16 digits.
    let len = (n | 1).ilog2() as usize / 4 + 1;
    row.bytes(&text[16 - len..]);
}

/// Appends `to - from` (wrapping, read as signed) in decimal.
fn push_delta<const N: usize>(row: &mut Row<N>, from: usize, to: usize) {
    let delta = to.wrapping_sub(from) as isize;
    if delta < 0 {
        row.byte(b'-');
    }
    row.decimal(delta.unsigned_abs() as u64);
}

/// Inverse of [`write_curve`]: the points of a curve with `nodes` nodes and
/// `edges` edges.
///
/// One forward pass over the bytes. Points are split on `' '` (empty ones
/// skipped) and their fields on `','`; each count is a decimal `isize`
/// as `str::parse` reads it, and the optional fourth field is lowercase
/// hex. Errors name the first bad piece in reading order.
fn parse_curve(field: &str, nodes: usize, edges: usize) -> Result<Vec<CurvePoint>, String> {
    let bytes = field.as_bytes();
    let mut counts = [0, nodes, edges];
    let mut bits = 0;
    let mut points = Vec::with_capacity(field.len() / 8);
    let mut at = 0;
    while at < bytes.len() {
        if bytes[at] == b' ' {
            at += 1;
            continue;
        }
        let point = at;
        // Whether a piece starts at `at`: the previous one ended in a comma.
        let mut more = true;
        for count in &mut counts {
            if !more {
                return Err("curve point has fewer than three counts".to_string());
            }
            let (delta, end) = delta_at(field, at)?;
            *count = count.wrapping_add_signed(delta);
            more = bytes.get(end) == Some(&b',');
            at = end + usize::from(more);
        }
        if more {
            let end = piece_end(bytes, at, b",");
            bits = hex(&field[at..end])?;
            if bytes.get(end) == Some(&b',') {
                let point = &field[point..piece_end(bytes, end, b"")];
                return Err(format!("bad curve point {point:?}"));
            }
            at = end;
        }
        let [removed, giant, edges] = counts;
        points.push(CurvePoint {
            removed,
            giant,
            edges,
            mean_component: f64::from_bits(bits),
        });
    }
    Ok(points)
}

/// The end of the piece starting at `at`: the first space or `stops` byte
/// from there, or the end of `bytes`.
fn piece_end(bytes: &[u8], at: usize, stops: &[u8]) -> usize {
    bytes[at..]
        .iter()
        .position(|b| *b == b' ' || stops.contains(b))
        .map_or(bytes.len(), |i| at + i)
}

/// The signed decimal count starting at byte `start` of `field`, and where
/// it ends: what `str::parse::<isize>` makes of the piece up to the next
/// `','` or `' '`.
fn delta_at(field: &str, start: usize) -> Result<(isize, usize), String> {
    let bytes = field.as_bytes();
    let negative = bytes.get(start) == Some(&b'-');
    let first = start + usize::from(negative || bytes.get(start) == Some(&b'+'));
    let mut at = first;
    let mut magnitude: Option<usize> = Some(0);
    while let Some(digit) = bytes
        .get(at)
        .and_then(|b| b.checked_sub(b'0'))
        .filter(|d| *d < 10)
    {
        magnitude = magnitude
            .and_then(|m| m.checked_mul(10))
            .and_then(|m| m.checked_add(usize::from(digit)));
        at += 1;
    }
    let limit = if negative {
        isize::MIN.unsigned_abs()
    } else {
        isize::MAX.unsigned_abs()
    };
    match magnitude.filter(|m| *m <= limit) {
        Some(m) if at > first && matches!(bytes.get(at), None | Some(b',' | b' ')) => {
            let delta = if negative { 0usize.wrapping_sub(m) } else { m };
            Ok((delta as isize, at))
        }
        _ => Err(format!(
            "bad number {:?}",
            &field[start..piece_end(bytes, start, b",")]
        )),
    }
}

/// A decimal number field.
fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// A lowercase hex `u64` field.
fn hex(s: &str) -> Result<u64, String> {
    parse_hex(s.as_bytes()).ok_or_else(|| format!("bad hex number {s:?}"))
}

impl FailureRecord {
    /// This failure as one checksummed log record, newline included.
    pub fn log_line(&self) -> String {
        seal(format!(
            "fail\t{}\t{}\t{}\t{}",
            escape(&self.strategy),
            self.replica,
            self.attempt,
            escape(&self.message)
        ))
    }
}

impl Checkpoint {
    /// A fresh, empty checkpoint for `fingerprint`, computed over `config`.
    pub fn new(fingerprint: u64, config: impl Into<String>) -> Self {
        Checkpoint {
            fingerprint,
            config: config.into(),
            cells: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Explains why this checkpoint cannot serve a run whose fingerprint is
    /// `expected_fingerprint` over `expected_config` — or `None` when it
    /// can. Names the first differing configuration field.
    pub fn diagnose_incompatibility(
        &self,
        expected_fingerprint: u64,
        expected_config: &str,
    ) -> Option<CheckpointError> {
        if self.fingerprint == expected_fingerprint {
            return None;
        }
        if self.config == expected_config {
            // Same sweep shape, different graph bytes.
            return Some(CheckpointError::Incompatible {
                field: "graph".to_string(),
                expected: format!("fingerprint {expected_fingerprint:016x}"),
                found: format!("fingerprint {:016x}", self.fingerprint),
            });
        }
        let stored_toks: Vec<&str> = self.config.split_whitespace().collect();
        let expect_toks: Vec<&str> = expected_config.split_whitespace().collect();
        for i in 0..stored_toks.len().max(expect_toks.len()) {
            let s = stored_toks.get(i).copied().unwrap_or("<missing>");
            let e = expect_toks.get(i).copied().unwrap_or("<missing>");
            if s != e {
                let key_src = if e == "<missing>" { s } else { e };
                let field = key_src
                    .split('=')
                    .next()
                    .filter(|k| !k.is_empty())
                    .unwrap_or("config")
                    .to_string();
                return Some(CheckpointError::Incompatible {
                    field,
                    expected: e.to_string(),
                    found: s.to_string(),
                });
            }
        }
        // An undetectable diff: all we can report is the hash.
        Some(CheckpointError::Incompatible {
            field: "fingerprint".to_string(),
            expected: format!("{expected_fingerprint:016x}"),
            found: format!("{:016x}", self.fingerprint),
        })
    }

    /// The header record, newline included.
    fn header_line(&self) -> String {
        seal(format!(
            "{MAGIC}\t{CHECKPOINT_VERSION}\t{:016x}\t{}",
            self.fingerprint,
            escape(&self.config)
        ))
    }

    /// The whole state as a version-3 log: header, cells, failures.
    pub fn to_log(&self) -> String {
        let mut out = self.header_line();
        for cell in &self.cells {
            out.push_str(&cell.log_line());
        }
        for failure in &self.failures {
            out.push_str(&failure.log_line());
        }
        out
    }

    /// Parses a complete log. Unlike [`Checkpoint::load_recovering`], a
    /// torn or corrupt record anywhere is an error, not a tail to drop.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let (checkpoint, scan) = parse_log(text.as_bytes())?;
        match (checkpoint, torn_tail(&scan)) {
            (Some(checkpoint), None) => Ok(checkpoint),
            (_, Some(dropped)) => Err(format!("bad {dropped}")),
            (None, None) => Err("no header record".to_string()),
        }
    }

    /// Writes a whole-state snapshot in the log format with
    /// [`durable::write_atomic`], retrying transient failures under
    /// `retry`: at every instant either the old file or the new one is
    /// complete on disk, and once this returns the new one survives a
    /// crash. The `checkpoint.write` failpoint fires at the start of every
    /// attempt, keyed by the attempt index, so a chaos plan can fail exactly
    /// the first attempt and watch the retry recover.
    pub fn save_with_retry(&self, path: &Path, retry: &RetryPolicy) -> Result<(), CheckpointError> {
        // Each attempt is panic-fenced by the shared retry loop: an
        // injected (or real) panic inside one write attempt is just a
        // failed attempt to retry.
        retry
            .run(|attempt| {
                inet_fault::check("checkpoint.write", attempt).map_err(|e| e.to_string())?;
                durable::write_atomic(path, self.to_log().as_bytes())
                    .map_err(|e| format!("write {}: {e}", path.display()))
            })
            .map_err(|exhausted| CheckpointError::Io {
                path: path.to_path_buf(),
                message: exhausted.to_string(),
            })
    }

    /// Appends one record (from [`CellRecord::log_line`] or
    /// [`FailureRecord::log_line`]) to this checkpoint's log at `path` with
    /// [`durable::append`], retrying transient failures under `retry`. A
    /// missing or empty file gets this checkpoint's header first. The
    /// `checkpoint.write` failpoint fires like
    /// [`Checkpoint::save_with_retry`]'s.
    pub fn append(
        &self,
        path: &Path,
        record: &str,
        retry: &RetryPolicy,
    ) -> Result<(), CheckpointError> {
        let header = self.header_line();
        retry
            .run(|attempt| {
                inet_fault::check("checkpoint.write", attempt).map_err(|e| e.to_string())?;
                durable::append(path, header.as_bytes(), record.as_bytes())
                    .map_err(|e| format!("append to {}: {e}", path.display()))
            })
            .map_err(|exhausted| CheckpointError::Io {
                path: path.to_path_buf(),
                message: exhausted.to_string(),
            })
    }

    /// Loads a checkpoint from `path`. Returns `Ok(None)` when the file
    /// does not exist or holds no complete header (a fresh run), `Err` on
    /// unreadable or foreign content. Convenience wrapper over
    /// [`Checkpoint::load_recovering`] that drops the torn-tail report.
    pub fn load(path: &Path) -> Result<Option<Checkpoint>, String> {
        Checkpoint::load_recovering(path, &RetryPolicy::default())
            .map(|opt| opt.map(|loaded| loaded.checkpoint))
            .map_err(|e| e.to_string())
    }

    /// Loads the intact record prefix of the log at `path`, retrying
    /// transient IO failures under `retry`. A torn or corrupt tail is cut
    /// from the file (so the next append starts on a clean line) and named
    /// in [`LoadedCheckpoint::dropped_tail`]. Returns `Ok(None)` when the
    /// file is missing or holds only a torn header.
    pub fn load_recovering(
        path: &Path,
        retry: &RetryPolicy,
    ) -> Result<Option<LoadedCheckpoint>, CheckpointError> {
        // The retry loop retries *transient* outcomes (an `Err` from the
        // closure: injected faults, fenced panics, IO errors other than
        // NotFound); a foreign or version-1 file is terminal and returned
        // as the closure's success value, ending the loop immediately.
        type Terminal = Result<Option<LoadedCheckpoint>, CheckpointError>;
        let outcome: Result<Terminal, RetryExhausted> = retry.run(|attempt| {
            inet_fault::check("checkpoint.read", attempt).map_err(|e| e.to_string())?;
            let bytes = durable::read_log(path).map_err(|e| e.to_string())?;
            let (checkpoint, scan) = match parse_log(&bytes) {
                Ok(read) => read,
                Err(message) => {
                    return Ok(Err(CheckpointError::Parse {
                        path: path.to_path_buf(),
                        message,
                    }))
                }
            };
            scan.cut_tail(path)
                .map_err(|e| format!("truncate torn tail of {}: {e}", path.display()))?;
            Ok(Ok(checkpoint.map(|checkpoint| LoadedCheckpoint {
                checkpoint,
                dropped_tail: torn_tail(&scan),
            })))
        });
        outcome.map_err(|exhausted| CheckpointError::Io {
            path: path.to_path_buf(),
            message: exhausted.to_string(),
        })?
    }
}

/// Reads a log's intact records with [`durable::scan`]: the checkpoint they
/// hold (`None` without a complete header) and the scan, whose tail is
/// what follows them. Errors only when the file is not a version-3
/// checkpoint at all.
fn parse_log(bytes: &[u8]) -> Result<(Option<Checkpoint>, durable::Scan<'_>), String> {
    if bytes.first() == Some(&b'{') {
        return Err(unsupported("format version 1 (a whole JSON document)"));
    }
    let mut checkpoint: Option<Checkpoint> = None;
    let scan = durable::scan(bytes, MAGIC, |_, body| match checkpoint.as_mut() {
        Some(ck) => parse_record(body, ck),
        None => parse_header(body).map(|ck| checkpoint = Some(ck)),
    })?;
    Ok((checkpoint, scan))
}

/// Describes a scan's torn or corrupt tail, if it has one: the record
/// index, the cell when its key fields survived the tear, and the offset.
fn torn_tail(scan: &durable::Scan<'_>) -> Option<String> {
    (!scan.tail.is_empty()).then(|| {
        let fields: Vec<&[u8]> = scan.tail.splitn(4, |&b| b == b'\t').collect();
        let what = match fields.as_slice() {
            [tag @ (b"cell" | b"fail"), strategy, replica, _] => format!(
                " ({} {}/{})",
                if *tag == b"cell" { "cell" } else { "failure" },
                String::from_utf8_lossy(strategy),
                String::from_utf8_lossy(replica)
            ),
            _ => String::new(),
        };
        let (records, len, at) = (scan.records, scan.tail.len(), scan.intact_len);
        format!("record {records}{what}: {len} byte(s) at offset {at}")
    })
}

/// Parses the header record body.
fn parse_header(body: &str) -> Result<Checkpoint, String> {
    let fields: Vec<&str> = body.splitn(4, '\t').collect();
    let [_magic, version, fingerprint, config] = fields.as_slice() else {
        return Err(format!("not a {MAGIC} file (short header)"));
    };
    if *version != CHECKPOINT_VERSION.to_string() {
        return Err(unsupported(&format!("format version {version}")));
    }
    let fingerprint = u64::from_str_radix(fingerprint, 16)
        .map_err(|e| format!("bad checkpoint fingerprint: {e}"))?;
    Ok(Checkpoint::new(fingerprint, unescape(config)?))
}

/// The one-line refusal of a checkpoint written by an older build.
fn unsupported(what: &str) -> String {
    format!(
        "{what} is not supported; this build reads version {CHECKPOINT_VERSION} logs only \
         — delete the file to start the sweep over"
    )
}

/// Parses one cell or failure record body into `ck`.
fn parse_record(body: &str, ck: &mut Checkpoint) -> Result<(), String> {
    let fields: Vec<&str> = body.split('\t').collect();
    match fields.as_slice() {
        ["cell", strategy, replica, resampled, nodes, edges, critical, points] => {
            let (nodes, edges) = (num(nodes)?, num(edges)?);
            ck.cells.push(CellRecord {
                strategy: unescape(strategy)?,
                replica: num(replica)?,
                resampled: num::<u8>(resampled)? != 0,
                curve: AttackCurve {
                    nodes,
                    edges,
                    points: parse_curve(points, nodes, edges)?,
                    critical_fraction: f64::from_bits(hex(critical)?),
                },
            });
        }
        ["fail", strategy, replica, attempt, message] => ck.failures.push(FailureRecord {
            strategy: unescape(strategy)?,
            replica: num(replica)?,
            attempt: num(attempt)?,
            message: unescape(message)?,
        }),
        _ => return Err("unknown record".to_string()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn sample_checkpoint() -> Checkpoint {
        let mut ck = Checkpoint::new(
            0xdead_beef_0bad_f00d,
            "v1 strategies=[degree,random] replicas=3 seed=7",
        );
        ck.cells.push(CellRecord {
            strategy: "degree".to_string(),
            replica: 0,
            resampled: false,
            curve: AttackCurve {
                nodes: 5,
                edges: 4,
                points: vec![
                    CurvePoint {
                        removed: 0,
                        giant: 5,
                        edges: 4,
                        mean_component: 0.0,
                    },
                    CurvePoint {
                        removed: 5,
                        giant: 0,
                        edges: 0,
                        mean_component: 1.0 / 3.0,
                    },
                ],
                critical_fraction: 0.4,
            },
        });
        ck.cells.push(CellRecord {
            strategy: "random".to_string(),
            replica: 2,
            resampled: true,
            curve: AttackCurve {
                nodes: 5,
                edges: 4,
                points: vec![],
                critical_fraction: 0.0,
            },
        });
        ck.failures.push(FailureRecord {
            strategy: "random".to_string(),
            replica: 2,
            attempt: 0,
            message: "injected \"panic\"\nwith newline \\ and\ttab".to_string(),
        });
        ck
    }

    /// The sample's first critical fraction, 0.4, as its record field.
    const CRITICAL_0_4: &str = "\t3fd999999999999a\t";

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("inet-resilience-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn log_round_trip_is_lossless() {
        let ck = sample_checkpoint();
        let parsed = Checkpoint::parse(&ck.to_log()).unwrap();
        assert_eq!(parsed, ck);
        // Idempotent: a second cycle produces identical text.
        assert_eq!(parsed.to_log(), ck.to_log());
        // One record per line: header, two cells, one failure.
        assert_eq!(ck.to_log().lines().count(), 4);
    }

    #[test]
    fn format_version_3_bytes_are_pinned() {
        // Existing version-3 checkpoints hold exactly these bytes (the
        // checksums were computed independently of this crate). Counts are deltas
        // from `(0, nodes, edges)`, `⟨s⟩` and `f_c` are raw bits, and the
        // first point's `⟨s⟩` of 0.0 is left out.
        const V3: &str = "inet-sweep-checkpoint\t3\tdeadbeef0badf00d\t\
            v1 strategies=[degree,random] replicas=3 seed=7\t06247b48199409ac\n\
            cell\tdegree\t0\t0\t5\t4\t3fd999999999999a\t0,0,0 5,-5,-4,3fd5555555555555\t\
            648b9cf598c696a1\n\
            cell\trandom\t2\t1\t5\t4\t0\t\t0a945e4187e6b5ab\n\
            fail\trandom\t2\t0\tinjected \"panic\"\\nwith newline \\\\ and\\ttab\t\
            7019fc04efabcb0f\n";
        let log = sample_checkpoint().to_log();
        assert_eq!(log.len(), 307);
        assert_eq!(log, V3);
        assert_eq!(Checkpoint::parse(V3).unwrap(), sample_checkpoint());
    }

    /// `CellRecord::log_line` written plainly with `write!`: the
    /// byte-identity oracle for the hand-rolled encoder.
    fn log_line_oracle(cell: &CellRecord) -> String {
        let c = &cell.curve;
        let mut body = format!(
            "cell\t{}\t{}\t{}\t{}\t{}\t{:x}\t",
            escape(&cell.strategy),
            cell.replica,
            u8::from(cell.resampled),
            c.nodes,
            c.edges,
            c.critical_fraction.to_bits(),
        );
        let delta = |from: usize, to: usize| to.wrapping_sub(from) as isize;
        let (mut last, mut bits) = ((0, c.nodes, c.edges), 0.0f64.to_bits());
        for (j, p) in c.points.iter().enumerate() {
            let _ = write!(
                body,
                "{}{},{},{}",
                if j > 0 { " " } else { "" },
                delta(last.0, p.removed),
                delta(last.1, p.giant),
                delta(last.2, p.edges),
            );
            if p.mean_component.to_bits() != bits {
                bits = p.mean_component.to_bits();
                let _ = write!(body, ",{bits:x}");
            }
            last = (p.removed, p.giant, p.edges);
        }
        seal(body)
    }

    /// A random cell around `points`, with counts and floats that stress
    /// the format.
    fn random_cell(rng: &mut inet_stats::rng::StdRng, points: Vec<CurvePoint>) -> CellRecord {
        let count = |rng: &mut inet_stats::rng::StdRng| match rng.gen_range(0..3usize) {
            0 => usize::MAX - rng.gen_range(0..3usize),
            1 => rng.gen_range(0..100_000usize),
            _ => rng.next_u64() as usize,
        };
        CellRecord {
            strategy: "kcore-recalc".to_string(),
            replica: rng.gen_range(0..1000usize),
            resampled: rng.gen_bool(0.5),
            curve: AttackCurve {
                nodes: count(rng),
                edges: count(rng),
                points,
                critical_fraction: f64::from_bits(rng.next_u64()),
            },
        }
    }

    /// `parse_curve` as it was before the one-pass reader, kept as the
    /// oracle: split on `' '` and `','`, then `str::parse` each count.
    fn parse_curve_split(
        field: &str,
        nodes: usize,
        edges: usize,
    ) -> Result<Vec<CurvePoint>, String> {
        let mut counts = [0, nodes, edges];
        let mut bits = 0;
        let mut points = Vec::new();
        for point in field.split(' ').filter(|point| !point.is_empty()) {
            let mut parts = point.split(',');
            for count in &mut counts {
                let delta = parts
                    .next()
                    .ok_or("curve point has fewer than three counts")?;
                *count = count.wrapping_add_signed(num(delta)?);
            }
            if let Some(field) = parts.next() {
                bits = hex(field)?;
            }
            if parts.next().is_some() {
                return Err(format!("bad curve point {point:?}"));
            }
            let [removed, giant, edges] = counts;
            points.push(CurvePoint {
                removed,
                giant,
                edges,
                mean_component: f64::from_bits(bits),
            });
        }
        Ok(points)
    }

    /// The one-pass reader accepts and refuses exactly what the split
    /// reader does, with the same points and the same message, on written
    /// curves, byte-mutated ones, and strings over the format's alphabet.
    #[test]
    fn parse_curve_matches_the_split_oracle() {
        let pieces = [
            "0",
            "1",
            "-1",
            "+7",
            "-",
            "+",
            "",
            ",",
            " ",
            "  ",
            ",,",
            "a",
            "f",
            "ff",
            "x",
            "é",
            "007",
            "-0",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "ffffffffffffffff",
            "10000000000000000",
            "+-1",
            "1-",
        ];
        let bits = |r: Result<Vec<CurvePoint>, String>| {
            r.map(|points| {
                points
                    .iter()
                    .map(|p| (p.removed, p.giant, p.edges, p.mean_component.to_bits()))
                    .collect::<Vec<_>>()
            })
        };
        inet_stats::rng::check(2000, |rng| {
            let mut field = if rng.gen_bool(0.5) {
                let points = crate::encode::tests::random_points(rng);
                let cell = random_cell(rng, points);
                let mut out = Vec::new();
                write_curve(&cell.curve, |piece| out.extend_from_slice(piece));
                String::from_utf8(out).unwrap()
            } else {
                (0..rng.gen_range(0..12usize))
                    .map(|_| pieces[rng.gen_range(0..pieces.len())])
                    .collect()
            };
            for _ in 0..rng.gen_range(0..4usize) {
                if field.is_empty() {
                    break;
                }
                // Replace, insert or delete a piece at a char boundary.
                let mut at = rng.gen_range(0..field.len());
                while !field.is_char_boundary(at) {
                    at -= 1;
                }
                let piece = pieces[rng.gen_range(0..pieces.len())];
                match rng.gen_range(0..3usize) {
                    0 => field.insert_str(at, piece),
                    1 => {
                        field.remove(at);
                    }
                    _ => {
                        field.remove(at);
                        field.insert_str(at, piece);
                    }
                }
            }
            let (nodes, edges) = (rng.next_u64() as usize, rng.gen_range(0..100usize));
            assert_eq!(
                bits(parse_curve(&field, nodes, edges)),
                bits(parse_curve_split(&field, nodes, edges)),
                "{field:?}"
            );
        });
    }

    #[test]
    fn log_line_matches_the_write_oracle_on_random_curves() {
        inet_stats::rng::check(300, |rng| {
            let points = crate::encode::tests::random_points(rng);
            let cell = random_cell(rng, points);
            assert_eq!(cell.log_line(), log_line_oracle(&cell));
        });
    }

    #[test]
    fn random_curves_round_trip_bit_for_bit() {
        // Values a printed float could lose: signed zeros, subnormals,
        // integral values at 1e16 and beyond, NaN payloads.
        let floats = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            1e16,
            1e16 + 2.0,
            1.0 / 3.0,
            f64::INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef),
        ];
        inet_stats::rng::check(300, |rng| {
            let mut points = crate::encode::tests::random_points(rng);
            for p in &mut points {
                if rng.gen_bool(0.3) {
                    p.mean_component = floats[rng.gen_range(0..floats.len())];
                }
                // Non-monotone counts, and the extremes.
                if rng.gen_bool(0.1) {
                    p.giant = [0, 1, usize::MAX][rng.gen_range(0..3usize)];
                }
            }
            let cell = random_cell(rng, points);
            let mut ck = Checkpoint::new(rng.next_u64(), "cfg");
            ck.cells.push(cell);
            let parsed = Checkpoint::parse(&ck.to_log()).unwrap();
            let bits = |ck: &Checkpoint| {
                let c = &ck.cells[0].curve;
                let points: Vec<_> = c
                    .points
                    .iter()
                    .map(|p| (p.removed, p.giant, p.edges, p.mean_component.to_bits()))
                    .collect();
                (c.nodes, c.edges, c.critical_fraction.to_bits(), points)
            };
            assert_eq!(bits(&parsed), bits(&ck));
            assert_eq!(parsed.to_log(), ck.to_log());
        });
    }

    #[test]
    fn full_resolution_ba_cell_costs_at_most_16_bytes_a_point() {
        use inet_generators::{BarabasiAlbert, Generator};
        let g = BarabasiAlbert::new(10_000, 2)
            .generate(&mut inet_stats::rng::seeded_rng(7))
            .graph
            .to_csr();
        let order = crate::strategy::Strategy::Random.removal_order(&g, 7, 0);
        let cell = CellRecord {
            strategy: "random".to_string(),
            replica: 0,
            resampled: false,
            curve: crate::percolation::percolation_curve(&g, &order, 1),
        };
        let points = cell.curve.points.len();
        let bytes = cell.log_line().len();
        assert_eq!(points, 10_001);
        // Version 2 printed this cell in 313 679 bytes, 31.4 a point.
        assert_eq!(bytes, 153_595);
        assert!(bytes <= 16 * points, "{bytes} bytes for {points} points");
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ck = Checkpoint::new(7, "");
        assert_eq!(Checkpoint::parse(&ck.to_log()).unwrap(), ck);
    }

    #[test]
    fn rejects_other_versions_and_foreign_files() {
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("not a checkpoint at all\n").is_err());
        assert!(Checkpoint::parse("cell\tdegree\n").is_err());
        // A version-2 log: the same framing, with `{:?}`-printed curves.
        const V2: &str = "inet-sweep-checkpoint\t2\tdeadbeef0badf00d\t\
            v1 strategies=[degree,random] replicas=3 seed=7\t41e77faf9d16c1cd\n\
            cell\tdegree\t0\t0\t5\t4\t0.4\t0 5 4 0.0 5 0 0 0.3333333333333333\t\
            c6ccae0006a268a3\n";
        let path = tmp_path("v2.ckpt");
        std::fs::write(&path, V2).unwrap();
        let err = Checkpoint::load_recovering(&path, &RetryPolicy::no_delay()).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse { .. }), "{err}");
        let text = err.to_string();
        assert!(text.contains("format version 2 is not supported"), "{text}");
        assert_eq!(text.lines().count(), 1, "{text}");
        // Refusal leaves the file untouched.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), V2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_1_document_is_refused_in_one_line() {
        let path = tmp_path("v1.json");
        std::fs::write(
            &path,
            "{\n  \"checksum\": \"0\",\n  \"version\": 1,\n  \"cells\": []\n}\n",
        )
        .unwrap();
        let err = Checkpoint::load_recovering(&path, &RetryPolicy::no_delay()).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse { .. }), "{err}");
        let text = err.to_string();
        assert!(text.contains("version 1"), "{text}");
        assert_eq!(text.lines().count(), 1, "{text}");
        // Refusal leaves the file untouched.
        assert!(std::fs::read_to_string(&path).unwrap().starts_with('{'));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_and_load_round_trip() {
        let path = tmp_path("state.ckpt");
        assert_eq!(Checkpoint::load(&path).unwrap(), None);
        let ck = sample_checkpoint();
        ck.save_with_retry(&path, &RetryPolicy::no_delay()).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), Some(ck));
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file must be renamed away"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appended_log_loads_like_a_snapshot() {
        let path = tmp_path("append.ckpt");
        let ck = sample_checkpoint();
        let retry = RetryPolicy::no_delay();
        for cell in &ck.cells {
            ck.append(&path, &cell.log_line(), &retry).unwrap();
        }
        for f in &ck.failures {
            ck.append(&path, &f.log_line(), &retry).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), ck.to_log());
        // Appending to an existing file does not repeat the header.
        ck.append(&path, &ck.cells[0].log_line(), &retry).unwrap();
        let loaded = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(loaded.cells.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn silent_corruption_fails_the_record_checksum() {
        let ck = sample_checkpoint();
        // Flip the last hex digit of critical_fraction 0.4: still a
        // well-formed record, only the checksum can catch it.
        let corrupt = ck
            .to_log()
            .replacen(CRITICAL_0_4, "\t3fd999999999999b\t", 1);
        assert_ne!(corrupt, ck.to_log());
        let err = Checkpoint::parse(&corrupt).unwrap_err();
        assert!(err.contains("record 1 (cell degree/0)"), "{err}");
    }

    #[test]
    fn corrupt_record_is_dropped_with_everything_after_it() {
        let path = tmp_path("corrupt.ckpt");
        let ck = sample_checkpoint();
        let text = ck.to_log();
        std::fs::write(
            &path,
            text.replacen(CRITICAL_0_4, "\t3fd999999999999b\t", 1),
        )
        .unwrap();
        let loaded = Checkpoint::load_recovering(&path, &RetryPolicy::no_delay())
            .unwrap()
            .unwrap();
        assert!(loaded.checkpoint.cells.is_empty());
        assert!(loaded.checkpoint.failures.is_empty());
        let tail = loaded.dropped_tail.unwrap();
        assert!(tail.starts_with("record 1 (cell degree/0)"), "{tail}");
        // The file was cut back to the header.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            ck.to_log().lines().next().unwrap().to_string() + "\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_separates_graphs_and_configs() {
        let a = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let b = Csr::from_edges(3, &[(0, 1), (0, 2)]);
        assert_ne!(fingerprint(&a, "cfg"), fingerprint(&b, "cfg"));
        assert_ne!(fingerprint(&a, "cfg"), fingerprint(&a, "cfg2"));
        assert_eq!(fingerprint(&a, "cfg"), fingerprint(&a, "cfg"));
    }

    #[test]
    fn fingerprint_known_answer() {
        // Existing checkpoint headers carry fingerprints computed this way,
        // so this value must never change.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let fp = fingerprint(&g, "v1 strategies=[random] replicas=2 seed=7");
        assert_eq!(format!("{fp:016x}"), "3c2c78e85886c864");
    }

    #[test]
    fn incompatibility_names_the_differing_field() {
        let mk = |config: &str| Checkpoint::new(1, config);
        let current = "v1 strategies=[random,degree] replicas=3 seed=42 record=1 bc_sources=8";

        // Matching fingerprint: compatible regardless of anything else.
        assert_eq!(mk("whatever").diagnose_incompatibility(1, current), None);

        let stored = "v1 strategies=[random,degree] replicas=3 seed=7 record=1 bc_sources=8";
        match mk(stored).diagnose_incompatibility(2, current) {
            Some(CheckpointError::Incompatible {
                field,
                expected,
                found,
            }) => {
                assert_eq!(field, "seed");
                assert_eq!(expected, "seed=42");
                assert_eq!(found, "seed=7");
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        let e = mk(stored).diagnose_incompatibility(2, current).unwrap();
        assert!(
            e.to_string().contains("checkpoint incompatible: seed"),
            "{e}"
        );

        // Same config string, different fingerprint → the graph differs.
        match mk(current).diagnose_incompatibility(2, current) {
            Some(CheckpointError::Incompatible { field, .. }) => assert_eq!(field, "graph"),
            other => panic!("expected Incompatible, got {other:?}"),
        }
    }

    #[test]
    fn retry_delays_are_deterministic_and_capped() {
        let policy = RetryPolicy::default();
        for attempt in 0..8 {
            let a = policy.delay_ms(attempt);
            let b = policy.delay_ms(attempt);
            assert_eq!(a, b, "jitter must be deterministic");
            assert!(
                a <= policy.max_delay_ms + policy.max_delay_ms / 4,
                "attempt {attempt}: delay {a} above cap"
            );
        }
        // Backoff grows until the cap bites.
        assert!(policy.delay_ms(1) > policy.delay_ms(0));
        assert_eq!(RetryPolicy::no_delay().delay_ms(3), 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_write_fault_is_retried_and_recovered() {
        use inet_fault::{FaultAction, FaultPlan};
        let path = tmp_path("fault.ckpt");
        let ck = sample_checkpoint();
        {
            // Fail exactly the first write attempt; the retry must land.
            let _guard = inet_fault::install(FaultPlan::single(
                "checkpoint.write",
                Some(0),
                FaultAction::Error,
            ));
            ck.save_with_retry(&path, &RetryPolicy::no_delay()).unwrap();
        }
        {
            // Same for an append.
            let _guard = inet_fault::install(FaultPlan::single(
                "checkpoint.write",
                Some(0),
                FaultAction::Panic,
            ));
            ck.append(&path, &ck.cells[0].log_line(), &RetryPolicy::no_delay())
                .unwrap();
        }
        {
            // And for the first read attempt.
            let _guard = inet_fault::install(FaultPlan::single(
                "checkpoint.read",
                Some(0),
                FaultAction::Error,
            ));
            let loaded = Checkpoint::load_recovering(&path, &RetryPolicy::no_delay())
                .unwrap()
                .expect("file exists");
            assert_eq!(loaded.dropped_tail, None);
            assert_eq!(loaded.checkpoint.cells.len(), ck.cells.len() + 1);
        }
        let _ = std::fs::remove_file(&path);
    }
}

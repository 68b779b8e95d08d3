//! Durable file writes: the one place the workspace fsyncs, renames and
//! checksums what it persists (run stores, telemetry, sweep checkpoints),
//! and the one format of an append-only record log (the run journal,
//! which also carries a served job's lifecycle, the sweep checkpoint and
//! the run's telemetry log).
//!
//! Each step that changes the disk — the tmp write, rename and directory
//! fsync of [`write_atomic`], the write and directory fsync of [`append`],
//! [`Scan::cut_tail`], [`sync_dir`] — is one *durable operation*. The
//! `durable.op` failpoint fires before each, keyed by the operation's
//! process-wide sequence number ([`ops`]), so a test can fail exactly the
//! k-th operation of a run: every crash point, enumerated.
//!
//! **Record logs** (the run journal, the sweep checkpoint, the telemetry
//! log): a header record, then one record per line, each of tab-separated
//! [`escape`]d fields [`seal`]ed with its own checksum. [`read_log`] and
//! [`scan`] find the intact records; the writer cuts a torn tail with
//! [`Scan::cut_tail`] before its next append.

use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Streaming FNV-1a 64. Feeding bytes in pieces gives the same hash as one
/// [`fnv64`] call over their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    /// A hasher at the FNV-1a 64 offset basis.
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Feeds `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds `word` as its eight little-endian bytes, so a hash is the same
    /// on every platform.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over `bytes`: the checksum of every persisted record and
/// artifact.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

static OPS: AtomicU64 = AtomicU64::new(0);

/// How many durable operations this process has started: the scope the
/// `durable.op` failpoint passes to the next one.
pub fn ops() -> u64 {
    OPS.load(Ordering::SeqCst)
}

/// Claims the next operation's sequence number and consults the
/// `durable.op` failpoint with it. An injected fault is an IO error, so
/// every caller handles it like a real one.
fn step() -> io::Result<()> {
    let seq = OPS.fetch_add(1, Ordering::SeqCst);
    inet_fault::check("durable.op", seq).map_err(io::Error::other)
}

/// Replaces `path` with `bytes`: write `<name>.tmp`, fsync it, rename it
/// over `<name>`, fsync the directory. At every instant either the old
/// file or the new one is complete on disk, and once this returns the new
/// one survives a crash.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    step()?;
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    step()?;
    fs::rename(&tmp, path)?;
    sync_dir(path)
}

/// Appends `record` to the log at `path` and `sync_data`s it. When the
/// file is empty (or missing, and created here), `header` goes first in the
/// same write and the directory is fsynced too, so the new entry survives a
/// crash. A failed append — write, sync or directory fsync — is cut back to
/// the file's previous length, so a retry, or the next record, starts on
/// the last intact byte and never duplicates a record.
pub fn append(path: &Path, header: &[u8], record: &[u8]) -> io::Result<()> {
    step()?;
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let len = file.metadata()?.len();
    let fresh = len == 0;
    let appended = (|| {
        if fresh {
            file.write_all(header)?;
        }
        file.write_all(record)?;
        file.sync_data()?;
        if fresh {
            sync_dir(path)?;
        }
        Ok(())
    })();
    if appended.is_err() {
        let _ = file.set_len(len);
    }
    appended
}

/// Fsyncs the directory holding `path`, making a create or rename in it
/// durable.
pub fn sync_dir(path: &Path) -> io::Result<()> {
    step()?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Escapes backslash, tab, CR and LF, so a text field stays on one line
/// and inside its tab-separated slot of a record.
pub fn escape(field: &str) -> String {
    field
        .replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverse of [`escape`].
pub fn unescape(field: &str) -> Result<String, String> {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('\\') => '\\',
                Some('t') => '\t',
                Some('n') => '\n',
                Some('r') => '\r',
                other => return Err(format!("bad escape {other:?}")),
            },
            c => c,
        });
    }
    Ok(out)
}

/// Seals a record body (tab-separated fields) in place: appends a tab, the
/// FNV-1a 64 of the body as 16 lowercase hex digits, and the newline.
pub fn seal(mut body: String) -> String {
    let sum = fnv64(body.as_bytes());
    let _ = writeln!(body, "\t{sum:016x}");
    body
}

/// A record body written in pieces and checksummed as it grows, so that a
/// long record is hashed while its text is still in cache.
/// [`RecordWriter::seal`] returns what [`seal`] returns for the whole body.
#[derive(Debug, Clone, Default)]
pub struct RecordWriter {
    body: Vec<u8>,
    sum: Fnv64,
}

impl RecordWriter {
    /// An empty body with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        RecordWriter {
            body: Vec::with_capacity(bytes),
            sum: Fnv64::default(),
        }
    }

    /// Appends `piece`. The pieces together must be UTF-8 text.
    pub fn push(&mut self, piece: &[u8]) {
        self.sum.write(piece);
        self.body.extend_from_slice(piece);
    }

    /// The sealed record: the body, a tab, its checksum as 16 lowercase
    /// hex digits, and the newline. A body that is not UTF-8 comes back
    /// with its bad bytes replaced, so its checksum no longer matches and
    /// a reader drops the record.
    pub fn seal(self) -> String {
        let RecordWriter { mut body, sum } = self;
        let _ = writeln!(body, "\t{:016x}", sum.finish());
        String::from_utf8(body)
            .unwrap_or_else(|bad| String::from_utf8_lossy(bad.as_bytes()).into_owned())
    }
}

/// The body of a sealed record line (newline already stripped), or `None`
/// when its checksum is not a tab and the body's FNV-1a 64 in 16 lowercase
/// hex digits.
fn unseal(line: &[u8]) -> Option<&str> {
    let (body, sum) = line.split_at(line.len().checked_sub(17)?);
    let (&b'\t', digits) = sum.split_first()? else {
        return None;
    };
    (parse_hex(digits)? == fnv64(body)).then(|| std::str::from_utf8(body).ok())?
}

/// Reads 1 to 16 lowercase hex digits, as `{:x}` and `{:016x}` print a
/// `u64`; `None` for anything else.
pub fn parse_hex(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &d| {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        Some(n << 4 | u64::from(nibble))
    })
}

/// The intact record prefix of a log, as [`scan`] found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scan<'a> {
    /// How many records are intact, the header included.
    pub records: usize,
    /// Byte length of the intact records: where a torn tail is cut.
    pub intact_len: usize,
    /// The bytes past them (empty when the whole log is intact).
    pub tail: &'a [u8],
}

impl Scan<'_> {
    /// Cuts the torn tail this scan found off the log at `path` and fsyncs
    /// it. An intact log is left alone: no durable operation.
    pub fn cut_tail(&self, path: &Path) -> io::Result<()> {
        if self.tail.is_empty() {
            return Ok(());
        }
        step()?;
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(self.intact_len as u64)?;
        file.sync_all()
    }
}

/// Reads the log at `path`; a missing file is a log with no records.
pub fn read_log(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Reads the sealed records of a log in order, handing each verified body
/// and its index to `parse`, and stops at the first record that is
/// incomplete (no newline), fails its checksum, or `parse` rejects. Record
/// 0 is the header, whose first field is `magic`; a file that does not
/// begin with one (a torn header is fine) is an error, so a caller never
/// cuts a file that is not its own log.
pub fn scan<'a>(
    bytes: &'a [u8],
    magic: &str,
    mut parse: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<Scan<'a>, String> {
    let head = format!("{magic}\t");
    let mut records = 0;
    let mut pos = 0;
    while let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let body = unseal(&bytes[pos..pos + nl]);
        if records == 0 {
            let body = body
                .filter(|body| body.starts_with(&head))
                .ok_or_else(|| format!("not a {magic} file (bad header record)"))?;
            parse(0, body)?;
        } else if body.map_or(true, |body| parse(records, body).is_err()) {
            break;
        }
        pos += nl + 1;
        records += 1;
    }
    let tail = &bytes[pos..];
    if records == 0 && !(tail.starts_with(head.as_bytes()) || head.as_bytes().starts_with(tail)) {
        return Err(format!("not a {magic} file"));
    }
    Ok(Scan {
        records,
        intact_len: pos,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("inet_durable_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv64_known_answers() {
        // As stored on disk: 16 lowercase hex digits.
        let hex = |bytes: &[u8]| format!("{:016x}", fnv64(bytes));
        assert_eq!(hex(b""), "cbf29ce484222325");
        assert_eq!(hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv64::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
        let mut w = Fnv64::default();
        w.write_u64(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), fnv64(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn write_atomic_replaces_content_and_leaves_no_tmp() {
        let dir = temp_dir("atomic");
        let path = dir.join("state.json");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new content").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new content");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec!["state.json"], "no .tmp left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_writes_the_header_once() {
        let dir = temp_dir("append");
        let path = dir.join("log");
        append(&path, b"H\n", b"a\n").unwrap();
        append(&path, b"H\n", b"b\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"H\na\nb\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn escape_round_trips_every_special_character() {
        let field = "tab\there, newline\nCR\r and \\ backslash ü";
        let escaped = escape(field);
        assert!(!escaped.contains(['\t', '\n', '\r']), "{escaped}");
        assert_eq!(unescape(&escaped).unwrap(), field);
        assert_eq!(escape("plain"), "plain");
        assert!(unescape("dangling \\").is_err());
        assert!(unescape("\\x").is_err());
    }

    #[test]
    fn parse_hex_reads_what_lower_hex_prints() {
        for n in [0, 1, 0xf, 0x10, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex(format!("{n:x}").as_bytes()), Some(n));
            assert_eq!(parse_hex(format!("{n:016x}").as_bytes()), Some(n));
        }
        let too_long = "1".repeat(17);
        for bad in ["", "DEAD", "+1", "-1", " 1", "0x1", "g", &too_long] {
            assert_eq!(parse_hex(bad.as_bytes()), None, "{bad:?}");
        }
    }

    #[test]
    fn seal_appends_the_body_checksum_and_a_newline() {
        assert_eq!(seal("a".to_string()), "a\taf63dc4c8601ec8c\n");
        let line = seal("H\t1".to_string());
        assert_eq!(unseal(line.trim_end().as_bytes()), Some("H\t1"));
        let flipped = line.replacen('1', "2", 1);
        assert_eq!(unseal(flipped.trim_end().as_bytes()), None);
        assert_eq!(unseal(b"short"), None);
        // Only a tab and 16 lowercase hex digits seal a body.
        let upper = format!("H\t1\t{}", &line[4..20].to_uppercase());
        assert_ne!(upper, line.trim_end(), "the checksum has hex letters");
        assert_eq!(unseal(upper.as_bytes()), None);
        let spaced = line.trim_end().replacen("1\t", "1 ", 1);
        assert_eq!(unseal(spaced.as_bytes()), None);
    }

    #[test]
    fn a_record_written_in_pieces_seals_like_the_whole_body() {
        let mut record = RecordWriter::with_capacity(4);
        for piece in ["cell\t", "", "1,2 ", "-3,ff\t€"] {
            record.push(piece.as_bytes());
        }
        assert_eq!(record.seal(), seal("cell\t1,2 -3,ff\t€".to_string()));
        assert_eq!(RecordWriter::default().seal(), seal(String::new()));
    }

    /// A three-record log: header `H 1`, then `r 1` and `r 2`.
    fn three_records() -> String {
        ["H\t1", "r\t1", "r\t2"]
            .map(|body| seal(body.to_string()))
            .concat()
    }

    /// Scans `bytes` as an `H` log, collecting every data record body;
    /// `parse` rejects bodies equal to `reject`.
    fn scan_bodies<'a>(bytes: &'a [u8], reject: &str) -> Result<(Scan<'a>, Vec<String>), String> {
        let mut bodies = Vec::new();
        let scan = scan(bytes, "H", |i, body| {
            if body == reject {
                return Err("rejected".to_string());
            }
            if i > 0 {
                bodies.push(body.to_string());
            }
            Ok(())
        })?;
        Ok((scan, bodies))
    }

    #[test]
    fn scan_stops_at_the_first_torn_corrupt_or_rejected_record() {
        let log = three_records();
        let second = log.find("r\t2").unwrap();
        let (whole, bodies) = scan_bodies(log.as_bytes(), "").unwrap();
        assert_eq!((whole.records, whole.intact_len), (3, log.len()));
        assert!(whole.tail.is_empty());
        assert_eq!(bodies, ["r\t1", "r\t2"]);
        // Every cut inside the last record leaves the first two intact.
        for cut in second..log.len() {
            let (torn, bodies) = scan_bodies(&log.as_bytes()[..cut], "").unwrap();
            assert_eq!((torn.records, torn.intact_len), (2, second), "cut at {cut}");
            assert_eq!(torn.tail, &log.as_bytes()[second..cut]);
            assert_eq!(bodies, ["r\t1"]);
        }
        // A corrupt record hides everything after it, intact or not.
        let corrupt = log.replacen("r\t1", "r\t9", 1);
        let (scan, bodies) = scan_bodies(corrupt.as_bytes(), "").unwrap();
        assert_eq!(scan.records, 1);
        assert_eq!(scan.tail.len(), log.len() - scan.intact_len);
        assert!(bodies.is_empty());
        // So does a record the caller's parser rejects.
        let (scan, _) = scan_bodies(log.as_bytes(), "r\t2").unwrap();
        assert_eq!((scan.records, scan.intact_len), (2, second));
    }

    #[test]
    fn scan_refuses_a_file_whose_first_record_is_not_its_header() {
        let log = three_records();
        let header_len = log.find('\n').unwrap() + 1;
        // A torn header is an empty log, however little of it survived.
        for cut in 0..header_len {
            let (scan, _) = scan_bodies(&log.as_bytes()[..cut], "").unwrap();
            assert_eq!((scan.records, scan.intact_len), (0, 0), "cut at {cut}");
        }
        let foreign = [
            "{\"version\": 1}\n".to_string(),
            "X".to_string(),
            seal("X\t1".to_string()),
            log.replacen("H\t1", "H\t2", 1),
        ];
        for text in &foreign {
            let err = scan_bodies(text.as_bytes(), "").unwrap_err();
            assert!(err.contains("not a H file"), "{text:?}: {err}");
        }
        // A header the caller's parser rejects is refused with its error.
        assert_eq!(scan_bodies(log.as_bytes(), "H\t1").unwrap_err(), "rejected");
    }

    #[test]
    fn read_log_and_cut_tail_recover_a_torn_log() {
        let dir = temp_dir("cut_tail");
        let path = dir.join("log");
        assert_eq!(read_log(&path).unwrap(), b"", "a missing log is empty");
        let log = three_records();
        let second = log.find("r\t2").unwrap();
        fs::write(&path, &log[..log.len() - 3]).unwrap();
        let bytes = read_log(&path).unwrap();
        let (scan, _) = scan_bodies(&bytes, "").unwrap();
        scan.cut_tail(&path).unwrap();
        assert_eq!(read_log(&path).unwrap(), &log.as_bytes()[..second]);
        // An intact log is left as it is.
        let bytes = read_log(&path).unwrap();
        scan_bodies(&bytes, "").unwrap().0.cut_tail(&path).unwrap();
        assert_eq!(read_log(&path).unwrap(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The environment variable through which the torn-append parent test
    /// hands its log to the child test.
    const TORN_LOG: &str = "INET_DURABLE_TORN_LOG";

    /// Appends a record far larger than the file-size limit the parent
    /// test sets, so the write fails part-way through; the file must then
    /// hold whole records only. Outside its parent (no log handed over)
    /// there is nothing to check, and it passes at once.
    #[test]
    #[ignore = "child process of failed_append_leaves_the_last_intact_byte"]
    fn torn_append_child() {
        let Some(path) = std::env::var_os(TORN_LOG).map(PathBuf::from) else {
            return;
        };
        let before = fs::read(&path).unwrap();
        let record = vec![b'x'; 1 << 16];
        let after = match append(&path, b"", &record) {
            Ok(()) => [before.as_slice(), &record].concat(),
            Err(_) => before,
        };
        assert_eq!(fs::read(&path).unwrap(), after);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_append_leaves_the_last_intact_byte() {
        let dir = temp_dir("torn");
        let path = dir.join("log");
        append(&path, b"", b"intact\n").unwrap();
        // A file-size limit of a few KiB (with SIGXFSZ ignored, so the
        // write returns EFBIG instead of killing the process) fails the
        // child's append after it has written part of the record.
        let status = std::process::Command::new("sh")
            .arg("-c")
            .arg("trap '' XFSZ; ulimit -f 4 && exec \"$0\" --ignored --exact durable::tests::torn_append_child")
            .arg(std::env::current_exe().unwrap())
            .env(TORN_LOG, &path)
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(status.success(), "child test failed: {status}");
        assert_eq!(fs::read(&path).unwrap(), b"intact\n");
        let _ = fs::remove_dir_all(&dir);
    }
}

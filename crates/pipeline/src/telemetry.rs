//! The per-run telemetry log: `telemetry.log` in the run directory.
//!
//! Every journaled run persists the span tree its driving thread recorded
//! (captured via [`inet_obs::span::capture`], so concurrent jobs in the
//! same daemon never contaminate each other). The log accumulates across
//! sessions: a resumed run **appends** its session, so `inet trace
//! <run-id>` reports the cumulative truth — the crashed attempt's spans and
//! the resumed attempt's spans, in order.
//!
//! The log is a record log in [`inet_exec::durable`]'s format: the header
//! `inet-run-telemetry 1`, then one sealed record per span,
//! `<session> <name> <scope> <thread> <start_us> <dur_us> <parent|->`. The
//! session tag is the log position of the session's first record, and the
//! parent indexes the session's own records. A run session stores its
//! spans as recorded, in one [`durable::append`] after cutting a torn tail,
//! and never reads or rewrites earlier sessions. [`Telemetry::load_path`]
//! replays each stored session through [`Telemetry::append`], which
//! sequences it after the ones before, so a torn or corrupt record costs
//! only itself and the records after it.
//!
//! Telemetry is inert by contract: the log sits outside the journal
//! protocol, and every persistence failure is swallowed by the caller — a
//! run can never fail because its timing log could not be written. A
//! `telemetry.json` left by an older build is not read.

use std::io;
use std::path::Path;

use inet_exec::durable::{self, escape, seal, unescape, Scan};
use inet_obs::span::{render_tree, SpanRecord};

use crate::runstore::RunStore;

/// Telemetry log file name inside a run directory.
pub const TELEMETRY_FILE: &str = "telemetry.log";
/// The log's header record: its magic, then the format version.
const TELEMETRY_MAGIC: &str = "inet-run-telemetry";
const TELEMETRY_VERSION: &str = "1";

/// The accumulated span tree of one run, across every session that worked
/// on it (initial run + resumes).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// How many sessions (initial run + resumes) contributed spans.
    pub sessions: u64,
    /// Every span, parents as indices into this vector; sessions are
    /// time-shifted so they sequence one after another.
    pub spans: Vec<SpanRecord>,
    /// Where each session's spans start in `spans`.
    starts: Vec<usize>,
}

impl Telemetry {
    /// Loads the log at `path`: every session in its intact records. A
    /// missing file, or one that is not a telemetry log, loads as `None` —
    /// the caller degrades to an empty accumulation, never an error.
    pub fn load_path(path: &Path) -> Option<Telemetry> {
        let bytes = std::fs::read(path).ok()?;
        let mut telemetry = Telemetry::default();
        let mut session = (0, Vec::new());
        scan_log(&bytes, |tag, span| {
            if tag != session.0 {
                telemetry.append(std::mem::take(&mut session.1));
                session.0 = tag;
            }
            session.1.push(span);
        })
        .ok()?;
        telemetry.append(session.1);
        Some(telemetry)
    }

    /// Loads the run's telemetry, or an empty accumulation when the run
    /// has none yet.
    pub fn load(store: &RunStore) -> Telemetry {
        Telemetry::load_path(&store.path(TELEMETRY_FILE)).unwrap_or_default()
    }

    /// Appends one session's span batch: parents are rebased onto this
    /// accumulation and start times shifted so the new session sequences
    /// after everything already stored (sessions never interleave).
    pub fn append(&mut self, records: Vec<SpanRecord>) {
        if records.is_empty() {
            return;
        }
        let base = self.len_us();
        let first = records.iter().map(|r| r.start_us).min().unwrap_or(0);
        let offset = self.spans.len();
        for mut r in records {
            r.start_us = base.saturating_add(r.start_us.saturating_sub(first));
            r.parent = r.parent.map(|p| p + offset);
            self.spans.push(r);
        }
        self.starts.push(offset);
        self.sessions += 1;
    }

    /// The latest end time stored, in microseconds — where the next
    /// session's clock starts.
    fn len_us(&self) -> u64 {
        self.spans
            .iter()
            .map(|r| r.start_us.saturating_add(r.dur_us))
            .max()
            .unwrap_or(0)
    }

    /// Replaces the run's log with this accumulation, each session under
    /// its own tag. A stored session already starts where the one before
    /// it ends, so loading it back shifts nothing.
    pub fn save(&self, store: &RunStore) -> io::Result<()> {
        let mut log = header();
        for (k, &start) in self.starts.iter().enumerate() {
            let end = self.starts.get(k + 1).copied().unwrap_or(self.spans.len());
            for span in &self.spans[start..end] {
                push_span(&mut log, start + 1, span, start);
            }
        }
        durable::write_atomic(&store.path(TELEMETRY_FILE), log.as_bytes())
    }

    /// The stored span tree as an indented table with self/total times.
    pub fn render_trace(&self) -> String {
        render_tree(&self.spans)
    }

    /// `(total wall microseconds, stage-span count)` for `runs list
    /// --stats`: wall time sums the root `run` spans (one per session),
    /// stages count both executed (`pipeline.stage`) and replayed
    /// (`pipeline.replay`) stage spans.
    pub fn totals(&self) -> (u64, usize) {
        let total = self
            .spans
            .iter()
            .filter(|r| r.name == "run" && r.parent.is_none())
            .map(|r| r.dur_us)
            .fold(0, u64::saturating_add);
        let stages = self
            .spans
            .iter()
            .filter(|r| r.name == "pipeline.stage" || r.name == "pipeline.replay")
            .count();
        (total, stages)
    }
}

/// Appends one session's spans, as recorded, to the run's log in one
/// durable append. A torn tail is cut first, so the session is never glued
/// onto a fragment and lost with it.
pub(crate) fn append_session(store: &RunStore, spans: &[SpanRecord]) -> io::Result<()> {
    if spans.is_empty() {
        return Ok(());
    }
    let path = store.path(TELEMETRY_FILE);
    let bytes = durable::read_log(&path)?;
    let scan = scan_log(&bytes, |_, _| {}).map_err(io::Error::other)?;
    scan.cut_tail(&path)?;
    // The header is record 0, written with the first session.
    let tag = scan.records.max(1);
    let mut records = String::new();
    for span in spans {
        push_span(&mut records, tag, span, 0);
    }
    durable::append(&path, header().as_bytes(), records.as_bytes())
}

fn header() -> String {
    seal(format!("{TELEMETRY_MAGIC}\t{TELEMETRY_VERSION}"))
}

/// Seals `span` as a record of session `tag`, its parent made relative to
/// the session's first span at `base`.
fn push_span(out: &mut String, tag: usize, span: &SpanRecord, base: usize) {
    let parent = span
        .parent
        .map_or("-".to_string(), |p| (p - base).to_string());
    out.push_str(&seal(format!(
        "{tag}\t{}\t{}\t{}\t{}\t{}\t{parent}",
        escape(&span.name),
        span.scope,
        span.thread,
        span.start_us,
        span.dur_us
    )));
}

/// Scans a telemetry log, handing each intact span record to `each` with
/// its session tag. Returns the scan, whose torn tail a session cuts, or
/// why the bytes are not a telemetry log.
fn scan_log(bytes: &[u8], mut each: impl FnMut(u64, SpanRecord)) -> Result<Scan<'_>, String> {
    durable::scan(bytes, TELEMETRY_MAGIC, |index, body| {
        let fields: Vec<&str> = body.split('\t').collect();
        if index == 0 {
            // `scan` checked the magic; the version is left.
            return match fields[..] {
                [_, TELEMETRY_VERSION] => Ok(()),
                _ => Err(format!("unsupported telemetry header {body:?}")),
            };
        }
        let [tag, name, scope, thread, start_us, dur_us, parent] = fields[..] else {
            return Err("bad span record".to_string());
        };
        let num = |field: &str| field.parse::<u64>().map_err(|e| e.to_string());
        let span = SpanRecord {
            name: unescape(name)?,
            scope: num(scope)?,
            thread: num(thread)?,
            start_us: num(start_us)?,
            dur_us: num(dur_us)?,
            parent: match parent {
                "-" => None,
                p => Some(p.parse().map_err(|_| "bad parent")?),
            },
        };
        each(num(tag)?, span);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("inet_telemetry_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn store(root: &Path) -> RunStore {
        RunStore::create(
            root,
            "t",
            "[generator]\nmodel = \"ba\"\nn = 10\n",
            "s.toml",
            &[],
        )
        .unwrap()
    }

    fn span(
        name: &str,
        scope: u64,
        start_us: u64,
        dur_us: u64,
        parent: Option<usize>,
    ) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            scope,
            thread: 0,
            start_us,
            dur_us,
            parent,
        }
    }

    /// Two sessions as a run records them: process-clock times, parents
    /// within the batch.
    fn session_1() -> Vec<SpanRecord> {
        vec![
            span("run", 0, 50, 900, None),
            span("pipeline.stage", 0, 60, 400, Some(0)),
            span("exec.fanout", 3, 70, 100, Some(1)),
        ]
    }

    fn session_2() -> Vec<SpanRecord> {
        vec![
            span("run", 0, 9_000, 2_000, None),
            span("pipeline.replay", 0, 9_010, 30, Some(0)),
            span("pipeline.stage", 1, 9_050, 500, Some(0)),
        ]
    }

    #[test]
    fn save_load_round_trips_through_the_store() {
        let _lock = crate::test_lock();
        let root = temp_root("roundtrip");
        let store = store(&root);
        let mut t = Telemetry::default();
        t.append(session_1());
        t.append(session_2());
        t.save(&store).unwrap();
        let back = Telemetry::load(&store);
        assert_eq!(back, t);
        assert_eq!(back.sessions, 2);
        // The first session is rebased to start at 0.
        assert_eq!(back.spans[0].start_us, 0);
        assert_eq!(back.spans[1].start_us, 10);
        // Saving what was loaded writes the same log.
        let log = std::fs::read(store.path(TELEMETRY_FILE)).unwrap();
        back.save(&store).unwrap();
        assert_eq!(std::fs::read(store.path(TELEMETRY_FILE)).unwrap(), log);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sessions_append_and_load_as_one_accumulation() {
        let _lock = crate::test_lock();
        let root = temp_root("sessions");
        let store = store(&root);
        assert_eq!(Telemetry::load_path(&store.path(TELEMETRY_FILE)), None);
        append_session(&store, &session_1()).unwrap();
        let log = std::fs::read(store.path(TELEMETRY_FILE)).unwrap();
        append_session(&store, &session_2()).unwrap();
        // The second session only appended.
        assert!(std::fs::read(store.path(TELEMETRY_FILE))
            .unwrap()
            .starts_with(&log));
        let mut expected = Telemetry::default();
        expected.append(session_1());
        expected.append(session_2());
        assert_eq!(Telemetry::load(&store), expected);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_session_appended_after_a_torn_fragment_keeps_the_first() {
        let _lock = crate::test_lock();
        let root = temp_root("torn");
        let store = store(&root);
        let path = store.path(TELEMETRY_FILE);
        append_session(&store, &session_1()).unwrap();
        // A crash mid-append leaves half a record.
        let mut bytes = std::fs::read(&path).unwrap();
        let intact = bytes.len();
        let mut torn = String::new();
        push_span(&mut torn, 4, &session_2()[0], 0);
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let mut one = Telemetry::default();
        one.append(session_1());
        assert_eq!(Telemetry::load(&store), one, "the fragment is not read");
        append_session(&store, &session_2()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[intact..].iter().filter(|&&b| b == b'\n').count(), 3);
        let mut two = one.clone();
        two.append(session_2());
        assert_eq!(Telemetry::load(&store), two);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_corrupt_record_costs_only_itself_and_what_follows() {
        let _lock = crate::test_lock();
        let root = temp_root("corrupt");
        let store = store(&root);
        let path = store.path(TELEMETRY_FILE);
        append_session(&store, &session_1()).unwrap();
        append_session(&store, &session_2()).unwrap();
        // Flip a digit inside session 2's second record.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "{text}");
        let target = lines[5].replacen("9010", "9011", 1);
        assert_ne!(target, lines[5]);
        let corrupted = text.replacen(lines[5], &target, 1);
        std::fs::write(&path, corrupted).unwrap();
        let mut expected = Telemetry::default();
        expected.append(session_1());
        expected.append(session_2()[..1].to_vec());
        assert_eq!(Telemetry::load(&store), expected, "session 1 whole");
        // A foreign file is not a telemetry log, and is never cut.
        std::fs::write(&path, "{\"version\": 1}\n").unwrap();
        assert_eq!(Telemetry::load_path(&path), None);
        assert!(append_session(&store, &session_1()).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"version\": 1}\n");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn append_sequences_sessions_and_rebases_parents() {
        let mut t = Telemetry::default();
        t.append(vec![
            span("run", 0, 100, 1_000, None),
            span("pipeline.stage", 1, 150, 500, Some(0)),
        ]);
        t.append(vec![
            span("run", 0, 9_000, 2_000, None),
            span("pipeline.replay", 0, 9_010, 30, Some(0)),
        ]);
        assert_eq!(t.sessions, 2);
        assert_eq!(t.spans.len(), 4);
        // Session 2 starts where session 1 ended (at 1_000 us).
        assert_eq!(t.spans[2].start_us, 1_000);
        assert_eq!(t.spans[3].start_us, 1_010);
        assert_eq!(t.spans[3].parent, Some(2), "parent rebased onto the store");
        let (total, stages) = t.totals();
        assert_eq!(total, 3_000, "both sessions' run roots counted");
        assert_eq!(stages, 2, "one executed + one replayed stage");
    }

    #[test]
    fn render_trace_shows_the_tree() {
        let mut t = Telemetry::default();
        t.append(vec![
            span("run", 0, 0, 10_000, None),
            span("pipeline.stage", 2, 100, 4_000, Some(0)),
        ]);
        let table = t.render_trace();
        assert!(table.contains("run[0]"), "{table}");
        assert!(table.contains("  pipeline.stage[2]"), "{table}");
        assert_eq!(Telemetry::default().render_trace(), "(no spans recorded)\n");
    }
}

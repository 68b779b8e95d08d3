//! Lightweight span scopes: start/stop timing with monotonic clocks,
//! thread ids, and the exec/fault `(layer, scope)` vocabulary.
//!
//! [`enter`] opens a span on the current thread; dropping the guard closes
//! it. Records accumulate in a **thread-local** buffer — the record path
//! takes no lock — and a thread's batch is merged into the process-wide
//! sink only when its outermost span closes (one mutex per batch, bounded
//! memory: the sink keeps the most recent records and counts what it
//! drops). Nesting is tracked per thread, so a batch is a ready-made span
//! tree: each record carries the index of its parent within the batch.
//!
//! [`capture`] runs a closure under a root span and hands back exactly the
//! subtree it recorded — this is how the pipeline collects per-run stage
//! spans for the `telemetry.log` run log without seeing spans of other
//! jobs running concurrently in the same daemon.

use crate::record_allowed;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The layer name (`"pipeline.stage"`, `"exec.fanout"`, ...).
    pub name: String,
    /// The deterministic instance key — same vocabulary as
    /// [`inet_fault::CATALOG`] scopes: stage index, cell index, attempt.
    pub scope: u64,
    /// Small sequential id of the recording thread.
    pub thread: u64,
    /// Start time in microseconds (monotonic, relative to the process
    /// epoch — or, once loaded from a run's telemetry log, to the start of
    /// the run's first session).
    pub start_us: u64,
    /// Wall duration in microseconds.
    pub dur_us: u64,
    /// Index of the enclosing span within the same batch, if any.
    pub parent: Option<usize>,
}

/// Microseconds since the process epoch (first use).
fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_micros() as u64
}

fn next_thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Per-thread span state: the open-span stack and the closed-record batch.
struct ThreadSpans {
    thread: u64,
    records: Vec<SpanRecord>,
    stack: Vec<usize>,
    /// Record-index watermarks of the [`capture`] calls in progress.
    captures: Vec<usize>,
}

thread_local! {
    static TL: RefCell<ThreadSpans> = RefCell::new(ThreadSpans {
        thread: next_thread_id(),
        records: Vec::new(),
        stack: Vec::new(),
        captures: Vec::new(),
    });
}

/// The bounded process-wide sink of flushed batches.
struct Sink {
    batches: Vec<Vec<SpanRecord>>,
    total: usize,
    dropped: u64,
}

/// Most recent records the sink retains; older batches are dropped (and
/// counted) so a long-running daemon's span memory stays bounded.
const SINK_CAP: usize = 8192;

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            batches: Vec::new(),
            total: 0,
            dropped: 0,
        })
    })
}

fn flush_batch(records: Vec<SpanRecord>) {
    if records.is_empty() {
        return;
    }
    let mut s = sink().lock().unwrap_or_else(|p| p.into_inner());
    s.total += records.len();
    s.batches.push(records);
    while s.total > SINK_CAP && s.batches.len() > 1 {
        let old = s.batches.remove(0);
        s.total -= old.len();
        s.dropped += old.len() as u64;
    }
}

/// Takes every record currently in the process-wide sink, parents rebased
/// to the returned vector. Returns `(records, dropped_so_far)`.
pub fn drain() -> (Vec<SpanRecord>, u64) {
    let mut s = sink().lock().unwrap_or_else(|p| p.into_inner());
    let batches = std::mem::take(&mut s.batches);
    s.total = 0;
    let dropped = s.dropped;
    drop(s);
    let mut out = Vec::new();
    for batch in batches {
        let base = out.len();
        for mut r in batch {
            r.parent = r.parent.map(|p| p + base);
            out.push(r);
        }
    }
    (out, dropped)
}

/// An open span; dropping it records the duration.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// `None` when recording was suppressed (an injected `obs.record`
    /// fault): the guard is inert.
    index: Option<usize>,
}

/// Opens a span named `name` at instance key `scope` on this thread.
pub fn enter(name: &'static str, scope: u64) -> SpanGuard {
    if !record_allowed(scope) {
        return SpanGuard { index: None };
    }
    let index = TL.with(|tl| {
        let mut t = tl.borrow_mut();
        let index = t.records.len();
        let parent = t.stack.last().copied();
        let thread = t.thread;
        t.records.push(SpanRecord {
            name: name.to_string(),
            scope,
            thread,
            start_us: now_us(),
            dur_us: 0,
            parent,
        });
        t.stack.push(index);
        index
    });
    SpanGuard { index: Some(index) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else {
            return;
        };
        let end = now_us();
        let batch = TL.with(|tl| {
            let mut t = tl.borrow_mut();
            if let Some(r) = t.records.get_mut(index) {
                r.dur_us = end.saturating_sub(r.start_us);
            }
            // Guards drop in LIFO order, but be tolerant of a leaked guard:
            // pop through to this span's stack entry.
            while let Some(top) = t.stack.pop() {
                if top == index {
                    break;
                }
            }
            if t.stack.is_empty() && t.captures.is_empty() {
                Some(std::mem::take(&mut t.records))
            } else {
                None
            }
        });
        if let Some(records) = batch {
            flush_batch(records);
        }
    }
}

/// Runs `f` under a root span and returns its value together with the span
/// subtree recorded **by this thread** inside it (parents rebased so the
/// root is record 0 with no parent). Spans other threads record meanwhile
/// flow to the process-wide sink as usual.
pub fn capture<T>(name: &'static str, scope: u64, f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    let watermark = TL.with(|tl| {
        let mut t = tl.borrow_mut();
        let w = t.records.len();
        t.captures.push(w);
        w
    });
    let guard = enter(name, scope);
    let value = f();
    drop(guard);
    let (subtree, remainder) = TL.with(|tl| {
        let mut t = tl.borrow_mut();
        t.captures.pop();
        let mut subtree: Vec<SpanRecord> = t.records.split_off(watermark);
        for r in &mut subtree {
            r.parent = r.parent.and_then(|p| p.checked_sub(watermark));
        }
        let remainder = if t.stack.is_empty() && t.captures.is_empty() {
            Some(std::mem::take(&mut t.records))
        } else {
            None
        };
        (subtree, remainder)
    });
    if let Some(records) = remainder {
        flush_batch(records);
    }
    (value, subtree)
}

/// Renders a span batch as an indented table with total and self times.
///
/// Records with a parent link nest under it; parentless records nest under
/// the smallest span that fully contains their interval (ties broken by
/// input order), which stitches cross-thread and cross-session batches
/// into one readable tree. Self time is the span's duration minus its
/// direct children's.
pub fn render_tree(records: &[SpanRecord]) -> String {
    let n = records.len();
    if n == 0 {
        return "(no spans recorded)\n".to_string();
    }
    let mut parent: Vec<Option<usize>> = records.iter().map(|r| r.parent).collect();
    // Attach parentless records by strict interval containment.
    for i in 0..n {
        if parent[i].is_some() {
            continue;
        }
        let (s, e) = (records[i].start_us, records[i].start_us + records[i].dur_us);
        let mut best: Option<usize> = None;
        for (j, c) in records.iter().enumerate() {
            if j == i {
                continue;
            }
            let (cs, ce) = (c.start_us, c.start_us + c.dur_us);
            let contains = cs <= s && e <= ce && (c.dur_us > records[i].dur_us || j < i);
            if contains && best.map_or(true, |b| c.dur_us < records[b].dur_us) {
                best = Some(j);
            }
        }
        parent[i] = best;
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (i, p) in parent.iter().enumerate() {
        match p {
            Some(p) if *p < n && *p != i => children[*p].push(i),
            _ => roots.push(i),
        }
    }
    for list in &mut children {
        list.sort_by_key(|&i| (records[i].start_us, i));
    }
    roots.sort_by_key(|&i| (records[i].start_us, i));

    let ms = |us: u64| us as f64 / 1_000.0;
    let mut out = String::from("  total ms    self ms  thr  span\n");
    // Iterative DFS; the visited set guards against malformed parent links
    // in hand-edited telemetry files.
    let mut visited = vec![false; n];
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        let child_us: u64 = children[i]
            .iter()
            .map(|&c| records[c].dur_us)
            .fold(0, u64::saturating_add);
        let self_us = records[i].dur_us.saturating_sub(child_us);
        let r = &records[i];
        out.push_str(&format!(
            "{:>10.3} {:>10.3} {:>4}  {}{}[{}]\n",
            ms(r.dur_us),
            ms(self_us),
            r.thread,
            "  ".repeat(depth),
            r.name,
            r.scope
        ));
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_returns_a_nested_subtree() {
        let ((), spans) = capture("run", 0, || {
            let _a = enter("stage", 0);
            drop(_a);
            let b = enter("stage", 1);
            let c = enter("inner", 9);
            drop(c);
            drop(b);
        });
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "run");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0), "stage 0 under run");
        assert_eq!(spans[2].parent, Some(0), "stage 1 under run");
        assert_eq!(spans[3].parent, Some(2), "inner under stage 1");
        assert!(spans[0].dur_us >= spans[1].dur_us.saturating_add(spans[2].dur_us));
    }

    #[test]
    fn nested_captures_split_cleanly() {
        let ((inner_spans,), outer) = capture("outer", 0, || {
            let (_, inner) = capture("inner", 1, || {
                drop(enter("leaf", 2));
            });
            (inner,)
        });
        assert_eq!(inner_spans.len(), 2);
        assert_eq!(inner_spans[0].name, "inner");
        assert_eq!(inner_spans[1].parent, Some(0));
        assert_eq!(outer.len(), 1, "inner subtree was extracted");
        assert_eq!(outer[0].name, "outer");
    }

    #[test]
    fn sink_collects_thread_batches() {
        let _ = drain();
        let handle = std::thread::spawn(|| {
            let g = enter("worker.task", 7);
            drop(g);
        });
        handle.join().expect("worker thread");
        drop(enter("local.task", 1));
        let (records, _) = drain();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"worker.task"), "{names:?}");
        assert!(names.contains(&"local.task"), "{names:?}");
        let (after, _) = drain();
        assert!(after.is_empty(), "drain empties the sink");
    }

    #[test]
    fn render_tree_indents_and_computes_self_time() {
        let spans = vec![
            SpanRecord {
                name: "run".into(),
                scope: 0,
                thread: 0,
                start_us: 0,
                dur_us: 10_000,
                parent: None,
            },
            SpanRecord {
                name: "pipeline.stage".into(),
                scope: 0,
                thread: 0,
                start_us: 100,
                dur_us: 4_000,
                parent: Some(0),
            },
            // Parentless, but contained inside the stage: containment
            // stitching must nest it there.
            SpanRecord {
                name: "sweep.cell".into(),
                scope: 3,
                thread: 2,
                start_us: 200,
                dur_us: 1_000,
                parent: None,
            },
        ];
        let table = render_tree(&spans);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "{table}");
        assert!(lines[1].contains("run[0]"), "{table}");
        assert!(lines[2].contains("  pipeline.stage[0]"), "{table}");
        assert!(lines[3].contains("    sweep.cell[3]"), "{table}");
        // run self = 10ms - 4ms child; stage self = 4ms - 1ms child.
        assert!(lines[1].contains("6.000"), "{table}");
        assert!(lines[2].contains("3.000"), "{table}");
        assert_eq!(render_tree(&[]), "(no spans recorded)\n");
    }
}

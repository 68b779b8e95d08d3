//! Deterministic work-stealing fan-out over index ranges.
//!
//! Metrics kernels process items (nodes, BFS sources, edges) that vary
//! wildly in cost on heavy-tailed graphs — a hub's neighbor scan can be
//! orders of magnitude more work than a fringe node's. Static even-split
//! chunking leaves threads idle behind whichever chunk drew the hubs, so
//! this module steals work dynamically instead: items are cut into a
//! **fixed chunk grid** that depends only on the item count, and worker
//! threads claim chunks from a shared [`AtomicUsize`] cursor.
//!
//! Every fan-out is one streaming fold ([`crate::Executor::fold_ordered`]):
//! each chunk's result is folded into an accumulator **in chunk order** as
//! soon as it and every earlier chunk are done. A worker that finishes out
//! of order parks its partial; whoever finishes the next chunk in order
//! folds every ready one. Because the grid never changes with the thread count and the
//! fold order is the grid order, every output — including floating-point
//! accumulations, whose value depends on summation order — is bit-identical
//! for any `threads ≥ 1`. The single-thread path runs the same chunks in
//! the same order inline, folding each before the next starts, so it
//! produces the same bits with one partial alive. With more threads about
//! `threads` partials are alive at once, and never more than the grid's
//! chunk count. [`crate::Executor::map_ordered`] is the fold that collects
//! the partials into a `Vec`.
//!
//! Worker panics are caught per chunk and re-raised on the calling thread
//! with the failing item range in the message, instead of an anonymous
//! "worker panicked".

use crate::cancel::CancelToken;
use crate::fence::PanicFence;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Upper bound on the number of chunks in a grid. Small enough that a
/// collected or parked partial per chunk stays cheap, large enough that
/// work stealing can balance hub-heavy chunks across any realistic core
/// count.
const MAX_CHUNKS: usize = 64;

/// Default worker count: the machine's available parallelism, clamped to
/// at least 1 when the capacity cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(1)
}

/// Chunk length of the fixed grid for `len` items. Depends only on `len`.
pub fn chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(1)
}

/// The fixed chunk grid for `len` items: consecutive, non-overlapping
/// ranges covering `0..len`, at most `MAX_CHUNKS` of them. Empty for
/// `len == 0`.
pub fn chunk_grid(len: usize) -> Vec<Range<usize>> {
    let size = chunk_size(len);
    (0..len.div_ceil(size))
        .map(|c| c * size..((c + 1) * size).min(len))
        .collect()
}

/// The accumulator side of [`fold_impl`]: partials wait in `parked` until
/// every earlier chunk has been folded. It sits behind the pool's one
/// lock, so folds never overlap; a fold is one pass over a partial, short
/// next to the chunk of work that built it.
struct InOrder<A, T, FF> {
    acc: A,
    fold: FF,
    next: usize,
    parked: Vec<Option<T>>,
}

impl<A, T, FF: FnMut(&mut A, T)> InOrder<A, T, FF> {
    /// Parks chunk `c`'s partial, then folds every partial that is now
    /// next in chunk order.
    fn offer(&mut self, c: usize, t: T) {
        self.parked[c] = Some(t);
        while let Some(t) = self.parked.get_mut(self.next).and_then(Option::take) {
            (self.fold)(&mut self.acc, t);
            self.next += 1;
        }
    }
}

/// The work-stealing pool behind every [`crate::Executor`] fan-out: runs
/// `work` over the fixed chunk grid for `len` items on up to `threads`
/// workers, each with one `make_scratch` value reused for every chunk it
/// claims, and folds each chunk's result into `init` with `fold` **in
/// chunk order**, as the chunks finish.
///
/// Returns the accumulator and whether every chunk was folded. Workers poll
/// `token` before claiming each chunk and stop claiming once it is
/// cancelled; with `token: None` the claim loop never stops early, so every
/// chunk is folded. With `len == 0` there are no chunks and `init` comes
/// back unchanged.
///
/// # Panics
///
/// A panic in `work` is re-raised on the calling thread naming the
/// earliest failing item range.
pub(crate) fn fold_impl<S, T, A, FS, FW, FF>(
    len: usize,
    threads: usize,
    token: Option<&CancelToken>,
    init: A,
    make_scratch: FS,
    work: FW,
    mut fold: FF,
) -> (A, bool)
where
    T: Send,
    A: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, Range<usize>) -> T + Sync,
    FF: FnMut(&mut A, T) + Send,
{
    let grid = chunk_grid(len);
    let threads = threads.max(1).min(grid.len().max(1));
    let cancelled = || token.map(CancelToken::is_cancelled).unwrap_or(false);
    if threads <= 1 || grid.len() <= 1 {
        let mut scratch = make_scratch();
        let mut acc = init;
        for range in grid {
            if cancelled() {
                return (acc, false);
            }
            fold(&mut acc, run_chunk(&work, &mut scratch, range));
        }
        return (acc, true);
    }

    type Payload = Box<dyn std::any::Any + Send + 'static>;
    type Failure = Option<(Range<usize>, Payload)>;

    let cursor = AtomicUsize::new(0);
    let state = Mutex::new(InOrder {
        acc: init,
        fold,
        next: 0,
        parked: (0..grid.len()).map(|_| None).collect(),
    });
    let failures: Vec<Failure> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, grid, state) = (&cursor, &grid, &state);
                let (make_scratch, work) = (&make_scratch, &work);
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    loop {
                        if cancelled() {
                            return None;
                        }
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        // Past the grid: done, with no failure.
                        let range = grid.get(c).cloned()?;
                        match catch_unwind(AssertUnwindSafe(|| work(&mut scratch, range.clone()))) {
                            // A fold that panicked poisoned the lock; its
                            // panic is re-raised at join, so carry on.
                            Ok(t) => state
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .offer(c, t),
                            Err(payload) => return Some((range, payload)),
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });

    // Report the earliest failing range so the message is deterministic
    // when several workers panic at once. Chunks are claimed in grid
    // order, so the earliest panicking chunk is always among them.
    // Not a new failure mode: re-raises the caught worker panic with the
    // failing range attached, for the caller's containment layer.
    #[allow(clippy::panic)]
    if let Some((range, payload)) = failures.into_iter().flatten().min_by_key(|f| f.0.start) {
        panic!(
            "parallel worker panicked on items {}..{}: {}",
            range.start,
            range.end,
            PanicFence::message(&*payload)
        );
    }
    let state = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    // Only short of the grid under cancellation: every chunk is otherwise
    // claimed by exactly one worker and folded.
    let complete = state.next == grid.len();
    (state.acc, complete)
}

/// Single-threaded chunk execution with the same range-naming panic
/// message as the threaded path.
fn run_chunk<S, T, FW>(work: &FW, scratch: &mut S, range: Range<usize>) -> T
where
    FW: Fn(&mut S, Range<usize>) -> T,
{
    match catch_unwind(AssertUnwindSafe(|| work(scratch, range.clone()))) {
        Ok(t) => t,
        // Same contract as the threaded path: re-raise with the range.
        #[allow(clippy::panic)]
        Err(payload) => panic!(
            "parallel worker panicked on items {}..{}: {}",
            range.start,
            range.end,
            PanicFence::message(&*payload)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;

    #[test]
    fn grid_covers_range_without_overlap() {
        for len in [0usize, 1, 5, 63, 64, 65, 1000, 12345] {
            let grid = chunk_grid(len);
            assert!(grid.len() <= MAX_CHUNKS, "len {len}: {} chunks", grid.len());
            let mut next = 0usize;
            for r in &grid {
                assert_eq!(r.start, next, "len {len}");
                assert!(r.end > r.start, "len {len}: empty chunk");
                next = r.end;
            }
            assert_eq!(next, len, "len {len}: grid must cover 0..len");
        }
    }

    #[test]
    fn grid_is_independent_of_thread_count() {
        // The grid is a pure function of len — this is what makes merged
        // float sums bit-identical across thread counts.
        assert_eq!(chunk_grid(777), chunk_grid(777));
    }

    #[test]
    fn ordered_results_match_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..1000u64).map(|i| i * i % 97).collect();
        let expect: Vec<u64> = chunk_grid(items.len())
            .into_iter()
            .map(|r| items[r].iter().sum())
            .collect();
        for threads in [1, 2, 3, 7, 16] {
            let got = Executor::new(threads).map_ordered(
                items.len(),
                || 0u64,
                |calls, r| {
                    *calls += 1;
                    items[r].iter().sum::<u64>()
                },
            );
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn reduce_folds_in_chunk_order() {
        // Collect chunk start indices through the fold; order must be the
        // grid order regardless of thread count.
        for threads in [1, 4] {
            let folded = Executor::new(threads).fold_ordered(
                300,
                Vec::new(),
                || (),
                |_, r| r.start,
                Vec::push,
            );
            let expect: Vec<usize> = chunk_grid(300).into_iter().map(|r| r.start).collect();
            assert_eq!(folded, expect, "threads {threads}");
        }
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let pool = Executor::new(4);
        let got: Vec<u32> = pool.map_ordered(0, || (), |_, _| unreachable!());
        assert!(got.is_empty());
        assert_eq!(
            pool.fold_ordered(0, 5u32, || (), |_, _| 1u32, |a, b| *a += b),
            5
        );
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // With 1 thread every chunk shares one scratch, so the counter sees
        // every chunk.
        let counts = Executor::new(1).map_ordered(
            640,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts.last().copied(), Some(chunk_grid(640).len()));
    }

    #[test]
    fn worker_panic_names_the_failing_range() {
        for threads in [1, 3] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                Executor::new(threads).map_ordered(
                    100,
                    || (),
                    |_, r: Range<usize>| {
                        if r.contains(&42) {
                            panic!("boom on purpose");
                        }
                        0u8
                    },
                )
            }));
            let payload = result.expect_err("must propagate the panic");
            let msg = PanicFence::message(&*payload);
            assert!(
                msg.contains("parallel worker panicked on items") && msg.contains("boom"),
                "threads {threads}: message was {msg:?}"
            );
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}

//! Bit-identity of [`inet_exec::Executor`] fan-outs across thread counts.
//!
//! The work-stealing pool under the executor uses a fixed chunk grid that
//! depends only on the item count and folds partials in chunk order, so any
//! float-producing workload must come out **bit-identical** — every mantissa
//! bit — for any `threads ≥ 1`. These properties pin that contract directly
//! on the executor API, independent of the metrics layer's own suite.

use inet_exec::{CancelToken, Executor, PanicFence};
use inet_stats::rng::check;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

const THREADS: [usize; 3] = [1, 2, 7];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Non-associative float workload: per-item cost varies with the index so
/// chunks carry uneven work and steal order differs between runs.
fn knead(i: usize, salt: f64) -> f64 {
    let mut acc = salt + i as f64;
    for k in 1..=(i % 23 + 3) {
        acc = (acc * 1.000_000_119 + (k as f64).sqrt()).sin() + 1e-9 * k as f64;
    }
    acc
}

/// Flattened per-item results of one fan-out at `threads`.
fn fanout(len: usize, salt: f64, threads: usize) -> Vec<f64> {
    Executor::new(threads)
        .map_ordered(len, Vec::new, |scratch: &mut Vec<f64>, range| {
            scratch.clear();
            scratch.extend(range.map(|i| knead(i, salt)));
            scratch.clone()
        })
        .into_iter()
        .flatten()
        .collect()
}

/// `map_ordered` output is bit-identical for any thread count.
#[test]
fn map_ordered_bit_identical_across_threads() {
    check(16, |rng| {
        let (len, salt) = (rng.gen_range(0..400), rng.gen_range(-4.0..4.0));
        let reference = fanout(len, salt, 1);
        assert_eq!(reference.len(), len);
        for threads in THREADS {
            assert_eq!(
                bits(&fanout(len, salt, threads)),
                bits(&reference),
                "threads {threads}"
            );
        }
    });
}

/// Sums `knead` over `0..len` through `Executor::fold_ordered`, one float
/// partial per chunk folded into the accumulator. If `slow_first`, chunk 0
/// sleeps first, so at threads > 1 every later chunk finishes before it
/// and waits, parked, for the in-order fold.
fn fold_sum(len: usize, salt: f64, threads: usize, slow_first: bool) -> f64 {
    Executor::new(threads).fold_ordered(
        len,
        0.0f64,
        || (),
        |(), r| {
            if slow_first && r.start == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            r.map(|i| knead(i, salt)).sum::<f64>()
        },
        |acc, part| *acc += part,
    )
}

/// The streaming fold keeps float accumulation bit-identical: partials are
/// folded in chunk order whichever worker finishes them.
#[test]
fn fanout_reduce_bit_identical_across_threads() {
    check(16, |rng| {
        let (len, salt) = (rng.gen_range(1..400), rng.gen_range(-4.0..4.0));
        let reference = fold_sum(len, salt, 1, false);
        for threads in THREADS {
            assert_eq!(
                fold_sum(len, salt, threads, false).to_bits(),
                reference.to_bits(),
                "threads {threads}"
            );
        }
    });
}

/// With chunk 0 the slowest, chunks complete out of order; the fold still
/// takes them in chunk order, so the sum keeps every bit.
#[test]
fn fold_is_bit_identical_when_chunks_complete_out_of_order() {
    let (len, salt) = (640, 0.25);
    let reference = fold_sum(len, salt, 1, false);
    for threads in THREADS {
        assert_eq!(
            fold_sum(len, salt, threads, true).to_bits(),
            reference.to_bits(),
            "threads {threads}"
        );
    }
}

/// A partial that counts how many of its kind are alive, and the peak.
struct Counted<'a>(&'a AtomicUsize);

impl<'a> Counted<'a> {
    fn new(live: &'a AtomicUsize, peak: &AtomicUsize) -> Self {
        peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        Counted(live)
    }
}

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// At threads = 1 each partial is folded (and dropped) before the next
/// chunk runs, so at most one is ever alive.
#[test]
fn single_thread_fold_holds_at_most_one_partial() {
    let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let chunks = Executor::new(1).fold_ordered(
        1000,
        0usize,
        || (),
        |(), _| Counted::new(&live, &peak),
        |n, _part| *n += 1,
    );
    assert_eq!(chunks, inet_exec::parallel::chunk_grid(1000).len());
    assert_eq!(live.load(Ordering::SeqCst), 0);
    assert_eq!(peak.load(Ordering::SeqCst), 1);
}

/// A panicking chunk re-raises on the caller naming the earliest failing
/// range, with the same message `map_ordered` gives.
#[test]
fn fold_panic_names_the_earliest_failing_range() {
    let grid = inet_exec::parallel::chunk_grid(500);
    let (first, second) = (grid[3].clone(), grid[40].clone());
    let fails = |r: &std::ops::Range<usize>| r.start == first.start || r.start == second.start;
    let message = |run: &dyn Fn()| {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("must re-raise");
        PanicFence::message(&*payload)
    };
    let expect = format!(
        "parallel worker panicked on items {}..{}: chunk failed",
        first.start, first.end
    );
    for threads in THREADS {
        let folded = message(&|| {
            Executor::new(threads).fold_ordered(
                500,
                0usize,
                || (),
                |(), r| {
                    assert!(!fails(&r), "chunk failed");
                    r.len()
                },
                |acc, n| *acc += n,
            );
        });
        let mapped = message(&|| {
            Executor::new(threads).map_ordered(
                500,
                || (),
                |(), r| {
                    assert!(!fails(&r), "chunk failed");
                    r.len()
                },
            );
        });
        assert_eq!(folded, expect, "threads {threads}");
        assert_eq!(mapped, expect, "threads {threads}");
    }
}

/// `try_map_ordered` with a never-cancelled token matches `map_ordered`
/// exactly for any thread count.
#[test]
fn try_map_matches_map_across_threads() {
    check(16, |rng| {
        let (len, salt) = (rng.gen_range(0..300), rng.gen_range(-4.0..4.0));
        let reference = fanout(len, salt, 1);
        for threads in THREADS {
            let exec = Executor::with_cancel(threads, CancelToken::new());
            let got: Vec<f64> = exec
                .try_map_ordered(len, Vec::new, |scratch: &mut Vec<f64>, range| {
                    scratch.clear();
                    scratch.extend(range.map(|i| knead(i, salt)));
                    scratch.clone()
                })
                .expect("fresh token never cancels")
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(bits(&got), bits(&reference), "threads {threads}");
        }
    });
}

#[test]
fn empty_fanout_is_empty_for_every_thread_count() {
    for threads in THREADS {
        assert!(fanout(0, 1.0, threads).is_empty(), "threads {threads}");
    }
}

#[test]
fn more_threads_than_chunks_is_fine() {
    let a = fanout(3, 0.5, 1);
    let b = fanout(3, 0.5, 64);
    assert_eq!(bits(&a), bits(&b));
}

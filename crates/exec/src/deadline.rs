//! Soft and hard deadlines for long-running tasks.
//!
//! The toolkit distinguishes two budgets:
//!
//! * a **soft deadline** ([`StopWatch`]) never interrupts work — the task
//!   runs to completion so its numbers stay deterministic, and the watch
//!   merely reports whether the budget was overrun (the metrics layer turns
//!   an overrun into a `Degraded` status annotation);
//! * a **hard deadline** ([`Deadline`]) is a point in time after which a
//!   cancel token built with [`crate::CancelToken::expiring`] reports
//!   cancelled; the task then winds down cooperatively at its next poll.
//!
//! Keeping both in one module makes the semantics greppable: nothing in the
//! workspace kills a thread, ever — deadlines either annotate or cancel.

use std::time::{Duration, Instant};

/// What a [`StopWatch`] saw when it was read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    /// Elapsed wall-clock milliseconds, truncated.
    pub millis: u64,
    /// `Some(deadline_ms)` when a soft deadline was configured and the
    /// elapsed time exceeds it.
    pub overrun: Option<u64>,
}

/// Wall-clock watch with an optional soft deadline.
///
/// The overrun check compares the **un-truncated** elapsed duration against
/// the deadline, so a sub-millisecond task still overruns a 0 ms deadline —
/// the contract the metrics battery's `Degraded` annotation relies on.
#[derive(Debug, Clone, Copy)]
pub struct StopWatch {
    start: Instant,
    soft_deadline_ms: Option<u64>,
}

impl StopWatch {
    /// Starts the watch now. `soft_deadline_ms: None` disables the overrun
    /// check ([`Reading::overrun`] stays `None` forever).
    pub fn start(soft_deadline_ms: Option<u64>) -> Self {
        StopWatch {
            start: Instant::now(),
            soft_deadline_ms,
        }
    }

    /// Reads elapsed time and the overrun verdict from a single clock
    /// sample, so the truncated `millis` and the overrun decision can never
    /// disagree about which instant they describe.
    pub fn read(&self) -> Reading {
        let elapsed = self.start.elapsed();
        let overrun = self
            .soft_deadline_ms
            .filter(|&d| elapsed.as_secs_f64() * 1000.0 > d as f64);
        Reading {
            millis: elapsed.as_millis() as u64,
            overrun,
        }
    }
}

/// A hard deadline: a fixed point in time to compare against.
///
/// Carries no enforcement of its own — an expiring
/// [`crate::CancelToken`] polls [`Deadline::is_expired`], and
/// [`Deadline::remaining`] bounds how long a waiter may park.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn after_millis(ms: u64) -> Self {
        Deadline {
            at: Instant::now() + Duration::from_millis(ms),
        }
    }

    /// Whether the deadline has passed.
    pub fn is_expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry; zero once expired (never negative).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_without_deadline_never_overruns() {
        let w = StopWatch::start(None);
        std::thread::sleep(Duration::from_millis(2));
        let r = w.read();
        assert_eq!(r.overrun, None);
    }

    #[test]
    fn zero_soft_deadline_overruns_even_sub_millisecond() {
        // The un-truncated comparison: any positive elapsed time beats a
        // 0 ms budget, even when the truncated millis reads 0.
        let w = StopWatch::start(Some(0));
        let r = w.read();
        assert_eq!(r.overrun, Some(0));
    }

    #[test]
    fn generous_soft_deadline_reads_ok() {
        let w = StopWatch::start(Some(60_000));
        let r = w.read();
        assert_eq!(r.overrun, None);
        assert!(r.millis < 60_000);
    }

    #[test]
    fn elapsed_watch_reports_the_overrun_deadline() {
        let w = StopWatch::start(Some(1));
        std::thread::sleep(Duration::from_millis(5));
        let r = w.read();
        assert_eq!(r.overrun, Some(1));
        assert!(r.millis >= 1, "millis {}", r.millis);
    }

    #[test]
    fn deadline_fires_after_its_duration() {
        let d = Deadline::after_millis(1);
        assert!(d.remaining() <= Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.is_expired());
        assert_eq!(d.remaining(), Duration::ZERO, "never negative");
    }

    #[test]
    fn distant_deadline_is_not_expired() {
        let d = Deadline::after_millis(60_000);
        assert!(!d.is_expired());
        assert!(d.remaining() > Duration::from_secs(50));
    }
}

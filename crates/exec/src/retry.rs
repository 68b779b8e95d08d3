//! Deterministic retry schedules for transient failures.
//!
//! Extracted from the resilience checkpoint store, where retried IO first
//! appeared, and now shared with the scenario service's worker retries.
//! The schedule is capped exponential backoff with **deterministic**
//! jitter: the jitter derives from SplitMix64 of the attempt index — no
//! wall clock, no RNG — so a chaos replay sleeps the exact same schedule
//! every run.

use crate::fence::PanicFence;
use inet_stats::rng::{mix64, GOLDEN};

/// Retry schedule for transient failures: capped exponential backoff with
/// deterministic jitter (SplitMix64 of the attempt index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1 is always made.
    pub attempts: u32,
    /// Backoff before retry `k` is `base_delay_ms << k`, capped below.
    pub base_delay_ms: u64,
    /// Cap on the exponential term (jitter may add up to 25% on top).
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 200,
        }
    }
}

impl RetryPolicy {
    /// The default attempt count with zero sleeping — for tests.
    pub fn no_delay() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// Backoff in milliseconds after failed attempt `attempt` (0-based):
    /// `min(base << attempt, max)` plus deterministic jitter in
    /// `[0, capped/4]`.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16) as u64);
        let capped = exp.min(self.max_delay_ms);
        // Saturating: only reachable with caps near u64::MAX, where the
        // schedule pins to the cap instead of wrapping.
        let jitter = mix64((attempt as u64 + 1).wrapping_add(GOLDEN));
        capped.saturating_add(jitter % (capped / 4 + 1))
    }

    /// Sleeps the backoff owed after failed attempt `attempt` (0-based).
    /// No-op when the computed delay is zero.
    pub fn pause(&self, attempt: u32) {
        let ms = self.delay_ms(attempt);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    /// Runs `op` under this schedule until it succeeds or the attempts are
    /// exhausted. Each attempt is panic-fenced: a panic inside `op` is just
    /// a failed attempt (recorded as `attempt panicked: <message>`), not a
    /// crash of the retry loop.
    ///
    /// `op` receives the 0-based attempt index — callers use it as the
    /// scope key of their failpoints so a chaos plan can fail exactly the
    /// first attempt and watch the retry recover. An `Err` return is
    /// retryable; to stop early on a deterministic failure, make `T` itself
    /// a `Result` and return it as `Ok`.
    pub fn run<T>(
        &self,
        mut op: impl FnMut(u64) -> Result<T, String>,
    ) -> Result<T, RetryExhausted> {
        let registry = inet_obs::default_registry();
        let mut last = String::from("no attempt made");
        for attempt in 0..self.attempts.max(1) {
            if attempt > 0 {
                // Telemetry: retries beyond the first try are counted; the
                // first attempt is normal operation, not a retry.
                registry.counter("inet_retry_attempts_total", &[]).inc();
                self.pause(attempt - 1);
            }
            match PanicFence::run(|| op(attempt as u64)) {
                Ok(Ok(value)) => return Ok(value),
                Ok(Err(e)) => last = e,
                Err(msg) => last = format!("attempt panicked: {msg}"),
            }
        }
        registry.counter("inet_retry_exhausted_total", &[]).inc();
        Err(RetryExhausted {
            attempts: self.attempts.max(1),
            last_error: last,
        })
    }
}

/// Every attempt of a [`RetryPolicy::run`] loop failed.
///
/// Displays as `<last error> (after <N> attempts)` — the format the
/// checkpoint store has always surfaced, now shared by every retried
/// operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryExhausted {
    /// How many attempts were made (the policy's count, at least 1).
    pub attempts: u32,
    /// The failure message of the last attempt.
    pub last_error: String,
}

impl std::fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (after {} attempts)", self.last_error, self.attempts)
    }
}

impl std::error::Error for RetryExhausted {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_deterministic_and_capped() {
        let p = RetryPolicy::default();
        for attempt in 0..20 {
            let a = p.delay_ms(attempt);
            let b = p.delay_ms(attempt);
            assert_eq!(a, b, "jitter must be deterministic");
            assert!(
                a <= p.max_delay_ms + p.max_delay_ms / 4,
                "attempt {attempt}: delay {a} above cap+jitter"
            );
        }
    }

    #[test]
    fn delays_grow_until_the_cap() {
        let p = RetryPolicy {
            attempts: 8,
            base_delay_ms: 10,
            max_delay_ms: 80,
        };
        // The exponential term doubles until capped at 80.
        assert!(p.delay_ms(0) >= 10);
        assert!(p.delay_ms(3) >= 80);
        assert!(p.delay_ms(17) <= 80 + 80 / 4, "huge attempts stay capped");
    }

    #[test]
    fn no_delay_never_sleeps() {
        let p = RetryPolicy::no_delay();
        for attempt in 0..8 {
            assert_eq!(p.delay_ms(attempt), 0);
        }
    }

    #[test]
    fn run_returns_first_success() {
        let p = RetryPolicy::no_delay();
        let mut calls = 0;
        let got = p.run(|attempt| {
            calls += 1;
            Ok::<u64, String>(attempt)
        });
        assert_eq!(got, Ok(0));
        assert_eq!(calls, 1);
    }

    #[test]
    fn run_retries_failures_then_succeeds() {
        let p = RetryPolicy::no_delay();
        let got = p.run(|attempt| {
            if attempt < 2 {
                Err(format!("transient {attempt}"))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(got, Ok(2));
    }

    #[test]
    fn run_exhaustion_reports_the_last_error_and_count() {
        let p = RetryPolicy::no_delay();
        let got = p.run(|attempt| -> Result<(), String> { Err(format!("boom {attempt}")) });
        let err = got.expect_err("all attempts fail");
        assert_eq!(err.attempts, 4);
        assert_eq!(err.last_error, "boom 3");
        assert_eq!(err.to_string(), "boom 3 (after 4 attempts)");
    }

    #[test]
    fn run_fences_attempt_panics() {
        let p = RetryPolicy::no_delay();
        let got = p.run(|attempt| {
            if attempt == 0 {
                #[allow(clippy::panic)]
                {
                    panic!("first attempt dies");
                }
            }
            Ok::<u64, String>(attempt)
        });
        assert_eq!(got, Ok(1), "a panicked attempt is just a failed attempt");
        let all_panic = p.run(|_| -> Result<(), String> {
            #[allow(clippy::panic)]
            {
                panic!("always")
            }
        });
        let err = all_panic.expect_err("exhausted");
        assert_eq!(
            err.to_string(),
            "attempt panicked: always (after 4 attempts)"
        );
    }

    #[test]
    fn jitter_sleep_sequence_is_exactly_reproducible() {
        // The SplitMix64 jitter contract pinned to exact values: the
        // schedule is a pure function of (policy, attempt), so a chaos
        // replay sleeps these exact milliseconds, forever. If this test
        // breaks, checkpoint-retry replay timing has silently changed.
        let p = RetryPolicy::default(); // base 10, max 200
        let schedule: Vec<u64> = (0..6).map(|a| p.delay_ms(a)).collect();
        assert_eq!(schedule, vec![12, 24, 44, 93, 200, 232]);
        let q = RetryPolicy {
            attempts: 8,
            base_delay_ms: 5,
            max_delay_ms: 40,
        };
        let schedule: Vec<u64> = (0..6).map(|a| q.delay_ms(a)).collect();
        assert_eq!(schedule, vec![6, 11, 23, 50, 41, 41]);
        // The exponent clamp at 16 keeps huge attempt indices finite.
        assert_eq!(p.delay_ms(16), 233);
        assert_eq!(p.delay_ms(17), 204);
        assert_eq!(p.delay_ms(63), 240);
    }

    #[test]
    fn backoff_stays_within_the_documented_bounds() {
        // delay(attempt) ∈ [capped, capped + capped/4] where
        // capped = min(base << min(attempt,16), max) — for every attempt,
        // including the shift-overflow and saturation edges.
        let policies = [
            RetryPolicy::default(),
            RetryPolicy {
                attempts: 4,
                base_delay_ms: 1,
                max_delay_ms: 3,
            },
            RetryPolicy {
                attempts: 4,
                base_delay_ms: u64::MAX / 2,
                max_delay_ms: u64::MAX,
            },
        ];
        for p in policies {
            for attempt in [0u32, 1, 2, 3, 15, 16, 17, 31, 63, u32::MAX] {
                let exp = p
                    .base_delay_ms
                    .saturating_mul(1u64 << attempt.min(16) as u64);
                let capped = exp.min(p.max_delay_ms);
                let got = p.delay_ms(attempt);
                assert!(
                    got >= capped && got <= capped.saturating_add(capped / 4),
                    "base={} max={} attempt={attempt}: {got} outside [{capped}, {}]",
                    p.base_delay_ms,
                    p.max_delay_ms,
                    capped.saturating_add(capped / 4)
                );
            }
        }
    }

    #[test]
    fn zero_attempt_policy_still_tries_once() {
        let p = RetryPolicy {
            attempts: 0,
            base_delay_ms: 0,
            max_delay_ms: 0,
        };
        assert_eq!(p.run(|_| Ok::<u8, String>(9)), Ok(9));
        let err = p
            .run(|_| -> Result<(), String> { Err("x".into()) })
            .expect_err("fails");
        assert_eq!(err.attempts, 1);
    }
}

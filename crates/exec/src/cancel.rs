//! Cooperative cancellation for long-running computations.
//!
//! A [`CancelToken`] is a cheap, cloneable handle around a shared atomic
//! flag. Producers of long-running work (sweep cells, metric kernels, the
//! work-stealing pool) poll [`CancelToken::is_cancelled`] at natural batch
//! boundaries — between sweep cells, between kernels, between pool chunks —
//! and wind down *cooperatively*: in-flight state is flushed, partial
//! results stay valid, and nothing is torn mid-write.
//!
//! Cancellation latency is therefore bounded by the largest unit of work
//! between two polls (one sweep cell, one kernel, one pool chunk), which is
//! exactly the granularity at which the toolkit's checkpoints commit — a
//! cancelled run can always resume from its last committed unit.
//!
//! Tokens can additionally be **linked** to a `'static` [`AtomicBool`] via
//! [`CancelToken::linked`]. This is the bridge to asynchronous signal
//! handlers (a SIGINT handler may only touch static atomics): the handler
//! flips the static flag, and every token linked to it observes the
//! cancellation on its next poll, without the handler ever needing a
//! reference to the token itself.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::Deadline;

/// A computation was cancelled cooperatively before it completed.
///
/// Carried by `Result::Err` on cancellable entry points; the partial work
/// committed before the poll that observed the cancellation remains valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("operation cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Cheap, cloneable cancellation handle shared between a controller (the
/// CLI's signal handler, a test) and the workers it may need to stop.
///
/// All clones of a token observe the same flag: cancelling any clone
/// cancels them all. The default token ([`CancelToken::new`] /
/// `CancelToken::default()`) is never cancelled until [`cancel`] is called
/// on it, so passing a fresh token preserves legacy run-to-completion
/// behavior exactly.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// Flag owned by this token family (all clones share it).
    flag: Arc<AtomicBool>,
    /// Optional external flag — typically a static flipped by a signal
    /// handler — OR-ed into every poll.
    external: Option<&'static AtomicBool>,
    /// Optional hard deadline: once it has passed, every poll reports
    /// cancelled, so no supervisor thread has to fire the token.
    deadline: Option<Deadline>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that also observes `external`: the token reports cancelled
    /// when *either* its own flag or `external` is set. Used to bridge
    /// signal handlers, which can only touch static atomics.
    pub fn linked(external: &'static AtomicBool) -> Self {
        Self {
            external: Some(external),
            ..Self::default()
        }
    }

    /// A fresh token that also reports cancelled once `deadline`, if any,
    /// has passed.
    pub fn expiring(deadline: Option<Deadline>) -> Self {
        Self {
            deadline,
            ..Self::default()
        }
    }

    /// Requests cancellation. Idempotent; all clones observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Polls the token. `true` once [`cancel`] has been called on any clone,
    /// the linked external flag has been set, or the deadline has passed.
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
            || self.external.is_some_and(|e| e.load(Ordering::SeqCst))
            || self.deadline.is_some_and(|d| d.is_expired())
    }

    /// `Err(Cancelled)` once the token is cancelled, `Ok(())` otherwise.
    /// Convenience for `?`-style early exit at batch boundaries.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.checkpoint(), Ok(()));
    }

    #[test]
    fn cancel_is_visible_to_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
        assert_eq!(t.checkpoint(), Err(Cancelled));
        // Idempotent.
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn linked_token_observes_the_external_flag() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let t = CancelToken::linked(&FLAG);
        let c = t.clone();
        assert!(!t.is_cancelled());
        FLAG.store(true, Ordering::SeqCst);
        assert!(t.is_cancelled(), "external flag must cancel the token");
        assert!(c.is_cancelled(), "clones keep the link");
        FLAG.store(false, Ordering::SeqCst);
        assert!(!t.is_cancelled(), "own flag was never set");
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn expiring_token_cancels_itself_at_its_deadline() {
        assert!(!CancelToken::expiring(None).is_cancelled());
        let t = CancelToken::expiring(Some(Deadline::after_millis(60_000)));
        assert!(!t.is_cancelled(), "deadline still a minute away");
        t.cancel();
        assert!(t.is_cancelled(), "an explicit cancel still wins");
        let t = CancelToken::expiring(Some(Deadline::after_millis(0)));
        assert!(t.is_cancelled(), "a passed deadline cancels");
        assert!(t.clone().is_cancelled(), "clones share the deadline");
    }

    #[test]
    fn cancelled_error_formats() {
        assert_eq!(Cancelled.to_string(), "operation cancelled");
    }
}

//! Unified task-execution substrate for the Internet topology toolkit.
//!
//! Before this crate, five layers — the metrics engine's fused sweep, the
//! robust kernel runner, the resilience cell sweep, pipeline stages, and
//! the scenario service's worker pool — each carried their own copies of
//! the same machinery: a panic fence, a deadline check, a retry loop, a
//! thread pool. `inet-exec` owns that vocabulary in one place:
//!
//! * [`parallel`] — the fixed chunk grid and the deterministic
//!   work-stealing pool behind [`Executor`]'s fan-outs (streaming in-order
//!   fold: bit-identical results for any thread count, about `threads`
//!   partials alive at once);
//! * [`cancel`] — cooperative [`CancelToken`] / [`Cancelled`] plumbing;
//! * [`fence`] — [`PanicFence`], the single panic-containment choke point;
//! * [`deadline`] — soft budgets ([`StopWatch`]) that annotate overruns and
//!   hard points-in-time ([`Deadline`]) that supervisors cancel against;
//! * [`retry`] — [`RetryPolicy`], capped exponential backoff with
//!   SplitMix64 deterministic jitter, and its [`RetryExhausted`] error;
//! * [`task`] — the [`Task`] / [`Executor`] API and [`run_fenced`], which
//!   routes every fenced unit of work through the `exec.task` failpoint;
//!   [`Executor::map_ordered`], [`Executor::fold_ordered`] and
//!   [`Executor::try_map_ordered`] are the only fan-outs;
//! * [`durable`] — the one durable-write path: FNV-1a 64 checksums, atomic
//!   replace, synced appends, truncation and directory fsyncs, each step
//!   behind the `durable.op` failpoint.
//!
//! The crate adds **no scheduling or numeric behavior of its own**: ports
//! from the old per-layer copies are bit-identical at any thread count, and
//! every layer keeps its layer-specific failpoint alongside the shared
//! `exec.task` one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod deadline;
pub mod durable;
pub mod fence;
pub mod parallel;
pub mod retry;
pub mod task;

pub use cancel::{CancelToken, Cancelled};
pub use deadline::{Deadline, Reading, StopWatch};
pub use fence::PanicFence;
pub use retry::{RetryExhausted, RetryPolicy};
pub use task::{run_fenced, Executor, Task, TaskError};

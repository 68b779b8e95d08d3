//! # inet-obs — zero-dependency observability for the toolkit
//!
//! The execution substrate (`inet-exec`), the journaled pipeline, the
//! resilience sweep, and the serve daemon all do timed, retried, fenced
//! work — and before this crate none of it was measurable without println
//! archaeology. `inet-obs` is the shared telemetry vocabulary:
//!
//! * [`Registry`] — named **counters**, **gauges**, and fixed-bucket
//!   **histograms** (log2 latency buckets) behind plain atomics, with a
//!   process-wide [`default_registry`]. Registration takes one uncontended
//!   mutex; every update after that is a single atomic op.
//! * [`span`] — lightweight start/stop scopes with monotonic timing, a
//!   small thread id, and the same `(layer, scope)` vocabulary the
//!   exec/fault layers use. Records are collected **per thread** (no lock
//!   on the record path) and merged into a span tree on flush;
//!   [`span::capture`] extracts one subtree — the pipeline appends it to
//!   the run's `telemetry.log`, one record per span.
//! * [`expo`] — Prometheus text exposition plus a flat-JSON form, and a
//!   small format checker the CI smoke job leans on.
//!
//! ## Telemetry is inert — provably
//!
//! Nothing in this crate feeds back into results: recorders observe wall
//! time and counts, never values. Every recording entry point consults the
//! `obs.record` failpoint via [`inet_fault::check_contained`], so a chaos
//! plan can make the recorder error, sleep, or **panic** — a panicking
//! recorder drops its record and the job carries on. The determinism
//! suites run with telemetry permanently on; outputs stay bit-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod registry;
pub mod span;

pub use expo::{render_json, render_prometheus, validate_prometheus};
pub use registry::{default_registry, Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};
pub use span::{SpanGuard, SpanRecord};

/// Consults the `obs.record` failpoint: `true` when recording may proceed.
///
/// An injected `Error` (or a contained injected `Panic`) makes the recorder
/// silently skip one record; `Delay` sleeps and proceeds. With fault
/// injection compiled out this inlines to `true`.
#[inline]
pub(crate) fn record_allowed(scope: u64) -> bool {
    inet_fault::check_contained("obs.record", scope).is_ok()
}

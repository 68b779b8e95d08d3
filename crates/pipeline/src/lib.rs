//! # inet-pipeline — declarative experiment pipeline
//!
//! Turns a TOML **scenario** into a staged run: *source* (generate a
//! topology from the [`inet_generators::registry()`] or load an edge list)
//! → *measure* (the panic-fenced [`inet_metrics::measure_robust`] battery,
//! with kernel selection and soft deadlines) → *attack* (the checkpointed
//! [`inet_resilience::run_sweep`] percolation engine) → *report* (summary
//! text plus optional edge-list / curve-CSV / summary-file sinks).
//!
//! The CLI's `generate`, `measure`, and `attack` subcommands are thin
//! builders over [`Scenario`]; `inet run <scenario.toml>` executes a file
//! directly. Model dispatch happens exactly once, in the registry — the
//! pipeline never matches on model names.
//!
//! Every stage is wrapped in the `pipeline.stage` failpoint (scope 0 =
//! source, 1 = measure, 2 = attack, 3 = report) and a panic fence, so a
//! chaos plan can abort any stage deterministically and still get a typed
//! [`PipelineError`] instead of a crash.
//!
//! ```
//! use inet_pipeline::{run_scenario, Scenario};
//! let scenario = Scenario::parse(
//!     r#"
//!     [generator]
//!     model = "ba"
//!     n = 60
//!     seed = 7
//!     [measure]
//!     metrics = ["degree", "giant"]
//!     "#,
//! )
//! .unwrap();
//! let outcome = run_scenario(&scenario).unwrap();
//! assert_eq!(outcome.nodes, 60);
//! assert!(outcome.robust.unwrap().fully_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod run;
pub mod runstore;
pub mod scenario;
pub mod service;
pub mod telemetry;
pub mod toml;

pub use run::{run_scenario, run_scenario_with, ExecOptions, RunOutcome};
pub use runstore::{scan_runs, CommitRecord, RunInfo, RunScan, RunStore};
pub use scenario::{AttackSpec, GeneratorSpec, MeasureSpec, ReportSpec, Scenario, Source};
pub use service::{ServeExit, Service, ServiceConfig};
pub use telemetry::{Telemetry, TELEMETRY_FILE};
pub use toml::{TomlError, TomlValue};

use std::fmt;

/// A pipeline failure with its exit-code class. The classes mirror the
/// CLI's documented contract (scripts branch on them):
///
/// | code | class | variant |
/// |---|---|---|
/// | 2 | scenario/usage (malformed file, unknown model or key) | [`PipelineError::Scenario`] |
/// | 3 | invalid model parameters | [`PipelineError::Model`] |
/// | 4 | data / IO (unreadable or malformed files) | [`PipelineError::Data`] |
/// | 4 | a durable write to the run store failed | [`PipelineError::Store`] |
/// | 5 | checkpoint belongs to a different run | [`PipelineError::CheckpointIncompatible`] |
/// | 6 | interrupted, resumable (`inet run --resume <run-id>`) | [`PipelineError::Interrupted`] |
/// | 1 | stage aborted (injected fault, caught panic), anything else | [`PipelineError::Stage`] |
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The scenario itself is unusable: TOML syntax, unknown keys or
    /// models, out-of-range settings.
    Scenario(String),
    /// A generator rejected its parameters (a `ModelError` one-liner).
    Model(String),
    /// Unreadable or malformed input/output data.
    Data(String),
    /// A durable write to the run store failed: a journal append, an
    /// artifact write or rename, or a directory fsync. Everything committed
    /// before it is journaled, so a retry resumes the run.
    Store(String),
    /// The attack checkpoint belongs to a different graph or sweep; the
    /// message names the differing field.
    CheckpointIncompatible(String),
    /// A stage died mid-flight: an injected `pipeline.stage` fault or a
    /// caught panic.
    Stage(String),
    /// The run was cancelled cooperatively (SIGINT or a fired
    /// [`inet_exec::CancelToken`]); completed work is journaled and the
    /// message carries the exact resume command.
    Interrupted(String),
}

impl PipelineError {
    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            PipelineError::Stage(_) => 1,
            PipelineError::Scenario(_) => 2,
            PipelineError::Model(_) => 3,
            PipelineError::Data(_) | PipelineError::Store(_) => 4,
            PipelineError::CheckpointIncompatible(_) => 5,
            PipelineError::Interrupted(_) => 6,
        }
    }

    /// The one-line message.
    pub fn message(&self) -> &str {
        match self {
            PipelineError::Scenario(m)
            | PipelineError::Model(m)
            | PipelineError::Data(m)
            | PipelineError::Store(m)
            | PipelineError::CheckpointIncompatible(m)
            | PipelineError::Stage(m)
            | PipelineError::Interrupted(m) => m,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for PipelineError {}

/// Serializes this crate's tests that run scenarios, touch a run store or
/// install a fault plan: the plan is process-global, so one test's injected
/// fault must never fire inside another test's run.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_match_the_cli_contract() {
        let cases = [
            (PipelineError::Stage("x".into()), 1),
            (PipelineError::Scenario("x".into()), 2),
            (PipelineError::Model("x".into()), 3),
            (PipelineError::Data("x".into()), 4),
            (PipelineError::CheckpointIncompatible("x".into()), 5),
            (PipelineError::Interrupted("x".into()), 6),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (e, want) in cases {
            assert_eq!(e.exit_code(), want, "{e}");
            assert!(seen.insert(e.exit_code()), "duplicate exit code {want}");
        }
        // A failed run-store write is an IO error to the CLI.
        assert_eq!(PipelineError::Store("x".into()).exit_code(), 4);
    }
}

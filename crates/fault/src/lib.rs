//! # inet-fault — deterministic fault injection for the toolkit's own harness
//!
//! The resilience papers the workspace reproduces all make the same point:
//! a robustness claim is only as credible as the harness that produced it.
//! This crate turns that on the toolkit itself. Library crates mark the
//! places where the real world can hurt them — checkpoint reads/writes,
//! sweep cells, metric-kernel entries, generator growth, edge-list I/O —
//! with named **failpoints**:
//!
//! ```rust
//! # fn save() -> Result<(), inet_fault::FaultError> {
//! inet_fault::check("checkpoint.write", 0 /* scope: attempt index */)?;
//! # Ok(()) }
//! ```
//!
//! A chaos test installs a [`FaultPlan`] (derived deterministically from a
//! seed) and the marked sites start failing on cue: returning an error,
//! panicking, or delaying. Everything is **scope-keyed** — a plan says
//! "fail `sweep.cell` at scope 3", not "fail the 3rd hit" — so the same
//! `(seed, plan)` injects the same faults at any thread count and recovered
//! output stays bit-identical.
//!
//! With the `enabled` cargo feature **off** (the default), [`check`] is an
//! inlined constant `Ok(())`: the failpoints vanish from release builds.
//! The plan/spec types stay available either way so test code compiles
//! unconditionally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Every failpoint name the toolkit registers, with the meaning of its
/// scope key:
///
/// | failpoint | scope |
/// |---|---|
/// | `io.read` | always 0 (one read per call) |
/// | `io.write` | always 0 |
/// | `generator.generate` | always 0 (checked at growth entry) |
/// | `metrics.kernel` | kernel index in [`inet-metrics`' robust runner] |
/// | `sweep.cell` | canonical cell index of the attack sweep |
/// | `checkpoint.read` | retry attempt index |
/// | `checkpoint.write` | retry attempt index |
/// | `pipeline.stage` | stage index of a scenario run (0 source, 1 measure, 2 attack, 3 report) |
/// | `journal.write` | stage index whose commit record is being appended |
/// | `artifact.rename` | stage index whose artifact is being atomically renamed into place |
/// | `service.accept` | connection sequence index of the serve daemon's accept loop |
/// | `service.queue` | admission sequence index of a job submission |
/// | `service.worker` | attempt index of the job a worker is about to start |
/// | `exec.task` | deterministic scope key of the fenced task (kernel index, cell index, stage index, attempt) |
/// | `obs.record` | scope key of the telemetry record being written (span scope, or 0 for counter/histogram updates) |
/// | `durable.op` | process-wide sequence number of the durable file operation (`inet_exec::durable::ops`) |
pub const CATALOG: &[&str] = &[
    "io.read",
    "io.write",
    "generator.generate",
    "metrics.kernel",
    "sweep.cell",
    "checkpoint.read",
    "checkpoint.write",
    "pipeline.stage",
    "journal.write",
    "artifact.rename",
    "service.accept",
    "service.queue",
    "service.worker",
    "exec.task",
    "obs.record",
    "durable.op",
];

/// What a triggered failpoint does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The site receives a [`FaultError`] and must convert it to its own
    /// structured error type.
    Error,
    /// The site panics (with a recognizable message); some enclosing layer
    /// must contain it.
    Panic,
    /// The site sleeps for the given number of milliseconds, then proceeds
    /// normally — exercises soft deadlines without changing results.
    Delay(u64),
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Error => write!(f, "error"),
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Delay(ms) => write!(f, "delay {ms}ms"),
        }
    }
}

/// One injection rule: which failpoint, at which scope, how often, doing
/// what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Failpoint name (one of [`CATALOG`]).
    pub failpoint: &'static str,
    /// Scope key to match; `None` matches every scope. Deterministic plans
    /// should pin the scope for failpoints whose hit order depends on
    /// thread scheduling (`sweep.cell`, `metrics.kernel`).
    pub scope: Option<u64>,
    /// Trigger at most this many times (0 = unlimited). Counted per spec.
    pub max_hits: u64,
    /// What happens on a triggered hit.
    pub action: FaultAction,
}

/// A deterministic set of injection rules.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The rules, matched in order; the first matching spec wins.
    pub specs: Vec<FaultSpec>,
}

/// SplitMix64 step — the crate depends on nothing, not even `inet-stats`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with a single rule.
    pub fn single(failpoint: &'static str, scope: Option<u64>, action: FaultAction) -> Self {
        FaultPlan {
            specs: vec![FaultSpec {
                failpoint,
                scope,
                max_hits: 1,
                action,
            }],
        }
    }

    /// Derives a pseudo-random but fully deterministic plan from `seed`:
    /// 1–3 rules over the [`CATALOG`], scope pinned to a small value,
    /// bounded hit counts. The same seed always yields the same plan.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed ^ 0x6a09_e667_f3bc_c909;
        let count = 1 + (splitmix(&mut state) % 3) as usize;
        let mut specs = Vec::with_capacity(count);
        for _ in 0..count {
            let failpoint = CATALOG[(splitmix(&mut state) % CATALOG.len() as u64) as usize];
            let action = match splitmix(&mut state) % 3 {
                0 => FaultAction::Error,
                1 => FaultAction::Panic,
                _ => FaultAction::Delay(1 + splitmix(&mut state) % 8),
            };
            specs.push(FaultSpec {
                failpoint,
                scope: Some(splitmix(&mut state) % 4),
                max_hits: 1 + splitmix(&mut state) % 2,
                action,
            });
        }
        FaultPlan { specs }
    }

    /// Renders the plan as one line per rule (for test failure messages).
    pub fn describe(&self) -> String {
        self.specs
            .iter()
            .map(|s| {
                format!(
                    "{} scope={} max_hits={} action={}",
                    s.failpoint,
                    s.scope.map_or("any".to_string(), |x| x.to_string()),
                    s.max_hits,
                    s.action
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// The error a triggered `Error`-action failpoint hands to its site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The failpoint that fired.
    pub failpoint: &'static str,
    /// The scope key the site passed.
    pub scope: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected fault at failpoint '{}' (scope {})",
            self.failpoint, self.scope
        )
    }
}

impl std::error::Error for FaultError {}

/// The message prefix of a `Panic`-action failpoint, so containment layers
/// and tests can recognize injected panics.
pub const PANIC_PREFIX: &str = "injected panic at failpoint";

#[cfg(feature = "enabled")]
mod active {
    use super::{FaultAction, FaultError, FaultPlan, PANIC_PREFIX};
    use std::sync::{Mutex, OnceLock};

    struct Installed {
        plan: FaultPlan,
        /// Hits per spec index (triggered hits, counted against `max_hits`).
        hits: Vec<u64>,
    }

    fn state() -> &'static Mutex<Option<Installed>> {
        static STATE: OnceLock<Mutex<Option<Installed>>> = OnceLock::new();
        STATE.get_or_init(|| Mutex::new(None))
    }

    /// Installs `plan`, replacing any active plan and resetting hit
    /// counters. The returned guard clears the plan when dropped.
    pub fn install(plan: FaultPlan) -> FaultGuard {
        let hits = vec![0; plan.specs.len()];
        let mut st = state().lock().unwrap_or_else(|p| p.into_inner());
        *st = Some(Installed { plan, hits });
        FaultGuard(())
    }

    /// Clears the active plan.
    pub fn clear() {
        let mut st = state().lock().unwrap_or_else(|p| p.into_inner());
        *st = None;
    }

    /// `true` when a plan is installed.
    pub fn active() -> bool {
        state().lock().unwrap_or_else(|p| p.into_inner()).is_some()
    }

    /// Uninstalls the plan on drop (scoped injection for tests).
    #[must_use = "dropping the guard immediately clears the fault plan"]
    pub struct FaultGuard(());

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            clear();
        }
    }

    /// The instrumented check: consults the installed plan; returns
    /// `Err(FaultError)` for an `Error` action, panics for `Panic`, sleeps
    /// for `Delay`. Without an installed plan this is one mutex lock.
    #[allow(clippy::panic)] // injecting a panic is the Panic action's contract
    pub fn check(name: &'static str, scope: u64) -> Result<(), FaultError> {
        let action = {
            let mut st = state().lock().unwrap_or_else(|p| p.into_inner());
            let Some(installed) = st.as_mut() else {
                return Ok(());
            };
            let mut triggered = None;
            for (i, spec) in installed.plan.specs.iter().enumerate() {
                if spec.failpoint != name {
                    continue;
                }
                if let Some(want) = spec.scope {
                    if want != scope {
                        continue;
                    }
                }
                if spec.max_hits != 0 && installed.hits[i] >= spec.max_hits {
                    continue;
                }
                installed.hits[i] += 1;
                triggered = Some(spec.action);
                break;
            }
            triggered
            // Lock released here — mandatory before panicking or sleeping.
        };
        match action {
            None => Ok(()),
            Some(FaultAction::Error) => Err(FaultError {
                failpoint: name,
                scope,
            }),
            Some(FaultAction::Panic) => {
                panic!("{PANIC_PREFIX} '{name}' (scope {scope})")
            }
            Some(FaultAction::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
        }
    }
}

#[cfg(feature = "enabled")]
pub use active::{active, check, clear, install, FaultGuard};

/// Like [`check`], but for failpoints with **no enclosing recovery layer**
/// (`io.read`, `io.write`): a `Panic` action is contained here and handed
/// to the site as a plain [`FaultError`], so a seeded chaos plan can never
/// crash the process through an uncontained site.
#[cfg(feature = "enabled")]
pub fn check_contained(name: &'static str, scope: u64) -> Result<(), FaultError> {
    match std::panic::catch_unwind(|| check(name, scope)) {
        Ok(outcome) => outcome,
        Err(_) => Err(FaultError {
            failpoint: name,
            scope,
        }),
    }
}

/// Disabled build: inlined `Ok(())`, like [`check`].
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn check_contained(_name: &'static str, _scope: u64) -> Result<(), FaultError> {
    Ok(())
}

#[cfg(not(feature = "enabled"))]
mod inert {
    use super::{FaultError, FaultPlan};

    /// No-op guard of the disabled build.
    #[must_use = "dropping the guard immediately clears the fault plan"]
    pub struct FaultGuard(pub(crate) ());

    /// Disabled build: installing a plan does nothing.
    pub fn install(_plan: FaultPlan) -> FaultGuard {
        FaultGuard(())
    }

    /// Disabled build: nothing to clear.
    pub fn clear() {}

    /// Disabled build: never active.
    pub fn active() -> bool {
        false
    }

    /// Disabled build: compiles to an inlined `Ok(())` — the call sites
    /// cost nothing.
    #[inline(always)]
    pub fn check(_name: &'static str, _scope: u64) -> Result<(), FaultError> {
        Ok(())
    }
}

#[cfg(not(feature = "enabled"))]
pub use inert::{active, check, clear, install, FaultGuard};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_from_seed_is_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b);
            assert!(!a.specs.is_empty() && a.specs.len() <= 3);
            for spec in &a.specs {
                assert!(CATALOG.contains(&spec.failpoint), "{}", spec.failpoint);
                assert!(spec.max_hits >= 1);
                assert!(!a.describe().is_empty());
            }
        }
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
    }

    #[test]
    fn fault_error_display_names_the_failpoint() {
        let e = FaultError {
            failpoint: "sweep.cell",
            scope: 3,
        };
        assert!(e.to_string().contains("sweep.cell"));
        assert!(e.to_string().contains("3"));
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_inert() {
        let _guard = install(FaultPlan::single("io.read", None, FaultAction::Panic));
        assert!(!active());
        assert_eq!(check("io.read", 0), Ok(()));
    }

    #[cfg(feature = "enabled")]
    mod enabled {
        use super::super::*;
        use std::sync::Mutex;

        /// The registry is process-global; enabled-build tests serialize.
        static LOCK: Mutex<()> = Mutex::new(());

        #[test]
        fn error_action_triggers_then_exhausts() {
            let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
            let _g = install(FaultPlan::single("io.read", Some(0), FaultAction::Error));
            assert!(active());
            assert!(check("io.read", 1).is_ok(), "wrong scope must not fire");
            assert!(check("io.read", 0).is_err());
            assert!(check("io.read", 0).is_ok(), "max_hits=1 exhausted");
        }

        #[test]
        fn guard_drop_clears_plan() {
            let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
            {
                let _g = install(FaultPlan::single("io.write", None, FaultAction::Error));
                assert!(active());
            }
            assert!(!active());
            assert!(check("io.write", 0).is_ok());
        }

        #[test]
        fn panic_action_panics_with_recognizable_message() {
            let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
            let _g = install(FaultPlan::single("sweep.cell", Some(2), FaultAction::Panic));
            let caught = std::panic::catch_unwind(|| check("sweep.cell", 2));
            clear();
            let payload = caught.expect_err("must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains(PANIC_PREFIX), "{msg}");
            assert!(msg.contains("sweep.cell"), "{msg}");
        }

        #[test]
        fn delay_action_sleeps_then_succeeds() {
            let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
            let _g = install(FaultPlan::single(
                "metrics.kernel",
                None,
                FaultAction::Delay(5),
            ));
            let t0 = std::time::Instant::now();
            assert!(check("metrics.kernel", 0).is_ok());
            assert!(t0.elapsed() >= std::time::Duration::from_millis(4));
        }

        #[test]
        fn contained_check_converts_panic_to_error() {
            let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
            let _g = install(FaultPlan::single("io.read", Some(0), FaultAction::Panic));
            assert_eq!(
                check_contained("io.read", 0),
                Err(FaultError {
                    failpoint: "io.read",
                    scope: 0,
                })
            );
            assert!(check_contained("io.read", 0).is_ok(), "one-shot exhausted");
        }

        #[test]
        fn unlimited_hits_fire_every_time() {
            let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
            let _g = install(FaultPlan {
                specs: vec![FaultSpec {
                    failpoint: "checkpoint.write",
                    scope: None,
                    max_hits: 0,
                    action: FaultAction::Error,
                }],
            });
            for scope in 0..5 {
                assert!(check("checkpoint.write", scope).is_err());
            }
        }
    }
}

//! The declarative [`Scenario`]: a validated description of one experiment.
//!
//! A scenario is authored as TOML (or built programmatically by the CLI's
//! thin `generate`/`measure`/`attack` builders) and fully validated *before*
//! anything runs: model names go through the generator registry (with
//! did-you-mean suggestions), parameters through each model's typed schema,
//! metric names through [`KernelSelection::from_names`], and strategy names
//! through [`Strategy::parse`]. A scenario that parses is a scenario whose
//! knobs all exist.
//!
//! ## File format
//!
//! ```toml
//! name = "serrano attack sweep"          # optional
//! description = "fig 7 reproduction"     # optional
//! threads = 4                            # optional; default = all cores
//! check_invariants = false               # optional; extra graph validation
//!
//! [generator]                            # exactly one of [generator]/[input]
//! model = "serrano"                      # any registry name
//! seed = 42                              # optional; default 42
//! n = 500                                # every other key is a model param
//!
//! [generator.params]                     # optional, merged with the above
//! alpha = 0.035
//!
//! [input]                                # alternative source: an edge list
//! path = "graph.txt"                     # "-" reads stdin
//!
//! [measure]                              # optional stage
//! metrics = ["degree", "giant"]          # optional; default = all kernels
//! deadline_ms = 30000                    # optional soft deadline
//! path_sources = 400                     # optional sampling knobs; >= 1
//! betweenness_sources = 200              # 0 = skip betweenness
//!
//! [attack]                               # optional stage
//! strategies = ["random", "degree"]      # optional; this is the default
//! replicas = 4                           # optional; 1..=10000
//! record = 0                             # optional; 0 = auto granularity
//! seed = 42                              # optional; default = generator seed
//! checkpoint = "sweep.ckpt"              # optional resume file
//! bc_sources = 64                        # optional betweenness sampling
//!
//! [report]                               # optional sinks
//! edge_list = "out.txt"                  # "-" writes stdout
//! curves = "curves/"                     # per-cell CSV directory
//! summary = "summary.txt"                # the rendered report text
//! ```
//!
//! `--set key=value` overrides re-use the same value grammar: a bare key
//! targets `[generator]` (so `--set n=200` shrinks any scenario), a dotted
//! key targets an existing section (`--set attack.replicas=8`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use inet_generators::{lookup, ModelSpec, ParamValue, Params};
use inet_metrics::KernelSelection;
use inet_resilience::Strategy;

use crate::toml::{self, TomlValue};
use crate::PipelineError;

/// Node-count bounds shared with the legacy CLI flags.
pub const N_RANGE: std::ops::RangeInclusive<usize> = 8..=500_000;
/// Replica bounds shared with the legacy CLI flags.
pub const REPLICA_RANGE: std::ops::RangeInclusive<usize> = 1..=10_000;

/// Default seed when a scenario does not pick one.
pub const DEFAULT_SEED: u64 = 42;

type Table = BTreeMap<String, TomlValue>;

/// Where the topology comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// Grow it from a registered model.
    Generator(GeneratorSpec),
    /// Load an edge list from a file, or stdin when the path is `-`.
    Input {
        /// File path, or `-` for stdin.
        path: String,
    },
}

/// A resolved generator invocation: registry entry + typed parameters.
#[derive(Debug, Clone)]
pub struct GeneratorSpec {
    /// The registry entry (name, schema, builder).
    pub spec: &'static ModelSpec,
    /// Fully resolved parameters (defaults filled in, types checked).
    pub params: Params,
    /// RNG seed for generation.
    pub seed: u64,
}

/// The measurement stage: which kernels, how sampled, how long.
#[derive(Debug, Clone, Copy)]
pub struct MeasureSpec {
    /// Kernels to run; deselected kernels report as skipped.
    pub selection: KernelSelection,
    /// Soft deadline in milliseconds; `None` = unbounded.
    pub deadline_ms: Option<u64>,
    /// BFS sources sampled for path statistics.
    pub path_sources: usize,
    /// Sources sampled for betweenness.
    pub betweenness_sources: usize,
}

impl Default for MeasureSpec {
    fn default() -> Self {
        let defaults = inet_metrics::ReportOptions::default();
        MeasureSpec {
            selection: KernelSelection::all(),
            deadline_ms: None,
            path_sources: defaults.path_sources,
            betweenness_sources: defaults.betweenness_sources,
        }
    }
}

/// The attack stage: a percolation sweep over the full graph.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// Strategies, in report order.
    pub strategies: Vec<Strategy>,
    /// Replicas per stochastic strategy.
    pub replicas: usize,
    /// Curve granularity; `0` = automatic (≈200 points).
    pub record_every: usize,
    /// Base seed for the sweep's RNG streams.
    pub seed: u64,
    /// Checkpoint file to resume from / write to.
    pub checkpoint: Option<PathBuf>,
    /// Betweenness sources for betweenness-driven strategies.
    pub bc_sources: usize,
}

impl AttackSpec {
    /// The legacy `inet attack` defaults with the given base seed.
    pub fn with_seed(seed: u64) -> AttackSpec {
        AttackSpec {
            strategies: vec![Strategy::Random, Strategy::Degree { recalc: false }],
            replicas: 4,
            record_every: 0,
            seed,
            checkpoint: None,
            bc_sources: 64,
        }
    }
}

/// Where results land. All sinks are optional; the run summary always
/// comes back in-memory on [`crate::RunOutcome`].
#[derive(Debug, Clone, Default)]
pub struct ReportSpec {
    /// Write the (possibly generated) topology as an edge list; `-` = stdout.
    pub edge_list: Option<String>,
    /// Directory for per-cell attack curve CSVs.
    pub curves: Option<PathBuf>,
    /// File for the rendered summary text.
    pub summary: Option<PathBuf>,
}

/// One validated experiment: source → optional measure → optional attack
/// → report sinks.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (defaults to the model or input path).
    pub name: String,
    /// Free-form description; informational only.
    pub description: String,
    /// Worker threads; `None` = all cores.
    pub threads: Option<usize>,
    /// Run full graph-invariant validation after loading/generating.
    pub check_invariants: bool,
    /// Where the topology comes from.
    pub source: Source,
    /// Measurement stage, when present.
    pub measure: Option<MeasureSpec>,
    /// Attack stage, when present.
    pub attack: Option<AttackSpec>,
    /// Output sinks.
    pub report: ReportSpec,
}

fn bad(msg: impl Into<String>) -> PipelineError {
    PipelineError::Scenario(msg.into())
}

impl Scenario {
    /// A scenario skeleton with no stages; the CLI builders start here.
    pub fn new(name: impl Into<String>, source: Source) -> Scenario {
        Scenario {
            name: name.into(),
            description: String::new(),
            threads: None,
            check_invariants: false,
            source,
            measure: None,
            attack: None,
            report: ReportSpec::default(),
        }
    }

    /// Builds a generator-backed scenario from a model name and parameter
    /// overrides — the programmatic twin of a `[generator]` section. Unlike
    /// the TOML path this skips the node-count range check: CLI callers
    /// enforce their own argument ranges, and out-of-domain sizes still
    /// surface from the model builder as model errors.
    pub fn from_generator(
        model: &str,
        overrides: &BTreeMap<String, ParamValue>,
        seed: u64,
    ) -> Result<Scenario, PipelineError> {
        let spec = lookup(model).map_err(|e| bad(e.to_string()))?;
        let params = spec.resolve(overrides).map_err(|e| bad(e.to_string()))?;
        Ok(Scenario::new(
            spec.name,
            Source::Generator(GeneratorSpec { spec, params, seed }),
        ))
    }

    /// Parses a scenario document.
    pub fn parse(text: &str) -> Result<Scenario, PipelineError> {
        Scenario::parse_with_overrides::<&str>(text, &[])
    }

    /// Parses a scenario document, then applies `--set key=value` overrides
    /// before validation.
    pub fn parse_with_overrides<S: AsRef<str>>(
        text: &str,
        sets: &[S],
    ) -> Result<Scenario, PipelineError> {
        let mut root = toml::parse(text).map_err(|e| bad(format!("scenario: {e}")))?;
        for set in sets {
            apply_override(&mut root, set.as_ref())?;
        }
        Scenario::from_root(&root)
    }

    /// Reads and parses a scenario file. Unreadable files are data errors
    /// (exit 4); malformed contents are scenario errors (exit 2).
    pub fn load<S: AsRef<str>>(
        path: &std::path::Path,
        sets: &[S],
    ) -> Result<Scenario, PipelineError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            PipelineError::Data(format!("cannot read scenario '{}': {e}", path.display()))
        })?;
        Scenario::parse_with_overrides(&text, sets).map_err(|e| match e {
            PipelineError::Scenario(m) => bad(format!("{}: {m}", path.display())),
            other => other,
        })
    }

    fn from_root(root: &Table) -> Result<Scenario, PipelineError> {
        reject_unknown(
            "scenario",
            root,
            &[
                "name",
                "description",
                "threads",
                "check_invariants",
                "generator",
                "input",
                "measure",
                "attack",
                "report",
            ],
        )?;
        let source = match (section(root, "generator")?, section(root, "input")?) {
            (Some(generator), None) => parse_generator(generator)?,
            (None, Some(input)) => parse_input(input)?,
            (Some(_), Some(_)) => {
                return Err(bad("scenario has both [generator] and [input]; pick one"))
            }
            (None, None) => return Err(bad("scenario needs a [generator] or [input] section")),
        };
        let generator_seed = match &source {
            Source::Generator(g) => g.seed,
            Source::Input { .. } => DEFAULT_SEED,
        };
        let default_name = match &source {
            Source::Generator(g) => g.spec.name.to_string(),
            Source::Input { path } => path.clone(),
        };
        let threads = get_usize("scenario", root, "threads")?;
        if threads == Some(0) {
            return Err(bad("scenario threads: must be at least 1"));
        }
        let scenario = Scenario {
            name: get_str("scenario", root, "name")?.unwrap_or(default_name),
            description: get_str("scenario", root, "description")?.unwrap_or_default(),
            threads,
            check_invariants: get_bool("scenario", root, "check_invariants")?.unwrap_or(false),
            source,
            measure: match section(root, "measure")? {
                Some(t) => Some(parse_measure(t)?),
                None => None,
            },
            attack: match section(root, "attack")? {
                Some(t) => Some(parse_attack(t, generator_seed)?),
                None => None,
            },
            report: match section(root, "report")? {
                Some(t) => parse_report(t)?,
                None => ReportSpec::default(),
            },
        };
        if scenario.report.curves.is_some() && scenario.attack.is_none() {
            return Err(bad(
                "[report] curves: needs an [attack] section to produce curves",
            ));
        }
        Ok(scenario)
    }
}

/// Enforces the CLI's node-count bounds on a resolved parameter set.
pub fn check_n_range(params: &Params) -> Result<(), PipelineError> {
    if let Some(ParamValue::Int(v)) = params.get("n") {
        let ok = usize::try_from(*v).is_ok_and(|n| N_RANGE.contains(&n));
        if !ok {
            return Err(bad(format!(
                "parameter 'n' must be in {}..={} (got {v})",
                N_RANGE.start(),
                N_RANGE.end()
            )));
        }
    }
    Ok(())
}

fn parse_generator(table: &Table) -> Result<Source, PipelineError> {
    let model = get_str("[generator]", table, "model")?
        .ok_or_else(|| bad("[generator] needs a 'model' key"))?;
    let spec = lookup(&model).map_err(|e| bad(e.to_string()))?;
    let seed = get_usize("[generator]", table, "seed")?
        .map(|v| v as u64)
        .unwrap_or(DEFAULT_SEED);
    let mut overrides: BTreeMap<String, ParamValue> = BTreeMap::new();
    for (key, value) in table {
        if key == "model" || key == "seed" || key == "params" {
            continue;
        }
        overrides.insert(key.clone(), param_value("[generator]", key, value)?);
    }
    if let Some(TomlValue::Table(params)) = table.get("params") {
        for (key, value) in params {
            let v = param_value("[generator.params]", key, value)?;
            if overrides.insert(key.clone(), v).is_some() {
                return Err(bad(format!(
                    "parameter '{key}' set both inline and in [generator.params]"
                )));
            }
        }
    } else if let Some(other) = table.get("params") {
        return Err(bad(format!(
            "[generator] params: expected a table, got {}",
            other.type_name()
        )));
    }
    let params = spec.resolve(&overrides).map_err(|e| bad(e.to_string()))?;
    check_n_range(&params)?;
    Ok(Source::Generator(GeneratorSpec { spec, params, seed }))
}

fn param_value(ctx: &str, key: &str, value: &TomlValue) -> Result<ParamValue, PipelineError> {
    match value {
        TomlValue::Int(v) => Ok(ParamValue::Int(*v)),
        TomlValue::Float(v) => Ok(ParamValue::Float(*v)),
        TomlValue::Bool(v) => Ok(ParamValue::Bool(*v)),
        TomlValue::Str(v) => Ok(ParamValue::Str(v.clone())),
        other => Err(bad(format!(
            "{ctx} {key}: model parameters must be scalars, got {}",
            other.type_name()
        ))),
    }
}

fn parse_input(table: &Table) -> Result<Source, PipelineError> {
    reject_unknown("[input]", table, &["path"])?;
    let path =
        get_str("[input]", table, "path")?.ok_or_else(|| bad("[input] needs a 'path' key"))?;
    Ok(Source::Input { path })
}

fn parse_measure(table: &Table) -> Result<MeasureSpec, PipelineError> {
    reject_unknown(
        "[measure]",
        table,
        &[
            "metrics",
            "deadline_ms",
            "path_sources",
            "betweenness_sources",
        ],
    )?;
    let mut spec = MeasureSpec::default();
    if let Some(names) = get_str_array("[measure]", table, "metrics")? {
        spec.selection = KernelSelection::from_names(&names)
            .map_err(|e| bad(format!("[measure] metrics: {e}")))?;
    }
    spec.deadline_ms = get_usize("[measure]", table, "deadline_ms")?.map(|v| v as u64);
    if let Some(v) = get_usize("[measure]", table, "path_sources")? {
        if v == 0 {
            return Err(bad(
                "[measure] path_sources: must be at least 1; to skip path statistics, \
                 leave \"paths+betweenness\" out of metrics = [...]",
            ));
        }
        spec.path_sources = v;
    }
    if let Some(v) = get_usize("[measure]", table, "betweenness_sources")? {
        spec.betweenness_sources = v;
    }
    Ok(spec)
}

fn parse_attack(table: &Table, default_seed: u64) -> Result<AttackSpec, PipelineError> {
    reject_unknown(
        "[attack]",
        table,
        &[
            "strategies",
            "replicas",
            "record",
            "seed",
            "checkpoint",
            "bc_sources",
        ],
    )?;
    let mut spec = AttackSpec::with_seed(default_seed);
    if let Some(names) = get_str_array("[attack]", table, "strategies")? {
        if names.is_empty() {
            return Err(bad("[attack] strategies: must name at least one strategy"));
        }
        spec.strategies = names
            .iter()
            .map(|s| Strategy::parse(s))
            .collect::<Result<_, _>>()
            .map_err(|e| bad(format!("[attack] strategies: {e}")))?;
    }
    if let Some(v) = get_usize("[attack]", table, "replicas")? {
        if !REPLICA_RANGE.contains(&v) {
            return Err(bad(format!(
                "[attack] replicas: must be in {}..={} (got {v})",
                REPLICA_RANGE.start(),
                REPLICA_RANGE.end()
            )));
        }
        spec.replicas = v;
    }
    if let Some(v) = get_usize("[attack]", table, "record")? {
        spec.record_every = v;
    }
    if let Some(v) = get_usize("[attack]", table, "seed")? {
        spec.seed = v as u64;
    }
    spec.checkpoint = get_str("[attack]", table, "checkpoint")?.map(PathBuf::from);
    if let Some(v) = get_usize("[attack]", table, "bc_sources")? {
        if v == 0 {
            return Err(bad("[attack] bc_sources: must be at least 1"));
        }
        spec.bc_sources = v;
    }
    Ok(spec)
}

fn parse_report(table: &Table) -> Result<ReportSpec, PipelineError> {
    reject_unknown("[report]", table, &["edge_list", "curves", "summary"])?;
    Ok(ReportSpec {
        edge_list: get_str("[report]", table, "edge_list")?,
        curves: get_str("[report]", table, "curves")?.map(PathBuf::from),
        summary: get_str("[report]", table, "summary")?.map(PathBuf::from),
    })
}

/// Applies one `key=value` override to the parsed document. Bare keys
/// target `[generator]`; dotted keys target an existing section.
fn apply_override(root: &mut Table, set: &str) -> Result<(), PipelineError> {
    let (key, value) = set
        .split_once('=')
        .ok_or_else(|| bad(format!("--set '{set}': expected key=value")))?;
    let key = key.trim();
    let value = value.trim();
    if key.is_empty() || value.is_empty() {
        return Err(bad(format!("--set '{set}': expected key=value")));
    }
    let mut path =
        toml::split_key(key, 0).map_err(|e| bad(format!("--set '{set}': {}", e.message)))?;
    if path.len() == 1 {
        path.insert(0, "generator".to_string());
    }
    let parsed =
        toml::parse_value(value, 0).map_err(|e| bad(format!("--set '{set}': {}", e.message)))?;
    // Walk to the parent table without creating anything: an override can
    // tune an existing section but never conjure a new stage into the run.
    let (last, parents) = path.split_last().expect("split_key never returns empty");
    let mut node = &mut *root;
    for seg in parents {
        node = match node.get_mut(seg) {
            Some(TomlValue::Table(t)) => t,
            Some(other) => {
                return Err(bad(format!(
                    "--set '{set}': '{seg}' is a {}, not a table",
                    other.type_name()
                )))
            }
            None => {
                return Err(bad(format!(
                    "--set '{set}': scenario has no [{seg}] section to override"
                )))
            }
        };
    }
    node.insert(last.clone(), parsed);
    Ok(())
}

fn section<'a>(root: &'a Table, key: &str) -> Result<Option<&'a Table>, PipelineError> {
    match root.get(key) {
        None => Ok(None),
        Some(TomlValue::Table(t)) => Ok(Some(t)),
        Some(other) => Err(bad(format!(
            "scenario {key}: expected a [{key}] table, got {}",
            other.type_name()
        ))),
    }
}

fn reject_unknown(ctx: &str, table: &Table, allowed: &[&str]) -> Result<(), PipelineError> {
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(bad(format!(
                "{ctx} has unknown key '{key}' (keys: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn get_str(ctx: &str, table: &Table, key: &str) -> Result<Option<String>, PipelineError> {
    match table.get(key) {
        None => Ok(None),
        Some(TomlValue::Str(v)) => Ok(Some(v.clone())),
        Some(other) => Err(bad(format!(
            "{ctx} {key}: expected string, got {}",
            other.type_name()
        ))),
    }
}

fn get_bool(ctx: &str, table: &Table, key: &str) -> Result<Option<bool>, PipelineError> {
    match table.get(key) {
        None => Ok(None),
        Some(TomlValue::Bool(v)) => Ok(Some(*v)),
        Some(other) => Err(bad(format!(
            "{ctx} {key}: expected boolean, got {}",
            other.type_name()
        ))),
    }
}

fn get_usize(ctx: &str, table: &Table, key: &str) -> Result<Option<usize>, PipelineError> {
    match table.get(key) {
        None => Ok(None),
        Some(TomlValue::Int(v)) => usize::try_from(*v)
            .map(Some)
            .map_err(|_| bad(format!("{ctx} {key}: must be non-negative (got {v})"))),
        Some(other) => Err(bad(format!(
            "{ctx} {key}: expected integer, got {}",
            other.type_name()
        ))),
    }
}

fn get_str_array(
    ctx: &str,
    table: &Table,
    key: &str,
) -> Result<Option<Vec<String>>, PipelineError> {
    match table.get(key) {
        None => Ok(None),
        Some(TomlValue::Array(items)) => items
            .iter()
            .map(|item| match item {
                TomlValue::Str(v) => Ok(v.clone()),
                other => Err(bad(format!(
                    "{ctx} {key}: expected an array of strings, got a {} element",
                    other.type_name()
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(other) => Err(bad(format!(
            "{ctx} {key}: expected array, got {}",
            other.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scenario_parses_with_every_section() {
        let scenario = Scenario::parse(
            r#"
            name = "demo"
            description = "all sections"
            threads = 3
            check_invariants = true
            [generator]
            model = "glp"
            seed = 9
            n = 400
            [generator.params]
            p = 0.5
            [measure]
            metrics = ["degree", "giant"]
            deadline_ms = 1000
            path_sources = 50
            betweenness_sources = 10
            [attack]
            strategies = ["random", "degree-recalc"]
            replicas = 2
            record = 7
            bc_sources = 16
            checkpoint = "sweep.ckpt"
            [report]
            edge_list = "-"
            curves = "out/curves"
            summary = "out/summary.txt"
            "#,
        )
        .unwrap();
        assert_eq!(scenario.name, "demo");
        assert_eq!(scenario.threads, Some(3));
        assert!(scenario.check_invariants);
        let g = match &scenario.source {
            Source::Generator(g) => g,
            other => panic!("wrong source {other:?}"),
        };
        assert_eq!(g.spec.name, "glp");
        assert_eq!(g.seed, 9);
        assert_eq!(g.params.get("n"), Some(&ParamValue::Int(400)));
        assert_eq!(g.params.get("p"), Some(&ParamValue::Float(0.5)));
        let measure = scenario.measure.unwrap();
        assert_eq!(measure.deadline_ms, Some(1000));
        assert_eq!(measure.path_sources, 50);
        assert!(measure.selection.is_selected(0));
        let attack = scenario.attack.as_ref().unwrap();
        assert_eq!(
            attack.strategies,
            vec![Strategy::Random, Strategy::Degree { recalc: true }]
        );
        assert_eq!(attack.replicas, 2);
        assert_eq!(attack.record_every, 7);
        assert_eq!(attack.seed, 9, "attack seed inherits the generator seed");
        assert_eq!(
            attack.checkpoint.as_deref(),
            Some(std::path::Path::new("sweep.ckpt"))
        );
        assert_eq!(scenario.report.edge_list.as_deref(), Some("-"));
    }

    #[test]
    fn minimal_scenario_gets_defaults() {
        let scenario = Scenario::parse("[generator]\nmodel = \"ba\"").unwrap();
        assert_eq!(scenario.name, "ba");
        assert_eq!(scenario.threads, None);
        assert!(!scenario.check_invariants);
        assert!(scenario.measure.is_none());
        assert!(scenario.attack.is_none());
        let g = match &scenario.source {
            Source::Generator(g) => g,
            other => panic!("wrong source {other:?}"),
        };
        assert_eq!(g.seed, DEFAULT_SEED);
        assert_eq!(g.params.get("n"), Some(&ParamValue::Int(1000)));
    }

    #[test]
    fn empty_attack_section_enables_the_stage_with_defaults() {
        let scenario = Scenario::parse("[generator]\nmodel = \"ba\"\n[attack]").unwrap();
        let attack = scenario.attack.unwrap();
        assert_eq!(
            attack.strategies,
            vec![Strategy::Random, Strategy::Degree { recalc: false }]
        );
        assert_eq!(attack.replicas, 4);
        assert_eq!(attack.record_every, 0);
        assert_eq!(attack.seed, DEFAULT_SEED);
        assert_eq!(attack.bc_sources, 64);
    }

    #[test]
    fn input_source_parses() {
        let scenario = Scenario::parse("[input]\npath = \"-\"\n[measure]").unwrap();
        match &scenario.source {
            Source::Input { path } => assert_eq!(path, "-"),
            other => panic!("wrong source {other:?}"),
        }
        assert_eq!(scenario.name, "-");
    }

    #[test]
    fn source_must_be_exactly_one_of_generator_or_input() {
        let both = "[generator]\nmodel = \"ba\"\n[input]\npath = \"x\"";
        assert!(Scenario::parse(both)
            .unwrap_err()
            .message()
            .contains("pick one"));
        let neither = "name = \"x\"";
        assert!(Scenario::parse(neither)
            .unwrap_err()
            .message()
            .contains("needs a [generator] or [input]"));
    }

    #[test]
    fn unknown_model_suggests_a_neighbor_and_exits_2() {
        let e = Scenario::parse("[generator]\nmodel = \"serano\"").unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.message().contains("did you mean 'serrano'"), "{e}");
    }

    #[test]
    fn unknown_keys_are_rejected_everywhere() {
        for (doc, needle) in [
            ("zzz = 1\n[generator]\nmodel = \"ba\"", "unknown key 'zzz'"),
            ("[generator]\nmodel = \"ba\"\nwhat = 1", "unknown parameter"),
            ("[input]\npath = \"x\"\nzzz = 1", "[input] has unknown key"),
            (
                "[generator]\nmodel = \"ba\"\n[measure]\nzzz = 1",
                "[measure] has unknown key",
            ),
            (
                "[generator]\nmodel = \"ba\"\n[attack]\nzzz = 1",
                "[attack] has unknown key",
            ),
            (
                "[generator]\nmodel = \"ba\"\n[report]\nzzz = 1",
                "[report] has unknown key",
            ),
        ] {
            let e = Scenario::parse(doc).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{doc}");
            assert!(e.message().contains(needle), "{doc}: {e}");
        }
    }

    #[test]
    fn bad_values_are_scenario_errors() {
        for (doc, needle) in [
            ("[generator]\nmodel = \"ba\"\nm = \"lots\"", "wants integer"),
            (
                "[generator]\nmodel = \"ba\"\n[measure]\nmetrics = [\"nope\"]",
                "unknown metric kernel",
            ),
            (
                "[generator]\nmodel = \"ba\"\n[attack]\nstrategies = [\"voodoo\"]",
                "voodoo",
            ),
            (
                "[generator]\nmodel = \"ba\"\n[attack]\nstrategies = []",
                "at least one strategy",
            ),
            (
                "[generator]\nmodel = \"ba\"\n[attack]\nreplicas = 0",
                "replicas",
            ),
            ("[generator]\nmodel = \"ba\"\nn = 4", "parameter 'n'"),
            ("[generator]\nmodel = \"ba\"\nn = 9999999", "parameter 'n'"),
            ("threads = 0\n[generator]\nmodel = \"ba\"", "threads"),
            (
                "[generator]\nmodel = \"ba\"\nseed = -1",
                "must be non-negative",
            ),
            (
                "[generator]\nmodel = \"ba\"\nm = 2\n[generator.params]\nm = 3",
                "both inline",
            ),
        ] {
            let e = Scenario::parse(doc).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{doc}");
            assert!(e.message().contains(needle), "{doc}: {e}");
        }
    }

    #[test]
    fn zero_path_sources_is_refused_and_zero_betweenness_sources_skips() {
        let doc = "[generator]\nmodel = \"pfp\"\n[measure]\npath_sources = 400";
        let e = Scenario::parse_with_overrides(doc, &["measure.path_sources=0"]).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let message = e.message();
        assert!(message.contains("[measure] path_sources"), "{message}");
        assert!(message.contains("metrics = ["), "{message}");
        assert_eq!(message.lines().count(), 1, "{message}");
        let scenario =
            Scenario::parse_with_overrides(doc, &["measure.betweenness_sources=0"]).unwrap();
        assert_eq!(scenario.measure.unwrap().betweenness_sources, 0);
    }

    #[test]
    fn overrides_tune_generator_and_sections() {
        let doc = "[generator]\nmodel = \"glp\"\nn = 4000\n[attack]\nreplicas = 4";
        let scenario =
            Scenario::parse_with_overrides(doc, &["n=200", "attack.replicas=2", "seed=7"]).unwrap();
        let g = match &scenario.source {
            Source::Generator(g) => g,
            other => panic!("wrong source {other:?}"),
        };
        assert_eq!(g.params.get("n"), Some(&ParamValue::Int(200)));
        assert_eq!(g.seed, 7);
        assert_eq!(scenario.attack.unwrap().replicas, 2);
    }

    #[test]
    fn overrides_cannot_conjure_new_sections() {
        let doc = "[generator]\nmodel = \"ba\"";
        let e = Scenario::parse_with_overrides(doc, &["attack.replicas=2"]).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.message().contains("no [attack] section"), "{e}");
    }

    #[test]
    fn malformed_overrides_are_rejected() {
        let doc = "[generator]\nmodel = \"ba\"";
        for set in ["n", "n=", "=5", "n=zebra", "bad key=1"] {
            let e = Scenario::parse_with_overrides(doc, &[set]).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{set}");
            assert!(e.message().contains("--set"), "{set}: {e}");
        }
    }

    #[test]
    fn override_of_unknown_parameter_fails_validation() {
        let doc = "[generator]\nmodel = \"ba\"";
        let e = Scenario::parse_with_overrides(doc, &["zeta=3"]).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.message().contains("unknown parameter"), "{e}");
    }

    #[test]
    fn from_generator_matches_the_toml_path() {
        let mut overrides = BTreeMap::new();
        overrides.insert("n".to_string(), ParamValue::Int(256));
        let built = Scenario::from_generator("pfp", &overrides, 5).unwrap();
        let parsed = Scenario::parse("[generator]\nmodel = \"pfp\"\nseed = 5\nn = 256").unwrap();
        match (&built.source, &parsed.source) {
            (Source::Generator(a), Source::Generator(b)) => {
                assert_eq!(a.spec.name, b.spec.name);
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.params, b.params);
            }
            other => panic!("wrong sources {other:?}"),
        }
        assert_eq!(
            Scenario::from_generator("nope", &BTreeMap::new(), 1)
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn curves_sink_requires_an_attack_stage() {
        let doc = "[generator]\nmodel = \"ba\"\n[report]\ncurves = \"out\"";
        let e = Scenario::parse(doc).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.message().contains("[attack]"), "{e}");
    }

    #[test]
    fn params_round_trip_exhaustively_over_the_registry() {
        // Render every model's full schema back to TOML via ParamValue's
        // Display, reparse it as a scenario, and demand the resolved set is
        // identical to resolving the defaults directly — the serialization
        // the docs and `list-models` print is the serialization the parser
        // accepts, for every parameter of every model.
        for spec in inet_generators::registry() {
            let mut doc = format!("[generator]\nmodel = \"{}\"\n", spec.name);
            for p in &spec.schema {
                doc.push_str(&format!("{} = {}\n", p.key, p.default));
            }
            let scenario = Scenario::parse(&doc).unwrap_or_else(|e| {
                panic!(
                    "{}: rendered schema does not reparse: {e}\n{doc}",
                    spec.name
                )
            });
            let g = match &scenario.source {
                Source::Generator(g) => g,
                other => panic!("wrong source {other:?}"),
            };
            let defaults = spec.resolve(&BTreeMap::new()).unwrap();
            assert_eq!(g.params, defaults, "{}", spec.name);
            if let Err(e) = (spec.build)(&g.params) {
                panic!("{}: default params rejected by builder: {e}", spec.name);
            }
        }
    }

    #[test]
    fn load_missing_file_is_a_data_error() {
        let e =
            Scenario::load::<&str>(std::path::Path::new("/nonexistent/s.toml"), &[]).unwrap_err();
        assert_eq!(e.exit_code(), 4);
    }
}

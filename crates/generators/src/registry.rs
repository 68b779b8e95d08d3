//! Central model registry: every CLI-addressable generator family, with a
//! typed parameter schema, defaults, validation, and a builder.
//!
//! The registry is the **single point of model dispatch** for the whole
//! workspace: the CLI's `generate`, the attack sweep's model sources, and
//! the scenario pipeline all resolve model names here, so adding a
//! generator means adding one [`ModelSpec`] — no per-model match arms
//! anywhere else.
//!
//! Each entry carries:
//!
//! * a stable `name` (what users type: `"serrano"`, `"ba"`, `"glp"`, …),
//! * a one-line `summary` for `--help` / `list-models`,
//! * a typed parameter `schema` ([`ParamSpec`]: key, doc, default) —
//!   defaults reproduce the historical CLI parameterizations exactly,
//! * a `build` function turning resolved parameters into a
//!   `Box<dyn Generator>`, going through the model's `try_new` so bad
//!   values surface as a typed [`ModelError`], never a panic.
//!
//! ```
//! use inet_generators::registry;
//! let spec = registry::lookup("glp").unwrap();
//! let params = spec.resolve(&Default::default()).unwrap();
//! let generator = (spec.build)(&params).unwrap();
//! assert!(generator.validate().is_ok());
//! ```

use crate::{Generator, ModelError};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A typed parameter value: the scalar types a model schema can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// An integer (counts, seeds, depths).
    Int(i64),
    /// A floating-point rate, probability, or exponent.
    Float(f64),
    /// A boolean switch.
    Bool(bool),
    /// An enumerated choice, matched case-sensitively by the builder.
    Str(String),
}

impl ParamValue {
    /// The type name used in schema listings and mismatch errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "integer",
            ParamValue::Float(_) => "float",
            ParamValue::Bool(_) => "boolean",
            ParamValue::Str(_) => "string",
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => {
                // Keep a decimal point so the rendered value parses back as
                // a float, not an integer (round-trip stability).
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "\"{v}\""),
        }
    }
}

/// One schema entry: a parameter's key, documentation, and default.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter key, as written in scenario files and `--set` overrides.
    pub key: &'static str,
    /// One-line description for `list-models`.
    pub doc: &'static str,
    /// Default value; its variant fixes the parameter's type.
    pub default: ParamValue,
}

/// Shorthand constructors used by the per-model schema functions.
pub(crate) fn p_int(key: &'static str, doc: &'static str, v: i64) -> ParamSpec {
    ParamSpec {
        key,
        doc,
        default: ParamValue::Int(v),
    }
}

pub(crate) fn p_float(key: &'static str, doc: &'static str, v: f64) -> ParamSpec {
    ParamSpec {
        key,
        doc,
        default: ParamValue::Float(v),
    }
}

pub(crate) fn p_bool(key: &'static str, doc: &'static str, v: bool) -> ParamSpec {
    ParamSpec {
        key,
        doc,
        default: ParamValue::Bool(v),
    }
}

pub(crate) fn p_str(key: &'static str, doc: &'static str, v: &str) -> ParamSpec {
    ParamSpec {
        key,
        doc,
        default: ParamValue::Str(v.to_string()),
    }
}

/// The shared "target node count" parameter every model exposes.
pub(crate) fn p_n() -> ParamSpec {
    p_int("n", "target node count", 1000)
}

/// A fully resolved parameter set: every schema key present, types
/// checked. Produced by [`ModelSpec::resolve`]; consumed by builders via
/// the typed getters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Params {
    values: BTreeMap<&'static str, ParamValue>,
    model: &'static str,
}

impl Params {
    fn missing(&self, key: &str) -> ModelError {
        ModelError::Internal {
            model: self.model.to_string(),
            message: format!("registry schema is missing parameter '{key}'"),
        }
    }

    /// The resolved value of `key`, exactly as typed.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.values.get(key)
    }

    /// Iterates `(key, value)` pairs in schema (alphabetical) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &ParamValue)> {
        self.values.iter().map(|(k, v)| (*k, v))
    }

    /// A non-negative integer parameter.
    pub fn usize(&self, key: &str) -> Result<usize, ModelError> {
        match self.values.get(key) {
            Some(ParamValue::Int(v)) if *v >= 0 => Ok(*v as usize),
            Some(ParamValue::Int(v)) => Err(ModelError::Internal {
                model: self.model.to_string(),
                message: format!("parameter '{key}' must be non-negative (got {v})"),
            }),
            _ => Err(self.missing(key)),
        }
    }

    /// An unsigned 64-bit integer parameter.
    pub fn u64(&self, key: &str) -> Result<u64, ModelError> {
        self.usize(key).map(|v| v as u64)
    }

    /// An unsigned 32-bit integer parameter.
    pub fn u32(&self, key: &str) -> Result<u32, ModelError> {
        self.usize(key).map(|v| v as u32)
    }

    /// A float parameter (integers coerce).
    pub fn f64(&self, key: &str) -> Result<f64, ModelError> {
        match self.values.get(key) {
            Some(ParamValue::Float(v)) => Ok(*v),
            Some(ParamValue::Int(v)) => Ok(*v as f64),
            _ => Err(self.missing(key)),
        }
    }

    /// A boolean parameter.
    pub fn bool(&self, key: &str) -> Result<bool, ModelError> {
        match self.values.get(key) {
            Some(ParamValue::Bool(v)) => Ok(*v),
            _ => Err(self.missing(key)),
        }
    }

    /// A string parameter.
    pub fn str(&self, key: &str) -> Result<&str, ModelError> {
        match self.values.get(key) {
            Some(ParamValue::Str(v)) => Ok(v.as_str()),
            _ => Err(self.missing(key)),
        }
    }
}

/// A registered model: the unit of the registry.
pub struct ModelSpec {
    /// The name users type (CLI model argument, scenario `model` key).
    pub name: &'static str,
    /// One-line description for `--help` and `list-models`.
    pub summary: &'static str,
    /// Typed parameter schema with defaults.
    pub schema: Vec<ParamSpec>,
    /// Builds the generator from resolved parameters. Invalid values come
    /// back as a typed [`ModelError`] via the model's `try_new`.
    pub build: fn(&Params) -> Result<Box<dyn Generator>, ModelError>,
}

impl fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelSpec")
            .field("name", &self.name)
            .field("schema", &self.schema)
            .finish()
    }
}

impl ModelSpec {
    /// Merges `overrides` over the schema defaults, rejecting unknown keys
    /// and type mismatches. The result has every schema key present.
    pub fn resolve(&self, overrides: &BTreeMap<String, ParamValue>) -> Result<Params, ModelError> {
        let mut values: BTreeMap<&'static str, ParamValue> = BTreeMap::new();
        for spec in &self.schema {
            values.insert(spec.key, spec.default.clone());
        }
        for (key, value) in overrides {
            let Some(spec) = self.schema.iter().find(|s| s.key == key.as_str()) else {
                let known: Vec<&str> = self.schema.iter().map(|s| s.key).collect();
                return Err(ModelError::Internal {
                    model: self.name.to_string(),
                    message: format!(
                        "unknown parameter '{key}' (parameters: {})",
                        known.join(" ")
                    ),
                });
            };
            let coerced = match (&spec.default, value) {
                (ParamValue::Int(_), ParamValue::Int(v)) => ParamValue::Int(*v),
                (ParamValue::Float(_), ParamValue::Float(v)) => ParamValue::Float(*v),
                (ParamValue::Float(_), ParamValue::Int(v)) => ParamValue::Float(*v as f64),
                (ParamValue::Bool(_), ParamValue::Bool(v)) => ParamValue::Bool(*v),
                (ParamValue::Str(_), ParamValue::Str(v)) => ParamValue::Str(v.clone()),
                (want, got) => {
                    return Err(ModelError::Internal {
                        model: self.name.to_string(),
                        message: format!(
                            "parameter '{key}' wants {}, got {} ({got})",
                            want.type_name(),
                            got.type_name()
                        ),
                    })
                }
            };
            values.insert(spec.key, coerced);
        }
        Ok(Params {
            values,
            model: self.name,
        })
    }
}

/// The full registry, in display order: the historical CLI model list.
pub fn registry() -> &'static [ModelSpec] {
    static REGISTRY: OnceLock<Vec<ModelSpec>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        vec![
            crate::serrano::registry_entry(),
            crate::serrano::registry_entry_nodist(),
            crate::barabasi_albert::registry_entry(),
            crate::albert_barabasi::registry_entry(),
            crate::bianconi::registry_entry(),
            crate::glp::registry_entry(),
            crate::pfp::registry_entry(),
            crate::inet::registry_entry(),
            crate::waxman::registry_entry(),
            crate::erdos_renyi::registry_entry(),
            crate::fkp::registry_entry(),
            crate::brite::registry_entry(),
            crate::goh::registry_entry(),
            crate::watts_strogatz::registry_entry(),
            crate::geometric::registry_entry(),
        ]
    })
}

/// Every registered model name, in display order.
pub fn model_names() -> Vec<&'static str> {
    registry().iter().map(|m| m.name).collect()
}

/// Failed [`lookup`]: the name is not registered. Carries the
/// closest-by-edit-distance registered name when one is plausible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModel {
    /// What the user typed.
    pub name: String,
    /// The nearest registered name (edit distance ≤ 3), if any.
    pub suggestion: Option<&'static str>,
}

impl fmt::Display for UnknownModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown model '{}'", self.name)?;
        if let Some(s) = self.suggestion {
            write!(f, ", did you mean '{s}'?")?;
        }
        write!(f, " (models: {})", model_names().join(" "))
    }
}

impl std::error::Error for UnknownModel {}

/// Resolves a model name against the registry; the error carries a
/// did-you-mean suggestion so every dispatch site reports typos the same
/// way.
pub fn lookup(name: &str) -> Result<&'static ModelSpec, UnknownModel> {
    if let Some(spec) = registry().iter().find(|m| m.name == name) {
        return Ok(spec);
    }
    let suggestion = registry()
        .iter()
        .map(|m| (edit_distance(name, m.name), m.name))
        .min()
        .filter(|(d, _)| *d <= 3)
        .map(|(_, n)| n);
    Err(UnknownModel {
        name: name.to_string(),
        suggestion,
    })
}

/// Plain Levenshtein distance (small strings; O(a·b) is fine).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_stats::rng::seeded_rng;

    #[test]
    fn registry_has_fifteen_unique_models() {
        let names = model_names();
        assert_eq!(names.len(), 15, "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate names: {names:?}");
    }

    #[test]
    fn every_model_builds_and_generates_from_defaults() {
        for spec in registry() {
            let params = spec
                .resolve(&BTreeMap::from([("n".to_string(), ParamValue::Int(100))]))
                .unwrap();
            let generator = (spec.build)(&params)
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name));
            generator
                .validate()
                .unwrap_or_else(|e| panic!("{}: invalid defaults: {e}", spec.name));
            let mut rng = seeded_rng(7);
            let net = generator.try_generate(&mut rng).unwrap();
            assert!(net.graph.node_count() >= 50, "{}", spec.name);
            assert!(!spec.summary.is_empty());
        }
    }

    #[test]
    fn every_schema_includes_n_with_documented_defaults() {
        for spec in registry() {
            let n = spec.schema.iter().find(|p| p.key == "n");
            assert!(n.is_some(), "{} lacks the shared n parameter", spec.name);
            for p in &spec.schema {
                assert!(!p.doc.is_empty(), "{}.{} undocumented", spec.name, p.key);
            }
        }
    }

    #[test]
    fn lookup_suggests_nearest_name() {
        assert_eq!(lookup("glp").unwrap().name, "glp");
        let err = lookup("serano").unwrap_err();
        assert_eq!(err.suggestion, Some("serrano"));
        let text = err.to_string();
        assert!(text.contains("unknown model 'serano'"), "{text}");
        assert!(text.contains("did you mean 'serrano'?"), "{text}");
        assert!(text.contains("glp"), "must list models: {text}");
        // Nothing close: no suggestion, but the list still prints.
        let err = lookup("zzzzzzzzzz").unwrap_err();
        assert_eq!(err.suggestion, None);
    }

    #[test]
    fn resolve_rejects_unknown_keys_and_type_mismatches() {
        let spec = lookup("ba").unwrap();
        let mut overrides = BTreeMap::new();
        overrides.insert("bogus".to_string(), ParamValue::Int(1));
        let err = spec.resolve(&overrides).unwrap_err();
        assert!(err.to_string().contains("unknown parameter 'bogus'"));
        let mut overrides = BTreeMap::new();
        overrides.insert("m".to_string(), ParamValue::Str("two".into()));
        let err = spec.resolve(&overrides).unwrap_err();
        assert!(err.to_string().contains("wants integer"), "{err}");
        // Int → Float coercion is allowed.
        let spec = lookup("er").unwrap();
        let mut overrides = BTreeMap::new();
        overrides.insert("mean_degree".to_string(), ParamValue::Int(4));
        let params = spec.resolve(&overrides).unwrap();
        assert_eq!(params.f64("mean_degree").unwrap(), 4.0);
    }

    #[test]
    fn bad_parameter_values_surface_as_model_errors() {
        let spec = lookup("ba").unwrap();
        let mut overrides = BTreeMap::new();
        overrides.insert("n".to_string(), ParamValue::Int(2));
        overrides.insert("m".to_string(), ParamValue::Int(5));
        let params = spec.resolve(&overrides).unwrap();
        let err = match (spec.build)(&params) {
            Ok(_) => panic!("m > n must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, ModelError::InvalidParam { .. }), "{err}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("waxmann", "waxman"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn registry_defaults_match_legacy_cli_parameterizations() {
        // The historical `build_generator` hard-coded these; the registry
        // must reproduce them bit-for-bit so old invocations stay stable.
        let mut rng_a = seeded_rng(42);
        let legacy = crate::Glp::internet_2001(300).generate(&mut rng_a);
        let spec = lookup("glp").unwrap();
        let params = spec
            .resolve(&BTreeMap::from([("n".to_string(), ParamValue::Int(300))]))
            .unwrap();
        let mut rng_b = seeded_rng(42);
        let from_registry = (spec.build)(&params).unwrap().generate(&mut rng_b);
        assert_eq!(legacy.graph, from_registry.graph);
    }
}

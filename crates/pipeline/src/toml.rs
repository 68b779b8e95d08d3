//! A small, dependency-free parser for the TOML subset scenarios use.
//!
//! Supported: `[table]` / `[table.sub]` headers, `key = value` pairs
//! (dotted keys nest), integers, floats, booleans, double-quoted strings,
//! and flat arrays of those scalars. Comments (`#`) and blank lines are
//! skipped. Everything else — multi-line values, inline tables, array
//! tables, date-times — is rejected with a line-numbered error, which is
//! all a scenario file ever needs.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A boolean literal.
    Bool(bool),
    /// A double-quoted string.
    Str(String),
    /// A flat array of scalars.
    Array(Vec<TomlValue>),
    /// A nested table.
    Table(BTreeMap<String, TomlValue>),
}

impl TomlValue {
    /// Human-readable name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Str(_) => "string",
            TomlValue::Array(_) => "array",
            TomlValue::Table(_) => "table",
        }
    }
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// Line the problem was found on (0 when not line-specific).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Parses a scenario document into its root table.
pub fn parse(text: &str) -> Result<BTreeMap<String, TomlValue>, TomlError> {
    let mut root: BTreeMap<String, TomlValue> = BTreeMap::new();
    let mut current: Vec<String> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unclosed table header"))?;
            if header.starts_with('[') {
                return Err(err(lineno, "array-of-tables is not supported"));
            }
            current = split_key(header, lineno)?;
            // Materialize the table so `[attack]` with no keys still exists.
            ensure_table(&mut root, &current, lineno)?;
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| err(lineno, format!("expected 'key = value', got '{line}'")))?;
        let key_part = line[..eq].trim();
        let value_part = line[eq + 1..].trim();
        if key_part.is_empty() {
            return Err(err(lineno, "missing key before '='"));
        }
        if value_part.is_empty() {
            return Err(err(lineno, format!("missing value for key '{key_part}'")));
        }
        let mut path = current.clone();
        path.extend(split_key(key_part, lineno)?);
        let value = parse_value(value_part, lineno)?;
        insert(&mut root, &path, value, lineno)?;
    }
    Ok(root)
}

/// Removes a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..idx],
            _ => {}
        }
    }
    line
}

/// Splits a (possibly dotted) key into path segments.
pub(crate) fn split_key(key: &str, line: usize) -> Result<Vec<String>, TomlError> {
    let mut out = Vec::new();
    for part in key.split('.') {
        let part = part.trim();
        if part.is_empty() {
            return Err(err(line, format!("empty segment in key '{key}'")));
        }
        if !part
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(err(
                line,
                format!("key '{part}' has characters outside [A-Za-z0-9_-]"),
            ));
        }
        out.push(part.to_string());
    }
    Ok(out)
}

/// Walks/creates the table at `path`, erroring when a segment is occupied
/// by a non-table value.
fn ensure_table<'a>(
    root: &'a mut BTreeMap<String, TomlValue>,
    path: &[String],
    line: usize,
) -> Result<&'a mut BTreeMap<String, TomlValue>, TomlError> {
    let mut node = root;
    for seg in path {
        let entry = node
            .entry(seg.clone())
            .or_insert_with(|| TomlValue::Table(BTreeMap::new()));
        node = match entry {
            TomlValue::Table(t) => t,
            other => {
                return Err(err(
                    line,
                    format!("'{seg}' is a {}, not a table", other.type_name()),
                ))
            }
        };
    }
    Ok(node)
}

/// Inserts `value` at the dotted `path`, rejecting duplicates.
fn insert(
    root: &mut BTreeMap<String, TomlValue>,
    path: &[String],
    value: TomlValue,
    line: usize,
) -> Result<(), TomlError> {
    let (last, parents) = path.split_last().expect("split_key never returns empty");
    let table = ensure_table(root, parents, line)?;
    if table.contains_key(last) {
        return Err(err(line, format!("duplicate key '{last}'")));
    }
    table.insert(last.clone(), value);
    Ok(())
}

/// Parses one scalar or array literal (also used for `--set` overrides,
/// which share TOML's value grammar).
pub(crate) fn parse_value(text: &str, line: usize) -> Result<TomlValue, TomlError> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .filter(|s| !s.contains('"'))
            .ok_or_else(|| err(line, format!("malformed string {text}")))?;
        return Ok(TomlValue::Str(inner.to_string()));
    }
    if let Some(body) = text.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| err(line, "unclosed array (arrays must be single-line)"))?;
        let mut items = Vec::new();
        for piece in split_array(body, line)? {
            let item = parse_value(&piece, line)?;
            if matches!(item, TomlValue::Array(_)) {
                return Err(err(line, "nested arrays are not supported"));
            }
            items.push(item);
        }
        return Ok(TomlValue::Array(items));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let numeric = text.replace('_', "");
    if let Ok(v) = numeric.parse::<i64>() {
        return Ok(TomlValue::Int(v));
    }
    if let Ok(v) = numeric.parse::<f64>() {
        if v.is_finite() {
            return Ok(TomlValue::Float(v));
        }
    }
    Err(err(line, format!("cannot parse value '{text}'")))
}

/// Splits an array body on top-level commas, respecting quoted strings.
fn split_array(body: &str, line: usize) -> Result<Vec<String>, TomlError> {
    let mut pieces = Vec::new();
    let mut depth_string = false;
    let mut start = 0usize;
    for (idx, c) in body.char_indices() {
        match c {
            '"' => depth_string = !depth_string,
            ',' if !depth_string => {
                pieces.push(body[start..idx].trim().to_string());
                start = idx + 1;
            }
            _ => {}
        }
    }
    if depth_string {
        return Err(err(line, "unterminated string inside array"));
    }
    let tail = body[start..].trim().to_string();
    if !tail.is_empty() {
        pieces.push(tail);
    }
    // Drop empty pieces only when they come from a trailing comma; interior
    // empties (",,") are malformed.
    if pieces.iter().any(String::is_empty) {
        return Err(err(line, "empty element in array"));
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(v: &TomlValue) -> &BTreeMap<String, TomlValue> {
        match v {
            TomlValue::Table(t) => t,
            other => panic!("not a table: {other:?}"),
        }
    }

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
            name = "demo"          # trailing comment
            threads = 4
            ratio = 0.25
            flag = true
            [generator]
            model = "glp"
            n = 1_000
            [generator.params]
            p = 0.4695
            [attack]
            strategies = ["random", "degree-recalc"]
            sizes = [1, 2, 3]
        "#;
        let root = parse(doc).unwrap();
        assert_eq!(root["name"], TomlValue::Str("demo".into()));
        assert_eq!(root["threads"], TomlValue::Int(4));
        assert_eq!(root["ratio"], TomlValue::Float(0.25));
        assert_eq!(root["flag"], TomlValue::Bool(true));
        let generator = table(&root["generator"]);
        assert_eq!(generator["model"], TomlValue::Str("glp".into()));
        assert_eq!(generator["n"], TomlValue::Int(1000));
        let params = table(&generator["params"]);
        assert_eq!(params["p"], TomlValue::Float(0.4695));
        let attack = table(&root["attack"]);
        assert_eq!(
            attack["strategies"],
            TomlValue::Array(vec![
                TomlValue::Str("random".into()),
                TomlValue::Str("degree-recalc".into()),
            ])
        );
        assert_eq!(
            attack["sizes"],
            TomlValue::Array(vec![
                TomlValue::Int(1),
                TomlValue::Int(2),
                TomlValue::Int(3)
            ])
        );
    }

    #[test]
    fn dotted_keys_nest() {
        let root = parse("a.b.c = 1").unwrap();
        let a = table(&root["a"]);
        let b = table(&a["b"]);
        assert_eq!(b["c"], TomlValue::Int(1));
    }

    #[test]
    fn empty_section_still_exists() {
        let root = parse("[attack]").unwrap();
        assert!(table(&root["attack"]).is_empty());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let root = parse(r##"tag = "a#b""##).unwrap();
        assert_eq!(root["tag"], TomlValue::Str("a#b".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (doc, needle) in [
            ("x", "expected 'key = value'"),
            ("[open", "unclosed table header"),
            ("[[t]]", "array-of-tables"),
            ("k = ", "missing value"),
            (" = 3", "missing key"),
            ("k = \"unterminated", "malformed string"),
            ("k = [1, 2", "unclosed array"),
            ("k = [1,, 2]", "empty element"),
            ("k = [[1]]", "nested arrays"),
            ("k = zebra", "cannot parse"),
            ("k = 1\nk = 2", "duplicate key"),
            ("k = 1\n[k]", "not a table"),
            ("bad key = 1", "characters outside"),
        ] {
            let e = parse(doc).unwrap_err();
            assert!(e.to_string().contains(needle), "{doc:?}: {e}");
            assert!(e.line > 0, "{doc:?}");
        }
        assert_eq!(parse("a = 1\nb = \n").unwrap_err().line, 2);
    }

    #[test]
    fn duplicate_table_headers_merge() {
        // Re-opening a table is accepted (TOML forbids it, but merging is
        // harmless here and keeps the parser small); duplicate *keys* are
        // still rejected.
        let root = parse("[t]\na = 1\n[t]\nb = 2").unwrap();
        let t = table(&root["t"]);
        assert_eq!(t.len(), 2);
        assert!(parse("[t]\na = 1\n[t]\na = 2").is_err());
    }
}

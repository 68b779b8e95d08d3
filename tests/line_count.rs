//! The net non-test line count, by one rule: the non-blank lines of every
//! `.rs` file under `crates/` and `src/`, outside `tests/` and `benches/`
//! directories, before the file's first top-level `#[cfg(test)]`. Every
//! top-level item after that line must carry its own `#[cfg(test)]`, so
//! the rule cannot skip product code. A change states its count from
//! `cargo test --test line_count -- --nocapture`.

use std::path::Path;

fn non_test_lines(dir: &Path) -> usize {
    let mut lines = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            // `target/` is build output, not source.
            if !path.ends_with("tests") && !path.ends_with("benches") && !path.ends_with("target") {
                lines += non_test_lines(&path);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            lines +=
                counted_lines(&path.display().to_string(), &text).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    lines
}

/// The non-blank lines of `text` before its first top-level `#[cfg(test)]`,
/// or an error naming the first top-level item after that line that lacks
/// its own `#[cfg(test)]`.
fn counted_lines(name: &str, text: &str) -> Result<usize, String> {
    let lines: Vec<&str> = text.lines().collect();
    let first_test = lines
        .iter()
        .position(|l| l.starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());
    for (i, line) in lines.iter().enumerate().skip(first_test) {
        if starts_item(line) {
            let mut attrs = lines[..i]
                .iter()
                .rev()
                .take_while(|l| l.starts_with("#[") || l.starts_with("//"));
            if !attrs.any(|l| l.starts_with("#[cfg(test)]")) {
                return Err(format!(
                    "{name}:{}: `{line}` follows the first top-level #[cfg(test)] \
                     without its own #[cfg(test)], so the line count would skip it",
                    i + 1
                ));
            }
        }
    }
    Ok(lines[..first_test]
        .iter()
        .filter(|l| !l.trim().is_empty())
        .count())
}

/// Whether `line` opens a top-level item: it starts in column 0 with an
/// item keyword, after an optional visibility, or with a macro call.
fn starts_item(line: &str) -> bool {
    const KEYWORDS: [&str; 15] = [
        "fn ",
        "mod ",
        "struct ",
        "enum ",
        "impl",
        "use ",
        "const ",
        "static ",
        "type ",
        "trait ",
        "union ",
        "unsafe ",
        "async ",
        "extern ",
        "macro_rules!",
    ];
    let rest = ["pub(crate) ", "pub(super) ", "pub "]
        .iter()
        .find_map(|v| line.strip_prefix(v))
        .unwrap_or(line);
    let ident = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    KEYWORDS.iter().any(|k| rest.starts_with(k))
        || (ident > 0 && rest[ident..].starts_with('!') && rest.as_bytes()[0].is_ascii_lowercase())
}

#[test]
fn net_non_test_lines() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lines = non_test_lines(&root.join("crates")) + non_test_lines(&root.join("src"));
    println!("net non-test lines: {lines}");
    assert!(lines > 0, "no source lines found");
}

#[test]
fn items_after_the_first_test_line_must_be_test_only() {
    let oracle = "fn product() {}\n\n#[cfg(test)]\n/// An oracle.\nfn oracle() {}\n";
    assert_eq!(counted_lines("ok.rs", oracle), Ok(1));
    let hidden = format!("{oracle}\npub fn hidden() {{}}\n");
    let err = counted_lines("hidden.rs", &hidden).unwrap_err();
    assert!(
        err.starts_with("hidden.rs:7: `pub fn hidden() {}`"),
        "{err}"
    );
}

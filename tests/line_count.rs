//! The net non-test line count, by one rule: the non-blank lines of every
//! `.rs` file under `crates/` and `src/`, outside `tests/` and `benches/`
//! directories, before the file's first top-level `#[cfg(test)]`. A change
//! states its count from
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
            lines += text
                .lines()
                .take_while(|l| !l.starts_with("#[cfg(test)]"))
                .filter(|l| !l.trim().is_empty())
                .count();
        }
    }
    lines
}

#[test]
fn net_non_test_lines() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lines = non_test_lines(&root.join("crates")) + non_test_lines(&root.join("src"));
    println!("net non-test lines: {lines}");
    assert!(lines > 0, "no source lines found");
}

//! Plain-text weighted edge-list I/O.
//!
//! Format, one edge per line:
//!
//! ```text
//! # comment lines start with '#'
//! <u> <v> [weight]
//! ```
//!
//! Node ids are dense non-negative integers; the node count of the parsed
//! graph is `max id + 1` (or an explicit count passed by the caller). A
//! missing weight field means weight 1. This matches the format used by the
//! classic topology-analysis toolchains, so generated maps can be fed to
//! external software and vice versa.
//!
//! The module also holds the workspace's one decimal writer,
//! [`put_decimal`], and the stack text buffer [`Row`] that the edge list,
//! the curve CSVs and the sweep checkpoint's records are printed through:
//! the writer prints exactly the digits `{}` prints, without `core::fmt`.

use crate::{GraphError, MultiGraph, NodeId, Result};
use std::io::{BufRead, Write};

/// Upper bound on node ids (and declared node counts) accepted by
/// [`read_edge_list`]. Parsed graphs use dense id-indexed storage, so a
/// single typo'd id like `4000000000` would otherwise trigger a multi-GB
/// allocation; beyond this cap parsing fails with a structured
/// [`GraphError::Parse`] instead. 50 M nodes is ~500× the 2025 AS-level
/// Internet.
pub const MAX_NODES: usize = 50_000_000;

/// Decimal digits of `u64::MAX`: the longest text [`put_decimal`] writes.
pub const MAX_DECIMAL_DIGITS: usize = 20;

/// `{:02}` of every `k < 100`.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut k = 0;
    while k < 100 {
        pairs[k] = [b'0' + (k / 10) as u8, b'0' + (k % 10) as u8];
        k += 1;
    }
    pairs
};

/// Writes `n` in decimal, exactly as `{}` prints it, to the start of `out`
/// and returns how many bytes it wrote.
///
/// # Panics
/// When `out` is shorter than the digits of `n`.
#[inline]
pub fn put_decimal(out: &mut [u8], n: u64) -> usize {
    // Most numbers printed are counts below 10^4: straight-line stores.
    if n < 100 {
        if n < 10 {
            out[0] = b'0' + n as u8;
            return 1;
        }
        out[..2].copy_from_slice(&DIGIT_PAIRS[n as usize]);
        return 2;
    }
    if n < 10_000 {
        let (high, low) = ((n / 100) as usize, &DIGIT_PAIRS[(n % 100) as usize]);
        if n < 1000 {
            out[0] = b'0' + high as u8;
            out[1..3].copy_from_slice(low);
            return 3;
        }
        out[..2].copy_from_slice(&DIGIT_PAIRS[high]);
        out[2..4].copy_from_slice(low);
        return 4;
    }
    let len = n.ilog10() as usize + 1;
    put_digits(&mut out[..len], n);
    len
}

/// Fills `out` with the last `out.len()` decimal digits of `n`, padded
/// with zeros on the left: for `n < 10^w`, `w = out.len()`, exactly what
/// `{:0w$}` prints. Two digits per table lookup.
#[inline]
pub fn put_digits(out: &mut [u8], mut n: u64) {
    let mut end = out.len();
    while end >= 2 {
        end -= 2;
        out[end..end + 2].copy_from_slice(&DIGIT_PAIRS[(n % 100) as usize]);
        n /= 100;
    }
    if end == 1 {
        out[0] = b'0' + (n % 10) as u8;
    }
}

/// Text assembled on the stack, one line or a few kilobytes of lines, so
/// that a writer appends it to its destination in one copy instead of one
/// call per field. Reuse one `Row` with [`Row::clear`]; its `N` bytes are
/// zeroed once.
///
/// The pushes panic when the text outgrows `N` bytes: check
/// [`Row::spare`] before a line, against the longest line the caller
/// prints.
#[derive(Clone, Debug)]
pub struct Row<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

impl<const N: usize> Default for Row<N> {
    fn default() -> Self {
        Row {
            bytes: [0; N],
            len: 0,
        }
    }
}

impl<const N: usize> Row<N> {
    /// Appends `n` in decimal, exactly as `{}` prints it.
    pub fn decimal(&mut self, n: u64) -> &mut Self {
        self.len += put_decimal(&mut self.bytes[self.len..], n);
        self
    }

    /// Appends one byte.
    pub fn byte(&mut self, byte: u8) -> &mut Self {
        self.bytes[self.len] = byte;
        self.len += 1;
        self
    }

    /// Appends `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self
    }

    /// How many more bytes fit.
    pub fn spare(&self) -> usize {
        N - self.len
    }

    /// Empties the line.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The line so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Writes `g` as a weighted edge list (one `u v w` line per distinct edge).
pub fn write_edge_list<W: Write>(g: &MultiGraph, mut out: W) -> Result<()> {
    /// The longest `u v w` line.
    const LINE: usize = 3 * (MAX_DECIMAL_DIGITS + 1);
    inet_fault::check_contained("io.write", 0).map_err(|e| GraphError::Io(e.to_string()))?;
    writeln!(
        out,
        "# nodes {} edges {} weight {}",
        g.node_count(),
        g.edge_count(),
        g.total_weight()
    )?;
    // Lines gather on the stack and reach `out` a few kilobytes at a time.
    let mut lines = Row::<4096>::default();
    for (u, v, w) in g.edges() {
        if lines.spare() < LINE {
            out.write_all(lines.as_bytes())?;
            lines.clear();
        }
        lines
            .decimal(u.index() as u64)
            .byte(b' ')
            .decimal(v.index() as u64)
            .byte(b' ')
            .decimal(w)
            .byte(b'\n');
    }
    out.write_all(lines.as_bytes())?;
    Ok(())
}

/// Reads a weighted edge list into a [`MultiGraph`].
///
/// * Lines starting with `#` and blank lines are skipped — except that a
///   header of the form `# nodes <N> ...` (as written by
///   [`write_edge_list`]) fixes the node count, so trailing isolated nodes
///   survive a round trip.
/// * Each data line is `u v` or `u v w` (whitespace separated).
/// * Duplicate pairs accumulate weight.
/// * Without a header, the resulting node count is `max id + 1`.
pub fn read_edge_list<R: BufRead>(input: R) -> Result<MultiGraph> {
    inet_fault::check_contained("io.read", 0).map_err(|e| GraphError::Io(e.to_string()))?;
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    let mut max_node = 0usize;
    let mut declared_nodes: Option<usize> = None;
    for (line_no, line) in input.lines().enumerate() {
        let line = line?;
        let line_no = line_no + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            if declared_nodes.is_none() {
                let mut parts = trimmed.trim_start_matches('#').split_whitespace();
                if parts.next() == Some("nodes") {
                    if let Some(count) = parts.next().and_then(|tok| tok.parse::<u64>().ok()) {
                        if count > MAX_NODES as u64 {
                            return Err(GraphError::Parse {
                                line: line_no,
                                message: format!(
                                    "declared node count {count} exceeds the supported \
                                     maximum {MAX_NODES}"
                                ),
                            });
                        }
                        declared_nodes = Some(count as usize);
                    }
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_field = |tok: Option<&str>, what: &str, line_no: usize| -> Result<u64> {
            let tok = tok.ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: format!("missing {what} field"),
            })?;
            tok.parse::<u64>().map_err(|_| GraphError::Parse {
                line: line_no,
                message: format!("invalid {what} '{tok}'"),
            })
        };
        let check_id = |id: u64, what: &str, line_no: usize| -> Result<usize> {
            if id >= MAX_NODES as u64 {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!(
                        "{what} id {id} exceeds the supported maximum {}",
                        MAX_NODES - 1
                    ),
                });
            }
            Ok(id as usize)
        };
        let u = check_id(
            parse_field(parts.next(), "source", line_no)?,
            "source",
            line_no,
        )?;
        let v = check_id(
            parse_field(parts.next(), "target", line_no)?,
            "target",
            line_no,
        )?;
        let w = match parts.next() {
            Some(tok) => tok.parse::<u64>().map_err(|_| GraphError::Parse {
                line: line_no,
                message: format!("invalid weight '{tok}'"),
            })?,
            None => 1,
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "too many fields (expected 'u v [w]')".to_string(),
            });
        }
        if w == 0 {
            return Err(GraphError::Parse {
                line: line_no,
                message: "zero edge weight".to_string(),
            });
        }
        max_node = max_node.max(u).max(v);
        edges.push((u, v, w));
    }
    let mut g = MultiGraph::new();
    let implied = if edges.is_empty() { 0 } else { max_node + 1 };
    g.add_nodes(declared_nodes.unwrap_or(implied).max(implied));
    for (u, v, w) in edges {
        g.add_edge_weighted(NodeId::new(u), NodeId::new(v), w)?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MultiGraph {
        let mut g = MultiGraph::new();
        g.add_nodes(4);
        let n = NodeId::new;
        g.add_edge_weighted(n(0), n(1), 2).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g
    }

    #[test]
    fn decimal_writer_matches_display() {
        let mut digits = [0; MAX_DECIMAL_DIGITS];
        let mut check = |n: u64| {
            let len = put_decimal(&mut digits, n);
            assert_eq!(&digits[..len], n.to_string().as_bytes());
        };
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX / 10, u64::MAX] {
            check(n);
        }
        for digits in 1..=MAX_DECIMAL_DIGITS as u32 {
            let low = 10u64.pow(digits - 1);
            let high = 10u64.checked_pow(digits).map_or(u64::MAX, |p| p - 1);
            for n in [low, low + 1, high - 1, high, low / 2 + high / 2] {
                check(n);
            }
        }
    }

    #[test]
    fn padded_digits_match_display() {
        for (n, width) in [(0, 1), (7, 3), (123, 3), (12_345_678, 8), (1, 17)] {
            let mut out = vec![b'x'; width];
            put_digits(&mut out, n);
            assert_eq!(out, format!("{n:0width$}").as_bytes());
        }
        for width in 0..=MAX_DECIMAL_DIGITS {
            for n in [u64::MAX, 10u64.pow(width.min(19) as u32) - 1] {
                let mut out = vec![b'x'; width];
                put_digits(&mut out, n);
                let text = format!("{n:020}");
                assert_eq!(
                    out,
                    &text.as_bytes()[MAX_DECIMAL_DIGITS - width..],
                    "{n} {width}"
                );
            }
        }
    }

    #[test]
    fn rows_assemble_their_pieces_in_order() {
        let mut row = Row::<24>::default();
        row.decimal(u64::MAX).byte(b',');
        assert_eq!(row.spare(), 3);
        row.bytes(b"ab");
        assert_eq!(row.as_bytes(), b"18446744073709551615,ab");
        row.clear();
        row.bytes(b"x").decimal(0);
        assert_eq!(row.as_bytes(), b"x0");
    }

    /// `write_edge_list` as it was written with one `writeln!` per edge,
    /// kept as the byte-identity oracle.
    fn edge_list_oracle(g: &MultiGraph) -> Vec<u8> {
        let mut out = Vec::new();
        writeln!(
            out,
            "# nodes {} edges {} weight {}",
            g.node_count(),
            g.edge_count(),
            g.total_weight()
        )
        .unwrap();
        for (u, v, w) in g.edges() {
            writeln!(out, "{} {} {}", u.index(), v.index(), w).unwrap();
        }
        out
    }

    #[test]
    fn edge_list_matches_the_writeln_oracle_on_random_multigraphs() {
        inet_stats::rng::check(200, |rng| {
            let nodes = match rng.gen_range(0..4usize) {
                0 => rng.gen_range(0..3usize),
                1 => rng.gen_range(2..30usize),
                _ => rng.gen_range(2..3000usize),
            };
            let mut g = MultiGraph::new();
            g.add_nodes(nodes);
            if nodes >= 2 {
                // Weights below 2^47 over at most 12 000 draws: no overflow.
                for _ in 0..rng.gen_range(0..4 * nodes) {
                    let u = rng.gen_range(0..nodes);
                    let v = rng.gen_range(0..nodes);
                    let w = match rng.gen_range(0..3usize) {
                        0 => 1,
                        1 => rng.gen_range(2..1000u64),
                        _ => rng.next_u64() >> 17,
                    };
                    if u != v {
                        g.add_edge_weighted(NodeId::new(u), NodeId::new(v), w)
                            .unwrap();
                    }
                }
            }
            let mut out = Vec::new();
            write_edge_list(&g, &mut out).unwrap();
            assert_eq!(out, edge_list_oracle(&g));
        });
        // A weight near `u64::MAX`, and many 4 KiB writes.
        let mut g = MultiGraph::new();
        g.add_nodes(6000);
        g.add_edge_weighted(NodeId::new(0), NodeId::new(5999), u64::MAX - 6000)
            .unwrap();
        for u in 1..6000 {
            g.add_edge(NodeId::new(u - 1), NodeId::new(u)).unwrap();
        }
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        assert!(out.len() > 16 << 10);
        assert_eq!(out, edge_list_oracle(&g));
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let parsed = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn header_comment_is_written() {
        let mut buf = Vec::new();
        write_edge_list(&sample(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# nodes 4 edges 3 weight 4"));
    }

    #[test]
    fn parses_unweighted_lines_and_comments() {
        let input = "# a comment\n\n0 1\n1 2 5\n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.weight(NodeId::new(0), NodeId::new(1)), 1);
        assert_eq!(g.weight(NodeId::new(1), NodeId::new(2)), 5);
    }

    #[test]
    fn duplicate_pairs_accumulate() {
        let g = read_edge_list("0 1 2\n1 0 3\n".as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weight(NodeId::new(0), NodeId::new(1)), 5);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (input, needle) in [
            ("0\n", "missing target"),
            ("a 1\n", "invalid source"),
            ("0 b\n", "invalid target"),
            ("0 1 x\n", "invalid weight"),
            ("0 1 1 9\n", "too many fields"),
            ("0 1 0\n", "zero edge weight"),
            ("0 0\n", "self-loop"),
        ] {
            let err = read_edge_list(input.as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "input {input:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn huge_node_ids_are_rejected_without_allocating() {
        // The motivating case: a typo'd id must be a one-line parse error,
        // not an attempted 4-billion-node allocation.
        let err = read_edge_list("0 4000000000\n".as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the supported maximum"),
            "{err}"
        );
        let err = read_edge_list("18446744073709551615 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // The boundary itself: MAX_NODES - 1 is the largest legal id.
        assert!(read_edge_list(format!("0 {}\n", MAX_NODES).as_bytes()).is_err());
    }

    #[test]
    fn huge_declared_node_count_is_rejected() {
        let err = read_edge_list("# nodes 4000000000\n0 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared node count"), "{err}");
    }

    #[test]
    fn header_preserves_trailing_isolated_nodes() {
        let mut g = sample();
        g.add_nodes(3); // isolated tail
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let parsed = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(parsed.node_count(), 7);
        assert_eq!(parsed, g);
    }

    #[test]
    fn explicit_nodes_header_is_honored() {
        let g = read_edge_list("# nodes 9\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 9);
        // A lying header never truncates actual edges.
        let g = read_edge_list("# nodes 1\n0 5\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 6);
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert!(g.is_empty());
        let g = read_edge_list("# only comments\n".as_bytes()).unwrap();
        assert!(g.is_empty());
    }
}

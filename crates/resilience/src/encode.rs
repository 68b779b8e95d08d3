//! The curve CSV encoder, and the decimal writer it shares with the
//! checkpoint's `cell` records.
//!
//! A full-resolution curve has one point per removed node, so a sweep over
//! a 10 000-node graph prints hundreds of thousands of points; through
//! `write!` that printing cost more than computing the curves. The encoder
//! keeps every byte of the `write!` output and drops its overhead:
//!
//! * the three counts go through a hand-rolled decimal writer, which prints
//!   exactly the digits `{}` prints for a `usize`;
//! * `mean_component` is still printed by std's own `{}` formatter, but
//!   only once per run of bit-equal values (about half of consecutive
//!   points repeat one), since the printed text is a function of the bits
//!   alone.
//!
//! The checkpoint prints no float at all: its records hold counts as
//! decimal deltas and `⟨s⟩` as raw bits (see [`crate::checkpoint`]).

use crate::percolation::CurvePoint;
use std::fmt::Write as _;

/// Decimal digits of `usize::MAX`.
const MAX_DIGITS: usize = usize::MAX.ilog10() as usize + 1;

/// Appends `n` in decimal, exactly as `{}` prints it.
pub(crate) fn push_decimal(out: &mut String, mut n: usize) {
    let mut buf = [0u8; MAX_DIGITS];
    let mut at = MAX_DIGITS;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Only ASCII digits were written, so the conversion cannot fail.
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// Appends `points` to `out` as CSV rows, `removed,giant,edges,⟨s⟩` each
/// ending in `\n`; byte for byte what the `write!` loop `"{},{},{},{}\n"`
/// prints.
pub fn write_points(out: &mut String, points: &[CurvePoint]) {
    out.reserve(24 * points.len());
    // The text of the last distinct `mean_component`, by bit pattern.
    let mut last_bits = None;
    let mut mean_text = String::new();
    for p in points {
        push_decimal(out, p.removed);
        out.push(',');
        push_decimal(out, p.giant);
        out.push(',');
        push_decimal(out, p.edges);
        out.push(',');
        let bits = p.mean_component.to_bits();
        if last_bits != Some(bits) {
            last_bits = Some(bits);
            mean_text.clear();
            let _ = write!(mean_text, "{}", p.mean_component);
        }
        out.push_str(&mean_text);
        out.push('\n');
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use inet_stats::rng::StdRng;

    /// A random curve for the oracle tests: empty, one-point and longer
    /// curves whose counts reach `usize::MAX`, and whose `⟨s⟩` mixes 0.0,
    /// integral values, fractions below 1e-4, values at and above 1e16, and
    /// long runs of one value.
    pub(crate) fn random_points(rng: &mut StdRng) -> Vec<CurvePoint> {
        let len = match rng.gen_range(0..4usize) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..400usize),
        };
        let count = |rng: &mut StdRng| match rng.gen_range(0..4usize) {
            0 => usize::MAX - rng.gen_range(0..3usize),
            1 => rng.gen_range(0..10usize),
            _ => (rng.next_u64() >> rng.gen_range(0..64u64)) as usize,
        };
        let mut mean = 0.0;
        (0..len)
            .map(|_| {
                // Keep the last value often, so runs of equal values form.
                if rng.gen_bool(0.5) {
                    mean = match rng.gen_range(0..8usize) {
                        0 => 0.0,
                        1 => rng.gen_range(1..100_000usize) as f64,
                        2 => {
                            rng.gen_range(0.0..1.0) * 1e-4 / rng.gen_range(1..1_000_000usize) as f64
                        }
                        3 => 1e16,
                        4 => 1e16 * rng.gen_range(1.0..1e6),
                        5 => [9.999_999_999_999_998e15, 1e-4, f64::MIN_POSITIVE, 1e300]
                            [rng.gen_range(0..4usize)],
                        6 => {
                            rng.gen_range(1..1000usize) as f64 / rng.gen_range(1..1000usize) as f64
                        }
                        _ => rng.gen_range(0.0..500.0),
                    };
                }
                point(count(rng), count(rng), count(rng), mean)
            })
            .collect()
    }

    fn point(removed: usize, giant: usize, edges: usize, mean_component: f64) -> CurvePoint {
        CurvePoint {
            removed,
            giant,
            edges,
            mean_component,
        }
    }

    #[test]
    fn decimal_writer_matches_display() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, usize::MAX / 10, usize::MAX] {
            let mut out = String::from("x");
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn formats_keep_their_own_float_printing() {
        let points = vec![
            point(0, 5, 4, 1.0),
            point(1, 4, 3, 1.0),
            point(2, 3, 2, 1e16),
        ];
        // The CSV prints `⟨s⟩` with `{}`, once per run of equal values ...
        let mut out = String::new();
        write_points(&mut out, &points);
        assert_eq!(out, "0,5,4,1\n1,4,3,1\n2,3,2,10000000000000000\n");
        out.clear();
        write_points(&mut out, &[]);
        assert_eq!(out, "");
        // ... and the checkpoint prints no float at all, only bits.
        let cell = crate::checkpoint::CellRecord {
            strategy: "random".to_string(),
            replica: 0,
            resampled: false,
            curve: crate::percolation::AttackCurve {
                nodes: 5,
                edges: 4,
                points,
                critical_fraction: 0.0,
            },
        };
        let record = cell.log_line();
        assert!(
            record.contains("\t0,0,0,3ff0000000000000 1,-1,-1 1,-1,-1,4341c37937e08000\t"),
            "{record}"
        );
    }
}

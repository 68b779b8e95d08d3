//! The curve CSV encoder and its exact shortest-digits float formatter.
//!
//! A full-resolution curve has one point per removed node, so a sweep over
//! a 10 000-node graph prints hundreds of thousands of points; through
//! `write!` that printing cost more than computing the curves. The encoder
//! keeps every byte of the `write!` output and prints without `core::fmt`:
//!
//! * the three counts go through the workspace's decimal writer,
//!   [`inet_graph::io::put_decimal`];
//! * `mean_component` goes through `put_shortest`, which prints exactly
//!   what `{}` prints for a finite `f64` in `[1, 2^53)`. That range holds
//!   every non-zero `⟨s⟩`, because `⟨s⟩ = Σ's²/Σ's ≥ 1`. Any other value,
//!   0 among them, is printed by std's `{}`, the reference the tests hold
//!   the formatter to. Either runs once per run of bit-equal values (about
//!   half of consecutive points repeat one), since the printed text is a
//!   function of the bits alone;
//! * rows are assembled in a stack [`Row`] and reach the output a few
//!   kilobytes at a time.
//!
//! The checkpoint prints no float at all: its records hold counts as
//! decimal deltas and `⟨s⟩` as raw bits (see [`crate::checkpoint`]).

use crate::percolation::CurvePoint;
use inet_graph::io::{put_decimal, put_digits, Row, MAX_DECIMAL_DIGITS};
use std::io::Write as _;

/// Bytes [`put_shortest`] may write: 20 digits and a point at most.
const SHORTEST_BYTES: usize = MAX_DECIMAL_DIGITS + 1;

/// 2^53, the end of the range [`put_shortest`] prints.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// `10^q` for `q ≤ 18`.
const POW10: [u64; 19] = {
    let mut pow = [1; 19];
    let mut q = 1;
    while q < 19 {
        pow[q] = pow[q - 1] * 10;
        q += 1;
    }
    pow
};

/// Writes `v` to the start of `out` exactly as `{}` prints it, and returns
/// its length, when `1 ≤ v < 2^53`; `None` for any other value.
///
/// `{}` prints the shortest decimal that reads back as `v`; among those,
/// the one nearest `v`; and of two equally near, the larger: ties round
/// half up, not half to even. This is Ryu's digit removal (Adams, PLDI
/// 2018) run on exact integers. In this range `v = m·2^(k−52)` with
/// `k = ⌊log₂ v⌋ ≤ 52`, so `v` and the ends of its rounding interval,
/// times `10^q`, are each one `u64 × u64 → u128` product shifted right by
/// `54 − k` bits, and the bits shifted out say whether the quotient is
/// exact.
///
/// # Panics
/// When `out` is shorter than [`SHORTEST_BYTES`].
fn put_shortest(out: &mut [u8], v: f64) -> Option<usize> {
    if !(1.0..TWO_POW_53).contains(&v) {
        return None;
    }
    let out = &mut out[..SHORTEST_BYTES];
    let bits = v.to_bits();
    let k = (bits >> 52) as u32 - 1023;
    let fraction = bits & ((1 << 52) - 1);
    let m = fraction | 1 << 52;
    // In units of 2^(k−54), `v` is 4m and its neighbours are 4 units away,
    // except the one below a power of two, which is 2 units away. The
    // interval of values that read back as `v` reaches halfway to each, and
    // holds its ends when `m` is even (reading rounds ties to even).
    let (upper, lower) = (4 * m + 2, 4 * m - if fraction == 0 { 1 } else { 2 });
    let ends_inclusive = m & 1 == 0;
    // Scale by 10^q, q = ⌊(63 − k)·log₁₀ 2⌋: as many decimals as keep the
    // upper end below 2^64. q ≥ 3, so the interval spans over 100 units.
    let q = (((63 - k) * 78_913) >> 18) as usize;
    let shift = 54 - k;
    let scaled = |units: u64| {
        let product = u128::from(units) * u128::from(POW10[q]);
        ((product >> shift) as u64, product & ((1 << shift) - 1) == 0)
    };
    let (mut vr, _) = scaled(4 * m);
    let (mut vp, vp_exact) = scaled(upper);
    let (mut vm, vm_exact) = scaled(lower);
    if vp_exact && !ends_inclusive {
        vp -= 1;
    }
    // Whether `vm` is the lower end itself, in the interval, with only
    // zeros dropped from it so far: then it may end in more zeros to drop.
    let mut vm_exact = vm_exact && ends_inclusive;
    // The last digit dropped from `vr`.
    let mut last = 0;
    let mut exponent = -(q as i32);
    while vp / 10 > vm / 10 || (vm_exact && vm % 10 == 0) {
        vm_exact &= vm % 10 == 0;
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        exponent += 1;
    }
    // Round up when `vr` fell out of the interval, or on a dropped half.
    let digits = vr + u64::from((vr == vm && !vm_exact) || last >= 5);
    if exponent >= 0 {
        let len = put_decimal(out, digits);
        let end = len + exponent as usize;
        out[len..end].fill(b'0');
        return Some(end);
    }
    let decimals = exponent.unsigned_abs() as usize;
    // The integer part is `v`'s own: the rounding interval of a
    // non-integral `v` holds no integer, since `v`'s neighbours are whole
    // ulps away from it and the interval reaches half an ulp.
    let integral = v as u64;
    let fraction = digits
        .checked_sub(integral * POW10[decimals])
        .filter(|f| *f < POW10[decimals])?;
    let point = put_decimal(out, integral);
    out[point] = b'.';
    put_digits(&mut out[point + 1..point + 1 + decimals], fraction);
    Some(point + 1 + decimals)
}

/// Appends `v` as `{}` prints it.
fn push_float(out: &mut Vec<u8>, v: f64) {
    let mut text = [0; SHORTEST_BYTES];
    match put_shortest(&mut text, v) {
        Some(len) => out.extend_from_slice(&text[..len]),
        None => {
            let _ = write!(out, "{v}");
        }
    }
}

/// Appends `points` to `out` as CSV rows, `removed,giant,edges,⟨s⟩` each
/// ending in `\n`; byte for byte what the `write!` loop `"{},{},{},{}\n"`
/// prints.
pub fn write_points(out: &mut Vec<u8>, points: &[CurvePoint]) {
    /// The longest `removed,giant,edges,` prefix of a row.
    const COUNTS: usize = 3 * (MAX_DECIMAL_DIGITS + 1);
    // A row of the `attack_journaled` workload averages about 30 bytes.
    out.reserve(32 * points.len());
    // Rows gather on the stack and reach `out` a few kilobytes at a time.
    // std prints any `f64` in under 400 bytes, so a row always fits.
    let mut rows = Row::<4096>::default();
    // The text of the last distinct `mean_component`, by bit pattern.
    let mut last_bits = None;
    let mut mean_text = Vec::new();
    for p in points {
        let bits = p.mean_component.to_bits();
        if last_bits != Some(bits) {
            last_bits = Some(bits);
            mean_text.clear();
            push_float(&mut mean_text, p.mean_component);
        }
        if rows.spare() < COUNTS + mean_text.len() + 1 {
            out.extend_from_slice(rows.as_bytes());
            rows.clear();
        }
        rows.decimal(p.removed as u64)
            .byte(b',')
            .decimal(p.giant as u64)
            .byte(b',')
            .decimal(p.edges as u64)
            .byte(b',')
            .bytes(&mean_text)
            .byte(b'\n');
    }
    out.extend_from_slice(rows.as_bytes());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use inet_stats::rng::StdRng;

    /// A value of one of the classes a shortest-digits formatter gets
    /// wrong first: any bit pattern in `[1, 2^53)`; ratios `a/b` with
    /// `a ≤ 10^8` and `b ≤ 10^4`, as `⟨s⟩ = Σ's²/Σ's` is; powers of two up
    /// to 3 ulp either side, where the lower neighbour is nearer; the
    /// mantissa boundaries 2^52 and 2^53 − 1; exact binary halves, quarters
    /// and eighths near 2^49–2^52, where a decimal digit ties; `d/10^k`;
    /// and 0.0, values below 1 and at or above 2^53, which keep std's text.
    pub(crate) fn float_sample(rng: &mut StdRng) -> f64 {
        let below_two_pow_53 = TWO_POW_53.to_bits();
        match rng.gen_range(0..8usize) {
            0 => f64::from_bits(rng.gen_range(1.0f64.to_bits()..below_two_pow_53)),
            1 => rng.gen_range(1..=100_000_000u64) as f64 / rng.gen_range(1..=10_000u64) as f64,
            2 => {
                let power = (1u64 << rng.gen_range(0..=53u64)) as f64;
                f64::from_bits(power.to_bits() + rng.gen_range(0..7u64) - 3)
            }
            3 => {
                let ends = [1u64 << 52, (1 << 53) - 1];
                let end = ends[rng.gen_range(0..2usize)] as f64;
                f64::from_bits(end.to_bits() + rng.gen_range(0..7u64) - 3)
            }
            4 => {
                let integral = rng.gen_range(1u64 << 49..1 << 52) as f64;
                integral + rng.gen_range(1..8u64) as f64 / 8.0
            }
            5 => {
                let digits = rng.gen_range(1..=99_999_999_999_999_999u64);
                digits as f64 / POW10[rng.gen_range(0..=18usize)] as f64
            }
            6 => [
                0.0,
                1.0,
                0.5,
                f64::MIN_POSITIVE,
                1e-4,
                TWO_POW_53,
                1e16,
                1e300,
                f64::MAX,
            ][rng.gen_range(0..9usize)],
            _ => rng.gen_range(0.0..500.0),
        }
    }

    /// Asserts that `push_float` prints `count` values of [`float_sample`]
    /// as `{}` does, and that every value in `[1, 2^53)` takes
    /// [`put_shortest`].
    pub(crate) fn matches_std_on(count: u64, rng: &mut StdRng) {
        let (mut ours, mut std_text) = (Vec::new(), Vec::new());
        let mut text = [0; SHORTEST_BYTES];
        for _ in 0..count {
            let v = float_sample(rng);
            ours.clear();
            std_text.clear();
            push_float(&mut ours, v);
            write!(std_text, "{v}").unwrap();
            assert_eq!(ours, std_text, "{v:e} ({:#x})", v.to_bits());
            let in_range = (1.0..TWO_POW_53).contains(&v);
            assert_eq!(put_shortest(&mut text, v).is_some(), in_range, "{v:e}");
        }
    }

    /// A random curve for the oracle tests: empty, one-point and longer
    /// curves whose counts reach `usize::MAX`, and whose `⟨s⟩` mixes
    /// [`float_sample`]'s classes with integral values, fractions below
    /// 1e-4, values at and above 1e16, and long runs of one value.
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
                        3 => 1e16 * rng.gen_range(1.0..1e6),
                        4 => [
                            9.999_999_999_999_998e15,
                            1e16,
                            1e-4,
                            f64::MIN_POSITIVE,
                            1e300,
                        ][rng.gen_range(0..5usize)],
                        5 => {
                            rng.gen_range(1..1000usize) as f64 / rng.gen_range(1..1000usize) as f64
                        }
                        _ => float_sample(rng),
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

    fn shortest(v: f64) -> Option<String> {
        let mut text = [0; SHORTEST_BYTES];
        let len = put_shortest(&mut text, v)?;
        Some(String::from_utf8(text[..len].to_vec()).unwrap())
    }

    #[test]
    fn shortest_digits_round_ties_half_up() {
        // 1716017514632087.25, exactly halfway between …087.2 and …087.3
        // (the ulp here is 0.25): std prints the upper one.
        let tie = 1_716_017_514_632_087.0 + 0.25;
        assert_eq!(format!("{tie}"), "1716017514632087.3");
        assert_eq!(shortest(tie).unwrap(), "1716017514632087.3");
        for (v, text) in [
            (1.0, "1"),
            (4.5, "4.5"),
            (1000.0, "1000"),
            (0.1 + 1.2, "1.3"),
            (4.0 / 3.0, "1.3333333333333333"),
            (2251799813685248.5, "2251799813685248.5"),
            ((1u64 << 53) as f64 - 1.0, "9007199254740991"),
            (f64::from_bits(2f64.to_bits() - 1), "1.9999999999999998"),
        ] {
            assert_eq!(shortest(v).unwrap(), text);
            assert_eq!(format!("{v}"), text);
        }
        for v in [0.0, 0.5, TWO_POW_53, 1e300, f64::NAN, f64::INFINITY, -2.0] {
            assert_eq!(shortest(v), None, "{v}");
        }
    }

    #[test]
    fn shortest_digits_match_std_on_a_million_values() {
        matches_std_on(1_000_000, &mut inet_stats::rng::seeded_rng(29));
    }

    /// The same comparison at 10^8 values; about a minute in release.
    #[test]
    #[ignore = "10^8 values; run in release with --ignored"]
    fn shortest_digits_match_std_on_a_hundred_million_values() {
        std::thread::scope(|scope| {
            for seed in 0..2 {
                scope.spawn(move || {
                    matches_std_on(50_000_000, &mut inet_stats::rng::seeded_rng(seed));
                });
            }
        });
    }

    #[test]
    fn formats_keep_their_own_float_printing() {
        let points = vec![
            point(0, 5, 4, 1.0),
            point(1, 4, 3, 1.0),
            point(2, 3, 2, 1e16),
        ];
        // The CSV prints `⟨s⟩` as `{}` does, once per run of equal values ...
        let mut out = Vec::new();
        write_points(&mut out, &points);
        assert_eq!(out, b"0,5,4,1\n1,4,3,1\n2,3,2,10000000000000000\n");
        out.clear();
        write_points(&mut out, &[]);
        assert_eq!(out, b"");
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

//! The workspace's one random number generator, and deterministic seeding.
//!
//! [`StdRng`] is xoshiro256++ (Blackman and Vigna) whose four state words
//! are the first four outputs of SplitMix64 started at the seed. Integer
//! ranges are drawn without bias (Lemire's widening multiply with
//! rejection), floats from the top 53 bits of one draw, a float range `a..b`
//! redraws when rounding lands on `b`, and [`StdRng::shuffle`] is a
//! descending Fisher–Yates. Every stochastic routine in the workspace takes
//! `&mut StdRng`, and every experiment seeds it through this module, so runs
//! are reproducible bit-for-bit.

use std::ops::{Range, RangeInclusive};

/// Golden-ratio increment of SplitMix64: step `k` of a SplitMix64 stream
/// started at `s` is `mix64(s + k · GOLDEN)`.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective avalanche mix of one word. The
/// workspace's one copy; the retry jitter and the seeded fault plans call
/// it too.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++, seeded by SplitMix64; build one with [`seeded_rng`] or
/// [`child_rng`].
#[derive(Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A uniform value in `range`: `a..b` over `f64` and the integer types,
    /// or `a..=b` over the integer types.
    ///
    /// # Panics
    /// When the range is empty, or a float bound is not finite.
    #[inline]
    pub fn gen_range<T, R: sealed::SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// When `p` is outside `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        self.unit_f64() < p
    }

    /// Shuffles `slice` in place; every permutation is equally likely.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// A float in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `[0, span)`; `span` must be non-zero.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        // The low word of x*span falls in [0, 2^64 mod span) for exactly
        // the draws that would bias the high word; reject those. That
        // threshold is below `span`, so the division that computes it is
        // needed only when the low word is too.
        let mut wide = u128::from(self.next_u64()) * u128::from(span);
        if (wide as u64) < span {
            let threshold = span.wrapping_neg() % span;
            while (wide as u64) < threshold {
                wide = u128::from(self.next_u64()) * u128::from(span);
            }
        }
        (wide >> 64) as u64
    }
}

mod sealed {
    /// Range forms [`StdRng::gen_range`](super::StdRng::gen_range) draws
    /// from, over the element types the workspace uses.
    pub trait SampleRange<T> {
        /// One uniform draw from the range.
        fn sample(self, rng: &mut super::StdRng) -> T;
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl sealed::SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }

        impl sealed::SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                // A full 64-bit range has no representable span.
                let draw = match ((high - low) as u64).checked_add(1) {
                    Some(span) => rng.below(span),
                    None => rng.next_u64(),
                };
                low + draw as $t
            }
        }
    )*};
}
int_ranges!(u64, usize);

impl sealed::SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        let Range { start, end } = self;
        assert!(start < end, "cannot sample empty range");
        assert!(
            start.is_finite() && end.is_finite(),
            "non-finite float range"
        );
        loop {
            let x = start + (end - start) * rng.unit_f64();
            // Rounding can land exactly on `end`; redraw.
            if x < end {
                return x;
            }
        }
    }
}

/// Creates a deterministic [`StdRng`] from a 64-bit seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    let mut z = seed;
    let mut splitmix = || {
        z = z.wrapping_add(GOLDEN);
        mix64(z)
    };
    // SplitMix64 never yields four zero words in a row, the one state
    // xoshiro cannot leave.
    StdRng {
        s: [splitmix(), splitmix(), splitmix(), splitmix()],
    }
}

/// Derives a child seed from a base seed and a stream index, so independent
/// experiment arms (e.g. the points of a system-size sweep) get decorrelated
/// but reproducible generators.
///
/// Uses the SplitMix64 finalizer, which is a bijective avalanche mix — child
/// seeds never collide for distinct `(base, stream)` pairs with the same
/// base.
pub fn child_seed(base: u64, stream: u64) -> u64 {
    mix64(base ^ stream.wrapping_mul(GOLDEN))
}

/// Convenience: a child RNG for stream `stream` of base seed `base`.
pub fn child_rng(base: u64, stream: u64) -> StdRng {
    seeded_rng(child_seed(base, stream))
}

/// Runs `property` once on each of `cases` generators, `child_rng(0, case)`
/// for `case` in `0..cases`: the workspace's seeded property-test loop.
///
/// A failing case re-panics with its index and seed, so it replays alone as
/// `property(&mut seeded_rng(seed))`. There is no shrinking.
pub fn check(cases: u64, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..cases {
        let seed = child_seed(0, case);
        let run = std::panic::AssertUnwindSafe(|| property(&mut seeded_rng(seed)));
        if let Err(payload) = std::panic::catch_unwind(run) {
            let cause = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            let report = format!("case {case} of {cases} (seed {seed:#018x}) failed: {cause}");
            eprintln!("{report}");
            std::panic::resume_unwind(Box::new(report));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_of_seed_zero_is_pinned() {
        // Known answers: changing any of these changes every topology the
        // workspace generates.
        let mut rng = seeded_rng(0);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a
            ]
        );
        let mut rng = seeded_rng(0);
        assert_eq!(rng.gen_range(0..7usize), 2);
        assert_eq!(rng.gen_range(0.25..0.5).to_bits(), 0x3fd61da6f3dc380d);
        let mut v: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [7, 2, 6, 1, 4, 5, 8, 9, 0, 3]);
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (seeded_rng(42), seeded_rng(42));
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(seeded_rng(1).next_u64(), seeded_rng(2).next_u64());
    }

    #[test]
    fn child_seeds_are_distinct_across_streams() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..1000 {
            assert!(
                seen.insert(child_seed(99, stream)),
                "collision at stream {stream}"
            );
        }
    }

    #[test]
    fn child_rng_is_reproducible() {
        let a = child_rng(7, 3).next_u64();
        let b = child_rng(7, 3).next_u64();
        let c = child_rng(7, 4).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_respects_exclusive_and_inclusive_bounds() {
        let mut rng = seeded_rng(1);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..20_000 {
            let x: usize = rng.gen_range(3..7);
            assert!((3..7).contains(&x), "{x}");
            let y: u64 = rng.gen_range(8..=10);
            assert!((8..=10).contains(&y), "{y}");
            saw_lo |= y == 8;
            saw_hi |= y == 10;
            let f: f64 = rng.gen_range(0.25..0.5);
            assert!((0.25..0.5).contains(&f), "{f}");
        }
        assert!(saw_lo && saw_hi, "inclusive ends are reachable");
        // Degenerate but legal ranges.
        assert_eq!(rng.gen_range(5u64..6), 5);
        assert_eq!(rng.gen_range(9usize..=9), 9);
        let _full: u64 = rng.gen_range(0..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _: usize = seeded_rng(1).gen_range(4..4);
    }

    #[test]
    fn gen_range_is_unbiased_over_a_small_range() {
        // Chi-squared over 7 cells (a span that does not divide 2^64, so a
        // naive modulo would bias it), 6 degrees of freedom: the 99.9%
        // critical value is 22.46.
        let mut rng = seeded_rng(20_260_101);
        let draws = 70_000;
        let mut counts = [0u64; 7];
        for _ in 0..draws {
            counts[rng.gen_range(0..7usize)] += 1;
        }
        let expected = draws as f64 / 7.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 22.46, "chi2={chi2} counts={counts:?}");
    }

    #[test]
    fn gen_bool_and_floats_have_the_right_mean() {
        let mut rng = seeded_rng(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count() as f64 / n as f64;
        assert!((hits - 0.3).abs() < 0.01, "{hits}");
        let mean = (0..n).map(|_| rng.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_yields_a_permutation() {
        let mut rng = seeded_rng(9);
        let mut v: Vec<u32> = (0..1000).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..1000).collect::<Vec<_>>(), "order changed");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        // Every position of a 3-slice is reachable by every element.
        let mut seen = [[false; 3]; 3];
        for _ in 0..300 {
            let mut s = [0usize, 1, 2];
            rng.shuffle(&mut s);
            for (pos, &x) in s.iter().enumerate() {
                seen[x][pos] = true;
            }
        }
        assert!(seen.iter().flatten().all(|&b| b), "{seen:?}");
    }

    #[test]
    fn check_runs_every_case_on_its_own_stream() {
        let mut firsts = Vec::new();
        check(5, |rng| firsts.push(rng.next_u64()));
        let expected: Vec<u64> = (0..5).map(|c| child_rng(0, c).next_u64()).collect();
        assert_eq!(firsts, expected);
    }

    #[test]
    #[should_panic(expected = "case 3 of 8")]
    fn check_reports_the_failing_case() {
        let mut case = 0;
        check(8, |_| {
            assert!(case != 3, "boom");
            case += 1;
        });
    }
}

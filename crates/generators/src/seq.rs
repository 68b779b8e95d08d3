//! Degree-sequence utilities shared by sequence-driven generators.

use inet_stats::rng::StdRng;

/// Samples a power-law degree sequence `P(k) ∝ k^(−gamma)` for `k ≥ kmin`,
/// capped at `kmax`, with an even sum (the last entry is bumped by one when
/// needed so stub matching can close).
///
/// # Panics
///
/// Panics if `n == 0`, `gamma <= 1`, `kmin == 0`, or `kmax < kmin`.
pub fn powerlaw_degree_sequence(
    n: usize,
    gamma: f64,
    kmin: u64,
    kmax: u64,
    rng: &mut StdRng,
) -> Vec<u64> {
    assert!(n > 0, "need at least one node");
    assert!(gamma > 1.0, "exponent must exceed 1");
    assert!(kmin >= 1 && kmax >= kmin, "invalid degree bounds");
    let mut seq: Vec<u64> = (0..n)
        .map(|_| inet_stats::powerlaw::sample_discrete(gamma, kmin, rng).min(kmax))
        .collect();
    if seq.iter().sum::<u64>() % 2 == 1 {
        // Bump a minimal entry to keep the tail untouched.
        let idx = seq
            .iter()
            .enumerate()
            .min_by_key(|(_, &d)| d)
            .map(|(i, _)| i)
            .expect("non-empty");
        seq[idx] += 1;
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_stats::rng::seeded_rng;

    #[test]
    fn sequence_sum_is_even_and_bounded() {
        let mut rng = seeded_rng(1);
        for _ in 0..20 {
            let seq = powerlaw_degree_sequence(501, 2.2, 1, 400, &mut rng);
            assert_eq!(seq.len(), 501);
            assert_eq!(seq.iter().sum::<u64>() % 2, 0);
            assert!(seq.iter().all(|&d| (1..=400).contains(&d)));
        }
    }

    #[test]
    fn sequence_tail_is_heavy() {
        let mut rng = seeded_rng(2);
        let seq = powerlaw_degree_sequence(20_000, 2.2, 1, 20_000, &mut rng);
        let max = *seq.iter().max().unwrap();
        assert!(max > 100, "max degree {max} too small for a heavy tail");
        let ones = seq.iter().filter(|&&d| d == 1).count();
        assert!(ones > seq.len() / 3, "power law should be dominated by k=1");
    }

    #[test]
    #[should_panic(expected = "exponent must exceed 1")]
    fn rejects_flat_exponent() {
        let mut rng = seeded_rng(3);
        let _ = powerlaw_degree_sequence(10, 1.0, 1, 10, &mut rng);
    }
}

//! Random-variate samplers used by the stochastic models.
//!
//! The samplers are tuned for the regimes the paper explores: messages of up
//! to billions of chunks with drop probabilities from 1e-8 to 1e-1. Naive
//! per-chunk Bernoulli sampling would make large-message trials O(M); the
//! binomial sampler below switches between exact small-n counting, exact
//! geometric gap-skipping (O(n·p)) and a clamped normal approximation for
//! the rare large-n·p corner.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::SmallRng;
use rand::Rng;

/// Samples a geometric number of transmissions `Y ≥ 1` with
/// `P(Y = k) = p_fail^(k-1) · (1 − p_fail)` — the paper's `Y_i`
/// (number of attempts until a chunk gets through). Takes `ln(p_fail)`,
/// so a caller drawing many variates at one rate takes the log once.
pub(crate) fn sample_geometric_trials_ln(rng: &mut SmallRng, ln_p_fail: f64) -> u64 {
    debug_assert!(ln_p_fail < 0.0);
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    1 + (u.ln() / ln_p_fail).floor() as u64
}

/// Threshold above which the normal approximation to the binomial is used.
const NORMAL_APPROX_VARIANCE: f64 = 1_000.0;

/// Samples `Binomial(n, p)`.
///
/// Exact for small `n` (Bernoulli counting) and for small `n·p`
/// (geometric gap skipping); for `n·p·(1−p) > 1000` a clamped
/// normal approximation is used — at that scale the relative error is
/// far below the Monte-Carlo noise of the completion-time estimates.
pub fn sample_binomial(rng: &mut SmallRng, n: u64, p: f64) -> u64 {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 64 {
        return (0..n).filter(|_| rng.random::<f64>() < p).count() as u64;
    }
    let variance = n as f64 * p * (1.0 - p);
    if variance > NORMAL_APPROX_VARIANCE {
        // Normal approximation with continuity correction, clamped to [0,n].
        let mean = n as f64 * p;
        let z = sample_standard_normal(rng);
        let v = (mean + z * variance.sqrt()).round();
        return v.clamp(0.0, n as f64) as u64;
    }
    // Exact: skip between successes with geometric gaps.
    // Gap G ≥ 1 with P(G = g) = (1-p)^(g-1) p; positions advance by G.
    let mut count = 0u64;
    let mut pos = 0u64;
    let ln_q = f64::ln_1p(-p);
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let gap = 1 + (u.ln() / ln_q).floor() as u64;
        pos = pos.saturating_add(gap);
        if pos > n {
            return count;
        }
        count += 1;
    }
}

/// Samples `count` distinct positions uniformly from `0..n`
/// (Floyd's algorithm — O(count) expected).
pub fn sample_distinct_positions(rng: &mut SmallRng, n: u64, count: u64) -> Vec<u64> {
    debug_assert!(count <= n);
    // The set only answers membership, so the output does not depend on
    // the hasher; a multiplicative one replaces SipHash's per-lookup cost.
    let mut chosen: HashSet<u64, BuildHasherDefault<PosHasher>> =
        HashSet::with_capacity_and_hasher(count as usize, Default::default());
    let mut out = Vec::with_capacity(count as usize);
    for j in (n - count)..n {
        let t = rng.random_range(0..=j);
        let v = if chosen.contains(&t) { j } else { t };
        chosen.insert(v);
        out.push(v);
    }
    out
}

/// Fibonacci hashing for [`sample_distinct_positions`]'s `u64` keys.
#[derive(Default)]
struct PosHasher(u64);

impl Hasher for PosHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("positions hash through write_u64");
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Standard normal via Box–Muller.
fn sample_standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn geometric_mean_is_one_over_success() {
        let mut rng = SmallRng::seed_from_u64(1);
        let p_fail: f64 = 0.25;
        let n = 100_000;
        let total: u64 = (0..n)
            .map(|_| sample_geometric_trials_ln(&mut rng, p_fail.ln()))
            .sum();
        let mean = total as f64 / n as f64;
        let expect = 1.0 / (1.0 - p_fail);
        assert!((mean - expect).abs() < 0.02, "mean {mean} vs {expect}");
    }

    #[test]
    fn geometric_with_zero_failure_is_always_one() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert!((0..1000).all(|_| sample_geometric_trials_ln(&mut rng, 0f64.ln()) == 1));
    }

    #[test]
    fn binomial_small_n_matches_mean_and_spread() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (n, p, trials) = (40u64, 0.3, 20_000);
        let samples: Vec<u64> = (0..trials)
            .map(|_| sample_binomial(&mut rng, n, p))
            .collect();
        let mean = samples.iter().sum::<u64>() as f64 / trials as f64;
        assert!((mean - 12.0).abs() < 0.2, "mean {mean}");
        assert!(samples.iter().all(|&s| s <= n));
    }

    #[test]
    fn binomial_sparse_path_matches_mean() {
        let mut rng = SmallRng::seed_from_u64(4);
        // n·p = 100 with n huge: exercises the geometric-skip path.
        let (n, p, trials) = (10_000_000u64, 1e-5, 5_000);
        let mean = (0..trials)
            .map(|_| sample_binomial(&mut rng, n, p))
            .sum::<u64>() as f64
            / trials as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn binomial_normal_path_matches_mean() {
        let mut rng = SmallRng::seed_from_u64(5);
        // variance = 1e6·0.3·0.7 = 2.1e5 > threshold → normal path.
        let (n, p, trials) = (1_000_000u64, 0.3, 5_000);
        let mean = (0..trials)
            .map(|_| sample_binomial(&mut rng, n, p))
            .sum::<u64>() as f64
            / trials as f64;
        assert!((mean / 300_000.0 - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn binomial_edges() {
        let mut rng = SmallRng::seed_from_u64(6);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn distinct_positions_are_distinct_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        let pos = sample_distinct_positions(&mut rng, 1000, 200);
        assert_eq!(pos.len(), 200);
        let set: std::collections::HashSet<_> = pos.iter().collect();
        assert_eq!(set.len(), 200, "positions must be distinct");
        assert!(pos.iter().all(|&p| p < 1000));
    }

    #[test]
    fn distinct_positions_cover_uniformly() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut counts = [0u32; 10];
        for _ in 0..2000 {
            for p in sample_distinct_positions(&mut rng, 10, 3) {
                counts[p as usize] += 1;
            }
        }
        // Each position expected 600 hits; allow generous tolerance.
        assert!(
            counts.iter().all(|&c| (450..750).contains(&c)),
            "{counts:?}"
        );
    }
}

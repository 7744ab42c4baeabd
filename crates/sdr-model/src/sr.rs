//! Selective Repeat completion-time model (paper §4.2.2 and Appendix A).
//!
//! The i-th chunk of an M-chunk message completes at
//! `X_i = t_start(i) + O·(Y_i − 1)` where `t_start(i) = i·T_INJ`,
//! `O = RTO + T_INJ` is the per-drop overhead, and `Y_i` is geometric with
//! success probability `1 − P_drop`. The message completes at
//! `max_i X_i + RTT`.
//!
//! Two evaluation methods are provided, mirroring the paper:
//!
//! * [`sr_sample`] — a stochastic sample of the completion time, drawn in
//!   O(#drops) rather than O(M) so multi-terabyte messages stay cheap.
//! * [`sr_mean_analytic`] — the Appendix A expectation
//!   `E[max X_i] = Σ_q P(max X_i ≥ q)` evaluated by numerically
//!   integrating the exact tail probability.
//!
//! The paper validates the stochastic model against the analytic expectation
//! within 5%; `tests::stochastic_matches_analytic` repeats that check.

use rand::rngs::SmallRng;

use crate::dist::{sample_binomial, sample_distinct_positions, sample_geometric_trials_ln};
use crate::params::Channel;
use crate::stats::Summary;

/// Selective Repeat tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SrConfig {
    /// Retransmission timeout in seconds
    /// (`RTO = RTT + α·RTT`, §4.1.1).
    pub rto_s: f64,
}

impl SrConfig {
    /// The paper's `SR RTO` scenario: timeout of `mult` network RTTs
    /// (Figure 3/10 uses 3 RTT).
    pub fn rto_multiple(ch: &Channel, mult: f64) -> Self {
        SrConfig {
            rto_s: mult * ch.rtt_s,
        }
    }

    /// The paper's `SR NACK` scenario: best-case negative-acknowledgment
    /// approximation — the sender learns of a drop in one RTT.
    pub fn nack(ch: &Channel) -> Self {
        SrConfig { rto_s: ch.rtt_s }
    }
}

/// Draws one completion-time sample for an `m_chunks`-chunk message.
/// Core sampler shared by the SR and EC-fallback paths.
pub fn sr_sample_chunks(
    m_chunks: u64,
    t_inj: f64,
    p_drop: f64,
    rto_s: f64,
    rtt_s: f64,
    rng: &mut SmallRng,
) -> f64 {
    if m_chunks == 0 {
        return 0.0;
    }
    let base = m_chunks as f64 * t_inj;
    if p_drop <= 0.0 {
        return base + rtt_s;
    }
    let overhead = rto_s + t_inj;
    // Only chunks with Y_i ≥ 2 can exceed the base time; their count is
    // Binomial(M, P_drop) and, conditioned on Y ≥ 2, the number of *extra*
    // transmissions is again geometric.
    let dropped = sample_binomial(rng, m_chunks, p_drop);
    let mut max_x = base;
    if dropped > 0 {
        let ln_p = p_drop.ln();
        for pos in sample_distinct_positions(rng, m_chunks, dropped) {
            let extra = sample_geometric_trials_ln(rng, ln_p);
            let x = (pos + 1) as f64 * t_inj + overhead * extra as f64;
            if x > max_x {
                max_x = x;
            }
        }
    }
    max_x + rtt_s
}

/// Draws one SR completion-time sample for a message of `message_bytes`.
pub fn sr_sample(ch: &Channel, message_bytes: u64, cfg: &SrConfig, rng: &mut SmallRng) -> f64 {
    sr_sample_chunks(
        ch.chunks_for(message_bytes),
        ch.t_inj(),
        ch.p_drop_chunk(),
        cfg.rto_s,
        ch.rtt_s,
        rng,
    )
}

/// Tail-probability cutoff: `p^k` terms below this are ignored.
const TERM_EPS: f64 = 1e-16;
/// Integration stops once the tail probability falls below this.
const TAIL_EPS: f64 = 1e-10;
/// Hard cap on integration steps (safety valve).
const MAX_STEPS: u64 = 80_000_000;

/// Exact tail probability `P(max_i X_i ≥ q)` for `q > M·T_INJ`
/// (Appendix A), evaluated in O(K) by grouping chunks with equal
/// retransmission-count requirement. `ln_survive[k − 1]` is
/// `ln(1 − p^k)` for `k` up to the cutoff `K`.
fn tail_probability(q: f64, m: u64, t_inj: f64, overhead: f64, ln_survive: &[f64]) -> f64 {
    // k_i = ceil((q − i·T_INJ)/O); #(k_i ≥ k) = #{i : i < (q − (k−1)·O)/T_INJ}.
    let count_ge = |k: u32| -> f64 {
        let bound = (q - (k as f64 - 1.0) * overhead) / t_inj;
        if bound <= 1.0 {
            0.0
        } else {
            (bound.ceil() - 1.0).min(m as f64)
        }
    };
    let mut ln_prod = 0.0;
    let mut prev = count_ge(1);
    for (j, ln_s) in ln_survive.iter().enumerate() {
        // `ln_s` is ln(1 − p^k) for k = j + 1; `next` counts k_i ≥ k + 1.
        if prev <= 0.0 {
            break;
        }
        let next = count_ge(j as u32 + 2);
        let exactly_k = prev - next;
        if exactly_k > 0.0 {
            ln_prod += exactly_k * ln_s;
        }
        prev = next;
    }
    // Chunks needing more than K retransmissions contribute ≤ p^K each —
    // below TERM_EPS by construction.
    -f64::exp_m1(ln_prod)
}

/// Analytical expectation of the SR completion time for a message of
/// `m_chunks` chunks (Appendix A), including the final-ACK RTT.
pub fn sr_mean_analytic_chunks(
    m_chunks: u64,
    t_inj: f64,
    p_drop: f64,
    rto_s: f64,
    rtt_s: f64,
) -> f64 {
    if m_chunks == 0 {
        return 0.0;
    }
    let base = m_chunks as f64 * t_inj;
    if p_drop <= 0.0 {
        return base + rtt_s;
    }
    let overhead = rto_s + t_inj;
    // p^k < TERM_EPS ⇒ k > ln(eps)/ln(p).
    let k_max = ((TERM_EPS.ln() / p_drop.ln()).ceil() as i32).clamp(1, 512);
    // The per-k survival logs depend on p alone: built once per call, not
    // once per integration step.
    let ln_survive: Vec<f64> = (1..=k_max).map(|k| f64::ln_1p(-p_drop.powi(k))).collect();

    // E[max X] = base + ∫_base^∞ P(max ≥ q) dq — the tail is piecewise
    // constant with plateaus of width ~T_INJ, so midpoint steps of T_INJ
    // are exact up to boundary slivers.
    let dq = t_inj;
    let mut integral = 0.0;
    let mut q = base + 0.5 * dq;
    let mut steps = 0u64;
    loop {
        let tail = tail_probability(q, m_chunks, t_inj, overhead, &ln_survive);
        integral += tail * dq;
        q += dq;
        steps += 1;
        // Stop once past at least one overhead window with a negligible tail.
        if (tail < TAIL_EPS && q > base + overhead) || steps >= MAX_STEPS {
            break;
        }
    }
    base + integral + rtt_s
}

/// Analytical expectation for a message of `message_bytes` on `ch`.
pub fn sr_mean_analytic(ch: &Channel, message_bytes: u64, cfg: &SrConfig) -> f64 {
    sr_mean_analytic_chunks(
        ch.chunks_for(message_bytes),
        ch.t_inj(),
        ch.p_drop_chunk(),
        cfg.rto_s,
        ch.rtt_s,
    )
}

/// Runs `trials` stochastic samples and summarizes them.
pub fn sr_summary(
    ch: &Channel,
    message_bytes: u64,
    cfg: &SrConfig,
    trials: usize,
    seed: u64,
) -> Summary {
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let samples: Vec<f64> = (0..trials)
        .map(|_| sr_sample(ch, message_bytes, cfg, &mut rng))
        .collect();
    Summary::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ch_400g() -> Channel {
        Channel::new(400e9, 0.025, 1e-5)
    }

    #[test]
    fn lossless_message_is_ideal() {
        let ch = Channel::new(400e9, 0.025, 0.0);
        let cfg = SrConfig::rto_multiple(&ch, 3.0);
        let bytes = 128 << 20;
        let mut rng = SmallRng::seed_from_u64(0);
        let s = sr_sample(&ch, bytes, &cfg, &mut rng);
        let a = sr_mean_analytic(&ch, bytes, &cfg);
        let ideal = ch.ideal_time(bytes);
        assert!((s - ideal).abs() < 1e-12);
        assert!((a - ideal).abs() < 1e-12);
    }

    #[test]
    fn stochastic_matches_analytic() {
        // The paper's own validation: stochastic mean within 5% of the
        // analytic expectation (Section 5.1.1).
        let cases = [
            (128u64 << 20, 1e-5, 3.0), // the Figure 10 focus point
            (128 << 20, 1e-4, 3.0),    // heavier loss
            (8 << 20, 1e-5, 1.0),      // NACK-style short timeout
            (1 << 30, 1e-6, 3.0),      // bigger message, rare loss
        ];
        for (bytes, p, mult) in cases {
            let ch = Channel::new(400e9, 0.025, p);
            let cfg = SrConfig::rto_multiple(&ch, mult);
            let analytic = sr_mean_analytic(&ch, bytes, &cfg);
            let mut rng = SmallRng::seed_from_u64(42);
            let n = 4000;
            let mean: f64 = (0..n)
                .map(|_| sr_sample(&ch, bytes, &cfg, &mut rng))
                .sum::<f64>()
                / n as f64;
            let rel = (mean - analytic).abs() / analytic;
            assert!(
                rel < 0.05,
                "bytes={bytes} p={p}: stochastic {mean} vs analytic {analytic} ({:.1}%)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn rto_exposure_inflates_small_messages() {
        // Figure 10(a): near the critical size 1/P the retransmission cannot
        // hide in the pipeline; slowdown becomes multiple RTOs.
        let ch = ch_400g();
        let cfg = SrConfig::rto_multiple(&ch, 3.0);
        let bytes = 128u64 << 20; // 2048 chunks ≈ 0.28 drop probability
        let mean = sr_mean_analytic(&ch, bytes, &cfg);
        let ideal = ch.ideal_time(bytes);
        let slowdown = mean / ideal;
        assert!(
            slowdown > 1.5,
            "expected visible RTO exposure, slowdown {slowdown:.2}"
        );
    }

    #[test]
    fn large_messages_hide_retransmissions() {
        // Figure 3(a): ≫ BDP messages are injection-bound; SR slowdown → 1.
        let ch = ch_400g();
        let cfg = SrConfig::rto_multiple(&ch, 3.0);
        let bytes = 64u64 << 30; // 64 GiB ≫ BDP (1.25 GB)
        let mean = sr_mean_analytic(&ch, bytes, &cfg);
        let slowdown = mean / ch.ideal_time(bytes);
        assert!(
            slowdown < 1.05,
            "large message slowdown should vanish, got {slowdown:.3}"
        );
    }

    #[test]
    fn nack_beats_rto_at_the_pain_point() {
        // Figure 10(b): reducing detection to 1 RTT improves SR by ~RTO/RTT.
        let ch = ch_400g();
        let bytes = 128u64 << 20;
        let rto = sr_mean_analytic(&ch, bytes, &SrConfig::rto_multiple(&ch, 3.0));
        let nack = sr_mean_analytic(&ch, bytes, &SrConfig::nack(&ch));
        assert!(
            rto / nack > 1.3,
            "NACK should clearly win: rto {rto} vs nack {nack}"
        );
    }

    #[test]
    fn mean_is_monotone_in_drop_rate() {
        let bytes = 128u64 << 20;
        let mut prev = 0.0;
        for p in [1e-7, 1e-6, 1e-5, 1e-4, 1e-3] {
            let ch = Channel::new(400e9, 0.025, p);
            let cfg = SrConfig::rto_multiple(&ch, 3.0);
            let mean = sr_mean_analytic(&ch, bytes, &cfg);
            assert!(mean > prev, "p={p}: {mean} <= {prev}");
            prev = mean;
        }
    }

    #[test]
    fn summary_tail_exceeds_mean_under_loss() {
        let ch = ch_400g();
        let cfg = SrConfig::rto_multiple(&ch, 3.0);
        let s = sr_summary(&ch, 128 << 20, &cfg, 4000, 7);
        assert!(s.p999 > s.mean);
        assert!(s.min >= ch.ideal_time(128 << 20) * 0.999);
    }

    #[test]
    fn zero_chunks_is_zero_time() {
        assert_eq!(sr_mean_analytic_chunks(0, 1e-6, 0.1, 0.075, 0.025), 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sr_sample_chunks(0, 1e-6, 0.1, 0.075, 0.025, &mut rng), 0.0);
    }
}

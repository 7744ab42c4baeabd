//! Erasure-coding completion-time model (paper §4.2.3 and Appendix B).
//!
//! The sender splits an `M`-chunk message into `L = ⌈M/k⌉ data submessages,
//! erasure-codes each into `m` parity chunks, and injects everything
//! back-to-back. The receiver recovers drops in place; only when a
//! submessage is unrecoverable does it fall back to Selective Repeat after a
//! fallback timeout (FTO).

use rand::rngs::SmallRng;

use crate::dist::sample_binomial;
use crate::params::Channel;
use crate::sr::{sr_mean_analytic_chunks, sr_sample_chunks, SrConfig};
use crate::stats::Summary;

/// Which erasure code protects each submessage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcCodeKind {
    /// Maximum Distance Separable (Reed–Solomon): recovers any ≤ m drops.
    Mds,
    /// XOR modulo-group code: tolerates one drop per group.
    Xor,
}

/// Erasure-coding reliability configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EcConfig {
    /// Data chunks per submessage (`k`).
    pub k: u32,
    /// Parity chunks per submessage (`m`).
    pub m: u32,
    /// FTO slack coefficient `β` (paper halves SR's buffering
    /// coefficient; default 0.5).
    pub beta: f64,
    /// The code family.
    pub code: EcCodeKind,
}

impl EcConfig {
    /// The paper's balanced choice: `MDS EC(32, 8)` (Figure 10d).
    pub fn mds(k: u32, m: u32) -> Self {
        EcConfig {
            k,
            m,
            beta: 0.5,
            code: EcCodeKind::Mds,
        }
    }

    /// An XOR modulo-group configuration.
    pub fn xor(k: u32, m: u32) -> Self {
        EcConfig {
            k,
            m,
            beta: 0.5,
            code: EcCodeKind::Xor,
        }
    }

    /// Bandwidth inflation factor `1 + m/k` (Figure 10d: (32,8) ⇒ 1.25,
    /// i.e. "no more than 20% of the 32+8 total is parity").
    pub fn bandwidth_inflation(&self) -> f64 {
        1.0 + self.m as f64 / self.k as f64
    }
}

/// Probability that one submessage is recoverable (Appendix B).
///
/// * MDS: `P(X ≤ m)` with `X ~ Binomial(k+m, p)`.
/// * XOR: every modulo group must lose at most one of its `n_g` members
///   (the paper's `[(1-p)^n + n·p·(1-p)^(n-1)]^m` when `m | k`; the general
///   per-group product otherwise).
pub fn p_submessage_recovery(cfg: &EcConfig, p_chunk: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p_chunk));
    if p_chunk <= 0.0 {
        return 1.0;
    }
    if p_chunk >= 1.0 {
        return 0.0;
    }
    let (k, m) = (cfg.k as u64, cfg.m as u64);
    match cfg.code {
        EcCodeKind::Mds => {
            // Σ_{i=0}^{m} C(k+m, i) p^i (1-p)^{k+m-i}, built incrementally.
            let n = (k + m) as f64;
            let q = 1.0 - p_chunk;
            let mut term = q.powf(n); // i = 0
            let mut sum = term;
            for i in 1..=m {
                term *= (n - (i as f64 - 1.0)) / i as f64 * (p_chunk / q);
                sum += term;
            }
            sum.min(1.0)
        }
        EcCodeKind::Xor => {
            let q = 1.0 - p_chunk;
            let mut prod = 1.0;
            for g in 0..m {
                // Group g: data chunks j < k with j % m == g, plus parity.
                let data_in_group = k / m + u64::from(k % m > g);
                let n_g = (data_in_group + 1) as f64;
                prod *= q.powf(n_g) + n_g * p_chunk * q.powf(n_g - 1.0);
            }
            prod.min(1.0)
        }
    }
}

/// Number of data submessages for a message of `m_chunks` chunks.
pub fn submessage_count(cfg: &EcConfig, m_chunks: u64) -> u64 {
    m_chunks.div_ceil(cfg.k as u64).max(1)
}

/// Probability that at least one submessage fails, forcing SR fallback:
/// `1 − P_EC^L` (§4.2.3).
pub fn p_fallback(cfg: &EcConfig, m_chunks: u64, p_chunk: f64) -> f64 {
    let l = submessage_count(cfg, m_chunks);
    let p_rec = p_submessage_recovery(cfg, p_chunk);
    -f64::exp_m1(l as f64 * p_rec.ln())
}

/// Expected number of failed submessages `L·(1 − P_EC)`.
pub fn expected_failures(cfg: &EcConfig, m_chunks: u64, p_chunk: f64) -> f64 {
    submessage_count(cfg, m_chunks) as f64 * (1.0 - p_submessage_recovery(cfg, p_chunk))
}

/// Total chunks on the wire (data + parity) for an `m_chunks` message.
pub fn wire_chunks(cfg: &EcConfig, m_chunks: u64) -> u64 {
    m_chunks + submessage_count(cfg, m_chunks) * cfg.m as u64
}

/// The paper's lower bound on `E[T_EC]` (§4.2.3, three terms), plus the
/// final-ACK RTT so it is comparable to [`sr_mean_analytic`] and to the
/// stochastic sampler.
///
/// [`sr_mean_analytic`]: crate::sr::sr_mean_analytic
pub fn ec_mean_lower_bound(
    ch: &Channel,
    message_bytes: u64,
    cfg: &EcConfig,
    fallback_sr: &SrConfig,
) -> f64 {
    let m_chunks = ch.chunks_for(message_bytes);
    let t_inj = ch.t_inj();
    let p = ch.p_drop_chunk();
    let base = wire_chunks(cfg, m_chunks) as f64 * t_inj + ch.rtt_s;
    let p_fb = p_fallback(cfg, m_chunks, p);
    let timeout_term = p_fb * (ch.rtt_s + cfg.beta * ch.rtt_s);
    let e_fail_chunks = expected_failures(cfg, m_chunks, p) * cfg.k as f64;
    let retx_term = if e_fail_chunks <= 0.0 {
        0.0
    } else if e_fail_chunks < 1.0 {
        // Fractional expected retransmission: scale the one-chunk cost.
        e_fail_chunks * sr_mean_analytic_chunks(1, t_inj, p, fallback_sr.rto_s, ch.rtt_s)
    } else {
        sr_mean_analytic_chunks(
            e_fail_chunks.round() as u64,
            t_inj,
            p,
            fallback_sr.rto_s,
            ch.rtt_s,
        ) * p_fb
    };
    base + timeout_term + retx_term
}

/// Draws one EC completion-time sample.
///
/// Success path: all `L` submessages decodable on arrival; completion is
/// wire injection plus the positive-ACK round trip. Fallback path: the
/// receiver arms `FTO = (M + ⌈M/R⌉)·T_INJ + β·RTT` at first chunk arrival,
/// NACKs the failed submessages, and the sender selective-repeats
/// `failures·k` chunks.
pub fn ec_sample(
    ch: &Channel,
    message_bytes: u64,
    cfg: &EcConfig,
    fallback_sr: &SrConfig,
    rng: &mut SmallRng,
) -> f64 {
    let p_fail = 1.0 - p_submessage_recovery(cfg, ch.p_drop_chunk());
    ec_sample_given(ch, message_bytes, cfg, fallback_sr, p_fail, rng)
}

/// [`ec_sample`] given the submessage failure probability, which depends
/// on the channel alone — [`ec_summary`] computes it once, not per trial.
fn ec_sample_given(
    ch: &Channel,
    message_bytes: u64,
    cfg: &EcConfig,
    fallback_sr: &SrConfig,
    p_fail: f64,
    rng: &mut SmallRng,
) -> f64 {
    let m_chunks = ch.chunks_for(message_bytes);
    let t_inj = ch.t_inj();
    let p = ch.p_drop_chunk();
    let l = submessage_count(cfg, m_chunks);
    let total_wire = wire_chunks(cfg, m_chunks);
    let success_time = total_wire as f64 * t_inj + ch.rtt_s;

    let failures = sample_binomial(rng, l, p_fail);
    if failures == 0 {
        return success_time;
    }
    // Fallback: FTO armed at first-chunk arrival, NACK, then SR retransmit.
    let fto = total_wire as f64 * t_inj + cfg.beta * ch.rtt_s;
    let first_arrival = t_inj + ch.rtt_s / 2.0;
    let nack_at_sender = first_arrival + fto + ch.rtt_s / 2.0;
    let retx_chunks = failures * cfg.k as u64;
    let t_sr = sr_sample_chunks(retx_chunks, t_inj, p, fallback_sr.rto_s, ch.rtt_s, rng);
    nack_at_sender + t_sr
}

/// Runs `trials` stochastic samples and summarizes them.
pub fn ec_summary(
    ch: &Channel,
    message_bytes: u64,
    cfg: &EcConfig,
    fallback_sr: &SrConfig,
    trials: usize,
    seed: u64,
) -> Summary {
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let p_fail = 1.0 - p_submessage_recovery(cfg, ch.p_drop_chunk());
    let samples: Vec<f64> = (0..trials)
        .map(|_| ec_sample_given(ch, message_bytes, cfg, fallback_sr, p_fail, &mut rng))
        .collect();
    Summary::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mds32_8() -> EcConfig {
        EcConfig::mds(32, 8)
    }

    #[test]
    fn recovery_probability_edges() {
        let cfg = mds32_8();
        assert_eq!(p_submessage_recovery(&cfg, 0.0), 1.0);
        assert_eq!(p_submessage_recovery(&cfg, 1.0), 0.0);
        let mid = p_submessage_recovery(&cfg, 0.05);
        assert!(mid > 0.9 && mid < 1.0, "got {mid}");
    }

    #[test]
    fn mds_formula_matches_monte_carlo() {
        // Appendix B sanity: simulate Binomial(k+m, p) ≤ m directly.
        let cfg = EcConfig::mds(8, 3);
        let p = 0.08;
        let analytic = p_submessage_recovery(&cfg, p);
        let mut rng = SmallRng::seed_from_u64(9);
        let trials = 200_000;
        let ok = (0..trials)
            .filter(|_| {
                let drops = (0..11)
                    .filter(|_| rand::Rng::random::<f64>(&mut rng) < p)
                    .count();
                drops <= 3
            })
            .count();
        let mc = ok as f64 / trials as f64;
        assert!(
            (mc - analytic).abs() < 0.005,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn xor_formula_matches_paper_closed_form_when_divisible() {
        // m | k: the general per-group product must equal the paper's
        // [(1-p)^n + n p (1-p)^(n-1)]^m with n = k/m + 1.
        let cfg = EcConfig::xor(32, 8);
        for p in [1e-4, 1e-3, 1e-2, 0.1] {
            let n = (32 / 8 + 1) as f64;
            let q: f64 = 1.0 - p;
            let paper = (q.powf(n) + n * p * q.powf(n - 1.0)).powi(8);
            let ours = p_submessage_recovery(&cfg, p);
            assert!((ours - paper).abs() < 1e-12, "p={p}: {ours} vs {paper}");
        }
    }

    #[test]
    fn xor_formula_matches_monte_carlo() {
        let cfg = EcConfig::xor(8, 4);
        let p = 0.1;
        let analytic = p_submessage_recovery(&cfg, p);
        let mut rng = SmallRng::seed_from_u64(10);
        let trials = 200_000;
        let ok = (0..trials)
            .filter(|_| {
                // Data j lost? group g = j % 4 (j < 8); parity g lost?
                let mut group_losses = [0u32; 4];
                for j in 0..8 {
                    if rand::Rng::random::<f64>(&mut rng) < p {
                        group_losses[j % 4] += 1;
                    }
                }
                for g in 0..4 {
                    if rand::Rng::random::<f64>(&mut rng) < p {
                        group_losses[g] += 1;
                    }
                }
                group_losses.iter().all(|&l| l <= 1)
            })
            .count();
        let mc = ok as f64 / trials as f64;
        assert!(
            (mc - analytic).abs() < 0.005,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn mds_tolerates_more_than_xor() {
        // Figure 11: XOR's resilience collapses around 1e-3 while MDS holds
        // beyond 1e-2 (128 MiB message, 64 KiB chunks, (32,8)).
        let ch = Channel::new(400e9, 0.025, 0.0);
        let m_chunks = ch.chunks_for(128 << 20);
        let mds = EcConfig::mds(32, 8);
        let xor = EcConfig::xor(32, 8);
        // At chunk-drop 1e-2 the XOR fallback probability is large enough to
        // dominate the tail (≈0.4 per message) while MDS is still immune.
        let fb_mds = p_fallback(&mds, m_chunks, 1e-2);
        let fb_xor = p_fallback(&xor, m_chunks, 1e-2);
        assert!(
            fb_xor > 0.2,
            "XOR fallback should dominate the tail: {fb_xor}"
        );
        assert!(fb_mds < 1e-4, "MDS should hold at 1e-2: {fb_mds}");
        // At 1e-3 XOR already pollutes the 99.9th percentile (p > 1e-3)
        // while MDS does not — the Figure 11 crossover.
        assert!(p_fallback(&xor, m_chunks, 1e-3) > 1e-3);
        assert!(p_fallback(&mds, m_chunks, 1e-3) < 1e-9);
    }

    #[test]
    fn fallback_probability_is_monotone() {
        let cfg = mds32_8();
        let mut prev = 0.0;
        for p in [1e-5, 1e-4, 1e-3, 1e-2, 5e-2] {
            let fb = p_fallback(&cfg, 2048, p);
            assert!(fb >= prev);
            prev = fb;
        }
    }

    #[test]
    fn ec_close_to_ideal_in_its_sweet_spot() {
        // Figure 3(a): EC stays near ideal at the sizes where SR suffers.
        let ch = Channel::new(400e9, 0.025, 1e-5);
        let cfg = mds32_8();
        let sr = SrConfig::rto_multiple(&ch, 3.0);
        let bytes = 128u64 << 20;
        let s = ec_summary(&ch, bytes, &cfg, &sr, 3000, 3);
        let ideal = ch.ideal_time(bytes);
        // EC pays the 25% parity bandwidth but avoids RTO exposure.
        assert!(
            s.mean / ideal < 1.35,
            "EC mean slowdown {:.2} too high",
            s.mean / ideal
        );
    }

    #[test]
    fn ec_sample_hits_fallback_at_extreme_drop_rates() {
        // Figure 10(b): at 1e-2 packet drop (chunk drop ≈ 0.15 with 16
        // packets per chunk) MDS(32,8) wastes parity and falls back.
        let ch = Channel::new(400e9, 0.025, 1e-2);
        let cfg = mds32_8();
        let sr = SrConfig::rto_multiple(&ch, 3.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let bytes = 16u64 << 20;
        let ideal = ch.ideal_time(bytes);
        let mean: f64 = (0..500)
            .map(|_| ec_sample(&ch, bytes, &cfg, &sr, &mut rng))
            .sum::<f64>()
            / 500.0;
        assert!(
            mean / ideal > 1.5,
            "fallback should dominate: {}",
            mean / ideal
        );
    }

    #[test]
    fn lower_bound_is_below_stochastic_mean() {
        let ch = Channel::new(400e9, 0.025, 1e-4);
        let cfg = mds32_8();
        let sr = SrConfig::rto_multiple(&ch, 3.0);
        let bytes = 128u64 << 20;
        let lb = ec_mean_lower_bound(&ch, bytes, &cfg, &sr);
        let s = ec_summary(&ch, bytes, &cfg, &sr, 4000, 5);
        assert!(
            lb <= s.mean * 1.02,
            "lower bound {lb} exceeds stochastic mean {}",
            s.mean
        );
    }

    #[test]
    fn wire_chunks_counts_parity() {
        let cfg = mds32_8();
        assert_eq!(wire_chunks(&cfg, 2048), 2048 + 64 * 8); // L = 64
        assert_eq!(wire_chunks(&cfg, 1), 1 + 8); // one partial submessage
    }

    #[test]
    fn bandwidth_inflation_of_paper_config() {
        assert!((mds32_8().bandwidth_inflation() - 1.25).abs() < 1e-12);
    }
}

//! # sdr-model — completion-time models for SDR-RDMA reliability schemes
//!
//! A Rust port of the paper's open-source analysis framework (contribution 4,
//! §4.2): given inter-datacenter channel parameters — drop rate, delay,
//! bandwidth, message size — it predicts RDMA Write completion time under
//! Selective Repeat and Erasure Coding reliability, both analytically and by
//! stochastic simulation.
//!
//! * [`Channel`] — §4.2.1 notation: `T_INJ`, per-chunk drop probability
//!   (`1 − (1−p)^N`, Figure 15), BDP, ideal time.
//! * [`sr`] — Appendix A: exact tail-sum expectation `E[T_SR]` plus an
//!   O(#drops) stochastic sampler, validated against each other within 5%
//!   exactly as the paper does.
//! * [`ec`] — §4.2.3 and Appendix B: submessage recovery probabilities for
//!   MDS and XOR codes, fallback probability, the three-term lower bound,
//!   and a path-level stochastic sampler.
//! * [`gbn`] — a Go-Back-N baseline showing why the paper studies SR as the
//!   ARQ representative, window-aware: one serialized `RTO + rewind` round
//!   repairs every hole the rewind window spans.
//! * [`boundary`] — Figure 9's SR ⇄ EC decision boundary as a queryable
//!   drop-rate threshold (what an adaptive controller compares its live
//!   loss estimate against, with hysteresis).
//! * [`Summary`] — mean / p50 / p99 / p99.9 order statistics (the paper
//!   reports mean and 99.9th percentile).

#![warn(missing_docs)]

pub mod boundary;
pub mod dist;
pub mod ec;
pub mod gbn;
pub mod params;
pub mod quantile;
pub mod sr;
pub mod stats;

pub use boundary::{fig09_boundary_p_packet, fig09_boundary_verdict, sr_ec_speedup};
pub use ec::{
    ec_mean_lower_bound, ec_sample, ec_summary, expected_failures, p_fallback,
    p_submessage_recovery, submessage_count, wire_chunks, EcCodeKind, EcConfig,
};
pub use gbn::{gbn_sample, gbn_summary, GbnConfig};
pub use params::{chunk_drop_probability, rtt_from_km, Channel, C_LIGHT_M_PER_S};
pub use quantile::{sr_quantile_analytic, sr_tail_probability};
pub use sr::{
    sr_mean_analytic, sr_mean_analytic_chunks, sr_sample, sr_sample_chunks, sr_summary, SrConfig,
};
pub use stats::{percentile_sorted, Summary};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Completion time is never below the lossless ideal.
        #[test]
        fn sr_sample_at_least_ideal(
            bytes in 1u64..(1 << 30),
            p_exp in 2u32..6,
            seed in any::<u64>(),
        ) {
            let p = 10f64.powi(-(p_exp as i32));
            let ch = Channel::new(400e9, 0.025, p);
            let cfg = SrConfig::rto_multiple(&ch, 3.0);
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = sr_sample(&ch, bytes, &cfg, &mut rng);
            prop_assert!(t >= ch.ideal_time(bytes) * 0.999999);
        }

        /// The analytic mean is also bounded below by the ideal time and
        /// above by a crude everything-drops-once bound.
        #[test]
        fn sr_analytic_is_sane(
            chunks in 1u64..10_000,
            p_exp in 2u32..6,
        ) {
            let p = 10f64.powi(-(p_exp as i32));
            let (t_inj, rto, rtt) = (1.31072e-6, 0.075, 0.025);
            let mean = sr_mean_analytic_chunks(chunks, t_inj, p, rto, rtt);
            let ideal = chunks as f64 * t_inj + rtt;
            prop_assert!(mean >= ideal * 0.999999, "mean {mean} < ideal {ideal}");
            // With 10k chunks at p ≤ 1e-2 the expected extra cost is far
            // below 60 overhead windows.
            prop_assert!(mean <= ideal + 60.0 * (rto + t_inj));
        }

        /// EC recovery probability decreases in p and increases in parity.
        /// Comparisons carry a 1e-12 epsilon: near p → 0 both values are
        /// 1 − O(p^m) and differ only by accumulation rounding.
        #[test]
        fn ec_probability_monotonicity(p in 1e-6f64..0.3) {
            let low_parity = EcConfig::mds(32, 4);
            let high_parity = EcConfig::mds(32, 8);
            prop_assert!(
                p_submessage_recovery(&high_parity, p)
                    >= p_submessage_recovery(&low_parity, p) - 1e-12
            );
            prop_assert!(
                p_submessage_recovery(&high_parity, p)
                    >= p_submessage_recovery(&high_parity, (p * 1.5).min(1.0)) - 1e-12
            );
            // MDS dominates XOR at the same (k, m).
            prop_assert!(
                p_submessage_recovery(&EcConfig::mds(32, 8), p)
                    >= p_submessage_recovery(&EcConfig::xor(32, 8), p) - 1e-12
            );
        }

        /// EC samples are never below the wire time of data + parity.
        #[test]
        fn ec_sample_at_least_wire_time(
            bytes in (1u64 << 20)..(1 << 28),
            seed in any::<u64>(),
        ) {
            let ch = Channel::new(400e9, 0.025, 1e-4);
            let cfg = EcConfig::mds(32, 8);
            let sr = SrConfig::rto_multiple(&ch, 3.0);
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = ec_sample(&ch, bytes, &cfg, &sr, &mut rng);
            let wire = wire_chunks(&cfg, ch.chunks_for(bytes)) as f64 * ch.t_inj();
            prop_assert!(t >= wire * 0.999999);
        }
    }
}

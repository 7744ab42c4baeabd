//! The Figure 9 SR ⇄ EC decision boundary, as a queryable function.
//!
//! Figure 9 plots the mean-slowdown speedup of MDS EC over SR RTO across
//! message size × drop rate: above a loss threshold EC wins (the red
//! region), below it SR's lower wire overhead wins. Static deployments read
//! the figure once; an *adaptive* controller needs the boundary as a number
//! it can compare a live loss estimate against — with hysteresis margins on
//! either side so a noisy estimate hovering near the boundary does not flap
//! the scheme.
//!
//! [`fig09_boundary_p_packet`] computes that number: the packet drop rate at
//! which the analytic SR mean ([`sr_mean_analytic`]) first exceeds the EC
//! mean lower bound ([`ec_mean_lower_bound`]) scaled by the advisor's CPU
//! tie-break factor. Both sides are closed-form, so the search is
//! deterministic — but not cheap: every probe integrates the SR tail across
//! an RTO window, and the full scan-and-bisect takes ≈ 6–10 ms per call on
//! the adaptive benchmark's link (2-vCPU Xeon). A controller tick needs
//! only which side of its hysteresis gate the boundary lies on, so it asks
//! [`fig09_boundary_verdict`], which is the same search stopped as soon as
//! every answer it could still return gets the same verdict.

use crate::ec::{ec_mean_lower_bound, EcConfig};
use crate::params::Channel;
use crate::sr::{sr_mean_analytic, SrConfig};

/// Smallest packet drop rate probed by the boundary search. Below this the
/// channel is effectively clean for any realistic message.
pub const BOUNDARY_P_MIN: f64 = 1e-8;
/// Largest packet drop rate probed. Beyond a few percent per packet the
/// chunk drop probability saturates and every scheme is in fallback.
pub const BOUNDARY_P_MAX: f64 = 5e-2;

/// The EC-advantage factor mirrored from the advisor's tie-break (§5.2.2):
/// EC must beat SR by this much before switching pays, because encode and
/// decode burn real CPU the latency models do not see.
pub const EC_ADVANTAGE: f64 = 1.05;

/// Mean-speedup of EC over SR at one operating point:
/// `sr_mean_analytic / ec_mean_lower_bound`. Values above 1 favour EC
/// (Figure 9's red region), below 1 favour SR.
pub fn sr_ec_speedup(ch: &Channel, message_bytes: u64, ec: &EcConfig, sr: &SrConfig) -> f64 {
    sr_mean_analytic(ch, message_bytes, sr) / ec_mean_lower_bound(ch, message_bytes, ec, sr)
}

/// The packet drop rate at which the recommendation crosses from SR to EC
/// for this deployment (bandwidth, RTT, message size, EC split): the
/// smallest `p` in `[BOUNDARY_P_MIN, BOUNDARY_P_MAX]` where
/// `sr_mean ≥ EC_ADVANTAGE · ec_mean_lower_bound`.
///
/// Returns `None` when the boundary lies outside the probed range — either
/// EC never pays on this deployment (e.g. multi-GiB messages whose
/// retransmissions hide in the injection pipeline) or EC already pays at
/// the lowest probed rate.
///
/// The SR config's RTO is re-derived from the channel at every probe point
/// via `SrConfig::rto_multiple(ch, sr_rto_mult)`, matching how deployments
/// tune RTO to the measured RTT.
pub fn fig09_boundary_p_packet(
    bandwidth_bps: f64,
    rtt_s: f64,
    message_bytes: u64,
    ec: &EcConfig,
    sr_rto_mult: f64,
) -> Option<f64> {
    let favours_ec = favours_ec(bandwidth_bps, rtt_s, message_bytes, ec, sr_rto_mult);
    boundary_search(favours_ec, |_, _| false)
}

/// Relative widening of a bracket's ends before [`fig09_boundary_verdict`]
/// compares verdicts there: far wider than the few ulps `exp(ln(x))`
/// rounding can move a grid point, far narrower than any gate it decides.
const GUARD: f64 = 1e-9;

/// `verdict` of [`fig09_boundary_p_packet`]'s answer, probing only as far
/// as it takes to know it. `verdict` must be monotone in the boundary, with
/// `None` ranking above every rate (no crossing in range: EC never pays).
///
/// Exactness: before each probe the answers the search can still return
/// lie in a bracket `[lo, hi]` — plus `None` while it scans — up to the
/// rounding of `exp(ln(x))` at scan points, a few ulps. When `verdict`
/// agrees at `lo·(1 − GUARD)` and at `hi·(1 + GUARD)` (or `None`), it
/// agrees, by monotonicity, on every one of them, so stopping there returns
/// what the full search would. A gate within the guard band of the answer
/// keeps the ends disagreeing, so the search runs its full bisection and
/// `verdict` judges the exact answer.
pub fn fig09_boundary_verdict(
    bandwidth_bps: f64,
    rtt_s: f64,
    message_bytes: u64,
    ec: &EcConfig,
    sr_rto_mult: f64,
    verdict: impl Fn(Option<f64>) -> bool,
) -> bool {
    let favours_ec = favours_ec(bandwidth_bps, rtt_s, message_bytes, ec, sr_rto_mult);
    let settled = |lo: f64, hi: Option<f64>| {
        verdict(Some(lo * (1.0 - GUARD))) == verdict(hi.map(|h| h * (1.0 + GUARD)))
    };
    verdict(boundary_search(favours_ec, settled))
}

/// The probe: whether SR's mean exceeds `EC_ADVANTAGE ×` EC's lower bound
/// at packet drop rate `p`.
fn favours_ec(
    bandwidth_bps: f64,
    rtt_s: f64,
    message_bytes: u64,
    ec: &EcConfig,
    sr_rto_mult: f64,
) -> impl Fn(f64) -> bool + '_ {
    move |p| {
        let ch = Channel::new(bandwidth_bps, rtt_s, p);
        let sr = SrConfig::rto_multiple(&ch, sr_rto_mult);
        sr_mean_analytic(&ch, message_bytes, &sr)
            >= EC_ADVANTAGE * ec_mean_lower_bound(&ch, message_bytes, ec, &sr)
    }
}

/// The one scan-and-bisect. Before each probe it asks `settled(lo, hi)`
/// whether the answers still reachable — rates in `[lo, hi]`, or with
/// `hi = None` any rate from `lo` up or no crossing at all — are as good as
/// one another, and if so returns `Some(lo)`, one of them.
fn boundary_search(
    favours_ec: impl Fn(f64) -> bool,
    settled: impl Fn(f64, Option<f64>) -> bool,
) -> Option<f64> {
    if settled(BOUNDARY_P_MIN, None) {
        return Some(BOUNDARY_P_MIN);
    }
    if favours_ec(BOUNDARY_P_MIN) {
        return Some(BOUNDARY_P_MIN); // EC pays even on a clean channel.
    }
    // The speedup is not monotone over the whole range (at extreme loss
    // both schemes sink into fallback and the EC bound turns pessimistic),
    // so geometric-scan for the first upward crossing — the SR→EC edge of
    // Figure 9's red region — then bisect inside that bracket.
    const STEPS_PER_DECADE: usize = 8;
    let decades = (BOUNDARY_P_MAX / BOUNDARY_P_MIN).log10();
    let n = (decades * STEPS_PER_DECADE as f64).ceil() as usize;
    let at = |i: usize| {
        (BOUNDARY_P_MIN.ln() + (BOUNDARY_P_MAX.ln() - BOUNDARY_P_MIN.ln()) * i as f64 / n as f64)
            .exp()
    };
    let mut bracket = None;
    for i in 1..=n {
        if settled(at(i - 1), None) {
            return Some(at(i - 1));
        }
        if favours_ec(at(i)) {
            bracket = Some((at(i - 1), at(i)));
            break;
        }
    }
    let (mut lo, mut hi) = bracket?;
    (lo, hi) = (lo.ln(), hi.ln());
    for _ in 0..50 {
        if settled(lo.exp(), Some(hi.exp())) {
            return Some(lo.exp());
        }
        let mid = 0.5 * (lo + hi);
        if favours_ec(mid.exp()) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi.exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's workhorse deployment at 128 MiB: the red region of
    /// Figure 9 starts well below 1e-4, so the boundary must sit between
    /// the clean regime and the paper's quoted red cells.
    #[test]
    fn boundary_sits_inside_fig09_red_region() {
        let ec = EcConfig::mds(32, 8);
        let p = fig09_boundary_p_packet(400e9, 0.025, 128 << 20, &ec, 3.0)
            .expect("128 MiB at 400G/25ms has an SR→EC crossing");
        assert!(
            (1e-8..1e-4).contains(&p),
            "boundary {p:e} outside the expected band"
        );
        // Consistency: just below the boundary SR wins, just above EC wins.
        let below = Channel::new(400e9, 0.025, p / 2.0);
        let above = Channel::new(400e9, 0.025, (p * 2.0).min(BOUNDARY_P_MAX));
        let sr_b = SrConfig::rto_multiple(&below, 3.0);
        let sr_a = SrConfig::rto_multiple(&above, 3.0);
        assert!(sr_ec_speedup(&below, 128 << 20, &ec, &sr_b) < EC_ADVANTAGE);
        assert!(sr_ec_speedup(&above, 128 << 20, &ec, &sr_a) >= EC_ADVANTAGE);
    }

    /// The boundary traces Figure 9's red region edge, which is U-shaped
    /// in message size: small messages rarely drop anything at all (few
    /// chunks → SR tolerates more loss before EC pays), and huge messages
    /// hide retransmissions in the injection pipeline (boundary climbs
    /// back). The deep-dive sizes in between sit at the bottom.
    #[test]
    fn boundary_follows_fig09_u_shape_in_message_size() {
        let ec = EcConfig::mds(32, 8);
        let at = |bytes: u64| {
            fig09_boundary_p_packet(400e9, 0.025, bytes, &ec, 3.0)
                .unwrap_or_else(|| panic!("crossing exists for {bytes} bytes"))
        };
        let small = at(8 << 20);
        let mid = at(128 << 20);
        let huge = at(8 << 30);
        assert!(small > mid, "8 MiB {small:e} must exceed 128 MiB {mid:e}");
        assert!(huge > mid, "8 GiB {huge:e} must exceed 128 MiB {mid:e}");
    }

    /// A near-zero-RTT deployment (intra-DC) keeps SR competitive: if a
    /// boundary exists at all it must be higher than the long-haul one
    /// (RTO stalls are what EC amortizes).
    #[test]
    fn long_rtt_lowers_the_boundary() {
        let ec = EcConfig::mds(32, 8);
        let wan = fig09_boundary_p_packet(400e9, 0.025, 128 << 20, &ec, 3.0)
            .expect("WAN crossing exists");
        if let Some(lan) = fig09_boundary_p_packet(400e9, 0.0005, 128 << 20, &ec, 3.0) {
            assert!(lan >= wan, "lan {lan:e} below wan {wan:e}");
        }
    }
}
